//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root repeats these names, units,
//! directions and bounds; a test keeps the two in step.

use cbr_bench::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and for end-to-end metrics the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

/// What a user of the engine sees; taken with tracing off. Every one is
/// defined, and never 0, on every workload. Failures are not in this
/// list because a metric here must never read 0: they travel in the
/// result line's `failed` / `attempted` / `correct`.
///
/// The time bounds are 0.25, the widest the driver takes: ten runs at
/// ten seeds spread by 2–10 % of their median here, and the driver's
/// host spreads the same code two to three times as wide (the
/// measurements are in the README).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p90_ms", "ms", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("write_p50_us", "us", Better::Lower, 0.25),
];

/// Single layers, from the traced run; layer = crate name. Times are
/// per-query medians unless the name says otherwise, counts per-query
/// means.
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up, one span per public constructor.
    layer("ontology.generate_s", "s"),
    layer("ontology.path_table_s", "s"),
    layer("corpus.generate_s", "s"),
    layer("corpus.filter_s", "s"),
    layer("index.build_s", "s"),
    layer("core.build_s", "s"),
    // The read path, outermost first.
    layer("trace.query_p50_ms", "ms"),
    layer("core.session_us", "us"),
    layer("core.normalize_us", "us"),
    layer("knds.query_us", "us"),
    layer("knds.self_us", "us"),
    layer("index.postings_calls", "count"),
    layer("index.postings_docs", "count"),
    layer("index.postings_us", "us"),
    layer("index.doc_concepts_calls", "count"),
    layer("index.doc_concepts_items", "count"),
    layer("index.doc_concepts_us", "us"),
    layer("dradix.probe_calls", "count"),
    layer("dradix.probe_us", "us"),
    layer("dradix.probe_us_each", "us"),
    layer("dradix.dag_nodes", "count"),
    // Work counters kNDS returns, and useful outcomes against attempts.
    layer("knds.nodes_visited", "count"),
    layer("knds.levels", "count"),
    layer("knds.candidates_seen", "count"),
    layer("knds.docs_examined", "count"),
    layer("knds.drc_calls", "count"),
    layer("knds.exact_from_partial", "count"),
    layer("knds.forced_rounds", "count"),
    layer("knds.candidates_per_result", "ratio"),
    layer("knds.examined_per_result", "ratio"),
    layer("knds.selftimed_residual_share", "ratio"),
    // The write path.
    layer("core.add_document_us", "us"),
    layer("core.remove_document_us", "us"),
    layer("core.publish_us", "us"),
    layer("core.compact_ms", "ms"),
    layer("core.compact_count", "count"),
    layer("core.write_stalled_share", "ratio"),
    layer("core.write_lag_p99_ms", "ms"),
    layer("core.writer_lateness_p99_ms", "ms"),
    MetricDef { name: "core.overlap_share", unit: "ratio", better: Better::Higher, bound: None },
    layer("index.append_us", "us"),
    layer("index.view_us", "us"),
    layer("index.compact_all_ms", "ms"),
    layer("index.segments", "count"),
    layer("index.dead_share", "ratio"),
    // How far the instrument itself can be trusted.
    layer("trace.overhead_share", "ratio"),
    layer("trace.reconcile_residual_share", "ratio"),
];

/// Largest reconciliation residual `--all` accepts.
pub const MAX_RECONCILE_RESIDUAL: f64 = 0.10;

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted (reads, writes and oracle checks).
    pub attempted: usize,
    /// Operations that returned `Err` or a wrong result. A digest
    /// mismatch counts as every operation.
    pub failed: usize,
    /// `(name, value)` for every metric of the run's catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Hex digest of every timed result (read-only workloads, untraced).
    pub digest: Option<String>,
    /// What the percentiles rest on, for the table's heading: the sample
    /// count and the quantile actually reported as `query_p90_ms`.
    pub note: String,
}

impl Outcome {
    /// The value of `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, catalogue: &[MetricDef]) -> String {
        let metrics = catalogue
            .iter()
            .map(|def| {
                let value = self.value(def.name).unwrap_or(f64::NAN);
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(def.unit.into())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        // `render` pretty-prints; strings hold no raw newline, so joining
        // the trimmed lines gives the same document on one line.
        line.render().lines().map(str::trim_start).collect()
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self, workload: &str, catalogue: &[MetricDef]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {workload}: {} operations, {} failed, {}{}",
            self.attempted,
            self.failed,
            self.note,
            self.digest.as_ref().map_or(String::new(), |d| format!(", digest {d}")),
        );
        for def in catalogue {
            let value = self.value(def.name).unwrap_or(f64::NAN);
            let _ = writeln!(out, "{:<34} {:>16.4} {}", def.name, value, def.unit);
        }
        out
    }
}

/// Checks a result line against the contract: exactly the four keys,
/// every catalogue metric present with its unit and a finite value, no
/// metric outside the catalogue, names within `[A-Za-z0-9_.-]`.
pub fn validate_line(line: &str, catalogue: &[MetricDef]) -> Result<Json, String> {
    let json = Json::parse(line).map_err(|e| e.to_string())?;
    let Json::Obj(members) = &json else {
        return Err("result line is not an object".into());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    if !matches!(json.get("correct"), Some(Json::Bool(_))) {
        return Err("`correct` is not a boolean".into());
    }
    let count = |key: &str| json.get(key).and_then(Json::as_f64).filter(|v| v.fract() == 0.0);
    let (Some(attempted), Some(failed)) = (count("attempted"), count("failed")) else {
        return Err("`attempted` / `failed` are not whole numbers".into());
    };
    if attempted < 1.0 || failed < 0.0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    for (name, entry) in metrics {
        let ok_name = !name.is_empty()
            && name.len() <= 64
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b));
        let Some(def) = catalogue.iter().find(|d| d.name == name) else {
            return Err(format!("metric {name:?} is not in the catalogue"));
        };
        if !ok_name {
            return Err(format!("metric name {name:?} leaves [A-Za-z0-9_.-]"));
        }
        if entry.get("unit").and_then(Json::as_str) != Some(def.unit) {
            return Err(format!("metric {name} has the wrong unit"));
        }
        if !entry.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite) {
            return Err(format!("metric {name} has no finite value"));
        }
    }
    if let Some(missing) = catalogue.iter().find(|d| !metrics.iter().any(|(n, _)| n == d.name)) {
        return Err(format!("metric {} is missing", missing.name));
    }
    Ok(json)
}
