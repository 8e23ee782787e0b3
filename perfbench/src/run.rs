//! One run of one workload: set-up, oracle, warm-up, load, metrics.
//!
//! [`run_untraced`] yields the end-to-end metrics, [`run_traced`] the
//! per-layer ones; tracing is never on while the first are taken.

use crate::drive::{call, peak_rss_mb, run_load, run_reader, whole_passes, ReadLog, WriteLog};
use crate::oracle::{self, Digest};
use crate::report::Outcome;
use crate::stats::{median, median_across, tail_percentile};
use crate::trace::{trace_query, QueryTrace, Recorder, TraceScratch};
use crate::workload::{
    concept_pool, make_queries, make_write_script, Query, Spec, WriteOp, DEFAULT_SEED, K,
    WARMUP_CALLS,
};
use cbr_corpus::{ConceptFilter, CorpusGenerator, DocId};
use cbr_index::{CompactionPolicy, SegmentedSource};
use cbr_ontology::OntologyGenerator;
use concept_rank::{EngineBuilder, SharedEngine};
use std::time::Instant;

/// Set-ups per untraced run; the median is reported (single builds
/// swung by a third here: set-up is allocation and page faults, which a
/// neighbour's memory traffic slows most).
const SETUPS: usize = 5;
/// Cap on the concept pool, as in the `scale` bench.
const POOL_LIMIT: usize = 50_000;

/// The operation lists of a run — queries and write script — all from
/// the seed.
fn inputs(spec: &Spec, shared: &SharedEngine, seed: u64) -> (Vec<Query>, Vec<WriteOp>) {
    let snapshot = shared.snapshot();
    let pool = concept_pool(&snapshot, POOL_LIMIT);
    (
        make_queries(spec, &snapshot, &pool, seed),
        make_write_script(&pool, spec.appends, spec.compact_every(), seed),
    )
}

/// Checks the first `oracle_queries` queries through the public call
/// against the oracle, on the snapshot they ran at. Returns failures.
fn run_oracle(spec: &Spec, shared: &SharedEngine, queries: &[Query], seed: u64) -> usize {
    let snapshot = shared.snapshot();
    queries
        .iter()
        .take(spec.oracle_queries)
        .filter(|query| {
            !call(shared, query)
                .is_ok_and(|r| oracle::check(spec.oracle, &snapshot, query, &r.results, seed))
        })
        .count()
}

/// Uncounted calls so caches, the session pool and lazy tables are warm.
fn warm_up(shared: &SharedEngine, queries: &[Query]) {
    for query in queries.iter().cycle().take(WARMUP_CALLS.min(queries.len() * 4)) {
        let _ = std::hint::black_box(call(shared, query));
    }
}

/// The digest `baseline.json` expects for `workload` at the default seed.
fn expected_digest(workload: &str) -> Option<String> {
    let baseline = cbr_bench::json::Json::parse(include_str!("../baseline.json")).ok()?;
    baseline.get("digests")?.get(workload)?.as_str().map(str::to_string)
}

/// The digest of a read log's first-pass results.
fn digest_of(read: &ReadLog) -> String {
    let mut digest = Digest::default();
    for r in &read.results {
        digest.fold(&r.results);
    }
    digest.hex()
}

/// The untraced run: end-to-end metrics. `check_digest` compares the
/// digest with `baseline.json` at the default seed (off for micro sizes).
pub fn run_untraced(spec: &Spec, check_digest: bool, seed: u64, seconds: f64) -> Outcome {
    // The first engine built is the one measured, in the heap a fresh
    // process gives it; the remaining set-ups are timed after the load
    // (building several times first left the heap in a state that made
    // `scale_rds` queries ~15 % slower here).
    let phase = Instant::now();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let t = Instant::now();
    let shared = spec.build_engine();
    setup_s.push(t.elapsed().as_secs_f64());

    let (queries, script) = inputs(spec, &shared, seed);
    let oracle_failures = run_oracle(spec, &shared, &queries, seed);
    warm_up(&shared, &queries);
    eprintln!("{}: set-up, oracle and warm-up took {:.1?}", spec.name, phase.elapsed());
    let concurrent = spec.concurrent_writer;
    let ((read, rss_after_reads), write) = run_load(&shared, &queries, &script, concurrent, || {
        (run_reader(&shared, &queries, seconds, !concurrent), peak_rss_mb())
    });
    // The p50 of each pass shows a noisy spell that began or ended inside the run.
    eprintln!(
        "{}: p50 of each read pass {:.1?} ms, writes took {:.1?} with compactions of {:.0?} ms",
        spec.name,
        read.latency_ms.iter().map(|pass| median(pass)).collect::<Vec<_>>(),
        write.wall(),
        write.compact_ms
    );
    // `VmHWM` is a high-water mark. A read-only workload reads it before
    // its write script runs: the script's merges of the base segment
    // would otherwise set it (462 MiB against 276 on `scale_rds` at
    // 500,000 documents) and hide what set-up and the read path hold.
    let peak_rss_mb = if concurrent { peak_rss_mb() } else { rss_after_reads };
    drop(shared);
    for _ in 1..SETUPS {
        let t = Instant::now();
        drop(std::hint::black_box(spec.build_engine()));
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let attempted = spec.oracle_queries.min(queries.len()) + read.attempted + write.attempted;
    let digest = (!concurrent).then(|| digest_of(&read));
    let expected =
        if check_digest && seed == DEFAULT_SEED { expected_digest(spec.name) } else { None };
    let failed = if digest.is_some() && expected.is_some() && digest != expected {
        eprintln!("{}: digest {digest:?} differs from baseline.json's {expected:?}", spec.name);
        attempted
    } else {
        oracle_failures + read.errors + read.unstable + write.errors
    };

    let per_query = median_across(&read.latency_ms);
    let (p90, tail_quantile) = tail_percentile(&per_query, 0.9).unwrap_or((f64::NAN, f64::NAN));
    let write_us: Vec<f64> = write.add_us.iter().chain(&write.remove_us).copied().collect();
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("query_p50_ms", median(&per_query)),
            ("query_p90_ms", p90),
            // One closed-loop client with no think time: a pass lasts the
            // sum of its calls, each taken at its median over the passes.
            ("queries_per_s", per_query.len() as f64 / (per_query.iter().sum::<f64>() / 1e3)),
            ("peak_rss_mb", peak_rss_mb),
            ("write_p50_us", median(&write_us)),
        ],
        digest,
        note: format!(
            "{} timed queries × {} passes, query_p90_ms at quantile {tail_quantile:.2}",
            per_query.len(),
            read.latency_ms.len()
        ),
    }
}

/// Set-up once more with a span around each public constructor.
fn traced_setup(spec: &Spec, rec: &mut Recorder, m: &mut Vec<(&'static str, f64)>) -> SharedEngine {
    let secs = |ns: u64| ns as f64 / 1e9;
    let config = spec.ontology_config();
    let (ontology, _, ns) =
        rec.span(0, 0, "ontology.generate", || OntologyGenerator::new(config).generate());
    m.push(("ontology.generate_s", secs(ns)));
    let (_, _, ns) = rec.span(0, 0, "ontology.path_table", || {
        let _ = ontology.path_table();
    });
    m.push(("ontology.path_table_s", secs(ns)));
    let (corpus, _, ns) = rec.span(0, 0, "corpus.generate", || {
        CorpusGenerator::new(&ontology, spec.profile()).generate()
    });
    m.push(("corpus.generate_s", secs(ns)));

    // `EngineBuilder::build` filters the corpus and builds the base
    // segment inside one call; time the same two public constructors on
    // bench-owned values so the call's self time can be told apart.
    let (filtered, _, filter_ns) =
        rec.span(0, 0, "corpus.filter", || ConceptFilter::accept_all(&ontology).apply(&corpus));
    let (base, _, index_ns) = rec.span(0, 0, "index.build", || {
        SegmentedSource::from_corpus(&filtered, CompactionPolicy::default())
    });
    drop((base, filtered));
    let (engine, _, build_ns) = rec.span(0, 0, "core.build", || {
        EngineBuilder::new().knds_config(spec.knds_config()).build(ontology, corpus)
    });
    m.push(("corpus.filter_s", secs(filter_ns)));
    m.push(("index.build_s", secs(index_ns)));
    m.push(("core.build_s", secs(build_ns.saturating_sub(filter_ns + index_ns))));
    SharedEngine::new(engine)
}

/// Replays the write script on a bench-owned `SegmentedSource`, so the
/// index layer's share of each `SharedEngine` write can be told apart.
/// Returns that share of one append: median append + median view, in µs.
fn replay_on_index(
    shared: &SharedEngine,
    script: &[WriteOp],
    rec: &mut Recorder,
    m: &mut Vec<(&'static str, f64)>,
) -> f64 {
    let snapshot = shared.snapshot();
    let mut source = SegmentedSource::from_corpus(snapshot.corpus(), CompactionPolicy::default());
    let (mut append_us, mut view_us, mut compact_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut appended: Vec<DocId> = Vec::new();
    for op in script {
        match op {
            WriteOp::Append(concepts) => {
                let concepts = concepts.clone();
                let (id, _, ns) = rec.span(0, 0, "index.append", || source.append(concepts));
                appended.push(id);
                append_us.push(ns as f64 / 1e3);
                let (_, _, ns) = rec.span(0, 0, "index.view", || {
                    std::hint::black_box(source.view());
                });
                view_us.push(ns as f64 / 1e3);
            }
            WriteOp::RemoveAppended(n) => {
                source.delete(appended.swap_remove(*n));
            }
            WriteOp::Compact => {
                let (_, _, ns) = rec.span(0, 0, "index.compact_all", || source.compact_all());
                compact_ms.push(ns as f64 / 1e6);
            }
        }
    }
    let (append, view) = (median(&append_us), median(&view_us));
    m.push(("index.append_us", append));
    m.push(("index.view_us", view));
    m.push(("index.compact_all_ms", median(&compact_ms)));
    m.push(("index.dead_share", 1.0 - source.live_docs() as f64 / source.num_docs() as f64));
    append + view
}

/// Per-layer metrics of the read path from the per-query decompositions.
fn read_layers(traces: &[Vec<QueryTrace>], m: &mut Vec<(&'static str, f64)>) {
    let us = |ns: u64| ns as f64 / 1e3;
    // Per-query medians across passes first, then the median query.
    let per_query = |f: &dyn Fn(&QueryTrace) -> f64| -> Vec<f64> {
        median_across(&traces.iter().map(|p| p.iter().map(f).collect()).collect::<Vec<_>>())
    };
    let time = |f: &dyn Fn(&QueryTrace) -> f64| median(&per_query(f));
    // Counts repeat exactly on a static collection, so the first pass is all of them.
    let first = &traces[0];
    let mean = |f: &dyn Fn(&QueryTrace) -> f64| {
        first.iter().map(f).sum::<f64>() / first.len().max(1) as f64
    };

    let public_ms = time(&|t| t.public_ns as f64 / 1e6);
    let session = time(&|t| us(t.public_ns) - us(t.snapshot_ns));
    let normalize = time(&|t| us(t.snapshot_ns) - us(t.knds_ns));
    let query = time(&|t| us(t.knds_traced_ns));
    let children = |t: &QueryTrace| us(t.index.postings_ns + t.index.doc_concepts_ns + t.probe_ns);
    m.push(("trace.query_p50_ms", public_ms));
    m.push(("core.session_us", session));
    m.push(("core.normalize_us", normalize));
    m.push(("knds.query_us", query));
    m.push(("knds.self_us", time(&|t| us(t.knds_traced_ns) - children(t))));
    m.push(("index.postings_calls", mean(&|t| t.index.postings_calls as f64)));
    m.push(("index.postings_docs", mean(&|t| t.index.postings_docs as f64)));
    m.push(("index.postings_us", time(&|t| us(t.index.postings_ns))));
    m.push(("index.doc_concepts_calls", mean(&|t| t.index.doc_concepts_calls as f64)));
    m.push(("index.doc_concepts_items", mean(&|t| t.index.doc_concepts_items as f64)));
    m.push(("index.doc_concepts_us", time(&|t| us(t.index.doc_concepts_ns))));
    let probes: f64 = first.iter().map(|t| t.probe_calls as f64).sum();
    let probe_us: f64 = first.iter().map(|t| us(t.probe_ns)).sum();
    let dag_nodes: Vec<f64> =
        first.iter().flat_map(|t| t.dag_nodes.iter().map(|&n| n as f64)).collect();
    m.push(("dradix.probe_calls", mean(&|t| t.probe_calls as f64)));
    m.push(("dradix.probe_us", time(&|t| us(t.probe_ns))));
    m.push(("dradix.probe_us_each", probe_us / probes.max(1.0)));
    m.push(("dradix.dag_nodes", dag_nodes.iter().sum::<f64>() / dag_nodes.len().max(1) as f64));
    m.push(("knds.nodes_visited", mean(&|t| t.metrics.nodes_visited as f64)));
    m.push(("knds.levels", mean(&|t| f64::from(t.metrics.levels))));
    m.push(("knds.candidates_seen", mean(&|t| t.metrics.candidates_seen as f64)));
    m.push(("knds.docs_examined", mean(&|t| t.metrics.docs_examined as f64)));
    m.push(("knds.drc_calls", mean(&|t| t.metrics.drc_calls as f64)));
    m.push(("knds.exact_from_partial", mean(&|t| t.metrics.exact_from_partial as f64)));
    m.push(("knds.forced_rounds", mean(&|t| t.metrics.forced_rounds as f64)));
    m.push(("knds.candidates_per_result", mean(&|t| t.metrics.candidates_seen as f64) / K as f64));
    m.push(("knds.examined_per_result", mean(&|t| t.metrics.docs_examined as f64) / K as f64));
    m.push((
        "knds.selftimed_residual_share",
        time(&|t| 1.0 - t.metrics.total().as_nanos() as f64 / t.knds_ns.max(1) as f64),
    ));
    // The public call with its kNDS part swapped for the traced one,
    // against the public call as it is.
    let traced_ms = time(&|t| (us(t.public_ns) - us(t.knds_ns) + us(t.knds_traced_ns)) / 1e3);
    m.push(("trace.overhead_share", traced_ms / public_ms - 1.0));
    let residual = ((session + normalize + query) / 1e3 - traced_ms).abs() / traced_ms;
    m.push(("trace.reconcile_residual_share", residual));
}

/// Per-layer metrics of the write path from the writer's log.
fn write_layers(
    shared: &SharedEngine,
    read: (Instant, Instant),
    write: &WriteLog,
    m: &mut Vec<(&'static str, f64)>,
) {
    let p99 = |v: &[f64]| tail_percentile(v, 0.99).map_or(f64::NAN, |(x, _)| x);
    m.push(("core.add_document_us", median(&write.add_us)));
    m.push(("core.remove_document_us", median(&write.remove_us)));
    m.push(("core.compact_ms", median(&write.compact_ms)));
    m.push(("core.compact_count", write.compact_ms.len() as f64));
    m.push(("core.write_stalled_share", write.stalled_share()));
    m.push(("core.write_lag_p99_ms", p99(&write.lag_ms)));
    m.push(("core.writer_lateness_p99_ms", p99(&write.lateness_ms)));
    let (r0, r1) = read;
    let overlap = write.span.map_or(0.0, |(w0, w1)| {
        let both = r1.min(w1).saturating_duration_since(r0.max(w0));
        both.as_secs_f64() / (r1 - r0).as_secs_f64().max(1e-9)
    });
    m.push(("core.overlap_share", overlap));
    m.push(("index.segments", shared.with_engine(|e| e.num_segments()) as f64));
}

/// The traced run: per-layer metrics, and the spans as JSON lines.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> (Outcome, String) {
    let mut rec = Recorder::default();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let shared = traced_setup(spec, &mut rec, &mut m);

    let (queries, script) = inputs(spec, &shared, seed);
    let queries = &queries[..spec.traced_queries.min(queries.len())];
    warm_up(&shared, queries);

    // Whole passes over the traced prefix, as the untraced reader does;
    // the writer runs beside or after them exactly as untraced.
    let mut failed = 0usize;
    let mut scratch = TraceScratch::default();
    let ((traces, read_span), write) =
        run_load(&shared, queries, &script, spec.concurrent_writer, || {
            whole_passes(seconds, |_| {
                let pass = queries.iter().enumerate().map(|(i, query)| {
                    let op = i as u32 + 1;
                    trace_query(&shared, op, query, &mut scratch, &mut rec, !spec.concurrent_writer)
                        .ok()
                        .filter(|t| t.consistent)
                        .unwrap_or_else(|| {
                            failed += 1;
                            QueryTrace::default()
                        })
                });
                pass.collect::<Vec<QueryTrace>>()
            })
        });
    let mut attempted = traces.len() * queries.len();
    failed += write.errors;
    attempted += write.attempted;

    // Counts must repeat exactly from pass to pass on a static collection.
    if !spec.concurrent_writer {
        let counts = |t: &QueryTrace| {
            let i = &t.index;
            let m = &t.metrics;
            [
                i.postings_calls,
                i.postings_docs,
                i.doc_concepts_calls,
                i.doc_concepts_items,
                t.probe_calls,
                m.nodes_visited as u64,
                m.candidates_seen as u64,
                m.docs_examined as u64,
            ]
        };
        for pass in &traces[1..] {
            failed += pass.iter().zip(&traces[0]).filter(|(a, b)| counts(a) != counts(b)).count();
        }
    }

    read_layers(&traces, &mut m);
    write_layers(&shared, read_span, &write, &mut m);
    let index_part = replay_on_index(&shared, &script, &mut rec, &mut m);
    m.push(("core.publish_us", median(&write.add_us) - index_part));

    let outcome = Outcome {
        attempted,
        failed: failed.min(attempted),
        metrics: m,
        digest: None,
        note: format!("{} traced queries × {} passes", queries.len(), traces.len()),
    };
    (outcome, rec.to_jsonl())
}
