//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation (Section 6) over the synthetic MIMIC/SNOMED
//! substitutes.
//!
//! ```sh
//! cargo run --release -p cbr-bench --bin repro -- all
//! cargo run --release -p cbr-bench --bin repro -- fig9 --scale micro
//! ```
//!
//! Subcommands: `ontology`, `table3`, `fig6`, `fig7`, `fig8`, `fig9`,
//! `ablation`, `effectiveness`, `all` (those eight in order), `phases`.
//! Flags: `--scale micro|small|paper`, `--queries <n>`.
//!
//! This binary redraws the paper's tables and figures; it is not the
//! instrument for a performance claim. Its time columns are single
//! passes over a handful of queries, good for shapes and ratios. A claim
//! that a change made queries faster cites `perfbench/` (the benchmark
//! `BENCHMARK.json` declares), which samples wall-clock latency over
//! fixed workloads with a noise floor.
//!
//! Absolute times are not comparable to the paper (different hardware,
//! language, and data scale); the *shapes* — who wins, growth rates,
//! where optima sit — are the reproduction target and are annotated on
//! each report. EXPERIMENTS.md records a full run.

#![forbid(unsafe_code)]

use cbr_bench::{fmt_duration, Scale, Table, Timing, Workbench};
use cbr_corpus::CorpusStats;
use cbr_dradix::{brute, DRadixDag, DagScratch, Drc};
use cbr_knds::{baseline, ta, Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, QueryMetrics};
use cbr_ontology::{ConceptId, OntologyStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A command name and the report it prints.
type Report = (&'static str, fn(&Workbench));

/// Every report. `all` prints all but the last, in this order; `phases`
/// re-runs the Figure 8/9 workloads, so it is only printed by name.
const REPORTS: [Report; 9] = [
    ("ontology", ontology_report),
    ("table3", table3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("ablation", ablation),
    ("effectiveness", effectiveness),
    ("phases", phases),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut scale = Scale::small();
    let mut queries_override = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(|s| s.as_str()) {
                    Some("micro") => Scale::micro(),
                    Some("small") => Scale::small(),
                    Some("paper") => Scale::paper(),
                    other => {
                        eprintln!("unknown scale {other:?} (micro|small|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--queries" => {
                i += 1;
                queries_override = args.get(i).and_then(|s| s.parse::<usize>().ok());
            }
            cmd if command.is_none() => command = Some(cmd),
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(q) = queries_override {
        scale.queries_per_point = q;
    }
    // Resolved before the workbench is built: a mistyped command fails at
    // once, not after minutes of set-up.
    let reports: &[Report] = match command.unwrap_or("all") {
        "all" => &REPORTS[..REPORTS.len() - 1],
        name => match REPORTS.iter().position(|&(n, _)| n == name) {
            Some(at) => &REPORTS[at..=at],
            None => {
                eprintln!("unknown command {name:?}");
                std::process::exit(2);
            }
        },
    };

    eprintln!(
        "building workbench (ontology {} concepts, PATIENT {}×{:.0}, RADIO {}×{:.0}, {} queries/point) …",
        scale.ontology_concepts,
        scale.patient_docs,
        scale.patient_concepts,
        scale.radio_docs,
        scale.radio_concepts,
        scale.queries_per_point
    );
    let t = Instant::now();
    let wb = Workbench::build(scale);
    eprintln!("workbench ready in {:.1?}\n", t.elapsed());

    for (_, report) in reports {
        report(&wb);
    }
}

// ---------------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------------

fn run_knds_rds(
    wb: &Workbench,
    coll: &cbr_bench::Collection,
    queries: &[Vec<ConceptId>],
    k: usize,
    eps: f64,
) -> Timing {
    let cfg = KndsConfig::default().with_error_threshold(eps);
    let engine = Knds::new(&wb.ontology, &coll.source, cfg);
    let metrics: Vec<QueryMetrics> = queries.iter().map(|q| engine.rds(q, k).metrics).collect();
    Timing::from_metrics(&metrics, k)
}

fn run_knds_sds(
    wb: &Workbench,
    coll: &cbr_bench::Collection,
    queries: &[Vec<ConceptId>],
    k: usize,
    eps: f64,
) -> Timing {
    let cfg = KndsConfig::default().with_error_threshold(eps);
    let engine = Knds::new(&wb.ontology, &coll.source, cfg);
    let metrics: Vec<QueryMetrics> = queries.iter().map(|q| engine.sds(q, k).metrics).collect();
    Timing::from_metrics(&metrics, k)
}

fn run_baseline_rds(
    wb: &Workbench,
    coll: &cbr_bench::Collection,
    queries: &[Vec<ConceptId>],
    k: usize,
) -> Timing {
    let metrics: Vec<QueryMetrics> =
        queries.iter().map(|q| baseline::rds(&wb.ontology, &coll.source, q, k).metrics).collect();
    Timing::from_metrics(&metrics, k)
}

fn run_baseline_sds(
    wb: &Workbench,
    coll: &cbr_bench::Collection,
    queries: &[Vec<ConceptId>],
    k: usize,
) -> Timing {
    let metrics: Vec<QueryMetrics> =
        queries.iter().map(|q| baseline::sds(&wb.ontology, &coll.source, q, k).metrics).collect();
    Timing::from_metrics(&metrics, k)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

fn ontology_report(wb: &Workbench) {
    println!("== Ontology statistics (Section 6.1) ==");
    println!("paper: SNOMED-CT, 296,433 concepts, 4.53 avg children,");
    println!("       9.78 paths/concept (max 29), avg path length 14.1\n");
    println!("{}\n", OntologyStats::compute(&wb.ontology));
}

fn table3(wb: &Workbench) {
    println!("== Table 3: document corpus statistics ==");
    println!("paper:                  PATIENT    RADIO");
    println!("  total documents       983        12,373");
    println!("  total concepts        16,811     8,629");
    println!("  avg tokens/document   8,184      273.7");
    println!("  avg concepts/document 706.6      125.3\n");
    let mut t = Table::new(&["metric", "PATIENT", "RADIO"]);
    // Table 3 describes the extracted corpus before the Section 6.1
    // thresholds, so report the raw statistics.
    let stats: Vec<CorpusStats> = wb.collections.iter().map(|c| c.raw_stats.clone()).collect();
    t.row(vec![
        "total documents".into(),
        stats[0].total_documents.to_string(),
        stats[1].total_documents.to_string(),
    ]);
    t.row(vec![
        "total concepts".into(),
        stats[0].total_concepts.to_string(),
        stats[1].total_concepts.to_string(),
    ]);
    t.row(vec![
        "avg tokens/document".into(),
        format!("{:.1}", stats[0].avg_tokens_per_doc),
        format!("{:.1}", stats[1].avg_tokens_per_doc),
    ]);
    t.row(vec![
        "avg concepts/document".into(),
        format!("{:.1}", stats[0].avg_concepts_per_doc),
        format!("{:.1}", stats[1].avg_concepts_per_doc),
    ]);
    println!("{}", Table::render(&t));
}

/// Figure 6: distance-calculation time vs query size, BL vs DRC (SDS
/// document-document distance). The paper's figure is the cost of one
/// cold pair, so its DRC column builds each pair's DAG whole (warm
/// capacity). `join / calc` is the same pair through
/// `baseline::document_distance`, one exact probe each way from ancestor
/// closures — the distance the search engine computes instead of DRC.
fn fig6(wb: &Workbench) {
    println!("== Figure 6: distance calculation time vs query size nq (SDS) ==");
    println!("paper shape: BL grows quadratically with nq; DRC grows n·log n and");
    println!("wins by orders of magnitude at large nq on both collections.\n");
    let sweep = [1usize, 3, 5, 10, 30, 100];
    for coll in &wb.collections {
        let mut t = Table::new(&["nq", "BL / calc", "DRC / calc", "speedup", "join / calc"]);
        let docs_per_query = 3;
        let n_queries = wb.scale.queries_per_point;
        let mut rng = StdRng::seed_from_u64(wb.scale.seed ^ 0x6);
        let mut scratch = DagScratch::new();
        let mut ws = KndsWorkspace::new();
        // Force path-table materialization outside the timings.
        let _ = wb.ontology.path_table();
        for &nq in &sweep {
            if nq > coll.query_pool.len() {
                continue;
            }
            let queries = coll.query_documents(n_queries, nq, wb.scale.seed ^ nq as u64);
            let targets: Vec<&[ConceptId]> = (0..n_queries * docs_per_query)
                .map(|_| loop {
                    let d = rng.random_range(0..coll.corpus.len());
                    let doc = coll.corpus.get(cbr_corpus::DocId(d as u32));
                    if doc.num_concepts() > 0 {
                        break doc.concepts();
                    }
                })
                .collect();

            let t0 = Instant::now();
            let mut sink = 0.0f64;
            for (qi, q) in queries.iter().enumerate() {
                for ti in 0..docs_per_query {
                    sink += brute::document_document_distance(
                        &wb.ontology,
                        targets[qi * docs_per_query + ti],
                        q,
                    );
                }
            }
            let bl = t0.elapsed() / (n_queries * docs_per_query) as u32;

            let t0 = Instant::now();
            for (qi, q) in queries.iter().enumerate() {
                for ti in 0..docs_per_query {
                    let mut cold =
                        Drc::new(&wb.ontology).with_scratch(std::mem::take(&mut scratch));
                    sink += cold.document_document_distance(targets[qi * docs_per_query + ti], q);
                    scratch = cold.into_scratch();
                }
            }
            let dd = t0.elapsed() / (n_queries * docs_per_query) as u32;

            let t0 = Instant::now();
            for (qi, q) in queries.iter().enumerate() {
                for ti in 0..docs_per_query {
                    let target = targets[qi * docs_per_query + ti];
                    sink += baseline::document_distance(&wb.ontology, &mut ws, target, q);
                }
            }
            let join = t0.elapsed() / (n_queries * docs_per_query) as u32;
            std::hint::black_box(sink);

            t.row(vec![
                nq.to_string(),
                fmt_duration(bl),
                fmt_duration(dd),
                format!("{:.1}x", bl.as_secs_f64() / dd.as_secs_f64().max(1e-12)),
                fmt_duration(join),
            ]);
        }
        println!("-- Figure 6 ({}) --", coll.name);
        println!("{}", t.render());
    }
}

/// Figure 7: query time vs error threshold εθ (sensitivity analysis).
fn fig7(wb: &Workbench) {
    println!("== Figure 7: query time vs error threshold εθ ==");
    println!("paper shape: PATIENT favours εθ = 0 (wait for full coverage; DRC is");
    println!("expensive on dense records); RADIO favours large εθ (≈0.9) and the");
    println!("optimal εθ grows with query size (7f).\n");
    let eps_sweep = [0.0, 0.25, 0.5, 0.75, 1.0];
    let k = 10;

    // 7(a)-(e): RDS sweeps.
    for (coll_name, nqs, figs) in
        [("PATIENT", vec![3usize, 5], "7(a)-(b)"), ("RADIO", vec![3, 5, 10], "7(c)-(e)")]
    {
        let coll = wb.collection(coll_name);
        let mut t = Table::new(&["nq \\ εθ", "0.00", "0.25", "0.50", "0.75", "1.00", "best εθ"]);
        let mut optimal: Vec<(usize, f64)> = Vec::new();
        for &nq in &nqs {
            let queries = coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0x70);
            let mut cells = vec![nq.to_string()];
            let mut best = (f64::INFINITY, 0.0);
            for &eps in &eps_sweep {
                let timing = run_knds_rds(wb, coll, &queries, k, eps);
                if timing.ms().total_cmp(&best.0).is_lt() {
                    best = (timing.ms(), eps);
                }
                cells.push(format!("{:.2} ms", timing.ms()));
            }
            optimal.push((nq, best.1));
            cells.push(format!("{:.2}", best.1));
            t.row(cells);
        }
        println!("-- Figure {figs}: RDS time vs εθ ({coll_name}, k = {k}) --");
        println!("{}", t.render());
        if coll_name == "RADIO" {
            let mut t = Table::new(&["nq", "optimal εθ"]);
            for (nq, eps) in optimal {
                t.row(vec![nq.to_string(), format!("{eps:.2}")]);
            }
            println!("-- Figure 7(f): optimal εθ vs nq (RADIO, RDS) --");
            println!("{}", t.render());
        }
    }

    // 7(g)-(h): SDS sweeps.
    for coll in &wb.collections {
        let queries = coll.sds_queries(wb.scale.queries_per_point, wb.scale.seed ^ 0x71);
        let mut t = Table::new(&["εθ", "time", "examined", "probes"]);
        for &eps in &eps_sweep {
            let timing = run_knds_sds(wb, coll, &queries, k, eps);
            t.row(vec![
                format!("{eps:.2}"),
                format!("{:.2} ms", timing.ms()),
                format!("{:.1}", timing.docs_examined),
                format!("{:.1}", timing.drc_calls),
            ]);
        }
        println!("-- Figure 7(g)/(h): SDS time vs εθ ({}, k = {k}) --", coll.name);
        println!("{}", t.render());
    }
}

/// Figure 8: RDS query time vs query size, kNDS vs baseline.
fn fig8(wb: &Workbench) {
    println!("== Figure 8: RDS query time vs query size nq ==");
    println!("paper shape: both methods grow ≈ n·log n with nq; kNDS beats the");
    println!("no-pruning baseline by a wide margin at every query size.\n");
    let k = 10;
    for coll in &wb.collections {
        let mut t = Table::new(&["nq", "kNDS", "baseline", "speedup", "kNDS examined"]);
        for nq in [1usize, 3, 5, 10] {
            let queries = coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0x80);
            let fast = run_knds_rds(wb, coll, &queries, k, coll.default_eps);
            let slow = run_baseline_rds(wb, coll, &queries, k);
            t.row(vec![
                nq.to_string(),
                format!("{:.2} ms", fast.ms()),
                format!("{:.2} ms", slow.ms()),
                format!("{:.1}x", slow.ms() / fast.ms().max(1e-9)),
                format!("{:.1}/{}", fast.docs_examined, coll.corpus.len()),
            ]);
        }
        println!("-- Figure 8 ({}, k = {k}, εθ = {}) --", coll.name, coll.default_eps);
        println!("{}", t.render());
    }
}

/// Figure 9: query time vs k for RDS and SDS, kNDS vs baseline.
fn fig9(wb: &Workbench) {
    println!("== Figure 9: query time vs number of results k ==");
    println!("paper shape: the baseline is flat in k (it always scans everything);");
    println!("kNDS is far faster (99% at k = 10 SDS/PATIENT) and only mildly");
    println!("sensitive to k. Examination precision: ≈99% for RDS/PATIENT, >60%");
    println!("for SDS.\n");
    let nq = 5;
    for coll in &wb.collections {
        for kind in ["RDS", "SDS"] {
            let queries = match kind {
                "RDS" => coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0x90),
                _ => coll.sds_queries(wb.scale.queries_per_point, wb.scale.seed ^ 0x91),
            };
            let mut t =
                Table::new(&["k", "kNDS", "kNDS p95", "baseline", "speedup", "exam. precision"]);
            for k in [3usize, 5, 10, 50, 100] {
                let (fast, slow) = match kind {
                    "RDS" => (
                        run_knds_rds(wb, coll, &queries, k, coll.default_eps),
                        run_baseline_rds(wb, coll, &queries, k),
                    ),
                    _ => (
                        run_knds_sds(wb, coll, &queries, k, coll.default_eps),
                        run_baseline_sds(wb, coll, &queries, k),
                    ),
                };
                t.row(vec![
                    k.to_string(),
                    format!("{:.2} ms", fast.ms()),
                    format!("{:.2} ms", fast.p95.as_secs_f64() * 1e3),
                    format!("{:.2} ms", slow.ms()),
                    format!("{:.1}x", slow.ms() / fast.ms().max(1e-9)),
                    format!("{:.0}%", fast.examination_precision * 100.0),
                ]);
            }
            println!(
                "-- Figure 9: {kind} ({}, nq = {nq}, εθ = {}) --",
                coll.name, coll.default_eps
            );
            println!("{}", t.render());

            // Section 6.1's significance check: a two-tailed Welch t-test
            // over the per-query times at the paper's default k = 10.
            let cfg = KndsConfig::default().with_error_threshold(coll.default_eps);
            let engine = Knds::new(&wb.ontology, &coll.source, cfg);
            let fast_samples: Vec<f64> = queries
                .iter()
                .map(|q| {
                    let m = match kind {
                        "RDS" => engine.rds(q, 10).metrics,
                        _ => engine.sds(q, 10).metrics,
                    };
                    m.total().as_secs_f64()
                })
                .collect();
            let slow_samples: Vec<f64> = queries
                .iter()
                .map(|q| {
                    let m = match kind {
                        "RDS" => baseline::rds(&wb.ontology, &coll.source, q, 10).metrics,
                        _ => baseline::sds(&wb.ontology, &coll.source, q, 10).metrics,
                    };
                    m.total().as_secs_f64()
                })
                .collect();
            if let Some(tt) = cbr_eval::welch_t_test(&fast_samples, &slow_samples) {
                let verdict = if tt.p < 0.001 {
                    "p < 0.001 — significant, as in the paper".to_string()
                } else {
                    format!("p = {:.4}", tt.p)
                };
                println!(
                    "two-tailed Welch t-test (kNDS vs baseline, k = 10): t = {:.2}, {verdict}\n",
                    tt.t
                );
            }
        }
    }
}

/// Ablations over the design choices called out in DESIGN.md. Two
/// letters are retired with what they switched: (a) visit deduplication,
/// now the one visit rule, and (e) the compressed postings; EXPERIMENTS.md
/// keeps their last rows.
fn ablation(wb: &Workbench) {
    println!("== Ablations ==\n");
    let k = 10;
    let nq = 5;

    // (b) Queue watermark sensitivity (forces early examination rounds).
    let coll = wb.collection("PATIENT");
    let queries = coll.sds_queries(wb.scale.queries_per_point, wb.scale.seed ^ 0xA1);
    let mut t = Table::new(&["queue cap", "time", "probes", "forced rounds"]);
    for cap in [100usize, 1_000, 10_000, 50_000] {
        let cfg = KndsConfig::default().with_error_threshold(coll.default_eps).with_queue_cap(cap);
        let engine = Knds::new(&wb.ontology, &coll.source, cfg);
        let metrics: Vec<QueryMetrics> = queries.iter().map(|q| engine.sds(q, k).metrics).collect();
        let forced: usize = metrics.iter().map(|m| m.forced_rounds).sum();
        let timing = Timing::from_metrics(&metrics, k);
        t.row(vec![
            cap.to_string(),
            format!("{:.2} ms", timing.ms()),
            format!("{:.1}", timing.drc_calls),
            format!("{:.1}", forced as f64 / metrics.len() as f64),
        ]);
    }
    println!("-- (b) queue watermark (SDS, PATIENT) --");
    println!("{}", t.render());

    // (c) TA comparator vs kNDS vs full scan (RDS only; Section 4.1).
    let coll = wb.collection("RADIO");
    let queries = coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0xA2);
    let mut t = Table::new(&["method", "time", "notes"]);
    let fast = run_knds_rds(wb, coll, &queries, k, coll.default_eps);
    t.row(vec!["kNDS".into(), format!("{:.2} ms", fast.ms()), "no precomputation".into()]);
    let metrics: Vec<QueryMetrics> =
        queries.iter().map(|q| ta::rds(&wb.ontology, &coll.source, q, k).metrics).collect();
    let tat = Timing::from_metrics(&metrics, k);
    t.row(vec![
        "TA".into(),
        format!("{:.2} ms", tat.ms()),
        format!("incl. {:.2} ms/query list materialization", tat.distance_calc.as_secs_f64() * 1e3),
    ]);
    let slow = run_baseline_rds(wb, coll, &queries, k);
    t.row(vec![
        "full scan".into(),
        format!("{:.2} ms", slow.ms()),
        "exact probe on every doc".into(),
    ]);
    println!("-- (c) RDS method comparison (RADIO, nq = {nq}, k = {k}) --");
    println!("{}", t.render());

    // (d) Progressive output (Section 5.3, optimization 4).
    let coll = wb.collection("RADIO");
    let queries = coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0xA3);
    let engine = Knds::new(
        &wb.ontology,
        &coll.source,
        KndsConfig::default().with_error_threshold(coll.default_eps),
    );
    let mut emitted = 0usize;
    for q in &queries {
        emitted += engine.rds(q, k).metrics.progressive_results;
    }
    println!("-- (d) progressive output (RDS, RADIO) --");
    println!(
        "{:.1} of {k} results on average were provably final before termination\n",
        emitted as f64 / queries.len() as f64
    );

    // (f) Weighted edges (Section 7 future work): unit weights through the
    // Dijkstra engine must cost about the same as the BFS engine; a
    // non-uniform weighting shows the overhead of real weights.
    let coll = wb.collection("RADIO");
    let queries = coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0xA5);
    let cfg = KndsConfig::default().with_error_threshold(coll.default_eps);
    let unit = cbr_ontology::EdgeWeights::uniform(&wb.ontology);
    let skewed = cbr_ontology::EdgeWeights::from_fn(&wb.ontology, |p, _| {
        if wb.ontology.depth(p) < 3 {
            3
        } else {
            1
        }
    });
    let mut t = Table::new(&["engine", "time"]);
    let timing = run_knds_rds(wb, coll, &queries, k, coll.default_eps);
    t.row(vec!["BFS (unit)".into(), format!("{:.2} ms", timing.ms())]);
    for (name, w) in [("Dijkstra (unit)", &unit), ("Dijkstra (skewed)", &skewed)] {
        let engine = cbr_knds::WeightedKnds::new(&wb.ontology, w, &coll.source, cfg.clone());
        let metrics: Vec<QueryMetrics> = queries.iter().map(|q| engine.rds(q, k).metrics).collect();
        let timing = Timing::from_metrics(&metrics, k);
        t.row(vec![name.to_string(), format!("{:.2} ms", timing.ms())]);
    }
    println!("-- (f) weighted-edge engine (RDS, RADIO, nq = {nq}) --");
    println!("{}", t.render());

    // (g) Workspace reuse: a fresh `KndsWorkspace` per query (what `rds`/
    // `sds` do) vs one warm workspace for the whole workload. Wall time
    // around the call, because allocating the workspace is the cost.
    let engine = Knds::new(&wb.ontology, &coll.source, cfg);
    let mut t = Table::new(&["kind", "fresh / query", "reused / query", "fresh ÷ reused"]);
    for (kind, queries) in [
        (QueryKind::Rds, coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0xA6)),
        (QueryKind::Sds, coll.sds_queries(wb.scale.queries_per_point, wb.scale.seed ^ 0xA7)),
    ] {
        let n = queries.len().max(1) as u32;
        let mut ws = KndsWorkspace::new();
        if let Some(q) = queries.first() {
            black_box(engine.run(&mut ws, kind, q, k, Hooks::default()));
        }
        let t0 = Instant::now();
        for q in &queries {
            black_box(engine.run(&mut KndsWorkspace::new(), kind, q, k, Hooks::default()));
        }
        let fresh = t0.elapsed() / n;
        let t0 = Instant::now();
        for q in &queries {
            black_box(engine.run(&mut ws, kind, q, k, Hooks::default()));
        }
        let reused = t0.elapsed() / n;
        t.row(vec![
            format!("{kind:?}").to_uppercase(),
            fmt_duration(fresh),
            fmt_duration(reused),
            format!("{:.2}x", fresh.as_secs_f64() / reused.as_secs_f64().max(1e-12)),
        ]);
    }
    println!("-- (g) workspace reuse (RADIO, k = {k}) --");
    println!("{}", t.render());

    // (h) The phases of one DRC probe (Section 4.3) over prefixes of the
    // largest PATIENT record: `construct` builds the whole D-Radix into a
    // retained DAG (`fresh DAG`: into a new one); `tune` is the distance
    // pass.
    const REPS: u32 = 50;
    let coll = wb.collection("PATIENT");
    let queries = coll.query_documents(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0xA8);
    let largest = coll.corpus.documents().max_by_key(|d| d.num_concepts());
    let record = largest.map_or(&[][..], |d| d.concepts());
    let ont = &wb.ontology;
    let _ = ont.path_table();
    let mut dag = DRadixDag::new();
    let ops = (queries.len() as u32 * REPS).max(1) as f64;
    let each = |d: Duration| format!("{:.2} µs", d.as_secs_f64() * 1e6 / ops);
    let mut t = Table::new(&["|d|", "fresh DAG", "construct", "tune"]);
    for size in [10usize, 30, 60] {
        let Some(doc) = record.get(..size) else { continue };
        let [mut fresh, mut construct, mut tune] = [Duration::ZERO; 3];
        for q in &queries {
            for _ in 0..REPS {
                let t0 = Instant::now();
                black_box(DRadixDag::build(ont, doc, q));
                fresh += t0.elapsed();
            }
            for _ in 0..REPS {
                let t0 = Instant::now();
                dag.build_into(ont, doc, q);
                let built = Instant::now();
                dag.tune();
                tune += built.elapsed();
                construct += built - t0;
            }
        }
        black_box(dag.stats());
        let cells = [fresh, construct, tune].map(each);
        t.row(std::iter::once(size.to_string()).chain(cells).collect());
    }
    println!("-- (h) DRC phases per probe (PATIENT, nq = {nq}) --");
    println!("{}", t.render());
}

/// Effectiveness on synthetic relevance: cohort members (documents built
/// from the same cluster centers) are each query document's "similar
/// records". The paper defers effectiveness to prior user studies; this
/// report quantifies it for the ranking families the library offers.
fn effectiveness(wb: &Workbench) {
    use cbr_corpus::DocId;
    use std::collections::HashSet;

    println!("== Effectiveness on cohort ground truth (extension) ==");
    println!("relevant(q) = other documents of q's generation cohort; k = 10.");
    println!("families: SDS shortest-path (Eq. 3, kNDS), Lin-reranked top-50,");
    println!("and a worst-case random ordering for reference.\n");
    let k = 10;

    for coll in &wb.collections {
        // Query documents: members of cohorts with ≥ 3 live documents.
        let mut by_cohort: std::collections::BTreeMap<u32, Vec<DocId>> = Default::default();
        for (i, &cohort) in coll.cohorts.iter().enumerate() {
            let d = DocId::from_index(i);
            if cohort != u32::MAX && coll.corpus.get(d).num_concepts() > 0 {
                by_cohort.entry(cohort).or_default().push(d);
            }
        }
        let mut queries: Vec<(DocId, HashSet<DocId>)> = Vec::new();
        for members in by_cohort.values() {
            if members.len() < 3 {
                continue;
            }
            let q = members[0];
            let relevant: HashSet<DocId> = members.iter().copied().filter(|&d| d != q).collect();
            queries.push((q, relevant));
            if queries.len() >= wb.scale.queries_per_point {
                break;
            }
        }
        if queries.is_empty() {
            println!("-- {} : no cohorts large enough --", coll.name);
            continue;
        }

        let cfg = KndsConfig::default().with_error_threshold(coll.default_eps);
        let engine = Knds::new(&wb.ontology, &coll.source, cfg);
        let sim = cbr_ontology::SemanticSimilarity::new(&wb.ontology, {
            let mut counts = vec![0u64; wb.ontology.len()];
            for (c, n) in coll.corpus.concept_frequencies() {
                counts[c.index()] = n as u64;
            }
            cbr_ontology::InformationContent::from_counts(&wb.ontology, &counts)
        });

        let mut sds_runs = Vec::new();
        let mut lin_runs = Vec::new();
        let mut random_runs = Vec::new();
        let mut rng = StdRng::seed_from_u64(wb.scale.seed ^ 0xEF);
        for (q, relevant) in &queries {
            let profile = coll.corpus.get(*q).concepts().to_vec();
            // Shortest-path SDS, query document excluded from the ranking.
            let ranked: Vec<DocId> = engine
                .sds(&profile, k + 1)
                .results
                .iter()
                .map(|r| r.doc)
                .filter(|d| d != q)
                .take(k)
                .collect();
            sds_runs.push((ranked, relevant.clone()));

            // Lin re-rank of the shortest-path top-50.
            let pool: Vec<DocId> =
                engine.sds(&profile, 50).results.iter().map(|r| r.doc).filter(|d| d != q).collect();
            let mut scored: Vec<(f64, DocId)> = pool
                .iter()
                .map(|&d| {
                    let concepts = coll.corpus.get(d).concepts();
                    let s = concept_rank::rerank::best_match_average(
                        &sim,
                        concept_rank::Measure::Lin,
                        concepts,
                        &profile,
                    );
                    (s, d)
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            lin_runs.push((scored.into_iter().map(|(_, d)| d).take(k).collect(), relevant.clone()));

            // Random reference.
            let mut all: Vec<DocId> = coll.corpus.doc_ids().filter(|d| d != q).collect();
            for i in (1..all.len()).rev() {
                all.swap(i, rng.random_range(0..=i));
            }
            all.truncate(k);
            random_runs.push((all, relevant.clone()));
        }

        let mut t = Table::new(&["ranking", "P@10", "R@10", "MAP", "nDCG@10"]);
        for (name, runs) in
            [("shortest-path SDS", &sds_runs), ("Lin re-rank", &lin_runs), ("random", &random_runs)]
        {
            let e = cbr_eval::evaluate(runs, k);
            t.row(vec![
                name.to_string(),
                format!("{:.3}", e.precision),
                format!("{:.3}", e.recall),
                format!("{:.3}", e.map),
                format!("{:.3}", e.ndcg),
            ]);
        }
        println!("-- {} ({} cohort queries) --", coll.name, queries.len());
        println!("{}", t.render());
    }
}

/// Phase breakdown of the Figure 8/9 workloads: where each point
/// spends its time (ontology traversal + candidate bookkeeping,
/// index access, exact-distance computation). The paper's Table 5
/// analogue, and the compass for hot-loop work: a point dominated by
/// exact probes will not move however fast the BFS bookkeeping gets.
fn phases(wb: &Workbench) {
    println!("== Phase breakdown (warm workspace, default εθ) ==\n");
    for coll in &wb.collections {
        let mut t =
            Table::new(&["kind", "nq", "k", "total", "traversal", "index", "distance", "probes/q"]);
        let mut points: Vec<(&str, usize, usize, Vec<Vec<ConceptId>>)> = Vec::new();
        for nq in [1usize, 3, 5, 10] {
            let q = coll.rds_queries(wb.scale.queries_per_point, nq, wb.scale.seed ^ 0x80);
            points.push(("RDS", nq, 10, q));
        }
        for k in [10usize, 100] {
            let q = coll.sds_queries(wb.scale.queries_per_point, wb.scale.seed ^ 0x91);
            points.push(("SDS", 5, k, q));
        }
        for (kind, nq, k, queries) in points {
            let cfg = KndsConfig::default().with_error_threshold(coll.default_eps);
            let engine = Knds::new(&wb.ontology, &coll.source, cfg);
            let mut ws = KndsWorkspace::new();
            let run = |ws: &mut KndsWorkspace, q: &Vec<ConceptId>| match kind {
                "RDS" => engine.rds_with(ws, q, k),
                _ => engine.sds_with(ws, q, k),
            };
            if let Some(q) = queries.first() {
                let warm = run(&mut ws, q);
                debug_assert!(warm.results.len() <= k, "warm-up overfilled top-k");
            }
            let metrics: Vec<QueryMetrics> =
                queries.iter().map(|q| run(&mut ws, q).metrics).collect();
            let timing = Timing::from_metrics(&metrics, k);
            let pct = |d: Duration| {
                format!(
                    "{} ({:.0}%)",
                    fmt_duration(d),
                    100.0 * d.as_secs_f64() / timing.total.as_secs_f64().max(1e-12)
                )
            };
            t.row(vec![
                kind.into(),
                nq.to_string(),
                k.to_string(),
                fmt_duration(timing.total),
                pct(timing.traversal),
                pct(timing.io),
                pct(timing.distance_calc),
                format!("{:.1}", timing.drc_calls),
            ]);
        }
        println!("-- {} --", coll.name);
        println!("{}", t.render());
    }
}
