//! A live rendition of the paper's Table 2: the kNDS data structures,
//! iteration by iteration, on the Figure 3 ontology.
//!
//! Table 2 traces an RDS query `q = {F, I}` with `k = 2` over a small
//! collection; the paper's exact documents d1–d6 are not published, so this
//! example uses a six-document collection over the same ontology and
//! prints the same columns from the real engine's trace stream.
//!
//! ```sh
//! cargo run --release --example algorithm_trace
//! ```

use cbr_corpus::Corpus;
use cbr_index::SegmentedView;
use cbr_knds::{Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, TraceEvent};
use cbr_ontology::fixture;

fn main() {
    let fig = fixture::figure3();
    let ont = &fig.ontology;
    let c = |n: &str| fig.concept(n);

    // A collection in the spirit of Table 2's d1..d6.
    let corpus = Corpus::from_concept_sets(vec![
        (vec![c("D"), c("M")], 0),
        (vec![c("F"), c("I")], 0),
        (vec![c("J"), c("N")], 0),
        (vec![c("T"), c("C")], 0),
        (vec![c("V"), c("L")], 0),
        (vec![c("G"), c("H")], 0),
    ]);
    println!("collection:");
    for d in corpus.documents() {
        let labels: Vec<&str> = d.concepts().iter().map(|&cc| ont.label(cc)).collect();
        println!("  {} = {{{}}}", d.id(), labels.join(", "));
    }

    let source = SegmentedView::from_corpus(&corpus);
    let knds = Knds::new(ont, &source, KndsConfig::default().with_error_threshold(1.0));
    let q = vec![c("F"), c("I")];
    println!("\nRDS query q = {{F, I}}, k = 2, εθ = 1.0 — the Table 2 setup\n");

    let hooks = Hooks::on_trace(|event| match event {
        TraceEvent::LevelStart { level, frontier } => {
            println!("── iteration {level}: {frontier} BFS states ──");
        }
        TraceEvent::Candidate { doc, covered, partial } => {
            println!("   Ld: {doc} covered {covered}/2 query nodes, partial Σ = {partial}");
        }
        TraceEvent::Examined { doc, lower_bound, error, exact, via_drc } => {
            let how = if via_drc { "DRC probe" } else { "partial sums" };
            println!(
                "   examine {doc}: D⁻ = {lower_bound}, ε = {error:.2} → exact {exact} ({how})"
            );
        }
        TraceEvent::ExamineBreak { min_unexamined, threshold } => {
            println!("   D⁻ (unexamined) = {min_unexamined:.1}, D⁺k = {threshold:.1}");
        }
        TraceEvent::Terminated { level, d_minus, threshold } => {
            println!("\nterminated at iteration {level}: D⁻ = {d_minus} ≥ D⁺k = {threshold}");
        }
        TraceEvent::Exhausted { finalized } => {
            println!("\nontology exhausted; {finalized} candidates finalized from partial sums");
        }
    });
    let result = knds.run(&mut KndsWorkspace::new(), QueryKind::Rds, &q, 2, hooks);

    println!("\ntop-2 results (the contents of Hk):");
    for r in &result.results {
        println!("  {}  Ddq = {}", r.doc, r.distance);
    }
    println!(
        "\n[{} documents examined of {}, {} BFS levels]",
        result.metrics.docs_examined,
        corpus.len(),
        result.metrics.levels
    );
}
