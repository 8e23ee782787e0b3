//! Progressive-emission invariants (Section 5.3, optimization 4):
//! each result is emitted exactly once, in non-decreasing distance order,
//! and the emitted set equals the final top-k.

use cbr_corpus::{CorpusGenerator, CorpusProfile};
use cbr_index::SegmentedView;
use cbr_knds::{
    Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, QueryResult, RankedDoc, WeightedKnds,
};
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, OntologyGenerator};

fn setup() -> (cbr_ontology::Ontology, SegmentedView, Vec<Vec<ConceptId>>) {
    let ont = OntologyGenerator::new(GeneratorConfig::small(600)).generate();
    let corpus = CorpusGenerator::new(
        &ont,
        CorpusProfile::radio_like().with_num_docs(70).with_mean_concepts(10.0),
    )
    .generate();
    let queries: Vec<Vec<ConceptId>> = corpus
        .documents()
        .filter(|d| d.num_concepts() >= 3)
        .take(6)
        .map(|d| d.concepts()[..3].to_vec())
        .collect();
    let source = SegmentedView::from_corpus(&corpus);
    (ont, source, queries)
}

/// One query through [`Knds::run`] with a progressive sink attached:
/// the emission sequence and the returned result.
fn stream(
    knds: &Knds<'_, SegmentedView>,
    ws: &mut KndsWorkspace,
    kind: QueryKind,
    q: &[ConceptId],
    k: usize,
) -> (Vec<RankedDoc>, QueryResult) {
    let mut emitted = Vec::new();
    let r = knds.run(ws, kind, q, k, Hooks::on_final(|d| emitted.push(d)));
    (emitted, r)
}

fn check_stream(emitted: &[RankedDoc], result: &[RankedDoc], ctx: &str) {
    assert_eq!(emitted.len(), result.len(), "{ctx}: every result emitted exactly once");
    // Emission is sorted by distance.
    for w in emitted.windows(2) {
        assert!(w[0].distance <= w[1].distance, "{ctx}: stream out of order");
    }
    // Emitted set equals result set.
    let mut a: Vec<_> = emitted.iter().map(|r| (r.doc, r.distance.to_bits())).collect();
    let mut b: Vec<_> = result.iter().map(|r| (r.doc, r.distance.to_bits())).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "{ctx}: emitted set mismatch");
}

#[test]
fn rds_stream_matches_results_for_all_thresholds() {
    let (ont, source, queries) = setup();
    for eps in [0.0, 0.5, 1.0] {
        let knds = Knds::new(&ont, &source, KndsConfig::default().with_error_threshold(eps));
        for (i, q) in queries.iter().enumerate() {
            let (emitted, r) = stream(&knds, &mut KndsWorkspace::new(), QueryKind::Rds, q, 5);
            check_stream(&emitted, &r.results, &format!("eps {eps} query {i}"));
        }
    }
}

#[test]
fn sds_stream_matches_results() {
    let (ont, source, queries) = setup();
    let knds = Knds::new(&ont, &source, KndsConfig::default());
    for (i, q) in queries.iter().enumerate() {
        let (emitted, r) = stream(&knds, &mut KndsWorkspace::new(), QueryKind::Sds, q, 4);
        check_stream(&emitted, &r.results, &format!("sds query {i}"));
    }
}

#[test]
fn some_results_arrive_before_termination_on_selective_queries() {
    let (ont, source, queries) = setup();
    let knds = Knds::new(&ont, &source, KndsConfig::default());
    // Aggregate: across the workload, at least one query should emit one or
    // more results early (otherwise the optimization is dead code).
    let mut early = 0usize;
    for q in &queries {
        let r = knds.rds(q, 5);
        early += r.metrics.progressive_results;
    }
    assert!(early > 0, "progressive emission never fired across the workload");
}

#[test]
fn streaming_reuses_a_caller_workspace() {
    let (ont, source, queries) = setup();
    let knds = Knds::new(&ont, &source, KndsConfig::default());
    let mut ws = KndsWorkspace::new();
    for (i, q) in queries.iter().enumerate() {
        let (emitted, r) = stream(&knds, &mut ws, QueryKind::Rds, q, 5);
        check_stream(&emitted, &r.results, &format!("warm rds query {i}"));
        assert_eq!(r.results, knds.rds(q, 5).results);

        let (emitted, r) = stream(&knds, &mut ws, QueryKind::Sds, q, 4);
        check_stream(&emitted, &r.results, &format!("warm sds query {i}"));
        assert_eq!(r.results, knds.sds(q, 4).results);
    }
}

/// Both frontier policies run the one loop over the one workspace: a
/// weighted query in between must leave nothing behind (buckets, best
/// distances, doc marks) that changes what a `Knds` query emits, in what
/// order, or how often.
#[test]
fn weighted_queries_on_the_shared_workspace_do_not_disturb_the_stream() {
    let (ont, source, queries) = setup();
    let knds = Knds::new(&ont, &source, KndsConfig::default());
    let weights = EdgeWeights::from_fn(&ont, |p, c| 1 + (p.0.wrapping_add(c.0) % 3));
    let weighted = WeightedKnds::new(&ont, &weights, &source, KndsConfig::default());
    let mut ws = KndsWorkspace::new();
    for (i, q) in queries.iter().enumerate() {
        for (kind, k) in [(QueryKind::Rds, 5), (QueryKind::Sds, 4)] {
            let (expect, _) = stream(&knds, &mut KndsWorkspace::new(), kind, q, k);
            weighted.rds_with(&mut ws, q, k);
            weighted.sds_with(&mut ws, q, k);
            let (emitted, r) = stream(&knds, &mut ws, kind, q, k);
            check_stream(&emitted, &r.results, &format!("interleaved {kind:?} query {i}"));
            assert_eq!(emitted, expect, "{kind:?} query {i}: emission order changed");
        }
    }
}
