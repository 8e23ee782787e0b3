//! Every worked example of the paper, verified end to end through the
//! public API. These are the strongest fidelity checks in the repository:
//! the expected values are printed in the paper itself.

use cbr_corpus::Corpus;
use cbr_dradix::{brute, Drc};
use cbr_knds::{Knds, KndsConfig};
use cbr_ontology::{concept_distance, fixture};
use concept_rank::EngineBuilder;

/// Section 3.2: `D(G, F)` is 5, not 2 — the 2-edge path through their
/// common *descendant* J is not a valid path.
#[test]
fn section_3_2_valid_path_distance() {
    let fig = fixture::figure3();
    let pt = fig.ontology.path_table();
    assert_eq!(concept_distance(pt, fig.concept("G"), fig.concept("F")), 5);
    assert_eq!(concept_distance(pt, fig.concept("F"), fig.concept("G")), 5);
}

/// Example 1: for d = {F,R,T,V} and q = {I,L,U},
/// `Ddq(d, q) = Ddc(d,I) + Ddc(d,L) + Ddc(d,U) = 4 + 2 + 1 = 7`.
#[test]
fn example_1_distances() {
    let fig = fixture::figure3();
    let mut drc = Drc::new(&fig.ontology);
    let d = fig.example_document();
    let q = fig.example_query();
    assert_eq!(drc.document_query_distance(&d, &q), 7);
    assert_eq!(brute::document_query_distance(&fig.ontology, &d, &q), 7);
}

/// Example 3: a parallel BFS from q = {I, L, U} finds, at depth 1, that R
/// (contained in d) covers U; hence `Ddc(d, U) = 1` while the other two
/// query nodes still have lower bound 2.
#[test]
fn example_3_first_touch() {
    let fig = fixture::figure3();
    let pt = fig.ontology.path_table();
    let d = fig.example_document();
    assert_eq!(cbr_ontology::document_concept_distance(pt, &d, fig.concept("U")), 1);
    assert!(cbr_ontology::document_concept_distance(pt, &d, fig.concept("I")) >= 2);
    assert!(cbr_ontology::document_concept_distance(pt, &d, fig.concept("L")) >= 2);
}

/// Example 4's setup: an RDS query q = {F, I} with k = 2 over a small
/// collection terminates early and returns exact results. The paper's toy
/// collection contents are not published, so we verify the invariants on
/// our own collection over the same ontology.
#[test]
fn example_4_early_termination_invariants() {
    let fig = fixture::figure3();
    let c = |n: &str| fig.concept(n);
    // Six documents echoing the flavor of Table 2's d1..d6.
    let corpus = Corpus::from_concept_sets(vec![
        (vec![c("D"), c("M")], 0),
        (vec![c("F"), c("I")], 0),
        (vec![c("J"), c("N")], 0),
        (vec![c("T"), c("C")], 0),
        (vec![c("V"), c("L")], 0),
        (vec![c("G"), c("H")], 0),
    ]);
    let source = cbr_index::SegmentedView::from_corpus(&corpus);
    let q = vec![c("F"), c("I")];

    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default().with_error_threshold(1.0));
    let fast = knds.rds(&q, 2);
    let slow = cbr_knds::baseline::rds(&fig.ontology, &source, &q, 2);
    assert_eq!(fast.results[0].distance, slow.results[0].distance);
    assert_eq!(fast.results[1].distance, slow.results[1].distance);
    // d2 = {F, I} matches exactly.
    assert_eq!(fast.results[0].doc, cbr_corpus::DocId(1));
    assert_eq!(fast.results[0].distance, 0.0);
    // Early termination: not every document was examined.
    assert!(
        fast.metrics.docs_examined < corpus.len(),
        "kNDS examined {} of {}",
        fast.metrics.docs_examined,
        corpus.len()
    );
}

/// Figure 5(g): the tuned D-Radix distances of the running example —
/// checked through the public DAG API.
#[test]
fn figure_5g_tuned_distances() {
    let fig = fixture::figure3();
    let drc = Drc::new(&fig.ontology);
    let dag = drc.build_dag(&fig.example_document(), &fig.example_query());
    // Query-node doc-distances: I=4, L=2, U=1 (the Example 1 numbers).
    assert_eq!(dag.doc_distance(fig.concept("I")), Some(4));
    assert_eq!(dag.doc_distance(fig.concept("L")), Some(2));
    assert_eq!(dag.doc_distance(fig.concept("U")), Some(1));
    // Document-node query-distances.
    assert_eq!(dag.query_distance(fig.concept("F")), Some(2));
    assert_eq!(dag.query_distance(fig.concept("R")), Some(1));
    assert_eq!(dag.query_distance(fig.concept("T")), Some(4));
}

/// The engine facade reproduces Example 1 through labels.
#[test]
fn engine_reproduces_example_1() {
    let fig = fixture::figure3();
    let d = fig.example_document();
    let corpus = Corpus::from_concept_sets(vec![(d, 0)]);
    let engine = EngineBuilder::new().build(fig.ontology, corpus);
    let r = engine.rds_by_labels(&["I", "L", "U"], 1).expect("labels resolve");
    assert_eq!(r.results[0].distance, 7.0);
}
