//! Every public query entry of [`Engine`], [`EngineSnapshot`] and
//! [`SharedEngine`] over two ontologies whose Dewey path table is past
//! its index widths: 33 stacked diamonds (100 concepts, 2³³ root paths to
//! the deepest) and a 70,001-concept chain (one address of 70,000
//! components). No entry reads a Dewey address, so each returns `Ok` or
//! a typed [`EngineError`] and none panics.

use cbr_corpus::{Corpus, DocId, FilterConfig};
use cbr_knds::{KndsWorkspace, QueryKind};
use cbr_ontology::{ConceptId, Ontology, OntologyBuilder};
use concept_rank::{Engine, EngineBuilder, ExpansionConfig, Measure, SharedEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A root over `diamonds` stacked diamonds: each adds two concepts under
/// the previous apex and a new apex under both, doubling the root paths.
fn diamonds(diamonds: usize) -> Ontology {
    let mut b = OntologyBuilder::new();
    let mut apex = b.add_concept("root");
    for i in 0..diamonds {
        let (left, right) = (b.add_concept(format!("l{i}")), b.add_concept(format!("r{i}")));
        let next = b.add_concept(format!("a{i}"));
        for (p, c) in [(apex, left), (apex, right), (left, next), (right, next)] {
            b.add_edge(p, c).expect("a diamond edge");
        }
        apex = next;
    }
    b.build().expect("stacked diamonds form a rooted DAG")
}

/// A chain of `len` concepts below the root.
fn chain(len: usize) -> Ontology {
    let mut b = OntologyBuilder::new();
    let mut last = b.add_concept("root");
    for i in 0..len {
        let next = b.add_concept(format!("c{i}"));
        b.add_edge(last, next).expect("a chain edge");
        last = next;
    }
    b.build().expect("a chain is a rooted DAG")
}

/// An engine over `ont` with every concept eligible and one document a
/// concept set.
fn engine(ont: Ontology, docs: &[&[u32]]) -> Engine {
    let sets = docs.iter().map(|d| (d.iter().map(|&c| ConceptId(c)).collect(), 0)).collect();
    let filter = FilterConfig { min_depth: 0, cf_sigma: f64::INFINITY };
    EngineBuilder::new().filter(filter).build(ont, Corpus::from_concept_sets(sets))
}

/// One named query entry: `true` for `Ok`, `false` for a typed error.
type Entry<'a> = (&'static str, Box<dyn FnOnce() -> bool + 'a>);

/// Calls every query entry of `make()`'s engine, and of a shared engine
/// over another, with `query` and `doc`, and returns the names of those
/// that panicked.
fn panicking_entries(
    make: impl Fn() -> Engine,
    query: &[ConceptId],
    doc: DocId,
) -> Vec<&'static str> {
    let k = 2;
    let (engine, shared) = (&make(), SharedEngine::new(make()));
    let label = engine.ontology().label(query[0]).to_string();
    let ws = &mut KndsWorkspace::new();
    let ranked = engine.rds(query, k).map(|r| r.results).unwrap_or_default();
    let calls: Vec<Entry<'_>> = vec![
        ("rds", Box::new(|| engine.rds(query, k).is_ok())),
        ("rds_with", Box::new(|| engine.rds_with(ws, query, k).is_ok())),
        ("rds_by_labels", Box::new(|| engine.rds_by_labels(&[&label], k).is_ok())),
        ("sds", Box::new(|| engine.sds(query, k).is_ok())),
        ("sds_with", Box::new(|| engine.sds_with(&mut KndsWorkspace::new(), query, k).is_ok())),
        ("sds_by_doc", Box::new(|| engine.sds_by_doc(doc, k).is_ok())),
        (
            "sds_by_doc_with",
            Box::new(|| engine.sds_by_doc_with(&mut KndsWorkspace::new(), doc, k).is_ok()),
        ),
        (
            "batch",
            Box::new(|| {
                let queries = [query.to_vec(), query.to_vec()];
                let rds = engine.batch(QueryKind::Rds, &queries, k, 2);
                let sds = engine.batch(QueryKind::Sds, &queries, k, 1);
                rds.iter().chain(&sds).all(Result::is_ok)
            }),
        ),
        ("query_distance", Box::new(|| engine.query_distance(doc, query).is_ok())),
        (
            "query_distance_with",
            Box::new(|| engine.query_distance_with(&mut KndsWorkspace::new(), doc, query).is_ok()),
        ),
        ("document_distance", Box::new(|| engine.document_distance(doc, DocId(1)).is_ok())),
        (
            "document_distance_with",
            Box::new(|| {
                engine.document_distance_with(&mut KndsWorkspace::new(), doc, DocId(1)).is_ok()
            }),
        ),
        ("rds_full_scan", Box::new(|| engine.rds_full_scan(query, k).is_ok())),
        ("sds_full_scan", Box::new(|| engine.sds_full_scan(query, k).is_ok())),
        (
            "rds_expanded",
            Box::new(|| engine.rds_expanded(query, k, &ExpansionConfig::default()).is_ok()),
        ),
        ("explain_rds", Box::new(|| engine.explain_rds(doc, query).is_ok())),
        ("rerank", Box::new(|| engine.rerank(&ranked, query, Measure::Lin).is_ok())),
        ("shared rds", Box::new(|| shared.rds(query, k).is_ok())),
        ("shared sds", Box::new(|| shared.sds(query, k).is_ok())),
        ("shared sds_by_doc", Box::new(|| shared.sds_by_doc(doc, k).is_ok())),
        (
            "shared with_session",
            Box::new(|| shared.with_session(|snap, ws| snap.rds_with(ws, query, k).is_ok())),
        ),
    ];
    let mut panicked = Vec::new();
    for (name, call) in calls {
        match catch_unwind(AssertUnwindSafe(call)) {
            Ok(ok) => assert!(ok, "{name}: a well-formed call was refused"),
            Err(_) => panicked.push(name),
        }
    }
    panicked
}

#[test]
fn no_entry_panics_over_2_pow_33_root_paths() {
    // Concept 3i + 3 is the apex of diamond i; the deepest, 99, has 2³³
    // root paths.
    let make = || engine(diamonds(33), &[&[99, 50], &[40], &[97, 1]]);
    let query = [ConceptId(98), ConceptId(20)];
    assert_eq!(panicking_entries(make, &query, DocId(0)), Vec::<&str>::new());
}

#[test]
fn no_entry_panics_over_a_70_001_concept_chain() {
    let make = || engine(chain(70_000), &[&[70_000, 3], &[35_000], &[10, 69_999]]);
    let query = [ConceptId(69_998), ConceptId(5)];
    assert_eq!(panicking_entries(make, &query, DocId(0)), Vec::<&str>::new());
}
