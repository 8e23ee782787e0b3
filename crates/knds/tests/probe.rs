//! Every exact probe against its oracles: the distance-field probe kNDS
//! examines with (both frontier policies, both query kinds), the full
//! scan and the distances of one pair must equal the brute-force Rada
//! distances (`cbr_dradix::brute`, `cbr_ontology::weighted`) and DRC —
//! to the bit for the `f64` SDS distance, whose two halves the probe
//! computes apart.
//!
//! The ontologies are random multi-parent DAGs whose ids do not follow
//! the topological order, so a probe that descended the query's closure
//! in id order, not topological order, reads a child before its parents.

use cbr_corpus::{Corpus, DocId};
use cbr_dradix::{brute, Drc};
use cbr_index::SegmentedView;
use cbr_knds::{
    baseline, Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, TraceEvent, WeightedKnds,
};
use cbr_ontology::{weighted, ConceptId, EdgeWeights, Ontology, OntologyBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A DAG over `n` concepts in shuffled id order: the `i`-th concept of a
/// random permutation takes one to three parents among the ones before
/// it, so the first is the root and every concept is reachable.
fn shuffled_dag(rng: &mut StdRng, n: usize) -> Ontology {
    let mut b = OntologyBuilder::new();
    let ids: Vec<ConceptId> = (0..n).map(|i| b.add_concept(format!("c{i}"))).collect();
    let mut order = ids.clone();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    for (i, &c) in order.iter().enumerate().skip(1) {
        let mut parents: Vec<ConceptId> =
            (0..rng.random_range(1..=3)).map(|_| order[rng.random_range(0..i)]).collect();
        parents.sort_unstable();
        parents.dedup();
        for p in parents {
            b.add_edge(p, c).expect("a parent earlier in the order");
        }
    }
    b.build().expect("a rooted DAG")
}

/// A random concept set of one to `max` concepts.
fn concept_set(rng: &mut StdRng, ont: &Ontology, max: usize) -> Vec<ConceptId> {
    let n = rng.random_range(1..=max);
    let mut v: Vec<ConceptId> =
        (0..n).map(|_| ConceptId::from_index(rng.random_range(0..ont.len()))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The exact distances a search probed, from its trace.
fn probed(
    run: impl FnOnce(&mut KndsWorkspace, Hooks<'_>) -> cbr_knds::QueryResult,
) -> Vec<(DocId, f64)> {
    let mut out = Vec::new();
    run(
        &mut KndsWorkspace::new(),
        Hooks::on_trace(|e| {
            if let TraceEvent::Examined { doc, exact, via_drc: true, .. } = e {
                out.push((doc, exact));
            }
        }),
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_probe_equals_its_oracles(
        seed in 0u64..1_000_000,
        n in 8usize..60,
        heaviest in 1u32..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ont = shuffled_dag(&mut rng, n);
        let docs: Vec<Vec<ConceptId>> = (0..12).map(|_| concept_set(&mut rng, &ont, 6)).collect();
        let corpus = Corpus::from_concept_sets(docs.iter().map(|d| (d.clone(), 0)).collect());
        let source = SegmentedView::from_corpus(&corpus);
        let q = concept_set(&mut rng, &ont, 5);
        let salt = rng.random::<u32>();
        let weights = EdgeWeights::from_fn(&ont, |p, c| {
            1 + (p.0.wrapping_mul(31) ^ c.0.wrapping_mul(17) ^ salt) % heaviest
        });
        let doc = |d: DocId| &docs[d.index()];
        let mut drc = Drc::new(&ont);
        let mut heavy = Drc::with_weights(&ont, &weights);

        // Unit weights: the search's probes, the scan, one pair.
        let cfg = KndsConfig::default().with_error_threshold(1.0);
        let unit = Knds::new(&ont, &source, cfg.clone());
        let k = docs.len();
        for (d, exact) in probed(|ws, h| unit.run(ws, QueryKind::Rds, &q, k, h)) {
            prop_assert_eq!(exact, brute::document_query_distance(&ont, doc(d), &q) as f64);
            prop_assert_eq!(exact, drc.document_query_distance(doc(d), &q) as f64);
        }
        for (d, exact) in probed(|ws, h| unit.run(ws, QueryKind::Sds, &q, k, h)) {
            let oracle = brute::document_document_distance(&ont, doc(d), &q);
            prop_assert_eq!(exact.to_bits(), oracle.to_bits(), "SDS probe of {:?}", d);
            let drc = drc.document_document_distance(doc(d), &q);
            prop_assert_eq!(exact.to_bits(), drc.to_bits());
        }
        let (rds, sds) = (baseline::rds(&ont, &source, &q, k), baseline::sds(&ont, &source, &q, k));
        for r in &rds.results {
            prop_assert_eq!(r.distance, brute::document_query_distance(&ont, doc(r.doc), &q) as f64);
        }
        for r in &sds.results {
            let oracle = brute::document_document_distance(&ont, doc(r.doc), &q);
            prop_assert_eq!(r.distance.to_bits(), oracle.to_bits(), "SDS scan of {:?}", r.doc);
        }
        let ws = &mut KndsWorkspace::new();
        for d in &docs {
            let exact = baseline::query_distance(&ont, ws, d, &q);
            prop_assert_eq!(exact, drc.document_query_distance(d, &q) as f64);
            let exact = baseline::document_distance(&ont, ws, d, &q);
            prop_assert_eq!(exact.to_bits(), drc.document_document_distance(d, &q).to_bits());
        }

        // Drawn weights: the weighted search's probes.
        let engine = WeightedKnds::new(&ont, &weights, &source, cfg);
        for (d, exact) in probed(|ws, h| engine.run(ws, QueryKind::Rds, &q, k, h)) {
            let oracle = weighted::document_query_distance(&ont, &weights, doc(d), &q);
            prop_assert_eq!(exact, oracle as f64, "weighted RDS probe of {:?}", d);
            prop_assert_eq!(exact, heavy.document_query_distance(doc(d), &q) as f64);
        }
        for (d, exact) in probed(|ws, h| engine.run(ws, QueryKind::Sds, &q, k, h)) {
            let oracle = weighted::document_document_distance(&ont, &weights, doc(d), &q);
            prop_assert_eq!(exact.to_bits(), oracle.to_bits(), "weighted SDS probe of {:?}", d);
            let drc = heavy.document_document_distance(doc(d), &q);
            prop_assert_eq!(exact.to_bits(), drc.to_bits());
        }
    }
}
