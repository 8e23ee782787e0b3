//! Property-based tests for the D-Radix DAG invariant suite.
//!
//! Random ontologies come from proptest-chosen seeds through the
//! deterministic generator; document and query concept sets are sampled
//! from them. The properties pin down two claims the audit layer makes:
//! `validate()` accepts every honestly built+tuned DAG, and the
//! corruption injectors it uses to prove non-vacuity are in fact caught.
//! A third, differential property holds reuse to the paper's structure:
//! whatever a reused `DRadixDag` or `Drc` keeps between probes, each
//! probe's DAG equals a fresh build of the same pair.

use cbr_dradix::{DRadixDag, DagStats, Drc};
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use proptest::prelude::*;

fn ontology(seed: u64, n: usize) -> Ontology {
    OntologyGenerator::new(GeneratorConfig::small(n).with_seed(seed)).generate()
}

fn pick_concepts(ont: &Ontology, picks: &[u32]) -> Vec<ConceptId> {
    let mut v: Vec<ConceptId> = picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any honestly built and tuned DAG passes the full validator:
    /// structure (path compression, arena links), the downward tuning
    /// fixpoint, and a brute-force distance cross-check of every member.
    #[test]
    fn tuned_dag_validates(
        seed in 0u64..500,
        doc_picks in prop::collection::vec(0u32..10_000, 1..8),
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
    ) {
        let ont = ontology(seed, 80);
        let doc = pick_concepts(&ont, &doc_picks);
        let query = pick_concepts(&ont, &query_picks);
        let mut dag = DRadixDag::build(&ont, &doc, &query);
        dag.tune();
        let verdict = dag.validate(&ont, &doc, &query);
        prop_assert!(verdict.is_ok(), "violations: {:?}", verdict);
    }

    /// An inflated member distance never slips past `validate()`: whenever
    /// the injector finds a corruptible node, the validator must object.
    #[test]
    fn inflated_distance_is_caught(
        seed in 0u64..500,
        doc_picks in prop::collection::vec(0u32..10_000, 1..8),
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
    ) {
        let ont = ontology(seed, 80);
        let doc = pick_concepts(&ont, &doc_picks);
        let query = pick_concepts(&ont, &query_picks);
        let mut dag = DRadixDag::build(&ont, &doc, &query);
        dag.tune();
        if dag.corrupt_inflate_distance() {
            prop_assert!(dag.validate(&ont, &doc, &query).is_err());
        }
    }

    /// A re-materialized chain node (broken path compression) never slips
    /// past `validate_structure()`.
    #[test]
    fn broken_compression_is_caught(
        seed in 0u64..500,
        doc_picks in prop::collection::vec(0u32..10_000, 1..8),
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
    ) {
        let ont = ontology(seed, 80);
        let doc = pick_concepts(&ont, &doc_picks);
        let query = pick_concepts(&ont, &query_picks);
        let mut dag = DRadixDag::build(&ont, &doc, &query);
        dag.tune();
        if dag.corrupt_break_compression(&ont) {
            prop_assert!(dag.validate_structure().is_err());
        }
    }
}

// --- differential: one reused DAG / `Drc` against a fresh build --------

/// Everything observable about a tuned DAG, in an order that does not
/// depend on arena slots: shape statistics, `(concept, doc distance,
/// query distance)` rows, and `(parent, child, label, weight)` edges.
type Shape = (DagStats, Vec<(ConceptId, u32, u32)>, Vec<(ConceptId, ConceptId, Vec<u32>, u32)>);

fn shape(dag: &DRadixDag) -> Shape {
    let mut nodes: Vec<_> = dag.nodes().collect();
    nodes.sort_unstable();
    let mut edges: Vec<_> = dag.edges().map(|(f, t, l, w)| (f, t, l.to_vec(), w)).collect();
    edges.sort();
    (dag.stats(), nodes, edges)
}

/// The varying argument of one probe, derived from the run's fixed set so
/// that overlays share members with the pin (`kind` 1–4), are subsets,
/// supersets or singletons of it, or are unrelated (0, 5).
fn varying(ont: &Ontology, fixed: &[ConceptId], kind: u8, picks: &[u32]) -> Vec<ConceptId> {
    let random = pick_concepts(ont, picks);
    let mut v: Vec<ConceptId> = match kind {
        1 => fixed.iter().copied().step_by(2).collect(),
        2 => fixed.iter().copied().chain(random).collect(),
        3 => fixed.iter().copied().take(1).collect(),
        4 => fixed.iter().copied().skip(1).step_by(2).chain(random).collect(),
        5 => random.into_iter().take(1).collect(),
        _ => random,
    };
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reuse is invisible. One `DRadixDag` rebuilt in place, one `Drc`
    /// and one weighted `Drc` probed through runs that keep the query
    /// fixed, keep the document fixed, or alternate must each equal a
    /// fresh `DRadixDag::build` of the same pair every time — statistics,
    /// nodes with both tuned distances, edges with labels and weights —
    /// and pass the full validator, whose brute-force half is independent
    /// of how (and from where) addresses were inserted. The fresh build
    /// itself is held to the build of the mirrored pair.
    #[test]
    fn reused_dag_equals_fresh_build(
        seed in 0u64..500,
        fixed_picks in prop::collection::vec(prop::collection::vec(0u32..10_000, 1..8), 2..3),
        // One header per run: which fixed set repeats (`h % 2`) and in
        // which argument (`h / 2`: 0 query, 1 document — the traced
        // replay's orientation — 2 alternating).
        headers in prop::collection::vec(0u32..6, 4..5),
        // Per run, its probes: `[kind, picks..]` of the varying argument.
        runs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..10_000, 2..9), 1..6),
            1..5,
        ),
    ) {
        let ont = ontology(seed, 80);
        let weights =
            EdgeWeights::from_fn(&ont, |p, c| 1 + (p.0.wrapping_mul(31).wrapping_add(c.0) % 4));
        let fixed: Vec<Vec<ConceptId>> =
            fixed_picks.iter().map(|p| pick_concepts(&ont, p)).collect();
        let mut dag = DRadixDag::new();
        let mut drc = Drc::new(&ont);
        let mut weighted = Drc::with_weights(&ont, &weights);
        for (header, probes) in headers.iter().zip(&runs) {
            let fixed = &fixed[(header % 2) as usize];
            for (i, probe) in probes.iter().enumerate() {
                let other = varying(&ont, fixed, (probe[0] % 6) as u8, &probe[1..]);
                let fixed_is_query = match header / 2 {
                    0 => true,
                    1 => false,
                    _ => i % 2 == 0,
                };
                let (doc, query) =
                    if fixed_is_query { (&other, fixed) } else { (fixed, &other) };

                let mut fresh = DRadixDag::build(&ont, doc, query);
                fresh.tune();
                let expect = shape(&fresh);
                // Insertion order is free: the mirrored pair inserts the
                // two address lists the other way round and must build
                // the same DAG with the two distances swapped.
                let mut mirrored = DRadixDag::build(&ont, query, doc);
                mirrored.tune();
                let (stats, mut nodes, edges) = shape(&mirrored);
                nodes.iter_mut().for_each(|(_, d, q)| std::mem::swap(d, q));
                prop_assert_eq!(&(stats, nodes, edges), &expect, "mirrored build");
                dag.build_into(&ont, doc, query);
                dag.tune();
                prop_assert_eq!(&shape(&dag), &expect, "rebuilt DAG, doc {:?} query {:?}", doc, query);
                let verdict = dag.validate(&ont, doc, query);
                prop_assert!(verdict.is_ok(), "rebuilt DAG: {:?}", verdict);
                let probed = drc.probe(doc, query);
                prop_assert_eq!(&shape(probed), &expect, "probe, doc {:?} query {:?}", doc, query);
                let verdict = probed.validate(&ont, doc, query);
                prop_assert!(verdict.is_ok(), "probe: {:?}", verdict);

                let mut fresh = DRadixDag::build_weighted(&ont, doc, query, &weights);
                fresh.tune();
                let probed = weighted.probe(doc, query);
                prop_assert_eq!(
                    shape(probed), shape(&fresh), "weighted probe, doc {:?} query {:?}", doc, query
                );
                let verdict = probed.validate_structure().and(probed.validate_tuned());
                prop_assert!(verdict.is_ok(), "weighted probe: {:?}", verdict);
            }
        }
    }
}
