//! Property-based tests over the core invariants.
//!
//! Random ontologies are derived from proptest-chosen seeds through the
//! deterministic generator, then concept sets and queries are sampled from
//! them. Each property pins an invariant the paper's algorithms rely on.

use cbr_corpus::Corpus;
use cbr_dradix::{brute, Drc};
use cbr_index::SegmentedView;
use cbr_knds::{baseline, Knds, KndsConfig, KndsWorkspace};
use cbr_ontology::{
    concept_distance, concept_distance_graph, distance::multi_source_distances, ConceptId,
    GeneratorConfig, Ontology, OntologyGenerator,
};
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

    /// The Dewey-address distance equals the graph-BFS distance — two
    /// independent formulations of the valid-path metric.
    #[test]
    fn dewey_and_graph_distances_agree(
        seed in 0u64..500,
        a in 0u32..10_000,
        b in 0u32..10_000,
    ) {
        let ont = ontology(seed, 80);
        let pt = ont.path_table();
        let ca = ConceptId(a % ont.len() as u32);
        let cb = ConceptId(b % ont.len() as u32);
        prop_assert_eq!(concept_distance(pt, ca, cb), concept_distance_graph(&ont, ca, cb));
    }

    /// Metric sanity: identity, symmetry, and the depth bounds
    /// |depth(a)−depth(b)| ≤ D(a,b) ≤ depth(a)+depth(b).
    /// (The triangle inequality does NOT hold for valid-path distances —
    /// G/J/F in Figure 3 is a counterexample — so it is deliberately not
    /// asserted.)
    #[test]
    fn distance_metric_sanity(
        seed in 0u64..500,
        a in 0u32..10_000,
        b in 0u32..10_000,
    ) {
        let ont = ontology(seed, 80);
        let pt = ont.path_table();
        let ca = ConceptId(a % ont.len() as u32);
        let cb = ConceptId(b % ont.len() as u32);
        let d = concept_distance(pt, ca, cb);
        prop_assert_eq!(concept_distance(pt, ca, ca), 0);
        prop_assert_eq!(concept_distance(pt, cb, ca), d);
        let (da, db) = (ont.depth(ca), ont.depth(cb));
        prop_assert!(d >= da.abs_diff(db), "D={d} < |Δdepth|={}", da.abs_diff(db));
        prop_assert!(d <= da + db, "D={d} > depth sum={}", da + db);
    }

    /// DRC computes exactly the brute-force Equation 2 / Equation 3 values.
    #[test]
    fn drc_matches_brute_force(
        seed in 0u64..200,
        doc_picks in prop::collection::vec(0u32..10_000, 1..12),
        query_picks in prop::collection::vec(0u32..10_000, 1..8),
    ) {
        let ont = ontology(seed, 120);
        let d = pick_concepts(&ont, &doc_picks);
        let q = pick_concepts(&ont, &query_picks);
        let mut drc = Drc::new(&ont);
        prop_assert_eq!(
            drc.document_query_distance(&d, &q),
            brute::document_query_distance(&ont, &d, &q)
        );
        for (a, b) in [(&d, &q), (&q, &d)] {
            let x = drc.document_document_distance(a, b);
            let y = brute::document_document_distance(&ont, a, b);
            prop_assert_eq!(x.to_bits(), y.to_bits(), "Ddd {} vs {}", x, y);
        }
    }

    /// The symmetric distance really is symmetric, zero on identity, and
    /// monotone under the "subset grows similarity" sanity direction is NOT
    /// claimed (it is false in general) — only the exchange symmetry.
    #[test]
    fn ddd_symmetry(
        seed in 0u64..200,
        a_picks in prop::collection::vec(0u32..10_000, 1..10),
        b_picks in prop::collection::vec(0u32..10_000, 1..10),
    ) {
        let ont = ontology(seed, 100);
        let a = pick_concepts(&ont, &a_picks);
        let b = pick_concepts(&ont, &b_picks);
        let mut drc = Drc::new(&ont);
        let ab = drc.document_document_distance(&a, &b);
        let ba = drc.document_document_distance(&b, &a);
        prop_assert_eq!(ab.to_bits(), ba.to_bits(), "Ddd {} vs {}", ab, ba);
        prop_assert_eq!(drc.document_document_distance(&a, &a), 0.0);
        prop_assert!(ab >= 0.0);
    }

    /// Multi-source distances equal the minimum of single-source ones.
    #[test]
    fn multi_source_is_min_of_singles(
        seed in 0u64..200,
        picks in prop::collection::vec(0u32..10_000, 1..6),
        probe in 0u32..10_000,
    ) {
        let ont = ontology(seed, 90);
        let sources = pick_concepts(&ont, &picks);
        let c = ConceptId(probe % ont.len() as u32);
        let multi = multi_source_distances(&ont, &sources);
        let expected = sources
            .iter()
            .map(|&s| multi_source_distances(&ont, &[s])[c.index()])
            .min()
            .unwrap();
        prop_assert_eq!(multi[c.index()], expected);
    }

    /// kNDS returns the same distance profile as the exhaustive baseline
    /// for random corpora, thresholds, and k — the paper's central
    /// correctness claim.
    #[test]
    fn knds_is_exact(
        seed in 0u64..100,
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
        eps in 0.0f64..=1.0,
        k in 1usize..8,
        doc_seeds in prop::collection::vec(0u64..10_000, 4..20),
    ) {
        let ont = ontology(seed, 150);
        // Random corpus: each doc_seed expands into a few concepts.
        let sets: Vec<(Vec<ConceptId>, u32)> = doc_seeds
            .iter()
            .map(|&s| {
                let picks: Vec<u32> =
                    (0..(s % 6 + 1)).map(|i| (s.wrapping_mul(31).wrapping_add(i * 977)) as u32).collect();
                (pick_concepts(&ont, &picks), 0)
            })
            .collect();
        let corpus = Corpus::from_concept_sets(sets);
        let source = SegmentedView::from_corpus(&corpus);
        let q = pick_concepts(&ont, &query_picks);

        let cfg = KndsConfig::default().with_error_threshold(eps);
        let fast = Knds::new(&ont, &source, cfg).rds(&q, k);
        let slow = baseline::rds(&ont, &source, &q, k);
        prop_assert_eq!(fast.results.len(), slow.results.len());
        for (a, b) in fast.results.iter().zip(slow.results.iter()) {
            let same = (a.distance - b.distance).abs() < 1e-9
                || (a.distance.is_infinite() && b.distance.is_infinite());
            prop_assert!(same, "rank mismatch: {} vs {}", a.distance, b.distance);
        }
    }

    /// Documents survive the sort/dedup normalization with set semantics.
    #[test]
    fn document_is_a_set(picks in prop::collection::vec(0u32..50, 0..30)) {
        let doc = cbr_corpus::Document::new(
            cbr_corpus::DocId(0),
            picks.iter().map(|&p| ConceptId(p)).collect(),
            0,
        );
        let cs = doc.concepts();
        prop_assert!(cs.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        for &p in &picks {
            prop_assert!(doc.contains(ConceptId(p)));
        }
    }

    /// The snapshot codec never panics on malformed input — the reader and
    /// the three body decoders return an error for garbage and only accept
    /// byte strings that decode fully.
    #[test]
    fn codec_rejects_garbage_without_panicking(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        use cbr_index::snapshot::Reader;
        let _ = Reader::new(&bytes).u64();
        let _ = Reader::new(&bytes).f64();
        let _ = Reader::new(&bytes).bool();
        let _ = Reader::new(&bytes).str();
        let _ = Reader::new(&bytes).u32s().map(|v| v.count());
        let _ = Reader::new(&bytes).seq_len(8);
        if let Ok(ont) = concept_rank::persist::decode_ontology(&bytes) {
            prop_assert!(ont.validate().is_ok());
        }
        if let Ok(corpus) = concept_rank::persist::decode_corpus(&bytes, 16) {
            prop_assert!(corpus.documents().all(|d| d.concepts().iter().all(|c| c.index() < 16)));
        }
        if let Ok(cfg) = concept_rank::persist::decode_config(&bytes) {
            prop_assert!((0.0..=1.0).contains(&cfg.error_threshold()) && cfg.queue_cap() > 0);
        }
    }

    /// The snapshot codec round-trips arbitrary mixed records.
    #[test]
    fn codec_roundtrips(
        nums in prop::collection::vec(any::<u32>(), 0..20),
        text in ".{0,40}",
        flag in any::<bool>(),
        real in any::<u64>(),
    ) {
        use cbr_index::snapshot::{Reader, Writer};
        let mut w = Writer::new();
        w.put_u32s(nums.iter().copied());
        w.put_str(&text);
        w.put_bool(flag);
        w.put_f64(f64::from_bits(real));
        let body = w.finish();
        let mut r = Reader::new(&body);
        prop_assert_eq!(r.u32s().unwrap().collect::<Vec<_>>(), nums);
        prop_assert_eq!(r.str().unwrap(), text.as_str());
        prop_assert_eq!(r.bool().unwrap(), flag);
        prop_assert_eq!(r.f64().unwrap().to_bits(), real);
        prop_assert!(r.expect_end().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wu–Palmer and Lin stay within [0, 1] and are reflexive on random
    /// DAGs — the bound that the naive depth-ratio formulation violates.
    #[test]
    fn similarity_measures_are_bounded(
        seed in 0u64..300,
        a in 0u32..10_000,
        b in 0u32..10_000,
    ) {
        use cbr_ontology::{InformationContent, SemanticSimilarity};
        let ont = ontology(seed, 80);
        let sim = SemanticSimilarity::new(&ont, InformationContent::uniform(&ont));
        let ca = ConceptId(a % ont.len() as u32);
        let cb = ConceptId(b % ont.len() as u32);
        let wp = sim.wu_palmer(ca, cb);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&wp), "wu_palmer {}", wp);
        prop_assert!((sim.wu_palmer(ca, ca) - 1.0).abs() < 1e-12);
        let lin = sim.lin(ca, cb);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&lin), "lin {}", lin);
        prop_assert!(sim.jiang_conrath(ca, cb) >= 0.0);
        prop_assert!(sim.resnik(ca, cb) >= 0.0);
        // Symmetry of all four measures.
        prop_assert!((sim.wu_palmer(cb, ca) - wp).abs() < 1e-12);
        prop_assert!((sim.lin(cb, ca) - lin).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// kNDS SDS is exact against the exhaustive baseline on random
    /// corpora — the symmetric-distance counterpart of `knds_is_exact`.
    #[test]
    fn knds_sds_is_exact(
        seed in 0u64..60,
        eps in 0.0f64..=1.0,
        k in 1usize..6,
        doc_seeds in prop::collection::vec(0u64..10_000, 4..14),
    ) {
        let ont = ontology(seed, 120);
        let sets: Vec<(Vec<ConceptId>, u32)> = doc_seeds
            .iter()
            .map(|&s| {
                let picks: Vec<u32> = (0..(s % 5 + 1))
                    .map(|i| (s.wrapping_mul(37).wrapping_add(i * 613)) as u32)
                    .collect();
                (pick_concepts(&ont, &picks), 0)
            })
            .collect();
        let corpus = Corpus::from_concept_sets(sets);
        let source = SegmentedView::from_corpus(&corpus);
        let q = corpus
            .documents()
            .find(|d| d.num_concepts() > 0)
            .map(|d| d.concepts().to_vec());
        let Some(q) = q else { return Ok(()) };

        let cfg = KndsConfig::default().with_error_threshold(eps);
        let fast = Knds::new(&ont, &source, cfg).sds(&q, k);
        let slow = baseline::sds(&ont, &source, &q, k);
        prop_assert_eq!(fast.results.len(), slow.results.len());
        for (a, b) in fast.results.iter().zip(slow.results.iter()) {
            let same = (a.distance - b.distance).abs() < 1e-9
                || (a.distance.is_infinite() && b.distance.is_infinite());
            prop_assert!(same, "SDS rank mismatch: {} vs {}", a.distance, b.distance);
        }
    }

    /// One `KndsWorkspace` reused across interleaved RDS and SDS queries
    /// (random `εθ`, `k`, and corpus) produces bit-identical results and
    /// metrics counters to fresh-workspace runs — the zero-allocation query
    /// path never changes observable behavior.
    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_state(
        seed in 0u64..60,
        eps_idx in 0usize..5,
        k in 1usize..6,
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
        doc_seeds in prop::collection::vec(0u64..10_000, 4..14),
    ) {
        let eps = [0.0, 0.25, 0.5, 0.75, 1.0][eps_idx];
        let ont = ontology(seed, 120);
        let sets: Vec<(Vec<ConceptId>, u32)> = doc_seeds
            .iter()
            .map(|&s| {
                let picks: Vec<u32> = (0..(s % 5 + 1))
                    .map(|i| (s.wrapping_mul(41).wrapping_add(i * 769)) as u32)
                    .collect();
                (pick_concepts(&ont, &picks), 0)
            })
            .collect();
        let corpus = Corpus::from_concept_sets(sets);
        let source = SegmentedView::from_corpus(&corpus);
        let q1 = pick_concepts(&ont, &query_picks);
        let q2 = corpus
            .documents()
            .find(|d| d.num_concepts() > 0)
            .map(|d| d.concepts().to_vec())
            .unwrap_or_else(|| q1.clone());

        let cfg = KndsConfig::default().with_error_threshold(eps);
        let engine = Knds::new(&ont, &source, cfg);
        let mut ws = KndsWorkspace::new();
        // Interleave RDS and SDS on the same workspace; compare each run
        // against a fresh-state evaluation of the identical query.
        for (round, q) in [&q1, &q2, &q1, &q2].iter().enumerate() {
            let shared = engine.rds_with(&mut ws, q, k);
            let fresh = engine.rds(q, k);
            prop_assert_eq!(&shared.results, &fresh.results, "RDS round {}", round);
            prop_assert_eq!(shared.metrics.drc_calls, fresh.metrics.drc_calls);
            prop_assert_eq!(shared.metrics.nodes_visited, fresh.metrics.nodes_visited);

            let shared = engine.sds_with(&mut ws, q, k);
            let fresh = engine.sds(q, k);
            prop_assert_eq!(&shared.results, &fresh.results, "SDS round {}", round);
            prop_assert_eq!(shared.metrics.docs_examined, fresh.metrics.docs_examined);
        }
    }

    /// Uniform edge weights reproduce the unit-weight metric exactly.
    #[test]
    fn uniform_weights_equal_unit_metric(
        seed in 0u64..200,
        a in 0u32..10_000,
        b in 0u32..10_000,
    ) {
        use cbr_ontology::{weighted, EdgeWeights};
        let ont = ontology(seed, 70);
        let w = EdgeWeights::uniform(&ont);
        let ca = ConceptId(a % ont.len() as u32);
        let cb = ConceptId(b % ont.len() as u32);
        prop_assert_eq!(
            weighted::concept_distance(&ont, &w, ca, cb),
            concept_distance(ont.path_table(), ca, cb)
        );
    }
}

/// A query that panics mid-flight leaves the workspace dirty; the next
/// borrow must reset it and produce results identical to a fresh run.
#[test]
fn poisoned_workspace_is_reset_on_next_borrow() {
    let ont = ontology(7, 120);
    let sets: Vec<(Vec<ConceptId>, u32)> = (0u32..8)
        .map(|s| (pick_concepts(&ont, &[s * 131, s * 977 + 5, s * 613 + 11]), 0))
        .collect();
    let corpus = Corpus::from_concept_sets(sets);
    let source = SegmentedView::from_corpus(&corpus);
    let engine = Knds::new(&ont, &source, KndsConfig::default());
    let q = pick_concepts(&ont, &[42, 4242, 424242]);

    let mut ws = KndsWorkspace::new();
    // Warm the workspace, then poison it: an empty query panics after the
    // workspace has been borrowed for the query, leaving it dirty.
    engine.rds_with(&mut ws, &q, 3);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.rds_with(&mut ws, &[], 3);
    }));
    assert!(panicked.is_err(), "empty query must panic");

    // The poisoned workspace is safely reset on the next borrow and the
    // results match a fresh-state run exactly.
    let reused = engine.rds_with(&mut ws, &q, 3);
    let fresh = engine.rds(&q, 3);
    assert_eq!(reused.results, fresh.results);
    let reused = engine.sds_with(&mut ws, &q, 3);
    let fresh = engine.sds(&q, 3);
    assert_eq!(reused.results, fresh.results);
}
