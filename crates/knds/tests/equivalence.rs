//! Cross-algorithm equivalence: kNDS must return exactly the same top-k
//! distance profile as the exhaustive baseline for every error threshold,
//! every k, both query types — the paper's correctness claim (Section 5.3)
//! under test on randomized workloads.

use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile};
use cbr_index::MemorySource;
use cbr_knds::{baseline, ta, Knds, KndsConfig, QueryResult, WeightedKnds};
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fixture {
    ont: Ontology,
    corpus: Corpus,
    source: MemorySource,
}

fn fixture(seed: u64) -> Fixture {
    let ont = OntologyGenerator::new(GeneratorConfig::small(400).with_seed(seed)).generate();
    let profile = CorpusProfile::radio_like()
        .with_num_docs(60)
        .with_mean_concepts(12.0)
        .with_seed(seed.wrapping_add(17));
    let corpus = CorpusGenerator::new(&ont, profile).generate();
    let source = MemorySource::build(&corpus, ont.len());
    Fixture { ont, corpus, source }
}

fn random_query(ont: &Ontology, rng: &mut StdRng, n: usize) -> Vec<ConceptId> {
    let deep: Vec<ConceptId> = ont.concepts().filter(|&c| ont.depth(c) >= 4).collect();
    let mut q: Vec<ConceptId> = (0..n).map(|_| deep[rng.random_range(0..deep.len())]).collect();
    q.sort_unstable();
    q.dedup();
    q
}

/// Distances must agree exactly; documents may differ only within ties.
fn assert_same_profile(a: &[cbr_knds::RankedDoc], b: &[cbr_knds::RankedDoc], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result count");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let same = (x.distance - y.distance).abs() < 1e-9
            || (x.distance.is_infinite() && y.distance.is_infinite());
        assert!(
            same,
            "{ctx}: rank {i} distance mismatch: {} vs {} ({:?} vs {:?})",
            x.distance, y.distance, x.doc, y.doc
        );
    }
}

#[test]
fn rds_matches_baseline_for_every_error_threshold() {
    let f = fixture(101);
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..6 {
        let q = random_query(&f.ont, &mut rng, 1 + trial % 5);
        let expect = baseline::rds(&f.ont, &f.source, &q, 5);
        for eps in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let cfg = KndsConfig::default().with_error_threshold(eps);
            let got = Knds::new(&f.ont, &f.source, cfg).rds(&q, 5);
            assert_same_profile(
                &got.results,
                &expect.results,
                &format!("trial {trial}, eps {eps}, q {q:?}"),
            );
        }
    }
}

#[test]
fn sds_matches_baseline_for_every_error_threshold() {
    let f = fixture(202);
    let mut rng = StdRng::seed_from_u64(8);
    for trial in 0..4 {
        // Query documents drawn from the corpus, as in Section 6.2.
        let doc = f.corpus.get(cbr_corpus::DocId(rng.random_range(0..f.corpus.len() as u32)));
        if doc.num_concepts() == 0 {
            continue;
        }
        let q = doc.concepts().to_vec();
        let expect = baseline::sds(&f.ont, &f.source, &q, 5);
        for eps in [0.0, 0.5, 1.0] {
            let cfg = KndsConfig::default().with_error_threshold(eps);
            let got = Knds::new(&f.ont, &f.source, cfg).sds(&q, 5);
            assert_same_profile(
                &got.results,
                &expect.results,
                &format!("trial {trial}, eps {eps}"),
            );
        }
    }
}

#[test]
fn knds_is_exact_without_visit_dedup() {
    // The paper's prototype does not deduplicate BFS states; our dedup is
    // an optimization that must not change results.
    let f = fixture(303);
    let mut rng = StdRng::seed_from_u64(9);
    let q = random_query(&f.ont, &mut rng, 3);
    let expect = baseline::rds(&f.ont, &f.source, &q, 4);
    let cfg = KndsConfig::default().with_dedup_visits(false).with_queue_cap(500);
    let got = Knds::new(&f.ont, &f.source, cfg).rds(&q, 4);
    assert_same_profile(&got.results, &expect.results, "no-dedup");
}

#[test]
fn knds_is_exact_under_tiny_queue_cap() {
    // A 1-element watermark forces an examination round at every level;
    // results must stay exact (the cap never truncates).
    let f = fixture(404);
    let mut rng = StdRng::seed_from_u64(10);
    for kind in 0..2 {
        let q = random_query(&f.ont, &mut rng, 4);
        let cfg = KndsConfig::default().with_queue_cap(1);
        let knds = Knds::new(&f.ont, &f.source, cfg);
        if kind == 0 {
            let got = knds.rds(&q, 3);
            let expect = baseline::rds(&f.ont, &f.source, &q, 3);
            assert_same_profile(&got.results, &expect.results, "cap rds");
            assert!(got.metrics.forced_rounds > 0, "cap must trigger forced rounds");
        } else {
            let got = knds.sds(&q, 3);
            let expect = baseline::sds(&f.ont, &f.source, &q, 3);
            assert_same_profile(&got.results, &expect.results, "cap sds");
        }
    }
}

#[test]
fn knds_matches_across_k_values() {
    let f = fixture(505);
    let mut rng = StdRng::seed_from_u64(11);
    let q = random_query(&f.ont, &mut rng, 5);
    for k in [1, 3, 5, 10, 50, 100] {
        let expect = baseline::rds(&f.ont, &f.source, &q, k);
        let got = Knds::new(&f.ont, &f.source, KndsConfig::default()).rds(&q, k);
        assert_same_profile(&got.results, &expect.results, &format!("k {k}"));
    }
}

#[test]
fn ta_matches_baseline_on_random_workload() {
    let f = fixture(606);
    let mut rng = StdRng::seed_from_u64(12);
    for trial in 0..4 {
        let q = random_query(&f.ont, &mut rng, 1 + trial);
        let expect = baseline::rds(&f.ont, &f.source, &q, 5);
        let got = ta::rds(&f.ont, &f.source, &q, 5);
        assert_same_profile(&got.results, &expect.results, &format!("ta trial {trial}"));
    }
}

#[test]
fn empty_documents_rank_last() {
    // Documents that lose every concept to filtering must never displace
    // real matches and must surface only when k exceeds the matchable set.
    let ont = OntologyGenerator::new(GeneratorConfig::small(200).with_seed(77)).generate();
    let deep: Vec<ConceptId> = ont.concepts().filter(|&c| ont.depth(c) >= 4).collect();
    assert!(deep.len() >= 2);
    let corpus = Corpus::from_concept_sets(vec![
        (vec![deep[0]], 0),
        (vec![], 0), // empty document
        (vec![deep[1]], 0),
    ]);
    let source = MemorySource::build(&corpus, ont.len());
    let knds = Knds::new(&ont, &source, KndsConfig::default());
    let r = knds.rds(&[deep[0]], 3);
    assert_eq!(r.results.len(), 3);
    assert_eq!(r.results[0].doc, cbr_corpus::DocId(0));
    assert!(r.results[2].distance.is_infinite(), "empty doc ranks last at ∞");
}

#[test]
fn knds_prunes_compared_to_baseline() {
    // The point of the algorithm: strictly fewer exact distance
    // computations than the full scan on a selective query.
    let f = fixture(707);
    let mut rng = StdRng::seed_from_u64(13);
    let q = random_query(&f.ont, &mut rng, 3);
    let got = Knds::new(&f.ont, &f.source, KndsConfig::default()).rds(&q, 3);
    let base = baseline::rds(&f.ont, &f.source, &q, 3);
    assert!(
        got.metrics.docs_examined <= base.metrics.docs_examined,
        "kNDS examined {} docs, baseline {}",
        got.metrics.docs_examined,
        base.metrics.docs_examined
    );
}

/// Everything the two frontier policies must agree on at unit weights:
/// the ranked list to the bit, and the work counters that describe the
/// traversal (`nodes_visited`, `levels`, `forced_rounds`) and the
/// examination it drove (`docs_examined`, `drc_calls`). None of the five
/// legitimately differs: with every edge at weight 1 a Dijkstra bucket
/// holds exactly one BFS level, strict-improvement relaxation admits a
/// state exactly when the visited bit would (first reach is minimal), and
/// the pending-state count the queue watermark sees is the next level's
/// size under both.
fn fingerprint(r: &QueryResult) -> (Vec<(cbr_corpus::DocId, u64)>, [usize; 5]) {
    let m = &r.metrics;
    (
        r.results.iter().map(|d| (d.doc, d.distance.to_bits())).collect(),
        [m.nodes_visited, m.levels as usize, m.forced_rounds, m.docs_examined, m.drc_calls],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `WeightedKnds` at `EdgeWeights::uniform` *is* `Knds`: same length,
    /// same documents, same distance bits, same work counters, for RDS and
    /// SDS, across error thresholds, visit dedup on/off and queue
    /// watermarks from "forced every round" to the default.
    #[test]
    fn unit_weights_equal_the_unweighted_engine(
        seed in 0u64..400,
        query_picks in prop::collection::vec(0u32..10_000, 1..6),
        k in 1usize..9,
        eps_pick in 0usize..4,
        dedup in any::<bool>(),
        cap_pick in 0usize..3,
    ) {
        let ont = OntologyGenerator::new(GeneratorConfig::small(150).with_seed(seed)).generate();
        let profile = CorpusProfile::radio_like()
            .with_num_docs(40)
            .with_mean_concepts(8.0)
            .with_seed(seed.wrapping_add(31));
        let corpus = CorpusGenerator::new(&ont, profile).generate();
        let source = MemorySource::build(&corpus, ont.len());
        let weights = EdgeWeights::uniform(&ont);

        let eps = [0.0, 0.5, 0.9, 1.0][eps_pick];
        let mut cfg = KndsConfig::default().with_error_threshold(eps).with_dedup_visits(dedup);
        if cap_pick < 2 {
            cfg = cfg.with_queue_cap([1, 500][cap_pick]);
        }
        let unit = Knds::new(&ont, &source, cfg.clone());
        let weighted = WeightedKnds::new(&ont, &weights, &source, cfg);

        let mut q: Vec<ConceptId> =
            query_picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect();
        q.sort_unstable();
        q.dedup();
        prop_assert_eq!(
            fingerprint(&weighted.rds(&q, k)),
            fingerprint(&unit.rds(&q, k)),
            "RDS q {:?} k {} eps {} dedup {} cap {}", q, k, eps, dedup, cap_pick
        );

        // SDS over a query document drawn from the corpus (Section 6.2),
        // falling back to the concept picks for an empty document.
        let doc = corpus.get(cbr_corpus::DocId(query_picks[0] % corpus.len() as u32));
        let qd = if doc.num_concepts() > 0 { doc.concepts().to_vec() } else { q };
        prop_assert_eq!(
            fingerprint(&weighted.sds(&qd, k)),
            fingerprint(&unit.sds(&qd, k)),
            "SDS q {:?} k {} eps {} dedup {} cap {}", qd, k, eps, dedup, cap_pick
        );
    }
}
