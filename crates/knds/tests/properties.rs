//! Property-based equivalence for the dense-table kNDS engines.
//!
//! The dense, epoch-stamped workspace tables are a pure representation
//! change: for any ontology, corpus, query, and error threshold, the
//! engines must return exactly the distance profile of the exhaustive
//! baseline scan, and a reused (warm) workspace must be indistinguishable
//! from a fresh one — including across an epoch-counter rollover, where a
//! stamping bug would alias stale entries from a query run billions of
//! queries ago.

use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile};
use cbr_index::SegmentedView;
use cbr_knds::{baseline, Knds, KndsConfig, KndsWorkspace, RankedDoc};
use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
use proptest::prelude::*;

struct Fixture {
    ont: Ontology,
    corpus: Corpus,
    source: SegmentedView,
}

fn fixture(seed: u64) -> Fixture {
    let ont = OntologyGenerator::new(GeneratorConfig::small(150).with_seed(seed)).generate();
    let profile = CorpusProfile::radio_like()
        .with_num_docs(40)
        .with_mean_concepts(8.0)
        .with_seed(seed.wrapping_add(29));
    let corpus = CorpusGenerator::new(&ont, profile).generate();
    let source = SegmentedView::from_corpus(&corpus);
    Fixture { ont, corpus, source }
}

fn pick_concepts(ont: &Ontology, picks: &[u32]) -> Vec<ConceptId> {
    let mut v: Vec<ConceptId> = picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Exact-distance profile equality (documents may swap only within ties).
fn same_profile(a: &[RankedDoc], b: &[RankedDoc]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.distance == y.distance || (x.distance.is_infinite() && y.distance.is_infinite())
        })
}

/// Full bit-identity: same documents, same distance *bits*, same order.
/// `==` on f64 would accept `-0.0 == 0.0` and reject equal NaNs; the
/// warm-workspace and epoch-rollover guarantees are about the exact bits
/// the scorer produced, so compare through `to_bits`.
fn identical(a: &[RankedDoc], b: &[RankedDoc]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.doc == y.doc && x.distance.to_bits() == y.distance.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dense-table RDS matches the exhaustive baseline at every error
    /// threshold, and a warm workspace returns bit-identical results to a
    /// fresh one.
    #[test]
    fn rds_dense_tables_match_baseline(
        seed in 0u64..200,
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
        k in 1usize..8,
    ) {
        let f = fixture(seed);
        let q = pick_concepts(&f.ont, &query_picks);
        let expect = baseline::rds(&f.ont, &f.source, &q, k);
        let mut warm = KndsWorkspace::new();
        for eps in [0.0, 0.5, 1.0] {
            let cfg = KndsConfig::default().with_error_threshold(eps);
            let engine = Knds::new(&f.ont, &f.source, cfg);
            let fresh = engine.rds(&q, k);
            prop_assert!(
                same_profile(&fresh.results, &expect.results),
                "eps {eps}: {:?} vs baseline {:?}", fresh.results, expect.results
            );
            // Same engine, warm workspace: not just the same profile — the
            // same bits. Run twice so the second pass reads tables the
            // first one dirtied.
            for pass in 0..2 {
                let reused = engine.rds_with(&mut warm, &q, k);
                prop_assert!(
                    identical(&reused.results, &fresh.results),
                    "eps {eps} pass {pass}: warm workspace diverged"
                );
            }
        }
    }

    /// Dense-table SDS matches the exhaustive baseline at every error
    /// threshold, with query documents drawn from the corpus.
    #[test]
    fn sds_dense_tables_match_baseline(
        seed in 0u64..200,
        doc_pick in 0u32..10_000,
        k in 1usize..6,
    ) {
        let f = fixture(seed);
        let doc = f.corpus.get(cbr_corpus::DocId(doc_pick % f.corpus.len() as u32));
        let q = if doc.num_concepts() > 0 {
            doc.concepts().to_vec()
        } else {
            vec![f.ont.root()]
        };
        let expect = baseline::sds(&f.ont, &f.source, &q, k);
        let mut warm = KndsWorkspace::new();
        for eps in [0.0, 0.5, 1.0] {
            let cfg = KndsConfig::default().with_error_threshold(eps);
            let engine = Knds::new(&f.ont, &f.source, cfg);
            let fresh = engine.sds(&q, k);
            prop_assert!(
                same_profile(&fresh.results, &expect.results),
                "eps {eps}: {:?} vs baseline {:?}", fresh.results, expect.results
            );
            for pass in 0..2 {
                let reused = engine.sds_with(&mut warm, &q, k);
                prop_assert!(
                    identical(&reused.results, &fresh.results),
                    "eps {eps} pass {pass}: warm workspace diverged"
                );
            }
        }
    }
}

/// Epoch rollover must reset every stamp array instead of aliasing entries
/// from 2³² queries ago: a query straddling the wrap returns the same bits
/// as one on a fresh workspace, and reports the rollover in its metrics.
#[test]
fn epoch_rollover_is_invisible_to_results() {
    let f = fixture(42);
    let q: Vec<ConceptId> = f
        .corpus
        .documents()
        .find(|d| d.num_concepts() >= 3)
        .map(|d| d.concepts()[..3].to_vec())
        .expect("corpus has a 3-concept document");
    let engine = Knds::new(&f.ont, &f.source, KndsConfig::default());
    let expect = engine.rds(&q, 5);

    let mut ws = KndsWorkspace::new();
    // Dirty the tables, then force the epoch counter to the wrap point.
    let warm = engine.rds_with(&mut ws, &q, 5);
    assert_eq!(warm.results, expect.results);
    assert_eq!(warm.metrics.epoch_rollover, 0, "no rollover before the wrap");
    ws.force_epoch_wrap();

    let wrapped = engine.rds_with(&mut ws, &q, 5);
    assert!(
        identical(&wrapped.results, &expect.results),
        "results diverged across the epoch wrap: {:?} vs {:?}",
        wrapped.results,
        expect.results
    );
    assert_eq!(wrapped.metrics.epoch_rollover, 1, "the wrapping query must report the rollover");

    // The query after the wrap runs on epoch 1 over fully zeroed stamps.
    let after = engine.rds_with(&mut ws, &q, 5);
    assert!(identical(&after.results, &expect.results), "post-wrap query diverged");
    assert_eq!(after.metrics.epoch_rollover, 0, "rollover is a one-query event");
}

/// Same wrap regression for SDS, whose extra touch-stamp table has its own
/// epoch discipline.
#[test]
fn epoch_rollover_is_invisible_to_sds() {
    let f = fixture(43);
    let q: Vec<ConceptId> = f
        .corpus
        .documents()
        .find(|d| d.num_concepts() >= 3)
        .map(|d| d.concepts().to_vec())
        .expect("corpus has a 3-concept document");
    let engine = Knds::new(&f.ont, &f.source, KndsConfig::default());
    let expect = engine.sds(&q, 4);

    let mut ws = KndsWorkspace::new();
    let _ = engine.sds_with(&mut ws, &q, 4);
    ws.force_epoch_wrap();
    let wrapped = engine.sds_with(&mut ws, &q, 4);
    assert!(
        identical(&wrapped.results, &expect.results),
        "SDS results diverged across the epoch wrap: {:?} vs {:?}",
        wrapped.results,
        expect.results
    );
    assert_eq!(wrapped.metrics.epoch_rollover, 1);

    // SDS normalizes through f64 division, so bit-identity after the wrap
    // additionally proves the packed stamp/slot entries were fully reset —
    // a stale slot would feed a different doc_len into the normalization.
    let after = engine.sds_with(&mut ws, &q, 4);
    assert!(identical(&after.results, &expect.results), "post-wrap SDS query diverged");
    assert_eq!(after.metrics.epoch_rollover, 0);
}
