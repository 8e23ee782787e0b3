//! The concept liveness mask (`cbr_index::live`) through the engine's
//! whole write path.
//!
//! For arbitrary interleavings of append, delete, `compact` and
//! `maybe_compact` on an [`Engine`], every published snapshot must
//!
//! * carry a sound mask: `live_here` ⊇ the concepts of live documents,
//!   `live_below` ⊇ their ancestor closure and upward-closed, and after a
//!   merging `compact()` exactly what a fresh build computes;
//! * answer as if it had none: RDS and SDS through the engine, and
//!   `WeightedKnds` at unit weights, against the same search over a
//!   wrapper that hides the mask — distances equal to the bit at every
//!   rank, ids equal at every rank whose distance is below the k-th
//!   (which of several documents tied *at* the k-th distance survives is
//!   the one thing the search leaves open).

use cbr_corpus::{Corpus, DocId};
use cbr_index::{IndexSource, LiveConcepts, LiveMask};
use cbr_knds::{KndsConfig, QueryResult, RankedDoc, WeightedKnds};
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use concept_rank::{Engine, EngineBuilder};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

/// `inner` with its liveness mask hidden: the unpruned reference search.
struct Unpruned<'a, S>(&'a S);

impl<S: IndexSource> IndexSource for Unpruned<'_, S> {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        self.0.postings(c, out);
    }
    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        self.0.doc_concepts(d, out);
    }
    fn doc_len(&self, d: DocId) -> usize {
        self.0.doc_len(d)
    }
    fn num_docs(&self) -> usize {
        self.0.num_docs()
    }
    fn is_live(&self, d: DocId) -> bool {
        self.0.is_live(d)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Indexes into the concept pool (unsorted, possibly repeated).
    Append(Vec<usize>),
    /// A document id, modulo the collection size plus two.
    Delete(usize),
    Compact,
    MaybeCompact,
}

struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn sample(&self, rng: &mut TestRng) -> Op {
        match rng.below(8) {
            0..=3 => {
                Op::Append((0..1 + rng.below(6)).map(|_| rng.below(1 << 16) as usize).collect())
            }
            4 | 5 => Op::Delete(rng.below(1 << 16) as usize),
            6 => Op::Compact,
            _ => Op::MaybeCompact,
        }
    }
}

/// A 400-concept ontology, the concepts documents draw from, and a bulk
/// corpus of six documents: most of the ontology holds nothing, so the
/// mask prunes from the first query on.
fn fixture(seed: u64) -> (Ontology, Vec<ConceptId>, Corpus) {
    let ontology = OntologyGenerator::new(GeneratorConfig::small(400).with_seed(seed)).generate();
    let pool: Vec<ConceptId> = ontology.concepts().filter(|&c| ontology.depth(c) >= 2).collect();
    let docs = (0..6)
        .map(|i| ((0..4).map(|j| pool[(i * 37 + j * 11) % pool.len()]).collect(), 0))
        .collect();
    (ontology, pool, Corpus::from_concept_sets(docs))
}

/// The concepts of every live document, and every ancestor of one (the
/// exact `live_here` and `live_below` sets).
fn exact_sets(engine: &Engine) -> (Vec<bool>, Vec<bool>) {
    let ont = engine.ontology();
    let mut here = vec![false; ont.id_bound()];
    for i in 0..engine.num_docs() {
        let d = DocId::from_index(i);
        if engine.is_live(d) {
            for c in engine.document_concepts(d).expect("in range") {
                here[c.index()] = true;
            }
        }
    }
    let mut below = here.clone();
    let mut work: Vec<ConceptId> = ont.concepts().filter(|c| here[c.index()]).collect();
    while let Some(c) = work.pop() {
        for &p in ont.parents(c) {
            if !below[p.index()] {
                below[p.index()] = true;
                work.push(p);
            }
        }
    }
    (here, below)
}

fn assert_mask_sound(engine: &Engine) -> Result<(), TestCaseError> {
    let mask: LiveMask<'_> = engine.source().live_mask();
    let (here, below) = exact_sets(engine);
    let ont = engine.ontology();
    for c in ont.concepts() {
        prop_assert!(!here[c.index()] || mask.live_here(c), "live_here misses {}", c);
        prop_assert!(!below[c.index()] || mask.live_below(c), "live_below misses {}", c);
        prop_assert!(!mask.live_here(c) || mask.live_below(c), "here without below at {}", c);
        if mask.live_below(c) {
            for &p in ont.parents(c) {
                prop_assert!(mask.live_below(p), "live_below({}) but not its parent {}", c, p);
            }
        }
    }
    Ok(())
}

/// Distances equal to the bit at every rank; ids equal wherever the
/// distance is below the k-th.
fn assert_same_ranking(
    pruned: &QueryResult,
    full: &QueryResult,
    what: &str,
) -> Result<(), TestCaseError> {
    let (a, b): (&[RankedDoc], &[RankedDoc]) = (&pruned.results, &full.results);
    prop_assert_eq!(a.len(), b.len(), "{}: result count", what);
    let kth = b.last().map_or(f64::INFINITY, |r| r.distance);
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{}: rank {}", what, rank);
        if y.distance < kth {
            prop_assert_eq!(x.doc, y.doc, "{}: rank {}", what, rank);
        }
    }
    Ok(())
}

fn assert_answers_unchanged(
    engine: &Engine,
    pool: &[ConceptId],
    qseed: u64,
) -> Result<(), TestCaseError> {
    let (ont, view, config) = (engine.ontology(), engine.source(), engine.config());
    let hidden = Unpruned(view);
    let full = cbr_knds::Knds::new(ont, &hidden, config.clone());
    let unit = EdgeWeights::uniform(ont);
    let weighted = WeightedKnds::new(ont, &unit, view, config.clone());
    let weighted_full = WeightedKnds::new(ont, &unit, &hidden, config.clone());
    let k = 1 + (qseed % 5) as usize;
    for qi in 0..3u64 {
        let s = qseed.rotate_left(qi as u32 * 21);
        let q: Vec<ConceptId> =
            (0..3).map(|j| pool[(s >> (j * 16)) as usize % pool.len()]).collect();
        let what = format!("rds({q:?}, {k})");
        assert_same_ranking(&engine.rds(&q, k).expect("non-empty"), &full.rds(&q, k), &what)?;
        assert_same_ranking(
            &weighted.rds(&q, k),
            &weighted_full.rds(&q, k),
            &format!("weighted {what}"),
        )?;
    }
    let live_docs = (0..engine.num_docs()).map(DocId::from_index).filter(|&d| engine.is_live(d));
    for d in live_docs.filter(|&d| view.doc_len(d) > 0).take(3) {
        let q = engine.document_concepts(d).expect("in range");
        let what = format!("sds(doc {d}, {k})");
        assert_same_ranking(&engine.sds(&q, k).expect("non-empty"), &full.sds(&q, k), &what)?;
        assert_same_ranking(
            &weighted.sds(&q, k),
            &weighted_full.sds(&q, k),
            &format!("weighted {what}"),
        )?;
    }
    Ok(())
}

fn run_case(ops: Vec<Op>, qseed: u64) -> Result<(), TestCaseError> {
    let (ontology, pool, corpus) = fixture(qseed % 3);
    // Small watermarks force examination rounds, where pruning moves the
    // round a frontier first crosses the watermark.
    let config = KndsConfig::default()
        .with_error_threshold([0.0, 0.5, 1.0][(qseed % 3) as usize])
        .with_queue_cap(1 + (qseed >> 8) as usize % 64);
    let mut engine = EngineBuilder::new().knds_config(config).build(ontology, corpus);
    assert_mask_sound(&engine)?;
    for op in ops {
        match op {
            Op::Append(picks) => {
                engine.add_document(picks.iter().map(|&p| pool[p % pool.len()]).collect());
            }
            Op::Delete(pick) => {
                let _ = engine.remove_document(DocId::from_index(pick % (engine.num_docs() + 2)));
            }
            Op::Compact => {
                engine.compact();
                let fresh = LiveConcepts::exact(engine.ontology(), engine.source());
                prop_assert_eq!(engine.source().live_mask(), fresh.as_mask(), "after compact()");
            }
            Op::MaybeCompact => {
                engine.maybe_compact();
            }
        }
        assert_mask_sound(&engine)?;
        assert_answers_unchanged(&engine, &pool, qseed)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pruned_search_answers_as_the_unpruned_one_and_the_mask_stays_sound(
        ops in vec(OpStrategy, 1..24),
        qseed in any::<u64>(),
    ) {
        run_case(ops, qseed)?;
    }
}

/// The build, and so `Engine::load`, starts from the exact mask, and the
/// mask prunes: the same query visits fewer states than without it.
#[test]
fn a_built_or_loaded_engine_starts_exact_and_prunes() {
    let (ontology, pool, corpus) = fixture(0);
    let engine = EngineBuilder::new().build(ontology, corpus);
    let exact = LiveConcepts::exact(engine.ontology(), engine.source());
    assert_eq!(engine.source().live_mask(), exact.as_mask());

    let dir = std::env::temp_dir().join(format!("cbr-live-mask-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    engine.save(&dir).expect("save");
    let loaded = Engine::load(&dir, None).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    let reloaded = LiveConcepts::exact(loaded.ontology(), loaded.source());
    assert_eq!(loaded.source().live_mask(), reloaded.as_mask());

    let q = vec![pool[3], pool[40], pool[77]];
    let pruned = engine.rds(&q, 3).unwrap();
    let hidden = Unpruned(engine.source());
    let full = cbr_knds::Knds::new(engine.ontology(), &hidden, engine.config().clone()).rds(&q, 3);
    assert_eq!(pruned.results, full.results);
    assert!(
        pruned.metrics.nodes_visited < full.metrics.nodes_visited,
        "pruned {} states, unpruned {}",
        pruned.metrics.nodes_visited,
        full.metrics.nodes_visited
    );
}
