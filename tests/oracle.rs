//! One brute-force oracle for every path that can answer a query.
//!
//! One generator draws a case: an ontology, a bulk corpus, an edit script
//! (append; delete, dead and past-the-end ids included; `compact`;
//! `maybe_compact`), concept sets that serve as RDS queries and as SDS
//! query documents (one case in four 65-200 concepts wide, over an
//! ontology of at least 400), `k` (sometimes above the live collection), `εθ`,
//! `queue_cap` and `dedup_visits`. A shadow of the collection — concept
//! sets plus dead bits — follows the script, and `cbr_dradix::brute` over
//! its live documents is the one answer. Every path must match it:
//! distances equal to the bit at every rank, each document at its own
//! brute-force distance, and ids equal at every rank whose distance is
//! below the k-th (which of several documents tied *at* the k-th distance
//! a search keeps is the one thing it leaves open).
//!
//! The paths:
//! * over a static `MemorySource`: `Knds`, `WeightedKnds` at unit weights,
//!   TA (RDS only) and the full scan; and `WeightedKnds` at drawn weights
//!   in 1..=3 against `cbr_ontology::weighted` over the same documents;
//! * a raw `SegmentedSource` under a tight compaction policy, so seals and
//!   both compactions happen: its `IndexSource` contract and `Knds` over
//!   its view, at the end of the script and for a view pinned mid-script;
//! * an `Engine` driven through the same script: every snapshot entry that
//!   answers a query (for the current and a pinned snapshot), `batch`,
//!   `SharedEngine`, and save→load with ids mapped through the save-time
//!   compaction.

use cbr_corpus::{normalize_concepts, Corpus, DocId};
use cbr_dradix::{brute, INFINITE};
use cbr_index::{CompactionPolicy, IndexSource, MemorySource, SegmentedSource, SegmentedView};
use cbr_knds::WeightedKnds;
use cbr_knds::{baseline, ta, Hooks, Knds, KndsConfig, KndsWorkspace, QueryResult, RankedDoc};
use cbr_ontology::{
    weighted, ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator,
};
use concept_rank::{Engine, EngineBuilder, EngineError, EngineSnapshot, QueryKind, SharedEngine};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

type Check = Result<(), TestCaseError>;

const BOTH: [QueryKind; 2] = [QueryKind::Rds, QueryKind::Sds];

#[derive(Debug, Clone)]
enum Op {
    /// Unsorted and possibly repeated concepts: the paths normalize.
    Append(Vec<ConceptId>),
    /// A document id, modulo the collection size plus three.
    Delete(usize),
    Compact,
    MaybeCompact,
}

struct Case {
    shape: GeneratorConfig,
    ontology: Ontology,
    bulk: Vec<Vec<ConceptId>>,
    ops: Vec<Op>,
    /// How many ops run before the mid-script view and snapshot are pinned.
    pin_at: usize,
    /// Normalized and non-empty: RDS queries and SDS query documents.
    queries: Vec<Vec<ConceptId>>,
    k: usize,
    config: KndsConfig,
    /// Seeds the drawn edge weights (see [`drawn_weights`]).
    weight_seed: u64,
}

/// The one generator.
struct Cases;

impl Strategy for Cases {
    type Value = Case;
    fn sample(&self, rng: &mut TestRng) -> Case {
        // One case in four is wide: 65-200 query concepts, so the origin
        // sets of the traversal span two to four 64-bit words.
        let wide = rng.below(4) == 0;
        let concepts = if wide { 400 + rng.below(200) } else { 60 + rng.below(140) };
        let shape = GeneratorConfig::small(concepts as usize).with_seed(rng.next_u64());
        let ontology = OntologyGenerator::new(shape.clone()).generate();
        let n = ontology.len() as u64;
        let set = |rng: &mut TestRng, max: u64| -> Vec<ConceptId> {
            (0..rng.below(max)).map(|_| ConceptId(rng.below(n) as u32)).collect()
        };
        let bulk = (0..1 + rng.below(12)).map(|_| set(rng, 7)).collect();
        let ops: Vec<Op> = (0..rng.below(40))
            .map(|_| match rng.below(8) {
                0..=3 => Op::Append(set(rng, 7)),
                4 | 5 => Op::Delete(rng.below(64) as usize),
                6 => Op::Compact,
                _ => Op::MaybeCompact,
            })
            .collect();
        let pin_at = rng.below(ops.len() as u64 + 1) as usize;
        let queries = (0..1 + rng.below(3))
            .map(|_| {
                let mut q = set(rng, 5);
                q.push(ConceptId(rng.below(n) as u32));
                normalize_concepts(&mut q);
                let width = if wide { 65 + rng.below(136) as usize } else { 0 };
                while q.len() < width {
                    q.push(ConceptId(rng.below(n) as u32));
                    normalize_concepts(&mut q);
                }
                q
            })
            .collect();
        let k_max = if rng.below(4) == 0 { 64 } else { 6 };
        let k = 1 + rng.below(k_max) as usize;
        let config = KndsConfig::default()
            .with_error_threshold([0.0, 1.0, rng.unit_f64()][rng.below(3) as usize])
            .with_queue_cap([1, 1 + rng.below(64) as usize, 50_000][rng.below(3) as usize])
            .with_dedup_visits(rng.below(2) == 0);
        let weight_seed = rng.next_u64();
        Case { shape, ontology, bulk, ops, pin_at, queries, k, config, weight_seed }
    }
}

/// Edge weights in 1..=3, a pure function of the seed and the edge: the
/// weighted search's only case where its frontier hands out stale states.
fn drawn_weights(ont: &Ontology, seed: u64) -> EdgeWeights {
    EdgeWeights::from_fn(ont, |p, c| {
        let h =
            (seed ^ (u64::from(p.0) << 32) ^ u64::from(c.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        1 + (h >> 32) as u32 % 3
    })
}

/// The logical collection: every document's concept set, and which died.
#[derive(Clone)]
struct Shadow {
    docs: Vec<Vec<ConceptId>>,
    dead: Vec<bool>,
}

impl Shadow {
    fn live(&self) -> impl Iterator<Item = (DocId, &[ConceptId])> {
        let live = self.docs.iter().zip(&self.dead).enumerate().filter(|(_, (_, &dead))| !dead);
        live.map(|(i, (doc, _))| (DocId::from_index(i), doc.as_slice()))
    }

    /// The save-time compaction: live documents, in id order, become 0..m.
    fn compacted(&self) -> Shadow {
        let docs: Vec<Vec<ConceptId>> = self.live().map(|(_, doc)| doc.to_vec()).collect();
        Shadow { dead: vec![false; docs.len()], docs }
    }
}

/// The one answer: every live document at its brute-force distance under
/// `weights` (unit edges if `None`), in `(distance, DocId)` order.
fn brute_force(
    ont: &Ontology,
    shadow: &Shadow,
    weights: Option<&EdgeWeights>,
    kind: QueryKind,
    q: &[ConceptId],
) -> Vec<RankedDoc> {
    let distance = |doc: &[ConceptId]| match (kind, weights) {
        (QueryKind::Rds, None) => match brute::document_query_distance(ont, doc, q) {
            INFINITE => f64::INFINITY,
            d => d as f64,
        },
        (QueryKind::Sds, None) => brute::document_document_distance(ont, q, doc),
        (QueryKind::Rds, Some(w)) => match weighted::document_query_distance(ont, w, doc, q) {
            u64::MAX => f64::INFINITY,
            d => d as f64,
        },
        (QueryKind::Sds, Some(w)) => weighted::document_document_distance(ont, w, q, doc),
    };
    let mut all: Vec<RankedDoc> = shadow
        .live()
        .map(|(doc, concepts)| RankedDoc { doc, distance: distance(concepts) })
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.doc.cmp(&b.doc)));
    all
}

/// The one comparison, of what a path answered for `q` against the
/// brute-force ranking cut at k.
fn expect(
    case: &Case,
    shadow: &Shadow,
    kind: QueryKind,
    q: &[ConceptId],
    got: Result<QueryResult, EngineError>,
    path: &str,
) -> Check {
    expect_under(case, shadow, None, kind, q, got, path)
}

/// [`expect`] against the brute-force ranking under `weights`.
fn expect_under(
    case: &Case,
    shadow: &Shadow,
    weights: Option<&EdgeWeights>,
    kind: QueryKind,
    q: &[ConceptId],
    got: Result<QueryResult, EngineError>,
    path: &str,
) -> Check {
    let what = format!("{path}: {kind:?} {q:?} k={}", case.k);
    let got = got.map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?.results;
    let all = brute_force(&case.ontology, shadow, weights, kind, q);
    let want = &all[..all.len().min(case.k)];
    prop_assert_eq!(got.len(), want.len(), "{}: result count", what);
    let ascending = |p: &[RankedDoc]| {
        p[0].distance.total_cmp(&p[1].distance).then(p[0].doc.cmp(&p[1].doc)).is_lt()
    };
    prop_assert!(got.windows(2).all(ascending), "{}: not strictly ascending", what);
    let kth = want.last().map(|w| w.distance.to_bits()).filter(|_| want.len() == case.k);
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "{}: rank {}", what, rank);
        let own = all.iter().find(|a| a.doc == g.doc).map(|a| a.distance.to_bits());
        prop_assert_eq!(own, Some(g.distance.to_bits()), "{}: {} at rank {}", what, g.doc, rank);
        if Some(w.distance.to_bits()) != kth {
            prop_assert_eq!(g.doc, w.doc, "{}: rank {}", what, rank);
        }
    }
    Ok(())
}

/// Asks `answer` every query of the case, as each of `kinds`.
fn expect_all(
    case: &Case,
    shadow: &Shadow,
    kinds: &[QueryKind],
    path: &str,
    mut answer: impl FnMut(QueryKind, &[ConceptId]) -> Result<QueryResult, EngineError>,
) -> Check {
    for q in &case.queries {
        for &kind in kinds {
            expect(case, shadow, kind, q, answer(kind, q), path)?;
        }
    }
    Ok(())
}

/// The static paths over `MemorySource`.
fn check_static(case: &Case, bulk: &Corpus, shadow: &Shadow) -> Check {
    let (ont, k, mut ws) = (&case.ontology, case.k, KndsWorkspace::new());
    let source = MemorySource::build(bulk, ont.len());
    let knds = Knds::new(ont, &source, case.config.clone());
    expect_all(case, shadow, &BOTH, "Knds", |kind, q| {
        Ok(knds.run(&mut ws, kind, q, k, Hooks::default()))
    })?;
    let unit = EdgeWeights::uniform(ont);
    let weighted = WeightedKnds::new(ont, &unit, &source, case.config.clone());
    expect_all(case, shadow, &BOTH, "WeightedKnds", |kind, q| {
        Ok(weighted.run(&mut ws, kind, q, k, Hooks::default()))
    })?;
    let drawn = drawn_weights(ont, case.weight_seed);
    let weighted = WeightedKnds::new(ont, &drawn, &source, case.config.clone());
    for q in &case.queries {
        for kind in BOTH {
            let got = Ok(weighted.run(&mut ws, kind, q, k, Hooks::default()));
            expect_under(case, shadow, Some(&drawn), kind, q, got, "WeightedKnds, drawn")?;
        }
    }
    expect_all(case, shadow, &[QueryKind::Rds], "TA", |_, q| Ok(ta::rds(ont, &source, q, k)))?;
    expect_all(case, shadow, &BOTH, "full scan", |kind, q| {
        Ok(match kind {
            QueryKind::Rds => baseline::rds(ont, &source, q, k),
            QueryKind::Sds => baseline::sds(ont, &source, q, k),
        })
    })
}

/// A raw segmented view: the `IndexSource` contract, then `Knds` over it.
fn check_view(case: &Case, view: &SegmentedView, shadow: &Shadow) -> Check {
    prop_assert_eq!(view.num_docs(), shadow.docs.len(), "num_docs");
    let mut got = Vec::new();
    for c in case.ontology.concepts() {
        got.clear();
        view.postings(c, &mut got);
        let want: Vec<DocId> = shadow
            .live()
            .filter(|(_, doc)| doc.binary_search(&c).is_ok())
            .map(|(d, _)| d)
            .collect();
        prop_assert_eq!(&got, &want, "postings of {}", c);
    }
    for (i, doc) in shadow.docs.iter().enumerate() {
        let d = DocId::from_index(i);
        prop_assert_eq!(view.is_live(d), !shadow.dead[i], "is_live({})", d);
        if !shadow.dead[i] {
            let mut concepts = Vec::new();
            view.doc_concepts(d, &mut concepts);
            prop_assert_eq!(&concepts, doc, "doc_concepts({})", d);
            prop_assert_eq!(view.doc_len(d), doc.len(), "doc_len({})", d);
        }
    }
    let knds = Knds::new(&case.ontology, view, case.config.clone());
    expect_all(case, shadow, &BOTH, "Knds over a view", |kind, q| {
        Ok(knds.run(&mut KndsWorkspace::new(), kind, q, case.k, Hooks::default()))
    })
}

/// Every entry of an engine snapshot that answers a query.
fn check_snapshot(case: &Case, which: &str, snap: &EngineSnapshot, shadow: &Shadow) -> Check {
    let k = case.k;
    prop_assert_eq!(snap.num_docs(), shadow.docs.len(), "{} num_docs", which);
    expect_all(case, shadow, &BOTH, &format!("{which} snapshot"), |kind, q| match kind {
        QueryKind::Rds => snap.rds(q, k),
        QueryKind::Sds => snap.sds(q, k),
    })?;
    expect_all(case, shadow, &BOTH, &format!("{which} full scan"), |kind, q| match kind {
        QueryKind::Rds => snap.rds_full_scan(q, k),
        QueryKind::Sds => snap.sds_full_scan(q, k),
    })?;
    for kind in BOTH {
        for (q, got) in case.queries.iter().zip(snap.batch(kind, &case.queries, k, 2)) {
            expect(case, shadow, kind, q, got, &format!("{which} batch"))?;
        }
    }
    // Every document id, and one past the end, as an SDS query document.
    for i in 0..=shadow.docs.len() {
        let d = DocId::from_index(i);
        let (got, what) = (snap.sds_by_doc(d, k), format!("{which} sds_by_doc({d})"));
        match shadow.docs.get(i).filter(|_| !shadow.dead[i]) {
            None => {
                prop_assert_eq!(got.map(drop), Err(EngineError::UnknownDocument(d)), "{}", what)
            }
            Some(doc) if doc.is_empty() => {
                prop_assert_eq!(got.map(drop), Err(EngineError::EmptyDocument(d)), "{}", what)
            }
            Some(doc) => expect(case, shadow, QueryKind::Sds, doc, got, &what)?,
        }
    }
    Ok(())
}

fn run(case: &Case) -> Check {
    let bulk = Corpus::from_concept_sets(case.bulk.iter().map(|d| (d.clone(), 0)).collect());
    let mut shadow = Shadow {
        docs: bulk.documents().map(|d| d.concepts().to_vec()).collect(),
        dead: vec![false; bulk.len()],
    };
    check_static(case, &bulk, &shadow)?;

    let tight = CompactionPolicy { seal_threshold: 3, merge_fanin: 2, small_max_docs: 64 };
    let mut raw = SegmentedSource::from_corpus(&bulk, tight);
    let ontology = OntologyGenerator::new(case.shape.clone()).generate();
    let mut engine = EngineBuilder::new().knds_config(case.config.clone()).build(ontology, bulk);
    let mut pinned = None;
    for (i, op) in case.ops.iter().enumerate() {
        if i == case.pin_at {
            pinned = Some((raw.view(), engine.snapshot().clone(), shadow.clone()));
        }
        match op {
            Op::Append(concepts) => {
                let id = DocId::from_index(shadow.docs.len());
                prop_assert_eq!(raw.append(concepts.clone()), id, "append");
                prop_assert_eq!(engine.add_document(concepts.clone()), id, "add_document");
                let mut doc = concepts.clone();
                normalize_concepts(&mut doc);
                shadow.docs.push(doc);
                shadow.dead.push(false);
            }
            Op::Delete(pick) => {
                let i = pick % (shadow.docs.len() + 3);
                let (d, live) = (DocId::from_index(i), shadow.dead.get(i) == Some(&false));
                prop_assert_eq!(raw.delete(d), live, "delete({})", d);
                prop_assert_eq!(engine.remove_document(d).is_ok(), live, "remove_document({})", d);
                if live {
                    shadow.dead[i] = true;
                }
            }
            Op::Compact => {
                raw.seal();
                raw.compact_all();
                engine.compact();
            }
            Op::MaybeCompact => {
                raw.maybe_compact();
                engine.maybe_compact();
            }
        }
    }

    check_view(case, &raw.view(), &shadow)?;
    check_snapshot(case, "current", engine.snapshot(), &shadow)?;
    if let Some((view, snapshot, then)) = &pinned {
        check_view(case, view, then)?;
        check_snapshot(case, "pinned", snapshot, then)?;
    }

    // One directory per test thread: the tests of this file run in parallel.
    let thread = std::thread::current().id();
    let dir = std::env::temp_dir().join(format!("cbr-oracle-{}-{thread:?}", std::process::id()));
    engine.save(&dir).map_err(|e| TestCaseError::fail(format!("save: {e}")))?;
    let loaded = Engine::load(&dir, None).map_err(|e| TestCaseError::fail(format!("load: {e}")));
    let _ = std::fs::remove_dir_all(&dir);
    let loaded = loaded?;
    prop_assert_eq!(loaded.config(), engine.config(), "loaded config");
    check_snapshot(case, "loaded", &loaded, &shadow.compacted())?;

    let shared = SharedEngine::new(engine);
    expect_all(case, &shadow, &BOTH, "SharedEngine", |kind, q| match kind {
        QueryKind::Rds => shared.rds(q, case.k),
        QueryKind::Sds => shared.sds(q, case.k),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_answering_path_matches_brute_force(case in Cases) {
        run(&case)?;
    }
}

/// A directed case: a view and a snapshot pinned before deletes, appends
/// and a physical compaction keep answering their own epoch to the bit.
#[test]
fn view_pinned_before_compaction_is_unaffected_by_it() {
    let shape = GeneratorConfig::small(400);
    let ontology = OntologyGenerator::new(shape.clone()).generate();
    let pool: Vec<ConceptId> = ontology.concepts().filter(|&c| ontology.depth(c) >= 2).collect();
    let pick = |i: usize| pool[i % pool.len()];
    let bulk = (0..12).map(|i| (0..3).map(|j| pick(i * 17 + j * 5)).collect()).collect();
    let mut ops: Vec<Op> = (0..10).map(|i| Op::Append(vec![pick(i * 3), pick(i)])).collect();
    ops.push(Op::Delete(2));
    let pin_at = ops.len();
    ops.push(Op::Delete(5));
    ops.extend((0..6).map(|i| Op::Append(vec![pick(i * 7 + 1)])));
    ops.push(Op::Compact);
    let queries = vec![vec![pick(3), pick(40), pick(77)], vec![pick(8)]];
    let config = KndsConfig::default().with_error_threshold(0.5);
    let case = Case { shape, ontology, bulk, ops, pin_at, queries, k: 5, config, weight_seed: 7 };
    run(&case).unwrap();
}
