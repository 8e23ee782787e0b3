//! Fetch-once: the traversal reads each concept's posting list at most
//! once a round, however many query concepts reach the concept in that
//! round — for RDS and SDS, under unit and weighted edges.
//!
//! A spy source forwards every provided `IndexSource` method, the
//! liveness mask included (so the search is the pruned one the engine
//! runs), and logs each `postings` call into the same stream as the trace
//! hook's `LevelStart` events, which open the rounds.

use cbr_corpus::{CorpusGenerator, CorpusProfile, DocId};
use cbr_index::{CompactionPolicy, IndexSource, LiveConcepts, LiveMask, SegmentedSource};
use cbr_knds::{Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, TraceEvent, WeightedKnds};
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use std::cell::RefCell;

/// One entry of the spy's log.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A round began (the trace hook's `LevelStart`).
    Round(u32),
    /// A `postings` call for this concept.
    Postings(ConceptId),
}

/// `inner`, logging every posting-list read.
struct Spy<'a, S> {
    inner: &'a S,
    log: RefCell<Vec<Event>>,
}

impl<S: IndexSource> IndexSource for Spy<'_, S> {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        self.log.borrow_mut().push(Event::Postings(c));
        self.inner.postings(c, out);
    }
    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        self.inner.doc_concepts(d, out);
    }
    fn doc_len(&self, d: DocId) -> usize {
        self.inner.doc_len(d)
    }
    fn num_docs(&self) -> usize {
        self.inner.num_docs()
    }
    fn is_live(&self, d: DocId) -> bool {
        self.inner.is_live(d)
    }
    fn live_mask(&self) -> LiveMask<'_> {
        self.inner.live_mask()
    }
}

impl<S> Spy<'_, S> {
    /// The `postings` calls logged so far.
    fn reads(&self) -> usize {
        self.log.borrow().iter().filter(|e| matches!(e, Event::Postings(_))).count()
    }

    /// Every concept whose list was read twice in one round, with the round.
    fn rereads(&self) -> Vec<(u32, ConceptId)> {
        let mut round = 0;
        let mut read: Vec<ConceptId> = Vec::new();
        let mut twice = Vec::new();
        for &e in self.log.borrow().iter() {
            match e {
                Event::Round(level) => {
                    round = level;
                    read.clear();
                }
                Event::Postings(c) if read.contains(&c) => twice.push((round, c)),
                Event::Postings(c) => read.push(c),
            }
        }
        twice
    }
}

/// A PATIENT-shaped collection — dense, long documents over one ontology —
/// behind a segmented view that publishes its exact liveness mask.
fn patient_shaped(concepts: usize, docs: usize, mean: f64) -> (Ontology, SegmentedSource) {
    let ont = OntologyGenerator::new(GeneratorConfig::small(concepts).with_seed(2014)).generate();
    let profile = CorpusProfile::patient_like().with_num_docs(docs).with_mean_concepts(mean);
    let corpus = CorpusGenerator::new(&ont, profile.with_seed(7)).generate();
    (ont, SegmentedSource::from_corpus(&corpus, CompactionPolicy::default()))
}

/// Runs `search` for every document's concept set as the query (SDS) and
/// its first ten concepts (RDS), checking the spy after each.
fn assert_fetch_once(
    name: &str,
    spy: &Spy<'_, impl IndexSource>,
    queries: &[Vec<ConceptId>],
    mut search: impl FnMut(QueryKind, &[ConceptId], Hooks<'_>),
) {
    for q in queries {
        for (kind, q) in [(QueryKind::Sds, &q[..]), (QueryKind::Rds, &q[..q.len().min(10)])] {
            spy.log.borrow_mut().clear();
            search(
                kind,
                q,
                Hooks::on_trace(|e| {
                    if let TraceEvent::LevelStart { level, .. } = e {
                        spy.log.borrow_mut().push(Event::Round(level));
                    }
                }),
            );
            assert!(spy.reads() > 0, "{name} {kind:?}: no posting list read");
            let twice = spy.rereads();
            assert!(
                twice.is_empty(),
                "{name} {kind:?} (nq {}): lists read twice {twice:?}",
                q.len()
            );
        }
    }
}

fn query_docs(source: &mut SegmentedSource, n: usize) -> Vec<Vec<ConceptId>> {
    let view = source.view();
    let mut out = Vec::new();
    for d in (0..view.num_docs()).map(DocId::from_index).filter(|&d| view.doc_len(d) > 2) {
        let mut q = Vec::new();
        view.doc_concepts(d, &mut q);
        out.push(q);
        if out.len() == n {
            break;
        }
    }
    out
}

#[test]
fn each_concept_is_read_at_most_once_a_round() {
    let (ont, mut source) = patient_shaped(600, 120, 80.0);
    let view = source.view();
    let view = view.clone().with_live(LiveConcepts::exact(&ont, &view));
    let spy = Spy { inner: &view, log: RefCell::default() };
    let queries = query_docs(&mut source, 6);
    assert!(queries.iter().any(|q| q.len() > 64), "a query spans two origin words");
    let config = KndsConfig::default().with_error_threshold(0.0);
    let mut ws = KndsWorkspace::new();

    let knds = Knds::new(&ont, &spy, config.clone());
    assert_fetch_once("unit", &spy, &queries, |kind, q, hooks| {
        knds.run(&mut ws, kind, q, 5, hooks);
    });
    let unit = EdgeWeights::uniform(&ont);
    let weighted = WeightedKnds::new(&ont, &unit, &spy, config.clone());
    assert_fetch_once("weighted at unit weights", &spy, &queries, |kind, q, hooks| {
        weighted.run(&mut ws, kind, q, 5, hooks);
    });
    let drawn = EdgeWeights::from_fn(&ont, |p, c| 1 + (p.0 ^ c.0) % 3);
    let weighted = WeightedKnds::new(&ont, &drawn, &spy, config);
    assert_fetch_once("weighted", &spy, &queries, |kind, q, hooks| {
        weighted.run(&mut ws, kind, q, 5, hooks);
    });
}
