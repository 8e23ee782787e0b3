//! The high-level query engine: the mutable writer half of the
//! snapshot/session split (the read half is
//! [`EngineSnapshot`]).

use crate::snapshot::EngineSnapshot;
use cbr_corpus::{ConceptFilter, Corpus, DocId, FilterConfig};
use cbr_index::{CompactionPolicy, LiveConcepts, SegmentedSource};
use cbr_knds::{KndsConfig, QueryKind};
use cbr_ontology::{ConceptId, Ontology};
use sched::sync::Arc;
use std::fmt;
use std::ops::Deref;

/// Errors surfaced by the [`Engine`]'s checked API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A label did not resolve to any ontology concept.
    UnknownLabel(String),
    /// A document id outside the collection, or a deleted document.
    UnknownDocument(DocId),
    /// The query became empty (input empty, or every concept was removed by
    /// the eligibility filter).
    EmptyQuery,
    /// `k == 0`: a top-k search must ask for at least one result.
    ZeroK,
    /// The referenced document has no eligible concepts to compare with.
    EmptyDocument(DocId),
    /// A batch worker panicked while evaluating this query; the payload is
    /// the panic message when one could be extracted.
    WorkerPanicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownLabel(l) => write!(f, "no concept labeled {l:?}"),
            EngineError::UnknownDocument(d) => write!(f, "document {d} is not in the collection"),
            EngineError::EmptyQuery => {
                write!(f, "query is empty after concept-eligibility filtering")
            }
            EngineError::ZeroK => write!(f, "k must be positive"),
            EngineError::EmptyDocument(d) => write!(f, "document {d} has no eligible concepts"),
            EngineError::WorkerPanicked(m) => write!(f, "batch worker panicked: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Builder for [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    knds: KndsConfig,
    filter: Option<FilterConfig>,
}

impl EngineBuilder {
    /// Starts a builder with default kNDS settings and **no** concept
    /// filtering.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Sets the kNDS configuration (error threshold, queue watermark, …).
    pub fn knds_config(mut self, config: KndsConfig) -> Self {
        self.knds = config;
        self
    }

    /// Enables the Section 6.1 concept-eligibility filter (depth and
    /// collection-frequency thresholds) with the given configuration.
    pub fn filter(mut self, config: FilterConfig) -> Self {
        self.filter = Some(config);
        self
    }

    /// Builds the engine: applies the filter to the corpus, wraps the
    /// result as the base segment of a [`SegmentedSource`], computes its
    /// exact concept liveness mask, and derives the first published
    /// [`EngineSnapshot`].
    pub fn build(self, ontology: Ontology, corpus: Corpus) -> Engine {
        let filter = match self.filter {
            Some(cfg) => ConceptFilter::build(&ontology, &corpus, cfg),
            None => ConceptFilter::accept_all(&ontology),
        };
        let filtered = filter.apply(&corpus);
        let mut writer = SegmentedSource::from_corpus(&filtered, CompactionPolicy::default());
        let view = writer.view();
        let live = LiveConcepts::exact(&ontology, &view);
        let snapshot = EngineSnapshot::assemble(
            Arc::new(ontology),
            Arc::new(filtered),
            Arc::new(filter),
            view.with_live(live.clone()),
            self.knds,
        );
        Engine { writer, live, snapshot }
    }
}

/// The mutable half of the engine: owns the segmented index writer
/// (memtable, tombstones, compaction) and a cached [`EngineSnapshot`]
/// re-derived after every mutation.
///
/// The engine *is* its current snapshot for reading: it derefs to
/// [`EngineSnapshot`], so every query and accessor declared there
/// (`rds`, `sds_by_doc`, `batch`, `ontology`, `is_live`, …) is callable
/// on an `Engine` without being re-declared here. Every read — here or
/// through a clone of the snapshot — runs against an immutable snapshot
/// and never holds any lock; appends and deletes take `&mut self` and
/// refresh the cached snapshot, which freezes only the documents appended
/// since the last refresh: amortized `O(|doc|·log memtable)` an append.
/// [`SharedEngine`](crate::SharedEngine) wraps this split for concurrent
/// serving: one writer behind a mutex, snapshots epoch-published to any
/// number of lock-free readers.
#[derive(Debug)]
pub struct Engine {
    writer: SegmentedSource,
    /// Which concepts hold a live posting, at or below them: exact after
    /// a build or a merging `compact()`, a superset in between (appends
    /// OR bits in, deletions leave them).
    live: LiveConcepts,
    snapshot: EngineSnapshot,
}

impl Deref for Engine {
    type Target = EngineSnapshot;

    fn deref(&self) -> &EngineSnapshot {
        &self.snapshot
    }
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The current snapshot: clone it to pin this epoch for lock-free
    /// querying while the engine keeps mutating (cloning costs a few
    /// `Arc` bumps).
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snapshot
    }

    /// Re-derives the cached snapshot after a mutation.
    fn refresh(&mut self) {
        self.snapshot.set_source(self.writer.view().with_live(self.live.clone()));
    }

    /// Replaces the kNDS configuration (e.g. to tune `εθ` per collection).
    pub fn set_config(&mut self, config: KndsConfig) {
        self.snapshot.set_config(config);
    }

    /// Appends a document on the fly (the Section 1 "new patient at the
    /// point-of-care" scenario): its concepts are filtered for
    /// eligibility, normalized, and appended to the segmented memtable —
    /// visible to the next snapshot immediately, with no rebuild.
    pub fn add_document(&mut self, concepts: Vec<ConceptId>) -> DocId {
        let kept: Vec<ConceptId> =
            concepts.into_iter().filter(|&c| self.snapshot.eligible(c)).collect();
        self.live.or_document(self.snapshot.ontology(), &kept);
        let id = self.writer.append(kept);
        self.refresh();
        id
    }

    /// Deletes a document (tombstone): ids stay stable, but the document
    /// disappears from postings and query results immediately. Compaction
    /// later drops the payload physically; the id stays dead. The concept
    /// liveness mask keeps its bits (a superset is safe) until the next
    /// merging [`Engine::compact`].
    pub fn remove_document(&mut self, doc: DocId) -> Result<(), EngineError> {
        if self.writer.delete(doc) {
            self.refresh();
            Ok(())
        } else {
            Err(EngineError::UnknownDocument(doc))
        }
    }

    /// Seals the memtable and merges every segment into one, physically
    /// dropping tombstoned documents (their ids stay allocated and dead).
    /// Returns whether a merge ran; a merge also recomputes the concept
    /// liveness mask exactly. Queries racing this see either the old or
    /// the new snapshot, never a mixture.
    pub fn compact(&mut self) -> bool {
        self.writer.seal();
        let merged = self.writer.compact_all();
        if merged {
            self.live = LiveConcepts::exact(self.snapshot.ontology(), &self.writer.view());
        }
        self.refresh();
        merged
    }

    /// Runs the segment compaction policy once (seal nothing, merge a
    /// trailing run of small segments if one is due). Returns whether a
    /// merge ran.
    pub fn maybe_compact(&mut self) -> bool {
        let merged = self.writer.maybe_compact();
        if merged {
            self.refresh();
        }
        merged
    }

    /// Segments behind the current snapshot, sealed and memtable chunks
    /// alike (diagnostics for benches and the compaction harnesses).
    pub fn num_segments(&self) -> usize {
        self.snapshot.source().num_segments()
    }

    /// The segmented index writer, read-only: its seals, compactions,
    /// memtable depth and tail chunks (diagnostics for the audit).
    pub fn writer(&self) -> &SegmentedSource {
        &self.writer
    }

    /// Auto-tunes the error threshold `εθ` for this collection by timing a
    /// sample workload at each candidate (the Figure 7 procedure,
    /// automated). Updates the engine's configuration and returns the
    /// chosen threshold. Results are exact under any threshold, so tuning
    /// is safe at any time. An empty `sample` has no query to tune on:
    /// [`EngineError::EmptyQuery`].
    pub fn auto_tune(
        &mut self,
        kind: QueryKind,
        sample: &[Vec<ConceptId>],
        k: usize,
    ) -> Result<f64, EngineError> {
        let filtered: Vec<Vec<ConceptId>> =
            sample.iter().map(|q| self.snapshot.checked_query(q, k)).collect::<Result<_, _>>()?;
        if filtered.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        let (best, _) = cbr_knds::tune_error_threshold(
            self.snapshot.ontology(),
            self.snapshot.source(),
            kind,
            &filtered,
            k,
            cbr_knds::tuner::DEFAULT_CANDIDATES,
            self.snapshot.config(),
        );
        let mut config = self.snapshot.config().clone();
        config.error_threshold = best;
        self.snapshot.set_config(config);
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_knds::KndsWorkspace;
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    fn engine() -> Engine {
        let ont = OntologyGenerator::new(GeneratorConfig::small(1_000)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(40).with_mean_concepts(10.0),
        )
        .generate();
        EngineBuilder::new().filter(FilterConfig::default()).build(ont, corpus)
    }

    fn some_query(e: &Engine, n: usize) -> Vec<ConceptId> {
        e.corpus()
            .documents()
            .flat_map(|d| d.concepts().iter().copied())
            .filter(|&c| e.eligible(c))
            .take(n)
            .collect()
    }

    #[test]
    fn rds_and_full_scan_agree() {
        let e = engine();
        let q = some_query(&e, 3);
        let fast = e.rds(&q, 5).unwrap();
        let slow = e.rds_full_scan(&q, 5).unwrap();
        for (a, b) in fast.results.iter().zip(slow.results.iter()) {
            assert_eq!(a.distance, b.distance);
        }
    }

    #[test]
    fn sds_and_full_scan_agree() {
        let e = engine();
        let q = some_query(&e, 3);
        let fast = e.sds(&q, 5).unwrap();
        let slow = e.sds_full_scan(&q, 5).unwrap();
        for (a, b) in fast.results.iter().zip(slow.results.iter()) {
            assert_eq!(a.distance, b.distance);
        }
    }

    #[test]
    fn workspace_queries_match_and_report_reuse() {
        let e = engine();
        let q = some_query(&e, 3);
        let mut ws = KndsWorkspace::new();
        let cold = e.rds_with(&mut ws, &q, 5).unwrap();
        assert_eq!(cold.metrics.workspace_reused, 0, "first borrow is cold");
        let warm = e.rds_with(&mut ws, &q, 5).unwrap();
        assert_eq!(warm.metrics.workspace_reused, 1, "second borrow is warm");
        assert_eq!(cold.results, warm.results);
        assert_eq!(e.rds(&q, 5).unwrap().results, warm.results);
        // SDS interleaves on the same workspace.
        let a = e.sds_with(&mut ws, &q, 4).unwrap();
        let b = e.sds(&q, 4).unwrap();
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn sds_by_doc_returns_self_first() {
        let e = engine();
        let doc = e
            .corpus()
            .documents()
            .find(|d| d.num_concepts() > 0)
            .map(|d| d.id())
            .expect("non-empty doc exists");
        let r = e.sds_by_doc(doc, 3).unwrap();
        assert_eq!(r.results[0].doc, doc);
        assert_eq!(r.results[0].distance, 0.0);
    }

    #[test]
    fn filters_are_applied_to_queries() {
        let e = engine();
        let root = e.ontology().root();
        assert!(!e.eligible(root), "root is filtered by depth");
        assert_eq!(e.rds(&[root], 3).unwrap_err(), EngineError::EmptyQuery);
        // Mixed query: ineligible concepts are dropped, not fatal.
        let mut q = some_query(&e, 2);
        q.push(root);
        assert!(e.rds(&q, 3).is_ok());
    }

    #[test]
    fn add_document_is_immediately_searchable() {
        let mut e = engine();
        // Pick a concept pair that co-occurs in no existing document, so
        // the appended document is the unique exact match.
        let eligible: Vec<ConceptId> = e
            .corpus()
            .documents()
            .flat_map(|d| d.concepts().iter().copied())
            .filter(|&c| e.eligible(c))
            .collect();
        let q = 'outer: {
            for (i, &a) in eligible.iter().enumerate() {
                for &b in &eligible[i + 1..] {
                    if a != b && !e.corpus().documents().any(|d| d.contains(a) && d.contains(b)) {
                        break 'outer vec![a, b];
                    }
                }
            }
            panic!("fixture needs a non-co-occurring pair");
        };
        let before = e.num_docs();
        let id = e.add_document(q.clone());
        assert_eq!(id.index(), before);
        // The appended doc contains the query concepts exactly -> distance 0,
        // and no other document can reach 0.
        let r = e.rds(&q, 1).unwrap();
        assert_eq!(r.results[0].doc, id);
        assert_eq!(r.results[0].distance, 0.0);
        // And it participates in SDS (it may tie with a superset document,
        // but only at distance zero).
        let r = e.sds_by_doc(id, 1).unwrap();
        assert_eq!(r.results[0].distance, 0.0);
    }

    #[test]
    fn auto_tune_picks_a_grid_threshold_and_updates_config() {
        let mut e = engine();
        let sample: Vec<Vec<ConceptId>> = (0..3).map(|_| some_query(&e, 2)).collect();
        let best = e.auto_tune(QueryKind::Rds, &sample, 5).unwrap();
        assert!(cbr_knds::tuner::DEFAULT_CANDIDATES.contains(&best));
        assert_eq!(e.config().error_threshold, best);
        // Queries still work and stay exact.
        let q = some_query(&e, 2);
        let a = e.rds(&q, 4).unwrap();
        let b = e.rds_full_scan(&q, 4).unwrap();
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.distance, y.distance);
        }
    }

    #[test]
    fn removed_documents_leave_results() {
        let mut e = engine();
        let q = some_query(&e, 2);
        let before = e.rds(&q, 3).unwrap();
        let victim = before.results[0].doc;
        assert!(e.is_live(victim));
        e.remove_document(victim).unwrap();
        assert!(!e.is_live(victim));
        // Double delete errors.
        assert!(matches!(e.remove_document(victim), Err(EngineError::UnknownDocument(_))));
        let after = e.rds(&q, 3).unwrap();
        assert!(after.results.iter().all(|r| r.doc != victim), "deleted document must not rank");
        // And the full scan agrees.
        let scan = e.rds_full_scan(&q, 3).unwrap();
        for (a, b) in after.results.iter().zip(scan.results.iter()) {
            assert_eq!(a.distance, b.distance);
        }
    }

    /// A deleted document is unknown at once, as a query too: every entry
    /// that reads a document's concepts gives the same error before and
    /// after compaction drops its payload.
    #[test]
    fn a_deleted_document_is_unknown_before_and_after_compaction() {
        let mut e = engine();
        let q = some_query(&e, 2);
        let docs: Vec<DocId> =
            e.corpus().documents().filter(|d| d.num_concepts() > 0).map(|d| d.id()).collect();
        let (victim, other) = (docs[0], docs[1]);
        e.remove_document(victim).unwrap();
        let shared = crate::SharedEngine::new(e);
        let unknown = Err(EngineError::UnknownDocument(victim));
        let check = |when: &str| {
            shared.with_engine(|e| {
                assert_eq!(e.sds_by_doc(victim, 3).map(drop), unknown, "sds_by_doc {when}");
                assert_eq!(e.document_concepts(victim).map(drop), unknown, "concepts {when}");
                assert_eq!(e.query_distance(victim, &q).map(drop), unknown, "Ddq {when}");
                assert_eq!(e.document_distance(other, victim).map(drop), unknown, "Ddd {when}");
                assert_eq!(e.explain_rds(victim, &q).map(drop), unknown, "explain {when}");
            });
            assert_eq!(shared.sds_by_doc(victim, 3).map(drop), unknown, "shared {when}");
        };
        check("before compact()");
        assert!(shared.compact(), "the tombstone forces a merge");
        check("after compact()");
    }

    #[test]
    fn errors_are_reported() {
        let e = engine();
        assert!(matches!(
            e.rds_by_labels(&["not a real label"], 1),
            Err(EngineError::UnknownLabel(_))
        ));
        assert!(matches!(e.sds_by_doc(DocId(9_999), 1), Err(EngineError::UnknownDocument(_))));
        assert_eq!(e.rds(&[], 1).unwrap_err(), EngineError::EmptyQuery);
    }

    #[test]
    fn pairwise_distances_are_consistent_with_search() {
        let e = engine();
        let q = some_query(&e, 3);
        let r = e.rds(&q, 3).unwrap();
        for hit in &r.results {
            let d = e.query_distance(hit.doc, &q).unwrap();
            assert_eq!(d, hit.distance);
        }
    }

    #[test]
    fn document_distance_is_symmetric() {
        let e = engine();
        let docs: Vec<DocId> = e
            .corpus()
            .documents()
            .filter(|d| d.num_concepts() > 0)
            .map(|d| d.id())
            .take(2)
            .collect();
        let ab = e.document_distance(docs[0], docs[1]).unwrap();
        let ba = e.document_distance(docs[1], docs[0]).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }
}
