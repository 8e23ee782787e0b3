//! A concurrent engine handle for the point-of-care scenario.
//!
//! The paper's motivating deployment interleaves reads (clinicians
//! querying) with writes (new EMRs arriving) — "when a new patient arrives
//! at the point-of-care, we can instantly add his or her EMR to our
//! database" (Section 1). [`SharedEngine`] splits that workload along the
//! engine's snapshot/session seam:
//!
//! * **Readers** run against an epoch-published
//!   [`EngineSnapshot`]: each query pops a pooled session (a
//!   [`KndsWorkspace`] plus a [`Cached`] snapshot handle), revalidates the
//!   snapshot with **one atomic epoch load**, and evaluates entirely over
//!   immutable structures. The steady-state query path acquires no lock of
//!   any kind — publishes only cost a reader a brief shared section on the
//!   *next* query after a write.
//! * **The writer** (appends, deletes, compaction) serializes behind a
//!   mutex that queries never touch, mutates the segmented index, and
//!   publishes the resulting snapshot to the epoch cell. Old snapshots are
//!   retired implicitly: readers still pinning them keep them alive, so a
//!   compaction can never free a segment out from under a running query.
//!
//! Query scratch never waits on anything either: sessions live in a
//! lock-free pool (a [`SegQueue`]), so concurrent readers each get their
//! own warm buffers with no contention, and steady-state queries allocate
//! nothing. A session held during a panic simply never returns to the
//! pool; those that do return are always clean.
//!
//! All synchronization goes through the [`sched::sync`] facade, so the
//! `cbr-sched` model checker can exhaustively explore this module's
//! interleavings — including publish/retire racing readers and compaction
//! (see the `publish-retire` and `compact-race` harnesses); in normal
//! builds the facade compiles straight down to the real primitives.

use crate::engine::{Engine, EngineError};
use crate::snapshot::EngineSnapshot;
use cbr_corpus::DocId;
use cbr_knds::{KndsWorkspace, QueryResult};
use cbr_ontology::ConceptId;
use sched::sync::{Arc, Cached, Mutex, Published, SegQueue};

/// A pooled query session: warm kNDS scratch plus an epoch-validated
/// snapshot handle. Reusing the handle means a reader that queries twice
/// between publishes touches the epoch cell's lock zero times.
#[derive(Debug, Default)]
struct Session {
    ws: KndsWorkspace,
    snap: Cached<EngineSnapshot>,
}

/// A cloneable, thread-safe handle to a shared [`Engine`].
#[derive(Debug, Clone)]
pub struct SharedEngine {
    /// The current snapshot, epoch-published to readers.
    published: Arc<Published<EngineSnapshot>>,
    /// The writer half; queries never touch this mutex.
    writer: Arc<Mutex<Engine>>,
    /// Lock-free pool of per-query sessions, shared by all clones.
    pool: Arc<SegQueue<Session>>,
}

impl SharedEngine {
    /// Wraps an engine.
    pub fn new(engine: Engine) -> SharedEngine {
        let published = Arc::new(Published::new(engine.snapshot().clone()));
        SharedEngine {
            published,
            writer: Arc::new(Mutex::new(engine)),
            pool: Arc::new(SegQueue::pooled()),
        }
    }

    /// Runs `f` as a query session: a pooled workspace plus the current
    /// snapshot, revalidated with one atomic epoch load. The session
    /// returns to the pool afterwards (unless `f` panics, in which case
    /// it is dropped). The workspace's dense tables are re-reserved
    /// against the snapshot's size first, so pooled sessions survive
    /// index growth between queries without ever growing mid-query.
    pub fn with_session<R>(&self, f: impl FnOnce(&EngineSnapshot, &mut KndsWorkspace) -> R) -> R {
        let mut session = self.pool.pop().unwrap_or_default();
        let Session { ws, snap } = &mut session;
        let snapshot = snap.get(&self.published);
        let (concepts, docs) = snapshot.workspace_hint();
        ws.reserve(concepts, docs);
        let r = f(snapshot, ws);
        self.pool.push(session);
        r
    }

    /// Number of idle sessions currently pooled.
    pub fn pooled_workspaces(&self) -> usize {
        self.pool.len()
    }

    /// The current published snapshot: pin it to run many queries —
    /// a batch, say — against one consistent epoch.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.published.load()
    }

    /// Concurrent RDS query (lock-free; pooled session).
    pub fn rds(&self, query: &[ConceptId], k: usize) -> Result<QueryResult, EngineError> {
        self.with_session(|snap, ws| snap.rds_with(ws, query, k))
    }

    /// Concurrent SDS query (lock-free; pooled session).
    pub fn sds(&self, query_doc: &[ConceptId], k: usize) -> Result<QueryResult, EngineError> {
        self.with_session(|snap, ws| snap.sds_with(ws, query_doc, k))
    }

    /// Concurrent SDS query with a collection document (lock-free; pooled
    /// session).
    pub fn sds_by_doc(&self, doc: DocId, k: usize) -> Result<QueryResult, EngineError> {
        self.with_session(|snap, ws| snap.sds_by_doc_with(ws, doc, k))
    }

    /// Runs `mutate` on the writer engine, then publishes the resulting
    /// snapshot. Publishing inside the writer section keeps the epoch
    /// order identical to the mutation order.
    fn write<R>(&self, mutate: impl FnOnce(&mut Engine) -> R) -> R {
        let mut engine = self.writer.lock();
        let r = mutate(&mut engine);
        self.published.publish(engine.snapshot().clone());
        r
    }

    /// Appends a document (writer mutex); visible to every query that
    /// starts after the publish.
    pub fn add_document(&self, concepts: Vec<ConceptId>) -> DocId {
        self.write(|e| e.add_document(concepts))
    }

    /// Tombstones a document (writer mutex); it disappears from results
    /// at the next epoch, and compaction later drops it physically.
    pub fn remove_document(&self, doc: DocId) -> Result<(), EngineError> {
        self.write(|e| e.remove_document(doc))
    }

    /// Seals and merges the segmented index (writer mutex), publishing
    /// the compacted snapshot. In-flight queries keep their pinned
    /// epoch's segments alive; new queries see the merged set.
    pub fn compact(&self) -> bool {
        self.write(|e| e.compact())
    }

    /// Total documents currently searchable.
    pub fn num_docs(&self) -> usize {
        self.published.load().num_docs()
    }

    /// Runs `f` with access to the writer engine (for reads not covered
    /// by the convenience methods; takes the writer mutex, so prefer
    /// [`SharedEngine::snapshot`] on hot paths).
    pub fn with_engine<R>(&self, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.writer.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    fn shared() -> (SharedEngine, Vec<ConceptId>) {
        let ont = OntologyGenerator::new(GeneratorConfig::small(1_000)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(50).with_mean_concepts(8.0),
        )
        .generate();
        let engine = EngineBuilder::new().build(ont, corpus);
        let q = engine
            .corpus()
            .documents()
            .find(|d| d.num_concepts() >= 2)
            .map(|d| d.concepts()[..2].to_vec())
            .unwrap();
        (SharedEngine::new(engine), q)
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let (shared, q) = shared();
        let before = shared.num_docs();
        std::thread::scope(|scope| {
            // Readers hammer queries while a writer appends documents.
            for _ in 0..4 {
                let s = shared.clone();
                let q = q.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        let r = s.rds(&q, 3).unwrap();
                        assert!(!r.results.is_empty());
                    }
                });
            }
            let s = shared.clone();
            let q = q.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    s.add_document(q.clone());
                }
            });
        });
        assert_eq!(shared.num_docs(), before + 10);
        // The appended exact matches dominate the ranking now.
        let r = shared.rds(&q, 1).unwrap();
        assert_eq!(r.results[0].distance, 0.0);
    }

    #[test]
    fn workspace_pool_recycles_across_queries() {
        let (shared, q) = shared();
        assert_eq!(shared.pooled_workspaces(), 0);
        let cold = shared.rds(&q, 3).unwrap();
        assert_eq!(cold.metrics.workspace_reused, 0, "pool starts empty");
        assert_eq!(shared.pooled_workspaces(), 1, "workspace returned to pool");
        // Sequential queries — including via a clone — reuse the single
        // pooled workspace instead of growing the pool.
        let warm = shared.clone().sds(&q, 3).unwrap();
        assert_eq!(warm.metrics.workspace_reused, 1, "pooled workspace is warm");
        assert_eq!(shared.pooled_workspaces(), 1);
    }

    #[test]
    fn pool_never_exceeds_peak_concurrency() {
        let (shared, q) = shared();
        const THREADS: usize = 4;
        const ROUNDS: usize = 5;
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let s = shared.clone();
                let q = q.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        // All threads hold a workspace simultaneously, so
                        // the pool is drained at the barrier and refilled
                        // after — it can never grow past THREADS.
                        barrier.wait();
                        let r = s.rds(&q, 3).unwrap();
                        assert!(!r.results.is_empty());
                    }
                });
            }
        });
        let pooled = shared.pooled_workspaces();
        assert!(pooled <= THREADS, "pool leaked: {pooled} workspaces for {THREADS} threads");
        assert!(pooled >= 1, "at least one workspace must have been returned");
    }

    #[test]
    fn panicking_query_drops_its_workspace() {
        let (shared, q) = shared();
        shared.rds(&q, 3).unwrap();
        assert_eq!(shared.pooled_workspaces(), 1);
        // A panic while the pooled workspace is checked out (injected:
        // every argument error is a typed `Err`); the workspace must be
        // dropped, not returned dirty.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.with_session(|_, _| panic!("injected"));
        }));
        assert!(panicked.is_err(), "the session's panic must propagate");
        assert_eq!(shared.pooled_workspaces(), 0, "poisoned workspace returned to pool");
        // Service still healthy: the next query cold-starts a fresh one.
        let r = shared.rds(&q, 3).unwrap();
        assert_eq!(r.metrics.workspace_reused, 0, "fresh workspace after poison");
        assert!(!r.results.is_empty());
        assert_eq!(shared.pooled_workspaces(), 1);
    }

    #[test]
    fn zero_k_is_a_typed_error_and_keeps_the_pooled_workspace() {
        let (shared, q) = shared();
        shared.rds(&q, 3).unwrap();
        assert_eq!(shared.pooled_workspaces(), 1);
        assert_eq!(shared.rds(&q, 0).unwrap_err(), EngineError::ZeroK, "rds");
        assert_eq!(shared.sds(&q, 0).unwrap_err(), EngineError::ZeroK, "sds");
        assert_eq!(shared.sds_by_doc(DocId(0), 0).unwrap_err(), EngineError::ZeroK, "sds_by_doc");
        // Refused, not poisoned: the one warm workspace is still pooled.
        assert_eq!(shared.pooled_workspaces(), 1);
        assert_eq!(shared.rds(&q, 3).unwrap().metrics.workspace_reused, 1);
    }

    #[test]
    fn with_engine_exposes_reads() {
        let (shared, _q) = shared();
        let n = shared.with_engine(|e| e.ontology().len());
        assert_eq!(n, 1_000);
    }

    #[test]
    fn clones_share_state() {
        let (shared, q) = shared();
        let other = shared.clone();
        let id = shared.add_document(q);
        assert!(other.num_docs() > id.index());
        assert_eq!(other.num_docs(), shared.num_docs());
    }
}
