//! The immutable read half of the engine.
//!
//! [`EngineSnapshot`] is everything a query needs — ontology, eligibility
//! filter, the bulk corpus, a [`SegmentedView`] of the index, and the kNDS
//! configuration — behind `Arc`s, so cloning one is a handful of refcount
//! bumps and sharing one across threads needs no lock of any kind. All
//! ranking entry points (`rds`/`sds`/batch, plus the `_with` variants that
//! borrow a caller-owned [`KndsWorkspace`]) live
//! here; the mutable [`Engine`](crate::Engine) half owns the segmented
//! writer and re-derives a fresh snapshot after every mutation.
//!
//! A query session is therefore just *a borrowed snapshot plus a borrowed
//! workspace*: once both are in hand, evaluation touches only immutable
//! array-indexed structures (the Navarro–Nekrich static-structure
//! discipline) and the workspace's dense tables. Nothing on that path can
//! block, and a publish racing the query simply produces results against
//! the epoch the session pinned.

use crate::engine::EngineError;
use cbr_corpus::{ConceptFilter, Corpus, DocId};
use cbr_dradix::Drc;
use cbr_index::{IndexSource, SegmentedView};
use cbr_knds::{baseline, Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, QueryResult};
use cbr_ontology::{ConceptId, Ontology};
use sched::sync::Arc;

/// An immutable, cheaply-cloneable engine state: one published epoch of
/// the collection, queryable from any number of threads without locks.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    ontology: Arc<Ontology>,
    corpus: Arc<Corpus>,
    filter: Arc<ConceptFilter>,
    source: SegmentedView,
    config: KndsConfig,
}

impl EngineSnapshot {
    /// Assembles a snapshot from shared parts (crate-internal: snapshots
    /// are made by [`EngineBuilder::build`](crate::EngineBuilder::build)
    /// and refreshed by the mutable engine half).
    pub(crate) fn assemble(
        ontology: Arc<Ontology>,
        corpus: Arc<Corpus>,
        filter: Arc<ConceptFilter>,
        source: SegmentedView,
        config: KndsConfig,
    ) -> EngineSnapshot {
        EngineSnapshot { ontology, corpus, filter, source, config }
    }

    /// Swaps in a freshly published index view (after append/delete/
    /// compaction).
    pub(crate) fn set_source(&mut self, source: SegmentedView) {
        self.source = source;
    }

    /// Replaces the kNDS configuration.
    pub(crate) fn set_config(&mut self, config: KndsConfig) {
        self.config = config;
    }

    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The (filtered) bulk-loaded corpus. Appended documents are not part
    /// of this view; read them with [`EngineSnapshot::document_concepts`].
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The active kNDS configuration.
    pub fn config(&self) -> &KndsConfig {
        &self.config
    }

    /// The index view this snapshot queries.
    pub fn source(&self) -> &SegmentedView {
        &self.source
    }

    /// Whether concept `c` survives the eligibility filter.
    pub fn eligible(&self, c: ConceptId) -> bool {
        self.filter.allows(c)
    }

    /// Total documents (bulk + appended) at this epoch.
    pub fn num_docs(&self) -> usize {
        self.source.num_docs()
    }

    /// Sizing hint for [`KndsWorkspace::reserve`]: `(concept id bound,
    /// document count)`. Pooled and per-worker workspaces pre-size their
    /// dense tables from this so growth happens at acquisition, never
    /// mid-query.
    pub fn workspace_hint(&self) -> (usize, usize) {
        (self.ontology.id_bound(), self.source.num_docs())
    }

    /// The concept set of a document live at this epoch, bulk or
    /// appended. A deleted document is unknown from its delete on, whether
    /// or not compaction has dropped its payload yet.
    pub fn document_concepts(&self, doc: DocId) -> Result<Vec<ConceptId>, EngineError> {
        if !self.is_live(doc) {
            return Err(EngineError::UnknownDocument(doc));
        }
        let mut out = Vec::new();
        self.source.doc_concepts(doc, &mut out);
        Ok(out)
    }

    /// Whether `doc` exists and was live at this epoch.
    pub fn is_live(&self, doc: DocId) -> bool {
        doc.index() < self.source.num_docs() && self.source.is_live(doc)
    }

    /// Resolves labels to concepts, failing on the first unknown label.
    pub fn concepts_by_labels(&self, labels: &[&str]) -> Result<Vec<ConceptId>, EngineError> {
        labels
            .iter()
            .map(|&l| {
                self.ontology
                    .concept_by_label(l)
                    .ok_or_else(|| EngineError::UnknownLabel(l.to_string()))
            })
            .collect()
    }

    pub(crate) fn eligible_query(
        &self,
        concepts: &[ConceptId],
    ) -> Result<Vec<ConceptId>, EngineError> {
        let q: Vec<ConceptId> =
            concepts.iter().copied().filter(|&c| self.filter.allows(c)).collect();
        if q.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        Ok(q)
    }

    /// What every top-k search checks before a workspace is touched: a
    /// positive `k` and a query with an eligible concept left — so nothing
    /// a caller passes reaches a kNDS precondition assert.
    pub(crate) fn checked_query(
        &self,
        concepts: &[ConceptId],
        k: usize,
    ) -> Result<Vec<ConceptId>, EngineError> {
        if k == 0 {
            return Err(EngineError::ZeroK);
        }
        self.eligible_query(concepts)
    }

    /// RDS (Definition 1): the `k` documents most relevant to a set of
    /// query concepts. Ineligible concepts are dropped from the query.
    pub fn rds(&self, query: &[ConceptId], k: usize) -> Result<QueryResult, EngineError> {
        let mut ws = KndsWorkspace::new();
        self.rds_with(&mut ws, query, k)
    }

    /// [`EngineSnapshot::rds`] over a caller-owned [`KndsWorkspace`]: all
    /// per-query maps and buffers (candidate table, BFS frontier, DRC DAG
    /// scratch) are borrowed from `ws` and returned clean, so a long-lived
    /// caller — a service worker, a batch thread — stops allocating once
    /// the workspace is warm. Results are identical to
    /// [`EngineSnapshot::rds`].
    pub fn rds_with(
        &self,
        ws: &mut KndsWorkspace,
        query: &[ConceptId],
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        self.query_with(ws, QueryKind::Rds, query, k)
    }

    /// The one path into kNDS: drops ineligible concepts from the query
    /// and evaluates what is left as a `kind` query over `ws`.
    pub(crate) fn query_with(
        &self,
        ws: &mut KndsWorkspace,
        kind: QueryKind,
        query: &[ConceptId],
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let q = self.checked_query(query, k)?;
        let knds = Knds::new(&self.ontology, &self.source, self.config.clone());
        Ok(knds.run(ws, kind, &q, k, Hooks::default()))
    }

    /// RDS with label-based input.
    pub fn rds_by_labels(&self, labels: &[&str], k: usize) -> Result<QueryResult, EngineError> {
        let q = self.concepts_by_labels(labels)?;
        self.rds(&q, k)
    }

    /// SDS (Definition 2): the `k` documents most similar to a query
    /// document given as a concept set.
    pub fn sds(&self, query_doc: &[ConceptId], k: usize) -> Result<QueryResult, EngineError> {
        let mut ws = KndsWorkspace::new();
        self.sds_with(&mut ws, query_doc, k)
    }

    /// [`EngineSnapshot::sds`] over a caller-owned workspace; see
    /// [`EngineSnapshot::rds_with`].
    pub fn sds_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        self.query_with(ws, QueryKind::Sds, query_doc, k)
    }

    /// SDS with a collection document as the query (patient-similarity).
    pub fn sds_by_doc(&self, doc: DocId, k: usize) -> Result<QueryResult, EngineError> {
        let mut ws = KndsWorkspace::new();
        self.sds_by_doc_with(&mut ws, doc, k)
    }

    /// [`EngineSnapshot::sds_by_doc`] over a caller-owned workspace; see
    /// [`EngineSnapshot::rds_with`].
    pub fn sds_by_doc_with(
        &self,
        ws: &mut KndsWorkspace,
        doc: DocId,
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let concepts = self.document_concepts(doc)?;
        if concepts.is_empty() {
            return Err(EngineError::EmptyDocument(doc));
        }
        self.sds_with(ws, &concepts, k)
    }

    /// Exact `Ddq` between one document and a query (Equation 2).
    pub fn query_distance(&self, doc: DocId, query: &[ConceptId]) -> Result<f64, EngineError> {
        let q = self.eligible_query(query)?;
        let concepts = self.document_concepts(doc)?;
        let d = Drc::new(&self.ontology).document_query_distance(&concepts, &q);
        Ok(if d == cbr_dradix::INFINITE { f64::INFINITY } else { d as f64 })
    }

    /// Exact symmetric `Ddd` between two documents (Equation 3).
    pub fn document_distance(&self, a: DocId, b: DocId) -> Result<f64, EngineError> {
        let ca = self.document_concepts(a)?;
        let cb = self.document_concepts(b)?;
        Ok(Drc::new(&self.ontology).document_document_distance(&ca, &cb))
    }

    /// Exhaustive (no-pruning) RDS — exposed for benchmarking and
    /// verification against [`EngineSnapshot::rds`].
    pub fn rds_full_scan(&self, query: &[ConceptId], k: usize) -> Result<QueryResult, EngineError> {
        let q = self.checked_query(query, k)?;
        Ok(baseline::rds(&self.ontology, &self.source, &q, k))
    }

    /// Exhaustive (no-pruning) SDS.
    pub fn sds_full_scan(
        &self,
        query_doc: &[ConceptId],
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let q = self.checked_query(query_doc, k)?;
        Ok(baseline::sds(&self.ontology, &self.source, &q, k))
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineBuilder;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    #[test]
    fn snapshots_pin_an_epoch_while_the_engine_moves_on() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(800)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(30).with_mean_concepts(8.0),
        )
        .generate();
        let mut engine = EngineBuilder::new().build(ont, corpus);
        let q = engine
            .corpus()
            .documents()
            .find(|d| d.num_concepts() >= 2)
            .map(|d| d.concepts()[..2].to_vec())
            .unwrap();
        let pinned = engine.snapshot().clone();
        let before = pinned.rds(&q, 3).unwrap();
        let added = engine.add_document(q.clone());
        // The pinned snapshot still answers against the old epoch...
        assert_eq!(pinned.num_docs(), engine.num_docs() - 1);
        let still = pinned.rds(&q, 3).unwrap();
        assert_eq!(before.results, still.results);
        assert!(still.results.iter().all(|r| r.doc != added));
        // ...while the engine's current snapshot sees the append (the
        // source doc of `q` ties at distance 0, so check membership).
        assert_eq!(engine.snapshot().num_docs(), pinned.num_docs() + 1);
        assert_eq!(engine.snapshot().query_distance(added, &q).unwrap(), 0.0);
        let now = engine.snapshot().rds(&q, 1).unwrap();
        assert_eq!(now.results[0].distance, 0.0);
    }

    /// `k == 0` is a typed error at every query entry point of a snapshot
    /// (the engine's, through `Deref`), never the kNDS precondition panic.
    #[test]
    fn zero_k_is_a_typed_error_at_every_entry_point() {
        use crate::engine::EngineError::ZeroK;
        use cbr_knds::KndsWorkspace;
        let fig = cbr_ontology::fixture::figure3();
        let corpus = cbr_corpus::Corpus::from_concept_sets(vec![(fig.example_document(), 0)]);
        let q = fig.example_query();
        let mut engine = EngineBuilder::new().build(fig.ontology, corpus);
        let doc = cbr_corpus::DocId(0);
        let ws = &mut KndsWorkspace::new();
        assert_eq!(engine.rds(&q, 0).unwrap_err(), ZeroK, "rds");
        assert_eq!(engine.rds_with(ws, &q, 0).unwrap_err(), ZeroK, "rds_with");
        assert_eq!(engine.rds_by_labels(&["I", "L"], 0).unwrap_err(), ZeroK, "rds_by_labels");
        assert_eq!(engine.sds(&q, 0).unwrap_err(), ZeroK, "sds");
        assert_eq!(engine.sds_with(ws, &q, 0).unwrap_err(), ZeroK, "sds_with");
        assert_eq!(engine.sds_by_doc(doc, 0).unwrap_err(), ZeroK, "sds_by_doc");
        assert_eq!(engine.sds_by_doc_with(ws, doc, 0).unwrap_err(), ZeroK, "sds_by_doc_with");
        assert_eq!(engine.rds_full_scan(&q, 0).unwrap_err(), ZeroK, "rds_full_scan");
        assert_eq!(engine.sds_full_scan(&q, 0).unwrap_err(), ZeroK, "sds_full_scan");
        let tuned = engine.auto_tune(cbr_knds::QueryKind::Rds, std::slice::from_ref(&q), 0);
        assert_eq!(tuned.unwrap_err(), ZeroK, "auto_tune");
        assert_eq!(ZeroK.to_string(), "k must be positive");
        // The workspace took no part in the refused calls and still serves.
        assert_eq!(engine.rds_with(ws, &q, 1).unwrap().metrics.workspace_reused, 0);
    }

    /// An empty query — or an empty tuning sample, which has no query to
    /// tune on — is [`EmptyQuery`](crate::EngineError::EmptyQuery) at
    /// every entry point, never a kNDS or tuner precondition panic.
    #[test]
    fn empty_query_is_a_typed_error_at_every_entry_point() {
        use crate::engine::EngineError::EmptyQuery;
        use cbr_knds::{KndsWorkspace, QueryKind};
        let fig = cbr_ontology::fixture::figure3();
        let corpus = cbr_corpus::Corpus::from_concept_sets(vec![(fig.example_document(), 0)]);
        let mut engine = EngineBuilder::new().build(fig.ontology, corpus);
        let config = engine.config().clone();
        let ws = &mut KndsWorkspace::new();
        assert_eq!(engine.rds(&[], 1).unwrap_err(), EmptyQuery, "rds");
        assert_eq!(engine.rds_with(ws, &[], 1).unwrap_err(), EmptyQuery, "rds_with");
        assert_eq!(engine.rds_by_labels(&[], 1).unwrap_err(), EmptyQuery, "rds_by_labels");
        assert_eq!(engine.sds(&[], 1).unwrap_err(), EmptyQuery, "sds");
        assert_eq!(engine.sds_with(ws, &[], 1).unwrap_err(), EmptyQuery, "sds_with");
        assert_eq!(engine.rds_full_scan(&[], 1).unwrap_err(), EmptyQuery, "rds_full_scan");
        assert_eq!(engine.sds_full_scan(&[], 1).unwrap_err(), EmptyQuery, "sds_full_scan");
        for kind in [QueryKind::Rds, QueryKind::Sds] {
            assert_eq!(engine.auto_tune(kind, &[], 1).unwrap_err(), EmptyQuery, "{kind:?}");
            assert_eq!(engine.auto_tune(kind, &[vec![]], 1).unwrap_err(), EmptyQuery, "{kind:?}");
        }
        // A refused tuning leaves the configuration as it was.
        assert_eq!(engine.config(), &config);
    }
}
