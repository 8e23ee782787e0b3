//! Sharded kNDS — the paper's MapReduce sketch, on threads.
//!
//! Section 6.1: "the queue size limit can be eliminated by implementing
//! kNDS as a MapReduce job. Each mapper would be responsible for one
//! iteration of the BFS traversal starting from one query node; reducers
//! would do the book-keeping and execute the distance calculation
//! algorithm." The practical single-machine shape partitions the
//! *collection* instead: each shard runs a complete kNDS over its slice of
//! the documents (map), and the per-shard top-k lists merge into a global
//! top-k (reduce). Because each shard's result is exact for its slice, the
//! merge is exact for the union — no coordination needed beyond the final
//! heap.
//!
//! Shards see disjoint document subsets through [`ShardView`], which
//! filters a shared [`IndexSource`] by `doc_id % shards` — no data is
//! copied, and the underlying source keeps serving all shards
//! concurrently.

use crate::config::KndsConfig;
use crate::engine::{Hooks, Knds, QueryKind, QueryResult, RankedDoc};
use crate::metrics::QueryMetrics;
use crate::util::TopK;
use crate::workspace::KndsWorkspace;
use cbr_corpus::DocId;
use cbr_index::IndexSource;
use cbr_ontology::{ConceptId, Ontology};
use sched::sync::scope;

/// A modulo-partitioned view of a source: shard `i` of `n` sees exactly
/// the documents with `id % n == i`.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a, S: IndexSource> {
    inner: &'a S,
    shard: u32,
    shards: u32,
}

impl<'a, S: IndexSource> ShardView<'a, S> {
    /// Creates shard `shard` of `shards` over `inner`.
    pub fn new(inner: &'a S, shard: u32, shards: u32) -> Self {
        assert!(shards > 0 && shard < shards, "shard {shard} of {shards} is invalid");
        ShardView { inner, shard, shards }
    }

    #[inline]
    fn mine(&self, d: DocId) -> bool {
        d.0 % self.shards == self.shard
    }
}

impl<S: IndexSource> IndexSource for ShardView<'_, S> {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        let start = out.len();
        self.inner.postings(c, out);
        let mut keep = start;
        for i in start..out.len() {
            if self.mine(out[i]) {
                out.swap(keep, i);
                keep += 1;
            }
        }
        out.truncate(keep);
    }

    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        debug_assert!(self.mine(d), "shard asked about a foreign document");
        self.inner.doc_concepts(d, out);
    }

    fn doc_len(&self, d: DocId) -> usize {
        self.inner.doc_len(d)
    }

    fn num_docs(&self) -> usize {
        // Ids are global; the shard filters by membership instead of
        // renumbering, so the exhaustive fallback iterates the full range
        // and skips foreign ids via `is_live`.
        self.inner.num_docs()
    }

    fn is_live(&self, d: DocId) -> bool {
        self.mine(d) && self.inner.is_live(d)
    }
}

/// Runs kNDS over `shards` disjoint partitions in parallel and merges the
/// per-shard top-k exactly. Metrics are summed across shards (durations
/// therefore reflect total work, not wall-clock).
pub fn rds_sharded<S: IndexSource + Sync>(
    ontology: &Ontology,
    source: &S,
    query: &[ConceptId],
    k: usize,
    config: &KndsConfig,
    shards: u32,
) -> QueryResult {
    run_sharded(ontology, source, QueryKind::Rds, query, k, config, shards)
}

/// Sharded SDS; see [`rds_sharded`].
pub fn sds_sharded<S: IndexSource + Sync>(
    ontology: &Ontology,
    source: &S,
    query_doc: &[ConceptId],
    k: usize,
    config: &KndsConfig,
    shards: u32,
) -> QueryResult {
    run_sharded(ontology, source, QueryKind::Sds, query_doc, k, config, shards)
}

fn run_sharded<S: IndexSource + Sync>(
    ontology: &Ontology,
    source: &S,
    kind: QueryKind,
    query: &[ConceptId],
    k: usize,
    config: &KndsConfig,
    shards: u32,
) -> QueryResult {
    assert!(shards > 0, "at least one shard required");
    let partials: Vec<QueryResult> = scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                scope.spawn(move || {
                    let view = ShardView::new(source, i, shards);
                    let engine = Knds::new(ontology, &view, config.clone());
                    // One workspace per worker thread: a shard that serves
                    // several queries in its lifetime reuses it (here one
                    // query per spawn, but the pattern matches `cbr-core`'s
                    // batch workers). Pre-size the dense tables so the
                    // query itself never grows them.
                    let mut ws = KndsWorkspace::new();
                    ws.reserve(ontology.len(), view.num_docs());
                    engine.run(&mut ws, kind, query, k, Hooks::default())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard thread")).collect()
    });

    // Reduce: exact top-k over the union of per-shard top-k lists.
    let mut heap = TopK::new(k);
    let mut metrics = QueryMetrics::default();
    for p in &partials {
        metrics.accumulate(&p.metrics);
        for r in &p.results {
            heap.offer(r.doc, r.distance);
        }
    }
    let results =
        heap.into_sorted().into_iter().map(|(doc, distance)| RankedDoc { doc, distance }).collect();
    QueryResult { results, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_index::MemorySource;
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    fn setup() -> (Ontology, MemorySource, Vec<Vec<ConceptId>>) {
        let ont = OntologyGenerator::new(GeneratorConfig::small(700)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(90).with_mean_concepts(9.0),
        )
        .generate();
        let queries: Vec<Vec<ConceptId>> = corpus
            .documents()
            .filter(|d| d.num_concepts() >= 2)
            .take(5)
            .map(|d| d.concepts()[..2].to_vec())
            .collect();
        let source = MemorySource::build(&corpus, ont.len());
        (ont, source, queries)
    }

    #[test]
    fn shard_views_partition_the_collection() {
        let (_ont, source, _q) = setup();
        let shards = 4u32;
        let mut seen = std::collections::HashSet::new();
        for i in 0..shards {
            let view = ShardView::new(&source, i, shards);
            for d in 0..source.num_docs() as u32 {
                if view.is_live(DocId(d)) {
                    assert!(seen.insert(d), "doc {d} in two shards");
                }
            }
        }
        assert_eq!(seen.len(), source.num_docs(), "every doc in exactly one shard");
    }

    #[test]
    fn sharded_rds_matches_single_source() {
        let (ont, source, queries) = setup();
        let cfg = KndsConfig::default();
        let single = Knds::new(&ont, &source, cfg.clone());
        for (i, q) in queries.iter().enumerate() {
            let expect = single.rds(q, 5);
            for shards in [1u32, 2, 3, 7] {
                let got = rds_sharded(&ont, &source, q, 5, &cfg, shards);
                assert_eq!(got.results.len(), expect.results.len());
                for (a, b) in got.results.iter().zip(expect.results.iter()) {
                    assert_eq!(a.distance, b.distance, "query {i}, {shards} shards");
                }
            }
        }
    }

    #[test]
    fn sharded_sds_matches_single_source() {
        let (ont, source, queries) = setup();
        let cfg = KndsConfig::default();
        let single = Knds::new(&ont, &source, cfg.clone());
        let q = &queries[0];
        let expect = single.sds(q, 4);
        let got = sds_sharded(&ont, &source, q, 4, &cfg, 3);
        for (a, b) in got.results.iter().zip(expect.results.iter()) {
            assert!((a.distance - b.distance).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn bad_shard_index_panics() {
        let (_ont, source, _q) = setup();
        ShardView::new(&source, 3, 3);
    }
}
