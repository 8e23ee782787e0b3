//! Threshold Algorithm (TA) comparator for RDS queries.
//!
//! Section 4.1 sketches this baseline: precompute, for each concept, a
//! posting list of `(document, Ddc(d, c))` pairs sorted by ascending
//! distance, then run Fagin's TA over the query concepts' lists. The paper
//! rejects it because the `O(|D|·|C|)` precomputation is enormous, every
//! new document invalidates every list, and the bidirectional SDS distance
//! breaks the sorted-access model entirely. We implement it for RDS with
//! lists materialized lazily per query (one valid-path multi-source
//! distance pass per query concept), so the benches can quantify the
//! argument instead of taking it on faith.

use crate::engine::{QueryResult, RankedDoc};
use crate::metrics::QueryMetrics;
use crate::util::TopK;
use crate::workspace::KndsWorkspace;
use cbr_corpus::DocId;
use cbr_index::IndexSource;
use cbr_ontology::{distance::multi_source_distances, ConceptId, Ontology};
use std::time::Instant;

/// A distance-sorted posting list for one concept: every document paired
/// with `Ddc(d, c)`, ascending.
#[derive(Debug, Clone)]
pub struct DistancePostings {
    entries: Vec<(DocId, u32)>,
}

impl DistancePostings {
    /// Materializes the list for `concept`: one `O(V + E)` valid-path
    /// distance pass over the ontology, then a minimum per document over
    /// its concepts. This is the per-concept slice of the offline
    /// precomputation the paper deems infeasible at UMLS scale.
    pub fn materialize<S: IndexSource>(
        ontology: &Ontology,
        source: &S,
        concept: ConceptId,
    ) -> DistancePostings {
        let dist = multi_source_distances(ontology, &[concept]);
        let mut entries = Vec::with_capacity(source.num_docs());
        let mut buf: Vec<ConceptId> = Vec::new();
        for i in 0..source.num_docs() {
            let doc = DocId::from_index(i);
            buf.clear();
            source.doc_concepts(doc, &mut buf);
            let best = buf
                .iter()
                .map(|c| dist.get(c.index()).copied().unwrap_or(u32::MAX))
                .min()
                .unwrap_or(u32::MAX);
            // bound: sized — one entry per corpus document
            entries.push((doc, best));
        }
        entries.sort_unstable_by_key(|&(d, dist)| (dist, d));
        DistancePostings { entries }
    }

    /// Sequential (sorted) access: the `i`-th closest document.
    pub fn sorted_access(&self, i: usize) -> Option<(DocId, u32)> {
        self.entries.get(i).copied()
    }

    /// Number of entries (= collection size).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// TA evaluation of an RDS query.
///
/// Returns the exact top-k along with metrics; `metrics.distance_calc`
/// holds the list-materialization cost (the stand-in for the offline
/// precomputation) and `metrics.traversal` the TA round-robin itself.
pub fn rds<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    let mut ws = KndsWorkspace::new();
    rds_with(ontology, source, &mut ws, query, k)
}

/// [`rds`] over a caller-owned workspace. TA's posting lists are
/// inherently per-query (one per query concept), but the normalized-query
/// buffer and the dense seen-document marks are reused.
pub fn rds_with<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    ws.session(query, k, |ws, q| ta_round_robin(ontology, source, ws, q, k))
}

/// The TA evaluation proper, over a normalized query inside an open
/// workspace session.
fn ta_round_robin<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    q: &[ConceptId],
    k: usize,
) -> QueryResult {
    // TA only needs the per-document marks; the epoch bump replaces the
    // old O(|D|) clear-and-resize of a boolean vector.
    let rolled = ws.dense.begin_query(0, 0, source.num_docs(), false, false);

    let mut metrics = QueryMetrics { epoch_rollover: rolled as usize, ..QueryMetrics::default() };

    // "Offline" phase: one distance-sorted list per query concept, plus a
    // per-document random-access table.
    let t = Instant::now();
    let lists: Vec<DistancePostings> =
        q.iter().map(|&c| DistancePostings::materialize(ontology, source, c)).collect();
    let num_docs = source.num_docs();
    // Random access: doc -> per-list distance.
    let mut random: Vec<Vec<u32>> = Vec::with_capacity(q.len());
    for list in &lists {
        let mut table = vec![0u32; num_docs];
        for &(d, dist) in &list.entries {
            if let Some(slot) = table.get_mut(d.index()) {
                *slot = dist;
            }
        }
        // bound: sized — one random-access table per query concept
        random.push(table);
    }
    metrics.distance_calc += t.elapsed();

    // TA round-robin over sorted accesses.
    let t = Instant::now();
    let mut heap = TopK::new(k);
    let mut pos = 0usize;
    // cplx: bound d — one sorted round-robin position per turn, at most num_docs
    while pos < num_docs {
        // Threshold: sum of the distances at the current sorted positions.
        // Every list holds exactly `num_docs` entries and `pos < num_docs`,
        // so sorted access cannot miss; a miss just skips the list.
        let mut threshold = 0u64;
        for list in &lists {
            let Some((doc, dist)) = list.sorted_access(pos) else {
                continue;
            };
            threshold += dist as u64;
            if !ws.dense.mark_doc(doc) {
                continue;
            }
            metrics.docs_examined += 1;
            // A document no list reaches has no concepts: `Ddq` is infinite,
            // as the full scan and kNDS rank it.
            let total = random.iter().try_fold(0u64, |sum, r| match r.get(doc.index()) {
                Some(&d) if d != u32::MAX => Some(sum + d as u64),
                _ => None,
            });
            // bound: proven — total sums nq u32 distances, far below 2^53
            heap.offer(doc, total.map_or(f64::INFINITY, |t| t as f64));
        }
        pos += 1;
        if heap.is_full() && threshold as f64 >= heap.threshold() {
            break;
        }
    }
    metrics.traversal += t.elapsed();
    metrics.candidates_seen = metrics.docs_examined;

    let results =
        heap.into_sorted().into_iter().map(|(doc, distance)| RankedDoc { doc, distance }).collect();
    QueryResult { results, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::Corpus;
    use cbr_index::SegmentedView;
    use cbr_ontology::fixture;

    fn setup() -> (fixture::Figure3, SegmentedView) {
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("F"), c("R"), c("T"), c("V")], 0),
            (vec![c("I"), c("L"), c("U")], 0),
            (vec![c("M"), c("N")], 0),
            (vec![c("C")], 0),
        ]);
        let source = SegmentedView::from_corpus(&corpus);
        (fig, source)
    }

    #[test]
    fn distance_postings_are_sorted_and_correct() {
        let (fig, source) = setup();
        let u = fig.concept("U");
        let dp = DistancePostings::materialize(&fig.ontology, &source, u);
        assert_eq!(dp.len(), 4);
        // Doc 1 contains U itself -> distance 0; doc 0 contains R (parent) -> 1.
        assert_eq!(dp.sorted_access(0), Some((DocId(1), 0)));
        assert_eq!(dp.sorted_access(1), Some((DocId(0), 1)));
        let dists: Vec<u32> = (0..dp.len()).map(|i| dp.sorted_access(i).unwrap().1).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ta_matches_full_scan() {
        let (fig, source) = setup();
        let q = fig.example_query();
        let ta = rds(&fig.ontology, &source, &q, 3);
        let scan = crate::baseline::rds(&fig.ontology, &source, &q, 3);
        assert_eq!(ta.results.len(), scan.results.len());
        for (a, b) in ta.results.iter().zip(scan.results.iter()) {
            assert_eq!(a.distance, b.distance);
        }
    }

    #[test]
    fn ta_early_terminates_on_easy_queries() {
        let (fig, source) = setup();
        // Query equal to doc 1: distance 0 is found at the first position.
        let r = rds(&fig.ontology, &source, &[fig.concept("U")], 1);
        assert_eq!(r.results[0].doc, DocId(1));
        assert!(
            r.metrics.docs_examined < source.num_docs(),
            "TA should stop before scanning everything"
        );
    }
}
