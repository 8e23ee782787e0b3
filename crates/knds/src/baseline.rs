//! The no-pruning baseline of Section 6.2, and the exact distance of one
//! pair.
//!
//! "This experiment compares kNDS against a baseline method that does not
//! apply any pruning of documents. In order to isolate the performance
//! gains achieved because of the documents pruning that kNDS applies, we
//! used the DRC algorithm as the distance calculation component for both
//! kNDS and the baseline method." The baseline therefore computes the
//! exact distance of **every** document and keeps the k smallest — its
//! cost is independent of `k` (the flat lines of Figure 9). Its distance
//! component is kNDS's: the query's closure pinned once, one exact probe
//! a document (see `engine::build_field`), where the paper runs DRC.
//!
//! Like the kNDS engines, the scan can run over a borrowed
//! [`KndsWorkspace`] (`*_with` variants) so that the fetch buffer and the
//! distance fields are reused across queries; so can the distances of
//! one pair, [`query_distance`] and [`document_distance`].

use crate::engine::{from_forward, pin_query, probe, Levels, QueryKind, QueryResult, RankedDoc};
use crate::metrics::QueryMetrics;
use crate::util::TopK;
use crate::workspace::KndsWorkspace;
use cbr_corpus::DocId;
use cbr_index::IndexSource;
use cbr_ontology::{ConceptId, Ontology};
use std::time::Instant;

/// Full-scan RDS: `Ddq` for every document, keep the k smallest.
pub fn rds<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    let mut ws = KndsWorkspace::new();
    rds_with(ontology, source, &mut ws, query, k)
}

/// [`rds`] over a caller-owned workspace (reusable buffers and fields).
pub fn rds_with<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    scan(ontology, source, ws, QueryKind::Rds, query, k)
}

/// Full-scan SDS: `Ddd` for every document, keep the k smallest.
pub fn sds<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    query_doc: &[ConceptId],
    k: usize,
) -> QueryResult {
    let mut ws = KndsWorkspace::new();
    sds_with(ontology, source, &mut ws, query_doc, k)
}

/// [`sds`] over a caller-owned workspace (reusable buffers and fields).
pub fn sds_with<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    query_doc: &[ConceptId],
    k: usize,
) -> QueryResult {
    scan(ontology, source, ws, QueryKind::Sds, query_doc, k)
}

/// The scan: pins the (normalized) query once — for SDS with the query's
/// field down every live-below concept, which gives each document's
/// reverse term — then probes every live document.
fn scan<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    kind: QueryKind,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    ws.session(query, k, |ws, q| {
        let frontier = Levels::default();
        let mut heap = TopK::new(k);
        let mut metrics = QueryMetrics::default();
        let live = source.live_mask();
        pin_query(&frontier, ontology, live, kind, q, &mut ws.dense.field, &mut ws.closure);
        let mut buf = std::mem::take(&mut ws.concepts_buf);

        for i in 0..source.num_docs() {
            let doc = DocId::from_index(i);
            if !source.is_live(doc) {
                continue;
            }
            let t = Instant::now();
            buf.clear();
            source.doc_concepts(doc, &mut buf);
            metrics.io += t.elapsed();

            let t = Instant::now();
            let fwd = probe(&frontier, ontology, &buf, &ws.closure, q, &mut ws.dense.probe);
            let sds = kind == QueryKind::Sds;
            let reverse = if sds { ws.dense.field.reverse_term(&buf) } else { 0.0 };
            let d = fwd.map_or(f64::INFINITY, |fwd| from_forward(kind, q.len(), fwd, reverse));
            metrics.distance_calc += t.elapsed();
            metrics.drc_calls += 1;
            metrics.docs_examined += 1;
            heap.offer(doc, d);
        }
        metrics.candidates_seen = source.num_docs();

        buf.clear();
        ws.concepts_buf = buf;

        let results = heap
            .into_sorted()
            .into_iter()
            .map(|(doc, distance)| RankedDoc { doc, distance })
            .collect();
        QueryResult { results, metrics }
    })
}

/// `Σᵢ Ddc(from, toᵢ)` over `to` by one exact probe: `to`'s closure
/// pinned, `from`'s field descended over it. `None` if `from` is empty.
fn one_way(
    ontology: &Ontology,
    ws: &mut KndsWorkspace,
    from: &[ConceptId],
    to: &[ConceptId],
) -> Option<u64> {
    let frontier = Levels::default();
    let live = cbr_index::LiveMask::ALL_LIVE;
    pin_query(&frontier, ontology, live, QueryKind::Rds, to, &mut ws.dense.field, &mut ws.closure);
    probe(&frontier, ontology, from, &ws.closure, to, &mut ws.dense.probe)
}

/// `Ddq(doc, query)` (Equation 2), the RDS distance of one pair, over a
/// caller-owned workspace. An empty `doc` is infinitely far; `query` is
/// summed over as given.
pub fn query_distance(
    ontology: &Ontology,
    ws: &mut KndsWorkspace,
    doc: &[ConceptId],
    query: &[ConceptId],
) -> f64 {
    one_way(ontology, ws, doc, query).map_or(f64::INFINITY, |d| d as f64)
}

/// `Ddd(a, b)` (Equation 3), the symmetric SDS distance of one pair: one
/// exact probe each way, over a caller-owned workspace. Infinite if either
/// document is empty.
// bound: proven — each sum is of |a| or |b| valid-path distances, far
// below the 2^53 f64 mantissa, over a non-empty set
pub fn document_distance(
    ontology: &Ontology,
    ws: &mut KndsWorkspace,
    a: &[ConceptId],
    b: &[ConceptId],
) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let to_b = one_way(ontology, ws, a, b);
    let to_a = one_way(ontology, ws, b, a);
    to_a.zip(to_b).map_or(f64::INFINITY, |(to_a, to_b)| {
        to_a as f64 / a.len() as f64 + to_b as f64 / b.len() as f64
    })
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
        ]);
        let source = SegmentedView::from_corpus(&corpus);
        (fig, source)
    }

    #[test]
    fn rds_ranks_all_documents() {
        let (fig, source) = setup();
        let q = fig.example_query();
        let r = rds(&fig.ontology, &source, &q, 3);
        assert_eq!(r.results.len(), 3);
        assert_eq!(r.results[0].doc, DocId(1));
        assert_eq!(r.results[0].distance, 0.0);
        let d0 = r.results.iter().find(|r| r.doc == DocId(0)).unwrap();
        assert_eq!(d0.distance, 7.0);
        assert_eq!(r.metrics.drc_calls, 3, "every document gets a DRC call");
    }

    #[test]
    fn sds_is_symmetric_and_exhaustive() {
        let (fig, source) = setup();
        let q = fig.example_query();
        let r = sds(&fig.ontology, &source, &q, 2);
        assert_eq!(r.results[0].doc, DocId(1));
        assert_eq!(r.results[0].distance, 0.0);
        assert_eq!(r.metrics.docs_examined, 3);
    }

    #[test]
    fn cost_is_independent_of_k() {
        let (fig, source) = setup();
        let q = fig.example_query();
        let a = rds(&fig.ontology, &source, &q, 1);
        let b = rds(&fig.ontology, &source, &q, 3);
        assert_eq!(a.metrics.drc_calls, b.metrics.drc_calls);
    }

    #[test]
    fn workspace_scan_matches_fresh_scan() {
        let (fig, source) = setup();
        let q = fig.example_query();
        let mut ws = KndsWorkspace::new();
        for _ in 0..3 {
            let a = rds_with(&fig.ontology, &source, &mut ws, &q, 3);
            let b = rds(&fig.ontology, &source, &q, 3);
            assert_eq!(a.results, b.results);
            let a = sds_with(&fig.ontology, &source, &mut ws, &q, 2);
            let b = sds(&fig.ontology, &source, &q, 2);
            assert_eq!(a.results, b.results);
        }
    }
}
