//! The no-pruning baseline of Section 6.2.
//!
//! "This experiment compares kNDS against a baseline method that does not
//! apply any pruning of documents. In order to isolate the performance
//! gains achieved because of the documents pruning that kNDS applies, we
//! used the DRC algorithm as the distance calculation component for both
//! kNDS and the baseline method." The baseline therefore computes the DRC
//! distance of **every** document and keeps the k smallest — its cost is
//! independent of `k` (the flat lines of Figure 9).
//!
//! Like the kNDS engines, the scan can run over a borrowed
//! [`KndsWorkspace`] (`*_with` variants) so that the forward-index fetch
//! buffer and the DRC DAG scratch are reused across queries.

use crate::engine::{QueryResult, RankedDoc};
use crate::metrics::QueryMetrics;
use crate::util::TopK;
use crate::workspace::KndsWorkspace;
use cbr_corpus::DocId;
use cbr_dradix::Drc;
use cbr_index::IndexSource;
use cbr_ontology::{ConceptId, Ontology};
use std::time::Instant;

/// Full-scan RDS: DRC `Ddq` for every document, keep the k smallest.
pub fn rds<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    let mut ws = KndsWorkspace::new();
    rds_with(ontology, source, &mut ws, query, k)
}

/// [`rds`] over a caller-owned workspace (reusable buffers + DAG scratch).
pub fn rds_with<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    query: &[ConceptId],
    k: usize,
) -> QueryResult {
    scan(ontology, source, ws, query, k, |drc, doc_concepts, q| {
        let d = drc.document_query_distance(doc_concepts, q);
        if d == cbr_dradix::INFINITE {
            f64::INFINITY
        } else {
            d as f64
        }
    })
}

/// Full-scan SDS: DRC `Ddd` for every document, keep the k smallest.
pub fn sds<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    query_doc: &[ConceptId],
    k: usize,
) -> QueryResult {
    let mut ws = KndsWorkspace::new();
    sds_with(ontology, source, &mut ws, query_doc, k)
}

/// [`sds`] over a caller-owned workspace (reusable buffers + DAG scratch).
pub fn sds_with<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    query_doc: &[ConceptId],
    k: usize,
) -> QueryResult {
    scan(ontology, source, ws, query_doc, k, |drc, doc_concepts, q| {
        drc.document_document_distance(doc_concepts, q)
    })
}

fn scan<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    ws: &mut KndsWorkspace,
    query: &[ConceptId],
    k: usize,
    mut distance: impl FnMut(&mut Drc<'_>, &[ConceptId], &[ConceptId]) -> f64,
) -> QueryResult {
    ws.session(query, k, |ws, q| {
        let mut drc = Drc::new(ontology).with_scratch(ws.take_dag());
        let mut heap = TopK::new(k);
        let mut metrics = QueryMetrics::default();
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
            let d = distance(&mut drc, &buf, q);
            metrics.distance_calc += t.elapsed();
            metrics.drc_calls += 1;
            metrics.docs_examined += 1;
            heap.offer(doc, d);
        }
        metrics.candidates_seen = source.num_docs();

        buf.clear();
        ws.concepts_buf = buf;
        ws.restore_dag(drc.into_scratch());

        let results = heap
            .into_sorted()
            .into_iter()
            .map(|(doc, distance)| RankedDoc { doc, distance })
            .collect();
        QueryResult { results, metrics }
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
