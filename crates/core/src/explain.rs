//! Result explanation: why a document matched a query.
//!
//! The paper motivates concept search with clinicians judging relevance
//! ("documents that do not contain the actual query terms, but contain
//! similar concepts such as …"). [`Explanation`] surfaces exactly that
//! evidence: for each query concept, the nearest concept of the document
//! and their valid-path distance.

use crate::engine::{Engine, EngineError};
use cbr_corpus::DocId;
use cbr_ontology::{distance::multi_source_distances, ConceptId};

/// One query concept's best match inside a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConceptMatch {
    /// The query concept.
    pub query_concept: ConceptId,
    /// The document concept nearest to it.
    pub nearest: ConceptId,
    /// Their valid-path distance (`Ddc(d, query_concept)`).
    pub distance: u32,
}

/// A per-concept breakdown of one document's RDS distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The explained document.
    pub doc: DocId,
    /// Total `Ddq` (the sum of the match distances).
    pub total_distance: u64,
    /// Per-query-concept matches, in query order.
    pub matches: Vec<ConceptMatch>,
}

impl Engine {
    /// Explains the RDS distance between `doc` and `query`: each eligible
    /// query concept paired with the document concept realizing its
    /// minimum distance, read off the query concept's distances to the
    /// whole ontology (one graph search each, no Dewey address).
    pub fn explain_rds(&self, doc: DocId, query: &[ConceptId]) -> Result<Explanation, EngineError> {
        let q: Vec<ConceptId> = query.iter().copied().filter(|&c| self.eligible(c)).collect();
        if q.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        let concepts = self.document_concepts(doc)?;
        if concepts.is_empty() {
            return Err(EngineError::EmptyDocument(doc));
        }
        let mut matches = Vec::with_capacity(q.len());
        let mut total = 0u64;
        for &qc in &q {
            let from_qc = multi_source_distances(self.ontology(), &[qc]);
            let (nearest, distance) = concepts
                .iter()
                .map(|&dc| (dc, from_qc[dc.index()]))
                .min_by_key(|&(dc, dist)| (dist, dc))
                .expect("document is non-empty");
            total += distance as u64;
            matches.push(ConceptMatch { query_concept: qc, nearest, distance });
        }
        Ok(Explanation { doc, total_distance: total, matches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use cbr_corpus::Corpus;
    use cbr_ontology::fixture;

    #[test]
    fn explanation_reproduces_example1() {
        let fig = fixture::figure3();
        let d = fig.example_document();
        let q = fig.example_query();
        let corpus = Corpus::from_concept_sets(vec![(d, 0)]);
        let engine = EngineBuilder::new().build(fig.ontology, corpus);
        // Rebuild label handles via the engine's ontology.
        let ont = engine.ontology();
        let concept = |l: &str| ont.concept_by_label(l).unwrap();

        let ex = engine.explain_rds(DocId(0), &q).unwrap();
        assert_eq!(ex.total_distance, 7);
        assert_eq!(ex.matches.len(), 3);
        let by_query: std::collections::HashMap<_, _> =
            ex.matches.iter().map(|m| (m.query_concept, m)).collect();
        // Example 1 / Example 3: I matches R at 4, L matches F at 2,
        // U matches R at 1.
        assert_eq!(by_query[&concept("I")].distance, 4);
        assert_eq!(by_query[&concept("I")].nearest, concept("R"));
        assert_eq!(by_query[&concept("L")].distance, 2);
        assert_eq!(by_query[&concept("L")].nearest, concept("F"));
        assert_eq!(by_query[&concept("U")].distance, 1);
        assert_eq!(by_query[&concept("U")].nearest, concept("R"));
    }

    #[test]
    fn explanation_total_matches_engine_distance() {
        let fig = fixture::figure3();
        let d = fig.example_document();
        let q = fig.example_query();
        let corpus = Corpus::from_concept_sets(vec![(d, 0)]);
        let engine = EngineBuilder::new().build(fig.ontology, corpus);
        let ex = engine.explain_rds(DocId(0), &q).unwrap();
        let dist = engine.query_distance(DocId(0), &q).unwrap();
        assert_eq!(ex.total_distance as f64, dist);
    }

    #[test]
    fn empty_cases_error() {
        let fig = fixture::figure3();
        let corpus = Corpus::from_concept_sets(vec![(vec![], 0)]);
        let q = fig.example_query();
        let engine = EngineBuilder::new().build(fig.ontology, corpus);
        assert!(matches!(engine.explain_rds(DocId(0), &q), Err(EngineError::EmptyDocument(_))));
        assert!(matches!(engine.explain_rds(DocId(0), &[]), Err(EngineError::EmptyQuery)));
    }
}
