//! Re-ranking with alternative semantic measures.
//!
//! Section 7 names "exploring other semantic distances" as future work;
//! the related work (Section 2) surveys the information-content family.
//! This module lets the engine re-order an RDS candidate list under any of
//! those measures without giving up the kNDS machinery: the shortest
//! path distance retrieves a candidate set, an IC measure re-scores it.
//!
//! Document-query scores use the **best-match average** aggregation common
//! in the biomedical similarity literature (Pesquita et al.):
//! `score(d, q) = (1/|q|) Σ_{qi ∈ q} max_{c ∈ d} sim(c, qi)`.

use crate::engine::{Engine, EngineError};
use cbr_corpus::DocId;
use cbr_knds::RankedDoc;
use cbr_ontology::{ConceptId, InformationContent, SemanticSimilarity};

/// Alternative pairwise similarity measures (higher = more similar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Resnik: `IC(MICA)`.
    Resnik,
    /// Lin: `2·IC(MICA) / (IC(a) + IC(b))`.
    Lin,
    /// Jiang–Conrath turned into a similarity: `1 / (1 + JC distance)`.
    JiangConrath,
    /// Wu–Palmer depth ratio.
    WuPalmer,
}

/// A document with a *similarity* score (higher is better — unlike
/// [`RankedDoc`], whose `distance` is lower-is-better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The document.
    pub doc: DocId,
    /// Best-match-average similarity to the query.
    pub score: f64,
}

impl Engine {
    /// Builds the IC-based similarity measures from this engine's corpus
    /// statistics (collection frequencies drive the information content).
    pub fn semantic_similarity(&self) -> SemanticSimilarity<'_> {
        let mut counts = vec![0u64; self.ontology().len()];
        for (c, n) in self.corpus().concept_frequencies() {
            counts[c.index()] = n as u64;
        }
        SemanticSimilarity::new(
            self.ontology(),
            InformationContent::from_counts(self.ontology(), &counts),
        )
    }

    /// Re-scores an RDS result list under `measure` and returns it sorted
    /// by descending similarity (ties by ascending id).
    pub fn rerank(
        &self,
        results: &[RankedDoc],
        query: &[ConceptId],
        measure: Measure,
    ) -> Result<Vec<ScoredDoc>, EngineError> {
        let q: Vec<ConceptId> = query.iter().copied().filter(|&c| self.eligible(c)).collect();
        if q.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        let sim = self.semantic_similarity();
        let mut scored = Vec::with_capacity(results.len());
        for r in results {
            let concepts = self.document_concepts(r.doc)?;
            scored.push(ScoredDoc {
                doc: r.doc,
                score: best_match_average(&sim, measure, &concepts, &q),
            });
        }
        scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        Ok(scored)
    }
}

/// `(1/|q|) Σ_{qi} max_{c ∈ d} sim(c, qi)`; empty documents score 0.
pub fn best_match_average(
    sim: &SemanticSimilarity<'_>,
    measure: Measure,
    doc: &[ConceptId],
    query: &[ConceptId],
) -> f64 {
    if doc.is_empty() || query.is_empty() {
        return 0.0;
    }
    let pair = |a: ConceptId, b: ConceptId| -> f64 {
        match measure {
            Measure::Resnik => sim.resnik(a, b),
            Measure::Lin => sim.lin(a, b),
            Measure::JiangConrath => 1.0 / (1.0 + sim.jiang_conrath(a, b)),
            Measure::WuPalmer => sim.wu_palmer(a, b),
        }
    };
    let mut total = 0.0;
    for &qi in query {
        let best = doc.iter().map(|&c| pair(c, qi)).fold(f64::NEG_INFINITY, f64::max);
        total += best;
    }
    total / query.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use cbr_corpus::Corpus;
    use cbr_ontology::fixture;

    fn engine() -> (Engine, Vec<ConceptId>) {
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("I"), c("L"), c("U")], 0), // exact match for the query
            (vec![c("M"), c("N")], 0),         // near I
            (vec![c("C")], 0),                 // unrelated
        ]);
        let q = fig.example_query();
        (EngineBuilder::new().build(fig.ontology, corpus), q)
    }

    #[test]
    fn exact_match_wins_under_every_measure() {
        let (engine, q) = engine();
        let hits = engine.rds(&q, 3).unwrap();
        for m in [Measure::Resnik, Measure::Lin, Measure::JiangConrath, Measure::WuPalmer] {
            let reranked = engine.rerank(&hits.results, &q, m).unwrap();
            assert_eq!(reranked[0].doc, DocId(0), "measure {m:?}");
            assert!(reranked[0].score >= reranked[1].score);
            assert!(reranked[1].score >= reranked[2].score);
        }
    }

    #[test]
    fn lin_scores_are_normalized() {
        let (engine, q) = engine();
        let hits = engine.rds(&q, 3).unwrap();
        let reranked = engine.rerank(&hits.results, &q, Measure::Lin).unwrap();
        for s in &reranked {
            assert!((0.0..=1.0 + 1e-9).contains(&s.score), "score {}", s.score);
        }
        assert!((reranked[0].score - 1.0).abs() < 1e-9, "self-match averages to 1");
    }

    #[test]
    fn related_document_beats_unrelated() {
        let (engine, q) = engine();
        let hits = engine.rds(&q, 3).unwrap();
        let reranked = engine.rerank(&hits.results, &q, Measure::WuPalmer).unwrap();
        let pos = |d: DocId| reranked.iter().position(|s| s.doc == d).unwrap();
        assert!(pos(DocId(1)) < pos(DocId(2)), "{{M,N}} is nearer {{I,L,U}} than {{C}}");
    }

    #[test]
    fn empty_query_errors() {
        let (engine, _q) = engine();
        assert!(matches!(engine.rerank(&[], &[], Measure::Lin), Err(EngineError::EmptyQuery)));
    }
}
