//! The BL baseline: per-pair minimum concept distances (Section 4.1/6.2).
//!
//! "We compared two methods that do not require index maintenance, i.e.,
//! DRC against a baseline that calculates the document to document
//! distances at the query time by computing the respective minimum concept
//! distances." For `nd` document and `nq` query concepts this performs
//! `O(nd · nq)` pairwise distance computations — the quadratic curve of
//! Figure 6 — each itself minimizing over the concepts' Dewey address
//! pairs. These functions double as the test oracle for DRC.

use cbr_ontology::{document_concept_distance, ConceptId, Ontology};

/// `Ddq(d, q)` by brute force (Equation 2). Mirrors
/// [`Drc::document_query_distance`](crate::Drc::document_query_distance).
pub fn document_query_distance(ont: &Ontology, doc: &[ConceptId], query: &[ConceptId]) -> u64 {
    assert!(!query.is_empty(), "RDS distance requires a non-empty query");
    if doc.is_empty() {
        return crate::INFINITE;
    }
    let paths = ont.path_table();
    query.iter().map(|&qi| document_concept_distance(paths, doc, qi) as u64).sum()
}

/// `Ddd(d1, d2)` by brute force (Equation 3).
pub fn document_document_distance(ont: &Ontology, d1: &[ConceptId], d2: &[ConceptId]) -> f64 {
    if d1.is_empty() || d2.is_empty() {
        return f64::INFINITY;
    }
    let paths = ont.path_table();
    let sum1: u64 = d1.iter().map(|&c| document_concept_distance(paths, d2, c) as u64).sum();
    let sum2: u64 = d2.iter().map(|&c| document_concept_distance(paths, d1, c) as u64).sum();
    sum1 as f64 / d1.len() as f64 + sum2 as f64 / d2.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Drc;
    use cbr_ontology::{fixture, GeneratorConfig, OntologyGenerator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_paper_example() {
        let fig = fixture::figure3();
        let d = fig.example_document();
        let q = fig.example_query();
        assert_eq!(document_query_distance(&fig.ontology, &d, &q), 7);
    }

    #[test]
    fn drc_equals_brute_force_on_figure3_pairs() {
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let sets: Vec<Vec<ConceptId>> = vec![
            fig.example_document(),
            fig.example_query(),
            vec![fig.concept("M"), fig.concept("N")],
            vec![fig.concept("C")],
            vec![fig.concept("A")],
            vec![fig.concept("V"), fig.concept("T"), fig.concept("C"), fig.concept("M")],
        ];
        for a in &sets {
            for b in &sets {
                assert_eq!(
                    drc.document_query_distance(a, b),
                    document_query_distance(&fig.ontology, a, b),
                    "Ddq mismatch for {a:?} vs {b:?}"
                );
                let x = drc.document_document_distance(a, b);
                let y = document_document_distance(&fig.ontology, a, b);
                assert!((x - y).abs() < 1e-9, "Ddd mismatch for {a:?} vs {b:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn drc_equals_brute_force_on_random_ontologies() {
        // The load-bearing equivalence test: random DAGs, random concept
        // sets, exact agreement required.
        for seed in 0..5u64 {
            let ont = OntologyGenerator::new(GeneratorConfig::small(150).with_seed(1000 + seed))
                .generate();
            let mut drc = Drc::new(&ont);
            let mut rng = StdRng::seed_from_u64(seed);
            let all: Vec<ConceptId> = ont.concepts().collect();
            for _ in 0..10 {
                let pick = |rng: &mut StdRng, n: usize| -> Vec<ConceptId> {
                    let mut v: Vec<ConceptId> =
                        (0..n).map(|_| all[rng.random_range(0..all.len())]).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let d = pick(&mut rng, 8);
                let q = pick(&mut rng, 4);
                assert_eq!(
                    drc.document_query_distance(&d, &q),
                    document_query_distance(&ont, &d, &q),
                    "seed {seed}: Ddq mismatch d={d:?} q={q:?}"
                );
                let x = drc.document_document_distance(&d, &q);
                let y = document_document_distance(&ont, &d, &q);
                assert!(
                    (x - y).abs() < 1e-9,
                    "seed {seed}: Ddd mismatch d={d:?} q={q:?}: {x} vs {y}"
                );
            }
        }
    }
}
