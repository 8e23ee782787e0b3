//! Automatic error-threshold selection.
//!
//! Section 5.2: "determining a good error threshold εθ generally depends on
//! several factors such as: (i) the query type, (ii) the query size,
//! (iii) the ontology characteristics, and (iv) the document collection
//! statistics. Thereby, we use the error threshold as an input parameter."
//! The paper then finds the per-collection optimum empirically (Figure 7)
//! and hardcodes it. [`tune_error_threshold`] automates exactly that
//! procedure: run a small sample workload at each candidate threshold and
//! keep the fastest. Because εθ never affects result *correctness* (only
//! the work split), tuning is safe to run on live data.

use crate::config::KndsConfig;
use crate::engine::{Hooks, Knds, QueryKind};
use cbr_index::IndexSource;
use cbr_ontology::{ConceptId, Ontology};
use std::time::{Duration, Instant};

/// One candidate's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    /// The candidate `εθ`.
    pub eps: f64,
    /// Total wall time over the sample workload.
    pub elapsed: Duration,
}

/// Measures every candidate threshold over a sample workload of `kind`
/// queries (the optimum differs by query type; Figure 7) and returns the
/// fastest along with the full sweep (for reporting).
///
/// # Panics
///
/// Panics if `candidates` or `sample` is empty, or `k` is zero.
pub fn tune_error_threshold<S: IndexSource>(
    ontology: &Ontology,
    source: &S,
    kind: QueryKind,
    sample: &[Vec<ConceptId>],
    k: usize,
    candidates: &[f64],
    base: &KndsConfig,
) -> (f64, Vec<TunePoint>) {
    assert!(!candidates.is_empty(), "at least one candidate threshold required");
    assert!(!sample.is_empty(), "at least one sample query required");
    let mut sweep = Vec::with_capacity(candidates.len());
    let mut best = (f64::INFINITY, candidates[0]);
    // One workspace across the whole sweep: the tuner measures steady-state
    // query cost, so every candidate after the first runs warm.
    let mut ws = crate::workspace::KndsWorkspace::new();
    for &eps in candidates {
        let cfg = base.clone().with_error_threshold(eps);
        let engine = Knds::new(ontology, source, cfg);
        let t0 = Instant::now();
        for q in sample {
            let r = engine.run(&mut ws, kind, q, k, Hooks::default());
            std::hint::black_box(r.results.len());
        }
        let elapsed = t0.elapsed();
        sweep.push(TunePoint { eps, elapsed });
        let secs = elapsed.as_secs_f64();
        if secs.total_cmp(&best.0).is_lt() {
            best = (secs, eps);
        }
    }
    (best.1, sweep)
}

/// The default candidate grid (the Figure 7 sweep).
pub const DEFAULT_CANDIDATES: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_index::SegmentedView;
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    #[test]
    fn tuner_returns_a_candidate_and_full_sweep() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(800)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(80).with_mean_concepts(10.0),
        )
        .generate();
        let source = SegmentedView::from_corpus(&corpus);
        let sample: Vec<Vec<ConceptId>> = corpus
            .documents()
            .filter(|d| d.num_concepts() >= 2)
            .take(4)
            .map(|d| d.concepts()[..2].to_vec())
            .collect();
        let (best, sweep) = tune_error_threshold(
            &ont,
            &source,
            QueryKind::Rds,
            &sample,
            5,
            DEFAULT_CANDIDATES,
            &KndsConfig::default(),
        );
        assert!(DEFAULT_CANDIDATES.contains(&best));
        assert_eq!(sweep.len(), DEFAULT_CANDIDATES.len());
        assert!(sweep.iter().all(|p| p.elapsed > Duration::ZERO));
    }

    #[test]
    fn tuner_works_for_sds() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(500)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::patient_like().with_num_docs(40).with_mean_concepts(15.0),
        )
        .generate();
        let source = SegmentedView::from_corpus(&corpus);
        let sample: Vec<Vec<ConceptId>> = corpus
            .documents()
            .filter(|d| d.num_concepts() > 0)
            .take(3)
            .map(|d| d.concepts().to_vec())
            .collect();
        let (best, _) = tune_error_threshold(
            &ont,
            &source,
            QueryKind::Sds,
            &sample,
            3,
            &[0.0, 1.0],
            &KndsConfig::default(),
        );
        assert!(best == 0.0 || best == 1.0);
    }

    #[test]
    #[should_panic(expected = "candidate threshold")]
    fn empty_candidates_panic() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(50)).generate();
        let corpus = cbr_corpus::Corpus::default();
        let source = SegmentedView::from_corpus(&corpus);
        tune_error_threshold(
            &ont,
            &source,
            QueryKind::Rds,
            &[vec![cbr_ontology::ConceptId(1)]],
            1,
            &[],
            &KndsConfig::default(),
        );
    }
}
