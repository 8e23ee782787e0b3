//! The DRC algorithm: D-Radix construction + tuning + aggregation.

use crate::dag::DRadixDag;
use cbr_ontology::{ConceptId, Ontology};

/// The reusable build state of one [`Drc`]: the D-Radix node arena, the
/// epoch-stamped concept-slot table, the label arena and the tuning
/// scratch. Cleared — never reallocated — between pairs, so a run of
/// probes allocates nothing once warm.
///
/// A scratch can be detached with [`Drc::into_scratch`] and re-attached
/// with [`Drc::with_scratch`], so its capacity outlives one `Drc` (and the
/// ontology borrow it holds): timing cold pairs on warm capacity, as
/// `repro fig6` does, or replaying a query's probes, as the benchmark's
/// traced run does.
#[derive(Debug, Clone, Default)]
pub struct DagScratch {
    dag: DRadixDag,
}

impl DagScratch {
    /// An empty scratch; capacity accrues on first use.
    pub fn new() -> DagScratch {
        DagScratch::default()
    }

    /// Approximate heap footprint of the retained allocations, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.dag.footprint_bytes()
    }
}

/// Computes document-query (Equation 2) and document-document
/// (Equation 3) distances in `O((|Pd| + |Pq|) log(|Pd| + |Pq|))` via the
/// D-Radix DAG.
///
/// One `Drc` is cheap to create and borrows the ontology; each distance
/// call builds and tunes a DAG from scratch (the paper's Algorithm 1 runs
/// per document-query pair at query time — no precomputation is required,
/// which is what lets new EMRs join the collection instantly, Section 1).
/// The value owns a [`DagScratch`] that the distance methods rebuild in
/// place, so probing many pairs allocates only on the first few probes;
/// hence those methods take `&mut self`.
///
/// This is the paper's algorithm, kept for Figure 6 and as a reference
/// for the tests: the search engine computes exact distances from
/// ancestor closures instead (DESIGN.md §4), and reads no Dewey address.
#[derive(Debug, Clone)]
pub struct Drc<'a> {
    ontology: &'a Ontology,
    weights: Option<&'a cbr_ontology::EdgeWeights>,
    scratch: DagScratch,
}

impl<'a> Drc<'a> {
    /// Creates the algorithm over `ontology` (materializes the path table
    /// on first use). Unit edge weights — the paper's metric.
    pub fn new(ontology: &'a Ontology) -> Self {
        Drc { ontology, weights: None, scratch: DagScratch::new() }
    }

    /// Creates a weighted-edge variant (the Section 7 future-work
    /// prototype): every distance below prices ontology edges by
    /// `weights` instead of 1.
    pub fn with_weights(ontology: &'a Ontology, weights: &'a cbr_ontology::EdgeWeights) -> Self {
        Drc { ontology, weights: Some(weights), scratch: DagScratch::new() }
    }

    /// Replaces the owned scratch, adopting capacity warmed elsewhere.
    pub fn with_scratch(mut self, scratch: DagScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Releases the owned scratch so its capacity can outlive this `Drc`.
    pub fn into_scratch(self) -> DagScratch {
        self.scratch
    }

    /// The ontology in use.
    pub fn ontology(&self) -> &'a Ontology {
        self.ontology
    }

    /// Approximate heap footprint of the retained scratch, in bytes.
    pub fn scratch_footprint_bytes(&self) -> usize {
        self.scratch.footprint_bytes()
    }

    /// Builds and tunes the D-Radix DAG for `(doc, query)` into the owned
    /// scratch and returns it for reading: one cold pair of Algorithm 1,
    /// allocation-free once the scratch has warmed up.
    pub fn probe(&mut self, doc: &[ConceptId], query: &[ConceptId]) -> &DRadixDag {
        let dag = &mut self.scratch.dag;
        dag.build_priced(self.ontology, self.weights, doc, query);
        dag.tune();
        #[cfg(debug_assertions)]
        {
            let tuned = dag.validate_tuned();
            debug_assert!(tuned.is_ok(), "D-Radix tuning invariant violated: {tuned:?}");
            if self.weights.is_none() {
                // Unit-weight probes admit a cheap oracle: compare a few
                // tuned distances against the brute-force Rada walk.
                let spot = dag.spot_check(self.ontology, doc, query, 2);
                debug_assert!(spot.is_ok(), "D-Radix distance spot-check failed: {spot:?}");
            }
        }
        dag
    }

    /// Builds and tunes a *fresh* D-Radix DAG for `(doc, query)`, leaving
    /// the owned scratch untouched. Exposed for inspection, tracing, and
    /// tests; the distance methods use [`probe`](Self::probe).
    pub fn build_dag(&self, doc: &[ConceptId], query: &[ConceptId]) -> DRadixDag {
        let mut dag = match self.weights {
            None => DRadixDag::build(self.ontology, doc, query),
            Some(w) => DRadixDag::build_weighted(self.ontology, doc, query, w),
        };
        dag.tune();
        dag
    }

    /// `Ddq(d, q) = Σᵢ Ddc(d, qᵢ)` (Equation 2) — the RDS distance.
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty; an empty *document* yields
    /// [`crate::INFINITE`] (no concept can cover any query node).
    pub fn document_query_distance(&mut self, doc: &[ConceptId], query: &[ConceptId]) -> u64 {
        assert!(!query.is_empty(), "RDS distance requires a non-empty query");
        if doc.is_empty() {
            return crate::INFINITE;
        }
        let dag = self.probe(doc, query);
        let mut sum = 0u64;
        for &qi in query {
            // Every query concept is materialized by construction; a miss
            // means a corrupt DAG (caught by the debug validators), so the
            // release path degrades to "infinitely far" instead of panicking.
            let Some(d) = dag.doc_distance(qi) else {
                debug_assert!(false, "query concept {qi:?} missing from the DAG");
                return crate::INFINITE;
            };
            debug_assert_ne!(d, u32::MAX, "single-rooted ontology has finite distances");
            sum += d as u64;
        }
        sum
    }

    /// `Ddd(d1, d2)` (Equation 3) — the symmetric SDS distance with equal
    /// concept weights:
    ///
    /// ```text
    /// Ddd = Σ_{c ∈ d1} Ddc(d2, c) / |C1|  +  Σ_{c ∈ d2} Ddc(d1, c) / |C2|
    /// ```
    ///
    /// Returns `f64::INFINITY` if either document is empty.
    pub fn document_document_distance(&mut self, d1: &[ConceptId], d2: &[ConceptId]) -> f64 {
        self.document_document_distance_weighted(d1, d2, None)
    }

    /// Equation 3 generalized with per-concept weights (Melton et al.'s
    /// original inter-patient measure; the paper fixes all weights to 1).
    /// `weights[c.index()]` scales concept `c`'s contribution on both
    /// sides; normalizers become weight sums. A concept without a weight
    /// weighs 1. A side that holds a negative or non-finite weight, or
    /// whose weights sum to 0 or overflow, is infinitely far, as an empty
    /// document is; so the result is never NaN.
    pub fn document_document_distance_weighted(
        &mut self,
        d1: &[ConceptId],
        d2: &[ConceptId],
        weights: Option<&[f64]>,
    ) -> f64 {
        if d1.is_empty() || d2.is_empty() {
            return f64::INFINITY;
        }
        // Build one DAG treating d1 as the "document" and d2 as the
        // "query"; both directions read off the same tuned structure.
        let dag = self.probe(d1, d2);
        let w = |c: ConceptId| weights.map_or(1.0, |ws| ws.get(c.index()).copied().unwrap_or(1.0));

        // One side's weighted mean of its concepts' distances to the other
        // side. Member concepts are materialized by construction; a miss
        // means a corrupt DAG (caught by the debug validators), so the
        // release path degrades to "infinitely far" instead of panicking.
        let mean = |set: &[ConceptId], dist: fn(&DRadixDag, ConceptId) -> Option<u32>| {
            let (mut sum, mut norm) = (0.0, 0.0);
            for &c in set {
                let Some(d) = dist(dag, c) else {
                    debug_assert!(false, "concept {c:?} missing from the DAG");
                    return f64::INFINITY;
                };
                let wc = w(c);
                if !(wc >= 0.0 && wc.is_finite()) {
                    return f64::INFINITY;
                }
                sum += wc * d as f64;
                norm += wc;
            }
            if norm > 0.0 && norm.is_finite() {
                sum / norm
            } else {
                f64::INFINITY
            }
        };
        // d1's distances are read from the d2 ("query") side and vice versa.
        mean(d1, DRadixDag::query_distance) + mean(d2, DRadixDag::doc_distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_ontology::fixture;

    #[test]
    fn example1_rds_distance_is_seven() {
        // Ddq(d, q) = Ddc(d,I) + Ddc(d,L) + Ddc(d,U) = 4 + 2 + 1 = 7.
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let d = fig.example_document();
        let q = fig.example_query();
        assert_eq!(drc.document_query_distance(&d, &q), 7);
    }

    #[test]
    fn example1_sds_distance() {
        // Treating q = {I, L, U} as a query document: the d-side distances
        // are the query distances of F, R, T, V (2, 1, 4, 5) and the
        // q-side distances are 4, 2, 1.
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let d = fig.example_document();
        let q = fig.example_query();
        let expected = (2.0 + 1.0 + 4.0 + 5.0) / 4.0 + (4.0 + 2.0 + 1.0) / 3.0;
        assert!((drc.document_document_distance(&d, &q) - expected).abs() < 1e-12);
    }

    #[test]
    fn sds_distance_is_symmetric() {
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let d = fig.example_document();
        let q = fig.example_query();
        let ab = drc.document_document_distance(&d, &q);
        let ba = drc.document_document_distance(&q, &d);
        assert!((ab - ba).abs() < 1e-12, "Equation 3 is symmetric: {ab} vs {ba}");
    }

    #[test]
    fn identical_documents_have_zero_distance() {
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let d = fig.example_document();
        assert_eq!(drc.document_document_distance(&d, &d), 0.0);
        assert_eq!(drc.document_query_distance(&d, &d), 0);
    }

    #[test]
    fn empty_document_is_infinitely_far() {
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let q = fig.example_query();
        assert_eq!(drc.document_query_distance(&[], &q), crate::INFINITE);
        assert_eq!(drc.document_document_distance(&[], &q), f64::INFINITY);
        assert_eq!(drc.document_document_distance(&q, &[]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-empty query")]
    fn empty_query_panics() {
        let fig = fixture::figure3();
        Drc::new(&fig.ontology).document_query_distance(&fig.example_document(), &[]);
    }

    #[test]
    fn weighted_distance_reduces_to_unweighted_with_unit_weights() {
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let d = fig.example_document();
        let q = fig.example_query();
        let unit = vec![1.0; fig.ontology.len()];
        let a = drc.document_document_distance(&d, &q);
        let b = drc.document_document_distance_weighted(&d, &q, Some(&unit));
        assert!((a - b).abs() < 1e-12);
        // A side without usable weights is infinitely far, never NaN.
        for bad in [0.0, f64::NAN, -1.0, f64::INFINITY, f64::MAX] {
            let ws = vec![bad; fig.ontology.len()];
            assert_eq!(
                drc.document_document_distance_weighted(&d, &q, Some(&ws)),
                f64::INFINITY,
                "all weights {bad}"
            );
        }
    }

    #[test]
    fn weighted_edges_match_weighted_brute_force_on_figure3() {
        use cbr_ontology::weighted;
        let fig = fixture::figure3();
        let ont = &fig.ontology;
        let root = ont.root();
        let g = fig.concept("G");
        // Non-uniform weights: root edges cost 3, G's edges cost 2.
        let w = cbr_ontology::EdgeWeights::from_fn(ont, |p, _| {
            if p == root {
                3
            } else if p == g {
                2
            } else {
                1
            }
        });
        let mut drc = Drc::with_weights(ont, &w);
        let d = fig.example_document();
        let q = fig.example_query();
        assert_eq!(
            drc.document_query_distance(&d, &q),
            weighted::document_query_distance(ont, &w, &d, &q)
        );
        let x = drc.document_document_distance(&d, &q);
        let y = weighted::document_document_distance(ont, &w, &d, &q);
        assert!((x - y).abs() < 1e-9, "{x} vs {y}");
    }

    #[test]
    fn weighted_edges_match_weighted_brute_force_on_random_dags() {
        use cbr_ontology::weighted;
        use cbr_ontology::{GeneratorConfig, OntologyGenerator};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..3u64 {
            let ont = OntologyGenerator::new(GeneratorConfig::small(120).with_seed(3_000 + seed))
                .generate();
            // Pseudo-random weights in 1..=4 keyed on the parent id.
            let w = cbr_ontology::EdgeWeights::from_fn(&ont, |p, c| {
                1 + ((p.0.wrapping_mul(31).wrapping_add(c.0)) % 4)
            });
            let mut drc = Drc::with_weights(&ont, &w);
            let mut rng = StdRng::seed_from_u64(seed);
            let all: Vec<ConceptId> = ont.concepts().collect();
            for _ in 0..8 {
                let pick = |rng: &mut StdRng, n: usize| -> Vec<ConceptId> {
                    let mut v: Vec<ConceptId> =
                        (0..n).map(|_| all[rng.random_range(0..all.len())]).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let d = pick(&mut rng, 7);
                let q = pick(&mut rng, 4);
                assert_eq!(
                    drc.document_query_distance(&d, &q),
                    weighted::document_query_distance(&ont, &w, &d, &q),
                    "seed {seed}: weighted Ddq mismatch d={d:?} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_distance_emphasizes_heavy_concepts() {
        let fig = fixture::figure3();
        let mut drc = Drc::new(&fig.ontology);
        let d = fig.example_document();
        let q = fig.example_query();
        // Up-weighting I (the farthest query concept, Ddc = 4) must
        // increase the distance relative to equal weights.
        let mut w = vec![1.0; fig.ontology.len()];
        w[fig.concept("I").index()] = 10.0;
        let heavy = drc.document_document_distance_weighted(&d, &q, Some(&w));
        let plain = drc.document_document_distance(&d, &q);
        assert!(heavy > plain, "{heavy} should exceed {plain}");
    }

    #[test]
    fn scratch_roundtrips_through_detach_and_reattach() {
        let fig = fixture::figure3();
        let d = fig.example_document();
        let q = fig.example_query();
        let mut drc = Drc::new(&fig.ontology);
        assert_eq!(drc.document_query_distance(&d, &q), 7);
        let warm = drc.scratch_footprint_bytes();
        assert!(warm > 0, "probing must warm the scratch");
        let scratch = drc.into_scratch();
        let mut again = Drc::new(&fig.ontology).with_scratch(scratch);
        assert_eq!(again.scratch_footprint_bytes(), warm);
        assert_eq!(again.document_query_distance(&d, &q), 7);
    }

    #[test]
    fn repeated_probes_reuse_the_scratch() {
        let fig = fixture::figure3();
        let d = fig.example_document();
        let q = fig.example_query();
        let d2 = vec![fig.concept("M"), fig.concept("T")];
        let mut drc = Drc::new(&fig.ontology);
        // Warm up on both shapes, then assert the footprint is stable.
        drc.document_query_distance(&d, &q);
        drc.document_document_distance(&d, &d2);
        let warm = drc.scratch_footprint_bytes();
        for _ in 0..4 {
            assert_eq!(drc.document_query_distance(&d, &q), 7);
            drc.document_document_distance(&d, &d2);
        }
        assert_eq!(drc.scratch_footprint_bytes(), warm, "steady-state probes must not grow");
    }
}
