//! The DRC algorithm: D-Radix construction + tuning + aggregation.

use crate::dag::{DRadixDag, Side};
use cbr_ontology::{ConceptId, Ontology};

/// The reusable build state of one [`Drc`]: the D-Radix node arena, the
/// epoch-stamped concept-slot table, the label arena, the tuning scratch
/// and the pinned half's checkpoint. Cleared — never reallocated —
/// between document probes, so the per-document DAG build at the heart of
/// every kNDS EXAMINE becomes allocation-free once warm.
///
/// A scratch can be detached with [`Drc::into_scratch`] and re-attached
/// with [`Drc::with_scratch`], which is how query workspaces carry DAG
/// capacity across queries (and across engine borrows) without tying a
/// workspace to one ontology lifetime.
#[derive(Debug, Clone, Default)]
pub struct DagScratch {
    dag: DRadixDag,
    /// The side `pin` is pinned on in `dag`, set by the `Drc` holding this
    /// scratch (so under its ontology and weights); `None` once it changes hands.
    pinned: Option<Side>,
    pin: Vec<ConceptId>,
    /// The previous probe's `doc`: on a miss, tells which argument repeats.
    last_doc: Vec<ConceptId>,
}

impl DagScratch {
    /// An empty scratch; capacity accrues on first use.
    pub fn new() -> DagScratch {
        DagScratch::default()
    }

    /// Approximate heap footprint of the retained allocations, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.dag.footprint_bytes()
            + (self.pin.capacity() + self.last_doc.capacity()) * std::mem::size_of::<ConceptId>()
    }
}

/// Computes document-query (Equation 2) and document-document
/// (Equation 3) distances in `O((|Pd| + |Pq|) log(|Pd| + |Pq|))` via the
/// D-Radix DAG.
///
/// One `Drc` is cheap to create and borrows the ontology; each distance
/// call builds and tunes a DAG (the paper's Algorithm 1 runs per
/// document-query pair at query time — no precomputation is required,
/// which is what lets new EMRs join the collection instantly, Section 1).
/// The value owns a [`DagScratch`] that the distance methods rebuild in
/// place, so probing many documents against one query allocates only on
/// the first few probes; hence those methods take `&mut self`.
///
/// What repeats is pinned: a probe whose `query` (else whose `doc`)
/// equals, by content, the argument the last build pinned only overlays
/// the other one on the checkpointed half (see [`crate::dag`]); any other
/// probe re-pins — on `doc` if the previous probe passed it too, on
/// `query` otherwise. The pin's scope is this one value, hence one
/// ontology and one weighting: a scratch that changes hands
/// ([`with_scratch`](Self::with_scratch)) keeps its capacity, not its pin.
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

    /// Replaces the owned scratch, adopting capacity warmed elsewhere
    /// (e.g. by a pooled query workspace).
    pub fn with_scratch(mut self, scratch: DagScratch) -> Self {
        self.scratch = scratch;
        self.scratch.pinned = None;
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
    /// scratch and returns it for reading. This is the per-document probe
    /// at the core of kNDS's EXAMINE step: allocation-free once the
    /// scratch has warmed up.
    pub fn probe(&mut self, doc: &[ConceptId], query: &[ConceptId]) -> &DRadixDag {
        let s = &mut self.scratch;
        let pinned = match s.pinned {
            Some(Side::Query) if s.pin == query => Side::Query,
            Some(Side::Doc) if s.pin == doc => Side::Doc,
            stale => {
                // Pin the argument that repeats: kNDS and the full scan
                // hold `query`; a caller holding `doc` shows on its second
                // probe (`last_doc` is this value's own once it has pinned).
                let repeats_doc = stale.is_some() && s.last_doc == doc;
                let (side, set) = if repeats_doc { (Side::Doc, doc) } else { (Side::Query, query) };
                set.clone_into(&mut s.pin);
                s.dag.pin(self.ontology, self.weights, side, set);
                s.pinned = Some(side);
                side
            }
        };
        doc.clone_into(&mut s.last_doc);
        match pinned {
            Side::Query => s.dag.overlay(self.ontology, self.weights, Side::Doc, doc),
            Side::Doc => s.dag.overlay(self.ontology, self.weights, Side::Query, query),
        }
        let dag = &mut s.dag;
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
    /// sides; normalizers become weight sums.
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

        // Member concepts are materialized by construction; a miss means a
        // corrupt DAG (caught by the debug validators), so the release path
        // degrades to "infinitely far" instead of panicking.
        let mut sum_d2 = 0.0; // Σ_{c ∈ d2} Ddc(d1, c) — distances from d1 side
        let mut norm_d2 = 0.0;
        for &c in d2 {
            let Some(d) = dag.doc_distance(c) else {
                debug_assert!(false, "d2 concept {c:?} missing from the DAG");
                return f64::INFINITY;
            };
            sum_d2 += w(c) * d as f64;
            norm_d2 += w(c);
        }
        let mut sum_d1 = 0.0; // Σ_{c ∈ d1} Ddc(d2, c) — distances from d2 side
        let mut norm_d1 = 0.0;
        for &c in d1 {
            let Some(d) = dag.query_distance(c) else {
                debug_assert!(false, "d1 concept {c:?} missing from the DAG");
                return f64::INFINITY;
            };
            sum_d1 += w(c) * d as f64;
            norm_d1 += w(c);
        }
        // bound: proven — norms sum default-1 weights over non-empty concept sets
        sum_d1 / norm_d1 + sum_d2 / norm_d2
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

    /// Random sorted concept sets over `ont`: one query, `n` documents.
    fn random_sets(ont: &Ontology, seed: u64, n: usize) -> (Vec<ConceptId>, Vec<Vec<ConceptId>>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |n: usize| -> Vec<ConceptId> {
            let mut v: Vec<ConceptId> =
                (0..n).map(|_| ConceptId(rng.random_range(0..ont.len() as u32))).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        (pick(5), (0..n).map(|_| pick(7)).collect())
    }

    #[test]
    fn adopted_scratch_never_serves_a_stale_pin() {
        // A pin is only as good as its ontology and weights. Ontologies A
        // and B issue the same concept ids, so a scratch pinned on `q`
        // under A looks — by content — like a hit to a `Drc` over B, or
        // over A with other weights. Adoption must drop the pin.
        use cbr_ontology::{weighted, GeneratorConfig, OntologyGenerator};
        let gen = |seed| OntologyGenerator::new(GeneratorConfig::small(120).with_seed(seed));
        let (a, b) = (gen(41).generate(), gen(42).generate());
        let w = cbr_ontology::EdgeWeights::from_fn(&a, |p, c| 1 + (p.0.wrapping_add(c.0) % 4));
        let (q, docs) = random_sets(&a, 7, 4);
        let pinned_under_a = || {
            let mut drc = Drc::new(&a);
            for d in &docs {
                drc.document_query_distance(d, &q);
            }
            drc.into_scratch()
        };
        let mut over_b = Drc::new(&b).with_scratch(pinned_under_a());
        let mut reweighted = Drc::with_weights(&a, &w).with_scratch(pinned_under_a());
        for d in &docs {
            assert_eq!(
                over_b.document_query_distance(d, &q),
                crate::brute::document_query_distance(&b, d, &q),
                "distance under B, not the pinned A"
            );
            assert_eq!(
                reweighted.document_query_distance(d, &q),
                weighted::document_query_distance(&a, &w, d, &q),
                "weighted distance, not the pinned unit-weight one"
            );
        }
    }

    #[test]
    fn epoch_wrap_around_keeps_pinned_runs_exact() {
        // Each of the three epochs (slot table, document side, query
        // side) primed to wrap at the pin, at the first overlay and at the
        // second: results must not move. The debug validators inside
        // `probe` check the stamped tables against the arena every time.
        use cbr_ontology::{GeneratorConfig, OntologyGenerator};
        let ont = OntologyGenerator::new(GeneratorConfig::small(120).with_seed(9)).generate();
        let (q, docs) = random_sets(&ont, 11, 5);
        let brute =
            |d: &[ConceptId], q: &[ConceptId]| crate::brute::document_query_distance(&ont, d, q);
        for which in 0..3 {
            for back in 0..3 {
                let mut drc = Drc::new(&ont);
                drc.document_query_distance(&docs[0], &q); // size the tables
                *drc.scratch.dag.epochs_mut()[which] = u32::MAX - back;
                drc.scratch.pinned = None; // the stamps no longer mean anything
                for d in &docs {
                    // `q` pinned, overlays on the document side …
                    assert_eq!(drc.document_query_distance(d, &q), brute(d, &q));
                }
                for d in &docs {
                    // … then `q` pinned as the document, overlays on the
                    // query side.
                    assert_eq!(drc.document_query_distance(&q, d), brute(&q, d));
                }
            }
        }
    }
}
