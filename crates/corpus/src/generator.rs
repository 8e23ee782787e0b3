//! Synthetic EMR corpora calibrated to the paper's two collections.
//!
//! The experiments of Section 6 run over two MIMIC-II-derived corpora whose
//! shapes (Table 3) drive every finding:
//!
//! * **PATIENT** — 983 documents (one per patient, all note types merged),
//!   ~706.6 concepts per document, concepts **densely clustered** in the
//!   ontology. Consequences measured by the paper: DRC dominates query
//!   time, and the best error threshold is `εθ = 0`.
//! * **RADIO** — 12,373 radiology reports, ~125.3 concepts per document,
//!   concepts **sparsely dispersed**. Consequences: traversal dominates,
//!   and large error thresholds (≈0.9) win.
//!
//! MIMIC-II sits behind a data-use agreement, so [`CorpusGenerator`]
//! synthesizes collections with the same knobs: document count, concepts
//! per document, and ontological clustering. Clustering is produced by
//! sampling per-document cluster centers and random-walking a few `is-a`
//! edges around them; dispersion is produced by uniform sampling.
//!
//! Generation is deterministic: each document derives its RNG from
//! `(profile.seed, doc_index)`, so multi-threaded generation (used for the
//! larger RADIO-like corpora) yields bit-identical corpora.

use crate::document::{Corpus, DocId, Document};
use cbr_ontology::{ConceptId, Ontology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for a synthetic collection.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusProfile {
    /// Collection name used in reports ("PATIENT", "RADIO", …).
    pub name: String,
    /// Number of documents.
    pub num_docs: usize,
    /// Mean distinct concepts per document.
    pub concepts_per_doc_mean: f64,
    /// Relative half-width of the per-document size band: sizes are drawn
    /// uniformly from `mean·(1±spread)`.
    pub size_spread: f64,
    /// Probability that a concept is drawn near a cluster center instead of
    /// uniformly — 0 is fully dispersed, 1 fully clustered.
    pub clustering: f64,
    /// Cluster centers per document.
    pub clusters_per_doc: usize,
    /// Maximum random-walk steps away from a cluster center.
    pub cluster_walk_len: u32,
    /// Mean source-text tokens per concept (drives the Table 3 token
    /// statistic; PATIENT ≈ 11.6, RADIO ≈ 2.2).
    pub tokens_per_concept: f64,
    /// Only concepts at this depth or deeper are sampled, mirroring the
    /// Section 6.1 depth threshold.
    pub min_depth: u32,
    /// Size of the sampling vocabulary (0 = every eligible concept).
    /// Real clinical corpora draw on a restricted vocabulary — Table 3
    /// reports only 16,811 distinct concepts across all PATIENT documents
    /// against SNOMED-CT's 296k — so the generator samples centers and
    /// uniform draws from a fixed random sub-vocabulary of this size.
    pub vocabulary_size: usize,
    /// Mean documents per **cohort** (0 disables cohorts). Real EMR
    /// collections contain groups of highly similar records — patients with
    /// the same condition, repeat radiology reports — which is what makes
    /// top-k SDS prune well. Documents in one cohort share their cluster
    /// centers, so they land close under the Equation 3 distance.
    pub docs_per_cohort: f64,
    /// Master seed.
    pub seed: u64,
}

impl CorpusProfile {
    /// The PATIENT collection at the paper's full scale (983 documents,
    /// ~706.6 concepts each, strongly clustered).
    pub fn patient_like() -> Self {
        CorpusProfile {
            name: "PATIENT".to_string(),
            num_docs: 983,
            concepts_per_doc_mean: 706.6,
            size_spread: 0.5,
            clustering: 0.9,
            clusters_per_doc: 24,
            cluster_walk_len: 4,
            tokens_per_concept: 11.6,
            min_depth: 4,
            vocabulary_size: 16_811,
            docs_per_cohort: 10.0,
            seed: 0xC0FF_EE01,
        }
    }

    /// The RADIO collection at the paper's full scale (12,373 documents,
    /// ~125.3 concepts each, weakly clustered).
    pub fn radio_like() -> Self {
        CorpusProfile {
            name: "RADIO".to_string(),
            num_docs: 12_373,
            concepts_per_doc_mean: 125.3,
            size_spread: 0.6,
            clustering: 0.3,
            clusters_per_doc: 4,
            cluster_walk_len: 2,
            tokens_per_concept: 2.2,
            min_depth: 4,
            vocabulary_size: 8_629,
            docs_per_cohort: 12.0,
            seed: 0xC0FF_EE02,
        }
    }

    /// A RADIO-shaped collection at serving scale: `num_docs` documents
    /// (a million and up) with the paper's sparse-dispersal character but
    /// a leaner per-document concept count, so generation and indexing
    /// stay tractable past paper scale. The sampling vocabulary grows
    /// with the collection — a million radiology reports draw on far more
    /// distinct concepts than Table 3's 12k-report slice — keeping
    /// per-concept posting lists from ballooning linearly with `n`.
    pub fn radio_scale(num_docs: usize) -> Self {
        let base = CorpusProfile::radio_like();
        CorpusProfile {
            name: "RADIO-SCALE".to_string(),
            num_docs,
            concepts_per_doc_mean: 24.0,
            tokens_per_concept: 2.2,
            // Vocabulary ~ n/16, never below the Table 3 RADIO vocabulary.
            vocabulary_size: (num_docs / 16).max(base.vocabulary_size),
            seed: 0xC0FF_EE05,
            ..base
        }
    }

    /// Scales both the document count and the per-document concept count by
    /// `factor` (at least one document and one concept remain). Used for the
    /// session-sized default experiments.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.num_docs = ((self.num_docs as f64 * factor).round() as usize).max(1);
        self.concepts_per_doc_mean = (self.concepts_per_doc_mean * factor).max(1.0);
        self
    }

    /// Overrides the document count.
    pub fn with_num_docs(mut self, n: usize) -> Self {
        self.num_docs = n;
        self
    }

    /// Overrides the mean concepts per document.
    pub fn with_mean_concepts(mut self, mean: f64) -> Self {
        self.concepts_per_doc_mean = mean;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a [`Corpus`] over a given ontology from a [`CorpusProfile`].
#[derive(Debug)]
pub struct CorpusGenerator<'a> {
    ontology: &'a Ontology,
    profile: CorpusProfile,
    eligible: Vec<ConceptId>,
    /// Shared center sets, one per cohort (empty when cohorts are off).
    cohort_centers: Vec<Vec<ConceptId>>,
}

impl<'a> CorpusGenerator<'a> {
    /// Creates a generator. Panics if the ontology has no concept at
    /// `profile.min_depth` or deeper.
    pub fn new(ontology: &'a Ontology, profile: CorpusProfile) -> Self {
        let mut eligible: Vec<ConceptId> =
            ontology.concepts().filter(|&c| ontology.depth(c) >= profile.min_depth).collect();
        assert!(
            !eligible.is_empty(),
            "no concepts at depth >= {} to sample from",
            profile.min_depth
        );
        // Restrict to a fixed random sub-vocabulary (Table 3 fidelity).
        if profile.vocabulary_size > 0 && profile.vocabulary_size < eligible.len() {
            let mut rng = StdRng::seed_from_u64(profile.seed ^ 0x0007_0CAB);
            for i in (1..eligible.len()).rev() {
                eligible.swap(i, rng.random_range(0..=i));
            }
            eligible.truncate(profile.vocabulary_size);
            eligible.sort_unstable();
        }
        // Cohort center sets are derived from the master seed so the whole
        // corpus stays deterministic and per-document generation stays
        // embarrassingly parallel.
        let mut cohort_centers = Vec::new();
        if profile.docs_per_cohort > 0.0 {
            let n_cohorts =
                ((profile.num_docs as f64 / profile.docs_per_cohort).ceil() as usize).max(1);
            let mut rng = StdRng::seed_from_u64(profile.seed ^ 0x00C0_4027);
            for _ in 0..n_cohorts {
                let centers: Vec<ConceptId> = (0..profile.clusters_per_doc.max(1))
                    .map(|_| eligible[rng.random_range(0..eligible.len())])
                    .collect();
                cohort_centers.push(centers);
            }
        }
        CorpusGenerator { ontology, profile, eligible, cohort_centers }
    }

    /// The profile in use.
    pub fn profile(&self) -> &CorpusProfile {
        &self.profile
    }

    /// Generates the corpus, parallelizing across documents when large.
    pub fn generate(&self) -> Corpus {
        self.generate_with_cohorts().0
    }

    /// Like [`CorpusGenerator::generate`], additionally returning each
    /// document's cohort id (`u32::MAX` when cohorts are disabled). The
    /// labels serve as synthetic relevance judgments for effectiveness
    /// evaluation: cohort members were generated from the same cluster
    /// centers, so they are each other's "similar records".
    pub fn generate_with_cohorts(&self) -> (Corpus, Vec<u32>) {
        let n = self.profile.num_docs;
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        if n < 256 || threads == 1 {
            let mut docs = Vec::with_capacity(n);
            let mut cohorts = Vec::with_capacity(n);
            for i in 0..n {
                let (d, c) = self.generate_doc(i);
                docs.push(d);
                cohorts.push(c);
            }
            return (Corpus::new(docs), cohorts);
        }

        let chunk = n.div_ceil(threads);
        let mut slots: Vec<Option<(Document, u32)>> = vec![None; n];
        std::thread::scope(|scope| {
            for (t, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                scope.spawn(move || {
                    for (off, slot) in slot_chunk.iter_mut().enumerate() {
                        *slot = Some(self.generate_doc(start + off));
                    }
                });
            }
        });
        let mut docs = Vec::with_capacity(n);
        let mut cohorts = Vec::with_capacity(n);
        for slot in slots {
            let (d, c) = slot.expect("all slots filled");
            docs.push(d);
            cohorts.push(c);
        }
        (Corpus::new(docs), cohorts)
    }

    /// Generates one document deterministically from `(seed, index)`,
    /// returning it with its cohort id.
    fn generate_doc(&self, index: usize) -> (Document, u32) {
        let p = &self.profile;
        let mut rng =
            StdRng::seed_from_u64(p.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let lo = (p.concepts_per_doc_mean * (1.0 - p.size_spread)).max(1.0);
        let hi = (p.concepts_per_doc_mean * (1.0 + p.size_spread)).max(lo + 1.0);
        let target = rng.random_range(lo..hi).round() as usize;
        let target = target.min(self.eligible.len());

        let (centers, cohort): (Vec<ConceptId>, u32) = if self.cohort_centers.is_empty() {
            let centers = (0..p.clusters_per_doc.max(1))
                .map(|_| self.eligible[rng.random_range(0..self.eligible.len())])
                .collect();
            (centers, u32::MAX)
        } else {
            let cohort = rng.random_range(0..self.cohort_centers.len());
            (self.cohort_centers[cohort].clone(), cohort as u32)
        };

        let mut set = cbr_ontology::FxHashSet::default();
        let mut concepts = Vec::with_capacity(target);
        let max_attempts = target.saturating_mul(24) + 64;
        for _ in 0..max_attempts {
            if concepts.len() >= target {
                break;
            }
            let c = if rng.random::<f64>() < p.clustering {
                let center = centers[rng.random_range(0..centers.len())];
                let end = self.walk_from(center, &mut rng);
                // Walks may step outside the collection vocabulary; keep
                // the center instead so Table 3's distinct-concept count
                // stays calibrated.
                if self.eligible.binary_search(&end).is_ok() {
                    end
                } else {
                    center
                }
            } else {
                self.eligible[rng.random_range(0..self.eligible.len())]
            };
            if set.insert(c) {
                concepts.push(c);
            }
        }

        let tokens = (concepts.len() as f64 * p.tokens_per_concept * rng.random_range(0.8..1.2))
            .round() as u32;
        (Document::new(DocId::from_index(index), concepts, tokens), cohort)
    }

    /// Random walk over `is-a` edges (both directions) of geometric length,
    /// staying at or below the depth threshold and within `cluster_walk_len`
    /// steps.
    fn walk_from(&self, start: ConceptId, rng: &mut StdRng) -> ConceptId {
        let mut cur = start;
        for _ in 0..self.profile.cluster_walk_len {
            if rng.random::<f64>() < 0.5 {
                break;
            }
            let parents = self.ontology.parents(cur);
            let children = self.ontology.children(cur);
            let total = parents.len() + children.len();
            if total == 0 {
                break;
            }
            let pick = rng.random_range(0..total);
            let next =
                if pick < parents.len() { parents[pick] } else { children[pick - parents.len()] };
            if self.ontology.depth(next) < self.profile.min_depth {
                break;
            }
            cur = next;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CorpusStats;
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    fn test_ontology(n: usize) -> Ontology {
        OntologyGenerator::new(GeneratorConfig::small(n)).generate()
    }

    #[test]
    fn generates_requested_count_and_sizes() {
        let ont = test_ontology(2_000);
        let profile = CorpusProfile::radio_like().with_num_docs(50).with_mean_concepts(30.0);
        let corpus = CorpusGenerator::new(&ont, profile).generate();
        assert_eq!(corpus.len(), 50);
        let s = CorpusStats::compute(&corpus);
        assert!(
            (10.0..60.0).contains(&s.avg_concepts_per_doc),
            "avg {} outside band",
            s.avg_concepts_per_doc
        );
        assert!(s.avg_tokens_per_doc > s.avg_concepts_per_doc);
    }

    /// `perfbench` builds `scale_rds`/`scale_mixed` from this profile and
    /// the static audit does not scan `perfbench`, so this test is what
    /// keeps `radio_scale` from reading as a dead export.
    #[test]
    fn radio_scale_is_radio_shaped_and_lean() {
        let radio = CorpusProfile::radio_like();
        let p = CorpusProfile::radio_scale(1_000_000);
        assert_eq!(p.num_docs, 1_000_000);
        assert_eq!(p.vocabulary_size, 62_500, "vocabulary grows with the collection");
        assert_eq!(CorpusProfile::radio_scale(1_000).vocabulary_size, radio.vocabulary_size);
        let shape = |p: &CorpusProfile| {
            (p.clustering, p.clusters_per_doc, p.cluster_walk_len, p.size_spread, p.min_depth)
        };
        assert_eq!(shape(&p), shape(&radio), "sparse and dispersed like RADIO");

        let ont = test_ontology(4_000);
        let corpus = CorpusGenerator::new(&ont, CorpusProfile::radio_scale(2_000)).generate();
        assert_eq!(corpus.len(), 2_000);
        let s = CorpusStats::compute(&corpus);
        assert!(
            (22.0..26.0).contains(&s.avg_concepts_per_doc),
            "avg {} concepts a document, not ≈ 24",
            s.avg_concepts_per_doc
        );
    }

    #[test]
    fn respects_depth_threshold() {
        let ont = test_ontology(2_000);
        let profile = CorpusProfile::patient_like().with_num_docs(20).with_mean_concepts(40.0);
        let corpus = CorpusGenerator::new(&ont, profile).generate();
        for d in corpus.documents() {
            for &c in d.concepts() {
                assert!(ont.depth(c) >= 4, "concept {c} at depth {}", ont.depth(c));
            }
        }
    }

    #[test]
    fn deterministic_across_runs_and_threads() {
        let ont = test_ontology(2_000);
        // 600 documents exercises the parallel path (threshold 256).
        let profile = CorpusProfile::radio_like().with_num_docs(600).with_mean_concepts(10.0);
        let a = CorpusGenerator::new(&ont, profile.clone()).generate();
        let b = CorpusGenerator::new(&ont, profile).generate();
        assert_eq!(a.len(), b.len());
        for (da, db) in a.documents().zip(b.documents()) {
            assert_eq!(da, db);
        }
    }

    #[test]
    fn clustering_reduces_ontological_spread() {
        let ont = test_ontology(3_000);
        let clustered = CorpusProfile {
            clustering: 1.0,
            clusters_per_doc: 2,
            ..CorpusProfile::patient_like().with_num_docs(30).with_mean_concepts(40.0)
        };
        let dispersed = CorpusProfile { clustering: 0.0, ..clustered.clone() };
        let avg_pair_dist = |corpus: &Corpus| {
            let pt = ont.path_table();
            let mut sum = 0u64;
            let mut cnt = 0u64;
            for d in corpus.documents().take(10) {
                let cs = d.concepts();
                for i in (0..cs.len()).step_by(7) {
                    for j in (i + 1..cs.len()).step_by(7) {
                        sum += cbr_ontology::concept_distance(pt, cs[i], cs[j]) as u64;
                        cnt += 1;
                    }
                }
            }
            sum as f64 / cnt as f64
        };
        let dc = avg_pair_dist(&CorpusGenerator::new(&ont, clustered).generate());
        let dd = avg_pair_dist(&CorpusGenerator::new(&ont, dispersed).generate());
        assert!(dc < dd, "clustered corpus ({dc:.2}) should be tighter than dispersed ({dd:.2})");
    }

    #[test]
    fn cohorts_create_similar_document_groups() {
        let ont = test_ontology(3_000);
        let with_cohorts = CorpusProfile::patient_like().with_num_docs(60).with_mean_concepts(30.0);
        let without = CorpusProfile { docs_per_cohort: 0.0, ..with_cohorts.clone() };
        // With cohorts, some document pairs share many concepts; without,
        // overlaps are rare. Measure the best pairwise Jaccard overlap.
        let best_overlap = |corpus: &Corpus| -> f64 {
            let mut best = 0.0f64;
            let docs: Vec<_> = corpus.documents().collect();
            for i in 0..docs.len() {
                for j in i + 1..docs.len() {
                    let a = docs[i].concepts();
                    let b = docs[j].concepts();
                    let inter = a.iter().filter(|c| docs[j].contains(**c)).count();
                    let union = a.len() + b.len() - inter;
                    if union > 0 {
                        best = best.max(inter as f64 / union as f64);
                    }
                }
            }
            best
        };
        let cohorted = best_overlap(&CorpusGenerator::new(&ont, with_cohorts).generate());
        let independent = best_overlap(&CorpusGenerator::new(&ont, without).generate());
        assert!(
            cohorted > independent,
            "cohorts must create near-duplicates: {cohorted:.2} vs {independent:.2}"
        );
        assert!(cohorted > 0.3, "cohort members should overlap strongly ({cohorted:.2})");
    }

    #[test]
    fn scaled_profile_shrinks_both_axes() {
        let p = CorpusProfile::patient_like().scaled(0.1);
        assert_eq!(p.num_docs, 98);
        assert!((p.concepts_per_doc_mean - 70.66).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "no concepts at depth")]
    fn panics_without_deep_concepts() {
        // A 3-concept ontology has nothing at depth >= 4.
        let ont = test_ontology(3);
        CorpusGenerator::new(&ont, CorpusProfile::patient_like());
    }
}
