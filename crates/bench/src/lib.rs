//! Shared scaffolding for the reproduction harness.
//!
//! The paper's evaluation (Section 6) runs over two MIMIC-II collections —
//! PATIENT (dense, clustered) and RADIO (sparse, dispersed) — linked to
//! SNOMED-CT, with 100 random queries per data point (5,000 random query
//! documents for the distance-calculation experiment). [`Workbench`]
//! rebuilds that setting over the synthetic substitutes at a configurable
//! [`Scale`], and the helpers below time workloads with the same
//! time-bucket split the paper plots (distance calculation, graph
//! traversal, index I/O).
//!
//! One instrument per job: the `repro` binary of this crate redraws the
//! paper's tables and figures, and `perfbench/` (a package of its own,
//! run through `BENCHMARK.json`) is the only thing a performance claim
//! may cite. [`json`] is here because `perfbench` reads and writes its
//! reports with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use cbr_corpus::{ConceptFilter, Corpus, CorpusGenerator, CorpusProfile, DocId, FilterConfig};
use cbr_index::SegmentedView;
use cbr_knds::QueryMetrics;
use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Experiment sizing. The paper's full scale is expensive in wall-clock;
/// the default is a faithful reduction (collection shapes preserved, sizes
/// scaled) that completes a full reproduction run in minutes.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Ontology size (paper: 296,433 SNOMED-CT concepts).
    pub ontology_concepts: usize,
    /// PATIENT collection: documents (paper: 983).
    pub patient_docs: usize,
    /// PATIENT collection: mean concepts/document (paper: 706.6).
    pub patient_concepts: f64,
    /// RADIO collection: documents (paper: 12,373).
    pub radio_docs: usize,
    /// RADIO collection: mean concepts/document (paper: 125.3).
    pub radio_concepts: f64,
    /// Queries per data point (paper: 100; 5,000 for Figure 6).
    pub queries_per_point: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Scale {
    /// The session-friendly default: ~1/6 of the paper on each axis.
    pub fn small() -> Scale {
        Scale {
            ontology_concepts: 20_000,
            patient_docs: 160,
            patient_concepts: 120.0,
            radio_docs: 2_000,
            radio_concepts: 40.0,
            queries_per_point: 12,
            seed: 0xBEEF,
        }
    }

    /// A micro scale for smoke runs and tests.
    pub fn micro() -> Scale {
        Scale {
            ontology_concepts: 4_000,
            patient_docs: 60,
            patient_concepts: 60.0,
            radio_docs: 400,
            radio_concepts: 20.0,
            queries_per_point: 5,
            seed: 0xBEEF,
        }
    }

    /// The paper's published sizes. Expect long runtimes — the paper's own
    /// baseline needed 104 s for a single PATIENT query on its hardware.
    pub fn paper() -> Scale {
        Scale {
            ontology_concepts: 296_433,
            patient_docs: 983,
            patient_concepts: 706.6,
            radio_docs: 12_373,
            radio_concepts: 125.3,
            queries_per_point: 100,
            seed: 0xBEEF,
        }
    }
}

/// One ready-to-query collection.
pub struct Collection {
    /// "PATIENT" or "RADIO".
    pub name: &'static str,
    /// The filtered corpus.
    pub corpus: Corpus,
    /// The index over it: a static one-segment view.
    pub source: SegmentedView,
    /// The collection's default error threshold, chosen — as the paper
    /// chose its 0.5/0.9 — from the Figure 7 sensitivity analysis run *on
    /// this data*: 0.5 for both collections here (our traversal-vs-DRC
    /// cost ratio differs from the Java/MySQL prototype's; see
    /// EXPERIMENTS.md).
    pub default_eps: f64,
    /// Concepts eligible as query terms (depth-filtered, present in the
    /// corpus), the sampling pool for random queries.
    pub query_pool: Vec<ConceptId>,
    /// Per-document cohort labels from the generator (synthetic relevance
    /// judgments for the effectiveness report).
    pub cohorts: Vec<u32>,
    /// Statistics of the corpus *before* the Section 6.1 thresholds —
    /// what the paper's Table 3 describes.
    pub raw_stats: cbr_corpus::CorpusStats,
}

/// The full experimental setting: one ontology, two collections.
pub struct Workbench {
    /// The SNOMED-shaped ontology.
    pub ontology: Ontology,
    /// PATIENT and RADIO.
    pub collections: Vec<Collection>,
    /// The scale used.
    pub scale: Scale,
}

impl Workbench {
    /// Builds the setting: generate ontology + both corpora, apply the
    /// Section 6.1 filters, build indexes. Deterministic per scale.
    pub fn build(scale: Scale) -> Workbench {
        let ontology =
            OntologyGenerator::new(GeneratorConfig::snomed_like(scale.ontology_concepts))
                .generate();

        let mut collections = Vec::new();
        let profiles = [
            (
                "PATIENT",
                CorpusProfile::patient_like()
                    .with_num_docs(scale.patient_docs)
                    .with_mean_concepts(scale.patient_concepts),
                0.5,
            ),
            (
                "RADIO",
                CorpusProfile::radio_like()
                    .with_num_docs(scale.radio_docs)
                    .with_mean_concepts(scale.radio_concepts),
                0.5,
            ),
        ];
        for (name, profile, default_eps) in profiles {
            let (raw, cohorts) = CorpusGenerator::new(&ontology, profile).generate_with_cohorts();
            let raw_stats = cbr_corpus::CorpusStats::compute(&raw);
            let filter = ConceptFilter::build(&ontology, &raw, FilterConfig::default());
            let corpus = filter.apply(&raw);
            let source = SegmentedView::from_corpus(&corpus);
            let mut pool: Vec<ConceptId> = Vec::new();
            let mut seen = cbr_ontology::FxHashSet::default();
            for d in corpus.documents() {
                for &c in d.concepts() {
                    if seen.insert(c) {
                        pool.push(c);
                    }
                }
            }
            pool.sort_unstable();
            collections.push(Collection {
                name,
                corpus,
                source,
                default_eps,
                query_pool: pool,
                cohorts,
                raw_stats,
            });
        }
        Workbench { ontology, collections, scale }
    }

    /// The named collection.
    pub fn collection(&self, name: &str) -> &Collection {
        self.collections
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no collection named {name}"))
    }
}

impl Collection {
    /// `n` random RDS queries of `nq` concepts each, drawn from the query
    /// pool (Section 6.2: "randomly generated queries").
    pub fn rds_queries(&self, n: usize, nq: usize, seed: u64) -> Vec<Vec<ConceptId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut q: Vec<ConceptId> = (0..nq)
                    .map(|_| self.query_pool[rng.random_range(0..self.query_pool.len())])
                    .collect();
                q.sort_unstable();
                q.dedup();
                q
            })
            .collect()
    }

    /// `n` random SDS query documents "randomly picked from the corpus"
    /// (Section 6.2), skipping empty ones.
    pub fn sds_queries(&self, n: usize, seed: u64) -> Vec<Vec<ConceptId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let nonempty: Vec<DocId> =
            self.corpus.documents().filter(|d| d.num_concepts() > 0).map(|d| d.id()).collect();
        (0..n)
            .map(|_| {
                let d = nonempty[rng.random_range(0..nonempty.len())];
                self.corpus.get(d).concepts().to_vec()
            })
            .collect()
    }

    /// Random query documents of exactly `nq` concepts (the Figure 6
    /// workload: "5000 randomly generated query documents with nq concepts
    /// each").
    pub fn query_documents(&self, n: usize, nq: usize, seed: u64) -> Vec<Vec<ConceptId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut q = cbr_ontology::FxHashSet::default();
                while q.len() < nq.min(self.query_pool.len()) {
                    q.insert(self.query_pool[rng.random_range(0..self.query_pool.len())]);
                }
                let mut v: Vec<ConceptId> = q.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect()
    }
}

/// Aggregated timings over a workload, split into the paper's buckets.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Mean total per query.
    pub total: Duration,
    /// Mean exact-distance time per query.
    pub distance_calc: Duration,
    /// Mean traversal time per query.
    pub traversal: Duration,
    /// Mean index-access time per query.
    pub io: Duration,
    /// Mean documents examined per query.
    pub docs_examined: f64,
    /// Mean exact probes per query.
    pub drc_calls: f64,
    /// Mean fraction of examined documents that entered the top-k.
    pub examination_precision: f64,
    /// 95th-percentile per-query total.
    pub p95: Duration,
}

impl Timing {
    /// Averages per-query metrics.
    pub fn from_metrics(metrics: &[QueryMetrics], k: usize) -> Timing {
        let n = metrics.len().max(1) as u32;
        let mut acc = QueryMetrics::default();
        let mut precision = 0.0;
        let mut totals: Vec<Duration> = metrics.iter().map(|m| m.total()).collect();
        totals.sort_unstable();
        let p95 = match totals.len() {
            0 => Duration::ZERO,
            len => totals[((len - 1) as f64 * 0.95).round() as usize],
        };
        for m in metrics {
            acc.accumulate(m);
            precision += m.examination_precision(k);
        }
        let docs_examined = acc.docs_examined as f64 / n as f64;
        let drc_calls = acc.drc_calls as f64 / n as f64;
        let avg = acc.averaged(n);
        Timing {
            total: avg.total(),
            distance_calc: avg.distance_calc,
            traversal: avg.traversal,
            io: avg.io,
            docs_examined,
            drc_calls,
            examination_precision: precision / n as f64,
            p95,
        }
    }

    /// Milliseconds of the mean total (for table printing).
    pub fn ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3
    }
}

/// Fixed-width table printer for the repro reports.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Formats a duration as adaptive ms/µs text.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 10_000.0 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{us:.0} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_workbench_builds() {
        let wb = Workbench::build(Scale::micro());
        assert_eq!(wb.collections.len(), 2);
        let patient = wb.collection("PATIENT");
        assert_eq!(patient.corpus.len(), 60);
        assert!(!patient.query_pool.is_empty());
        let radio = wb.collection("RADIO");
        assert_eq!(radio.corpus.len(), 400);
    }

    #[test]
    fn workloads_are_deterministic() {
        let wb = Workbench::build(Scale::micro());
        let c = wb.collection("RADIO");
        assert_eq!(c.rds_queries(3, 5, 1), c.rds_queries(3, 5, 1));
        assert_ne!(c.rds_queries(3, 5, 1), c.rds_queries(3, 5, 2));
        let qd = c.query_documents(2, 7, 3);
        assert!(qd.iter().all(|q| q.len() == 7));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("long-name"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    fn fmt_duration_switches_units() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500 µs");
        assert_eq!(fmt_duration(Duration::from_millis(25)), "25.0 ms");
    }

    #[test]
    fn timing_aggregates() {
        let m = QueryMetrics {
            distance_calc: Duration::from_millis(4),
            drc_calls: 2,
            docs_examined: 10,
            ..Default::default()
        };
        let t = Timing::from_metrics(&[m.clone(), m], 5);
        assert_eq!(t.distance_calc, Duration::from_millis(4));
        assert_eq!(t.drc_calls, 2.0);
        assert_eq!(t.examination_precision, 0.5);
        assert_eq!(t.p95, Duration::from_millis(4));
    }
}
