//! The four workloads and everything derived from `--seed`.
//!
//! A workload is a [`Spec`] plus a seed. The spec fixes the collection —
//! ontology and corpus come from the generators' own default seeds, the
//! way a dataset is fixed — and the sizes of the operation lists. The seed
//! derives every operation: the queries, the appended documents and the
//! removal victims. Latency over one collection depends heavily on which
//! collection it is (p90 of `patient_sds` moved 300–530 ms across
//! generated collections here), so a per-seed collection would bury a 10 %
//! regression under between-collection spread; a per-seed operation list
//! over one collection does not. The engine under test sees only the
//! generated inputs. Every query draws on concepts the snapshot accepts
//! and on non-empty live documents, so no operation fails by construction.

use cbr_corpus::{CorpusGenerator, CorpusProfile, DocId};
use cbr_index::IndexSource;
use cbr_knds::KndsConfig;
use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
use concept_rank::{EngineBuilder, EngineSnapshot, SharedEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's default result count.
pub const K: usize = 10;
/// Seed of the recorded baseline; `baseline.json` stores its digests.
pub const DEFAULT_SEED: u64 = 2014;
/// Uncounted calls before the timed loop.
pub const WARMUP_CALLS: usize = 20;
/// Concepts per appended document (the `scale` bench's EMR feed).
pub const APPEND_CONCEPTS: usize = 24;
/// Open-loop append rate of the write script: the issue's 2,000/s on
/// 500,000 documents, brought down with the collection (see
/// [`SCALE_DOCS`]) so that a run still adds about a tenth to it. Every
/// query still meets several new epochs.
pub const WRITES_PER_SEC: u64 = 500;
/// One `remove_document` per this many appends.
pub const REMOVE_EVERY: usize = 7;
/// `compact()` calls a write script spreads evenly over its appends.
pub const COMPACTIONS: usize = 8;
/// Documents of the `scale_*` collection. The issue sized it at 500,000,
/// where a query takes 55 ms and walks memory the caches do not hold;
/// on the shared host that checks this benchmark ten runs of the same
/// code then spread by 25–44 % of their median. What a neighbour's
/// memory traffic adds to `query_p50_ms` fell with the collection here
/// (one thrashing thread on the other core: +5.8 % at 500,000, +3.7 % at
/// 250,000, +0.7 % at 100,000), and a 10 ms query lets a run repeat the
/// whole list four or five times and report per-query medians over the
/// passes.
pub const SCALE_DOCS: usize = 100_000;

/// Which public query call a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `SharedEngine::sds_by_doc` over non-empty collection documents.
    SdsByDoc,
    /// `SharedEngine::rds` over `nq` distinct eligible concepts.
    Rds {
        /// Query size.
        nq: usize,
    },
}

/// How results are checked before the timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Compare against `EngineSnapshot::{rds,sds}_full_scan` to the bit.
    FullScan,
    /// Too large to scan: recompute returned distances by brute force and
    /// check this many sampled live non-returned documents are no closer.
    Sampled(usize),
}

/// Corpus shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `CorpusProfile::patient_like()` at `docs` × `mean` concepts.
    Patient {
        /// Documents.
        docs: usize,
        /// Mean concepts per document.
        mean: f64,
    },
    /// `CorpusProfile::radio_like()` at `docs` × `mean` concepts.
    Radio {
        /// Documents.
        docs: usize,
        /// Mean concepts per document.
        mean: f64,
    },
    /// `CorpusProfile::radio_scale(docs)`, ontology sized as `scale.rs` does.
    RadioScale {
        /// Documents.
        docs: usize,
    },
}

/// One workload: the collection and the operation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Ontology size; 0 sizes it from the corpus vocabulary.
    pub ontology_concepts: usize,
    /// Corpus shape.
    pub shape: Shape,
    /// kNDS error threshold εθ.
    pub eps: f64,
    /// The query call.
    pub kind: QueryKind,
    /// Length of the seeded query list; one pass runs all of it.
    pub queries: usize,
    /// Prefix of the query list the traced run decomposes.
    pub traced_queries: usize,
    /// Oracle queries checked before the timed loop.
    pub oracle_queries: usize,
    /// How they are checked.
    pub oracle: OracleKind,
    /// Whether the write script runs beside the reader (`scale_mixed`) or
    /// after it.
    pub concurrent_writer: bool,
    /// Appends in the write script: on `scale_mixed` 10,000, which at
    /// [`WRITES_PER_SEC`] last the 20 s a run measures, with a compaction
    /// every 2.5 s (the issue's script had one every 2 s). The other
    /// workloads are read-only, but the driver takes "every `end_to_end`
    /// metric" from every workload and none may read 0, so they replay a
    /// shorter script once their reads are done.
    pub appends: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub fn specs() -> Vec<Spec> {
    let scale = Spec {
        name: "scale_rds",
        ontology_concepts: 0,
        shape: Shape::RadioScale { docs: SCALE_DOCS },
        eps: 0.9,
        kind: QueryKind::Rds { nq: 4 },
        // 400 and not the 200 a p90 needs: with the host quiet, what ten
        // seeds differed by was which 200 queries they drew (p50 8.7 to
        // 10.1 ms across seeds, 9.6 to 9.9 ms over five runs of one). A
        // run still replays the list five times.
        queries: 400,
        traced_queries: 40,
        oracle_queries: 16,
        oracle: OracleKind::Sampled(2_000),
        concurrent_writer: false,
        appends: 4_096,
    };
    vec![
        Spec {
            name: "patient_sds",
            ontology_concepts: 60_000,
            shape: Shape::Patient { docs: 300, mean: 200.0 },
            eps: 0.5,
            kind: QueryKind::SdsByDoc,
            queries: 200,
            traced_queries: 30,
            oracle_queries: 4,
            oracle: OracleKind::FullScan,
            concurrent_writer: false,
            appends: 4_096,
        },
        Spec {
            name: "radio_rds",
            ontology_concepts: 60_000,
            shape: Shape::Radio { docs: 8_000, mean: 80.0 },
            eps: 0.5,
            kind: QueryKind::Rds { nq: 5 },
            queries: 1_000,
            traced_queries: 400,
            oracle_queries: 4,
            oracle: OracleKind::FullScan,
            concurrent_writer: false,
            appends: 4_096,
        },
        Spec { name: "scale_mixed", concurrent_writer: true, appends: 10_000, ..scale.clone() },
        scale,
    ]
}

/// SplitMix64 step: independent sub-seeds from one `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Spec {
    /// The workload named `name`.
    pub fn named(name: &str) -> Option<Spec> {
        specs().into_iter().find(|s| s.name == name)
    }

    /// The `--smoke` variant: same shape, ≤ 3,000 documents and ≤ 20
    /// operations of each kind.
    pub fn micro(&self) -> Spec {
        let shape = match self.shape {
            Shape::Patient { .. } => Shape::Patient { docs: 60, mean: 40.0 },
            Shape::Radio { .. } => Shape::Radio { docs: 400, mean: 20.0 },
            Shape::RadioScale { .. } => Shape::RadioScale { docs: 3_000 },
        };
        Spec {
            ontology_concepts: if self.ontology_concepts == 0 { 0 } else { 4_000 },
            shape,
            queries: 20,
            traced_queries: 10,
            oracle_queries: 4,
            oracle: match self.oracle {
                OracleKind::FullScan => OracleKind::FullScan,
                OracleKind::Sampled(_) => OracleKind::Sampled(200),
            },
            appends: 20,
            ..self.clone()
        }
    }

    /// The collection's corpus profile.
    pub fn profile(&self) -> CorpusProfile {
        match self.shape {
            Shape::Patient { docs, mean } => {
                CorpusProfile::patient_like().with_num_docs(docs).with_mean_concepts(mean)
            }
            Shape::Radio { docs, mean } => {
                CorpusProfile::radio_like().with_num_docs(docs).with_mean_concepts(mean)
            }
            Shape::RadioScale { docs } => CorpusProfile::radio_scale(docs),
        }
    }

    /// The collection's ontology configuration.
    pub fn ontology_config(&self) -> GeneratorConfig {
        let concepts = if self.ontology_concepts == 0 {
            // Headroom above the sampling vocabulary, as `scale.rs` sizes it.
            (self.profile().vocabulary_size * 3 / 2).max(8_000)
        } else {
            self.ontology_concepts
        };
        GeneratorConfig::snomed_like(concepts)
    }

    /// One `compact()` per this many appends, [`COMPACTIONS`] a script.
    pub fn compact_every(&self) -> usize {
        (self.appends / COMPACTIONS).max(1)
    }

    /// The engine configuration.
    pub fn knds_config(&self) -> KndsConfig {
        KndsConfig::default().with_error_threshold(self.eps)
    }

    /// The ontology with its path table materialized.
    pub fn generate_ontology(&self) -> Ontology {
        let ontology = OntologyGenerator::new(self.ontology_config()).generate();
        let _ = ontology.path_table();
        ontology
    }

    /// Set-up as a user pays it: ontology, path table, corpus, engine.
    pub fn build_engine(&self) -> SharedEngine {
        let ontology = self.generate_ontology();
        let corpus = CorpusGenerator::new(&ontology, self.profile()).generate();
        let engine = EngineBuilder::new().knds_config(self.knds_config()).build(ontology, corpus);
        SharedEngine::new(engine)
    }
}

/// One read operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `rds(concepts, K)`.
    Rds(Vec<ConceptId>),
    /// `sds_by_doc(doc, K)`.
    SdsByDoc(DocId),
}

/// One write operation of the script, in replay order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// `add_document(concepts)`.
    Append(Vec<ConceptId>),
    /// `remove_document` of the `n`-th still-live appended document.
    RemoveAppended(usize),
    /// `compact()`.
    Compact,
}

/// Distinct eligible concepts of the bulk corpus, sorted, capped at
/// `limit`: the query and append vocabulary. The `scale` bench has the
/// same generator without the eligibility filter, inside its binary
/// where nothing can call it; one copy in the `cbr_bench` library should
/// replace both once a change may edit that crate.
pub fn concept_pool(snapshot: &EngineSnapshot, limit: usize) -> Vec<ConceptId> {
    let mut seen = cbr_ontology::FxHashSet::default();
    let mut pool = Vec::new();
    for d in snapshot.corpus().documents() {
        for &c in d.concepts() {
            if snapshot.eligible(c) && seen.insert(c) {
                pool.push(c);
            }
        }
        if pool.len() >= limit {
            break;
        }
    }
    pool.sort_unstable();
    pool
}

/// `nq` distinct pool concepts, sorted.
fn draw_concepts(pool: &[ConceptId], nq: usize, rng: &mut StdRng) -> Vec<ConceptId> {
    let mut q: Vec<ConceptId> = Vec::with_capacity(nq);
    while q.len() < nq.min(pool.len()) {
        let c = pool[rng.random_range(0..pool.len())];
        if !q.contains(&c) {
            q.push(c);
        }
    }
    q.sort_unstable();
    q
}

/// The seeded query list of a workload.
pub fn make_queries(
    spec: &Spec,
    snapshot: &EngineSnapshot,
    pool: &[ConceptId],
    seed: u64,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    match spec.kind {
        QueryKind::Rds { nq } => {
            assert!(pool.len() >= nq, "concept pool too small to form queries");
            (0..spec.queries).map(|_| Query::Rds(draw_concepts(pool, nq, &mut rng))).collect()
        }
        QueryKind::SdsByDoc => {
            let source = snapshot.source();
            let docs: Vec<DocId> = (0..source.num_docs())
                .map(DocId::from_index)
                .filter(|&d| source.is_live(d) && source.doc_len(d) > 0)
                .collect();
            assert!(!docs.is_empty(), "no non-empty live document to query by");
            // Without replacement while the collection lasts: a seeded
            // shuffle, cycled if the list is longer than the collection.
            let mut docs = docs;
            for i in (1..docs.len()).rev() {
                docs.swap(i, rng.random_range(0..=i));
            }
            (0..spec.queries).map(|i| Query::SdsByDoc(docs[i % docs.len()])).collect()
        }
    }
}

/// The seeded write script: `appends` appends, one removal of an earlier
/// append per [`REMOVE_EVERY`], one compaction per `compact_every` and
/// one at the end if the last appends are not compacted yet.
pub fn make_write_script(
    pool: &[ConceptId],
    appends: usize,
    compact_every: usize,
    seed: u64,
) -> Vec<WriteOp> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let mut ops = Vec::with_capacity(appends + appends / REMOVE_EVERY + 2);
    let mut live = 0usize;
    for i in 1..=appends {
        ops.push(WriteOp::Append(draw_concepts(pool, APPEND_CONCEPTS, &mut rng)));
        live += 1;
        if i.is_multiple_of(REMOVE_EVERY) {
            ops.push(WriteOp::RemoveAppended(rng.random_range(0..live)));
            live -= 1;
        }
        if i.is_multiple_of(compact_every) {
            ops.push(WriteOp::Compact);
        }
    }
    if !appends.is_multiple_of(compact_every) {
        ops.push(WriteOp::Compact);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same operations; another seed, other operations; and
    /// nothing generated can fail: concepts are eligible, documents live
    /// and non-empty, removal victims in range.
    #[test]
    fn operations_come_from_the_seed_alone() {
        for spec in specs() {
            let spec = spec.micro();
            let shared = spec.build_engine();
            let snapshot = shared.snapshot();
            let pool = concept_pool(&snapshot, 50_000);
            let queries = make_queries(&spec, &snapshot, &pool, 1);
            assert_eq!(queries, make_queries(&spec, &snapshot, &pool, 1), "{}", spec.name);
            assert_ne!(queries, make_queries(&spec, &snapshot, &pool, 2), "{}", spec.name);
            assert_eq!(queries.len(), spec.queries);
            for query in &queries {
                match query {
                    Query::Rds(concepts) => {
                        assert!(concepts.iter().all(|&c| snapshot.eligible(c)));
                        assert!(concepts.windows(2).all(|w| w[0] < w[1]), "distinct and sorted");
                    }
                    Query::SdsByDoc(d) => {
                        assert!(snapshot.is_live(*d) && snapshot.source().doc_len(*d) > 0);
                    }
                }
            }

            let script = make_write_script(&pool, 40, 16, 1);
            assert_eq!(script, make_write_script(&pool, 40, 16, 1));
            assert_ne!(script, make_write_script(&pool, 40, 16, 2));
            let mut live = 0usize;
            for op in &script {
                match op {
                    WriteOp::Append(c) => {
                        assert_eq!(c.len(), APPEND_CONCEPTS.min(pool.len()));
                        live += 1;
                    }
                    WriteOp::RemoveAppended(n) => {
                        assert!(*n < live, "victim must be a live appended document");
                        live -= 1;
                    }
                    WriteOp::Compact => {}
                }
            }
            assert_eq!(script.last(), Some(&WriteOp::Compact), "every script compacts");
        }
    }

    #[test]
    fn micro_sizes_stay_within_the_smoke_limits() {
        for spec in specs() {
            let micro = spec.micro();
            assert!(micro.profile().num_docs <= 3_000);
            assert!(micro.queries <= 20 && micro.appends <= 20);
            assert_eq!(micro.kind, spec.kind);
        }
    }
}
