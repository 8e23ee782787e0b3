//! # concept-rank
//!
//! A production-grade reproduction of **“Efficient Concept-based Document
//! Ranking”** (Arvanitis, Wiley, Hristidis — EDBT 2014): top-k search over
//! documents modeled as sets of ontological concepts, as done for
//! Electronic Medical Records annotated with SNOMED-CT.
//!
//! The library answers the paper's two query types *exactly* and without
//! any distance precomputation:
//!
//! * **RDS** — *relevant document search*: given a set of query concepts,
//!   find the `k` documents minimizing the summed semantic distance from
//!   each query concept to its nearest document concept (Equation 2);
//! * **SDS** — *similar document search*: given a query document, find the
//!   `k` documents minimizing Melton's symmetric inter-patient distance
//!   (Equation 3).
//!
//! Under the hood: Dewey-addressed concept DAGs (`cbr-ontology`), the
//! D-Radix/DRC distance algorithm (`cbr-dradix`, Section 4) and the kNDS
//! branch-and-bound search (`cbr-knds`, Section 5).
//!
//! ## Quickstart
//!
//! ```
//! use concept_rank::{Engine, EngineBuilder};
//! use cbr_ontology::{GeneratorConfig, OntologyGenerator};
//! use cbr_corpus::{CorpusGenerator, CorpusProfile};
//!
//! // A synthetic SNOMED-like ontology and EMR corpus.
//! let ontology = OntologyGenerator::new(GeneratorConfig::small(2_000)).generate();
//! let corpus = CorpusGenerator::new(
//!     &ontology,
//!     CorpusProfile::radio_like().with_num_docs(100).with_mean_concepts(20.0),
//! )
//! .generate();
//!
//! let engine: Engine = EngineBuilder::new().build(ontology, corpus);
//!
//! // RDS: top-5 documents for a 2-concept query.
//! let q: Vec<_> = engine.ontology().concepts().filter(|&c| engine.eligible(c)).take(2).collect();
//! let hits = engine.rds(&q, 5).unwrap();
//! assert_eq!(hits.results.len(), 5);
//!
//! // SDS: top-5 documents most similar to document 0.
//! let sims = engine.sds_by_doc(cbr_corpus::DocId(0), 5).unwrap();
//! assert_eq!(sims.results[0].doc, cbr_corpus::DocId(0)); // itself, at distance 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod expansion;
pub mod explain;
pub mod persist;
pub mod rerank;
pub mod service;
pub mod snapshot;

pub use engine::{Engine, EngineBuilder, EngineError};
pub use expansion::ExpansionConfig;
pub use explain::{ConceptMatch, Explanation};
pub use rerank::{Measure, ScoredDoc};
pub use service::SharedEngine;
pub use snapshot::EngineSnapshot;

pub use cbr_knds::QueryKind;

/// Commonly needed items in one import.
pub mod prelude {
    pub use crate::{Engine, EngineBuilder};
    pub use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile, DocId, Document};
    pub use cbr_knds::{KndsConfig, KndsWorkspace, QueryResult, RankedDoc};
    pub use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
}

// Re-export the component crates for advanced use.
pub use cbr_corpus as corpus;
pub use cbr_dradix as dradix;
pub use cbr_index as index;
pub use cbr_knds as knds;
pub use cbr_ontology as ontology;
