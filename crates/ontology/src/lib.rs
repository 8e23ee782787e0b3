//! Concept-hierarchy DAG substrate for concept-based document ranking.
//!
//! This crate implements the ontology layer that *Efficient Concept-based
//! Document Ranking* (Arvanitis, Wiley, Hristidis — EDBT 2014) builds on:
//!
//! * a rooted, labeled **concept DAG** ([`Ontology`]) representing an `is-a`
//!   hierarchy such as SNOMED-CT (Section 3.1 of the paper);
//! * **Dewey path addresses** for every root-to-concept path, materialized
//!   in a [`PathTable`];
//! * the **valid-path semantic distance** between concepts
//!   ([`concept_distance`]): the length of the shortest path that passes
//!   through a common ancestor of the two concepts (Rada et al., restricted
//!   to ∧-shaped ascend-then-descend paths — Section 3.2);
//! * a calibrated **synthetic ontology generator** ([`generator`])
//!   reproducing the published SNOMED-CT shape statistics (296,433 concepts,
//!   4.53 average children, 9.78 Dewey paths per concept of average length
//!   14.1), used in place of the licence-gated SNOMED-CT release;
//! * the paper's own **Figure 3 fixture** ([`fixture::figure3`]), rebuilt
//!   from the Dewey addresses the paper lists in Table 1, which the test
//!   suites use as an exactness oracle.
//!
//! # Example
//!
//! ```
//! use cbr_ontology::{fixture, concept_distance};
//!
//! let fig3 = fixture::figure3();
//! let ont = &fig3.ontology;
//! let paths = ont.path_table();
//!
//! // Section 3.2: D(G, F) is 5, not 2, because a valid path must pass
//! // through a common ancestor (here the root A).
//! let d = concept_distance(&paths, fig3.concept("G"), fig3.concept("F"));
//! assert_eq!(d, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dewey;
pub mod distance;
pub mod dot;
pub mod error;
pub mod fixture;
pub mod generator;
pub mod graph;
pub mod hash;
pub mod ic;
pub mod id;
pub mod stats;
pub mod validate;
pub mod weighted;

pub use dewey::PathTable;
pub use distance::{concept_distance, concept_distance_graph, document_concept_distance};
pub use error::{OntologyError, Result};
pub use generator::{GeneratorConfig, OntologyGenerator};
pub use graph::{Ontology, OntologyBuilder};
pub use hash::{FxHashMap, FxHashSet};
pub use ic::{InformationContent, SemanticSimilarity};
pub use id::ConceptId;
pub use stats::OntologyStats;
pub use validate::OntologyViolation;
pub use weighted::EdgeWeights;
