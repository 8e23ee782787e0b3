//! The D-Radix DAG and the DRC distance-calculation algorithm.
//!
//! This crate implements the first core contribution of *Efficient
//! Concept-based Document Ranking* (Section 4): computing the
//! document-query distance (Equation 2) and the symmetric
//! document-document distance (Equation 3) in
//! `O((|Pq| + |Pd|) · log(|Pq| + |Pd|))` instead of the quadratic
//! per-concept-pair baseline.
//!
//! * [`DRadixDag`] — Definition 3's index: a path-compressed radix
//!   structure over the Dewey addresses of the document ∪ query concepts.
//!   Because every Dewey prefix identifies a unique ontology node, radix
//!   nodes are identified by [`ConceptId`](cbr_ontology::ConceptId); a concept reachable over
//!   several root paths is a single node with several parent edges.
//! * [`Drc`] — the DRC algorithm: construction (Algorithm 1 +
//!   Function InsertPath), distance tuning (one bottom-up and one top-down
//!   relaxation pass, Equation 4), and the final aggregation for RDS and
//!   SDS queries.
//! * [`brute`] — the BL baseline of Section 6.2: per-pair minimum concept
//!   distances, quadratic in the concept counts. Used both as the
//!   experimental comparator (Figure 6) and as the test oracle.
//!
//! ```
//! use cbr_ontology::fixture;
//! use cbr_dradix::Drc;
//!
//! let fig3 = fixture::figure3();
//! // `Drc` owns a reusable DAG scratch, so distance calls take `&mut`.
//! let mut drc = Drc::new(&fig3.ontology);
//! // Example 1 of the paper: Ddq(d, q) = 4 + 2 + 1 = 7.
//! let d = fig3.example_document();
//! let q = fig3.example_query();
//! assert_eq!(drc.document_query_distance(&d, &q), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod dag;
pub mod drc;

pub use dag::{DRadixDag, DagStats, DagViolation, DagWork};
pub use drc::{DagScratch, Drc};

/// Sentinel for "distance not defined" (empty document or query in a
/// normalized document-document distance).
pub const INFINITE: u64 = u64::MAX;
