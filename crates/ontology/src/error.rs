//! Error types for ontology construction and lookup.

use crate::ConceptId;
use std::fmt;

/// Convenience alias for fallible ontology operations.
pub type Result<T> = std::result::Result<T, OntologyError>;

/// Errors produced while building or querying an [`Ontology`](crate::Ontology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// An edge referenced a concept id that was never declared.
    UnknownConcept(ConceptId),
    /// A concept label was looked up but does not exist.
    UnknownLabel(String),
    /// The declared edges contain a directed cycle, so the graph is not a DAG.
    CycleDetected,
    /// The graph has no root (a node without parents) or the declared root
    /// cannot reach every concept.
    Disconnected {
        /// Number of concepts unreachable from the root.
        unreachable: usize,
    },
    /// More than one node has no parents; the paper's model (and the Dewey
    /// addressing scheme) requires a single root.
    MultipleRoots(Vec<ConceptId>),
    /// The same edge was declared twice.
    DuplicateEdge(ConceptId, ConceptId),
    /// An empty ontology was requested.
    Empty,
    /// Enumerating Dewey addresses exceeded the configured per-concept cap.
    TooManyPaths {
        /// Concept whose address count exceeded the cap.
        concept: ConceptId,
        /// The configured cap.
        cap: usize,
    },
    /// The Dewey path table would not fit its index widths: more than
    /// `u32::MAX` addresses or components in all, or an address longer
    /// than `u16::MAX` components.
    PathTableTooLarge {
        /// What the table would hold too many of.
        what: &'static str,
        /// How many the ontology needs (saturating at `u64::MAX`).
        needed: u64,
        /// The most the table can index.
        limit: u64,
    },
    /// A Dewey address did not resolve to a node (component out of range).
    BadDeweyAddress(String),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::UnknownConcept(c) => write!(f, "unknown concept {c}"),
            OntologyError::UnknownLabel(l) => write!(f, "unknown concept label {l:?}"),
            OntologyError::CycleDetected => write!(f, "concept graph contains a cycle"),
            OntologyError::Disconnected { unreachable } => {
                write!(f, "{unreachable} concepts unreachable from the root")
            }
            OntologyError::MultipleRoots(roots) => {
                write!(f, "ontology has {} parentless nodes: {roots:?}", roots.len())
            }
            OntologyError::DuplicateEdge(p, c) => write!(f, "duplicate edge {p} -> {c}"),
            OntologyError::Empty => write!(f, "ontology has no concepts"),
            OntologyError::TooManyPaths { concept, cap } => {
                write!(f, "concept {concept} has more than {cap} Dewey addresses")
            }
            OntologyError::PathTableTooLarge { what, needed, limit } => {
                write!(f, "Dewey path table needs {needed} {what}, past its limit of {limit}")
            }
            OntologyError::BadDeweyAddress(a) => write!(f, "Dewey address {a} does not resolve"),
        }
    }
}

impl std::error::Error for OntologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OntologyError::UnknownConcept(ConceptId(9));
        assert!(e.to_string().contains("c9"));
        let e = OntologyError::TooManyPaths { concept: ConceptId(1), cap: 32 };
        assert!(e.to_string().contains("32"));
        let e = OntologyError::Disconnected { unreachable: 3 };
        assert!(e.to_string().contains('3'));
    }
}
