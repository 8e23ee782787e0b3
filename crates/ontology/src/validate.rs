//! Structural invariant validation for built ontologies.
//!
//! [`OntologyBuilder`](crate::OntologyBuilder) proves single-rootedness,
//! acyclicity, and connectivity at construction; this module re-checks
//! those properties (plus the derived CSR symmetry, topological order,
//! minimum depths, and Dewey address resolution) *after the fact*, so the
//! `cbr-audit` invariant runner and the debug assertions can detect any
//! corruption or codec bug that slips in later — e.g. a snapshot decoded
//! from a tampered file.

use crate::graph::Ontology;
use crate::id::ConceptId;

/// A violated ontology invariant, reported by [`Ontology::validate`] and
/// [`Ontology::validate_paths`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyViolation {
    /// A parent→child edge with no mirror in the other CSR direction.
    AsymmetricEdge {
        /// The edge's parent endpoint.
        parent: ConceptId,
        /// The edge's child endpoint.
        child: ConceptId,
    },
    /// The root has a parent, or a non-root concept has none.
    BadRoot {
        /// The offending concept.
        concept: ConceptId,
    },
    /// The topological order is not a permutation of all concepts, or a
    /// concept's topological rank is not its position in it.
    BadTopoOrder,
    /// A child precedes one of its parents in the topological order.
    TopoOrderViolation {
        /// The parent that should come first.
        parent: ConceptId,
        /// The child that precedes it.
        child: ConceptId,
    },
    /// A stored minimum depth differs from recomputation.
    DepthMismatch {
        /// The affected concept.
        concept: ConceptId,
        /// The depth stored on the ontology.
        stored: u32,
        /// The depth recomputed over the parent edges.
        expected: u32,
    },
    /// A precomputed per-edge Dewey ordinal that does not resolve back to
    /// the edge's child through the parent's child list.
    BadOrdinal {
        /// The edge's parent endpoint.
        parent: ConceptId,
        /// The edge's child endpoint.
        child: ConceptId,
    },
    /// A concept with no Dewey address in the path table.
    MissingAddress {
        /// The concept without addresses.
        concept: ConceptId,
    },
    /// A Dewey address that fails to resolve back to its concept, or that
    /// is shorter than the concept's minimum depth.
    BadAddress {
        /// The concept whose address is inconsistent.
        concept: ConceptId,
    },
}

fn violations(v: Vec<OntologyViolation>) -> Result<(), Vec<OntologyViolation>> {
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

impl Ontology {
    /// Re-checks every structural invariant of a built ontology: CSR
    /// parent/child symmetry, single-rootedness, a valid topological
    /// order covering all concepts, and minimum depths.
    pub fn validate(&self) -> Result<(), Vec<OntologyViolation>> {
        let n = self.len();
        let mut v = Vec::new();

        // CSR symmetry and root/parent structure.
        for c in self.concepts() {
            for &child in self.children(c) {
                if !self.parents(child).contains(&c) {
                    v.push(OntologyViolation::AsymmetricEdge { parent: c, child });
                }
            }
            for &parent in self.parents(c) {
                if !self.children(parent).contains(&c) {
                    v.push(OntologyViolation::AsymmetricEdge { parent, child: c });
                }
            }
            let is_root = c == self.root();
            if self.parents(c).is_empty() != is_root {
                v.push(OntologyViolation::BadRoot { concept: c });
            }
            // Precomputed per-edge ordinals must agree with the child lists.
            for (parent, ordinal) in self.parents_with_ordinals(c) {
                if self.child_at(parent, ordinal) != Some(c) {
                    v.push(OntologyViolation::BadOrdinal { parent, child: c });
                }
            }
        }

        // Topological order: a permutation where parents precede children
        // (which also proves acyclicity and reachability).
        let order = self.topological_order();
        let mut position = vec![usize::MAX; n];
        for (i, &c) in order.iter().enumerate() {
            if let Some(slot) = position.get_mut(c.index()) {
                *slot = i;
            }
        }
        let ranked = self
            .concepts()
            .all(|c| position.get(c.index()).copied() == Some(self.topological_rank(c) as usize));
        if order.len() != n || position.contains(&usize::MAX) || !ranked {
            v.push(OntologyViolation::BadTopoOrder);
        } else {
            for c in self.concepts() {
                for &child in self.children(c) {
                    let (pp, cp) = (position.get(c.index()), position.get(child.index()));
                    if pp >= cp {
                        v.push(OntologyViolation::TopoOrderViolation { parent: c, child });
                    }
                }
            }
            // Minimum depths, recomputed along the (now proven) order.
            let mut expected = vec![u32::MAX; n];
            if let Some(slot) = expected.get_mut(self.root().index()) {
                *slot = 0;
            }
            for &c in order {
                let d = expected.get(c.index()).copied().unwrap_or(u32::MAX);
                for &child in self.children(c) {
                    if let Some(slot) = expected.get_mut(child.index()) {
                        *slot = (*slot).min(d.saturating_add(1));
                    }
                }
            }
            for c in self.concepts() {
                let e = expected.get(c.index()).copied().unwrap_or(u32::MAX);
                if self.depth(c) != e {
                    v.push(OntologyViolation::DepthMismatch {
                        concept: c,
                        stored: self.depth(c),
                        expected: e,
                    });
                }
            }
        }
        violations(v)
    }

    /// Checks the Dewey path table against the graph: every concept owns at
    /// least one address, and every address resolves back to its concept
    /// with a length no shorter than the concept's minimum depth.
    ///
    /// Forces the lazy path table; prefer [`validate`](Self::validate) when
    /// only the graph needs checking.
    pub fn validate_paths(&self) -> Result<(), Vec<OntologyViolation>> {
        let paths = self.path_table();
        let mut v = Vec::new();
        for c in self.concepts() {
            let mut count = 0usize;
            for addr in paths.addresses(c) {
                count += 1;
                let resolves = self.resolve_dewey(addr) == Ok(c);
                if !resolves || (addr.len() as u32) < self.depth(c) {
                    v.push(OntologyViolation::BadAddress { concept: c });
                }
            }
            if count == 0 {
                v.push(OntologyViolation::MissingAddress { concept: c });
            }
        }
        violations(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OntologyBuilder;

    fn diamond() -> Ontology {
        let mut b = OntologyBuilder::new();
        let root = b.add_concept("root");
        let a = b.add_concept("a");
        let bb = b.add_concept("b");
        let leaf = b.add_concept("leaf");
        b.add_edge(root, a).unwrap();
        b.add_edge(root, bb).unwrap();
        b.add_edge(a, leaf).unwrap();
        b.add_edge(bb, leaf).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_ontology_passes_both_suites() {
        let ont = diamond();
        assert_eq!(ont.validate(), Ok(()));
        assert_eq!(ont.validate_paths(), Ok(()));
    }

    #[test]
    fn generated_ontology_passes_both_suites() {
        use crate::{GeneratorConfig, OntologyGenerator};
        let ont = OntologyGenerator::new(GeneratorConfig::small(200).with_seed(7)).generate();
        assert_eq!(ont.validate(), Ok(()));
        assert_eq!(ont.validate_paths(), Ok(()));
    }

    #[test]
    fn corrupted_depth_is_caught() {
        let mut ont = diamond();
        ont.corrupt_depth_for_tests(ConceptId(3));
        let err = ont.validate().unwrap_err();
        assert!(
            err.iter().any(|x| matches!(x, OntologyViolation::DepthMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn corrupted_parent_ordinal_is_caught() {
        let mut ont = diamond();
        ont.corrupt_parent_ordinal_for_tests(ConceptId(3));
        let err = ont.validate().unwrap_err();
        assert!(err.iter().any(|x| matches!(x, OntologyViolation::BadOrdinal { .. })), "{err:?}");
    }

    #[test]
    fn corrupted_topo_order_is_caught() {
        let mut ont = diamond();
        ont.corrupt_topo_order_for_tests();
        let err = ont.validate().unwrap_err();
        assert!(
            err.iter().any(|x| matches!(x, OntologyViolation::TopoOrderViolation { .. })),
            "{err:?}"
        );
    }
}
