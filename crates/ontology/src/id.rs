//! Compact concept identifiers.

use std::fmt;

/// Dense identifier of a concept within one [`Ontology`](crate::Ontology).
///
/// Identifiers are assigned contiguously from `0` in insertion order, so they
/// can index directly into per-concept arrays (`Vec<T>` keyed by concept).
/// They are meaningless across different ontologies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptId(pub u32);

impl ConceptId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "concept index overflow");
        ConceptId(index as u32)
    }
}

impl fmt::Debug for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for ConceptId {
    fn from(v: u32) -> Self {
        ConceptId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_index() {
        let id = ConceptId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, ConceptId(42));
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(ConceptId(1) < ConceptId(2));
        assert_eq!(ConceptId(7), ConceptId::from(7));
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ConceptId(3)), "c3");
        assert_eq!(format!("{}", ConceptId(3)), "c3");
    }
}
