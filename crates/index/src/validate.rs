//! Structural validation of the index that is served: its segments and
//! the views over them.
//!
//! Each [`Segment`](crate::Segment) stores two CSR projections of the same
//! documents, so each must be derivable from the other: local document
//! `d` lists concept `c` in the forward rows **iff** `c`'s posting list
//! contains `d`. [`Segment::validate`](crate::Segment::validate) re-checks
//! that equivalence, plus the sorted, deduplicated layout both query
//! algorithms rely on for binary search and merge joins;
//! [`SegmentedView::validate`](crate::SegmentedView::validate) checks that
//! the segments tile the view's id space. Debug builds run the first on
//! every segment they make, and the `cbr-audit` invariant runner runs the
//! second on engines after writes, so a builder or merge bug is caught
//! after the fact. Both report [`IndexViolation`]s.

use cbr_corpus::DocId;
use cbr_ontology::ConceptId;

/// A violated index invariant, reported by
/// [`Segment::validate`](crate::Segment::validate) and
/// [`SegmentedView::validate`](crate::SegmentedView::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexViolation {
    /// A CSR offset array that does not start at 0, is not monotonically
    /// non-decreasing, does not end at the payload length, or (inverted)
    /// does not have one fence post per distinct concept plus one.
    BadOffsets {
        /// Which direction holds the bad offsets.
        forward: bool,
    },
    /// A segment that does not start where the previous one ended (the
    /// first at document 0).
    SegmentGap {
        /// Where the segment should start.
        expected: u32,
        /// Where it starts.
        first_doc: u32,
    },
    /// A view whose document count is not the number of slots its
    /// segments cover.
    DocCountMismatch {
        /// Documents according to the view.
        num_docs: usize,
        /// Document slots its segments cover.
        covered: usize,
    },
    /// A document whose forward concept set is unsorted or has duplicates.
    UnsortedConcepts {
        /// The offending document.
        doc: DocId,
    },
    /// A concept listed out of order in a segment's concept directory, or
    /// whose posting list is unsorted or has duplicates.
    UnsortedPostings {
        /// The offending concept.
        concept: ConceptId,
    },
    /// A forward entry `(doc, concept)` missing from the posting list.
    MissingPosting {
        /// The document listing the concept.
        doc: DocId,
        /// The concept whose postings lack the document.
        concept: ConceptId,
    },
    /// A posting `(concept, doc)` whose document does not list the concept
    /// in the forward rows (or lies outside the segment entirely).
    MissingForwardEntry {
        /// The document in the posting list.
        doc: DocId,
        /// The concept claiming to appear in the document.
        concept: ConceptId,
    },
}

/// `Ok` when no violation was found.
pub(crate) fn verdict(found: Vec<IndexViolation>) -> Result<(), Vec<IndexViolation>> {
    if found.is_empty() {
        Ok(())
    } else {
        Err(found)
    }
}
