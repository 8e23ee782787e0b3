//! Immutable CSR segments: the one index layout, static or served.
//!
//! A [`Segment`] covers one contiguous range of document ids and stores
//! both access directions of §5.3 in compressed-sparse-row form: the
//! forward index (document → concepts) and the inverted index (concept →
//! documents), scoped to its range. The inverted half holds postings only
//! for the sorted *distinct* concepts that actually occur in the segment,
//! found by binary search, rather than a dense offset table over every
//! concept id the ontology knows: small segments sealed from a memtable
//! touch a handful of concepts, so a dense 300k-entry table per segment
//! would dwarf the payload. A static collection is a view over one such
//! segment ([`SegmentedView::from_corpus`](crate::SegmentedView::from_corpus)).
//!
//! Segments are never mutated after construction (the Navarro–Nekrich
//! static-structure discipline): appends go to a memtable that is sealed
//! into a *new* segment, deletes go to a side bitset, and compaction
//! *replaces* a run of segments with a freshly built merged one. Readers
//! therefore share segments freely behind `Arc` with no synchronization.
//! Every segment is re-checked by [`Segment::validate`] as it is built in
//! a debug build.
//!
//! Every build — a base segment, a memtable chunk, a seal, a compaction —
//! inverts its forward rows through one [`SlotTable`] its owner reuses, so
//! a build costs time in its own payload, not in the largest concept id
//! it holds.

use crate::packing;
use crate::validate::{verdict, IndexViolation};
use cbr_corpus::DocId;
use cbr_ontology::ConceptId;
use std::borrow::Borrow;
use std::fmt;

/// A [`SlotTable`] entry no build is using.
const UNUSED: u32 = u32::MAX;

/// The reusable concept → directory-slot table a segment build inverts
/// through. Between builds every entry reads unused: a build marks the
/// concepts it touches, numbers them once its directory is sorted, and
/// resets exactly those entries before it returns. The table grows to the
/// largest concept id its owner has built, once, and no build scans it.
#[derive(Default)]
pub struct SlotTable {
    slot_of: Vec<u32>,
}

impl fmt::Debug for SlotTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotTable").field("len", &self.slot_of.len()).finish()
    }
}

fn strictly_sorted<T: Ord>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

fn offsets_valid(offsets: &[u32], payload_len: usize) -> bool {
    offsets.first() == Some(&0)
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets.last().map(|&end| end as usize) == Some(payload_len)
}

/// An immutable CSR index fragment over the contiguous document range
/// `[first_doc, first_doc + len)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Global id of the first document slot this segment covers.
    first_doc: u32,
    /// Forward CSR: `fwd_offsets[i]..fwd_offsets[i+1]` indexes the sorted
    /// concept set of local document `i`.
    fwd_offsets: Vec<u32>,
    fwd_concepts: Vec<ConceptId>,
    /// Inverted CSR over the sorted distinct concepts present in this
    /// segment: `inv_offsets[j]..inv_offsets[j+1]` indexes the ascending
    /// local postings of `inv_concepts[j]`.
    inv_concepts: Vec<ConceptId>,
    inv_offsets: Vec<u32>,
    inv_docs: Vec<u32>,
}

impl Segment {
    /// Builds a segment from normalized (sorted, deduplicated) concept
    /// sets, one per document slot starting at `first_doc`.
    pub fn from_docs<'a, I>(first_doc: u32, docs: I, slots: &mut SlotTable) -> Segment
    where
        I: IntoIterator<Item = &'a [ConceptId]>,
    {
        let mut fwd_offsets = vec![0u32];
        let mut fwd_concepts = Vec::new();
        for set in docs {
            debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "concept set not normalized");
            fwd_concepts.extend_from_slice(set);
            fwd_offsets.push(packing::csr_offset(fwd_concepts.len()));
        }
        Segment::from_forward(first_doc, fwd_offsets, fwd_concepts, slots)
    }

    /// Merges a contiguous run of segments into one, physically dropping
    /// every document `is_dead` says is tombstoned: its forward row
    /// becomes empty and it vanishes from every posting list, while its
    /// id slot stays covered so global ids never shift. Panics if the
    /// run's ranges are not adjacent in order.
    pub fn merge(
        parts: &[impl Borrow<Segment>],
        mut is_dead: impl FnMut(DocId) -> bool,
        slots: &mut SlotTable,
    ) -> Segment {
        assert!(!parts.is_empty(), "cannot merge zero segments");
        let first_doc = parts[0].borrow().first_doc;
        let mut fwd_offsets = vec![0u32];
        let mut fwd_concepts = Vec::new();
        let mut next = first_doc;
        for part in parts.iter().map(Borrow::borrow) {
            assert_eq!(part.first_doc, next, "merge run is not contiguous");
            for local in 0..part.len() {
                let id = DocId(part.first_doc + packing::narrow_u32(local));
                if !is_dead(id) {
                    fwd_concepts.extend_from_slice(part.concepts(local));
                }
                fwd_offsets.push(packing::csr_offset(fwd_concepts.len()));
            }
            next = part.doc_end();
        }
        Segment::from_forward(first_doc, fwd_offsets, fwd_concepts, slots)
    }

    /// Builds the inverted half from a finished forward CSR, in
    /// O(payload + distinct·log distinct): the distinct concepts are
    /// collected in first-touch order through `slots` and sorted into the
    /// directory, then a counting fill lays out the postings (no
    /// comparison sort of the payload), and the touched entries of
    /// `slots` are reset.
    fn from_forward(
        first_doc: u32,
        fwd_offsets: Vec<u32>,
        fwd_concepts: Vec<ConceptId>,
        slots: &mut SlotTable,
    ) -> Segment {
        let slot_of = &mut slots.slot_of;
        let mut inv_concepts = Vec::new();
        for &c in &fwd_concepts {
            let raw = c.0 as usize;
            if raw >= slot_of.len() {
                slot_of.resize(raw + 1, UNUSED);
            }
            if slot_of[raw] == UNUSED {
                slot_of[raw] = 0; // touched; numbered below
                inv_concepts.push(c);
            }
        }
        inv_concepts.sort_unstable();
        for (j, &c) in inv_concepts.iter().enumerate() {
            slot_of[c.0 as usize] = packing::narrow_u32(j);
        }
        let mut counts = vec![0u32; inv_concepts.len()];
        for &c in &fwd_concepts {
            counts[slot_of[c.0 as usize] as usize] += 1;
        }
        let mut inv_offsets = Vec::with_capacity(inv_concepts.len() + 1);
        // Running sum in usize; each fence post narrows through the
        // checked CSR helper.
        let mut total = 0usize;
        inv_offsets.push(0);
        for &n in &counts {
            total += n as usize;
            inv_offsets.push(packing::csr_offset(total));
        }
        // Fill cursors; iterating documents in ascending local order keeps
        // every posting list sorted by construction.
        let mut cursor: Vec<u32> = inv_offsets[..inv_concepts.len()].to_vec();
        let mut inv_docs = vec![0u32; fwd_concepts.len()];
        for local in 0..fwd_offsets.len() - 1 {
            let (lo, hi) = (fwd_offsets[local] as usize, fwd_offsets[local + 1] as usize);
            for &c in &fwd_concepts[lo..hi] {
                let slot = slot_of[c.0 as usize] as usize;
                inv_docs[cursor[slot] as usize] = packing::narrow_u32(local);
                cursor[slot] += 1;
            }
        }
        for &c in &inv_concepts {
            slot_of[c.0 as usize] = UNUSED;
        }
        let seg =
            Segment { first_doc, fwd_offsets, fwd_concepts, inv_concepts, inv_offsets, inv_docs };
        #[cfg(debug_assertions)]
        {
            let checked = seg.validate();
            debug_assert!(checked.is_ok(), "segment invariants violated: {checked:?}");
        }
        seg
    }

    /// Global id of the first covered document slot.
    #[inline]
    pub fn first_doc(&self) -> u32 {
        self.first_doc
    }

    /// One past the last covered document slot (global).
    #[inline]
    pub fn doc_end(&self) -> u32 {
        self.first_doc + packing::narrow_u32(self.len())
    }

    /// Number of document slots covered (including physically dropped
    /// ones, whose rows are empty).
    #[inline]
    pub fn len(&self) -> usize {
        self.fwd_offsets.len() - 1
    }

    /// Whether the segment covers no document slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether global document `d` falls in this segment's range.
    #[inline]
    pub fn contains(&self, d: DocId) -> bool {
        d.0 >= self.first_doc && d.0 < self.doc_end()
    }

    /// The sorted concept set of local document `local`.
    #[inline]
    pub fn concepts(&self, local: usize) -> &[ConceptId] {
        let (lo, hi) = (self.fwd_offsets[local] as usize, self.fwd_offsets[local + 1] as usize);
        &self.fwd_concepts[lo..hi]
    }

    /// Number of concepts of local document `local`.
    #[inline]
    pub fn doc_len(&self, local: usize) -> usize {
        (self.fwd_offsets[local + 1] - self.fwd_offsets[local]) as usize
    }

    /// The ascending *local* postings of `c` (empty when the concept does
    /// not occur in this segment). Binary search over the segment's
    /// distinct concepts.
    pub fn local_postings(&self, c: ConceptId) -> &[u32] {
        match self.inv_concepts.binary_search(&c) {
            Ok(j) => {
                let (lo, hi) = (self.inv_offsets[j] as usize, self.inv_offsets[j + 1] as usize);
                &self.inv_docs[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Total postings stored (== total forward payload).
    #[inline]
    pub fn num_postings(&self) -> usize {
        self.fwd_concepts.len()
    }

    /// Number of distinct concepts occurring in this segment.
    #[inline]
    pub fn num_concepts(&self) -> usize {
        self.inv_concepts.len()
    }

    /// Re-checks every invariant tying the segment's two directions
    /// together: sane CSR offsets on both sides, strictly sorted forward
    /// rows, concept directory and local postings, postings inside the
    /// segment, and the two-way membership equivalence. Violations name
    /// documents by global id.
    pub fn validate(&self) -> Result<(), Vec<IndexViolation>> {
        let mut v = Vec::new();
        if !offsets_valid(&self.fwd_offsets, self.fwd_concepts.len()) {
            v.push(IndexViolation::BadOffsets { forward: true });
        }
        if self.inv_offsets.len() != self.inv_concepts.len() + 1
            || !offsets_valid(&self.inv_offsets, self.inv_docs.len())
        {
            v.push(IndexViolation::BadOffsets { forward: false });
        }
        if !v.is_empty() {
            // Offsets gate slice construction; bail before indexing with them.
            return Err(v);
        }
        let global = |local: u32| DocId(self.first_doc.saturating_add(local));

        // Forward → inverted: every listed concept's postings contain the doc.
        for local in 0..self.len() {
            let row = packing::narrow_u32(local);
            let doc = global(row);
            let concepts = self.concepts(local);
            if !strictly_sorted(concepts) {
                v.push(IndexViolation::UnsortedConcepts { doc });
            }
            for &c in concepts {
                if self.local_postings(c).binary_search(&row).is_err() {
                    v.push(IndexViolation::MissingPosting { doc, concept: c });
                }
            }
        }

        // Inverted → forward: every posting's document lists the concept.
        for (j, &c) in self.inv_concepts.iter().enumerate() {
            if j > 0 && self.inv_concepts[j - 1] >= c {
                v.push(IndexViolation::UnsortedPostings { concept: c });
            }
            let postings =
                &self.inv_docs[self.inv_offsets[j] as usize..self.inv_offsets[j + 1] as usize];
            if !strictly_sorted(postings) {
                v.push(IndexViolation::UnsortedPostings { concept: c });
            }
            for &local in postings {
                let listed = (local as usize) < self.len()
                    && self.concepts(local as usize).binary_search(&c).is_ok();
                if !listed {
                    v.push(IndexViolation::MissingForwardEntry { doc: global(local), concept: c });
                }
            }
        }
        verdict(v)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn c(v: u32) -> ConceptId {
        ConceptId(v)
    }

    fn seg(first: u32, docs: &[&[ConceptId]]) -> Segment {
        Segment::from_docs(first, docs.iter().copied(), &mut SlotTable::default())
    }

    /// Corruptors, each breaking one invariant of a built segment.
    impl Segment {
        /// Swaps the first two stored concepts: an unsorted forward row.
        pub(crate) fn corrupt_order(&mut self) {
            self.fwd_concepts.swap(0, 1);
        }

        /// Points the first posting at local document `local`.
        fn corrupt_posting(&mut self, local: u32) {
            self.inv_docs[0] = local;
        }

        /// Makes the forward offsets step backwards after row 0.
        fn corrupt_offset(&mut self) {
            self.fwd_offsets[1] = self.fwd_offsets[2] + 1;
        }
    }

    /// Concept 0 occurs only in document 2; document 0 lists 1 and 3.
    pub(crate) fn three_docs(first: u32) -> Segment {
        seg(first, &[&[c(1), c(3)], &[c(3)], &[c(0), c(2), c(3)]])
    }

    #[test]
    fn round_trips_forward_and_inverted() {
        let s = seg(10, &[&[c(1), c(7)], &[], &[c(7), c(9)]]);
        assert_eq!(s.first_doc(), 10);
        assert_eq!(s.doc_end(), 13);
        assert_eq!(s.len(), 3);
        assert_eq!(s.concepts(0), &[c(1), c(7)]);
        assert_eq!(s.concepts(1), &[] as &[ConceptId]);
        assert_eq!(s.doc_len(2), 2);
        assert_eq!(s.local_postings(c(7)), &[0, 2]);
        assert_eq!(s.local_postings(c(1)), &[0]);
        assert_eq!(s.local_postings(c(2)), &[] as &[u32]);
        assert_eq!(s.num_postings(), 4);
        assert_eq!(s.num_concepts(), 3);
        assert!(s.contains(DocId(12)));
        assert!(!s.contains(DocId(13)));
    }

    #[test]
    fn merge_concatenates_and_drops_dead_rows() {
        let a = seg(0, &[&[c(1)], &[c(2), c(3)]]);
        let b = seg(2, &[&[c(1), c(3)]]);
        let merged = Segment::merge(&[&a, &b], |d| d == DocId(1), &mut SlotTable::default());
        assert_eq!(merged.first_doc(), 0);
        assert_eq!(merged.len(), 3);
        // The dead slot keeps its position but loses its payload.
        assert_eq!(merged.concepts(1), &[] as &[ConceptId]);
        assert_eq!(merged.concepts(2), &[c(1), c(3)]);
        assert_eq!(merged.local_postings(c(1)), &[0, 2]);
        assert_eq!(merged.local_postings(c(3)), &[2]);
        assert_eq!(merged.local_postings(c(2)), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn merge_rejects_gaps() {
        let a = seg(0, &[&[c(1)]]);
        let b = seg(5, &[&[c(1)]]);
        let _ = Segment::merge(&[&a, &b], |_| false, &mut SlotTable::default());
    }

    #[test]
    fn a_reused_slot_table_is_left_clean() {
        let mut slots = SlotTable::default();
        let wide: &[&[ConceptId]] = &[&[c(4), c(900)], &[c(2), c(900)]];
        let narrow: &[&[ConceptId]] = &[&[c(7)], &[c(2), c(4), c(7)], &[]];
        let first = Segment::from_docs(0, wide.iter().copied(), &mut slots);
        assert_eq!(first, seg(0, wide));
        assert!(slots.slot_of.iter().all(|&s| s == UNUSED), "a build left entries touched");
        let second = Segment::from_docs(2, narrow.iter().copied(), &mut slots);
        assert_eq!(second, seg(2, narrow));
        let merged = Segment::merge(&[&first, &second], |_| false, &mut slots);
        assert_eq!(merged, seg(0, &[wide, narrow].concat()));
        assert!(slots.slot_of.iter().all(|&s| s == UNUSED), "a merge left entries touched");
    }

    #[test]
    fn a_built_segment_validates() {
        assert_eq!(three_docs(0).validate(), Ok(()));
        assert_eq!(seg(4, &[]).validate(), Ok(()));
    }

    #[test]
    fn unsorted_forward_row_is_caught() {
        let mut s = three_docs(0);
        s.corrupt_order();
        let err = s.validate().unwrap_err();
        assert!(err.contains(&IndexViolation::UnsortedConcepts { doc: DocId(0) }), "{err:?}");
    }

    #[test]
    fn phantom_posting_is_caught() {
        // Concept 0's one posting now names document 0, which lists only
        // 1 and 3. The list stays sorted and inside the segment, so only
        // the inverted → forward pass can see it.
        let mut s = three_docs(10);
        s.corrupt_posting(0);
        let err = s.validate().unwrap_err();
        assert!(
            err.contains(&IndexViolation::MissingForwardEntry { doc: DocId(10), concept: c(0) }),
            "{err:?}"
        );
    }

    #[test]
    fn non_monotone_offset_is_caught() {
        let mut s = three_docs(0);
        s.corrupt_offset();
        assert_eq!(s.validate(), Err(vec![IndexViolation::BadOffsets { forward: true }]));
    }
}
