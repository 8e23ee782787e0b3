//! The segmented, publishable index: an LSM-flavored replacement for a
//! monolithic mutable overlay.
//!
//! Split into a writer half and a reader half:
//!
//! * [`SegmentedSource`] — owned by the single writer. It keeps a sorted
//!   run of immutable [`Segment`]s covering `0..n` plus one small mutable
//!   **memtable** of freshly appended documents, a tombstone bitset, and a
//!   compaction policy. Appends normalize the concept set and, at the
//!   seal threshold, freeze the memtable into a new tail segment;
//!   compaction merges runs of small segments and physically drops
//!   tombstoned rows (their id slots stay covered and stay dead, so
//!   `DocId` liveness semantics are preserved forever).
//! * [`SegmentedView`] — an immutable, cheaply-cloneable snapshot of the
//!   whole set ([`SegmentedSource::view`]), implementing [`IndexSource`].
//!   Everything inside is behind `Arc`, so a view costs a few refcounts
//!   to clone, stays valid while compactions replace segments underneath,
//!   and can be handed to any number of query threads with no lock. It
//!   publishes the concept liveness mask its owner attaches
//!   ([`SegmentedView::with_live`], see [`crate::live`]), all-live if none.
//!
//! A view taken mid-memtable freezes the partial memtable into a bounded
//! tail segment (cached until the next append), so published snapshots
//! always see every append that happened before them — the paper's
//! "instantly add the EMR at the point of care" claim, minus the lock.

use crate::live::{LiveConcepts, LiveMask};
use crate::packing;
use crate::segment::Segment;
use crate::source::IndexSource;
use crate::validate::{verdict, IndexViolation};
use cbr_corpus::{Corpus, DocId};
use cbr_ontology::ConceptId;
use std::sync::Arc;

/// Returns bit `i` of the bitset (out-of-range reads as unset).
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

/// The base segment covering every document of `corpus` (none when it is
/// empty).
fn base_segment(corpus: &Corpus) -> Option<Arc<Segment>> {
    let docs = corpus.documents().map(|d| d.concepts());
    (!corpus.is_empty()).then(|| Arc::new(Segment::from_docs(0, docs)))
}

/// When to seal the memtable and when to fold small segments together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Memtable size (documents) at which an append seals it into a
    /// segment.
    pub seal_threshold: usize,
    /// Minimum length of a trailing run of small segments before the
    /// writer merges them into one.
    pub merge_fanin: usize,
    /// A segment counts as "small" (compaction fodder) while it covers at
    /// most this many document slots.
    pub small_max_docs: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { seal_threshold: 512, merge_fanin: 4, small_max_docs: 16_384 }
    }
}

/// An immutable snapshot of the segmented index. Cloning is O(1) in the
/// corpus (a handful of `Arc` bumps); every read is lock-free.
#[derive(Debug, Clone)]
pub struct SegmentedView {
    segments: Arc<[Arc<Segment>]>,
    dead: Arc<[u64]>,
    num_docs: usize,
    /// Published through [`IndexSource::live_mask`]; all-live unless the
    /// owner attaches one ([`SegmentedView::with_live`]).
    live: LiveConcepts,
}

impl SegmentedView {
    /// An empty view (no documents).
    pub fn empty() -> SegmentedView {
        SegmentedView {
            segments: Arc::from(vec![]),
            dead: Arc::from(vec![]),
            num_docs: 0,
            live: LiveConcepts::default(),
        }
    }

    /// A static view of `corpus`: one base segment, no tombstones and no
    /// concept mask, so a search over it prunes nothing.
    pub fn from_corpus(corpus: &Corpus) -> SegmentedView {
        SegmentedView {
            segments: base_segment(corpus).into_iter().collect(),
            num_docs: corpus.len(),
            ..SegmentedView::empty()
        }
    }

    /// This view publishing `live` as its concept mask. The caller vouches
    /// that `live` over-reports this view's live postings and never
    /// under-reports them (see [`crate::live`]).
    pub fn with_live(mut self, live: LiveConcepts) -> SegmentedView {
        self.live = live;
        self
    }

    /// Number of segments behind this view.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Checks that the view's segments tile `0..num_docs` in order with
    /// no gap or overlap, and that each segment validates.
    pub fn validate(&self) -> Result<(), Vec<IndexViolation>> {
        let mut v = Vec::new();
        let mut expected = 0u32;
        for seg in self.segments.iter() {
            if seg.first_doc() != expected {
                v.push(IndexViolation::SegmentGap { expected, first_doc: seg.first_doc() });
            }
            if let Err(found) = seg.validate() {
                v.extend(found);
            }
            expected = seg.doc_end();
        }
        if self.num_docs != expected as usize {
            v.push(IndexViolation::DocCountMismatch {
                num_docs: self.num_docs,
                covered: expected as usize,
            });
        }
        verdict(v)
    }

    /// The segment containing `d`, with `d` mapped to a local row.
    fn locate(&self, d: DocId) -> Option<(&Segment, usize)> {
        let i = self.segments.partition_point(|s| s.doc_end() <= d.0);
        let seg = self.segments.get(i)?;
        seg.contains(d).then(|| (seg.as_ref(), (d.0 - seg.first_doc()) as usize))
    }
}

impl IndexSource for SegmentedView {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        // Segments are ordered by document range and each local list is
        // ascending, so the merged output stays sorted by id.
        for seg in self.segments.iter() {
            let first = seg.first_doc();
            for &local in seg.local_postings(c) {
                let id = first + local;
                if !bit(&self.dead, id as usize) {
                    // bound: sized — one DocId per live posting (cplx: cap seg*d — one slot per live (segment, posting) pair; globally ≤ one per corpus doc)
                    out.push(DocId(id));
                }
            }
        }
    }

    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        if let Some((seg, local)) = self.locate(d) {
            out.extend_from_slice(seg.concepts(local));
        }
    }

    fn doc_len(&self, d: DocId) -> usize {
        self.locate(d).map_or(0, |(seg, local)| seg.doc_len(local))
    }

    fn num_docs(&self) -> usize {
        self.num_docs
    }

    fn is_live(&self, d: DocId) -> bool {
        !bit(&self.dead, d.index())
    }

    fn live_mask(&self) -> LiveMask<'_> {
        self.live.as_mask()
    }
}

/// The writer half: memtable, tombstones, segments, compaction.
#[derive(Debug)]
pub struct SegmentedSource {
    /// Sealed immutable segments, contiguous from document 0.
    segments: Vec<Arc<Segment>>,
    /// Appends since the last seal; global ids `mem_first..`.
    memtable: Vec<Box<[ConceptId]>>,
    /// Tombstone bitset over global ids. Bits are never cleared — a
    /// compacted-away document keeps reading as dead.
    dead: Vec<u64>,
    dead_count: usize,
    policy: CompactionPolicy,
    /// The partial memtable frozen as a tail segment for views; dropped
    /// on append, rebuilt lazily (cost bounded by the seal threshold).
    frozen_tail: Option<Arc<Segment>>,
    /// Shared copy of `dead` for views; dropped on delete.
    shared_dead: Option<Arc<[u64]>>,
    seals: usize,
    compactions: usize,
}

impl SegmentedSource {
    /// An empty source.
    pub fn new(policy: CompactionPolicy) -> SegmentedSource {
        SegmentedSource {
            segments: Vec::new(),
            memtable: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            policy,
            frozen_tail: None,
            shared_dead: None,
            seals: 0,
            compactions: 0,
        }
    }

    /// Wraps an existing corpus as one base segment.
    pub fn from_corpus(corpus: &Corpus, policy: CompactionPolicy) -> SegmentedSource {
        let mut source = SegmentedSource::new(policy);
        source.segments.extend(base_segment(corpus));
        source
    }

    /// Global id the next append will receive.
    fn next_doc(&self) -> u32 {
        self.mem_first() + packing::narrow_u32(self.memtable.len())
    }

    /// Global id of the first memtable slot.
    fn mem_first(&self) -> u32 {
        self.segments.last().map_or(0, |s| s.doc_end())
    }

    /// Appends a document, normalizing `concepts` into set form, and
    /// returns its permanent id. Seals the memtable and runs the
    /// compaction policy when the seal threshold is reached.
    pub fn append(&mut self, mut concepts: Vec<ConceptId>) -> DocId {
        cbr_corpus::normalize_concepts(&mut concepts);
        let id = DocId(self.next_doc());
        self.memtable.push(concepts.into_boxed_slice());
        self.frozen_tail = None;
        if self.memtable.len() >= self.policy.seal_threshold {
            self.seal();
            self.maybe_compact();
        }
        id
    }

    /// Tombstones `d`. Returns whether the document was live. The id
    /// stays allocated and reads as dead forever, even after compaction
    /// physically drops the row.
    pub fn delete(&mut self, d: DocId) -> bool {
        if d.0 >= self.next_doc() || bit(&self.dead, d.index()) {
            return false;
        }
        let word = d.index() / 64;
        if word >= self.dead.len() {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1 << (d.index() % 64);
        self.dead_count += 1;
        self.shared_dead = None;
        true
    }

    /// Seals the memtable into a new immutable tail segment (no-op when
    /// the memtable is empty).
    pub fn seal(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let tail = match self.frozen_tail.take() {
            // A view already froze exactly this memtable; reuse it.
            Some(seg) if seg.len() == self.memtable.len() => seg,
            _ => Arc::new(Segment::from_docs(
                self.mem_first(),
                self.memtable.iter().map(|s| s.as_ref()),
            )),
        };
        self.segments.push(tail);
        self.memtable.clear();
        self.frozen_tail = None;
        self.seals += 1;
    }

    /// Runs the compaction policy once: if the trailing run of small
    /// segments is at least `merge_fanin` long, merge it into one segment,
    /// physically dropping tombstoned rows.
    pub fn maybe_compact(&mut self) -> bool {
        let small = |s: &Arc<Segment>| s.len() <= self.policy.small_max_docs;
        let run_start = {
            let mut i = self.segments.len();
            while i > 0 && small(&self.segments[i - 1]) {
                i -= 1;
            }
            i
        };
        if self.segments.len() - run_start < self.policy.merge_fanin {
            return false;
        }
        self.merge_from(run_start);
        true
    }

    /// Merges every segment (and nothing of the memtable) into one,
    /// regardless of policy, dropping currently tombstoned rows. A no-op
    /// when there is at most one segment and no tombstone to fold in.
    pub fn compact_all(&mut self) -> bool {
        if self.segments.is_empty() || (self.segments.len() == 1 && self.dead_count == 0) {
            return false;
        }
        self.merge_from(0);
        true
    }

    fn merge_from(&mut self, run_start: usize) {
        let parts: Vec<&Segment> = self.segments[run_start..].iter().map(Arc::as_ref).collect();
        let dead = &self.dead;
        let merged = Segment::merge(&parts, |d| bit(dead, d.index()));
        self.segments.truncate(run_start);
        self.segments.push(Arc::new(merged));
        self.compactions += 1;
    }

    /// Publishes the current state as an immutable [`SegmentedView`]. The
    /// partial memtable is frozen into a cached tail segment, so the cost
    /// of a view between seals is bounded by the seal threshold; with no
    /// writes since the last view it is a few `Arc` clones.
    pub fn view(&mut self) -> SegmentedView {
        let mut segments = self.segments.clone();
        if !self.memtable.is_empty() {
            let tail = self.frozen_tail.get_or_insert_with(|| {
                Arc::new(Segment::from_docs(
                    self.segments.last().map_or(0, |s| s.doc_end()),
                    self.memtable.iter().map(|s| s.as_ref()),
                ))
            });
            segments.push(Arc::clone(tail));
        }
        let dead = self.shared_dead.get_or_insert_with(|| Arc::from(self.dead.clone())).clone();
        SegmentedView {
            segments: Arc::from(segments),
            dead,
            num_docs: self.next_doc() as usize,
            live: LiveConcepts::default(),
        }
    }

    /// Total document slots (live + dead).
    pub fn num_docs(&self) -> usize {
        self.next_doc() as usize
    }

    /// Live documents.
    pub fn live_docs(&self) -> usize {
        self.num_docs() - self.dead_count
    }

    /// Sealed segment count (excluding the memtable).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Documents currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// How many times the memtable has been sealed.
    pub fn seals(&self) -> usize {
        self.seals
    }

    /// How many merges have run.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// The active policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u32) -> ConceptId {
        ConceptId(v)
    }

    fn tiny_policy() -> CompactionPolicy {
        CompactionPolicy { seal_threshold: 2, merge_fanin: 2, small_max_docs: 8 }
    }

    fn postings(view: &SegmentedView, concept: ConceptId) -> Vec<DocId> {
        let mut out = Vec::new();
        view.postings(concept, &mut out);
        out
    }

    #[test]
    fn appends_become_visible_in_views_before_and_after_seal() {
        let mut s = SegmentedSource::new(tiny_policy());
        let d0 = s.append(vec![c(3), c(1), c(3)]);
        assert_eq!(d0, DocId(0));
        // Unsealed: the view freezes the memtable.
        let v = s.view();
        assert_eq!(v.num_docs(), 1);
        assert_eq!(postings(&v, c(3)), vec![DocId(0)]);
        let mut set = Vec::new();
        v.doc_concepts(DocId(0), &mut set);
        assert_eq!(set, vec![c(1), c(3)], "normalized");
        // Second append crosses the seal threshold.
        let d1 = s.append(vec![c(1)]);
        assert_eq!(d1, DocId(1));
        assert_eq!(s.memtable_len(), 0);
        assert_eq!(s.seals(), 1);
        let v2 = s.view();
        assert_eq!(postings(&v2, c(1)), vec![DocId(0), DocId(1)]);
        // The earlier view is unaffected.
        assert_eq!(v.num_docs(), 1);
    }

    #[test]
    fn delete_hides_doc_and_compaction_drops_it_physically() {
        let mut s = SegmentedSource::new(tiny_policy());
        for i in 0..4u32 {
            s.append(vec![c(7), c(i + 10)]);
        }
        assert!(s.delete(DocId(1)));
        assert!(!s.delete(DocId(1)), "double delete reports dead");
        assert!(!s.delete(DocId(99)), "out of range is not live");
        let v = s.view();
        assert_eq!(postings(&v, c(7)), vec![DocId(0), DocId(2), DocId(3)]);
        assert!(!v.is_live(DocId(1)));
        assert_eq!(s.live_docs(), 3);
        // Compact everything: the row is physically gone...
        assert!(s.compact_all());
        let v2 = s.view();
        assert_eq!(v2.num_segments(), 1);
        assert_eq!(v2.doc_len(DocId(1)), 0);
        // ...but the id slot stays covered and stays dead.
        assert_eq!(v2.num_docs(), 4);
        assert!(!v2.is_live(DocId(1)));
        assert!(v2.is_live(DocId(2)));
        assert_eq!(postings(&v2, c(7)), vec![DocId(0), DocId(2), DocId(3)]);
    }

    #[test]
    fn policy_merges_trailing_run_of_small_segments() {
        let policy = CompactionPolicy { seal_threshold: 2, merge_fanin: 3, small_max_docs: 4 };
        let mut s = SegmentedSource::new(policy);
        for i in 0..12u32 {
            s.append(vec![c(i % 3)]);
        }
        // 6 seals of 2 docs each; runs of 3 small segments merge as they
        // form, so the count stays below the fan-in.
        assert!(s.seals() >= 3);
        assert!(s.compactions() >= 1);
        let v = s.view();
        assert_eq!(v.num_docs(), 12);
        let mut all = Vec::new();
        for i in 0..3 {
            all.extend(postings(&v, c(i)));
        }
        all.sort_unstable();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn old_views_survive_compaction_unchanged() {
        let mut s = SegmentedSource::new(tiny_policy());
        for i in 0..6u32 {
            s.append(vec![c(5), c(20 + i)]);
        }
        let before = s.view();
        s.delete(DocId(4));
        s.compact_all();
        let after = s.view();
        // The pre-compaction view still sees the old liveness...
        assert!(before.is_live(DocId(4)));
        assert_eq!(postings(&before, c(5)).len(), 6);
        // ...the new one sees the tombstone applied and rows dropped.
        assert!(!after.is_live(DocId(4)));
        assert_eq!(postings(&after, c(5)).len(), 5);
    }

    #[test]
    fn from_corpus_wraps_everything_as_base_segment() {
        let corpus = Corpus::from_concept_sets(vec![(vec![c(2), c(1)], 0), (vec![c(2)], 0)]);
        let mut s = SegmentedSource::from_corpus(&corpus, CompactionPolicy::default());
        assert_eq!(s.num_segments(), 1);
        let v = s.view();
        assert_eq!(v.num_docs(), 2);
        assert_eq!(postings(&v, c(2)), vec![DocId(0), DocId(1)]);
        assert_eq!(s.append(vec![c(9)]), DocId(2));
    }

    #[test]
    fn a_static_view_reads_both_directions_into_appended_buffers() {
        let corpus = Corpus::from_concept_sets(vec![(vec![c(3), c(1)], 0), (vec![c(3)], 0)]);
        let v = SegmentedView::from_corpus(&corpus);
        assert_eq!((v.num_segments(), v.num_docs()), (1, 2));
        assert_eq!(v.live_mask(), LiveMask::ALL_LIVE);
        let mut docs = vec![DocId(9)];
        v.postings(c(3), &mut docs);
        assert_eq!(docs, vec![DocId(9), DocId(0), DocId(1)]);
        let mut cs = vec![c(7)];
        v.doc_concepts(DocId(0), &mut cs);
        assert_eq!(cs, vec![c(7), c(1), c(3)]);
        assert_eq!(v.doc_len(DocId(1)), 1);
        assert!(v.is_live(DocId(1)));
        let empty = SegmentedView::from_corpus(&Corpus::from_concept_sets(vec![]));
        assert_eq!((empty.num_segments(), empty.num_docs()), (0, 0));
    }

    fn view(segments: Vec<Segment>, num_docs: usize) -> SegmentedView {
        let segments = segments.into_iter().map(Arc::new).collect();
        SegmentedView { segments, num_docs, ..SegmentedView::empty() }
    }

    #[test]
    fn views_that_tile_their_ids_validate() {
        let three = crate::segment::tests::three_docs;
        assert_eq!(view(vec![three(0), three(3)], 6).validate(), Ok(()));
        assert_eq!(SegmentedView::empty().validate(), Ok(()));
        let mut s = SegmentedSource::new(tiny_policy());
        for i in 0..5u32 {
            s.append(vec![c(i), c(9)]);
        }
        s.delete(DocId(2));
        assert_eq!(s.view().validate(), Ok(()));
        s.compact_all();
        assert_eq!(s.view().validate(), Ok(()));
    }

    #[test]
    fn gaps_and_miscounts_between_segments_are_caught() {
        let three = crate::segment::tests::three_docs;
        let err = view(vec![three(0), three(5)], 8).validate().unwrap_err();
        assert_eq!(err, [IndexViolation::SegmentGap { expected: 3, first_doc: 5 }]);
        let err = view(vec![three(0)], 4).validate().unwrap_err();
        assert_eq!(err, [IndexViolation::DocCountMismatch { num_docs: 4, covered: 3 }]);
        // A corrupt segment fails the view that holds it.
        let mut bad = three(3);
        bad.corrupt_order();
        let err = view(vec![three(0), bad], 6).validate().unwrap_err();
        assert!(err.contains(&IndexViolation::UnsortedConcepts { doc: DocId(3) }), "{err:?}");
    }
}
