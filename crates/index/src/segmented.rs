//! The segmented, publishable index: an LSM-flavored replacement for a
//! monolithic mutable overlay.
//!
//! Split into a writer half and a reader half:
//!
//! * [`SegmentedSource`] — owned by the single writer. It keeps a sorted
//!   run of immutable sealed [`Segment`]s covering `0..n`, the
//!   **memtable** of documents appended since the last seal, a tombstone
//!   bitset, and a compaction policy. Appends normalize the concept set
//!   and, at the seal threshold, merge the memtable into a new sealed
//!   segment; compaction merges runs of small sealed segments and
//!   physically drops tombstoned rows (their id slots stay covered and
//!   stay dead, so `DocId` liveness semantics are preserved forever).
//! * [`SegmentedView`] — an immutable, cheaply-cloneable snapshot of the
//!   whole set ([`SegmentedSource::view`]), implementing [`IndexSource`].
//!   Everything inside is behind `Arc`, so a view costs a few refcounts
//!   to clone, stays valid while compactions replace segments underneath,
//!   and can be handed to any number of query threads with no lock. It
//!   publishes the concept liveness mask its owner attaches
//!   ([`SegmentedView::with_live`], see [`crate::live`]), all-live if none.
//!
//! The memtable is the logarithmic method of Bentley & Saxe
//! ("Decomposable searching problems I: static-to-dynamic
//! transformation", J. Algorithms 1980) over static segments. A view
//! freezes only the documents appended since the previous view, as one
//! new **tail chunk**, then carries: in one merge, the new chunk absorbs
//! each next older chunk that holds less than twice the documents
//! gathered so far — a binary counter when every view freezes one
//! document. Chunk sizes therefore at least halve from the oldest to the
//! newest, so `m` memtable documents sit in at most ⌊log₂ m⌋ + 1
//! chunks, and each document is copied O(log m) times before its seal:
//! a publish costs amortized O(|doc|·log m), not O(memtable). Published
//! snapshots always see every append that happened before them — the
//! paper's "instantly add the EMR at the point of care" claim, minus the
//! lock.

use crate::live::{LiveConcepts, LiveMask};
use crate::packing;
use crate::segment::{Segment, SlotTable};
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
fn base_segment(corpus: &Corpus, slots: &mut SlotTable) -> Option<Arc<Segment>> {
    let docs = corpus.documents().map(|d| d.concepts());
    (!corpus.is_empty()).then(|| Arc::new(Segment::from_docs(0, docs, slots)))
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
            segments: base_segment(corpus, &mut SlotTable::default()).into_iter().collect(),
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

/// The writer half: sealed segments, the memtable, tombstones,
/// compaction.
#[derive(Debug)]
pub struct SegmentedSource {
    /// Sealed immutable segments, contiguous from document 0.
    segments: Vec<Arc<Segment>>,
    /// The memtable's frozen part: one chunk per view that found pending
    /// documents, merged like a binary counter, contiguous after
    /// `segments`. Each chunk holds at least twice the documents of the
    /// next one.
    chunks: Vec<Arc<Segment>>,
    /// The memtable's unfrozen part: appends since the last view, global
    /// ids from the end of the last chunk. No chunk holds them yet.
    pending: Vec<Box<[ConceptId]>>,
    /// Tombstone bitset over global ids. Bits are never cleared — a
    /// compacted-away document keeps reading as dead.
    dead: Vec<u64>,
    dead_count: usize,
    policy: CompactionPolicy,
    /// The one slot table every segment this writer builds inverts
    /// through.
    slots: SlotTable,
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
            chunks: Vec::new(),
            pending: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            policy,
            slots: SlotTable::default(),
            shared_dead: None,
            seals: 0,
            compactions: 0,
        }
    }

    /// Wraps an existing corpus as one base segment.
    pub fn from_corpus(corpus: &Corpus, policy: CompactionPolicy) -> SegmentedSource {
        let mut source = SegmentedSource::new(policy);
        source.segments.extend(base_segment(corpus, &mut source.slots));
        source
    }

    /// Global id the next append will receive.
    fn next_doc(&self) -> u32 {
        self.pending_first() + packing::narrow_u32(self.pending.len())
    }

    /// Global id of the first memtable document (one past the sealed
    /// segments).
    fn mem_first(&self) -> u32 {
        self.segments.last().map_or(0, |s| s.doc_end())
    }

    /// Global id of the first pending document (one past the last chunk).
    fn pending_first(&self) -> u32 {
        self.chunks.last().map_or_else(|| self.mem_first(), |c| c.doc_end())
    }

    /// Appends a document, normalizing `concepts` into set form, and
    /// returns its permanent id. Seals the memtable and runs the
    /// compaction policy when the seal threshold is reached.
    pub fn append(&mut self, mut concepts: Vec<ConceptId>) -> DocId {
        cbr_corpus::normalize_concepts(&mut concepts);
        let id = DocId(self.next_doc());
        self.pending.push(concepts.into_boxed_slice());
        if self.memtable_len() >= self.policy.seal_threshold {
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

    /// Freezes the pending documents into one new tail chunk (no-op when
    /// none is pending).
    fn freeze_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let docs = self.pending.iter().map(|d| d.as_ref());
        let chunk = Segment::from_docs(self.pending_first(), docs, &mut self.slots);
        self.pending.clear();
        self.chunks.push(Arc::new(chunk));
    }

    /// Merges the newest chunk with the run of older ones it carries into,
    /// in one merge: going back from it, each next older chunk joins the
    /// run while it holds less than twice the documents gathered so far.
    /// Chunk sizes then at least halve from oldest to newest again.
    fn carry(&mut self) {
        let Some(newest) = self.chunks.last() else { return };
        let (mut start, mut gathered) = (self.chunks.len() - 1, newest.len());
        // cplx: bound log — chunk sizes at least halve from oldest to newest, so at most ⌊log₂ m⌋ + 1 older chunks; each joins a run over 1.5 times its size, so a document is merged O(log m) times before its seal
        while start > 0 && self.chunks[start - 1].len() < 2 * gathered {
            start -= 1;
            gathered += self.chunks[start].len();
        }
        if start + 1 < self.chunks.len() {
            let merged = Segment::merge(&self.chunks[start..], |_| false, &mut self.slots);
            self.chunks.truncate(start);
            self.chunks.push(Arc::new(merged));
        }
    }

    /// Seals the memtable into a new immutable segment: freezes what is
    /// pending, then merges the chunks into one (no-op when the memtable
    /// is empty). Tombstoned rows stay; dropping them is compaction's job,
    /// so the sealed segment is the one `Segment::from_docs` builds over
    /// the same documents.
    pub fn seal(&mut self) {
        self.freeze_pending();
        let sealed = match self.chunks.as_slice() {
            [] => return,
            [one] => Arc::clone(one),
            parts => Arc::new(Segment::merge(parts, |_| false, &mut self.slots)),
        };
        self.chunks.clear();
        self.segments.push(sealed);
        self.seals += 1;
    }

    /// Runs the compaction policy once: if the trailing run of small
    /// sealed segments is at least `merge_fanin` long, merge it into one
    /// segment, physically dropping tombstoned rows.
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

    /// Merges every sealed segment (and nothing of the memtable) into
    /// one, regardless of policy, dropping currently tombstoned rows. A
    /// no-op when there is at most one segment and no tombstone to fold
    /// in.
    pub fn compact_all(&mut self) -> bool {
        if self.segments.is_empty() || (self.segments.len() == 1 && self.dead_count == 0) {
            return false;
        }
        self.merge_from(0);
        true
    }

    fn merge_from(&mut self, run_start: usize) {
        let dead = &self.dead;
        let parts = &self.segments[run_start..];
        let merged = Segment::merge(parts, |d| bit(dead, d.index()), &mut self.slots);
        self.segments.truncate(run_start);
        self.segments.push(Arc::new(merged));
        self.compactions += 1;
    }

    /// Publishes the current state as an immutable [`SegmentedView`]: the
    /// sealed segments, then the memtable's chunks. The documents
    /// appended since the last view are frozen into one new chunk and
    /// the chunks carried, which costs amortized O(|doc|·log m) an
    /// appended document for a memtable of `m`; with no appends since
    /// the last view it is a few `Arc` clones.
    pub fn view(&mut self) -> SegmentedView {
        self.freeze_pending();
        self.carry();
        let segments = self.segments.iter().chain(&self.chunks).cloned().collect();
        let dead = self.shared_dead.get_or_insert_with(|| Arc::from(self.dead.clone())).clone();
        SegmentedView {
            segments,
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

    /// Sealed segment count (excluding the memtable's chunks).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// How many frozen chunks the memtable holds (the tail segments of
    /// the last view).
    pub fn tail_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Documents appended since the last seal, frozen or pending.
    pub fn memtable_len(&self) -> usize {
        (self.next_doc() - self.mem_first()) as usize
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
    use proptest::prelude::*;
    use proptest::test_runner::{TestCaseError, TestRng};

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

    #[derive(Debug, Clone)]
    enum Op {
        Append(Vec<ConceptId>),
        View,
        Delete(usize),
    }

    /// A seal threshold in 1..40 and up to 120 appends, views and
    /// deletes, views of one to many pending documents among them.
    struct Scripts;

    impl Strategy for Scripts {
        type Value = (usize, Vec<Op>);
        fn sample(&self, rng: &mut TestRng) -> (usize, Vec<Op>) {
            let seal_threshold = 1 + rng.below(39) as usize;
            let ops = (0..rng.below(120))
                .map(|_| match rng.below(6) {
                    0..=2 => {
                        Op::Append((0..rng.below(6)).map(|_| c(rng.below(40) as u32)).collect())
                    }
                    3 | 4 => Op::View,
                    _ => Op::Delete(rng.below(64) as usize),
                })
                .collect();
            (seal_threshold, ops)
        }
    }

    /// The memtable's shape after any step: its chunks tile the ids after
    /// the sealed segments and hold at least twice the documents of the
    /// next one (so at most ⌊log₂ m⌋ + 1 of them), the pending documents
    /// follow the last chunk, and every document sits in exactly one of
    /// the two, as appended. Every sealed segment is what a fresh
    /// `Segment::from_docs` builds over its documents.
    fn check_shape(s: &SegmentedSource, docs: &[Vec<ConceptId>]) -> Result<(), TestCaseError> {
        let depth = s.memtable_len();
        prop_assert!(depth < s.policy.seal_threshold, "{} docs past the seal", depth);
        let bound = depth.checked_ilog2().map_or(0, |log| log as usize + 1);
        prop_assert!(s.chunks.len() <= bound, "{} chunks for {} docs", s.chunks.len(), depth);
        for pair in s.chunks.windows(2) {
            prop_assert!(
                pair[0].len() >= 2 * pair[1].len(),
                "chunks {} then {}",
                pair[0].len(),
                pair[1].len()
            );
        }
        let mut next = 0u32;
        for seg in &s.segments {
            prop_assert_eq!(seg.first_doc(), next);
            let rows = &docs[next as usize..seg.doc_end() as usize];
            let fresh =
                Segment::from_docs(next, rows.iter().map(Vec::as_slice), &mut SlotTable::default());
            prop_assert_eq!(seg.as_ref(), &fresh, "sealed segment at {}", next);
            next = seg.doc_end();
        }
        for chunk in &s.chunks {
            prop_assert!(!chunk.is_empty(), "an empty chunk");
            prop_assert_eq!(chunk.first_doc(), next);
            for local in 0..chunk.len() {
                prop_assert_eq!(chunk.concepts(local), docs[next as usize + local].as_slice());
            }
            next = chunk.doc_end();
        }
        prop_assert_eq!(s.pending.len(), docs.len() - next as usize, "pending docs");
        for (i, doc) in s.pending.iter().enumerate() {
            prop_assert_eq!(doc.as_ref(), docs[next as usize + i].as_slice());
        }
        prop_assert_eq!(depth, docs.len() - s.mem_first() as usize);
        Ok(())
    }

    proptest! {
        #[test]
        fn the_memtable_keeps_its_shape_through_any_script(script in Scripts) {
            let (seal_threshold, ops) = script;
            // No policy merge, so every sealed segment stays one seal.
            let policy = CompactionPolicy { seal_threshold, merge_fanin: usize::MAX, small_max_docs: 0 };
            let mut s = SegmentedSource::new(policy);
            let mut docs: Vec<Vec<ConceptId>> = Vec::new();
            for op in ops {
                match op {
                    Op::Append(mut set) => {
                        s.append(set.clone());
                        cbr_corpus::normalize_concepts(&mut set);
                        docs.push(set);
                    }
                    Op::View => {
                        let v = s.view();
                        prop_assert_eq!(v.num_docs(), docs.len());
                        prop_assert_eq!(v.validate(), Ok(()));
                    }
                    Op::Delete(i) => {
                        s.delete(DocId::from_index(i));
                    }
                }
                check_shape(&s, &docs)?;
            }
            prop_assert_eq!(s.seals(), docs.len() / seal_threshold);
        }
    }

    #[test]
    fn one_document_a_view_counts_in_binary() {
        let mut s = SegmentedSource::new(CompactionPolicy::default());
        for i in 0..300u32 {
            s.append(vec![c(i % 7)]);
            s.view();
            let sizes: Vec<usize> = s.chunks.iter().map(|c| c.len()).collect();
            let depth = i as usize + 1;
            let bits: Vec<usize> =
                (0..usize::BITS).rev().map(|b| depth & (1 << b)).filter(|&b| b > 0).collect();
            assert_eq!(sizes, bits, "after {depth} appends");
        }
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
