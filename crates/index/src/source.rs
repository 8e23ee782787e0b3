//! The access abstraction the ranking algorithms program against.
//!
//! The paper's prototype reads postings and forward entries from MySQL and
//! reports that access time as the I/O component of query latency
//! (Section 6). [`IndexSource`] abstracts that boundary. The library has
//! one implementation, [`SegmentedView`](crate::SegmentedView), which
//! serves a static collection (one base segment) and the serving engine's
//! published snapshots alike; wrappers over it (a tracing or spying
//! source) implement the trait too. The query engine reports the time it
//! spends reading through the trait as I/O time — per round of posting
//! reads, fetched as one block, and per forward read.
//!
//! Methods take `&mut Vec` output buffers rather than returning slices so
//! a view can merge postings across its segments and the hot loop can
//! reuse allocations.

use crate::LiveMask;
use cbr_corpus::DocId;
use cbr_ontology::ConceptId;

/// Read access to the inverted and forward indexes.
pub trait IndexSource {
    /// Appends the documents containing `c` (sorted by id) to `out`.
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>);

    /// Appends the sorted concept set of `d` to `out`.
    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>);

    /// Number of distinct concepts of `d` without materializing them.
    fn doc_len(&self, d: DocId) -> usize;

    /// Number of documents in the collection.
    fn num_docs(&self) -> usize;

    /// Whether document `d` is live. The default reads every document as
    /// live; a source with tombstones overrides it (a view with none reads
    /// all live). Dead documents never appear in postings, and the search
    /// engines also exclude them from exhaustive fallbacks.
    fn is_live(&self, d: DocId) -> bool {
        let _ = d;
        true
    }

    /// Which concepts may hold a live posting, and which may have one at
    /// or below them ([`LiveMask`]); the kNDS traversal reads no posting
    /// list and takes no downward step where the mask says there is
    /// nothing. Every bit may over-report, never under-report. The
    /// default publishes no mask — every concept reads live — so a source
    /// prunes nothing unless it overrides this.
    fn live_mask(&self) -> LiveMask<'_> {
        LiveMask::ALL_LIVE
    }
}
