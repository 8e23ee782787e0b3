//! Concept indexes for document ranking.
//!
//! Section 5.3 of the paper assumes "an index that allows us to traverse
//! the ontology efficiently (this would typically fit in memory) as well as
//! an inverted and a forward index that map concepts to documents and
//! vice-versa (memory or disk-based)". The prototype loads the latter two
//! from MySQL and reports I/O time separately; here both stay in memory,
//! and the engine times every posting read as its I/O component:
//!
//! * [`Segment`] — both indexes over a contiguous document range in CSR
//!   layout: forward (document → concepts) and inverted (concept →
//!   documents);
//! * [`IndexSource`] — the access trait the ranking algorithms program
//!   against, implemented by [`SegmentedView`];
//! * [`SegmentedView`] / [`SegmentedSource`] — a static collection is a
//!   view over one base segment ([`SegmentedView::from_corpus`]); the
//!   dynamic path adds a small memtable, sealed and compacted by a single
//!   writer and published to readers as lock-free `Arc`-shared snapshot
//!   views (see `DESIGN.md` §12);
//! * [`IndexViolation`] — what [`Segment::validate`] and
//!   [`SegmentedView::validate`] report when the structure is broken;
//! * [`LiveConcepts`] / [`LiveMask`] — per-concept `live_here` /
//!   `live_below` bits a view publishes so the kNDS traversal skips
//!   concepts and subtrees that hold no live document;
//! * [`SnapshotStore`] — a directory of checksummed, atomically replaced
//!   binary snapshot files, with the little-endian [`snapshot::Writer`] /
//!   checked [`snapshot::Reader`] their bodies are written in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod packing;
pub mod segment;
pub mod segmented;
pub mod snapshot;
pub mod source;
pub mod validate;

pub use live::{LiveConcepts, LiveMask};
pub use segment::Segment;
pub use segmented::{CompactionPolicy, SegmentedSource, SegmentedView};
pub use snapshot::SnapshotStore;
pub use source::IndexSource;
pub use validate::IndexViolation;
