//! The access abstraction the ranking algorithms program against.
//!
//! The paper's prototype reads postings and forward entries from MySQL and
//! reports that access time as the I/O component of query latency
//! (Section 6). [`IndexSource`] abstracts that boundary so the same kNDS
//! code runs against the static resident indexes ([`MemorySource`]) and
//! the serving engine's segmented snapshot
//! ([`SegmentedView`](crate::SegmentedView)); the query engine reports the
//! time it spends reading through the trait as I/O time — per round of
//! posting reads, fetched as one block, and per forward read.
//!
//! Methods take `&mut Vec` output buffers rather than returning slices so
//! a view can merge postings across its segments and the hot loop can
//! reuse allocations.

use crate::{ForwardIndex, InvertedIndex, LiveMask};
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

    /// Whether document `d` is live. Sources with deletion support
    /// (tombstones) override this; static sources are always live. Dead
    /// documents never appear in postings, and the search engines also
    /// exclude them from exhaustive fallbacks.
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

/// Fully resident indexes.
#[derive(Debug, Clone)]
pub struct MemorySource {
    inverted: InvertedIndex,
    forward: ForwardIndex,
}

impl MemorySource {
    /// Wraps prebuilt indexes. Panics if they disagree on corpus size.
    pub fn new(inverted: InvertedIndex, forward: ForwardIndex) -> Self {
        assert_eq!(
            inverted.num_docs(),
            forward.num_docs(),
            "inverted and forward indexes cover different corpora"
        );
        #[cfg(debug_assertions)]
        {
            let checked = crate::validate::validate_pair(&forward, &inverted);
            debug_assert!(checked.is_ok(), "index pair cross-consistency violated: {checked:?}");
        }
        MemorySource { inverted, forward }
    }

    /// Builds both indexes from a corpus.
    pub fn build(corpus: &cbr_corpus::Corpus, num_concepts: usize) -> Self {
        Self::new(InvertedIndex::build(corpus, num_concepts), ForwardIndex::build(corpus))
    }

    /// The underlying inverted index.
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// The underlying forward index.
    pub fn forward(&self) -> &ForwardIndex {
        &self.forward
    }
}

impl IndexSource for MemorySource {
    #[inline]
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        out.extend_from_slice(self.inverted.postings(c));
    }

    #[inline]
    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        out.extend_from_slice(self.forward.concepts(d));
    }

    #[inline]
    fn doc_len(&self, d: DocId) -> usize {
        self.forward.num_concepts(d)
    }

    #[inline]
    fn num_docs(&self) -> usize {
        self.forward.num_docs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::Corpus;

    fn source() -> MemorySource {
        let corpus = Corpus::from_concept_sets(vec![
            (vec![ConceptId(1), ConceptId(3)], 0),
            (vec![ConceptId(3)], 0),
        ]);
        MemorySource::build(&corpus, 5)
    }

    #[test]
    fn memory_source_reads_both_directions() {
        let s = source();
        let mut docs = Vec::new();
        s.postings(ConceptId(3), &mut docs);
        assert_eq!(docs, vec![DocId(0), DocId(1)]);
        let mut cs = Vec::new();
        s.doc_concepts(DocId(0), &mut cs);
        assert_eq!(cs, vec![ConceptId(1), ConceptId(3)]);
        assert_eq!(s.doc_len(DocId(1)), 1);
        assert_eq!(s.num_docs(), 2);
    }

    #[test]
    fn buffers_are_appended_not_replaced() {
        let s = source();
        let mut docs = vec![DocId(9)];
        s.postings(ConceptId(3), &mut docs);
        assert_eq!(docs[0], DocId(9));
        assert_eq!(docs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "different corpora")]
    fn mismatched_indexes_panic() {
        let a = Corpus::from_concept_sets(vec![(vec![ConceptId(1)], 0)]);
        let b = Corpus::from_concept_sets(vec![(vec![ConceptId(1)], 0), (vec![], 0)]);
        MemorySource::new(InvertedIndex::build(&a, 2), ForwardIndex::build(&b));
    }
}
