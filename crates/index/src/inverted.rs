//! Inverted index: concept → documents containing it.

use crate::packing;
use cbr_corpus::{Corpus, DocId};
use cbr_ontology::ConceptId;

/// CSR-layout inverted index over a corpus.
///
/// `postings(c)` is the sorted list of documents containing concept `c` —
/// the `D(cj)` input of Algorithm 2 (kNDS line 11). Postings are sorted by
/// document id; the *distance-sorted* postings of the TA comparator are
/// materialized per query by `cbr-knds`, because document-to-concept
/// distances depend on the query-time ontology.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    offsets: Vec<u32>,
    docs: Vec<DocId>,
    num_docs: u32,
}

impl InvertedIndex {
    /// Builds the index for `corpus` over an ontology with
    /// `num_concepts` concepts.
    pub fn build(corpus: &Corpus, num_concepts: usize) -> InvertedIndex {
        let mut counts = vec![0u32; num_concepts];
        for d in corpus.documents() {
            for &c in d.concepts() {
                counts[c.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_concepts + 1);
        // The running sum stays in usize; each fence post narrows through
        // the checked CSR helper instead of accumulating in u32.
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c as usize;
            offsets.push(packing::csr_offset(acc));
        }
        let mut docs = vec![DocId(0); acc];
        let mut fill = offsets.clone();
        // Documents iterate in id order, so each posting list ends sorted.
        for d in corpus.documents() {
            for &c in d.concepts() {
                docs[fill[c.index()] as usize] = d.id();
                fill[c.index()] += 1;
            }
        }
        InvertedIndex { offsets, docs, num_docs: packing::narrow_u32(corpus.len()) }
    }

    /// Documents containing `c`, sorted by id. Concepts outside the indexed
    /// ontology return an empty slice.
    #[inline]
    pub fn postings(&self, c: ConceptId) -> &[DocId] {
        let i = c.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.docs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Collection frequency of `c` (length of its posting list).
    #[inline]
    pub fn frequency(&self, c: ConceptId) -> usize {
        self.postings(c).len()
    }

    /// Number of concepts covered (including ones with empty postings).
    pub fn num_concepts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of documents in the indexed corpus.
    pub fn num_docs(&self) -> usize {
        self.num_docs as usize
    }

    /// Total postings entries.
    pub fn total_postings(&self) -> usize {
        self.docs.len()
    }

    /// Raw CSR parts (offsets, docs) — used by the file image writer.
    pub(crate) fn parts(&self) -> (&[u32], &[DocId]) {
        (&self.offsets, &self.docs)
    }

    /// Rewrites the first posting to a document outside the forward index
    /// so validator tests can prove cross-consistency detection.
    #[cfg(test)]
    pub(crate) fn corrupt_posting_for_tests(&mut self, doc: DocId) {
        if let Some(slot) = self.docs.first_mut() {
            *slot = doc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u32) -> ConceptId {
        ConceptId(v)
    }

    fn corpus() -> Corpus {
        Corpus::from_concept_sets(vec![
            (vec![c(1), c(3)], 0),
            (vec![c(3)], 0),
            (vec![c(1), c(2), c(3)], 0),
        ])
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let idx = InvertedIndex::build(&corpus(), 5);
        assert_eq!(idx.postings(c(1)), &[DocId(0), DocId(2)]);
        assert_eq!(idx.postings(c(2)), &[DocId(2)]);
        assert_eq!(idx.postings(c(3)), &[DocId(0), DocId(1), DocId(2)]);
        assert_eq!(idx.postings(c(0)), &[] as &[DocId]);
        assert_eq!(idx.postings(c(4)), &[] as &[DocId]);
    }

    #[test]
    fn out_of_range_concept_is_empty() {
        let idx = InvertedIndex::build(&corpus(), 5);
        assert_eq!(idx.postings(c(100)), &[] as &[DocId]);
    }

    #[test]
    fn counts_and_sizes() {
        let idx = InvertedIndex::build(&corpus(), 5);
        assert_eq!(idx.frequency(c(3)), 3);
        assert_eq!(idx.num_concepts(), 5);
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.total_postings(), 6);
    }
}
