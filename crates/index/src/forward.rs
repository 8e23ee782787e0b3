//! Forward index: document → its concept set.

use crate::packing;
use cbr_corpus::{Corpus, DocId};
use cbr_ontology::ConceptId;

/// CSR-layout forward index over a corpus.
///
/// kNDS consults this when a document needs its full concept set: DRC
/// probes (Algorithm 2 line 19) and the `|C|` normalizers of the SDS
/// distance (Equation 3).
#[derive(Debug, Clone)]
pub struct ForwardIndex {
    offsets: Vec<u32>,
    concepts: Vec<ConceptId>,
}

impl ForwardIndex {
    /// Builds the index for `corpus`.
    pub fn build(corpus: &Corpus) -> ForwardIndex {
        let mut offsets = Vec::with_capacity(corpus.len() + 1);
        let mut concepts = Vec::new();
        offsets.push(0u32);
        for d in corpus.documents() {
            concepts.extend_from_slice(d.concepts());
            offsets.push(packing::csr_offset(concepts.len()));
        }
        ForwardIndex { offsets, concepts }
    }

    /// The sorted concept set of document `d`.
    #[inline]
    pub fn concepts(&self, d: DocId) -> &[ConceptId] {
        let i = d.index();
        &self.concepts[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of distinct concepts of `d` (`|C|` of Equation 3).
    #[inline]
    pub fn num_concepts(&self, d: DocId) -> usize {
        self.concepts(d).len()
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Raw CSR parts (offsets, concepts) — used by the file image writer.
    pub(crate) fn parts(&self) -> (&[u32], &[ConceptId]) {
        (&self.offsets, &self.concepts)
    }

    /// Swaps the first two stored concepts so validator tests can prove
    /// that an unsorted concept set is detected.
    #[cfg(test)]
    pub(crate) fn corrupt_order_for_tests(&mut self) {
        self.concepts.swap(0, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_documents_to_concepts() {
        let corpus = Corpus::from_concept_sets(vec![
            (vec![ConceptId(3), ConceptId(1)], 0),
            (vec![], 0),
            (vec![ConceptId(2)], 0),
        ]);
        let idx = ForwardIndex::build(&corpus);
        assert_eq!(idx.concepts(DocId(0)), &[ConceptId(1), ConceptId(3)]);
        assert_eq!(idx.concepts(DocId(1)), &[] as &[ConceptId]);
        assert_eq!(idx.concepts(DocId(2)), &[ConceptId(2)]);
        assert_eq!(idx.num_concepts(DocId(0)), 2);
        assert_eq!(idx.num_docs(), 3);
    }

    #[test]
    fn agrees_with_corpus() {
        let corpus = Corpus::from_concept_sets(vec![
            (vec![ConceptId(5), ConceptId(2), ConceptId(5)], 0),
            (vec![ConceptId(9)], 0),
        ]);
        let idx = ForwardIndex::build(&corpus);
        for d in corpus.documents() {
            assert_eq!(idx.concepts(d.id()), d.concepts());
        }
    }
}
