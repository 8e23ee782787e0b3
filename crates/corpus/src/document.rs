//! Documents as concept sets.

use cbr_ontology::ConceptId;
use std::fmt;

/// Dense identifier of a document within one [`Corpus`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "document index overflow");
        DocId(index as u32)
    }
}

impl fmt::Debug for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A document reduced to its concept set (Section 3.1), plus the token
/// count of the source text it came from (used only for the Table 3
/// statistics — the ranking algorithms never look at tokens).
///
/// Concepts are stored sorted and deduplicated; the paper's distance
/// definitions (Equations 1–3) treat documents as sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    id: DocId,
    concepts: Box<[ConceptId]>,
    token_count: u32,
}

/// Normalizes a raw concept list into the set representation every index
/// layer expects: sorted ascending, duplicates removed.
///
/// The paper's distance definitions (Equations 1–3) treat documents as
/// concept *sets*; this is the single place that turns an extraction
/// result into one. [`Document::new`], the dynamic overlay's append path,
/// and the segmented memtable all go through it, so a concept set is
/// normalized exactly once however it enters the system.
pub fn normalize_concepts(concepts: &mut Vec<ConceptId>) {
    concepts.sort_unstable();
    concepts.dedup();
}

impl Document {
    /// Creates a document, sorting and deduplicating `concepts`.
    pub fn new(id: DocId, mut concepts: Vec<ConceptId>, token_count: u32) -> Self {
        normalize_concepts(&mut concepts);
        Document { id, concepts: concepts.into_boxed_slice(), token_count }
    }

    /// The document identifier.
    #[inline]
    pub fn id(&self) -> DocId {
        self.id
    }

    /// The sorted, deduplicated concept set.
    #[inline]
    pub fn concepts(&self) -> &[ConceptId] {
        &self.concepts
    }

    /// Number of distinct concepts (`|C|` in Equation 3).
    #[inline]
    pub fn num_concepts(&self) -> usize {
        self.concepts.len()
    }

    /// Token count of the source text.
    #[inline]
    pub fn token_count(&self) -> u32 {
        self.token_count
    }

    /// Whether the document contains `c` (binary search).
    pub fn contains(&self, c: ConceptId) -> bool {
        self.concepts.binary_search(&c).is_ok()
    }

    /// Returns a copy with only the concepts accepted by `keep`. The id and
    /// token count are preserved.
    pub fn retained(&self, mut keep: impl FnMut(ConceptId) -> bool) -> Document {
        Document {
            id: self.id,
            concepts: self.concepts.iter().copied().filter(|&c| keep(c)).collect(),
            token_count: self.token_count,
        }
    }
}

/// An immutable collection of documents with dense ids.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    documents: Vec<Document>,
}

impl Corpus {
    /// Creates a corpus, asserting that document ids are dense (`0..n`).
    pub fn new(documents: Vec<Document>) -> Self {
        for (i, d) in documents.iter().enumerate() {
            assert_eq!(d.id().index(), i, "document ids must be dense and ordered");
        }
        Corpus { documents }
    }

    /// Builds a corpus from raw concept sets, assigning dense ids in order.
    pub fn from_concept_sets(sets: Vec<(Vec<ConceptId>, u32)>) -> Self {
        let documents = sets
            .into_iter()
            .enumerate()
            .map(|(i, (concepts, tokens))| Document::new(DocId::from_index(i), concepts, tokens))
            .collect();
        Corpus { documents }
    }

    /// Number of documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus has no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The document with id `id`.
    #[inline]
    pub fn get(&self, id: DocId) -> &Document {
        &self.documents[id.index()]
    }

    /// Iterator over all documents.
    pub fn documents(&self) -> impl ExactSizeIterator<Item = &Document> {
        self.documents.iter()
    }

    /// Iterator over all document ids.
    pub fn doc_ids(&self) -> impl ExactSizeIterator<Item = DocId> {
        (0..self.documents.len()).map(DocId::from_index)
    }

    /// How many documents each concept appears in (collection frequency),
    /// as a map from concept to count.
    pub fn concept_frequencies(&self) -> cbr_ontology::FxHashMap<ConceptId, u32> {
        let mut freq = cbr_ontology::FxHashMap::default();
        for d in &self.documents {
            for &c in d.concepts() {
                *freq.entry(c).or_insert(0) += 1;
            }
        }
        freq
    }

    /// Returns a corpus in which every document keeps only the concepts
    /// accepted by `keep`. Documents that become empty are retained (they
    /// simply never match anything), preserving id stability.
    pub fn retained(&self, mut keep: impl FnMut(ConceptId) -> bool) -> Corpus {
        Corpus { documents: self.documents.iter().map(|d| d.retained(&mut keep)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u32) -> ConceptId {
        ConceptId(v)
    }

    #[test]
    fn normalize_concepts_sorts_and_dedups_in_place() {
        let mut set = vec![c(4), c(1), c(4), c(4), c(2)];
        normalize_concepts(&mut set);
        assert_eq!(set, vec![c(1), c(2), c(4)]);
        let mut empty: Vec<ConceptId> = Vec::new();
        normalize_concepts(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn document_sorts_and_dedups() {
        let d = Document::new(DocId(0), vec![c(3), c(1), c(3), c(2)], 10);
        assert_eq!(d.concepts(), &[c(1), c(2), c(3)]);
        assert_eq!(d.num_concepts(), 3);
        assert!(d.contains(c(2)));
        assert!(!d.contains(c(9)));
        assert_eq!(d.token_count(), 10);
    }

    #[test]
    fn retained_filters_concepts() {
        let d = Document::new(DocId(0), vec![c(1), c(2), c(3)], 5);
        let r = d.retained(|cc| cc != c(2));
        assert_eq!(r.concepts(), &[c(1), c(3)]);
        assert_eq!(r.id(), d.id());
        assert_eq!(r.token_count(), 5);
    }

    #[test]
    fn corpus_dense_ids() {
        let corpus = Corpus::from_concept_sets(vec![(vec![c(1)], 3), (vec![c(2), c(1)], 4)]);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.get(DocId(1)).concepts(), &[c(1), c(2)]);
        assert_eq!(corpus.doc_ids().collect::<Vec<_>>(), vec![DocId(0), DocId(1)]);
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn corpus_rejects_sparse_ids() {
        Corpus::new(vec![Document::new(DocId(5), vec![], 0)]);
    }

    #[test]
    fn concept_frequencies_count_documents_not_occurrences() {
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c(1), c(1), c(2)], 0), // c1 duplicated within the doc
            (vec![c(1)], 0),
        ]);
        let freq = corpus.concept_frequencies();
        assert_eq!(freq[&c(1)], 2);
        assert_eq!(freq[&c(2)], 1);
    }

    #[test]
    fn corpus_retained_keeps_empty_documents() {
        let corpus = Corpus::from_concept_sets(vec![(vec![c(1)], 0), (vec![c(2)], 0)]);
        let filtered = corpus.retained(|cc| cc == c(2));
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.get(DocId(0)).num_concepts(), 0);
        assert_eq!(filtered.get(DocId(1)).num_concepts(), 1);
    }
}
