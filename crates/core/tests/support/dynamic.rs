//! Dynamic index source: base indexes plus an append overlay.
//!
//! A key property the paper claims over the TA baseline (Section 1): "our
//! algorithm can integrate new documents into its computation on-the-fly;
//! i.e., when a new patient arrives at the point-of-care, we can instantly
//! add his or her EMR to our database. In contrast, TA would have to
//! update every concept inverted index with the distance from the newly
//! added EMR." [`DynamicSource`] realizes that property: a CSR
//! [`MemorySource`] for the bulk-loaded collection plus hash-map overlays
//! for appended documents. Appends are `O(|concepts|)`; queries see the
//! union immediately.
//!
//! The serving engine runs on the segmented, epoch-published
//! [`SegmentedSource`](cbr_index::SegmentedSource) instead; this
//! monolithic source is test support, not library API: it is the
//! *reference implementation* the equivalence proptests compare against
//! (`tests/segmented_equiv.rs`, which includes this file as a module) —
//! arbitrary append/delete/compact interleavings must yield bit-identical
//! query results on both.

use cbr_corpus::DocId;
use cbr_index::{IndexSource, MemorySource};
use cbr_ontology::{ConceptId, FxHashMap};

/// A [`MemorySource`] with an append-only overlay and deletion tombstones.
#[derive(Debug)]
pub struct DynamicSource {
    base: MemorySource,
    base_docs: usize,
    /// Concept → appended documents containing it.
    overlay_postings: FxHashMap<ConceptId, Vec<DocId>>,
    /// Appended documents' concept sets, dense from `base_docs`.
    overlay_docs: Vec<Box<[ConceptId]>>,
    /// Deleted documents (ids stay allocated; readers skip them).
    tombstones: cbr_ontology::FxHashSet<DocId>,
}

impl DynamicSource {
    /// Wraps a bulk-loaded source.
    pub fn new(base: MemorySource) -> DynamicSource {
        let base_docs = base.num_docs();
        DynamicSource {
            base,
            base_docs,
            overlay_postings: FxHashMap::default(),
            overlay_docs: Vec::new(),
            tombstones: cbr_ontology::FxHashSet::default(),
        }
    }

    /// Appends a document's concept set (normalized to sorted-set form),
    /// returning its new id. `O(|concepts|)` — no index rebuild.
    pub fn append(&mut self, mut concepts: Vec<ConceptId>) -> DocId {
        cbr_corpus::normalize_concepts(&mut concepts);
        let id = DocId::from_index(self.base_docs + self.overlay_docs.len());
        for &c in &concepts {
            self.overlay_postings.entry(c).or_default().push(id);
        }
        self.overlay_docs.push(concepts.into_boxed_slice());
        id
    }

    /// Number of appended (non-bulk) documents.
    pub fn appended(&self) -> usize {
        self.overlay_docs.len()
    }

    /// Marks a document deleted. Its id stays allocated (so other ids are
    /// stable) but it disappears from postings and from query results.
    /// Returns whether the document existed and was live.
    pub fn delete(&mut self, d: DocId) -> bool {
        if d.index() >= self.num_docs() {
            return false;
        }
        self.tombstones.insert(d)
    }

    /// Number of deleted documents.
    pub fn deleted(&self) -> usize {
        self.tombstones.len()
    }
}

impl IndexSource for DynamicSource {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        let start = out.len();
        self.base.postings(c, out);
        if let Some(extra) = self.overlay_postings.get(&c) {
            out.extend_from_slice(extra);
        }
        if !self.tombstones.is_empty() {
            let tombstones = &self.tombstones;
            let mut keep = start;
            for i in start..out.len() {
                if !tombstones.contains(&out[i]) {
                    out.swap(keep, i);
                    keep += 1;
                }
            }
            out.truncate(keep);
        }
    }

    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        if d.index() < self.base_docs {
            self.base.doc_concepts(d, out);
        } else {
            out.extend_from_slice(&self.overlay_docs[d.index() - self.base_docs]);
        }
    }

    fn doc_len(&self, d: DocId) -> usize {
        if d.index() < self.base_docs {
            self.base.doc_len(d)
        } else {
            self.overlay_docs[d.index() - self.base_docs].len()
        }
    }

    fn num_docs(&self) -> usize {
        self.base_docs + self.overlay_docs.len()
    }

    fn is_live(&self, d: DocId) -> bool {
        !self.tombstones.contains(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::Corpus;

    fn c(v: u32) -> ConceptId {
        ConceptId(v)
    }

    fn base() -> MemorySource {
        let corpus = Corpus::from_concept_sets(vec![(vec![c(1), c(2)], 0), (vec![c(2)], 0)]);
        MemorySource::build(&corpus, 6)
    }

    #[test]
    fn append_assigns_dense_ids() {
        let mut s = DynamicSource::new(base());
        assert_eq!(s.num_docs(), 2);
        let id = s.append(vec![c(3), c(1)]);
        assert_eq!(id, DocId(2));
        assert_eq!(s.num_docs(), 3);
        assert_eq!(s.appended(), 1);
    }

    #[test]
    fn postings_merge_base_and_overlay() {
        let mut s = DynamicSource::new(base());
        s.append(vec![c(1)]);
        let mut out = Vec::new();
        s.postings(c(1), &mut out);
        assert_eq!(out, vec![DocId(0), DocId(2)]);
        out.clear();
        s.postings(c(3), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn delete_removes_from_postings_and_liveness() {
        let mut s = DynamicSource::new(base());
        let extra = s.append(vec![c(2)]);
        assert!(s.delete(DocId(0)));
        assert!(!s.delete(DocId(0)), "double delete reports false");
        assert!(!s.delete(DocId(99)), "unknown id reports false");
        assert_eq!(s.deleted(), 1);
        assert!(!s.is_live(DocId(0)));
        assert!(s.is_live(extra));

        let mut out = Vec::new();
        s.postings(c(2), &mut out);
        assert_eq!(out, vec![DocId(1), extra], "doc 0 is tombstoned");
        // Order of survivors is preserved (swap-compaction keeps relative
        // order here because removals only shift later items forward).
        out.clear();
        s.postings(c(1), &mut out);
        assert!(out.is_empty() || out.iter().all(|&d| d != DocId(0)));
    }

    #[test]
    fn forward_reads_overlay_docs() {
        let mut s = DynamicSource::new(base());
        s.append(vec![c(5), c(3), c(5)]);
        let mut out = Vec::new();
        s.doc_concepts(DocId(2), &mut out);
        assert_eq!(out, vec![c(3), c(5)], "sorted and deduplicated");
        assert_eq!(s.doc_len(DocId(2)), 2);
        assert_eq!(s.doc_len(DocId(0)), 2);
    }
}
