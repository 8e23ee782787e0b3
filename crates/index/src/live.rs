//! Per-concept liveness: where the kNDS traversal has nothing to find.
//!
//! Algorithm 2 walks ∧-shaped paths over the whole ontology, but a
//! collection annotates only a fraction of its concepts, and whole
//! subtrees hold no document at all. Two bits per concept let a search
//! skip that work without changing a result:
//!
//! * `live_here(c)` — `c` has a live posting. Where it is unset the
//!   posting list is empty, and the search does not read it.
//! * `live_below(c)` — `c` or some descendant has a live posting. The set
//!   is upward-closed (`live_below(c)` implies `live_below(p)` for every
//!   parent `p`). Where it is unset no downward path through `c` reaches
//!   a document, and the search takes no downward step into `c`.
//!
//! Both sets may be *supersets* of the truth: a set bit that should not
//! be costs a wasted step, while an unset bit on a live concept would
//! lose a result. So deletions leave the bits alone, appends only OR bits
//! in, and a merging compaction recomputes them exactly. Ids past the
//! ontology read as live.
//!
//! [`LiveConcepts`] is the writer's copy, shared copy-on-write with every
//! view published since its last change; [`LiveMask`] is the borrowed
//! read side that [`IndexSource::live_mask`] hands a search.

use crate::source::IndexSource;
use cbr_corpus::DocId;
use cbr_ontology::{ConceptId, Ontology};
use std::sync::Arc;

/// Bit `i` of a liveness bitset; ids past its end read as live.
#[inline]
fn live_bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_none_or(|w| (w >> (i % 64)) & 1 == 1)
}

/// Sets bit `i` (a no-op past the end, where every id reads live).
fn set_live_bit(words: &mut [u64], i: usize) {
    if let Some(w) = words.get_mut(i / 64) {
        *w |= 1 << (i % 64);
    }
}

/// Borrowed per-concept liveness bits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveMask<'a> {
    here: &'a [u64],
    below: &'a [u64],
}

impl LiveMask<'static> {
    /// Every concept live: the mask of a source that publishes none, under
    /// which a search prunes nothing.
    pub const ALL_LIVE: LiveMask<'static> = LiveMask { here: &[], below: &[] };
}

impl LiveMask<'_> {
    /// Whether `c` may have a live posting.
    #[inline]
    pub fn live_here(self, c: ConceptId) -> bool {
        live_bit(self.here, c.index())
    }

    /// Whether `c` or a descendant may have a live posting.
    #[inline]
    pub fn live_below(self, c: ConceptId) -> bool {
        live_bit(self.below, c.index())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Bits {
    here: Vec<u64>,
    below: Vec<u64>,
}

/// The writer's liveness mask. Cloning it into a view is one refcount
/// bump; a change copies the bits only while a published view still
/// shares them. The default publishes no bits: every concept reads live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveConcepts {
    bits: Option<Arc<Bits>>,
}

impl LiveConcepts {
    /// The exact mask of `source` over `ontology`: `live_here` from the
    /// concepts of every live document, `live_below` its upward closure.
    pub fn exact(ontology: &Ontology, source: &impl IndexSource) -> LiveConcepts {
        let n = ontology.id_bound();
        let mut here = vec![0u64; n.div_ceil(64)];
        // The padding bits past the last concept read live, like every id
        // past the end.
        if let Some(last) = here.last_mut().filter(|_| !n.is_multiple_of(64)) {
            *last = !0 << (n % 64);
        }
        let mut concepts = Vec::new();
        // cplx: bound d — one visit per document slot, one bit per concept of a live one
        for i in 0..source.num_docs() {
            let d = DocId::from_index(i);
            if source.is_live(d) {
                concepts.clear();
                source.doc_concepts(d, &mut concepts);
                for c in &concepts {
                    set_live_bit(&mut here, c.index());
                }
            }
        }
        let mut below = here.clone();
        // Reverse topological order visits every child before its parents,
        // so one pass closes the set upward.
        // cplx: bound c — one visit per concept, one step per parent edge
        for &c in ontology.topological_order().iter().rev() {
            if live_bit(&below, c.index()) {
                for p in ontology.parents(c) {
                    set_live_bit(&mut below, p.index());
                }
            }
        }
        LiveConcepts { bits: Some(Arc::new(Bits { here, below })) }
    }

    /// ORs in a document appended with `concepts`: each becomes
    /// `live_here`, and a worklist walks up from it setting `live_below`.
    /// The walk stops at a bit already set — the set is upward-closed, so
    /// everything above it is set too. Returns how many bits changed; the
    /// bits are copied away from the published views only when some do.
    pub fn or_document(&mut self, ontology: &Ontology, concepts: &[ConceptId]) -> usize {
        let Some(shared) = self.bits.as_mut() else {
            return 0;
        };
        if concepts.iter().all(|c| live_bit(&shared.here, c.index())) {
            return 0;
        }
        let bits = Arc::make_mut(shared);
        let mut changed = 0;
        let mut work = Vec::new();
        for &c in concepts {
            if !live_bit(&bits.here, c.index()) {
                set_live_bit(&mut bits.here, c.index());
                changed += 1;
                work.push(c);
            }
        }
        // cplx: bound c — a concept's bit is set at most once, and one already set pushes nothing
        while let Some(c) = work.pop() {
            if live_bit(&bits.below, c.index()) {
                continue;
            }
            set_live_bit(&mut bits.below, c.index());
            changed += 1;
            work.extend(ontology.parents(c).iter().filter(|p| !live_bit(&bits.below, p.index())));
        }
        changed
    }

    /// The read side of this mask.
    #[inline]
    pub fn as_mask(&self) -> LiveMask<'_> {
        match &self.bits {
            Some(bits) => LiveMask { here: &bits.here, below: &bits.below },
            None => LiveMask::ALL_LIVE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentedView;
    use cbr_corpus::Corpus;
    use cbr_ontology::fixture;

    fn names(fig: &fixture::Figure3, ns: &[&str]) -> Vec<ConceptId> {
        ns.iter().map(|n| fig.concept(n)).collect()
    }

    #[test]
    fn the_default_mask_reads_live_for_every_id() {
        let fig = fixture::figure3();
        let live = LiveConcepts::default();
        for i in 0..fig.ontology.id_bound() + 130 {
            let c = ConceptId::from_index(i);
            assert!(live.as_mask().live_here(c) && live.as_mask().live_below(c), "{i}");
            assert!(LiveMask::ALL_LIVE.live_here(c) && LiveMask::ALL_LIVE.live_below(c), "{i}");
        }
        // With no bits there is nothing to OR into.
        assert_eq!(live.clone().or_document(&fig.ontology, &[fig.concept("U")]), 0);
    }

    #[test]
    fn exact_marks_postings_and_their_ancestors_only() {
        let fig = fixture::figure3();
        let corpus = Corpus::from_concept_sets(vec![(names(&fig, &["M", "T"]), 0)]);
        let source = SegmentedView::from_corpus(&corpus);
        let live = LiveConcepts::exact(&fig.ontology, &source);
        let mask = live.as_mask();
        for c in fig.ontology.concepts() {
            let name = fig.ontology.label(c);
            assert_eq!(mask.live_here(c), ["M", "T"].contains(&name), "here {name}");
            // M under I, G, E, B, A; T under Q, P, H, F, D, A.
            let above = ["M", "I", "G", "E", "B", "T", "Q", "P", "H", "F", "D", "A"];
            assert_eq!(mask.live_below(c), above.contains(&name), "below {name}");
        }
        // Past the ontology, padding bits included, every id reads live.
        let past = ConceptId::from_index(fig.ontology.id_bound());
        assert!(mask.live_here(past) && mask.live_below(past));
    }

    #[test]
    fn the_ancestor_worklist_stops_at_the_first_bit_already_set() {
        let fig = fixture::figure3();
        let corpus = Corpus::from_concept_sets(vec![(names(&fig, &["M"]), 0)]);
        let source = SegmentedView::from_corpus(&corpus);
        let mut live = LiveConcepts::exact(&fig.ontology, &source);
        let published = live.clone();
        // N's parent I is already live below: here(N) + below(N), nothing
        // above it.
        assert_eq!(live.or_document(&fig.ontology, &names(&fig, &["N"])), 2);
        // A concept already live changes nothing and copies nothing.
        let before = live.clone();
        assert_eq!(live.or_document(&fig.ontology, &names(&fig, &["M", "N"])), 0);
        let shared = |l: &LiveConcepts| l.bits.clone().expect("exact masks carry bits");
        assert!(Arc::ptr_eq(&shared(&live), &shared(&before)));
        // U sits under R → K → J, and J under both G (live) and F (not):
        // here(U), below(U, R, K, J, F, D); the walk stops at G and A.
        assert_eq!(live.or_document(&fig.ontology, &names(&fig, &["U"])), 7);
        let mask = live.as_mask();
        for n in ["U", "R", "K", "J", "F", "D"] {
            assert!(mask.live_below(fig.concept(n)), "{n}");
        }
        assert!(!mask.live_below(fig.concept("H")) && !mask.live_here(fig.concept("R")));
        // The view published before the appends still reads the old bits.
        assert!(!published.as_mask().live_below(fig.concept("N")));
        // And the result equals an exact build of the grown collection.
        let grown = Corpus::from_concept_sets(vec![
            (names(&fig, &["M"]), 0),
            (names(&fig, &["N"]), 0),
            (names(&fig, &["U"]), 0),
        ]);
        let source = SegmentedView::from_corpus(&grown);
        assert_eq!(live, LiveConcepts::exact(&fig.ontology, &source));
    }
}
