//! Equivalence proptest: the segmented, epoch-published index must be
//! indistinguishable from the monolithic overlay source it replaced.
//!
//! [`DynamicSource`] (base CSR with hash-map overlay and tombstone set)
//! is the reference implementation; [`SegmentedSource`] (immutable CSR
//! segments, memtable, tombstone bitset, tiered compaction) is the
//! serving implementation. For arbitrary interleavings of append,
//! delete, seal, and compact, the two must agree bit-for-bit — on the
//! raw [`IndexSource`] contract (postings, forward reads, liveness) and
//! on full `rds`/`sds` query results over the kNDS engine.
//!
//! The capture step additionally models a query racing a publish: a
//! [`SegmentedView`] taken mid-sequence must keep answering against its
//! pinned epoch — identical to an oracle frozen at capture time — while
//! the writer keeps appending, deleting, and physically compacting
//! underneath it.

#[path = "support/dynamic.rs"]
mod dynamic;

use cbr_corpus::{Corpus, DocId};
use cbr_index::{CompactionPolicy, IndexSource, MemorySource, SegmentedSource, SegmentedView};
use cbr_knds::{Knds, KndsConfig};
use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
use dynamic::DynamicSource;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::sync::OnceLock;

/// One writer operation, drawn arbitrarily. Append payloads are indexes
/// into the concept pool (unsorted, possibly duplicated — both sources
/// must normalize identically); deletes pick a doc id modulo the current
/// collection size at apply time.
#[derive(Debug, Clone)]
enum Op {
    Append(Vec<usize>),
    Delete(usize),
    Compact,
    MaybeCompact,
}

/// Weighted op sampler: appends half the time, deletes a quarter, the
/// two compaction flavors an eighth each.
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn sample(&self, rng: &mut TestRng) -> Op {
        match rng.below(8) {
            0..=3 => Op::Append((0..rng.below(8)).map(|_| rng.below(1_000) as usize).collect()),
            4 | 5 => Op::Delete(rng.below(1_000) as usize),
            6 => Op::Compact,
            _ => Op::MaybeCompact,
        }
    }
}

struct Fixture {
    ontology: Ontology,
    corpus: Corpus,
    pool: Vec<ConceptId>,
}

/// Shared fixture: one small ontology and bulk corpus for every case.
fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let ontology = OntologyGenerator::new(GeneratorConfig::small(400)).generate();
        let pool: Vec<ConceptId> =
            ontology.concepts().filter(|&c| ontology.depth(c) >= 2).collect();
        assert!(pool.len() >= 32, "fixture pool too small");
        // A dozen bulk docs of 3 concepts each, deterministically spread.
        let docs: Vec<(Vec<ConceptId>, u32)> = (0..12)
            .map(|i| ((0..3).map(|j| pool[(i * 17 + j * 5) % pool.len()]).collect(), 0))
            .collect();
        let corpus = Corpus::from_concept_sets(docs);
        Fixture { ontology, corpus, pool }
    })
}

/// A tight policy so short op sequences still exercise sealing and both
/// compaction paths.
fn tight_policy() -> CompactionPolicy {
    CompactionPolicy { seal_threshold: 3, merge_fanin: 2, small_max_docs: 64 }
}

/// Shadow of the logical collection, for freezing oracles mid-sequence.
#[derive(Clone)]
struct Shadow {
    docs: Vec<Vec<ConceptId>>,
    dead: Vec<bool>,
}

impl Shadow {
    fn oracle(&self, concept_bound: usize) -> DynamicSource {
        let sets: Vec<(Vec<ConceptId>, u32)> = self.docs.iter().map(|c| (c.clone(), 0)).collect();
        let mut oracle = DynamicSource::new(MemorySource::build(
            &Corpus::from_concept_sets(sets),
            concept_bound,
        ));
        for (i, &dead) in self.dead.iter().enumerate() {
            if dead {
                oracle.delete(DocId::from_index(i));
            }
        }
        oracle
    }
}

/// The raw IndexSource contract: postings per concept, forward reads,
/// lengths, liveness, and document count must agree exactly.
fn assert_source_equiv(
    a: &impl IndexSource,
    b: &impl IndexSource,
    pool: &[ConceptId],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.num_docs(), b.num_docs(), "num_docs");
    let (mut pa, mut pb) = (Vec::new(), Vec::new());
    for &c in pool {
        pa.clear();
        pb.clear();
        a.postings(c, &mut pa);
        b.postings(c, &mut pb);
        prop_assert_eq!(&pa, &pb, "postings of {}", c);
    }
    let (mut fa, mut fb) = (Vec::new(), Vec::new());
    for i in 0..a.num_docs() {
        let d = DocId::from_index(i);
        prop_assert_eq!(a.is_live(d), b.is_live(d), "liveness of {}", d);
        // Forward reads are only defined for live documents: physical
        // compaction drops a tombstoned payload (length 0) while the
        // monolithic overlay keeps it — both are correct, since nothing
        // on the query path reads a dead document.
        if !a.is_live(d) {
            continue;
        }
        prop_assert_eq!(a.doc_len(d), b.doc_len(d), "doc_len of {}", d);
        fa.clear();
        fb.clear();
        a.doc_concepts(d, &mut fa);
        b.doc_concepts(d, &mut fb);
        prop_assert_eq!(&fa, &fb, "concepts of {}", d);
    }
    Ok(())
}

/// Full-engine equivalence: rds and sds over both sources return
/// bit-identical rankings (same docs, same distances, same order).
fn assert_query_equiv(
    ontology: &Ontology,
    a: &impl IndexSource,
    b: &impl IndexSource,
    shadow: &Shadow,
    pool: &[ConceptId],
    qseed: u64,
) -> Result<(), TestCaseError> {
    let cfg = KndsConfig::default().with_error_threshold(0.5);
    let ka = Knds::new(ontology, a, cfg.clone());
    let kb = Knds::new(ontology, b, cfg);
    // RDS: a few deterministic concept queries from the pool.
    for qi in 0..4u64 {
        let s = qseed.wrapping_add(qi.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut q: Vec<ConceptId> =
            (0..3).map(|j| pool[((s >> (j * 8)) as usize) % pool.len()]).collect();
        q.sort_unstable();
        q.dedup();
        let (ra, rb) = (ka.rds(&q, 5), kb.rds(&q, 5));
        prop_assert_eq!(&ra.results, &rb.results, "rds({:?})", &q);
    }
    // SDS: the first few live, non-empty documents as query docs.
    let mut tried = 0;
    for (i, concepts) in shadow.docs.iter().enumerate() {
        if tried >= 3 {
            break;
        }
        if shadow.dead[i] || concepts.is_empty() {
            continue;
        }
        tried += 1;
        let (ra, rb) = (ka.sds(concepts, 5), kb.sds(concepts, 5));
        prop_assert_eq!(&ra.results, &rb.results, "sds(doc {})", i);
    }
    Ok(())
}

fn run_case(ops: Vec<Op>, qseed: u64) -> Result<(), TestCaseError> {
    let fx = fixture();
    let concept_bound = fx.ontology.len();
    let mut seg = SegmentedSource::from_corpus(&fx.corpus, tight_policy());
    let mut mono = DynamicSource::new(MemorySource::build(&fx.corpus, concept_bound));
    let mut shadow = Shadow {
        docs: fx.corpus.documents().map(|d| d.concepts().to_vec()).collect(),
        dead: vec![false; fx.corpus.len()],
    };
    // A view captured mid-sequence, with the shadow frozen alongside it.
    let mut captured: Option<(SegmentedView, Shadow)> = None;
    let capture_at = ops.len() / 2;

    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Append(picks) => {
                let concepts: Vec<ConceptId> =
                    picks.iter().map(|&p| fx.pool[p % fx.pool.len()]).collect();
                let a = seg.append(concepts.clone());
                let b = mono.append(concepts.clone());
                prop_assert_eq!(a, b, "append ids diverged");
                let mut normalized = concepts;
                cbr_corpus::normalize_concepts(&mut normalized);
                shadow.docs.push(normalized);
                shadow.dead.push(false);
            }
            Op::Delete(pick) => {
                // Deliberately may hit dead docs (both must report false)
                // and, via the +3, ids just past the end.
                let id = DocId::from_index(pick % (shadow.docs.len() + 3));
                let a = seg.delete(id);
                let b = mono.delete(id);
                prop_assert_eq!(a, b, "delete({}) diverged", id);
                if a {
                    shadow.dead[id.index()] = true;
                }
            }
            // Compaction is segmented-only: physically rewrites segments,
            // must not change observable contents.
            Op::Compact => {
                seg.seal();
                seg.compact_all();
            }
            Op::MaybeCompact => {
                seg.maybe_compact();
            }
        }
        if i == capture_at {
            captured = Some((seg.view(), shadow.clone()));
        }
    }

    // Final states agree on everything.
    let view = seg.view();
    assert_source_equiv(&view, &mono, &fx.pool)?;
    assert_query_equiv(&fx.ontology, &view, &mono, &shadow, &fx.pool, qseed)?;

    // The captured view still answers against its pinned epoch, even
    // though appends, deletes, and physical compactions have since been
    // published past it.
    if let Some((old_view, old_shadow)) = captured {
        let oracle = old_shadow.oracle(concept_bound);
        assert_source_equiv(&old_view, &oracle, &fx.pool)?;
        assert_query_equiv(&fx.ontology, &old_view, &oracle, &old_shadow, &fx.pool, qseed)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn segmented_source_is_equivalent_to_the_monolithic_oracle(
        ops in vec(OpStrategy, 1..48),
        qseed in any::<u64>(),
    ) {
        run_case(ops, qseed)?;
    }
}

/// A directed (non-random) case pinning the exact scenario from the
/// issue: a query racing a compaction-published snapshot sees its pinned
/// epoch bit-for-bit.
#[test]
fn view_pinned_before_compaction_is_unaffected_by_it() {
    let fx = fixture();
    let mut seg = SegmentedSource::from_corpus(&fx.corpus, tight_policy());
    for i in 0..10 {
        seg.append(vec![fx.pool[i * 3 % fx.pool.len()], fx.pool[i % fx.pool.len()]]);
    }
    seg.delete(DocId(2));
    let pinned = seg.view();
    let shadow = Shadow {
        docs: {
            let mut docs: Vec<Vec<ConceptId>> =
                fx.corpus.documents().map(|d| d.concepts().to_vec()).collect();
            for i in 0..10usize {
                let mut c = vec![fx.pool[i * 3 % fx.pool.len()], fx.pool[i % fx.pool.len()]];
                cbr_corpus::normalize_concepts(&mut c);
                docs.push(c);
            }
            docs
        },
        dead: {
            let mut dead = vec![false; fx.corpus.len() + 10];
            dead[2] = true;
            dead
        },
    };
    // Mutate and physically compact behind the pinned view.
    seg.delete(DocId(5));
    for i in 0..6 {
        seg.append(vec![fx.pool[(i * 7 + 1) % fx.pool.len()]]);
    }
    seg.seal();
    assert!(seg.compact_all(), "tombstones force a physical rewrite");
    let oracle = shadow.oracle(fx.ontology.len());
    assert_source_equiv(&pinned, &oracle, &fx.pool).unwrap();
    assert_query_equiv(&fx.ontology, &pinned, &oracle, &shadow, &fx.pool, 0xD00D).unwrap();
}
