//! Result checking: brute-force oracles and the result digest.
//!
//! Everything compares to the bit — `f64::to_bits` on distances, ties
//! within a ranking by `DocId` — so a change that reorders ties or rounds
//! differently counts as a failure, not as noise.

use crate::workload::{sub_seed, OracleKind, Query, K};
use cbr_corpus::DocId;
use cbr_dradix::brute;
use cbr_index::IndexSource;
use cbr_knds::RankedDoc;
use cbr_ontology::ConceptId;
use concept_rank::EngineSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether two rankings are the same documents at bit-identical
/// distances in the same order.
pub fn same_ranking(a: &[RankedDoc], b: &[RankedDoc]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.distance.to_bits() == y.distance.to_bits())
}

/// The concept set a query ranks against, as the engine normalizes it.
pub fn query_concepts(snapshot: &EngineSnapshot, query: &Query) -> Vec<ConceptId> {
    let mut concepts = match query {
        Query::Rds(c) => c.clone(),
        Query::SdsByDoc(d) => {
            let mut out = Vec::new();
            snapshot.source().doc_concepts(*d, &mut out);
            out
        }
    };
    concepts.retain(|&c| snapshot.eligible(c));
    concepts
}

/// Exact distance of `doc` from the query by the brute-force baseline.
fn brute_distance(snapshot: &EngineSnapshot, query: &Query, q: &[ConceptId], doc: DocId) -> f64 {
    let mut concepts = Vec::new();
    snapshot.source().doc_concepts(doc, &mut concepts);
    match query {
        Query::Rds(_) => {
            let d = brute::document_query_distance(snapshot.ontology(), &concepts, q);
            if d == cbr_dradix::INFINITE {
                f64::INFINITY
            } else {
                d as f64
            }
        }
        Query::SdsByDoc(_) => brute::document_document_distance(snapshot.ontology(), q, &concepts),
    }
}

/// `(distance, id)` order with distances compared as the ranking does.
fn ranks_before(a: &RankedDoc, b: &RankedDoc) -> bool {
    a.distance.total_cmp(&b.distance).then(a.doc.cmp(&b.doc)).is_lt()
}

/// Checks `results` — what the engine returned for `query` at `snapshot`
/// — against the workload's oracle. `seed` picks the sampled documents.
///
/// Under either oracle every returned document must be live, its distance
/// must be the brute-force distance to the bit, and the ranking must
/// ascend strictly by `(distance, DocId)`. Which of several documents
/// tied at the k-th distance is returned is the one thing kNDS leaves
/// open (it stops as soon as no unseen document can be *closer*), so
/// the full scan is compared rank by rank on distances, not on ids.
pub fn check(
    kind: OracleKind,
    snapshot: &EngineSnapshot,
    query: &Query,
    results: &[RankedDoc],
    seed: u64,
) -> bool {
    let q = query_concepts(snapshot, query);
    let exact = results.iter().all(|r| {
        snapshot.is_live(r.doc)
            && brute_distance(snapshot, query, &q, r.doc).to_bits() == r.distance.to_bits()
    });
    let ascending = results.windows(2).all(|w| ranks_before(&w[0], &w[1]));
    let Some(kth) = results.last() else {
        return false;
    };
    let complete = match kind {
        OracleKind::FullScan => {
            let expected = match query {
                Query::Rds(_) => snapshot.rds_full_scan(&q, K),
                Query::SdsByDoc(_) => snapshot.sds_full_scan(&q, K),
            };
            expected.is_ok_and(|e| {
                e.results.len() == results.len()
                    && e.results
                        .iter()
                        .zip(results)
                        .all(|(x, y)| x.distance.to_bits() == y.distance.to_bits())
            })
        }
        OracleKind::Sampled(sample) => {
            // Seeded live documents outside the result must be no closer
            // than the k-th result.
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
            results.len() == K.min(snapshot.num_docs())
                && (0..sample).all(|_| {
                    let d = DocId::from_index(rng.random_range(0..snapshot.num_docs()));
                    !snapshot.is_live(d)
                        || results.iter().any(|r| r.doc == d)
                        || brute_distance(snapshot, query, &q, d) >= kth.distance
                })
        }
    };
    exact && ascending && complete
}

/// FNV-1a over `(doc id, distance bits)` of every result folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one query's ranking in (its length too, so a dropped result
    /// cannot hide behind the next query's first).
    pub fn fold(&mut self, results: &[RankedDoc]) {
        self.bytes(&(results.len() as u64).to_le_bytes());
        for r in results {
            self.bytes(&r.doc.0.to_le_bytes());
            self.bytes(&r.distance.to_bits().to_le_bytes());
        }
    }

    /// The digest as the 16 hex digits `baseline.json` stores.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{concept_pool, make_queries, Spec};

    /// The oracle must bite: one distance off by one ulp and two results
    /// swapped are both failures, under either oracle kind.
    #[test]
    fn perturbed_and_swapped_results_are_failures() {
        for name in ["radio_rds", "patient_sds", "scale_rds"] {
            let spec = Spec::named(name).expect("known workload").micro();
            let shared = spec.build_engine();
            let snapshot = shared.snapshot();
            let pool = concept_pool(&snapshot, 50_000);
            let query = make_queries(&spec, &snapshot, &pool, 7).remove(0);
            let q = query_concepts(&snapshot, &query);
            let good = match &query {
                Query::Rds(_) => snapshot.rds(&q, K),
                Query::SdsByDoc(_) => snapshot.sds(&q, K),
            }
            .expect("generated queries never fail")
            .results;
            assert!(good.len() >= 2, "{name}: need two results to swap");
            for kind in [OracleKind::FullScan, OracleKind::Sampled(50)] {
                assert!(check(kind, &snapshot, &query, &good, 7), "{name}: {kind:?} rejects");

                let mut ulp = good.clone();
                ulp[0].distance = f64::from_bits(ulp[0].distance.to_bits() + 1);
                assert!(!check(kind, &snapshot, &query, &ulp, 7), "{name}: {kind:?} misses ulp");

                let mut swapped = good.clone();
                swapped.swap(0, 1);
                assert!(!check(kind, &snapshot, &query, &swapped, 7), "{name}: {kind:?} swap");

                let mut short = good.clone();
                short.pop();
                assert!(!check(kind, &snapshot, &query, &short, 7), "{name}: {kind:?} short");
            }

            let mut a = Digest::default();
            a.fold(&good);
            let mut b = Digest::default();
            let mut swapped = good.clone();
            swapped.swap(0, 1);
            b.fold(&swapped);
            assert_ne!(a, b, "digest must see order");
        }
    }
}
