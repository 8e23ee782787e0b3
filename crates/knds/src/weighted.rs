//! Weighted-edge kNDS — the Section 7 future-work variant.
//!
//! The paper closes by asking "how non is-a ontological edges can be
//! incorporated into the similarity function and how this would affect the
//! algorithms' performance". With per-edge integer weights
//! ([`cbr_ontology::EdgeWeights`]) the level-synchronized BFS of the
//! unit-weight engine becomes a **bucketed Dijkstra**: states pop in
//! non-decreasing accumulated weight, one bucket per integer distance.
//! That is a change of traversal order and nothing else, so this module
//! is only the `Buckets` frontier policy plugged into the one
//! Algorithm 2 loop of [`crate::engine`]. All its machinery carries over —
//!
//! * coverage at first (minimal-distance) pop gives exact `Md`/`M'd`
//!   entries, because pops are globally distance-ordered;
//! * after finishing bucket `d`, every uncovered term has distance at
//!   least `d + 1` (weights are ≥ 1), so the Equation 6/8 lower bounds and
//!   the Equation 9 error estimate apply verbatim;
//! * termination is still `D⁻ ≥ D⁺ₖ`, so results are exact for any `εθ`.
//!
//! Push-time state deduplication (safe with unit steps) is replaced by the
//! classic lazy-deletion rule: a state re-pushed with a smaller tentative
//! distance supersedes the old one, and the stale copy is dropped when its
//! bucket drains. A round's pushes are relaxed origin by origin when its
//! expansion ends, and a bucket holds the ones kept; draining it admits
//! them into the same origin rows a BFS level pends in, so a bucket's
//! round is built — one entry per concept, ascending — exactly as a
//! level's is, and the rows' seen bits mark the states settled.
//!
//! Like the unit-weight engine, all per-query state (candidate table,
//! Dijkstra buckets, coverage maps, DRC scratch) lives in a borrowed
//! [`KndsWorkspace`]; use the `*_with` entry points to reuse one across
//! queries.

use crate::config::KndsConfig;
use crate::engine::{Frontier, Hooks, Knds, QueryKind, QueryResult, Round};
use crate::workspace::{DenseTables, KndsWorkspace};
use cbr_dradix::Drc;
use cbr_index::{packing, IndexSource};
use cbr_ontology::{ConceptId, EdgeWeights, Ontology};

/// Top-k search under weighted valid-path distances.
#[derive(Debug)]
pub struct WeightedKnds<'a, S: IndexSource> {
    /// The shared (ontology, source, configuration) shell and runner.
    base: Knds<'a, S>,
    weights: &'a EdgeWeights,
}

impl<'a, S: IndexSource> WeightedKnds<'a, S> {
    /// Creates the weighted engine.
    pub fn new(
        ontology: &'a Ontology,
        weights: &'a EdgeWeights,
        source: &'a S,
        config: KndsConfig,
    ) -> Self {
        WeightedKnds { base: Knds::new(ontology, source, config), weights }
    }

    /// The one query entry point, as [`Knds::run`]: a `kind` query over the
    /// caller's workspace with optional [`Hooks`]; the four methods below
    /// are one-line conveniences over it.
    pub fn run(
        &self,
        ws: &mut KndsWorkspace,
        kind: QueryKind,
        query: &[ConceptId],
        k: usize,
        hooks: Hooks<'_>,
    ) -> QueryResult {
        self.base.search(self.buckets(), ws, kind, query, k, hooks)
    }

    /// Weighted RDS: top-k under `Ddq` with weighted concept distances.
    pub fn rds(&self, query: &[ConceptId], k: usize) -> QueryResult {
        self.rds_with(&mut KndsWorkspace::new(), query, k)
    }

    /// [`WeightedKnds::rds`] over a caller-owned workspace; see
    /// [`Knds::rds_with`](crate::Knds::rds_with).
    pub fn rds_with(&self, ws: &mut KndsWorkspace, query: &[ConceptId], k: usize) -> QueryResult {
        self.run(ws, QueryKind::Rds, query, k, Hooks::default())
    }

    /// Weighted SDS: top-k under the symmetric `Ddd` with weighted
    /// concept distances.
    pub fn sds(&self, query_doc: &[ConceptId], k: usize) -> QueryResult {
        self.sds_with(&mut KndsWorkspace::new(), query_doc, k)
    }

    /// [`WeightedKnds::sds`] over a caller-owned workspace; see
    /// [`Knds::rds_with`](crate::Knds::rds_with).
    pub fn sds_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
    ) -> QueryResult {
        self.run(ws, QueryKind::Sds, query_doc, k, Hooks::default())
    }

    /// The bucket policy over this engine's weights; `seed` attaches the
    /// workspace's retained buckets.
    fn buckets(&self) -> Buckets<'a> {
        Buckets {
            weights: self.weights,
            queues: Queues::default(),
            round: Round::default(),
            dedup: true,
            queued: 0,
        }
    }
}

/// Weighted edges: distance-indexed Dijkstra buckets of [`Push`]es.
/// Buckets grow on demand; both the outer `Vec` and every bucket are
/// retained by the workspace across queries. An origin-state may be
/// pushed more than once (a cheaper path found later), so dedup is a
/// per-state best tentative distance — 8 stamped bytes where
/// [`Levels`](crate::engine) pays one bit. Buckets drain in increasing
/// distance, so the first drain of an origin-state settles it at its
/// minimal distance: the drain admits origins through the rows' seen bits
/// as a level's pushes are admitted, which drops a superseded copy (its
/// state settled at the smaller distance first) without reading the
/// distance table again.
///
/// Levels can group a level's origins by concept as they are pushed,
/// because only one level pends at a time and each concept's origin row
/// holds it. Here several buckets pend at once, so a bucket keeps its
/// pushes ungrouped, and grouping waits for the drain, when the bucket is
/// the one pending round and the rows are free to hold it.
///
/// A round's pushes are relaxed when its expansion ends, origin by
/// origin. The distance table is origin-major, so one origin's
/// relaxations read one region of it. Relaxed as they came — concept by
/// concept, each with its own origins — the same reads measured about a
/// third more traversal time.
struct Buckets<'a> {
    weights: &'a EdgeWeights,
    /// The buckets and the round's staged pushes (the workspace's).
    queues: Queues,
    /// The round handed out (the workspace's retained round buffer).
    round: Round,
    /// Whether visits are deduplicated (see [`Buckets::keep`]).
    dedup: bool,
    /// Origin-states pushed into the buckets not drained yet (what the
    /// queue watermark limits).
    queued: usize,
}

/// The weighted search's retained lists of [`Push`]es.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    /// Bucket `d`: the pushes kept at distance `d` and not drained yet.
    pub(crate) buckets: Vec<Vec<Push>>,
    /// The round's pushes, one list per origin, until the round ends.
    pub(crate) staged: Vec<Vec<Push>>,
}

impl Queues {
    /// Empties every list, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        for pushes in self.buckets.iter_mut().chain(&mut self.staged) {
            pushes.clear();
        }
    }

    /// Retained bytes (part of the workspace footprint).
    pub(crate) fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let lists = self.buckets.iter().chain(&self.staged);
        (self.buckets.capacity() + self.staged.capacity()) * size_of::<Vec<Push>>()
            + lists.map(|pushes| pushes.capacity() * size_of::<Push>()).sum::<usize>()
    }
}

/// One origin-state offered at a tentative distance: `origin` at `node`,
/// ascending or `desc`ending, at `dist`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Push {
    pub(crate) node: ConceptId,
    pub(crate) origin: u32,
    pub(crate) dist: u32,
    pub(crate) desc: bool,
}

/// The origin indexes set in word `w` of an origin set.
fn origins_of(w: usize, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let o = bits.trailing_zeros();
        bits &= bits - 1;
        Some(packing::narrow_u32(w * 64) + o)
    })
}

impl Buckets<'_> {
    /// Whether origin-state `(o, node, desc)` is queued at `dist`: with
    /// dedup iff `dist` strictly improves its tentative distance, without
    /// iff it is not already queued there — so a bucket holds each
    /// origin-state at most once, as a level does. (Without dedup, a state
    /// queued at `d`, then at a smaller distance, then at `d` again is
    /// queued twice at `d`; the drain collapses the two.)
    #[inline]
    fn keep(
        &self,
        dense: &mut DenseTables,
        o: u32,
        node: ConceptId,
        desc: bool,
        dist: u32,
    ) -> bool {
        if self.dedup {
            dense.improve_best(o, node, desc, dist)
        } else {
            dense.pend_at(o, node, desc, dist)
        }
    }

    /// Queues `push` in its bucket if the relaxation keeps it.
    // Bucket growth is retained by the workspace across queries.
    // flow: workspace-fed
    fn queue(&mut self, dense: &mut DenseTables, push: Push) {
        let Push { node, origin, dist, desc } = push;
        if !self.keep(dense, origin, node, desc, dist) {
            return;
        }
        if self.queues.buckets.len() <= dist as usize {
            self.queues.buckets.resize_with(dist as usize + 1, Vec::new);
        }
        if let Some(bucket) = self.queues.buckets.get_mut(dist as usize) {
            self.queued += 1;
            // bound: sized — one push per kept origin-state, into capacity the workspace retains
            bucket.push(push);
        }
    }
}

impl<'a> Frontier<'a> for Buckets<'a> {
    const TENTATIVE: bool = true;

    fn drc(&self, ontology: &'a Ontology) -> Drc<'a> {
        Drc::with_weights(ontology, self.weights)
    }

    // Staging lists are retained by the workspace across queries.
    // flow: workspace-fed
    fn seed(&mut self, ws: &mut KndsWorkspace, query: &[ConceptId], dedup: bool) {
        self.queues = std::mem::take(&mut ws.queues);
        if self.queues.staged.len() < query.len() {
            self.queues.staged.resize_with(query.len(), Vec::new);
        }
        self.round = std::mem::take(&mut ws.frontier);
        self.dedup = dedup;
        self.queued = 0;
        for (origin, &node) in query.iter().enumerate() {
            let origin = packing::narrow_u32(origin);
            self.queue(&mut ws.dense, Push { node, origin, dist: 0, desc: false });
        }
    }

    /// Drains bucket `dist`: its pushes pend in the origin rows, where
    /// duplicates collapse and — with dedup — an origin whose state has
    /// since settled at a smaller distance (it was relaxed below this
    /// bucket after the push) is stale and dropped; the rest are swept
    /// into the round as a level is.
    fn take_round(&mut self, dense: &mut DenseTables, dist: u32) -> Round {
        let mut pushes =
            self.queues.buckets.get_mut(dist as usize).map(std::mem::take).unwrap_or_default();
        let mut states = 0;
        // cplx: bound nq*c — one turn per push, at most one per origin-state a bucket
        for &Push { node, origin, desc, .. } in &pushes {
            self.queued -= 1;
            let (w, bit) = (origin as usize >> 6, 1 << (origin & 63));
            states += dense.push_next(node, desc, w, bit, self.dedup) as usize;
        }
        pushes.clear();
        if let Some(bucket) = self.queues.buckets.get_mut(dist as usize) {
            *bucket = pushes;
        }
        let mut round = std::mem::take(&mut self.round);
        round.sweep(dense, states);
        round
    }

    #[inline]
    fn parent_step(&self, ontology: &Ontology, parent: ConceptId, child: ConceptId) -> Option<u32> {
        self.weights.weight(ontology, parent, child)
    }

    #[inline]
    fn child_step(&self, node: ConceptId, pos: usize) -> u32 {
        self.weights.weight_at(node, pos)
    }

    /// Stages the offer, origin by origin, for relaxation at the round's
    /// end.
    // flow: workspace-fed
    #[inline]
    fn admit(
        &mut self,
        _dense: &mut DenseTables,
        _dedup: bool,
        node: ConceptId,
        desc: bool,
        bits: &[u64],
        dist: u32,
    ) {
        for (w, &b) in bits.iter().enumerate() {
            for origin in origins_of(w, b) {
                if let Some(staged) = self.queues.staged.get_mut(origin as usize) {
                    // bound: sized — one entry per origin a push offers, into capacity the workspace retains (cplx: cap nq*c — one per origin-state offered this round)
                    staged.push(Push { node, origin, dist, desc });
                }
            }
        }
    }

    /// Relaxes the round's staged pushes, origin by origin and in push
    /// order within an origin (see [`Buckets::keep`]), and keeps the
    /// drained round's buffers for the next bucket (expansion only ever
    /// pushes past `dist`, so bucket `dist` stays empty).
    fn finish_round(&mut self, dense: &mut DenseTables, drained: Round, _dist: u32) -> usize {
        self.round = drained;
        let mut staged = std::mem::take(&mut self.queues.staged);
        for pushes in &mut staged {
            // cplx: bound nq*c — one turn per staged offer, at most one per origin-state and edge
            for &push in pushes.iter() {
                self.queue(dense, push);
            }
            pushes.clear();
        }
        self.queues.staged = staged;
        self.queued
    }

    /// The next non-empty bucket.
    fn advance(&mut self, dist: u32) -> Option<u32> {
        self.queues
            .buckets
            .iter()
            .enumerate()
            .skip(dist as usize + 1)
            .find(|(_, b)| !b.is_empty())
            .map(|(i, _)| packing::narrow_u32(i))
    }

    fn restore(&mut self, ws: &mut KndsWorkspace) {
        ws.queues = std::mem::take(&mut self.queues);
        ws.frontier = std::mem::take(&mut self.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile, DocId};
    use cbr_index::MemorySource;
    use cbr_ontology::{fixture, weighted, GeneratorConfig, OntologyGenerator};

    /// Exhaustive weighted baseline for verification.
    fn weighted_scan_rds(
        ont: &Ontology,
        w: &EdgeWeights,
        source: &MemorySource,
        q: &[ConceptId],
        k: usize,
    ) -> Vec<f64> {
        let mut dists: Vec<f64> = (0..source.num_docs())
            .map(|i| {
                let mut buf = Vec::new();
                source.doc_concepts(DocId::from_index(i), &mut buf);
                let d = weighted::document_query_distance(ont, w, &buf, q);
                if d == u64::MAX {
                    f64::INFINITY
                } else {
                    d as f64
                }
            })
            .collect();
        dists.sort_by(f64::total_cmp);
        dists.truncate(k);
        dists
    }

    fn weighted_scan_sds(
        ont: &Ontology,
        w: &EdgeWeights,
        source: &MemorySource,
        q: &[ConceptId],
        k: usize,
    ) -> Vec<f64> {
        let mut dists: Vec<f64> = (0..source.num_docs())
            .map(|i| {
                let mut buf = Vec::new();
                source.doc_concepts(DocId::from_index(i), &mut buf);
                weighted::document_document_distance(ont, w, &buf, q)
            })
            .collect();
        dists.sort_by(f64::total_cmp);
        dists.truncate(k);
        dists
    }

    #[test]
    fn weighted_rds_matches_exhaustive_scan() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(400).with_seed(9)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(50).with_mean_concepts(8.0),
        )
        .generate();
        let source = MemorySource::build(&corpus, ont.len());
        let w = EdgeWeights::from_fn(&ont, |p, c| 1 + (p.0.wrapping_add(c.0) % 3));
        let queries: Vec<Vec<ConceptId>> = corpus
            .documents()
            .filter(|d| d.num_concepts() >= 2)
            .take(5)
            .map(|d| d.concepts()[..2].to_vec())
            .collect();
        for (i, q) in queries.iter().enumerate() {
            for eps in [0.0, 0.5, 1.0] {
                let cfg = KndsConfig::default().with_error_threshold(eps);
                let engine = WeightedKnds::new(&ont, &w, &source, cfg);
                let got: Vec<f64> = engine.rds(q, 5).results.iter().map(|r| r.distance).collect();
                let expect = weighted_scan_rds(&ont, &w, &source, q, 5);
                assert_eq!(got.len(), expect.len());
                for (a, b) in got.iter().zip(expect.iter()) {
                    assert!(
                        (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                        "query {i} eps {eps}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sds_matches_exhaustive_scan() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(300).with_seed(10)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(40).with_mean_concepts(6.0),
        )
        .generate();
        let source = MemorySource::build(&corpus, ont.len());
        let w = EdgeWeights::from_fn(&ont, |p, _| 1 + (p.0 % 2));
        let q = corpus.documents().find(|d| d.num_concepts() >= 3).unwrap().concepts().to_vec();
        let engine = WeightedKnds::new(&ont, &w, &source, KndsConfig::default());
        let got: Vec<f64> = engine.sds(&q, 5).results.iter().map(|r| r.distance).collect();
        let expect = weighted_scan_sds(&ont, &w, &source, &q, 5);
        for (a, b) in got.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn heavier_weights_change_the_ranking() {
        // Sanity: the weighting actually matters — a query whose unit-weight
        // winner is reached through a penalized region must change distance.
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("M")], 0), // near I through G
            (vec![c("T")], 0), // far from I
        ]);
        let source = MemorySource::build(&corpus, fig.ontology.len());
        let q = vec![c("I")];

        let unit = EdgeWeights::uniform(&fig.ontology);
        let a = WeightedKnds::new(&fig.ontology, &unit, &source, KndsConfig::default()).rds(&q, 2);
        assert_eq!(a.results[0].doc, DocId(0));

        // Penalize I's own edges heavily: both documents get farther, and
        // the distances reflect the weights.
        let i = c("I");
        let g = c("G");
        let heavy =
            EdgeWeights::from_fn(
                &fig.ontology,
                |p, ch| {
                    if p == i || (p == g && ch == i) {
                        50
                    } else {
                        1
                    }
                },
            );
        let b = WeightedKnds::new(&fig.ontology, &heavy, &source, KndsConfig::default()).rds(&q, 2);
        assert!(b.results[0].distance > a.results[0].distance);
    }

    #[test]
    fn weighted_workspace_reuse_matches_fresh_runs() {
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("F"), c("R"), c("T"), c("V")], 0),
            (vec![c("I"), c("L"), c("U")], 0),
            (vec![c("M"), c("N")], 0),
        ]);
        let source = MemorySource::build(&corpus, fig.ontology.len());
        let w = EdgeWeights::from_fn(&fig.ontology, |p, _| 1 + (p.0 % 2));
        let engine = WeightedKnds::new(&fig.ontology, &w, &source, KndsConfig::default());
        let q1 = fig.example_query();
        let q2 = vec![c("M"), c("V")];
        let mut ws = KndsWorkspace::new();
        for q in [&q1, &q2, &q1] {
            let a = engine.rds_with(&mut ws, q, 3);
            let b = engine.rds(q, 3);
            assert_eq!(a.results, b.results, "weighted RDS diverged under reuse");
            let a = engine.sds_with(&mut ws, q, 3);
            let b = engine.sds(q, 3);
            assert_eq!(a.results, b.results, "weighted SDS diverged under reuse");
        }
        // A unit-weight query on the same (shared) workspace still matches.
        let plain = crate::Knds::new(&fig.ontology, &source, KndsConfig::default());
        let a = plain.rds_with(&mut ws, &q1, 3);
        let b = plain.rds(&q1, 3);
        assert_eq!(a.results, b.results, "engine interleave diverged");
    }
}
