//! The kNDS engine (Algorithm 2) for RDS and SDS queries.
//!
//! One search proceeds in **rounds**, one per distance `l` at which some
//! valid-path traversal state sits from its query concept. A state is
//! `(origin, node, direction)` — which query concept the path started
//! from, where it is, whether it has descended — and a round holds them
//! grouped by node: one entry per concept, carrying the *origins* that
//! reach it this round as two bitsets of `⌈nq/64⌉` words, `up` (still
//! ascending) and `down` (descended). This is multi-source BFS (Then et
//! al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
//! PVLDB 8(4), 2014): a concept reached from several query concepts in
//! the same round is read and expanded once. Round `l`:
//!
//! 1. **coverage** — for each entry, the posting list of its node is read
//!    once and updates every containing document's partial distance for
//!    the entry's origins whose `(origin, node)` pair is fresh (`Md` of
//!    Equation 5, word-wise per origin bit) — skipped where the source's
//!    [`LiveMask`] says the node has no live posting. A document's first
//!    hit inserts its row; for SDS the row then carries the exact reverse
//!    half of Equation 3, summed from the query's distance field, which
//!    the search builds before its first round (see `build_field`), so
//!    there is no reverse map `M'd` (Equation 7) to keep.
//!    A round first *fetches*: it decides every entry's coverage and
//!    appends each list it needs to one buffer, timed as index access as
//!    a whole rather than list by list; then it *applies* the lists in
//!    fetch order and *expands* the same entries (step 2). Coverage and
//!    expansion share no table, so the split changes no mark, insertion
//!    or update order;
//! 2. **expansion** — an entry pushes its `up` origins to the node's
//!    parents (still ascending) and all its origins, `up | down` in one
//!    OR, to its children (now descending), so every traversed path is
//!    ∧-shaped (the valid-path rule of Section 3.1). Pushes into the next
//!    round merge by concept, and visit deduplication admits only the
//!    origins not yet seen there (`new = bits & !seen`). A child with
//!    nothing live at or below it is not pushed; ascents are never
//!    pruned;
//! 3. **examination** — one pass over the unexamined candidates computes
//!    their lower bounds (Equation 6; for SDS Equation 8 with the exact
//!    reverse half) and keeps those still below `D⁺ₖ`; these are examined
//!    in ascending bound, selected one at a time rather than sorted, while
//!    the error estimate `εd = 1 − Dpartial/D⁻` of the forward half
//!    (Equation 9) stays at or below `εθ`: complete candidates finalize
//!    from their partial sums (Section 5.3, optimization 3), incomplete
//!    ones get an exact probe — the document's distance field joined with
//!    the query's ancestor closure (see `build_field`), where the paper
//!    runs DRC;
//! 4. **termination** — once the top-k heap is full and the smallest lower
//!    bound among unexamined *and unseen* documents reaches the k-th
//!    distance `D⁺ₖ`, the remaining collection is provably outside the
//!    top-k.
//!
//! Exactness does not depend on `εθ` or the queue watermark: both only
//! steer when exact distances are computed. Nor does it depend on the
//! order in which the traversal reaches states, or on how a round groups
//! them, only on every state at distance `≤ l` having been covered, each
//! origin at its first-touch distance, before round `l` is examined — so
//! the loop is written once, generic over a `Frontier` policy that owns
//! the order: `Levels` (unit edges, breadth-first levels — [`Knds`]) or
//! `weighted::Buckets` (weighted edges, Dijkstra buckets —
//! [`WeightedKnds`](crate::WeightedKnds)). The policy is a type parameter,
//! monomorphized per engine; nothing selects it at run time.
//!
//! Every entry point of both engines funnels into one runner over one
//! borrowed [`KndsWorkspace`] session; the `*_with` conveniences reuse a
//! caller-owned workspace so steady-state queries allocate nothing.

use crate::config::KndsConfig;
use crate::metrics::QueryMetrics;
use crate::trace::{TraceEvent, TraceSink};
use crate::util::{OrdF64, TopK};
use crate::workspace::{DenseTables, Field, KndsWorkspace, UNREACHED};
use cbr_corpus::DocId;
use cbr_index::{packing, IndexSource, LiveMask};
use cbr_ontology::{ConceptId, Ontology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedDoc {
    /// The document.
    pub doc: DocId,
    /// Its exact distance from the query (`Ddq` for RDS — an integer value
    /// widened to `f64` — or the normalized `Ddd` for SDS).
    pub distance: f64,
}

/// Results plus instrumentation for one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The top-k documents, ascending by distance (ties by id).
    pub results: Vec<RankedDoc>,
    /// Work and timing counters.
    pub metrics: QueryMetrics,
}

/// Which of the paper's two query types (Section 3.3) to evaluate. The
/// one Rds/Sds switch of the workspace: searches, the `εθ` tuner and the
/// batch runner all take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Relevant-document search (Definition 1): the query is a concept
    /// set, ranked by `Ddq` (Equation 2).
    Rds,
    /// Similar-document search (Definition 2): the query is a document's
    /// concept set, ranked by the symmetric `Ddd` (Equation 3).
    Sds,
}

/// Optional observers of one search; `Hooks::default()` attaches none.
/// Neither changes the returned [`QueryResult`].
#[derive(Default)]
pub struct Hooks<'h> {
    /// Progressive emission (Section 5.3, optimization 4): fires for each
    /// document the moment it is *provably* in the top-k — its exact
    /// distance is strictly below every unexamined and unseen document's
    /// lower bound — in non-decreasing distance order, every result
    /// exactly once.
    pub on_final: Option<Box<dyn FnMut(RankedDoc) + 'h>>,
    /// A [`TraceEvent`] stream — the paper's Table 2 walkthrough, live.
    /// Tracing is verbose; use it for debugging and teaching, not
    /// benchmarking.
    pub on_trace: Option<TraceSink<'h>>,
}

impl<'h> Hooks<'h> {
    /// Hooks with only the progressive-result sink attached.
    pub fn on_final(sink: impl FnMut(RankedDoc) + 'h) -> Self {
        Hooks { on_final: Some(Box::new(sink)), on_trace: None }
    }

    /// Hooks with only the trace sink attached.
    pub fn on_trace(sink: impl FnMut(TraceEvent) + 'h) -> Self {
        Hooks { on_final: None, on_trace: Some(Box::new(sink)) }
    }
}

/// The kNDS query engine over an ontology and an [`IndexSource`].
#[derive(Debug)]
pub struct Knds<'a, S: IndexSource> {
    ontology: &'a Ontology,
    source: &'a S,
    config: KndsConfig,
}

/// One row of the dense candidate table (`Md` bookkeeping of Equation 5).
/// The per-origin coverage bits live in the workspace's shared arena (one
/// `stride` span per row), so a row is a small flat record and admission
/// allocates nothing. SDS keeps no reverse map (`M'd`, Equation 7): the
/// row's reverse term is exact from the moment it is inserted, read off
/// the query's distance field (see `build_field`).
#[derive(Debug)]
pub(crate) struct Candidate {
    /// Σ of first-touch levels over covered query concepts.
    pub(crate) partial: u64,
    /// SDS: the exact reverse term of Equation 3, `Σ_{c∈d} f(c) / |d|`;
    /// 0 for RDS.
    pub(crate) reverse: f64,
    /// Query concepts covered by the forward expansion.
    pub(crate) covered: u32,
    pub(crate) examined: bool,
}

impl Candidate {
    pub(crate) fn new(reverse: f64) -> Candidate {
        Candidate { partial: 0, reverse, covered: 0, examined: false }
    }
}

impl<'a, S: IndexSource> Knds<'a, S> {
    /// Creates an engine over `ontology` and `source`.
    pub fn new(ontology: &'a Ontology, source: &'a S, config: KndsConfig) -> Self {
        Knds { ontology, source, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &KndsConfig {
        &self.config
    }

    /// The one query entry point: evaluates a `kind` query for the `k`
    /// nearest documents over the caller's workspace, with optional
    /// [`Hooks`] (`examples/algorithm_trace.rs` drives the trace hook).
    /// `query` is treated as a set. Every other method of this type is a
    /// one-line convenience over `run`.
    ///
    /// All per-query state reuses `ws`'s capacity and is returned clean,
    /// so a warm workspace makes the hot loop allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or `k` is zero.
    pub fn run(
        &self,
        ws: &mut KndsWorkspace,
        kind: QueryKind,
        query: &[ConceptId],
        k: usize,
        hooks: Hooks<'_>,
    ) -> QueryResult {
        self.search(Levels::default(), ws, kind, query, k, hooks)
    }

    /// Evaluates an RDS query (Definition 1): the `k` documents minimizing
    /// `Ddq(d, q)` (Equation 2). `query` is treated as a set.
    ///
    /// ```
    /// use cbr_corpus::Corpus;
    /// use cbr_index::SegmentedView;
    /// use cbr_knds::{Knds, KndsConfig};
    /// use cbr_ontology::fixture;
    ///
    /// let fig = fixture::figure3();
    /// let corpus = Corpus::from_concept_sets(vec![
    ///     (fig.example_document(), 0),
    ///     (fig.example_query(), 0),
    /// ]);
    /// let source = SegmentedView::from_corpus(&corpus);
    /// let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    ///
    /// let top = knds.rds(&fig.example_query(), 2);
    /// assert_eq!(top.results[0].distance, 0.0); // doc 1 is the query itself
    /// assert_eq!(top.results[1].distance, 7.0); // the paper's Example 1
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or `k` is zero.
    pub fn rds(&self, query: &[ConceptId], k: usize) -> QueryResult {
        self.rds_with(&mut KndsWorkspace::new(), query, k)
    }

    /// [`Knds::rds`] over a caller-owned workspace: identical results,
    /// but all per-query state reuses `ws`'s capacity, so a warm
    /// workspace makes the hot loop allocation-free.
    ///
    /// ```
    /// use cbr_corpus::Corpus;
    /// use cbr_index::SegmentedView;
    /// use cbr_knds::{Knds, KndsConfig, KndsWorkspace};
    /// use cbr_ontology::fixture;
    ///
    /// let fig = fixture::figure3();
    /// let corpus = Corpus::from_concept_sets(vec![
    ///     (fig.example_document(), 0),
    ///     (fig.example_query(), 0),
    /// ]);
    /// let source = SegmentedView::from_corpus(&corpus);
    /// let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    ///
    /// let mut ws = KndsWorkspace::new();
    /// let cold = knds.rds_with(&mut ws, &fig.example_query(), 2);
    /// let warm = knds.rds_with(&mut ws, &fig.example_query(), 2);
    /// assert_eq!(cold.results, warm.results);
    /// assert_eq!(warm.metrics.workspace_reused, 1);
    /// ```
    pub fn rds_with(&self, ws: &mut KndsWorkspace, query: &[ConceptId], k: usize) -> QueryResult {
        self.run(ws, QueryKind::Rds, query, k, Hooks::default())
    }

    /// Evaluates an SDS query (Definition 2): the `k` documents minimizing
    /// the symmetric `Ddd(d, dq)` (Equation 3), where `query_doc` is the
    /// query document's concept set.
    ///
    /// # Panics
    ///
    /// Panics if `query_doc` is empty or `k` is zero.
    pub fn sds(&self, query_doc: &[ConceptId], k: usize) -> QueryResult {
        self.sds_with(&mut KndsWorkspace::new(), query_doc, k)
    }

    /// [`Knds::sds`] over a caller-owned workspace; see
    /// [`Knds::rds_with`].
    pub fn sds_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
    ) -> QueryResult {
        self.run(ws, QueryKind::Sds, query_doc, k, Hooks::default())
    }

    /// [`Knds::rds_with`] with a [`TraceEvent`] stream; see
    /// [`Hooks::on_trace`].
    pub fn rds_traced_with(
        &self,
        ws: &mut KndsWorkspace,
        query: &[ConceptId],
        k: usize,
        on_trace: impl FnMut(TraceEvent),
    ) -> QueryResult {
        self.run(ws, QueryKind::Rds, query, k, Hooks::on_trace(on_trace))
    }

    /// [`Knds::sds_with`] with a [`TraceEvent`] stream; see
    /// [`Hooks::on_trace`].
    pub fn sds_traced_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
        on_trace: impl FnMut(TraceEvent),
    ) -> QueryResult {
        self.run(ws, QueryKind::Sds, query_doc, k, Hooks::on_trace(on_trace))
    }

    /// The single runner behind every entry point of both engines: one
    /// workspace session (query normalized in, workspace returned clean)
    /// around one search under the caller's frontier policy.
    pub(crate) fn search<F: Frontier<'a>>(
        &self,
        frontier: F,
        ws: &mut KndsWorkspace,
        kind: QueryKind,
        query: &[ConceptId],
        k: usize,
        hooks: Hooks<'_>,
    ) -> QueryResult {
        ws.session(query, k, |ws, q| {
            // Open a dense-table epoch sized to this query's geometry (only
            // a policy that relaxes needs the tentative-distance table).
            let rolled = ws.dense.begin_query(
                q.len(),
                self.ontology.len(),
                self.source.num_docs(),
                F::TENTATIVE,
            );
            let mut search = Search {
                ont: self.ontology,
                source: self.source,
                live: self.source.live_mask(),
                config: &self.config,
                kind,
                query: q,
                nq: q.len(),
                frontier,
                ws,
                heap: TopK::new(k),
                metrics: QueryMetrics { epoch_rollover: rolled as usize, ..Default::default() },
                hooks,
            };
            search.run()
        })
    }
}

/// One round of the traversal frontier: one entry per concept, carrying
/// the origins (query-concept indexes, one bit each in `⌈nq/64⌉` words)
/// that reach the concept at this round's distance, split by direction —
/// `up` for origins still ascending, `down` for origins that have
/// descended. An entry is the multi-source form of Algorithm 2's states
/// `(origin, concept, direction)`: one posting read and one expansion
/// serve every origin it carries (Then et al., "The More the Merrier",
/// PVLDB 2014).
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// The entries' concepts, ascending.
    nodes: Vec<ConceptId>,
    /// Entry `i`'s origins: `up` in words `[2is, 2is + s)`, `down` in
    /// `[2is + s, 2(i + 1)s)`, for the query's stride `s`.
    words: Vec<u64>,
    /// Origin-states in the round (see [`Round::pending`]).
    states: usize,
}

impl Round {
    /// Empties the round, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.words.clear();
        self.states = 0;
    }

    /// Whether the round holds no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Origin-states in the round: as pushed while it is pending (what the
    /// queue watermark counts), as visited once handed out (what
    /// `TraceEvent::LevelStart` and `nodes_visited` count).
    pub(crate) fn pending(&self) -> usize {
        self.states
    }

    /// Retained bytes (part of the workspace footprint).
    pub(crate) fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<ConceptId>() + self.words.capacity() * size_of::<u64>()
    }

    /// Refills the round with the concepts whose origins pend in `dense`'s
    /// origin rows, in ascending order, each with empty `up`/`down` words
    /// the fetch gathers the origins into
    /// ([`DenseTables::take_pending`]); `states` is the origin-states
    /// pending there.
    // flow: workspace-fed
    pub(crate) fn sweep(&mut self, dense: &mut DenseTables, states: usize) {
        self.clear();
        dense.take_pending_concepts(&mut self.nodes);
        self.words.resize(2 * dense.stride() * self.nodes.len(), 0);
        self.states = states;
    }

    /// Entry `i`'s `up` and `down` words.
    pub(crate) fn origins_mut(
        &mut self,
        i: usize,
        stride: usize,
    ) -> Option<(&mut [u64], &mut [u64])> {
        let entry = self.words.get_mut(2 * stride * i..2 * stride * (i + 1))?;
        Some(entry.split_at_mut(stride))
    }
}

/// One posting list a round's fetch pass appended to the workspace's fetch
/// buffer: ids `begin..end` cover forward the origins in span words
/// `words` (the nonzero words of the fresh origin set).
#[derive(Debug, Clone, Default)]
pub(crate) struct Span {
    begin: usize,
    end: usize,
    words: std::ops::Range<usize>,
}

/// Fetched posting ids (64 KiB) past which a round applies what it has
/// fetched before fetching on: the fetch buffer stays bounded by one block
/// plus one posting list, and the clock is read per block, not per list.
const FETCH_BLOCK: usize = 16 * 1024;

/// How the traversal frontier advances — the one thing the unit-weight
/// and the weighted search disagree on. A policy owns the pending
/// [`Round`]s, the cost of a step, the rule that admits a pushed
/// origin-state, and the order rounds come in; the bounds, the
/// examination and the termination test of Algorithm 2 are the loop's and
/// see only the round's distance.
///
/// Contract: every admitted origin-state is handed out by exactly one
/// [`take_round`](Self::take_round), rounds come in strictly increasing
/// distance, a round holds at most one entry per concept, and an
/// origin-state handed out at distance `l` was pushed with `dist == l`
/// (so after round `l` every uncovered term is at distance `≥ l + 1`,
/// which is all Equations 6/8 need).
pub(crate) trait Frontier<'a> {
    /// Whether the dense tables must size the per-state tentative-distance
    /// table for this policy.
    const TENTATIVE: bool;

    /// Detaches the policy's buffers from `ws` and seeds distance 0 with
    /// every query concept, ascending from itself.
    fn seed(&mut self, ws: &mut KndsWorkspace, query: &[ConceptId]);

    /// Moves the round pending at distance `dist` out for processing,
    /// with every origin superseded since its push cleared; its
    /// [`pending`](Round::pending) count is the origin-states it visits.
    fn take_round(&mut self, dense: &mut DenseTables, dist: u32) -> Round;

    /// Cost of ascending `child → parent` (1 by default, the paper's
    /// metric); `None` skips the edge.
    #[inline]
    fn parent_step(&self, _ont: &Ontology, _parent: ConceptId, _child: ConceptId) -> Option<u32> {
        Some(1)
    }

    /// Cost of descending from `node` to its `pos`-th child (1 by default).
    #[inline]
    fn child_step(&self, _node: ConceptId, _pos: usize) -> u32 {
        1
    }

    /// Offers the origins `bits` (`⌈nq/64⌉` words) at `node`, ascending or
    /// `desc`ending, at tentative distance `dist`; visit deduplication may
    /// reject some or all of them.
    fn admit(
        &mut self,
        dense: &mut DenseTables,
        node: ConceptId,
        desc: bool,
        bits: &[u64],
        dist: u32,
    );

    /// Hands the drained round's buffers back and returns how many
    /// origin-states are pending (the quantity the queue watermark limits).
    fn finish_round(&mut self, dense: &mut DenseTables, drained: Round, dist: u32) -> usize;

    /// The next distance with pending states, `None` once the reachable
    /// ontology is exhausted.
    fn advance(&mut self, dist: u32) -> Option<u32>;

    /// Re-attaches the buffers to `ws` after the search.
    fn restore(&mut self, ws: &mut KndsWorkspace);
}

/// Unit edges: breadth-first levels. Level `l + 1` pends in the dense
/// tables' origin rows while level `l` is processed; as level `l`
/// finishes its concepts are swept, in ascending order, into the one
/// retained [`Round`] buffer, and each entry's origins move in as the
/// fetch reaches it. Every step costs 1, so the first push of an
/// origin-state is its minimal distance and dedup is one seen bit per
/// origin-state, applied word-wise at push time.
#[derive(Debug, Default)]
pub(crate) struct Levels {
    /// The level to hand out next.
    current: Round,
    /// Origin-states pushed into the level after `current`.
    pending: usize,
}

impl Levels {
    /// Sweeps the pending level into `round`, as the next to hand out.
    fn gather_level(&mut self, dense: &mut DenseTables, mut round: Round) {
        round.sweep(dense, std::mem::take(&mut self.pending));
        self.current = round;
    }
}

impl Frontier<'_> for Levels {
    const TENTATIVE: bool = false;

    fn seed(&mut self, ws: &mut KndsWorkspace, query: &[ConceptId]) {
        self.pending = 0;
        for (i, &c) in query.iter().enumerate() {
            self.pending += ws.dense.push_next(c, false, i >> 6, 1 << (i & 63)) as usize;
        }
        self.gather_level(&mut ws.dense, std::mem::take(&mut ws.frontier));
    }

    #[inline]
    fn take_round(&mut self, _dense: &mut DenseTables, _dist: u32) -> Round {
        std::mem::take(&mut self.current)
    }

    #[inline]
    fn admit(
        &mut self,
        dense: &mut DenseTables,
        node: ConceptId,
        desc: bool,
        bits: &[u64],
        _dist: u32,
    ) {
        for (w, &b) in bits.iter().enumerate() {
            if b != 0 {
                self.pending += dense.push_next(node, desc, w, b) as usize;
            }
        }
    }

    fn finish_round(&mut self, dense: &mut DenseTables, drained: Round, _dist: u32) -> usize {
        self.gather_level(dense, drained);
        self.current.pending()
    }

    #[inline]
    fn advance(&mut self, dist: u32) -> Option<u32> {
        (!self.current.is_empty()).then_some(dist + 1)
    }

    fn restore(&mut self, ws: &mut KndsWorkspace) {
        ws.frontier = std::mem::take(&mut self.current);
    }
}

/// Queues `node` in the distance field's bucket for `dist`.
// flow: workspace-fed
fn enqueue(queue: &mut Vec<Vec<ConceptId>>, dist: u32, node: ConceptId) {
    let at = dist as usize;
    if queue.len() <= at {
        queue.resize_with(at + 1, Vec::new);
    }
    if let Some(bucket) = queue.get_mut(at) {
        // bound: sized — one entry per improved ascending state, into capacity the workspace retains (cplx: cap c — one per concept the ascent improves)
        bucket.push(node);
    }
}

/// The one distance-field routine: builds `field(c) = min_{s ∈ sources}
/// D(s, c)` from scratch, with the valid-path distance `D` at the
/// frontier policy's own step costs, on the ancestors of `sources` and on
/// every concept of `descent`, which must come parents first. One
/// multi-source search from every source at once, with no origin bits
/// (Then et al., "The More the Merrier", PVLDB 2014), over two states a
/// concept — still ascending and descended. It serves two callers:
///
/// * **the query's field** (sources: the query; descent: the concepts
///   with something live at or below them, in the ontology's topological
///   order — for SDS only), whose ascent also pins the query's closure
///   `anc*(q)` into `ascended`, in the order it settles;
/// * **every exact probe** (sources: the document's concepts; descent:
///   the pinned closure), which then reads `Ddc(d, qᵢ)` off the field
///   (see [`probe`]).
///
/// The ascending states settle first, from one bucket per distance in
/// increasing order (Dial's algorithm: a breadth-first search under
/// `Levels`, a Dijkstra run under `weighted::Buckets`); they reach only
/// the ancestors of `sources`. The descended states then settle in
/// `descent`'s order: a path that ends descending passes its last parent
/// first, so a concept's value is `min(ascending distance, min over
/// parents p of field(p) + step(p → c))` once its parents are final — the
/// relaxations a queue would make, at about half the cost of queueing
/// them (EXPERIMENTS.md, "layer by layer (V)"). A valid path to `c`
/// descends only through ancestors of `c`, so the descent is exact on
/// `c` whenever it holds all of them — as the query's ancestor closure
/// does for every query concept, and the live-below concepts for every
/// concept with a live posting (ascents are never pruned).
// cplx: bound c — amortized: the ascent settles each ancestor of the sources once
// and the descent visits each of its concepts once, their parents' edges once
// flow: workspace-fed
pub(crate) fn build_field<'a, F: Frontier<'a>>(
    frontier: &F,
    ont: &Ontology,
    sources: &[ConceptId],
    descent: impl IntoIterator<Item = ConceptId>,
    field: &mut Field,
    mut ascended: Option<&mut Vec<ConceptId>>,
) {
    field.clear_field(ont.len());
    let mut queue = std::mem::take(&mut field.queue);
    for &s in sources {
        if field.lower_field(s, 0) {
            enqueue(&mut queue, 0, s);
        }
    }
    // Ascending: until the descent below, a field value is the concept's
    // ascending distance.
    let mut dist = 0;
    // cplx: bound depth — one bucket per distance, up to the valid-path diameter
    while let Some(bucket) = queue.get_mut(dist) {
        // Steps cost at least 1, so nothing joins this bucket while it drains.
        let mut nodes = std::mem::take(bucket);
        let d = packing::narrow_u32(dist);
        // cplx: bound c — one turn per improved ascending state, at most one per concept
        for &node in &nodes {
            // A push superseded by a shorter ascent is stale.
            if field.field_at(node) != d {
                continue;
            }
            if let Some(closure) = ascended.as_deref_mut() {
                // bound: sized — one entry per ancestor the ascent settles, into capacity the workspace retains (cplx: cap depth*c — the ascent's nest; each ancestor settles once)
                closure.push(node);
            }
            for &p in ont.parents(node) {
                let Some(w) = frontier.parent_step(ont, p, node) else {
                    debug_assert!(false, "parent adjacency is symmetric");
                    continue;
                };
                if field.lower_field(p, d + w) {
                    enqueue(&mut queue, d + w, p);
                }
            }
        }
        nodes.clear();
        if let Some(bucket) = queue.get_mut(dist) {
            *bucket = nodes;
        }
        dist += 1;
    }
    field.queue = queue;
    // Descended: parents before children.
    // cplx: bound c — one turn per concept of the descent
    for c in descent {
        let mut best = UNREACHED;
        for (p, ordinal) in ont.parents_with_ordinals(c) {
            let step = frontier.child_step(p, ordinal as usize - 1);
            best = best.min(field.field_at(p).saturating_add(step));
        }
        field.lower_field(c, best);
    }
}

/// Pins the query's ancestor closure `anc*(q)` into `closure`, ordered by
/// the ontology's topological rank (ids follow the topological order only
/// where every parent's id is below its children's), while building the
/// query's `field`: for SDS down every concept with something live at or
/// below it, for RDS not at all.
// flow: workspace-fed
pub(crate) fn pin_query<'a, F: Frontier<'a>>(
    frontier: &F,
    ont: &Ontology,
    live: LiveMask<'_>,
    kind: QueryKind,
    query: &[ConceptId],
    field: &mut Field,
    closure: &mut Vec<ConceptId>,
) {
    let order = if kind == QueryKind::Sds { ont.topological_order() } else { &[] };
    let descent = order.iter().copied().filter(|&c| live.live_below(c));
    closure.clear();
    build_field(frontier, ont, query, descent, field, Some(closure));
    closure.sort_unstable_by_key(|&c| ont.topological_rank(c));
}

/// The distance a forward sum `fwd = Σᵢ Ddc(d, qᵢ)` gives: `Ddq` itself
/// for RDS; for SDS, `fwd / nq` plus the exact `reverse` half — the same
/// pair of `f64` quotients DRC adds, so distances are bit-identical.
// bound: proven — nq ≥ 1 (asserted at query entry); fwd is a sum of ≤ nq
// valid-path distances, far below the 2^53 f64 mantissa
pub(crate) fn from_forward(kind: QueryKind, nq: usize, fwd: u64, reverse: f64) -> f64 {
    match kind {
        QueryKind::Rds => fwd as f64,
        QueryKind::Sds => fwd as f64 / nq as f64 + reverse,
    }
}

/// One exact probe: `Σᵢ Ddc(doc, qᵢ)` over `query` — `Ddq` (Equation 2),
/// or Equation 3's forward half times `|q|` — from `doc`'s distance field
/// descended over the query's pinned `closure`; `None` if some query
/// concept is unreached (an empty document).
pub(crate) fn probe<'a, F: Frontier<'a>>(
    frontier: &F,
    ont: &Ontology,
    doc: &[ConceptId],
    closure: &[ConceptId],
    query: &[ConceptId],
    field: &mut Field,
) -> Option<u64> {
    build_field(frontier, ont, doc, closure.iter().copied(), field, None);
    field.sum_over(query)
}

struct Search<'a, 'r, S: IndexSource, F> {
    ont: &'a Ontology,
    source: &'a S,
    /// The source's liveness mask: no posting read where nothing is live
    /// here, no descent where nothing is live below.
    live: LiveMask<'a>,
    config: &'r KndsConfig,
    kind: QueryKind,
    /// The normalized (sorted, deduplicated) query and its length.
    query: &'r [ConceptId],
    nq: usize,
    /// The traversal order (levels or buckets), fixed at compile time.
    frontier: F,
    /// All per-query maps and buffers live here, borrowed for this query.
    ws: &'r mut KndsWorkspace,
    heap: TopK,
    metrics: QueryMetrics,
    /// Progressive-result and trace sinks.
    hooks: Hooks<'r>,
}

impl<'a, S: IndexSource, F: Frontier<'a>> Search<'a, '_, S, F> {
    fn run(&mut self) -> QueryResult {
        let t = Instant::now();
        let ws = &mut *self.ws;
        let (field, closure) = (&mut ws.dense.field, &mut ws.closure);
        pin_query(&self.frontier, self.ont, self.live, self.kind, self.query, field, closure);
        self.metrics.traversal += t.elapsed();
        self.frontier.seed(self.ws, self.query);

        let mut dist: u32 = 0;
        // cplx: bound depth — one distance per turn, exhausting within the valid-path diameter; cplx: counter levels
        loop {
            self.metrics.bump_levels();
            let mut current = self.frontier.take_round(&mut self.ws.dense, dist);
            self.metrics.nodes_visited += current.pending();
            self.trace(|| TraceEvent::LevelStart { level: dist, frontier: current.pending() });
            // --- coverage + expansion ----------------------------------------
            // Fetch the round's posting lists (the index bucket), then apply
            // them and expand (the traversal bucket): the clock is read per
            // round, not per posting list.
            let fetched = self.fetch_round(&mut current, dist);
            self.apply_fetched(dist);
            self.expand_round(&mut current, dist);
            let pending = self.frontier.finish_round(&mut self.ws.dense, current, dist);
            let forced = pending > self.config.queue_cap();
            if forced {
                self.metrics.forced_rounds += 1;
            }
            self.metrics.traversal += fetched.elapsed();

            // --- examination (distance-calculation bucket) ------------------
            let min_unexamined = self.examine(dist, forced);

            // --- termination -------------------------------------------------
            let d_minus = min_unexamined.min(self.unseen_bound(dist));
            let final_now = self.heap.iter().filter(|&(_, d)| d <= d_minus).count();
            self.metrics.progressive_results = self.metrics.progressive_results.max(final_now);
            self.emit_final(d_minus);
            if self.heap.is_full() && d_minus >= self.heap.threshold() {
                let threshold = self.heap.threshold();
                self.trace(|| TraceEvent::Terminated { level: dist, d_minus, threshold });
                break;
            }
            match self.frontier.advance(dist) {
                Some(next) => dist = next,
                None => {
                    self.finalize_exhausted();
                    break;
                }
            }
        }
        self.frontier.restore(self.ws);

        self.metrics.candidates_seen = self.ws.dense.cand.len();
        let results: Vec<RankedDoc> = std::mem::replace(&mut self.heap, TopK::new(1))
            .into_sorted()
            .into_iter()
            .map(|(doc, distance)| RankedDoc { doc, distance })
            .collect();
        // Flush the remaining results (already sorted) to the sink.
        if let Some(sink) = self.hooks.on_final.as_mut() {
            for &r in &results {
                if self.ws.dense.mark_doc(r.doc) {
                    sink(r);
                }
            }
        }
        QueryResult { results, metrics: std::mem::take(&mut self.metrics) }
    }

    /// Emits every held result whose distance is strictly below `d_minus`:
    /// no unexamined or unseen document can beat it, so it is final. Any
    /// later emission has distance ≥ `d_minus`, keeping the stream sorted.
    fn emit_final(&mut self, d_minus: f64) {
        if self.hooks.on_final.is_none() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ws.order);
        ready.clear();
        ready.extend(
            self.heap
                .iter()
                .filter(|&(doc, d)| d < d_minus && !self.ws.dense.doc_marked(doc))
                .map(|(doc, d)| Reverse((OrdF64(d), doc))),
        );
        ready.sort_unstable_by_key(|&Reverse(key)| key);
        if let Some(sink) = self.hooks.on_final.as_mut() {
            for &Reverse((OrdF64(distance), doc)) in &ready {
                self.ws.dense.mark_doc(doc);
                sink(RankedDoc { doc, distance });
            }
        }
        ready.clear();
        self.ws.order = ready;
    }

    /// The fetch pass of a round, timed as `io` as a whole: fetches the
    /// round's posting lists one block at a time (see [`FETCH_BLOCK`]),
    /// applying each full block on the way (timed as `traversal`); the
    /// last block is left for the caller to apply. Returns the instant it
    /// was fetched.
    fn fetch_round(&mut self, round: &mut Round, dist: u32) -> Instant {
        let mut from = 0;
        // cplx: bound nq*c — every turn consumes at least one entry of the round
        loop {
            let start = Instant::now();
            from = self.fetch_block(round, from);
            let fetched = Instant::now();
            self.metrics.io += fetched - start;
            if from >= round.nodes.len() {
                return fetched;
            }
            self.apply_fetched(dist);
            self.metrics.traversal += fetched.elapsed();
        }
    }

    /// Fetches for the round's entries from `from` on until the fetch
    /// buffer holds a full block; returns the first entry not yet fetched
    /// for. Gathers each entry's origins from its origin row and
    /// decides the entry's coverage — its origins whose `(origin, node)`
    /// pair is fresh (`(up | down) & !pair_seen`); rounds come in
    /// increasing distance, so the first application carries the minimal
    /// distance under either policy — then reads the node's posting list
    /// once if any is, as one [`Span`] carrying the fresh origin words.
    // cplx: bound nq*c*seg + nq*post — amortized: the dense pair marks admit each
    // (origin, concept) pair once per query, so a query reads a concept's list at
    // most nq times, each a walk over the source's segments
    fn fetch_block(&mut self, round: &mut Round, from: usize) -> usize {
        let stride = self.ws.dense.stride();
        let origin_sets = round.words.chunks_exact_mut(2 * stride);
        for (i, (&node, origins)) in round.nodes.iter().zip(origin_sets).enumerate().skip(from) {
            let (up, down) = origins.split_at_mut(stride);
            let row = self.ws.dense.take_pending(node, up, down);
            debug_assert!(origins.iter().any(|&w| w != 0), "a concept pends with an origin");
            // No live posting here: the posting list is empty.
            if !self.live.live_here(node) {
                continue;
            }
            let (up, down) = origins.split_at(stride);
            let from = self.ws.span_words.len();
            for (w, (&u, &d)) in up.iter().zip(down).enumerate() {
                let Some(row) = row.filter(|_| u | d != 0) else {
                    continue;
                };
                let new = self.ws.dense.fresh_pairs(row, w, u | d);
                if new != 0 {
                    // bound: sized — at most one origin word per entry word of the round, into capacity the workspace retains (cplx: cap nq*c — one per fresh (origin, concept) pair)
                    self.ws.span_words.push((packing::narrow_u32(w), new));
                }
            }
            let words = from..self.ws.span_words.len();
            if words.is_empty() {
                continue;
            }
            let begin = self.ws.postings_buf.len();
            self.source.postings(node, &mut self.ws.postings_buf);
            let end = self.ws.postings_buf.len();
            // bound: sized — at most one entry per concept of the round, into capacity the workspace retains (cplx: cap nq*c — one per fresh (origin, concept) pair)
            self.ws.spans.push(Span { begin, end, words });
            if end >= FETCH_BLOCK {
                return i + 1;
            }
        }
        round.nodes.len()
    }

    /// The apply pass: runs the fetched posting lists against the
    /// candidate bookkeeping in fetch order — a document's first hit
    /// inserts its row, every hit covers it — and empties the fetch
    /// buffers.
    // cplx: bound nq*post — amortized: the dense pair marks admit each (origin,
    // concept) pair once per query, so the posting scans sum to nq·Σ|postings|
    fn apply_fetched(&mut self, level: u32) {
        // Detach the buffers so the loop below can mutate the candidate
        // table without aliasing the workspace borrow.
        let mut postings = std::mem::take(&mut self.ws.postings_buf);
        let mut spans = std::mem::take(&mut self.ws.spans);
        let mut span_words = std::mem::take(&mut self.ws.span_words);
        for Span { begin, end, words } in &spans {
            let hits = postings.get(*begin..*end).unwrap_or_default();
            match span_words.get(words.clone()).unwrap_or_default() {
                // One origin word, as every RDS span: the hit loop below
                // specializes to a single word test.
                &[one] => self.apply_hits(hits, &[one], level),
                fwd => self.apply_hits(hits, fwd, level),
            }
        }
        postings.clear();
        spans.clear();
        span_words.clear();
        self.ws.postings_buf = postings;
        self.ws.spans = spans;
        self.ws.span_words = span_words;
    }

    /// Applies one posting list's hits: forward coverage of the origin
    /// words `fwd`.
    #[inline(always)]
    fn apply_hits(&mut self, hits: &[DocId], fwd: &[(u32, u64)], level: u32) {
        for &d in hits {
            let slot = match self.ws.dense.slot_of(d) {
                Some(slot) => slot,
                None => self.insert_row(d),
            };
            self.ws.dense.apply_to_candidate(slot, fwd, level);
        }
    }

    /// Inserts `doc`'s candidate row; an SDS row reads its document's
    /// concepts once and takes its exact reverse term off the field.
    fn insert_row(&mut self, doc: DocId) -> usize {
        let ws = &mut *self.ws;
        let reverse = if self.kind == QueryKind::Sds {
            ws.concepts_buf.clear();
            self.source.doc_concepts(doc, &mut ws.concepts_buf);
            ws.dense.field.reverse_term(&ws.concepts_buf)
        } else {
            0.0
        };
        ws.dense.insert_candidate(doc, reverse)
    }

    /// Expands every entry of the round (see [`Search::expand`]).
    fn expand_round(&mut self, round: &mut Round, dist: u32) {
        let stride = self.ws.dense.stride();
        // cplx: bound nq*c — one turn per entry, at most one entry per concept of the round
        for i in 0..round.nodes.len() {
            let node = round.nodes.get(i).copied();
            if let Some((node, (up, down))) = node.zip(round.origins_mut(i, stride)) {
                self.expand(node, up, down, dist);
            }
        }
    }

    /// Pushes the valid-path neighbors of an entry, each at `dist` plus
    /// the policy's step cost: its `up` origins to the parents (still
    /// ascending), all its origins — `up | down`, one OR, left in `down` —
    /// to the children (now descending); once a traversal has descended it
    /// may not ascend again (the "{G,F} not pushed" rule of Example 4). A
    /// child with nothing live at or below it is not pushed: every path
    /// through it descends, so it reaches no document. Ascents are never
    /// pruned, so every ∧-path to a live concept survives at its length,
    /// and first-touch levels, partial distances and bounds do not change.
    fn expand(&mut self, node: ConceptId, up: &[u64], down: &mut [u64], dist: u32) {
        if up.iter().any(|&w| w != 0) {
            for &p in self.ont.parents(node) {
                let Some(w) = self.frontier.parent_step(self.ont, p, node) else {
                    debug_assert!(false, "parent adjacency is symmetric");
                    continue;
                };
                self.frontier.admit(&mut self.ws.dense, p, false, up, dist + w);
            }
        }
        let mut any = false;
        for (d, &u) in down.iter_mut().zip(up) {
            *d |= u;
            any |= *d != 0;
        }
        if !any {
            return;
        }
        for (pos, &c) in self.ont.children(node).iter().enumerate() {
            if !self.live.live_below(c) {
                continue;
            }
            let w = self.frontier.child_step(node, pos);
            self.frontier.admit(&mut self.ws.dense, c, true, down, dist + w);
        }
    }

    /// One linear pass over the unexamined rows, then examination in
    /// ascending `(D⁻, DocId)` while the error estimate allows (or
    /// unconditionally in a forced round). A row whose bound already
    /// reaches `D⁺_k` at round start can never be examined this round — the
    /// threshold only falls as results arrive — so it is not ordered at
    /// all, only folded into the minimum; the rest are heapified in place
    /// and popped one at a time, so a round costs `|rows| + examined·log`.
    /// Returns the smallest lower bound left unexamined.
    fn examine(&mut self, level: u32, forced: bool) -> f64 {
        let t0 = Instant::now();
        let mut order = std::mem::take(&mut self.ws.order);
        order.clear();
        // `+∞` while the heap is filling: every (finite) bound survives.
        let bar = self.heap.threshold();
        let mut min_unexamined = f64::INFINITY;
        for (&doc, c) in self.ws.dense.cand_docs.iter().zip(&self.ws.dense.cand) {
            if c.examined {
                continue;
            }
            if let Some(sink) = self.hooks.on_trace.as_mut() {
                sink(TraceEvent::Candidate { doc, covered: c.covered, partial: c.partial });
            }
            let lb = self.lower_bound(c, level);
            if lb >= bar {
                min_unexamined = min_unexamined.min(lb);
            } else {
                // bound: sized — at most one entry per candidate row, into capacity the workspace retains
                order.push(Reverse((OrdF64(lb), doc)));
            }
        }
        let mut order = BinaryHeap::from(order);
        self.metrics.traversal += t0.elapsed();

        // The §5 termination argument, as an output-sensitive axiom: only
        // rows with D⁻ < D⁺_k reach the heap, pops come in ascending D⁻ and
        // stop at the first one with D⁻ ≥ D⁺_k (or ε_d over the threshold),
        // so both the ordering work and the probes are spent on documents
        // that can still enter the top-k, not on the |D| rows of the
        // candidate table (measured: knds.examined_per_result;
        // `QueryMetrics::ordered` counts the pops).
        // cplx: bound k — only candidates with D⁻ < D⁺_k are ordered and probed (§5 termination); cplx: counter ordered
        while let Some(Reverse((OrdF64(lb), doc))) = order.pop() {
            self.metrics.bump_ordered();
            if self.heap.is_full() && lb >= self.heap.threshold() {
                // Optimization 1 (Section 5.3): nothing below this bound can
                // enter the top-k; ascending pops make the rest moot too.
                min_unexamined = lb;
                break;
            }
            // `order` was built from the candidate rows, so the lookup cannot
            // miss; degrade to skipping the entry rather than panicking.
            let Some(slot) = self.ws.dense.slot_of(doc) else {
                debug_assert!(false, "ordered candidate {doc:?} missing from the slot map");
                continue;
            };
            let Some(c) = self.ws.dense.candidate(slot) else {
                debug_assert!(false, "slot of {doc:?} points past the candidate rows");
                continue;
            };
            let eps = self.error_estimate(c, level);
            if !forced && eps > self.config.error_threshold() {
                min_unexamined = lb;
                break;
            }
            let (complete, reverse) = (self.is_complete(c), c.reverse);
            let partial = self.partial_distance(c);
            let (exact, via_drc) = self.exact_distance(doc, complete, partial, reverse);
            if let Some(cand) = self.ws.dense.candidate_mut(slot) {
                cand.examined = true;
            }
            self.metrics.docs_examined += 1;
            self.heap.offer(doc, exact);
            self.trace(|| TraceEvent::Examined {
                doc,
                lower_bound: lb,
                error: eps,
                exact,
                via_drc,
            });
        }
        order.clear();
        self.ws.order = order.into_vec();
        let threshold = self.heap.threshold();
        self.trace(|| TraceEvent::ExamineBreak { min_unexamined, threshold });
        min_unexamined
    }

    /// Emits a trace event if a sink is attached (the closure keeps event
    /// construction off the hot path).
    #[inline]
    fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.hooks.on_trace.as_mut() {
            sink(event());
        }
    }

    /// The forward half of Equations 6/8: partial distance plus `l + 1`
    /// for every uncovered query concept.
    fn forward_bound(&self, c: &Candidate, level: u32) -> u64 {
        c.partial + (self.nq as u64 - c.covered as u64) * (level + 1) as u64
    }

    /// Equation 6 (RDS) / Equation 8 (SDS): the forward bound, plus for SDS
    /// the row's exact reverse term — at least Equation 8's reverse half,
    /// which charges `l + 1` for every document concept no expansion has
    /// touched yet.
    // bound: proven — nq ≥ 1 (asserted at query entry) and every counter is
    // bounded by nq · max ontology depth, far below the 2^53 f64 mantissa
    fn lower_bound(&self, c: &Candidate, level: u32) -> f64 {
        let fwd = self.forward_bound(c, level);
        match self.kind {
            QueryKind::Rds => fwd as f64,
            QueryKind::Sds => fwd as f64 / self.nq as f64 + c.reverse,
        }
    }

    /// The partial (currently known) distance — Equation 5; for SDS over
    /// `nq`, plus the exact reverse term.
    fn partial_distance(&self, c: &Candidate) -> f64 {
        from_forward(self.kind, self.nq, c.partial, c.reverse)
    }

    /// Equation 9, `εd = 1 − Dpartial / D⁻`, over the forward half — what
    /// the traversal has learnt — alone. The SDS reverse half is exact, so
    /// counting it would call every row nearly done and probe them all.
    // bound: proven — partial and the forward bound are sums of ≤ nq hop
    // counts, far below the 2^53 f64 mantissa
    fn error_estimate(&self, c: &Candidate, level: u32) -> f64 {
        let fwd = self.forward_bound(c, level);
        if fwd == 0 {
            return 0.0;
        }
        1.0 - c.partial as f64 / fwd as f64
    }

    /// Whether the candidate's partial information already determines its
    /// exact distance (Section 5.3, optimization 3): every query concept
    /// is covered (the SDS reverse half is exact from the row's insertion).
    fn is_complete(&self, c: &Candidate) -> bool {
        c.covered as usize == self.nq
    }

    /// Smallest possible distance of a document no expansion has seen yet:
    /// every term is uncovered, so every term contributes at least `l + 1`.
    // bound: proven — nq is the query concept count, far below 2^53
    fn unseen_bound(&self, level: u32) -> f64 {
        let next = (level + 1) as f64;
        match self.kind {
            QueryKind::Rds => self.nq as f64 * next,
            QueryKind::Sds => 2.0 * next,
        }
    }

    /// Exact distance of `doc` and whether a probe was needed: complete
    /// partial information short-circuits (Section 5.3, optimization 3),
    /// otherwise an exact [`probe`] runs. `complete`, `partial` and the
    /// SDS `reverse` term are the caller's, read off the candidate row
    /// (see [`Search::is_complete`]).
    fn exact_distance(
        &mut self,
        doc: DocId,
        complete: bool,
        partial: f64,
        reverse: f64,
    ) -> (f64, bool) {
        if complete {
            self.metrics.exact_from_partial += 1;
            return (partial, false);
        }

        let t = Instant::now();
        let ws = &mut *self.ws;
        ws.concepts_buf.clear();
        self.source.doc_concepts(doc, &mut ws.concepts_buf);
        self.metrics.io += t.elapsed();

        let t = Instant::now();
        let (concepts, closure) = (&ws.concepts_buf, &ws.closure);
        let fwd =
            probe(&self.frontier, self.ont, concepts, closure, self.query, &mut ws.dense.probe);
        let exact = fwd.map_or(f64::INFINITY, |fwd| from_forward(self.kind, self.nq, fwd, reverse));
        self.metrics.distance_calc += t.elapsed();
        self.metrics.drc_calls += 1;
        (exact, true)
    }

    /// The expansion exhausted every reachable state: every candidate's
    /// coverage is complete, so partial sums *are* the exact distances.
    /// Documents never seen contain no reachable concepts (i.e. none at
    /// all) and sit at infinite distance.
    fn finalize_exhausted(&mut self) {
        let t0 = Instant::now();
        let finalized = self.ws.dense.cand.iter().filter(|c| !c.examined).count();
        self.trace(|| TraceEvent::Exhausted { finalized });
        for slot in 0..self.ws.dense.cand.len() {
            let row = self.ws.dense.candidate(slot).zip(self.ws.dense.cand_docs.get(slot));
            let Some((c, &doc)) = row.filter(|(c, _)| !c.examined) else {
                continue;
            };
            debug_assert_eq!(c.covered as usize, self.nq, "exhaustion implies full coverage");
            let exact = self.partial_distance(c);
            self.metrics.exact_from_partial += 1;
            self.metrics.docs_examined += 1;
            if let Some(c) = self.ws.dense.candidate_mut(slot) {
                c.examined = true;
            }
            self.heap.offer(doc, exact);
        }
        if !self.heap.is_full() {
            for i in 0..self.source.num_docs() {
                let d = DocId::from_index(i);
                if self.ws.dense.slot_of(d).is_none() && self.source.is_live(d) {
                    self.heap.offer(d, f64::INFINITY);
                }
            }
        }
        self.metrics.distance_calc += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::Corpus;
    use cbr_index::SegmentedView;
    use cbr_ontology::fixture;
    use std::time::Duration;

    /// A small collection over the Figure 3 ontology.
    fn setup() -> (fixture::Figure3, Corpus, SegmentedView) {
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("F"), c("R"), c("T"), c("V")], 0), // the paper's example doc
            (vec![c("I"), c("L"), c("U")], 0),         // equals the example query
            (vec![c("M"), c("N")], 0),
            (vec![c("C")], 0),
            (vec![c("G"), c("H")], 0),
            (vec![c("U"), c("L")], 0),
        ]);
        let source = SegmentedView::from_corpus(&corpus);
        (fig, corpus, source)
    }

    #[test]
    fn rds_finds_exact_match_first() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q = fig.example_query(); // {I, L, U} == doc 1
        let r = knds.rds(&q, 2);
        assert_eq!(r.results[0].doc, DocId(1));
        assert_eq!(r.results[0].distance, 0.0);
        assert_eq!(r.results.len(), 2);
    }

    #[test]
    fn rds_distances_match_drc() {
        let (fig, corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let mut drc = cbr_dradix::Drc::new(&fig.ontology);
        let q = fig.example_query();
        let r = knds.rds(&q, 6);
        assert_eq!(r.results.len(), 6);
        for rd in &r.results {
            let doc = corpus.get(rd.doc);
            let expect = drc.document_query_distance(doc.concepts(), &q);
            assert_eq!(rd.distance, expect as f64, "distance of {:?}", rd.doc);
        }
        // Ranking is non-decreasing.
        for w in r.results.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn example_doc_query_distance_is_seven() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let r = knds.rds(&fig.example_query(), 6);
        let d0 = r.results.iter().find(|r| r.doc == DocId(0)).unwrap();
        assert_eq!(d0.distance, 7.0, "Example 1 of the paper");
    }

    #[test]
    fn sds_self_similarity_is_zero() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q = fig.example_query();
        let r = knds.sds(&q, 1);
        assert_eq!(r.results[0].doc, DocId(1));
        assert_eq!(r.results[0].distance, 0.0);
    }

    #[test]
    fn k_larger_than_collection_returns_everything() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let r = knds.rds(&[fig.concept("U")], 100);
        assert_eq!(r.results.len(), 6, "all documents returned");
    }

    #[test]
    fn duplicate_query_concepts_collapse() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let u = fig.concept("U");
        let a = knds.rds(&[u, u, u], 3);
        let b = knds.rds(&[u], 3);
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.distance, y.distance);
        }
    }

    #[test]
    #[should_panic(expected = "at least one concept")]
    fn empty_query_panics() {
        let (fig, _corpus, source) = setup();
        Knds::new(&fig.ontology, &source, KndsConfig::default()).rds(&[], 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (fig, _corpus, source) = setup();
        Knds::new(&fig.ontology, &source, KndsConfig::default()).rds(&[fig.concept("U")], 0);
    }

    #[test]
    fn metrics_are_populated() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let r = knds.rds(&fig.example_query(), 2);
        assert!(r.metrics.nodes_visited > 0);
        assert!(r.metrics.levels > 0);
        assert!(r.metrics.docs_examined >= 2);
        assert!(r.metrics.candidates_seen >= r.metrics.docs_examined);
        assert!(r.metrics.ordered >= r.metrics.docs_examined);
    }

    /// A `SegmentedView` wrapper whose every `postings` call busy-waits `SPIN` first,
    /// so index time dominates the query and is known from the call count.
    struct SpinningSource<'a> {
        inner: &'a SegmentedView,
        postings_calls: std::cell::Cell<u32>,
    }

    const SPIN: Duration = Duration::from_micros(50);

    impl IndexSource for SpinningSource<'_> {
        fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
            let t = Instant::now();
            while t.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            self.postings_calls.set(self.postings_calls.get() + 1);
            self.inner.postings(c, out);
        }
        fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
            self.inner.doc_concepts(d, out);
        }
        fn doc_len(&self, d: DocId) -> usize {
            self.inner.doc_len(d)
        }
        fn num_docs(&self) -> usize {
            self.inner.num_docs()
        }
    }

    #[test]
    fn time_buckets_are_disjoint() {
        let (fig, _corpus, source) = setup();
        let spinning = SpinningSource { inner: &source, postings_calls: Default::default() };
        let knds = Knds::new(&fig.ontology, &spinning, KndsConfig::default());
        let q = fig.example_query();
        for kind in [QueryKind::Rds, QueryKind::Sds] {
            spinning.postings_calls.set(0);
            let mut ws = KndsWorkspace::new();
            let t = Instant::now();
            let r = knds.run(&mut ws, kind, &q, 2, Hooks::default());
            let wall = t.elapsed();
            let spun = SPIN * spinning.postings_calls.get();
            assert!(spun > Duration::ZERO, "{kind:?} read no posting list");
            assert!(r.metrics.io >= spun, "{kind:?}: io {:?} < spun {spun:?}", r.metrics.io);
            assert!(
                r.metrics.total() <= wall,
                "{kind:?}: buckets sum to {:?}, more than the {wall:?} the query took ({})",
                r.metrics.total(),
                r.metrics
            );
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q1 = fig.example_query();
        let q2 = vec![fig.concept("M"), fig.concept("V")];
        let mut ws = KndsWorkspace::new();
        // Interleave RDS and SDS on one workspace; each must equal a
        // fresh-workspace run exactly.
        for (i, q) in [&q1, &q2, &q1].iter().enumerate() {
            let a = knds.rds_with(&mut ws, q, 4);
            let b = knds.rds(q, 4);
            assert_eq!(a.results, b.results, "RDS round {i} diverged under reuse");
            let a = knds.sds_with(&mut ws, q, 4);
            let b = knds.sds(q, 4);
            assert_eq!(a.results, b.results, "SDS round {i} diverged under reuse");
        }
        assert!(ws.footprint_bytes() > 0, "workspace warmed up");
    }

    #[test]
    fn steady_state_queries_stop_growing_the_workspace() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q1 = fig.example_query();
        let q2 = vec![fig.concept("M"), fig.concept("V")];
        let mut ws = KndsWorkspace::new();
        // Warm-up pass over every query shape.
        let cold = knds.rds_with(&mut ws, &q1, 4);
        assert_eq!(cold.metrics.workspace_reused, 0, "first query is cold");
        knds.sds_with(&mut ws, &q1, 4);
        knds.rds_with(&mut ws, &q2, 4);
        knds.sds_with(&mut ws, &q2, 4);
        let warm = ws.footprint_bytes();
        // Steady state: repeated queries must not grow any buffer.
        for _ in 0..3 {
            let r = knds.rds_with(&mut ws, &q1, 4);
            assert_eq!(r.metrics.workspace_reused, 1);
            assert_eq!(r.metrics.workspace_bytes, warm, "RDS grew the workspace");
            let r = knds.sds_with(&mut ws, &q2, 4);
            assert_eq!(r.metrics.workspace_bytes, warm, "SDS grew the workspace");
        }
    }

    #[test]
    fn a_candidate_row_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Candidate>(), 24);
    }

    /// One generated instance, as `tests/equivalence.rs` draws them: a small
    /// ontology and collection from `seed`, and two query documents taken
    /// from the collection by the picks.
    fn generated(
        seed: u64,
        pick: u32,
        other_pick: u32,
    ) -> (Ontology, SegmentedView, Vec<ConceptId>, Vec<ConceptId>) {
        use cbr_corpus::{CorpusGenerator, CorpusProfile};
        use cbr_ontology::{GeneratorConfig, OntologyGenerator};
        let ont = OntologyGenerator::new(GeneratorConfig::small(150).with_seed(seed)).generate();
        let profile = CorpusProfile::radio_like()
            .with_num_docs(40)
            .with_mean_concepts(8.0)
            .with_seed(seed.wrapping_add(31));
        let corpus = CorpusGenerator::new(&ont, profile).generate();
        let source = SegmentedView::from_corpus(&corpus);
        let doc = |pick: u32| {
            let d = corpus.get(DocId(pick % corpus.len() as u32));
            if d.num_concepts() > 0 {
                d.concepts().to_vec()
            } else {
                vec![ConceptId(pick % ont.len() as u32)]
            }
        };
        let (q, other) = (doc(pick), doc(other_pick));
        (ont, source, q, other)
    }

    /// The field `ws` holds after its last SDS search against `oracle`, on
    /// every concept with a live posting.
    fn assert_field(ws: &KndsWorkspace, source: &SegmentedView, oracle: &[u32], ctx: &str) {
        let mut postings = Vec::new();
        for (i, &expect) in oracle.iter().enumerate() {
            let c = ConceptId::from_index(i);
            postings.clear();
            source.postings(c, &mut postings);
            if !postings.is_empty() {
                assert_eq!(ws.dense.field.field_at(c), expect, "{ctx}: f({c:?})");
            }
        }
    }

    /// Runs the SDS `search` for `q` on a cold workspace, on one warm from
    /// an SDS and an RDS (`unit`) query for `other`, and right after an
    /// epoch wrap whose new epoch `other` used, and holds each field the
    /// search leaves behind to `oracle`.
    fn check_field(
        search: impl Fn(&mut KndsWorkspace, &[ConceptId]) -> QueryResult,
        unit: &Knds<'_, SegmentedView>,
        q: &[ConceptId],
        other: &[ConceptId],
        oracle: &[u32],
        ctx: &str,
    ) {
        let source = unit.source;
        let mut ws = KndsWorkspace::new();
        search(&mut ws, q);
        assert_field(&ws, source, oracle, &format!("{ctx}, cold"));

        search(&mut ws, other);
        unit.rds_with(&mut ws, other, 2);
        search(&mut ws, q);
        assert_field(&ws, source, oracle, &format!("{ctx}, warm"));

        let mut ws = KndsWorkspace::new();
        search(&mut ws, other);
        ws.force_epoch_wrap();
        assert_eq!(search(&mut ws, q).metrics.epoch_rollover, 1, "{ctx}: no wrap");
        assert_field(&ws, source, oracle, &format!("{ctx}, wrapped"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The distance field an SDS search builds is the valid-path
        /// distance oracle's, under unit weights (`Levels`) and drawn
        /// weights (`Buckets`), whether the workspace is cold, warm from
        /// other queries, or wrapping its epoch counter.
        #[test]
        fn the_field_is_the_multi_source_distance(
            seed in 0u64..400,
            pick in 0u32..10_000,
            other_pick in 0u32..10_000,
            weight_seed in 0u32..1_000,
            heaviest in 1u32..6,
        ) {
            use cbr_ontology::{distance, weighted, EdgeWeights};
            let (ont, source, q, other) = generated(seed, pick, other_pick);
            let weights = EdgeWeights::from_fn(&ont, |p, c| {
                1 + (p.0.wrapping_mul(31) ^ c.0.wrapping_mul(17) ^ weight_seed) % heaviest
            });
            let unit = Knds::new(&ont, &source, KndsConfig::default());
            let heavy = crate::WeightedKnds::new(&ont, &weights, &source, KndsConfig::default());
            let ctx = format!("seed {seed}");
            let oracle = distance::multi_source_distances(&ont, &q);
            check_field(|ws, q| unit.sds_with(ws, q, 3), &unit, &q, &other, &oracle, &ctx);
            let oracle = weighted::multi_source_distances(&ont, &weights, &q);
            check_field(|ws, q| heavy.sds_with(ws, q, 3), &unit, &q, &other, &oracle, &ctx);
        }
    }
}
