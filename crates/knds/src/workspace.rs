//! Reusable per-query scratch for the kNDS engines.
//!
//! Every kNDS query needs a family of lookup tables and buffers — the
//! candidate table, the coverage sets, the BFS frontier, posting/concept
//! fetch buffers, and the DRC DAG scratch. Allocating them per query
//! dominates short-query latency and defeats the paper's "no
//! precomputation, instant admission" story at service scale. A
//! [`KndsWorkspace`] owns all of that state once: engines borrow it for
//! the duration of one query via the `*_with` entry points
//! ([`Knds::rds_with`](crate::Knds::rds_with) and friends), clear it —
//! never free it — on return, and the hot loop stops allocating after the
//! first few queries warm the capacities up.
//!
//! # Dense epoch-stamped tables
//!
//! The per-state lookups of Algorithm 2 (BFS dedup, coverage-applied
//! pairs, the candidate map, Dijkstra tentative distances) live in the
//! crate-private `DenseTables`: flat arrays sized by `|C|` and `|D|`,
//! indexed by concept (a concept-major row of origin words), by
//! `(origin, concept)` or by `DocId`, with **epoch stamps**
//! instead of per-query clearing. Every entry carries the epoch of the
//! query that last wrote it; a stamp that does not match the current
//! epoch reads as empty. Opening a query bumps one counter — O(1)
//! regardless of how much the previous query touched — and the arrays are
//! never memset between queries. The origin rows are the exception: they
//! carry no stamp, but live in an arena truncated at every query begin.
//! When the 32-bit counter wraps (once per ~4 billion queries) the stamps
//! are zeroed wholesale so no entry from the pre-wrap era can alias a
//! live epoch; the event is surfaced as the
//! [`epoch_rollover`](crate::QueryMetrics::epoch_rollover) metric and
//! regression-tested via [`KndsWorkspace::force_epoch_wrap`].
//!
//! # Poisoning
//!
//! A query that panics mid-flight leaves the workspace dirty. The next
//! borrow detects this and resets the logical content before use, so a
//! pooled workspace can never leak one query's candidates into another's
//! results.

use crate::engine::{Candidate, QueryResult, Round, Span};
use crate::util::OrdF64;
use crate::weighted::Queues;
use cbr_corpus::DocId;
use cbr_dradix::DagScratch;
use cbr_index::packing;
use cbr_ontology::ConceptId;
use std::cmp::Reverse;

/// Owned, reusable query state for [`Knds`](crate::Knds),
/// [`WeightedKnds`](crate::WeightedKnds), and the scan baselines.
///
/// One workspace serves one query at a time but any number of queries in
/// sequence — RDS, SDS, weighted, and baseline runs may interleave freely
/// on the same workspace and are bit-identical to fresh-state runs (see
/// the reuse-equivalence property tests in `tests/properties.rs`).
#[derive(Debug, Default)]
pub struct KndsWorkspace {
    /// Normalized (sorted, deduplicated) query buffer.
    pub(crate) query: Vec<ConceptId>,
    /// Dense epoch-stamped state tables (candidates, coverage, dedup,
    /// Dijkstra distances, doc marks) — the hash-free hot path.
    pub(crate) dense: DenseTables,
    /// The round's fetched posting lists, end to end (one block at most
    /// plus one list; see `engine::FETCH_BLOCK`).
    pub(crate) postings_buf: Vec<DocId>,
    /// One [`Span`] per list in `postings_buf`.
    pub(crate) spans: Vec<Span>,
    /// The origins each span covers forward: its nonzero origin words,
    /// as `(w, bits)`.
    pub(crate) span_words: Vec<(u32, u64)>,
    /// Forward-index fetch buffer.
    pub(crate) concepts_buf: Vec<ConceptId>,
    /// The BFS level being processed (the next one pends in `dense`).
    pub(crate) frontier: Round,
    /// Weighted: the Dijkstra buckets and the round's staged pushes.
    pub(crate) queues: Queues,
    /// Examination order buffer: the round's `(lower bound, doc)` min-heap.
    pub(crate) order: Vec<Reverse<(OrdF64, DocId)>>,
    /// The DRC D-Radix build scratch (node/label arenas et al.).
    pub(crate) dag: DagScratch,
    /// True while a query is in flight (or after a panic left one
    /// unfinished); `begin` resets a dirty workspace before reuse.
    dirty: bool,
    /// Queries served so far (drives the `workspace_reused` metric).
    uses: usize,
}

impl KndsWorkspace {
    /// An empty workspace; capacity accrues over the first queries.
    pub fn new() -> KndsWorkspace {
        KndsWorkspace::default()
    }

    /// Runs `body` as one query over this workspace — the one round trip
    /// behind kNDS (both policies), the full scan and TA: checks `k` and
    /// the query, normalizes the query into the retained buffer, hands
    /// `body` the workspace and the normalized query, then returns the
    /// workspace clean and stamps the reuse and footprint metrics.
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or `k` is zero.
    pub(crate) fn session(
        &mut self,
        query: &[ConceptId],
        k: usize,
        body: impl FnOnce(&mut KndsWorkspace, &[ConceptId]) -> QueryResult,
    ) -> QueryResult {
        assert!(k > 0, "k must be positive");
        let reused = self.begin();
        let mut q = std::mem::take(&mut self.query);
        crate::util::normalize_query_into(query, &mut q);
        assert!(!q.is_empty(), "query must contain at least one concept");
        let mut result = body(self, &q);
        q.clear();
        self.query = q;
        self.finish();
        result.metrics.workspace_reused = reused as usize;
        result.metrics.workspace_bytes = self.footprint_bytes();
        result
    }

    /// Marks the start of a query. Returns whether the workspace has
    /// served a query before (i.e. its capacities are warm). If the
    /// previous query panicked mid-flight the logical content is still
    /// present; it is cleared here before reuse.
    fn begin(&mut self) -> bool {
        if self.dirty {
            self.clear();
        }
        self.dirty = true;
        let warm = self.uses > 0;
        self.uses = self.uses.saturating_add(1);
        warm
    }

    /// Marks the end of a query: clears all logical content (keeping
    /// capacity) so the workspace is returned clean.
    fn finish(&mut self) {
        self.clear();
        self.dirty = false;
    }

    /// Pre-sizes the `|C|`- and `|D|`-indexed dense tables for an index
    /// of `concepts` concepts and `docs` documents, so a pooled or
    /// per-worker workspace does not grow them inside its first query.
    /// Origin-dependent tables still size at query begin (once `nq` is
    /// known), which also keeps pooled workspaces correct when the index
    /// grows between queries.
    pub fn reserve(&mut self, concepts: usize, docs: usize) {
        self.dense.reserve(concepts, docs);
    }

    /// Test-only hook: primes the epoch counter so the *next* query wraps
    /// it, exercising the full-stamp-reset path (`epoch_rollover`).
    #[doc(hidden)]
    pub fn force_epoch_wrap(&mut self) {
        self.dense.epoch = u32::MAX;
    }

    /// Detaches the DRC scratch for the duration of a query (it rides
    /// inside a [`Drc`](cbr_dradix::Drc) value); pair with
    /// [`restore_dag`](Self::restore_dag).
    pub(crate) fn take_dag(&mut self) -> DagScratch {
        std::mem::take(&mut self.dag)
    }

    /// Re-attaches the DRC scratch after a query.
    pub(crate) fn restore_dag(&mut self, dag: DagScratch) {
        self.dag = dag;
    }

    fn clear(&mut self) {
        self.query.clear();
        self.dense.clear();
        self.postings_buf.clear();
        self.spans.clear();
        self.span_words.clear();
        self.concepts_buf.clear();
        self.frontier.clear();
        self.queues.clear();
        self.order.clear();
        // The DAG scratch clears itself on the next build; the dense
        // stamp arrays are invalidated by the next epoch bump.
    }

    /// Approximate heap footprint of the retained capacities, in bytes.
    /// This is the quantity reported as
    /// [`QueryMetrics::workspace_bytes`](crate::QueryMetrics) and asserted
    /// stable by the steady-state allocation tests: once warm, repeated
    /// queries must not grow any backing buffer.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.query.capacity() * size_of::<ConceptId>()
            + self.dense.footprint_bytes()
            + self.postings_buf.capacity() * size_of::<DocId>()
            + self.spans.capacity() * size_of::<Span>()
            + self.span_words.capacity() * size_of::<(u32, u64)>()
            + self.concepts_buf.capacity() * size_of::<ConceptId>()
            + self.frontier.footprint_bytes()
            + self.queues.footprint_bytes()
            + self.order.capacity() * size_of::<Reverse<(OrdF64, DocId)>>()
            + self.dag.footprint_bytes()
    }
}

/// The dense, epoch-stamped replacement for the per-query hash maps.
///
/// Layouts (all indexes are plain arithmetic, no hashing):
///
/// * **origin row** `node` → `stride` [`OriginWords`] in `origin_rows`
///   (found through `row_of`), one per 64 query concepts (origins): which
///   origins have reached the concept ascending and descending (the BFS
///   visited set; weighted, the settled one), which have had its posting
///   list applied (coverage), and which are pending at it next round (the
///   frontier);
/// * **pending mask** — one bit per concept in `pending`: the concepts
///   with origins pending next round, swept in ascending concept order
///   when the round begins;
/// * **packed state** `(origin, node, descending)` →
///   `(origin · |C| + node) · 2 + descending` — one stamped `u32` per
///   state in `best` (weighted tentative distances);
/// * **concept** `node` → one stamp in `touch_stamps` (SDS global first
///   touch);
/// * **document** `doc` → one bit in `doc_bits` (progressive emission /
///   TA scan marks) and one packed `stamp << 32 | row` entry in `slots`
///   pointing into the dense candidate rows.
///
/// Bitset words carry their stamp *beside* them, so a test-and-set
/// touches a single cache line; value arrays stamp per entry. A stamp
/// equal to the current epoch means live; any other value reads as empty,
/// which is what makes clearing O(1). Origin rows carry no stamp: `clear`
/// empties their arena at every query begin, and a `row_of` index left
/// over from an earlier query is rejected because the word it finds names
/// a different concept (or lies past the arena's end). One origin word
/// serves a push's admission and its next-round pending bits, and later
/// the fetch's coverage test, in one 48-byte record.
///
/// Candidates are *rows*, not map entries: `slots[doc]` points at
/// parallel `cand`/`cand_docs` vectors, and each row owns `stride` words
/// of the shared `cover_words` arena for its per-query-concept coverage
/// bits — no per-candidate heap allocation anywhere.
#[derive(Debug, Default)]
pub(crate) struct DenseTables {
    /// Current query generation; stamps equal to this are live.
    epoch: u32,
    /// `|C|` used for state indexing this query.
    concepts: usize,
    /// Words per origin set this query (`⌈nq / 64⌉`): a candidate's
    /// coverage row, a frontier entry's half, a span's forward origins.
    stride: usize,
    /// Concept → the first word of its origin row this query, valid when
    /// that word names the concept back: every word of a row names its
    /// concept, so an index left over from an earlier query finds a word
    /// of another concept's row, or none. Rows are handed out in
    /// first-touch order, so a query's rows sit together, and truncating
    /// the arena empties them all.
    row_of: Vec<u32>,
    /// Origin rows, `stride` words each, truncated between queries.
    origin_rows: Vec<OriginWords>,
    /// The concepts with origins pending next round, one bit each — swept
    /// in ascending concept order, so a round's posting lists, adjacency
    /// and origin rows are read in index order.
    pending: Vec<u64>,
    /// Per-document mark bits (emitted / TA-seen), stamped per word.
    doc_bits: Vec<StampedWord>,
    /// SDS: per-concept first-touch stamps (a pure set; the touch level
    /// itself is applied to candidates at mark time).
    touch_stamps: Vec<u32>,
    /// Weighted: per-state best tentative distance, stamped per entry.
    best: Vec<StampedDist>,
    /// Document → candidate row index, packed `stamp << 32 | slot` so one
    /// load answers the (random-access, cache-hostile) slot lookup.
    slots: Vec<u64>,
    /// Dense candidate rows (`Md` bookkeeping), truncated between queries.
    pub(crate) cand: Vec<Candidate>,
    /// Parallel row → document mapping (drives iteration in examine /
    /// finalize without touching the `|D|`-sized slot map).
    pub(crate) cand_docs: Vec<DocId>,
    /// Shared coverage-bit arena: row `r` owns words
    /// `[r · stride, (r + 1) · stride)`.
    cover_words: Vec<u64>,
}

/// One concept's origins `64w..64w + 63` (bit `o` is origin `64w + o`):
/// the traversal's per-concept state for one word of the query's origin
/// sets. Not stamped: valid while it names the concept looked up (see
/// [`DenseTables`]).
#[derive(Debug, Default, Clone, Copy)]
struct OriginWords {
    /// The concept whose row this is.
    concept: u32,
    /// Origins at the concept ascending.
    up: Direction,
    /// Origins at the concept descending.
    down: Direction,
    /// Origins whose forward coverage the concept's posting list applied.
    pair: u64,
}

/// The origins at a concept in one direction.
#[derive(Debug, Default, Clone, Copy)]
struct Direction {
    /// Every origin that has reached it so far (the visited set).
    seen: u64,
    /// The origins pending at it next round.
    next: u64,
}

/// The bits set in `w`. Origin words are sparse — one bit is the common
/// case, and the only one RDS sees — so that case skips the population
/// count the baseline target has no instruction for.
#[inline]
pub(crate) fn popcount(w: u64) -> u32 {
    if w & w.wrapping_sub(1) == 0 {
        u32::from(w != 0)
    } else {
        w.count_ones()
    }
}

/// One stamped bitset word: 64 membership bits and the epoch that wrote
/// them, side by side so a test-and-set touches one cache line instead of
/// two parallel arrays.
#[derive(Debug, Default, Clone, Copy)]
struct StampedWord {
    word: u64,
    stamp: u32,
}

/// One weighted state's tentative distance and the epoch that wrote it,
/// side by side: a relaxation is one cache miss into a table of
/// `2 · nq · |C|` states, not two.
#[derive(Debug, Default, Clone, Copy)]
struct StampedDist {
    dist: u32,
    stamp: u32,
}

/// Grows a stamped bitset to hold `bits` entries. Never shrinks; new
/// words arrive with stamp 0, which is dead for every live epoch.
// flow: workspace-fed
fn grow_words(words: &mut Vec<StampedWord>, bits: usize) {
    let n = bits.div_ceil(64);
    if words.len() < n {
        words.resize(n, StampedWord::default());
    }
}

/// Tests-and-sets bit `idx` of a stamped bitset: `Some(true)` if the bit
/// was newly set this epoch, `Some(false)` if it was already live, `None`
/// if `idx` is out of range.
#[inline]
fn set_bit(words: &mut [StampedWord], epoch: u32, idx: usize) -> Option<bool> {
    let mask = 1u64 << (idx & 63);
    let e = words.get_mut(idx >> 6)?;
    if e.stamp != epoch {
        e.stamp = epoch;
        e.word = 0;
    }
    let fresh = e.word & mask == 0;
    e.word |= mask;
    Some(fresh)
}

/// Reads bit `idx` of a stamped bitset (out of range reads as unset).
#[inline]
fn test_bit(words: &[StampedWord], epoch: u32, idx: usize) -> bool {
    match words.get(idx >> 6) {
        Some(e) => e.stamp == epoch && e.word & (1u64 << (idx & 63)) != 0,
        None => false,
    }
}

impl DenseTables {
    /// Packed index of a BFS state (see the type-level layout docs).
    #[inline]
    fn state_index(&self, origin: u32, node: ConceptId, descending: bool) -> usize {
        debug_assert!(node.index() < self.concepts, "node beyond the sized concept bound");
        // bound: proven — the table is allocated at 2·origins·concepts, so the shift fits usize
        ((origin as usize * self.concepts + node.index()) << 1) | descending as usize
    }

    /// Words per origin set this query (`⌈nq / 64⌉`).
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Opens a new query epoch and grows the tables to the query's
    /// geometry (`origins` query concepts over `concepts` ontology ids
    /// and `docs` documents). Growth happens here — at workspace
    /// acquisition — and never mid-query; a warm workspace re-sizes
    /// nothing and pays exactly one counter bump. Returns whether the
    /// epoch counter wrapped (forcing the one-time full stamp reset).
    // flow: workspace-fed
    pub(crate) fn begin_query(
        &mut self,
        origins: usize,
        concepts: usize,
        docs: usize,
        needs_touch: bool,
        needs_best: bool,
    ) -> bool {
        self.concepts = concepts;
        self.stride = origins.div_ceil(64).max(1);
        if self.row_of.len() < concepts {
            self.row_of.resize(concepts, 0);
        }
        if self.pending.len() < concepts.div_ceil(64) {
            self.pending.resize(concepts.div_ceil(64), 0);
        }
        self.clear();
        let states = origins * concepts * 2;
        grow_words(&mut self.doc_bits, docs);
        if needs_touch && self.touch_stamps.len() < concepts {
            self.touch_stamps.resize(concepts, 0);
        }
        if needs_best && self.best.len() < states {
            self.best.resize(states, StampedDist::default());
        }
        if self.slots.len() < docs {
            self.slots.resize(docs, 0);
        }

        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The counter wrapped: stamps written ~4 billion queries ago
            // would now alias a live epoch. Reset them all once and
            // restart the epoch sequence above the dead stamp value.
            for e in &mut self.doc_bits {
                e.stamp = 0;
            }
            for s in &mut self.touch_stamps {
                *s = 0;
            }
            for e in &mut self.best {
                e.stamp = 0;
            }
            for s in &mut self.slots {
                *s = 0;
            }
            self.epoch = 1;
            return true;
        }
        false
    }

    /// Pre-sizes the `|C|`/`|D|`-indexed tables (see
    /// [`KndsWorkspace::reserve`]).
    // flow: workspace-fed
    pub(crate) fn reserve(&mut self, concepts: usize, docs: usize) {
        if self.row_of.len() < concepts {
            self.row_of.resize(concepts, 0);
        }
        if self.pending.len() < concepts.div_ceil(64) {
            self.pending.resize(concepts.div_ceil(64), 0);
        }
        if self.touch_stamps.len() < concepts {
            self.touch_stamps.resize(concepts, 0);
        }
        grow_words(&mut self.doc_bits, docs);
        if self.slots.len() < docs {
            self.slots.resize(docs, 0);
        }
    }

    /// Truncates the per-query origin and candidate rows (capacity
    /// retained) and empties the pending level, which a search that stops
    /// early leaves behind. The stamped arrays need no touch: the next
    /// epoch bump invalidates them.
    pub(crate) fn clear(&mut self) {
        self.origin_rows.clear();
        self.pending.iter_mut().for_each(|m| *m = 0);
        self.cand.clear();
        self.cand_docs.clear();
        self.cover_words.clear();
    }

    /// The first word of `node`'s origin row this query, if it has one.
    #[inline]
    fn row_start(&self, node: ConceptId) -> Option<usize> {
        let at = *self.row_of.get(node.index())? as usize;
        let first = self.origin_rows.get(at)?;
        (first.concept == node.0).then_some(at)
    }

    /// The first word of `node`'s origin row, the row handed out (empty)
    /// on the concept's first touch this query. `None` only beyond the
    /// sized geometry.
    #[inline]
    pub(crate) fn origin_row(&mut self, node: ConceptId) -> Option<usize> {
        if let Some(at) = self.row_start(node) {
            return Some(at);
        }
        let at = self.origin_rows.len();
        let row = self.row_of.get_mut(node.index());
        debug_assert!(row.is_some(), "node beyond the sized concept bound");
        *row? = packing::narrow_u32(at);
        let empty = OriginWords { concept: node.0, ..OriginWords::default() };
        self.origin_rows.resize(at + self.stride, empty);
        Some(at)
    }

    /// Admits origin word `w` of a push to `node` into the next round:
    /// with `dedup` the origins of `bits` not yet seen there in this
    /// direction (`new = bits & !seen; seen |= new`), else those not yet
    /// pending, join the concept's origins pending next round. Returns how
    /// many joined.
    #[inline]
    pub(crate) fn push_next(
        &mut self,
        node: ConceptId,
        desc: bool,
        w: usize,
        bits: u64,
        dedup: bool,
    ) -> u32 {
        let Some(at) = self.origin_row(node) else {
            return 0;
        };
        let Some(words) = self.origin_rows.get_mut(at + w) else {
            debug_assert!(false, "origin word {w} beyond the row");
            return 0;
        };
        let dir = if desc { &mut words.down } else { &mut words.up };
        let new = bits & !if dedup { dir.seen } else { dir.next };
        if new == 0 {
            return 0;
        }
        dir.seen |= new;
        dir.next |= new;
        if let Some(m) = self.pending.get_mut(node.index() >> 6) {
            *m |= 1 << (node.index() & 63);
        }
        popcount(new)
    }

    /// Appends the concepts with pending origins to `nodes`, in ascending
    /// order, and clears their pending bits (the origins stay in the rows
    /// until [`take_pending`](Self::take_pending)).
    pub(crate) fn take_pending_concepts(&mut self, nodes: &mut Vec<ConceptId>) {
        for (m, word) in self.pending.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            // cplx: bound c — one turn per pending concept of these 64, at most c over the sweep
            while bits != 0 {
                let node = packing::narrow_u32(m * 64) + bits.trailing_zeros();
                bits &= bits - 1;
                // bound: sized — one entry per concept the level reaches, into capacity the workspace retains (cplx: cap c — one per pending concept)
                nodes.push(ConceptId(node));
            }
        }
    }

    /// Moves `node`'s pending origins into its entry's `up` and `down`
    /// words as its round is fetched; returns the concept's origin row.
    #[inline]
    pub(crate) fn take_pending(
        &mut self,
        node: ConceptId,
        up: &mut [u64],
        down: &mut [u64],
    ) -> Option<usize> {
        let at = self.row_start(node);
        debug_assert!(at.is_some(), "pending concept {node:?} without an origin row");
        let row = self.origin_rows.get_mut(at?..at? + self.stride).unwrap_or_default();
        for ((words, up), down) in row.iter_mut().zip(up).zip(down) {
            *up = std::mem::take(&mut words.up.next);
            *down = std::mem::take(&mut words.down.next);
        }
        at
    }

    /// The origins of `bits` (origin word `w`) whose coverage the posting
    /// list of the concept owning origin row `row` has not applied yet
    /// this query, marked applied.
    #[inline]
    pub(crate) fn fresh_pairs(&mut self, row: usize, w: usize, bits: u64) -> u64 {
        let Some(words) = self.origin_rows.get_mut(row + w) else {
            debug_assert!(false, "origin word {w} beyond the row");
            return 0;
        };
        let new = bits & !words.pair;
        words.pair |= new;
        new
    }

    /// SDS: records the global first touch of `node`; `true` exactly once
    /// per query per concept.
    #[inline]
    pub(crate) fn touch_first(&mut self, node: ConceptId) -> bool {
        let Some(stamp) = self.touch_stamps.get_mut(node.index()) else {
            debug_assert!(false, "touch table smaller than the ontology");
            return false;
        };
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        true
    }

    /// Weighted: the state's entry in the distance table, made live (as
    /// `u32::MAX`, never pushed) on its first write this query.
    #[inline]
    fn best_mut(&mut self, origin: u32, node: ConceptId, descending: bool) -> Option<&mut u32> {
        let idx = self.state_index(origin, node, descending);
        let Some(e) = self.best.get_mut(idx) else {
            debug_assert!(false, "best table smaller than the query geometry");
            return None;
        };
        if e.stamp != self.epoch {
            *e = StampedDist { dist: u32::MAX, stamp: self.epoch };
        }
        Some(&mut e.dist)
    }

    /// Weighted relaxation: keeps `dist` iff it strictly improves (or
    /// first-sets) the state's tentative distance; `true` if kept.
    #[inline]
    pub(crate) fn improve_best(
        &mut self,
        origin: u32,
        node: ConceptId,
        descending: bool,
        dist: u32,
    ) -> bool {
        // Out of range degrades to processing the push (duplicate work,
        // never a dropped state) — the sound direction.
        let Some(best) = self.best_mut(origin, node, descending) else { return true };
        if *best <= dist {
            return false;
        }
        *best = dist;
        true
    }

    /// Weighted without visit dedup: keeps `dist` unless the state's last
    /// push was already at `dist` (so a bucket holds each origin-state at
    /// most once, as a BFS level does); `true` if kept. Shares the
    /// distance table with [`improve_best`](Self::improve_best) — a query
    /// uses one or the other.
    #[inline]
    pub(crate) fn pend_at(
        &mut self,
        origin: u32,
        node: ConceptId,
        descending: bool,
        dist: u32,
    ) -> bool {
        let Some(last) = self.best_mut(origin, node, descending) else { return true };
        if *last == dist {
            return false;
        }
        *last = dist;
        true
    }

    /// The candidate row of `doc`, if one exists this query.
    #[inline]
    pub(crate) fn slot_of(&self, doc: DocId) -> Option<usize> {
        let &e = self.slots.get(doc.index())?;
        let (stamp, slot) = packing::unpack_stamp_slot(e);
        (stamp == self.epoch).then_some(slot as usize)
    }

    /// Appends a candidate row for `doc` and points the slot map at it.
    /// Rows and their arena words are retained capacity: pushes stop
    /// allocating once the workspace has seen the collection's reach.
    // flow: workspace-fed
    pub(crate) fn insert_candidate(&mut self, doc: DocId, doc_len: u32) -> usize {
        let slot = self.cand.len();
        self.cand.push(Candidate::new(doc_len));
        self.cand_docs.push(doc);
        // The arena was truncated at query begin, so the row's words are
        // freshly zeroed here (capacity, not contents, is retained).
        self.cover_words.resize(self.cover_words.len() + self.stride, 0);
        let i = doc.index();
        debug_assert!(i < self.slots.len(), "doc beyond the sized document bound");
        if let Some(e) = self.slots.get_mut(i) {
            *e = packing::pack_stamp_slot(self.epoch, packing::narrow_u32(slot));
        }
        slot
    }

    /// Applies one posting hit to the row at `slot` in a single row
    /// access: skips examined rows (already in `Sd`, Algorithm 2 line
    /// 11), forward-covers at `level` every origin of `fwd` — its nonzero
    /// origin words, as `(w, bits)` — the row has not covered yet,
    /// reverse-covers (SDS) if `rev`.
    #[inline]
    pub(crate) fn apply_to_candidate(
        &mut self,
        slot: usize,
        fwd: &[(u32, u64)],
        level: u32,
        rev: bool,
    ) {
        let Some(c) = self.cand.get_mut(slot) else {
            debug_assert!(false, "posting hit without a candidate row");
            return;
        };
        if c.examined {
            return;
        }
        for &(w, bits) in fwd {
            let Some(word) = self.cover_words.get_mut(slot * self.stride + w as usize) else {
                debug_assert!(false, "coverage row beyond the arena");
                continue;
            };
            let mut new = bits & !*word;
            if new == 0 {
                continue;
            }
            *word |= new;
            // cplx: bound nq — one turn per origin newly covered (one for nearly every RDS hit)
            while new != 0 {
                new &= new - 1;
                c.covered += 1;
                c.partial += u64::from(level);
            }
        }
        if rev {
            c.rev_covered += 1;
            c.rev_sum += level as u64;
        }
    }

    /// The candidate row at `slot`.
    #[inline]
    pub(crate) fn candidate(&self, slot: usize) -> Option<&Candidate> {
        self.cand.get(slot)
    }

    /// The candidate row at `slot`, mutably.
    #[inline]
    pub(crate) fn candidate_mut(&mut self, slot: usize) -> Option<&mut Candidate> {
        self.cand.get_mut(slot)
    }

    /// Marks `doc` (progressive emission / TA scan); `true` if newly
    /// marked this query.
    #[inline]
    pub(crate) fn mark_doc(&mut self, doc: DocId) -> bool {
        match set_bit(&mut self.doc_bits, self.epoch, doc.index()) {
            Some(fresh) => fresh,
            None => {
                debug_assert!(false, "doc table smaller than the collection");
                false
            }
        }
    }

    /// Whether `doc` is marked this query.
    #[inline]
    pub(crate) fn doc_marked(&self, doc: DocId) -> bool {
        test_bit(&self.doc_bits, self.epoch, doc.index())
    }

    /// Retained bytes of every dense table — part of the workspace
    /// footprint.
    pub(crate) fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.row_of.capacity() * size_of::<u32>()
            + self.origin_rows.capacity() * size_of::<OriginWords>()
            + self.pending.capacity() * size_of::<u64>()
            + self.doc_bits.capacity() * size_of::<StampedWord>()
            + self.touch_stamps.capacity() * size_of::<u32>()
            + self.best.capacity() * size_of::<StampedDist>()
            + self.slots.capacity() * size_of::<u64>()
            + self.cand.capacity() * size_of::<Candidate>()
            + self.cand_docs.capacity() * size_of::<DocId>()
            + self.cover_words.capacity() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::Push;

    #[test]
    fn begin_reports_warmth_and_finish_returns_clean() {
        let mut ws = KndsWorkspace::new();
        assert!(!ws.begin(), "first borrow is cold");
        ws.postings_buf.push(DocId(1));
        ws.finish();
        assert!(!ws.dirty);
        assert!(ws.postings_buf.is_empty(), "finish clears content");
        assert!(ws.begin(), "second borrow is warm");
    }

    /// A round mid-flight, over every table a query opens (SDS touch
    /// stamps and weighted distances included): the origin rows, the
    /// round's entries with the first one gathered, the next round
    /// pending, a bucket of pushes, a candidate row, and the fetch
    /// buffers — everything a query can hold when it panics.
    fn dirty_round(ws: &mut KndsWorkspace, origins: usize) {
        ws.dense.begin_query(origins, 64, 32, true, true);
        for i in 0..origins {
            let (c, w, bit) = (ConceptId((i % 8) as u32), i >> 6, 1u64 << (i & 63));
            ws.dense.push_next(c, i % 2 == 1, w, bit, true);
            let row = ws.dense.origin_row(c).unwrap();
            ws.dense.fresh_pairs(row, w, bit);
            ws.dense.improve_best(packing::narrow_u32(i), c, i % 2 == 1, 3);
        }
        ws.frontier.sweep(&mut ws.dense, origins);
        if let Some((up, down)) = ws.frontier.origins_mut(0, ws.dense.stride()) {
            ws.dense.take_pending(ConceptId(0), up, down);
        }
        for c in 8..16 {
            ws.dense.push_next(ConceptId(c), true, 0, 0b11, true);
        }
        let push = Push { node: ConceptId(2), origin: 1, dist: 4, desc: true };
        ws.queues.buckets.push(vec![push; 16]);
        ws.queues.staged.push(vec![push; 4]);
        ws.dense.touch_first(ConceptId(9));
        ws.dense.mark_doc(DocId(3));
        ws.dense.insert_candidate(DocId(5), 3);
        ws.postings_buf.extend((0..100).map(DocId));
        ws.spans.resize(8, Span::default());
        ws.span_words.extend([(0, 1), (1, 0b11)]);
    }

    #[test]
    fn dirty_workspace_is_cleared_on_next_begin() {
        let mut ws = KndsWorkspace::new();
        ws.begin();
        ws.query.push(ConceptId(3));
        dirty_round(&mut ws, 70);
        assert!(!ws.dense.origin_rows.is_empty());
        // No finish(): simulates a panic mid-query.
        ws.begin();
        assert!(ws.query.is_empty(), "stale query leaked");
        assert!(ws.dense.cand.is_empty(), "stale candidates leaked");
        assert!(ws.dense.origin_rows.is_empty(), "stale origin rows leaked");
        assert!(ws.postings_buf.is_empty(), "stale fetched postings leaked");
        assert!(ws.spans.is_empty(), "stale posting spans leaked");
        assert!(ws.span_words.is_empty(), "stale span origin words leaked");
        assert!(ws.frontier.is_empty(), "stale round entries leaked");
        assert_eq!(ws.frontier.pending(), 0, "stale round origin-states leaked");
        assert!(ws.frontier.footprint_bytes() > 0, "round capacity was freed");
        let queues = &ws.queues;
        for (name, pushes) in [("bucket", &queues.buckets[0]), ("staged", &queues.staged[0])] {
            assert!(pushes.is_empty(), "stale {name} pushes leaked");
            assert!(pushes.capacity() > 0, "{name} capacity was freed");
        }
        let mut stale = Vec::new();
        ws.dense.take_pending_concepts(&mut stale);
        assert!(stale.is_empty(), "stale pending round leaked");
        // The next query sees no origin of the dirty one seen or pending,
        // no touch, no distance and no doc mark.
        ws.dense.begin_query(70, 8, 4, false, false);
        for c in 0..8 {
            assert_eq!(ws.dense.push_next(ConceptId(c), true, 0, 0b11, true), 2, "stale c{c}");
        }
        assert!(ws.dense.touch_first(ConceptId(9)), "stale touch leaked");
        assert!(ws.dense.improve_best(1, ConceptId(1), true, 9), "stale distance leaked");
        assert!(!ws.dense.doc_marked(DocId(3)), "stale doc mark leaked");
        assert_eq!(ws.dense.slot_of(DocId(5)), None, "stale slot leaked");
        let mut pending = Vec::new();
        ws.dense.take_pending_concepts(&mut pending);
        assert_eq!(pending, (0..8).map(ConceptId).collect::<Vec<_>>(), "stale pending concepts");
    }

    #[test]
    fn clearing_keeps_capacity() {
        let mut ws = KndsWorkspace::new();
        ws.begin();
        dirty_round(&mut ws, 130);
        assert!(!ws.dense.touch_stamps.is_empty() && !ws.dense.best.is_empty());
        let footprint = ws.footprint_bytes();
        ws.finish();
        assert_eq!(ws.footprint_bytes(), footprint, "finish must keep capacity");
    }

    #[test]
    fn epoch_bump_empties_every_table_without_clearing() {
        let mut d = DenseTables::default();
        d.begin_query(2, 16, 8, true, true);
        assert_eq!(d.push_next(ConceptId(3), true, 0, 0b10, true), 1, "first visit");
        assert_eq!(d.push_next(ConceptId(3), true, 0, 0b10, true), 0, "dup visit");
        assert_eq!(d.push_next(ConceptId(3), false, 0, 0b11, true), 2, "directions are separate");
        let row = d.origin_row(ConceptId(7)).unwrap();
        assert_eq!(d.fresh_pairs(row, 0, 0b01), 0b01);
        assert_eq!(d.fresh_pairs(row, 0, 0b11), 0b10, "origin 0 already applied");
        assert!(d.touch_first(ConceptId(9)));
        assert!(d.improve_best(1, ConceptId(2), false, 5));
        assert!(!d.improve_best(1, ConceptId(2), false, 5), "equal is not an improvement");
        assert!(d.improve_best(1, ConceptId(2), false, 4), "strict improvement");
        assert!(!d.improve_best(1, ConceptId(2), false, 4), "4 is kept");
        assert!(d.mark_doc(DocId(6)));
        assert!(d.doc_marked(DocId(6)));
        let slot = d.insert_candidate(DocId(4), 2);
        assert_eq!(d.slot_of(DocId(4)), Some(slot));
        d.apply_to_candidate(slot, &[(0, 0b01)], 1, false);
        assert_eq!(d.candidate(slot).map(|c| (c.covered, c.partial)), Some((1, 1)));
        d.apply_to_candidate(slot, &[(0, 0b11)], 2, false);
        assert_eq!(
            d.candidate(slot).map(|c| (c.covered, c.partial)),
            Some((2, 3)),
            "origin 0 already covered, origin 1 covered at level 2"
        );

        // Next query: everything reads empty again, at O(1) cost.
        d.begin_query(2, 16, 8, true, true);
        assert_eq!(d.push_next(ConceptId(3), true, 0, 0b10, true), 1, "stale visit leaked");
        let row = d.origin_row(ConceptId(7)).unwrap();
        assert_eq!(d.fresh_pairs(row, 0, 0b01), 0b01, "stale pair leaked");
        assert!(d.touch_first(ConceptId(9)), "stale touch leaked");
        assert!(d.improve_best(1, ConceptId(2), false, 9), "stale distance leaked");
        assert!(!d.doc_marked(DocId(6)), "stale doc mark leaked");
        assert_eq!(d.slot_of(DocId(4)), None, "stale slot leaked");
        assert!(d.cand.is_empty(), "stale rows leaked");
    }

    #[test]
    fn wide_queries_use_every_origin_word() {
        let mut d = DenseTables::default();
        d.begin_query(130, 4, 2, false, false);
        assert_eq!(d.stride(), 3);
        let slot = d.insert_candidate(DocId(1), 0);
        d.apply_to_candidate(slot, &[(0, 1), (1, 1 << 63), (2, 0b11)], 4, false);
        assert_eq!(d.candidate(slot).map(|c| (c.covered, c.partial)), Some((4, 16)));
        assert_eq!(d.push_next(ConceptId(3), false, 2, 0b10, true), 1, "origin 129");
        assert_eq!(d.push_next(ConceptId(3), false, 2, 0b10, true), 0, "origin 129 seen");
        assert_eq!(d.push_next(ConceptId(3), false, 0, 0b10, true), 1, "origin 1 is not 129");
        assert_eq!(d.push_next(ConceptId(1), true, 1, 0b1, true), 1, "origin 64");
        // The pending concepts come out ascending, their origins per
        // concept, every word of them.
        let mut pending = Vec::new();
        d.take_pending_concepts(&mut pending);
        assert_eq!(pending, [ConceptId(1), ConceptId(3)]);
        let (mut up, mut down) = ([0; 3], [0; 3]);
        assert_eq!(d.take_pending(ConceptId(1), &mut up, &mut down), d.origin_row(ConceptId(1)));
        assert_eq!((up, down), ([0, 0, 0], [0, 1, 0]));
        d.take_pending(ConceptId(3), &mut up, &mut down);
        assert_eq!((up, down), ([0b10, 0, 0b10], [0, 0, 0]));
        d.take_pending(ConceptId(3), &mut up, &mut down);
        assert_eq!((up, down), ([0; 3], [0; 3]), "taking the origins empties them");
    }

    #[test]
    fn epoch_wrap_resets_stamps_instead_of_aliasing() {
        let mut d = DenseTables::default();
        assert!(!d.begin_query(1, 8, 4, true, true));
        d.push_next(ConceptId(1), false, 0, 1, true);
        d.improve_best(0, ConceptId(2), false, 3);
        d.mark_doc(DocId(3));
        // Prime the counter at the wrap boundary, as the workspace hook
        // does, then open the wrapping query.
        d.epoch = u32::MAX;
        assert!(d.begin_query(1, 8, 4, true, true), "wrap must be reported");
        assert_eq!(d.push_next(ConceptId(1), false, 0, 1, true), 1, "pre-wrap visit aliased");
        assert!(d.improve_best(0, ConceptId(2), false, 9), "pre-wrap distance aliased");
        assert!(d.mark_doc(DocId(3)), "pre-wrap doc mark aliased the new epoch");
        assert!(!d.begin_query(1, 8, 4, true, true), "post-wrap queries are ordinary");
    }

    #[test]
    fn geometry_can_grow_between_queries() {
        let mut d = DenseTables::default();
        d.begin_query(1, 4, 2, false, false);
        d.push_next(ConceptId(3), true, 0, 1, true);
        let small = d.footprint_bytes();
        // A wider query over a grown index re-sizes at begin and the old
        // rows stay dead under the new indexing.
        d.begin_query(65, 64, 50, true, true);
        assert!(d.footprint_bytes() > small, "tables grew with the geometry");
        for c in 0..64u32 {
            for (w, bits) in [(0, 1), (0, 2), (1, 1)] {
                let fresh = d.push_next(ConceptId(c), false, w, bits, true);
                assert_eq!(fresh, 1, "stale state under new geometry");
            }
        }
        // A narrower query reads every row empty.
        d.begin_query(1, 64, 50, false, false);
        for c in 0..64u32 {
            assert_eq!(d.push_next(ConceptId(c), false, 0, 1, true), 1, "wide-query state leaked");
        }
    }

    #[test]
    fn a_stale_row_index_never_aliases_another_concepts_words() {
        let mut d = DenseTables::default();
        d.begin_query(130, 8, 1, false, false);
        d.push_next(ConceptId(1), false, 0, 1, true);
        d.push_next(ConceptId(0), false, 0, 1, true);
        // Narrower rows: concept 0's old row index now lands inside the
        // rows concepts 1 and 2 get, so it must not read as concept 0's.
        d.begin_query(100, 8, 1, false, false);
        d.push_next(ConceptId(1), false, 0, 1, true);
        assert_eq!(d.push_next(ConceptId(2), false, 1, 1, true), 1);
        assert_eq!(d.push_next(ConceptId(0), false, 0, 1, true), 1, "concept 0 has no row yet");
        assert_eq!(d.push_next(ConceptId(0), false, 1, 1, true), 1, "concept 0 owns its words");
        assert_eq!(d.push_next(ConceptId(2), false, 1, 1, true), 0, "concept 2 keeps its origin");
    }

    #[test]
    fn reserve_pre_sizes_the_collection_tables() {
        let mut ws = KndsWorkspace::new();
        ws.reserve(1000, 500);
        let reserved = ws.footprint_bytes();
        assert!(reserved > 0);
        // A query inside the reserved bounds grows nothing doc/concept
        // sized (origin rows still size by nq at begin).
        ws.dense.begin_query(0, 1000, 400, true, false);
        assert_eq!(ws.footprint_bytes(), reserved, "reserved tables re-grew");
    }
}
