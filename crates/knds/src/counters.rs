//! Per-thread loop-iteration counters for the C05 dynamic cross-check.
//!
//! Compiled only under the `counters` cfg feature (which also forwards
//! to `cbr-dradix/counters`): release and bench builds carry no trace
//! of these. Each counter pairs with a `// cplx: counter <name>` marker
//! on a hot loop; the cplx gate's C05 harness resets them, runs queries
//! over generated corpora, and asserts the observed iteration counts
//! stay within a constant factor of the statically proven bounds.

use std::cell::Cell;

thread_local! {
    static ROUNDS: Cell<u64> = const { Cell::new(0) };
    static ORDERED: Cell<u64> = const { Cell::new(0) };
}

/// Observed iteration counts since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KndsCounters {
    /// Rounds of the Algorithm 2 loop in `engine::Search::run` — BFS
    /// levels under `Knds`, drained distance buckets under `WeightedKnds`
    /// (static bound: `depth`).
    pub rounds: u64,
    /// Rows the examination step of `engine::Search::examine` placed in
    /// final `(D⁻, DocId)` order — heap pops (static bound: `k`, i.e. what
    /// is examined plus one break per round, not the candidate table).
    pub ordered: u64,
}

/// Zeroes every counter on this thread.
pub fn reset() {
    ROUNDS.with(|c| c.set(0));
    ORDERED.with(|c| c.set(0));
}

/// Reads every counter on this thread.
pub fn snapshot() -> KndsCounters {
    KndsCounters { rounds: ROUNDS.with(Cell::get), ordered: ORDERED.with(Cell::get) }
}

/// One round (level or bucket) of the search loop.
pub fn bump_rounds() {
    ROUNDS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// One row popped in order by the examination step.
pub fn bump_ordered() {
    ORDERED.with(|c| c.set(c.get().wrapping_add(1)));
}
