//! Per-thread loop-iteration counters for the C05 dynamic cross-check.
//!
//! Compiled only under the `counters` cfg feature: release and bench
//! builds carry no trace of these, which `scripts/check.sh` confirms by
//! rebuilding the bench binary without the feature. Each counter pairs
//! with a `// cplx: counter <name>` marker on a hot loop in `dag.rs`;
//! the cplx gate's C05 harness resets them, drives the engine over
//! generated corpora, and asserts the observed iteration counts stay
//! within a constant factor of the statically proven symbolic bounds.

use std::cell::Cell;

thread_local! {
    static ADDRS: Cell<u64> = const { Cell::new(0) };
    static SUFFIX_POPS: Cell<u64> = const { Cell::new(0) };
    static RADIX_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Observed iteration counts since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagCounters {
    /// Turns of the address-staging loop (static bound: `deg·P`).
    pub addrs: u64,
    /// Items popped off the suffix worklist (static bound: `depth²` per
    /// inserted address).
    pub suffix_pops: u64,
    /// Radix descent steps (static bound: `depth` per popped item).
    pub radix_steps: u64,
}

/// Zeroes every counter on this thread.
pub fn reset() {
    ADDRS.with(|c| c.set(0));
    SUFFIX_POPS.with(|c| c.set(0));
    RADIX_STEPS.with(|c| c.set(0));
}

/// Reads every counter on this thread.
pub fn snapshot() -> DagCounters {
    DagCounters {
        addrs: ADDRS.with(Cell::get),
        suffix_pops: SUFFIX_POPS.with(Cell::get),
        radix_steps: RADIX_STEPS.with(Cell::get),
    }
}

/// One turn of the address-staging loop.
pub fn bump_addrs() {
    ADDRS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// One item popped off the suffix worklist.
pub fn bump_suffix_pops() {
    SUFFIX_POPS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// One radix descent step.
pub fn bump_radix_steps() {
    RADIX_STEPS.with(|c| c.set(c.get().wrapping_add(1)));
}
