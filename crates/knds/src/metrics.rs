//! Per-query instrumentation.
//!
//! The paper's plots split query latency into distance-calculation time
//! (DRC there, exact probes here), ontology-traversal time (kNDS only) and index I/O time
//! (Section 6.2). [`QueryMetrics`] captures the same three buckets plus the
//! counters behind the secondary statistics the paper reports (e.g. the
//! fraction of probed documents that end up in the top-k).

use std::fmt;
use std::time::Duration;

/// Timing and work counters for one query evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// Time in ontology traversal and candidate bookkeeping.
    pub traversal: Duration,
    /// Time computing exact distances (exact probes and partial
    /// finalizes).
    pub distance_calc: Duration,
    /// Time reading the index source — the analogue of the paper's
    /// database access time: each kNDS round's fetch pass, timed as one
    /// block (the posting reads plus the per-state bookkeeping that
    /// decides which lists to read), and every forward read of an exact
    /// probe.
    pub io: Duration,

    /// Exact distances computed by a probe — the distance-field join, in
    /// the place the paper calls DRC (the name is the paper's).
    pub drc_calls: usize,
    /// Exact distances obtained from complete partial information
    /// (Section 5.3, optimization 3 — no probe needed).
    pub exact_from_partial: usize,
    /// Documents whose exact distance was computed (`|Sd|`).
    pub docs_examined: usize,
    /// Documents that entered the candidate list (`|Ld ∪ Sd|`).
    pub candidates_seen: usize,
    /// BFS states processed.
    pub nodes_visited: usize,
    /// Rounds of the Algorithm 2 loop: breadth-first levels under
    /// [`Knds`](crate::Knds), drained distance buckets under
    /// [`WeightedKnds`](crate::WeightedKnds).
    pub levels: u32,
    /// Candidate rows the examination step placed in final
    /// `(D⁻, DocId)` order: one per heap pop, so the documents examined
    /// plus at most one row per round that stopped the pass — never the
    /// whole candidate table.
    pub ordered: usize,
    /// Examination rounds forced by the queue watermark.
    pub forced_rounds: usize,
    /// Results that were provably final before termination
    /// (Section 5.3, optimization 4).
    pub progressive_results: usize,
    /// 1 if this query ran on a previously warmed (reused) workspace,
    /// 0 on a cold one. Sums to a reuse count under
    /// [`accumulate`](Self::accumulate).
    pub workspace_reused: usize,
    /// Retained workspace footprint (bytes of buffer capacity) after the
    /// query returned it clean. Steady-state tests assert this stops
    /// growing once the workspace is warm. [`accumulate`](Self::accumulate)
    /// keeps the maximum.
    pub workspace_bytes: usize,
    /// 1 if this query's epoch bump wrapped the stamp counter (forcing
    /// the one-in-4-billion full stamp reset), 0 otherwise. Sums under
    /// [`accumulate`](Self::accumulate).
    pub epoch_rollover: usize,
}

impl QueryMetrics {
    /// Total wall time across the three buckets.
    pub fn total(&self) -> Duration {
        self.traversal + self.distance_calc + self.io
    }

    /// Fraction of examined documents that made the final top-k — the
    /// Section 6.2 statistic ("99% of the documents for which the actual
    /// distance was calculated were returned in the top-k results").
    pub fn examination_precision(&self, k: usize) -> f64 {
        if self.docs_examined == 0 {
            return 1.0;
        }
        k.min(self.docs_examined) as f64 / self.docs_examined as f64
    }

    /// Accumulates another query's metrics (for workload averages).
    pub fn accumulate(&mut self, other: &QueryMetrics) {
        self.traversal += other.traversal;
        self.distance_calc += other.distance_calc;
        self.io += other.io;
        self.drc_calls += other.drc_calls;
        self.exact_from_partial += other.exact_from_partial;
        self.docs_examined += other.docs_examined;
        self.candidates_seen += other.candidates_seen;
        self.nodes_visited += other.nodes_visited;
        self.levels += other.levels;
        self.ordered += other.ordered;
        self.forced_rounds += other.forced_rounds;
        self.progressive_results += other.progressive_results;
        self.workspace_reused += other.workspace_reused;
        self.workspace_bytes = self.workspace_bytes.max(other.workspace_bytes);
        self.epoch_rollover += other.epoch_rollover;
    }

    /// One round of the Algorithm 2 loop.
    pub(crate) fn bump_levels(&mut self) {
        self.levels += 1;
    }

    /// One row popped in order by the examination step.
    pub(crate) fn bump_ordered(&mut self) {
        self.ordered += 1;
    }

    /// Divides all durations by `n` (workload averaging).
    pub fn averaged(mut self, n: u32) -> QueryMetrics {
        if n > 0 {
            self.traversal /= n;
            self.distance_calc /= n;
            self.io /= n;
        }
        self
    }
}

impl fmt::Display for QueryMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:>9.3?} (calc {:.3?}, traversal {:.3?}, io {:.3?}); \
             {} examined ({} DRC, {} partial), {} candidates, {} states, {} levels",
            self.total(),
            self.distance_calc,
            self.traversal,
            self.io,
            self.docs_examined,
            self.drc_calls,
            self.exact_from_partial,
            self.candidates_seen,
            self.nodes_visited,
            self.levels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_buckets() {
        let m = QueryMetrics {
            traversal: Duration::from_millis(2),
            distance_calc: Duration::from_millis(3),
            io: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(m.total(), Duration::from_millis(10));
    }

    #[test]
    fn accumulate_and_average() {
        let mut a = QueryMetrics {
            traversal: Duration::from_millis(4),
            drc_calls: 2,
            ordered: 7,
            ..Default::default()
        };
        let b = QueryMetrics {
            traversal: Duration::from_millis(6),
            drc_calls: 3,
            ordered: 4,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.drc_calls, 5);
        assert_eq!(a.ordered, 11);
        let avg = a.averaged(2);
        assert_eq!(avg.traversal, Duration::from_millis(5));
        assert_eq!(avg.drc_calls, 5, "counters are not averaged");
    }

    #[test]
    fn examination_precision_bounds() {
        let mut m = QueryMetrics::default();
        assert_eq!(m.examination_precision(10), 1.0);
        m.docs_examined = 20;
        assert_eq!(m.examination_precision(10), 0.5);
        m.docs_examined = 5;
        assert_eq!(m.examination_precision(10), 1.0);
    }

    #[test]
    fn display_is_informative() {
        let m = QueryMetrics { drc_calls: 7, ..Default::default() };
        assert!(m.to_string().contains("7 DRC"));
    }
}
