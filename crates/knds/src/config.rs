//! kNDS tuning knobs.

/// Configuration of the kNDS engine.
#[derive(Debug, Clone, PartialEq)]
pub struct KndsConfig {
    /// The distance error threshold `εθ` of Equation 9, in `[0, 1]`.
    ///
    /// `0` makes the engine wait until a document's partial distance equals
    /// its lower bound (typically: all query nodes covered) before probing
    /// DRC; `1` probes DRC the first time any concept of the document is
    /// reached. The paper's sensitivity analysis (Figure 7) finds `0`
    /// optimal for the dense PATIENT collection and `≈0.9` for the sparse
    /// RADIO collection. **Any value returns exact top-k results** — the
    /// threshold only trades graph traversal against distance-calculation
    /// work.
    pub error_threshold: f64,

    /// Frontier-size watermark (the paper's 50,000-element queue limit,
    /// Section 6.1). When the breadth-first frontier exceeds it, the engine
    /// runs a *forced* examination round — computing exact distances for
    /// collected candidates regardless of `εθ` — to try to terminate early.
    ///
    /// Unlike the paper's prototype the frontier is never truncated, so
    /// results stay exact; the watermark only forces work forward.
    ///
    /// It counts the states that survive pruning: over a source that
    /// publishes a liveness mask
    /// ([`IndexSource::live_mask`](cbr_index::IndexSource::live_mask)),
    /// children with nothing live below them are never pushed, so the
    /// frontier reaches the watermark later — typically a level later,
    /// when the lower bounds are tighter — than the same search over a
    /// source without one.
    pub queue_cap: usize,

    /// Deduplicate BFS states `(origin concept, node, direction)`.
    ///
    /// The paper's prototype skips this ("labeling a visited node is more
    /// expensive"), accepting re-visits; state deduplication never changes
    /// first-touch levels, so it is a pure optimization. Default **on**;
    /// the ablation bench measures the paper's choice.
    pub dedup_visits: bool,

    /// Emit results progressively (Section 5.3, optimization 4): a document
    /// in the top-k heap whose distance is at or below the best remaining
    /// lower bound is final and counted in
    /// [`QueryMetrics::progressive_results`](crate::QueryMetrics).
    pub progressive: bool,
}

impl Default for KndsConfig {
    fn default() -> Self {
        KndsConfig {
            error_threshold: 0.5,
            queue_cap: 50_000,
            dedup_visits: true,
            progressive: true,
        }
    }
}

impl KndsConfig {
    /// Returns a copy with a different error threshold.
    pub fn with_error_threshold(mut self, eps: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "error threshold must be in [0, 1]");
        self.error_threshold = eps;
        self
    }

    /// Returns a copy with a different queue watermark.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue cap must be positive");
        self.queue_cap = cap;
        self
    }

    /// Returns a copy with visit deduplication toggled.
    pub fn with_dedup_visits(mut self, dedup: bool) -> Self {
        self.dedup_visits = dedup;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = KndsConfig::default();
        assert_eq!(c.queue_cap, 50_000);
        assert_eq!(c.error_threshold, 0.5);
        assert!(c.dedup_visits);
    }

    #[test]
    fn builders_apply() {
        let c = KndsConfig::default()
            .with_error_threshold(0.9)
            .with_queue_cap(10)
            .with_dedup_visits(false);
        assert_eq!(c.error_threshold, 0.9);
        assert_eq!(c.queue_cap, 10);
        assert!(!c.dedup_visits);
    }

    #[test]
    #[should_panic(expected = "error threshold")]
    fn rejects_out_of_range_threshold() {
        KndsConfig::default().with_error_threshold(1.5);
    }

    #[test]
    #[should_panic(expected = "queue cap")]
    fn rejects_zero_cap() {
        KndsConfig::default().with_queue_cap(0);
    }
}
