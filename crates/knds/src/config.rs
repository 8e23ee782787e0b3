//! kNDS tuning knobs: the two parameters the paper tunes.

/// Configuration of the kNDS engine.
///
/// Its fields are private, so every value holds both parameters in
/// range: [`new`](Self::new) returns the range error, the `with_*`
/// setters panic on it.
#[derive(Debug, Clone, PartialEq)]
pub struct KndsConfig {
    /// `εθ`: see [`error_threshold`](Self::error_threshold).
    error_threshold: f64,
    /// See [`queue_cap`](Self::queue_cap).
    queue_cap: usize,
}

impl Default for KndsConfig {
    fn default() -> Self {
        KndsConfig { error_threshold: 0.5, queue_cap: 50_000 }
    }
}

impl KndsConfig {
    /// A configuration with both parameters, or the range error: the
    /// error threshold must lie in `[0, 1]` (so not NaN) and the queue cap
    /// must be positive.
    pub fn new(error_threshold: f64, queue_cap: usize) -> Result<KndsConfig, String> {
        if !(0.0..=1.0).contains(&error_threshold) {
            return Err(format!("error threshold {error_threshold} is outside [0, 1]"));
        }
        if queue_cap == 0 {
            return Err("queue cap must be positive".to_string());
        }
        Ok(KndsConfig { error_threshold, queue_cap })
    }

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
    pub fn error_threshold(&self) -> f64 {
        self.error_threshold
    }

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
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Returns a copy with a different error threshold.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is outside `[0, 1]`.
    pub fn with_error_threshold(self, eps: f64) -> Self {
        KndsConfig::new(eps, self.queue_cap).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a different queue watermark.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_queue_cap(self, cap: usize) -> Self {
        KndsConfig::new(self.error_threshold, cap).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = KndsConfig::default();
        assert_eq!(c.queue_cap(), 50_000);
        assert_eq!(c.error_threshold(), 0.5);
        assert_eq!(KndsConfig::new(0.5, 50_000), Ok(c));
    }

    #[test]
    fn builders_apply() {
        let c = KndsConfig::default().with_error_threshold(0.9).with_queue_cap(10);
        assert_eq!(c.error_threshold(), 0.9);
        assert_eq!(c.queue_cap(), 10);
    }

    #[test]
    fn new_holds_both_parameters_to_the_setters_ranges() {
        for eps in [0.0, 1.0] {
            assert_eq!(
                KndsConfig::new(eps, 50_000),
                Ok(KndsConfig::default().with_error_threshold(eps))
            );
        }
        for eps in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            assert!(KndsConfig::new(eps, 50_000).unwrap_err().contains("error threshold"), "{eps}");
        }
        assert!(KndsConfig::new(0.5, 0).unwrap_err().contains("queue cap"));
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
