//! kNDS tuning knobs: the two parameters the paper tunes.

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
}

impl Default for KndsConfig {
    fn default() -> Self {
        KndsConfig { error_threshold: 0.5, queue_cap: 50_000 }
    }
}

impl KndsConfig {
    /// Checks both parameters' ranges: `error_threshold` in `[0, 1]` (so
    /// not NaN) and a positive `queue_cap`. The fields are public, so a
    /// configuration built by hand is held to this wherever it crosses a
    /// boundary (the setters below, a saved or loaded snapshot).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.error_threshold) {
            return Err(format!("error threshold {} is outside [0, 1]", self.error_threshold));
        }
        if self.queue_cap == 0 {
            return Err("queue cap must be positive".to_string());
        }
        Ok(())
    }

    /// Returns a copy with a different error threshold.
    ///
    /// # Panics
    ///
    /// Panics if the result fails [`validate`](Self::validate).
    pub fn with_error_threshold(self, eps: f64) -> Self {
        KndsConfig { error_threshold: eps, ..self }.validated()
    }

    /// Returns a copy with a different queue watermark.
    ///
    /// # Panics
    ///
    /// Panics if the result fails [`validate`](Self::validate).
    pub fn with_queue_cap(self, cap: usize) -> Self {
        KndsConfig { queue_cap: cap, ..self }.validated()
    }

    fn validated(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
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
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_apply() {
        let c = KndsConfig::default().with_error_threshold(0.9).with_queue_cap(10);
        assert_eq!(c.error_threshold, 0.9);
        assert_eq!(c.queue_cap, 10);
    }

    #[test]
    fn validate_holds_hand_built_configs_to_the_setters_ranges() {
        for eps in [0.0, 1.0] {
            assert_eq!(
                KndsConfig { error_threshold: eps, ..KndsConfig::default() }.validate(),
                Ok(())
            );
        }
        for eps in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let c = KndsConfig { error_threshold: eps, ..KndsConfig::default() };
            assert!(c.validate().unwrap_err().contains("error threshold"), "{eps}");
        }
        let c = KndsConfig { queue_cap: 0, ..KndsConfig::default() };
        assert!(c.validate().unwrap_err().contains("queue cap"));
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
