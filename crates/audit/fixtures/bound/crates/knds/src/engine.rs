//! Seeded-violation fixture: engine scoring with a sign-changing cast
//! and an unguarded, precision-losing ranking division.

/// Query engine over a fixed query geometry.
pub struct Engine {
    nq: usize,
}

impl Engine {
    /// RDS entry point; seeded B01: i64 -> u64 flips the sign.
    pub fn rds_with(&self, delta: i64) -> f64 {
        let shifted = delta as u64;
        score(shifted, self.nq)
    }

    /// SDS entry point; the clean twin converts and guards properly.
    pub fn sds_with(&self, delta: i64) -> f64 {
        let shifted = delta.unsigned_abs();
        score_guarded(shifted, self.nq)
    }
}

/// Seeded B05 (x3): two lossy 64-bit -> f64 casts and a division whose
/// divisor has no zero guard.
fn score(total: u64, nq: usize) -> f64 {
    let t = total as f64;
    t / nq as f64
}

/// Clean twin: exact f64 conversion and a clamped divisor.
fn score_guarded(mag: u64, nq: usize) -> f64 {
    let t = f64::from(u32::try_from(mag).unwrap_or(u32::MAX));
    t / nq.max(1) as f64
}
