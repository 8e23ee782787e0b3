//! Seeded-violation fixture: weighted scoring packs epoch stamps by
//! hand instead of going through the checked packing helpers.

/// Weighted traversal state for the current build epoch.
pub struct Weighted {
    epoch: u32,
}

impl Weighted {
    /// RDS entry point; seeded B02: hand-rolled stamp/slot packing.
    pub fn rds_with(&self, slot: u32) -> u64 {
        let stamp = self.epoch as u64;
        stamp << 32 | slot as u64
    }

    /// SDS entry point; the set-bit idiom with a literal LHS is exempt.
    pub fn sds_with(&self, bit: u32) -> u64 {
        1u64 << (bit & 63)
    }
}
