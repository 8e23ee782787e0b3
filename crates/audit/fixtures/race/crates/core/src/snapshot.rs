//! Seeded R04 violation: a lock acquisition reachable from the
//! snapshot query roots.
//!
//! This file mirrors the real `core::snapshot` module shape so the
//! [`ROOT_SPECS`](cbr_race::rules::ROOT_SPECS) match — which also keeps
//! the `RACE` meta-rule quiet in the fixture run, proving the root
//! matching itself is exercised.

/// Fixture snapshot with a lock smuggled behind the query path.
pub struct EngineSnapshot {
    guard: Mutex<u32>,
}

impl EngineSnapshot {
    /// Query root: reaches `locked_helper`, which acquires. R04.
    pub fn rds_with(&self) -> u32 {
        self.locked_helper()
    }

    /// Query root: stays lock-free — no finding from this one.
    pub fn sds_with(&self) -> u32 {
        self.plain_helper()
    }

    fn locked_helper(&self) -> u32 {
        let _g = self.guard.lock();
        1
    }

    fn plain_helper(&self) -> u32 {
        2
    }
}
