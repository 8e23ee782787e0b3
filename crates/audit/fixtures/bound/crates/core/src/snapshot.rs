//! Seeded-violation fixture: the snapshot read path truncates its
//! document count on one branch; the twin proves the bound.

/// Read-only snapshot handle over a frozen segment.
pub struct Snapshot {
    num_docs: usize,
}

impl Snapshot {
    /// RDS entry point; seeded B01: unchecked usize -> u32 narrowing.
    pub fn rds_with(&self) -> u32 {
        let cap = self.num_docs as u32;
        walk(cap)
    }

    /// SDS entry point; the clean twin carries a justified directive.
    pub fn sds_with(&self) -> u32 {
        // bound: proven — num_docs is validated against u32::MAX at build
        let cap = self.num_docs as u32;
        walk(cap)
    }
}

fn walk(cap: u32) -> u32 {
    cap
}
