//! Seeded-violation fixture for the flow gate. Parsed, never compiled.
//!
//! `rds_with`/`sds_with` match the hot-path root specs, so the seeded
//! sites below must surface as findings — one F01 and one F04.

pub struct Knds;

pub struct Workspace {
    pub scratch: Vec<u32>,
}

impl Knds {
    pub fn rds_with(&self, ws: &mut Workspace, q: &[u32], k: usize) -> Vec<u32> {
        let mut out = Vec::new(); // seeded: F01
        ws.scratch.clear();
        out.push(self.score(q, k));
        out
    }

    pub fn sds_with(&self, ws: &mut Workspace, q: &[u32], k: usize) -> u32 {
        ws.scratch.clear();
        self.score(q, k)
    }

    fn score(&self, q: &[u32], k: usize) -> u32 {
        let first = q[0]; // seeded: F04
        first + k as u32
    }
}
