//! Seeded-violation fixture for the flow gate. Parsed, never compiled.
//!
//! The free `rds_with` matches the `knds::ta::rds_with` root spec; it
//! seeds one F01 (materializing collect) and one F04 (unwrap).

use crate::engine::Workspace;

pub fn rds_with(ws: &mut Workspace, q: &[u32], k: usize) -> u32 {
    ws.scratch.clear();
    let sorted: Vec<u32> = q.iter().copied().collect(); // seeded: F01
    let top = sorted.first().unwrap(); // seeded: F04
    top + k as u32
}
