//! Seeded-violation fixture for the flow gate. Parsed, never compiled.
//!
//! `rds_with`/`sds_with` match the two `knds::weighted` root specs.
//! `rds_with` seeds one F04; the workspace-fed helper proves the F01
//! exemption (its allocation must NOT be reported).

pub struct Buckets {
    pub buckets: Vec<Vec<u32>>,
}

pub fn rds_with(ws: &mut Buckets, q: &[u32]) -> u32 {
    grow(ws, q.len());
    let head = ws.buckets[0].len() as u32; // seeded: F04
    head
}

pub fn sds_with(ws: &mut Buckets, q: &[u32]) -> u32 {
    rds_with(ws, q)
}

// Bucket growth is retained by the caller's workspace.
// flow: workspace-fed
fn grow(ws: &mut Buckets, upto: usize) {
    while ws.buckets.len() <= upto {
        ws.buckets.push(Vec::new()); // exempt: workspace-fed callee
    }
}
