//! Seeded-violation fixture: TA fallback with an unsized spill buffer
//! and a bare directive that must not count as a proof.

/// TA-style fallback entry point; seeded B03 (unsized growth) and
/// seeded B01 (a bare `bound: proven` with no justification).
pub fn rds_with(docs: &[u64], k: usize) -> usize {
    let mut spill = Vec::new();
    for &d in docs {
        spill.push(d);
    }
    // bound: proven
    let cap = spill.len() as u32;
    sized_top(docs, k) + cap as usize
}

/// Clean twin: capacity established at construction, growth justified.
fn sized_top(docs: &[u64], k: usize) -> usize {
    let mut top = Vec::with_capacity(k);
    for &d in docs.iter().take(k) {
        // bound: sized — at most k entries, capacity reserved above
        top.push(d);
    }
    top.len()
}
