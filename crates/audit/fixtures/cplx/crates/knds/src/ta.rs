//! Comparator fixture: the TA baseline root carries its allowed
//! `O(nq·D)` round-robin shape, keeping the C03 differential contrast
//! non-vacuous (no seeded violation here).

/// Root `knds::ta::rds_with`: sorted access over `nq` lists of `D`
/// entries each — the quadratic shape the paper's Section 4.1 baseline
/// is permitted (and expected) to have.
pub fn rds_with(lists: &[u32], entries: &[u32]) -> u32 {
    let mut acc = 0;
    for &l in lists {
        for &e in entries {
            acc += l.min(e);
        }
    }
    acc
}
