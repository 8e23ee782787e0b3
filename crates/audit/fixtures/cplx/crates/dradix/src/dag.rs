//! Seeded-violation fixture: a D-Radix build whose composed bound lacks
//! the `P·log` term the paper's Theorem 1 promises (C03).

/// Root `dradix::dag::build_into`: inserts every staged address without
/// the rank-sorted merge, so the composed bound is `O(P)` with no `log`
/// factor — recognizably *not* the paper's `O((|Pq|+|Pd|)·log)` shape.
pub fn build_into(addresses: &[u32]) -> u32 {
    let mut acc = 0;
    for &addr in addresses {
        acc = acc.wrapping_add(addr);
    }
    acc
}
