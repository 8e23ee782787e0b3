//! Seeded-violation fixture: DAG build with an unsized label arena, a
//! hand-packed slot entry, and a recursive insertion walk.

/// Build entry point; seeded B03 (unsized arena growth) and seeded B02
/// (overflow-capable offset packing outside the checked helpers).
pub fn build_into(addrs: &[&[u32]], epoch: u32) -> u64 {
    let mut labels = Vec::new();
    for addr in addrs {
        labels.extend_from_slice(addr);
    }
    let packed = (epoch as u64) << 32 | labels.len() as u64;
    descend(labels.len() as u64) + packed
}

/// Seeded B04: mutual recursion on the build path.
fn descend(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        ascend(n - 1)
    }
}

fn ascend(n: u64) -> u64 {
    descend(n)
}
