//! Seeded-violation fixture: weighted entry points with sized-table
//! capacity violations (C04) and desynced counter hooks (C05).

/// Root `knds::weighted::rds_with`. Seeded C04 (a justified sized site
/// whose receiver has no symbolic capacity) and C05 (a counter-marked
/// loop with no matching bump call).
pub fn rds_with(docs: &[u32], out: &mut Vec<u32>) -> u32 {
    let mut acc = 0;
    for &d in docs {
        // bound: sized — one staged row per probed document
        out.push(d);
    }
    // cplx: counter probes
    for &d in docs {
        acc += d;
    }
    acc
}

/// Root `knds::weighted::sds_with`. Seeded C04 (a `depth`-sized table
/// filled by an `O(D)` nest) and C05 (a bump call with no counter
/// marker on any enclosing loop).
pub fn sds_with(docs: &[u32], comps: &mut Vec<u32>) -> u32 {
    let mut acc = 0;
    for &d in docs {
        // bound: sized — one component per radix level
        comps.push(d);
    }
    for &d in docs {
        bump_scans();
        acc += d;
    }
    acc
}

fn bump_scans() {}
