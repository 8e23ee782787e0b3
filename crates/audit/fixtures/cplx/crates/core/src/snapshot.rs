//! Seeded-violation fixture: snapshot query entry points with unbounded
//! and mis-declared loops (C01).

/// Root `core::snapshot::rds_with`. Seeded C01: a bare `while` with no
/// inference channel and no directive.
pub fn rds_with(docs: &[u32], limit: u32) -> u32 {
    let mut acc = 0;
    for &d in docs {
        acc += d;
    }
    let mut changed = acc < limit;
    while changed {
        acc += 1;
        changed = acc < limit;
    }
    acc
}

/// Root `core::snapshot::sds_with`. Seeded C01 twice: a directive whose
/// expression does not parse, and a bare directive with no
/// justification.
pub fn sds_with(docs: &[u32], entries: &[u32]) -> u32 {
    let mut acc = 0;
    // cplx: bound n^2 quadratic scan
    for &d in docs {
        acc += d;
    }
    // cplx: bound d
    for &e in entries {
        acc ^= e;
    }
    acc
}
