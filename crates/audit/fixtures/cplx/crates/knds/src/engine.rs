//! Seeded-violation fixture: engine entry points composing forbidden
//! pairwise products (C02) and a non-TA quadratic root (C03).

/// Root `knds::engine::rds_with`. Seeded C02 twice: a lexical `D·D`
/// nest, and a call to a concept-scanning helper inside an `O(D)` loop
/// composing the cross-function `C·D` product.
pub fn rds_with(docs: &[u32], entries: &[u32]) -> u32 {
    let mut acc = 0;
    for &d in docs {
        for &e in entries {
            acc += d * e;
        }
    }
    for &d in docs {
        acc += scan_concepts(d);
    }
    acc
}

/// Root `knds::engine::sds_with`. Seeded C03: the symmetric path
/// composes the pairwise `nq·D` product reserved for the TA baseline.
pub fn sds_with(query: &[u32], docs: &[u32]) -> u32 {
    let mut acc = 0;
    for &q1 in query {
        for &d in docs {
            acc += q1 ^ d;
        }
    }
    acc
}

/// Helper with an `O(C)` composed bound.
fn scan_concepts(d: u32) -> u32 {
    let concepts = [d; 4];
    let mut acc = 0;
    for &c in concepts.iter() {
        acc += c;
    }
    acc
}
