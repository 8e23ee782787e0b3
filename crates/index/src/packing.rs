//! Checked integer packing and narrowing for the hot path.
//!
//! The dense query path lives on packed-integer tricks: `stamp << 32 |
//! slot` doc→row entries in the kNDS workspace, `u32` CSR offsets in
//! every index segment, `u32` arena indexes in the D-Radix DAG. Each
//! trick is sound only under an invariant (`slot < 2³²`, posting counts
//! fit an offset word) that a bare `as` cast neither states nor checks.
//! This module is the single place those invariants live: every helper
//! documents its precondition, `debug_assert!`s it, and is covered by
//! boundary tests at the `u32::MAX` packing edge (plus the round-trip
//! proptest in `tests/packing.rs`).
//!
//! The bound gate treats this file as its axiom module — the raw casts
//! below are the *implementation* of the checked discipline rules B01
//! and B02 enforce everywhere else, so the analyzer scans every hot
//! file except this one. Keep the helpers tiny and total: no panics
//! (the query path must stay panic-free under flow F04), no branches
//! beyond the debug assertions.

use cbr_corpus::DocId;

/// Packs an epoch stamp and a row slot into one `u64` word, stamp in
/// the high half: `stamp << 32 | slot`.
///
/// Invariant: the caller's slot indexes a table of at most `u32::MAX`
/// rows — true for every kNDS candidate table, whose rows are keyed by
/// [`DocId`] (itself a `u32`).
#[inline]
#[must_use]
pub fn pack_stamp_slot(stamp: u32, slot: u32) -> u64 {
    (u64::from(stamp) << 32) | u64::from(slot)
}

/// Splits a packed `stamp << 32 | slot` word back into `(stamp, slot)`.
/// Bit-exact inverse of [`pack_stamp_slot`] for every input pair.
#[inline]
#[must_use]
pub fn unpack_stamp_slot(packed: u64) -> (u32, u32) {
    // bound: proven — shifting the high half down and truncating to the
    // low half are the definition of the packed layout.
    ((packed >> 32) as u32, packed as u32)
}

/// Narrows a `usize` known to be bounded by a `u32`-indexed structure
/// (candidate rows, query-concept origins, shard-local doc ordinals).
///
/// Invariant: `n <= u32::MAX`. Checked in debug builds; in release the
/// truncation is unreachable because every caller's bound derives from
/// a `u32`-typed id space (`DocId`, `ConceptId`, epoch stamps).
#[inline]
#[must_use]
pub fn narrow_u32(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "value {n} exceeds the u32 id space");
    // bound: proven — guarded by the debug assertion above; callers
    // index u32-keyed spaces by construction.
    n as u32
}

/// Narrows a running CSR length into an offset word. Semantically
/// [`narrow_u32`], named separately so offset fence posts read as what
/// they are at the push site: `offsets.push(csr_offset(rows.len()))`.
///
/// Invariant: a segment holds fewer than `u32::MAX` postings — enforced
/// upstream by the `u32` [`DocId`]/[`ConceptId`](cbr_ontology::ConceptId)
/// spaces and re-proven by `Segment::validate` on every debug build.
#[inline]
#[must_use]
pub fn csr_offset(len: usize) -> u32 {
    narrow_u32(len)
}

/// The doc→row ordinal of `doc` inside a block starting at `first`,
/// as a checked index.
///
/// Invariant: `doc.0 >= first` — callers test block membership before
/// computing the ordinal.
#[inline]
#[must_use]
pub fn doc_ordinal(doc: DocId, first: u32) -> usize {
    debug_assert!(doc.0 >= first, "doc {doc} precedes the block base {first}");
    (doc.0.wrapping_sub(first)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips_at_the_edges() {
        for stamp in [0, 1, u32::MAX - 1, u32::MAX] {
            for slot in [0, 1, u32::MAX - 1, u32::MAX] {
                let packed = pack_stamp_slot(stamp, slot);
                assert_eq!(unpack_stamp_slot(packed), (stamp, slot));
            }
        }
    }

    #[test]
    fn pack_keeps_the_halves_disjoint() {
        // A full slot must never bleed into the stamp half and vice
        // versa — the aliasing bug the epoch discipline exists to avoid.
        assert_eq!(pack_stamp_slot(0, u32::MAX) >> 32, 0);
        assert_eq!(pack_stamp_slot(u32::MAX, 0) & 0xFFFF_FFFF, 0);
        assert_eq!(pack_stamp_slot(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn narrowing_is_exact_within_the_id_space() {
        assert_eq!(narrow_u32(0), 0);
        assert_eq!(narrow_u32(u32::MAX as usize), u32::MAX);
        assert_eq!(csr_offset(12_345), 12_345);
    }

    #[test]
    fn doc_ordinal_is_the_block_offset() {
        assert_eq!(doc_ordinal(DocId(7), 7), 0);
        assert_eq!(doc_ordinal(DocId(u32::MAX), u32::MAX - 3), 3);
    }
}
