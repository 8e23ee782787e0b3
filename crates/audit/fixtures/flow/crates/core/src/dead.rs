//! Seeded-violation fixture for the flow gate. Parsed, never compiled.
//!
//! Nothing in the fixture tree reaches or mentions this export.

pub fn forgotten_helper() -> u32 { // seeded: F05
    7
}
