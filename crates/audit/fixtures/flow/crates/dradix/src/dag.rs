//! Seeded-violation fixture for the flow gate. Parsed, never compiled.
//!
//! `build_into` matches the `dradix::dag::build_into` root spec; it
//! seeds one F01 (vec! scratch) and one F04 (expect).

pub struct Node {
    pub concept: u32,
}

pub struct DRadixDag {
    pub nodes: Vec<Node>,
}

impl DRadixDag {
    pub fn build_into(&mut self, doc: &[u32], query: &[u32]) -> u32 {
        let scratch = vec![0u32; doc.len()]; // seeded: F01
        let root = self.nodes.first().expect("non-empty dag"); // seeded: F04
        root.concept + scratch.len() as u32 + query.len() as u32
    }
}
