//! The concept DAG: a rooted `is-a` hierarchy in compressed sparse row form.
//!
//! Section 3.1 of the paper models an ontology as a labeled DAG
//! `G = {C, E}` with a single root, where every root-to-concept path is
//! encoded with a Dewey address. [`Ontology`] stores both edge directions in
//! CSR layout so the breadth-first expansions of kNDS (Section 5) and the
//! traversals of DRC (Section 4) touch contiguous memory.

use crate::dewey::PathTable;
use crate::error::{OntologyError, Result};
use crate::hash::FxHashMap;
use crate::id::ConceptId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// A rooted concept DAG with string labels and precomputed depths.
///
/// Construction goes through [`OntologyBuilder`], which validates that the
/// graph is a single-rooted, connected DAG. The structure is immutable after
/// construction; per-concept data is indexed by [`ConceptId`].
#[derive(Debug)]
pub struct Ontology {
    labels: Vec<String>,
    child_offsets: Vec<u32>,
    child_targets: Vec<ConceptId>,
    parent_offsets: Vec<u32>,
    parent_targets: Vec<ConceptId>,
    /// Parallel to `parent_targets`: the 1-based Dewey component of the
    /// concept under that parent, precomputed at build so the Dewey hot
    /// paths never scan a parent's child list for a position.
    parent_ordinals: Vec<u32>,
    /// Minimum number of edges from the root to each concept.
    depths: Vec<u32>,
    /// Concepts ordered so that every parent precedes all of its children.
    topo_order: Vec<ConceptId>,
    /// Each concept's position in `topo_order`.
    topo_rank: Vec<u32>,
    root: ConceptId,
    label_index: OnceLock<FxHashMap<String, ConceptId>>,
    path_table: OnceLock<PathTable>,
}

impl Ontology {
    /// Number of concepts in the ontology.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the ontology has no concepts (never true for built ontologies).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Exclusive upper bound on [`ConceptId::index`] values: ids are dense,
    /// so every concept's index is below `len()`. Dense per-concept tables
    /// (e.g. the kNDS workspace state tables) size themselves by this.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.labels.len()
    }

    /// The unique root concept.
    #[inline]
    pub fn root(&self) -> ConceptId {
        self.root
    }

    /// The children of `c`, in insertion order. The 1-based position of a
    /// child within this slice is its Dewey component under `c`.
    #[inline]
    pub fn children(&self, c: ConceptId) -> &[ConceptId] {
        let lo = self.child_offsets[c.index()] as usize;
        let hi = self.child_offsets[c.index() + 1] as usize;
        &self.child_targets[lo..hi]
    }

    /// The parents of `c`, in insertion order.
    #[inline]
    pub fn parents(&self, c: ConceptId) -> &[ConceptId] {
        let lo = self.parent_offsets[c.index()] as usize;
        let hi = self.parent_offsets[c.index() + 1] as usize;
        &self.parent_targets[lo..hi]
    }

    /// Whether `c` has no children.
    #[inline]
    pub fn is_leaf(&self, c: ConceptId) -> bool {
        self.children(c).is_empty()
    }

    /// Minimum depth of `c` (edges from the root; the root has depth 0).
    ///
    /// Section 6.1 uses this for the depth threshold that excludes overly
    /// generic concepts (default: depth < 4) from indexing and queries.
    #[inline]
    pub fn depth(&self, c: ConceptId) -> u32 {
        self.depths[c.index()]
    }

    /// The parents of `c` paired with `c`'s 1-based Dewey component under
    /// each — the precomputed form the Dewey address builder walks, one
    /// O(1) lookup per edge instead of a scan of the parent's child list.
    #[inline]
    pub fn parents_with_ordinals(
        &self,
        c: ConceptId,
    ) -> impl Iterator<Item = (ConceptId, u32)> + '_ {
        let lo = self.parent_offsets[c.index()] as usize;
        let hi = self.parent_offsets[c.index() + 1] as usize;
        let parents = self.parent_targets.get(lo..hi).unwrap_or(&[]);
        let ordinals = self.parent_ordinals.get(lo..hi).unwrap_or(&[]);
        parents.iter().copied().zip(ordinals.iter().copied())
    }

    /// The 1-based Dewey component of `child` under `parent`, or `None` if
    /// there is no such edge. Resolved from the per-edge ordinals computed
    /// at build time, so the cost is `O(parents(child))` — constant for
    /// tree-like regions — rather than a scan of `children(parent)`.
    pub fn child_ordinal(&self, parent: ConceptId, child: ConceptId) -> Option<u32> {
        self.parents_with_ordinals(child).find(|&(p, _)| p == parent).map(|(_, o)| o)
    }

    /// Resolves the 1-based Dewey component `ordinal` under `parent`.
    pub fn child_at(&self, parent: ConceptId, ordinal: u32) -> Option<ConceptId> {
        if ordinal == 0 {
            return None;
        }
        self.children(parent).get(ordinal as usize - 1).copied()
    }

    /// Human-readable label of `c`.
    #[inline]
    pub fn label(&self, c: ConceptId) -> &str {
        &self.labels[c.index()]
    }

    /// Looks a concept up by its exact label.
    pub fn concept_by_label(&self, label: &str) -> Option<ConceptId> {
        let idx = self.label_index.get_or_init(|| {
            self.labels
                .iter()
                .enumerate()
                .map(|(i, l)| (l.clone(), ConceptId::from_index(i)))
                .collect()
        });
        idx.get(label).copied()
    }

    /// Iterator over all concept ids.
    pub fn concepts(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.len()).map(ConceptId::from_index)
    }

    /// Concepts in a topological order (every parent before its children),
    /// the least ready id first: ascending ids wherever every parent's id
    /// is below its children's, as in every generated ontology.
    ///
    /// Both D-Radix tuning passes (Section 4.3) and path-count computations
    /// rely on this order.
    #[inline]
    pub fn topological_order(&self) -> &[ConceptId] {
        &self.topo_order
    }

    /// The position of `c` in [`topological_order`](Self::topological_order):
    /// a parent's rank is below each of its children's, so sorting a set of
    /// concepts by rank puts every parent in it before its children.
    #[inline]
    pub fn topological_rank(&self, c: ConceptId) -> u32 {
        self.topo_rank.get(c.index()).copied().unwrap_or(u32::MAX)
    }

    /// Corrupts one stored depth so validator tests can prove detection.
    /// Not part of the public API.
    #[doc(hidden)]
    pub fn corrupt_depth_for_tests(&mut self, concept: ConceptId) {
        if let Some(d) = self.depths.get_mut(concept.index()) {
            *d = d.saturating_add(1);
        }
    }

    /// Reverses the topological order (and the ranks with it) so
    /// validator tests can prove detection. Not part of the public API.
    #[doc(hidden)]
    pub fn corrupt_topo_order_for_tests(&mut self) {
        self.topo_order.reverse();
        let last = self.topo_order.len() as u32 - 1;
        self.topo_rank.iter_mut().for_each(|r| *r = last - *r);
    }

    /// Corrupts the first stored per-edge ordinal of `concept` so validator
    /// tests can prove detection. Not part of the public API.
    #[doc(hidden)]
    pub fn corrupt_parent_ordinal_for_tests(&mut self, concept: ConceptId) {
        let lo = self.parent_offsets[concept.index()] as usize;
        if let Some(o) = self.parent_ordinals.get_mut(lo) {
            *o = o.saturating_add(1);
        }
    }

    /// Total number of parent→child edges.
    pub fn num_edges(&self) -> usize {
        self.child_targets.len()
    }

    /// The lazily built table of Dewey addresses for every concept.
    ///
    /// Building is `O(Σ paths · depth)`; the result is cached for the
    /// lifetime of the ontology.
    // cplx: bound 1 — amortized: the lazy one-time PathTable build is paid at
    // first access and every later query-path call is a cached-field read
    pub fn path_table(&self) -> &PathTable {
        self.path_table.get_or_init(|| PathTable::build(self))
    }

    /// Resolves a Dewey address (sequence of 1-based child ordinals starting
    /// at the root) to a concept. An empty address resolves to the root.
    pub fn resolve_dewey(&self, components: &[u32]) -> Result<ConceptId> {
        let mut cur = self.root;
        for &comp in components {
            cur = self.child_at(cur, comp).ok_or_else(|| {
                OntologyError::BadDeweyAddress(
                    components.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("."),
                )
            })?;
        }
        Ok(cur)
    }

    /// The number of distinct root-to-`c` paths for every concept, computed
    /// in one topological pass (`paths(root) = 1`, `paths(v) = Σ paths(u)`
    /// over parents `u`): the path table's sizing pass. Saturates at
    /// `u64::MAX`.
    pub fn path_counts(&self) -> Vec<u64> {
        crate::dewey::shares(self).iter().map(|s| s.paths).collect()
    }
}

/// Incremental builder for [`Ontology`].
///
/// ```
/// use cbr_ontology::OntologyBuilder;
///
/// let mut b = OntologyBuilder::new();
/// let root = b.add_concept("clinical finding");
/// let heart = b.add_concept("cardiac finding");
/// b.add_edge(root, heart).unwrap();
/// let ont = b.build().unwrap();
/// assert_eq!(ont.root(), root);
/// assert_eq!(ont.children(root), &[heart]);
/// ```
#[derive(Debug, Default)]
pub struct OntologyBuilder {
    labels: Vec<String>,
    edges: Vec<(ConceptId, ConceptId)>,
}

impl OntologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a concept and returns its dense id.
    pub fn add_concept(&mut self, label: impl Into<String>) -> ConceptId {
        let id = ConceptId::from_index(self.labels.len());
        self.labels.push(label.into());
        id
    }

    /// Number of concepts added so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no concepts have been added.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Declares an `is-a` edge from `parent` to `child`.
    ///
    /// The insertion order of a parent's edges determines its children's
    /// Dewey component numbers, so builders that need reproducible addresses
    /// must add edges deterministically.
    pub fn add_edge(&mut self, parent: ConceptId, child: ConceptId) -> Result<()> {
        if parent.index() >= self.labels.len() {
            return Err(OntologyError::UnknownConcept(parent));
        }
        if child.index() >= self.labels.len() {
            return Err(OntologyError::UnknownConcept(child));
        }
        self.edges.push((parent, child));
        Ok(())
    }

    /// Validates and freezes the graph.
    ///
    /// Checks performed:
    /// * at least one concept exists;
    /// * no duplicate edges;
    /// * exactly one parentless node (the root);
    /// * the graph is acyclic (Kahn's algorithm);
    /// * every concept is reachable from the root.
    pub fn build(self) -> Result<Ontology> {
        let n = self.labels.len();
        if n == 0 {
            return Err(OntologyError::Empty);
        }

        // Duplicate-edge check.
        let mut seen: crate::hash::FxHashSet<(ConceptId, ConceptId)> =
            crate::hash::FxHashSet::default();
        for &(p, c) in &self.edges {
            if !seen.insert((p, c)) {
                return Err(OntologyError::DuplicateEdge(p, c));
            }
        }

        // CSR for children.
        let mut child_counts = vec![0u32; n];
        let mut parent_counts = vec![0u32; n];
        for &(p, c) in &self.edges {
            child_counts[p.index()] += 1;
            parent_counts[c.index()] += 1;
        }
        let child_offsets = prefix_sum(&child_counts);
        let parent_offsets = prefix_sum(&parent_counts);
        let mut child_targets = vec![ConceptId(0); self.edges.len()];
        let mut parent_targets = vec![ConceptId(0); self.edges.len()];
        let mut parent_ordinals = vec![0u32; self.edges.len()];
        let mut child_fill = child_offsets.clone();
        let mut parent_fill = parent_offsets.clone();
        for &(p, c) in &self.edges {
            // 1-based position of `c` in `p`'s child list — `c`'s Dewey
            // component under `p`, recorded on the reverse edge.
            let ordinal = child_fill[p.index()] - child_offsets[p.index()] + 1;
            child_targets[child_fill[p.index()] as usize] = c;
            child_fill[p.index()] += 1;
            parent_targets[parent_fill[c.index()] as usize] = p;
            parent_ordinals[parent_fill[c.index()] as usize] = ordinal;
            parent_fill[c.index()] += 1;
        }

        // Root detection.
        let roots: Vec<ConceptId> =
            (0..n).filter(|&i| parent_counts[i] == 0).map(ConceptId::from_index).collect();
        let root = match roots.as_slice() {
            [] => return Err(OntologyError::CycleDetected),
            [r] => *r,
            _ => return Err(OntologyError::MultipleRoots(roots)),
        };

        // Kahn topological sort (also proves acyclicity), taking the least
        // ready id first: where every parent's id is below its children's,
        // the order is ascending ids and sweeps in it read per-concept
        // tables front to back.
        let mut indegree = parent_counts.clone();
        let mut ready = BinaryHeap::from([Reverse(root)]);
        let mut topo_order = Vec::with_capacity(n);
        while let Some(Reverse(c)) = ready.pop() {
            topo_order.push(c);
            let lo = child_offsets[c.index()] as usize;
            let hi = child_offsets[c.index() + 1] as usize;
            for &child in &child_targets[lo..hi] {
                indegree[child.index()] -= 1;
                if indegree[child.index()] == 0 {
                    ready.push(Reverse(child));
                }
            }
        }
        if topo_order.len() != n {
            // Either a cycle or nodes unreachable from the root. Distinguish
            // by checking whether any unprocessed node still has indegree 0
            // ancestors — simplest correct report: if every unprocessed node
            // has positive indegree the remainder contains a cycle.
            let unprocessed: Vec<usize> =
                (0..n).filter(|&i| indegree[i] > 0 || !topo_done(&topo_order, i)).collect();
            let any_cycle = unprocessed.iter().all(|&i| indegree[i] > 0);
            if any_cycle && !unprocessed.is_empty() {
                return Err(OntologyError::CycleDetected);
            }
            return Err(OntologyError::Disconnected { unreachable: n - topo_order.len() });
        }

        // Min depths by processing in topological order.
        let mut depths = vec![u32::MAX; n];
        depths[root.index()] = 0;
        for &c in &topo_order {
            let d = depths[c.index()];
            debug_assert_ne!(d, u32::MAX, "topo order visits reachable nodes only");
            let lo = child_offsets[c.index()] as usize;
            let hi = child_offsets[c.index() + 1] as usize;
            for &child in &child_targets[lo..hi] {
                depths[child.index()] = depths[child.index()].min(d + 1);
            }
        }

        let mut topo_rank = vec![0; n];
        for (rank, &c) in (0u32..).zip(&topo_order) {
            topo_rank[c.index()] = rank;
        }
        let ontology = Ontology {
            labels: self.labels,
            child_offsets,
            child_targets,
            parent_offsets,
            parent_targets,
            parent_ordinals,
            depths,
            topo_order,
            topo_rank,
            root,
            label_index: OnceLock::new(),
            path_table: OnceLock::new(),
        };
        #[cfg(debug_assertions)]
        {
            let checked = ontology.validate();
            debug_assert!(checked.is_ok(), "ontology structural invariant violated: {checked:?}");
        }
        Ok(ontology)
    }
}

fn prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

fn topo_done(order: &[ConceptId], idx: usize) -> bool {
    order.iter().any(|c| c.index() == idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Ontology {
        // root -> a, b; a -> leaf; b -> leaf (classic DAG diamond).
        let mut b = OntologyBuilder::new();
        let root = b.add_concept("root");
        let a = b.add_concept("a");
        let bb = b.add_concept("b");
        let leaf = b.add_concept("leaf");
        b.add_edge(root, a).unwrap();
        b.add_edge(root, bb).unwrap();
        b.add_edge(a, leaf).unwrap();
        b.add_edge(bb, leaf).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond() {
        let ont = diamond();
        assert_eq!(ont.len(), 4);
        assert_eq!(ont.num_edges(), 4);
        assert_eq!(ont.root(), ConceptId(0));
        assert_eq!(ont.children(ConceptId(0)), &[ConceptId(1), ConceptId(2)]);
        assert_eq!(ont.parents(ConceptId(3)), &[ConceptId(1), ConceptId(2)]);
        assert!(ont.is_leaf(ConceptId(3)));
        assert!(!ont.is_leaf(ConceptId(0)));
    }

    #[test]
    fn depths_are_minimal() {
        let ont = diamond();
        assert_eq!(ont.depth(ConceptId(0)), 0);
        assert_eq!(ont.depth(ConceptId(1)), 1);
        assert_eq!(ont.depth(ConceptId(3)), 2);
    }

    #[test]
    fn child_ordinals_are_one_based_insertion_order() {
        let ont = diamond();
        assert_eq!(ont.child_ordinal(ConceptId(0), ConceptId(1)), Some(1));
        assert_eq!(ont.child_ordinal(ConceptId(0), ConceptId(2)), Some(2));
        assert_eq!(ont.child_ordinal(ConceptId(0), ConceptId(3)), None);
        assert_eq!(ont.child_at(ConceptId(0), 2), Some(ConceptId(2)));
        assert_eq!(ont.child_at(ConceptId(0), 0), None);
        assert_eq!(ont.child_at(ConceptId(0), 3), None);
    }

    #[test]
    fn parent_ordinals_mirror_child_positions() {
        let ont = diamond();
        // leaf is child #1 of both a and b.
        let got: Vec<(ConceptId, u32)> = ont.parents_with_ordinals(ConceptId(3)).collect();
        assert_eq!(got, vec![(ConceptId(1), 1), (ConceptId(2), 1)]);
        // Exhaustive cross-check against the child lists.
        for c in ont.concepts() {
            for (p, o) in ont.parents_with_ordinals(c) {
                assert_eq!(ont.child_at(p, o), Some(c), "ordinal of {c:?} under {p:?}");
            }
            assert_eq!(ont.parents_with_ordinals(c).count(), ont.parents(c).len());
        }
    }

    #[test]
    fn id_bound_covers_every_concept() {
        let ont = diamond();
        assert_eq!(ont.id_bound(), ont.len());
        assert!(ont.concepts().all(|c| c.index() < ont.id_bound()));
    }

    #[test]
    fn resolves_dewey_addresses() {
        let ont = diamond();
        assert_eq!(ont.resolve_dewey(&[]).unwrap(), ConceptId(0));
        assert_eq!(ont.resolve_dewey(&[1, 1]).unwrap(), ConceptId(3));
        assert_eq!(ont.resolve_dewey(&[2, 1]).unwrap(), ConceptId(3));
        assert!(ont.resolve_dewey(&[9]).is_err());
    }

    #[test]
    fn path_counts_multiply_through_diamond() {
        let ont = diamond();
        assert_eq!(ont.path_counts(), vec![1, 1, 1, 2]);
    }

    #[test]
    fn label_lookup_works() {
        let ont = diamond();
        assert_eq!(ont.concept_by_label("leaf"), Some(ConceptId(3)));
        assert_eq!(ont.concept_by_label("nope"), None);
        assert_eq!(ont.label(ConceptId(1)), "a");
    }

    #[test]
    fn rejects_cycle() {
        let mut b = OntologyBuilder::new();
        let root = b.add_concept("root");
        let x = b.add_concept("x");
        let y = b.add_concept("y");
        b.add_edge(root, x).unwrap();
        b.add_edge(x, y).unwrap();
        b.add_edge(y, x).unwrap();
        // x and y form a cycle; both have parents so root is unique.
        assert!(matches!(
            b.build(),
            Err(OntologyError::CycleDetected) | Err(OntologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn rejects_multiple_roots() {
        let mut b = OntologyBuilder::new();
        let r1 = b.add_concept("r1");
        let r2 = b.add_concept("r2");
        let c = b.add_concept("c");
        b.add_edge(r1, c).unwrap();
        let _ = r2;
        assert!(matches!(b.build(), Err(OntologyError::MultipleRoots(_))));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = OntologyBuilder::new();
        let r = b.add_concept("r");
        let c = b.add_concept("c");
        b.add_edge(r, c).unwrap();
        b.add_edge(r, c).unwrap();
        assert_eq!(b.build().unwrap_err(), OntologyError::DuplicateEdge(r, c));
    }

    #[test]
    fn rejects_empty_and_unknown() {
        assert_eq!(OntologyBuilder::new().build().unwrap_err(), OntologyError::Empty);
        let mut b = OntologyBuilder::new();
        let r = b.add_concept("r");
        assert!(b.add_edge(r, ConceptId(5)).is_err());
        assert!(b.add_edge(ConceptId(5), r).is_err());
    }

    #[test]
    fn topological_order_takes_the_least_ready_id() {
        // Every parent below its children: the order is the ids.
        let ont =
            crate::OntologyGenerator::new(crate::GeneratorConfig::snomed_like(2_000)).generate();
        assert!(ont.topological_order().iter().copied().eq(ont.concepts()));
        // root(0) -> c3 -> c1, root -> c2: c1 waits for c3, c2 does not.
        let mut b = OntologyBuilder::new();
        let ids: Vec<ConceptId> = (0..4).map(|i| b.add_concept(format!("n{i}"))).collect();
        b.add_edge(ids[0], ids[3]).unwrap();
        b.add_edge(ids[3], ids[1]).unwrap();
        b.add_edge(ids[0], ids[2]).unwrap();
        let ont = b.build().unwrap();
        assert_eq!(ont.topological_order(), &[ids[0], ids[2], ids[3], ids[1]]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let ont = diamond();
        let pos: Vec<usize> = (0..4)
            .map(|i| ont.topological_order().iter().position(|c| c.index() == i).unwrap())
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[0] < pos[2]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }
}
