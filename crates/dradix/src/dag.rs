//! The D-Radix DAG (Definition 3) and its construction.
//!
//! Given two concept sets `d` (document) and `q` (query), the D-Radix DAG
//! `T(d,q)` indexes every Dewey address of every concept in `d ∪ q`. Each
//! node carries two distances — from the nearest document concept and from
//! the nearest query concept — initialized to 0 for member concepts and ∞
//! otherwise, then *tuned* with one bottom-up and one top-down relaxation
//! pass (Equation 4). Unlike a plain Radix tree:
//!
//! * nodes carry the two distances;
//! * two concept nodes are never merged even without branching — only
//!   non-member prefix nodes are compressed away;
//! * the structure is a DAG: a concept with several root paths is one node
//!   with several incoming edges (`FindNodeByDewey` in the paper resolves
//!   a path address to its concept; here that is an ontology walk).
//!
//! Insertion follows Function InsertPath: walk from the root matching edge
//! labels against the remaining suffix; on divergence, split the edge at
//! the longest common prefix, whose endpoint is resolved to a concept and
//! materialized as a node. Splits recurse so that re-reaching an existing
//! sub-DAG through a second route (Example 2, steps 6–8 of the paper)
//! merges cleanly instead of duplicating edges.
//!
//! # Reuse
//!
//! DRC runs at query time for every probed document. To keep that loop
//! allocation-free, one `DRadixDag` value is reusable: a build clears the
//! logical content but keeps every backing allocation — the node arena (a
//! high-water mark tracks the live prefix, and each recycled slot keeps
//! its edge `Vec`), the label arena (edge labels are ranges into one flat
//! `Vec<u32>` instead of per-edge boxes), the dense concept-slot table,
//! and the tuning scratch (topological-order buffers). After a few probes
//! the structure reaches steady state and builds allocate nothing.
//!
//! Bookkeeping (concept → node slot, doc/query membership) is
//! epoch-stamped and sized by `|C|`: "clear" moves a table to a fresh
//! epoch in O(1), and every lookup on the probe path is a single array
//! read — no hashing anywhere in the EXAMINE step.
//!
//! **Pin and overlay.** kNDS probes every document against the *same*
//! query, so that half of the DAG is built once. The radix structure over
//! a set of addresses is canonical — root, members and branch points,
//! whatever the insertion order — and `branch(Pq) ⊆ branch(Pd ∪ Pq)`, so
//! `T(d, q)` is reached by building `T(∅, q)` once (`pin`, checkpointed)
//! and inserting only `Pd` per probe (`overlay`). The next overlay first
//! rolls back: it truncates the node watermark and the label arena,
//! un-stamps the concept slots of the nodes the last overlay added, copies
//! the checkpointed rows (tuning and splits touch pinned nodes too) back
//! over the pinned prefix, and zeroes its own members' distance on pinned
//! nodes. Membership has one epoch per side; the slot table's lasts as
//! long as the pin. A probe thus costs `O(|Pd|·log|Pd| + |Pq|)`. Every
//! build takes this path ([`build_into`](DRadixDag::build_into) is "pin
//! `query`, overlay `doc`"); a pin holds for one ontology and weighting,
//! so keeping one across probes is [`Drc`](crate::Drc)'s call.
//!
//! **Resume.** A batch is inserted in sorted order, so each address shares
//! a prefix with the one before. Insertion keeps the `(node, depth)` stack
//! of the previous address's own walk (a split pushes its midpoint, the
//! displaced-edge work items nothing), pops it to the longest common
//! prefix with the next address and resumes there: nodes are never
//! removed within a batch, so a walk from the root would reach that node.

use cbr_index::packing;
use cbr_ontology::{ConceptId, Ontology};
use std::collections::VecDeque;

/// Distance placeholder before tuning (`∞` in the paper).
pub const UNSET: u32 = u32::MAX;

/// One radix node: the two tracked distances plus outgoing edges.
#[derive(Debug, Clone)]
struct Node {
    concept: ConceptId,
    /// Distance from the nearest document concept (`Ddc(d, ci)`).
    doc_dist: u32,
    /// Distance from the nearest query concept (`Ddc(q, ci)`).
    query_dist: u32,
    /// Outgoing edges; at most one child edge per leading Dewey component.
    /// The `Vec` survives node recycling, so steady-state builds push into
    /// retained capacity.
    edges: Vec<Edge>,
    /// Number of incoming edges (for the topological pass).
    indegree: u32,
}

impl Node {
    /// Copies what builds and tuning change from `src`, keeping edge capacity.
    fn restore_from(&mut self, src: &Node) {
        self.doc_dist = src.doc_dist;
        self.query_dist = src.query_dist;
        self.edges.clone_from(&src.edges);
        self.indegree = src.indegree;
    }
}

/// One of a pair's two concept sets: its membership table and distance.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Doc,
    Query,
}

/// A compressed edge: the Dewey components between two materialized nodes,
/// stored as a range into the DAG's label arena.
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    /// Start of the label in [`DRadixDag::labels`].
    start: u32,
    /// Number of label components.
    len: u32,
    /// Total cost of the compressed ontology edges: the component count in
    /// the unit-weight case, or the weight sum under
    /// [`EdgeWeights`](cbr_ontology::EdgeWeights).
    weight: u32,
}

impl Edge {
    /// The edge target as a typed arena index.
    #[inline]
    fn target_ix(&self) -> NodeIx {
        NodeIx(self.target)
    }
}

/// Typed index of a node slot in the arena. Cold paths (probes,
/// iterators, export, validators, test corruptors) hop through
/// [`DRadixDag::node`], which bounds-checks against the live watermark
/// instead of indexing raw; the `u32`s threaded through the hot
/// construction and tuning loops stay untyped, covered by the `F04`
/// allowlist entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeIx(u32);

impl NodeIx {
    /// The arena offset this index names.
    #[inline]
    fn ix(self) -> usize {
        self.0 as usize
    }
}

/// Distance scratch read with an `UNSET` fallback (cold validators only).
#[inline]
fn dist_at(v: &[u32], n: NodeIx) -> u32 {
    v.get(n.ix()).copied().unwrap_or(UNSET)
}

/// Distance scratch write that ignores out-of-range indices (cold
/// validators only; an index past the scratch means the structure is
/// already invalid and other checks report it).
#[inline]
fn set_dist(v: &mut [u32], n: NodeIx, d: u32) {
    if let Some(slot) = v.get_mut(n.ix()) {
        *slot = d;
    }
}

/// Shape statistics of a built DAG (used by tests and the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagStats {
    /// Materialized radix nodes (including the root).
    pub nodes: usize,
    /// Compressed edges.
    pub edges: usize,
    /// Dewey addresses inserted (`|Pd| + |Pq|`).
    pub addresses: usize,
}

/// Iterations of the three build loops since the last
/// [`pin`](DRadixDag::pin), which the C05 cross-check holds to their
/// static bounds. Overlays add to it and never roll it back, so after a
/// pin and `n` overlays it counts the pinned half's work and all `n`
/// overlays'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagWork {
    /// Turns of the address-staging loop, one per ranked address staged
    /// (static bound: `deg·P`).
    pub addrs: u64,
    /// Items popped off the suffix worklist (static bound: `depth²` per
    /// inserted address).
    pub suffix_pops: u64,
    /// Radix descent steps (static bound: `depth` per popped item).
    pub radix_steps: u64,
}

impl DagWork {
    fn bump_addrs(&mut self) {
        self.addrs += 1;
    }

    fn bump_suffix_pops(&mut self) {
        self.suffix_pops += 1;
    }

    fn bump_radix_steps(&mut self) {
        self.radix_steps += 1;
    }
}

/// The D-Radix DAG over one `(document, query)` pair.
///
/// A value is reusable across pairs: [`build_into`](Self::build_into)
/// replaces the content while retaining every backing allocation.
#[derive(Debug, Default, Clone)]
pub struct DRadixDag {
    /// Node arena; only the first `live` entries belong to the current
    /// build. Slots past the watermark are recycled (edge `Vec`s intact)
    /// by later builds.
    nodes: Vec<Node>,
    live: usize,
    /// Dense concept → node-slot table, one packed entry per ontology
    /// concept: `(stamp << 32) | slot`, live iff `stamp == epoch`. One
    /// array read replaces the per-build hash lookup.
    concept_slots: Vec<u64>,
    /// Label arena: every inserted address is appended once, and edge
    /// labels are subranges of it. Splits re-slice; nothing is copied.
    labels: Vec<u32>,
    addresses_inserted: usize,
    work: DagWork,
    // --- per-build scratch, cleared (not freed) by `pin` -----------------
    /// Membership stamps: concept is in the current document (resp. query)
    /// set iff its stamp equals that side's epoch. One epoch per side, so
    /// an overlay replaces its side's members and leaves the pin's alone.
    doc_stamps: Vec<u32>,
    query_stamps: Vec<u32>,
    doc_epoch: u32,
    query_epoch: u32,
    /// Epoch of `concept_slots`: lasts as long as the pin.
    epoch: u32,
    /// `(start, len, concept)` ranges of the addresses to insert, sorted
    /// lexicographically by label content before insertion. The leading
    /// `u32` is the address's global rank from the ontology's path table:
    /// rank order IS content order (ranks are distinct per unique
    /// address), so the per-build sort costs one integer compare per
    /// decision instead of a slice compare against the label arena.
    addr_buf: Vec<(u32, u32, u32, ConceptId)>,
    topo_indegree: Vec<u32>,
    topo_queue: VecDeque<u32>,
    topo_order: Vec<u32>,
    /// Pending `(from, target, vs, vl, depth)` insertions for the explicit
    /// suffix-insertion worklist; drained within each call, retained so
    /// the hot path never reallocates in steady state.
    suffix_work: Vec<(u32, ConceptId, u32, u32, Option<u32>)>,
    /// `(node, depth)` along the previous address's own walk, root first.
    walk: Vec<(u32, u32)>,
    /// Checkpoint of the pinned half: the first `base_live` rows as
    /// [`pin`](Self::pin) left them, and the watermarks to roll back to.
    base: Vec<Node>,
    base_live: usize,
    base_labels: usize,
    base_addresses: usize,
}

/// Moves a stamped table to a fresh epoch — an O(1) clear — zeroing it on
/// wrap-around, so stamps from 2³² epochs ago cannot alias the new count.
fn advance<T: Default>(epoch: &mut u32, table: &mut [T]) {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        table.iter_mut().for_each(|e| *e = T::default());
        *epoch = 1;
    }
}

impl DRadixDag {
    /// Creates an empty, reusable DAG. Feed it with
    /// [`build_into`](Self::build_into).
    pub fn new() -> DRadixDag {
        DRadixDag::default()
    }

    /// Builds the DAG for `doc` and `query` over `ont`, inserting the
    /// lexicographically sorted Dewey address lists `Pd` and `Pq`
    /// (Algorithm 1, construction phase) and initializing member distances
    /// to zero. Unit edge weights (the paper's metric).
    pub fn build(ont: &Ontology, doc: &[ConceptId], query: &[ConceptId]) -> DRadixDag {
        let mut dag = DRadixDag::new();
        dag.build_into(ont, doc, query);
        dag
    }

    /// Like [`DRadixDag::build`] but pricing every compressed edge with the
    /// weight sum of the ontology edges it spans (the weighted-edge
    /// future-work prototype, see [`cbr_ontology::weighted`]).
    pub fn build_weighted(
        ont: &Ontology,
        doc: &[ConceptId],
        query: &[ConceptId],
        weights: &cbr_ontology::EdgeWeights,
    ) -> DRadixDag {
        let mut dag = DRadixDag::new();
        dag.build_weighted_into(ont, doc, query, weights);
        dag
    }

    /// Rebuilds `self` for a new `(doc, query)` pair, reusing every
    /// backing allocation of the previous build. Equivalent to
    /// [`DRadixDag::build`] but allocation-free once the value has warmed
    /// up. Every build is "pin `query`, overlay `doc`"; this entry point
    /// trusts no earlier pin and always re-pins.
    pub fn build_into(&mut self, ont: &Ontology, doc: &[ConceptId], query: &[ConceptId]) {
        self.pin(ont, None, Side::Query, query);
        self.overlay(ont, None, Side::Doc, doc);
    }

    /// Weighted counterpart of [`build_into`](Self::build_into).
    pub fn build_weighted_into(
        &mut self,
        ont: &Ontology,
        doc: &[ConceptId],
        query: &[ConceptId],
        weights: &cbr_ontology::EdgeWeights,
    ) {
        self.pin(ont, Some(weights), Side::Query, query);
        self.overlay(ont, Some(weights), Side::Doc, doc);
    }

    /// Builds `T(∅, set)` — the pair's half on `side`, the other side empty
    /// — from scratch and checkpoints it, for [`overlay`](Self::overlay)s to
    /// complete and roll back in `O(|nodes|)`. Public for `repro ablation`'s
    /// phase table.
    #[doc(hidden)]
    pub fn pin(
        &mut self,
        ont: &Ontology,
        weights: Option<&cbr_ontology::EdgeWeights>,
        side: Side,
        set: &[ConceptId],
    ) {
        // Clear the logical content, keep all capacity: the watermark drops
        // to zero (recycled slots keep their edge `Vec`s), the label arena
        // empties in place, each stamped table moves to a fresh epoch.
        self.live = 0;
        self.labels.clear();
        self.addresses_inserted = 0;
        self.work = DagWork::default();
        advance(&mut self.epoch, &mut self.concept_slots);
        advance(&mut self.doc_epoch, &mut self.doc_stamps);
        advance(&mut self.query_epoch, &mut self.query_stamps);
        // Size the stamped tables by |C| once; later builds over the same
        // ontology find them already large enough.
        if self.concept_slots.len() < ont.len() {
            self.concept_slots.resize(ont.len(), 0);
            self.doc_stamps.resize(ont.len(), 0);
            self.query_stamps.resize(ont.len(), 0);
        }
        // Initialize with the root (Algorithm 1 line 4).
        self.slot_for(ont.root());
        self.insert_set(ont, weights, side, set);
        // cplx: bound p*depth — one checkpoint row per pinned radix node
        for (i, n) in self.nodes.iter().take(self.live).enumerate() {
            match self.base.get_mut(i) {
                Some(row) => row.restore_from(n),
                // bound: sized — one checkpoint row per pinned radix node (cplx: cap p*depth — the node arena's own bound)
                None => self.base.push(n.clone()),
            }
        }
        self.base_live = self.live;
        self.base_labels = self.labels.len();
        self.base_addresses = self.addresses_inserted;
    }

    /// Completes the pinned half to `T(d, q)` with `set` on `side` — the
    /// side the [`pin`](Self::pin) that must precede left empty — first
    /// rolling back whatever the previous overlay and its tuning left.
    #[doc(hidden)]
    pub fn overlay(
        &mut self,
        ont: &Ontology,
        weights: Option<&cbr_ontology::EdgeWeights>,
        side: Side,
        set: &[ConceptId],
    ) {
        if self.base_live == 0 {
            debug_assert!(false, "overlay completes a pin; there is none");
            return;
        }
        // Un-stamp the slots of the nodes the last overlay added (the slot
        // epoch lives as long as the pin), then restore the pinned rows.
        // cplx: bound p*depth — the radix nodes the previous overlay added
        for n in self.nodes.iter().take(self.live).skip(self.base_live) {
            if let Some(e) = self.concept_slots.get_mut(n.concept.index()) {
                *e = 0;
            }
        }
        // cplx: bound p*depth — one checkpoint row per pinned radix node
        for (n, row) in self.nodes.iter_mut().zip(&self.base).take(self.base_live) {
            n.restore_from(row);
        }
        self.live = self.base_live;
        self.labels.truncate(self.base_labels);
        self.addresses_inserted = self.base_addresses;
        self.insert_set(ont, weights, side, set);
        #[cfg(debug_assertions)]
        {
            let structure = self.validate_structure();
            debug_assert!(
                structure.is_ok(),
                "D-Radix structural invariant violated: {structure:?}"
            );
        }
    }

    /// Makes `set` the members of `side` and inserts their addresses into
    /// whatever the DAG already holds (Algorithm 1 lines 6–14, one list).
    fn insert_set(
        &mut self,
        ont: &Ontology,
        weights: Option<&cbr_ontology::EdgeWeights>,
        side: Side,
        set: &[ConceptId],
    ) {
        let paths = ont.path_table();
        let (stamps, epoch) = match side {
            Side::Doc => (&mut self.doc_stamps, &mut self.doc_epoch),
            Side::Query => (&mut self.query_stamps, &mut self.query_epoch),
        };
        advance(epoch, stamps);
        // cplx: bound p — one side of d ∪ q
        for &c in set {
            match stamps.get_mut(c.index()) {
                Some(s) => *s = *epoch,
                None => debug_assert!(false, "member concept outside the ontology"),
            }
        }
        // Stage every address of the set into the label arena, then insert in
        // lexicographic order (one the DAG already holds re-inserts as a no-op).
        let mut longest = 0;
        // cplx: bound p — one side of d ∪ q
        for &c in set {
            // A member already held (root or pinned node) was born at ∞ on this side.
            if let Some(n) = self.slot_of(c).and_then(|n| self.nodes.get_mut(n as usize)) {
                match side {
                    Side::Doc => n.doc_dist = 0,
                    Side::Query => n.query_dist = 0,
                }
            }
            // cplx: counter addrs
            for (rank, addr) in paths.addresses_ranked(c) {
                self.work.bump_addrs();
                let start = packing::csr_offset(self.labels.len());
                // bound: sized — one label range per ranked address of d ∪ q
                self.labels.extend_from_slice(addr);
                // bound: sized — one staging entry per ranked address of d ∪ q
                self.addr_buf.push((rank, start, packing::narrow_u32(addr.len()), c));
                longest = longest.max(addr.len());
            }
        }
        let mut addr_buf = std::mem::take(&mut self.addr_buf);
        // Rank order IS address order; equal ranks (a concept listed twice)
        // are identical insertions, so any order among them will do.
        addr_buf.sort_unstable_by_key(|&(rank, ..)| rank);
        // The walk restarts at the root — slot 0 — with every batch. Sized up
        // front: the pinned side flips build orders, not what a pair retains.
        self.walk.clear();
        self.walk.reserve(longest + 1);
        // bound: sized — one entry per batch
        self.walk.push((0, 0));
        let mut prev = (0, 0);
        for &(_, start, len, concept) in &addr_buf {
            self.insert_address(ont, weights, concept, (start, len), prev);
            prev = (start, len);
        }
        addr_buf.clear();
        self.addr_buf = addr_buf;
    }

    /// Runs the tuning phase (Algorithm 1 lines 19–27): a bottom-up pass in
    /// reverse topological order followed by a top-down pass, both relaxing
    /// with Equation 4. After this every node holds its exact valid-path
    /// distance from the nearest document and query concepts.
    pub fn tune(&mut self) {
        self.compute_topological_order();
        let order = std::mem::take(&mut self.topo_order);
        // Bottom-up: pull distances from children.
        // cplx: bound p*depth — the topological order holds each live radix node once
        for &n in order.iter().rev() {
            let node = &self.nodes[n as usize];
            let mut doc = node.doc_dist;
            let mut query = node.query_dist;
            for e in &node.edges {
                let child = &self.nodes[e.target as usize];
                doc = doc.min(child.doc_dist.saturating_add(e.weight));
                query = query.min(child.query_dist.saturating_add(e.weight));
            }
            let node = &mut self.nodes[n as usize];
            node.doc_dist = doc;
            node.query_dist = query;
        }
        // Top-down: push distances to children. Indexed iteration because
        // the children being relaxed live in the same arena as the edges
        // being read (the DAG is acyclic, so a node never relaxes itself).
        // cplx: bound p*depth — the topological order holds each live radix node once
        for &n in &order {
            let node = &self.nodes[n as usize];
            let doc = node.doc_dist;
            let query = node.query_dist;
            for i in 0..self.nodes[n as usize].edges.len() {
                let Edge { target, weight, .. } = self.nodes[n as usize].edges[i];
                let child = &mut self.nodes[target as usize];
                child.doc_dist = child.doc_dist.min(doc.saturating_add(weight));
                child.query_dist = child.query_dist.min(query.saturating_add(weight));
            }
        }
        self.topo_order = order;
    }

    /// The node slot of `c` in the current build, `None` if it is not
    /// materialized. One packed array read: the entry's high half must
    /// match the build epoch.
    #[inline]
    fn slot_of(&self, c: ConceptId) -> Option<u32> {
        let &e = self.concept_slots.get(c.index())?;
        let (stamp, slot) = packing::unpack_stamp_slot(e);
        (stamp == self.epoch).then_some(slot)
    }

    /// Whether `c` is a document-side member of the current build.
    #[inline]
    fn is_doc_member(&self, c: ConceptId) -> bool {
        self.doc_stamps.get(c.index()).is_some_and(|&s| s == self.doc_epoch)
    }

    /// Whether `c` is a query-side member of the current build.
    #[inline]
    fn is_query_member(&self, c: ConceptId) -> bool {
        self.query_stamps.get(c.index()).is_some_and(|&s| s == self.query_epoch)
    }

    /// Distance of radix node `c` from the nearest *document* concept
    /// (`Ddc(d, c)`), exact after [`tune`](Self::tune). Returns `None` for
    /// concepts not materialized in the DAG.
    pub fn doc_distance(&self, c: ConceptId) -> Option<u32> {
        self.slot_of(c).and_then(|n| self.node(NodeIx(n))).map(|nd| nd.doc_dist)
    }

    /// Distance of radix node `c` from the nearest *query* concept
    /// (`Ddc(q, c)`), exact after [`tune`](Self::tune).
    pub fn query_distance(&self, c: ConceptId) -> Option<u32> {
        self.slot_of(c).and_then(|n| self.node(NodeIx(n))).map(|nd| nd.query_dist)
    }

    /// The live node slots of the current build.
    #[inline]
    fn active(&self) -> &[Node] {
        self.nodes.get(..self.live).unwrap_or(&[])
    }

    /// Checked arena hop for the cold paths: resolves a typed index
    /// against the live prefix, `None` past the watermark.
    #[inline]
    fn node(&self, n: NodeIx) -> Option<&Node> {
        self.active().get(n.ix())
    }

    /// The label components of `e`.
    #[inline]
    fn label(&self, e: &Edge) -> &[u32] {
        self.label_range(e.start, e.len)
    }

    /// The label-arena subrange `[start, start + len)`, empty when the
    /// range escapes the arena (a corrupt edge; the structural validator
    /// reports it).
    #[inline]
    fn label_range(&self, start: u32, len: u32) -> &[u32] {
        self.labels.get(start as usize..(start as usize + len as usize)).unwrap_or(&[])
    }

    /// Shape statistics.
    pub fn stats(&self) -> DagStats {
        DagStats {
            nodes: self.live,
            edges: self.active().iter().map(|n| n.edges.len()).sum(),
            addresses: self.addresses_inserted,
        }
    }

    /// Work done since the last pin (see [`DagWork`]).
    pub fn work(&self) -> DagWork {
        self.work
    }

    /// Approximate heap footprint of the retained allocations, in bytes.
    /// Used by the workspace-reuse metrics to assert that steady-state
    /// queries stop growing their scratch.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<Node>()
            + self.nodes.iter().map(|n| n.edges.capacity() * size_of::<Edge>()).sum::<usize>()
            + self.labels.capacity() * size_of::<u32>()
            + self.addr_buf.capacity() * size_of::<(u32, u32, u32, ConceptId)>()
            + self.concept_slots.capacity() * size_of::<u64>()
            + (self.doc_stamps.capacity() + self.query_stamps.capacity()) * size_of::<u32>()
            + (self.topo_indegree.capacity() + self.topo_order.capacity()) * size_of::<u32>()
            + self.topo_queue.capacity() * size_of::<u32>()
            + self.suffix_work.capacity() * size_of::<(u32, ConceptId, u32, u32, Option<u32>)>()
            + self.walk.capacity() * size_of::<(u32, u32)>()
            + self.base.capacity() * size_of::<Node>()
            + self.base.iter().map(|n| n.edges.capacity() * size_of::<Edge>()).sum::<usize>()
    }

    /// Whether concept `c` is materialized as a node.
    pub fn contains(&self, c: ConceptId) -> bool {
        self.slot_of(c).is_some()
    }

    /// Iterates the materialized nodes as
    /// `(concept, doc distance, query distance)`.
    pub fn nodes(&self) -> impl Iterator<Item = (ConceptId, u32, u32)> + '_ {
        self.active().iter().map(|n| (n.concept, n.doc_dist, n.query_dist))
    }

    /// Iterates the compressed edges as
    /// `(parent concept, child concept, label components, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (ConceptId, ConceptId, &[u32], u32)> + '_ {
        self.active().iter().flat_map(move |n| {
            n.edges.iter().filter_map(move |e| {
                let target = self.node(e.target_ix())?;
                Some((n.concept, target.concept, self.label(e), e.weight))
            })
        })
    }

    /// Renders the DAG in Graphviz DOT, Figure 5(g)-style: every node shows
    /// its concept label with the `(document distance, query distance)`
    /// pair, and edges carry their Dewey labels.
    pub fn to_dot(&self, ont: &Ontology) -> String {
        use std::fmt::Write as _;
        let fmt_dist = |d: u32| {
            if d == UNSET {
                "∞".to_string()
            } else {
                d.to_string()
            }
        };
        let mut out =
            String::from("digraph dradix {\n  rankdir=TB;\n  node [fontsize=10, shape=ellipse];\n");
        let mut nodes: Vec<&Node> = self.active().iter().collect();
        nodes.sort_by_key(|n| n.concept);
        for n in &nodes {
            let _ = writeln!(
                out,
                "  c{} [label=\"{} ({}, {})\"];",
                n.concept.0,
                cbr_ontology::dot::escape_label(ont.label(n.concept)),
                fmt_dist(n.doc_dist),
                fmt_dist(n.query_dist)
            );
        }
        for n in &nodes {
            for e in &n.edges {
                let Some(target) = self.node(e.target_ix()) else {
                    continue;
                };
                let label: Vec<String> = self.label(e).iter().map(|c| c.to_string()).collect();
                let _ = writeln!(
                    out,
                    "  c{} -> c{} [label=\"{}\"];",
                    n.concept.0,
                    target.concept.0,
                    label.join(".")
                );
            }
        }
        out.push_str("}\n");
        out
    }

    // --- construction internals -------------------------------------------

    /// Returns the node slot of `concept`, materializing it at the
    /// watermark if new. Recycled slots keep their edge `Vec` allocation.
    // Arena growth past the high-water mark; slots are retained and
    // recycled by later builds.
    // flow: workspace-fed
    fn slot_for(&mut self, concept: ConceptId) -> u32 {
        if let Some(n) = self.slot_of(concept) {
            return n;
        }
        let n = packing::narrow_u32(self.live);
        let doc_dist = if self.is_doc_member(concept) { 0 } else { UNSET };
        let query_dist = if self.is_query_member(concept) { 0 } else { UNSET };
        if let Some(slot) = self.nodes.get_mut(self.live) {
            slot.concept = concept;
            slot.doc_dist = doc_dist;
            slot.query_dist = query_dist;
            slot.edges.clear();
            slot.indegree = 0;
        } else {
            // Born with a `Vec`'s first growth step: which node a slot holds
            // flips with the pinned side, and a leaf's slot must fit a branch.
            let edges = Vec::with_capacity(4);
            self.nodes.push(Node { concept, doc_dist, query_dist, edges, indegree: 0 });
        }
        self.live += 1;
        match self.concept_slots.get_mut(concept.index()) {
            Some(e) => *e = packing::pack_stamp_slot(self.epoch, n),
            None => debug_assert!(false, "concept outside the slot table"),
        }
        n
    }

    /// Inserts the staged address at label range `(start, len)`. Addresses
    /// arrive sorted, so it shares a prefix with the last (at `prev`): resume
    /// below the deepest node of the last walk that lies within that prefix.
    fn insert_address(
        &mut self,
        ont: &Ontology,
        weights: Option<&cbr_ontology::EdgeWeights>,
        concept: ConceptId,
        (start, len): (u32, u32),
        prev: (u32, u32),
    ) {
        self.addresses_inserted += 1;
        let shared = cbr_ontology::dewey::longest_common_prefix(
            self.label_range(prev.0, prev.1),
            self.label_range(start, len),
        );
        // cplx: bound depth — the walk holds at most one node per address component
        while self.walk.last().is_some_and(|&(_, depth)| depth as usize > shared) {
            self.walk.pop();
        }
        // The root entry, at depth 0, is never popped.
        let (from, depth) = self.walk.last().copied().unwrap_or((0, 0));
        debug_assert!(self.suffix_work.is_empty(), "worklist drains within each insertion");
        // bound: sized — at most two subrange items replace each popped item
        self.suffix_work.push((from, concept, start + depth, len - depth, Some(depth)));
        self.insert_suffix(ont, weights);
    }

    /// Function InsertPath over the queued `(from, target, vs, vl, depth)`
    /// item: attaches `target`, reachable from the concept of node `from`
    /// by walking the ontology along the label range `[vs, vs + vl)` of the
    /// arena, into the radix structure below `from`. `depth`: how far below
    /// the root `from` lies on the address whose walk is being recorded for
    /// the next to resume from (`None`: a displaced edge, not recorded).
    fn insert_suffix(&mut self, ont: &Ontology, weights: Option<&cbr_ontology::EdgeWeights>) {
        // Explicit worklist rather than self-recursion: the edge-split case
        // re-attaches two label ranges that are strict subranges of the one
        // being inserted, so pending work is bounded by the Dewey address
        // length and the query path stays recursion-free (bound B04). The
        // worklist buffer is retained scratch — no per-call allocation.
        // cplx: counter suffix_pops
        'work: while let Some((from, target, mut vs, mut vl, mut depth)) = self.suffix_work.pop() {
            self.work.bump_suffix_pops();
            let mut cn = from;
            // cplx: bound depth — descends one radix edge per turn, vl strictly shrinking; cplx: counter radix_steps
            loop {
                self.work.bump_radix_steps();
                if vl == 0 {
                    // Fully matched: the walk ended on an existing node, which
                    // must be the target (equal Dewey position ⇒ equal concept).
                    debug_assert_eq!(self.nodes[cn as usize].concept, target);
                    continue 'work;
                }
                // At most one edge shares the leading component with v.
                let lead = self.labels[vs as usize];
                let edge_idx = self.nodes[cn as usize]
                    .edges
                    .iter()
                    .position(|e| self.labels[e.start as usize] == lead);
                let Some(idx) = edge_idx else {
                    // No shared prefix: target becomes a direct child (lines 11–13).
                    let t = self.slot_for(target);
                    let w = self.price(ont, weights, cn, vs, vl);
                    self.add_edge(cn, t, vs, vl, w);
                    self.walked(t, depth, vl);
                    continue 'work;
                };

                let (m_target, ms, ml) = {
                    let e = &self.nodes[cn as usize].edges[idx];
                    (e.target, e.start, e.len)
                };
                let lcp = cbr_ontology::dewey::longest_common_prefix(
                    &self.labels[vs as usize..(vs + vl) as usize],
                    &self.labels[ms as usize..(ms + ml) as usize],
                ) as u32; // bound: proven — lcp ≤ ml, which already fits u32
                if lcp == ml {
                    // v contains the full edge label: descend (lines 14–17).
                    cn = m_target;
                    vs += lcp;
                    vl -= lcp;
                    depth = self.walked(cn, depth, lcp);
                    continue;
                }

                // Partial overlap: split the edge at the LCP (lines 18–27). The
                // LCP endpoint is a real ontology node, resolved by walking from
                // cn's concept (the paper's FindNodeByDewey). A failed walk means
                // the label arena is corrupt; skip the insertion rather than
                // panic (debug builds flag it via the structural validator).
                let Some(mid_concept) = resolve_relative(
                    ont,
                    self.nodes[cn as usize].concept,
                    &self.labels[vs as usize..(vs + lcp) as usize],
                ) else {
                    debug_assert!(false, "edge labels must be valid ontology paths");
                    self.walk.truncate(1);
                    continue 'work;
                };
                self.remove_edge(cn, idx);
                let mid = self.slot_for(mid_concept);
                let w = self.price(ont, weights, cn, vs, lcp);
                self.add_edge(cn, mid, vs, lcp, w);
                // Re-attach the displaced edge below the split point; queued
                // work handles the case where `mid` already owns a sub-DAG
                // reached through another root path. Both re-attached labels
                // are subranges of arena labels that already exist — no
                // copying. Queue order keeps the displaced edge first.
                let old_target_concept = self.nodes[m_target as usize].concept;
                let depth = self.walked(mid, depth, lcp);
                if mid_concept != target {
                    // bound: sized — strict subrange of the popped item (cplx: cap depth*depth — resplits bounded by the label length)
                    self.suffix_work.push((mid, target, vs + lcp, vl - lcp, depth));
                }
                // bound: sized — strict subrange of the split edge label (cplx: cap depth*depth — resplits bounded by the label length)
                self.suffix_work.push((mid, old_target_concept, ms + lcp, ml - lcp, None));
                continue 'work;
            }
        }
    }

    /// Records that the address being inserted passes `node`, `step` below
    /// `depth`; returns the new depth (`None` stays `None`).
    #[inline]
    fn walked(&mut self, node: u32, depth: Option<u32>, step: u32) -> Option<u32> {
        let depth = depth? + step;
        // bound: sized — at most one node per component of the address
        self.walk.push((node, depth));
        Some(depth)
    }

    /// Cost of walking the label range down from node `from` under the
    /// active weighting (component count when unweighted).
    fn price(
        &self,
        ont: &Ontology,
        weights: Option<&cbr_ontology::EdgeWeights>,
        from: u32,
        start: u32,
        len: u32,
    ) -> u32 {
        match weights {
            None => len,
            Some(w) => w.path_weight(
                ont,
                self.nodes[from as usize].concept,
                &self.labels[start as usize..(start + len) as usize],
            ),
        }
    }

    fn add_edge(&mut self, from: u32, to: u32, start: u32, len: u32, weight: u32) {
        debug_assert!(len > 0, "radix edges carry at least one component");
        // Idempotence: re-reaching an existing sub-DAG may re-derive an
        // identical edge (paper Example 2, step 8) — skip it. Labels are
        // compared by content; equal addresses may be staged at different
        // arena offsets.
        let label = &self.labels[start as usize..(start + len) as usize];
        let node = &self.nodes[from as usize];
        if node.edges.iter().any(|e| e.target == to && self.label(e) == label) {
            return;
        }
        debug_assert!(
            node.edges.iter().all(|e| self.labels[e.start as usize] != label[0]),
            "radix invariant: one edge per leading component"
        );
        self.nodes[from as usize].edges.push(Edge { target: to, start, len, weight });
        self.nodes[to as usize].indegree += 1;
    }

    fn remove_edge(&mut self, from: u32, idx: usize) {
        let edge = self.nodes[from as usize].edges.swap_remove(idx);
        self.nodes[edge.target as usize].indegree -= 1;
    }

    /// Kahn topological order from the root over radix edges, written into
    /// `self.topo_order` using the retained scratch buffers.
    fn compute_topological_order(&mut self) {
        self.topo_indegree.clear();
        self.topo_indegree.extend(self.nodes[..self.live].iter().map(|n| n.indegree));
        self.topo_queue.clear();
        // Sized like the order it feeds, whatever width this build order has.
        self.topo_queue.reserve(self.live);
        self.topo_order.clear();
        for n in 0..packing::narrow_u32(self.live) {
            if self.topo_indegree[n as usize] == 0 {
                self.topo_queue.push_back(n);
            }
        }
        while let Some(n) = self.topo_queue.pop_front() {
            // bound: sized — each live node enters the topological order once
            self.topo_order.push(n);
            for e in &self.nodes[n as usize].edges {
                self.topo_indegree[e.target as usize] -= 1;
                if self.topo_indegree[e.target as usize] == 0 {
                    self.topo_queue.push_back(e.target);
                }
            }
        }
        debug_assert_eq!(self.topo_order.len(), self.live, "radix DAG must be acyclic");
    }
}

/// Walks `comps` child ordinals down from `from`, returning the endpoint,
/// or `None` if some component does not name a child (corrupt label).
fn resolve_relative(ont: &Ontology, from: ConceptId, comps: &[u32]) -> Option<ConceptId> {
    let mut cur = from;
    for &comp in comps {
        cur = ont.child_at(cur, comp)?;
    }
    Some(cur)
}

/// A violated D-Radix invariant, reported by
/// [`DRadixDag::validate_structure`], [`DRadixDag::validate_tuned`], and
/// [`DRadixDag::spot_check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagViolation {
    /// The concept-slot table and the live node arena disagree about
    /// `concept`.
    ConceptMapMismatch {
        /// The concept whose map entry and arena slot diverge.
        concept: ConceptId,
    },
    /// An edge of `from` points outside the live arena or its label range
    /// escapes the label arena.
    EdgeOutOfBounds {
        /// The edge's source concept.
        from: ConceptId,
    },
    /// A node's stored indegree differs from its actual incoming edges.
    IndegreeMismatch {
        /// The affected concept.
        concept: ConceptId,
        /// The cached count on the node.
        stored: u32,
        /// The count recomputed from the edges.
        actual: u32,
    },
    /// Two edges of one node share the same leading Dewey component.
    DuplicateLeadingComponent {
        /// The branching concept.
        concept: ConceptId,
        /// The shared leading component.
        component: u32,
    },
    /// The radix edges contain a cycle.
    Cycle,
    /// A non-member, non-root node with one parent and one child: path
    /// compression (Definition 3) should have elided it.
    UncompressedChain {
        /// The chain concept that should not be materialized.
        concept: ConceptId,
    },
    /// A non-root node with no incoming edge (unreachable from the root).
    Unreachable {
        /// The orphaned concept.
        concept: ConceptId,
    },
    /// A `d ∪ q` member concept whose distance on its own side is not zero.
    MemberDistanceNotZero {
        /// The member concept.
        concept: ConceptId,
        /// `true` for the document side, `false` for the query side.
        doc_side: bool,
        /// The observed distance.
        dist: u32,
    },
    /// A `d ∪ q` member concept with no materialized node.
    MemberMissing {
        /// The missing concept.
        concept: ConceptId,
    },
    /// An edge violating the downward Equation 4 fixpoint: a child's
    /// nearest-distance may exceed its parent's by at most the edge weight
    /// (any valid ∧-shaped path extends by a descent).
    MonotonicityViolation {
        /// The edge's source concept.
        parent: ConceptId,
        /// The edge's target concept.
        child: ConceptId,
        /// `true` for the document side, `false` for the query side.
        doc_side: bool,
    },
    /// A stored tuned distance differing from an independent re-run of the
    /// bottom-up + top-down relaxation passes over the same structure.
    TuneMismatch {
        /// The affected concept.
        concept: ConceptId,
        /// `true` for the document side, `false` for the query side.
        doc_side: bool,
        /// The distance stored on the node.
        stored: u32,
        /// The re-derived distance.
        expected: u32,
    },
    /// A tuned distance disagreeing with the brute-force Rada oracle.
    DistanceMismatch {
        /// The probed concept.
        concept: ConceptId,
        /// `true` for the document side, `false` for the query side.
        doc_side: bool,
        /// The distance read off the tuned DAG.
        tuned: u32,
        /// The distance recomputed by [`crate::brute`].
        brute: u32,
    },
}

fn violations(v: Vec<DagViolation>) -> Result<(), Vec<DagViolation>> {
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

impl DRadixDag {
    /// Checks every structural invariant of the current build: the
    /// concept-map/arena bijection, edge and label bounds, cached
    /// indegrees, the one-edge-per-leading-component radix rule,
    /// acyclicity, reachability, path compression (no materialized
    /// non-member chain nodes), and member-distance zeroing. Valid both
    /// before and after [`tune`](Self::tune).
    pub fn validate_structure(&self) -> Result<(), Vec<DagViolation>> {
        let mut v = Vec::new();
        // Bijection between the stamped slot table and the live arena
        // prefix.
        let stamped =
            self.concept_slots.iter().filter(|&&e| (e >> 32) as u32 == self.epoch).count();
        if stamped != self.live {
            v.push(DagViolation::ConceptMapMismatch { concept: ConceptId(u32::MAX) });
        }
        for (i, n) in self.active().iter().enumerate() {
            if self.slot_of(n.concept) != Some(i as u32) {
                v.push(DagViolation::ConceptMapMismatch { concept: n.concept });
            }
        }
        // Edge targets and label ranges in bounds; recomputed indegrees.
        let mut incoming = vec![0u32; self.live];
        for n in self.active() {
            for e in &n.edges {
                let label_end = (e.start as usize).saturating_add(e.len as usize);
                if (e.target as usize) >= self.live || label_end > self.labels.len() || e.len == 0 {
                    v.push(DagViolation::EdgeOutOfBounds { from: n.concept });
                    continue;
                }
                if let Some(slot) = incoming.get_mut(e.target as usize) {
                    *slot += 1;
                }
            }
            // One edge per leading Dewey component.
            for (i, a) in n.edges.iter().enumerate() {
                let lead = self.labels.get(a.start as usize);
                for b in n.edges.iter().skip(i + 1) {
                    if lead.is_some() && lead == self.labels.get(b.start as usize) {
                        v.push(DagViolation::DuplicateLeadingComponent {
                            concept: n.concept,
                            component: lead.copied().unwrap_or(0),
                        });
                    }
                }
            }
        }
        for (i, (n, &actual)) in self.active().iter().zip(incoming.iter()).enumerate() {
            if n.indegree != actual {
                v.push(DagViolation::IndegreeMismatch {
                    concept: n.concept,
                    stored: n.indegree,
                    actual,
                });
            }
            if i != 0 && actual == 0 {
                v.push(DagViolation::Unreachable { concept: n.concept });
            }
            // Path compression: a non-member interior node exists only as a
            // branch or merge point, so it has ≥ 2 children or ≥ 2 parents.
            let member = self.is_doc_member(n.concept) || self.is_query_member(n.concept);
            if i != 0 && !member && actual <= 1 && n.edges.len() <= 1 {
                v.push(DagViolation::UncompressedChain { concept: n.concept });
            }
        }
        // Acyclicity via a local Kahn pass over the recomputed indegrees.
        let mut queue: VecDeque<u32> =
            incoming.iter().enumerate().filter(|&(_, &d)| d == 0).map(|(i, _)| i as u32).collect();
        let mut seen = 0usize;
        while let Some(n) = queue.pop_front() {
            seen += 1;
            if let Some(node) = self.nodes.get(n as usize) {
                for e in &node.edges {
                    if let Some(slot) = incoming.get_mut(e.target as usize) {
                        *slot -= 1;
                        if *slot == 0 {
                            queue.push_back(e.target);
                        }
                    }
                }
            }
        }
        if seen != self.live {
            v.push(DagViolation::Cycle);
        }
        // Members materialize with distance 0 on their own side (tuning
        // only relaxes downward, so this holds before and after tune).
        self.check_members(&mut v);
        violations(v)
    }

    /// Pushes a violation for every member concept that is missing or whose
    /// own-side distance is nonzero.
    fn check_members(&self, v: &mut Vec<DagViolation>) {
        for (stamps, epoch, doc_side) in [
            (&self.doc_stamps, self.doc_epoch, true),
            (&self.query_stamps, self.query_epoch, false),
        ] {
            for (i, &s) in stamps.iter().enumerate() {
                if s != epoch {
                    continue;
                }
                let c = ConceptId::from_index(i);
                let dist = if doc_side { self.doc_distance(c) } else { self.query_distance(c) };
                match dist {
                    None => v.push(DagViolation::MemberMissing { concept: c }),
                    Some(0) => {}
                    Some(dist) => {
                        v.push(DagViolation::MemberDistanceNotZero { concept: c, doc_side, dist })
                    }
                }
            }
        }
    }

    /// Checks the invariants a tuned DAG must satisfy: the downward
    /// Equation 4 fixpoint (`dist(child) ≤ dist(parent) + w` on both
    /// sides — descending never breaks a valid ∧-shaped path; the upward
    /// direction does *not* hold, ascending after a descent is invalid),
    /// member distances pinned at zero, and agreement with an independent
    /// re-run of the bottom-up + top-down relaxation passes. Only
    /// meaningful after [`tune`](Self::tune).
    pub fn validate_tuned(&self) -> Result<(), Vec<DagViolation>> {
        let mut v = Vec::new();
        for n in self.active() {
            for e in &n.edges {
                let Some(child) = self.nodes.get(e.target as usize) else {
                    v.push(DagViolation::EdgeOutOfBounds { from: n.concept });
                    continue;
                };
                for (doc_side, u, c) in
                    [(true, n.doc_dist, child.doc_dist), (false, n.query_dist, child.query_dist)]
                {
                    if c > u.saturating_add(e.weight) {
                        v.push(DagViolation::MonotonicityViolation {
                            parent: n.concept,
                            child: child.concept,
                            doc_side,
                        });
                    }
                }
            }
        }
        self.check_members(&mut v);
        self.check_retuned(&mut v);
        violations(v)
    }

    /// Re-runs both relaxation passes into local buffers and compares the
    /// results against the stored distances.
    fn check_retuned(&self, v: &mut Vec<DagViolation>) {
        let live = self.live;
        // Re-derive the topological order locally (no scratch mutation).
        let mut indegree = vec![0u32; live];
        for n in self.active() {
            for e in &n.edges {
                if let Some(slot) = indegree.get_mut(e.target as usize) {
                    *slot += 1;
                }
            }
        }
        let mut queue: VecDeque<u32> =
            indegree.iter().enumerate().filter(|&(_, &d)| d == 0).map(|(i, _)| i as u32).collect();
        let mut order: Vec<u32> = Vec::with_capacity(live);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            if let Some(node) = self.nodes.get(n as usize) {
                for e in &node.edges {
                    if let Some(slot) = indegree.get_mut(e.target as usize) {
                        *slot -= 1;
                        if *slot == 0 {
                            queue.push_back(e.target);
                        }
                    }
                }
            }
        }
        if order.len() != live {
            return; // cyclic: validate_structure reports it
        }
        let mut dd: Vec<u32> = Vec::with_capacity(live);
        let mut qd: Vec<u32> = Vec::with_capacity(live);
        for n in self.active() {
            dd.push(if self.is_doc_member(n.concept) { 0 } else { UNSET });
            qd.push(if self.is_query_member(n.concept) { 0 } else { UNSET });
        }
        for &n in order.iter().rev() {
            let n = NodeIx(n);
            let (mut d, mut q) = (dist_at(&dd, n), dist_at(&qd, n));
            let Some(node) = self.node(n) else {
                continue;
            };
            for e in &node.edges {
                let t = e.target_ix();
                d = d.min(dist_at(&dd, t).saturating_add(e.weight));
                q = q.min(dist_at(&qd, t).saturating_add(e.weight));
            }
            set_dist(&mut dd, n, d);
            set_dist(&mut qd, n, q);
        }
        for &n in &order {
            let n = NodeIx(n);
            let (d, q) = (dist_at(&dd, n), dist_at(&qd, n));
            let Some(node) = self.node(n) else {
                continue;
            };
            for e in &node.edges {
                let t = e.target_ix();
                let relaxed_d = dist_at(&dd, t).min(d.saturating_add(e.weight));
                let relaxed_q = dist_at(&qd, t).min(q.saturating_add(e.weight));
                set_dist(&mut dd, t, relaxed_d);
                set_dist(&mut qd, t, relaxed_q);
            }
        }
        for (i, n) in self.active().iter().enumerate() {
            let ix = NodeIx(i as u32);
            for (doc_side, stored, expected) in
                [(true, n.doc_dist, dist_at(&dd, ix)), (false, n.query_dist, dist_at(&qd, ix))]
            {
                if stored != expected {
                    v.push(DagViolation::TuneMismatch {
                        concept: n.concept,
                        doc_side,
                        stored,
                        expected,
                    });
                }
            }
        }
    }

    /// Compares up to `cap` tuned nearest-distances per side against the
    /// brute-force Rada oracle ([`crate::brute`]). Only valid for
    /// unit-weight builds after [`tune`](Self::tune).
    pub fn spot_check(
        &self,
        ont: &Ontology,
        doc: &[ConceptId],
        query: &[ConceptId],
        cap: usize,
    ) -> Result<(), Vec<DagViolation>> {
        let paths = ont.path_table();
        let mut v = Vec::new();
        for &qc in query.iter().take(cap) {
            let brute = crate::brute::document_concept_distance(paths, doc, qc);
            match self.doc_distance(qc) {
                None => v.push(DagViolation::MemberMissing { concept: qc }),
                Some(tuned) if tuned != brute => v.push(DagViolation::DistanceMismatch {
                    concept: qc,
                    doc_side: true,
                    tuned,
                    brute,
                }),
                _ => {}
            }
        }
        for &dc in doc.iter().take(cap) {
            let brute = crate::brute::document_concept_distance(paths, query, dc);
            match self.query_distance(dc) {
                None => v.push(DagViolation::MemberMissing { concept: dc }),
                Some(tuned) if tuned != brute => v.push(DagViolation::DistanceMismatch {
                    concept: dc,
                    doc_side: false,
                    tuned,
                    brute,
                }),
                _ => {}
            }
        }
        violations(v)
    }

    /// The full invariant suite for a tuned unit-weight build: structure,
    /// tuning fixpoint, and a full brute-force distance cross-check over
    /// every member concept.
    pub fn validate(
        &self,
        ont: &Ontology,
        doc: &[ConceptId],
        query: &[ConceptId],
    ) -> Result<(), Vec<DagViolation>> {
        let mut v = Vec::new();
        if let Err(e) = self.validate_structure() {
            v.extend(e);
        }
        if let Err(e) = self.validate_tuned() {
            v.extend(e);
        }
        if let Err(e) = self.spot_check(ont, doc, query, usize::MAX) {
            v.extend(e);
        }
        violations(v)
    }

    /// Test-only corruption: bumps one finite, edge-adjacent distance by
    /// one, breaking member zeroing or the Equation 4 fixpoint. Returns
    /// whether a corruptible node was found.
    #[doc(hidden)]
    pub fn corrupt_inflate_distance(&mut self) -> bool {
        for n in 0..self.live {
            let Some(node) = self.nodes.get_mut(n) else {
                return false;
            };
            if (node.indegree > 0 || !node.edges.is_empty()) && node.doc_dist != UNSET {
                node.doc_dist = node.doc_dist.saturating_add(1);
                return true;
            }
        }
        false
    }

    /// Test-only corruption: re-materializes the first elidable chain node
    /// (a non-member interior concept under a multi-component edge),
    /// breaking path compression. Returns whether such an edge existed.
    #[doc(hidden)]
    pub fn corrupt_break_compression(&mut self, ont: &Ontology) -> bool {
        for n in 0..packing::narrow_u32(self.live) {
            let Some(node) = self.nodes.get(n as usize) else {
                return false;
            };
            let from_concept = node.concept;
            for idx in 0..node.edges.len() {
                let Some(&e) = self.nodes.get(n as usize).and_then(|nd| nd.edges.get(idx)) else {
                    continue;
                };
                if e.len < 2 {
                    continue;
                }
                let lead = self.label_range(e.start, 1);
                let Some(mid) = resolve_relative(ont, from_concept, lead) else {
                    continue;
                };
                if self.slot_of(mid).is_some()
                    || self.is_doc_member(mid)
                    || self.is_query_member(mid)
                {
                    continue;
                }
                self.remove_edge(n, idx);
                let m = self.slot_for(mid);
                self.add_edge(n, m, e.start, 1, 1);
                self.add_edge(
                    m,
                    e.target,
                    e.start + 1,
                    e.len - 1,
                    e.weight.saturating_sub(1).max(1),
                );
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_ontology::fixture;

    impl DRadixDag {
        /// Test-only hook: the slot, document-side and query-side epochs,
        /// to prime a wrap-around (also used by `drc`'s tests).
        pub(crate) fn epochs_mut(&mut self) -> [&mut u32; 3] {
            [&mut self.epoch, &mut self.doc_epoch, &mut self.query_epoch]
        }
    }

    /// Builds the paper's running example: d = {F,R,T,V}, q = {I,L,U}.
    fn example_dag() -> (fixture::Figure3, DRadixDag) {
        let fig = fixture::figure3();
        let dag = DRadixDag::build(&fig.ontology, &fig.example_document(), &fig.example_query());
        (fig, dag)
    }

    #[test]
    fn example2_materializes_expected_nodes() {
        // Figure 5(e): the constructed DAG holds A (root), G, I, J, R, U, V,
        // F, H, T, L — the member concepts plus branch points G, J, H.
        let (fig, dag) = example_dag();
        for name in ["A", "G", "I", "J", "R", "U", "V", "F", "H", "T", "L"] {
            assert!(dag.contains(fig.concept(name)), "node {name} missing");
        }
        // Compressed-away prefixes must NOT be materialized: B, E (merged
        // into the edge towards G), K, O, S, P, Q, and the untouched C, D,
        // M, N.
        for name in ["B", "C", "D", "E", "K", "M", "N", "O", "P", "Q", "S"] {
            assert!(!dag.contains(fig.concept(name)), "node {name} should be compressed");
        }
        assert_eq!(dag.stats().nodes, 11);
        assert_eq!(dag.stats().addresses, 10, "Table 1 lists 6 + 4 addresses");
    }

    #[test]
    fn tuned_distances_match_figure_5g() {
        // Figure 5(g) annotates every node with (doc distance, query
        // distance) after both traversals.
        let (fig, mut dag) = example_dag();
        dag.tune();
        let expect = [
            // (node, doc_dist, query_dist) — read off Figure 5(g) and
            // re-derived from the ontology by hand.
            ("I", 4, 0),
            ("L", 2, 0),
            ("U", 1, 0),
            ("F", 0, 2),
            ("R", 0, 1),
            ("T", 0, 4),
            ("V", 0, 5),
            ("G", 3, 1),
            ("J", 1, 2),
            ("H", 1, 1),
            ("A", 2, 4),
        ];
        for (name, dd, qd) in expect {
            let c = fig.concept(name);
            assert_eq!(dag.doc_distance(c), Some(dd), "doc distance of {name}");
            assert_eq!(dag.query_distance(c), Some(qd), "query distance of {name}");
        }
    }

    #[test]
    fn member_nodes_start_at_zero_before_tuning() {
        let (fig, dag) = example_dag();
        assert_eq!(dag.doc_distance(fig.concept("F")), Some(0));
        assert_eq!(dag.query_distance(fig.concept("F")), Some(UNSET));
        assert_eq!(dag.query_distance(fig.concept("I")), Some(0));
        assert_eq!(dag.doc_distance(fig.concept("I")), Some(UNSET));
        assert_eq!(dag.doc_distance(fig.concept("A")), Some(UNSET));
    }

    #[test]
    fn concept_in_both_sets_has_both_zero() {
        let fig = fixture::figure3();
        let shared = vec![fig.concept("R")];
        let mut dag = DRadixDag::build(&fig.ontology, &shared, &shared);
        dag.tune();
        assert_eq!(dag.doc_distance(fig.concept("R")), Some(0));
        assert_eq!(dag.query_distance(fig.concept("R")), Some(0));
    }

    #[test]
    fn absent_concept_reports_none() {
        let (fig, dag) = example_dag();
        assert_eq!(dag.doc_distance(fig.concept("M")), None);
        assert_eq!(dag.query_distance(fig.concept("M")), None);
    }

    #[test]
    fn dot_export_renders_figure5_style() {
        let (fig, mut dag) = example_dag();
        dag.tune();
        let dot = dag.to_dot(&fig.ontology);
        assert!(dot.starts_with("digraph dradix"));
        // Figure 5(g): node I carries (4, 0).
        let i = fig.concept("I").0;
        assert!(dot.contains(&format!("c{i} [label=\"I (4, 0)\"]")), "{dot}");
        // The compressed edge from the root towards G carries label 1.1.1.
        let a = fig.concept("A").0;
        let g = fig.concept("G").0;
        assert!(dot.contains(&format!("c{a} -> c{g} [label=\"1.1.1\"]")), "{dot}");
    }

    #[test]
    fn node_and_edge_iterators_are_consistent_with_stats() {
        let (_fig, dag) = example_dag();
        let s = dag.stats();
        assert_eq!(dag.nodes().count(), s.nodes);
        assert_eq!(dag.edges().count(), s.edges);
        // Every edge's endpoints are materialized nodes.
        for (from, to, label, weight) in dag.edges() {
            assert!(dag.contains(from) && dag.contains(to));
            assert_eq!(label.len() as u32, weight, "unit weights equal label length");
        }
    }

    #[test]
    fn stress_radix_invariants_on_large_random_inputs() {
        // Debug assertions inside add_edge/insert_suffix check the radix
        // invariants (one edge per leading component, acyclicity, concept
        // identity at full matches) on every operation; build many DAGs over
        // a large multi-parent ontology to shake them. The same value is
        // rebuilt each trial, stressing the recycling path as well.
        use cbr_ontology::{GeneratorConfig, OntologyGenerator};
        let ont = OntologyGenerator::new(GeneratorConfig::snomed_like(3_000)).generate();
        let all: Vec<ConceptId> = ont.concepts().collect();
        let mut dag = DRadixDag::new();
        for trial in 0..20u64 {
            let pick = |mul: u64, n: usize| -> Vec<ConceptId> {
                let mut v: Vec<ConceptId> = (0..n)
                    .map(|i| {
                        let h = (trial + 1)
                            .wrapping_mul(mul)
                            .wrapping_add(i as u64 * 0x9E37_79B9)
                            .wrapping_mul(0x2545_F491_4F6C_DD1D);
                        all[(h % all.len() as u64) as usize]
                    })
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let doc = pick(31, 40);
            let query = pick(77, 15);
            dag.build_into(&ont, &doc, &query);
            dag.tune();
            // Every member concept is materialized with distance 0 on its
            // own side.
            for &c in &doc {
                assert_eq!(dag.doc_distance(c), Some(0));
            }
            for &c in &query {
                assert_eq!(dag.query_distance(c), Some(0));
            }
        }
    }

    #[test]
    fn multi_route_concepts_are_single_nodes() {
        // R, U, V each have two Dewey addresses (Table 1) but must appear
        // exactly once; their second route arrives through F's subtree.
        let (_fig, dag) = example_dag();
        let s = dag.stats();
        assert_eq!(s.nodes, 11);
        // Edge count: from Figure 5(g): A→G, A→I(no: I is under G)… count
        // instead: every node except A has ≥1 parent; R, U?, V gain second
        // parents through the F route. Assert the DAG is a DAG with more
        // edges than a tree would have.
        assert!(s.edges > s.nodes - 1, "DAG must contain multi-parent nodes");
    }

    #[test]
    fn rebuilt_dag_matches_fresh_build() {
        // Reuse must be invisible: build A, rebuild for B, and compare
        // against a fresh build of B — structure and distances identical.
        let fig = fixture::figure3();
        let doc_a = fig.example_document();
        let query_a = fig.example_query();
        let doc_b = vec![fig.concept("M"), fig.concept("T")];
        let query_b = vec![fig.concept("C"), fig.concept("V")];

        let mut reused = DRadixDag::build(&fig.ontology, &doc_a, &query_a);
        reused.tune();
        reused.build_into(&fig.ontology, &doc_b, &query_b);
        reused.tune();

        let mut fresh = DRadixDag::build(&fig.ontology, &doc_b, &query_b);
        fresh.tune();

        assert_eq!(reused.stats(), fresh.stats());
        let mut a: Vec<_> = reused.nodes().collect();
        let mut b: Vec<_> = fresh.nodes().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "node distances diverge after reuse");
        let mut ea: Vec<_> = reused.edges().map(|(f, t, l, w)| (f, t, l.to_vec(), w)).collect();
        let mut eb: Vec<_> = fresh.edges().map(|(f, t, l, w)| (f, t, l.to_vec(), w)).collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb, "edges diverge after reuse");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "overlay completes a pin"))]
    fn overlay_without_a_pin_is_refused() {
        // `overlay` is reachable from outside the crate (`repro ablation`):
        // on a DAG nothing was pinned into, release builds must return, not
        // index the empty arenas.
        let fig = fixture::figure3();
        let mut dag = DRadixDag::new();
        dag.overlay(&fig.ontology, None, Side::Doc, &fig.example_document());
        assert_eq!(dag.stats(), DagStats { nodes: 0, edges: 0, addresses: 0 });
    }

    #[test]
    fn steady_state_rebuilds_stop_allocating() {
        // After one warm-up build per (doc, query) shape, the footprint
        // must stabilize: rebuilding the same pairs in rotation performs
        // no further backing growth.
        let fig = fixture::figure3();
        let pairs = [
            (fig.example_document(), fig.example_query()),
            (vec![fig.concept("M"), fig.concept("V")], vec![fig.concept("I")]),
            (vec![fig.concept("C")], vec![fig.concept("T"), fig.concept("U")]),
        ];
        let mut dag = DRadixDag::new();
        for (d, q) in &pairs {
            dag.build_into(&fig.ontology, d, q);
            dag.tune();
        }
        let warm = dag.footprint_bytes();
        for _ in 0..3 {
            for (d, q) in &pairs {
                dag.build_into(&fig.ontology, d, q);
                dag.tune();
            }
        }
        assert_eq!(dag.footprint_bytes(), warm, "steady-state rebuilds must not grow");
    }
}
