//! Dewey path addresses (Section 3.1).
//!
//! Every root-to-concept path is encoded with the Dewey Decimal scheme: if a
//! node `cj` is the `j`-th child of `ci` and `l{ci}` labels a path from the
//! root to `ci`, then `l{ci}.j` labels the extended path to `cj`. The root's
//! own address is the empty sequence `ε`. Because the ontology is a DAG, a
//! concept owns one address per distinct root path; [`PathTable`]
//! materializes all of them in an arena, sorted lexicographically per
//! concept (the order the DRC construction phase consumes them in,
//! Algorithm 1 line 3) by one preorder walk of the path tree, with no sort.

use crate::error::OntologyError;
use crate::graph::Ontology;
use crate::id::ConceptId;

/// Length of the longest common prefix of two component slices.
#[inline]
pub fn longest_common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// All Dewey addresses of every concept, stored in a shared arena.
///
/// Addresses of one concept are contiguous and sorted lexicographically.
/// Build cost is `O(Σ_c paths(c) · depth(c))`, with no `log` factor and no
/// allocation per address; the generator bounds `paths(c)` (DESIGN.md §2).
#[derive(Debug)]
pub struct PathTable {
    /// Arena of address components.
    arena: Vec<u32>,
    /// Per-address `(arena offset, length)`; addresses of concept `c` occupy
    /// `addr_ranges[concept_offsets[c] .. concept_offsets[c+1]]`.
    addr_ranges: Vec<(u32, u16)>,
    concept_offsets: Vec<u32>,
    /// Global lexicographic rank of each address (parallel to
    /// `addr_ranges`), its index in the build's preorder walk: `ranks[i] <
    /// ranks[j]` iff address `i`'s components sort before address `j`'s.
    /// An address names a unique root path, so ranks are distinct and
    /// consumers order any address subset with integer compares.
    ranks: Vec<u32>,
}

impl PathTable {
    /// Enumerates every root path of every concept of `ont`. Panics where
    /// [`build_capped`](Self::build_capped) refuses a table past its `u32`/`u16` widths.
    pub fn build(ont: &Ontology) -> PathTable {
        Self::build_capped(ont, usize::MAX).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`PathTable::build`] but fails with [`OntologyError::TooManyPaths`]
    /// if any concept exceeds `cap` addresses. SNOMED-CT's maximum is 29
    /// paths per concept; a cap around 32–64 guards against pathological
    /// inputs without affecting realistic ontologies. Limits are checked
    /// before the table is allocated.
    pub fn build_capped(ont: &Ontology, cap: usize) -> crate::Result<PathTable> {
        // Each concept's cursor: its next address slot and next arena
        // offset, starting at the prefix sums of the shares before it.
        let mut cursors = Vec::with_capacity(ont.len());
        let (mut slot, mut offset) = (0u32, 0u32);
        for share in sized(ont, cap)? {
            cursors.push((slot, offset));
            slot += share.paths as u32;
            offset += share.components as u32;
        }
        let mut arena = vec![0u32; offset as usize];
        let mut addr_ranges = vec![(0u32, 0u16); slot as usize];
        let mut ranks = vec![0u32; slot as usize];

        // A preorder walk of the path tree, children in ordinal order, emits
        // addresses in lexicographic order (prefixes first): a rank is the
        // emission index, and each concept's slots fill in sorted order. The
        // stack holds the path's concepts, each with its children visited.
        let mut rank = 0u32;
        let mut place = |c: ConceptId, path: &[u32]| {
            let (slot, off) = cursors[c.index()];
            let len = path.len() as u16;
            cursors[c.index()] = (slot + 1, off + u32::from(len));
            arena[off as usize..off as usize + path.len()].copy_from_slice(path);
            addr_ranges[slot as usize] = (off, len);
            ranks[slot as usize] = rank;
            rank += 1;
        };
        place(ont.root(), &[]);
        let (mut stack, mut path) = (vec![(ont.root(), 0u32)], Vec::new());
        // cplx: bound c — two turns per address (enter, leave); the generator caps addresses per concept
        while let Some(top) = stack.last_mut() {
            let (c, visited) = *top;
            let Some(&child) = ont.children(c).get(visited as usize) else {
                stack.pop();
                path.pop();
                continue;
            };
            top.1 = visited + 1;
            path.push(visited + 1);
            place(child, &path);
            stack.push((child, 0));
        }
        // Every cursor now stands at the next concept's first slot.
        let concept_offsets = std::iter::once(0).chain(cursors.iter().map(|&(s, _)| s)).collect();
        Ok(PathTable { arena, addr_ranges, concept_offsets, ranks })
    }

    /// The Dewey addresses of `c` as component slices, lexicographically
    /// sorted.
    pub fn addresses(&self, c: ConceptId) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        let lo = self.concept_offsets[c.index()] as usize;
        let hi = self.concept_offsets[c.index() + 1] as usize;
        self.addr_ranges[lo..hi]
            .iter()
            .map(move |&(off, len)| &self.arena[off as usize..off as usize + len as usize])
    }

    /// [`addresses`](Self::addresses) paired with each address's global
    /// lexicographic rank: ordering a set of addresses from any mix of
    /// concepts by rank is exactly the content order, at one integer
    /// compare per decision.
    pub fn addresses_ranked(
        &self,
        c: ConceptId,
    ) -> impl ExactSizeIterator<Item = (u32, &[u32])> + Clone + '_ {
        let lo = self.concept_offsets[c.index()] as usize;
        let hi = self.concept_offsets[c.index() + 1] as usize;
        self.addr_ranges[lo..hi].iter().zip(&self.ranks[lo..hi]).map(move |(&(off, len), &rank)| {
            (rank, &self.arena[off as usize..off as usize + len as usize])
        })
    }

    /// Number of addresses (root paths) of concept `c`.
    #[inline]
    pub fn path_count(&self, c: ConceptId) -> usize {
        (self.concept_offsets[c.index() + 1] - self.concept_offsets[c.index()]) as usize
    }

    /// Total number of addresses across all concepts.
    pub fn total_addresses(&self) -> usize {
        self.addr_ranges.len()
    }

    /// Number of concepts covered.
    pub fn num_concepts(&self) -> usize {
        self.concept_offsets.len() - 1
    }

    /// Mean addresses per concept (the paper reports 9.78 for SNOMED-CT).
    pub fn avg_paths_per_concept(&self) -> f64 {
        self.total_addresses() as f64 / self.num_concepts() as f64
    }

    /// Mean address length (the paper reports 14.1 for SNOMED-CT).
    pub fn avg_path_length(&self) -> f64 {
        if self.addr_ranges.is_empty() {
            return 0.0;
        }
        let total: u64 = self.addr_ranges.iter().map(|&(_, len)| len as u64).sum();
        total as f64 / self.addr_ranges.len() as f64
    }
}

/// One concept's share of the path table: its addresses, their
/// components, its longest address.
#[derive(Clone, Copy, Default)]
pub(crate) struct Share {
    pub(crate) paths: u64,
    components: u64,
    longest: u32,
}

/// Every concept's share, in one topological pass over its parents `p`:
/// `paths(root) = 1`, `paths(c) = Σ paths(p)`, `components(c) = Σ
/// components(p) + paths(p)`. Saturates at `u64::MAX`;
/// [`Ontology::path_counts`] reads its `paths`.
pub(crate) fn shares(ont: &Ontology) -> Vec<Share> {
    let mut shares = vec![Share::default(); ont.len()];
    for &c in ont.topological_order() {
        let mut share = Share { paths: u64::from(c == ont.root()), ..Share::default() };
        for &p in ont.parents(c) {
            let parent = shares.get(p.index()).copied().unwrap_or_default();
            share.paths = share.paths.saturating_add(parent.paths);
            share.components =
                share.components.saturating_add(parent.components).saturating_add(parent.paths);
            share.longest = share.longest.max(parent.longest + 1);
        }
        if let Some(slot) = shares.get_mut(c.index()) {
            *slot = share;
        }
    }
    shares
}

/// [`shares`], refusing the first concept in topological order past `cap`
/// addresses, totals past the table's `u32` indexes and an address past
/// its `u16` lengths.
fn sized(ont: &Ontology, cap: usize) -> crate::Result<Vec<Share>> {
    let shares = shares(ont);
    let over = |c: &&ConceptId| shares.get(c.index()).is_some_and(|s| s.paths > cap as u64);
    if let Some(&concept) = ont.topological_order().iter().find(over) {
        return Err(OntologyError::TooManyPaths { concept, cap });
    }
    let total = |f: fn(&Share) -> u64| shares.iter().map(f).fold(0, u64::saturating_add);
    let longest = shares.iter().map(|s| s.longest).max().unwrap_or(0);
    for (what, needed, limit) in [
        ("addresses", total(|s| s.paths), u32::MAX.into()),
        ("address components", total(|s| s.components), u32::MAX.into()),
        ("components in one address", longest.into(), u16::MAX.into()),
    ] {
        if needed > limit {
            return Err(OntologyError::PathTableTooLarge { what, needed, limit });
        }
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OntologyBuilder;

    fn diamond() -> Ontology {
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
    fn lcp_and_ordering() {
        assert_eq!(longest_common_prefix(&[1, 1, 2], &[1, 1, 3]), 2);
        assert_eq!(longest_common_prefix(&[1], &[2]), 0);
        assert_eq!(longest_common_prefix(&[1, 2], &[1, 2]), 2);
    }

    #[test]
    fn diamond_path_table() {
        let ont = diamond();
        let pt = ont.path_table();
        assert_eq!(pt.path_count(ConceptId(0)), 1); // root: ε
        assert_eq!(pt.addresses(ConceptId(0)).next().unwrap(), &[] as &[u32]);
        assert_eq!(pt.path_count(ConceptId(3)), 2);
        let leaf_addrs: Vec<&[u32]> = pt.addresses(ConceptId(3)).collect();
        assert_eq!(leaf_addrs, vec![&[1u32, 1][..], &[2u32, 1][..]]);
        assert_eq!(pt.total_addresses(), 5);
        assert_eq!(pt.num_concepts(), 4);
        // Two concepts' addresses merged by rank come out in
        // lexicographic order, prefixes first: the order `insert_set` sorts by.
        let mut merged: Vec<(u32, &[u32], ConceptId)> = [ConceptId(3), ConceptId(1)]
            .into_iter()
            .flat_map(|c| pt.addresses_ranked(c).map(move |(rank, a)| (rank, a, c)))
            .collect();
        merged.sort_unstable_by_key(|&(rank, ..)| rank);
        let merged: Vec<(&[u32], ConceptId)> = merged.iter().map(|&(_, a, c)| (a, c)).collect();
        assert_eq!(
            merged,
            vec![
                (&[1u32][..], ConceptId(1)),
                (&[1, 1][..], ConceptId(3)),
                (&[2, 1][..], ConceptId(3))
            ]
        );
    }

    #[test]
    fn addresses_are_sorted_per_concept() {
        // root with children x(1), y(2); both parents of z — z's addresses
        // [1,*] and [2,*] must come out sorted.
        let mut b = OntologyBuilder::new();
        let root = b.add_concept("root");
        let x = b.add_concept("x");
        let y = b.add_concept("y");
        let z = b.add_concept("z");
        b.add_edge(root, x).unwrap();
        b.add_edge(root, y).unwrap();
        b.add_edge(y, z).unwrap(); // declare the deeper edge first
        b.add_edge(x, z).unwrap();
        let ont = b.build().unwrap();
        let pt = ont.path_table();
        let addrs: Vec<&[u32]> = pt.addresses(z).collect();
        assert_eq!(addrs, vec![&[1u32, 1][..], &[2u32, 1][..]]);
    }

    /// A chain of `levels` diamonds: the path count doubles at every
    /// level, so the last concept has `2^levels` addresses.
    fn diamond_chain(levels: usize) -> (Ontology, ConceptId) {
        let mut b = OntologyBuilder::new();
        let mut top = b.add_concept("root");
        for i in 0..levels {
            let l = b.add_concept(format!("l{i}"));
            let r = b.add_concept(format!("r{i}"));
            let bottom = b.add_concept(format!("m{i}"));
            b.add_edge(top, l).unwrap();
            b.add_edge(top, r).unwrap();
            b.add_edge(l, bottom).unwrap();
            b.add_edge(r, bottom).unwrap();
            top = bottom;
        }
        (b.build().unwrap(), top)
    }

    #[test]
    fn capped_build_rejects_explosion() {
        let (ont, bottom) = diamond_chain(6);
        assert!(PathTable::build_capped(&ont, 16).is_err());
        let pt = PathTable::build_capped(&ont, 64).unwrap();
        assert_eq!(pt.path_count(bottom), 64);
    }

    /// The builder this module used before the preorder walk: every
    /// address as its own `Vec`, sorted per concept, then ranked by one
    /// global sort. Kept as the reference the walk must reproduce.
    fn reference(ont: &Ontology) -> PathTable {
        let mut per_concept: Vec<Vec<Vec<u32>>> = vec![Vec::new(); ont.len()];
        per_concept[ont.root().index()].push(Vec::new());
        for &c in ont.topological_order() {
            if c != ont.root() {
                let mut addrs = Vec::new();
                for (p, ordinal) in ont.parents_with_ordinals(c) {
                    for base in &per_concept[p.index()] {
                        let mut addr = base.clone();
                        addr.push(ordinal);
                        addrs.push(addr);
                    }
                }
                addrs.sort_unstable();
                per_concept[c.index()] = addrs;
            }
        }
        let (mut arena, mut addr_ranges, mut concept_offsets) = (Vec::new(), Vec::new(), vec![0]);
        for addrs in &per_concept {
            for addr in addrs {
                addr_ranges.push((arena.len() as u32, addr.len() as u16));
                arena.extend_from_slice(addr);
            }
            concept_offsets.push(addr_ranges.len() as u32);
        }
        let mut order: Vec<u32> = (0..addr_ranges.len() as u32).collect();
        let slice_of = |i: u32| -> &[u32] {
            let (off, len) = addr_ranges[i as usize];
            &arena[off as usize..off as usize + len as usize]
        };
        order.sort_unstable_by(|&a, &b| slice_of(a).cmp(slice_of(b)));
        let mut ranks = vec![0u32; addr_ranges.len()];
        for (rank, &i) in order.iter().enumerate() {
            ranks[i as usize] = rank as u32;
        }
        PathTable { arena, addr_ranges, concept_offsets, ranks }
    }

    /// The table of `ont` equals the reference's, concept by concept and
    /// in its layout.
    fn assert_matches_reference(ont: &Ontology) {
        let (pt, want) = (PathTable::build(ont), reference(ont));
        for c in ont.concepts() {
            let got: Vec<_> = pt.addresses_ranked(c).collect();
            let expected: Vec<_> = want.addresses_ranked(c).collect();
            assert_eq!(got, expected, "addresses of {c}");
            assert_eq!(pt.path_count(c), want.path_count(c), "path count of {c}");
        }
        assert_eq!(pt.total_addresses(), want.total_addresses());
        assert_eq!(pt.avg_path_length().to_bits(), want.avg_path_length().to_bits());
        assert_eq!(pt.arena, want.arena);
        assert_eq!(pt.addr_ranges, want.addr_ranges);
        assert_eq!(pt.concept_offsets, want.concept_offsets);
        assert_eq!(pt.ranks, want.ranks);
    }

    #[test]
    fn fixtures_match_the_reference() {
        assert_matches_reference(&diamond());
        assert_matches_reference(&crate::fixture::figure3().ontology);
        assert_matches_reference(&diamond_chain(5).0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The preorder walk reproduces the enumerate-and-sort reference
        /// on generated ontologies of both shapes.
        #[test]
        fn generated_tables_match_the_reference(
            n in 200usize..3_000,
            seed in 0u64..1_000_000,
            snomed in proptest::prelude::any::<bool>(),
        ) {
            use crate::generator::{GeneratorConfig, OntologyGenerator};
            let config =
                if snomed { GeneratorConfig::snomed_like(n) } else { GeneratorConfig::small(n) };
            assert_matches_reference(&OntologyGenerator::new(config.with_seed(seed)).generate());
        }
    }

    /// The benchmark's ontology. Release only (`scripts/check.sh` runs it
    /// with `--ignored`): the reference takes seconds in a debug build.
    #[test]
    #[ignore]
    fn snomed_like_60k_matches_the_reference() {
        use crate::generator::{GeneratorConfig, OntologyGenerator};
        assert_matches_reference(
            &OntologyGenerator::new(GeneratorConfig::snomed_like(60_000)).generate(),
        );
    }

    #[test]
    fn capped_build_names_the_first_concept_past_the_cap() {
        use crate::generator::{GeneratorConfig, OntologyGenerator};
        let ont = OntologyGenerator::new(GeneratorConfig::snomed_like(2_000)).generate();
        let counts = ont.path_counts();
        let max = counts.iter().copied().max().unwrap();
        assert!(max > 2, "the generated ontology has multi-path concepts");
        for cap in [1, max / 2, max - 1] {
            let Err(OntologyError::TooManyPaths { concept, cap: named }) =
                PathTable::build_capped(&ont, cap as usize)
            else {
                panic!("cap {cap} of {max} accepted");
            };
            assert_eq!(named, cap as usize);
            assert!(counts[concept.index()] > cap, "{concept} is within cap {cap}");
            let position = ont.topological_order().iter().position(|&c| c == concept).unwrap();
            for &before in &ont.topological_order()[..position] {
                assert!(
                    counts[before.index()] <= cap,
                    "{before} precedes {concept} past cap {cap}"
                );
            }
        }
        assert_eq!(
            PathTable::build_capped(&ont, max as usize).unwrap().total_addresses() as u64,
            counts.iter().sum::<u64>()
        );
    }

    /// The limits are refused by the sizing step, on small ontologies
    /// whose tables would not fit; nothing here allocates per address.
    #[test]
    fn sizing_refuses_tables_past_their_index_widths() {
        let refused = |ont: &Ontology| match sized(ont, usize::MAX) {
            Err(OntologyError::PathTableTooLarge { what, needed, limit }) => (what, needed, limit),
            Err(e) => panic!("refused for another reason: {e}"),
            Ok(_) => panic!("sized a table past its limits"),
        };
        let u32_max = u64::from(u32::MAX);
        // 2^32 addresses at the last concept alone.
        let (what, needed, limit) = refused(&diamond_chain(32).0);
        assert_eq!((what, limit), ("addresses", u32_max));
        assert!(needed > 1 << 32);
        // 2^27 addresses of 54 components at the last concept.
        let (what, needed, limit) = refused(&diamond_chain(27).0);
        assert_eq!((what, limit), ("address components", u32_max));
        assert!(needed > 54 << 27);
        // A chain one concept deeper than a `u16` length allows.
        let mut b = OntologyBuilder::new();
        let mut top = b.add_concept("root");
        for i in 0..=u16::MAX {
            let next = b.add_concept(format!("c{i}"));
            b.add_edge(top, next).unwrap();
            top = next;
        }
        let (what, needed, limit) = refused(&b.build().unwrap());
        assert_eq!((what, needed, limit), ("components in one address", 65_536, 65_535));
        let message = OntologyError::PathTableTooLarge { what, needed, limit }.to_string();
        assert!(message.contains("65535"), "{message}");
    }

    #[test]
    fn stats_match_structure() {
        let ont = diamond();
        let pt = ont.path_table();
        assert!((pt.avg_paths_per_concept() - 1.25).abs() < 1e-9);
        // lengths: 0 (root), 1, 1, 2, 2 -> 6/5
        assert!((pt.avg_path_length() - 1.2).abs() < 1e-9);
    }
}
