//! Graphviz (DOT) export of ontology neighborhoods.
//!
//! The paper communicates its structures with DAG drawings (Figures 2–5);
//! this module renders the same pictures from live data. Because real
//! ontologies are far too large to draw whole, the export takes a set of
//! *focus* concepts and a radius and renders the valid-path neighborhood,
//! with document concepts drawn as boxes and query concepts as triangles —
//! the paper's Figure 3/5 conventions.

use crate::distance::multi_source_distances;
use crate::graph::Ontology;
use crate::id::ConceptId;
use std::fmt::Write as _;

/// Rendering options.
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Concepts drawn as boxes (the paper's "document concepts").
    pub boxes: Vec<ConceptId>,
    /// Concepts drawn as triangles (the paper's "query concepts").
    pub triangles: Vec<ConceptId>,
    /// Hard cap on rendered nodes (0 = no cap). Nodes are kept nearest to
    /// the focus first.
    pub max_nodes: usize,
}

/// Renders the valid-path neighborhood of `focus` within `radius` as DOT.
///
/// The subgraph contains every concept whose valid-path distance from some
/// focus concept is at most `radius`, plus all edges among them. Output is
/// deterministic (nodes in id order).
pub fn neighborhood_dot(
    ont: &Ontology,
    focus: &[ConceptId],
    radius: u32,
    opts: &DotOptions,
) -> String {
    let dist = multi_source_distances(ont, focus);
    let mut members: Vec<ConceptId> =
        ont.concepts().filter(|c| dist[c.index()] <= radius).collect();
    members.sort_by_key(|c| (dist[c.index()], c.0));
    if opts.max_nodes > 0 {
        members.truncate(opts.max_nodes);
    }
    let included: crate::FxHashSet<ConceptId> = members.iter().copied().collect();

    let mut out = String::from("digraph ontology {\n  rankdir=TB;\n  node [fontsize=10];\n");
    let mut sorted = members.clone();
    sorted.sort_unstable();
    for &c in &sorted {
        let shape = if opts.boxes.contains(&c) {
            "box"
        } else if opts.triangles.contains(&c) {
            "triangle"
        } else {
            "ellipse"
        };
        let _ = writeln!(out, "  c{} [label=\"{}\", shape={shape}];", c.0, escape(ont.label(c)));
    }
    for &c in &sorted {
        for &child in ont.children(c) {
            if included.contains(&child) {
                let _ = writeln!(out, "  c{} -> c{};", c.0, child.0);
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Escapes a string for use inside a DOT double-quoted label.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    #[test]
    fn renders_focus_neighborhood() {
        let fig = fixture::figure3();
        let opts = DotOptions {
            boxes: fig.example_document(),
            triangles: fig.example_query(),
            max_nodes: 0,
        };
        let dot = neighborhood_dot(&fig.ontology, &fig.example_query(), 2, &opts);
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
        // I is a focus; its parent G and children M, N are within radius 2.
        for name in ["I", "G", "M", "N", "U", "R", "L", "H"] {
            let id = fig.concept(name).0;
            assert!(dot.contains(&format!("c{id} [")), "node {name} missing:\n{dot}");
        }
        // Query concepts are triangles, document concepts boxes.
        let u = fig.concept("U").0;
        assert!(dot.contains(&format!("c{u} [label=\"U\", shape=triangle]")));
        let r = fig.concept("R").0;
        assert!(dot.contains(&format!("c{r} [label=\"R\", shape=box]")));
    }

    #[test]
    fn radius_limits_the_subgraph() {
        let fig = fixture::figure3();
        let opts = DotOptions::default();
        let small = neighborhood_dot(&fig.ontology, &[fig.concept("U")], 0, &opts);
        assert_eq!(small.matches("label=").count(), 1, "radius 0 keeps only the focus");
        let bigger = neighborhood_dot(&fig.ontology, &[fig.concept("U")], 3, &opts);
        assert!(bigger.matches("label=").count() > 1);
    }

    #[test]
    fn max_nodes_caps_output() {
        let fig = fixture::figure3();
        let opts = DotOptions { max_nodes: 3, ..Default::default() };
        let dot = neighborhood_dot(&fig.ontology, &[fig.concept("A")], 10, &opts);
        assert_eq!(dot.matches("label=").count(), 3);
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn edges_only_between_included_nodes() {
        let fig = fixture::figure3();
        let dot = neighborhood_dot(&fig.ontology, &[fig.concept("U")], 1, &DotOptions::default());
        // Members: U (0), R (1). Only edge R -> U.
        let edge_count = dot.matches(" -> ").count();
        assert_eq!(edge_count, 1, "{dot}");
    }
}
