//! Plain-text interchange formats for ontologies and corpora.
//!
//! Downstream users rarely have their data in this workspace's binary
//! snapshots; these tab-separated formats let the `crank` CLI (and tests)
//! load real data:
//!
//! * **ontology edge list** — one `parent<TAB>child` pair of concept labels
//!   per line; concepts are created on first mention, children are
//!   numbered in file order (which fixes their Dewey components), `#`
//!   starts a comment;
//! * **document list** — one document per line:
//!   `doc_name<TAB>label|label|...`; unknown labels are reported, not
//!   silently dropped.

use crate::document::{Corpus, DocId, Document};
use cbr_ontology::{Ontology, OntologyBuilder};
use std::fmt;

/// Errors from parsing the text formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not have the expected `left<TAB>right` shape.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A document referenced a label missing from the ontology.
    UnknownLabel {
        /// 1-based line number.
        line: usize,
        /// The unresolved label.
        label: String,
    },
    /// The edge list did not validate as a single-rooted DAG.
    InvalidOntology(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::UnknownLabel { line, label } => {
                write!(f, "line {line}: unknown concept label {label:?}")
            }
            ParseError::InvalidOntology(e) => write!(f, "invalid ontology: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an ontology edge list (see module docs).
pub fn parse_ontology(text: &str) -> Result<Ontology, ParseError> {
    let mut builder = OntologyBuilder::new();
    let mut by_label = cbr_ontology::FxHashMap::default();
    let mut intern = |builder: &mut OntologyBuilder, label: &str| {
        *by_label.entry(label.to_string()).or_insert_with(|| builder.add_concept(label))
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((parent, child)) = line.split_once('\t') else {
            return Err(ParseError::BadLine {
                line: i + 1,
                reason: "expected `parent<TAB>child`".to_string(),
            });
        };
        let (parent, child) = (parent.trim(), child.trim());
        if parent.is_empty() || child.is_empty() {
            return Err(ParseError::BadLine {
                line: i + 1,
                reason: "empty concept label".to_string(),
            });
        }
        let p = intern(&mut builder, parent);
        let c = intern(&mut builder, child);
        builder.add_edge(p, c).map_err(|e| ParseError::InvalidOntology(e.to_string()))?;
    }
    builder.build().map_err(|e| ParseError::InvalidOntology(e.to_string()))
}

/// Serializes an ontology back to the edge-list format (parents in id
/// order, children in Dewey order — re-parsing reproduces the addresses).
pub fn render_ontology(ont: &Ontology) -> String {
    let mut out = String::new();
    out.push_str("# concept-rank ontology edge list: parent<TAB>child\n");
    for p in ont.concepts() {
        for &c in ont.children(p) {
            out.push_str(ont.label(p));
            out.push('\t');
            out.push_str(ont.label(c));
            out.push('\n');
        }
    }
    out
}

/// Parses a document list against an ontology. Returns the corpus and the
/// document names in id order.
pub fn parse_documents(text: &str, ont: &Ontology) -> Result<(Corpus, Vec<String>), ParseError> {
    let mut docs = Vec::new();
    let mut names = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, labels)) = line.split_once('\t') else {
            return Err(ParseError::BadLine {
                line: i + 1,
                reason: "expected `name<TAB>label|label|...`".to_string(),
            });
        };
        let mut concepts = Vec::new();
        for label in labels.split('|') {
            let label = label.trim();
            if label.is_empty() {
                continue;
            }
            let c = ont.concept_by_label(label).ok_or_else(|| ParseError::UnknownLabel {
                line: i + 1,
                label: label.to_string(),
            })?;
            concepts.push(c);
        }
        let tokens = concepts.len() as u32;
        docs.push(Document::new(DocId::from_index(docs.len()), concepts, tokens));
        names.push(name.trim().to_string());
    }
    Ok((Corpus::new(docs), names))
}

/// Parses raw clinical-note documents: one per line,
/// `name<TAB>free text…`, pushed through a
/// [`ConceptExtractor`](crate::extract::ConceptExtractor)
/// (tokenization, abbreviation expansion, negation filtering). Unknown
/// terms are simply not matched — unlike [`parse_documents`], free text is
/// allowed to contain anything.
pub fn parse_text_documents(
    text: &str,
    extractor: &crate::extract::ConceptExtractor,
) -> Result<(Corpus, Vec<String>), ParseError> {
    let mut docs = Vec::new();
    let mut names = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, body)) = line.split_once('\t') else {
            return Err(ParseError::BadLine {
                line: i + 1,
                reason: "expected `name<TAB>note text`".to_string(),
            });
        };
        let doc = extractor.extract_document(DocId::from_index(docs.len()), body);
        docs.push(doc);
        names.push(name.trim().to_string());
    }
    Ok((Corpus::new(docs), names))
}

/// Serializes a corpus to the document-list format.
pub fn render_documents(corpus: &Corpus, ont: &Ontology, names: &[String]) -> String {
    let mut out = String::new();
    out.push_str("# concept-rank document list: name<TAB>label|label|...\n");
    for d in corpus.documents() {
        let name = names.get(d.id().index()).cloned().unwrap_or_else(|| d.id().to_string());
        out.push_str(&name);
        out.push('\t');
        let labels: Vec<&str> = d.concepts().iter().map(|&c| ont.label(c)).collect();
        out.push_str(&labels.join("|"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONT: &str = "\
# tiny hierarchy
root\tdisease
root\tfinding
disease\theart disease
heart disease\tstenosis
finding\tstenosis
";

    #[test]
    fn parses_edge_list_with_dewey_order() {
        let ont = parse_ontology(ONT).unwrap();
        assert_eq!(ont.len(), 5);
        let root = ont.concept_by_label("root").unwrap();
        assert_eq!(ont.root(), root);
        let disease = ont.concept_by_label("disease").unwrap();
        assert_eq!(ont.child_ordinal(root, disease), Some(1));
        let stenosis = ont.concept_by_label("stenosis").unwrap();
        assert_eq!(ont.parents(stenosis).len(), 2, "DAG edge preserved");
    }

    #[test]
    fn ontology_roundtrips_through_render() {
        let ont = parse_ontology(ONT).unwrap();
        let rendered = render_ontology(&ont);
        let back = parse_ontology(&rendered).unwrap();
        assert_eq!(back.len(), ont.len());
        for c in ont.concepts() {
            let label = ont.label(c);
            let b = back.concept_by_label(label).unwrap();
            let children_a: Vec<&str> = ont.children(c).iter().map(|&x| ont.label(x)).collect();
            let children_b: Vec<&str> = back.children(b).iter().map(|&x| back.label(x)).collect();
            assert_eq!(children_a, children_b, "children of {label}");
        }
    }

    #[test]
    fn rejects_malformed_edges() {
        assert!(matches!(parse_ontology("no-tab-here"), Err(ParseError::BadLine { line: 1, .. })));
        assert!(matches!(parse_ontology("a\t"), Err(ParseError::BadLine { .. })));
        // Two roots.
        assert!(matches!(parse_ontology("a\tb\nc\td"), Err(ParseError::InvalidOntology(_))));
    }

    #[test]
    fn parses_documents_and_reports_unknown_labels() {
        let ont = parse_ontology(ONT).unwrap();
        let (corpus, names) =
            parse_documents("patient-1\tstenosis|heart disease\npatient-2\tfinding\n", &ont)
                .unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(names, vec!["patient-1", "patient-2"]);
        assert_eq!(corpus.get(DocId(0)).num_concepts(), 2);

        let err = parse_documents("p\tnot-a-concept", &ont).unwrap_err();
        assert!(matches!(err, ParseError::UnknownLabel { line: 1, .. }));
        assert!(err.to_string().contains("not-a-concept"));
    }

    #[test]
    fn documents_roundtrip_through_render() {
        let ont = parse_ontology(ONT).unwrap();
        let (corpus, names) = parse_documents("a\tstenosis\nb\tdisease|finding\n", &ont).unwrap();
        let rendered = render_documents(&corpus, &ont, &names);
        let (back, back_names) = parse_documents(&rendered, &ont).unwrap();
        assert_eq!(back_names, names);
        for (x, y) in corpus.documents().zip(back.documents()) {
            assert_eq!(x.concepts(), y.concepts());
        }
    }

    #[test]
    fn parses_text_documents_through_the_extractor() {
        use crate::extract::{ConceptExtractor, ExtractorConfig};
        let ont = parse_ontology(ONT).unwrap();
        let ex = ConceptExtractor::new(&ont, ExtractorConfig::default());
        let input = "note-a\tPatient presents with stenosis; no heart disease.\n\
                     note-b\tUnremarkable exam, disease of unknown site.\n";
        let (corpus, names) = parse_text_documents(input, &ex).unwrap();
        assert_eq!(names, vec!["note-a", "note-b"]);
        let stenosis = ont.concept_by_label("stenosis").unwrap();
        let heart = ont.concept_by_label("heart disease").unwrap();
        let disease = ont.concept_by_label("disease").unwrap();
        assert!(corpus.get(DocId(0)).contains(stenosis));
        assert!(!corpus.get(DocId(0)).contains(heart), "negated mention dropped");
        assert!(corpus.get(DocId(1)).contains(disease));
        // Token counts come from the raw text, not the concepts.
        assert!(corpus.get(DocId(0)).token_count() >= 7);

        assert!(matches!(
            parse_text_documents("no-tab-line", &ex),
            Err(ParseError::BadLine { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let ont = parse_ontology(ONT).unwrap();
        let (corpus, _) = parse_documents("# header\n\np\tstenosis\n  \n", &ont).unwrap();
        assert_eq!(corpus.len(), 1);
    }
}
