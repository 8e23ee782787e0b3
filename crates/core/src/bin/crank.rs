//! `crank` — a command-line front end for concept-based document ranking.
//!
//! ```text
//! crank demo  --out DIR [--concepts N] [--docs N]     write demo data files
//! crank build --ontology FILE --docs FILE --out DIR   parse + snapshot an index
//! crank stats --index DIR                             ontology + corpus statistics
//! crank rds   --index DIR --query "l1|l2|l3" [-k N] [--eps E] [--expand R]
//! crank sds   --index DIR --doc NAME_OR_ID [-k N] [--eps E]
//! crank tune  --index DIR [--kind rds|sds] [-k N]     sweep the error threshold
//! crank dot   --index DIR --query "l1|l2" [--radius R] [--out FILE]
//! ```
//!
//! Data files use the tab-separated formats of `cbr_corpus::io`; a built
//! index is the snapshot directory `Engine::save` writes, plus one `names`
//! snapshot holding the document names.

#![forbid(unsafe_code)]

use cbr_corpus::{io as cio, CorpusStats, DocId, FilterConfig};
use cbr_index::SnapshotStore;
use cbr_knds::KndsConfig;
use cbr_ontology::{GeneratorConfig, OntologyGenerator, OntologyStats};
use concept_rank::{persist, Engine, EngineBuilder, ExpansionConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

type AnyError = Box<dyn std::error::Error>;
type Flags = HashMap<String, String>;

type Handler = fn(&Flags) -> Result<(), AnyError>;

/// The dispatch table: command, the flags it accepts, its handler. The
/// index-reading commands all take [`load`]'s three.
const COMMANDS: [(&str, &[&str], Handler); 7] = [
    ("demo", &["out", "concepts", "docs"], demo),
    ("build", &["ontology", "docs", "text-docs", "out"], build),
    ("stats", &["index", "eps", "min-depth"], stats),
    ("rds", &["index", "eps", "min-depth", "query", "k", "expand"], rds),
    ("sds", &["index", "eps", "min-depth", "doc", "k"], sds),
    ("tune", &["index", "eps", "min-depth", "kind", "k"], tune),
    ("dot", &["index", "eps", "min-depth", "query", "radius", "out"], dot),
];

fn run(args: &[String]) -> Result<(), AnyError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage().into());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some((_, accepted, handler)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(format!("unknown command {command:?}\n{}", usage()).into());
    };
    let flags = parse_flags(rest)?;
    if let Some(key) = flags.keys().find(|k| !accepted.contains(&k.as_str())) {
        return Err(format!("unknown flag --{key} for `crank {command}`").into());
    }
    handler(&flags)
}

fn usage() -> &'static str {
    "usage: crank <demo|build|stats|rds|sds|tune|dot> [flags]\n\
     \x20 demo  --out DIR [--concepts N] [--docs N]\n\
     \x20 build --ontology FILE (--docs FILE | --text-docs FILE) --out DIR\n\
     \x20 stats --index DIR\n\
     \x20 rds   --index DIR --query \"label|label\" [-k N] [--eps E] [--expand RADIUS]\n\
     \x20 sds   --index DIR --doc NAME_OR_ID [-k N] [--eps E]\n\
     \x20 tune  --index DIR [--kind rds|sds] [-k N]\n\
     \x20 dot   --index DIR --query \"label|label\" [--radius R] [--out FILE]"
}

fn parse_flags(args: &[String]) -> Result<Flags, AnyError> {
    let mut flags = HashMap::new();
    for pair in args.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .or_else(|| pair[0].strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, found {:?}", pair[0]))?;
        let value = pair.get(1).ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, AnyError> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}").into())
}

fn parse_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, AnyError>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}").into()),
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// Writes a small synthetic ontology + corpus in the text formats, ready
/// for `crank build`.
fn demo(flags: &Flags) -> Result<(), AnyError> {
    let out = required(flags, "out")?;
    let n_concepts: usize = parse_or(flags, "concepts", 800)?;
    let n_docs: usize = parse_or(flags, "docs", 120)?;
    std::fs::create_dir_all(out)?;

    let ont = OntologyGenerator::new(GeneratorConfig::small(n_concepts)).generate();
    let corpus = cbr_corpus::CorpusGenerator::new(
        &ont,
        cbr_corpus::CorpusProfile::radio_like().with_num_docs(n_docs).with_mean_concepts(12.0),
    )
    .generate();
    let names: Vec<String> = (0..corpus.len()).map(|i| format!("note-{i:04}")).collect();

    let ont_path = format!("{out}/ontology.tsv");
    let docs_path = format!("{out}/documents.tsv");
    std::fs::write(&ont_path, cio::render_ontology(&ont))?;
    std::fs::write(&docs_path, cio::render_documents(&corpus, &ont, &names))?;
    println!("wrote {ont_path} ({} concepts)", ont.len());
    println!("wrote {docs_path} ({} documents)", corpus.len());
    println!("next: crank build --ontology {ont_path} --docs {docs_path} --out {out}/index");
    Ok(())
}

fn build(flags: &Flags) -> Result<(), AnyError> {
    let ont_path = required(flags, "ontology")?;
    let out = required(flags, "out")?;

    let ont = cio::parse_ontology(&std::fs::read_to_string(ont_path)?)?;
    // Two ingestion modes: --docs (concept lists) or --text-docs (raw notes
    // pushed through the dictionary extractor).
    let (corpus, names) = match (flags.get("docs"), flags.get("text-docs")) {
        (Some(path), None) => cio::parse_documents(&std::fs::read_to_string(path)?, &ont)?,
        (None, Some(path)) => {
            let extractor =
                cbr_corpus::ConceptExtractor::new(&ont, cbr_corpus::ExtractorConfig::default());
            cio::parse_text_documents(&std::fs::read_to_string(path)?, &extractor)?
        }
        _ => return Err("pass exactly one of --docs or --text-docs".into()),
    };
    println!("parsed {} concepts, {} documents", ont.len(), corpus.len());

    let out = std::path::Path::new(out);
    EngineBuilder::new().build(ont, corpus).save(out)?;
    SnapshotStore::open(out).save("names", &persist::encode_names(&names))?;
    println!("index written to {}", out.display());
    Ok(())
}

struct LoadedIndex {
    engine: Engine,
    names: Vec<String>,
}

/// Reopens a built index. `--eps` overrides the saved error threshold
/// and `--min-depth` re-applies a depth filter; a missing, torn or
/// mismatched snapshot is an error, never a panic.
fn load(flags: &Flags) -> Result<LoadedIndex, AnyError> {
    let dir = std::path::Path::new(required(flags, "index")?);
    let min_depth: u32 = parse_or(flags, "min-depth", 0)?;
    let refilter = (min_depth > 0).then_some(FilterConfig { min_depth, cf_sigma: f64::INFINITY });
    let mut engine =
        Engine::load(dir, refilter).map_err(|e| format!("index {}: {e}", dir.display()))?;
    let eps: f64 = parse_or(flags, "eps", engine.config().error_threshold)?;
    let config = KndsConfig { error_threshold: eps, ..engine.config().clone() };
    config.validate().map_err(|e| format!("--eps: {e}"))?;
    engine.set_config(config);

    let names = SnapshotStore::open(dir)
        .load("names")
        .and_then(|body| persist::decode_names(&body))
        .map_err(|e| format!("index {}: names: {e}", dir.display()))?;
    if names.len() != engine.num_docs() {
        return Err(format!(
            "index {}: {} names for {} documents",
            dir.display(),
            names.len(),
            engine.num_docs()
        )
        .into());
    }
    Ok(LoadedIndex { engine, names })
}

fn stats(flags: &Flags) -> Result<(), AnyError> {
    let idx = load(flags)?;
    println!("== ontology ==");
    println!("{}", OntologyStats::compute(idx.engine.ontology()));
    println!("\n== corpus ==");
    println!("{}", CorpusStats::compute(idx.engine.corpus()));
    Ok(())
}

fn rds(flags: &Flags) -> Result<(), AnyError> {
    let idx = load(flags)?;
    let query_text = required(flags, "query")?;
    let k: usize = parse_or(flags, "k", 10)?;
    let labels: Vec<&str> =
        query_text.split('|').map(str::trim).filter(|l| !l.is_empty()).collect();
    let query = idx.engine.concepts_by_labels(&labels)?;

    let expand_radius: u32 = parse_or(flags, "expand", 0)?;
    let results = if expand_radius > 0 {
        let cfg = ExpansionConfig { radius: expand_radius, ..ExpansionConfig::default() };
        let (hits, variants) = idx.engine.rds_expanded(&query, k, &cfg)?;
        println!("(expanded into {variants} query variants; distances are per-concept normalized)");
        hits
    } else {
        idx.engine.rds(&query, k)?.results
    };

    println!("{:<24} {:>10}", "document", "distance");
    for hit in &results {
        let name = idx.names.get(hit.doc.index()).cloned().unwrap_or_else(|| hit.doc.to_string());
        println!("{name:<24} {:>10.3}", hit.distance);
    }
    Ok(())
}

fn sds(flags: &Flags) -> Result<(), AnyError> {
    let idx = load(flags)?;
    let doc_ref = required(flags, "doc")?;
    let k: usize = parse_or(flags, "k", 10)?;
    let doc = resolve_doc(doc_ref, &idx.names)?;

    let r = idx.engine.sds_by_doc(doc, k)?;
    println!("{:<24} {:>10}", "document", "Ddd");
    for hit in &r.results {
        let name = idx.names.get(hit.doc.index()).cloned().unwrap_or_else(|| hit.doc.to_string());
        let marker = if hit.doc == doc { "  (query document)" } else { "" };
        println!("{name:<24} {:>10.3}{marker}", hit.distance);
    }
    Ok(())
}

/// Auto-tunes εθ on a sample of the indexed collection and prints the
/// sweep (the Figure 7 procedure, automated).
fn tune(flags: &Flags) -> Result<(), AnyError> {
    let idx = load(flags)?;
    let k: usize = parse_or(flags, "k", 10)?;
    let kind = match flags.get("kind").map(|s| s.as_str()).unwrap_or("rds") {
        "rds" => cbr_knds::QueryKind::Rds,
        "sds" => cbr_knds::QueryKind::Sds,
        other => return Err(format!("--kind must be rds or sds, got {other:?}").into()),
    };
    let sample: Vec<Vec<cbr_ontology::ConceptId>> = idx
        .engine
        .corpus()
        .documents()
        .filter(|d| d.num_concepts() >= 2)
        .take(8)
        .map(|d| match kind {
            cbr_knds::QueryKind::Rds => d.concepts()[..2.min(d.num_concepts())].to_vec(),
            cbr_knds::QueryKind::Sds => d.concepts().to_vec(),
        })
        .collect();
    if sample.is_empty() {
        return Err("collection has no usable sample documents".into());
    }
    let mut engine = idx.engine;
    let best = engine.auto_tune(kind, &sample, k)?;
    println!("recommended error threshold: --eps {best}");
    Ok(())
}

/// Renders the neighborhood of a concept query as Graphviz DOT.
fn dot(flags: &Flags) -> Result<(), AnyError> {
    let idx = load(flags)?;
    let query_text = required(flags, "query")?;
    let radius: u32 = parse_or(flags, "radius", 2)?;
    let labels: Vec<&str> =
        query_text.split('|').map(str::trim).filter(|l| !l.is_empty()).collect();
    let query = idx.engine.concepts_by_labels(&labels)?;
    let opts = cbr_ontology::dot::DotOptions { triangles: query.clone(), ..Default::default() };
    let rendered =
        cbr_ontology::dot::neighborhood_dot(idx.engine.ontology(), &query, radius, &opts);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, rendered)?;
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn resolve_doc(reference: &str, names: &[String]) -> Result<DocId, AnyError> {
    if let Some(pos) = names.iter().position(|n| n == reference) {
        return Ok(DocId::from_index(pos));
    }
    if let Ok(raw) = reference.parse::<u32>() {
        return Ok(DocId(raw));
    }
    Err(format!("no document named {reference:?} (and it is not a numeric id)").into())
}
