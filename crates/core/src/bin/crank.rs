//! `crank` — a command-line front end for concept-based document ranking.
//!
//! ```text
//! crank demo  --out DIR [--concepts N] [--docs N]     write demo data files
//! crank build --ontology FILE --docs FILE --out DIR   parse + snapshot an index
//! crank stats --index DIR                             ontology + corpus statistics
//! crank rds   --index DIR --query "l1|l2|l3" [-k N] [--eps E] [--expand R]
//! crank sds   --index DIR --doc NAME_OR_ID [-k N] [--eps E]
//! ```
//!
//! Data files use the tab-separated formats of `cbr_corpus::io`; built
//! indexes are binary snapshot directories (`cbr_index::SnapshotStore`).

#![forbid(unsafe_code)]

use cbr_corpus::{io as cio, Corpus, CorpusStats, DocId, FilterConfig};
use cbr_index::SnapshotStore;
use cbr_knds::KndsConfig;
use cbr_ontology::{GeneratorConfig, Ontology, OntologyGenerator, OntologyStats};
use concept_rank::{Engine, EngineBuilder, ExpansionConfig};
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

fn run(args: &[String]) -> Result<(), AnyError> {
    let Some(command) = args.first() else {
        return Err(usage().into());
    };
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "demo" => demo(&flags),
        "build" => build(&flags),
        "stats" => stats(&flags),
        "rds" => rds(&flags),
        "sds" => sds(&flags),
        "tune" => tune(&flags),
        "dot" => dot(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage()).into()),
    }
}

fn usage() -> &'static str {
    "usage: crank <demo|build|stats|rds|sds> [flags]\n\
     \x20 demo  --out DIR [--concepts N] [--docs N]\n\
     \x20 build --ontology FILE (--docs FILE | --text-docs FILE) --out DIR\n\
     \x20 stats --index DIR\n\
     \x20 rds   --index DIR --query \"label|label\" [-k N] [--eps E] [--expand RADIUS]\n\
     \x20 sds   --index DIR --doc NAME_OR_ID [-k N] [--eps E]\n\
     \x20 tune  --index DIR [--kind rds|sds] [-k N]\n\
     \x20 dot   --index DIR --query \"label|label\" [--radius R] [--out FILE]"
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, AnyError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .or_else(|| args[i].strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, found {:?}", args[i]))?;
        let value = args.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, AnyError> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}").into())
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, AnyError>
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
fn demo(flags: &HashMap<String, String>) -> Result<(), AnyError> {
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

fn build(flags: &HashMap<String, String>) -> Result<(), AnyError> {
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

    let store = SnapshotStore::open(out)?;
    store.save("ontology", &ont)?;
    store.save("corpus", &corpus)?;
    store.save("names", &names)?;
    println!("index written to {out}");
    Ok(())
}

struct LoadedIndex {
    engine: Engine,
    names: Vec<String>,
}

fn load(flags: &HashMap<String, String>) -> Result<LoadedIndex, AnyError> {
    let dir = required(flags, "index")?;
    let store = SnapshotStore::open(dir)?;
    let ont: Ontology = store.load("ontology")?;
    let corpus: Corpus = store.load("corpus")?;
    let names: Vec<String> = store.load("names")?;

    let eps: f64 = parse_or(flags, "eps", 0.5)?;
    let min_depth: u32 = parse_or(flags, "min-depth", 0)?;
    let mut builder =
        EngineBuilder::new().knds_config(KndsConfig::default().with_error_threshold(eps));
    if min_depth > 0 {
        builder = builder.filter(FilterConfig { min_depth, cf_sigma: f64::INFINITY });
    }
    Ok(LoadedIndex { engine: builder.build(ont, corpus), names })
}

fn stats(flags: &HashMap<String, String>) -> Result<(), AnyError> {
    let idx = load(flags)?;
    println!("== ontology ==");
    println!("{}", OntologyStats::compute(idx.engine.ontology()));
    println!("\n== corpus ==");
    println!("{}", CorpusStats::compute(idx.engine.corpus()));
    Ok(())
}

fn rds(flags: &HashMap<String, String>) -> Result<(), AnyError> {
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

fn sds(flags: &HashMap<String, String>) -> Result<(), AnyError> {
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
fn tune(flags: &HashMap<String, String>) -> Result<(), AnyError> {
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
fn dot(flags: &HashMap<String, String>) -> Result<(), AnyError> {
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
