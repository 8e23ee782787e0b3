//! Whole-engine persistence — the one module that knows what a saved
//! engine is.
//!
//! Rebuilding the path table, filters, and indexes from generators is fast
//! but not free; a deployed service wants to reopen yesterday's engine.
//! [`Engine::save`] snapshots the ontology, the *unfiltered* corpus view it
//! was built from (the filtered corpus plus any live appended documents),
//! and the configuration; [`Engine::load`] restores an equivalent engine.
//!
//! Appended documents are folded into the bulk corpus on save (their ids
//! shift down over deleted ones), so a saved+loaded engine answers queries
//! identically but with a compacted id space — the usual semantics of a
//! checkpoint+restart.
//!
//! A snapshot directory holds three [`SnapshotStore`] frames, each body
//! written with [`Writer`] over the types' public API and read back
//! through the same constructors any other caller uses, so a snapshot can
//! never yield a structure those constructors would have refused:
//!
//! ```text
//! ontology  n: u64, n × label: str, n × children: [u32]   (Dewey order)
//! corpus    n: u64, n × (token_count: u32, concepts: [u32])
//! config    error_threshold: f64, queue_cap: u64
//! names     n: u64, n × name: str      (`crank`'s sidecar, one per document)
//! ```
//!
//! A loaded ontology lists each concept's parents in ascending id order
//! (the order `OntologyBuilder` derives from the child lists, and the one
//! `cbr_corpus::io::render_ontology` writes); child order — hence every
//! Dewey address — is preserved exactly.

use crate::engine::{Engine, EngineBuilder, EngineError};
use cbr_corpus::{Corpus, DocId, FilterConfig};
use cbr_index::snapshot::{Reader, Writer};
use cbr_index::SnapshotStore;
use cbr_knds::KndsConfig;
use cbr_ontology::{ConceptId, Ontology, OntologyBuilder};
use std::io;
use std::path::Path;

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Encodes an ontology as its labels and child lists.
pub fn encode_ontology(ont: &Ontology) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(ont.len() as u64);
    for c in ont.concepts() {
        w.put_str(ont.label(c));
    }
    for c in ont.concepts() {
        w.put_u32s(ont.children(c).iter().map(|child| child.0));
    }
    w.finish()
}

/// Decodes an ontology body through [`OntologyBuilder::build`]: a cyclic,
/// multi-rooted, disconnected or out-of-range edge list is an error, never
/// an unvalidated DAG.
pub fn decode_ontology(body: &[u8]) -> io::Result<Ontology> {
    let mut r = Reader::new(body);
    // Each concept carries at least two length words.
    let n = r.seq_len(16)?;
    let mut builder = OntologyBuilder::new();
    for _ in 0..n {
        builder.add_concept(r.str()?);
    }
    for parent in 0..n {
        for child in r.u32s()? {
            builder.add_edge(ConceptId::from_index(parent), ConceptId(child)).map_err(invalid)?;
        }
    }
    r.expect_end()?;
    builder.build().map_err(invalid)
}

/// Encodes a corpus as `(token_count, concept ids)` rows in id order.
pub fn encode_corpus(corpus: &Corpus) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(corpus.len() as u64);
    for doc in corpus.documents() {
        w.put_u32(doc.token_count());
        w.put_u32s(doc.concepts().iter().map(|c| c.0));
    }
    w.finish()
}

/// Decodes a corpus body through [`Corpus::from_concept_sets`], refusing
/// any concept id outside an ontology of `num_concepts` concepts.
pub fn decode_corpus(body: &[u8], num_concepts: usize) -> io::Result<Corpus> {
    let mut r = Reader::new(body);
    // Each row carries at least a token count and a length word.
    let n = r.seq_len(12)?;
    let mut sets = Vec::new();
    for _ in 0..n {
        let tokens = r.u32()?;
        let concepts: Vec<ConceptId> = r.u32s()?.map(ConceptId).collect();
        if let Some(c) = concepts.iter().find(|c| c.index() >= num_concepts) {
            return Err(invalid(format!("corpus names concept {c}, ontology has {num_concepts}")));
        }
        sets.push((concepts, tokens));
    }
    r.expect_end()?;
    Ok(Corpus::from_concept_sets(sets))
}

/// Encodes the kNDS configuration.
pub fn encode_config(cfg: &KndsConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_f64(cfg.error_threshold());
    w.put_u64(cfg.queue_cap() as u64);
    w.finish()
}

/// Decodes a kNDS configuration, holding it to [`KndsConfig::new`]'s
/// ranges.
pub fn decode_config(body: &[u8]) -> io::Result<KndsConfig> {
    let mut r = Reader::new(body);
    let error_threshold = r.f64()?;
    let queue_cap = usize::try_from(r.u64()?).map_err(invalid)?;
    r.expect_end()?;
    KndsConfig::new(error_threshold, queue_cap).map_err(invalid)
}

/// Encodes a list of document names — the sidecar `crank` keeps beside
/// an engine snapshot, which itself knows documents only by id.
pub fn encode_names(names: &[String]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(names.len() as u64);
    names.iter().for_each(|n| w.put_str(n));
    w.finish()
}

/// Decodes a list of document names.
pub fn decode_names(body: &[u8]) -> io::Result<Vec<String>> {
    let mut r = Reader::new(body);
    // Each name carries at least its length word.
    let n = r.seq_len(8)?;
    let names = (0..n).map(|_| r.str().map(str::to_string)).collect::<io::Result<_>>()?;
    r.expect_end()?;
    Ok(names)
}

impl Engine {
    /// Saves the engine into a snapshot directory. Live documents
    /// (bulk + appended, minus deleted) are compacted into one corpus.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        // Compact: every live document's concepts, in id order.
        let mut sets = Vec::new();
        for i in 0..self.num_docs() {
            let doc = DocId::from_index(i);
            if !self.is_live(doc) {
                continue;
            }
            let tokens =
                if i < self.corpus().len() { self.corpus().get(doc).token_count() } else { 0 };
            sets.push((self.document_concepts(doc)?, tokens));
        }
        let store = SnapshotStore::open(dir);
        store.save("ontology", &encode_ontology(self.ontology()))?;
        store.save("corpus", &encode_corpus(&Corpus::from_concept_sets(sets)))?;
        store.save("config", &encode_config(self.config()))
    }

    /// Restores an engine saved with [`Engine::save`].
    ///
    /// The saved corpus is already filtered, so no filter is re-applied;
    /// pass `refilter` to apply a fresh one (e.g. after editing the data).
    pub fn load(dir: &Path, refilter: Option<FilterConfig>) -> io::Result<Engine> {
        let store = SnapshotStore::open(dir);
        let ontology = decode_ontology(&store.load("ontology")?)?;
        let corpus = decode_corpus(&store.load("corpus")?, ontology.len())?;
        let mut builder = EngineBuilder::new().knds_config(decode_config(&store.load("config")?)?);
        if let Some(f) = refilter {
            builder = builder.filter(f);
        }
        Ok(builder.build(ontology, corpus))
    }
}

/// Convenience: error conversion for callers mixing the two error types.
impl From<EngineError> for io::Error {
    fn from(e: EngineError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cbr-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine() -> Engine {
        let ont = OntologyGenerator::new(GeneratorConfig::small(800)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(50).with_mean_concepts(8.0),
        )
        .generate();
        EngineBuilder::new()
            .knds_config(KndsConfig::default().with_error_threshold(0.75))
            .filter(FilterConfig::default())
            .build(ont, corpus)
    }

    #[test]
    fn save_load_roundtrips_queries_and_config() {
        let e = engine();
        let q: Vec<ConceptId> = e
            .corpus()
            .documents()
            .find(|d| d.num_concepts() >= 2)
            .map(|d| d.concepts()[..2].to_vec())
            .unwrap();
        let before = e.rds(&q, 5).unwrap();

        let dir = tmp("rt");
        e.save(&dir).unwrap();
        let loaded = Engine::load(&dir, None).unwrap();
        assert_eq!(loaded.config().error_threshold(), 0.75);
        assert_eq!(loaded.num_docs(), e.num_docs());
        let after = loaded.rds(&q, 5).unwrap();
        for (a, b) in before.results.iter().zip(after.results.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.distance, b.distance);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn appends_and_deletes_are_compacted() {
        let mut e = engine();
        let q: Vec<ConceptId> = e
            .corpus()
            .documents()
            .find(|d| d.num_concepts() >= 2)
            .map(|d| d.concepts()[..2].to_vec())
            .unwrap();
        let added = e.add_document(q.clone());
        let victim = cbr_corpus::DocId(0);
        e.remove_document(victim).unwrap();

        let dir = tmp("compact");
        e.save(&dir).unwrap();
        let loaded = Engine::load(&dir, None).unwrap();
        // One fewer than before (delete), including the appended one.
        assert_eq!(loaded.num_docs(), e.num_docs() - 1);
        let _ = added;
        // The appended exact match is still findable at distance 0.
        let r = loaded.rds(&q, 1).unwrap();
        assert_eq!(r.results[0].distance, 0.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_missing_dir_fails() {
        let dir = tmp("missing");
        assert_eq!(Engine::load(&dir, None).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert!(!dir.exists(), "a failed load must not create the directory");
    }

    fn ontology_body(labels: &[&str], children: &[&[u32]]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(labels.len() as u64);
        labels.iter().for_each(|l| w.put_str(l));
        children.iter().for_each(|c| w.put_u32s(c.iter().copied()));
        w.finish()
    }

    /// The decoder has no way to fill an `Ontology` except the builder, so
    /// every shape the builder refuses is refused here.
    #[test]
    fn ontology_roundtrip_preserves_structure() {
        let e = engine();
        let ont = e.ontology();
        let back = decode_ontology(&encode_ontology(ont)).unwrap();
        assert_eq!(
            (back.len(), back.root(), back.num_edges()),
            (ont.len(), ont.root(), ont.num_edges())
        );
        for c in ont.concepts() {
            assert_eq!(back.label(c), ont.label(c));
            assert_eq!(back.children(c), ont.children(c));
            assert_eq!(back.depth(c), ont.depth(c));
            // The label index is a lazily rebuilt cache, not part of the body.
            assert_eq!(back.concept_by_label(ont.label(c)), ont.concept_by_label(ont.label(c)));
        }
    }

    #[test]
    fn malformed_ontology_bodies_are_rejected_by_the_builder() {
        let ok = ontology_body(&["r", "a", "b"], &[&[1, 2], &[], &[]]);
        let ont = decode_ontology(&ok).unwrap();
        assert_eq!(ont.children(ont.root()), &[ConceptId(1), ConceptId(2)]);
        ont.validate().unwrap();

        let cyclic = ontology_body(&["r", "a", "b"], &[&[1], &[2], &[1]]);
        let two_roots = ontology_body(&["r", "a", "b"], &[&[1], &[], &[]]);
        let out_of_range = ontology_body(&["r", "a"], &[&[1, 2], &[]]);
        let duplicate = ontology_body(&["r", "a"], &[&[1, 1], &[]]);
        let self_loop = ontology_body(&["r", "a"], &[&[1], &[1]]);
        let empty = ontology_body(&[], &[]);
        for (what, body) in [
            ("cycle", cyclic),
            ("two roots", two_roots),
            ("out-of-range edge", out_of_range),
            ("duplicate edge", duplicate),
            ("self loop", self_loop),
            ("empty", empty),
        ] {
            let err = decode_ontology(&body).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn corpus_rows_are_checked_against_the_ontology() {
        let corpus = Corpus::from_concept_sets(vec![(vec![ConceptId(1), ConceptId(3)], 7)]);
        let body = encode_corpus(&corpus);
        let back = decode_corpus(&body, 4).unwrap();
        assert_eq!(back.get(DocId(0)), corpus.get(DocId(0)));
        let err = decode_corpus(&body, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("concept"), "{err}");

        // The same check through `load`: a corpus saved over 800 concepts
        // beside an ontology of three.
        let dir = tmp("oob");
        engine().save(&dir).unwrap();
        let small = ontology_body(&["r", "a", "b"], &[&[1, 2], &[], &[]]);
        SnapshotStore::open(&dir).save("ontology", &small).unwrap();
        let err = Engine::load(&dir, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ontology has 3"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn config_roundtrips_and_is_range_checked() {
        let cfg = KndsConfig::new(0.25, 9).unwrap();
        let body = encode_config(&cfg);
        assert_eq!(body.len(), 16, "two fields: f64 + u64");
        assert_eq!(decode_config(&body).unwrap(), cfg);
        // No `KndsConfig` holds an out-of-range value, so the bad bodies
        // are written field by field.
        for (eps, cap) in [(f64::NAN, 50_000), (1.5, 50_000), (0.5, 0)] {
            let mut bad = Writer::new();
            bad.put_f64(eps);
            bad.put_u64(cap);
            let err = decode_config(&bad.finish()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "({eps}, {cap}): {err}");
        }
        // The layout before the visit-dedup and progressive switches were
        // deleted: the same two fields followed by two bools. Its leading
        // 16 bytes decode to a valid configuration, so only the length
        // tells it apart, and it must be refused rather than misread.
        let mut old = Writer::new();
        old.put_f64(0.25);
        old.put_u64(9);
        old.put_bool(false);
        old.put_bool(true);
        let old = old.finish();
        assert_eq!(old.len(), 18);
        let err = decode_config(&old).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// What `load` refuses, no `KndsConfig` can hold: the constructor
    /// refuses a zero queue cap, a NaN threshold and one above 1, so no
    /// engine is configured with, or saves, a value `load` would refuse.
    #[test]
    fn config_constructor_refuses_what_load_would_refuse() {
        for (tag, eps, cap) in [("cap0", 0.5, 0), ("nan", f64::NAN, 50_000), ("eps2", 2.0, 50_000)]
        {
            assert!(KndsConfig::new(eps, cap).is_err(), "{tag}");
        }
    }
}
