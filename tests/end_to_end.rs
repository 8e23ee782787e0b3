//! Cross-crate integration: the full pipeline from generation through
//! persistence to querying.

use cbr_corpus::{CorpusGenerator, CorpusProfile, FilterConfig};
use cbr_index::SegmentedView;
use cbr_knds::{Knds, KndsConfig};
use cbr_ontology::{GeneratorConfig, OntologyGenerator};
use concept_rank::EngineBuilder;
use concept_rank_repro::demo;

#[test]
fn generated_pipeline_produces_consistent_engine() {
    let engine = demo::engine(3_000, 120, 15.0);
    let query: Vec<_> = engine
        .corpus()
        .documents()
        .find(|d| d.num_concepts() >= 2)
        .map(|d| d.concepts()[..2].to_vec())
        .unwrap();
    let fast = engine.rds(&query, 8).unwrap();
    let slow = engine.rds_full_scan(&query, 8).unwrap();
    assert_eq!(fast.results.len(), 8);
    for (a, b) in fast.results.iter().zip(slow.results.iter()) {
        assert_eq!(a.distance, b.distance);
    }
}

#[test]
fn snapshot_roundtrip_preserves_query_results() {
    use cbr_index::SnapshotStore;
    use concept_rank::persist::{decode_corpus, decode_ontology, encode_corpus, encode_ontology};

    let dir = std::env::temp_dir().join(format!("cbr-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir);

    let ont = OntologyGenerator::new(GeneratorConfig::small(1_500)).generate();
    let corpus = CorpusGenerator::new(
        &ont,
        CorpusProfile::radio_like().with_num_docs(80).with_mean_concepts(12.0),
    )
    .generate();
    store.save("ontology", &encode_ontology(&ont)).unwrap();
    store.save("corpus", &encode_corpus(&corpus)).unwrap();

    let ont2 = decode_ontology(&store.load("ontology").unwrap()).unwrap();
    let corpus2 = decode_corpus(&store.load("corpus").unwrap(), ont2.len()).unwrap();

    let q: Vec<_> = corpus
        .documents()
        .find(|d| d.num_concepts() >= 3)
        .map(|d| d.concepts()[..3].to_vec())
        .unwrap();
    let src1 = SegmentedView::from_corpus(&corpus);
    let src2 = SegmentedView::from_corpus(&corpus2);
    let r1 = Knds::new(&ont, &src1, KndsConfig::default()).rds(&q, 5);
    let r2 = Knds::new(&ont2, &src2, KndsConfig::default()).rds(&q, 5);
    for (a, b) in r1.results.iter().zip(r2.results.iter()) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.distance, b.distance);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn text_to_query_pipeline() {
    use cbr_corpus::{ConceptExtractor, Corpus, DocId, ExtractorConfig, NoteGenerator};

    let ont = OntologyGenerator::new(GeneratorConfig::small(400)).generate();
    let extractor = ConceptExtractor::new(&ont, ExtractorConfig::default());
    let concepts: Vec<_> = ont.concepts().skip(50).step_by(9).take(6).collect();
    let mut gen = NoteGenerator::new(&ont, 5);
    gen.abbreviation_rate = 0.0; // keep mentions literal for this test
    let note = gen.render(&concepts, &[]);
    let doc = extractor.extract_document(DocId(0), &note);
    for &c in &concepts {
        assert!(doc.contains(c));
    }

    let corpus = Corpus::new(vec![doc]);
    let engine = EngineBuilder::new().build(ont, corpus);
    let r = engine.rds(&concepts, 1).unwrap();
    assert_eq!(r.results[0].distance, 0.0, "note must match its own concepts");
}

#[test]
fn filtering_changes_are_consistent_between_engine_and_manual_path() {
    let ont = OntologyGenerator::new(GeneratorConfig::small(2_000)).generate();
    let corpus = CorpusGenerator::new(
        &ont,
        CorpusProfile::patient_like().with_num_docs(50).with_mean_concepts(40.0),
    )
    .generate();
    let filter = cbr_corpus::ConceptFilter::build(&ont, &corpus, FilterConfig::default());
    let filtered = filter.apply(&corpus);
    let engine = EngineBuilder::new()
        .filter(FilterConfig::default())
        .build(OntologyGenerator::new(GeneratorConfig::small(2_000)).generate(), corpus.clone());
    // Same generator seed -> same ontology -> engine's corpus equals the
    // manually filtered one.
    for (a, b) in engine.corpus().documents().zip(filtered.documents()) {
        assert_eq!(a.concepts(), b.concepts());
    }
}

#[test]
fn dynamic_appends_interact_with_filtering() {
    let mut engine = demo::engine(2_000, 40, 12.0);
    let root = engine.ontology().root();
    let eligible: Vec<_> = engine
        .corpus()
        .documents()
        .flat_map(|d| d.concepts().iter().copied())
        .filter(|&c| engine.eligible(c))
        .take(3)
        .collect();
    // Root is depth-filtered: an appended doc keeps only eligible concepts.
    let mut payload = eligible.clone();
    payload.push(root);
    let id = engine.add_document(payload);
    let stored = engine.document_concepts(id).unwrap();
    assert_eq!(stored.len(), eligible.len());
    assert!(!stored.contains(&root));
}
