//! Save→load as an answering path, and snapshots as hostile input.
//!
//! A reloaded engine is one more way to answer a query, so it is held to
//! the same standard as every other: equal to the engine it was saved
//! from *and* to the brute-force full scan, to the bit. The second half
//! treats the four snapshot files as attacker-controlled bytes: first
//! through the frame (whose checksum must refuse every flip and every
//! torn tail), then re-framed with a fresh checksum so the mutations
//! reach the body decoders, which must refuse them or yield an engine
//! that passes the structural validators — and must never panic.

use cbr_corpus::{Corpus, DocId, FilterConfig};
use cbr_index::snapshot::encode_frame;
use cbr_index::IndexSource;
use cbr_knds::{KndsConfig, RankedDoc};
use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
use concept_rank::persist::{decode_names, encode_names};
use concept_rank::{Engine, EngineBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

fn ontology(seed: u64, n: usize) -> Ontology {
    OntologyGenerator::new(GeneratorConfig::small(n).with_seed(seed)).generate()
}

fn pick_concepts(ont: &Ontology, picks: &[u32]) -> Vec<ConceptId> {
    picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect()
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbr-persistence-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The address set of every concept, in a canonical order.
fn dewey_sets(ont: &Ontology) -> Vec<Vec<Vec<u32>>> {
    let table = ont.path_table();
    ont.concepts()
        .map(|c| {
            let mut addresses: Vec<Vec<u32>> = table.addresses(c).map(<[u32]>::to_vec).collect();
            addresses.sort();
            addresses
        })
        .collect()
}

fn bits(hits: &[RankedDoc]) -> Vec<(usize, u64)> {
    hits.iter().map(|h| (h.doc.index(), h.distance.to_bits())).collect()
}

/// kNDS against the full scan: the same distances to the bit, and the same
/// documents wherever the answer is determined — two exact top-k answers
/// may each keep a different document of a tie at the k-th distance.
fn assert_matches_scan(fast: &[RankedDoc], scan: &[RankedDoc]) -> Result<(), TestCaseError> {
    let distances =
        |hits: &[RankedDoc]| hits.iter().map(|h| h.distance.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(distances(fast), distances(scan));
    let cut = fast.last().map(|h| h.distance.to_bits());
    let decided = |hits: &[RankedDoc]| {
        bits(hits).into_iter().filter(|&(_, d)| Some(d) != cut).collect::<Vec<_>>()
    };
    prop_assert_eq!(decided(fast), decided(scan));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Build, mutate, save, load: the loaded engine answers as the
    /// original did (ids mapped through the save-time compaction) and as
    /// the full scan does, and its ontology renders and addresses alike.
    #[test]
    fn save_load_joins_the_oracle(
        seed in 0u64..500,
        concepts in 40usize..120,
        docs in prop::collection::vec(prop::collection::vec(0u32..10_000, 1..8), 4..24),
        ops in prop::collection::vec(0u8..8, 0..16),
        payloads in prop::collection::vec(prop::collection::vec(0u32..10_000, 0..6), 16..17),
        queries in prop::collection::vec(prop::collection::vec(0u32..10_000, 1..4), 1..4),
        filtered in any::<bool>(),
        eps in 0.0f64..=1.0,
        k in 1usize..6,
    ) {
        let ont = ontology(seed, concepts);
        let corpus = Corpus::from_concept_sets(
            docs.iter().enumerate().map(|(i, d)| (pick_concepts(&ont, d), i as u32)).collect(),
        );
        let mut builder =
            EngineBuilder::new().knds_config(KndsConfig::default().with_error_threshold(eps));
        if filtered {
            builder = builder.filter(FilterConfig { min_depth: 2, cf_sigma: f64::INFINITY });
        }
        let mut original = builder.build(ont, corpus);
        for (op, picks) in ops.iter().zip(&payloads) {
            match op {
                0..=3 => {
                    let concepts = pick_concepts(original.ontology(), picks);
                    original.add_document(concepts);
                }
                4..=6 => {
                    let victim = picks.first().map_or(0, |&p| p as usize % original.num_docs());
                    let _ = original.remove_document(DocId::from_index(victim));
                }
                _ => {
                    original.compact();
                }
            }
        }

        let dir = tmp("oracle");
        original.save(&dir).unwrap();
        let loaded = Engine::load(&dir, None).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        // The save-time compaction: live ids, in order, become 0..m.
        let live: Vec<DocId> =
            (0..original.num_docs()).map(DocId::from_index).filter(|&d| original.is_live(d)).collect();
        let remap = |hits: &[RankedDoc]| -> Vec<(usize, u64)> {
            hits.iter()
                .map(|h| (live.iter().position(|&d| d == h.doc).unwrap(), h.distance.to_bits()))
                .collect()
        };

        prop_assert_eq!(loaded.num_docs(), live.len());
        for (new, &old) in live.iter().enumerate() {
            let new = DocId::from_index(new);
            prop_assert_eq!(
                loaded.document_concepts(new).unwrap(),
                original.document_concepts(old).unwrap()
            );
            let bulk = old.index() < original.corpus().len();
            let tokens = if bulk { original.corpus().get(old).token_count() } else { 0 };
            prop_assert_eq!(loaded.corpus().get(new).token_count(), tokens);
        }
        prop_assert_eq!(loaded.config().error_threshold().to_bits(), eps.to_bits());
        prop_assert_eq!(
            cbr_corpus::io::render_ontology(loaded.ontology()),
            cbr_corpus::io::render_ontology(original.ontology())
        );
        prop_assert_eq!(dewey_sets(loaded.ontology()), dewey_sets(original.ontology()));
        prop_assert!(loaded.ontology().validate().is_ok());

        for picks in &queries {
            // The saved corpus is already filtered and the reload applies
            // no filter of its own, so ask both in eligible concepts only.
            let mut q = pick_concepts(original.ontology(), picks);
            q.retain(|&c| original.eligible(c));
            if q.is_empty() {
                continue;
            }
            let (before, after) = (original.rds(&q, k).unwrap(), loaded.rds(&q, k).unwrap());
            prop_assert_eq!(remap(&before.results), bits(&after.results), "rds {:?}", &q);
            assert_matches_scan(&after.results, &loaded.rds_full_scan(&q, k).unwrap().results)?;
        }
        for (new, &old) in live.iter().enumerate().take(4) {
            let new = DocId::from_index(new);
            match (original.sds_by_doc(old, k), loaded.sds_by_doc(new, k)) {
                (Ok(before), Ok(after)) => {
                    prop_assert_eq!(remap(&before.results), bits(&after.results), "sds {}", old);
                    let doc = loaded.document_concepts(new).unwrap();
                    let scan = loaded.sds_full_scan(&doc, k).unwrap();
                    assert_matches_scan(&after.results, &scan.results)?;
                }
                // An empty document is an error on both sides.
                (Err(_), Err(_)) => {}
                (before, after) => prop_assert!(false, "sds diverged: {:?} vs {:?}", before, after),
            }
        }
    }
}

const FILES: [&str; 4] = ["ontology", "corpus", "config", "names"];

/// A small saved engine plus its `names` sidecar, and the pristine bytes
/// of each of the four files.
fn saved(tag: &str) -> (PathBuf, Vec<Vec<u8>>) {
    let ont = ontology(7, 40);
    let corpus = Corpus::from_concept_sets(
        (0..10u32)
            .map(|i| (pick_concepts(&ont, &[i * 7, i * 13 + 1, i * 29 + 2, i]), 100 + i))
            .collect(),
    );
    let names: Vec<String> = (0..corpus.len()).map(|i| format!("note-{i:02}")).collect();
    let dir = tmp(tag);
    EngineBuilder::new().build(ont, corpus).save(&dir).unwrap();
    cbr_index::SnapshotStore::open(&dir).save("names", &encode_names(&names)).unwrap();
    let files = FILES.iter().map(|f| std::fs::read(dir.join(format!("{f}.snap"))).unwrap());
    let files = files.collect();
    (dir, files)
}

/// What `crank` does to reopen an index: the engine, then the sidecar.
fn load_all(dir: &Path) -> std::io::Result<(Engine, Vec<String>)> {
    let engine = Engine::load(dir, None)?;
    let names = decode_names(&cbr_index::SnapshotStore::open(dir).load("names")?)?;
    Ok((engine, names))
}

/// Whatever loads must be structurally sound: a valid DAG, and a served
/// index whose segments validate and name only concepts of that DAG.
fn assert_sound(engine: &Engine) {
    engine.ontology().validate().expect("loaded ontology validates");
    let source = engine.source();
    source.validate().expect("loaded index validates");
    let mut concepts = Vec::new();
    for d in 0..source.num_docs() {
        source.doc_concepts(DocId::from_index(d), &mut concepts);
    }
    assert!(concepts.iter().all(|c| c.index() < engine.ontology().len()), "concept past the DAG");
}

#[test]
fn every_flip_and_truncation_of_a_snapshot_file_is_invalid_data() {
    let (dir, files) = saved("frames");
    load_all(&dir).expect("pristine snapshot loads");
    for (name, good) in FILES.iter().zip(&files) {
        let path = dir.join(format!("{name}.snap"));
        let refuse = |bytes: &[u8], what: &str, at: usize| {
            std::fs::write(&path, bytes).unwrap();
            let err = load_all(&dir).err().unwrap_or_else(|| panic!("{name}: {what} {at} loaded"));
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{name}: {what} {at}: {err}");
        };
        for at in 0..good.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                refuse(&bad, "flip at", at);
            }
            refuse(&good[..at], "truncation to", at);
        }
        std::fs::write(&path, good).unwrap();
    }
    load_all(&dir).expect("restored snapshot loads again");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn reframed_body_mutations_are_refused_or_sound_and_never_panic() {
    let (dir, files) = saved("bodies");
    let (mut refused, mut accepted) = (0usize, 0usize);
    for (name, good) in FILES.iter().zip(&files) {
        let path = dir.join(format!("{name}.snap"));
        let body = &good[24..];
        let mut attempt = |body: &[u8]| {
            // A fresh, *valid* frame: the checksum no longer hides the decoder.
            std::fs::write(&path, encode_frame(body)).unwrap();
            match load_all(&dir) {
                Ok((engine, _names)) => {
                    assert_sound(&engine);
                    accepted += 1;
                }
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::InvalidData, "{name}: {e}");
                    refused += 1;
                }
            }
        };
        for at in 0..body.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = body.to_vec();
                bad[at] ^= mask;
                attempt(&bad);
            }
            attempt(&body[..at]);
            // A length word of u64::MAX wherever one could sit: refused
            // before anything is reserved, or it was not a length.
            if at + 8 <= body.len() {
                let mut bad = body.to_vec();
                bad[at..at + 8].fill(0xFF);
                attempt(&bad);
            }
        }
        std::fs::write(&path, good).unwrap();
    }
    // Both outcomes occur: most mutations break a length, an id or the
    // DAG; some only rename a label or retitle a document.
    assert!(refused > 0 && accepted > 0, "refused {refused}, accepted {accepted}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// The pinned allocation case, body by body: a leading count of
/// `u64::MAX` (or merely far more than the bytes that follow) is an
/// error from all four decoders, not a reservation.
#[test]
fn absurd_leading_counts_are_refused_by_every_decoder() {
    use concept_rank::persist::{decode_config, decode_corpus, decode_ontology};
    for count in [u64::MAX, u64::MAX / 16, 1 << 40, 3] {
        let mut body = count.to_le_bytes().to_vec();
        body.extend_from_slice(&[0; 16]);
        assert_eq!(decode_ontology(&body).unwrap_err().kind(), ErrorKind::InvalidData);
        assert_eq!(decode_corpus(&body, 8).unwrap_err().kind(), ErrorKind::InvalidData);
        assert_eq!(decode_names(&body).unwrap_err().kind(), ErrorKind::InvalidData);
        assert_eq!(decode_config(&body).unwrap_err().kind(), ErrorKind::InvalidData);
    }
}
