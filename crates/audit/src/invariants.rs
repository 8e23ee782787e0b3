//! The structural-invariant half of the audit: run every `validate()`
//! over deterministic generated corpora, prove the validators catch
//! injected corruption, and stress the shared workspace pool.
//!
//! Everything here is seeded — two runs of `cbr-audit invariants` do the
//! same work and reach the same verdict.

use crate::report::{Finding, Stat, Stats};
use crate::ParsedWorkspace;
use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile, DocId};
use cbr_dradix::DRadixDag;
use cbr_ontology::{ConceptId, GeneratorConfig, Ontology, OntologyGenerator};
use concept_rank::{Engine, EngineBuilder, SharedEngine};

const SEEDS: [u64; 3] = [7, 42, 20_140_324];

fn generated(seed: u64) -> (Ontology, Corpus) {
    let ont = OntologyGenerator::new(GeneratorConfig::small(600).with_seed(seed)).generate();
    let corpus = CorpusGenerator::new(
        &ont,
        CorpusProfile::radio_like().with_num_docs(40).with_mean_concepts(6.0),
    )
    .generate();
    (ont, corpus)
}

/// One invariant check: `Err` carries what was violated.
type Check = fn() -> Result<(), String>;

/// The invariant suite, by check name (the `file` of an `INV` finding).
const CHECKS: [(&str, Check); 6] = [
    ("ontology-validate", ontology_validate),
    ("index-validate", index_validate),
    ("dradix-validate", dradix_validate),
    ("dradix-catches-corruption", dradix_catches_corruption),
    ("snapshot-frame-roundtrip", snapshot_frame_roundtrip),
    ("workspace-pool-stress", workspace_pool_stress),
];

/// The invariants gate: runs the full suite (it generates its own
/// corpora, so the parsed workspace goes unused) and reports each failed
/// check as an `INV` finding.
pub fn gate(_pw: &ParsedWorkspace, _fixtures: bool) -> (Vec<Finding>, Stats) {
    let findings = CHECKS
        .iter()
        .filter_map(|(name, check)| check().err().map(|msg| Finding::new("INV", name, 0, msg)))
        .collect();
    (findings, vec![("checks", Stat::Int(CHECKS.len()))])
}

/// Generated ontologies satisfy the graph and Dewey-path validators.
fn ontology_validate() -> Result<(), String> {
    for seed in SEEDS {
        let (ont, _) = generated(seed);
        ont.validate().map_err(|v| format!("seed {seed}: graph violations {v:?}"))?;
        ont.validate_paths().map_err(|v| format!("seed {seed}: path violations {v:?}"))?;
    }
    Ok(())
}

/// Appends per seed in [`index_validate`], in batches of [`BATCH`]: enough
/// to cross the default 512-document memtable seal.
const APPENDS: usize = 600;
/// Appends between two validations, except in the batch that crosses
/// the seal, which validates after every append.
const BATCH: usize = 50;
/// Deletes per seed in [`index_validate`].
const DELETES: usize = 40;

/// The index an engine serves validates after every write it takes:
/// appends that seal the memtable, deletes, and a merging compaction.
/// Around the seal, every step also keeps the memtable in at most
/// ⌊log₂ m⌋ + 1 tail chunks for `m` memtable documents.
fn index_validate() -> Result<(), String> {
    for seed in SEEDS {
        let (ont, corpus) = generated(seed);
        let pool: Vec<Vec<ConceptId>> = corpus.documents().map(|d| d.concepts().to_vec()).collect();
        let mut engine = EngineBuilder::new().build(ont, corpus);
        let seal_at = engine.writer().policy().seal_threshold;
        let valid = |engine: &Engine, step: &str| {
            let writer = engine.writer();
            let (chunks, depth) = (writer.tail_chunks(), writer.memtable_len());
            if chunks > depth.checked_ilog2().map_or(0, |log| log as usize + 1) {
                return Err(format!("seed {seed}, after {step}: {chunks} chunks for {depth} docs"));
            }
            engine
                .snapshot()
                .source()
                .validate()
                .map_err(|v| format!("seed {seed}, after {step}: index violations {v:?}"))
        };
        valid(&engine, "the build")?;
        // A seeded LCG picks what to append and whom to delete.
        let mut state = seed;
        let mut pick = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for batch in 0..APPENDS / BATCH {
            let crosses_seal = (batch * BATCH..(batch + 1) * BATCH).contains(&(seal_at - 1));
            for i in 0..BATCH {
                engine.add_document(pool[pick(pool.len())].clone());
                if crosses_seal {
                    valid(&engine, &format!("append {} of batch {batch}", i + 1))?;
                }
            }
            valid(&engine, &format!("append batch {batch}"))?;
        }
        if engine.writer().seals() == 0 {
            return Err(format!("seed {seed}: {APPENDS} appends sealed no segment"));
        }
        for _ in 0..DELETES {
            let victim = DocId::from_index(pick(engine.num_docs()));
            if engine.is_live(victim) {
                engine.remove_document(victim).map_err(|e| format!("seed {seed}: {e}"))?;
                valid(&engine, &format!("deleting {victim}"))?;
            }
        }
        if !engine.compact() || engine.num_segments() != 1 {
            return Err(format!("seed {seed}: compact() merged nothing"));
        }
        valid(&engine, "compact()")?;
    }
    Ok(())
}

/// Document/query pairs sampled per seed.
fn doc_query_pairs(corpus: &Corpus) -> Vec<(Vec<ConceptId>, Vec<ConceptId>)> {
    let docs: Vec<Vec<ConceptId>> =
        corpus.documents().map(|d| d.concepts().to_vec()).filter(|c| !c.is_empty()).collect();
    docs.windows(2)
        .take(6)
        .map(|w| {
            let query: Vec<ConceptId> = w[1].iter().copied().take(4).collect();
            (w[0].clone(), query)
        })
        .collect()
}

/// Tuned D-Radix DAGs pass the full validator (structure, downward
/// fixpoint, re-derived tuning, and brute-force distance spot checks).
fn dradix_validate() -> Result<(), String> {
    for seed in SEEDS {
        let (ont, corpus) = generated(seed);
        for (doc, query) in doc_query_pairs(&corpus) {
            let mut dag = DRadixDag::build(&ont, &doc, &query);
            dag.tune();
            dag.validate(&ont, &doc, &query)
                .map_err(|v| format!("seed {seed}: dag violations {v:?}"))?;
        }
    }
    Ok(())
}

/// The validator is not vacuous: injected corruption must be reported.
fn dradix_catches_corruption() -> Result<(), String> {
    let (ont, corpus) = generated(SEEDS[0]);
    let mut inflated = 0usize;
    let mut broken = 0usize;
    for (doc, query) in doc_query_pairs(&corpus) {
        let mut dag = DRadixDag::build(&ont, &doc, &query);
        dag.tune();
        if dag.corrupt_inflate_distance() {
            inflated += 1;
            if dag.validate(&ont, &doc, &query).is_ok() {
                return Err("inflated distance slipped past validate()".into());
            }
        }
        let mut dag = DRadixDag::build(&ont, &doc, &query);
        dag.tune();
        if dag.corrupt_break_compression(&ont) {
            broken += 1;
            if dag.validate_structure().is_ok() {
                return Err("broken path compression slipped past validate_structure()".into());
            }
        }
    }
    if inflated == 0 || broken == 0 {
        return Err(format!(
            "corruption injectors found no target (inflated {inflated}, broken {broken}) — \
             corpus too small to prove detection"
        ));
    }
    Ok(())
}

/// Snapshot frames round-trip and detect single-bit corruption at every
/// byte position of a real encoded body.
fn snapshot_frame_roundtrip() -> Result<(), String> {
    use cbr_index::snapshot::{decode_frame, encode_frame};
    let (_, corpus) = generated(SEEDS[1]);
    let body: Vec<u8> = corpus
        .documents()
        .flat_map(|d| d.concepts().iter().map(|c| (c.index() % 251) as u8).collect::<Vec<u8>>())
        .take(512)
        .collect();
    let framed = encode_frame(&body);
    let back = decode_frame(&framed).map_err(|e| format!("roundtrip failed: {e}"))?;
    if back != body.as_slice() {
        return Err("roundtrip returned different bytes".into());
    }
    for at in 0..framed.len() {
        let mut bad = framed.clone();
        bad[at] ^= 0x40;
        if let Ok(b) = decode_frame(&bad) {
            // Flipping a bit inside the stored length can still yield a
            // shorter frame with a matching checksum only if the checksum
            // also collides — treat any silent acceptance as a failure.
            if b == body.as_slice() {
                return Err(format!("bit flip at byte {at} was silently accepted"));
            }
            return Err(format!("bit flip at byte {at} decoded to different bytes"));
        }
    }
    Ok(())
}

/// The shared workspace pool never exceeds peak concurrency, and a
/// panicked query drops (never re-pools) its workspace.
fn workspace_pool_stress() -> Result<(), String> {
    let (ont, corpus) = generated(SEEDS[2]);
    let query: Vec<ConceptId> = corpus
        .documents()
        .find_map(|d| (d.num_concepts() >= 2).then(|| d.concepts()[..2].to_vec()))
        .ok_or("generated corpus has no 2-concept document")?;
    let engine = EngineBuilder::new().build(ont, corpus);
    let shared = SharedEngine::new(engine);

    const THREADS: usize = 4;
    const ROUNDS: usize = 8;
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let s = shared.clone();
            let q = query.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    s.rds(&q, 3).expect("stress query failed");
                }
            });
        }
    });
    let pooled = shared.pooled_workspaces();
    if pooled > THREADS {
        return Err(format!("pool leaked: {pooled} workspaces for {THREADS} threads"));
    }
    if pooled == 0 {
        return Err("no workspace returned to the pool".into());
    }

    // Poison: a panic while a workspace is checked out (injected — every
    // argument error is a typed `Err`); the workspace must be dropped, not
    // returned.
    let before = shared.pooled_workspaces();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.with_session(|_, _| panic!("injected"));
    }))
    .is_err();
    std::panic::set_hook(prev_hook);
    if !panicked {
        return Err("the session's panic should propagate (poison probe)".into());
    }
    if shared.pooled_workspaces() != before - 1 {
        return Err("poisoned workspace was returned to the pool".into());
    }
    let r = shared.rds(&query, 3).map_err(|e| format!("query after poison failed: {e}"))?;
    if r.results.is_empty() {
        return Err("query after poison returned no results".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_invariant_suite_passes() {
        let (findings, stats) = gate(&crate::testkit::parsed(&[]), false);
        assert!(findings.is_empty(), "invariant failures: {findings:?}");
        assert_eq!(stats, [("checks", Stat::Int(6))]);
    }
}
