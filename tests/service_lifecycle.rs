//! A deployment-shaped integration test: concurrent querying, on-the-fly
//! adds and deletes, checkpointing, and restart — the point-of-care story
//! of Section 1 exercised end to end.

use concept_rank::{Engine, QueryKind, SharedEngine};
use concept_rank_repro::demo;

fn queries(e: &Engine, n: usize) -> Vec<Vec<cbr_ontology::ConceptId>> {
    e.corpus()
        .documents()
        .filter(|d| d.num_concepts() >= 2)
        .take(n)
        .map(|d| d.concepts()[..2].to_vec())
        .collect()
}

#[test]
fn full_service_lifecycle() {
    let engine = demo::engine(2_500, 120, 14.0);
    let qs = queries(&engine, 6);

    // 1. Parallel batch answers match sequential.
    let batch = engine.batch(QueryKind::Rds, &qs, 5, 0);
    for (q, out) in qs.iter().zip(&batch) {
        let seq = engine.rds(q, 5).unwrap();
        let par = out.as_ref().unwrap();
        for (a, b) in seq.results.iter().zip(par.results.iter()) {
            assert_eq!(a.distance, b.distance);
        }
    }

    // 2. Concurrent reads while a writer admits and discharges patients.
    let shared = SharedEngine::new(engine);
    let admitted = std::thread::scope(|scope| {
        for q in &qs {
            let s = shared.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    assert!(!s.rds(q, 3).unwrap().results.is_empty());
                }
            });
        }
        let s = shared.clone();
        let payload = qs[0].clone();
        scope.spawn(move || s.add_document(payload)).join().unwrap()
    });
    assert!(shared.with_engine(|e| e.is_live(admitted)));

    // 3. The admitted record dominates its own query.
    let r = shared.rds(&qs[0], 1).unwrap();
    assert_eq!(r.results[0].distance, 0.0);
    shared.with_engine(|e| assert!(e.is_live(admitted)));

    // 4. Checkpoint and restart: same answers, appended doc folded in.
    let dir = std::env::temp_dir().join(format!("cbr-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    shared.with_engine(|e| e.save(&dir)).unwrap();
    let mut restarted = Engine::load(&dir, None).unwrap();
    assert_eq!(restarted.num_docs(), shared.num_docs());
    for q in &qs {
        let a = shared.rds(q, 4).unwrap();
        let b = restarted.rds(q, 4).unwrap();
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.distance, y.distance, "restart changed a ranking");
        }
    }

    // 5. Deletion after restart: the admitted record leaves the results.
    let hit = restarted.rds(&qs[0], 1).unwrap().results[0].doc;
    restarted.remove_document(hit).unwrap();
    let after = restarted.rds(&qs[0], 3).unwrap();
    assert!(after.results.iter().all(|r| r.doc != hit));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tuning_then_querying_is_exact() {
    let mut engine = demo::engine(2_000, 80, 10.0);
    let qs = queries(&engine, 4);
    let chosen = engine.auto_tune(cbr_knds::QueryKind::Rds, &qs, 5).unwrap();
    assert!((0.0..=1.0).contains(&chosen));
    for q in &qs {
        let fast = engine.rds(q, 5).unwrap();
        let slow = engine.rds_full_scan(q, 5).unwrap();
        for (a, b) in fast.results.iter().zip(slow.results.iter()) {
            assert_eq!(a.distance, b.distance);
        }
    }
}
