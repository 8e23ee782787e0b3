//! Model-checked harnesses over the engine's concurrent paths.
//!
//! Each harness is a closure the [`sched`] explorer runs under every
//! schedule its strategy produces. A harness returns `Ok(())` when the
//! interleaving it just experienced upheld the invariant it encodes, and
//! `Err(description)` otherwise; the explorer turns the error into a
//! finding tagged with a replayable schedule ID.
//!
//! The honest harnesses cover the three concurrent subsystems:
//!
//! * the [`SharedEngine`] workspace pool (readers racing each other and a
//!   writer),
//! * the snapshot publish/retire protocol (`publish-retire` and
//!   `compact-race`: every racing read answers exactly one epoch's
//!   oracle, and retiring an epoch — even by physical compaction — never
//!   invalidates a reader still pinning it),
//! * the batch runner's work/slot queues (every submission fills exactly
//!   one slot, even when a worker panics mid-query).
//!
//! With the `seeded-races` feature two deliberately broken harnesses are
//! added so CI can prove the checker is not vacuous.

use cbr_corpus::{Corpus, DocId};
use cbr_ontology::{fixture, ConceptId};
use concept_rank::{Engine, EngineBuilder, EngineError, QueryKind, SharedEngine};
use sched::explore::{explore, replay, Exploration, Options, ReplayRun};

/// A named harness plus the closure the explorer drives.
pub struct Harness {
    /// Stable name, used for CLI selection and report rows.
    pub name: &'static str,
    /// One-line description of the invariant being checked.
    pub about: &'static str,
    run: Box<dyn Fn() -> Result<(), String> + Send + Sync>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Harness {
    /// Explores this harness under `opts`.
    pub fn explore(&self, opts: &Options) -> Exploration {
        explore(opts, || (self.run)())
    }

    /// Replays one schedule ID against this harness.
    pub fn replay(&self, opts: &Options, id: &str) -> Result<ReplayRun, String> {
        replay(opts, id, || (self.run)())
    }
}

/// The document sets every harness collection is built from: the paper's
/// Figure 3 worked example plus a few small neighbors.
fn collection_sets(fig: &fixture::Figure3) -> Vec<(Vec<ConceptId>, u32)> {
    let c = |n: &str| fig.concept(n);
    vec![
        (fig.example_document(), 0),
        (fig.example_query(), 0),
        (vec![c("M"), c("N")], 0),
        (vec![c("U"), c("L")], 0),
        (vec![c("G"), c("H")], 0),
    ]
}

/// Builds a tiny engine over the Figure 3 ontology, cheap enough to
/// reconstruct on every explored schedule so the mutable-state harnesses
/// stay hermetic. Returns the engine and the worked example's query.
fn tiny_engine() -> (Engine, Vec<ConceptId>) {
    let fig = fixture::figure3();
    let corpus = Corpus::from_concept_sets(collection_sets(&fig));
    let q = fig.example_query();
    (EngineBuilder::new().build(fig.ontology, corpus), q)
}

/// Port of the PR-2 pool stress test onto the explorer: concurrent readers
/// share the workspace pool; on every interleaving each query succeeds and
/// the pool ends with at least one and at most `READERS` workspaces. The
/// runtime's pool-leak analysis additionally checks every popped workspace
/// is pushed back.
fn pool_stress() -> Harness {
    const READERS: usize = 3;
    const ROUNDS: usize = 2;
    Harness {
        name: "pool-stress",
        about: "workspace pool never exceeds peak concurrency under racing readers",
        run: Box::new(|| {
            let (engine, q) = tiny_engine();
            let shared = SharedEngine::new(engine);
            let mut joins = Vec::new();
            sched::sync::scope(|s| {
                let handles: Vec<_> = (0..READERS)
                    .map(|_| {
                        let sh = shared.clone();
                        let q = q.clone();
                        s.spawn(move || {
                            let mut found = 0;
                            for _ in 0..ROUNDS {
                                found += sh.rds(&q, 2)?.results.len();
                            }
                            Ok::<usize, EngineError>(found)
                        })
                    })
                    .collect();
                joins = handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "reader panicked".to_string()))
                    .collect();
            });
            for j in joins {
                let n = j?.map_err(|e| format!("query failed: {e}"))?;
                if n == 0 {
                    return Err("query returned no results".to_string());
                }
            }
            let pooled = shared.pooled_workspaces();
            if pooled == 0 || pooled > READERS {
                return Err(format!("pool holds {pooled} workspaces for {READERS} readers"));
            }
            Ok(())
        }),
    }
}

/// A reader querying while a writer appends: the paper's point-of-care
/// interleaving. On every schedule the append lands exactly once, the
/// reader sees a consistent snapshot, and the appended exact match ranks
/// first afterwards.
fn pool_writer() -> Harness {
    Harness {
        name: "pool-writer",
        about: "reads stay consistent while a writer appends a document",
        run: Box::new(|| {
            let (engine, q) = tiny_engine();
            let shared = SharedEngine::new(engine);
            let before = shared.num_docs();
            let mut read = Ok(0usize);
            sched::sync::scope(|s| {
                let sh = shared.clone();
                let qq = q.clone();
                let reader = s.spawn(move || sh.rds(&qq, 1).map(|r| r.results.len()));
                let sh = shared.clone();
                let qq = q.clone();
                s.spawn(move || {
                    sh.add_document(qq);
                });
                read = match reader.join() {
                    Ok(r) => r.map_err(|e| format!("reader failed: {e}")),
                    Err(_) => Err("reader panicked".to_string()),
                };
            });
            if read? == 0 {
                return Err("reader saw no documents".to_string());
            }
            if shared.num_docs() != before + 1 {
                return Err(format!(
                    "append lost: {} docs, expected {}",
                    shared.num_docs(),
                    before + 1
                ));
            }
            let r = shared.rds(&q, 1).map_err(|e| e.to_string())?;
            if r.results[0].distance != 0.0 {
                return Err("appended exact match does not rank first".to_string());
            }
            Ok(())
        }),
    }
}

/// The ranking as a comparable value: `(doc, distance)` in rank order.
fn answer(r: &cbr_knds::QueryResult) -> Vec<(DocId, f64)> {
    r.results.iter().map(|d| (d.doc, d.distance)).collect()
}

/// The snapshot/session seam under a racing publish. A reader pins an
/// epoch and queries while the writer appends and publishes. On every
/// interleaving: the concurrent query and the pinned snapshot each answer
/// exactly one epoch's oracle (publishes are atomic — no torn snapshot),
/// and a query issued after the writer finishes sees the new epoch.
/// Retire safety rides along: the pinned snapshot keeps answering its
/// epoch bit-for-bit even once the publish has moved past it.
fn publish_retire() -> Harness {
    const K: usize = 2;
    let (mut oracle, q) = tiny_engine();
    let before = answer(&oracle.rds(&q, K).expect("oracle query"));
    oracle.add_document(q.clone());
    let after = answer(&oracle.rds(&q, K).expect("oracle query"));
    assert_ne!(before, after, "the append must change the top-{K} or the harness is vacuous");
    Harness {
        name: "publish-retire",
        about: "epoch publishes are atomic; retire never invalidates a pinned reader",
        run: Box::new(move || {
            let (engine, _) = tiny_engine();
            let shared = SharedEngine::new(engine);
            let mut read = Err("reader never ran".to_string());
            sched::sync::scope(|s| {
                let sh = shared.clone();
                let qq = q.clone();
                let reader = s.spawn(move || {
                    let pinned = sh.snapshot();
                    let live = answer(&sh.rds(&qq, K)?);
                    let held = answer(&pinned.rds(&qq, K)?);
                    Ok::<_, EngineError>((live, held))
                });
                let sh = shared.clone();
                let qq = q.clone();
                s.spawn(move || {
                    sh.add_document(qq);
                });
                read = match reader.join() {
                    Ok(r) => r.map_err(|e| format!("reader failed: {e}")),
                    Err(_) => Err("reader panicked".to_string()),
                };
            });
            let (live, held) = read?;
            if live != before && live != after {
                return Err("concurrent query answered a torn epoch".to_string());
            }
            if held != before && held != after {
                return Err("pinned snapshot answered a torn epoch".to_string());
            }
            let settled = answer(&shared.rds(&q, K).map_err(|e| e.to_string())?);
            if settled != after {
                return Err("query after the publish missed the appended epoch".to_string());
            }
            Ok(())
        }),
    }
}

/// A query racing delete + physical compaction + publish. The writer
/// tombstones the top-ranked document and compacts — physically dropping
/// it and rewriting segments — while a reader queries a pinned epoch and
/// the live handle. On every interleaving both answers stay
/// oracle-consistent (the collection before the delete, or after it;
/// never a hybrid), proving compaction cannot free a segment out from
/// under a running query.
fn compact_race() -> Harness {
    const K: usize = 2;
    let (mut oracle, q) = tiny_engine();
    let before = answer(&oracle.rds(&q, K).expect("oracle query"));
    let victim = before[0].0;
    oracle.remove_document(victim).expect("victim is live");
    assert!(oracle.compact(), "the tombstone must force a physical rewrite");
    let after = answer(&oracle.rds(&q, K).expect("oracle query"));
    assert_ne!(before, after, "the delete must change the top-{K} or the harness is vacuous");
    Harness {
        name: "compact-race",
        about: "queries racing delete+compact+publish stay oracle-consistent",
        run: Box::new(move || {
            let (engine, _) = tiny_engine();
            let shared = SharedEngine::new(engine);
            let mut read = Err("reader never ran".to_string());
            let mut wrote = Err("writer never ran".to_string());
            sched::sync::scope(|s| {
                let sh = shared.clone();
                let qq = q.clone();
                let reader = s.spawn(move || {
                    let pinned = sh.snapshot();
                    let live = answer(&sh.rds(&qq, K)?);
                    let held = answer(&pinned.rds(&qq, K)?);
                    Ok::<_, EngineError>((live, held))
                });
                let sh = shared.clone();
                let writer = s.spawn(move || {
                    sh.remove_document(victim)?;
                    sh.compact();
                    Ok::<_, EngineError>(())
                });
                read = match reader.join() {
                    Ok(r) => r.map_err(|e| format!("reader failed: {e}")),
                    Err(_) => Err("reader panicked".to_string()),
                };
                wrote = match writer.join() {
                    Ok(r) => r.map_err(|e| format!("writer failed: {e}")),
                    Err(_) => Err("writer panicked".to_string()),
                };
            });
            wrote?;
            let (live, held) = read?;
            if live != before && live != after {
                return Err("concurrent query answered a torn epoch".to_string());
            }
            if held != before && held != after {
                return Err("pinned snapshot answered a torn epoch".to_string());
            }
            let settled = shared.snapshot();
            if settled.is_live(victim) {
                return Err("victim still live after delete+compact".to_string());
            }
            if answer(&settled.rds(&q, K).map_err(|e| e.to_string())?) != after {
                return Err("query after the compaction missed the compacted epoch".to_string());
            }
            Ok(())
        }),
    }
}

/// Every batch submission yields exactly one result slot, in input order,
/// matching the sequential answer — under every interleaving of the
/// work-stealing workers.
fn batch_slots() -> Harness {
    let fig = fixture::figure3();
    let c = |n: &str| fig.concept(n);
    let queries =
        vec![fig.example_query(), vec![c("M"), c("N")], vec![c("F"), c("R")], vec![c("G")]];
    let corpus = Corpus::from_concept_sets(collection_sets(&fig));
    let engine = EngineBuilder::new().build(fig.ontology, corpus);
    let expected: Vec<Vec<(DocId, f64)>> = engine
        .batch(QueryKind::Rds, &queries, 2, 1)
        .into_iter()
        .map(|r| {
            r.expect("sequential batch succeeds")
                .results
                .iter()
                .map(|d| (d.doc, d.distance))
                .collect()
        })
        .collect();
    Harness {
        name: "batch-slots",
        about: "each batch submission fills exactly one slot with the sequential answer",
        run: Box::new(move || {
            let out = engine.batch(QueryKind::Rds, &queries, 2, 3);
            if out.len() != queries.len() {
                return Err(format!("{} slots for {} queries", out.len(), queries.len()));
            }
            for (i, (slot, want)) in out.iter().zip(&expected).enumerate() {
                let got = slot.as_ref().map_err(|e| format!("slot {i} failed: {e}"))?;
                let got: Vec<(DocId, f64)> =
                    got.results.iter().map(|d| (d.doc, d.distance)).collect();
                if &got != want {
                    return Err(format!("slot {i} diverged from the sequential answer"));
                }
            }
            Ok(())
        }),
    }
}

/// A query whose concepts cannot be read: the caller-side panic the
/// poison harness injects into the worker that stole the slot.
struct Unreadable;

impl AsRef<[ConceptId]> for Unreadable {
    fn as_ref(&self) -> &[ConceptId] {
        panic!("injected: unreadable query")
    }
}

/// Model-checked regression for the poisoned-slot path: every worker
/// panics on every slot it steals (injected — each argument error is a
/// typed `Err`), and on every interleaving the batch must still return
/// one `WorkerPanicked` slot per query instead of dropping slots or
/// unwinding.
fn batch_poison() -> Harness {
    let fig = fixture::figure3();
    let corpus = Corpus::from_concept_sets(collection_sets(&fig));
    let engine = EngineBuilder::new().build(fig.ontology, corpus);
    Harness {
        name: "batch-poison",
        about: "a worker panicking mid-query reports its slot, never drops it",
        run: Box::new(move || {
            let queries = [Unreadable, Unreadable, Unreadable];
            let out = engine.batch(QueryKind::Rds, &queries, 2, 3);
            if out.len() != queries.len() {
                return Err(format!("{} slots for {} queries", out.len(), queries.len()));
            }
            for (i, slot) in out.iter().enumerate() {
                match slot {
                    Err(EngineError::WorkerPanicked(_)) => {}
                    other => {
                        return Err(format!(
                            "slot {i} should report the worker panic, got {other:?}"
                        ))
                    }
                }
            }
            Ok(())
        }),
    }
}

/// Seeded bug: a read-modify-write that drops the lock between the read
/// and the write. Two threads both read 0 on some schedule and the final
/// count is 1 — the checker must find that schedule and print its ID.
#[cfg(feature = "seeded-races")]
fn seeded_unlock_race() -> Harness {
    use sched::sync::{Arc, Mutex};
    Harness {
        name: "seeded-unlock-race",
        about: "SEEDED BUG: lock released between read and write loses an update",
        run: Box::new(|| {
            let n = Arc::new(Mutex::new(0usize));
            sched::sync::scope(|s| {
                for _ in 0..2 {
                    let n = n.clone();
                    s.spawn(move || {
                        // Bug: the guard is dropped after the read, so the
                        // increment spans two critical sections.
                        let v = *n.lock();
                        *n.lock() = v + 1;
                    });
                }
            });
            let v = *n.lock();
            if v != 2 {
                return Err(format!("lost update: counter is {v}, expected 2"));
            }
            Ok(())
        }),
    }
}

/// Seeded bug: two threads acquire the same two locks in opposite orders.
/// Some schedule deadlocks outright, and the cross-schedule lock-order
/// graph contains a cycle either way.
#[cfg(feature = "seeded-races")]
fn seeded_lock_inversion() -> Harness {
    use sched::sync::{Arc, Mutex};
    Harness {
        name: "seeded-lock-inversion",
        about: "SEEDED BUG: opposite lock orders deadlock on some schedule",
        run: Box::new(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            sched::sync::scope(|s| {
                let (a1, b1) = (a.clone(), b.clone());
                s.spawn(move || {
                    let _ga = a1.lock();
                    let _gb = b1.lock();
                });
                let (a2, b2) = (a.clone(), b.clone());
                s.spawn(move || {
                    let _gb = b2.lock();
                    let _ga = a2.lock();
                });
            });
            Ok(())
        }),
    }
}

/// All harnesses in reporting order. The seeded-bug harnesses appear only
/// under the `seeded-races` feature.
pub fn registry() -> Vec<Harness> {
    #[cfg_attr(not(feature = "seeded-races"), allow(unused_mut))]
    let mut all = vec![
        pool_stress(),
        pool_writer(),
        publish_retire(),
        compact_race(),
        batch_slots(),
        batch_poison(),
    ];
    #[cfg(feature = "seeded-races")]
    {
        all.push(seeded_unlock_race());
        all.push(seeded_lock_inversion());
    }
    all
}
