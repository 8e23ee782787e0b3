//! Parallel batch query evaluation.
//!
//! Section 6.1 of the paper sketches a MapReduce formulation of kNDS for
//! scale-out; the single-machine analogue is running many queries
//! concurrently over the shared immutable indexes. Query latencies vary
//! wildly (a selective query terminates in two BFS levels, a broad one
//! makes hundreds of exact probes), so static chunking wastes cores — a
//! shared work queue keeps them busy.
//!
//! Workers and queues go through the [`sched::sync`] facade so the
//! `cbr-sched` model checker can explore the runner's interleavings. A
//! worker that panics mid-query reports that slot as
//! [`EngineError::WorkerPanicked`] and carries on with a fresh workspace
//! instead of tearing the whole batch down.

use crate::engine::EngineError;
use crate::snapshot::EngineSnapshot;
use cbr_knds::{KndsWorkspace, QueryKind, QueryResult};
use cbr_ontology::ConceptId;
use sched::sync::{available_parallelism, scope, SegQueue};

impl EngineSnapshot {
    /// Evaluates `queries` — concept sets for [`QueryKind::Rds`], query
    /// documents for [`QueryKind::Sds`] — in parallel across up to
    /// `threads` workers (0 = all available cores). Results come back in input order; each
    /// slot is `Err` exactly when the corresponding sequential call would
    /// have been. The whole batch runs against this one snapshot — every
    /// worker sees the same epoch and no worker ever takes a lock.
    pub fn batch(
        &self,
        kind: QueryKind,
        queries: &[impl AsRef<[ConceptId]> + Sync],
        k: usize,
        threads: usize,
    ) -> Vec<Result<QueryResult, EngineError>> {
        let threads = if threads == 0 { available_parallelism() } else { threads };
        let threads = threads.min(queries.len().max(1));

        let (concepts, docs) = self.workspace_hint();
        if threads <= 1 {
            let mut ws = KndsWorkspace::new();
            ws.reserve(concepts, docs);
            return queries.iter().map(|q| self.query_with(&mut ws, kind, q.as_ref(), k)).collect();
        }

        let work: SegQueue<usize> = SegQueue::new();
        for i in 0..queries.len() {
            work.push(i);
        }
        let mut slots: Vec<Option<Result<QueryResult, EngineError>>> =
            (0..queries.len()).map(|_| None).collect();
        let slot_queue: SegQueue<(usize, Result<QueryResult, EngineError>)> = SegQueue::new();

        scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One workspace per worker, reused across every query
                    // the worker steals: after the first query the worker's
                    // hot loop stops allocating. Pre-sizing the dense tables
                    // moves even the first query's growth out of the loop.
                    let mut ws = KndsWorkspace::new();
                    ws.reserve(concepts, docs);
                    while let Some(i) = work.pop() {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            self.query_with(&mut ws, kind, queries[i].as_ref(), k)
                        }));
                        match run {
                            Ok(r) => slot_queue.push((i, r)),
                            Err(payload) => {
                                // The workspace may hold partial state from
                                // the aborted query; replace it rather than
                                // reuse it dirty.
                                ws = KndsWorkspace::new();
                                ws.reserve(concepts, docs);
                                let msg = panic_text(payload.as_ref());
                                slot_queue.push((i, Err(EngineError::WorkerPanicked(msg))));
                            }
                        }
                    }
                });
            }
        });
        while let Some((i, r)) = slot_queue.pop() {
            slots[i] = Some(r);
        }
        // Every index was pushed to `slot_queue` exactly once (the worker
        // converts panics into `Err` slots), so a `None` here means the
        // drain itself lost a result — report it, don't panic the batch.
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    Err(EngineError::WorkerPanicked("result slot was never filled".into()))
                })
            })
            .collect()
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineBuilder};
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};

    fn engine() -> Engine {
        let ont = OntologyGenerator::new(GeneratorConfig::small(1_500)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(80).with_mean_concepts(10.0),
        )
        .generate();
        EngineBuilder::new().build(ont, corpus)
    }

    fn queries(e: &Engine, n: usize) -> Vec<Vec<ConceptId>> {
        e.corpus()
            .documents()
            .filter(|d| d.num_concepts() >= 2)
            .take(n)
            .map(|d| d.concepts()[..2].to_vec())
            .collect()
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let e = engine();
        let qs = queries(&e, 12);
        let parallel = e.batch(QueryKind::Rds, &qs, 5, 4);
        for (q, out) in qs.iter().zip(&parallel) {
            let seq = e.rds(q, 5).unwrap();
            let par = out.as_ref().unwrap();
            for (a, b) in seq.results.iter().zip(par.results.iter()) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.distance, b.distance);
            }
        }
    }

    #[test]
    fn batch_sds_works_and_reports_errors_positionally() {
        let e = engine();
        let mut qs = queries(&e, 4);
        qs.insert(2, Vec::new()); // empty query -> EmptyQuery error in place
        let out = e.batch(QueryKind::Sds, &qs, 3, 2);
        assert_eq!(out.len(), 5);
        assert!(out[2].is_err());
        for (i, r) in out.iter().enumerate() {
            if i != 2 {
                assert!(r.is_ok(), "slot {i}");
            }
        }
    }

    #[test]
    fn single_thread_path_matches() {
        let e = engine();
        let qs = queries(&e, 3);
        let a = e.batch(QueryKind::Rds, &qs, 4, 1);
        let b = e.batch(QueryKind::Rds, &qs, 4, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.results.len(), y.results.len());
            for (rx, ry) in x.results.iter().zip(y.results.iter()) {
                assert_eq!(rx.doc, ry.doc);
            }
        }
    }

    #[test]
    fn batch_workers_reuse_workspaces() {
        let e = engine();
        let qs = queries(&e, 10);
        let seq = e.batch(QueryKind::Rds, &qs, 3, 1);
        let reused: usize = seq.iter().map(|r| r.as_ref().unwrap().metrics.workspace_reused).sum();
        assert_eq!(reused, qs.len() - 1, "sequential path shares one workspace");
        let par = e.batch(QueryKind::Rds, &qs, 3, 2);
        let reused: usize = par.iter().map(|r| r.as_ref().unwrap().metrics.workspace_reused).sum();
        assert!(reused >= qs.len() - 2, "each worker is cold at most once, got {reused}");
    }

    #[test]
    fn empty_batch_is_empty() {
        let e = engine();
        assert!(e.batch(QueryKind::Rds, &[] as &[Vec<ConceptId>], 5, 0).is_empty());
    }

    /// A query whose concepts cannot be read: the panic comes from the
    /// caller's side of the API, inside the worker that stole the slot.
    struct Unreadable;

    impl AsRef<[ConceptId]> for Unreadable {
        fn as_ref(&self) -> &[ConceptId] {
            panic!("injected: unreadable query")
        }
    }

    #[test]
    fn panicking_worker_reports_slot_instead_of_dropping_it() {
        let e = engine();
        // Every argument error is a typed `Err`, so the panic is
        // injected: each worker unwinds on every slot it steals, and the
        // batch must still return one slot per query, each reporting the
        // panic, rather than unwinding or silently dropping slots.
        let out = e.batch(QueryKind::Rds, &[Unreadable, Unreadable, Unreadable], 3, 3);
        assert_eq!(out.len(), 3);
        for (i, r) in out.iter().enumerate() {
            assert!(
                matches!(r, Err(EngineError::WorkerPanicked(m)) if m.contains("injected")),
                "slot {i} should report the worker panic, got {r:?}"
            );
        }
        // The engine stays healthy for the next (valid) batch.
        let ok = e.batch(QueryKind::Rds, &queries(&e, 6), 3, 2);
        assert!(ok.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn zero_k_is_a_typed_error_in_every_slot() {
        let e = engine();
        let qs = queries(&e, 4);
        for threads in [1, 3] {
            let out = e.batch(QueryKind::Rds, &qs, 0, threads);
            assert_eq!(out.len(), qs.len());
            assert!(out.iter().all(|r| matches!(r, Err(EngineError::ZeroK))), "{out:?}");
        }
    }
}
