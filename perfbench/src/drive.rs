//! The load: one closed-loop reader and one writer, both replaying fixed
//! operation lists through the public `SharedEngine` API. Beside the
//! reader the writer is open-loop, paced like a feed; after it, it is
//! closed-loop. At most these two threads ever run (the machine has 2
//! cores).

use crate::workload::{Query, WriteOp, K, WRITES_PER_SEC};
use cbr_corpus::DocId;
use cbr_knds::QueryResult;
use concept_rank::{EngineError, SharedEngine};
use std::time::{Duration, Instant};

/// Runs one query through the public API.
pub fn call(shared: &SharedEngine, query: &Query) -> Result<QueryResult, EngineError> {
    match query {
        Query::Rds(concepts) => shared.rds(concepts, K),
        Query::SdsByDoc(doc) => shared.sds_by_doc(*doc, K),
    }
}

/// Runs `pass` (given its index) at least once, then again only while
/// one more pass of the same length is projected to end within `seconds`:
/// a pass is never cut short, so the operation mix is the same whatever
/// the duration. Returns the passes and when the loop started and ended.
pub fn whole_passes<T>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> T,
) -> (Vec<T>, (Instant, Instant)) {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let pass_start = Instant::now();
        passes.push(pass(passes.len()));
        if start.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > seconds {
            return (passes, (start, Instant::now()));
        }
    }
}

/// What the reader saw.
#[derive(Debug)]
pub struct ReadLog {
    /// `latency_ms[p][i]`: wall time of query `i` in pass `p`.
    pub latency_ms: Vec<Vec<f64>>,
    /// First-pass results (empty for a failed call), for the digest.
    pub results: Vec<QueryResult>,
    /// Calls made.
    pub attempted: usize,
    /// Calls that returned `Err`.
    pub errors: usize,
    /// Later-pass results that differed from the first pass.
    pub unstable: usize,
}

/// Replays `queries` in [`whole_passes`] from one closed-loop client,
/// timing each public call. `compare_passes` checks later passes against
/// the first (off beside a writer, where the collection moves).
pub fn run_reader(
    shared: &SharedEngine,
    queries: &[Query],
    seconds: f64,
    compare_passes: bool,
) -> ReadLog {
    let mut results: Vec<QueryResult> = Vec::with_capacity(queries.len());
    let (mut errors, mut unstable) = (0, 0);
    let (latency_ms, _) = whole_passes(seconds, |pass| {
        let mut latency = Vec::with_capacity(queries.len());
        for (i, query) in queries.iter().enumerate() {
            let t = Instant::now();
            let result = std::hint::black_box(call(shared, std::hint::black_box(query)));
            latency.push(t.elapsed().as_secs_f64() * 1e3);
            let result = result.unwrap_or_else(|_| {
                errors += 1;
                QueryResult { results: Vec::new(), metrics: Default::default() }
            });
            if pass == 0 {
                results.push(result);
            } else if compare_passes
                && !crate::oracle::same_ranking(&result.results, &results[i].results)
            {
                unstable += 1;
            }
        }
        latency
    });
    let attempted = latency_ms.len() * queries.len();
    ReadLog { latency_ms, results, attempted, errors, unstable }
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Wall time of each `add_document` call, publish included.
    pub add_us: Vec<f64>,
    /// Wall time of each `remove_document` call.
    pub remove_us: Vec<f64>,
    /// Wall time of each `compact` call.
    pub compact_ms: Vec<f64>,
    /// Publish done − due instant, per append (closed-loop: the call's
    /// own wall time).
    pub lag_ms: Vec<f64>,
    /// Call start − due instant, per append: how late the generator ran
    /// (closed-loop: 0).
    pub lateness_ms: Vec<f64>,
    /// Calls made.
    pub attempted: usize,
    /// `remove_document` calls that returned `Err`.
    pub errors: usize,
    /// When the script started and ended.
    pub span: Option<(Instant, Instant)>,
}

impl WriteLog {
    /// Wall time of the whole script.
    pub fn wall(&self) -> Duration {
        self.span.map_or(Duration::ZERO, |(a, b)| b - a)
    }

    /// Share of the script's wall time spent inside `compact()`: while it
    /// runs, no new record can become visible.
    pub fn stalled_share(&self) -> f64 {
        self.compact_ms.iter().sum::<f64>() / 1e3 / self.wall().as_secs_f64().max(1e-9)
    }
}

/// Replays the write script. `paced` is open-loop: append `j` is due
/// `j / rate` seconds after the start whatever happened to the ones
/// before it, and its removal and compaction follow it at once. The
/// writer spins until an append is due: when it slept, each call ran on a
/// core that had just gone idle, and `write_p50_us` read 65–85 µs from
/// run to run against 62–64 µs spinning. Unpaced is closed-loop, one call
/// after the other.
pub fn run_writer(shared: &SharedEngine, script: &[WriteOp], paced: bool) -> WriteLog {
    let mut log = WriteLog::default();
    let mut appended: Vec<DocId> = Vec::new();
    let start = Instant::now();
    let mut appends = 0u64;
    for op in script {
        log.attempted += 1;
        match op {
            WriteOp::Append(concepts) => {
                let concepts = concepts.clone();
                let due = if paced {
                    start + Duration::from_nanos(appends * 1_000_000_000 / WRITES_PER_SEC)
                } else {
                    Instant::now()
                };
                appends += 1;
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let t = Instant::now();
                appended.push(shared.add_document(concepts));
                let done = Instant::now();
                log.add_us.push((done - t).as_secs_f64() * 1e6);
                log.lateness_ms.push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
                log.lag_ms.push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            WriteOp::RemoveAppended(n) => {
                let victim = appended.swap_remove(*n);
                let t = Instant::now();
                let removed = shared.remove_document(victim);
                log.remove_us.push(t.elapsed().as_secs_f64() * 1e6);
                log.errors += usize::from(removed.is_err());
            }
            WriteOp::Compact => {
                let t = Instant::now();
                shared.compact();
                log.compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    log.span = Some((start, Instant::now()));
    log
}

/// Runs `reader`, and the write script beside it (`concurrent`, paced)
/// or after it (closed-loop). Beside it, once `reader` is done the same
/// thread keeps replaying `queries` untimed until the script ends, so
/// every write of the script runs beside a reader: compactions that ran
/// after the reader had stopped took 0.3–0.6 s against 0.18 s beside it
/// (the idle session pinned the old segments, so each merge allocated
/// fresh pages), and `core.write_stalled_share` swung 24 % between runs.
pub fn run_load<R>(
    shared: &SharedEngine,
    queries: &[Query],
    script: &[WriteOp],
    concurrent: bool,
    reader: impl FnOnce() -> R,
) -> (R, WriteLog) {
    if concurrent {
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| run_writer(shared, script, true));
            let read = reader();
            for query in queries.iter().cycle() {
                if writer.is_finished() {
                    break;
                }
                let _ = std::hint::black_box(call(shared, query));
            }
            (read, writer.join().expect("writer thread panicked"))
        })
    } else {
        (reader(), run_writer(shared, script, false))
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
