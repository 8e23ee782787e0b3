//! The traced run's instruments: spans recorded from the benchmark's own
//! files around the calls into each layer, never inside the program.
//!
//! One traced query is decomposed by running it at successively lower
//! public entry points and differencing, because the layers below
//! `SharedEngine` carry no spans of their own:
//!
//! ```text
//! A  SharedEngine::rds                      wall of the public call
//! B  EngineSnapshot::rds_with (pinned)      A − B = core.session_us
//! C  Knds::rds_with on the eligible query   B − C = core.normalize_us
//! D  the same over TracedSource             knds.query_us, index.* inside it
//! E  rds_traced_with, then the DRC probes   dradix.* on exactly the
//!    it reports replayed one by one         documents kNDS probed
//! ```
//!
//! An untimed primer run through the same entry point precedes A, and
//! another precedes B to D, so all four find the query's data and their
//! workspace equally warm; `trace.query_p50_ms` is therefore a warm figure
//! and may read below the untraced `query_p50_ms`.

use crate::oracle::query_concepts;
use crate::workload::{Query, K};
use cbr_corpus::DocId;
use cbr_dradix::{DagScratch, Drc};
use cbr_index::IndexSource;
use cbr_knds::{Knds, KndsWorkspace, QueryMetrics, QueryResult, TraceEvent};
use cbr_ontology::ConceptId;
use concept_rank::{EngineSnapshot, SharedEngine};
use std::cell::Cell;
use std::time::Instant;

/// How many probed DAGs per query are rebuilt once more, untimed, to read
/// their node count.
const DAG_STATS_PER_QUERY: usize = 4;

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for an operation's root); spans of one operation share `op`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Operation id: 0 for set-up and the write script, `i + 1` for
    /// query `i` of the traced list.
    pub op: u32,
    /// Span id, unique within the run, from 1.
    pub id: u32,
    /// Causing span, 0 for none.
    pub parent: u32,
    /// `layer.what`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Calls folded into this span: 1 for a plain interval; for the
    /// `index.*` aggregates the number of calls whose busy time
    /// `end − start` sums (they are too many to keep one by one).
    pub calls: u64,
}

/// In-memory span store, written out once at the end of the run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Recorder {
    /// Runs `f` inside a span and returns its result, the span's id and
    /// its duration in ns.
    pub fn span<R>(
        &mut self,
        op: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32, u64) {
        let id = self.open(op, parent, name);
        let r = f();
        self.close(id);
        let span = &self.spans[id as usize - 1];
        (r, id, span.end_ns - span.start_ns)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, mut span: Span) -> u32 {
        span.id = self.spans.len() as u32 + 1;
        self.spans.push(span);
        span.id
    }

    /// Opens a span now; [`Recorder::close`] sets its end.
    fn open(&mut self, op: u32, parent: u32, name: &'static str) -> u32 {
        let now = self.now_ns();
        self.push(Span { op, id: 0, parent, name, start_ns: now, end_ns: now, calls: 1 })
    }

    /// Ends span `id` now.
    fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Records `calls` calls of `busy_ns` in all under span `parent`, as
    /// one aggregate span starting where the parent starts.
    fn aggregate(&mut self, parent: u32, name: &'static str, busy_ns: u64, calls: u64) {
        let Span { op, start_ns, .. } = self.spans[parent as usize - 1];
        self.push(Span { op, id: 0, parent, name, start_ns, end_ns: start_ns + busy_ns, calls });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.op,
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls
            );
        }
        out
    }
}

/// Counts and busy time of the index calls kNDS makes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounters {
    /// `postings` calls.
    pub postings_calls: u64,
    /// Documents those calls returned.
    pub postings_docs: u64,
    /// Time inside them.
    pub postings_ns: u64,
    /// `doc_concepts` calls.
    pub doc_concepts_calls: u64,
    /// Concepts those calls returned.
    pub doc_concepts_items: u64,
    /// Time inside them.
    pub doc_concepts_ns: u64,
}

/// An [`IndexSource`] decorator that counts and times the two calls that
/// move data and passes everything through unchanged.
#[derive(Debug)]
pub struct TracedSource<'a, S: IndexSource> {
    inner: &'a S,
    counters: Cell<IndexCounters>,
}

impl<'a, S: IndexSource> TracedSource<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a S) -> Self {
        TracedSource { inner, counters: Cell::new(IndexCounters::default()) }
    }

    /// The counters so far.
    pub fn counters(&self) -> IndexCounters {
        self.counters.get()
    }
}

impl<S: IndexSource> IndexSource for TracedSource<'_, S> {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.postings(c, out);
        let ns = t.elapsed().as_nanos() as u64;
        let mut k = self.counters.get();
        k.postings_calls += 1;
        k.postings_docs += (out.len() - before) as u64;
        k.postings_ns += ns;
        self.counters.set(k);
    }

    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.doc_concepts(d, out);
        let ns = t.elapsed().as_nanos() as u64;
        let mut k = self.counters.get();
        k.doc_concepts_calls += 1;
        k.doc_concepts_items += (out.len() - before) as u64;
        k.doc_concepts_ns += ns;
        self.counters.set(k);
    }

    fn doc_len(&self, d: DocId) -> usize {
        self.inner.doc_len(d)
    }

    fn num_docs(&self) -> usize {
        self.inner.num_docs()
    }

    fn is_live(&self, d: DocId) -> bool {
        self.inner.is_live(d)
    }
}

/// Reusable scratch of the traced run, warm after the first query.
#[derive(Debug, Default)]
pub struct TraceScratch {
    ws: KndsWorkspace,
    dag: DagScratch,
}

/// The decomposition of one query. Times in ns.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// A: the public call.
    pub public_ns: u64,
    /// B: the pinned snapshot with a bench-owned warm workspace.
    pub snapshot_ns: u64,
    /// C: kNDS on the already-eligible query.
    pub knds_ns: u64,
    /// D: the same over [`TracedSource`].
    pub knds_traced_ns: u64,
    /// Index calls inside D.
    pub index: IndexCounters,
    /// DRC probes replayed.
    pub probe_calls: u64,
    /// Their total time.
    pub probe_ns: u64,
    /// Node counts of the DAGs sampled.
    pub dag_nodes: Vec<usize>,
    /// Work counters kNDS returned for C.
    pub metrics: QueryMetrics,
    /// Whether A, B, C and D returned the same ranking.
    pub consistent: bool,
}

fn run_knds<S: IndexSource>(
    knds: &Knds<'_, S>,
    ws: &mut KndsWorkspace,
    sds: bool,
    q: &[ConceptId],
) -> QueryResult {
    if sds {
        knds.sds_with(ws, q, K)
    } else {
        knds.rds_with(ws, q, K)
    }
}

/// Decomposes `query` (operation `op`); `Err` when a public call fails.
/// `static_collection` says no writer runs, so the public call and the
/// pinned snapshot must agree too.
pub fn trace_query(
    shared: &SharedEngine,
    op: u32,
    query: &Query,
    scratch: &mut TraceScratch,
    rec: &mut Recorder,
    static_collection: bool,
) -> Result<QueryTrace, concept_rank::EngineError> {
    let mut out = QueryTrace::default();
    let root = rec.open(op, 0, "bench.query");

    // A. Tracing is off here: this is the call users make. An untimed
    // run through the same entry point comes first, so that A — like B
    // to D behind their own primer below — finds the query's postings
    // and its workspace tables as warm as the query before left them in
    // the untraced loop. Without the primers whichever ran first paid
    // the misses: `core.normalize_us` read 4.5 ms on `scale_rds`.
    let _ = std::hint::black_box(crate::drive::call(shared, query));
    let (a, _, ns) = rec.span(op, root, "core.shared_call", || crate::drive::call(shared, query));
    let a = a?;
    out.public_ns = ns;

    // B. Same query on a pinned snapshot and a warm bench-owned workspace:
    // what is left of A is session checkout, epoch load and reserve.
    let snapshot = shared.snapshot();
    let snap: &EngineSnapshot = &snapshot;
    let ws = &mut scratch.ws;
    let on_snapshot = |ws: &mut KndsWorkspace| match query {
        Query::Rds(c) => snap.rds_with(ws, c, K),
        Query::SdsByDoc(d) => snap.sds_by_doc_with(ws, *d, K),
    };
    let _ = std::hint::black_box(on_snapshot(ws));
    let (b, _, ns) = rec.span(op, root, "core.snapshot_call", || on_snapshot(ws));
    let b = b?;
    out.snapshot_ns = ns;

    // C. kNDS itself on the eligible query: what is left of B is the
    // eligibility filter, the concept fetch and the config clone.
    let q = query_concepts(snap, query);
    let sds = matches!(query, Query::SdsByDoc(_));
    let (c, _, ns) = rec.span(op, root, "knds.query_bare", || {
        run_knds(&Knds::new(snap.ontology(), snap.source(), snap.config().clone()), ws, sds, &q)
    });
    out.knds_ns = ns;

    // D. The same over the counting decorator.
    let traced = TracedSource::new(snap.source());
    let (d, d_id, ns) = rec.span(op, root, "knds.query", || {
        run_knds(&Knds::new(snap.ontology(), &traced, snap.config().clone()), ws, sds, &q)
    });
    out.knds_traced_ns = ns;
    out.index = traced.counters();
    rec.aggregate(d_id, "index.postings", out.index.postings_ns, out.index.postings_calls);
    rec.aggregate(
        d_id,
        "index.doc_concepts",
        out.index.doc_concepts_ns,
        out.index.doc_concepts_calls,
    );

    // E. Which documents did kNDS probe with DRC? Then probe exactly
    // those again, one span each, with one reused scratch.
    let mut probed: Vec<DocId> = Vec::new();
    {
        let knds = Knds::new(snap.ontology(), snap.source(), snap.config().clone());
        let sink = |e: TraceEvent| {
            if let TraceEvent::Examined { doc, via_drc: true, .. } = e {
                probed.push(doc);
            }
        };
        if sds {
            knds.sds_traced_with(ws, &q, K, sink);
        } else {
            knds.rds_traced_with(ws, &q, K, sink);
        }
    }
    let replay = rec.open(op, root, "dradix.replay");
    let mut drc = Drc::new(snap.ontology()).with_scratch(std::mem::take(&mut scratch.dag));
    let mut concepts = Vec::new();
    for (i, &doc) in probed.iter().enumerate() {
        concepts.clear();
        snap.source().doc_concepts(doc, &mut concepts);
        let (_, _, ns) = rec.span(op, replay, "dradix.probe", || {
            if sds {
                std::hint::black_box(drc.document_document_distance(&q, &concepts));
            } else {
                std::hint::black_box(drc.document_query_distance(&concepts, &q));
            }
        });
        out.probe_ns += ns;
        if i < DAG_STATS_PER_QUERY {
            out.dag_nodes.push(drc.probe(&concepts, &q).stats().nodes);
        }
    }
    out.probe_calls = probed.len() as u64;
    scratch.dag = drc.into_scratch();
    rec.close(replay);
    rec.close(root);

    // Beside a writer the public call may run at a later epoch than the
    // pinned snapshot, so only B, C and D must agree there.
    let same = crate::oracle::same_ranking;
    out.consistent = same(&b.results, &c.results)
        && same(&c.results, &d.results)
        && (!static_collection || same(&a.results, &b.results));
    out.metrics = c.metrics;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{concept_pool, make_queries, specs};

    /// The decorator changes nothing but the counters: the ranking over
    /// it is bit-identical to the one over the bare view, and the probes
    /// replayed are exactly the DRC calls kNDS counted.
    #[test]
    fn traced_source_is_a_pure_pass_through() {
        for spec in specs().into_iter().filter(|s| !s.concurrent_writer) {
            let spec = spec.micro();
            let shared = spec.build_engine();
            let snapshot = shared.snapshot();
            let pool = concept_pool(&snapshot, 50_000);
            let mut scratch = TraceScratch::default();
            let mut rec = Recorder::default();
            for (i, query) in make_queries(&spec, &snapshot, &pool, 3).iter().enumerate() {
                let t = trace_query(&shared, i as u32 + 1, query, &mut scratch, &mut rec, true)
                    .expect("generated queries never fail");
                assert!(t.consistent, "{}: rankings differ between entry points", spec.name);
                assert_eq!(t.probe_calls, t.metrics.drc_calls as u64, "{}", spec.name);
                assert!(t.index.postings_calls > 0 && t.index.postings_ns > 0);
                assert!(t.index.doc_concepts_calls >= t.probe_calls);
            }
            // Every span names a parent that exists and encloses nothing
            // from another operation.
            for span in rec.spans() {
                assert!(span.end_ns >= span.start_ns);
                if span.parent != 0 {
                    let parent = &rec.spans()[span.parent as usize - 1];
                    assert_eq!(parent.op, span.op);
                    assert!(parent.start_ns <= span.start_ns);
                }
            }
            let lines = rec.to_jsonl();
            assert_eq!(lines.lines().count(), rec.spans().len());
            for line in lines.lines().take(50) {
                cbr_bench::json::Json::parse(line).expect("span lines are JSON");
            }
        }
    }
}
