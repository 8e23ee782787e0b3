//! Trace-stream invariants: events arrive in a consistent order and agree
//! with the returned metrics and results.

use cbr_corpus::Corpus;
use cbr_index::MemorySource;
use cbr_knds::{
    Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, QueryResult, TraceEvent, WeightedKnds,
};
use cbr_ontology::{fixture, ConceptId, EdgeWeights};

fn setup() -> (fixture::Figure3, MemorySource) {
    let fig = fixture::figure3();
    let c = |n: &str| fig.concept(n);
    let corpus = Corpus::from_concept_sets(vec![
        (vec![c("F"), c("R"), c("T"), c("V")], 0),
        (vec![c("I"), c("L"), c("U")], 0),
        (vec![c("M"), c("N")], 0),
        (vec![c("C")], 0),
        (vec![c("G"), c("H")], 0),
    ]);
    let source = MemorySource::build(&corpus, fig.ontology.len());
    (fig, source)
}

/// One query through [`Knds::run`] with a trace sink attached: the event
/// sequence and the returned result.
fn traced(
    knds: &Knds<'_, MemorySource>,
    ws: &mut KndsWorkspace,
    kind: QueryKind,
    q: &[ConceptId],
    k: usize,
) -> (Vec<TraceEvent>, QueryResult) {
    let mut events = Vec::new();
    let r = knds.run(ws, kind, q, k, Hooks::on_trace(|e| events.push(e)));
    (events, r)
}

#[test]
fn trace_is_ordered_and_complete() {
    let (fig, source) = setup();
    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    let (events, r) =
        traced(&knds, &mut KndsWorkspace::new(), QueryKind::Rds, &fig.example_query(), 2);

    // Levels start at 0 and increase by one.
    let levels: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LevelStart { level, .. } => Some(*level),
            _ => None,
        })
        .collect();
    assert_eq!(levels[0], 0);
    assert!(levels.windows(2).all(|w| w[1] == w[0] + 1), "{levels:?}");
    assert_eq!(levels.len() as u32, r.metrics.levels);

    // Examined events match the metrics counter and the DRC split.
    let examined: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Examined { doc, exact, via_drc, .. } => Some((*doc, *exact, *via_drc)),
            _ => None,
        })
        .collect();
    assert_eq!(examined.len(), r.metrics.docs_examined);
    let via_drc = examined.iter().filter(|(_, _, d)| *d).count();
    assert_eq!(via_drc, r.metrics.drc_calls);

    // Every returned result was examined with exactly its final distance.
    for res in &r.results {
        assert!(
            examined.iter().any(|&(d, x, _)| d == res.doc && x == res.distance),
            "result {res:?} missing from trace"
        );
    }

    // Termination (or exhaustion) closes the stream.
    assert!(matches!(
        events.last(),
        Some(TraceEvent::Terminated { .. })
            | Some(TraceEvent::Exhausted { .. })
            | Some(TraceEvent::ExamineBreak { .. })
    ));
}

#[test]
fn candidate_events_report_coverage_monotonically() {
    let (fig, source) = setup();
    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default().with_error_threshold(0.0));
    let (events, _) =
        traced(&knds, &mut KndsWorkspace::new(), QueryKind::Rds, &fig.example_query(), 3);
    // For any document, coverage counts never decrease across levels.
    let mut last: std::collections::HashMap<cbr_corpus::DocId, u32> = Default::default();
    for e in &events {
        if let TraceEvent::Candidate { doc, covered, .. } = e {
            let prev = last.insert(*doc, *covered).unwrap_or(0);
            assert!(*covered >= prev, "coverage regressed for {doc}");
        }
    }
    assert!(!last.is_empty(), "candidates were traced");
}

#[test]
fn traced_with_variants_match_over_a_shared_workspace() {
    let (fig, source) = setup();
    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    let q = fig.example_query();
    let mut ws = KndsWorkspace::new();
    let mut events = 0usize;
    let traced = knds.rds_traced_with(&mut ws, &q, 3, |_| events += 1);
    assert_eq!(traced.results, knds.rds(&q, 3).results);
    assert!(events > 0, "rds_traced_with produced no trace events");

    let mut events = 0usize;
    let traced = knds.sds_traced_with(&mut ws, &q, 2, |_| events += 1);
    assert_eq!(traced.results, knds.sds(&q, 2).results);
    assert!(events > 0, "sds_traced_with produced no trace events");
}

#[test]
fn tracing_does_not_change_results() {
    let (fig, source) = setup();
    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    let q = fig.example_query();
    for (kind, k) in [(QueryKind::Rds, 3), (QueryKind::Sds, 2)] {
        let mut ws = KndsWorkspace::new();
        let plain = knds.run(&mut ws, kind, &q, k, Hooks::default());
        let (events, with_trace) = traced(&knds, &mut KndsWorkspace::new(), kind, &q, k);
        assert!(!events.is_empty(), "{kind:?}: no trace events on a fresh workspace");
        assert_eq!(plain.results, with_trace.results, "{kind:?}: tracing changed the results");
    }
}

/// Both frontier policies run the one loop over the one workspace: with
/// weighted queries interleaved on a warm workspace, a `Knds` query's
/// trace — every event, and in particular the `Terminated`/`Exhausted`
/// event that closes it — is the one a fresh workspace produces.
#[test]
fn weighted_queries_on_the_shared_workspace_do_not_disturb_the_trace() {
    let (fig, source) = setup();
    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    let weights = EdgeWeights::from_fn(&fig.ontology, |p, _| 1 + (p.0 % 2));
    let weighted = WeightedKnds::new(&fig.ontology, &weights, &source, KndsConfig::default());
    let q = fig.example_query();
    let closing = |events: &[TraceEvent]| {
        events
            .iter()
            .rev()
            .find(|e| matches!(e, TraceEvent::Terminated { .. } | TraceEvent::Exhausted { .. }))
            .cloned()
    };
    let mut ws = KndsWorkspace::new();
    // k = 2 terminates early; k = 100 exceeds the collection and exhausts.
    for (kind, k) in [(QueryKind::Rds, 2), (QueryKind::Sds, 2), (QueryKind::Rds, 100)] {
        let (expect, _) = traced(&knds, &mut KndsWorkspace::new(), kind, &q, k);
        assert!(closing(&expect).is_some(), "{kind:?} k {k}: trace has no closing event");
        weighted.rds_with(&mut ws, &q, k);
        weighted.sds_with(&mut ws, &q, k);
        let (events, _) = traced(&knds, &mut ws, kind, &q, k);
        assert_eq!(closing(&events), closing(&expect), "{kind:?} k {k}: closing event changed");
        assert_eq!(events, expect, "{kind:?} k {k}: trace changed");
    }
}

/// `LevelStart.frontier` counts origin-states — what the queue watermark
/// counts — and with visit dedup every one of them is visited exactly
/// once, so the frontiers sum to `nodes_visited`, for RDS and SDS.
#[test]
fn level_frontiers_sum_to_the_visited_states() {
    let (fig, source) = setup();
    let knds = Knds::new(&fig.ontology, &source, KndsConfig::default().with_error_threshold(0.0));
    let queries = [fig.example_query(), fig.example_document(), vec![fig.concept("C")]];
    for q in &queries {
        for (kind, k) in [(QueryKind::Rds, 2), (QueryKind::Sds, 2), (QueryKind::Rds, 100)] {
            let (events, r) = traced(&knds, &mut KndsWorkspace::new(), kind, q, k);
            let frontiers: usize = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::LevelStart { frontier, .. } => Some(*frontier),
                    _ => None,
                })
                .sum();
            assert!(frontiers > 0, "{kind:?} k {k}: no level started");
            assert_eq!(frontiers, r.metrics.nodes_visited, "{kind:?} k {k} over {q:?}");
        }
    }
}
