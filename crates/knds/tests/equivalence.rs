//! Cross-algorithm equivalence: kNDS must return exactly the same top-k
//! distance profile as the exhaustive baseline for every error threshold,
//! every k, both query types — the paper's correctness claim (Section 5.3)
//! under test on randomized workloads.

use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile};
use cbr_dradix::brute;
use cbr_index::{IndexSource, SegmentedView};
use cbr_knds::{
    baseline, ta, Hooks, Knds, KndsConfig, KndsWorkspace, QueryKind, QueryResult, RankedDoc,
    TraceEvent, WeightedKnds,
};
use cbr_ontology::distance::multi_source_distances;
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fixture {
    ont: Ontology,
    corpus: Corpus,
    source: SegmentedView,
}

fn fixture(seed: u64) -> Fixture {
    let ont = OntologyGenerator::new(GeneratorConfig::small(400).with_seed(seed)).generate();
    let profile = CorpusProfile::radio_like()
        .with_num_docs(60)
        .with_mean_concepts(12.0)
        .with_seed(seed.wrapping_add(17));
    let corpus = CorpusGenerator::new(&ont, profile).generate();
    let source = SegmentedView::from_corpus(&corpus);
    Fixture { ont, corpus, source }
}

fn random_query(ont: &Ontology, rng: &mut StdRng, n: usize) -> Vec<ConceptId> {
    let deep: Vec<ConceptId> = ont.concepts().filter(|&c| ont.depth(c) >= 4).collect();
    let mut q: Vec<ConceptId> = (0..n).map(|_| deep[rng.random_range(0..deep.len())]).collect();
    q.sort_unstable();
    q.dedup();
    q
}

/// Distances must agree exactly; documents may differ only within ties.
fn assert_same_profile(a: &[cbr_knds::RankedDoc], b: &[cbr_knds::RankedDoc], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result count");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let same = (x.distance - y.distance).abs() < 1e-9
            || (x.distance.is_infinite() && y.distance.is_infinite());
        assert!(
            same,
            "{ctx}: rank {i} distance mismatch: {} vs {} ({:?} vs {:?})",
            x.distance, y.distance, x.doc, y.doc
        );
    }
}

#[test]
fn rds_matches_baseline_for_every_error_threshold() {
    let f = fixture(101);
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..6 {
        let q = random_query(&f.ont, &mut rng, 1 + trial % 5);
        let expect = baseline::rds(&f.ont, &f.source, &q, 5);
        for eps in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let cfg = KndsConfig::default().with_error_threshold(eps);
            let got = Knds::new(&f.ont, &f.source, cfg).rds(&q, 5);
            assert_same_profile(
                &got.results,
                &expect.results,
                &format!("trial {trial}, eps {eps}, q {q:?}"),
            );
        }
    }
}

#[test]
fn sds_matches_baseline_for_every_error_threshold() {
    let f = fixture(202);
    let mut rng = StdRng::seed_from_u64(8);
    for trial in 0..4 {
        // Query documents drawn from the corpus, as in Section 6.2.
        let doc = f.corpus.get(cbr_corpus::DocId(rng.random_range(0..f.corpus.len() as u32)));
        if doc.num_concepts() == 0 {
            continue;
        }
        let q = doc.concepts().to_vec();
        let expect = baseline::sds(&f.ont, &f.source, &q, 5);
        for eps in [0.0, 0.5, 1.0] {
            let cfg = KndsConfig::default().with_error_threshold(eps);
            let got = Knds::new(&f.ont, &f.source, cfg).sds(&q, 5);
            assert_same_profile(
                &got.results,
                &expect.results,
                &format!("trial {trial}, eps {eps}"),
            );
        }
    }
}

#[test]
fn knds_is_exact_under_tiny_queue_cap() {
    // A 1-element watermark forces an examination round at every level;
    // results must stay exact (the cap never truncates).
    let f = fixture(404);
    let mut rng = StdRng::seed_from_u64(10);
    for kind in 0..2 {
        let q = random_query(&f.ont, &mut rng, 4);
        let cfg = KndsConfig::default().with_queue_cap(1);
        let knds = Knds::new(&f.ont, &f.source, cfg);
        if kind == 0 {
            let got = knds.rds(&q, 3);
            let expect = baseline::rds(&f.ont, &f.source, &q, 3);
            assert_same_profile(&got.results, &expect.results, "cap rds");
            assert!(got.metrics.forced_rounds > 0, "cap must trigger forced rounds");
        } else {
            let got = knds.sds(&q, 3);
            let expect = baseline::sds(&f.ont, &f.source, &q, 3);
            assert_same_profile(&got.results, &expect.results, "cap sds");
        }
    }
}

#[test]
fn knds_matches_across_k_values() {
    let f = fixture(505);
    let mut rng = StdRng::seed_from_u64(11);
    let q = random_query(&f.ont, &mut rng, 5);
    for k in [1, 3, 5, 10, 50, 100] {
        let expect = baseline::rds(&f.ont, &f.source, &q, k);
        let got = Knds::new(&f.ont, &f.source, KndsConfig::default()).rds(&q, k);
        assert_same_profile(&got.results, &expect.results, &format!("k {k}"));
    }
}

#[test]
fn ta_matches_baseline_on_random_workload() {
    let f = fixture(606);
    let mut rng = StdRng::seed_from_u64(12);
    for trial in 0..4 {
        let q = random_query(&f.ont, &mut rng, 1 + trial);
        let expect = baseline::rds(&f.ont, &f.source, &q, 5);
        let got = ta::rds(&f.ont, &f.source, &q, 5);
        assert_same_profile(&got.results, &expect.results, &format!("ta trial {trial}"));
    }
}

#[test]
fn empty_documents_rank_last() {
    // Documents that lose every concept to filtering must never displace
    // real matches and must surface only when k exceeds the matchable set.
    let ont = OntologyGenerator::new(GeneratorConfig::small(200).with_seed(77)).generate();
    let deep: Vec<ConceptId> = ont.concepts().filter(|&c| ont.depth(c) >= 4).collect();
    assert!(deep.len() >= 2);
    let corpus = Corpus::from_concept_sets(vec![
        (vec![deep[0]], 0),
        (vec![], 0), // empty document
        (vec![deep[1]], 0),
    ]);
    let source = SegmentedView::from_corpus(&corpus);
    let knds = Knds::new(&ont, &source, KndsConfig::default());
    let r = knds.rds(&[deep[0]], 3);
    assert_eq!(r.results.len(), 3);
    assert_eq!(r.results[0].doc, cbr_corpus::DocId(0));
    assert!(r.results[2].distance.is_infinite(), "empty doc ranks last at ∞");
}

#[test]
fn knds_prunes_compared_to_baseline() {
    // The point of the algorithm: strictly fewer exact distance
    // computations than the full scan on a selective query.
    let f = fixture(707);
    let mut rng = StdRng::seed_from_u64(13);
    let q = random_query(&f.ont, &mut rng, 3);
    let got = Knds::new(&f.ont, &f.source, KndsConfig::default()).rds(&q, 3);
    let base = baseline::rds(&f.ont, &f.source, &q, 3);
    assert!(
        got.metrics.docs_examined <= base.metrics.docs_examined,
        "kNDS examined {} docs, baseline {}",
        got.metrics.docs_examined,
        base.metrics.docs_examined
    );
}

/// Everything the two frontier policies must agree on at unit weights:
/// the ranked list to the bit, and the work counters that describe the
/// traversal (`nodes_visited`, `levels`, `forced_rounds`) and the
/// examination it drove (`docs_examined`, `drc_calls`). None of the five
/// legitimately differs: with every edge at weight 1 a Dijkstra bucket
/// holds exactly one BFS level, strict-improvement relaxation admits a
/// state exactly when the visited bit would (first reach is minimal), the
/// pending-state count the queue watermark sees is the next level's size
/// under both, and both build the same SDS distance field through the one
/// builder, so the bounds the examination reads are the same.
fn fingerprint(r: &QueryResult) -> (Vec<(cbr_corpus::DocId, u64)>, [usize; 5]) {
    let m = &r.metrics;
    (
        r.results.iter().map(|d| (d.doc, d.distance.to_bits())).collect(),
        [m.nodes_visited, m.levels as usize, m.forced_rounds, m.docs_examined, m.drc_calls],
    )
}

/// One generated instance for the proptests below: a small ontology and
/// collection from `seed`, the RDS query the picks select, and the SDS
/// query document they draw from the corpus (Section 6.2; the RDS query
/// itself when that document is empty).
struct Generated {
    ont: Ontology,
    source: SegmentedView,
    q: Vec<ConceptId>,
    qd: Vec<ConceptId>,
}

fn generated(seed: u64, query_picks: &[u32]) -> Generated {
    let ont = OntologyGenerator::new(GeneratorConfig::small(150).with_seed(seed)).generate();
    let profile = CorpusProfile::radio_like()
        .with_num_docs(40)
        .with_mean_concepts(8.0)
        .with_seed(seed.wrapping_add(31));
    let corpus = CorpusGenerator::new(&ont, profile).generate();
    let source = SegmentedView::from_corpus(&corpus);
    let mut q: Vec<ConceptId> =
        query_picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect();
    q.sort_unstable();
    q.dedup();
    let doc = corpus.get(cbr_corpus::DocId(query_picks[0] % corpus.len() as u32));
    let qd = if doc.num_concepts() > 0 { doc.concepts().to_vec() } else { q.clone() };
    Generated { ont, source, q, qd }
}

/// `εθ` ∈ {0, .5, .9, 1} and a queue watermark from "forced every round"
/// (1) through 500 to the default, by pick.
fn picked_config(eps_pick: usize, cap_pick: usize) -> (f64, KndsConfig) {
    let eps = [0.0, 0.5, 0.9, 1.0][eps_pick];
    let cfg = KndsConfig::default().with_error_threshold(eps);
    (eps, if cap_pick < 2 { cfg.with_queue_cap([1, 500][cap_pick]) } else { cfg })
}

/// `(lower bound, doc)` under the order the examination consumes rows in.
fn by_bound(a: &(f64, cbr_corpus::DocId), b: &(f64, cbr_corpus::DocId)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The brute-force distance of every document from `q`, by document
/// index (`None` for a document the source no longer serves).
fn exact_distances(
    ont: &Ontology,
    source: &SegmentedView,
    kind: QueryKind,
    q: &[ConceptId],
) -> Vec<Option<f64>> {
    let mut concepts = Vec::new();
    (0..source.num_docs())
        .map(|i| {
            let doc = cbr_corpus::DocId::from_index(i);
            if !source.is_live(doc) {
                return None;
            }
            concepts.clear();
            source.doc_concepts(doc, &mut concepts);
            Some(match kind {
                QueryKind::Rds => match brute::document_query_distance(ont, &concepts, q) {
                    cbr_dradix::INFINITE => f64::INFINITY,
                    d => d as f64,
                },
                QueryKind::Sds => brute::document_document_distance(ont, &concepts, q),
            })
        })
        .collect()
}

/// Checks one traced search against the four facts the §5 termination
/// argument rests on, level by level:
///
/// 1. every bound the trace reports is sound — at most the document's
///    brute-force distance;
/// 2. no bound is looser than the paper's Equation 6/8 value at that level,
///    which this function recomputes: the forward half from the row's
///    `Candidate` event, the SDS reverse half from the valid-path distance
///    oracle and the document's concepts (`d ≤ l` counted as `d`, the rest
///    at `l + 1`);
/// 3. the `Examined` events of a level ascend strictly by `(D⁻, DocId)`,
///    and `ExamineBreak.min_unexamined` lies between the level's last pop
///    and what the first two facts allow for the rows left unexamined (∞
///    if none is left);
/// 4. at `Terminated`, every live document not in `results` is at or
///    above `D⁺ₖ`, and `d_minus` is at most the exact distance of every
///    one of them that was never examined (an examined document that lost
///    its place to a closer one may sit anywhere above `D⁺ₖ`).
///
/// It also checks the trace's shape: every row still unexamined at the
/// start of a level reports a `Candidate` event, once, before the first
/// `Examined` one, and an examined document is never a row again.
fn check_bounds(
    events: &[TraceEvent],
    g: &Generated,
    kind: QueryKind,
    q: &[ConceptId],
    results: &[RankedDoc],
    ctx: &str,
) {
    let (ont, source) = (&g.ont, &g.source);
    let nq = q.len() as u64;
    let exact = exact_distances(ont, source, kind, q);
    let exact_of = |doc: cbr_corpus::DocId| {
        exact[doc.index()].unwrap_or_else(|| panic!("{ctx}: dead document {doc:?} in the trace"))
    };
    let to_query = multi_source_distances(ont, q);
    let mut concepts = Vec::new();
    let mut paper = |level: u32, doc: cbr_corpus::DocId, covered: u32, partial: u64| -> f64 {
        let next = (level + 1) as u64;
        let fwd = partial + (nq - covered as u64) * next;
        if kind == QueryKind::Rds {
            return fwd as f64;
        }
        concepts.clear();
        source.doc_concepts(doc, &mut concepts);
        let rev: u64 = concepts
            .iter()
            .map(|c| to_query[c.index()] as u64)
            .map(|d| if d <= level as u64 { d } else { next })
            .sum();
        fwd as f64 / nq as f64 + rev as f64 / concepts.len().max(1) as f64
    };

    let mut level = 0u32;
    // The level's rows: (Equation 6/8 value, exact distance, doc).
    let mut rows: Vec<(f64, f64, cbr_corpus::DocId)> = Vec::new();
    let mut examined: Vec<(f64, cbr_corpus::DocId)> = Vec::new();
    let mut ever_examined = std::collections::HashSet::new();
    for e in events {
        match *e {
            TraceEvent::LevelStart { level: l, .. } => {
                level = l;
                rows.clear();
                examined.clear();
            }
            TraceEvent::Candidate { doc, covered, partial } => {
                assert!(
                    examined.is_empty(),
                    "{ctx}: level {level}: candidate after an examination"
                );
                assert!(!ever_examined.contains(&doc), "{ctx}: examined {doc:?} is a row again");
                assert!(rows.iter().all(|r| r.2 != doc), "{ctx}: level {level}: {doc:?} twice");
                rows.push((paper(level, doc, covered, partial), exact_of(doc), doc));
            }
            TraceEvent::Examined { doc, lower_bound, .. } => {
                let row = rows.iter().find(|r| r.2 == doc);
                let &(eq, exact, _) =
                    row.unwrap_or_else(|| panic!("{ctx}: level {level}: {doc:?} has no row"));
                assert!(
                    lower_bound <= exact,
                    "{ctx}: level {level}: bound {lower_bound} of {doc:?} above its distance {exact}"
                );
                assert!(
                    lower_bound >= eq,
                    "{ctx}: level {level}: bound {lower_bound} of {doc:?} below Equation 6/8's {eq}"
                );
                if let Some(prev) = examined.last() {
                    assert!(
                        by_bound(prev, &(lower_bound, doc)).is_lt(),
                        "{ctx}: level {level}: {prev:?} examined before {:?}",
                        (lower_bound, doc)
                    );
                }
                examined.push((lower_bound, doc));
                ever_examined.insert(doc);
            }
            TraceEvent::ExamineBreak { min_unexamined, .. } => {
                let left = rows.iter().filter(|r| !examined.iter().any(|x| x.1 == r.2));
                let (eq, exact) = left
                    .fold((f64::INFINITY, f64::INFINITY), |(eq, ex), r| (eq.min(r.0), ex.min(r.1)));
                assert!(
                    eq <= min_unexamined && min_unexamined <= exact,
                    "{ctx}: level {level}: min_unexamined {min_unexamined} outside [{eq}, {exact}]"
                );
                if let Some(&(last, doc)) = examined.last() {
                    assert!(
                        last <= min_unexamined,
                        "{ctx}: level {level}: examined {doc:?} at {last} past {min_unexamined}"
                    );
                }
            }
            TraceEvent::Terminated { d_minus, threshold, .. } => {
                for (i, exact) in exact.iter().enumerate() {
                    let doc = cbr_corpus::DocId::from_index(i);
                    let Some(exact) = *exact else { continue };
                    if results.iter().any(|r| r.doc == doc) {
                        continue;
                    }
                    assert!(
                        threshold <= exact,
                        "{ctx}: {doc:?} at {exact} left out below D⁺ₖ {threshold}"
                    );
                    assert!(
                        ever_examined.contains(&doc) || d_minus <= exact,
                        "{ctx}: terminated at D⁻ {d_minus} above unexamined {doc:?} at {exact}"
                    );
                }
            }
            TraceEvent::Exhausted { .. } => {}
        }
    }
}

/// Rank-by-rank distance bits; which of several documents tied at one
/// distance is returned is the one thing kNDS leaves open.
fn distance_bits(results: &[RankedDoc]) -> Vec<u64> {
    results.iter().map(|r| r.distance.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bounds of the one Algorithm 2 loop, under both frontier
    /// policies, RDS and SDS, error thresholds from "probe everything" to
    /// "probe nothing early" and queue watermarks from "forced every
    /// round" to the default — so rounds with a full heap, rounds with a
    /// filling one and forced rounds are all hit: every bound is sound and
    /// no looser than Equation 6/8, rows are examined in ascending
    /// `(D⁻, DocId)`, termination leaves out no document below `D⁻` (see
    /// [`check_bounds`]), and the results are the full scan's to the bit.
    #[test]
    fn bounds_are_sound_and_examination_is_ordered(
        seed in 0u64..400,
        query_picks in prop::collection::vec(0u32..10_000, 1..6),
        k in 1usize..9,
        eps_pick in 0usize..4,
        cap_pick in 0usize..3,
    ) {
        let g = generated(seed, &query_picks);
        let Generated { ont, source, q, qd } = &g;
        let weights = EdgeWeights::uniform(ont);
        let (eps, cfg) = picked_config(eps_pick, cap_pick);
        let unit = Knds::new(ont, source, cfg.clone());
        let weighted = WeightedKnds::new(ont, &weights, source, cfg);

        for (kind, q) in [(QueryKind::Rds, q), (QueryKind::Sds, qd)] {
            let expect = match kind {
                QueryKind::Rds => baseline::rds(ont, source, q, k),
                QueryKind::Sds => baseline::sds(ont, source, q, k),
            };
            for engine in ["unit", "weighted"] {
                let ctx = format!("{engine} {kind:?} q {q:?} k {k} eps {eps} cap {cap_pick}");
                let mut events = Vec::new();
                let hooks = Hooks::on_trace(|e| events.push(e));
                let mut ws = KndsWorkspace::new();
                let got = match engine {
                    "unit" => unit.run(&mut ws, kind, q, k, hooks),
                    _ => weighted.run(&mut ws, kind, q, k, hooks),
                };
                check_bounds(&events, &g, kind, q, &got.results, &ctx);
                prop_assert_eq!(
                    distance_bits(&got.results),
                    distance_bits(&expect.results),
                    "{}", ctx
                );
            }
        }
    }

    /// `WeightedKnds` at `EdgeWeights::uniform` *is* `Knds`: same length,
    /// same documents, same distance bits, same work counters, for RDS and
    /// SDS, across error thresholds and queue watermarks from "forced
    /// every round" to the default.
    #[test]
    fn unit_weights_equal_the_unweighted_engine(
        seed in 0u64..400,
        query_picks in prop::collection::vec(0u32..10_000, 1..6),
        k in 1usize..9,
        eps_pick in 0usize..4,
        cap_pick in 0usize..3,
    ) {
        let Generated { ont, source, q, qd } = generated(seed, &query_picks);
        let weights = EdgeWeights::uniform(&ont);
        let (eps, cfg) = picked_config(eps_pick, cap_pick);
        let unit = Knds::new(&ont, &source, cfg.clone());
        let weighted = WeightedKnds::new(&ont, &weights, &source, cfg);

        prop_assert_eq!(
            fingerprint(&weighted.rds(&q, k)),
            fingerprint(&unit.rds(&q, k)),
            "RDS q {:?} k {} eps {} cap {}", q, k, eps, cap_pick
        );

        prop_assert_eq!(
            fingerprint(&weighted.sds(&qd, k)),
            fingerprint(&unit.sds(&qd, k)),
            "SDS q {:?} k {} eps {} cap {}", qd, k, eps, cap_pick
        );
    }
}
