//! Criterion bench splitting DRC into its two phases (Section 4.3):
//! D-Radix construction (`O((|Pd|+|Pq|) log(|Pd|+|Pq|))`) vs distance
//! tuning (`O(|Pd|+|Pq|)`), across document sizes. The paper analyses the
//! phases separately; this bench verifies construction dominates. The
//! `reused` rows rebuild into one retained DAG (the `DagScratch` path every
//! query takes through a warm `KndsWorkspace`) vs allocating fresh. A
//! query's probes share its half of the DAG, so construction itself splits
//! in two: `pin` builds and checkpoints `T(∅, q)` once a query, `overlay`
//! rolls back and inserts one document's addresses, and `overlay+tune` is
//! the whole of a pinned probe.

use cbr_bench::{Scale, Workbench};
use cbr_dradix::dag::Side;
use cbr_dradix::{DRadixDag, Drc};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_drc_phases(c: &mut Criterion) {
    let wb = Workbench::build(Scale::micro());
    let coll = wb.collection("PATIENT");
    let query = coll.query_documents(1, 5, 77).remove(0);
    let _ = wb.ontology.path_table();

    let mut group = c.benchmark_group("drc_phases");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.bench_function("pin", |b| {
        let mut dag = DRadixDag::new();
        b.iter(|| {
            dag.pin(&wb.ontology, None, Side::Query, black_box(&query));
            black_box(dag.stats())
        })
    });
    for doc_size in [10usize, 30, 60] {
        let doc: Vec<_> = coll
            .corpus
            .documents()
            .flat_map(|d| d.concepts().iter().copied())
            .take(doc_size)
            .collect();
        group.bench_with_input(BenchmarkId::new("construct", doc_size), &doc, |b, doc| {
            b.iter(|| black_box(DRadixDag::build(&wb.ontology, black_box(doc), &query).stats()))
        });
        group.bench_with_input(BenchmarkId::new("construct+tune", doc_size), &doc, |b, doc| {
            b.iter(|| {
                let mut dag = DRadixDag::build(&wb.ontology, black_box(doc), &query);
                dag.tune();
                black_box(dag.stats())
            })
        });
        group.bench_with_input(BenchmarkId::new("construct_reused", doc_size), &doc, |b, doc| {
            let mut dag = DRadixDag::new();
            b.iter(|| {
                dag.build_into(&wb.ontology, black_box(doc), &query);
                black_box(dag.stats())
            })
        });
        group.bench_with_input(BenchmarkId::new("overlay", doc_size), &doc, |b, doc| {
            let mut dag = DRadixDag::new();
            dag.pin(&wb.ontology, None, Side::Query, &query);
            b.iter(|| {
                dag.overlay(&wb.ontology, None, Side::Doc, black_box(doc));
                black_box(dag.stats())
            })
        });
        group.bench_with_input(BenchmarkId::new("overlay+tune", doc_size), &doc, |b, doc| {
            let mut drc = Drc::new(&wb.ontology);
            drc.probe(doc, &query);
            b.iter(|| black_box(drc.probe(black_box(doc), &query).stats()))
        });
        group.bench_with_input(
            BenchmarkId::new("construct+tune_reused", doc_size),
            &doc,
            |b, doc| {
                let mut dag = DRadixDag::new();
                b.iter(|| {
                    dag.build_into(&wb.ontology, black_box(doc), &query);
                    dag.tune();
                    black_box(dag.stats())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_drc_phases);
criterion_main!(benches);
