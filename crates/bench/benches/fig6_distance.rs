//! Criterion bench for Figure 6: document-document distance calculation,
//! BL (quadratic pairwise baseline) vs DRC (D-Radix, n·log n), as a
//! function of the query-document size nq, on both collection shapes.
//! The figure is the cost of one cold pair, so the `DRC` row hands its
//! scratch to a new `Drc` each time (warm capacity, no pinned query);
//! `DRC pinned` is what a query's second and later probes cost.

use cbr_bench::{Scale, Workbench};
use cbr_dradix::{brute, DagScratch, Drc};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_fig6(c: &mut Criterion) {
    let wb = Workbench::build(Scale::micro());
    let mut scratch = DagScratch::new();
    let mut drc = Drc::new(&wb.ontology);
    let _ = wb.ontology.path_table(); // materialize outside the timings

    for coll in &wb.collections {
        let mut group = c.benchmark_group(format!("fig6/{}", coll.name));
        group.sample_size(10).measurement_time(Duration::from_secs(2));
        let target = coll
            .corpus
            .documents()
            .find(|d| d.num_concepts() > 0)
            .expect("non-empty doc")
            .concepts()
            .to_vec();
        for nq in [1usize, 5, 10, 30] {
            let q = coll.query_documents(1, nq, 42).remove(0);
            group.bench_with_input(BenchmarkId::new("BL", nq), &q, |b, q| {
                b.iter(|| {
                    black_box(brute::document_document_distance(
                        &wb.ontology,
                        black_box(&target),
                        black_box(q),
                    ))
                })
            });
            group.bench_with_input(BenchmarkId::new("DRC", nq), &q, |b, q| {
                b.iter(|| {
                    let mut cold =
                        Drc::new(&wb.ontology).with_scratch(std::mem::take(&mut scratch));
                    let d = cold.document_document_distance(black_box(&target), black_box(q));
                    scratch = cold.into_scratch();
                    black_box(d)
                })
            });
            group.bench_with_input(BenchmarkId::new("DRC pinned", nq), &q, |b, q| {
                drc.document_document_distance(&target, q);
                b.iter(|| {
                    black_box(drc.document_document_distance(black_box(&target), black_box(q)))
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
