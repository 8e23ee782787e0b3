//! `BENCHMARK.json` at the repository root and the benchmark's own
//! catalogue must name the same workloads and metrics, and what a run
//! prints must carry every one of them.

use cbr_bench::json::Json;
use cbr_perfbench::report::{validate_line, MetricDef, END_TO_END, PER_LAYER};
use cbr_perfbench::run::{run_traced, run_untraced};
use cbr_perfbench::workload::{specs, DEFAULT_SEED};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

fn assert_same_metrics(listed: &Json, catalogue: &[MetricDef], bounded: bool) {
    let listed = listed.as_arr().expect("a list of metrics");
    assert_eq!(listed.len(), catalogue.len());
    for (entry, def) in listed.iter().zip(catalogue) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str);
        assert_eq!(field("name"), Some(def.name));
        assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
        assert_eq!(field("better"), Some(def.better.as_str()), "{}", def.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
        assert_eq!(def.bound.is_some(), bounded, "{}", def.name);
        assert!(name_ok(def.name), "{}", def.name);
        // The driver refuses a `BENCHMARK.json` with a bound above 0.25.
        assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let json = benchmark_json();
    let Json::Obj(members) = &json else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    assert_same_metrics(json.get("end_to_end").unwrap(), END_TO_END, true);
    assert_same_metrics(json.get("per_layer").unwrap(), PER_LAYER, false);
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));

    let workloads = json.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(names, specs().iter().map(|s| s.name).collect::<Vec<_>>());
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    assert!(names.iter().all(|n| name_ok(n)));

    let paths = json.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::Str("perfbench".into())]);
}

/// Same seed, same digest; and the printed lines carry every metric.
#[test]
fn a_run_prints_every_metric_and_repeats_its_digest() {
    for spec in specs() {
        let micro = spec.micro();
        let a = run_untraced(&micro, false, DEFAULT_SEED, 0.01);
        let b = run_untraced(&micro, false, DEFAULT_SEED, 0.01);
        let c = run_untraced(&micro, false, DEFAULT_SEED + 1, 0.01);
        assert_eq!(a.failed, 0, "{}", spec.name);
        assert_eq!(a.digest, b.digest, "{}", spec.name);
        assert_eq!(a.digest.is_some(), !spec.concurrent_writer);
        if a.digest.is_some() {
            assert_ne!(a.digest, c.digest, "{}: another seed, another digest", spec.name);
        }
        validate_line(&a.result_line(END_TO_END), END_TO_END).expect("untraced line");
        for def in END_TO_END {
            assert!(a.value(def.name).is_some_and(|v| v > 0.0), "{} is never 0", def.name);
        }

        // Long enough for several passes, whose counts must then repeat.
        let (traced, spans) = run_traced(&micro, DEFAULT_SEED, 0.5);
        assert_eq!(traced.failed, 0, "{}", spec.name);
        assert!(!traced.note.contains("× 1 passes"), "{}: {}", spec.name, traced.note);
        validate_line(&traced.result_line(PER_LAYER), PER_LAYER).expect("traced line");
        assert!(spans.lines().count() > micro.traced_queries);
        let table = traced.table(spec.name, PER_LAYER);
        assert!(PER_LAYER.iter().all(|d| table.contains(d.name)));
    }
}
