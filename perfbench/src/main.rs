//! The repository's benchmark. See `perfbench/README.md`.
//!
//! ```sh
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run
//! bench --all [--seed <n>] [--seconds <s>]   # every workload, untraced then traced
//! bench --aa [--record]                      # every workload twice: the noise floor
//! bench --smoke                              # micro sizes, seconds, writes nothing
//! ```
//!
//! One run is one process, so `peak_rss_mb` of one workload never holds
//! another's memory; `--all` and `--aa` start one child per run and wait
//! for it.

#![forbid(unsafe_code)]

use cbr_bench::json::Json;
use cbr_perfbench::report::{
    validate_line, Better, MetricDef, END_TO_END, MAX_RECONCILE_RESIDUAL, PER_LAYER,
};
use cbr_perfbench::run::{run_traced, run_untraced};
use cbr_perfbench::workload::{specs, Spec, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    all: bool,
    aa: bool,
    record: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => args.all = true,
            "--aa" => args.aa = true,
            "--record" => args.record = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let modes = [args.workload.is_some(), args.all, args.aa, args.smoke];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload <name>, --all, --aa, --smoke".into());
    }
    if args.record && (!args.aa || args.seed.is_some_and(|s| s != DEFAULT_SEED)) {
        return Err(format!("--record goes with --aa at the default seed {DEFAULT_SEED}"));
    }
    Ok(args)
}

fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Where build outputs live: `CARGO_TARGET_DIR` if set, else this
/// package's own `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    )
}

/// One run in this process; the result line is the last line printed.
fn run_one(spec: &Spec, seed: u64, seconds: f64, trace: bool) {
    let outcome = if trace {
        let (outcome, spans) = run_traced(spec, seed, seconds);
        // Written once, after the measurement, beside the build outputs.
        let dir = target_dir().join("bench-trace");
        let path = dir.join(format!("{}.jsonl", spec.name));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        outcome
    } else {
        run_untraced(spec, true, seed, seconds)
    };
    print!("{}", outcome.table(spec.name, catalogue(trace)));
    println!("{}", outcome.result_line(catalogue(trace)));
}

/// The metrics of a validated result line.
fn metrics_of(line: &Json) -> Vec<(String, f64)> {
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
        .collect()
}

/// One run in a child process; returns its validated result line and
/// the digest its report names.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    let json = validate_line(line, catalogue(trace)).map_err(|e| format!("{workload}: {e}"))?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload}: {line}"));
    }
    let digest = report.split_once(", digest ").map(|(_, d)| d.chars().take(16).collect());
    Ok((json, digest))
}

/// `--all`: every workload untraced, then traced; fails on a wrong
/// result or on layers that do not reconcile.
fn run_all(seed: u64, seconds: f64) -> Result<(), String> {
    println!("{}", environment().render());
    let mut problems = Vec::new();
    for spec in specs() {
        for trace in [false, true] {
            match run_child(spec.name, seed, seconds, trace) {
                Ok((line, _)) if trace => {
                    let residual = metrics_of(&line)
                        .into_iter()
                        .find(|(n, _)| n == "trace.reconcile_residual_share")
                        .map_or(f64::INFINITY, |(_, v)| v);
                    if residual > MAX_RECONCILE_RESIDUAL {
                        problems.push(format!(
                            "{}: layers reconcile to {residual:.3} of the traced query, over {MAX_RECONCILE_RESIDUAL}",
                            spec.name
                        ));
                    }
                }
                Ok(_) => {}
                Err(e) => problems.push(e),
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Where the run happened; recorded beside every baseline.
fn environment() -> Json {
    let capture = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("commit".into(), Json::Str(capture("git", &["rev-parse", "HEAD"]))),
        (
            "profile".into(),
            Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("rustc".into(), Json::Str(capture("rustc", &["--version"]))),
    ])
}

/// `--aa`: every workload twice with this same binary — side A in listed
/// order, side B in reverse — and the relative difference of every
/// end-to-end metric. Fails if any exceeds its bound.
fn run_aa(seed: u64, seconds: f64, record: bool) -> Result<(), String> {
    let names: Vec<&str> = specs().iter().map(|s| s.name).collect();
    type Side = Vec<(&'static str, (Json, Option<String>))>;
    let side = |order: Vec<&'static str>| -> Result<Side, String> {
        order.into_iter().map(|w| Ok((w, run_child(w, seed, seconds, false)?))).collect()
    };
    let a = side(names.clone())?;
    let b = side(names.iter().rev().copied().collect())?;

    let mut over = Vec::new();
    let mut differences = Vec::new();
    let mut baseline = Vec::new();
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut digests = Vec::new();
    for (workload, (line_a, digest)) in &a {
        let (line_b, _) = &b.iter().find(|(w, _)| w == workload).expect("both sides ran it").1;
        if let Some(d) = digest {
            digests.push((workload.to_string(), Json::Str(d.clone())));
        }
        let (ma, mb) = (metrics_of(line_a), metrics_of(line_b));
        let mut row = Vec::new();
        for def in END_TO_END {
            let get = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == def.name).map(|&(_, v)| v);
            let (Some(va), Some(vb)) = (get(&ma), get(&mb)) else {
                return Err(format!("{workload}: {} missing", def.name));
            };
            // Positive when B reads worse than A.
            let diff = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let bound = def.bound.unwrap_or(f64::INFINITY);
            println!(
                "{workload:<12} {:<22} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%",
                def.name,
                diff * 100.0,
                bound * 100.0
            );
            if diff.is_nan() || diff.abs() > bound {
                over.push(format!("{workload} {}: {:.1} % apart", def.name, diff * 100.0));
            }
            row.push((def.name.to_string(), Json::Num(diff)));
        }
        differences.push((workload.to_string(), Json::Obj(row)));
        let values = ma.into_iter().map(|(n, v)| (n, Json::Num(v))).collect();
        baseline.push((workload.to_string(), Json::Obj(values)));
    }

    if !over.is_empty() {
        // Nothing is recorded: a baseline is taken from a quiet pair.
        return Err(format!(
            "two runs of the same binary differ by more than a bound:\n{}",
            over.join("\n")
        ));
    }
    if record {
        let doc = Json::Obj(vec![
            ("default_seed".into(), Json::Num(DEFAULT_SEED as f64)),
            ("seconds".into(), Json::Num(seconds)),
            ("environment".into(), environment()),
            ("digests".into(), Json::Obj(digests)),
            ("baseline".into(), Json::Obj(baseline)),
            ("aa_differences".into(), Json::Obj(differences)),
        ]);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baseline.json");
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("recorded {}; rebuild so the new digests are checked", path.display());
    }
    Ok(())
}

/// `--smoke`: micro sizes, traced and untraced, in this process; checks
/// its own output and writes nothing.
fn run_smoke() -> Result<(), String> {
    for spec in specs() {
        let micro = spec.micro();
        for trace in [false, true] {
            let outcome = if trace {
                run_traced(&micro, DEFAULT_SEED, 0.01).0
            } else {
                run_untraced(&micro, false, DEFAULT_SEED, 0.01)
            };
            let line = outcome.result_line(catalogue(trace));
            validate_line(&line, catalogue(trace)).map_err(|e| format!("{}: {e}", spec.name))?;
            if outcome.failed != 0 {
                return Err(format!(
                    "{}: {} of {} failed",
                    spec.name, outcome.failed, outcome.attempted
                ));
            }
            println!("{line}");
        }
    }
    eprintln!("smoke OK: every result line re-parsed and validated; nothing written");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let done = if let Some(name) = &args.workload {
        match Spec::named(name) {
            Some(spec) => {
                // A wrong result is reported in the line, not by the exit code.
                run_one(&spec, seed, seconds, args.trace);
                Ok(())
            }
            None => Err(format!("no workload named {name:?}")),
        }
    } else if args.all {
        run_all(seed, seconds)
    } else if args.aa {
        run_aa(seed, seconds, args.record)
    } else {
        run_smoke()
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
