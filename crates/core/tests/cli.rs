//! End-to-end tests of the `crank` CLI binary: demo → build → stats →
//! rds/sds → tune → dot, each via a real child process.

use std::path::PathBuf;
use std::process::Command;

fn crank() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crank"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbr-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn crank");
    assert!(
        out.status.success(),
        "crank failed: {}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Builds a demo index, returning (dir, a query of two labels from doc 0).
fn demo_index(tag: &str) -> (PathBuf, String) {
    let dir = workdir(tag);
    run_ok(
        crank()
            .arg("demo")
            .args(["--out", dir.to_str().unwrap()])
            .args(["--concepts", "400"])
            .args(["--docs", "60"]),
    );
    let index = dir.join("index");
    run_ok(
        crank()
            .arg("build")
            .args(["--ontology", dir.join("ontology.tsv").to_str().unwrap()])
            .args(["--docs", dir.join("documents.tsv").to_str().unwrap()])
            .args(["--out", index.to_str().unwrap()]),
    );
    // Pull two labels from the first non-empty document line.
    let docs = std::fs::read_to_string(dir.join("documents.tsv")).unwrap();
    let line = docs.lines().find(|l| !l.starts_with('#') && l.contains('\t')).unwrap();
    let labels: Vec<&str> = line.split('\t').nth(1).unwrap().split('|').take(2).collect();
    (dir, labels.join("|"))
}

#[test]
fn full_cli_pipeline() {
    let (dir, query) = demo_index("pipeline");
    let index = dir.join("index");
    let index = index.to_str().unwrap();

    let stats = run_ok(crank().arg("stats").args(["--index", index]));
    assert!(stats.contains("concepts:"), "{stats}");
    assert!(stats.contains("total documents:"), "{stats}");

    let rds = run_ok(
        crank().arg("rds").args(["--index", index]).args(["--query", &query]).args(["-k", "5"]),
    );
    assert!(rds.contains("note-0000"), "doc 0 contains the query: {rds}");
    assert!(rds.lines().count() >= 6, "header + 5 results: {rds}");

    let sds = run_ok(
        crank().arg("sds").args(["--index", index]).args(["--doc", "note-0000"]).args(["-k", "3"]),
    );
    assert!(sds.contains("(query document)"), "{sds}");

    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn expansion_tune_and_dot() {
    let (dir, query) = demo_index("extras");
    let index = dir.join("index");
    let index = index.to_str().unwrap();

    let expanded = run_ok(
        crank()
            .arg("rds")
            .args(["--index", index])
            .args(["--query", &query])
            .args(["--expand", "2"]),
    );
    assert!(expanded.contains("query variants"), "{expanded}");

    let tuned = run_ok(crank().arg("tune").args(["--index", index, "-k", "5"]));
    assert!(tuned.contains("--eps"), "{tuned}");

    let dot_file = dir.join("graph.dot");
    run_ok(
        crank()
            .arg("dot")
            .args(["--index", index])
            .args(["--query", &query])
            .args(["--radius", "1"])
            .args(["--out", dot_file.to_str().unwrap()]),
    );
    let dot = std::fs::read_to_string(&dot_file).unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(dot.contains("triangle"), "query nodes are triangles: {dot}");

    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn builds_from_raw_text_notes() {
    let (dir, _query) = demo_index("text");
    // Author two raw notes mentioning labels from the demo ontology.
    let ont_text = std::fs::read_to_string(dir.join("ontology.tsv")).unwrap();
    let label = ont_text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split('\t').nth(1))
        .nth(20)
        .unwrap()
        .to_string();
    let notes = format!(
        "note-x\tpatient presents with {label} on exam.\n\
         note-y\tstable course, no {label} today.\n"
    );
    let notes_path = dir.join("notes.tsv");
    std::fs::write(&notes_path, notes).unwrap();
    let text_index = dir.join("text-index");
    run_ok(
        crank()
            .arg("build")
            .args(["--ontology", dir.join("ontology.tsv").to_str().unwrap()])
            .args(["--text-docs", notes_path.to_str().unwrap()])
            .args(["--out", text_index.to_str().unwrap()]),
    );
    // note-x asserts the concept; note-y negates it — RDS must rank note-x
    // strictly first.
    let out = run_ok(
        crank()
            .arg("rds")
            .args(["--index", text_index.to_str().unwrap()])
            .args(["--query", &label])
            .args(["-k", "2"]),
    );
    let first_result = out.lines().nth(1).unwrap();
    assert!(first_result.contains("note-x"), "{out}");
    assert!(first_result.trim().ends_with("0.000"), "{out}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn errors_exit_nonzero_with_message() {
    // Unknown command.
    let out = crank().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing index: refused, and not created as a side effect.
    let missing = std::env::temp_dir().join(format!("cbr-cli-{}-missing", std::process::id()));
    let e = run_err(crank().arg("stats").args(["--index", missing.to_str().unwrap()]));
    assert!(e.contains("-missing"), "names the directory: {e}");
    assert!(!missing.exists());

    // Unknown label.
    let (dir, _q) = demo_index("err");
    let out = crank()
        .arg("rds")
        .args(["--index", dir.join("index").to_str().unwrap()])
        .args(["--query", "definitely not a concept"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no concept labeled"));
    std::fs::remove_dir_all(dir).unwrap();
}

/// Runs `cmd` expecting the typed failure path: exit status 1 and exactly
/// one `error: …` line on stderr — no panic message, no backtrace.
fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn crank");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    stderr
}

/// README's quick start, as written there: default demo sizes and the
/// query it prints.
#[test]
fn readme_quick_start_runs_as_written() {
    let dir = workdir("readme");
    let at = |leaf: &str| dir.join(leaf).to_str().unwrap().to_string();
    run_ok(crank().args(["demo", "--out", &at("")]));
    run_ok(crank().args(["build", "--ontology", &at("ontology.tsv")]).args([
        "--docs",
        &at("documents.tsv"),
        "--out",
        &at("index"),
    ]));
    let query = "distal cardiac inflammation|primary cardiac neoplasm";
    let rds = run_ok(crank().args(["rds", "--index", &at("index"), "--query", query, "-k", "5"]));
    assert_eq!(rds.lines().count(), 6, "header + 5 results: {rds}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn help_lists_every_command() {
    let help = run_ok(crank().arg("help"));
    let first = help.lines().next().unwrap();
    assert_eq!(first, "usage: crank <demo|build|stats|rds|sds|tune|dot> [flags]");
    for command in ["demo", "build", "stats", "rds", "sds", "tune", "dot"] {
        assert!(help.lines().skip(1).any(|l| l.trim_start().starts_with(command)), "{command}");
    }
}

#[test]
fn bad_flags_and_bad_indexes_fail_with_one_typed_line() {
    let (dir, query) = demo_index("hostile");
    let index = dir.join("index");
    let index_arg = index.to_str().unwrap();

    let e = run_err(crank().arg("rds").args(["--index", index_arg, "--frobnicate", "1"]));
    assert!(e.contains("unknown flag --frobnicate"), "{e}");
    let e = run_err(crank().arg("rds").args(["--query", &query]));
    assert!(e.contains("missing required flag --index"), "{e}");
    let e = run_err(crank().arg("rds").args(["--index", index_arg, "--query"]));
    assert!(e.contains("needs a value"), "{e}");
    let e = run_err(crank().arg("stats").args(["--index", index_arg, "--eps", "1.5"]));
    assert!(e.contains("--eps"), "{e}");

    // Each of the four snapshot files in turn: one flipped byte, a torn
    // tail, plain garbage, and the file gone.
    for name in ["ontology", "corpus", "config", "names"] {
        let path = index.join(format!("{name}.snap"));
        let good = std::fs::read(&path).unwrap();
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x40;
        for bad in [&flipped[..], &good[..good.len() - 3], b"garbage"] {
            std::fs::write(&path, bad).unwrap();
            run_err(crank().arg("stats").args(["--index", index_arg]));
        }
        std::fs::remove_file(&path).unwrap();
        run_err(crank().arg("rds").args(["--index", index_arg, "--query", &query]));
        std::fs::write(&path, &good).unwrap();
    }

    // A well-formed names snapshot of the wrong length is a mismatch, not
    // a later out-of-bounds lookup.
    let names = cbr_index::SnapshotStore::open(&index);
    names.save("names", &0u64.to_le_bytes()).unwrap();
    let e = run_err(crank().arg("stats").args(["--index", index_arg]));
    assert!(e.contains("0 names for 60 documents"), "{e}");

    std::fs::remove_dir_all(dir).unwrap();
}
