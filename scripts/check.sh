#!/usr/bin/env bash
# Canonical verification for the workspace: formatting, lints, rustdoc, the
# self-hosted audit — one honest `cbr-audit all` pass over the real tree
# (lint A01-A09, flow F01-F05, race R01-R05, bound B01-B05, cplx C01-C05
# and the structural invariants, one parse, one audit.allow) whose JSON
# report must carry non-vacuous proofs (call-graph resolution, the R04
# lock-free read path, the B04 recursion-free hot path, the C03
# differential asymptotic claim), plus one seeded-fixture pass proving
# every rule of every graph gate fires — the cbr-sched schedule
# exploration — including the publish/retire and compaction harnesses
# over the epoch-published snapshot — (same honest + seeded-bug pairing),
# the repro smoke (every report of the paper's evaluation, end to end at
# micro scale), a run of every example, the whole workspace's tests, and the
# benchmark tripwire (fmt, clippy, tests and a smoke run of perfbench/,
# which is outside the workspace and compiles against the crates' public
# API) with the seed-2014 result digests of its read-only workloads, and
# last a check that the run left the working tree as it found it. Run
# from the repository root. Every step must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

# The run must leave the tree as it found it: a step that rewrites a
# tracked file (a lockfile an `--offline` build re-resolves) or leaves an
# untracked one that .gitignore does not cover fails the last check.
tree_state() { git status --porcelain && git diff HEAD --binary | sha256sum; }
tree_before="$(tree_state)"

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc: every intra-doc link resolves and no public doc links a private
# item — a broken link is a doc that silently stopped saying where to look.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Honest tree: all six gates must run clean against audit.allow, and the
# proofs must be non-vacuous. Grepping the one report keeps them honest
# even if the exit code logic regresses: the call graph resolves enough
# internal calls for reachability to mean anything; R04 matched both
# snapshot query roots with zero reachable lock acquisitions; B04 matched
# all eight hot-path roots with zero cyclic functions; C03 recognized the
# D-Radix build as O((|Pq|+|Pd|)·log) with exactly one quadratic root
# (the TA baseline) over a non-empty reachable loop set; C05 links all
# five counter-marked hot loops (the examination step's `ordered` count
# among them) to their bump calls.
audit_json="$(cargo run -q -p cbr-audit -- all --json)"
grep -Eq '"resolution": (1\.000|0\.99[5-9])' <<<"$audit_json"
grep -q '"r04_roots": 2' <<<"$audit_json"
grep -q '"r04_lock_acquisitions": 0' <<<"$audit_json"
grep -q '"b04_roots": 8' <<<"$audit_json"
grep -q '"b04_cyclic_fns": 0' <<<"$audit_json"
grep -q '"c03_dradix_recognized": true' <<<"$audit_json"
grep -q '"c03_quadratic_roots": 1' <<<"$audit_json"
grep -q '"reachable_loops": [1-9]' <<<"$audit_json"
grep -q '"c05_counters": 5' <<<"$audit_json"
# Non-vacuity: the seeded fixture trees must trip every rule of every
# gate that has one (F01-F05, R01-R05, B01-B05, C01-C05).
cargo run -q -p cbr-audit -- all --fixtures --expect-findings
# Honest tree: every concurrency harness must explore clean — the
# publish-retire and compact-race harnesses prove epoch publishes are
# atomic and compaction never invalidates a pinned reader — and the CI
# budget must cover at least a thousand distinct interleavings.
cargo run -q -p cbr-sched -- --budget 1200 --min-schedules 1000 --json
# Non-vacuity: with the seeded bugs compiled in, the checker must find
# them and every printed schedule ID must reproduce its finding.
cargo run -q -p cbr-sched --features seeded-races -- \
    --budget 200 \
    --harness seeded-unlock-race --harness seeded-lock-inversion \
    --expect-findings
# Repro smoke: every report `repro` can print, on the smallest workbench
# with two queries a point (about a second once built). A panicking
# measurement loop fails the run; a report that silently stopped printing
# fails the grep for its header.
repro_out="$(cargo run -q --release -p cbr-bench --bin repro -- all --scale micro --queries 2)"
repro_out+="$(cargo run -q --release -p cbr-bench --bin repro -- phases --scale micro --queries 2)"
for header in '== Ontology statistics' '== Table 3' '== Figure 6' '== Figure 7' '== Figure 8' \
    '== Figure 9' '== Ablations' '-- (b)' '-- (c)' '-- (d)' '-- (f)' '-- (g)' '-- (h)' \
    '== Effectiveness' '== Phase breakdown'; do
    grep -qF -- "$header" <<<"$repro_out" || {
        echo "repro smoke: no '$header' section in the report" >&2
        exit 1
    }
done
# Examples: clippy only compiles them, so run every `[[example]]` the root
# manifest names. The list is read from the manifest, so a new example
# cannot be left out.
examples="$(awk '/^\[/ { in_example = ($0 == "[[example]]") }
    in_example && /^name *=/ { gsub(/^name *= *"|"$/, ""); print }' Cargo.toml)"
[ -n "$examples" ] || {
    echo "examples: no [[example]] in Cargo.toml" >&2
    exit 1
}
for example in $examples; do
    cargo run -q --release --example "$example" >/dev/null
done
# Every package, not just the root one: the kNDS equivalence/streaming/
# tracing suites, the C05 counter harness and the analyzers' fixture pins
# live in member crates (the one brute-force oracle, tests/oracle.rs, in
# the root package).
cargo test -q --workspace
# The SDS lower bound is tighter than the paper's Equation 8 on purpose
# (DESIGN.md §4), and kNDS's exact probes are the distance-field join,
# not the paper's DRC (DESIGN.md §4), so the proptest that holds every
# traced bound between Equation 6/8 and the brute-force distance, the one
# that holds every exact probe to the brute-force distances and DRC, and
# the brute-force oracle of every answering path also run in release at
# four times their case counts (48, 48 and 64).
PROPTEST_CASES=192 cargo test --release -q -p cbr-knds --test equivalence \
    bounds_are_sound_and_examination_is_ordered
PROPTEST_CASES=192 cargo test --release -q -p cbr-knds --test probe
PROPTEST_CASES=256 cargo test --release -q --test oracle
# The Dewey path table of the benchmark's 60,000-concept ontology equals
# the enumerate-and-sort reference builder's, address for address and rank
# for rank. Ignored by the debug suite, where the reference takes seconds.
cargo test --release -q -p cbr-ontology --lib -- --ignored --exact \
    dewey::tests::snomed_like_60k_matches_the_reference
# Benchmark tripwire: perfbench/ is a package of its own (BENCHMARK.json
# builds it from source), so nothing above notices when a crate API it
# compiles against changes. Lint, test and smoke-run it (micro sizes,
# oracle on, writes nothing).
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin bench -- --smoke
# Bit-identical results: at seed 2014 each read-only workload folds its
# rankings into a digest that must match perfbench/baseline.json (the smoke
# run above uses micro sizes, where no digest is checked). `bench` reports
# a mismatch in its last line, `"correct": false`, not in its exit status,
# so that line is grepped.
for workload in patient_sds radio_rds scale_rds; do
    result="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin bench -- \
        --workload "$workload" --seed 2014 --seconds 1 --trace 0 | tail -n 1)"
    grep -q '"correct": true' <<<"$result" || {
        echo "digests: $workload at seed 2014 is not correct: $result" >&2
        exit 1
    }
done
[ "$(tree_state)" = "$tree_before" ] || {
    echo "tree: this run changed the working tree:" >&2
    git status --short >&2
    exit 1
}
