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
# micro scale), the whole workspace's tests, the kNDS and D-Radix crates'
# tests once more as they ship (without the `counters` feature), and the
# benchmark tripwire (fmt, clippy, tests and a smoke run of perfbench/,
# which is outside the workspace and compiles against the crates' public
# API). Run from the repository root. Every step must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

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
# five counter-marked hot loops (the examination step's `ordered` probe
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
    '== Figure 9' '== Ablations' '-- (a)' '-- (b)' '-- (c)' '-- (d)' '-- (f)' '-- (g)' '-- (h)' \
    '== Effectiveness' '== Phase breakdown'; do
    grep -qF -- "$header" <<<"$repro_out" || {
        echo "repro smoke: no '$header' section in the report" >&2
        exit 1
    }
done
# Every package, not just the root one: the kNDS equivalence/streaming/
# tracing suites, the C05 counter harness and the analyzers' fixture pins
# live in member crates (the one brute-force oracle, tests/oracle.rs, in
# the root package).
cargo test -q --workspace
# The shipped build of the kNDS and D-Radix hot loops. `cbr-audit`'s
# dev-dependency turns on their `counters` feature and resolver 2 unifies
# it, so the workspace run above compiles both crates *with* the C05
# probes; `-p` alone builds them as release, `repro` and perfbench do,
# without (`cargo tree -e features,dev -p cbr-knds` shows no `counters`).
cargo test -q -p cbr-knds -p cbr-dradix
# Benchmark tripwire: perfbench/ is a package of its own (BENCHMARK.json
# builds it from source), so nothing above notices when a crate API it
# compiles against changes. Lint, test and smoke-run it (micro sizes,
# oracle on, writes nothing).
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin bench -- --smoke
