//! `cbr-audit` — run the workspace's self-audit from the command line.
//!
//! ```text
//! cbr-audit [lint|flow|race|bound|cplx|invariants|all]… [--json] [--fixtures [--expect-findings]]
//!
//!   lint         per-file conventions A01–A09
//!   flow         call-graph dataflow rules F01–F05
//!   race         lock-discipline rules R01–R05
//!   bound        numeric-safety rules B01–B05
//!   cplx         symbolic complexity rules C01–C05
//!   invariants   structural validate() suite
//!   all          every gate above
//!
//!   --json             machine-readable report, every gate's proof stats included
//!   --fixtures         run the named gates over their seeded-violation trees
//!   --expect-findings  with --fixtures: fail unless every rule of every gate run fired
//! ```
//!
//! The workspace is scanned and parsed **once** and the shared
//! [`cbr_audit::ParsedWorkspace`] handed to every gate named.
//!
//! Exits 0 when clean; otherwise the bitwise OR of the failing gates'
//! bits (lint=1, flow=2, race=4, bound=8, cplx=16, invariants=32), so CI
//! logs show *which* gates failed straight from the status. Usage errors
//! exit 64.

#![forbid(unsafe_code)]

use cbr_audit::{allowlist, run, run_fixtures, Gate, ParsedWorkspace, GATES, USAGE_BIT};

fn usage() -> ! {
    eprintln!(
        "usage: cbr-audit [lint|flow|race|bound|cplx|invariants|all]... [--json] \
         [--fixtures [--expect-findings]]"
    );
    std::process::exit(USAGE_BIT);
}

fn main() {
    let (mut json, mut fixtures, mut expect) = (false, false, false);
    let mut gates: Vec<&Gate> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--fixtures" => fixtures = true,
            "--expect-findings" => expect = true,
            "all" => gates.extend(&GATES),
            name => match GATES.iter().find(|g| g.name == name) {
                Some(gate) => gates.push(gate),
                None => usage(),
            },
        }
    }
    if gates.is_empty() || (expect && !fixtures) {
        usage();
    }

    let root = cbr_audit::workspace_root();
    let report = if fixtures {
        run_fixtures(&gates, &root)
    } else {
        run(&gates, &ParsedWorkspace::load(&root), &allowlist::load(&root))
    };
    print!("{}", if json { report.render_json() } else { report.render_text() });

    if !expect {
        std::process::exit(report.failed);
    }
    // Non-vacuity: every rule of every gate that has a seeded tree must
    // have produced at least one finding on it.
    let mut failed = 0;
    let ran = |gate: &Gate| report.stats.iter().any(|(name, _)| *name == gate.name);
    for gate in gates.iter().filter(|g| ran(g)) {
        for rule in gate.rules {
            if !report.findings.iter().any(|f| f.rule == *rule) {
                eprintln!("expect-findings: {} rule {rule} produced no findings", gate.name);
                failed |= gate.bit;
            }
        }
    }
    if !report.stats.is_empty() && failed == 0 {
        eprintln!("expect-findings: every rule of {} gate(s) fired", report.stats.len());
    }
    std::process::exit(if report.stats.is_empty() { USAGE_BIT } else { failed });
}
