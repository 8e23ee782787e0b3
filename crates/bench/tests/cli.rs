//! `repro` refuses what it does not know before it builds anything: the
//! removed `--json`/`--smoke`/`--label` flags and a mistyped command all
//! exit 2 with one line on stderr and nothing on stdout.

use std::process::Command;

#[test]
fn unknown_commands_and_removed_flags_exit_2_before_any_work() {
    for args in [&["--json"][..], &["--smoke"], &["--label", "x"], &["nosuch"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr is not one line: {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
