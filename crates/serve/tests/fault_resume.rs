//! Fault injection through the CLI: `CAPSTAN_FAULT_AFTER_CYCLES` kills a
//! journaled sweep with exit code 43 between experiments, and a resume
//! without it prints exactly what an uninterrupted run prints.

mod common;

use std::process::{Command, Stdio};

/// At `small` scale the first experiment simulates ~73k cycles and the
/// second ~163k more, so a 100k threshold lets the run journal the
/// first and die after the second.
const ARGS: [&str; 6] = [
    "table13-atomics",
    "table13-recorded",
    "--mem",
    "cycle",
    "--scale",
    "small",
];

#[test]
fn a_killed_sweep_resumes_to_the_uninterrupted_output() {
    let journal = common::tmpdir("fault-resume");
    let journal_arg = journal.to_str().expect("utf-8 path");
    let mut resumable: Vec<&str> = ARGS.to_vec();
    resumable.extend(["--resume", journal_arg]);

    let killed = Command::new(common::bin())
        .args(&resumable)
        .env("CAPSTAN_FAULT_AFTER_CYCLES", "100000")
        .stdin(Stdio::null())
        .output()
        .expect("run experiments");
    assert_eq!(
        killed.status.code(),
        Some(43),
        "the injected fault did not fire: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    let manifest = std::fs::read_to_string(journal.join("journal")).expect("journal manifest");
    let rows = manifest.lines().count().saturating_sub(1);
    assert_eq!(
        rows, 1,
        "expected only the first experiment journaled:\n{manifest}"
    );

    let resumed = common::run_ok(&resumable, &[]);
    let clean = common::run_ok(&ARGS, &[]);
    assert_eq!(
        String::from_utf8_lossy(&resumed),
        String::from_utf8_lossy(&clean),
        "the resumed sweep diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&journal);
}
