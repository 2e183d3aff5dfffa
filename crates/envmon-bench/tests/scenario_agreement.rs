//! The two entry points into the scenario catalog — `repro scenarios`
//! and the `scenario_sweep` bench bin — must describe the *same* runs:
//! both derive per-replication seeds from
//! `envmon_bench::replication_seed`. This test runs both real binaries
//! and checks their output against an in-process replication driven by
//! the shared schedule, so neither binary can silently grow its own
//! seed derivation.

use envmon_bench::{replication_seed, DEFAULT_SEED};
use envmon_scenarios::run_replication;
use std::process::Command;

/// The in-process ground truth: exp1 replication 0 at the default seed.
fn reference() -> envmon_scenarios::Replication {
    run_replication("exp1", 0, replication_seed("exp1", 0, DEFAULT_SEED)).expect("catalog key")
}

#[test]
fn repro_prints_the_shared_schedule() {
    let expected = reference().summary_line();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("exp1")
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.lines().any(|l| l.trim() == expected),
        "repro exp1 output lacks the schedule's rep0 line\nwant: {expected}\ngot:\n{stdout}"
    );
}

#[test]
fn scenario_sweep_emits_the_shared_schedule() {
    let expected_row = reference().json();
    let out_path = std::env::temp_dir().join(format!(
        "scenario_agreement_{}_BENCH.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_sweep"))
        .args(["--smoke", "--out"])
        .arg(&out_path)
        .output()
        .expect("run scenario_sweep");
    assert!(
        out.status.success(),
        "scenario_sweep exited {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("read BENCH json");
    let _ = std::fs::remove_file(&out_path);
    assert!(
        json.lines()
            .any(|l| l.trim().trim_end_matches(',') == expected_row),
        "sweep JSON lacks the schedule's exp1 rep0 row\nwant: {expected_row}\ngot:\n{json}"
    );
    // Every emitted replication row passed its invariants.
    for line in json.lines().filter(|l| l.contains("\"exp\"")) {
        assert!(
            line.contains("\"invariant\": 1"),
            "row failed invariants: {line}"
        );
    }
}

#[test]
fn non_default_run_seed_still_agrees_across_paths() {
    // A --seed override perturbs every replication identically on both
    // paths; the schedule helper is the single source of truth.
    let s1 = replication_seed("exp3", 2, 7);
    let s2 = replication_seed("exp3", 2, 7);
    assert_eq!(s1, s2);
    assert_ne!(s1, replication_seed("exp3", 2, DEFAULT_SEED));
}
