//! Golden conformance for the scenario catalog: replication 0 of every
//! experiment on the pinned seed schedule, byte-for-byte.
//!
//! The scenario artifacts are the control loops' public contract — the
//! controller trace CSV, the summary scalars, and the invariant verdicts
//! all come from seeded arithmetic on the virtual clock, so any change
//! to sensor models, noise draws, controller gains, or rendering shows
//! up as a readable first-difference diff against
//! `tests/golden/scenarios/`.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test scenario_golden
//! git diff tests/golden/scenarios/   # review every changed byte
//! ```

use envmon_bench::{replication_seed, DEFAULT_SEED};
use envmon_scenarios::run_replication;

/// Compare against `tests/golden/scenarios/{name}.txt`, or regenerate it
/// when `GOLDEN_BLESS=1`.
fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/scenarios")
        .join(format!("{name}.txt"));
    envmon_bench::golden::check(
        &path,
        actual,
        "GOLDEN_BLESS=1 cargo test --test scenario_golden",
    );
}

/// Replication 0 of catalog scenario `key` on the default schedule.
fn rep0(key: &str) -> envmon_scenarios::Replication {
    run_replication(key, 0, replication_seed(key, 0, DEFAULT_SEED)).expect("catalog key")
}

#[test]
fn exp1_replication0_matches_golden() {
    let r = rep0("exp1");
    assert!(r.passed(), "{:?}", r.invariants);
    check("exp1", &r.artifact());
}

#[test]
fn exp2_replication0_matches_golden() {
    let r = rep0("exp2");
    assert!(r.passed(), "{:?}", r.invariants);
    check("exp2", &r.artifact());
}

#[test]
fn exp3_replication0_matches_golden() {
    let r = rep0("exp3");
    assert!(r.passed(), "{:?}", r.invariants);
    check("exp3", &r.artifact());
}

#[test]
fn exp4_replication0_matches_golden() {
    let r = rep0("exp4");
    assert!(r.passed(), "{:?}", r.invariants);
    check("exp4", &r.artifact());
}
