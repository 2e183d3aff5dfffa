//! `accuracy_sweep` — the error-decomposition claims as a guarded bench.
//!
//! Runs the DESIGN.md §11 accuracy ablation and writes the headline
//! numbers as JSON (default `BENCH_accuracy.json`). Three scale-free
//! claims are under test, the same ones `repro accuracy` prints:
//!
//! 1. every decomposition closes **bit-for-bit** (`"exact": 1` on every
//!    row);
//! 2. NVML's and EMON's unsigned cadence error per true joule **grows
//!    with transient frequency** across the slow/medium/fast wave
//!    profiles (the growth ratios are the guarded numbers);
//! 3. RAPL's constant-workload error stays **within one update tick**
//!    (`"rapl_within_tick": 1`), and EMON is the worst mechanism under
//!    the sub-560 ms burst wave (`"emon_burst_factor"` > 1);
//! 4. the OCC's buffer-staleness error also grows with transient
//!    frequency (`"occ_cadence_growth"` > 1), and its digital sensor
//!    chain keeps the noise leg a structural zero on every row
//!    (`"occ_noise_zero": 1`).
//!
//! ```text
//! accuracy_sweep [--seed N] [--out FILE] [--quick]
//! ```

use envmon_analysis::accuracy::{accuracy, AccuracyTable};
use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use std::time::Instant;

/// fast/slow growth of the unsigned cadence share for one mechanism.
fn cadence_growth(table: &AccuracyTable, mechanism: &str) -> f64 {
    let rows = table.mechanism_sweep(mechanism);
    assert_eq!(rows.len(), 3, "{mechanism} sweep incomplete");
    rows[2].cadence_share() / rows[0].cadence_share()
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_accuracy.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().map(Into::into).expect("--out FILE"),
            "--quick" => quick = true,
            other => {
                eprintln!("accuracy_sweep: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    // The ablation itself is one fixed-size sweep; --quick only skips the
    // repeat used to confirm determinism.
    let t0 = Instant::now();
    let table = accuracy(seed);
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !quick {
        assert_eq!(
            accuracy(seed).render(),
            table.render(),
            "accuracy ablation not deterministic"
        );
    }

    // Claim 1: every decomposition closes bit-for-bit.
    let all_rows = || table.sweep.iter().chain(&table.burst);
    for r in all_rows() {
        assert_eq!(
            r.report.decomposition.total(),
            r.report.total_error_j(),
            "{}/{} decomposition open",
            r.profile,
            r.report.mechanism
        );
    }

    // Claim 2: cadence error grows with transient frequency.
    let emon_growth = cadence_growth(&table, "bgq-emon");
    let nvml_growth = cadence_growth(&table, "nvml");
    assert!(emon_growth > 1.0, "EMON cadence flat: {emon_growth}");
    assert!(nvml_growth > 1.0, "NVML cadence flat: {nvml_growth}");

    // Claim 4: the OCC's 25 ms buffer staleness grows the same way, and
    // its digital chain never grows a noise leg.
    let occ_growth = cadence_growth(&table, "p9-occ");
    assert!(occ_growth > 1.0, "OCC cadence flat: {occ_growth}");
    let occ_noise_zero = all_rows()
        .filter(|r| r.report.mechanism == "p9-occ")
        .all(|r| r.report.decomposition.noise_j == 0.0);
    assert!(
        occ_noise_zero,
        "OCC noise leg is no longer a structural zero"
    );

    // Claim 3: RAPL within a tick; EMON worst under the burst wave.
    let rapl_err = table.rapl_constant.total_error_j().abs();
    assert!(
        rapl_err <= table.rapl_tick_bound_j,
        "RAPL error {rapl_err} beyond tick bound {}",
        table.rapl_tick_bound_j
    );
    let emon_burst = table
        .burst
        .iter()
        .find(|r| r.report.mechanism == "bgq-emon")
        .expect("emon burst row");
    let runner_up = table
        .burst
        .iter()
        .filter(|r| r.report.mechanism != "bgq-emon")
        .map(|r| r.cadence_share())
        .fold(0.0f64, f64::max);
    let emon_burst_factor = emon_burst.cadence_share() / runner_up;
    assert!(
        emon_burst_factor > 1.0,
        "EMON not worst: {emon_burst_factor}"
    );

    eprintln!(
        "cadence growth fast/slow: emon {emon_growth:.2}x nvml {nvml_growth:.2}x  \
         occ {occ_growth:.2}x  \
         burst: emon worst by {emon_burst_factor:.2}x  rapl {rapl_err:.4} J <= {:.4} J  \
         ({elapsed_ms:.0} ms)",
        table.rapl_tick_bound_j
    );

    BenchFile {
        head: Fields::default()
            .text("bench", "accuracy_sweep")
            .num("seed", seed)
            .fixed("elapsed_ms", elapsed_ms, 0)
            .fixed("emon_cadence_growth", emon_growth, 3)
            .fixed("nvml_cadence_growth", nvml_growth, 3)
            .fixed("occ_cadence_growth", occ_growth, 3)
            .flag("occ_noise_zero", occ_noise_zero)
            .fixed("emon_burst_factor", emon_burst_factor, 3)
            .fixed("rapl_error_j", rapl_err, 6)
            .fixed("rapl_tick_bound_j", table.rapl_tick_bound_j, 6)
            .flag("rapl_within_tick", rapl_err <= table.rapl_tick_bound_j),
        rows_key: "rows",
        rows: all_rows()
            .map(|r| {
                Fields::default()
                    .text("profile", &r.profile)
                    .text("mechanism", &r.report.mechanism)
                    .num("polls", r.report.polls)
                    .fixed("true_j", r.report.true_energy_j, 3)
                    .fixed("reported_j", r.report.reported_energy_j, 3)
                    .fixed("rel_err_pct", r.report.relative_error() * 100.0, 4)
                    .fixed("cadence_share", r.cadence_share(), 6)
                    .flag(
                        "exact",
                        r.report.decomposition.total() == r.report.total_error_j(),
                    )
                    .line()
            })
            .collect(),
        tail: Fields::default(),
    }
    .write(&out);
}
