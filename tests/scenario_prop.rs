//! Property tests for the closed-loop scenario catalog (DESIGN.md §16).
//!
//! The catalog's headline guarantees, machine-checked:
//!
//! 1. Same seed → byte-identical artifact, for every experiment. The
//!    control loop draws nothing outside the seeded streams, so a
//!    replication replays exactly.
//! 2. Serial and parallel cluster drives produce byte-identical files
//!    and artifacts — actuation happens at the barrier between poll
//!    fires, so worker scheduling cannot reorder controller decisions.
//! 3. `control: false` is *the same program* as never attaching a hook:
//!    the None-default hook path moves no bytes.
//! 4. Every catalog replication on the pinned seed schedule passes its
//!    invariants.
//! 5. (satellite) Faulted sensor reads in exp1 never push an
//!    out-of-range or non-finite power limit through the MSR — the
//!    controller clamp holds under arbitrary fault intensity.

use envmon::prelude::*;
use envmon_bench::{replication_seed, DEFAULT_SEED};
use envmon_scenarios::{exp1, exp2, exp3, Exp1Config, Exp2Config, Exp3Config, CATALOG};
use moneq::ClusterRun;
use proptest::prelude::*;
use std::sync::Arc;

/// A shortened exp1 for the heavier comparisons.
fn exp1_quick() -> Exp1Config {
    Exp1Config {
        ranks: 3,
        horizon: SimTime::from_secs(20),
        ..Exp1Config::default()
    }
}

#[test]
fn same_seed_replications_are_byte_identical() {
    for spec in CATALOG {
        let seed = replication_seed(spec.key, 0, DEFAULT_SEED);
        let a = (spec.run)(0, seed);
        let b = (spec.run)(0, seed);
        assert_eq!(a.artifact(), b.artifact(), "{} drifted", spec.key);
    }
}

#[test]
fn catalog_schedule_replications_pass_invariants() {
    for spec in CATALOG {
        let seed = replication_seed(spec.key, 0, DEFAULT_SEED);
        let r = (spec.run)(0, seed);
        assert!(
            r.passed(),
            "{} rep0 failed: {:?}",
            spec.key,
            r.invariants
                .iter()
                .filter(|i| !i.pass)
                .map(|i| (i.name, i.detail.clone()))
                .collect::<Vec<_>>()
        );
    }
}

// The serial == parallel drives below use clusters of more than one
// 32-rank chunk: a run of at most 32 ranks stays on the calling thread at
// any width, so a smaller one would compare two serial drives.

#[test]
fn exp1_serial_and_parallel_drives_are_byte_identical() {
    // 100 ranks: three whole chunks and a 4-rank tail, on four workers.
    let config = Exp1Config {
        ranks: 100,
        ..exp1_quick()
    };
    let serial = exp1::run(&config, 0, 11);
    let parallel = exp1::run(
        &Exp1Config {
            workers: 4,
            ..config
        },
        0,
        11,
    );
    assert_eq!(serial.files, parallel.files);
    assert_eq!(
        serial.replication.artifact(),
        parallel.replication.artifact()
    );
    assert_eq!(serial.limit_histories, parallel.limit_histories);
}

#[test]
fn exp2_serial_and_parallel_drives_are_byte_identical() {
    // 100 ranks, one per ambient from 24 to 48 °C: three whole chunks and
    // a 4-rank tail, on four workers.
    let config = Exp2Config {
        ambients_c: (0..100)
            .map(|i| 24.0 + f64::from(i) * 24.0 / 99.0)
            .collect(),
        horizon: SimTime::from_secs(120),
        ..Exp2Config::default()
    };
    let serial = exp2::run(&config, 0, 13);
    let parallel = exp2::run(
        &Exp2Config {
            workers: 4,
            ..config
        },
        0,
        13,
    );
    assert_eq!(serial.files, parallel.files);
    assert_eq!(
        serial.replication.artifact(),
        parallel.replication.artifact()
    );
}

#[test]
fn exp3_serial_and_parallel_drives_are_byte_identical() {
    // Two tenants of 32 ranks: one chunk per tenant's node card, so two
    // workers, with and without the sharing plan (exp3 has two tenants).
    let config = Exp3Config {
        ranks_per_tenant: 32,
        ..Exp3Config::default()
    };
    let serial = exp3::run(&config, 0, 17);
    let parallel = exp3::run(
        &Exp3Config {
            workers: 2,
            ..config
        },
        0,
        17,
    );
    assert_eq!(serial.files, parallel.files);
    assert_eq!(
        serial.replication.artifact(),
        parallel.replication.artifact()
    );
}

/// `control: false` must be indistinguishable from a cluster that never
/// heard of control hooks — and from one where every rank's hook factory
/// returns `None` (the default path every pre-existing run takes).
#[test]
fn control_disabled_is_the_no_hook_path() {
    let config = exp1_quick();
    let open_loop = exp1::run(
        &Exp1Config {
            control: false,
            ..config.clone()
        },
        0,
        23,
    );

    let profile = GaussianElimination::figure3().profile();
    let plants: Vec<Arc<CappedSocket>> = (0..config.ranks)
        .map(|_| Arc::new(CappedSocket::new(SocketSpec::default(), &profile)))
        .collect();
    let mut run = ClusterRun::launch(
        config.ranks,
        Some(config.interval),
        |rank| {
            let source = Arc::clone(&plants[rank]) as Arc<dyn PowerSource>;
            Box::new(
                RaplBackend::new(
                    source,
                    MsrAccess::root(),
                    simkit::rng::mix64(23, rank as u64),
                )
                .expect("root access"),
            )
        },
        |rank| format!("cap{rank:02}"),
        SimTime::ZERO,
    );
    // Attach the hook machinery, but every rank declines.
    run.attach_control_hooks(|_| None);
    run.run_until(config.horizon);
    let result = run.finalize(config.horizon);
    let none_hook_files: Vec<String> = result.files.iter().map(moneq::OutputFile::render).collect();

    assert_eq!(open_loop.files, none_hook_files);
    assert!(plants.iter().all(|p| p.limit_history().is_empty()));
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    /// (satellite) Whatever the fault plan does to the sensing path, the
    /// actuated limit stays finite and inside the controller clamp.
    #[test]
    fn exp1_faulted_reads_never_write_out_of_range_limits(
        seed in 0u64..1_000,
        intensity in 0.0f64..3.0,
    ) {
        let out = exp1::run(
            &Exp1Config {
                ranks: 2,
                horizon: SimTime::from_secs(12),
                faults: Some(FaultPlan::mechanism(seed, intensity)),
                ..Exp1Config::default()
            },
            0,
            seed,
        );
        let cmd = out
            .replication
            .invariants
            .iter()
            .find(|i| i.name == "cmd-in-range")
            .expect("exp1 always checks cmd-in-range");
        prop_assert!(cmd.pass, "{}", cmd.detail);
        // And what the register actually holds obeys the same clamp.
        let units = rapl_sim::PowerUnits::sandy_bridge_sim();
        for history in &out.limit_histories {
            for (_, limit) in history {
                prop_assert!(limit.limit_watts.is_finite());
                prop_assert!(
                    limit.limit_watts >= exp1::LIMIT_FLOOR_W - units.watts_per_count()
                        && limit.limit_watts <= exp1::LIMIT_CEIL_W,
                    "register holds {} W",
                    limit.limit_watts
                );
            }
        }
    }
}
