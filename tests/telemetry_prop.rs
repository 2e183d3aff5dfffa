//! Property tests for the telemetry layer (DESIGN.md §9).
//!
//! Three guarantees:
//!
//! 1. Telemetry is an *observer*: enabling it changes no output byte — the
//!    files, overhead ledgers, and completeness counters of a telemetry-on
//!    run are identical to the telemetry-off (seed-behavior) run.
//! 2. Telemetry is *deterministic*: per-rank reports are built from
//!    simulated time and indexed fault draws only, so serial and parallel
//!    [`ClusterRun`] drives produce identical `TelemetryReport`s, whatever
//!    the phase width.
//! 3. The merged report is an exact fold: merged counters equal the sum of
//!    the per-rank counters, and merged histograms carry every sample.

use envmon::prelude::*;
use moneq::{ClusterResult, ClusterRun, SessionTelemetry};
use proptest::prelude::*;
use simkit::TelemetryReport;
use std::sync::Arc;

/// A multi-mechanism cluster run with telemetry on or off: BG/Q, RAPL, and
/// NVML backends round-robined across ranks, every device with its own
/// fault stream (mirrors `fault_prop.rs`).
fn run_cluster(
    seed: u64,
    plan: FaultPlan,
    agents: usize,
    secs: u64,
    par_agents: usize,
    telemetry: bool,
) -> ClusterResult {
    let profile = {
        let mut p = WorkloadProfile::new("prop", SimDuration::from_secs(secs));
        p.set_demand(
            Channel::Cpu,
            powermodel::PhaseBuilder::new()
                .phase(SimDuration::from_secs(secs), 0.6)
                .build(),
        );
        p
    };
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    let boards: Vec<usize> = (0..agents.min(32)).collect();
    machine.assign_job(&boards, &profile);
    let machine = Arc::new(machine);
    let socket = Arc::new(SocketModel::new(SocketSpec::default(), &profile));
    let nvml = Arc::new(Nvml::init(
        &[DeviceConfig {
            spec: GpuSpec::k20(),
            workload: profile.clone(),
            horizon: SimTime::from_secs(secs + 5),
        }],
        seed,
    ));
    let mut run = ClusterRun::launch_with(
        agents,
        |rank| {
            let label = format!("rank{rank}");
            match rank % 3 {
                0 => {
                    Box::new(BgqBackend::new(machine.clone(), rank % 32).with_faults(&plan, &label))
                        as Box<dyn EnvBackend>
                }
                1 => Box::new(
                    RaplBackend::new(socket.clone(), MsrAccess::root(), seed)
                        .expect("root access")
                        .with_faults(&plan, &label),
                ),
                _ => Box::new(NvmlBackend::new(nvml.clone()).with_faults(&plan, &label)),
            }
        },
        |rank| format!("agent{rank:04}"),
        SimTime::ZERO,
        MonEqConfig {
            telemetry,
            ..MonEqConfig::default()
        },
    )
    .with_par_agents(par_agents);
    run.run_until(SimTime::from_secs(secs));
    run.finalize(SimTime::from_secs(secs))
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    /// (1) Enabling telemetry changes no output byte vs. seed behavior.
    #[test]
    fn telemetry_on_is_byte_identical_to_off(
        seed in 0u64..1_000,
        intensity in 0.0f64..3.0,
        agents in 3usize..8,
    ) {
        let plan = FaultPlan::mechanism(seed, intensity);
        let off = run_cluster(seed, plan, agents, 4, 1, false);
        let on = run_cluster(seed, plan, agents, 4, 1, true);
        prop_assert_eq!(&off.files, &on.files);
        for (a, b) in off.files.iter().zip(&on.files) {
            prop_assert_eq!(a.render(), b.render());
        }
        prop_assert_eq!(&off.overheads, &on.overheads);
        prop_assert_eq!(&off.completeness, &on.completeness);
        // The off run records nothing at all; the on run records per rank.
        prop_assert!(off.telemetry_merged().is_empty());
        for rank in &off.telemetry {
            prop_assert!(rank.report().is_empty());
        }
        prop_assert!(on.telemetry_merged().counter("polls.scheduled") > 0);
    }

    /// (2) Serial and parallel drives yield identical telemetry reports.
    #[test]
    fn telemetry_deterministic_serial_vs_parallel(
        seed in 0u64..1_000,
        intensity in 0.5f64..3.0,
        workers in 2usize..8,
        tail in 1usize..64,
    ) {
        // 32-rank chunks: enough whole ones to reach the width, then a
        // tail of up to two more, ragged unless it fills them.
        let agents = 32 * (workers - 1) + tail;
        let plan = FaultPlan::mechanism(seed, intensity);
        let serial = run_cluster(seed, plan, agents, 4, 1, true);
        let parallel = run_cluster(seed, plan, agents, 4, workers, true);
        prop_assert_eq!(parallel.sched.workers, workers);
        prop_assert_eq!(&serial.telemetry, &parallel.telemetry);
        prop_assert_eq!(serial.telemetry_merged(), parallel.telemetry_merged());
        prop_assert_eq!(&serial.files, &parallel.files);
    }

    /// (3) The merge is an exact fold of the per-rank reports.
    #[test]
    fn merged_telemetry_is_exact_sum_of_ranks(
        seed in 0u64..1_000,
        intensity in 0.0f64..3.0,
        agents in 3usize..10,
    ) {
        let plan = FaultPlan::mechanism(seed, intensity);
        let result = run_cluster(seed, plan, agents, 4, 1, true);
        prop_assert_eq!(result.telemetry.len(), agents);
        let merged = result.telemetry_merged();
        let ranks: Vec<TelemetryReport> =
            result.telemetry.iter().map(SessionTelemetry::report).collect();
        // Counters: merged value == sum over ranks, key by key.
        for (key, total) in &merged.counters {
            let sum: u64 = ranks.iter().map(|r| r.counter(key)).sum();
            prop_assert_eq!(*total, sum, "counter {}", key);
        }
        // Histograms: merged count and sum carry every per-rank sample.
        for (key, h) in &merged.histograms {
            let count: u64 = ranks
                .iter()
                .filter_map(|r| r.histograms.get(key))
                .map(|h| h.count())
                .sum();
            prop_assert_eq!(h.count(), count, "histogram {}", key);
        }
        // Re-folding by hand gives the same report (order independence).
        let mut refold = TelemetryReport::default();
        for r in ranks.iter().rev() {
            refold.absorb(r);
        }
        prop_assert_eq!(refold, merged);
    }
}

/// Acceptance-scale smoke: telemetry at the paper's full-Mira fan-out
/// (1,536 node-card agents) reproduces across serial and parallel drives
/// and reconciles with the completeness ledger.
#[test]
fn full_mira_telemetry_reproduces() {
    let plan = FaultPlan::mechanism(2015, 1.0);
    let serial = run_cluster(2015, plan, 1_536, 4, 1, true);
    let parallel = run_cluster(2015, plan, 1_536, 4, 4, true);
    assert_eq!(parallel.sched.workers, 4);
    assert_eq!(serial.telemetry, parallel.telemetry);
    let merged = serial.telemetry_merged();
    let scheduled: u64 = serial
        .completeness_by_device()
        .iter()
        .map(|c| c.scheduled)
        .sum();
    assert_eq!(merged.counter("polls.scheduled"), scheduled);
}
