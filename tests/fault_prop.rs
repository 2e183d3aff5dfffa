//! Property tests for the fault-injection and degradation layer.
//!
//! Three guarantees (DESIGN.md §8):
//!
//! 1. A fault-injected session never panics, and its completeness counters
//!    reconcile exactly — every scheduled poll and every expected record
//!    lands in exactly one bucket, whatever the plan, seed, or intensity.
//! 2. A zero-rate plan is byte-identical to a run without the fault layer:
//!    `FaultPlan::none()` and `FaultPlan::mechanism(seed, 0.0)` render the
//!    same bytes as an un-faulted backend.
//! 3. Fault runs are deterministic per seed, and serial vs parallel
//!    [`ClusterRun`] drives produce identical results — fault decisions are
//!    indexed draws, so worker scheduling cannot perturb them.

use envmon::prelude::*;
use moneq::{ClusterResult, ClusterRun};
use proptest::prelude::*;
use std::sync::Arc;

/// A faulted multi-mechanism cluster run: BG/Q, RAPL, and NVML backends
/// round-robined across ranks, every device with its own fault stream.
fn run_faulted(
    seed: u64,
    plan: FaultPlan,
    agents: usize,
    secs: u64,
    par_agents: usize,
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
    let mut run = ClusterRun::launch(
        agents,
        None,
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
    )
    .with_par_agents(par_agents);
    run.run_until(SimTime::from_secs(secs));
    run.finalize(SimTime::from_secs(secs))
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    /// (1) No panic, and exact reconciliation — per rank and merged.
    #[test]
    fn faulted_runs_never_panic_and_counters_reconcile(
        seed in 0u64..1_000,
        intensity in 0.0f64..4.0,
        agents in 3usize..10,
        secs in 3u64..8,
    ) {
        let plan = FaultPlan::mechanism(seed, intensity);
        let result = run_faulted(seed, plan, agents, secs, 1);
        prop_assert_eq!(result.files.len(), agents);
        for per_rank in &result.completeness {
            for c in per_rank {
                prop_assert!(c.reconciles(), "rank counters: {c:?}");
            }
        }
        for m in result.completeness_by_device() {
            prop_assert!(m.reconciles(), "merged counters: {m:?}");
        }
        // Stale markers in the files agree with the stale-record counters.
        let marked: u64 = result
            .files
            .iter()
            .flat_map(|f| &f.points)
            .filter(|p| p.stale)
            .count() as u64;
        let counted: u64 = result
            .completeness
            .iter()
            .flatten()
            .map(|c| c.records_stale)
            .sum();
        prop_assert_eq!(marked, counted, "stale markers vs counters");
    }

    /// (2) Zero fault rate renders byte-identical output to no fault layer.
    #[test]
    fn zero_rate_is_byte_identical_to_unfaulted(
        seed in 0u64..1_000,
        agents in 2usize..6,
    ) {
        let unfaulted = run_faulted(seed, FaultPlan::none(), agents, 4, 1);
        for plan in [FaultPlan::mechanism(seed, 0.0), FaultPlan::uniform(seed, 0.0)] {
            let zeroed = run_faulted(seed, plan, agents, 4, 1);
            prop_assert_eq!(&unfaulted.files, &zeroed.files);
            for (a, b) in unfaulted.files.iter().zip(&zeroed.files) {
                prop_assert_eq!(a.render(), b.render());
            }
            for per_rank in &zeroed.completeness {
                for c in per_rank {
                    prop_assert!(c.is_clean(), "zero-rate degraded: {c:?}");
                }
            }
        }
    }

    /// (3) Same seed -> identical faults; serial == parallel.
    #[test]
    fn fault_runs_deterministic_serial_vs_parallel(
        seed in 0u64..1_000,
        intensity in 0.5f64..3.0,
        workers in 2usize..8,
        tail in 1usize..64,
    ) {
        // 32-rank chunks: enough whole ones to reach the width, then a
        // tail of up to two more, ragged unless it fills them.
        let agents = 32 * (workers - 1) + tail;
        let plan = FaultPlan::mechanism(seed, intensity);
        let serial = run_faulted(seed, plan, agents, 4, 1);
        let parallel = run_faulted(seed, plan, agents, 4, workers);
        prop_assert_eq!(parallel.sched.workers, workers);
        prop_assert_eq!(&serial.files, &parallel.files);
        prop_assert_eq!(&serial.overheads, &parallel.overheads);
        prop_assert_eq!(&serial.completeness, &parallel.completeness);
        for (s, p) in serial.files.iter().zip(&parallel.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }
}

/// The acceptance-scale smoke: the paper's full-Mira fan-out (1,536
/// node-card agents) under a nonzero seeded plan completes without
/// panicking, reconciles exactly, and reproduces across serial and
/// parallel drives.
#[test]
fn full_mira_faulted_run_reconciles_and_reproduces() {
    let plan = FaultPlan::mechanism(2015, 1.0);
    let serial = run_faulted(2015, plan, 1_536, 4, 1);
    assert_eq!(serial.files.len(), 1_536);
    let merged = serial.completeness_by_device();
    assert!(!merged.is_empty());
    let mut scheduled = 0u64;
    for m in &merged {
        assert!(m.reconciles(), "merged counters: {m:?}");
        scheduled += m.scheduled;
    }
    assert!(scheduled >= 1_536, "every rank polled at least once");
    assert!(
        merged.iter().any(|m| !m.is_clean()),
        "a nonzero plan at Mira scale must inject something"
    );
    let parallel = run_faulted(2015, plan, 1_536, 4, 4);
    assert_eq!(parallel.sched.workers, 4);
    assert_eq!(serial.files, parallel.files);
    assert_eq!(serial.completeness, parallel.completeness);
}
