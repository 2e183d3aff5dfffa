//! Property tests for the POWER9 OCC as a full citizen of every
//! subsystem: fault-stream isolation, wire transparency, cache-plan
//! byte-identity on the 25 ms grid, and bit-for-bit accuracy closure.

use envmon::prelude::*;
use envmon_accuracy::{ErrorReport, OccProbe};
use hpc_workloads::SquareWave;
use moneq::{ClusterResult, ClusterRun};
use proptest::prelude::*;
use std::sync::Arc;

/// A short burst-wave profile (cheap enough per proptest case).
fn wave_profile(secs: u64) -> WorkloadProfile {
    let mut w = SquareWave::burst();
    w.virtual_runtime = SimDuration::from_secs(secs);
    w.profile()
}

fn chip(profile: &WorkloadProfile, secs: u64) -> Arc<Power9Chip> {
    Arc::new(Power9Chip::new(
        P9Spec::default(),
        profile,
        SimTime::from_secs(secs + 10),
    ))
}

/// A two-rank cluster: rank 0 is an OCC under `occ_plan`, rank 1 a BG/Q
/// node card under the fixed `bgq_plan`. Fault draws are indexed per
/// device label, so whatever storm rank 0 rides out must not move a
/// single draw — or byte — of rank 1's session.
fn run_mixed(seed: u64, secs: u64, occ_plan: FaultPlan, bgq_plan: FaultPlan) -> ClusterResult {
    let profile = wave_profile(secs);
    let chip = chip(&profile, secs);
    let occ = Arc::new(Occ::new());
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    machine.assign_job(&[0], &profile);
    let machine = Arc::new(machine);
    let mut run = ClusterRun::launch(
        2,
        None,
        |rank| {
            if rank == 0 {
                Box::new(
                    OccBackend::new(Arc::clone(&chip), Arc::clone(&occ))
                        .with_faults(&occ_plan, "p9chip0"),
                ) as Box<dyn EnvBackend>
            } else {
                Box::new(
                    BgqBackend::new(Arc::clone(&machine), 0).with_faults(&bgq_plan, "nodecard0"),
                )
            }
        },
        |rank| format!("agent{rank}"),
        SimTime::ZERO,
    );
    let end = SimTime::from_secs(secs);
    run.run_until(end);
    run.finalize(end)
}

/// One OCC session, local or behind a link.
fn run_session(secs: u64, interval_ms: u64, link: Option<LinkSpec>) -> moneq::FinalizeResult {
    let profile = wave_profile(secs);
    let backend = OccBackend::new(chip(&profile, secs), Arc::new(Occ::new()));
    let mut session = MonEq::initialize(
        0,
        vec![Box::new(backend)],
        MonEqConfig {
            interval: Some(SimDuration::from_millis(interval_ms)),
            ..MonEqConfig::default()
        },
        SimTime::ZERO,
    );
    if let Some(link) = link {
        session.deploy_remote(link);
    }
    let end = SimTime::from_secs(secs);
    session.run_until(end);
    session.finalize(end)
}

/// An OCC cluster with or without the shared-read collection plan.
fn run_occ_cluster(secs: u64, agents: usize, shared: bool, par_agents: usize) -> ClusterResult {
    let profile = wave_profile(secs);
    let chip = chip(&profile, secs);
    let occ = Arc::new(Occ::new());
    let mut run = ClusterRun::launch(
        agents,
        None,
        |_| Box::new(OccBackend::new(Arc::clone(&chip), Arc::clone(&occ))) as Box<dyn EnvBackend>,
        |rank| format!("agent{rank}"),
        SimTime::ZERO,
    )
    .with_par_agents(par_agents);
    if shared {
        run = run.with_collection_plan(CollectionPlan::shared(agents));
    }
    let end = SimTime::from_secs(secs);
    run.run_until(end);
    run.finalize(end)
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    /// An OCC fault storm never shifts a co-scheduled device's draws: the
    /// BG/Q rank's output is byte-identical whether its OCC neighbour
    /// rides out a storm or runs clean.
    #[test]
    fn occ_fault_stream_is_isolated(
        seed in 0u64..1_000,
        intensity in 0.5f64..4.0,
        secs in 3u64..6,
    ) {
        let bgq_plan = FaultPlan::mechanism(seed, 1.0);
        let stormy = run_mixed(seed, secs, FaultPlan::mechanism(seed, intensity), bgq_plan);
        let calm = run_mixed(seed, secs, FaultPlan::none(), bgq_plan);
        prop_assert_eq!(stormy.files[1].render(), calm.files[1].render());
        prop_assert_eq!(&stormy.completeness[1], &calm.completeness[1]);
        // And the OCC rank itself always reconciles, storm or not.
        for c in stormy.completeness[0].iter().chain(&calm.completeness[0]) {
            prop_assert!(c.reconciles(), "occ counters: {c:?}");
        }
    }

    /// The ideal link moves the OCC's buffer reads without moving a byte.
    #[test]
    fn occ_remote_over_ideal_link_is_byte_identical(
        secs in 2u64..6,
        interval_ms in 25u64..150,
    ) {
        let local = run_session(secs, interval_ms, None);
        let remote = run_session(secs, interval_ms, Some(LinkSpec::ideal()));
        prop_assert_eq!(local.file.render(), remote.file.render());
        prop_assert_eq!(local.overhead, remote.overhead);
    }

    /// Sharing one leader fetch per 25 ms generation redistributes cost,
    /// never data: plan on and plan off render identical files, serial or
    /// parallel.
    #[test]
    fn occ_cache_plan_preserves_bytes_on_the_25ms_grid(
        secs in 2u64..5,
        agents in 2usize..8,
        workers in 1usize..4,
    ) {
        let naive = run_occ_cluster(secs, agents, false, 1);
        let cached = run_occ_cluster(secs, agents, true, workers);
        // Every rank is in one domain, so one chunk on one worker.
        prop_assert_eq!(cached.sched.workers, 1);
        prop_assert_eq!(naive.files.len(), agents);
        for (a, b) in naive.files.iter().zip(&cached.files) {
            prop_assert_eq!(a.render(), b.render());
        }
        // The cache actually worked: one leader fetch per poll grid point.
        prop_assert!(cached.cache.hits > 0, "no hits: {:?}", cached.cache);
        prop_assert_eq!(cached.cache.bypasses, 0);
    }

    /// The OCC probe's error decomposition closes bit-for-bit wherever
    /// the poll grid falls relative to the 25 ms sensor buffers.
    #[test]
    fn occ_decomposition_closes_at_any_phase(
        interval_ms in 30u64..200,
        phase_ns in 0u64..200_000_000,
    ) {
        let interval = SimDuration::from_millis(interval_ms);
        let anchor =
            SimTime::from_secs(5) + SimDuration::from_nanos(phase_ns % interval.as_nanos());
        let profile = wave_profile(40);
        let probe = OccProbe::new(&profile, SimTime::from_secs(45));
        let r = ErrorReport::measure(&probe, anchor, interval, SimTime::from_secs(35));
        prop_assert_eq!(r.decomposition.total(), r.total_error_j());
        // The digital chain's structural zero survives every phase.
        prop_assert_eq!(r.decomposition.noise_j, 0.0);
    }
}
