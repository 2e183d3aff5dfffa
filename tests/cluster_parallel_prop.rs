//! Property test: a parallel [`ClusterRun`] is indistinguishable from a
//! serial one.
//!
//! Sessions are rank-independent and the reduce is in rank order, so the
//! scoped fan-out of each phase must be a pure wall-clock optimization: for
//! the same seed and agents, the gathered [`ClusterResult`] — files,
//! overhead ledgers, drop counts, and the rendered bytes — is identical
//! whatever the phase width, the chunk size or the number of phases.

use envmon::prelude::*;
use moneq::{ClusterResult, ClusterRun};
use proptest::prelude::*;
use std::sync::Arc;

/// Launch a BG/Q cluster run. `with_host_cpus(par_agents)` lifts the
/// host-CPU cap to the requested width, so phases really run on that many
/// threads even when the test host has a single CPU (where the default cap
/// would silently keep every phase on the calling thread).
fn launch_bgq(seed: u64, agents: usize, secs: u64, par_agents: usize) -> ClusterRun {
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
    ClusterRun::launch(
        agents,
        None,
        |rank| Box::new(BgqBackend::new(machine.clone(), rank % 32)),
        |rank| format!("agent{rank:04}"),
        SimTime::ZERO,
    )
    .with_par_agents(par_agents)
    .with_host_cpus(par_agents.max(1))
}

fn run_cluster(
    seed: u64,
    agents: usize,
    secs: u64,
    par_agents: usize,
    chunk_size: usize,
) -> ClusterResult {
    let mut run = launch_bgq(seed, agents, secs, par_agents).with_chunk_size(chunk_size);
    let mid = SimTime::from_secs(secs / 2 + 1);
    let end = SimTime::from_secs(secs);
    run.run_until(mid);
    run.start_tag_all("phase2", mid);
    run.run_until(end);
    run.end_tag_all("phase2", end);
    run.finalize(end)
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(12))]

    #[test]
    fn parallel_equals_serial(
        seed in 0u64..1_000,
        agents in 4usize..24,
        workers in 2usize..9,
        chunk_size in 1usize..6,
    ) {
        let serial = run_cluster(seed, agents, 4, 1, 1);
        let parallel = run_cluster(seed, agents, 4, workers, chunk_size);
        prop_assert_eq!(&serial.files, &parallel.files);
        prop_assert_eq!(&serial.overheads, &parallel.overheads);
        prop_assert_eq!(serial.dropped_records, parallel.dropped_records);
        // Byte-identical rendered output, rank by rank.
        for (s, p) in serial.files.iter().zip(&parallel.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }

    /// Many consecutive parallel `run_until` phases, each its own scope,
    /// are byte-identical to a serial multi-phase drive AND to a parallel
    /// single-phase drive straight to the end (each phase dispatch is a
    /// pure wall-clock optimization; virtual time drives everything).
    #[test]
    fn many_phases_equal_one_phase(
        seed in 0u64..1_000,
        agents in 4usize..16,
        workers in 2usize..6,
        chunk_size in 1usize..5,
        phases in 2u64..6,
    ) {
        let end = SimTime::from_secs(phases);
        let drive_phased = |par: usize| {
            let mut run = launch_bgq(seed, agents, phases, par).with_chunk_size(chunk_size);
            for k in 1..=phases {
                run.run_until(SimTime::from_secs(k));
            }
            run.finalize(end)
        };
        let serial = drive_phased(1);
        let phased = drive_phased(workers);
        // A parallel run driven to the end in one run_until phase.
        let mut once = launch_bgq(seed, agents, phases, workers).with_chunk_size(chunk_size);
        once.run_until(end);
        let once = once.finalize(end);
        prop_assert_eq!(&serial.files, &phased.files);
        prop_assert_eq!(&serial.overheads, &phased.overheads);
        prop_assert_eq!(&phased.files, &once.files);
        prop_assert_eq!(&phased.overheads, &once.overheads);
        for (s, p) in serial.files.iter().zip(&phased.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }
}
