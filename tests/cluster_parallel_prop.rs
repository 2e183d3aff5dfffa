//! Property test: a parallel [`ClusterRun`] is indistinguishable from a
//! serial one.
//!
//! Sessions are rank-independent and the reduce is in rank order, so the
//! scoped fan-out of each phase must be a pure wall-clock optimization: for
//! the same seed and agents, the gathered [`ClusterResult`] — files,
//! overhead ledgers, drop counts, the shared-read cache ledger and the
//! rendered bytes — is identical whatever the phase width, the sharing
//! domains or the number of phases.

use envmon::prelude::*;
use moneq::{ClusterResult, ClusterRun, CollectionPlan};
use proptest::prelude::*;
use std::sync::Arc;

/// Launch a BG/Q cluster run of `agents` ranks in `domain`-rank sharing
/// domains, each domain's ranks on one node card (the last domain ragged
/// when `domain` does not divide `agents`).
fn launch_bgq(seed: u64, agents: usize, domain: usize, secs: u64, par_agents: usize) -> ClusterRun {
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
        |rank| Box::new(BgqBackend::new(machine.clone(), rank / domain % 32)),
        |rank| format!("agent{rank:04}"),
        SimTime::ZERO,
    )
    .with_collection_plan(CollectionPlan::shared(domain))
    .with_par_agents(par_agents)
}

/// The ranks one claim covers in `domain`-rank domains: 32, rounded up to
/// whole domains. A phase runs one worker per chunk up to its width, on
/// any host, whatever its CPU count.
fn chunk(domain: usize) -> usize {
    32usize.div_ceil(domain) * domain
}

fn run_cluster(
    seed: u64,
    agents: usize,
    domain: usize,
    secs: u64,
    par_agents: usize,
) -> ClusterResult {
    let mut run = launch_bgq(seed, agents, domain, secs, par_agents);
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
        workers in 2usize..9,
        domain in 1usize..6,
        tail in 1usize..64,
    ) {
        // Enough whole chunks to reach the width, then a tail of up to two
        // more chunks, ragged unless it fills them.
        let agents = chunk(domain) * (workers - 1) + tail;
        let serial = run_cluster(seed, agents, domain, 4, 1);
        let parallel = run_cluster(seed, agents, domain, 4, workers);
        prop_assert_eq!(serial.sched.workers, 1);
        prop_assert_eq!(parallel.sched.workers, workers);
        prop_assert_eq!(&serial.files, &parallel.files);
        prop_assert_eq!(&serial.overheads, &parallel.overheads);
        prop_assert_eq!(serial.dropped_records, parallel.dropped_records);
        prop_assert_eq!(serial.cache, parallel.cache);
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
        workers in 2usize..6,
        domain in 1usize..6,
        tail in 1usize..64,
        phases in 2u64..6,
    ) {
        let agents = chunk(domain) * (workers - 1) + tail;
        let end = SimTime::from_secs(phases);
        let drive_phased = |par: usize| {
            let mut run = launch_bgq(seed, agents, domain, phases, par);
            for k in 1..=phases {
                run.run_until(SimTime::from_secs(k));
            }
            run.finalize(end)
        };
        let serial = drive_phased(1);
        let phased = drive_phased(workers);
        // A parallel run driven to the end in one run_until phase.
        let mut once = launch_bgq(seed, agents, domain, phases, workers);
        once.run_until(end);
        let once = once.finalize(end);
        prop_assert_eq!(phased.sched.workers, workers);
        prop_assert_eq!(once.sched.workers, workers);
        prop_assert_eq!(&serial.files, &phased.files);
        prop_assert_eq!(&serial.overheads, &phased.overheads);
        prop_assert_eq!(serial.cache, phased.cache);
        prop_assert_eq!(&phased.files, &once.files);
        prop_assert_eq!(&phased.overheads, &once.overheads);
        prop_assert_eq!(phased.cache, once.cache);
        for (s, p) in serial.files.iter().zip(&phased.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }
}
