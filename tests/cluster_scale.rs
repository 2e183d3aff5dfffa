//! Integration: multi-rank cluster runs — Table III through the cluster
//! layer and the §III scalability claim.

use envmon::prelude::*;
use moneq::{finalize_time, ClusterRun};
use std::sync::Arc;

/// Table III's numbers must come out the same whether computed by the
/// representative-agent model (what `tables::table3` uses) or by actually
/// running one session per agent and taking the worst case.
#[test]
fn table3_cluster_run_matches_representative_agent_model() {
    let app = FixedRuntime::table3();
    let profile = app.profile();
    let end = SimTime::ZERO + app.virtual_runtime;
    for agents in [1usize, 16] {
        let mut machine = BgqMachine::new(BgqConfig::default(), 7);
        let boards: Vec<usize> = (0..agents).collect();
        machine.assign_job(&boards, &profile);
        let machine = Arc::new(machine);
        let mut run = ClusterRun::launch(
            agents,
            None,
            |rank| Box::new(BgqBackend::new(machine.clone(), rank)),
            |rank| format!("R00-M0-N{rank:02}"),
            SimTime::ZERO,
        );
        run.run_until(end);
        let result = run.finalize(end);
        let worst = result.worst_case_overhead();
        // Finalize follows the wave model exactly.
        assert_eq!(worst.finalize, finalize_time(agents));
        // Collection is identical on every (homogeneous) agent.
        for o in &result.overheads {
            assert_eq!(o.collection, worst.collection);
            assert_eq!(o.polls, worst.polls);
        }
        // And matches the published magnitude (~0.39-0.40 s).
        let coll = worst.collection.as_secs_f64();
        assert!((coll - 0.3871).abs() < 0.02, "collection {coll}");
    }
}

/// §III: "our experiences with MonEQ show that it can easily scale to a
/// full system run on Mira (49,152 compute nodes)" — 1,536 agent ranks.
/// Run the full agent count (with a shortened app so the test stays quick)
/// and check the per-agent ledgers and files all materialize.
#[test]
fn full_mira_scale_smoke() {
    const AGENTS: usize = 1_536; // 49,152 nodes / 32
    let profile = {
        let mut p = WorkloadProfile::new("short", SimDuration::from_secs(10));
        p.set_demand(
            Channel::Cpu,
            powermodel::PhaseBuilder::new()
                .phase(SimDuration::from_secs(10), 0.6)
                .build(),
        );
        p
    };
    // One shared single-rack machine; ranks map onto its 32 boards (the
    // per-card truth is identical across racks for a homogeneous job, so
    // modulo-mapping is exact and avoids a 48-rack allocation).
    let mut machine = BgqMachine::new(BgqConfig::default(), 7);
    machine.assign_job(&(0..32).collect::<Vec<_>>(), &profile);
    let machine = Arc::new(machine);
    let mut run = ClusterRun::launch(
        AGENTS,
        None,
        |rank| Box::new(BgqBackend::new(machine.clone(), rank % 32)),
        |rank| format!("agent{rank:04}"),
        SimTime::ZERO,
    )
    .with_par_agents(8);
    let end = SimTime::from_secs(10);
    run.run_until(end);
    let result = run.finalize(end);
    assert_eq!(result.sched.workers, 8);
    assert_eq!(result.files.len(), AGENTS);
    assert_eq!(result.dropped_records, 0);
    // Every agent collected the same number of records.
    let n0 = result.files[0].points.len();
    assert!(n0 > 0);
    assert!(result.files.iter().all(|f| f.points.len() == n0));
    // Finalize at this scale stays practical (<20 s), per EXPERIMENTS.md.
    let worst = result.worst_case_overhead();
    assert!(worst.finalize < SimDuration::from_secs(20));
    assert!(worst.finalize > SimDuration::from_secs(10));
    // The machine-wide sum is ~1536 × one card's power.
    let sum = result.sum_series("nodecard");
    let per_card = sum.stats().mean() / AGENTS as f64;
    assert!(
        (1_000.0..1_400.0).contains(&per_card),
        "per-card mean {per_card}"
    );
}
