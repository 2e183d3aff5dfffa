//! exp3 — multi-tenant co-schedule on shared EMON node-card domains.
//!
//! Two jobs land on one BG/Q midplane slice: an MMPS-shaped tenant on
//! node card 0 and a Gaussian-elimination tenant on node card 1, four
//! monitoring ranks each. All eight agents poll EMON; a
//! [`moneq::CollectionPlan`] groups each card's four ranks into one
//! sharing domain, so per generation one leader pays the EMON access-path
//! cost and three followers read the same generation at no charge.
//!
//! The contention story is the paper's: EMON data is *per node card*, so
//! co-resident tenants read the same registers — the plan changes who
//! pays, never what anyone sees. Three drives of the same cluster pin
//! that down.
//!
//! Invariants checked per replication:
//! * `plan-transparent` — planned and naive co-run output files are
//!   byte-identical.
//! * `tenant-isolated` — tenant A's four files are byte-identical whether
//!   tenant B's job is computing on card 1 or the card sits idle: a
//!   co-tenant's *workload* never leaks into a neighbor domain's data.
//!   (The monitoring topology itself stays fixed — cluster size changes
//!   init cost and with it every poll timestamp, which is modeled, not a
//!   leak.)
//! * `cache-ledger-exact` — exactly one cache lookup per poll: per
//!   generation the card's leader misses, its three followers hit, zero
//!   bypasses.
//! * `cost-ratio-exact` — naive collection time is exactly
//!   `domain_size ×` the planned leaders' collection time.

use crate::artifact::{fmt_f64, Invariant, Replication};
use bgq_sim::{BgqConfig, BgqMachine};
use hpc_workloads::{GaussianElimination, Mmps};
use moneq::backends::BgqBackend;
use moneq::{ClusterResult, ClusterRun, CollectionPlan, OutputFile};
use simkit::SimTime;
use std::sync::Arc;

/// exp3 knobs. [`Default`] is the catalog configuration.
#[derive(Clone, Debug)]
pub struct Exp3Config {
    /// Monitoring ranks per tenant (= per node card).
    pub ranks_per_tenant: usize,
    /// Run horizon.
    pub horizon: SimTime,
    /// Phase width of the cluster drive, as in [`crate::Exp1Config`].
    pub workers: usize,
}

impl Default for Exp3Config {
    fn default() -> Self {
        Exp3Config {
            ranks_per_tenant: 4,
            horizon: SimTime::from_secs(30),
            workers: 1,
        }
    }
}

/// Everything one exp3 replication produced.
pub struct Exp3Run {
    /// The rendered artifact.
    pub replication: Replication,
    /// Rendered co-run (planned) output file per rank.
    pub files: Vec<String>,
}

/// Assemble the machine: tenant A (MMPS) on card 0, and — when tenant B
/// is "computing" — a Gaussian-elimination job on card 1. With B idle the
/// card still exists and is still monitored; only its workload is gone.
fn machine(seed: u64, tenant_b_computing: bool) -> Arc<BgqMachine> {
    let mut m = BgqMachine::new(BgqConfig::default(), seed);
    m.assign_job(&[0], &Mmps::figure1().profile());
    if tenant_b_computing {
        m.assign_job(&[1], &GaussianElimination::figure3().profile());
    }
    Arc::new(m)
}

/// Drive `ranks` agents over `machine`, rank `r` watching node card
/// `r / ranks_per_tenant`, with or without the sharing plan.
fn drive(
    config: &Exp3Config,
    machine: &Arc<BgqMachine>,
    ranks: usize,
    plan: Option<CollectionPlan>,
) -> ClusterResult {
    let mut run = ClusterRun::launch(
        ranks,
        None, // EMON's own 560 ms floor.
        |rank| {
            Box::new(BgqBackend::new(
                Arc::clone(machine),
                rank / config.ranks_per_tenant,
            ))
        },
        |rank| format!("tenant{rank:02}"),
        SimTime::ZERO,
    )
    .with_par_agents(config.workers);
    if let Some(plan) = plan {
        run = run.with_collection_plan(plan);
    }
    run.run_until(config.horizon);
    run.finalize(config.horizon)
}

/// Run one exp3 replication.
pub fn run(config: &Exp3Config, rep: usize, seed: u64) -> Exp3Run {
    let ranks = 2 * config.ranks_per_tenant;
    let co = machine(seed, true);
    let b_idle = machine(seed, false);

    let planned = drive(
        config,
        &co,
        ranks,
        Some(CollectionPlan::shared(config.ranks_per_tenant)),
    );
    let naive = drive(config, &co, ranks, None);
    let idle_b = drive(config, &b_idle, ranks, None);

    let planned_files: Vec<String> = planned.files.iter().map(OutputFile::render).collect();
    let naive_files: Vec<String> = naive.files.iter().map(OutputFile::render).collect();
    let idle_files: Vec<String> = idle_b.files.iter().map(OutputFile::render).collect();

    // ---- invariants -----------------------------------------------------
    let plan_transparent = planned_files == naive_files;
    // Tenant A's files must not change with B's workload; B's own files
    // must (otherwise the check proves nothing).
    let tenant_isolated = idle_files[..config.ranks_per_tenant]
        == naive_files[..config.ranks_per_tenant]
        && idle_files[config.ranks_per_tenant..] != naive_files[config.ranks_per_tenant..];

    let cache = &planned.cache;
    let polls: u64 = planned.overheads.iter().map(|o| o.polls).sum();
    let polls_per_rank = planned.overheads[0].polls;
    // One lookup per poll; per generation the card's leader misses and
    // its three followers hit.
    let expected_misses = 2 * polls_per_rank;
    let expected_hits = polls - expected_misses;
    let ledger_exact = cache.bypasses == 0
        && cache.misses == expected_misses
        && cache.hits == expected_hits
        && planned.overheads.iter().all(|o| o.polls == polls_per_rank);

    let planned_collection: u64 = planned
        .overheads
        .iter()
        .map(|o| o.collection.as_nanos())
        .sum();
    let naive_collection: u64 = naive
        .overheads
        .iter()
        .map(|o| o.collection.as_nanos())
        .sum();
    let cost_ratio_exact = naive_collection == config.ranks_per_tenant as u64 * planned_collection;

    // ---- artifact -------------------------------------------------------
    let mut csv = String::from("rank,card,polls,planned_collection_ns,naive_collection_ns\n");
    for rank in 0..ranks {
        csv.push_str(&format!(
            "{rank},{},{},{},{}\n",
            rank / config.ranks_per_tenant,
            planned.overheads[rank].polls,
            planned.overheads[rank].collection.as_nanos(),
            naive.overheads[rank].collection.as_nanos(),
        ));
    }

    let replication = Replication {
        exp: "exp3",
        rep,
        seed,
        csv,
        summary: vec![
            ("ranks", ranks.to_string()),
            ("polls", polls.to_string()),
            ("cache_hits", cache.hits.to_string()),
            ("cache_misses", cache.misses.to_string()),
            (
                "collection_ratio",
                fmt_f64(naive_collection as f64 / planned_collection as f64),
            ),
        ],
        invariants: vec![
            Invariant::new(
                "plan-transparent",
                plan_transparent,
                "planned and naive co-run files byte-identical",
            ),
            Invariant::new(
                "tenant-isolated",
                tenant_isolated,
                "tenant A files unchanged by tenant B's workload; B's own files do change",
            ),
            Invariant::new(
                "cache-ledger-exact",
                ledger_exact,
                format!(
                    "hits {} misses {} bypasses {} over {polls} polls",
                    cache.hits, cache.misses, cache.bypasses
                ),
            ),
            Invariant::new(
                "cost-ratio-exact",
                cost_ratio_exact,
                format!(
                    "naive {naive_collection} ns == {} x planned {planned_collection} ns",
                    config.ranks_per_tenant
                ),
            ),
        ],
    };

    Exp3Run {
        replication,
        files: planned_files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_is_transparent_and_exact() {
        let out = run(&Exp3Config::default(), 0, 5);
        assert!(out.replication.passed(), "{:?}", out.replication.invariants);
        assert_eq!(out.files.len(), 8);
    }

    #[test]
    fn emon_minimum_interval_produces_polls() {
        let out = run(&Exp3Config::default(), 0, 5);
        let polls = out
            .replication
            .summary
            .iter()
            .find(|(k, _)| *k == "polls")
            .map(|(_, v)| v.parse::<u64>().expect("count"))
            .expect("summary field");
        // 30 s / 560 ms ≈ 54 polls per rank, 8 ranks.
        assert!(polls > 8 * 40, "polls {polls}");
    }
}
