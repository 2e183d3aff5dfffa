//! `cache_sweep` — what batched collection saves on a BG/Q node card.
//!
//! Drives the EMON workload twice per scale — every agent collecting for
//! itself vs one leader per 32-node node card
//! ([`moneq::CollectionPlan::node_card`]) — and writes the comparison as
//! JSON (default `BENCH_cache.json`). Two claims are under test:
//!
//! 1. the charged virtual collection cost drops by the sharing-domain
//!    factor (~32× for a full node card: one EMON query per generation
//!    instead of 32);
//! 2. the output files are byte-identical either way — the plan changes
//!    cost, never data — checked on every leg, not just asserted once.
//!
//! The wall-clock columns (`naive_ms`, `planned_ms`) come from `reps`
//! back-to-back naive/planned pairs (11, or 3 with `--quick`; the count is
//! in the file's head), flipping which drive goes first every pair. Each
//! is the median over its pairs, with its quartiles as `_q1` and `_q3`:
//! a single drive swings too much between runs to read a trend from.
//!
//! ```text
//! cache_sweep [--seed N] [--out FILE] [--quick]
//! ```

use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use moneq::{ClusterResult, ClusterRun, CollectionPlan};
use simkit::stats::quantile;
use simkit::{SimDuration, SimTime};
use std::time::Instant;

/// Drive `agents` EMON agents, 32 per node card (consecutive ranks share a
/// card, matching the node-card sharing domain).
fn drive(seed: u64, agents: usize, virtual_secs: u64, plan: bool) -> (f64, ClusterResult) {
    let machine = envmon_bench::bgq_machine(seed, virtual_secs);
    let cards = 32; // one rack: 2 midplanes x 16 node cards
    let mut run = ClusterRun::launch(
        agents,
        None,
        |rank| {
            Box::new(moneq::backends::BgqBackend::new(
                machine.clone(),
                (rank / 32) % cards,
            ))
        },
        envmon_bench::agent_name,
        SimTime::ZERO,
    )
    .with_par_agents(moneq::host_cpus());
    if plan {
        run = run.with_collection_plan(CollectionPlan::node_card());
    }
    let end = SimTime::from_secs(virtual_secs);
    let t0 = Instant::now();
    run.run_until(end);
    let result = run.finalize(end);
    (t0.elapsed().as_secs_f64() * 1e3, result)
}

fn collection_us(result: &ClusterResult) -> f64 {
    result
        .overheads
        .iter()
        .fold(SimDuration::ZERO, |acc, o| acc + o.collection)
        .as_nanos() as f64
        / 1e3
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_cache.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().map(Into::into).expect("--out FILE"),
            "--quick" => quick = true,
            other => {
                eprintln!("cache_sweep: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let sweep: &[(usize, u64)] = if quick {
        &[(32, 4)]
    } else {
        &[(32, 8), (128, 8), (512, 4)]
    };
    let reps = if quick { 3 } else { 11 };

    let mut rows = Vec::new();
    for &(agents, virtual_secs) in sweep {
        // Discarded warm-up leg at this footprint (allocator/page faults).
        drop(drive(seed, agents, virtual_secs, false));
        let (_, naive) = drive(seed, agents, virtual_secs, false);
        let (_, planned) = drive(seed, agents, virtual_secs, true);
        let identical = naive.files == planned.files;
        assert!(identical, "the collection plan changed the output files");
        let records: usize = naive.files.iter().map(|f| f.points.len()).sum();
        let naive_us = collection_us(&naive);
        let planned_us = collection_us(&planned);
        let (hits, misses) = (planned.cache.hits, planned.cache.misses);
        drop((naive, planned));
        let (naive_ms, planned_ms) =
            envmon_bench::alternating_pairs(reps, |plan| drive(seed, agents, virtual_secs, plan).0);
        let factor = naive_us / planned_us;
        eprintln!(
            "agents {agents:>5}  charged {naive_us:>12.0} us -> {planned_us:>10.0} us \
             ({factor:.1}x)  wall {:>7.1} -> {:>7.1} ms (medians of {reps})",
            quantile(&naive_ms, 0.5),
            quantile(&planned_ms, 0.5),
        );
        if rows.is_empty() {
            // The headline claim: a full 32-agent node card pays >= 10x
            // (in fact exactly 32x) less charged collection time.
            assert!(
                factor >= 10.0,
                "node-card batching only saved {factor:.1}x, expected ~32x"
            );
        }
        rows.push(
            Fields::default()
                .num("agents", agents)
                .num("virtual_secs", virtual_secs)
                .num("records", records)
                .fixed("naive_collection_us", naive_us, 1)
                .fixed("planned_collection_us", planned_us, 1)
                .fixed("collection_factor", factor, 1)
                .num("cache_hits", hits)
                .num("cache_misses", misses)
                .spread(["naive_ms", "naive_ms_q1", "naive_ms_q3"], &naive_ms, 1)
                .spread(
                    ["planned_ms", "planned_ms_q1", "planned_ms_q3"],
                    &planned_ms,
                    1,
                )
                .num("outputs_identical", identical)
                .line(),
        );
    }

    BenchFile {
        head: Fields::default()
            .text("bench", "cache_collection_sweep")
            .num("seed", seed)
            .num("host_cpus", moneq::host_cpus())
            .num("reps", reps)
            .num("domain_size", 32),
        rows_key: "sweeps",
        rows,
        tail: Fields::default(),
    }
    .write(&out);
}
