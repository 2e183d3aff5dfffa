//! `query_sweep` — query throughput vs ingest rate for the monitoring
//! daemon (DESIGN.md §13).
//!
//! Per leg: launch a BG/Q cluster behind an [`envmon_serve::Daemon`],
//! ingest a virtual window, then measure
//!
//! 1. **quiesced qps** — wall-clock queries/second of a threaded client
//!    batch against the paused daemon, with the serial run's chained
//!    digests as the byte-identity referee (`coherent`);
//! 2. **live qps** — queries/second while the main thread keeps ticking
//!    the daemon, i.e. queries genuinely concurrent with ingest;
//! 3. **rollup exactness** — every series' tier aggregates equal the raw
//!    fold bit for bit over the whole served window (`exact`).
//!
//! Wall-clock numbers are recorded for trend reading; the *invariants*
//! (`exact`, `coherent`) are what `bench_check` gates, because they must
//! hold at any speed on any machine.
//!
//! ```text
//! query_sweep [--seed N] [--out FILE] [--quick]
//! ```

use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use envmon_serve::{clients, ClientWorkload, Daemon, ServeConfig};
use moneq::ClusterRun;
use simkit::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Launch `agents` EMON agents (32 per node card) behind a daemon.
fn launch(seed: u64, agents: usize, virtual_secs: u64) -> Daemon {
    let machine = envmon_bench::bgq_machine(seed, virtual_secs + 8);
    let run = ClusterRun::launch(
        agents,
        None,
        |rank| {
            Box::new(moneq::backends::BgqBackend::new(
                machine.clone(),
                (rank / 32) % 32,
            ))
        },
        envmon_bench::agent_name,
        SimTime::ZERO,
    )
    .with_par_agents(moneq::host_cpus());
    Daemon::new(run, SimTime::ZERO, ServeConfig::default())
}

/// Rollup exactness, every series and tier. The reference fold reads the
/// raw ring, so when a long live phase has evicted raw samples the window
/// starts at the first coarsest-tier boundary fully covered by retained
/// raw data; with no eviction it is the whole served window.
fn store_exact(daemon: &Daemon) -> bool {
    let store = daemon.store();
    let now = daemon.now();
    store.ids().all(|id| {
        let d = store.get(id);
        let from = if d.raw_evicted() == 0 {
            SimTime::ZERO
        } else {
            let coarsest = (0..d.tier_count())
                .map(|t| d.tier_width(t))
                .max()
                .unwrap_or(SimDuration::from_secs(60));
            match d.raw_range(SimTime::ZERO, now).next() {
                Some(oldest) => oldest.at.grid_floor(SimTime::ZERO, coarsest) + coarsest,
                None => return true,
            }
        };
        (0..d.tier_count()).all(|tier| {
            d.aggregate(tier, from, now) == d.aggregate_raw(d.tier_width(tier), from, now)
        })
    })
}

/// Queries concurrent with ingest: reader threads hammer the front while
/// the main thread ticks at least `live_secs` of virtual time *and* at
/// least `min_wall` of wall time (virtual ticks are far faster than wall
/// clock, so without the floor the readers would never get scheduled
/// before ingest finished). Returns (queries answered, wall seconds).
fn live_phase(
    daemon: &mut Daemon,
    n_clients: usize,
    seed: u64,
    live_secs: u64,
    min_wall: std::time::Duration,
) -> (u64, f64) {
    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let front = daemon.front();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..n_clients {
            let front = front.clone();
            let (stop, answered) = (&stop, &answered);
            scope.spawn(move || {
                let w = ClientWorkload::clean(1, 64, seed ^ (i as u64) << 32);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Fresh view every batch, so readers chase the ticks.
                    let reports = clients::run_serial(&front, &w);
                    n += reports.iter().map(|r| r.answered).sum::<u64>();
                }
                answered.fetch_add(n, Ordering::Relaxed);
            });
        }
        let mut ticked = 0;
        while ticked < live_secs || t0.elapsed() < min_wall {
            daemon.run_for(SimDuration::from_secs(1));
            ticked += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    (answered.load(Ordering::Relaxed), t0.elapsed().as_secs_f64())
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_query.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().map(Into::into).expect("--out FILE"),
            "--quick" => quick = true,
            other => {
                eprintln!("query_sweep: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let sweep: &[(usize, u64)] = if quick {
        &[(32, 4)]
    } else {
        &[(32, 8), (128, 8), (512, 4)]
    };
    let n_clients = 4;
    let per_client = if quick { 128 } else { 512 };
    let live_secs = if quick { 1 } else { 2 };

    let mut rows = Vec::new();
    for &(agents, virtual_secs) in sweep {
        let mut daemon = launch(seed, agents, virtual_secs);
        let t0 = Instant::now();
        let records = daemon.run_for(SimDuration::from_secs(virtual_secs));
        let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Quiesced batch: the byte-identity referee plus the qps number.
        let w = ClientWorkload::clean(n_clients, per_client, seed);
        let serial = clients::run_serial(&daemon.front(), &w);
        let t1 = Instant::now();
        let threaded = clients::run_threaded(&daemon.front(), &w);
        let wall = t1.elapsed().as_secs_f64();
        let queries: u64 = threaded.iter().map(|r| r.answered).sum();
        let coherent = clients::fold_reports(&serial) == clients::fold_reports(&threaded);
        assert!(
            coherent,
            "threaded clients diverged from serial at {agents} agents"
        );

        // Live: queries concurrent with ingest.
        let min_wall = std::time::Duration::from_millis(if quick { 50 } else { 200 });
        let (live_queries, live_wall) =
            live_phase(&mut daemon, n_clients, seed, live_secs, min_wall);

        let exact = store_exact(&daemon);
        assert!(exact, "rollup exactness violated at {agents} agents");
        let qps = queries as f64 / wall.max(1e-9);
        let live_qps = live_queries as f64 / live_wall.max(1e-9);
        let ingest_rps = records as f64 / (ingest_ms / 1e3).max(1e-9);
        eprintln!(
            "agents {agents:>4}  ingest {records:>7} rec in {ingest_ms:>7.1} ms  \
             quiesced {qps:>9.0} q/s  live {live_qps:>9.0} q/s"
        );
        rows.push(
            Fields::default()
                .num("agents", agents)
                .num("virtual_secs", virtual_secs)
                .num("records", records)
                .num("series", daemon.store().len())
                .fixed("ingest_ms", ingest_ms, 1)
                .fixed("ingest_rps", ingest_rps, 0)
                .num("clients", n_clients)
                .num("queries", queries)
                .fixed("qps", qps, 0)
                .num("live_queries", live_queries)
                .fixed("live_qps", live_qps, 0)
                .flag("exact", exact)
                .flag("coherent", coherent)
                .line(),
        );
    }

    BenchFile {
        head: Fields::default()
            .text("bench", "query_sweep")
            .num("seed", seed)
            .num("host_cpus", moneq::host_cpus()),
        rows_key: "sweeps",
        rows,
        tail: Fields::default(),
    }
    .write(&out);
}
