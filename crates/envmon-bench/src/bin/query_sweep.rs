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
//! Each leg runs from a fresh launch `reps` times (5, or 3 with
//! `--quick`; the count is in the file's head). Every wall-clock column
//! (`ingest_ms`, `ingest_rps`, `qps`, `live_queries`, `live_qps`) is the
//! median over the repetitions, with its quartiles as `_q1` and `_q3`: one
//! batch swings too much between runs to read a trend from. The
//! *invariants* (`exact`, `coherent`), checked on every repetition, are
//! what `bench_check` gates, because they must hold at any speed on any
//! machine.
//!
//! ```text
//! query_sweep [--seed N] [--out FILE] [--quick]
//! ```

use envmon_analysis::serving::store_exact;
use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use envmon_serve::{clients, ClientWorkload, Daemon, ServeConfig};
use moneq::ClusterRun;
use simkit::stats::quantile;
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

/// What one repetition of a leg measured.
struct Rep {
    records: u64,
    series: usize,
    ingest_ms: f64,
    ingest_rps: f64,
    queries: u64,
    qps: f64,
    live_queries: u64,
    live_qps: f64,
    exact: bool,
    coherent: bool,
}

/// One repetition of a leg from a fresh launch: ingest `virtual_secs`,
/// time a quiesced threaded batch against its serial referee, run the
/// live phase, then check rollup exactness.
fn rep(seed: u64, agents: usize, virtual_secs: u64, n_clients: usize, quick: bool) -> Rep {
    let per_client = if quick { 128 } else { 512 };
    let live_secs = if quick { 1 } else { 2 };
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

    // Live: queries concurrent with ingest.
    let min_wall = std::time::Duration::from_millis(if quick { 50 } else { 200 });
    let (live_queries, live_wall) = live_phase(&mut daemon, n_clients, seed, live_secs, min_wall);

    Rep {
        records,
        series: daemon.store().len(),
        ingest_ms,
        ingest_rps: records as f64 / (ingest_ms / 1e3).max(1e-9),
        queries,
        qps: queries as f64 / wall.max(1e-9),
        live_queries,
        live_qps: live_queries as f64 / live_wall.max(1e-9),
        exact: store_exact(&daemon),
        coherent,
    }
}

/// `key` as the median of `xs`, then its quartiles as `q1` and `q3`.
fn spread(row: Fields, [key, q1, q3]: [&'static str; 3], xs: &[f64], decimals: usize) -> Fields {
    row.fixed(key, quantile(xs, 0.5), decimals)
        .fixed(q1, quantile(xs, 0.25), decimals)
        .fixed(q3, quantile(xs, 0.75), decimals)
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
    let reps = if quick { 3 } else { 5 };

    let mut rows = Vec::new();
    for &(agents, virtual_secs) in sweep {
        let runs: Vec<Rep> = (0..reps)
            .map(|_| rep(seed, agents, virtual_secs, n_clients, quick))
            .collect();
        let exact = runs.iter().all(|r| r.exact);
        let coherent = runs.iter().all(|r| r.coherent);
        assert!(
            coherent,
            "threaded clients diverged from serial at {agents} agents"
        );
        assert!(exact, "rollup exactness violated at {agents} agents");
        let col = |f: fn(&Rep) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
        let ingest_ms = col(|r| r.ingest_ms);
        let qps = col(|r| r.qps);
        let live_qps = col(|r| r.live_qps);
        let first = &runs[0];
        eprintln!(
            "agents {agents:>4}  ingest {:>7} rec in {:>7.1} ms  quiesced {:>9.0} q/s  \
             live {:>9.0} q/s  (medians of {reps})",
            first.records,
            quantile(&ingest_ms, 0.5),
            quantile(&qps, 0.5),
            quantile(&live_qps, 0.5),
        );
        let mut row = Fields::default()
            .num("agents", agents)
            .num("virtual_secs", virtual_secs)
            .num("records", first.records)
            .num("series", first.series);
        row = spread(
            row,
            ["ingest_ms", "ingest_ms_q1", "ingest_ms_q3"],
            &ingest_ms,
            1,
        );
        row = spread(
            row,
            ["ingest_rps", "ingest_rps_q1", "ingest_rps_q3"],
            &col(|r| r.ingest_rps),
            0,
        );
        row = row.num("clients", n_clients).num("queries", first.queries);
        row = spread(row, ["qps", "qps_q1", "qps_q3"], &qps, 0);
        row = spread(
            row,
            ["live_queries", "live_queries_q1", "live_queries_q3"],
            &col(|r| r.live_queries as f64),
            0,
        );
        row = spread(
            row,
            ["live_qps", "live_qps_q1", "live_qps_q3"],
            &live_qps,
            0,
        );
        rows.push(row.flag("exact", exact).flag("coherent", coherent).line());
    }

    BenchFile {
        head: Fields::default()
            .text("bench", "query_sweep")
            .num("seed", seed)
            .num("host_cpus", moneq::host_cpus())
            .num("reps", reps),
        rows_key: "sweeps",
        rows,
        tail: Fields::default(),
    }
    .write(&out);
}
