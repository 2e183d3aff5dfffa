//! `cluster_sweep` — wall-clock benchmark of the parallel [`ClusterRun`].
//!
//! Runs the Table III–style cluster fan-out serially and on the worker
//! pool at Mira scales — 1,536 node-card agents (the paper's full-system
//! run), then 16k and 49k node-level agents — and a Figure 8–style
//! machine-wide sum reduction. Wall-clock times and speedups are written
//! as JSON (default `BENCH_cluster.json` in the working directory).
//!
//! ```text
//! cluster_sweep [--seed N] [--out FILE] [--workers N] [--quick]
//! ```

use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use moneq::{ClusterResult, ClusterRun};
use simkit::SimTime;
use std::time::Instant;

fn drive(
    seed: u64,
    agents: usize,
    virtual_secs: u64,
    workers: usize,
    chunk: usize,
) -> (f64, f64, ClusterResult) {
    let machine = envmon_bench::bgq_machine(seed, virtual_secs);
    let t0 = Instant::now();
    let mut run = ClusterRun::launch(
        agents,
        None,
        |rank| Box::new(moneq::backends::BgqBackend::new(machine.clone(), rank % 32)),
        envmon_bench::agent_name,
        SimTime::ZERO,
    )
    .with_par_agents(workers)
    .with_chunk_size(chunk);
    let launch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let end = SimTime::from_secs(virtual_secs);
    let t1 = Instant::now();
    run.run_until(end);
    let result = run.finalize(end);
    let drive_ms = t1.elapsed().as_secs_f64() * 1e3;
    (launch_ms, drive_ms, result)
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_cluster.json");
    // Default pool width = physical CPUs: requesting more only adds
    // scheduling overhead (ClusterRun caps internally regardless, and takes
    // the serial path outright on a single-CPU host).
    let mut workers = moneq::host_cpus();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().map(Into::into).expect("--out FILE"),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers N")
            }
            "--quick" => quick = true,
            other => {
                eprintln!("cluster_sweep: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let chunk = 64;
    // (agents, virtual seconds): the 1,536-agent row is the paper's full
    // Mira run at node-card granularity over a longer window; the 16k/49k
    // rows stress scheduler + memory at node granularity with a short
    // window so the serial baseline stays measurable.
    // The 1M-agent leg (full mode only) probes launch and memory behavior
    // an order of magnitude past the paper's largest machine; one virtual
    // second keeps its serial baseline measurable.
    let sweep: &[(usize, u64)] = if quick {
        &[(256, 4), (1_536, 2)]
    } else {
        &[(1_536, 10), (16_384, 2), (49_152, 2), (1_048_576, 1)]
    };

    // Sanity: the parallel path must be indistinguishable from serial.
    {
        let (_, _, a) = drive(seed, 64, 4, 1, 1);
        let (_, _, b) = drive(seed, 64, 4, workers, 5);
        assert_eq!(a.files, b.files, "parallel diverged from serial");
        assert_eq!(a.overheads, b.overheads, "ledger diverged");
    }

    let mut rows = Vec::new();
    for &(agents, virtual_secs) in sweep {
        // Discarded warm-up leg: the first run at a given footprint pays
        // the allocator/page-fault cost, which would otherwise be billed
        // to whichever leg ran first.
        let (warm_launch_ms, _, _) = drive(seed, agents, virtual_secs, workers, chunk);
        let (serial_launch_ms, serial_ms, serial) = drive(seed, agents, virtual_secs, 1, chunk);
        let records: usize = serial.files.iter().map(|f| f.points.len()).sum();
        drop(serial);
        let (par_launch_ms, parallel_ms, parallel) =
            drive(seed, agents, virtual_secs, workers, chunk);
        assert_eq!(parallel.files.len(), agents);
        let pool_width = parallel.sched.workers.max(1);
        drop(parallel);
        // Launch does identical deterministic work on every drive of a
        // leg, so record the best of the three — the same minimum-as-
        // estimator discipline telemetry_sweep uses against VM jitter.
        let launch_ms = warm_launch_ms.min(serial_launch_ms).min(par_launch_ms);
        let speedup = serial_ms / parallel_ms;
        eprintln!(
            "agents {agents:>7}  serial {serial_ms:>9.1} ms  parallel {parallel_ms:>9.1} ms  \
             speedup {speedup:.2}x  (pool width {pool_width})"
        );
        let row = Fields::default()
            .num("agents", agents)
            .num("virtual_secs", virtual_secs)
            .num("records", records)
            .num("pool_width", pool_width)
            .fixed("launch_ms", launch_ms, 1)
            .fixed("serial_ms", serial_ms, 1)
            .fixed("parallel_ms", parallel_ms, 1);
        // A pool of width 1 ran serial against serial: its ratio is
        // scheduler noise, not a speedup, so the row carries none.
        rows.push(
            if pool_width > 1 {
                row.fixed("speedup", speedup, 2)
            } else {
                row
            }
            .line(),
        );
    }

    // Figure 8-style reduction on the first sweep's scale: machine-wide sum
    // of node-card power across all agents.
    let (fig8_agents, fig8_secs) = sweep[0];
    let (_, _, result) = drive(seed, fig8_agents, fig8_secs, workers, chunk);
    let t = Instant::now();
    let sum = result.sum_series("nodecard");
    let reduce_ms = t.elapsed().as_secs_f64() * 1e3;
    let sum_mean_w = sum.stats().mean();

    BenchFile {
        head: Fields::default()
            .text("bench", "cluster_parallel_sweep")
            .num("seed", seed)
            .num("workers", workers)
            .num("host_cpus", moneq::host_cpus())
            .num("chunk_size", chunk),
        rows_key: "sweeps",
        rows,
        tail: Fields::default().object(
            "figure8_sum",
            &Fields::default()
                .num("agents", fig8_agents)
                .fixed("reduce_ms", reduce_ms, 1)
                .fixed("sum_mean_w", sum_mean_w, 1),
        ),
    }
    .write(&out);
}
