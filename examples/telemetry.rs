//! The telemetry layer, end to end.
//!
//! Enables `MonEqConfig::telemetry` on a faulted BG/Q session and walks
//! the resulting [`simkit::TelemetryReport`]: event counters, the
//! per-mechanism query-latency histogram (whose percentiles reproduce the
//! paper's 1.10 ms EMON per-query constant on the clean polls), and the
//! simulated-time span tree. Finishes with a 48-rank cluster run showing
//! per-rank reports merging exactly, and demonstrates the zero-cost-off
//! guarantee: a telemetry-off run renders byte-identical output.
//!
//! ```text
//! cargo run --example telemetry
//! ```

use envmon::prelude::*;
use std::sync::Arc;

fn main() {
    let mut machine = BgqMachine::new(BgqConfig::default(), 2015);
    machine.assign_job(&[0], &Mmps::figure1().profile());
    let machine = Arc::new(machine);
    let plan = FaultPlan::mechanism(2015, 1.5);
    let horizon = SimTime::from_secs(120);
    let config = MonEqConfig {
        telemetry: true,
        ..MonEqConfig::default()
    };

    let backend = BgqBackend::new(machine.clone(), 0).with_faults(&plan, "rank0/nodecard");
    let session = MonEq::initialize(0, vec![Box::new(backend)], config.clone(), SimTime::ZERO);
    let result = session.finalize(horizon);
    // Finalize hands back the session's typed instruments; the named
    // report is built only here, at read time.
    let report = result.telemetry.report();

    println!("== one instrumented session ==");
    println!(
        "polls: {} scheduled, {} succeeded, {} retried, {} stale-substituted, {} missed",
        report.counter("polls.scheduled"),
        report.counter("polls.succeeded"),
        report.counter("polls.retried"),
        report.counter("polls.stale_substituted"),
        report.counter("polls.missed"),
    );

    // The query-latency histogram is the paper's §II cost comparison as a
    // distribution: the floor is the 1.10 ms EMON constant, the tail is
    // fault recovery (backoff waits, capped stalls).
    let h = &report.histograms["query_latency/bgq-emon"];
    println!(
        "query latency over {} polls: min {}  p50 {}  p99 {}  max {}",
        h.count(),
        h.min().unwrap(),
        h.percentile(0.50),
        h.percentile(0.99),
        h.max().unwrap(),
    );
    assert_eq!(
        h.min().unwrap(),
        SimDuration::from_micros(1_100),
        "the fastest poll is exactly the paper's per-query cost"
    );

    // Spans aggregate in place (count/total/max per name, simulated time).
    println!("spans:");
    for (name, s) in &report.spans {
        println!(
            "  {:<16} x{:<5} total {}  max {}",
            name, s.count, s.total, s.max
        );
    }

    // The full report renders as one text block.
    println!("\n{}", report.render());

    // Telemetry is an observer: switching it off changes no output byte.
    let drive = |telemetry: bool| {
        let b = BgqBackend::new(machine.clone(), 0).with_faults(&plan, "rank0/nodecard");
        let cfg = MonEqConfig {
            telemetry,
            ..MonEqConfig::default()
        };
        MonEq::initialize(0, vec![Box::new(b)], cfg, SimTime::ZERO)
            .finalize(horizon)
            .file
            .render()
    };
    assert_eq!(drive(false), drive(true));
    println!("telemetry off vs on: output files byte-identical — ok");

    // Cluster scale: every rank carries its own report; the merge is the
    // same exact, order-independent fold as Completeness.
    println!("\n== 48-rank instrumented cluster run ==");
    let mut big = BgqMachine::new(BgqConfig::default(), 2015);
    let boards: Vec<usize> = (0..32).collect();
    big.assign_job(&boards, &Mmps::figure1().profile());
    let big = Arc::new(big);
    let mut run = moneq::ClusterRun::launch_with(
        48,
        |rank| {
            Box::new(
                BgqBackend::new(big.clone(), rank % 32)
                    .with_faults(&plan, &format!("rank{rank}/nodecard")),
            )
        },
        |rank| format!("R00-M0-N{rank:02}"),
        SimTime::ZERO,
        config,
    );
    run.run_until(horizon);
    let cluster = run.finalize(horizon);

    let merged = cluster.telemetry_merged();
    let per_rank: u64 = cluster
        .telemetry
        .iter()
        .map(|r| r.report().counter("polls.scheduled"))
        .sum();
    assert_eq!(merged.counter("polls.scheduled"), per_rank);
    println!(
        "merged over 48 ranks: {} polls, {} fresh records, {} retries",
        merged.counter("polls.scheduled"),
        merged.counter("records.fresh"),
        merged.counter("polls.retried"),
    );
    let mh = &merged.histograms["query_latency/bgq-emon"];
    println!(
        "cluster-wide query latency: p50 {}  p99 {}  max {}",
        mh.percentile(0.50),
        mh.percentile(0.99),
        mh.max().unwrap(),
    );
    // The wall-clock scheduling story lives apart from the deterministic
    // report: SchedStats says who did the work, and its busy times are
    // allowed to differ run to run.
    println!(
        "sched (nondeterministic): {} workers",
        cluster.sched.workers
    );
}
