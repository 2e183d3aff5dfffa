//! `telemetry_sweep` — wall-clock cost of the telemetry layer, on vs off.
//!
//! Drives the same [`ClusterRun`] workload twice per scale — telemetry
//! disabled (the default) and enabled — and writes the wall-clock
//! comparison as JSON (default `BENCH_telemetry.json`). The disabled leg
//! is the claim under test: with `MonEqConfig::telemetry = false` the
//! layer is one branch per event, so the disabled runs must cost the same
//! as the seed code and produce byte-identical output files.
//!
//! ```text
//! telemetry_sweep [--seed N] [--out FILE] [--quick | --smoke] [--gate PCT]
//! ```
//!
//! `--smoke` runs the single full-Mira leg (1,536 agents) at full pairs —
//! the CI perf-smoke stage. `--gate PCT` exits non-zero if any leg's
//! telemetry overhead exceeds `PCT` percent, making the sweep a pass/fail
//! regression gate instead of a recording run.
//!
//! A leg's overhead is the median of paired on/off wall-clock ratios. Each
//! pair drives off and on back to back, flipping which goes first every
//! pair, so a host slowdown lasting a drive or two skews one ratio, not
//! the estimate; a best-of-N minimum per side would instead let one lucky
//! drive on either side decide it.

use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use moneq::{ClusterResult, ClusterRun, MonEqConfig};
use simkit::SimTime;
use std::time::Instant;

fn drive(seed: u64, agents: usize, virtual_secs: u64, telemetry: bool) -> (f64, ClusterResult) {
    let machine = envmon_bench::bgq_machine(seed, virtual_secs);
    let config = MonEqConfig {
        telemetry,
        ..MonEqConfig::default()
    };
    let mut run = ClusterRun::launch_with(
        agents,
        |rank| Box::new(moneq::backends::BgqBackend::new(machine.clone(), rank % 32)),
        envmon_bench::agent_name,
        SimTime::ZERO,
        config,
    )
    .with_par_agents(moneq::host_cpus());
    let end = SimTime::from_secs(virtual_secs);
    let t0 = Instant::now();
    run.run_until(end);
    let result = run.finalize(end);
    (t0.elapsed().as_secs_f64() * 1e3, result)
}

/// The middle value of `v`, whose length is odd.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `pairs` off/on drives ([`envmon_bench::alternating_pairs`]). Returns
/// the median off and on wall clocks and the median of the per-pair on/off
/// ratios.
fn paired_medians(pairs: usize, f: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    let (off, on) = envmon_bench::alternating_pairs(pairs, f);
    let ratios = off.iter().zip(&on).map(|(a, b)| b / a).collect();
    (median(off), median(on), median(ratios))
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_telemetry.json");
    let mut quick = false;
    let mut smoke = false;
    let mut gate_pct: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().map(Into::into).expect("--out FILE"),
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--gate" => {
                gate_pct = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--gate PCT"),
                )
            }
            other => {
                eprintln!("telemetry_sweep: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    // The smoke leg doubles the virtual window of the recorded 1,536-agent
    // leg: twice the work halves the relative wall-clock noise, which the
    // pass/fail --gate needs more than a recording run does.
    let sweep: &[(usize, u64)] = if smoke {
        &[(1_536, 8)]
    } else if quick {
        &[(128, 4)]
    } else {
        &[(256, 8), (1_536, 4)]
    };
    // The on/off *ratio* is the product here. A single pair's ratio
    // spreads by ±30% on a shared 2-CPU host, far more than the claim under
    // test, so a full leg reads the median of 61 pairs. Quick legs are a
    // few milliseconds each, so 21 pairs cost little there.
    let pairs = if quick { 21 } else { 61 };

    // Sanity: enabling telemetry must not change a single output byte.
    {
        let (_, off) = drive(seed, 64, 4, false);
        let (_, on) = drive(seed, 64, 4, true);
        assert_eq!(off.files, on.files, "telemetry changed the output files");
        assert_eq!(off.overheads, on.overheads, "telemetry changed the ledger");
        assert!(off.telemetry_merged().is_empty(), "off run recorded events");
        assert!(!on.telemetry_merged().is_empty(), "on run recorded nothing");
    }

    let mut rows = Vec::new();
    let mut over_gate = Vec::new();
    for &(agents, virtual_secs) in sweep {
        // Discarded warm-up leg at this footprint (allocator/page faults).
        drop(drive(seed, agents, virtual_secs, false));
        let (_, result) = drive(seed, agents, virtual_secs, true);
        let records: usize = result.files.iter().map(|f| f.points.len()).sum();
        let merged = result.telemetry_merged();
        let events: u64 = merged.counters.values().sum();
        drop(result);
        let (off_ms, on_ms, ratio) = paired_medians(pairs, |telemetry| {
            drive(seed, agents, virtual_secs, telemetry).0
        });
        let pct = (ratio - 1.0) * 100.0;
        eprintln!(
            "agents {agents:>6}  off {off_ms:>8.1} ms  on {on_ms:>8.1} ms  \
             overhead {pct:+.1}%  ({events} events)"
        );
        if gate_pct.is_some_and(|limit| pct > limit) {
            over_gate.push((agents, pct));
        }
        rows.push(
            Fields::default()
                .num("agents", agents)
                .num("virtual_secs", virtual_secs)
                .num("records", records)
                .num("events", events)
                .fixed("off_ms", off_ms, 1)
                .fixed("on_ms", on_ms, 1)
                .fixed("overhead_pct", pct, 1)
                .line(),
        );
    }

    BenchFile {
        head: Fields::default()
            .text("bench", "telemetry_overhead_sweep")
            .num("seed", seed)
            .num("host_cpus", moneq::host_cpus())
            .num("pairs", pairs),
        rows_key: "sweeps",
        rows,
        tail: Fields::default(),
    }
    .write(&out);

    if let Some(limit) = gate_pct {
        for (agents, pct) in &over_gate {
            eprintln!("GATE FAIL: {agents} agents: telemetry overhead {pct:.1}% > {limit:.1}%");
        }
        if !over_gate.is_empty() {
            std::process::exit(1);
        }
        eprintln!("gate ok: all legs within {limit:.1}% telemetry overhead");
    }
}
