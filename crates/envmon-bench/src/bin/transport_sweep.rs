//! `transport_sweep` — the in-band/out-of-band deployment sweep over the
//! framed wire protocol (DESIGN.md §14).
//!
//! Runs [`envmon_analysis::transport::transport`] and emits one JSON row
//! per mechanism: charged collection cost per deployment, the wire ledger
//! of the faulty-link run, and round-trip percentiles. The *invariants*
//! are what `bench_check` gates, tolerance-free:
//!
//! * `identical` — a remote run over the zero-fault, zero-latency link is
//!   byte-identical to the local run;
//! * `exact` — a latency-only link's cost lands in the overhead ledger as
//!   exactly `polls × 2·latency`, and record timestamps shift by exactly
//!   one leg;
//! * `reconciled` — the faulty run's wire ledger (`tx = rx + timeouts`)
//!   and completeness ledger both balance.
//!
//! The ablation runs `reps` times (5, or 3 with `--quick`/`--smoke`; the
//! count is in the file's head), and every run must render the same
//! table as the first: the determinism referee. `wall_ms` is the median
//! run, with its quartiles as `wall_ms_q1` and `wall_ms_q3`.
//!
//! ```text
//! transport_sweep [--seed N] [--out FILE] [--quick | --smoke]
//! ```

use envmon_analysis::transport::transport;
use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::DEFAULT_SEED;
use std::time::Instant;

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_transport.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().map(Into::into).expect("--out FILE"),
            "--quick" | "--smoke" => smoke = true,
            other => {
                eprintln!("transport_sweep: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let reps = if smoke { 3 } else { 5 };
    let timed = || {
        let t0 = Instant::now();
        let table = transport(seed);
        (t0.elapsed().as_secs_f64() * 1e3, table)
    };
    let (first_ms, table) = timed();
    let rendered = table.render();
    let mut wall_ms = vec![first_ms];
    for _ in 1..reps {
        let (ms, again) = timed();
        wall_ms.push(ms);
        assert_eq!(
            again.render(),
            rendered,
            "transport ablation is not deterministic in its seed"
        );
    }

    assert!(
        table.all_identical(),
        "zero-latency remote != local somewhere"
    );
    assert!(table.all_exact(), "latency or fault ledger drifted");

    for r in &table.rows {
        eprintln!(
            "{:<14} {:<12} polls {:>5}  local {:>12}  latent {:>12}  \
             tx {:>5}  retrans {:>4}  rtt p50 {:>10}  [{}{}{}]",
            r.mechanism,
            r.band,
            r.polls,
            r.local_collection.to_string(),
            r.latent_collection.to_string(),
            r.wire_tx,
            r.wire_retrans,
            r.rtt_p50.to_string(),
            if r.ideal_identical { "I" } else { "-" },
            if r.latency_exact { "E" } else { "-" },
            if r.faulty_reconciles { "R" } else { "-" },
        );
    }

    BenchFile {
        head: Fields::default()
            .text("bench", "transport_sweep")
            .num("seed", seed)
            .num("reps", reps)
            .spread(["wall_ms", "wall_ms_q1", "wall_ms_q3"], &wall_ms, 1)
            .flag("all_identical", table.all_identical())
            .flag("all_exact", table.all_exact()),
        rows_key: "mechanisms",
        rows: table
            .rows
            .iter()
            .map(|r| {
                Fields::default()
                    .text("mechanism", &r.mechanism)
                    .text("band", r.band)
                    .num("polls", r.polls)
                    .num("local_ns", r.local_collection.as_nanos())
                    .num("ideal_ns", r.ideal_collection.as_nanos())
                    .num("latent_ns", r.latent_collection.as_nanos())
                    .num("latency_ns", r.latency.as_nanos())
                    .flag("identical", r.ideal_identical)
                    .flag("exact", r.latency_exact)
                    .num("tx", r.wire_tx)
                    .num("rx", r.wire_rx)
                    .num("retrans", r.wire_retrans)
                    .num("timeouts", r.wire_timeouts)
                    .num("rtt_p50_ns", r.rtt_p50.as_nanos())
                    .num("rtt_p99_ns", r.rtt_p99.as_nanos())
                    .flag("reconciled", r.faulty_reconciles)
                    .line()
            })
            .collect(),
        tail: Fields::default(),
    }
    .write(&out);
}
