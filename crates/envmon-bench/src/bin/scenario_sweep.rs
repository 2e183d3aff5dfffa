//! `scenario_sweep` — run the closed-loop scenario catalog (DESIGN.md
//! §16) and emit `BENCH_scenarios.json`.
//!
//! ```text
//! scenario_sweep [--seed N] [--out FILE] [--quick | --smoke]
//! ```
//!
//! For every catalog entry (`exp1`..`exp4`) the sweep runs the
//! replication schedule — seeds come from
//! [`envmon_bench::replication_seed`], the same helper `repro scenarios`
//! uses, so a BENCH row and a repro summary line for the same
//! `(exp, rep)` pair describe the *same* run — and asserts every
//! machine-checked invariant in-process. A determinism referee then
//! reruns replication 0 of each experiment and byte-compares the full
//! rendered artifact (CSV + JSON + invariant verdicts); any drift is a
//! hard failure, not a tolerance. `--quick` caps replications at 2 for
//! CI; `--smoke` runs one replication per experiment and skips the
//! referee.
//!
//! Each row ends with `"invariant": 1|0`, and the top level carries
//! `"deterministic": 1|0` plus `"determinism_checked": 1|0` (0 only
//! under `--smoke`); `bench_check` gates the first two.

use envmon_bench::bench_file::{BenchFile, Fields};
use envmon_bench::{replication_seed, DEFAULT_SEED};
use envmon_scenarios::CATALOG;

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = std::path::PathBuf::from("BENCH_scenarios.json");
    let mut quick = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out = std::path::PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out needs a path")),
                );
            }
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("usage: scenario_sweep [--seed N] [--out FILE] [--quick | --smoke]");
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let wall = std::time::Instant::now();
    let mut rows: Vec<String> = Vec::new();
    let mut failures = 0usize;

    for spec in CATALOG {
        let reps = if smoke {
            1
        } else if quick {
            spec.replications.min(2)
        } else {
            spec.replications
        };
        eprintln!("== {}: {} ({} reps)", spec.key, spec.title, reps);
        for rep in 0..reps {
            let rep_seed = replication_seed(spec.key, rep, seed);
            let r = (spec.run)(rep, rep_seed);
            eprintln!("   {}", r.summary_line());
            if !r.passed() {
                failures += 1;
                for inv in r.invariants.iter().filter(|i| !i.pass) {
                    eprintln!("   FAILED {}: {}", inv.name, inv.detail);
                }
            }
            rows.push(r.json());
        }
    }

    // Determinism referee: replication 0 of each experiment, rerun from
    // the same seed, must reproduce the artifact byte-for-byte.
    let mut deterministic = true;
    if !smoke {
        for spec in CATALOG {
            let rep_seed = replication_seed(spec.key, 0, seed);
            let a = (spec.run)(0, rep_seed).artifact();
            let b = (spec.run)(0, rep_seed).artifact();
            if a != b {
                deterministic = false;
                eprintln!("   NONDETERMINISTIC: {} rep0 artifacts differ", spec.key);
            }
        }
    }

    BenchFile {
        head: Fields::default()
            .text("bench", "scenario_sweep")
            .num("seed", seed)
            .num("wall_ms", wall.elapsed().as_millis())
            .flag("determinism_checked", !smoke)
            .flag("deterministic", deterministic),
        rows_key: "replications",
        // Replication::json already renders one row per line; the
        // scenario goldens pin those bytes.
        rows,
        tail: Fields::default(),
    }
    .write(&out);

    if failures > 0 {
        eprintln!("scenario_sweep: {failures} replication(s) violated invariants");
        std::process::exit(1);
    }
    if !deterministic {
        eprintln!("scenario_sweep: determinism referee failed");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("scenario_sweep: {msg}");
    std::process::exit(2);
}
