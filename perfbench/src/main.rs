//! Command-line entry point.
//!
//! ```text
//! envmon-perfbench --workload fleet-49k|dash-256|live-remote --seed N
//!                  --seconds S --trace 0|1
//! ```
//!
//! Prints the run's report lines, then one JSON result line. Exits 1 when
//! an output check failed — including the guard that the whole process
//! ran on one thread — and 2 on a usage error (printing no result).

use envmon_perfbench::{run, Config, Size, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("envmon-perfbench: {msg}");
    eprintln!(
        "usage: envmon-perfbench --workload fleet-49k|dash-256|live-remote --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = envmon_perfbench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required")
    };
    let mut outcome = run(&Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    });
    // Every workload runs on this one thread: a worker pool or a client
    // thread beside it would measure the scheduler, not the code.
    let threads = envmon_perfbench::stats::proc_status("Threads");
    outcome.log.push(format!(
        "check threads={}",
        threads.map_or("?".to_owned(), |n| n.to_string())
    ));
    if threads != Some(1) {
        outcome.fail(format!("the process ran {threads:?} threads, not 1"));
    }
    for line in &outcome.log {
        println!("{line}");
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
