//! Quickstart — Listing 1 of the paper, in Rust.
//!
//! "With as few as two lines of code on any of the hardware platforms …
//! one can easily obtain environmental data for analysis."
//!
//! ```text
//! cargo run --example quickstart
//! ```

use envmon::prelude::*;
use std::sync::Arc;

fn main() {
    // ---- platform setup (the "machine" your job landed on) -------------
    let mut machine = BgqMachine::new(BgqConfig::default(), 2015);
    let app = Mmps::figure1(); // the application we are profiling
    machine.assign_job(&[0], &app.profile());
    let machine = Arc::new(machine);

    // ---- Listing 1: MonEQ_Initialize ... user code ... MonEQ_Finalize --
    let mut session = MonEq::initialize(
        /* rank */ 0,
        vec![Box::new(BgqBackend::new(machine, 0))],
        MonEqConfig::default(),
        SimTime::ZERO,
    );

    // "User code": the MMPS benchmark actually runs here — for real. Its
    // rate is host wall clock, so it goes to stderr: stdout stays
    // byte-identical run to run (tests/golden/examples/quickstart.txt).
    let kernel = app.run();
    eprintln!(
        "MMPS kernel: {} messages delivered at {:.0} msg/s (host wall clock)",
        kernel.messages, kernel.rate_per_sec
    );
    // In virtual time, the job takes its full runtime:
    let end = SimTime::ZERO + app.virtual_runtime;
    session.run_until(end);

    let result = session.finalize(end);

    // ---- what you get ---------------------------------------------------
    println!(
        "collected {} records across 7 domains at {}: ",
        result.file.points.len(),
        SimDuration::from_nanos(result.file.interval_ns),
    );
    let chip_core_mean = result
        .file
        .points
        .iter()
        .filter(|p| p.domain == "Chip Core")
        .map(|p| p.watts)
        .sum::<f64>()
        / result.file.points.len() as f64
        * 7.0;
    println!("mean Chip Core power: {chip_core_mean:.1} W");
    println!(
        "overhead: init {}, collection {} over {} polls, finalize {} (total {:.3}% of runtime)",
        result.overhead.init,
        result.overhead.collection,
        result.overhead.polls,
        result.overhead.finalize,
        result.overhead.fraction() * 100.0
    );
    // The output file round-trips through the text format:
    let text = result.file.render();
    println!(
        "output file: {} bytes, first line {:?}",
        text.len(),
        text.lines().next().unwrap()
    );
}
