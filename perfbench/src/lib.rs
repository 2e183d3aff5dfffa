//! # envmon-perfbench — the envmon stack's end-to-end benchmark
//!
//! Three workloads, each a closed loop on one thread with no disk I/O
//! (see `README.md` in this directory for why each has its shape):
//!
//! * `fleet-49k` — MonEQ collection at Mira's 49,152 nodes, then
//!   finalize and render (the paper's Table III question);
//! * `dash-256` — a dashboard client's query stream against a quiesced
//!   monitoring daemon;
//! * `live-remote` — daemon ticks over a faulty LAN with a shared-read
//!   plan, each followed by a dashboard refresh.
//!
//! A run makes one unmeasured warm-up *pass* (set-up, timed work,
//! finalize), then repeats passes until the requested seconds have
//! elapsed. Every pass runs the same timed operations on the same
//! inputs; each operation's times are folded into one — a query's
//! fastest answer, a tick's or a step's mean over the passes — and the
//! throughput and latency percentiles are taken over those. `setup_s`
//! is the median set-up over passes. Every pass checks its outputs. A traced run alternates untraced and traced passes, times
//! each layer from outside ([`trace`], [`timed`]) and reports the
//! per-layer metrics ([`layers`]) of its median traced pass.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod common;
mod dash;
mod fleet;
pub mod layers;
mod live;
mod queries;
pub mod stats;
pub mod timed;
pub mod trace;

use stats::{median, percentile};
use std::time::Instant;

/// The seed whose output digests are pinned.
pub const DEFAULT_SEED: u64 = 2015;

/// Pool width every workload drives `ClusterRun` at.
pub const POOL_WIDTH: usize = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Collection at full-machine scale.
    Fleet,
    /// The query path on a quiesced store.
    Dash,
    /// Daemon ticks with a dashboard refresh after each.
    Live,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Dash, Workload::Live];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet-49k",
            Workload::Dash => "dash-256",
            Workload::Live => "live-remote",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The quantile reported as `latency_tail_ms`: the highest one with
    /// at least ten operations beyond it at full size (dash-256: 4,000
    /// queries; live-remote: 120 ticks). A fleet-49k pass has only three
    /// one-second steps, so its tail is the slowest step.
    pub fn tail(self) -> f64 {
        match self {
            Workload::Fleet => 1.0,
            Workload::Dash => 0.99,
            Workload::Live => 0.90,
        }
    }

    /// How a run folds each operation's times over its passes into one.
    fn fold(self) -> fn(&[&[f64]]) -> Vec<f64> {
        match self {
            // A query is answered five times a pass, about ninety times
            // in a 55-second run, often enough to meet a moment when the
            // host left the core alone: its fastest answer is the cost of
            // the code.
            Workload::Dash => stats::column_mins,
            // A tick or a collection step runs once a pass, about fifteen
            // times in a 55-second run: too few for the fastest to settle,
            // so each counts by its mean.
            Workload::Fleet | Workload::Live => stats::column_means,
        }
    }

    fn pass(self, cfg: &Config, traced: bool) -> Pass {
        match self {
            Workload::Fleet => fleet::pass(cfg, traced),
            Workload::Dash => dash::pass(cfg, traced),
            Workload::Live => live::pass(cfg, traced),
        }
    }
}

/// Full size is what the benchmark measures; toy size is the smoke
/// test's (one block of agents per mechanism, 5 ticks, 200 queries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Seconds-long smoke size.
    Toy,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Keep starting passes until this many seconds have elapsed.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            // An empty float sum is -0.0; report it as plain 0.
            value: value + 0.0,
            unit,
        }
    }
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up wall time.
    pub setup_s: f64,
    /// Wall time of each timed operation, ms, in the order the workload
    /// runs them (an operation repeated within the pass reports its
    /// fastest run). Every pass of a run runs the same operations on the
    /// same inputs, so entry `i` of two passes times the same work.
    pub ops_ms: Vec<f64>,
    /// What `throughput_per_s` counts (queries answered, records
    /// collected or ingested) over all of `ops_ms`.
    pub work: f64,
    /// Finalize plus rendering every output file (logged, not gated: its
    /// run-to-run spread is wider than any bound the benchmark may set).
    pub finalize_s: f64,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Operations attempted (polls scheduled plus queries).
    pub attempted: u64,
    /// Operations failed (missed or stale-substituted polls, queries
    /// answered with an error).
    pub failed: u64,
    /// Digest of everything the pass output.
    pub digest: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
    /// The pass's trace (traced passes only).
    pub trace: Option<trace::Trace>,
}

impl Pass {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Throughput, median and tail latency of a sequence of operation times.
struct Timing {
    throughput: f64,
    p50_ms: f64,
    tail_ms: f64,
}

impl Timing {
    fn of(ops_ms: &[f64], work: f64, tail: f64) -> Self {
        Timing {
            throughput: work / (ops_ms.iter().sum::<f64>() * 1e-3),
            p50_ms: percentile(ops_ms, 0.5),
            tail_ms: percentile(ops_ms, tail),
        }
    }
}

/// A run's result: the JSON line's fields plus the log lines before it.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations failed over every pass.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub log: Vec<String>,
}

impl Outcome {
    /// Mark the run incorrect, logging why.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.log.push(format!("FAIL  {why}"));
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Output digests pinned for [`DEFAULT_SEED`].
fn pinned(workload: Workload, size: Size) -> u64 {
    match (workload, size) {
        (Workload::Fleet, Size::Full) => 0xe149_5b1b_6c8f_9f77,
        (Workload::Fleet, Size::Toy) => 0xb638_029e_0233_066f,
        (Workload::Dash, Size::Full) => 0x90dd_e4de_9f33_27cd,
        (Workload::Dash, Size::Toy) => 0x2f27_700f_1379_d8ee,
        (Workload::Live, Size::Full) => 0x0d99_250e_4897_40ef,
        (Workload::Live, Size::Toy) => 0x6dd7_d06d_b842_4147,
    }
}

/// Minimum share of a traced pass's wall time the layer spans must
/// cover.
pub const MIN_COVERAGE: f64 = 0.90;

/// Run one benchmark invocation.
pub fn run(cfg: &Config) -> Outcome {
    let w = cfg.workload;
    let started = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // Medians need a few passes; the smoke size is about checks only.
    let min_passes = match cfg.size {
        Size::Full => 3,
        Size::Toy => 1,
    };
    // The first pass warms the allocator and the page tables: it is
    // checked like every other pass but measures nothing.
    let warmup = w.pass(cfg, false);
    loop {
        plain.push(w.pass(cfg, false));
        if cfg.trace {
            traced.push(w.pass(cfg, true));
        }
        if plain.len() >= min_passes && started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let mut log = vec![format!(
        "run   workload={} size={:?} seed={} host_cpus={} pool_width={POOL_WIDTH} \
         rev={} passes={}+{} traced",
        w.name(),
        cfg.size,
        cfg.seed,
        moneq::host_cpus(),
        stats::git_revision(),
        plain.len(),
        traced.len()
    )];
    for (i, p) in plain.iter().chain(&traced).enumerate() {
        let t = Timing::of(&p.ops_ms, p.work, w.tail());
        log.push(format!(
            "pass  {i} traced={} setup_s={:.6} throughput={:.1} p50_ms={:.6} \
             tail_ms={:.6} finalize_s={:.6} wall_s={:.6}",
            p.trace.is_some(),
            p.setup_s,
            t.throughput,
            t.p50_ms,
            t.tail_ms,
            p.finalize_s,
            p.wall_s
        ));
    }
    let mut failures: Vec<String> = Vec::new();
    let reference = warmup.digest;
    for (i, p) in std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .enumerate()
    {
        failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
        if p.digest != reference {
            failures.push(format!(
                "pass {i}: digest {:016x} differs from pass 0's {reference:016x}",
                p.digest
            ));
        }
    }
    if cfg.seed == DEFAULT_SEED && reference != pinned(w, cfg.size) {
        failures.push(format!(
            "digest {reference:016x} differs from the pinned {:016x}",
            pinned(w, cfg.size)
        ));
    }
    log.push(format!(
        "check digest={reference:016x} failures={}",
        failures.len()
    ));

    let metrics = if cfg.trace {
        traced_metrics(cfg, &plain, &mut traced, &mut failures, &mut log)
    } else {
        // One time per operation, so the percentiles spread over the
        // operations, not over the moments the host was slow.
        let rows: Vec<&[f64]> = plain.iter().map(|p| p.ops_ms.as_slice()).collect();
        let t = Timing::of(&w.fold()(&rows), plain[0].work, w.tail());
        vec![
            Metric::new(
                "setup_s",
                median(&plain.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::new("throughput_per_s", t.throughput, "1/s"),
            Metric::new("latency_p50_ms", t.p50_ms, "ms"),
            Metric::new("latency_tail_ms", t.tail_ms, "ms"),
            Metric::new(
                "peak_rss_mb",
                stats::proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0),
                "MiB",
            ),
        ]
    };
    for m in &metrics {
        log.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    for f in &failures {
        log.push(format!("FAIL  {f}"));
    }
    let all = std::iter::once(&warmup).chain(&plain).chain(&traced);
    Outcome {
        correct: failures.is_empty(),
        attempted: all.clone().map(|p| p.attempted).sum(),
        failed: all.map(|p| p.failed).sum(),
        metrics,
        log,
    }
}

/// Per-layer metrics of the median traced pass, plus the tracing
/// overhead and the traced-run checks.
fn traced_metrics(
    cfg: &Config,
    plain: &[Pass],
    traced: &mut [Pass],
    failures: &mut Vec<String>,
    log: &mut Vec<String>,
) -> Vec<Metric> {
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead_pct = (traced_wall / plain_wall - 1.0) * 100.0;
    let mid = &mut traced[traced.len() / 2];
    let tr = mid.trace.take().unwrap_or_default();
    let coverage = tr.covered() / tr.wall_s.max(1e-12);
    // At toy size the benchmark's fixed costs (digests, checks) outweigh
    // the program's work, so coverage is only judged at full size.
    if cfg.size == Size::Full && coverage < MIN_COVERAGE {
        failures.push(format!(
            "layer spans cover {:.1}% of the traced wall time, below {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    log.extend(tr.table());
    log.push(format!(
        "trace wall={:.6}s covered={:.6}s uncovered={:.6}s ({:.2}%) \
         overhead={overhead_pct:.2}% (traced {traced_wall:.6}s vs untraced {plain_wall:.6}s)",
        tr.wall_s,
        tr.covered(),
        tr.wall_s - tr.covered(),
        (1.0 - coverage) * 100.0
    ));
    let mut metrics = std::mem::take(&mut mid.layers);
    metrics.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
    metrics.push(Metric::new("trace.coverage_pct", coverage * 100.0, "%"));
    metrics
}
