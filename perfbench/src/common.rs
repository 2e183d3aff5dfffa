//! Pieces every workload shares: span names, the render loop and the
//! cluster-level output checks.

use crate::stats::Digest;
use crate::trace::{self, SpanId};
use crate::{Pass, POOL_WIDTH};
use moneq::ClusterResult;
use std::time::Instant;

/// Interned span and counter ids for one pass (all [`trace::ROOT`],
/// i.e. untimed, while recording is off).
pub struct Spans {
    pub devices: SpanId,
    pub launch: SpanId,
    pub plan: SpanId,
    pub daemon_new: SpanId,
    pub run_until: SpanId,
    pub tick: SpanId,
    pub finalize: SpanId,
    pub render: SpanId,
    pub query: [SpanId; 4],
    pub query_errors: SpanId,
}

impl Spans {
    /// Intern every name the workloads use.
    pub fn intern() -> Self {
        Spans {
            devices: trace::intern("setup.devices"),
            launch: trace::intern("cluster.launch"),
            plan: trace::intern("plan.attach"),
            daemon_new: trace::intern("daemon.new"),
            run_until: trace::intern("cluster.run_until"),
            tick: trace::intern("daemon.tick"),
            finalize: trace::intern("cluster.finalize"),
            render: trace::intern("output.render"),
            query: crate::queries::KINDS.map(|k| trace::intern_sampled(&format!("query.{k}"))),
            query_errors: trace::intern("query.errors"),
        }
    }
}

/// The per-rank agent name.
pub fn agent_name(rank: usize) -> String {
    format!("agent{rank:05}")
}

/// What rendering every output file produced.
pub struct Rendered {
    /// Digest over every file's text, in rank order.
    pub digest: Digest,
    /// Bytes rendered.
    pub bytes: u64,
    /// Time spent inside `OutputFile::render`, seconds.
    pub render_s: f64,
    /// Records across every file.
    pub records: u64,
}

/// Render every file in memory, one at a time, timing only the render
/// calls (the digest and the drop of each text are the benchmark's own
/// work).
pub fn render_all(result: &ClusterResult, span: SpanId) -> Rendered {
    let mut out = Rendered {
        digest: Digest::default(),
        bytes: 0,
        render_s: 0.0,
        records: 0,
    };
    for f in &result.files {
        let t0 = Instant::now();
        let text = trace::time(span, || f.render());
        out.render_s += t0.elapsed().as_secs_f64();
        out.digest.bytes(text.as_bytes());
        out.bytes += text.len() as u64;
        out.records += f.points.len() as u64;
    }
    out
}

/// The cluster-level checks, plus the poll share of the attempted and
/// failed counts:
/// * every device's completeness ledger reconciles;
/// * the records in the files are exactly the records collected;
/// * the run was driven at pool width 1.
pub fn check_cluster(pass: &mut Pass, result: &ClusterResult, records: u64) {
    let devices = result.completeness_by_device();
    for c in &devices {
        pass.check(c.reconciles(), || {
            format!(
                "{} ledger does not reconcile: scheduled {} != succeeded {} + stale {} + missed {}",
                c.device, c.scheduled, c.succeeded, c.stale_polls, c.missed_polls
            )
        });
        pass.attempted += c.scheduled;
        pass.failed += c.stale_polls + c.missed_polls;
    }
    let collected: u64 = devices
        .iter()
        .map(|c| c.records_fresh + c.records_stale)
        .sum();
    pass.check(result.dropped_records == 0 && records == collected, || {
        format!(
            "files hold {records} records but {collected} were collected \
                 ({} dropped)",
            result.dropped_records
        )
    });
    pass.check(result.sched.workers == POOL_WIDTH, || {
        format!(
            "cluster ran on {} workers, not {POOL_WIDTH}",
            result.sched.workers
        )
    });
}
