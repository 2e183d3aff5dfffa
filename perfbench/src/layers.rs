//! Per-layer metrics of one traced pass, in `BENCHMARK.json` order.
//!
//! Times come from the outside-in spans ([`crate::trace`]); counts come
//! from the ledgers the layers already keep (completeness, cache, wire
//! telemetry, store statistics). A layer a workload does not exercise
//! reports zeros: on that workload the prediction for it is "no change".

use crate::queries::KINDS;
use crate::trace::Trace;
use crate::Metric;
use envmon_analysis::registry::NAMES;
use moneq::ClusterResult;
use simkit::store::StoreStats;

/// The store behind a daemon workload, read before the daemon finalized.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreView {
    /// Series registered.
    pub series: usize,
    /// Ingest counters.
    pub stats: StoreStats,
}

/// Everything a traced pass hands over for its layer metrics.
pub struct LayerInput<'a> {
    /// The pass's trace.
    pub trace: &'a Trace,
    /// The finalized cluster.
    pub result: &'a ClusterResult,
    /// The daemon's store, for daemon workloads.
    pub store: Option<StoreView>,
    /// Bytes of rendered output.
    pub output_bytes: u64,
    /// Records in the output files.
    pub records: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Compute every per-layer metric except the trace's own two.
pub fn metrics(input: &LayerInput<'_>) -> Vec<Metric> {
    let tr = input.trace;
    let r = input.result;
    let mut out = Vec::new();

    // moneq::cluster. Inside the daemon the run_until calls are not ours
    // to time, so collection is the pool's recorded busy time less the
    // finalize call.
    let run_until_s = if tr.count("daemon.tick") > 0 {
        let busy: f64 = r
            .sched
            .busy_per_worker
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        busy - tr.total("cluster.finalize")
    } else {
        tr.total("cluster.run_until")
    };
    out.push(Metric::new(
        "cluster.launch_s",
        tr.total("cluster.launch"),
        "s",
    ));
    out.push(Metric::new("cluster.run_until_s", run_until_s, "s"));
    out.push(Metric::new(
        "cluster.finalize_s",
        tr.total("cluster.finalize"),
        "s",
    ));

    // Device models, behind moneq::backends.
    let mut read_s = 0.0;
    for name in NAMES {
        let span = format!("mech.{name}.read");
        read_s += tr.total(&span);
        out.push(Metric::new(
            format!("mech.{name}.reads"),
            tr.count(&span) as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("mech.{name}.read_s"),
            tr.total(&span),
            "s",
        ));
        out.push(Metric::new(
            format!("mech.{name}.errors"),
            tr.counter(&format!("mech.{name}.errors")) as f64,
            "count",
        ));
    }

    // moneq::session: what run_until spends outside the device models.
    let devices = r.completeness_by_device();
    let sum = |f: fn(&moneq::Completeness) -> u64| devices.iter().map(f).sum::<u64>() as f64;
    out.push(Metric::new("session.self_s", run_until_s - read_s, "s"));
    out.push(Metric::new("session.polls", sum(|c| c.scheduled), "count"));
    out.push(Metric::new("session.retried", sum(|c| c.retried), "count"));
    out.push(Metric::new(
        "session.stale_polls",
        sum(|c| c.stale_polls),
        "count",
    ));
    out.push(Metric::new(
        "session.missed_polls",
        sum(|c| c.missed_polls),
        "count",
    ));
    out.push(Metric::new(
        "session.records",
        input.records as f64,
        "count",
    ));

    // moneq::plan.
    let c = r.cache;
    out.push(Metric::new("plan.hits", c.hits as f64, "count"));
    out.push(Metric::new("plan.misses", c.misses as f64, "count"));
    out.push(Metric::new("plan.bypasses", c.bypasses as f64, "count"));
    out.push(Metric::new(
        "plan.hit_ratio",
        ratio(c.hits, c.lookups()),
        "ratio",
    ));

    // moneq::remote + simkit::wire, from the merged telemetry.
    let tel = r.telemetry_merged();
    let wire = |kind: &str| -> u64 {
        NAMES
            .iter()
            .map(|n| tel.counter(&format!("wire.{kind}/{n}")))
            .sum()
    };
    let (tx, rx) = (wire("tx"), wire("rx"));
    out.push(Metric::new("wire.tx", tx as f64, "count"));
    out.push(Metric::new("wire.rx", rx as f64, "count"));
    out.push(Metric::new("wire.retrans", wire("retrans") as f64, "count"));
    out.push(Metric::new(
        "wire.timeouts",
        wire("timeout") as f64,
        "count",
    ));
    out.push(Metric::new(
        "wire.bytes",
        (wire("bytes_tx") + wire("bytes_rx")) as f64,
        "B",
    ));
    out.push(Metric::new("wire.delivery_ratio", ratio(rx, tx), "ratio"));

    // moneq::output.
    out.push(Metric::new(
        "output.render_s",
        tr.total("output.render"),
        "s",
    ));
    out.push(Metric::new("output.bytes", input.output_bytes as f64, "B"));

    // envmon_serve::daemon + simkit::store.
    let tick_s = tr.total("daemon.tick");
    let ingest_publish_s = if tick_s > 0.0 {
        tick_s - run_until_s
    } else {
        0.0
    };
    let store = input.store.unwrap_or_default();
    out.push(Metric::new("daemon.tick_s", tick_s, "s"));
    out.push(Metric::new(
        "daemon.ingest_publish_s",
        ingest_publish_s,
        "s",
    ));
    out.push(Metric::new("store.series", store.series as f64, "count"));
    out.push(Metric::new(
        "store.recorded",
        store.stats.recorded as f64,
        "count",
    ));
    out.push(Metric::new(
        "store.raw_evicted",
        store.stats.raw_evicted as f64,
        "count",
    ));
    out.push(Metric::new(
        "store.bins_closed",
        store.stats.bins_closed as f64,
        "count",
    ));

    // envmon_serve::query.
    for kind in KINDS {
        let span = format!("query.{kind}");
        out.push(Metric::new(
            format!("query.{kind}.count"),
            tr.count(&span) as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("query.{kind}.busy_s"),
            tr.total(&span),
            "s",
        ));
        out.push(Metric::new(
            format!("query.{kind}.p50_us"),
            tr.p50(&span) * 1e6,
            "us",
        ));
    }
    out.push(Metric::new(
        "query.errors",
        tr.counter("query.errors") as f64,
        "count",
    ));
    out
}
