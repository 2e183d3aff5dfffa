//! The transport ablation: in-band vs out-of-band deployment of every
//! mechanism over the [`simkit::wire`] framed protocol.
//!
//! Each mechanism runs four times over the same virtual window:
//!
//! * **A — local** (in-band): the pre-wire direct-call path.
//! * **B — remote, ideal link**: every poll is a framed round-trip over
//!   [`LinkSpec::ideal`]. The defining invariant of the wire layer is
//!   checked here: run B must be *byte-identical* to run A — same output
//!   files, same overhead ledgers.
//! * **C — remote, latency-only link**: a link that charges exactly one
//!   flight latency per leg and nothing else. The extra charged
//!   collection cost must be *exactly* `polls × 2·latency` per rank, and
//!   every record timestamp must shift by exactly one request leg — link
//!   latency lands in the overhead and staleness ledgers and nowhere
//!   else.
//! * **D — remote, faulty service link**: the mechanism's own
//!   [`service-link`](moneq::backends::BgqBackend::service_link)
//!   personality with drops/corruption/reordering applied. The wire
//!   ledger (`tx = rx + timeouts`) and the session's completeness ledger
//!   (`scheduled = succeeded + stale + missed`) must both reconcile —
//!   transport faults degrade collection, never the accounting.

use crate::registry::{mechanisms, Mechanism};
use moneq::{
    ClusterResult, ClusterRun, CollectionPlan, Deployment, EnvBackend, MonEq, MonEqConfig,
};
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};

/// One mechanism's four-way deployment comparison.
#[derive(Clone, Debug)]
pub struct TransportRow {
    /// Mechanism name (the backend's `name()`).
    pub mechanism: String,
    /// The paper's axis: where this mechanism's data naturally lives.
    pub band: &'static str,
    /// The service-link personality run D used (before faults).
    pub link: LinkSpec,
    /// Polls each rank fired over the window.
    pub polls: u64,
    /// Charged collection cost across all ranks, local run.
    pub local_collection: SimDuration,
    /// Charged collection cost across all ranks, ideal-link remote run.
    pub ideal_collection: SimDuration,
    /// Charged collection cost across all ranks, latency-only remote run.
    pub latent_collection: SimDuration,
    /// One-way flight latency of the latency-only run's link.
    pub latency: SimDuration,
    /// Run B byte-identical to run A (files *and* overhead ledgers)?
    pub ideal_identical: bool,
    /// Run C's extra cost exactly `polls × 2·latency` per rank, with
    /// every record timestamp shifted by exactly one leg?
    pub latency_exact: bool,
    /// Run D: frames sent (initial attempts + retransmissions).
    pub wire_tx: u64,
    /// Run D: responses delivered.
    pub wire_rx: u64,
    /// Run D: retransmissions.
    pub wire_retrans: u64,
    /// Run D: attempts that timed out.
    pub wire_timeouts: u64,
    /// Run D: median round-trip time.
    pub rtt_p50: SimDuration,
    /// Run D: p99 round-trip time.
    pub rtt_p99: SimDuration,
    /// Run D: wire ledger and completeness ledger both reconcile?
    pub faulty_reconciles: bool,
}

/// The transport ablation: one row per mechanism, plus the run-wide
/// verdicts the CI leg gates on.
#[derive(Clone, Debug)]
pub struct TransportTable {
    /// One row per mechanism, in the paper's §II order.
    pub rows: Vec<TransportRow>,
}

/// Ranks per cluster in runs A–C (enough to exercise the cluster merge
/// path and per-rank link salting without dominating the run time).
const AGENTS: usize = 4;

/// The virtual span every run profiles.
const HORIZON: SimTime = SimTime::from_secs(30);

/// Fault rates for run D: lossy but nowhere near disabling (per-exchange
/// failure stays under ~3% with the default retransmission budget).
const FAULTS: (f64, f64, f64) = (0.15, 0.02, 0.05);

type Factory = Box<dyn FnMut(usize) -> Box<dyn EnvBackend>>;

fn run_cluster(deployment: Deployment, make: &mut Factory) -> ClusterResult {
    let mut run = ClusterRun::launch(AGENTS, None, make, |r| format!("agent{r}"), SimTime::ZERO)
        .with_collection_plan(CollectionPlan::per_agent().deployed(deployment));
    run.run_until(HORIZON);
    run.finalize(HORIZON)
}

fn total_collection(r: &ClusterResult) -> SimDuration {
    r.overheads
        .iter()
        .fold(SimDuration::ZERO, |acc, o| acc + o.collection)
}

/// Run one mechanism all four ways and fold the comparison into a row.
fn compare(m: &Mechanism, seed: u64) -> TransportRow {
    let link = m.service_link;
    let local = run_cluster(Deployment::Local, &mut m.factory());
    let ideal = run_cluster(Deployment::Remote(LinkSpec::ideal()), &mut m.factory());
    let latency = link.latency;
    let latent_link = LinkSpec {
        latency,
        ..LinkSpec::ideal()
    };
    let latent = run_cluster(Deployment::Remote(latent_link), &mut m.factory());

    let ideal_identical = local.files == ideal.files && local.overheads == ideal.overheads;

    // Per rank: the latency-only link adds exactly two flight legs per
    // poll to the collection ledger, and shifts every record timestamp by
    // exactly the request leg. Tolerance-free.
    let mut latency_exact = true;
    for (a, c) in local.overheads.iter().zip(&latent.overheads) {
        let extra = latency.saturating_mul(2).saturating_mul(a.polls);
        if c.collection != a.collection + extra {
            latency_exact = false;
        }
    }
    for (fa, fc) in local.files.iter().zip(&latent.files) {
        if fa.points.len() != fc.points.len() {
            latency_exact = false;
            continue;
        }
        for (pa, pc) in fa.points.iter().zip(&fc.points) {
            if pc.timestamp != pa.timestamp + latency {
                latency_exact = false;
            }
        }
    }

    // Run D: one rank over the mechanism's service link with fault
    // weather, telemetry on so the wire fold is exercised end to end.
    let (drop, corrupt, reorder) = FAULTS;
    let faulty_link = link.with_faults(drop, corrupt, reorder).with_seed(seed);
    let mut session = MonEq::initialize(
        0,
        vec![m.build()],
        MonEqConfig {
            telemetry: true,
            ..MonEqConfig::default()
        },
        SimTime::ZERO,
    );
    session.deploy_remote(faulty_link);
    session.run_until(HORIZON);
    let result = session.finalize(HORIZON);
    let report = result.telemetry.report();
    let name = result.completeness[0].device.clone();
    let counter = |kind: &str| report.counter(&format!("wire.{kind}/{name}"));
    let (tx, rx, retrans, timeouts) = (
        counter("tx"),
        counter("rx"),
        counter("retrans"),
        counter("timeout"),
    );
    let rtt = report.histograms.get(&format!("wire.rtt/{name}"));
    let comp = &result.completeness[0];
    let faulty_reconciles = tx == rx + timeouts
        && comp.scheduled == comp.succeeded + comp.stale_polls + comp.missed_polls
        && tx > 0;

    TransportRow {
        mechanism: m.name.to_owned(),
        band: m.band,
        link,
        polls: local.overheads[0].polls,
        local_collection: total_collection(&local),
        ideal_collection: total_collection(&ideal),
        latent_collection: total_collection(&latent),
        latency,
        ideal_identical,
        latency_exact,
        wire_tx: tx,
        wire_rx: rx,
        wire_retrans: retrans,
        wire_timeouts: timeouts,
        rtt_p50: rtt.map(|h| h.percentile(0.50)).unwrap_or(SimDuration::ZERO),
        rtt_p99: rtt.map(|h| h.percentile(0.99)).unwrap_or(SimDuration::ZERO),
        faulty_reconciles,
    }
}

/// Run the transport ablation. Deterministic in `seed`.
pub fn transport(seed: u64) -> TransportTable {
    TransportTable {
        rows: mechanisms(seed, HORIZON)
            .iter()
            .map(|m| compare(m, seed))
            .collect(),
    }
}

impl TransportTable {
    /// Every row's ideal-link run byte-identical to its local run?
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.ideal_identical)
    }

    /// Every row's latency accounting exact and faulty ledger reconciled?
    pub fn all_exact(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.latency_exact && r.faulty_reconciles)
    }

    /// Render as a plain-text table: charged collection per deployment,
    /// the three verdicts, and run D's wire ledger.
    pub fn render(&self) -> String {
        let yes = |b: bool| if b { "YES" } else { "NO" };
        let mut out = String::from(
            "Transport ablation: in-band vs out-of-band deployment (framed wire protocol)\n\n",
        );
        out.push_str(&format!(
            "{:<14}{:<13}{:>7}{:>12}{:>12}{:>12}{:>11}{:>7}{:>7}{:>9}{:>10}{:>11}\n",
            "mechanism",
            "band",
            "polls",
            "local",
            "ideal",
            "latent",
            "identical",
            "exact",
            "tx",
            "retrans",
            "rtt p50",
            "reconciled",
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14}{:<13}{:>7}{:>12}{:>12}{:>12}{:>11}{:>7}{:>7}{:>9}{:>10}{:>11}\n",
                r.mechanism,
                r.band,
                r.polls,
                r.local_collection.to_string(),
                r.ideal_collection.to_string(),
                r.latent_collection.to_string(),
                yes(r.ideal_identical),
                yes(r.latency_exact),
                r.wire_tx,
                r.wire_retrans,
                r.rtt_p50.to_string(),
                yes(r.faulty_reconciles),
            ));
        }
        out.push_str(&format!(
            "\nzero-latency remote == local (byte-identical): {}\n\
             latency & fault ledgers exact: {}\n",
            yes(self.all_identical()),
            yes(self.all_exact()),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_byte_identical_for_every_mechanism() {
        let t = transport(2015);
        assert_eq!(t.rows.len(), crate::registry::NAMES.len());
        for r in &t.rows {
            assert!(r.ideal_identical, "{} ideal run diverged", r.mechanism);
            assert_eq!(
                r.local_collection, r.ideal_collection,
                "{} charged differently over the identity link",
                r.mechanism
            );
        }
    }

    #[test]
    fn latency_lands_exactly_in_the_ledgers() {
        let t = transport(2015);
        for r in &t.rows {
            assert!(
                r.latency_exact,
                "{} latency accounting drifted",
                r.mechanism
            );
            assert!(
                r.latent_collection > r.local_collection,
                "{} latent run charged nothing extra",
                r.mechanism
            );
        }
    }

    #[test]
    fn faulty_links_retransmit_and_ledgers_reconcile() {
        let t = transport(2015);
        for r in &t.rows {
            assert!(r.faulty_reconciles, "{} ledger broke", r.mechanism);
            assert!(r.wire_tx > 0, "{} sent nothing", r.mechanism);
            assert!(
                r.wire_retrans > 0 || r.wire_timeouts > 0,
                "{} faulty link never misbehaved (tx {})",
                r.mechanism,
                r.wire_tx
            );
        }
    }

    #[test]
    fn table_renders_and_is_deterministic() {
        let a = transport(7);
        let b = transport(7);
        assert_eq!(a.render(), b.render());
        for name in crate::registry::NAMES {
            assert!(a.render().contains(name), "missing {name}");
        }
        assert!(a.render().contains("byte-identical"));
    }
}
