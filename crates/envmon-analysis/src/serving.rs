//! The serving demonstration: collection as a service on the paper's own
//! machine, with every §13 guarantee verified in-row.
//!
//! One BG/Q node card (32 agents, each on its own card position) runs the
//! MMPS workload while an [`envmon_serve::Daemon`] advances collection in
//! 1 s virtual ticks and publishes to a query front. The table then
//! answers one headline query per kind — a range scan, a per-domain
//! aggregate, the top-k power consumers, and the freshness endpoint — and
//! drives two client batches (one clean, one fault-injected with slow and
//! disconnecting clients) serially *and* on OS threads.
//!
//! Three verdicts are computed, all of which must read `YES`:
//!
//! * **exact** — every series' tier aggregates equal the raw fold, bit
//!   for bit (DESIGN.md §13 rollup exactness);
//! * **batch parity** — finalizing the daemon yields output files
//!   byte-identical to an untouched batch run of the same seed (the
//!   daemon observes sessions without perturbing them);
//! * **serial==threaded** — chained response digests of the threaded
//!   client batch match the serial one on the quiesced store.

use envmon_serve::{clients, ClientWorkload, Daemon, Query, Response, ServeConfig};
use moneq::backends::BgqBackend;
use moneq::{ClusterResult, ClusterRun, EnvBackend};
use simkit::fault::FaultSpec;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// Virtual span the daemon serves for.
const HORIZON: SimTime = SimTime::from_secs(120);

/// Agents on the node card.
const AGENTS: usize = 32;

/// One headline query and its rendered answer.
#[derive(Clone, Debug)]
pub struct ServingRow {
    /// Query kind ("range", "domain-aggregate", "top-k", "freshness").
    pub query: String,
    /// Rendered headline answer.
    pub answer: String,
}

/// The serving table: scenario shape, headline answers, client-batch
/// outcomes, and the three §13 verdicts.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Agents collected from.
    pub agents: usize,
    /// Virtual time served.
    pub horizon: SimTime,
    /// Series the store ended with.
    pub series: usize,
    /// Records ingested across the run.
    pub ingested: u64,
    /// One row per headline query kind.
    pub rows: Vec<ServingRow>,
    /// Clean client batch: total answers across clients.
    pub answered: u64,
    /// Faulted client batch: requests dropped before the front.
    pub dropped: u64,
    /// Faulted client batch: requests that stalled their client first.
    pub slow: u64,
    /// Faulted client batch: clients disconnected by a blackout.
    pub disconnected: u64,
    /// Rollup exactness held on every series and tier.
    pub exact: bool,
    /// Daemon finalize rendered byte-identical files to a batch run.
    pub ingest_matches_batch: bool,
    /// Threaded clients reproduced the serial digests bitwise.
    pub concurrent_matches_serial: bool,
}

/// Build the scenario cluster (deterministic in `seed`).
fn launch(seed: u64) -> ClusterRun {
    let mut machine = bgq_sim::BgqMachine::new(bgq_sim::BgqConfig::default(), seed);
    let boards: Vec<usize> = (0..AGENTS).collect();
    machine.assign_job(&boards, &hpc_workloads::Mmps::figure1().profile());
    let machine = Arc::new(machine);
    ClusterRun::launch(
        AGENTS,
        None,
        move |rank| Box::new(BgqBackend::new(Arc::clone(&machine), rank)) as Box<dyn EnvBackend>,
        |rank| format!("agent{rank:02}"),
        SimTime::ZERO,
    )
}

/// Rollup exactness, every series and tier: each tier's aggregate equals
/// the fold over the raw samples, bit for bit. The reference fold reads
/// the raw ring, so when a long live phase has evicted raw samples the
/// window starts at the first coarsest-tier boundary fully covered by
/// retained raw data; with no eviction it is the whole served window.
pub fn store_exact(daemon: &Daemon) -> bool {
    let store = daemon.store();
    let now = daemon.now();
    store.ids().all(|id| {
        let d = store.get(id);
        let from = if d.raw_evicted() == 0 {
            SimTime::ZERO
        } else {
            let coarsest = (0..d.tier_count())
                .map(|t| d.tier_width(t))
                .max()
                .unwrap_or(SimDuration::from_secs(60));
            match d.raw_range(SimTime::ZERO, now).next() {
                Some(oldest) => oldest.at.grid_floor(SimTime::ZERO, coarsest) + coarsest,
                None => return true,
            }
        };
        (0..d.tier_count()).all(|tier| {
            d.aggregate(tier, from, now) == d.aggregate_raw(d.tier_width(tier), from, now)
        })
    })
}

/// Run the serving demonstration. Deterministic in `seed`.
pub fn serving(seed: u64) -> ServingReport {
    let mut daemon = Daemon::new(launch(seed), SimTime::ZERO, ServeConfig::default());
    let ingested = daemon.run_for(HORIZON.saturating_since(SimTime::ZERO));
    let front = daemon.front();
    let view = front.view();

    // Headline queries, one per kind, over the last full minute served
    // (HORIZON is 60 s-aligned, so this window is too).
    let last_minute = (HORIZON - SimDuration::from_secs(60), HORIZON);
    let mut rows = Vec::new();
    let first = &view.meta[0];
    let series_name = format!("{}/{}/{}", first.agent, first.device, first.domain);
    if let Ok(Response::Range { samples, .. }) = front.query(&Query::Range {
        series: series_name.clone(),
        from: last_minute.0,
        to: last_minute.1,
    }) {
        rows.push(ServingRow {
            query: "range".into(),
            answer: format!(
                "{series_name}: {} samples over the last minute",
                samples.len()
            ),
        });
    }
    if let Ok(Response::DomainAggregate { series, agg, .. }) =
        front.query(&Query::DomainAggregate {
            domain: first.domain.clone(),
            tier: 0,
            from: last_minute.0,
            to: last_minute.1,
        })
    {
        rows.push(ServingRow {
            query: "domain-aggregate".into(),
            answer: format!(
                "{:?} x{series}: mean {:.1} W (min {:.1}, max {:.1})",
                first.domain,
                agg.mean().unwrap_or(0.0),
                agg.min,
                agg.max
            ),
        });
    }
    if let Ok(Response::TopK(entries)) = front.query(&Query::TopK {
        k: 3,
        tier: 0,
        from: last_minute.0,
        to: last_minute.1,
    }) {
        let top = entries
            .iter()
            .map(|e| format!("{} {:.1} W", e.agent, e.watts))
            .collect::<Vec<_>>()
            .join(", ");
        rows.push(ServingRow {
            query: "top-k".into(),
            answer: format!("top-3 power: {top}"),
        });
    }
    if let Ok(Response::Freshness(fr)) = front.query(&Query::Freshness) {
        let staleness = fr
            .oldest
            .map_or_else(|| "n/a".into(), |t| fr.at.saturating_since(t).to_string());
        rows.push(ServingRow {
            query: "freshness".into(),
            answer: format!(
                "{} devices, clean={}, worst staleness {staleness}",
                fr.devices.len(),
                fr.clean
            ),
        });
    }

    // Client batches on the quiesced store: clean (serial vs threaded must
    // agree bitwise) and fault-injected (slow + disconnecting clients).
    let clean = ClientWorkload::clean(8, 64, seed);
    let serial = clients::run_serial(&front, &clean);
    let threaded = clients::run_threaded(&front, &clean);
    let faulted = ClientWorkload {
        fault: FaultSpec {
            transient: 0.05,
            timeout: 0.05,
            blackout: 0.02,
            ..FaultSpec::zero()
        },
        ..clean.clone()
    };
    let degraded = clients::run_threaded(&front, &faulted);

    // Batch parity: an untouched batch run of the same seed must render
    // the same bytes the daemon's sessions do.
    let mut batch = launch(seed);
    batch.run_until(HORIZON);
    let batch: ClusterResult = batch.finalize(HORIZON);
    let exact = store_exact(&daemon);
    let series = daemon.store().len();
    let daemon_result = daemon.finalize();

    ServingReport {
        agents: AGENTS,
        horizon: HORIZON,
        series,
        ingested,
        rows,
        answered: serial.iter().map(|r| r.answered).sum(),
        dropped: degraded.iter().map(|r| r.dropped).sum(),
        slow: degraded.iter().map(|r| r.slow).sum(),
        disconnected: degraded.iter().filter(|r| r.disconnected).count() as u64,
        exact,
        ingest_matches_batch: daemon_result.files == batch.files,
        concurrent_matches_serial: clients::fold_reports(&serial)
            == clients::fold_reports(&threaded),
    }
}

impl ServingReport {
    /// Render as a plain-text table: scenario, headline answers, client
    /// outcomes, and the three verdicts.
    pub fn render(&self) -> String {
        let yes = |b: bool| if b { "YES" } else { "NO" };
        let mut out = format!(
            "Monitoring as a service: {} agents, {} served, {} series, {} records ingested\n\n",
            self.agents, self.horizon, self.series, self.ingested
        );
        for r in &self.rows {
            out.push_str(&format!("  {:<18}{}\n", r.query, r.answer));
        }
        out.push_str(&format!(
            "\nclients: {} answers (clean batch); faulted batch dropped {} requests, \
             {} stalled, {} clients disconnected\n",
            self.answered, self.dropped, self.slow, self.disconnected
        ));
        out.push_str(&format!(
            "\nrollup exactness (tier == raw fold, bitwise): {}\n\
             ingest == batch session (files byte-identical): {}\n\
             threaded clients == serial clients (digests):   {}\n",
            yes(self.exact),
            yes(self.ingest_matches_batch),
            yes(self.concurrent_matches_serial),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_verdicts_hold() {
        let r = serving(2015);
        assert!(r.exact, "rollup exactness violated");
        assert!(r.ingest_matches_batch, "daemon perturbed collection");
        assert!(r.concurrent_matches_serial, "reader determinism violated");
    }

    #[test]
    fn the_service_actually_served() {
        let r = serving(2015);
        assert_eq!(r.rows.len(), 4, "one headline row per query kind");
        assert!(r.series >= AGENTS, "at least one series per agent");
        assert!(r.ingested > 0);
        // The headline windows must actually contain data: a range answer
        // of "0 samples" or an empty top-k means the window was empty.
        assert!(
            !r.rows[0].answer.contains(": 0 samples"),
            "empty range window: {}",
            r.rows[0].answer
        );
        assert!(
            !r.rows[2].answer.ends_with("power: "),
            "empty top-k window: {}",
            r.rows[2].answer
        );
        assert_eq!(r.answered, 8 * 64, "clean batch answers everything");
        assert!(r.dropped > 0, "faulted batch drops something at 5%");
    }

    #[test]
    fn render_is_deterministic() {
        let a = serving(7).render();
        let b = serving(7).render();
        assert_eq!(a, b);
        for needle in ["range", "domain-aggregate", "top-k", "freshness", "YES"] {
            assert!(a.contains(needle), "missing {needle}: {a}");
        }
    }
}
