//! Simulated query clients: deterministic request streams with
//! fault-modeled slow and disconnecting clients, runnable serially or on
//! OS threads.
//!
//! Each client derives its whole behaviour from `(seed, client index)`:
//! a [`DetRng`] picks the query mix and windows, and a
//! [`FaultProcess`] labelled `client{i}` decides per request whether it
//! goes through, is dropped ([`FaultOutcome::Transient`] /
//! [`FaultOutcome::NoData`]), stalls the client's virtual clock
//! ([`FaultOutcome::Timeout`]), or disconnects it for good
//! ([`FaultOutcome::Blackout`]). Because nothing depends on scheduling —
//! each client reads one retained view and its own RNG — running the
//! same workload serially or on threads against a quiesced daemon yields
//! bit-identical [`ClientReport`]s; `tests/serve_prop.rs` and the
//! `query_sweep` bench both gate on that.

use crate::query::{Published, Query, QueryFront};
use simkit::fault::{FaultOutcome, FaultProcess, FaultSpec};
use simkit::rng::mix64;
use simkit::{DetRng, SimDuration, SimTime};
use std::sync::Arc;

/// Virtual time between one client's requests (fault draws advance on
/// this clock, so blackout windows span several requests).
const QUERY_SPACING: SimDuration = SimDuration::from_millis(100);

/// One batch of simulated clients against one front.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientWorkload {
    /// Number of clients.
    pub clients: usize,
    /// Requests each client attempts (barring disconnection).
    pub queries_per_client: usize,
    /// Seed deriving every client's RNG and fault process.
    pub seed: u64,
    /// Fault shape applied independently to every client.
    pub fault: FaultSpec,
}

impl ClientWorkload {
    /// A clean workload: no slow clients, no disconnects.
    pub fn clean(clients: usize, queries_per_client: usize, seed: u64) -> Self {
        ClientWorkload {
            clients,
            queries_per_client,
            seed,
            fault: FaultSpec::zero(),
        }
    }
}

/// What one client experienced, exact and reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Client index within the workload.
    pub id: u32,
    /// Requests that reached the front and were answered.
    pub answered: u64,
    /// Requests answered with a [`crate::QueryError`].
    pub errors: u64,
    /// Requests lost before reaching the front (transient / no-data).
    pub dropped: u64,
    /// Requests that stalled the client first (timeout faults).
    pub slow: u64,
    /// `true` when a blackout disconnected the client early.
    pub disconnected: bool,
    /// Chained [`Response::digest`](crate::Response::digest) over every
    /// answer, in request order —
    /// two runs served identical answers iff the digests match.
    pub digest: u64,
}

/// Run every client one after another on the calling thread, each against
/// the view current when it starts. The reference execution.
pub fn run_serial(front: &QueryFront, w: &ClientWorkload) -> Vec<ClientReport> {
    (0..w.clients)
        .map(|i| run_client(&front.view(), w, i as u32))
        .collect()
}

/// Run every client on its own OS thread, all against views taken as they
/// start. Reports come back in client order regardless of scheduling; on
/// a quiesced daemon they are bit-identical to [`run_serial`]'s.
///
/// # Panics
///
/// Re-raises a client thread's panic with its original payload, as
/// `moneq::ClusterRun` re-raises a worker's. No `Query` value panics
/// [`QueryFront::answer`] (`tests/serve_prop.rs` property 7), so a client
/// panics only on a bug.
pub fn run_threaded(front: &QueryFront, w: &ClientWorkload) -> Vec<ClientReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients)
            .map(|i| {
                let front = front.clone();
                scope.spawn(move || run_client(&front.view(), w, i as u32))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Drive one client to completion against a retained view.
pub fn run_client(view: &Arc<Published>, w: &ClientWorkload, id: u32) -> ClientReport {
    let mut rng = DetRng::new(w.seed).child(&format!("client{id}"));
    let faults = FaultProcess::new(w.seed, &format!("client{id}"), w.fault);
    let mut report = ClientReport {
        id,
        ..ClientReport::default()
    };
    // The client's own virtual clock: starts at the view it connected to
    // and advances per request (plus stalls), driving the fault draws.
    let mut clock = view.at;
    for _ in 0..w.queries_per_client {
        clock += QUERY_SPACING;
        // Draw the query unconditionally so the stream is independent of
        // fault outcomes — a faulted request loses *that* request only.
        let q = gen_query(&mut rng, view);
        match faults.outcome(clock, 0) {
            FaultOutcome::Ok | FaultOutcome::Glitch => {}
            FaultOutcome::Transient | FaultOutcome::NoData => {
                report.dropped += 1;
                continue;
            }
            FaultOutcome::Timeout(stall) => {
                report.slow += 1;
                clock += stall;
            }
            FaultOutcome::Blackout => {
                report.disconnected = true;
                break;
            }
        }
        match QueryFront::answer(view, &q) {
            Ok(resp) => {
                report.answered += 1;
                report.digest = mix64(report.digest, resp.digest());
            }
            Err(_) => {
                report.errors += 1;
                report.digest = mix64(report.digest, u64::MAX);
            }
        }
    }
    report
}

/// One deterministic query. Draws a fixed number of RNG values per call
/// so the stream stays aligned whatever the view contains.
fn gen_query(rng: &mut DetRng, view: &Published) -> Query {
    let kind = rng.below(8);
    let horizon = view.at.as_secs_f64();
    let a = rng.uniform(0.0, horizon.max(1.0));
    let b = rng.uniform(0.0, horizon.max(1.0));
    let (from, to) = if a <= b { (a, b) } else { (b, a) };
    let from = SimTime::from_secs_f64(from);
    let to = SimTime::from_secs_f64(to);
    let pick = rng.next_u64();
    let k = 1 + rng.below(8) as usize;
    let n = view.store.len() as u64;
    if n == 0 {
        return Query::Freshness;
    }
    let meta = &view.meta[(pick % n) as usize];
    let tiers = view.store.config().tiers.len();
    let tier = if tiers == 0 {
        0
    } else {
        (pick / n) as usize % tiers
    };
    match kind {
        // Range queries dominate, like a dashboard's sparkline fan-out.
        0..=3 => Query::Range {
            series: format!("{}/{}/{}", meta.agent, meta.device, meta.domain),
            from,
            to,
        },
        4 | 5 => Query::DomainAggregate {
            domain: meta.domain.clone(),
            tier,
            from,
            to,
        },
        6 => Query::TopK { k, tier, from, to },
        _ => Query::Freshness,
    }
}

/// Fold client reports into one digest (client order), letting a bench
/// compare two whole runs with a single `u64`.
pub fn fold_reports(reports: &[ClientReport]) -> u64 {
    reports.iter().fold(0, |h, r| {
        let h = mix64(h, u64::from(r.id));
        let h = mix64(h, r.answered);
        let h = mix64(h, r.errors);
        let h = mix64(h, r.dropped);
        let h = mix64(h, r.slow);
        let h = mix64(h, u64::from(r.disconnected));
        mix64(h, r.digest)
    })
}
