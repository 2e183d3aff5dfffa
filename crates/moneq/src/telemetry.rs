//! Session telemetry: the typed instruments one MonEQ session owns.
//!
//! With [`MonEqConfig::telemetry`](crate::MonEqConfig::telemetry) set, a
//! session records on its poll path only what no ledger already holds: the
//! failed read attempts per error kind, each retry's backoff, the
//! simulated-time `poll` span of every timer fire, and per backend its
//! shared-cache decisions and its query latency. Each live poll is recorded
//! once, into the latency histogram; the `poll/{mechanism}` span is that
//! histogram's count, sum and maximum, derived when the report is built.
//! At finalize it copies in what the ledgers do hold: each backend's
//! [`Completeness`], fault-gate and link counters, the fired-poll and
//! dropped-record counts, and the finalize write waves. A report's counts
//! therefore reconcile with those ledgers by construction.
//!
//! Metric names are spelled in one place, [`SessionTelemetry::report`],
//! which builds the string-keyed [`TelemetryReport`] when someone asks for
//! it. Its rows follow three rules:
//!
//! * a counter appears once it is non-zero, a histogram once it holds an
//!   observation, a span once it closed — except `records.lost`, which
//!   every successful or missed poll accounts, so it appears (even at zero)
//!   from the first such poll;
//! * backends with the same name sum into one row;
//! * disabled telemetry reports empty.
//!
//! Disabled telemetry is a `None`: every update is one untaken branch, and
//! nothing is allocated.

use crate::backend::{GateStats, ReadError};
use crate::completeness::Completeness;
use crate::plan::{CacheStats, SharedLookup};
use simkit::wire::LinkStats;
use simkit::{LogHistogram, SimDuration, SpanStats, TelemetryReport};

/// One session's telemetry: disabled, or the instruments it records into.
///
/// A finalized session hands it back in
/// [`FinalizeResult::telemetry`](crate::FinalizeResult::telemetry); the
/// report is built only by [`SessionTelemetry::report`]. Everything in it
/// derives from the virtual timeline, so serial and parallel drives of the
/// same seed produce equal values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionTelemetry(Option<Box<Instruments>>);

#[derive(Clone, Debug, Default, PartialEq)]
struct Instruments {
    /// Failed read attempts: transient, timeout, no data, unavailable.
    faults: [u64; 4],
    retry_backoff: LogHistogram,
    /// The whole session, initialize to finalize.
    session: SpanStats,
    /// Every timer fire.
    poll: SpanStats,
    backends: Vec<Backend>,
    polls_fired: u64,
    records_dropped: u64,
    finalize_waves: u64,
}

/// One attached backend's instruments, in backend order.
#[derive(Clone, Debug, Default, PartialEq)]
struct Backend {
    cache: CacheStats,
    /// Live polls of this backend, by what each cost.
    query_latency: LogHistogram,
    /// The backend's ledger; holds its name until finalize copies it in.
    completeness: Completeness,
    gate: Option<GateStats>,
    link: Option<LinkStats>,
}

impl SessionTelemetry {
    /// Instruments for backends named `names` (in backend order) when `on`,
    /// else disabled.
    pub(crate) fn new(on: bool, names: impl Iterator<Item = &'static str>) -> Self {
        SessionTelemetry(on.then(|| {
            let backends = names.map(|name| Backend {
                completeness: Completeness::new(name),
                ..Backend::default()
            });
            Box::new(Instruments {
                backends: backends.collect(),
                ..Instruments::default()
            })
        }))
    }

    /// One failed read attempt.
    pub(crate) fn fault(&mut self, e: &ReadError) {
        if let Some(t) = self.0.as_deref_mut() {
            let kind = match e {
                ReadError::Transient(_) => 0,
                ReadError::Timeout { .. } => 1,
                ReadError::NoData => 2,
                ReadError::Unavailable(_) => 3,
            };
            t.faults[kind] += 1;
        }
    }

    /// One retry, after waiting `backoff`.
    pub(crate) fn retry(&mut self, backoff: SimDuration) {
        if let Some(t) = self.0.as_deref_mut() {
            t.retry_backoff.record(backoff);
        }
    }

    /// What backend `slot`'s shared-cache consult found.
    pub(crate) fn lookup(&mut self, slot: usize, found: &SharedLookup) {
        if let Some(t) = self.0.as_deref_mut() {
            t.backends[slot].cache.count(found);
        }
    }

    /// One live poll of backend `slot`, which cost `spent`.
    pub(crate) fn backend_poll(&mut self, slot: usize, spent: SimDuration) {
        if let Some(t) = self.0.as_deref_mut() {
            t.backends[slot].query_latency.record(spent);
        }
    }

    /// One timer fire, which cost `spent` over all backends.
    pub(crate) fn fire(&mut self, spent: SimDuration) {
        if let Some(t) = self.0.as_deref_mut() {
            t.poll.record(spent);
        }
    }

    /// Close the session span after `session`, and copy in the ledgers:
    /// each backend's completeness, gate and link counters (in backend
    /// order), the fired polls, the dropped records and the write waves.
    pub(crate) fn finalize<'a>(
        &mut self,
        ledgers: impl Iterator<Item = (&'a Completeness, Option<GateStats>, Option<LinkStats>)>,
        polls_fired: u64,
        records_dropped: u64,
        finalize_waves: u64,
        session: SimDuration,
    ) {
        let Some(t) = self.0.as_deref_mut() else {
            return;
        };
        for (b, (completeness, gate, link)) in t.backends.iter_mut().zip(ledgers) {
            b.completeness = completeness.clone();
            b.gate = gate;
            b.link = link;
        }
        t.polls_fired = polls_fired;
        t.records_dropped = records_dropped;
        t.finalize_waves = finalize_waves;
        t.session.record(session);
    }

    /// The named report (see the module docs for which rows appear).
    pub fn report(&self) -> TelemetryReport {
        let mut r = TelemetryReport::default();
        let Some(t) = self.0.as_deref() else {
            return r;
        };
        let sum = |f: fn(&Completeness) -> u64| -> u64 {
            t.backends.iter().map(|b| f(&b.completeness)).sum()
        };
        for (name, n) in [
            ("polls.fired", t.polls_fired),
            ("polls.scheduled", sum(|c| c.scheduled)),
            ("polls.succeeded", sum(|c| c.succeeded)),
            ("polls.retried", sum(|c| c.retried)),
            ("polls.stale_substituted", sum(|c| c.stale_polls)),
            ("polls.missed", sum(|c| c.missed_polls)),
            (
                "devices.disabled",
                sum(|c| u64::from(c.disabled_at_ns.is_some())),
            ),
            ("records.fresh", sum(|c| c.records_fresh)),
            ("records.stale", sum(|c| c.records_stale)),
            ("records.dropped", t.records_dropped),
            ("faults.transient", t.faults[0]),
            ("faults.timeout", t.faults[1]),
            ("faults.no_data", t.faults[2]),
            ("faults.unavailable", t.faults[3]),
            ("finalize.waves", t.finalize_waves),
        ] {
            counter(&mut r, name, n);
        }
        // Every successful or missed poll accounts its lost records, so
        // the row shows from the first such poll, even at zero.
        if sum(|c| c.succeeded + c.missed_polls) > 0 {
            r.counters
                .insert("records.lost".into(), sum(|c| c.records_lost));
        }
        histogram(&mut r, "retry_backoff", &t.retry_backoff);
        span(&mut r, "session", 0, t.session);
        span(&mut r, "poll", 1, t.poll);
        for b in &t.backends {
            // One backend's rows, absorbed so same-name backends sum.
            let mut rows = TelemetryReport::default();
            let name = &b.completeness.device;
            for (kind, n) in b.cache.kinds() {
                counter(&mut rows, format!("cache.{kind}/{name}"), n);
            }
            for (kind, n) in b.gate.iter().flat_map(GateStats::kinds) {
                counter(&mut rows, format!("gate.{kind}/{name}"), n);
            }
            if let Some(link) = &b.link {
                for (kind, n) in link.kinds() {
                    counter(&mut rows, format!("wire.{kind}/{name}"), n);
                }
                histogram(&mut rows, format!("wire.rtt/{name}"), &link.rtt);
            }
            histogram(&mut rows, format!("query_latency/{name}"), &b.query_latency);
            // The span is the latency histogram seen as closed sections.
            let h = &b.query_latency;
            let poll = SpanStats {
                count: h.count(),
                total: h.sum(),
                max: h.max().unwrap_or(SimDuration::ZERO),
                ..SpanStats::default()
            };
            span(&mut rows, format!("poll/{name}"), 2, poll);
            r.absorb(&rows);
        }
        r
    }
}

/// A counter row, once non-zero.
fn counter(r: &mut TelemetryReport, name: impl Into<String>, n: u64) {
    if n > 0 {
        r.counters.insert(name.into(), n);
    }
}

/// A histogram row, once it holds an observation.
fn histogram(r: &mut TelemetryReport, name: impl Into<String>, h: &LogHistogram) {
    if !h.is_empty() {
        r.histograms.insert(name.into(), h.clone());
    }
}

/// A span row at `depth` in the span tree, once a span closed.
fn span(r: &mut TelemetryReport, name: impl Into<String>, depth: u16, s: SpanStats) {
    if s.count > 0 {
        r.spans.insert(name.into(), SpanStats { depth, ..s });
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{EnvBackend, Poll, ReadError};
    use crate::reading::DataPoint;
    use crate::session::{MonEq, MonEqConfig};
    use powermodel::{Metric, Platform, Support};
    use simkit::{SimDuration, SimTime, TelemetryReport};

    /// A clean one-record backend polled every 100 ms at 10 µs a poll.
    struct Clean;

    impl EnvBackend for Clean {
        fn name(&self) -> &'static str {
            "clean"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            SimDuration::from_millis(100)
        }
        fn poll_cost(&self) -> SimDuration {
            SimDuration::from_micros(10)
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            Ok(Poll::complete(vec![DataPoint::power(t, "dev", "d", 1.0)]))
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    /// The report of a session over `backends` clean backends, finalized
    /// at `ms`.
    fn report(telemetry: bool, backends: usize, ms: u64) -> TelemetryReport {
        let config = MonEqConfig {
            telemetry,
            ..MonEqConfig::default()
        };
        let backends = (0..backends)
            .map(|_| Box::new(Clean) as Box<dyn EnvBackend>)
            .collect();
        MonEq::initialize(0, backends, config, SimTime::ZERO)
            .finalize(SimTime::from_millis(ms))
            .telemetry
            .report()
    }

    #[test]
    fn report_rows_follow_the_presence_rules() {
        // A clean poll lost nothing, yet accounts `records.lost` at zero.
        let clean = report(true, 1, 250);
        assert_eq!(clean.counters.get("records.lost"), Some(&0));
        assert_eq!(clean.counter("polls.succeeded"), 2);
        assert!(!clean.counters.contains_key("faults.transient"));

        // Before the first poll only the finalize waves and the session
        // span have anything to show.
        let early = report(true, 1, 50);
        assert_eq!(
            early.counters.keys().collect::<Vec<_>>(),
            ["finalize.waves"]
        );
        assert!(early.histograms.is_empty());
        assert_eq!(early.spans.keys().collect::<Vec<_>>(), ["session"]);

        // Two backends with one name sum into one row of each kind.
        let twin = report(true, 2, 250);
        assert_eq!(twin.counter("polls.fired"), 2);
        assert_eq!(twin.counter("polls.scheduled"), 4);
        assert_eq!(twin.histograms["query_latency/clean"].count(), 4);
        let span = twin.spans["poll/clean"];
        assert_eq!((span.count, span.depth), (4, 2));
        assert_eq!(span.total, SimDuration::from_micros(40));
        assert_eq!(twin.spans["poll"].total, SimDuration::from_micros(40));

        // Telemetry off reports nothing at all.
        assert!(report(false, 2, 250).is_empty());
    }
}
