//! The device-model probe: an [`EnvBackend`] decorator that forwards
//! every trait method to the mechanism it wraps and times each `read`
//! into the trace as `mech.<name>.read`, counting failed reads as
//! `mech.<name>.errors`.
//!
//! The decorator must be transparent — same name, cadence, replay
//! property and cost ledger as the wrapped backend — or the traced run
//! would measure a different program. The traced run checks this by
//! comparing its output digest with the untraced run's.

use crate::trace::{self, SpanId};
use moneq::{EnvBackend, GateStats, Poll, ReadError, StatedLimitation};
use powermodel::{Metric, Platform, Support};
use simkit::{SimDuration, SimTime};

/// A timed [`EnvBackend`].
pub struct Timed {
    inner: Box<dyn EnvBackend>,
    read: SpanId,
    errors: SpanId,
}

impl Timed {
    /// Wrap `inner`; its spans are named after `inner.name()`.
    pub fn wrap(inner: Box<dyn EnvBackend>) -> Box<dyn EnvBackend> {
        let name = inner.name();
        Box::new(Timed {
            read: trace::intern(&format!("mech.{name}.read")),
            errors: trace::intern(&format!("mech.{name}.errors")),
            inner,
        })
    }
}

impl EnvBackend for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn platform(&self) -> Platform {
        self.inner.platform()
    }
    fn min_interval(&self) -> SimDuration {
        self.inner.min_interval()
    }
    fn poll_cost(&self) -> SimDuration {
        self.inner.poll_cost()
    }
    fn capabilities(&self) -> Vec<(Metric, Support)> {
        self.inner.capabilities()
    }
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let out = trace::time(self.read, || self.inner.read(t));
        if out.is_err() {
            trace::count(self.errors, 1);
        }
        out
    }
    fn poll(&mut self, t: SimTime) -> Vec<moneq::DataPoint> {
        self.inner.poll(t)
    }
    fn read_cadence(&self) -> SimDuration {
        self.inner.read_cadence()
    }
    fn replayable(&self) -> bool {
        self.inner.replayable()
    }
    fn read_many(&mut self, t: SimTime, agents: usize) -> Result<Vec<Poll>, ReadError> {
        let out = trace::time(self.read, || self.inner.read_many(t, agents));
        if out.is_err() {
            trace::count(self.errors, 1);
        }
        out
    }
    fn batched_cost(&self, agents: usize) -> SimDuration {
        self.inner.batched_cost(agents)
    }
    fn records_per_poll(&self) -> usize {
        self.inner.records_per_poll()
    }
    fn limitations(&self) -> Vec<StatedLimitation> {
        self.inner.limitations()
    }
    fn gate_stats(&self) -> Option<GateStats> {
        self.inner.gate_stats()
    }
    fn last_poll_cost(&self) -> SimDuration {
        self.inner.last_poll_cost()
    }
    fn wire_stats(&self) -> Option<simkit::wire::LinkStats> {
        self.inner.wire_stats()
    }
}
