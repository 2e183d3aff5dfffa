//! The RAPL backend: MSR snapshots turned into per-domain power.

use crate::backend::{EnvBackend, FaultGate, Poll, ReadError};
use crate::reading::DataPoint;
use powermodel::{Metric, Platform, Support};
use rapl_sim::{MsrAccess, MsrDevice, PowerReader, PowerSource, RaplDomain, MSR_QUERY_COST};
use simkit::fault::FaultPlan;
use simkit::wire::LinkSpec;
use simkit::{NoiseStream, SimDuration, SimTime};
use std::sync::Arc;

/// MonEQ's RAPL backend. Power is a derived quantity, so the first poll
/// only takes baseline snapshots and reports nothing; every later poll
/// reports the wrap-corrected average power of each domain since the
/// previous poll.
pub struct RaplBackend {
    reader: PowerReader,
    prev: Option<(SimTime, [u64; 4])>,
    gate: FaultGate,
}

impl RaplBackend {
    /// Attach to a socket (opens `/dev/cpu/0/msr`; the caller must have the
    /// access the paper's chmod discussion requires). Any [`PowerSource`]
    /// works — the passive [`rapl_sim::SocketModel`] or the capped
    /// closed-loop [`rapl_sim::CappedSocket`].
    pub fn new(socket: Arc<dyn PowerSource>, access: MsrAccess, seed: u64) -> Result<Self, String> {
        let device = MsrDevice::open(socket, 0, access, &NoiseStream::new(seed))
            .map_err(|e| e.to_string())?;
        Ok(RaplBackend {
            reader: PowerReader::new(device),
            prev: None,
            gate: FaultGate::none(),
        })
    }

    /// Subject this backend to the run's fault plan under the RAPL
    /// pathology profile ([`rapl_sim::fault_profile`]: transient `EIO`
    /// reads, stuck/wrapped counters, brief driver stalls). `label` names
    /// the device's fault stream; use a per-rank label so ranks fail
    /// independently.
    pub fn with_faults(mut self, plan: &FaultPlan, label: &str) -> Self {
        self.gate = FaultGate::from_plan(plan, label, rapl_sim::fault_profile());
        self
    }

    /// The link personality an out-of-band deployment of this mechanism
    /// rides on. RAPL is an in-band mechanism — the MSRs only exist on
    /// the node — so serving it remotely means a node-local collection
    /// daemon answering over the cluster interconnect: a LAN-class hop.
    pub fn service_link() -> LinkSpec {
        LinkSpec::lan()
    }

    /// The four energy-status registers at `t`. A register that refuses
    /// the read (the device lost its access or its model) fails the poll
    /// instead of the process.
    fn snapshots(&self, t: SimTime) -> Result<[u64; 4], ReadError> {
        let mut raw = [0; 4];
        for (r, d) in raw.iter_mut().zip(RaplDomain::ALL) {
            *r = self
                .reader
                .snapshot(d, t)
                .map_err(|e| ReadError::Unavailable(e.to_string()))?;
        }
        Ok(raw)
    }
}

impl EnvBackend for RaplBackend {
    fn name(&self) -> &'static str {
        "rapl-msr"
    }

    fn platform(&self) -> Platform {
        rapl_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        // "relatively accurate for data collection at about 60ms" (§II-B).
        SimDuration::from_millis(60)
    }

    fn poll_cost(&self) -> SimDuration {
        // One MSR read per domain.
        MSR_QUERY_COST * RaplDomain::ALL.len() as u64
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        rapl_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let grant = self.gate.admit(t)?;
        if grant.glitch {
            // Stuck counter: the MSR serves the previous raw values again,
            // so the energy delta over the window is zero — 0 W, flagged
            // stale. `prev` is deliberately NOT advanced: the next clean
            // poll computes power over the whole elapsed span, so energy
            // stays conserved (this is the paper's missed-wrap
            // under-reporting made explicit and recoverable).
            let out = match self.prev {
                None => Vec::new(),
                Some(_) => RaplDomain::ALL
                    .iter()
                    .map(|d| {
                        let mut p = DataPoint::power(t, "socket0", d.name(), 0.0);
                        p.stale = true;
                        p
                    })
                    .collect(),
            };
            return Ok(Poll::complete(out));
        }
        let now = self.snapshots(t)?;
        let out = match self.prev {
            None => Vec::new(),
            Some((pt, prev_raw)) => {
                let elapsed = t - pt;
                RaplDomain::ALL
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        DataPoint::power(
                            t,
                            "socket0",
                            d.name(),
                            self.reader.power_between(prev_raw[i], now[i], elapsed),
                        )
                    })
                    .collect()
            }
        };
        self.prev = Some((t, now));
        let (kept, missing) = self.gate.filter(t, out);
        Ok(Poll::with_missing(kept, missing))
    }

    fn read_cadence(&self) -> SimDuration {
        // The energy-status counters tick on a ~1 ms grid; reads inside
        // one tick observe the same counter generation. (The ±50k-cycle
        // jitter never matters for caching: RAPL stays non-replayable, so
        // only the access-path cost is shared, never a stored value.)
        SimDuration::from_millis(1)
    }

    // `replayable` stays the default `false`: power is a delta against the
    // previous snapshot (`self.prev`), so a served value depends on this
    // backend's own polling history, not just the query instant.

    fn records_per_poll(&self) -> usize {
        RaplDomain::ALL.len()
    }

    fn gate_stats(&self) -> Option<crate::backend::GateStats> {
        // An inactive gate never touches its counters; reporting `None`
        // instead of an all-zero ledger lets finalize skip the per-kind
        // fold entirely on the (default) fault-free path, with byte-for-
        // byte identical output either way.
        self.gate.is_active().then(|| self.gate.stats())
    }

    fn limitations(&self) -> Vec<crate::backend::StatedLimitation> {
        use crate::backend::StatedLimitation as L;
        vec![
            L::new(
                "scope",
                "metrics are per socket; per-core power and per-channel DRAM \
                 power do not exist, and per-core limits cannot be set",
            ),
            L::new(
                "overflow",
                "the 32-bit energy counters wrap; sampling intervals beyond \
                 ~60 s at TDP silently under-report",
            ),
            L::new(
                "accuracy",
                "counter updates jitter within ±50,000 cycles; windows much \
                 shorter than ~60 ms are unreliable",
            ),
            L::new(
                "access",
                "MSR reads need root or an explicitly configured read-only \
                 msr device; the perf path needs kernel >= 3.14",
            ),
            L::new(
                "deployment",
                "strictly in-band: the MSRs exist only on the node, so any \
                 off-node view must relay through a daemon and inherits the \
                 relay's latency and loss",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::GaussianElimination;
    use rapl_sim::{SocketModel, SocketSpec};

    fn backend() -> RaplBackend {
        let socket = Arc::new(SocketModel::new(
            SocketSpec::default(),
            &GaussianElimination::figure3().profile(),
        ));
        RaplBackend::new(socket, MsrAccess::root(), 3).unwrap()
    }

    #[test]
    fn first_poll_is_baseline_only() {
        let mut b = backend();
        assert!(b.poll(SimTime::from_secs(1)).is_empty());
        let second = b.poll(SimTime::from_millis(1_100));
        assert_eq!(second.len(), 4);
    }

    #[test]
    fn reported_pkg_power_is_plausible() {
        let mut b = backend();
        b.poll(SimTime::from_secs(10));
        let points = b.poll(SimTime::from_millis(10_100));
        let pkg = points
            .iter()
            .find(|p| p.domain.contains("Package"))
            .unwrap();
        assert!((40.0..55.0).contains(&pkg.watts), "pkg {}", pkg.watts);
        let pp1 = points
            .iter()
            .find(|p| p.domain.contains("Plane 1"))
            .unwrap();
        assert!(pp1.watts < 1.0, "iGPU plane should be idle");
    }

    #[test]
    fn permission_failure_surfaces() {
        let socket = Arc::new(SocketModel::new(
            SocketSpec::default(),
            &GaussianElimination::figure3().profile(),
        ));
        let err = RaplBackend::new(socket, MsrAccess::user(), 3)
            .err()
            .unwrap();
        assert!(err.contains("permission denied"), "{err}");
    }

    #[test]
    fn poll_cost_is_four_msr_reads() {
        let b = backend();
        assert_eq!(b.poll_cost(), SimDuration::from_micros(120));
    }
}
