//! The Xeon Phi MICRAS-daemon backend (device-side pseudo-file reads).

use crate::backend::{EnvBackend, FaultGate, Poll, ReadError};
use crate::reading::DataPoint;
use hpc_workloads::WorkloadProfile;
use mic_sim::micras::{PowerFileReading, POWER_FILE, TEMP_FILE};
use mic_sim::{MicrasDaemon, PhiCard, Smc, MIC_DAEMON_QUERY_COST};
use powermodel::{Metric, Platform, Support};
use simkit::fault::FaultPlan;
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// MonEQ's daemon-path Phi backend: read `/sys/class/micras/power`, parse,
/// record. Cheap (≈0.04 ms), but "the data collected by the daemon is only
/// accessible by the portion of code which is running on the device", so
/// the cost — small as it is — is charged to the application's own
/// timeline (contention), not to a host-side thread.
pub struct MicDaemonBackend {
    daemon: MicrasDaemon,
    gate: FaultGate,
}

impl MicDaemonBackend {
    /// Start the daemon for `card` and attach.
    pub fn new(card: Arc<PhiCard>, smc: Arc<Smc>, profile: &WorkloadProfile) -> Self {
        MicDaemonBackend {
            daemon: MicrasDaemon::start(card, smc, profile),
            gate: FaultGate::none(),
        }
    }

    /// Subject this backend to the run's fault plan under the Phi
    /// pathology profile ([`mic_sim::fault_profile`]: an unresponsive
    /// MICRAS daemon, transient pseudo-file read failures, empty
    /// generations). `label` names the device's fault stream; use a
    /// per-rank label so ranks fail independently.
    pub fn with_faults(mut self, plan: &FaultPlan, label: &str) -> Self {
        self.gate = FaultGate::from_plan(plan, label, mic_sim::fault_profile());
        self
    }

    /// The link personality an out-of-band deployment of this mechanism
    /// rides on. The MICRAS daemon's SMC data also surfaces on the
    /// management fabric (IPMB to the chassis controller), so the natural
    /// remote personality is a management-class link.
    pub fn service_link() -> LinkSpec {
        LinkSpec::mgmt()
    }

    /// Temperature read (a second pseudo-file; optional extra cost).
    pub fn read_die_temp(&self, t: SimTime) -> Option<f64> {
        let text = self.daemon.read_file(TEMP_FILE, t).ok()?;
        text.lines()
            .find(|l| l.starts_with("die:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
    }
}

impl EnvBackend for MicDaemonBackend {
    fn name(&self) -> &'static str {
        "mic-micras"
    }

    fn platform(&self) -> Platform {
        mic_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        mic_sim::smc::SMC_SAMPLE_PERIOD
    }

    fn poll_cost(&self) -> SimDuration {
        MIC_DAEMON_QUERY_COST
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        mic_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let grant = self.gate.admit(t)?;
        // A missing pseudo-file means the daemon is gone for good; a file
        // that does not parse is a torn read, which a reread may clear.
        let text = self
            .daemon
            .read_file(POWER_FILE, t)
            .map_err(|e| ReadError::Unavailable(e.to_string()))?;
        let r = PowerFileReading::parse(&text)
            .ok_or_else(|| ReadError::Transient("malformed MICRAS power file".into()))?;
        let point = DataPoint {
            timestamp: t,
            device: "mic0".into(),
            domain: "card".into(),
            watts: r.total_watts(),
            volts: Some(r.vccp_uv as f64 / 1e6),
            amps: Some(r.vccp_ua as f64 / 1e6),
            temp_c: None,
            stale: grant.glitch,
        };
        let (kept, missing) = self.gate.filter(t, vec![point]);
        Ok(Poll::with_missing(kept, missing))
    }

    fn read_cadence(&self) -> SimDuration {
        // The pseudo-file is regenerated from the SMC's latest 50 ms
        // generation; reads inside one window parse identical text.
        mic_sim::smc::SMC_SAMPLE_PERIOD
    }

    fn replayable(&self) -> bool {
        // The parsed reading is a pure function of the query instant (the
        // daemon rerenders the file from the deterministic SMC state), so
        // an un-faulted stored poll replays exactly.
        !self.gate.is_active()
    }

    fn records_per_poll(&self) -> usize {
        1
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
                "contention",
                "pseudo-files are only readable from code running on the \
                 device, so collection contends with the application",
            ),
            L::new(
                "staleness",
                "readings are the SMC's latest 50 ms generation, not a fresh \
                 sample",
            ),
            L::new(
                "deployment",
                "the same SMC generations are reachable out-of-band over the \
                 management fabric (IPMB), trading the on-device contention \
                 for management-network latency",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::Noop;
    use mic_sim::PhiSpec;
    use powermodel::DemandTrace;
    use simkit::NoiseStream;

    fn backend() -> MicDaemonBackend {
        let profile = Noop::figure7().profile();
        let card = Arc::new(PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::zero(),
            SimTime::from_secs(200),
        ));
        let smc = Arc::new(Smc::new(NoiseStream::new(55)));
        MicDaemonBackend::new(card, smc, &profile)
    }

    #[test]
    fn poll_parses_the_pseudo_file() {
        let mut b = backend();
        let points = b.poll(SimTime::from_secs(60));
        assert_eq!(points.len(), 1);
        assert!((105.0..120.0).contains(&points[0].watts));
        assert!(points[0].volts.is_some());
    }

    #[test]
    fn daemon_is_355x_cheaper_than_api() {
        let b = backend();
        assert_eq!(b.poll_cost(), SimDuration::from_micros(40));
        let ratio = mic_sim::MIC_API_QUERY_COST.as_nanos() as f64 / b.poll_cost().as_nanos() as f64;
        assert!((ratio - 355.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn die_temp_helper_reads_second_file() {
        let b = backend();
        let temp = b.read_die_temp(SimTime::from_secs(60)).unwrap();
        assert!((35.0..80.0).contains(&temp), "temp {temp}");
    }
}
