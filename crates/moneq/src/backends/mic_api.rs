//! The Xeon Phi in-band backend (SysMgmt over SCIF).

use crate::backend::{EnvBackend, FaultGate, Poll, ReadError};
use crate::reading::DataPoint;
use mic_sim::{PhiCard, ScifNetwork, Smc, SysMgmtSession, MIC_API_QUERY_COST};
use powermodel::{Metric, Platform, Support};
use simkit::fault::FaultPlan;
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// MonEQ's in-band Phi backend. Expensive (≈14.2 ms per poll) and
/// perturbing (the card's power rises while queries run — Figure 7); the
/// card must have been built with
/// [`SysMgmtSession::mgmt_demand`] so the perturbation is physically
/// present in the power the SMC measures.
pub struct MicApiBackend {
    net: ScifNetwork,
    session: SysMgmtSession,
    card: Arc<PhiCard>,
    smc: Arc<Smc>,
    gate: FaultGate,
}

impl MicApiBackend {
    /// Connect to the SysMgmt agent of `card` (SCIF node 1).
    pub fn new(card: Arc<PhiCard>, smc: Arc<Smc>) -> Self {
        let mut net = ScifNetwork::new(2);
        SysMgmtSession::start_agent(&mut net, 1).expect("fresh fabric");
        let session = SysMgmtSession::connect(&mut net, 1).expect("agent listening");
        MicApiBackend {
            net,
            session,
            card,
            smc,
            gate: FaultGate::none(),
        }
    }

    /// Subject this backend to the run's fault plan under the Phi
    /// pathology profile ([`mic_sim::fault_profile`]: unresponsive on-card
    /// software, transient SCIF failures, empty generations). `label`
    /// names the device's fault stream; use a per-rank label so ranks fail
    /// independently.
    pub fn with_faults(mut self, plan: &FaultPlan, label: &str) -> Self {
        self.gate = FaultGate::from_plan(plan, label, mic_sim::fault_profile());
        self
    }

    /// The link personality an out-of-band deployment of this mechanism
    /// rides on. SysMgmt is in-band (host-to-card SCIF on the node
    /// itself); remote service relays through the host over the cluster
    /// interconnect — a LAN-class hop on top of the 14.2 ms query.
    pub fn service_link() -> LinkSpec {
        LinkSpec::lan()
    }
}

impl EnvBackend for MicApiBackend {
    fn name(&self) -> &'static str {
        "mic-sysmgmt"
    }

    fn platform(&self) -> Platform {
        mic_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        mic_sim::smc::SMC_SAMPLE_PERIOD
    }

    fn poll_cost(&self) -> SimDuration {
        MIC_API_QUERY_COST
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        mic_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let grant = self.gate.admit(t)?;
        let (reading, _done) = self
            .session
            .query_power(&mut self.net, &self.card, &self.smc, t)
            .map_err(|e| ReadError::Unavailable(e.to_string()))?;
        let point = DataPoint {
            timestamp: t,
            device: "mic0".into(),
            domain: "card".into(),
            watts: reading.total_power_uw as f64 / 1e6,
            volts: Some(reading.vccp_volts),
            amps: Some(reading.vccp_amps),
            temp_c: Some(reading.die_temp_c),
            stale: grant.glitch,
        };
        let (kept, missing) = self.gate.filter(t, vec![point]);
        Ok(Poll::with_missing(kept, missing))
    }

    fn read_cadence(&self) -> SimDuration {
        // The SMC resamples every 50 ms; in-band queries inside one window
        // are served from the same generation.
        mic_sim::smc::SMC_SAMPLE_PERIOD
    }

    fn records_per_poll(&self) -> usize {
        1
    }

    fn gate_stats(&self) -> Option<crate::backend::GateStats> {
        self.gate.stats()
    }

    fn limitations(&self) -> Vec<crate::backend::StatedLimitation> {
        use crate::backend::StatedLimitation as L;
        vec![
            L::new(
                "cost",
                "each in-band query takes ~14.2 ms end to end (~14% overhead \
                 at a 100 ms interval)",
            ),
            L::new(
                "perturbation",
                "collection code runs on the card per query, raising the \
                 card's power over idle -- the readings include the cost of \
                 taking them",
            ),
            L::new(
                "deployment",
                "in-band over host-to-card SCIF; every query competes with \
                 the application for the card's cores and the PCIe link",
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

    fn backend(mgmt: DemandTrace) -> MicApiBackend {
        let card = Arc::new(PhiCard::new(
            PhiSpec::default(),
            &Noop::figure7().profile(),
            mgmt,
            SimTime::from_secs(200),
        ));
        let smc = Arc::new(Smc::new(NoiseStream::new(44)));
        MicApiBackend::new(card, smc)
    }

    #[test]
    fn poll_reports_card_power_with_extras() {
        let mgmt = SysMgmtSession::mgmt_demand(
            SimDuration::from_millis(100),
            SimTime::ZERO,
            SimTime::from_secs(200),
        );
        let mut b = backend(mgmt);
        let points = b.poll(SimTime::from_secs(60));
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!((108.0..122.0).contains(&p.watts), "watts {}", p.watts);
        assert!(p.temp_c.is_some() && p.volts.is_some() && p.amps.is_some());
    }

    #[test]
    fn in_band_polling_observes_its_own_perturbation() {
        // With the mgmt demand installed (API polling), measured power sits
        // above an otherwise-identical card polled without it.
        let mgmt = SysMgmtSession::mgmt_demand(
            SimDuration::from_millis(100),
            SimTime::ZERO,
            SimTime::from_secs(200),
        );
        let mut with = backend(mgmt);
        let mut without = backend(DemandTrace::zero());
        let mut diff_sum = 0.0;
        let n = 50;
        for k in 0..n {
            let t = SimTime::from_millis(30_000 + k * 500);
            diff_sum += with.poll(t)[0].watts - without.poll(t)[0].watts;
        }
        let mean_diff = diff_sum / n as f64;
        assert!(
            (1.0..4.0).contains(&mean_diff),
            "API perturbation {mean_diff} W"
        );
    }

    #[test]
    fn cost_is_the_papers_14_2ms() {
        let b = backend(DemandTrace::zero());
        assert_eq!(b.poll_cost(), SimDuration::from_micros(14_200));
        // ≈14% at a 100 ms interval.
        let frac = b.poll_cost().as_secs_f64() / 0.1;
        assert!((frac - 0.142).abs() < 1e-9);
    }
}
