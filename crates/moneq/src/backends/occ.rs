//! The POWER9 OCC backend (in-band sensor-buffer reads via OPAL).

use crate::backend::{EnvBackend, FaultGate, Poll, ReadError};
use crate::reading::DataPoint;
use occ_sim::{Occ, Power9Chip, OCC_INBAND_QUERY_COST, OCC_TICK};
use powermodel::{Metric, Platform, Support};
use simkit::fault::FaultPlan;
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// MonEQ's POWER9 backend: reads the OCC's latest completed sensor buffer
/// out of OPAL-mapped main memory. Cheap (a mapped read, ~20 µs) and
/// non-perturbing (the OCC runs on its own microcontroller), but every
/// read is at least one 25 ms generation old, and a stale-buffer glitch
/// serves the generation before that.
pub struct OccBackend {
    chip: Arc<Power9Chip>,
    occ: Arc<Occ>,
    gate: FaultGate,
}

impl OccBackend {
    /// Attach to the OCC of `chip`.
    pub fn new(chip: Arc<Power9Chip>, occ: Arc<Occ>) -> Self {
        OccBackend {
            chip,
            occ,
            gate: FaultGate::none(),
        }
    }

    /// Subject this backend to the run's fault plan under the OCC
    /// pathology profile ([`occ_sim::fault_profile`]: stale sensor
    /// buffers, safe-mode blackouts, transient `OCC_BUSY`). `label` names
    /// the device's fault stream; use a per-rank label so ranks fail
    /// independently.
    pub fn with_faults(mut self, plan: &FaultPlan, label: &str) -> Self {
        self.gate = FaultGate::from_plan(plan, label, occ_sim::fault_profile());
        self
    }

    /// The link personality an out-of-band deployment of this mechanism
    /// rides on. The buffer read itself is in-band (mapped main memory);
    /// remote service relays through the host over the cluster
    /// interconnect — a LAN-class hop.
    pub fn service_link() -> LinkSpec {
        LinkSpec::lan()
    }
}

impl EnvBackend for OccBackend {
    fn name(&self) -> &'static str {
        "p9-occ"
    }

    fn platform(&self) -> Platform {
        occ_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        OCC_TICK
    }

    fn poll_cost(&self) -> SimDuration {
        OCC_INBAND_QUERY_COST
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        occ_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let grant = self.gate.admit(t)?;
        // A glitch is the OCC main loop missing its deadline: the previous
        // generation stays mapped and the read "succeeds" with old data.
        let reading = if grant.glitch {
            self.occ.read_stale(&self.chip, t)
        } else {
            self.occ.read(&self.chip, t)
        };
        let point = DataPoint {
            timestamp: t,
            device: "p9chip0".into(),
            domain: "socket".into(),
            watts: f64::from(reading.socket_power_w),
            volts: None,
            amps: None,
            temp_c: Some(reading.die_temp_c),
            stale: grant.glitch,
        };
        let (kept, missing) = self.gate.filter(t, vec![point]);
        Ok(Poll::with_missing(kept, missing))
    }

    fn read_cadence(&self) -> SimDuration {
        // The OCC completes a sensor buffer every 25 ms; reads inside one
        // tick are served from the same generation.
        OCC_TICK
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
                "staleness",
                "reads observe the latest completed ~25 ms sensor buffer; a \
                 missed main-loop deadline leaves the previous buffer mapped",
            ),
            L::new(
                "overflow",
                "energy accumulation counters are fixed-width and wrap; \
                 consumers must difference reads modulo the register width",
            ),
            L::new(
                "granularity",
                "published power sensors are whole watts -- the coarsest \
                 report quantum of any mechanism compared here",
            ),
            L::new(
                "deployment",
                "in-band via OPAL-mapped main memory; after an internal \
                 error the OCC drops to safe mode and is dark until the \
                 service processor resets it",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::Noop;
    use occ_sim::P9Spec;

    fn backend() -> OccBackend {
        let chip = Arc::new(Power9Chip::new(
            P9Spec::default(),
            &Noop::figure4().profile(),
            SimTime::from_secs(200),
        ));
        OccBackend::new(chip, Arc::new(Occ::new()))
    }

    #[test]
    fn poll_reports_whole_watt_socket_power_with_temp() {
        let mut b = backend();
        let points = b.poll(SimTime::from_secs(60));
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!((100.0..200.0).contains(&p.watts), "watts {}", p.watts);
        assert_eq!(p.watts, p.watts.round(), "whole watts");
        assert!(p.temp_c.is_some() && p.volts.is_none() && p.amps.is_none());
        assert_eq!(p.device, "p9chip0");
    }

    #[test]
    fn reads_quantize_to_the_25ms_grid() {
        let mut b = backend();
        let a = b.poll(SimTime::from_millis(60_005));
        let c = b.poll(SimTime::from_millis(60_020));
        assert_eq!(a[0].watts, c[0].watts);
        assert_eq!(b.read_cadence(), SimDuration::from_millis(25));
        assert_eq!(b.min_interval(), SimDuration::from_millis(25));
    }

    #[test]
    fn cost_is_a_mapped_read() {
        let b = backend();
        assert_eq!(b.poll_cost(), SimDuration::from_micros(20));
    }

    #[test]
    fn faulted_backend_serves_stale_buffers() {
        let plan = FaultPlan::uniform(7, 0.2);
        let mut b = backend().with_faults(&plan, "p9chip0");
        // Somewhere in a long drive the glitch rate must fire and serve
        // the previous generation, flagged stale.
        let mut saw_stale = false;
        for k in 0..400u64 {
            let t = SimTime::from_millis(1_000 + k * 25);
            if let Ok(poll) = b.read(t) {
                for p in &poll.points {
                    if p.stale {
                        saw_stale = true;
                    }
                }
            }
        }
        assert!(saw_stale, "no stale buffer served at a 20% uniform rate");
        assert!(b.gate_stats().is_some());
    }
}
