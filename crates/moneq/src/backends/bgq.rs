//! The Blue Gene/Q backend: EMON at node-card granularity.

use crate::backend::{EnvBackend, FaultGate, Poll, ReadError};
use crate::reading::DataPoint;
use bgq_sim::{BgqMachine, DomainReading, EmonApi, EMON_QUERY_COST};
use powermodel::{Metric, Platform, Support};
use simkit::fault::FaultPlan;
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// MonEQ's BG/Q backend: "read the individual voltage and current data
/// points for each of the 7 BG/Q domains" through EMON, for the node card
/// hosting this agent rank.
pub struct BgqBackend {
    machine: Arc<BgqMachine>,
    api: EmonApi,
    gate: FaultGate,
}

impl BgqBackend {
    /// Attach to the node card at `board_index` of `machine`.
    pub fn new(machine: Arc<BgqMachine>, board_index: usize) -> Self {
        BgqBackend {
            machine,
            api: EmonApi::open(board_index),
            gate: FaultGate::none(),
        }
    }

    /// Subject this backend to the run's fault plan under the BG/Q
    /// pathology profile ([`bgq_sim::fault_profile`]: late-committed
    /// generations, missing envdb rows). `label` names the device's fault
    /// stream; use a per-rank label so ranks fail independently.
    pub fn with_faults(mut self, plan: &FaultPlan, label: &str) -> Self {
        self.gate = FaultGate::from_plan(plan, label, bgq_sim::fault_profile());
        self
    }

    /// The node card this backend reads (the 32-node granularity).
    pub fn board_index(&self) -> usize {
        self.api.board_index()
    }

    /// The link personality an out-of-band deployment of this mechanism
    /// rides on. On a real BG/Q the environmental data flows over the
    /// service network into the environmental database — a management-
    /// class hop, not a node-local call.
    pub fn service_link() -> LinkSpec {
        LinkSpec::mgmt()
    }
}

impl EnvBackend for BgqBackend {
    fn name(&self) -> &'static str {
        "bgq-emon"
    }

    fn platform(&self) -> Platform {
        bgq_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        bgq_sim::emon::EMON_GENERATION_PERIOD
    }

    fn poll_cost(&self) -> SimDuration {
        EMON_QUERY_COST
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        bgq_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let grant = self.gate.admit(t)?;
        let mut points: Vec<DataPoint> = self
            .api
            .read_domains(&self.machine, t)
            .iter()
            .map(|r: &DomainReading| DataPoint {
                timestamp: t,
                device: "nodecard".into(),
                domain: r.domain.label().into(),
                watts: r.watts(),
                volts: Some(r.volts),
                amps: Some(r.amps),
                temp_c: None,
                stale: false,
            })
            .collect();
        if grant.glitch {
            for p in &mut points {
                p.stale = true;
            }
        }
        // Missing envdb rows: individual domain records silently lost.
        let (kept, missing) = self.gate.filter(t, points);
        Ok(Poll::with_missing(kept, missing))
    }

    fn read_cadence(&self) -> SimDuration {
        // EMON serves whole 560 ms generations; queries inside one
        // generation window observe identical domain readings.
        bgq_sim::emon::EMON_GENERATION_PERIOD
    }

    fn records_per_poll(&self) -> usize {
        7
    }

    fn gate_stats(&self) -> Option<crate::backend::GateStats> {
        self.gate.stats()
    }

    fn limitations(&self) -> Vec<crate::backend::StatedLimitation> {
        use crate::backend::StatedLimitation as L;
        vec![
            L::new(
                "granularity",
                "data is per node card (32 nodes); per-node attribution is \
                 impossible by design and cannot be overcome in software",
            ),
            L::new(
                "staleness",
                "EMON serves the oldest completed 560 ms generation; a query \
                 never sees the current generation",
            ),
            L::new(
                "consistency",
                "the seven domains are not sampled at the same instant; a \
                 phase change inside a generation lands in some domains only",
            ),
            L::new("cost", "each query costs ~1.10 ms (0.19% at 560 ms)"),
            L::new(
                "deployment",
                "in-band EMON queries run on the node card itself; the \
                 environmental database copy arrives out-of-band over the \
                 service network and lags by minutes",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_sim::BgqConfig;
    use hpc_workloads::Mmps;

    #[test]
    fn polls_seven_domains_with_v_and_a() {
        let mut machine = BgqMachine::new(BgqConfig::default(), 7);
        machine.assign_job(&[0], &Mmps::figure1().profile());
        let mut b = BgqBackend::new(Arc::new(machine), 0);
        let points = b.poll(SimTime::from_secs(100));
        assert_eq!(points.len(), 7);
        for p in &points {
            assert_eq!(p.device, "nodecard");
            assert!(p.volts.is_some() && p.amps.is_some());
            let implied = p.volts.unwrap() * p.amps.unwrap();
            assert!((implied - p.watts).abs() < 1e-9);
        }
        let total: f64 = points.iter().map(|p| p.watts).sum();
        assert!(
            (1_400.0..1_800.0).contains(&total),
            "MMPS card total {total}"
        );
    }

    #[test]
    fn costs_match_paper() {
        let machine = Arc::new(BgqMachine::new(BgqConfig::default(), 7));
        let b = BgqBackend::new(machine, 0);
        assert_eq!(b.poll_cost(), SimDuration::from_micros(1_100));
        assert_eq!(b.min_interval(), SimDuration::from_millis(560));
        // 0.19% overhead at the default interval (§II-A).
        let frac = b.poll_cost().as_secs_f64() / b.min_interval().as_secs_f64();
        assert!((frac - 0.00196).abs() < 2e-4);
    }
}
