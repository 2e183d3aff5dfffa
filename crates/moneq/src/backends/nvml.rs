//! The NVML backend: board power + temperature per GPU.

use crate::backend::{EnvBackend, FaultGate, Poll, ReadError};
use crate::reading::DataPoint;
use nvml_sim::{Nvml, NVML_QUERY_COST};
use powermodel::{Metric, Platform, Support};
use simkit::fault::FaultPlan;
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::borrow::Cow;
use std::sync::Arc;

/// Device labels of the first boards, lent to every record so a poll
/// formats no label. A node with more boards than this names the rest on
/// each read.
const GPU_LABELS: [&str; 8] = [
    "gpu0", "gpu1", "gpu2", "gpu3", "gpu4", "gpu5", "gpu6", "gpu7",
];

/// The device label of board `i`.
fn gpu_label(i: usize) -> Cow<'static, str> {
    match GPU_LABELS.get(i) {
        Some(&label) => Cow::Borrowed(label),
        None => Cow::Owned(format!("gpu{i}")),
    }
}

/// MonEQ's NVML backend. "If a system has both a NVIDIA GPU as well as an
/// Intel Xeon Phi, profiling is possible for both of these devices at the
/// same time" — the session just attaches both backends; within this one,
/// every enumerated GPU is polled and reported individually.
pub struct NvmlBackend {
    nvml: Arc<Nvml>,
    /// Boards that returned `NotSupported` for power (pre-Kepler), skipped
    /// but counted.
    pub unsupported_devices: usize,
    gate: FaultGate,
}

impl NvmlBackend {
    /// Attach to an initialized NVML library handle (point reads per poll).
    pub fn new(nvml: Arc<Nvml>) -> Self {
        NvmlBackend {
            nvml,
            unsupported_devices: 0,
            gate: FaultGate::none(),
        }
    }

    /// Subject this backend to the run's fault plan under the NVML
    /// pathology profile ([`nvml_sim::fault_profile`]: second-scale
    /// sampling blackouts, transient query failures). The blackout covers
    /// the whole driver, so every enumerated GPU goes dark together.
    /// `label` names the device's fault stream; use a per-rank label so
    /// ranks fail independently.
    pub fn with_faults(mut self, plan: &FaultPlan, label: &str) -> Self {
        self.gate = FaultGate::from_plan(plan, label, nvml_sim::fault_profile());
        self
    }

    /// The link personality an out-of-band deployment of this mechanism
    /// rides on. NVML is in-band (a library call crossing the node's own
    /// PCI bus), so remote service means a node-local daemon relaying
    /// over the cluster interconnect — the cuda-over-ip arrangement.
    pub fn service_link() -> LinkSpec {
        LinkSpec::lan()
    }
}

impl EnvBackend for NvmlBackend {
    fn name(&self) -> &'static str {
        "nvml"
    }

    fn platform(&self) -> Platform {
        nvml_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        // The power register refreshes about every 60 ms (§II-C).
        SimDuration::from_millis(60)
    }

    fn poll_cost(&self) -> SimDuration {
        NVML_QUERY_COST * self.nvml.device_count() as u64
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        nvml_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let grant = self.gate.admit(t)?;
        let mut out = Vec::with_capacity(self.nvml.device_count());
        self.unsupported_devices = 0;
        for i in 0..self.nvml.device_count() {
            let dev = self
                .nvml
                .device_by_index(i)
                .map_err(|e| ReadError::Unavailable(e.to_string()))?;
            match dev.power_usage(t) {
                Ok(mw) => {
                    let temp = dev.temperature(t).ok().map(f64::from);
                    out.push(DataPoint {
                        timestamp: t,
                        device: gpu_label(i),
                        domain: "board".into(),
                        watts: f64::from(mw) / 1_000.0,
                        volts: None,
                        amps: None,
                        temp_c: temp,
                        stale: false,
                    });
                }
                Err(_) => self.unsupported_devices += 1,
            }
        }
        if grant.glitch {
            for p in &mut out {
                p.stale = true;
            }
        }
        let (kept, missing) = self.gate.filter(t, out);
        Ok(Poll::with_missing(kept, missing))
    }

    fn read_cadence(&self) -> SimDuration {
        // The board power register refreshes ~every 60 ms (§II-C); point
        // reads inside one refresh window observe the same value.
        SimDuration::from_millis(60)
    }

    fn records_per_poll(&self) -> usize {
        self.nvml.device_count()
    }

    fn gate_stats(&self) -> Option<crate::backend::GateStats> {
        self.gate.stats()
    }

    fn limitations(&self) -> Vec<crate::backend::StatedLimitation> {
        use crate::backend::StatedLimitation as L;
        vec![
            L::new(
                "scope",
                "power is reported for the entire board including memory; \
                 there is no per-rail breakdown to request",
            ),
            L::new(
                "accuracy",
                "reported accuracy is +/-5 W, refreshed ~every 60 ms",
            ),
            L::new(
                "support",
                "only Kepler boards (K20/K40) expose power; older boards \
                 return NotSupported",
            ),
            L::new(
                "cost",
                "every query crosses the PCI bus: ~1.3 ms per call (1.3% at \
                 a 100 ms interval)",
            ),
            L::new(
                "deployment",
                "in-band via the host driver; off-node access (nvml over ip) \
                 adds a network round-trip per query on top of the PCI cost",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{Noop, VectorAdd};
    use nvml_sim::{DeviceConfig, GpuSpec};

    fn nvml_two_boards() -> Arc<Nvml> {
        Arc::new(Nvml::init(
            &[
                DeviceConfig {
                    spec: GpuSpec::k20(),
                    workload: VectorAdd::figure5().profile(),
                    horizon: SimTime::from_secs(150),
                },
                DeviceConfig {
                    spec: GpuSpec::m2090(),
                    workload: Noop::figure4().profile(),
                    horizon: SimTime::from_secs(150),
                },
            ],
            9,
        ))
    }

    #[test]
    fn polls_each_board_and_skips_pre_kepler() {
        let mut b = NvmlBackend::new(nvml_two_boards());
        let points = b.poll(SimTime::from_secs(60));
        assert_eq!(points.len(), 1, "only the Kepler board reports power");
        assert_eq!(b.unsupported_devices, 1);
        assert_eq!(points[0].device, "gpu0");
        assert!(points[0].temp_c.is_some());
        assert!((100.0..160.0).contains(&points[0].watts));
    }

    #[test]
    fn board_labels_are_lent_from_the_table() {
        assert!(matches!(gpu_label(0), Cow::Borrowed("gpu0")));
        assert!(matches!(gpu_label(7), Cow::Borrowed("gpu7")));
        assert_eq!(gpu_label(8), "gpu8");
        assert!(matches!(gpu_label(8), Cow::Owned(_)));
    }

    #[test]
    fn poll_cost_scales_with_device_count() {
        let b = NvmlBackend::new(nvml_two_boards());
        assert_eq!(b.poll_cost(), SimDuration::from_micros(2_600));
    }
}
