//! A MonEQ backend over the closed-loop GPU plant.
//!
//! The registry's [`moneq::backends::NvmlBackend`] reads a *replayed* device whose
//! power trace is fixed at construction — fine for passive observation,
//! useless for feedback, where the controller's own throttle decisions
//! change what the sensor reads next. [`LiveGpuBackend`] instead polls an
//! interior-mutable [`nvml_sim::LiveGpu`]: every poll advances the
//! thermal RC integrator to the poll instant and reports board power plus
//! the diode temperature (with NVML's ±0.2 °C read noise), exactly the
//! observation exp2's hysteresis controller feeds on.

use moneq::backend::{EnvBackend, Poll, ReadError};
use moneq::DataPoint;
use nvml_sim::LiveGpu;
use powermodel::{Metric, Platform, Support};
use simkit::{NoiseStream, SimDuration, SimTime};
use std::sync::Arc;

/// One live (feedback-capable) GPU served over the NVML poll interface.
pub struct LiveGpuBackend {
    gpu: Arc<LiveGpu>,
    noise: NoiseStream,
    temp_noise_sd: f64,
}

impl LiveGpuBackend {
    /// Wrap a shared plant. `seed` keys the sensor-noise stream; use a
    /// per-rank seed so ranks draw independently. `temp_noise_sd` is the
    /// diode read noise in °C (0.0 for a noiseless golden run).
    pub fn new(gpu: Arc<LiveGpu>, seed: u64, temp_noise_sd: f64) -> Self {
        LiveGpuBackend {
            gpu,
            noise: NoiseStream::new(seed).child("live-gpu-temp"),
            temp_noise_sd,
        }
    }
}

impl EnvBackend for LiveGpuBackend {
    fn name(&self) -> &'static str {
        "nvml-live"
    }

    fn platform(&self) -> Platform {
        nvml_sim::PLATFORM
    }

    fn min_interval(&self) -> SimDuration {
        // Same register-refresh floor as the passive NVML backend (§II-C).
        SimDuration::from_millis(60)
    }

    fn poll_cost(&self) -> SimDuration {
        // Two queries per poll: nvmlDeviceGetPowerUsage + GetTemperature.
        nvml_sim::NVML_QUERY_COST * 2
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        nvml_sim::capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        // `temperature_c` advances the plant's integrator to `t`; the
        // session only ever polls forward, so the monotone-query contract
        // holds (a retry at the same `t` is a zero-width advance).
        let temp = self.gpu.temperature_c(t) + self.temp_noise_sd * self.noise.normal(t.as_nanos());
        let mut p = DataPoint::power(t, "gpu0", "board", self.gpu.power_at(t));
        p.temp_c = Some(temp);
        Ok(Poll::complete(vec![p]))
    }

    fn read_cadence(&self) -> SimDuration {
        SimDuration::from_millis(60)
    }

    fn records_per_poll(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{Channel, WorkloadProfile};
    use nvml_sim::GpuSpec;
    use powermodel::DemandTrace;

    fn busy_gpu() -> Arc<LiveGpu> {
        let mut p = WorkloadProfile::new("busy", SimDuration::from_secs(60));
        p.set_demand(Channel::Accelerator, DemandTrace::constant(1.0));
        p.set_demand(Channel::AcceleratorMemory, DemandTrace::constant(0.8));
        Arc::new(LiveGpu::new(GpuSpec::k20(), &p, 32.0, 0.3))
    }

    #[test]
    fn poll_reports_power_and_temperature() {
        let mut b = LiveGpuBackend::new(busy_gpu(), 7, 0.0);
        let points = b.poll(SimTime::from_secs(10));
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.watts > 100.0, "busy K20 draws real power: {}", p.watts);
        assert!(p.temp_c.expect("diode present") > 32.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_instant() {
        let gpu = busy_gpu();
        let mut a = LiveGpuBackend::new(Arc::clone(&gpu), 7, 0.2);
        let mut b = LiveGpuBackend::new(gpu, 7, 0.2);
        let t = SimTime::from_secs(3);
        assert_eq!(a.poll(t)[0].temp_c, b.poll(t)[0].temp_c);
    }
}
