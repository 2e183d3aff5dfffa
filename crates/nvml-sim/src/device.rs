//! The NVML lifecycle and device handles.
//!
//! Mirrors the C API's structure: an explicit init/shutdown lifecycle
//! ([`Nvml`]), index-based device enumeration, and typed error codes —
//! including `NotSupported` from `nvmlDeviceGetPowerUsage()` on pre-Kepler
//! boards ("the only NVIDIA GPUs which support power data collection are
//! those based on the Kepler architecture", §II-C).

use hpc_workloads::{Channel, WorkloadProfile};
use powermodel::{DevicePower, DeviceSpec, ScalarSensor, SensorSpec, ThermalTrace};
use simkit::{NoiseStream, SimDuration, SimTime};
use std::fmt;
use std::sync::{PoisonError, RwLock};

use crate::clocks::{ClockType, PState};
use crate::memory::MemoryInfo;
use crate::profile::GpuSpec;

/// NVML-style error codes.
#[derive(Clone, Debug, PartialEq)]
pub enum NvmlError {
    /// Device index beyond `device_count`.
    InvalidIndex(usize),
    /// The operation is not supported on this board (pre-Kepler power).
    NotSupported,
    /// Argument outside the legal range (e.g. power limit).
    InvalidArgument(String),
}

impl fmt::Display for NvmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmlError::InvalidIndex(i) => write!(f, "invalid device index {i}"),
            NvmlError::NotSupported => write!(f, "operation not supported on this device"),
            NvmlError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
        }
    }
}

impl std::error::Error for NvmlError {}

/// Configuration of one simulated board.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// The board model.
    pub spec: GpuSpec,
    /// The workload bound to the board.
    pub workload: WorkloadProfile,
    /// Horizon for the precomputed thermal trajectory.
    pub horizon: SimTime,
}

/// One GPU device handle.
pub struct Device {
    spec: GpuSpec,
    power: DevicePower,
    thermal: ThermalTrace,
    power_sensor: ScalarSensor,
    accel_demand: powermodel::DemandTrace,
    accelmem_demand: powermodel::DemandTrace,
    power_limit_watts: RwLock<f64>,
}

impl Device {
    fn new(config: &DeviceConfig, noise: NoiseStream) -> Self {
        let spec = config.spec;
        let accel_demand = config.workload.demand(Channel::Accelerator);
        let accelmem_demand = config.workload.demand(Channel::AcceleratorMemory);
        let power = DevicePower::new(
            DeviceSpec {
                name: spec.name.into(),
                components: spec.components(),
            },
            &[accel_demand.clone(), accelmem_demand.clone()],
        );
        let thermal = {
            let p = power.clone();
            ThermalTrace::simulate(spec.thermal(), config.horizon, move |t| p.total_power(t))
        };
        // ±5 W reported accuracy ≈ a 2.5 W sigma; 60 ms refresh; the API
        // returns integer milliwatts.
        let power_sensor = ScalarSensor::new(
            SensorSpec::ideal(SimDuration::from_millis(60))
                .with_noise(2.5)
                .with_quantum(0.001),
            noise.child("power"),
        );
        Device {
            spec,
            power,
            thermal,
            power_sensor,
            accel_demand,
            accelmem_demand,
            power_limit_watts: RwLock::new(spec.power_limit_range.2),
        }
    }

    /// The board's static description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// `nvmlDeviceGetPowerUsage`: board power in **milliwatts**.
    ///
    /// "The power consumption reported is for the entire board including
    /// memory" — there is deliberately no per-rail variant to call.
    pub fn power_usage(&self, t: SimTime) -> Result<u32, NvmlError> {
        if !self.spec.is_kepler {
            return Err(NvmlError::NotSupported);
        }
        let power = &self.power;
        let limit = *self
            .power_limit_watts
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let watts = self
            .power_sensor
            .observe(t, |at| power.total_power(at).min(limit))
            .max(0.0);
        Ok((watts * 1_000.0).round() as u32)
    }

    /// `nvmlDeviceGetTemperature(NVML_TEMPERATURE_GPU)`: die temperature, °C.
    pub fn temperature(&self, t: SimTime) -> Result<u32, NvmlError> {
        Ok(self.thermal.temp_at(t).round().max(0.0) as u32)
    }

    /// `nvmlDeviceGetMemoryInfo`: total/used/free board memory.
    pub fn memory_info(&self, t: SimTime) -> Result<MemoryInfo, NvmlError> {
        let total = self.spec.memory_mib * 1_024 * 1_024;
        let reserved = 200 * 1_024 * 1_024; // driver + context
        let level = self.accelmem_demand.level_at(t);
        let used = reserved + ((total - reserved) as f64 * level * 0.7) as u64;
        Ok(MemoryInfo {
            total_bytes: total,
            used_bytes: used.min(total),
            free_bytes: total - used.min(total),
        })
    }

    /// Current performance state.
    pub fn performance_state(&self, t: SimTime) -> Result<PState, NvmlError> {
        let active =
            self.accel_demand.level_at(t) > 0.05 || self.accelmem_demand.level_at(t) > 0.05;
        Ok(if active { PState::P0 } else { PState::P8 })
    }

    /// `nvmlDeviceGetClockInfo`: current clock of the given domain, MHz.
    pub fn clock_info(&self, clock: ClockType, t: SimTime) -> Result<u32, NvmlError> {
        let state = self.performance_state(t)?;
        Ok(match (clock, state) {
            (ClockType::Sm, PState::P0) | (ClockType::Graphics, PState::P0) => {
                self.spec.sm_clock_p0_mhz
            }
            (ClockType::Sm, PState::P8) | (ClockType::Graphics, PState::P8) => {
                self.spec.sm_clock_p8_mhz
            }
            (ClockType::Memory, _) => self.spec.mem_clock_mhz,
        })
    }

    /// Fan speed as a percentage (thermally controlled on active boards).
    pub fn fan_speed_percent(&self, t: SimTime) -> Result<u32, NvmlError> {
        let temp = self.thermal.temp_at(t);
        // 30% floor, ramping to 100% at 85 °C.
        let pct = 30.0 + (temp - 40.0).max(0.0) / 45.0 * 70.0;
        Ok(pct.clamp(0.0, 100.0).round() as u32)
    }

    /// `nvmlDeviceGetSamples(NVML_TOTAL_POWER_SAMPLES)`: the driver's ring
    /// buffer of recent power samples — one per 60 ms refresh — newer than
    /// `last_seen`, observed at time `t`. The ring holds
    /// [`Device::SAMPLE_BUFFER_LEN`] entries, so a caller that polls less
    /// often than `LEN × 60 ms` misses samples (the API NVML provides so
    /// tools need not poll at the refresh rate themselves).
    pub fn power_samples(
        &self,
        last_seen: SimTime,
        t: SimTime,
    ) -> Result<Vec<(SimTime, u32)>, NvmlError> {
        if !self.spec.is_kepler {
            return Err(NvmlError::NotSupported);
        }
        let period = SimDuration::from_millis(60);
        let newest_slot = t.grid_index(SimTime::ZERO, period);
        let oldest_kept = newest_slot.saturating_sub(Self::SAMPLE_BUFFER_LEN as u64 - 1);
        let first_wanted = if last_seen >= SimTime::ZERO + period {
            last_seen.grid_index(SimTime::ZERO, period) + 1
        } else {
            0
        };
        let mut out = Vec::new();
        for slot in first_wanted.max(oldest_kept)..=newest_slot {
            let slot_t = SimTime::ZERO + period.saturating_mul(slot);
            let mw = self.power_usage(slot_t)?;
            out.push((slot_t, mw));
        }
        Ok(out)
    }

    /// Ring-buffer depth of [`Device::power_samples`].
    pub const SAMPLE_BUFFER_LEN: usize = 100;

    /// `nvmlDeviceGetPowerManagementLimit`: current limit, milliwatts.
    pub fn power_management_limit(&self) -> Result<u32, NvmlError> {
        let limit = *self
            .power_limit_watts
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Ok((limit * 1_000.0).round() as u32)
    }

    /// `nvmlDeviceSetPowerManagementLimit`: set the limit, milliwatts.
    /// Clamped check against the board's constraint range.
    pub fn set_power_management_limit(&self, limit_mw: u32) -> Result<(), NvmlError> {
        let (min_w, max_w, _) = self.spec.power_limit_range;
        let w = f64::from(limit_mw) / 1_000.0;
        if !(min_w..=max_w).contains(&w) {
            return Err(NvmlError::InvalidArgument(format!(
                "limit {w} W outside [{min_w}, {max_w}] W"
            )));
        }
        *self
            .power_limit_watts
            .write()
            .unwrap_or_else(PoisonError::into_inner) = w;
        Ok(())
    }

    /// True board power (the oracle; not part of the NVML surface — used by
    /// tests and the accuracy ablation).
    pub fn true_power(&self, t: SimTime) -> f64 {
        self.power.total_power(t)
    }

    /// Exact true board energy over `[from, to]`, joules (closed-form
    /// oracle, not part of the NVML surface).
    pub fn true_energy(&self, from: SimTime, to: SimTime) -> f64 {
        self.power.total_energy(from, to)
    }

    /// The instant whose truth a `power_usage` read at `t` reflects: the
    /// start of the current 60 ms driver refresh slot (the sensor grid is
    /// unjittered, so this is a pure grid floor).
    pub fn power_sample_instant(&self, t: SimTime) -> SimTime {
        self.power_sensor.generation_time(t)
    }

    /// The `power_usage` pipeline at `t` with each stage separated
    /// ([`powermodel::Observation`]): the refresh-slot instant, the
    /// limit-clamped truth there, the value after the ±W accuracy noise,
    /// and after the milliwatt rounding the API reports. The final stage
    /// matches [`Device::power_usage`] exactly (before its non-negative
    /// clamp). Oracle surface for the accuracy harness.
    pub fn power_usage_parts(&self, t: SimTime) -> Result<powermodel::Observation, NvmlError> {
        if !self.spec.is_kepler {
            return Err(NvmlError::NotSupported);
        }
        let power = &self.power;
        let limit = *self
            .power_limit_watts
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(self
            .power_sensor
            .observe_parts(t, |at| power.total_power(at).min(limit)))
    }
}

/// The NVML library handle.
pub struct Nvml {
    devices: Vec<Device>,
}

impl Nvml {
    /// `nvmlInit`: build the library state over the configured boards.
    pub fn init(configs: &[DeviceConfig], seed: u64) -> Self {
        let root = NoiseStream::new(seed);
        let devices = configs
            .iter()
            .enumerate()
            .map(|(i, c)| Device::new(c, root.child(&format!("gpu{i}"))))
            .collect();
        Nvml { devices }
    }

    /// `nvmlDeviceGetCount`.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// `nvmlDeviceGetHandleByIndex`.
    pub fn device_by_index(&self, index: usize) -> Result<&Device, NvmlError> {
        self.devices
            .get(index)
            .ok_or(NvmlError::InvalidIndex(index))
    }

    /// `nvmlShutdown`: release the library (consumes the handle; further
    /// queries are a compile error, which is stricter than the C API's
    /// `NVML_ERROR_UNINITIALIZED`).
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{Noop, VectorAdd};

    fn nvml_with(workload: WorkloadProfile, spec: GpuSpec) -> Nvml {
        Nvml::init(
            &[DeviceConfig {
                spec,
                workload,
                horizon: SimTime::from_secs(150),
            }],
            42,
        )
    }

    #[test]
    fn enumeration_and_bad_index() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::k20());
        assert_eq!(nvml.device_count(), 1);
        assert!(nvml.device_by_index(0).is_ok());
        assert_eq!(
            nvml.device_by_index(3).err(),
            Some(NvmlError::InvalidIndex(3))
        );
    }

    #[test]
    fn pre_kepler_power_not_supported() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::m2090());
        let d = nvml.device_by_index(0).unwrap();
        assert_eq!(
            d.power_usage(SimTime::from_secs(1)).err(),
            Some(NvmlError::NotSupported)
        );
        // Temperature still works on Fermi.
        assert!(d.temperature(SimTime::from_secs(1)).is_ok());
    }

    #[test]
    fn noop_power_ramps_from_44_to_55() {
        // Capture starts before the workload (as the paper's did), so the
        // ramp from board idle is visible.
        let profile = Noop::figure4()
            .profile()
            .with_lead_in(SimDuration::from_secs(1));
        let nvml = nvml_with(profile, GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        let idle = f64::from(d.power_usage(SimTime::from_millis(500)).unwrap()) / 1e3;
        let early = f64::from(d.power_usage(SimTime::from_millis(1_200)).unwrap()) / 1e3;
        let settled = f64::from(d.power_usage(SimTime::from_secs(11)).unwrap()) / 1e3;
        assert!((38.0..50.0).contains(&idle), "idle {idle}");
        assert!(
            early < settled - 3.0,
            "no ramp: early {early}, settled {settled}"
        );
        assert!((50.0..60.0).contains(&settled), "settled {settled}");
    }

    #[test]
    fn power_usage_parts_final_stage_is_the_reported_value() {
        let nvml = nvml_with(VectorAdd::figure5().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        for ms in [500u64, 5_000, 12_345, 60_000] {
            let t = SimTime::from_millis(ms);
            let parts = d.power_usage_parts(t).unwrap();
            let reported = (parts.quantized.max(0.0) * 1_000.0).round() as u32;
            assert_eq!(reported, d.power_usage(t).unwrap(), "t = {t}");
            assert_eq!(parts.generation, d.power_sample_instant(t));
            assert!(parts.generation <= t);
            assert!(t - parts.generation < SimDuration::from_millis(60));
            // The noise-free stage is the limit-clamped truth at the slot.
            let limit = f64::from(d.power_management_limit().unwrap()) / 1e3;
            let truth = d.true_power(parts.generation);
            assert!((parts.ideal - truth.min(limit)).abs() < 1e-9);
        }
    }

    #[test]
    fn vecadd_reaches_compute_plateau_and_heats_up() {
        let nvml = nvml_with(VectorAdd::figure5().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        let datagen = f64::from(d.power_usage(SimTime::from_secs(5)).unwrap()) / 1e3;
        let compute = f64::from(d.power_usage(SimTime::from_secs(60)).unwrap()) / 1e3;
        assert!(datagen < 65.0, "datagen phase {datagen}");
        assert!((115.0..160.0).contains(&compute), "compute {compute}");
        let t_start = d.temperature(SimTime::from_secs(1)).unwrap();
        let t_end = d.temperature(SimTime::from_secs(95)).unwrap();
        assert!(
            t_end >= t_start + 12,
            "temperature rise too small: {t_start} -> {t_end}"
        );
        assert!((38..=48).contains(&t_start), "start {t_start}");
        assert!((58..=72).contains(&t_end), "end {t_end}");
    }

    #[test]
    fn same_slot_rereads_are_stable() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        let t = SimTime::from_millis(5_030);
        assert_eq!(d.power_usage(t).unwrap(), d.power_usage(t).unwrap());
    }

    #[test]
    fn power_within_plus_minus_5w_of_truth() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        let mut worst: f64 = 0.0;
        for k in 0..150u64 {
            let t = SimTime::from_millis(2_000 + k * 60);
            let reported = f64::from(d.power_usage(t).unwrap()) / 1e3;
            // Compare against the truth of the observed generation.
            let err = (reported
                - d.true_power(t.grid_floor(SimTime::ZERO, SimDuration::from_millis(60))))
            .abs();
            worst = worst.max(err);
        }
        assert!(worst < 9.0, "error {worst} beyond spec");
        assert!(worst > 0.5, "suspiciously clean sensor");
    }

    #[test]
    fn memory_info_tracks_transfer() {
        let nvml = nvml_with(VectorAdd::figure5().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        let before = d.memory_info(SimTime::from_secs(5)).unwrap();
        let during = d.memory_info(SimTime::from_secs(60)).unwrap();
        assert!(during.used_bytes > before.used_bytes);
        assert_eq!(before.total_bytes, 5 * 1024 * 1024 * 1024);
        assert_eq!(during.total_bytes, during.used_bytes + during.free_bytes);
    }

    #[test]
    fn clocks_and_pstate_follow_load() {
        let nvml = nvml_with(VectorAdd::figure5().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        // Compute phase: P0 at 706 MHz.
        assert_eq!(
            d.performance_state(SimTime::from_secs(60)).unwrap(),
            PState::P0
        );
        assert_eq!(
            d.clock_info(ClockType::Sm, SimTime::from_secs(60)).unwrap(),
            706
        );
        // After the workload: P8 at 324 MHz.
        assert_eq!(
            d.performance_state(SimTime::from_secs(120)).unwrap(),
            PState::P8
        );
        assert_eq!(
            d.clock_info(ClockType::Sm, SimTime::from_secs(120))
                .unwrap(),
            324
        );
        // Memory clock is constant.
        assert_eq!(
            d.clock_info(ClockType::Memory, SimTime::from_secs(60))
                .unwrap(),
            2_600
        );
    }

    #[test]
    fn samples_buffer_returns_per_refresh_history() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        // One second of history = ~16-17 samples at 60 ms.
        let samples = d
            .power_samples(SimTime::from_secs(1), SimTime::from_secs(2))
            .unwrap();
        assert!((15..=18).contains(&samples.len()), "{}", samples.len());
        // Timestamps strictly increasing on the 60 ms grid.
        for w in samples.windows(2) {
            assert_eq!((w[1].0 - w[0].0).as_millis(), 60);
        }
        // Consistent with point queries at the same instants.
        for &(at, mw) in &samples {
            assert_eq!(d.power_usage(at).unwrap(), mw);
        }
    }

    #[test]
    fn samples_buffer_is_bounded() {
        let nvml = nvml_with(Noop::figure7().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        // Asking for a minute of history only yields the ring's depth.
        let samples = d
            .power_samples(SimTime::ZERO, SimTime::from_secs(60))
            .unwrap();
        assert_eq!(samples.len(), Device::SAMPLE_BUFFER_LEN);
        // The newest sample is the current slot.
        let newest = samples.last().unwrap().0;
        assert_eq!(newest, SimTime::from_secs(60));
    }

    #[test]
    fn samples_not_supported_pre_kepler() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::m2090());
        let d = nvml.device_by_index(0).unwrap();
        assert_eq!(
            d.power_samples(SimTime::ZERO, SimTime::from_secs(1)).err(),
            Some(NvmlError::NotSupported)
        );
    }

    #[test]
    fn power_limit_get_set_and_range_check() {
        let nvml = nvml_with(Noop::figure4().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        assert_eq!(d.power_management_limit().unwrap(), 225_000);
        d.set_power_management_limit(160_000).unwrap();
        assert_eq!(d.power_management_limit().unwrap(), 160_000);
        assert!(d.set_power_management_limit(100_000).is_err());
        assert!(d.set_power_management_limit(300_000).is_err());
    }

    #[test]
    fn fan_speed_rises_with_temperature() {
        let nvml = nvml_with(VectorAdd::figure5().profile(), GpuSpec::k20());
        let d = nvml.device_by_index(0).unwrap();
        let cold = d.fan_speed_percent(SimTime::from_secs(1)).unwrap();
        let hot = d.fan_speed_percent(SimTime::from_secs(95)).unwrap();
        assert!(hot > cold, "fan {cold}% -> {hot}%");
    }
}
