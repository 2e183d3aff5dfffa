//! The coprocessor card's ground-truth power model.
//!
//! "The Intel Xeon Phi is a coprocessor which has 61 cores with each core
//! having 4 hardware threads per core yielding a total of 244 threads with
//! a peak performance of 1.2 teraFLOPS at double precision." (§II-D)
//!
//! Power calibration targets Figure 7 (a no-op card sits near 113 W) and
//! Figure 8 (128 computing cards sum to ≈25 kW, i.e. ≈190 W per card at
//! full load).

use hpc_workloads::{Channel, WorkloadProfile};
use powermodel::{ComponentSpec, DemandTrace, DevicePower, DeviceSpec, ThermalSpec, ThermalTrace};
use simkit::{SimDuration, SimTime};

/// Static card description.
#[derive(Clone, Copy, Debug)]
pub struct PhiSpec {
    /// Core count (61; one is reserved for the card OS).
    pub cores: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Peak double-precision teraFLOPS.
    pub peak_tflops: f64,
    /// GDDR5 capacity, MiB.
    pub memory_mib: u64,
}

impl Default for PhiSpec {
    fn default() -> Self {
        PhiSpec {
            cores: 61,
            threads_per_core: 4,
            peak_tflops: 1.2,
            memory_mib: 8 * 1_024,
        }
    }
}

impl PhiSpec {
    /// Total hardware threads (244).
    pub fn total_threads(&self) -> u32 {
        self.cores * self.threads_per_core
    }
}

/// Component indices inside the card's [`DevicePower`] (in order: cores,
/// GDDR, uncore+PCIe, management).
const CORES: usize = 0;
const UNCORE: usize = 2;

/// A card bound to a workload.
#[derive(Clone, Debug)]
pub struct PhiCard {
    spec: PhiSpec,
    power: DevicePower,
    thermal: ThermalTrace,
}

impl PhiCard {
    /// Build a card running `profile`. `mgmt_demand` is the demand induced
    /// on the management component by host-side in-band collection (zero
    /// when the host uses the daemon or out-of-band paths); see
    /// [`crate::sysmgmt`].
    pub fn new(
        spec: PhiSpec,
        profile: &WorkloadProfile,
        mgmt_demand: DemandTrace,
        horizon: SimTime,
    ) -> Self {
        let components = vec![
            ComponentSpec {
                name: "cores",
                idle_w: 55.0,
                dynamic_w: 70.0,
                ramp_tau: SimDuration::from_millis(800),
            },
            ComponentSpec {
                name: "gddr",
                idle_w: 30.0,
                dynamic_w: 35.0,
                ramp_tau: SimDuration::from_millis(800),
            },
            ComponentSpec {
                name: "uncore+pcie",
                idle_w: 20.0,
                dynamic_w: 10.0,
                ramp_tau: SimDuration::from_millis(400),
            },
            ComponentSpec {
                name: "mgmt",
                idle_w: 0.0,
                dynamic_w: 40.0,
                ramp_tau: SimDuration::from_millis(200),
            },
        ];
        let demands = vec![
            profile.demand(Channel::Accelerator),
            profile.demand(Channel::AcceleratorMemory),
            profile.demand(Channel::Pcie),
            mgmt_demand,
        ];
        let power = DevicePower::new(
            DeviceSpec {
                name: "xeon-phi".into(),
                components,
            },
            &demands,
        );
        let thermal = {
            let p = power.clone();
            ThermalTrace::simulate(
                ThermalSpec {
                    ambient_c: 30.0,
                    r_c_per_w: 0.22,
                    tau: SimDuration::from_secs(35),
                    step: SimDuration::from_millis(100),
                },
                horizon,
                move |t| p.total_power(t),
            )
        };
        PhiCard {
            spec,
            power,
            thermal,
        }
    }

    /// The card description.
    pub fn spec(&self) -> &PhiSpec {
        &self.spec
    }

    /// True total card power at `t`, watts.
    pub fn total_power(&self, t: SimTime) -> f64 {
        self.power.total_power(t)
    }

    /// True cumulative card energy since `t = 0`, joules (the quantity the
    /// SMC's internal RAPL-style counter integrates).
    pub fn total_energy(&self, t: SimTime) -> f64 {
        self.power.total_energy(SimTime::ZERO, t)
    }

    /// Power of the compute cores alone.
    pub fn cores_power(&self, t: SimTime) -> f64 {
        self.power.component_power(CORES, t)
    }

    /// Uncore/PCIe power alone.
    pub fn uncore_power(&self, t: SimTime) -> f64 {
        self.power.component_power(UNCORE, t)
    }

    /// Die temperature at `t`, °C.
    pub fn die_temp(&self, t: SimTime) -> f64 {
        self.thermal.temp_at(t)
    }

    /// GDDR temperature (runs a few degrees cooler than the die).
    pub fn gddr_temp(&self, t: SimTime) -> f64 {
        30.0 + (self.die_temp(t) - 30.0) * 0.8
    }

    /// Intake (fan-in) air temperature, °C.
    pub fn intake_temp(&self, t: SimTime) -> f64 {
        let _ = t;
        30.0
    }

    /// Exhaust (fan-out) air temperature, °C: intake plus the air's share of
    /// the dissipated heat.
    pub fn exhaust_temp(&self, t: SimTime) -> f64 {
        self.intake_temp(t) + self.total_power(t) * 0.09
    }

    /// Fan speed, RPM (thermally controlled).
    pub fn fan_rpm(&self, t: SimTime) -> u32 {
        let temp = self.die_temp(t);
        let rpm = 1_500.0 + (temp - 40.0).max(0.0) / 50.0 * 3_300.0;
        rpm.clamp(1_500.0, 4_800.0).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{GaussianElimination, Noop};

    /// The management/collection component: in-band queries execute here
    /// (the Figure 7 power offset).
    const MGMT: usize = 3;

    fn card_for(profile: &WorkloadProfile) -> PhiCard {
        PhiCard::new(
            PhiSpec::default(),
            profile,
            DemandTrace::zero(),
            SimTime::from_secs(300),
        )
    }

    #[test]
    fn spec_matches_paper() {
        let s = PhiSpec::default();
        assert_eq!(s.cores, 61);
        assert_eq!(s.total_threads(), 244);
        assert!((s.peak_tflops - 1.2).abs() < 1e-9);
    }

    #[test]
    fn idle_card_near_105w() {
        let idle = WorkloadProfile::new("idle", SimDuration::ZERO);
        let c = card_for(&idle);
        let p = c.total_power(SimTime::from_secs(10));
        assert!((100.0..110.0).contains(&p), "idle {p}");
    }

    #[test]
    fn noop_card_near_113w_matching_figure7_axis() {
        let c = card_for(&Noop::figure7().profile());
        let p = c.total_power(SimTime::from_secs(60));
        assert!((110.0..117.0).contains(&p), "noop {p}");
    }

    #[test]
    fn computing_card_near_190w_for_figure8_sum() {
        let g = GaussianElimination {
            virtual_runtime: SimDuration::from_secs(250),
            ..GaussianElimination::figure3()
        };
        let c = card_for(&g.profile_offloaded(0.4));
        let p = c.total_power(SimTime::from_secs(200));
        assert!((170.0..205.0).contains(&p), "compute {p}");
    }

    #[test]
    fn mgmt_component_raises_power() {
        let profile = Noop::figure7().profile();
        let baseline = card_for(&profile);
        let with_mgmt = PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::constant(0.05),
            SimTime::from_secs(300),
        );
        let t = SimTime::from_secs(60);
        let delta = with_mgmt.total_power(t) - baseline.total_power(t);
        assert!((1.0..4.0).contains(&delta), "mgmt delta {delta} W");
        assert!(with_mgmt.power.component_power(MGMT, t) > 0.0);
        assert_eq!(baseline.power.component_power(MGMT, t), 0.0);
    }

    #[test]
    fn temps_and_fan_respond_to_load() {
        let g = GaussianElimination {
            virtual_runtime: SimDuration::from_secs(250),
            ..GaussianElimination::figure3()
        };
        let c = card_for(&g.profile_offloaded(0.4));
        let early = c.die_temp(SimTime::from_secs(5));
        let late = c.die_temp(SimTime::from_secs(240));
        assert!(late > early + 5.0, "die {early} -> {late}");
        assert!(c.gddr_temp(SimTime::from_secs(240)) < late);
        assert!(c.exhaust_temp(SimTime::from_secs(240)) > c.intake_temp(SimTime::from_secs(240)));
        assert!(c.fan_rpm(SimTime::from_secs(240)) > c.fan_rpm(SimTime::from_secs(5)));
    }

    #[test]
    fn energy_consistent_with_power() {
        let c = card_for(&Noop::figure7().profile());
        let e1 = c.total_energy(SimTime::from_secs(10));
        let e2 = c.total_energy(SimTime::from_secs(11));
        let p = c.total_power(SimTime::from_millis(10_500));
        assert!(
            ((e2 - e1) - p).abs() < 1.0,
            "1s energy {} vs power {}",
            e2 - e1,
            p
        );
    }
}
