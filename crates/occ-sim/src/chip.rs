//! The POWER9 chip's ground-truth power model.
//!
//! One OCC supervises one processor module: the cores, the nest (on-chip
//! fabric, caches, memory controllers), and the directly attached DDR4
//! behind it. Calibration targets the AC922-class parts the OCC evaluation
//! paper measured: a 22-core module idles near 120 W and peaks near 310 W
//! with the memory subsystem loaded.

use hpc_workloads::{Channel, WorkloadProfile};
use powermodel::{ComponentSpec, DevicePower, DeviceSpec, ThermalSpec, ThermalTrace};
use simkit::{SimDuration, SimTime};

/// Static chip description.
#[derive(Clone, Copy, Debug)]
pub struct P9Spec {
    /// Core count (22 on the Summit-class parts).
    pub cores: u32,
    /// SMT threads per core.
    pub smt: u32,
    /// Nominal core frequency, GHz.
    pub nominal_ghz: f64,
    /// Directly attached DDR4, GiB.
    pub memory_gib: u64,
}

impl Default for P9Spec {
    fn default() -> Self {
        P9Spec {
            cores: 22,
            smt: 4,
            nominal_ghz: 3.07,
            memory_gib: 256,
        }
    }
}

impl P9Spec {
    /// Total hardware threads (88).
    pub fn total_threads(&self) -> u32 {
        self.cores * self.smt
    }
}

/// Index of the core complex inside the chip's [`DevicePower`] (in order:
/// cores, nest, memory).
const CORES: usize = 0;

/// A POWER9 module bound to a workload.
#[derive(Clone, Debug)]
pub struct Power9Chip {
    spec: P9Spec,
    power: DevicePower,
    thermal: ThermalTrace,
}

impl Power9Chip {
    /// Build a chip running `profile`. The OCC itself runs on a dedicated
    /// on-chip microcontroller, so (unlike the Phi's in-band path) polling
    /// it induces no extra demand on the modelled components.
    pub fn new(spec: P9Spec, profile: &WorkloadProfile, horizon: SimTime) -> Self {
        let components = vec![
            ComponentSpec {
                name: "cores",
                idle_w: 65.0,
                dynamic_w: 105.0,
                ramp_tau: SimDuration::from_millis(300),
            },
            ComponentSpec {
                name: "nest",
                idle_w: 30.0,
                dynamic_w: 15.0,
                ramp_tau: SimDuration::from_millis(150),
            },
            ComponentSpec {
                name: "memory",
                idle_w: 25.0,
                dynamic_w: 35.0,
                ramp_tau: SimDuration::from_millis(500),
            },
        ];
        let demands = vec![
            profile.demand(Channel::Cpu),
            profile.demand(Channel::Cpu),
            profile.demand(Channel::Memory),
        ];
        let power = DevicePower::new(
            DeviceSpec {
                name: "power9".into(),
                components,
            },
            &demands,
        );
        let thermal = {
            let p = power.clone();
            ThermalTrace::simulate(
                ThermalSpec {
                    ambient_c: 28.0,
                    r_c_per_w: 0.18,
                    tau: SimDuration::from_secs(25),
                    step: SimDuration::from_millis(100),
                },
                horizon,
                move |t| p.total_power(t),
            )
        };
        Power9Chip {
            spec,
            power,
            thermal,
        }
    }

    /// The chip description.
    pub fn spec(&self) -> &P9Spec {
        &self.spec
    }

    /// True total module power at `t`, watts.
    pub fn total_power(&self, t: SimTime) -> f64 {
        self.power.total_power(t)
    }

    /// True cumulative module energy since `t = 0`, joules (the quantity
    /// the OCC's wrapping accumulators integrate).
    pub fn total_energy(&self, t: SimTime) -> f64 {
        self.power.total_energy(SimTime::ZERO, t)
    }

    /// Core-complex power alone.
    pub fn cores_power(&self, t: SimTime) -> f64 {
        self.power.component_power(CORES, t)
    }

    /// Die temperature at `t`, °C.
    pub fn die_temp(&self, t: SimTime) -> f64 {
        self.thermal.temp_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{GaussianElimination, Noop};

    fn chip_for(profile: &WorkloadProfile) -> Power9Chip {
        Power9Chip::new(P9Spec::default(), profile, SimTime::from_secs(300))
    }

    #[test]
    fn spec_defaults_match_summit_parts() {
        let s = P9Spec::default();
        assert_eq!(s.cores, 22);
        assert_eq!(s.total_threads(), 88);
    }

    #[test]
    fn idle_chip_near_120w() {
        let idle = WorkloadProfile::new("idle", SimDuration::ZERO);
        let c = chip_for(&idle);
        let p = c.total_power(SimTime::from_secs(10));
        assert!((115.0..125.0).contains(&p), "idle {p}");
    }

    #[test]
    fn loaded_chip_near_310w() {
        let g = GaussianElimination {
            virtual_runtime: SimDuration::from_secs(250),
            ..GaussianElimination::figure3()
        };
        let c = chip_for(&g.profile());
        let peak = (0..250)
            .map(|s| c.total_power(SimTime::from_secs(s)))
            .fold(0.0f64, f64::max);
        assert!((250.0..320.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn components_sum_to_total() {
        let c = chip_for(&Noop::figure4().profile());
        let t = SimTime::from_secs(30);
        let sum: f64 = (0..c.power.spec().components.len())
            .map(|i| c.power.component_power(i, t))
            .sum();
        assert!((sum - c.total_power(t)).abs() < 1e-9);
    }

    #[test]
    fn energy_consistent_with_power() {
        let c = chip_for(&Noop::figure4().profile());
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

    #[test]
    fn die_runs_hotter_under_load_than_idle() {
        let g = GaussianElimination {
            virtual_runtime: SimDuration::from_secs(250),
            ..GaussianElimination::figure3()
        };
        let loaded = chip_for(&g.profile());
        let idle = chip_for(&WorkloadProfile::new("idle", SimDuration::ZERO));
        let t = SimTime::from_secs(200);
        assert!(
            loaded.die_temp(t) > idle.die_temp(t) + 10.0,
            "loaded {} vs idle {}",
            loaded.die_temp(t),
            idle.die_temp(t)
        );
    }
}
