//! The closed-loop thermally-throttled GPU plant.
//!
//! [`Device`](crate::Device) precomputes its thermal trajectory at
//! construction — correct for a passive observer, useless for a control
//! loop where an actuator *changes* the power (and therefore the future
//! temperature) mid-run. [`LiveGpu`] integrates the first-order RC thermal
//! model *incrementally* instead: per power-constant segment the exact
//! closed form
//!
//! ```text
//! T(t + dt) = T_ss + (T(t) − T_ss) · e^(−dt/τ),   T_ss = ambient + R·P
//! ```
//!
//! is applied, so the trajectory is bit-reproducible regardless of how the
//! run is chunked, and a throttle engaged at time `t` bends the curve from
//! `t` forward without touching the past — the shape exp2 (DESIGN.md §16)
//! closes its hysteresis loop around.

use hpc_workloads::{Channel, WorkloadProfile};
use powermodel::{DemandTrace, ThermalSpec};
use simkit::SimTime;
use std::sync::{PoisonError, RwLock};

use crate::profile::GpuSpec;

/// Mutable integrator state behind the lock.
#[derive(Debug)]
struct LiveState {
    engaged: bool,
    /// Every throttle transition, in actuation order.
    switches: Vec<(SimTime, bool)>,
    t_last: SimTime,
    temp_last: f64,
}

/// A K20-flavored GPU whose compute demand is scaled down while a thermal
/// throttle is engaged, with an incremental exact RC thermal integrator.
///
/// Power is zero-lag piecewise-constant — `P = idle + core·u·s + mem·m`
/// with `s` the throttle scale while engaged — so both the power history
/// and the temperature trajectory are exact, not stepped approximations.
#[derive(Debug)]
pub struct LiveGpu {
    spec: GpuSpec,
    thermal: ThermalSpec,
    throttle_scale: f64,
    accel: DemandTrace,
    accelmem: DemandTrace,
    state: RwLock<LiveState>,
}

impl LiveGpu {
    /// A plant running `profile` in a room at `ambient_c`, unthrottled.
    ///
    /// `throttle_scale` is the fraction of wanted compute demand granted
    /// while the throttle is engaged (clocks-down, not a hard stop).
    pub fn new(
        spec: GpuSpec,
        profile: &WorkloadProfile,
        ambient_c: f64,
        throttle_scale: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&throttle_scale),
            "throttle scale {throttle_scale} outside [0, 1]"
        );
        let thermal = ThermalSpec {
            ambient_c,
            ..spec.thermal()
        };
        let accel = profile.demand(Channel::Accelerator);
        let accelmem = profile.demand(Channel::AcceleratorMemory);
        let idle_power = Self::power_of(
            &spec,
            accel.level_at(SimTime::ZERO),
            accelmem.level_at(SimTime::ZERO),
            1.0,
        );
        LiveGpu {
            state: RwLock::new(LiveState {
                engaged: false,
                switches: Vec::new(),
                t_last: SimTime::ZERO,
                temp_last: thermal.steady_state(idle_power),
            }),
            spec,
            thermal,
            throttle_scale,
            accel,
            accelmem,
        }
    }

    /// Board power for demand levels `u` (compute) and `m` (memory) with
    /// the compute demand scaled by `s`.
    fn power_of(spec: &GpuSpec, u: f64, m: f64, s: f64) -> f64 {
        spec.idle_watts + spec.core_dynamic_watts * u * s + spec.mem_dynamic_watts * m
    }

    /// The ambient temperature this plant sits in, °C.
    pub fn ambient_c(&self) -> f64 {
        self.thermal.ambient_c
    }

    /// True board power at `t` under the throttle decisions applied so far.
    pub fn power_at(&self, t: SimTime) -> f64 {
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        // Last transition at or before t decides the scale.
        let engaged = st
            .switches
            .iter()
            .rev()
            .find(|&&(at, _)| at <= t)
            .map(|&(_, e)| e)
            .unwrap_or(false);
        let s = if engaged { self.throttle_scale } else { 1.0 };
        Self::power_of(
            &self.spec,
            self.accel.level_at(t),
            self.accelmem.level_at(t),
            s,
        )
    }

    /// Advance the thermal integrator to `t` (power is constant per
    /// segment, so each step is the exact RC closed form).
    fn advance_to(&self, st: &mut LiveState, t: SimTime) {
        assert!(
            t >= st.t_last,
            "thermal integrator driven backwards: {t} < {}",
            st.t_last
        );
        let mut cuts: Vec<SimTime> = Vec::new();
        for &(bt, _) in self.accel.breakpoints() {
            if bt > st.t_last && bt < t {
                cuts.push(bt);
            }
        }
        for &(bt, _) in self.accelmem.breakpoints() {
            if bt > st.t_last && bt < t {
                cuts.push(bt);
            }
        }
        cuts.push(t);
        cuts.sort_unstable();
        cuts.dedup();
        let s = if st.engaged { self.throttle_scale } else { 1.0 };
        let tau = self.thermal.tau.as_secs_f64();
        for cut in cuts {
            let p = Self::power_of(
                &self.spec,
                self.accel.level_at(st.t_last),
                self.accelmem.level_at(st.t_last),
                s,
            );
            let t_ss = self.thermal.steady_state(p);
            let dt = cut.saturating_since(st.t_last).as_secs_f64();
            st.temp_last = t_ss + (st.temp_last - t_ss) * (-dt / tau).exp();
            st.t_last = cut;
        }
    }

    /// Die temperature at `t`, °C (advances the integrator; queries must
    /// be monotone in virtual time, as a polling session's are).
    pub fn temperature_c(&self, t: SimTime) -> f64 {
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        self.advance_to(&mut st, t);
        st.temp_last
    }

    /// Engage or release the throttle at `t`. The integrator advances to
    /// `t` under the old scale first, so the past never changes.
    pub fn set_throttle(&self, t: SimTime, engaged: bool) {
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        self.advance_to(&mut st, t);
        if st.engaged != engaged {
            st.engaged = engaged;
            st.switches.push((t, engaged));
        }
    }

    /// Whether the throttle is currently engaged.
    pub fn throttled(&self) -> bool {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .engaged
    }

    /// Every throttle transition applied so far, in actuation order.
    pub fn switch_history(&self) -> Vec<(SimTime, bool)> {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .switches
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn busy_profile() -> WorkloadProfile {
        let mut p = WorkloadProfile::new("busy", SimDuration::from_secs(600));
        p.set_demand(
            Channel::Accelerator,
            powermodel::PhaseBuilder::new()
                .idle(SimDuration::from_secs(5))
                .phase(SimDuration::from_secs(595), 1.0)
                .build_open(),
        );
        p.set_demand(
            Channel::AcceleratorMemory,
            powermodel::PhaseBuilder::new()
                .phase(SimDuration::from_secs(600), 0.8)
                .build_open(),
        );
        p
    }

    #[test]
    fn temperature_relaxes_toward_steady_state() {
        let g = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 30.0, 0.4);
        let p = g.power_at(SimTime::from_secs(10));
        let t_ss = 30.0 + 0.25 * p;
        let t0 = g.temperature_c(SimTime::ZERO);
        let t1 = g.temperature_c(SimTime::from_secs(60));
        let t2 = g.temperature_c(SimTime::from_secs(400));
        assert!(t1 > t0, "not heating: {t0} -> {t1}");
        assert!(t2 > t1 && t2 < t_ss + 1e-6, "t2 {t2} vs steady {t_ss}");
        assert!((t2 - t_ss).abs() < 0.01, "not settled: {t2} vs {t_ss}");
    }

    #[test]
    fn throttle_cools_the_die() {
        let g = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 30.0, 0.4);
        let hot = g.temperature_c(SimTime::from_secs(200));
        g.set_throttle(SimTime::from_secs(200), true);
        let cooler = g.temperature_c(SimTime::from_secs(300));
        assert!(cooler < hot, "throttle did not cool: {hot} -> {cooler}");
        assert!(g.throttled());
        assert_eq!(g.switch_history().len(), 1);
    }

    #[test]
    fn power_history_reflects_switches() {
        let g = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 30.0, 0.5);
        let before = g.power_at(SimTime::from_secs(10));
        g.set_throttle(SimTime::from_secs(100), true);
        // Past power is unchanged; post-switch power is scaled.
        assert_eq!(g.power_at(SimTime::from_secs(10)), before);
        let after = g.power_at(SimTime::from_secs(150));
        assert!(after < before, "power not throttled: {before} -> {after}");
    }

    #[test]
    fn chunked_and_single_queries_agree() {
        let a = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 35.0, 0.4);
        let b = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 35.0, 0.4);
        // a: one jump; b: many small steps — identical segment algebra.
        let target = SimTime::from_secs(120);
        let direct = a.temperature_c(target);
        let mut t = SimTime::ZERO;
        let mut stepped = 0.0;
        while t <= target {
            stepped = b.temperature_c(t);
            t += SimDuration::from_millis(500);
        }
        // Both end integrated exactly to 120 s.
        let stepped_final = b.temperature_c(target);
        assert!(
            (direct - stepped_final).abs() < 1e-9,
            "{direct} vs {stepped_final}"
        );
        let _ = stepped;
    }

    #[test]
    fn backwards_query_panic_leaves_the_plant_usable() {
        let g = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 30.0, 0.4);
        let twin = LiveGpu::new(GpuSpec::k20(), &busy_profile(), 30.0, 0.4);
        for plant in [&g, &twin] {
            plant.temperature_c(SimTime::from_secs(100));
        }
        // The backwards-time assert fires while the write lock is held,
        // which poisons a std lock; every later call must recover it.
        let backwards = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.temperature_c(SimTime::from_secs(50))
        }));
        assert!(backwards.is_err(), "driving time backwards must panic");
        for plant in [&g, &twin] {
            plant.set_throttle(SimTime::from_secs(150), true);
        }
        assert_eq!(
            g.temperature_c(SimTime::from_secs(300)).to_bits(),
            twin.temperature_c(SimTime::from_secs(300)).to_bits()
        );
        assert_eq!(g.switch_history(), twin.switch_history());
    }
}
