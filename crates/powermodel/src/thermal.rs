//! First-order thermal model.
//!
//! Figure 5 of the paper overlays GPU temperature on power during a vector-
//! add run: temperature climbs steadily toward a power-dependent asymptote.
//! A first-order RC model reproduces that: the die temperature `T` relaxes
//! toward `T_ambient + R_th * P(t)` with time constant `tau`.
//!
//! Power itself is an arbitrary function of time (the exponential-filtered
//! device model), so the temperature trajectory has no closed form; we
//! integrate on a fixed grid once and interpolate. The grid is part of the
//! model spec, making results deterministic and query-order independent.

use simkit::{SimDuration, SimTime};

/// Static description of a first-order thermal node.
#[derive(Clone, Copy, Debug)]
pub struct ThermalSpec {
    /// Ambient (inlet) temperature, °C.
    pub ambient_c: f64,
    /// Thermal resistance junction→ambient, °C per watt.
    pub r_c_per_w: f64,
    /// Thermal time constant.
    pub tau: SimDuration,
    /// Integration step (also the resolution of queries).
    pub step: SimDuration,
}

impl ThermalSpec {
    /// Steady-state temperature at a constant power draw.
    pub fn steady_state(&self, watts: f64) -> f64 {
        self.ambient_c + self.r_c_per_w * watts
    }
}

/// A precomputed temperature trajectory.
#[derive(Clone, Debug)]
pub struct ThermalTrace {
    spec: ThermalSpec,
    /// Temperature at grid point `k` (time `k * step`).
    temps: Vec<f64>,
}

impl ThermalTrace {
    /// Integrate the thermal node over `[0, horizon]` driven by `power(t)`.
    ///
    /// The initial temperature is the steady state of `power(0)` (the device
    /// has been idling long before the experiment starts). Uses the exact
    /// per-step relaxation `T += (T_target - T)(1 - e^{-dt/tau})` with the
    /// power held at its step-midpoint value, which is second-order accurate
    /// and unconditionally stable.
    pub fn simulate<F: Fn(SimTime) -> f64>(spec: ThermalSpec, horizon: SimTime, power: F) -> Self {
        assert!(!spec.step.is_zero(), "integration step must be positive");
        assert!(
            !spec.tau.is_zero(),
            "thermal time constant must be positive"
        );
        assert!(spec.r_c_per_w >= 0.0);
        let steps = horizon.as_nanos() / spec.step.as_nanos() + 1;
        let alpha = 1.0 - (-(spec.step.as_secs_f64() / spec.tau.as_secs_f64())).exp();
        let mut temps = Vec::with_capacity(steps as usize + 1);
        let mut t_now = spec.steady_state(power(SimTime::ZERO));
        temps.push(t_now);
        for k in 0..steps {
            let mid = SimTime::from_nanos(k * spec.step.as_nanos() + spec.step.as_nanos() / 2);
            let target = spec.steady_state(power(mid));
            t_now += (target - t_now) * alpha;
            temps.push(t_now);
        }
        ThermalTrace { spec, temps }
    }

    /// The spec the trace was built from.
    pub fn spec(&self) -> &ThermalSpec {
        &self.spec
    }

    /// Temperature at time `t` (linear interpolation on the grid; clamped to
    /// the trace ends).
    pub fn temp_at(&self, t: SimTime) -> f64 {
        let step_ns = self.spec.step.as_nanos();
        let pos = t.as_nanos() as f64 / step_ns as f64;
        let k = pos.floor() as usize;
        if k + 1 >= self.temps.len() {
            return *self.temps.last().expect("trace non-empty");
        }
        let frac = pos - k as f64;
        self.temps[k] * (1.0 - frac) + self.temps[k + 1] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ThermalSpec {
        ThermalSpec {
            ambient_c: 30.0,
            r_c_per_w: 0.25,
            tau: SimDuration::from_secs(20),
            step: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn steady_state_formula() {
        assert_eq!(spec().steady_state(100.0), 55.0);
        assert_eq!(spec().steady_state(0.0), 30.0);
    }

    #[test]
    fn constant_power_stays_at_steady_state() {
        let tr = ThermalTrace::simulate(spec(), SimTime::from_secs(100), |_| 80.0);
        for s in [0u64, 10, 50, 100] {
            let t = tr.temp_at(SimTime::from_secs(s));
            assert!((t - 50.0).abs() < 1e-6, "t({s}) = {t}");
        }
    }

    #[test]
    fn step_power_relaxes_exponentially() {
        // Power steps 0 -> 100 W at t=0 (initial steady state at 0 W).
        let tr = ThermalTrace::simulate(spec(), SimTime::from_secs(200), |t| {
            if t > SimTime::ZERO {
                100.0
            } else {
                0.0
            }
        });
        let t0 = tr.temp_at(SimTime::ZERO);
        assert!((t0 - 30.0).abs() < 1e-6);
        // After one tau: 63.2% of the 25-degree rise.
        let t_tau = tr.temp_at(SimTime::from_secs(20));
        let expected = 30.0 + 25.0 * (1.0 - (-1.0f64).exp());
        assert!(
            (t_tau - expected).abs() < 0.2,
            "t(tau)={t_tau} vs {expected}"
        );
        // Settles near 55.
        let t_end = tr.temp_at(SimTime::from_secs(200));
        assert!((t_end - 55.0).abs() < 0.05);
    }

    #[test]
    fn monotone_rise_for_monotone_power() {
        let tr = ThermalTrace::simulate(spec(), SimTime::from_secs(100), |t| {
            t.as_secs_f64().min(60.0) // ramp then hold
        });
        let mut last = -1e9;
        for s in 0..100 {
            let v = tr.temp_at(SimTime::from_secs(s));
            assert!(v >= last - 1e-9);
            last = v;
        }
    }

    #[test]
    fn temp_clamps_beyond_horizon() {
        let tr = ThermalTrace::simulate(spec(), SimTime::from_secs(10), |_| 40.0);
        assert_eq!(
            tr.temp_at(SimTime::from_secs(10)),
            tr.temp_at(SimTime::from_secs(1_000))
        );
    }
}
