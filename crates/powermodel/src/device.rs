//! Device power response.
//!
//! Each component dissipates `idle_w + dynamic_w * u(t)` watts for a demand
//! level `u(t)`; the observable power follows that raw demand through a
//! first-order low-pass with time constant `ramp_tau` (thermal/control lag —
//! the reason the K20 in Figure 4 takes ~5 s to level off instead of
//! stepping). Because demand is piecewise constant, both the response and its
//! time integral (energy) have closed forms per segment, so the model is
//! exact at any query time — no simulation step size exists to tune.
//!
//! Energy is a left-to-right fold of those per-segment integrals. Each
//! segment also stores the fold up to its own start, so the cumulative
//! energy a counter reads (`from = ZERO`) costs one binary search and one
//! partial integral however far virtual time has run.

use crate::demand::DemandTrace;
use simkit::{SimDuration, SimTime};
use std::ops::Range;

/// Static description of one power component of a device.
#[derive(Clone, Copy, Debug)]
pub struct ComponentSpec {
    /// Display name (matches the paper's domain names where applicable).
    pub name: &'static str,
    /// Power at zero utilization, watts.
    pub idle_w: f64,
    /// Additional power at full utilization, watts.
    pub dynamic_w: f64,
    /// First-order response time constant. `ZERO` means instantaneous.
    pub ramp_tau: SimDuration,
}

impl ComponentSpec {
    /// Raw (unfiltered) power at demand level `u`.
    #[inline]
    pub fn raw_power(&self, u: f64) -> f64 {
        self.idle_w + self.dynamic_w * u
    }
}

/// Static description of a whole device.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Device display name (e.g. `"NVIDIA K20"`).
    pub name: String,
    /// The device's power components, in a fixed order.
    pub components: Vec<ComponentSpec>,
}

impl DeviceSpec {
    /// Sum of component idle powers.
    pub fn idle_power(&self) -> f64 {
        self.components.iter().map(|c| c.idle_w).sum()
    }

    /// Sum of component peak powers.
    pub fn peak_power(&self) -> f64 {
        self.components.iter().map(|c| c.idle_w + c.dynamic_w).sum()
    }

    /// Index of a component by name.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name == name)
    }
}

/// One exponential segment of a filtered component: from `start`, the power
/// relaxes from `y_start` toward `target` with time constant `tau`.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: SimTime,
    y_start: f64,
    target: f64,
    /// Energy over `[ZERO, start]`, joules: [`fold_energy`] over every
    /// earlier segment, accumulated in the fold's own order.
    energy_before: f64,
}

/// A device bound to a workload demand: the exact power/energy oracle the
/// vendor-mechanism crates observe through their sensors.
#[derive(Clone, Debug)]
pub struct DevicePower {
    spec: DeviceSpec,
    /// Per component: exponential segments with strictly increasing
    /// starts, the first at `ZERO`.
    segments: Vec<Vec<Segment>>,
}

impl DevicePower {
    /// Bind `spec` to one demand trace per component (same order/length as
    /// `spec.components`). The device is assumed to be in steady state at
    /// the demand's initial level when the simulation starts.
    pub fn new(spec: DeviceSpec, demands: &[DemandTrace]) -> Self {
        assert_eq!(
            spec.components.len(),
            demands.len(),
            "one demand trace per component"
        );
        let segments = spec
            .components
            .iter()
            .zip(demands)
            .map(|(comp, demand)| build_segments(comp, demand))
            .collect();
        DevicePower { spec, segments }
    }

    /// Convenience: a single-component device.
    pub fn single(name: impl Into<String>, component: ComponentSpec, demand: &DemandTrace) -> Self {
        DevicePower::new(
            DeviceSpec {
                name: name.into(),
                components: vec![component],
            },
            std::slice::from_ref(demand),
        )
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Filtered power of component `i` at time `t`, watts.
    pub fn component_power(&self, i: usize, t: SimTime) -> f64 {
        let segs = &self.segments[i];
        let comp = &self.spec.components[i];
        let idx = match segs.binary_search_by(|s| s.start.cmp(&t)) {
            Ok(k) => k,
            Err(0) => return segs.first().map_or(comp.idle_w, |s| s.y_start),
            Err(k) => k - 1,
        };
        let seg = segs[idx];
        eval_segment(&seg, comp.ramp_tau, t)
    }

    /// Total filtered device power at time `t`, watts.
    pub fn total_power(&self, t: SimTime) -> f64 {
        (0..self.spec.components.len())
            .map(|i| self.component_power(i, t))
            .sum()
    }

    /// Exact energy of component `i` over `[from, to]`, joules.
    ///
    /// From `ZERO` (a cumulative counter read) this is the stored prefix of
    /// the last segment starting before `to` plus that segment's integral up
    /// to `to`: the same additions, in the same order, as folding every
    /// segment. A window (`from > ZERO`) folds the segments it overlaps, from
    /// the one holding `from` to the last starting before `to`.
    pub fn component_energy(&self, i: usize, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from);
        let segs = &self.segments[i];
        let tau = self.spec.components[i].ramp_tau;
        // Segments from `end` on start at or after `to`: outside the window.
        let end = segs.partition_point(|s| s.start < to);
        if from == SimTime::ZERO {
            let Some(last) = end.checked_sub(1) else {
                return 0.0;
            };
            return fold_energy(segs, tau, segs[last].energy_before, from, to, last..end);
        }
        // Segments before the one holding `from` end at or before it.
        let begin = segs.partition_point(|s| s.start <= from).saturating_sub(1);
        fold_energy(segs, tau, 0.0, from, to, begin..end)
    }

    /// Exact total device energy over `[from, to]`, joules.
    pub fn total_energy(&self, from: SimTime, to: SimTime) -> f64 {
        (0..self.spec.components.len())
            .map(|i| self.component_energy(i, from, to))
            .sum()
    }
}

fn build_segments(comp: &ComponentSpec, demand: &DemandTrace) -> Vec<Segment> {
    let initial = comp.raw_power(demand.level_at(SimTime::ZERO));
    let mut segs = vec![Segment {
        start: SimTime::ZERO,
        y_start: initial,
        target: initial,
        energy_before: 0.0,
    }];
    for &(bt, level) in demand.breakpoints() {
        let target = comp.raw_power(level);
        let last = *segs.last().expect("segments start non-empty");
        let y_at_bt = eval_segment(&last, comp.ramp_tau, bt);
        if bt == SimTime::ZERO {
            // Breakpoint at the origin replaces the synthetic initial segment.
            segs[0] = Segment {
                start: SimTime::ZERO,
                y_start: target,
                target,
                energy_before: 0.0,
            };
        } else {
            segs.push(Segment {
                start: bt,
                y_start: y_at_bt,
                target,
                energy_before: 0.0,
            });
        }
    }
    for k in 1..segs.len() {
        let prev = k - 1;
        segs[k].energy_before = fold_energy(
            &segs,
            comp.ramp_tau,
            segs[prev].energy_before,
            SimTime::ZERO,
            segs[k].start,
            prev..k,
        );
    }
    segs
}

/// Adds to `acc`, left to right, the integral of each segment in `ks` over
/// its overlap with `[from, to]`; a segment the window misses adds nothing.
/// Every energy the model reports is a run of this fold.
fn fold_energy(
    segs: &[Segment],
    tau: SimDuration,
    mut acc: f64,
    from: SimTime,
    to: SimTime,
    ks: Range<usize>,
) -> f64 {
    for k in ks {
        let seg = &segs[k];
        let seg_end = segs.get(k + 1).map_or(SimTime::MAX, |s| s.start);
        let lo = from.max(seg.start);
        let hi = to.min(seg_end);
        if hi > lo {
            acc += integrate_segment(seg, tau, lo, hi);
        }
    }
    acc
}

#[inline]
fn eval_segment(seg: &Segment, tau: SimDuration, t: SimTime) -> f64 {
    debug_assert!(t >= seg.start);
    if tau.is_zero() {
        return seg.target;
    }
    let dt = (t - seg.start).as_secs_f64();
    seg.target + (seg.y_start - seg.target) * (-dt / tau.as_secs_f64()).exp()
}

/// Integral of the segment response over `[lo, hi]` (both within the segment).
#[inline]
fn integrate_segment(seg: &Segment, tau: SimDuration, lo: SimTime, hi: SimTime) -> f64 {
    let span = (hi - lo).as_secs_f64();
    if tau.is_zero() {
        return seg.target * span;
    }
    let tau_s = tau.as_secs_f64();
    let y_lo = eval_segment(seg, tau, lo);
    // ∫ target + (y_lo - target) e^{-(t-lo)/tau} dt over [lo, hi]
    seg.target * span + (y_lo - seg.target) * tau_s * (1.0 - (-span / tau_s).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseBuilder;
    use proptest::prelude::*;
    use proptest::prop::sample::Index;

    fn comp(idle: f64, dynamic: f64, tau_ms: u64) -> ComponentSpec {
        ComponentSpec {
            name: "c",
            idle_w: idle,
            dynamic_w: dynamic,
            ramp_tau: SimDuration::from_millis(tau_ms),
        }
    }

    #[test]
    fn instant_component_steps_exactly() {
        let demand = PhaseBuilder::new()
            .idle(SimDuration::from_secs(1))
            .phase(SimDuration::from_secs(2), 1.0)
            .build();
        let dev = DevicePower::single("d", comp(10.0, 40.0, 0), &demand);
        assert_eq!(dev.total_power(SimTime::from_millis(500)), 10.0);
        assert_eq!(dev.total_power(SimTime::from_millis(1_500)), 50.0);
        assert_eq!(dev.total_power(SimTime::from_secs(4)), 10.0);
    }

    #[test]
    fn filtered_component_ramps_monotonically() {
        let demand = PhaseBuilder::new()
            .phase(SimDuration::from_secs(30), 1.0)
            .build_open();
        let dev = DevicePower::single("d", comp(44.0, 11.0, 1_500), &demand);
        let mut last = 0.0;
        for ms in (0..10_000).step_by(100) {
            let p = dev.total_power(SimTime::from_millis(ms));
            assert!(p >= last - 1e-9, "power decreased during ramp");
            assert!(p <= 55.0 + 1e-9);
            last = p;
        }
        // ~5 time constants later, effectively settled (Figure 4's ~5s ramp).
        let settled = dev.total_power(SimTime::from_millis(7_500));
        assert!((settled - 55.0).abs() < 0.1, "settled at {settled}");
    }

    #[test]
    fn steady_state_before_first_breakpoint() {
        // Demand constant from t=0: device starts already settled.
        let demand = DemandTrace::constant(0.5);
        let dev = DevicePower::single("d", comp(10.0, 20.0, 2_000), &demand);
        assert!((dev.total_power(SimTime::ZERO) - 20.0).abs() < 1e-12);
        assert!((dev.total_power(SimTime::from_secs(1)) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn energy_closed_form_matches_numeric() {
        let demand = PhaseBuilder::new()
            .idle(SimDuration::from_secs(2))
            .phase(SimDuration::from_secs(5), 0.8)
            .phase(SimDuration::from_secs(3), 0.3)
            .build();
        let dev = DevicePower::single("d", comp(20.0, 100.0, 700), &demand);
        let from = SimTime::from_millis(500);
        let to = SimTime::from_millis(11_500);
        let exact = dev.component_energy(0, from, to);
        // Fine trapezoidal numeric integral.
        let steps = 200_000;
        let dt = (to - from).as_secs_f64() / steps as f64;
        let mut numeric = 0.0;
        for k in 0..steps {
            let t0 = from + SimDuration::from_secs_f64(k as f64 * dt);
            let t1 = from + SimDuration::from_secs_f64((k + 1) as f64 * dt);
            numeric += 0.5 * (dev.component_power(0, t0) + dev.component_power(0, t1)) * dt;
            let _ = t1;
        }
        assert!(
            (exact - numeric).abs() < 1e-3 * numeric.abs().max(1.0),
            "exact {exact} vs numeric {numeric}"
        );
    }

    #[test]
    fn energy_is_additive_over_subintervals() {
        let demand = PhaseBuilder::new()
            .phase(SimDuration::from_secs(4), 1.0)
            .build();
        let dev = DevicePower::single("d", comp(5.0, 45.0, 300), &demand);
        let a = SimTime::ZERO;
        let m = SimTime::from_millis(2_345);
        let b = SimTime::from_secs(8);
        let whole = dev.component_energy(0, a, b);
        let parts = dev.component_energy(0, a, m) + dev.component_energy(0, m, b);
        assert!((whole - parts).abs() < 1e-9);
    }

    #[test]
    fn multi_component_totals_sum() {
        let d1 = DemandTrace::constant(1.0);
        let d2 = DemandTrace::constant(0.5);
        let spec = DeviceSpec {
            name: "two".into(),
            components: vec![comp(10.0, 10.0, 0), comp(1.0, 8.0, 0)],
        };
        let dev = DevicePower::new(spec, &[d1, d2]);
        let t = SimTime::from_secs(1);
        assert!((dev.total_power(t) - (20.0 + 5.0)).abs() < 1e-12);
        assert!((dev.total_energy(SimTime::ZERO, t) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn spec_helpers() {
        let spec = DeviceSpec {
            name: "x".into(),
            components: vec![comp(10.0, 30.0, 0), comp(5.0, 15.0, 0)],
        };
        assert_eq!(spec.idle_power(), 15.0);
        assert_eq!(spec.peak_power(), 60.0);
        assert_eq!(spec.component_index("c"), Some(0));
        assert_eq!(spec.component_index("missing"), None);
    }

    #[test]
    #[should_panic(expected = "one demand trace per component")]
    fn wrong_demand_count_panics() {
        let spec = DeviceSpec {
            name: "x".into(),
            components: vec![comp(1.0, 1.0, 0)],
        };
        DevicePower::new(spec, &[]);
    }

    /// One component's plan: a lead-in before the first phase (`None` puts
    /// the first breakpoint at `ZERO`), `(duration_ms, level)` phases,
    /// whether the trace returns to idle after them, and the ramp time
    /// constant in ms (`None` is an instantaneous component).
    type Plan = (Option<u64>, Vec<(u64, f64)>, bool, Option<u64>);

    fn plan() -> impl Strategy<Value = Plan> {
        (
            prop::option::of(1u64..2_000),
            prop::collection::vec((1u64..3_000, 0.0f64..=1.0), 0..10),
            prop::bool::ANY,
            prop::option::of(1u64..3_000),
        )
    }

    fn device(plans: &[Plan]) -> DevicePower {
        let mut components = Vec::new();
        let mut demands = Vec::new();
        for (k, (lead_ms, phases, closed, tau_ms)) in plans.iter().enumerate() {
            let origin = SimTime::from_millis(lead_ms.unwrap_or(0));
            let mut b = PhaseBuilder::starting_at(origin);
            for &(ms, level) in phases {
                b = b.phase(SimDuration::from_millis(ms), level);
            }
            demands.push(if *closed { b.build() } else { b.build_open() });
            components.push(comp(5.0 + k as f64, 40.0, tau_ms.unwrap_or(0)));
        }
        let spec = DeviceSpec {
            name: "prop".into(),
            components,
        };
        DevicePower::new(spec, &demands)
    }

    /// An instant of kind `kind % 4`: `ZERO`, a segment start of any
    /// component (a breakpoint, exactly), past every breakpoint by
    /// `offset_ns`, or anywhere up to that far past the last one.
    fn instant(dev: &DevicePower, (kind, at, offset_ns): (u8, Index, u64)) -> SimTime {
        let starts: Vec<SimTime> = dev.segments.iter().flatten().map(|s| s.start).collect();
        let last = starts.iter().copied().max().unwrap_or(SimTime::ZERO);
        let past = last + SimDuration::from_nanos(offset_ns);
        match kind % 4 {
            0 => SimTime::ZERO,
            1 => *at.get(&starts),
            2 => past,
            _ => SimTime::from_nanos(at.index(past.as_nanos() as usize + 1) as u64),
        }
    }

    fn pick() -> impl Strategy<Value = (u8, Index, u64)> {
        (0u8..4, any::<Index>(), 1u64..5_000_000_000)
    }

    /// The energy fold over every segment of component `i`: the reference
    /// the table and the bounded window must equal bit for bit.
    fn full_fold(dev: &DevicePower, i: usize, from: SimTime, to: SimTime) -> f64 {
        let segs = &dev.segments[i];
        let tau = dev.spec.components[i].ramp_tau;
        fold_energy(segs, tau, 0.0, from, to, 0..segs.len())
    }

    proptest! {
        #[test]
        fn energy_table_and_window_equal_the_full_fold_bitwise(
            plans in prop::collection::vec(plan(), 1..4),
            ts in prop::collection::vec(pick(), 1..12),
            windows in prop::collection::vec((pick(), pick()), 1..12),
        ) {
            let dev = device(&plans);
            let n = plans.len();
            for pick in ts {
                let t = instant(&dev, pick);
                for i in 0..n {
                    let got = dev.component_energy(i, SimTime::ZERO, t);
                    let want = full_fold(&dev, i, SimTime::ZERO, t);
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "component {} at {:?}: {} vs {}", i, t, got, want);
                }
                let total = dev.total_energy(SimTime::ZERO, t);
                let want: f64 = (0..n).map(|i| full_fold(&dev, i, SimTime::ZERO, t)).sum();
                prop_assert_eq!(total.to_bits(), want.to_bits(),
                    "total at {:?}: {} vs {}", t, total, want);
            }
            for (a, b) in windows {
                let (a, b) = (instant(&dev, a), instant(&dev, b));
                let (from, to) = (a.min(b), a.max(b));
                for i in 0..n {
                    let got = dev.component_energy(i, from, to);
                    let want = full_fold(&dev, i, from, to);
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "component {} over [{:?}, {:?}]: {} vs {}", i, from, to, got, want);
                }
            }
        }
    }
}
