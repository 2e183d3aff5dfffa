//! Piecewise-constant utilization demand.
//!
//! A workload presents each device component (CPU cores, DRAM, network
//! links, …) with a utilization level in `[0, 1]` that changes at phase
//! boundaries. [`DemandTrace`] stores those breakpoints; [`PhaseBuilder`]
//! builds them by appending `(duration, level)` phases, which is how the
//! instrumented kernels in `hpc-workloads` express themselves.

use simkit::{SimDuration, SimTime};

/// A piecewise-constant function of time with values in `[0, 1]`.
///
/// The value before the first breakpoint is `0.0` (device idle until the
/// workload arrives). The value at a breakpoint is the new level (left-closed
/// intervals).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DemandTrace {
    /// `(time, level)` breakpoints with strictly increasing times.
    points: Vec<(SimTime, f64)>,
}

impl DemandTrace {
    /// The identically-zero trace.
    pub fn zero() -> Self {
        DemandTrace { points: Vec::new() }
    }

    /// A trace that holds `level` from `t = 0` onward.
    pub fn constant(level: f64) -> Self {
        let mut t = DemandTrace::zero();
        t.set(SimTime::ZERO, level);
        t
    }

    /// Set the level from `at` onward. Breakpoints must be added in strictly
    /// increasing time order; re-setting the current last breakpoint's time
    /// overwrites its level.
    pub fn set(&mut self, at: SimTime, level: f64) {
        assert!(
            (0.0..=1.0).contains(&level),
            "utilization {level} outside [0,1]"
        );
        if let Some(&(last_t, last_v)) = self.points.last() {
            if at == last_t {
                self.points.last_mut().expect("non-empty").1 = level;
                return;
            }
            assert!(at > last_t, "breakpoints must be time-ordered");
            // Coalesce: identical consecutive levels add no information.
            if (last_v - level).abs() < f64::EPSILON {
                return;
            }
        }
        self.points.push((at, level));
    }

    /// The level at time `t`.
    pub fn level_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The breakpoints `(time, level)`.
    pub fn breakpoints(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Exact integral of the level over `[from, to]` (unit: seconds of
    /// full-utilization time). Used to cross-check the closed-form device
    /// energy against numeric integration in the property tests.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from);
        let mut acc = 0.0;
        let mut cursor = from;
        // Walk breakpoints inside the window.
        for &(bt, _) in &self.points {
            if bt <= cursor {
                continue;
            }
            if bt >= to {
                break;
            }
            acc += self.level_at(cursor) * (bt - cursor).as_secs_f64();
            cursor = bt;
        }
        acc += self.level_at(cursor) * (to - cursor).as_secs_f64();
        acc
    }

    /// The same trace delayed by `offset` (used to place a workload after an
    /// idle lead-in, as in Figure 1 where the BPM data shows idle time before
    /// the job starts).
    pub fn shifted(&self, offset: SimDuration) -> DemandTrace {
        DemandTrace {
            points: self.points.iter().map(|&(t, v)| (t + offset, v)).collect(),
        }
    }

    /// Pointwise maximum with another trace (used when two activities share
    /// a component, e.g. collection threads running during an application).
    pub fn max_with(&self, other: &DemandTrace) -> DemandTrace {
        let mut times: Vec<SimTime> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(t, _)| t)
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut out = DemandTrace::zero();
        for t in times {
            out.set(t, self.level_at(t).max(other.level_at(t)));
        }
        out
    }
}

/// Sequential phase builder: append `(duration, level)` phases; the trace
/// returns to zero after the last phase.
#[derive(Clone, Debug)]
pub struct PhaseBuilder {
    trace: DemandTrace,
    cursor: SimTime,
}

impl PhaseBuilder {
    /// Start building at `t = 0`.
    pub fn new() -> Self {
        Self::starting_at(SimTime::ZERO)
    }

    /// Start building at an arbitrary origin (e.g. the job launch time).
    pub fn starting_at(origin: SimTime) -> Self {
        PhaseBuilder {
            trace: DemandTrace::zero(),
            cursor: origin,
        }
    }

    /// Append a phase of `duration` at `level`.
    pub fn phase(mut self, duration: SimDuration, level: f64) -> Self {
        self.trace.set(self.cursor, level);
        self.cursor += duration;
        self
    }

    /// Append an idle (zero-level) gap.
    pub fn idle(self, duration: SimDuration) -> Self {
        self.phase(duration, 0.0)
    }

    /// Current end time of the built phases.
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Finish: the level drops to zero after the last phase.
    pub fn build(mut self) -> DemandTrace {
        self.trace.set(self.cursor, 0.0);
        self.trace
    }

    /// Finish without the trailing return-to-zero (the last level holds
    /// forever). Rarely wanted; figures with a visible idle tail use
    /// [`PhaseBuilder::build`].
    pub fn build_open(self) -> DemandTrace {
        self.trace
    }
}

impl Default for PhaseBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn zero_trace_is_zero_everywhere() {
        let t = DemandTrace::zero();
        assert_eq!(t.level_at(SimTime::ZERO), 0.0);
        assert_eq!(t.level_at(SimTime::from_secs(1_000)), 0.0);
    }

    #[test]
    fn step_levels() {
        let mut t = DemandTrace::zero();
        t.set(ms(100), 0.5);
        t.set(ms(200), 1.0);
        assert_eq!(t.level_at(ms(50)), 0.0);
        assert_eq!(t.level_at(ms(100)), 0.5);
        assert_eq!(t.level_at(ms(150)), 0.5);
        assert_eq!(t.level_at(ms(200)), 1.0);
        assert_eq!(t.level_at(ms(999)), 1.0);
    }

    #[test]
    fn set_same_time_overwrites() {
        let mut t = DemandTrace::zero();
        t.set(ms(100), 0.5);
        t.set(ms(100), 0.7);
        assert_eq!(t.level_at(ms(100)), 0.7);
        assert_eq!(t.breakpoints().len(), 1);
    }

    #[test]
    fn consecutive_identical_levels_coalesce() {
        let mut t = DemandTrace::zero();
        t.set(ms(100), 0.5);
        t.set(ms(200), 0.5);
        assert_eq!(t.breakpoints().len(), 1);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_panics() {
        let mut t = DemandTrace::zero();
        t.set(ms(200), 0.5);
        t.set(ms(100), 0.6);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn out_of_range_level_panics() {
        DemandTrace::zero().set(ms(0), 1.5);
    }

    #[test]
    fn integrate_exact() {
        let t = PhaseBuilder::new()
            .phase(SimDuration::from_secs(2), 0.5) // contributes 1.0
            .phase(SimDuration::from_secs(1), 1.0) // contributes 1.0
            .build();
        let integral = t.integrate(SimTime::ZERO, SimTime::from_secs(10));
        assert!((integral - 2.0).abs() < 1e-12);
        // Sub-window.
        let partial = t.integrate(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!((partial - 0.5).abs() < 1e-12);
    }

    #[test]
    fn builder_returns_to_zero() {
        let t = PhaseBuilder::new()
            .phase(SimDuration::from_secs(5), 0.8)
            .build();
        assert_eq!(t.level_at(SimTime::from_secs(4)), 0.8);
        assert_eq!(t.level_at(SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn builder_open_holds_last_level() {
        let t = PhaseBuilder::new()
            .phase(SimDuration::from_secs(5), 0.8)
            .build_open();
        assert_eq!(t.level_at(SimTime::from_secs(500)), 0.8);
    }

    #[test]
    fn builder_with_origin_and_idle() {
        let t = PhaseBuilder::starting_at(SimTime::from_secs(10))
            .phase(SimDuration::from_secs(2), 1.0)
            .idle(SimDuration::from_secs(3))
            .phase(SimDuration::from_secs(1), 0.5)
            .build();
        assert_eq!(t.level_at(SimTime::from_secs(9)), 0.0);
        assert_eq!(t.level_at(SimTime::from_secs(11)), 1.0);
        assert_eq!(t.level_at(SimTime::from_secs(13)), 0.0);
        assert_eq!(t.level_at(SimTime::from_secs(15)), 0.5);
        assert_eq!(t.level_at(SimTime::from_secs(16)), 0.0);
    }

    #[test]
    fn shifted_moves_all_breakpoints() {
        let t = PhaseBuilder::new()
            .phase(SimDuration::from_secs(2), 0.5)
            .build();
        let s = t.shifted(SimDuration::from_secs(10));
        assert_eq!(s.level_at(ms(1_000)), 0.0);
        assert_eq!(s.level_at(SimTime::from_secs(11)), 0.5);
        assert_eq!(s.level_at(SimTime::from_secs(13)), 0.0);
    }

    #[test]
    fn max_with_is_pointwise_max() {
        let a = PhaseBuilder::new()
            .phase(SimDuration::from_secs(2), 0.6)
            .build();
        let b = PhaseBuilder::starting_at(SimTime::from_secs(1))
            .phase(SimDuration::from_secs(2), 0.7)
            .build();
        let m = a.max_with(&b);
        assert_eq!(m.level_at(SimTime::from_millis(500)), 0.6);
        assert_eq!(m.level_at(SimTime::from_millis(1_500)), 0.7);
        assert_eq!(m.level_at(SimTime::from_millis(2_500)), 0.7);
        assert_eq!(m.level_at(SimTime::from_millis(3_500)), 0.0);
    }
}
