//! Virtual time types.
//!
//! All platform models operate on a shared virtual timeline measured in
//! nanoseconds since simulation start. [`SimTime`] is a point on that
//! timeline; [`SimDuration`] is a (non-negative) span between two points.
//!
//! Nanosecond `u64` resolution covers ~584 years of virtual time, far beyond
//! any experiment here (the longest, the Figure 1 environmental-database
//! window, is about one hour).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point on the virtual timeline, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the virtual timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative input clamps to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime((s * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Advance by `d`, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Quantize *down* onto a grid of period `period` anchored at `anchor`.
    ///
    /// This models sensors that only refresh every `period`: a query at time
    /// `t` observes the value generated at `t.grid_floor(anchor, period)`.
    /// Queries before `anchor` observe the `anchor` generation itself.
    ///
    /// # Panics
    ///
    /// If `period` is zero: a grid has a positive period.
    #[inline]
    pub fn grid_floor(self, anchor: SimTime, period: SimDuration) -> SimTime {
        assert!(period.0 > 0, "grid period must be positive");
        if self.0 <= anchor.0 {
            return anchor;
        }
        let offset = (self.0 - anchor.0) / period.0;
        SimTime(anchor.0 + offset * period.0)
    }

    /// Index of the grid slot containing `self` (0 for anything at/before
    /// `anchor`). Used to derive order-independent per-slot noise.
    ///
    /// # Panics
    ///
    /// If `period` is zero, like [`SimTime::grid_floor`].
    #[inline]
    pub fn grid_index(self, anchor: SimTime, period: SimDuration) -> u64 {
        assert!(period.0 > 0, "grid period must be positive");
        if self.0 <= anchor.0 {
            0
        } else {
            (self.0 - anchor.0) / period.0
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative input clamps to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration((s * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True iff the span is empty.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Scale by a non-negative float (e.g. jitter factors).
    ///
    /// # Panics
    ///
    /// If `k` is NaN, infinite or negative.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k.is_finite() && k >= 0.0, "scale must be finite and >= 0");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// If the sum passes [`SimTime::MAX`];
    /// [`SimTime::saturating_add`] saturates instead.
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("SimTime overflow: experiment horizon exceeded u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    /// # Panics
    ///
    /// If the sum passes [`SimTime::MAX`], like `+`.
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// If `d` reaches back past [`SimTime::ZERO`].
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                .expect("SimTime underflow: subtracted past the simulation origin"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// If `earlier` is later than `self`;
    /// [`SimTime::saturating_since`] returns zero instead.
    #[inline]
    fn sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime subtraction would be negative; use saturating_since"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// If the sum passes [`SimDuration::MAX`].
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    /// # Panics
    ///
    /// If the sum passes [`SimDuration::MAX`], like `+`.
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// If `other` is longer than `self`;
    /// [`SimDuration::checked_sub`] returns `None` instead.
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    /// # Panics
    ///
    /// If `other` is longer than `self`, like `-`.
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// If the product passes [`SimDuration::MAX`];
    /// [`SimDuration::saturating_mul`] saturates instead.
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// If `k` is zero.
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// # Panics
    ///
    /// If `other` is zero.
    #[inline]
    fn div(self, other: SimDuration) -> u64 {
        assert!(other.0 > 0, "division by zero duration");
        self.0 / other.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// If `other` is zero.
    #[inline]
    fn rem(self, other: SimDuration) -> SimDuration {
        assert!(other.0 > 0, "modulo by zero duration");
        SimDuration(self.0 % other.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // HH:MM:SS.mmm on the virtual clock, handy for Figure-1-style axes.
        let total_ms = self.0 / 1_000_000;
        let ms = total_ms % 1_000;
        let s = (total_ms / 1_000) % 60;
        let m = (total_ms / 60_000) % 60;
        let h = total_ms / 3_600_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0s".to_owned()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::from_millis(1_500));
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!(t + d, SimTime::from_millis(10_250));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_millis(9_750));
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) / d, 4);
        assert_eq!(
            SimDuration::from_millis(1_100) % d,
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_secs(1);
        assert_eq!(t.saturating_since(SimTime::from_secs(5)), SimDuration::ZERO);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_sub_panics() {
        let _ = SimTime::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn grid_floor_basics() {
        let anchor = SimTime::from_secs(10);
        let period = SimDuration::from_millis(100);
        // Before the anchor: clamps to the anchor generation.
        assert_eq!(SimTime::from_secs(3).grid_floor(anchor, period), anchor);
        // Exactly on a slot boundary.
        assert_eq!(
            SimTime::from_millis(10_200).grid_floor(anchor, period),
            SimTime::from_millis(10_200)
        );
        // Mid-slot floors down.
        assert_eq!(
            SimTime::from_millis(10_257).grid_floor(anchor, period),
            SimTime::from_millis(10_200)
        );
        assert_eq!(SimTime::from_millis(10_257).grid_index(anchor, period), 2);
        assert_eq!(SimTime::from_secs(3).grid_index(anchor, period), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_661_042).to_string(), "01:01:01.042");
        assert_eq!(SimDuration::from_millis(1_100).to_string(), "1.100s");
        assert_eq!(SimDuration::from_micros(30).to_string(), "30.000us");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(format!("{:?}", SimTime::from_secs(2)), "t+2s");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::from_millis(100).mul_f64(0.5),
            SimDuration::from_millis(50)
        );
        assert_eq!(
            SimDuration::from_nanos(3).mul_f64(0.5),
            SimDuration::from_nanos(2)
        );
    }
}
