//! Sampling policies: *when* a collector polls, decoupled from *what* it
//! reads.
//!
//! Every mechanism in the paper publishes on its own update grid (560 ms
//! EMON generations, ~1 ms RAPL ticks, 60 ms NVML refreshes, 50 ms SMC
//! windows), and the error a collector sees depends as much on how its
//! polls align with that grid as on the mechanism itself — the central
//! observation of the NVML sampling-skew and RAPL error-analysis
//! literature. A [`SamplingPolicy`] describes the poll schedule:
//!
//! * [`SamplingPolicy::Aligned`] — the seed behavior: polls exactly one
//!   interval apart, anchored at the first poll. The arithmetic is the
//!   same `prev + interval` chain the sessions always used, so runs with
//!   the default policy are byte-identical to builds that predate it.
//! * [`SamplingPolicy::FixedOffset`] — the aligned grid shifted by a
//!   constant, for measuring phase sensitivity.
//! * [`SamplingPolicy::Jittered`] — nominal grid plus an indexed,
//!   order-independent uniform offset per poll (±`amplitude`), the usual
//!   model of an interrupt-driven collector on a busy node.
//! * [`SamplingPolicy::Poisson`] — exponential gaps with the interval as
//!   mean: memoryless sampling, the textbook way to avoid aliasing with a
//!   periodic signal.
//!
//! All draws come from [`crate::rng::NoiseStream`] keyed by `(seed,
//! stream)`, so a schedule is a pure function of the policy, the anchor,
//! and the poll index — reproducible regardless of how or where the
//! session runs (the cluster passes the agent rank as `stream`).

use crate::rng::{mix64, NoiseStream};
use crate::time::{SimDuration, SimTime};

/// Poisson gaps are clamped to `mean/POISSON_MIN_DIV ..= mean *
/// POISSON_MAX_MUL`: the exponential has unbounded support, and an
/// unclamped draw could schedule a poll storm (or a poll past the
/// horizon) that no real SIGALRM collector would exhibit.
const POISSON_MIN_DIV: u64 = 16;
/// See [`POISSON_MIN_DIV`].
const POISSON_MAX_MUL: u64 = 8;

/// When a session polls, relative to its nominal interval grid.
///
/// The default ([`SamplingPolicy::Aligned`]) reproduces the historical
/// schedule bit-for-bit; the others perturb poll *times* only — they never
/// touch what a poll reads — so they compose with the fault, telemetry,
/// and cache layers unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SamplingPolicy {
    /// Polls exactly one interval apart (the seed schedule).
    #[default]
    Aligned,
    /// The aligned grid shifted by a constant offset (must be smaller than
    /// the interval; validated by [`SamplingPolicy::validate`]).
    FixedOffset(SimDuration),
    /// Nominal grid plus a per-poll uniform offset in `±amplitude`
    /// (requires `2 * amplitude < interval` so polls stay ordered).
    Jittered {
        /// Maximum magnitude of the per-poll offset.
        amplitude: SimDuration,
        /// Seed for the offset stream (mixed with the `stream` key).
        seed: u64,
    },
    /// Exponentially distributed gaps with the interval as mean.
    Poisson {
        /// Seed for the gap stream (mixed with the `stream` key).
        seed: u64,
    },
}

impl SamplingPolicy {
    /// Panic unless the policy is well-formed for `interval`: offsets and
    /// jitter amplitudes must leave consecutive polls strictly ordered.
    ///
    /// Sessions call this at initialization so a bad knob fails fast, not
    /// after an hour of virtual time.
    pub fn validate(&self, interval: SimDuration) {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        match *self {
            SamplingPolicy::Aligned | SamplingPolicy::Poisson { .. } => {}
            SamplingPolicy::FixedOffset(d) => assert!(
                d.as_nanos() < interval.as_nanos(),
                "fixed offset {d} must be smaller than the interval {interval}"
            ),
            SamplingPolicy::Jittered { amplitude, .. } => assert!(
                amplitude.as_nanos() * 2 < interval.as_nanos(),
                "jitter amplitude {amplitude} must be under half the interval {interval}"
            ),
        }
    }

    /// The first poll time for a schedule whose nominal first poll (index
    /// 0) is `anchor`.
    ///
    /// `stream` decorrelates concurrent schedules drawn from one policy
    /// value (the cluster passes the agent rank).
    pub fn first_fire(&self, anchor: SimTime, _interval: SimDuration, stream: u64) -> SimTime {
        match *self {
            // Identical expression to the historical code path.
            SamplingPolicy::Aligned | SamplingPolicy::Poisson { .. } => anchor,
            SamplingPolicy::FixedOffset(d) => anchor + d,
            SamplingPolicy::Jittered { .. } => self.jitter_apply(anchor, 0, stream),
        }
    }

    /// The fire time of poll `index` given that poll `index - 1` fired at
    /// `prev`. Grid-based policies compute from the anchor (no cumulative
    /// drift); Poisson advances `prev` by an indexed exponential gap.
    /// Always strictly after `prev`.
    pub fn next_fire(
        &self,
        anchor: SimTime,
        interval: SimDuration,
        prev: SimTime,
        index: u64,
        stream: u64,
    ) -> SimTime {
        let t = match *self {
            // Identical expression to the historical code path.
            SamplingPolicy::Aligned => prev + interval,
            SamplingPolicy::FixedOffset(d) => anchor + nominal(interval, index) + d,
            SamplingPolicy::Jittered { .. } => {
                self.jitter_apply(anchor + nominal(interval, index), index, stream)
            }
            SamplingPolicy::Poisson { seed } => {
                let u = stream_for(seed, stream).uniform01(index);
                let mean = interval.as_nanos();
                let gap_ns = (-(1.0 - u).ln() * mean as f64) as u64;
                let gap_ns =
                    gap_ns.clamp(mean / POISSON_MIN_DIV, mean.saturating_mul(POISSON_MAX_MUL));
                prev + SimDuration::from_nanos(gap_ns.max(1))
            }
        };
        // Jitter can bring consecutive fires arbitrarily close; keep the
        // timeline strictly advancing so event queues stay well-ordered.
        if t <= prev {
            prev + SimDuration::from_nanos(1)
        } else {
            t
        }
    }

    /// Every poll time in `[anchor, horizon]` for this schedule, in order.
    ///
    /// This is the offline form the accuracy harness consumes; sessions
    /// use [`first_fire`](Self::first_fire)/[`next_fire`](Self::next_fire)
    /// incrementally so the schedule composes with their event loop.
    pub fn times(
        &self,
        anchor: SimTime,
        interval: SimDuration,
        horizon: SimTime,
        stream: u64,
    ) -> Vec<SimTime> {
        self.validate(interval);
        let mut out = Vec::new();
        let mut t = self.first_fire(anchor, interval, stream);
        let mut index = 0u64;
        while t <= horizon {
            out.push(t);
            index += 1;
            t = self.next_fire(anchor, interval, t, index, stream);
        }
        out
    }

    /// Apply the jitter offset for poll `index` to its nominal time.
    fn jitter_apply(&self, at: SimTime, index: u64, stream: u64) -> SimTime {
        let SamplingPolicy::Jittered { amplitude, seed } = *self else {
            unreachable!("jitter_apply on a non-jittered policy");
        };
        let off = stream_for(seed, stream).uniform_pm1(index) * amplitude.as_nanos() as f64;
        if off >= 0.0 {
            at + SimDuration::from_nanos(off as u64)
        } else {
            at - SimDuration::from_nanos((-off) as u64)
        }
    }
}

/// The indexed draw stream for `(seed, stream)`.
fn stream_for(seed: u64, stream: u64) -> NoiseStream {
    NoiseStream::new(mix64(seed, stream)).child("sampling")
}

/// `interval * index` on the nominal grid, in exact nanoseconds.
fn nominal(interval: SimDuration, index: u64) -> SimDuration {
    SimDuration::from_nanos(interval.as_nanos().saturating_mul(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    const I: SimDuration = SimDuration::from_millis(100);
    const A: SimTime = SimTime::from_millis(100);

    #[test]
    fn aligned_matches_the_historical_chain() {
        let times = SamplingPolicy::Aligned.times(A, I, SimTime::from_secs(1), 0);
        let mut expect = Vec::new();
        let mut t = A;
        while t <= SimTime::from_secs(1) {
            expect.push(t);
            t += I; // the pre-policy session arithmetic
        }
        assert_eq!(times, expect);
    }

    #[test]
    fn zero_offset_and_zero_jitter_are_aligned() {
        let z = SamplingPolicy::Jittered {
            amplitude: SimDuration::ZERO,
            seed: 9,
        };
        let h = SimTime::from_secs(2);
        assert_eq!(
            SamplingPolicy::Aligned.times(A, I, h, 3),
            SamplingPolicy::FixedOffset(SimDuration::ZERO).times(A, I, h, 3)
        );
        assert_eq!(
            SamplingPolicy::Aligned.times(A, I, h, 3),
            z.times(A, I, h, 3)
        );
    }

    #[test]
    fn fixed_offset_shifts_every_poll() {
        let d = SimDuration::from_millis(7);
        let a = SamplingPolicy::Aligned.times(A, I, SimTime::from_secs(1), 0);
        let f = SamplingPolicy::FixedOffset(d).times(A, I, SimTime::from_secs(1) + d, 0);
        assert_eq!(a.len(), f.len());
        for (x, y) in a.iter().zip(&f) {
            assert_eq!(*x + d, *y);
        }
    }

    #[test]
    fn jitter_stays_ordered_and_near_the_grid() {
        let p = SamplingPolicy::Jittered {
            amplitude: SimDuration::from_millis(40),
            seed: 1,
        };
        let times = p.times(A, I, SimTime::from_secs(60), 5);
        assert!(times.len() > 500);
        for w in times.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        for (k, t) in times.iter().enumerate() {
            let nom = A + SimDuration::from_nanos(I.as_nanos() * k as u64);
            let dev = t.as_nanos().abs_diff(nom.as_nanos());
            assert!(dev <= SimDuration::from_millis(40).as_nanos(), "poll {k}");
        }
    }

    #[test]
    fn poisson_gaps_average_the_interval() {
        let p = SamplingPolicy::Poisson { seed: 4 };
        let times = p.times(A, I, SimTime::from_secs(600), 0);
        let mean_gap =
            (times[times.len() - 1] - times[0]).as_nanos() as f64 / (times.len() - 1) as f64;
        let rel = (mean_gap - I.as_nanos() as f64).abs() / I.as_nanos() as f64;
        assert!(rel < 0.10, "mean gap off by {:.1}%", rel * 100.0);
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn schedules_are_deterministic_and_stream_keyed() {
        let p = SamplingPolicy::Jittered {
            amplitude: SimDuration::from_millis(30),
            seed: 11,
        };
        let h = SimTime::from_secs(10);
        assert_eq!(p.times(A, I, h, 2), p.times(A, I, h, 2));
        assert_ne!(p.times(A, I, h, 2), p.times(A, I, h, 3));
    }

    #[test]
    #[should_panic(expected = "jitter amplitude")]
    fn oversized_jitter_is_rejected() {
        SamplingPolicy::Jittered {
            amplitude: SimDuration::from_millis(50),
            seed: 0,
        }
        .validate(I);
    }

    #[test]
    #[should_panic(expected = "fixed offset")]
    fn oversized_offset_is_rejected() {
        SamplingPolicy::FixedOffset(I).validate(I);
    }
}
