//! Time-series containers for figure data.
//!
//! Every figure in the paper is a time series (power, temperature) or a
//! reduction of one. [`TimeSeries`] stores `(SimTime, f64)` samples in
//! non-decreasing time order and provides the reductions the harness needs:
//! summation across series (Figure 8 sums 128 Xeon Phi cards), trapezoidal
//! energy integration, and windowed statistics.

use crate::stats::RunningStats;
use crate::time::SimTime;

/// One observation of a scalar signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the observation was taken.
    pub at: SimTime,
    /// The observed value.
    pub value: f64,
}

/// A named scalar time series with non-decreasing timestamps.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// An empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// An empty series with preallocated capacity.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::with_capacity(cap),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample. Timestamps must be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        assert!(
            value.is_finite(),
            "non-finite sample in series '{}'",
            self.name
        );
        if let Some(last) = self.samples.last() {
            assert!(
                at >= last.at,
                "series '{}': timestamps must be non-decreasing ({:?} < {:?})",
                self.name,
                at,
                last.at
            );
        }
        self.samples.push(Sample { at, value });
    }

    /// All samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterator over `(seconds_since_start, value)` pairs, the form figures
    /// are printed in.
    pub fn points_secs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let t0 = self.samples.first().map(|s| s.at).unwrap_or(SimTime::ZERO);
        self.samples
            .iter()
            .map(move |s| (s.at.saturating_since(t0).as_secs_f64(), s.value))
    }

    /// Scalar statistics of the values.
    pub fn stats(&self) -> RunningStats {
        self.samples.iter().map(|s| s.value).collect()
    }

    /// Values only, losing timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.value).collect()
    }

    /// First sample time.
    pub fn start(&self) -> Option<SimTime> {
        self.samples.first().map(|s| s.at)
    }

    /// Last sample time.
    pub fn end(&self) -> Option<SimTime> {
        self.samples.last().map(|s| s.at)
    }

    /// Trapezoidal integral of the series over its span.
    ///
    /// For a power series in watts this is energy in joules.
    pub fn integrate(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| {
                let dt = (w[1].at - w[0].at).as_secs_f64();
                0.5 * (w[0].value + w[1].value) * dt
            })
            .sum()
    }

    /// Restrict to samples in `[from, to]`.
    pub fn slice(&self, from: SimTime, to: SimTime) -> TimeSeries {
        let samples = self
            .samples
            .iter()
            .copied()
            .filter(|s| s.at >= from && s.at <= to)
            .collect();
        TimeSeries {
            name: self.name.clone(),
            samples,
        }
    }

    /// Pointwise sum of several series sampled on identical time grids.
    ///
    /// This is Figure 8's reduction: the sum of the per-card power of all 128
    /// Xeon Phis. Panics if the grids differ — summing misaligned series is a
    /// harness bug, not something to paper over silently.
    pub fn sum(name: impl Into<String>, series: &[TimeSeries]) -> TimeSeries {
        let mut out = TimeSeries::new(name);
        let Some(first) = series.first() else {
            return out;
        };
        for (i, s) in series.iter().enumerate() {
            assert_eq!(
                s.len(),
                first.len(),
                "series {i} has a different sample count"
            );
        }
        for (k, base) in first.samples.iter().enumerate() {
            let mut v = 0.0;
            for s in series {
                assert_eq!(
                    s.samples[k].at, base.at,
                    "series grids are misaligned at sample {k}"
                );
                v += s.samples[k].value;
            }
            out.push(base.at, v);
        }
        out
    }

    /// Mean of the values between `from` and `to` inclusive; `None` if no
    /// samples fall in the window.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut stats = RunningStats::new();
        for s in &self.samples {
            if s.at >= from && s.at <= to {
                stats.push(s.value);
            }
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// Render the series as `t_seconds\tvalue` lines (the harness's
    /// machine-readable figure format).
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 24);
        for (t, v) in self.points_secs() {
            out.push_str(&format!("{t:.3}\t{v:.3}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_order_enforced() {
        let mut ts = TimeSeries::new("p");
        ts.push(secs(1), 1.0);
        ts.push(secs(1), 2.0); // equal timestamps allowed (paired BPM rows)
        ts.push(secs(2), 3.0);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_time_panics() {
        let mut ts = TimeSeries::new("p");
        ts.push(secs(2), 1.0);
        ts.push(secs(1), 1.0);
    }

    #[test]
    fn integrate_trapezoid() {
        let mut ts = TimeSeries::new("watts");
        ts.push(secs(0), 100.0);
        ts.push(secs(10), 100.0);
        ts.push(secs(20), 200.0);
        // 10s at 100W + 10s ramp 100->200 = 1000 + 1500 J
        assert!((ts.integrate() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn sum_aligned_series() {
        let mk = |v: f64| {
            let mut t = TimeSeries::new("x");
            t.push(secs(0), v);
            t.push(secs(1), v * 2.0);
            t
        };
        let total = TimeSeries::sum("total", &[mk(1.0), mk(2.0), mk(3.0)]);
        assert_eq!(total.values(), vec![6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn sum_misaligned_panics() {
        let mut a = TimeSeries::new("a");
        a.push(secs(0), 1.0);
        let mut b = TimeSeries::new("b");
        b.push(secs(1), 1.0);
        TimeSeries::sum("t", &[a, b]);
    }

    #[test]
    fn window_mean_and_slice() {
        let mut ts = TimeSeries::new("p");
        for i in 0..10 {
            ts.push(secs(i), i as f64);
        }
        assert_eq!(ts.window_mean(secs(2), secs(4)), Some(3.0));
        assert_eq!(ts.window_mean(secs(50), secs(60)), None);
        assert_eq!(ts.slice(secs(2), secs(4)).len(), 3);
    }

    #[test]
    fn tsv_format() {
        let mut ts = TimeSeries::new("p");
        ts.push(SimTime::from_millis(0), 1.0);
        ts.push(SimTime::from_millis(1500), 2.5);
        assert_eq!(ts.to_tsv(), "0.000\t1.000\n1.500\t2.500\n");
    }

    #[test]
    fn points_secs_relative_to_first_sample() {
        let mut ts = TimeSeries::new("p");
        ts.push(secs(100), 1.0);
        ts.push(secs(101), 2.0);
        let pts: Vec<(f64, f64)> = ts.points_secs().collect();
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[1].0, 1.0);
    }
}
