//! Property-based tests for the simulation core.

use proptest::prelude::*;
use simkit::stats::{quantile_sorted, regularized_incomplete_beta, BoxplotSummary, RunningStats};
use simkit::{
    DetRng, FaultOutcome, FaultPlan, FaultSpec, NoiseStream, SimDuration, SimTime, TimeSeries,
};

proptest! {
    #[test]
    fn time_add_sub_roundtrip(base in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur) - dur, t);
    }

    #[test]
    fn grid_floor_is_idempotent_and_bounded(
        t in 0u64..1_000_000_000_000u64,
        anchor in 0u64..1_000_000_000u64,
        period in 1u64..10_000_000_000u64,
    ) {
        let t = SimTime::from_nanos(t);
        let anchor = SimTime::from_nanos(anchor);
        let period = SimDuration::from_nanos(period);
        let g = t.grid_floor(anchor, period);
        // Idempotent.
        prop_assert_eq!(g.grid_floor(anchor, period), g);
        // Never in the future of t (unless clamped to anchor).
        if t >= anchor {
            prop_assert!(g <= t);
            prop_assert!((t - g).as_nanos() < period.as_nanos());
        } else {
            prop_assert_eq!(g, anchor);
        }
    }

    #[test]
    fn running_stats_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let s: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
    }

    #[test]
    fn quantiles_are_monotone(mut xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        for w in qs.windows(2) {
            prop_assert!(quantile_sorted(&xs, w[0]) <= quantile_sorted(&xs, w[1]) + 1e-12);
        }
        prop_assert_eq!(quantile_sorted(&xs, 0.0), xs[0]);
        prop_assert_eq!(quantile_sorted(&xs, 1.0), *xs.last().unwrap());
    }

    #[test]
    fn boxplot_invariants(xs in prop::collection::vec(-1e3f64..1e3, 4..200)) {
        let b = BoxplotSummary::from_samples(&xs);
        // Quartiles are ordered. (Whiskers are actual data points while the
        // quartiles are interpolated, so whisker_lo <= q1 does NOT hold in
        // general — e.g. when an outlier drags the interpolated q1 below
        // every retained point.)
        prop_assert!(b.q1 <= b.median + 1e-12);
        prop_assert!(b.median <= b.q3 + 1e-12);
        prop_assert!(b.whisker_lo <= b.whisker_hi + 1e-12);
        prop_assert_eq!(b.n, xs.len());
        // Outliers and whiskers partition correctly: no accepted point beyond fences.
        let lo_fence = b.q1 - 1.5 * b.iqr();
        let hi_fence = b.q3 + 1.5 * b.iqr();
        prop_assert!(b.whisker_lo >= lo_fence - 1e-9);
        prop_assert!(b.whisker_hi <= hi_fence + 1e-9);
        for o in &b.outliers {
            prop_assert!(*o < lo_fence || *o > hi_fence);
        }
    }

    #[test]
    fn incomplete_beta_monotone_in_x(a in 0.2f64..20.0, b in 0.2f64..20.0, x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let f_lo = regularized_incomplete_beta(a, b, lo);
        let f_hi = regularized_incomplete_beta(a, b, hi);
        prop_assert!(f_lo <= f_hi + 1e-9, "I_x not monotone: {} > {}", f_lo, f_hi);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f_lo));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f_hi));
    }

    #[test]
    fn noise_stream_value_depends_only_on_index(seed in any::<u64>(), ks in prop::collection::vec(0u64..10_000, 1..50)) {
        let s = NoiseStream::new(seed);
        let direct: Vec<f64> = ks.iter().map(|&k| s.uniform01(k)).collect();
        // Query each index many times, interleaved, and in reverse.
        for (i, &k) in ks.iter().enumerate().rev() {
            prop_assert_eq!(s.uniform01(k), direct[i]);
        }
    }

    #[test]
    fn rng_uniform_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 0.0f64..1e6) {
        let mut r = DetRng::new(seed);
        let hi = lo + width;
        for _ in 0..50 {
            let x = r.uniform(lo, hi);
            prop_assert!(x >= lo && (x < hi || width == 0.0));
        }
    }

    /// Fault draws are indexed by `(device, t, attempt)`, never sequential:
    /// a timeout on one device — and the whole retry storm it triggers,
    /// extra attempt draws and record-drop draws included — must not shift
    /// a single outcome on any other device. A stateful shared RNG would
    /// fail this on the first interleaving.
    #[test]
    fn fault_draws_are_isolated_per_device(
        seed in 0u64..1_000,
        probes in prop::collection::vec((0u64..100_000u64, 0u32..4), 1..40),
        interference in prop::collection::vec((0u64..100_000u64, 0u32..6), 0..60),
    ) {
        let spec = FaultSpec {
            timeout: 0.3,
            transient: 0.2,
            drop_record: 0.2,
            ..FaultSpec::zero()
        };
        let plan = FaultPlan::Uniform { seed, spec };
        // Baseline: device B's fate at every probe with device A silent.
        let quiet = plan.process_for("devB", FaultSpec::zero()).unwrap();
        let baseline: Vec<(FaultOutcome, bool)> = probes
            .iter()
            .map(|&(ms, att)| {
                let t = SimTime::from_millis(ms);
                (quiet.outcome(t, att), quiet.drop_record(t, att as usize))
            })
            .collect();
        // Interfered run: device A is hammered with arbitrary draws —
        // retries at high attempt indices, drop decisions — interleaved
        // before every single B probe.
        let a = plan.process_for("devA", FaultSpec::zero()).unwrap();
        let b = plan.process_for("devB", FaultSpec::zero()).unwrap();
        let mut observed = Vec::with_capacity(probes.len());
        for (i, &(ms, att)) in probes.iter().enumerate() {
            for &(ams, aatt) in &interference {
                let at = SimTime::from_millis(ams + i as u64);
                let _ = a.outcome(at, aatt);
                let _ = a.drop_record(at, aatt as usize);
            }
            let t = SimTime::from_millis(ms);
            observed.push((b.outcome(t, att), b.drop_record(t, att as usize)));
        }
        prop_assert_eq!(baseline, observed);
    }

    #[test]
    fn series_integral_nonnegative_for_nonnegative_values(
        vals in prop::collection::vec(0.0f64..1e4, 2..100),
    ) {
        let mut ts = TimeSeries::new("p");
        for (i, v) in vals.iter().enumerate() {
            ts.push(SimTime::from_millis(i as u64 * 100), *v);
        }
        prop_assert!(ts.integrate() >= 0.0);
        // Integral bounded by max * span.
        let span = (vals.len() - 1) as f64 * 0.1;
        let max = vals.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(ts.integrate() <= max * span + 1e-9);
    }
}
