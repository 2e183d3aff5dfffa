//! Statistics used by the evaluation harness.
//!
//! Figure 7 of the paper is a boxplot of Xeon Phi power samples taken through
//! the in-band SysMgmt API versus the MICRAS daemon, with the claim that the
//! two distributions differ *statistically significantly*. Backing that claim
//! needs five-number summaries ([`BoxplotSummary`]) and a two-sample test
//! ([`welch_t_test`], including a hand-rolled regularized incomplete beta
//! function for the Student-t CDF — no external math crates are sanctioned).

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorb one observation. Non-finite values are rejected with a panic —
    /// a NaN power sample is always a bug in a model, never data.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Absorb a slice of observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Linear-interpolation quantile (type 7, the R/NumPy default).
///
/// `q` must lie in `[0, 1]`; the input need not be sorted (a sorted copy is
/// made). Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&v, q)
}

/// Quantile over data already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Five-number summary plus Tukey outlier fences: the data behind a boxplot.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxplotSummary {
    /// Number of observations.
    pub n: usize,
    /// Smallest non-outlier (lower whisker end).
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest non-outlier (upper whisker end).
    pub whisker_hi: f64,
    /// Observations beyond the 1.5×IQR fences.
    pub outliers: Vec<f64>,
    /// Arithmetic mean (often drawn as a dot).
    pub mean: f64,
}

impl BoxplotSummary {
    /// Compute the summary of `xs`. Panics on empty input or NaNs.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "boxplot of empty data");
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        let q1 = quantile_sorted(&v, 0.25);
        let median = quantile_sorted(&v, 0.50);
        let q3 = quantile_sorted(&v, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = v.iter().copied().find(|&x| x >= lo_fence).unwrap_or(v[0]);
        let whisker_hi = v
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(v[v.len() - 1]);
        let outliers = v
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        BoxplotSummary {
            n: v.len(),
            whisker_lo,
            q1,
            median,
            q3,
            whisker_hi,
            outliers,
            mean,
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Result of Welch's unequal-variance t-test.
#[derive(Clone, Copy, Debug)]
pub struct WelchResult {
    /// The t statistic (sign: mean(a) - mean(b)).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_two_sided: f64,
    /// Difference of sample means, `mean(a) - mean(b)`.
    pub mean_diff: f64,
}

impl WelchResult {
    /// Convenience: significant at the given level?
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_two_sided < alpha
    }
}

/// Welch's two-sample t-test (two-sided).
///
/// Panics if either sample has fewer than two observations or zero variance
/// in both samples (the statistic is undefined there).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> WelchResult {
    assert!(a.len() >= 2 && b.len() >= 2, "need >= 2 samples per group");
    let sa: RunningStats = a.iter().copied().collect();
    let sb: RunningStats = b.iter().copied().collect();
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (va, vb) = (sa.variance(), sb.variance());
    let se2 = va / na + vb / nb;
    assert!(se2 > 0.0, "both samples are constant; t undefined");
    let mean_diff = sa.mean() - sb.mean();
    let t = mean_diff / se2.sqrt();
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let p = 2.0 * student_t_sf(t.abs(), df);
    WelchResult {
        t,
        df,
        p_two_sided: p.clamp(0.0, 1.0),
        mean_diff,
    }
}

/// Survival function of Student's t: `P(T > t)` for `t >= 0`.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    assert!(t >= 0.0 && df > 0.0);
    // P(T > t) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2)
    let x = df / (df + t * t);
    0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain");
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the Lentz continued
/// fraction (Numerical Recipes construction).
pub fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x out of [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return h;
        }
    }
    h // converged well enough for our sample sizes
}

/// A fixed-bin histogram over a closed interval.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Observations falling outside `[lo, hi]`.
    pub rejected: u64,
}

impl Histogram {
    /// A histogram of `bins` equal-width bins over `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0);
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            rejected: 0,
        }
    }

    /// Absorb an observation.
    pub fn push(&mut self, x: f64) {
        if !(self.lo..=self.hi).contains(&x) {
            self.rejected += 1;
            return;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations accepted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population sd is 2.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn running_stats_rejects_nan() {
        RunningStats::new().push(f64::NAN);
    }

    #[test]
    fn quantiles_match_numpy_type7() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn boxplot_summary_with_outlier() {
        let mut xs: Vec<f64> = (1..=11).map(f64::from).collect();
        xs.push(100.0); // a clear outlier
        let b = BoxplotSummary::from_samples(&xs);
        assert_eq!(b.n, 12);
        assert_eq!(b.outliers, vec![100.0]);
        assert!(b.whisker_hi <= 11.0);
        assert!(b.median > 5.0 && b.median < 8.0);
        assert!(b.iqr() > 0.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(5) = 24
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        // Gamma(0.5) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        // Gamma(1) = 1
        assert!(ln_gamma(1.0).abs() < 1e-12);
    }

    #[test]
    fn incomplete_beta_symmetry_and_bounds() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.5, 0.2)] {
            let lhs = regularized_incomplete_beta(a, b, x);
            let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "symmetry failed for {a},{b},{x}");
        }
        // I_x(1,1) = x (uniform CDF).
        assert!((regularized_incomplete_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn student_t_reference_points() {
        // With df=10, P(T > 2.228) ~= 0.025 (classic two-sided 5% critical value).
        let p = student_t_sf(2.228, 10.0);
        assert!((p - 0.025).abs() < 5e-4, "got {p}");
        // df=1 is Cauchy: P(T > 1) = 0.25.
        let p = student_t_sf(1.0, 1.0);
        assert!((p - 0.25).abs() < 1e-6, "got {p}");
    }

    #[test]
    fn welch_detects_real_difference() {
        let a: Vec<f64> = (0..200)
            .map(|i| 115.5 + 0.5 * ((i * 37 % 100) as f64 / 100.0 - 0.5))
            .collect();
        let b: Vec<f64> = (0..200)
            .map(|i| 113.5 + 0.5 * ((i * 53 % 100) as f64 / 100.0 - 0.5))
            .collect();
        let r = welch_t_test(&a, &b);
        assert!(r.mean_diff > 1.5);
        assert!(r.significant_at(0.001), "p = {}", r.p_two_sided);
    }

    #[test]
    fn welch_no_difference_when_identical_distributions() {
        // Same deterministic zig-zag, shifted phase: equal means.
        let a: Vec<f64> = (0..500).map(|i| 100.0 + ((i % 10) as f64 - 4.5)).collect();
        let b: Vec<f64> = (0..500)
            .map(|i| 100.0 + (((i + 5) % 10) as f64 - 4.5))
            .collect();
        let r = welch_t_test(&a, &b);
        assert!(r.mean_diff.abs() < 1e-9);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn histogram_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(11.0);
        assert_eq!(h.total(), 10);
        assert_eq!(h.rejected, 2);
        assert!(h.counts().iter().all(|&c| c == 1));
        // Right edge lands in the last bin.
        h.push(10.0);
        assert_eq!(h.counts()[9], 2);
    }
}
