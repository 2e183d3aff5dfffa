//! Deterministic observability: simulated-time log₂ histograms, span
//! aggregates, and the mergeable report they are read through.
//!
//! The paper's whole contribution is *measuring the measurers*; this module
//! turns the same discipline on the harness itself. It holds the value
//! types a producer records into and the report it is read through:
//!
//! * [`LogHistogram`] — distributions of *simulated-time* durations in
//!   log₂ buckets (per-mechanism query latency, backoff);
//! * [`SpanStats`] — per-name aggregates of closed sections of simulated
//!   time (count, total, longest), so memory stays bounded at any scale;
//! * [`TelemetryReport`] — named counters, histograms, and spans.
//!
//! A producer owns its instruments as typed fields and spells metric names
//! only when someone asks for a report; a MonEQ session does exactly that
//! (`moneq::telemetry`). Two properties are load-bearing:
//!
//! 1. **Zero cost when disabled.** The producer keeps its instruments
//!    behind an `Option<Box<…>>`: disabled, every update is one untaken
//!    branch and nothing is allocated (`BENCH_telemetry.json` holds the
//!    measurement).
//! 2. **Determinism.** Everything recorded is derived from the virtual
//!    timeline (simulated clocks, indexed draws) — never from wall clock or
//!    scheduling order. Serial and parallel drives of the same seed produce
//!    byte-identical [`TelemetryReport`]s, which is property-tested.
//!
//! Reports from many ranks merge with [`TelemetryReport::absorb`] exactly
//! like per-device completeness ledgers: counters and histogram buckets are
//! exact sums, so aggregation is associative and order-independent.

use crate::time::SimDuration;
use std::collections::BTreeMap;

/// Number of buckets in a [`LogHistogram`]: one zero bucket plus one per
/// power of two representable in a `u64` nanosecond count.
pub const LOG2_BUCKETS: usize = 65;

/// A histogram of simulated-time durations in log₂ buckets.
///
/// Bucket 0 holds exact-zero durations; bucket `i >= 1` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds. Alongside the buckets the exact count,
/// sum, minimum, and maximum are tracked, so the mean is exact and
/// [`LogHistogram::percentile`] is exact whenever the answer falls in the
/// lowest or highest occupied bucket (in particular: exact for constant
/// distributions, the clean-run case).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; LOG2_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

/// The log₂ bucket index of a nanosecond count.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        64 - ns.leading_zeros() as usize
    }
}

/// The largest nanosecond count bucket `i` can hold.
fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Absorb one observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// `true` when the exact sum exceeds what a `u64` nanosecond count (a
    /// [`SimDuration`]) can carry, so [`LogHistogram::sum`] — and possibly
    /// [`LogHistogram::mean`] — are clamped. The internal accumulator is a
    /// `u128`, so the merged bucket counts and the mean stay exact far past
    /// that point; this flag makes the clamp observable instead of silent.
    pub fn saturated(&self) -> bool {
        self.sum_ns > u128::from(u64::MAX)
    }

    /// Exact sum of all observations (saturating at [`SimDuration::MAX`];
    /// see [`LogHistogram::saturated`]).
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum_ns).unwrap_or(u64::MAX))
    }

    /// Exact arithmetic mean ([`SimDuration::ZERO`] when empty; saturating
    /// at [`SimDuration::MAX`] in the astronomical case — see
    /// [`LogHistogram::saturated`]).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            let mean = self.sum_ns / u128::from(self.total);
            SimDuration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
        }
    }

    /// Exact smallest observation; `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Exact largest observation; `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) at log₂-bucket resolution: the
    /// upper bound of the bucket where the cumulative count crosses
    /// `q × count`, clamped into the exact observed `[min, max]` range.
    /// Returns [`SimDuration::ZERO`] for an empty histogram.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(bucket_hi(i).clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// The raw bucket counts (`LOG2_BUCKETS` entries).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram into this one: buckets, counts, and sums are
    /// exact sums; min/max are the combined extrema.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregated statistics for all closed spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many spans with this name closed.
    pub count: u64,
    /// Total simulated time covered (sum over closings).
    pub total: SimDuration,
    /// Longest single span.
    pub max: SimDuration,
    /// Nesting depth at which the span runs (0 = top level). Spans of one
    /// name always open at one depth in practice; merges keep the minimum.
    pub depth: u16,
}

impl SpanStats {
    /// Fold one closed span of length `d`.
    pub fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }
}

/// One producer's named metrics — or the exact merge of many.
///
/// Merging ([`TelemetryReport::absorb`]) sums counters and histogram
/// buckets and folds span aggregates, so a cluster-wide report is
/// independent of gather order, exactly like the completeness ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named simulated-time histograms.
    pub histograms: BTreeMap<String, LogHistogram>,
    /// Per-name aggregated span statistics.
    pub spans: BTreeMap<String, SpanStats>,
}

impl TelemetryReport {
    /// `true` when nothing was recorded (a disabled run).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another report into this one (exact sums; see type docs).
    pub fn absorb(&mut self, other: &TelemetryReport) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.spans {
            let e = self.spans.entry(k.clone()).or_insert(SpanStats {
                depth: s.depth,
                ..SpanStats::default()
            });
            e.count += s.count;
            e.total += s.total;
            e.max = e.max.max(s.max);
            e.depth = e.depth.min(s.depth);
        }
    }

    /// Render as an indented plain-text block (the `repro telemetry` and
    /// example output). A histogram whose sum clamped at the `u64`
    /// nanosecond ceiling is flagged `[sum saturated]` on its row.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(telemetry disabled — nothing recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40}{v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (simulated time):\n");
            let _ = writeln!(
                out,
                "  {:<32}{:>8}{:>12}{:>12}{:>12}{:>12}",
                "name", "n", "mean", "p50", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = write!(
                    out,
                    "  {:<32}{:>8}{:>12}{:>12}{:>12}{:>12}",
                    k,
                    h.count(),
                    h.mean().to_string(),
                    h.percentile(0.50).to_string(),
                    h.percentile(0.99).to_string(),
                    h.max().unwrap_or(SimDuration::ZERO).to_string(),
                );
                if h.saturated() {
                    out.push_str("  [sum saturated]");
                }
                out.push('\n');
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let _ = writeln!(
                out,
                "  {:<32}{:>8}{:>14}{:>14}",
                "name (indented by depth)", "n", "total", "max"
            );
            for (k, s) in &self.spans {
                let name = format!("{}{}", "  ".repeat(usize::from(s.depth)), k);
                let _ = writeln!(
                    out,
                    "  {:<32}{:>8}{:>14}{:>14}",
                    name,
                    s.count,
                    s.total.to_string(),
                    s.max.to_string()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_exact_moments() {
        let mut h = LogHistogram::new();
        for ns in [0u64, 1, 1, 7, 8, 1_000_000] {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 2); // the two 1s
        assert_eq!(h.buckets()[3], 1); // 7 in [4,8)
        assert_eq!(h.buckets()[4], 1); // 8 in [8,16)
        assert_eq!(h.min(), Some(SimDuration::ZERO));
        assert_eq!(h.max(), Some(SimDuration::from_nanos(1_000_000)));
        assert_eq!(h.sum(), SimDuration::from_nanos(1_000_017));
        // Mean is exact, not bucket-resolution.
        assert_eq!(h.mean(), SimDuration::from_nanos(1_000_017 / 6));
    }

    #[test]
    fn saturation_is_observable_not_silent() {
        let mut h = LogHistogram::new();
        let big = SimDuration::from_nanos(u64::MAX);
        h.record(big);
        assert!(!h.saturated());
        assert_eq!(h.sum(), big);
        h.record(big);
        // The u64 sum clamps, and says so.
        assert!(h.saturated());
        assert_eq!(h.sum(), big);
        // The mean stays exact (u128 accumulator).
        assert_eq!(h.mean(), big);
        // Merging saturated shards stays saturated, and the report says so.
        let mut merged = LogHistogram::new();
        merged.merge(&h);
        assert!(merged.saturated());
        let mut report = TelemetryReport::default();
        report.histograms.insert("big".into(), merged);
        assert!(report.render().contains("[sum saturated]"));
        // An unsaturated report never mentions it.
        let mut small = LogHistogram::new();
        small.record(SimDuration::from_millis(1));
        let mut report = TelemetryReport::default();
        report.histograms.insert("small".into(), small);
        assert!(!report.render().contains("saturated"));
    }

    #[test]
    fn constant_distribution_percentiles_are_exact() {
        // The clean-run case: every poll costs exactly the paper constant.
        let mut h = LogHistogram::new();
        let c = SimDuration::from_micros(1_100); // EMON's 1.10 ms
        for _ in 0..352 {
            h.record(c);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), c, "q = {q}");
        }
        assert_eq!(h.mean(), c);
    }

    #[test]
    fn percentiles_are_bucket_bounded_and_monotone() {
        let mut h = LogHistogram::new();
        for k in 1..=1000u64 {
            h.record(SimDuration::from_nanos(k * 1_000));
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max().expect("nonempty"));
        // p50 of 1..=1000 us lies in the [2^19, 2^20) ns bucket.
        assert!(p50 >= SimDuration::from_nanos(500_000));
        assert!(p50 <= SimDuration::from_nanos(1 << 20));
    }

    #[test]
    fn histogram_merge_is_exact_sum() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for k in 0..100u64 {
            let d = SimDuration::from_nanos(k * k);
            if k % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn report_absorb_is_order_independent() {
        let mk = |seed: u64| {
            let mut r = TelemetryReport::default();
            r.counters.insert("polls".into(), seed);
            let mut lat = LogHistogram::new();
            lat.record(SimDuration::from_nanos(seed * 37));
            r.histograms.insert("lat".into(), lat);
            let mut s = SpanStats::default();
            s.record(SimDuration::from_nanos(seed));
            r.spans.insert("s".into(), s);
            r
        };
        let parts: Vec<TelemetryReport> = (1..=5).map(mk).collect();
        let mut fwd = TelemetryReport::default();
        for p in &parts {
            fwd.absorb(p);
        }
        let mut rev = TelemetryReport::default();
        for p in parts.iter().rev() {
            rev.absorb(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.counter("polls"), 15);
        let s = fwd.spans["s"];
        assert_eq!((s.count, s.max), (5, SimDuration::from_nanos(5)));
        assert_eq!(s.total, SimDuration::from_nanos(15));
    }

    #[test]
    fn render_mentions_every_section() {
        let mut r = TelemetryReport::default();
        r.counters.insert("polls".into(), 2);
        let mut lat = LogHistogram::new();
        lat.record(SimDuration::from_millis(1));
        r.histograms.insert("query_latency/x".into(), lat);
        let mut session = SpanStats::default();
        session.record(SimDuration::from_secs(1));
        r.spans.insert("session".into(), session);
        let text = r.render();
        for needle in [
            "counters:",
            "histograms",
            "spans:",
            "polls",
            "query_latency/x",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(TelemetryReport::default().render().contains("disabled"));
    }
}
