//! In-memory time-series store: per-series ring buffers with exact rollup
//! tiers.
//!
//! The monitoring daemon (`envmon-serve`) ingests every collected record
//! into one [`TsStore`]. Each series keeps a fixed-capacity **raw ring**
//! of [`Sample`]s plus a stack of downsampled **tiers** (by default 1 s
//! and 60 s), each a ring of [`RollupBin`]s carrying exact
//! `count/sum/min/max`. Bins are accumulated *sample-by-sample at ingest
//! time, in ingest order* — never recomputed — so a window aggregate over
//! a tier reproduces, bit for bit, the fold [`SeriesData::aggregate_raw`]
//! performs over the raw samples with the same bin width. That identity
//! is the store's one load-bearing invariant; `tests/serve_prop.rs` and
//! the `query_sweep` bench gate on it.
//!
//! Window semantics are **bin-granular**: a query window `[from, to)`
//! widens to the enclosing bin boundaries (every bin whose start lies in
//! `[floor(from), to)` is included whole). Aligned windows are therefore
//! exact; unaligned ones are exact over the widened window. A reversed
//! window (`from > to`) holds no bin, even when both ends fall in one.
//! Bin grids are anchored at [`SimTime::ZERO`], so every store — and
//! every reference fold — agrees on bin edges without coordination.
//!
//! A tier keeps its closed bins as three columns that share one ring
//! index: bin starts, `(count, sum)` and `(min, max)`. A window query
//! never tests a bin start to decide what to fold. It finds the window's
//! first and end ring positions by arithmetic on the grid, counting slots
//! from the ring's oldest bin, and steps back only over grid slots no
//! sample fell into; a ring without such gaps needs no step. It then folds
//! that contiguous range (plus the open bin), reading only the columns the
//! answer needs: [`SeriesData::mean`] reads counts and sums,
//! [`SeriesData::aggregate`] all four fields. The bins are the same and
//! are folded in the same order as a scan would, and min and max fold by
//! a compare-select that is exact for the finite values the store holds,
//! so answers keep their bits (DESIGN.md §13.2). [`TsStore::means`] gives
//! every series' mean at once, eight series side by side, each with the
//! additions `mean` makes.
//!
//! The store is plain data with one writer (`record` takes `&mut self`).
//! Sharing it with readers is the owner's decision: `envmon-serve`'s
//! daemon publishes each store as a reference-counted view and writes
//! only into a store no reader holds (DESIGN.md §13.3).
//!
//! ```
//! use simkit::store::{StoreConfig, TsStore};
//! use simkit::{SimDuration, SimTime};
//!
//! let mut store = TsStore::new(StoreConfig::default());
//! let id = store.series("agent00000/nodecard/Chip Core");
//! for s in 0..120 {
//!     store.record(id, SimTime::from_secs(s), 700.0 + s as f64);
//! }
//! let window = (SimTime::ZERO, SimTime::from_secs(120));
//! let tier = store.get(id).aggregate(1, window.0, window.1); // 60 s tier
//! let raw = store
//!     .get(id)
//!     .aggregate_raw(SimDuration::from_secs(60), window.0, window.1);
//! assert_eq!(tier, raw); // rollups are exact, bit for bit
//! assert_eq!(tier.count, 120);
//! assert_eq!(store.get(id).mean(1, window.0, window.1), tier.mean());
//! ```

use crate::series::Sample;
use crate::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// One rollup tier: bins of `width` in a ring of at most `capacity` bins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierSpec {
    /// Bin width on the virtual timeline (must be non-zero).
    pub width: SimDuration,
    /// Maximum number of *closed* bins retained (must be non-zero); the
    /// bin currently accumulating is held separately and is never evicted.
    pub capacity: usize,
}

/// Capacity plan for every series in a [`TsStore`].
///
/// All series share one plan; the store allocates rings lazily, so unused
/// capacity costs nothing. The default mirrors bgq-sim's environmental
/// database shape: a raw ring plus 1 s and 60 s rollups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Raw samples retained per series (must be non-zero).
    pub raw_capacity: usize,
    /// Rollup tiers, coarsest-last by convention. May be empty.
    pub tiers: Vec<TierSpec>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            raw_capacity: 4096,
            tiers: vec![
                TierSpec {
                    width: SimDuration::from_secs(1),
                    capacity: 3600,
                },
                TierSpec {
                    width: SimDuration::from_secs(60),
                    capacity: 1440,
                },
            ],
        }
    }
}

impl StoreConfig {
    /// Panics unless every capacity and tier width is non-zero.
    fn validate(&self) {
        assert!(self.raw_capacity > 0, "raw_capacity must be non-zero");
        for (i, t) in self.tiers.iter().enumerate() {
            assert!(!t.width.is_zero(), "tier {i} width must be non-zero");
            assert!(t.capacity > 0, "tier {i} capacity must be non-zero");
        }
    }
}

/// Handle to one series of the [`TsStore`] that issued it.
///
/// Ids are dense (`0..store.len()`), assigned in first-registration order,
/// and remain valid in every clone of the same store — but are meaningless
/// in any other store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(u32);

impl SeriesId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The lesser of `held` and `new` by compare and select: `new` only when
/// it is strictly less, so of two equal values the one held stays.
///
/// Every value the store holds is finite (`record` rejects NaN and ±∞),
/// so unlike `f64::min` this needs no NaN fixup and compiles to a single
/// `minsd`, not an unordered-compare and mask chain per fold step. A
/// maximum folds as the negated lesser of negations, which is exact.
#[inline]
fn lesser(held: f64, new: f64) -> f64 {
    if new < held {
        new
    } else {
        held
    }
}

/// A window `[from, to)` resolved on one tier's grid: widened to
/// `[floor, to)`, where `floor` is `floor(from)` and `to` is the window's
/// end, or `floor` for a reversed window, so that it holds no bin. Each
/// end carries the first grid slot that starts at or after it.
#[derive(Clone, Copy, Debug)]
struct GridWindow {
    first: u64,
    floor: SimTime,
    end: u64,
    to: SimTime,
}

impl GridWindow {
    fn new(from: SimTime, to: SimTime, width: SimDuration) -> Self {
        let first = from.as_nanos() / width.as_nanos();
        let floor = SimTime::from_nanos(first * width.as_nanos());
        let to = if to < from { floor } else { to };
        GridWindow {
            first,
            floor,
            end: to.as_nanos().div_ceil(width.as_nanos()),
            to,
        }
    }
}

/// Series [`TsStore::means`] folds side by side: one independent add
/// chain each, so the core adds one series' bin while another's sum is
/// still in flight.
const LANES: usize = 8;

/// One downsampled bin: exact `count/sum/min/max` of the raw samples whose
/// timestamps fall in `[start, start + width)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RollupBin {
    /// Bin start (grid-aligned to [`SimTime::ZERO`]).
    pub start: SimTime,
    /// Number of samples accumulated.
    pub count: u64,
    /// Sum of samples, accumulated in ingest order.
    pub sum: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl RollupBin {
    fn open(start: SimTime, value: f64) -> Self {
        RollupBin {
            start,
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    fn accumulate(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = lesser(self.min, value);
        self.max = -lesser(-self.max, -value);
    }
}

/// Exact fold of zero or more [`RollupBin`]s (or raw samples).
///
/// An empty aggregate has `count == 0`, zero sum, and infinite min/max
/// sentinels; [`Aggregate::mean`] returns `None` for it. Two aggregates
/// built by folding the same bins in the same order are bitwise equal —
/// the property the rollup-exactness gates compare with `==`. Folded
/// values are finite, as the store holds them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aggregate {
    /// Total samples covered.
    pub count: u64,
    /// Exact sum (bin sums added in time order).
    pub sum: f64,
    /// Minimum sample, or `+∞` when empty.
    pub min: f64,
    /// Maximum sample, or `-∞` when empty.
    pub max: f64,
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Aggregate {
    /// Fold in `count` samples summing to `sum` and spanning `[min, max]`.
    #[inline]
    fn add(&mut self, count: u64, sum: f64, min: f64, max: f64) {
        self.count += count;
        self.sum += sum;
        self.min = lesser(self.min, min);
        self.max = -lesser(-self.max, -max);
    }

    /// Fold one bin in (bins must be supplied in time order for bitwise
    /// reproducibility).
    pub fn absorb_bin(&mut self, bin: &RollupBin) {
        self.add(bin.count, bin.sum, bin.min, bin.max);
    }

    /// Fold another aggregate in (skips empty ones so their infinite
    /// sentinels never leak into min/max).
    pub fn absorb(&mut self, other: &Aggregate) {
        if other.is_empty() {
            return;
        }
        self.add(other.count, other.sum, other.min, other.max);
    }

    /// Fold one raw sample in.
    pub fn absorb_value(&mut self, value: f64) {
        self.add(1, value, value, value);
    }

    /// `true` when nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// One tier: its closed bins as three columns sharing one ring index, plus
/// the bin currently accumulating.
///
/// Ring position `i` (0 = oldest closed bin) lives at column index
/// `(head + i) % len`. The columns grow to `capacity`; after that each
/// closed bin overwrites the oldest in place and advances `head`.
#[derive(Clone, Debug)]
struct TierBuf {
    width: SimDuration,
    capacity: usize,
    head: usize,
    /// Grid slots (`start / width`) of the oldest and the newest closed
    /// bin. `last_slot - first_slot == len - 1` exactly when no slot
    /// between them is empty.
    first_slot: u64,
    last_slot: u64,
    /// Bin starts, grid-aligned, ascending in ring order.
    starts: Vec<SimTime>,
    /// `(count, sum)` per bin: all a mean reads.
    sums: Vec<(u64, f64)>,
    /// `(min, max)` per bin.
    extremes: Vec<(f64, f64)>,
    open: Option<RollupBin>,
    evicted: u64,
}

impl TierBuf {
    fn new(spec: TierSpec) -> Self {
        TierBuf {
            width: spec.width,
            capacity: spec.capacity,
            head: 0,
            first_slot: 0,
            last_slot: 0,
            starts: Vec::new(),
            sums: Vec::new(),
            extremes: Vec::new(),
            open: None,
            evicted: 0,
        }
    }

    /// Closed bins retained.
    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Column index of ring position `i < len`.
    fn column(&self, i: usize) -> usize {
        let c = self.head + i;
        if c >= self.len() {
            c - self.len()
        } else {
            c
        }
    }

    /// Accumulate one sample (timestamps arrive non-decreasing; the store
    /// rejects late samples before they reach a tier). So a sample less
    /// than a width past the open bin's start falls in it, and only a
    /// sample that opens a bin divides to find its start.
    fn record(&mut self, at: SimTime, value: f64, stats: &mut StoreStats) {
        let start = || at.grid_floor(SimTime::ZERO, self.width);
        match &mut self.open {
            Some(bin) if at.saturating_since(bin.start) < self.width => bin.accumulate(value),
            Some(bin) => {
                let closed = std::mem::replace(bin, RollupBin::open(start(), value));
                stats.bins_closed += 1;
                self.push(closed, stats);
            }
            None => self.open = Some(RollupBin::open(start(), value)),
        }
    }

    /// Append a closed bin, evicting the oldest from a full ring.
    fn push(&mut self, bin: RollupBin, stats: &mut StoreStats) {
        let (start, sums, extremes) = (bin.start, (bin.count, bin.sum), (bin.min, bin.max));
        self.last_slot = start.as_nanos() / self.width.as_nanos();
        if self.len() < self.capacity {
            if self.starts.is_empty() {
                self.first_slot = self.last_slot;
            }
            self.starts.push(start);
            self.sums.push(sums);
            self.extremes.push(extremes);
            return;
        }
        let c = self.head;
        self.starts[c] = start;
        self.sums[c] = sums;
        self.extremes[c] = extremes;
        self.head = if c + 1 == self.capacity { 0 } else { c + 1 };
        self.first_slot = self.starts[self.head].as_nanos() / self.width.as_nanos();
        self.evicted += 1;
        stats.bins_evicted += 1;
    }

    /// The closed bin at column index `c`.
    fn bin(&self, c: usize) -> RollupBin {
        let ((count, sum), (min, max)) = (self.sums[c], self.extremes[c]);
        RollupBin {
            start: self.starts[c],
            count,
            sum,
            min,
            max,
        }
    }

    /// Ring position of the first closed bin that starts at or after
    /// `bound` (`len` when none does), where `slot` is the first grid slot
    /// that starts at or after `bound`.
    ///
    /// Bin `i` sits at grid slot `first_slot + i` or later, later exactly
    /// by the empty slots before it, so the slot arithmetic never lands
    /// before the answer: it can only overshoot by the empty slots between
    /// the ring's first bin and `bound`, and only those are stepped back
    /// over. A ring with no empty slot needs no step, so it reads no start.
    fn seek(&self, slot: u64, bound: SimTime) -> usize {
        let n = self.len();
        let mut i = usize::try_from(slot.saturating_sub(self.first_slot)).map_or(n, |s| s.min(n));
        if self.last_slot - self.first_slot >= n as u64 {
            while i > 0 && self.starts[self.column(i - 1)] >= bound {
                i -= 1;
            }
        }
        i
    }

    /// Ring positions `lo..hi` of the closed bins in window `w`, resolved
    /// on this tier's grid, and the open bin when it is in it too.
    fn window(&self, w: &GridWindow) -> Located<'_> {
        let lo = self.seek(w.first, w.floor);
        let hi = self.seek(w.end, w.to).max(lo);
        let open = self
            .open
            .as_ref()
            .filter(|b| b.start >= w.floor && b.start < w.to);
        (lo..hi, open)
    }

    /// The mean of the bins [`TierBuf::window`] located: their counts and
    /// sums added in time order from zero, then the open bin's.
    fn mean(&self, (range, open): Located<'_>) -> Option<f64> {
        let mut agg = Aggregate::default();
        for cols in self.spans(range) {
            for &(count, sum) in &self.sums[cols] {
                agg.count += count;
                agg.sum += sum;
            }
        }
        if let Some(bin) = open {
            agg.count += bin.count;
            agg.sum += bin.sum;
        }
        agg.mean()
    }

    /// The column-index ranges holding ring positions `lo..hi`, oldest
    /// first: two when the range wraps past the end of the columns.
    fn spans(&self, Range { start, end }: Range<usize>) -> [Range<usize>; 2] {
        let n = self.len();
        let (a, b) = (self.head + start, self.head + end);
        if b <= n {
            [a..b, 0..0]
        } else if a >= n {
            [a - n..b - n, 0..0]
        } else {
            [a..n, 0..b - n]
        }
    }
}

/// What [`TierBuf::window`] locates: ring positions of closed bins, and
/// the open bin when it is in the window.
type Located<'a> = (Range<usize>, Option<&'a RollupBin>);

/// The `(count, sum)` column of each tier's located bins, when each is one
/// unwrapped run and all runs have one length.
fn one_run_each<'a>(
    tiers: &[&'a TierBuf; LANES],
    located: &[Located<'_>; LANES],
) -> Option<[&'a [(u64, f64)]; LANES]> {
    let spans: [_; LANES] = std::array::from_fn(|l| tiers[l].spans(located[l].0.clone()));
    let n = spans[0][0].len();
    spans
        .iter()
        .all(|[run, wrapped]| run.len() == n && wrapped.is_empty())
        .then(|| std::array::from_fn(|l| &tiers[l].sums[spans[l][0].clone()]))
}

/// [`TierBuf::mean`] of window `w` in each of [`LANES`] tiers.
///
/// When every tier's located bins are one unwrapped run of the same
/// length, bin `j` of every run is added before bin `j + 1` of any, each
/// tier into its own count and sum from zero, then each open bin: the
/// additions of [`TierBuf::mean`] in its order, so every mean keeps its
/// bits, but as independent chains. Otherwise each tier folds alone.
fn lane_means(tiers: [&TierBuf; LANES], w: &GridWindow) -> [Option<f64>; LANES] {
    let located = tiers.map(|t| t.window(w));
    let Some(runs) = one_run_each(&tiers, &located) else {
        return std::array::from_fn(|l| tiers[l].mean(located[l].clone()));
    };
    // Every run is `n` long; slicing each to `n` tells the compiler so,
    // which lets it drop the bounds check on `run[j]` below.
    let n = runs[0].len();
    let runs = runs.map(|run| &run[..n]);
    let mut counts = [0u64; LANES];
    let mut sums = [0.0f64; LANES];
    for j in 0..n {
        for (l, run) in runs.iter().enumerate() {
            let (count, sum) = run[j];
            counts[l] += count;
            sums[l] += sum;
        }
    }
    std::array::from_fn(|l| {
        let mut agg = Aggregate {
            count: counts[l],
            sum: sums[l],
            ..Aggregate::default()
        };
        if let Some(bin) = located[l].1 {
            agg.count += bin.count;
            agg.sum += bin.sum;
        }
        agg.mean()
    })
}

/// Exact ingest-side counters for one [`TsStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Samples accepted into the store.
    pub recorded: u64,
    /// Samples rejected because they predate their series' newest sample.
    pub rejected_late: u64,
    /// Samples rejected because their value is NaN or infinite.
    pub rejected_nonfinite: u64,
    /// Raw samples evicted from full rings (each was already folded into
    /// every tier's bins at ingest, so eviction loses no rolled-up data).
    pub raw_evicted: u64,
    /// Rollup bins closed (sealed by the arrival of a later bin's sample).
    pub bins_closed: u64,
    /// Closed rollup bins evicted from full tier rings.
    pub bins_evicted: u64,
}

/// One series: raw ring, rollup tiers, and lifetime accounting.
#[derive(Clone, Debug)]
pub struct SeriesData {
    raw: VecDeque<Sample>,
    raw_capacity: usize,
    raw_evicted: u64,
    last: Option<Sample>,
    lifetime: Aggregate,
    tiers: Vec<TierBuf>,
}

impl SeriesData {
    fn new(cfg: &StoreConfig) -> Self {
        SeriesData {
            raw: VecDeque::new(),
            raw_capacity: cfg.raw_capacity,
            raw_evicted: 0,
            last: None,
            lifetime: Aggregate::default(),
            tiers: cfg.tiers.iter().map(|&t| TierBuf::new(t)).collect(),
        }
    }

    fn record(&mut self, at: SimTime, value: f64, stats: &mut StoreStats) {
        let sample = Sample { at, value };
        self.last = Some(sample);
        self.lifetime.absorb_value(value);
        for tier in &mut self.tiers {
            tier.record(at, value, stats);
        }
        if self.raw.len() == self.raw_capacity {
            self.raw.pop_front();
            self.raw_evicted += 1;
            stats.raw_evicted += 1;
        }
        self.raw.push_back(sample);
    }

    /// Raw samples evicted so far (already rolled up into every tier).
    pub fn raw_evicted(&self) -> u64 {
        self.raw_evicted
    }

    /// The newest sample, if any (survives raw eviction).
    pub fn last(&self) -> Option<Sample> {
        self.last
    }

    /// Exact fold over every sample ever ingested, including evicted ones.
    pub fn lifetime(&self) -> Aggregate {
        self.lifetime
    }

    /// Retained raw samples with `from <= at < to`, in time order.
    ///
    /// Exact (not bin-granular), but bounded by the raw ring: samples
    /// older than the ring's horizon have been evicted — check
    /// [`SeriesData::raw_evicted`] or fall back to a tier.
    pub fn raw_range(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = Sample> + '_ {
        let start = self.raw.partition_point(|s| s.at < from);
        self.raw
            .iter()
            .skip(start)
            .take_while(move |s| s.at < to)
            .copied()
    }

    /// Number of rollup tiers (mirrors [`StoreConfig::tiers`]).
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Bin width of tier `tier`.
    ///
    /// # Panics
    /// Panics if `tier` is out of range.
    pub fn tier_width(&self, tier: usize) -> SimDuration {
        self.tiers[tier].width
    }

    /// Bins evicted from tier `tier` so far.
    ///
    /// # Panics
    /// Panics if `tier` is out of range.
    pub fn tier_evicted(&self, tier: usize) -> u64 {
        self.tiers[tier].evicted
    }

    /// Retained bins of tier `tier` in time order — closed bins first,
    /// then the still-accumulating open bin when one exists.
    ///
    /// # Panics
    /// Panics if `tier` is out of range.
    pub fn tier_bins(&self, tier: usize) -> impl Iterator<Item = RollupBin> + '_ {
        let t = &self.tiers[tier];
        (0..t.len()).map(|i| t.bin(t.column(i))).chain(t.open)
    }

    /// Exact bin-granular aggregate of tier `tier` over `[from, to)`:
    /// folds every retained bin whose start lies in `[floor(from), to)`,
    /// in time order (none when `from > to`). Bitwise equal to [`SeriesData::aggregate_raw`] with
    /// the tier's width whenever the raw ring still covers the window.
    ///
    /// # Panics
    /// Panics if `tier` is out of range.
    pub fn aggregate(&self, tier: usize, from: SimTime, to: SimTime) -> Aggregate {
        let t = &self.tiers[tier];
        let (range, open) = t.window(&GridWindow::new(from, to, t.width));
        let mut agg = Aggregate::default();
        // The minimum and the negated maximum fold side by side through the
        // same compare-select, which the compiler packs into one vector
        // minimum per bin; a (min, max) pair packs into a compare-and-blend
        // chain instead, which ran domain aggregates about 1.5x slower.
        let mut low = (agg.min, -agg.max);
        for cols in t.spans(range) {
            for (&(count, sum), &(min, max)) in t.sums[cols.clone()].iter().zip(&t.extremes[cols]) {
                agg.count += count;
                agg.sum += sum;
                low = (lesser(low.0, min), lesser(low.1, -max));
            }
        }
        (agg.min, agg.max) = (low.0, -low.1);
        if let Some(bin) = open {
            agg.absorb_bin(bin);
        }
        agg
    }

    /// The mean of tier `tier` over `[from, to)`: bitwise equal to
    /// `self.aggregate(tier, from, to).mean()`, but it folds only the bins'
    /// counts and sums.
    ///
    /// # Panics
    /// Panics if `tier` is out of range.
    pub fn mean(&self, tier: usize, from: SimTime, to: SimTime) -> Option<f64> {
        let t = &self.tiers[tier];
        t.mean(t.window(&GridWindow::new(from, to, t.width)))
    }

    /// Reference implementation of [`SeriesData::aggregate`]: groups the
    /// retained raw samples into `width` bins on the same
    /// [`SimTime::ZERO`]-anchored grid, accumulating each bin in ingest
    /// order and folding bins in time order — the identical arithmetic
    /// path, so the results are comparable with `==`.
    ///
    /// Only meaningful while the raw ring still covers `[from, to)`.
    ///
    /// # Panics
    ///
    /// If `width` is zero: a bin grid has a positive width.
    pub fn aggregate_raw(&self, width: SimDuration, from: SimTime, to: SimTime) -> Aggregate {
        assert!(!width.is_zero(), "aggregate_raw width must be non-zero");
        let GridWindow { floor, to, .. } = GridWindow::new(from, to, width);
        let mut agg = Aggregate::default();
        let mut open: Option<RollupBin> = None;
        for s in &self.raw {
            let start = s.at.grid_floor(SimTime::ZERO, width);
            if start < floor || start >= to {
                continue;
            }
            match &mut open {
                Some(bin) if bin.start == start => bin.accumulate(s.value),
                Some(bin) => {
                    let closed = std::mem::replace(bin, RollupBin::open(start, s.value));
                    agg.absorb_bin(&closed);
                }
                None => open = Some(RollupBin::open(start, s.value)),
            }
        }
        if let Some(bin) = open {
            agg.absorb_bin(&bin);
        }
        agg
    }
}

/// An appendable store of named series.
///
/// Single-writer by construction (`record` takes `&mut self`). See the
/// module docs for how a daemon shares it with readers.
#[derive(Clone, Debug)]
pub struct TsStore {
    cfg: StoreConfig,
    names: Vec<String>,
    index: HashMap<String, u32>,
    series: Vec<SeriesData>,
    stats: StoreStats,
}

impl TsStore {
    /// An empty store with the given capacity plan.
    ///
    /// # Panics
    /// Panics if any capacity or tier width in `cfg` is zero.
    pub fn new(cfg: StoreConfig) -> Self {
        cfg.validate();
        TsStore {
            cfg,
            names: Vec::new(),
            index: HashMap::new(),
            series: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// The capacity plan every series follows.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when no series have been registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Ingest counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The id for `name`, registering an empty series on first use.
    ///
    /// # Panics
    ///
    /// If registering `name` would make more than `u32::MAX` series, the
    /// range a [`SeriesId`] holds; memory runs out long before that many
    /// names are stored.
    pub fn series(&mut self, name: &str) -> SeriesId {
        if let Some(id) = self.find(name) {
            return id;
        }
        let i = u32::try_from(self.series.len()).expect("more than u32::MAX series");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        self.series.push(SeriesData::new(&self.cfg));
        SeriesId(i)
    }

    /// Look up a series by name without registering it.
    pub fn find(&self, name: &str) -> Option<SeriesId> {
        self.index.get(name).map(|&i| SeriesId(i))
    }

    /// The name `id` was registered under.
    ///
    /// # Panics
    /// Panics if `id` came from a different store.
    pub fn name(&self, id: SeriesId) -> &str {
        &self.names[id.index()]
    }

    /// Read access to one series.
    ///
    /// # Panics
    /// Panics if `id` came from a different store.
    pub fn get(&self, id: SeriesId) -> &SeriesData {
        &self.series[id.index()]
    }

    /// All series ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = SeriesId> + '_ {
        (0..self.series.len()).map(|i| SeriesId(i as u32))
    }

    /// The mean of tier `tier` over `[from, to)` of every series that has
    /// one, passed to `each` in id order: for every id, what
    /// [`SeriesData::mean`] returns for it, bit for bit.
    ///
    /// The window is resolved on the tier's grid once, and series fold
    /// eight at a time. A group whose located bins are one unwrapped run
    /// of one length in every series adds them side by side, one add chain
    /// per series, each in the order `mean` adds them. Any other group,
    /// and the last `len % 8` series, fold one series at a time.
    ///
    /// # Panics
    ///
    /// If `tier` is out of range of the store's plan ([`TsStore::config`]).
    pub fn means(
        &self,
        tier: usize,
        from: SimTime,
        to: SimTime,
        mut each: impl FnMut(SeriesId, f64),
    ) {
        let w = GridWindow::new(from, to, self.cfg.tiers[tier].width);
        let groups = self.series.chunks_exact(LANES);
        let rest = groups.remainder().iter().map(|s| {
            let t = &s.tiers[tier];
            t.mean(t.window(&w))
        });
        let means = groups
            .flat_map(|g| lane_means(std::array::from_fn(|l| &g[l].tiers[tier]), &w))
            .chain(rest);
        for (id, mean) in self.ids().zip(means) {
            if let Some(mean) = mean {
                each(id, mean);
            }
        }
    }

    /// Ingest one sample. Returns `false` when the sample is rejected:
    /// a NaN or infinite `value` counts `rejected_nonfinite`, and an `at`
    /// that predates the series' newest sample counts `rejected_late`
    /// (equal timestamps are accepted). A rejected sample leaves the
    /// series untouched.
    ///
    /// # Panics
    /// Panics if `id` came from a different store.
    pub fn record(&mut self, id: SeriesId, at: SimTime, value: f64) -> bool {
        if !value.is_finite() {
            self.stats.rejected_nonfinite += 1;
            return false;
        }
        let series = &mut self.series[id.index()];
        if series.last.is_some_and(|l| at < l.at) {
            self.stats.rejected_late += 1;
            return false;
        }
        series.record(at, value, &mut self.stats);
        self.stats.recorded += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StoreConfig {
        StoreConfig {
            raw_capacity: 8,
            tiers: vec![
                TierSpec {
                    width: SimDuration::from_secs(1),
                    capacity: 4,
                },
                TierSpec {
                    width: SimDuration::from_secs(60),
                    capacity: 2,
                },
            ],
        }
    }

    /// A deterministic but irregular value stream.
    fn value(i: u64) -> f64 {
        700.0 + ((i * 2654435761) % 997) as f64 / 7.0
    }

    /// Every window with ends on a 500 ms grid from 0 to 12 s: bin edges,
    /// bin middles, before the rings, past them and reversed.
    fn windows() -> impl Iterator<Item = (SimTime, SimTime)> {
        let ends = || (0..=24).map(|h| SimTime::from_millis(500 * h));
        ends().flat_map(move |from| ends().map(move |to| (from, to)))
    }

    #[test]
    fn tier_aggregate_matches_raw_fold_bitwise() {
        // Capacities large enough that nothing is evicted over the window.
        let mut store = TsStore::new(StoreConfig::default());
        let id = store.series("a/dev/dom");
        // 560 ms cadence: lands unaligned in both tiers.
        for i in 0..400 {
            store.record(id, SimTime::from_millis(560 * i), value(i));
        }
        let d = store.get(id);
        let to = SimTime::from_millis(560 * 400);
        for tier in 0..d.tier_count() {
            let width = d.tier_width(tier);
            assert_eq!(
                d.aggregate(tier, SimTime::ZERO, to),
                d.aggregate_raw(width, SimTime::ZERO, to),
                "tier {tier}"
            );
            // Unaligned sub-window, widened identically by both sides.
            let from = SimTime::from_millis(61_137);
            let mid = SimTime::from_millis(140_003);
            assert_eq!(
                d.aggregate(tier, from, mid),
                d.aggregate_raw(width, from, mid),
                "tier {tier} sub-window"
            );
        }
    }

    #[test]
    fn eviction_loses_no_rolled_up_sample() {
        let mut store = TsStore::new(tiny());
        let id = store.series("a/dev/dom");
        for i in 0..100 {
            store.record(id, SimTime::from_millis(250 * i), value(i));
        }
        let d = store.get(id);
        // Raw ring kept only the newest 8 of 100.
        assert_eq!(d.raw_range(SimTime::ZERO, SimTime::MAX).count(), 8);
        assert_eq!(d.raw_evicted(), 92);
        assert_eq!(d.lifetime().count, 100);
        // Every sample reached every tier before any eviction: retained
        // bins plus evicted bins account for all 100 samples. The 60 s
        // tier evicted nothing (25 s of data), so its counts are exact.
        let total: u64 = d.tier_bins(1).map(|b| b.count).sum();
        assert_eq!(d.tier_evicted(1), 0);
        assert_eq!(total, 100);
        // The 1 s tier holds 4 closed + 1 open bins; the rest evicted.
        let kept: u64 = d.tier_bins(0).map(|b| b.count).sum();
        assert_eq!(d.tier_evicted(0), 20);
        assert_eq!(kept, 4 * 4 + 4); // 4 samples per 1 s bin at 250 ms
        let stats = store.stats();
        assert_eq!(stats.recorded, 100);
        assert_eq!(stats.raw_evicted, 92);
        assert_eq!(stats.bins_evicted, 20);
    }

    #[test]
    fn gap_free_ring_locates_exactly_the_window_bins() {
        // Four samples in every 1 s bin for 10 s: bins 0..=8 close, the
        // ring of 6 keeps 3..=8 (so it has wrapped) and bin 9 stays open.
        let mut cfg = tiny();
        cfg.tiers[0].capacity = 6;
        let mut store = TsStore::new(cfg);
        let id = store.series("a/dev/dom");
        for i in 0..40 {
            store.record(id, SimTime::from_millis(250 * i), value(i));
        }
        let t = &store.get(id).tiers[0];
        assert_eq!((t.len(), t.head, t.evicted), (6, 3, 3));
        let starts: Vec<SimTime> = (0..t.len()).map(|i| t.starts[t.column(i)]).collect();
        assert_eq!(starts, (3..9).map(SimTime::from_secs).collect::<Vec<_>>());
        for (from, to) in windows() {
            let floor = from.grid_floor(SimTime::ZERO, t.width);
            let want: Vec<usize> = (0..t.len())
                .filter(|&i| from <= to && starts[i] >= floor && starts[i] < to)
                .collect();
            let (range, open) = t.window(&GridWindow::new(from, to, t.width));
            let got: Vec<usize> = range.clone().collect();
            assert_eq!(got, want, "[{from}, {to})");
            // The columns the fold reads hold exactly those bins.
            let cols: Vec<SimTime> = t
                .spans(range)
                .into_iter()
                .flat_map(|r| t.starts[r].iter().copied())
                .collect();
            let want_starts: Vec<SimTime> = want.iter().map(|&i| starts[i]).collect();
            assert_eq!(cols, want_starts, "[{from}, {to})");
            let open_in =
                from <= to && floor <= SimTime::from_secs(9) && SimTime::from_secs(9) < to;
            assert_eq!(open.is_some(), open_in, "[{from}, {to})");
        }
    }

    #[test]
    fn late_samples_are_rejected_and_counted() {
        let mut store = TsStore::new(tiny());
        let id = store.series("a/dev/dom");
        assert!(store.record(id, SimTime::from_secs(5), 1.0));
        assert!(!store.record(id, SimTime::from_secs(4), 2.0));
        // Equal timestamps are fine (distinct series cover the usual case,
        // but a stale substitution can restamp within one).
        assert!(store.record(id, SimTime::from_secs(5), 3.0));
        let stats = store.stats();
        assert_eq!(stats.recorded, 2);
        assert_eq!(stats.rejected_late, 1);
        assert_eq!(store.get(id).lifetime().count, 2);
    }

    #[test]
    fn nonfinite_values_are_rejected_and_counted() {
        let mut store = TsStore::new(tiny());
        let id = store.series("a/dev/dom");
        assert!(store.record(id, SimTime::from_secs(1), 1.0));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!store.record(id, SimTime::from_secs(2), v));
        }
        let stats = store.stats();
        assert_eq!(stats.recorded, 1);
        assert_eq!(stats.rejected_nonfinite, 3);
        assert_eq!(stats.rejected_late, 0);
        let d = store.get(id);
        assert_eq!(d.lifetime().count, 1);
        assert_eq!(d.last().map(|s| s.at), Some(SimTime::from_secs(1)));
        assert_eq!(d.tier_bins(0).map(|b| b.count).sum::<u64>(), 1);
    }

    #[test]
    fn series_ids_are_stable_and_named() {
        let mut store = TsStore::new(tiny());
        let a = store.series("alpha");
        let b = store.series("beta");
        assert_eq!(store.series("alpha"), a);
        assert_ne!(a, b);
        assert_eq!(store.name(b), "beta");
        assert_eq!(store.find("beta"), Some(b));
        assert_eq!(store.find("gamma"), None);
        assert_eq!(store.len(), 2);
        assert_eq!(store.ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn bin_boundary_samples_are_counted_exactly_once() {
        // Regression: a sample whose timestamp sits exactly on a tier-bin
        // grid edge arrives in the same `record` call that closes the
        // previous bin, pushes it into a full tier ring (evicting), and
        // evicts from the full raw ring. Every counter must move exactly
        // once — the sample in exactly one bin, never both sides of the
        // edge, and never dropped.
        let mut store = TsStore::new(tiny());
        let id = store.series("a/dev/dom");
        let w = SimDuration::from_secs(1);
        let n = 10u64; // 10 bins against tier capacity 4 → tier eviction
        for k in 0..n {
            let start = SimTime::from_secs(k);
            // One sample exactly on the bin start, one at the last
            // nanosecond of the same bin: first and last instants of bin k.
            store.record(id, start, value(2 * k));
            store.record(id, start + w - SimDuration::from_nanos(1), value(2 * k + 1));
        }
        let d = store.get(id);
        // Every retained 1 s bin holds exactly its two edge samples.
        for bin in d.tier_bins(0) {
            assert_eq!(bin.count, 2, "bin at {}", bin.start);
            assert_eq!(bin.start, bin.start.grid_floor(SimTime::ZERO, w));
        }
        // Exactly-once across the tier ring edge: retained bin samples
        // plus two per evicted bin account for everything recorded.
        let retained: u64 = d.tier_bins(0).map(|b| b.count).sum();
        assert_eq!(retained + 2 * d.tier_evicted(0), 2 * n);
        // The store-wide ledger balances the same tick: 9 bins closed
        // (the 10th is still open), 5 of them evicted past capacity 4.
        let stats = store.stats();
        assert_eq!(stats.recorded, 2 * n);
        assert_eq!(stats.rejected_late, 0);
        assert_eq!(stats.bins_closed, n - 1);
        assert_eq!(stats.bins_evicted, n - 1 - 4);
        assert_eq!(stats.raw_evicted, 2 * n - 8);
        assert_eq!(d.raw_range(SimTime::ZERO, SimTime::MAX).count(), 8);
        // The 60 s tier holds the same 20 samples in its one open bin.
        assert_eq!(d.tier_bins(1).map(|b| b.count).sum::<u64>(), 2 * n);
        // Bin-aligned query windows cut exactly on the edge: [k, k+1)
        // takes bin k whole — including the open bin — and nothing else.
        assert_eq!(
            d.aggregate(0, SimTime::from_secs(8), SimTime::from_secs(9))
                .count,
            2
        );
        assert_eq!(
            d.aggregate(0, SimTime::from_secs(9), SimTime::from_secs(10))
                .count,
            2
        );
    }

    /// `TsStore::means` over `[from, to)`, as `(id, mean bits)` pairs in
    /// the order it passes them.
    fn lane_bits(store: &TsStore, tier: usize, from: SimTime, to: SimTime) -> Vec<(SeriesId, u64)> {
        let mut got = Vec::new();
        store.means(tier, from, to, |id, mean| got.push((id, mean.to_bits())));
        got
    }

    /// Each series' own `SeriesData::mean`, as `(id, mean bits)` pairs in
    /// id order.
    fn series_bits(
        store: &TsStore,
        tier: usize,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SeriesId, u64)> {
        store
            .ids()
            .filter_map(|id| Some((id, store.get(id).mean(tier, from, to)?.to_bits())))
            .collect()
    }

    /// Whether `means` folds the `g`-th group of eight series side by side.
    fn side_by_side(store: &TsStore, g: usize, tier: usize, from: SimTime, to: SimTime) -> bool {
        let tiers: [&TierBuf; LANES] =
            std::array::from_fn(|l| &store.series[g * LANES + l].tiers[tier]);
        let w = GridWindow::new(from, to, tiers[0].width);
        one_run_each(&tiers, &tiers.map(|t| t.window(&w))).is_some()
    }

    #[test]
    fn eight_gap_free_series_fold_side_by_side() {
        // Four samples in every 1 s bin for 10 s, each series its own
        // values: eight rings of one shape, none wrapped.
        let mut cfg = tiny();
        cfg.tiers[0].capacity = 16;
        let mut store = TsStore::new(cfg);
        for k in 0..8 {
            let id = store.series(&format!("a{k}/dev/dom"));
            for i in 0..40 {
                store.record(id, SimTime::from_millis(250 * i), value(8 * i + k));
            }
        }
        for (from, to) in windows() {
            for tier in 0..2 {
                assert!(side_by_side(&store, 0, tier, from, to), "[{from}, {to})");
                let want = series_bits(&store, tier, from, to);
                assert_eq!(lane_bits(&store, tier, from, to), want, "[{from}, {to})");
            }
        }
        // A window over every bin yields all eight, in id order.
        let all = lane_bits(&store, 0, SimTime::ZERO, SimTime::from_secs(10));
        let ids: Vec<SeriesId> = all.iter().map(|p| p.0).collect();
        assert_eq!(ids, store.ids().collect::<Vec<_>>());
    }

    #[test]
    fn a_group_with_one_wrapped_ring_folds_each_series() {
        // Series 0 samples 0-10 s: its ring of 6 keeps bins 3..=8 from
        // column 3, so it has wrapped. Series 1-7 sample 6-10 s: bins
        // 6..=8 from column 0.
        let mut cfg = tiny();
        cfg.tiers[0].capacity = 6;
        let mut store = TsStore::new(cfg);
        for k in 0..8u64 {
            let id = store.series(&format!("a{k}/dev/dom"));
            let first = if k == 0 { 0 } else { 24 };
            for i in first..40 {
                store.record(id, SimTime::from_millis(250 * i), value(8 * i + k));
            }
        }
        // Over [3 s, 9 s) every series' first column run is three bins
        // long, but series 0's six bins wrap into a second run, so each
        // series folds alone. Over [6 s, 9 s) every series holds bins
        // 6..=8 in one run, so the group folds side by side.
        let (from, to) = (SimTime::from_secs(3), SimTime::from_secs(9));
        let runs = |k: u32| {
            let t = &store.get(SeriesId(k)).tiers[0];
            t.spans(t.window(&GridWindow::new(from, to, t.width)).0)
        };
        assert_eq!(runs(0), [3..6, 0..3]);
        assert!((1..8).all(|k| runs(k) == [0..3, 0..0]));
        assert!(!side_by_side(&store, 0, 0, from, to));
        assert!(side_by_side(&store, 0, 0, SimTime::from_secs(6), to));
        for (from, to) in windows() {
            for tier in 0..2 {
                let want = series_bits(&store, tier, from, to);
                assert_eq!(lane_bits(&store, tier, from, to), want, "[{from}, {to})");
            }
        }
    }

    #[test]
    fn a_ninth_series_folds_alone() {
        // Nine gap-free series: one group of eight and a remainder of one,
        // which samples every 700 ms so its bins differ from the group's.
        let mut store = TsStore::new(StoreConfig::default());
        for k in 0..9u64 {
            let id = store.series(&format!("a{k}/dev/dom"));
            let step = if k == 8 { 700 } else { 250 };
            for i in 0..(10_000 / step) {
                store.record(id, SimTime::from_millis(step * i), value(8 * i + k));
            }
        }
        assert_eq!(store.series.chunks_exact(LANES).remainder().len(), 1);
        for (from, to) in windows() {
            for tier in 0..2 {
                let want = series_bits(&store, tier, from, to);
                assert_eq!(lane_bits(&store, tier, from, to), want, "[{from}, {to})");
            }
        }
        let all = lane_bits(&store, 0, SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(all.len(), 9);
        assert_eq!(all[8].0, SeriesId(8));
    }

    #[test]
    fn empty_aggregate_has_no_mean() {
        let agg = Aggregate::default();
        assert!(agg.is_empty());
        assert_eq!(agg.mean(), None);
        let mut one = Aggregate::default();
        one.absorb_value(3.0);
        assert_eq!(one.mean(), Some(3.0));
    }
}
