//! In-memory time-series store: per-series ring buffers with exact rollup
//! tiers and cheap copy-on-write snapshots.
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
//! exact; unaligned ones are exact over the widened window. Bin grids are
//! anchored at [`SimTime::ZERO`], so every store — and every reference
//! fold — agrees on bin edges without coordination.
//!
//! Readers never block writers: series data lives behind per-series
//! [`Arc`]s, the writer mutates through [`Arc::make_mut`], and
//! [`TsStore::snapshot`] clones only the `Arc` spine (and shares the name
//! index). A snapshot is an immutable, internally consistent view as of
//! the publish instant.
//!
//! Taking a snapshot is O(series), but it moves a cost rather than
//! removing it: while a snapshot is alive, the writer's next `record` on
//! each series it shares copies that series' whole history (raw ring and
//! every tier) before appending — a cost that grows with retained
//! history, not with the sample. [`TsStore::cow_copies`] counts those
//! copies. A writer that publishes every tick should therefore write into
//! a store whose last snapshot has been released; `envmon-serve`'s daemon
//! keeps two stores a tick apart for exactly that (DESIGN.md §13.3).
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
//! let snap = store.snapshot(SimTime::from_secs(120));
//! let window = (SimTime::ZERO, SimTime::from_secs(120));
//! let tier = snap.get(id).aggregate(1, window.0, window.1); // 60 s tier
//! let raw = snap
//!     .get(id)
//!     .aggregate_raw(SimDuration::from_secs(60), window.0, window.1);
//! assert_eq!(tier, raw); // rollups are exact, bit for bit
//! assert_eq!(tier.count, 120);
//! ```

use crate::series::Sample;
use crate::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

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
/// and remain valid in every snapshot taken from the same store — but are
/// meaningless in any other store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(u32);

impl SeriesId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

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
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// Exact fold of zero or more [`RollupBin`]s (or raw samples).
///
/// An empty aggregate has `count == 0`, zero sum, and infinite min/max
/// sentinels; [`Aggregate::mean`] returns `None` for it. Two aggregates
/// built by folding the same bins in the same order are bitwise equal —
/// the property the rollup-exactness gates compare with `==`.
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
    /// Fold one bin in (bins must be supplied in time order for bitwise
    /// reproducibility).
    pub fn absorb_bin(&mut self, bin: &RollupBin) {
        self.count += bin.count;
        self.sum += bin.sum;
        self.min = self.min.min(bin.min);
        self.max = self.max.max(bin.max);
    }

    /// Fold another aggregate in (skips empty ones so their infinite
    /// sentinels never leak into min/max).
    pub fn absorb(&mut self, other: &Aggregate) {
        if other.is_empty() {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold one raw sample in.
    pub fn absorb_value(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
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

/// One tier's ring of closed bins plus the bin currently accumulating.
#[derive(Clone, Debug)]
struct TierBuf {
    width: SimDuration,
    capacity: usize,
    bins: VecDeque<RollupBin>,
    open: Option<RollupBin>,
    evicted: u64,
}

impl TierBuf {
    fn new(spec: TierSpec) -> Self {
        TierBuf {
            width: spec.width,
            capacity: spec.capacity,
            bins: VecDeque::new(),
            open: None,
            evicted: 0,
        }
    }

    /// Accumulate one sample (timestamps arrive non-decreasing; the store
    /// rejects late samples before they reach a tier).
    fn record(&mut self, at: SimTime, value: f64, stats: &mut StoreStats) {
        let start = at.grid_floor(SimTime::ZERO, self.width);
        match &mut self.open {
            Some(bin) if bin.start == start => bin.accumulate(value),
            Some(bin) => {
                let closed = std::mem::replace(bin, RollupBin::open(start, value));
                stats.bins_closed += 1;
                if self.bins.len() == self.capacity {
                    self.bins.pop_front();
                    self.evicted += 1;
                    stats.bins_evicted += 1;
                }
                self.bins.push_back(closed);
            }
            None => self.open = Some(RollupBin::open(start, value)),
        }
    }

    /// Closed bins in time order, then the open bin when any.
    fn iter(&self) -> impl Iterator<Item = &RollupBin> {
        self.bins.iter().chain(self.open.as_ref())
    }
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
///
/// All query methods live here so [`TsStore`] (the writer) and
/// [`StoreSnapshot`] (concurrent readers) answer through the same code.
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

    /// Raw samples currently retained.
    pub fn raw_len(&self) -> usize {
        self.raw.len()
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
        self.tiers[tier].iter().copied()
    }

    /// Exact bin-granular aggregate of tier `tier` over `[from, to)`:
    /// folds every retained bin whose start lies in `[floor(from), to)`,
    /// in time order. Bitwise equal to [`SeriesData::aggregate_raw`] with
    /// the tier's width whenever the raw ring still covers the window.
    ///
    /// # Panics
    /// Panics if `tier` is out of range.
    pub fn aggregate(&self, tier: usize, from: SimTime, to: SimTime) -> Aggregate {
        let width = self.tiers[tier].width;
        let floor = from.grid_floor(SimTime::ZERO, width);
        let mut agg = Aggregate::default();
        for bin in self.tiers[tier].iter() {
            if bin.start >= floor && bin.start < to {
                agg.absorb_bin(bin);
            }
        }
        agg
    }

    /// Reference implementation of [`SeriesData::aggregate`]: groups the
    /// retained raw samples into `width` bins on the same
    /// [`SimTime::ZERO`]-anchored grid, accumulating each bin in ingest
    /// order and folding bins in time order — the identical arithmetic
    /// path, so the results are comparable with `==`.
    ///
    /// Only meaningful while the raw ring still covers `[from, to)`.
    pub fn aggregate_raw(&self, width: SimDuration, from: SimTime, to: SimTime) -> Aggregate {
        assert!(!width.is_zero(), "aggregate_raw width must be non-zero");
        let floor = from.grid_floor(SimTime::ZERO, width);
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

/// Series names in id order plus the name → id index, shared by every
/// snapshot and copied only when a series registers while one is alive.
#[derive(Clone, Debug, Default)]
struct Catalog {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Catalog {
    fn find(&self, name: &str) -> Option<SeriesId> {
        self.index.get(name).map(|&i| SeriesId(i))
    }
}

/// The writer half: an appendable store of named series.
///
/// Single-writer by construction (`record` takes `&mut self`); readers
/// work from [`StoreSnapshot`]s, which share series storage with the
/// writer copy-on-write. See the module docs for the concurrency model.
#[derive(Clone, Debug)]
pub struct TsStore {
    cfg: StoreConfig,
    catalog: Arc<Catalog>,
    series: Vec<Arc<SeriesData>>,
    stats: StoreStats,
    cow_copies: u64,
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
            catalog: Arc::default(),
            series: Vec::new(),
            stats: StoreStats::default(),
            cow_copies: 0,
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

    /// Series copied on write so far: each time a `record` found its
    /// series still shared with a live snapshot and cloned its whole
    /// history before appending. Zero for a writer whose snapshots are
    /// all released before it records again.
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// The id for `name`, registering an empty series on first use.
    pub fn series(&mut self, name: &str) -> SeriesId {
        if let Some(id) = self.catalog.find(name) {
            return id;
        }
        let i = u32::try_from(self.series.len()).expect("more than u32::MAX series");
        let catalog = Arc::make_mut(&mut self.catalog);
        catalog.names.push(name.to_owned());
        catalog.index.insert(name.to_owned(), i);
        self.series.push(Arc::new(SeriesData::new(&self.cfg)));
        SeriesId(i)
    }

    /// Look up a series by name without registering it.
    pub fn find(&self, name: &str) -> Option<SeriesId> {
        self.catalog.find(name)
    }

    /// The name `id` was registered under.
    ///
    /// # Panics
    /// Panics if `id` came from a different store.
    pub fn name(&self, id: SeriesId) -> &str {
        &self.catalog.names[id.index()]
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
        let slot = &mut self.series[id.index()];
        if slot.last.is_some_and(|l| at < l.at) {
            self.stats.rejected_late += 1;
            return false;
        }
        if Arc::get_mut(slot).is_none() {
            self.cow_copies += 1;
        }
        Arc::make_mut(slot).record(at, value, &mut self.stats);
        self.stats.recorded += 1;
        true
    }

    /// Publish an immutable view of the store as of virtual time `at`.
    ///
    /// Cost is one `Arc` clone per series — no sample data is copied
    /// here. While the view is alive, the writer's next `record` on each
    /// series it shares clones that series' full history (counted by
    /// [`TsStore::cow_copies`]) and then appends in place.
    pub fn snapshot(&self, at: SimTime) -> StoreSnapshot {
        StoreSnapshot {
            at,
            catalog: Arc::clone(&self.catalog),
            series: self.series.clone(),
            stats: self.stats,
        }
    }
}

/// The reader half: an immutable, internally consistent view of a
/// [`TsStore`] as of one publish instant.
///
/// Cloning is cheap (`Arc` spine only), so one snapshot can be handed to
/// any number of reader threads; every reader sees identical data, and
/// answers depend only on store contents — never on writer progress —
/// which is what makes concurrent reads reproduce serial reads byte for
/// byte.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    at: SimTime,
    catalog: Arc<Catalog>,
    series: Vec<Arc<SeriesData>>,
    stats: StoreStats,
}

impl StoreSnapshot {
    /// The virtual instant the writer published this view.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// Number of series registered at publish time.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Ingest counters as of publish time.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Look up a series by name.
    pub fn find(&self, name: &str) -> Option<SeriesId> {
        self.catalog.find(name)
    }

    /// The name `id` was registered under.
    ///
    /// # Panics
    /// Panics if `id` came from a different store.
    pub fn name(&self, id: SeriesId) -> &str {
        &self.catalog.names[id.index()]
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
        assert_eq!(d.raw_len(), 8);
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
    fn snapshots_are_frozen_while_writer_advances() {
        let mut store = TsStore::new(tiny());
        let id = store.series("a/dev/dom");
        for i in 0..10 {
            store.record(id, SimTime::from_secs(i), value(i));
        }
        let snap = store.snapshot(SimTime::from_secs(10));
        let frozen: Vec<Sample> = snap
            .get(id)
            .raw_range(SimTime::ZERO, SimTime::from_secs(100))
            .collect();
        for i in 10..20 {
            store.record(id, SimTime::from_secs(i), value(i));
        }
        let b = store.series("b/dev/dom");
        store.record(b, SimTime::from_secs(19), 1.0);
        // The snapshot still answers exactly as at publish time.
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.at(), SimTime::from_secs(10));
        assert_eq!(snap.stats().recorded, 10);
        assert!(snap.find("b/dev/dom").is_none());
        let again: Vec<Sample> = snap
            .get(id)
            .raw_range(SimTime::ZERO, SimTime::from_secs(100))
            .collect();
        assert_eq!(frozen, again);
        assert_eq!(frozen.len(), 8); // ring capacity
        assert_eq!(
            store.get(id).last().map(|s| s.at),
            Some(SimTime::from_secs(19))
        );
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
    fn cow_copies_count_series_shared_with_a_live_snapshot() {
        let mut store = TsStore::new(tiny());
        let a = store.series("a/dev/dom");
        let b = store.series("b/dev/dom");
        store.record(a, SimTime::ZERO, 1.0);
        store.record(b, SimTime::ZERO, 1.0);
        assert_eq!(store.cow_copies(), 0);
        let snap = store.snapshot(SimTime::ZERO);
        // The first write to a shared series copies it; later writes
        // append to the now-private copy.
        store.record(a, SimTime::from_secs(1), 2.0);
        store.record(a, SimTime::from_secs(2), 3.0);
        assert_eq!(store.cow_copies(), 1);
        drop(snap);
        store.record(b, SimTime::from_secs(1), 2.0);
        assert_eq!(store.cow_copies(), 1);
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
        let snap = store.snapshot(SimTime::ZERO);
        assert_eq!(snap.find("alpha"), Some(a));
        assert_eq!(snap.name(a), "alpha");
        assert_eq!(snap.ids().collect::<Vec<_>>(), vec![a, b]);
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
        assert_eq!(d.raw_len(), 8);
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
