//! The query front-end: typed queries answered from published views.
//!
//! The daemon publishes an immutable [`Published`] view after every tick;
//! any number of reader threads hold a [`QueryFront`] handle and answer
//! queries against whichever view is current. Because a view is frozen at
//! publish time, a query's answer is a pure function of `(view, query)` —
//! which is what makes concurrent readers reproduce a serial reader byte
//! for byte on a quiesced store, and what [`Response::digest`] lets tests
//! and benches check cheaply.

use moneq::Completeness;
use simkit::rng::mix64;
use simkit::store::{Aggregate, SeriesId, TsStore};
use simkit::{Sample, SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// Who one series belongs to: the coordinates the daemon files each
/// `agent/device/domain` series under, index-aligned with the store's
/// [`SeriesId`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesMeta {
    /// Agent rank the records came from.
    pub rank: u32,
    /// Agent name (`MonEqConfig::agent_name`).
    pub agent: String,
    /// Device label within the node.
    pub device: String,
    /// Domain label within the device.
    pub domain: String,
}

/// One published, immutable view of the daemon's state.
///
/// Cloning the surrounding `Arc` is how readers retain a view; the struct
/// itself is never mutated after publish.
#[derive(Clone, Debug)]
pub struct Published {
    /// Publish sequence number (0 is the empty pre-launch view).
    pub seq: u64,
    /// Virtual time of the publish (the daemon's `now`).
    pub at: SimTime,
    /// The store as of this publish. The daemon writes to it again only
    /// after a later publish, and copies it first if a reader still holds
    /// this view.
    pub store: Arc<TsStore>,
    /// Per-series coordinates, index-aligned with store ids.
    pub meta: Arc<Vec<SeriesMeta>>,
    /// Series ids of each domain label, ascending — the daemon extends it
    /// as series register, so a domain query visits only its matches.
    pub(crate) domains: Arc<HashMap<String, Vec<SeriesId>>>,
    /// Completeness ledgers merged across ranks by device, in
    /// first-appearance order (the PR 2 ledger, readable mid-run).
    pub completeness: Arc<Vec<Completeness>>,
    /// The stalest series' newest sample time, when any series has data.
    pub oldest: Option<SimTime>,
}

/// A client request against the published view.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Raw samples of one named series over `[from, to)` (exact window,
    /// bounded by the raw ring's horizon).
    Range {
        /// Series name (`agent/device/domain`).
        series: String,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// Exact bin-granular aggregate over every series of one domain.
    DomainAggregate {
        /// Domain label to match (e.g. `"Chip Core"`).
        domain: String,
        /// Rollup tier index to answer from.
        tier: usize,
        /// Window start (inclusive, widened to the tier grid).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// The `k` highest-power agents over a window: each agent scored by
    /// the sum of its series' window means on the given tier.
    TopK {
        /// How many entries to return.
        k: usize,
        /// Rollup tier index to answer from.
        tier: usize,
        /// Window start (inclusive, widened to the tier grid).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// The completeness/staleness endpoint: merged PR 2 ledgers plus the
    /// oldest newest-sample across all series.
    Freshness,
}

/// One agent's entry in a top-k answer.
#[derive(Clone, Debug, PartialEq)]
pub struct TopEntry {
    /// Agent rank.
    pub rank: u32,
    /// Agent name.
    pub agent: String,
    /// Sum of the agent's per-series window means, watts.
    pub watts: f64,
}

/// The completeness/staleness answer.
#[derive(Clone, Debug, PartialEq)]
pub struct FreshnessReport {
    /// Virtual time of the answering view's publish.
    pub at: SimTime,
    /// Sequence number of the answering view.
    pub seq: u64,
    /// `true` when every merged ledger is clean (nothing degraded).
    pub clean: bool,
    /// Merged per-device ledgers, first-appearance order (the view's own
    /// [`Published::completeness`], shared).
    pub devices: Arc<Vec<Completeness>>,
    /// The stalest series' newest sample time, when any series has data:
    /// `at - oldest` is the worst-case staleness a client can observe.
    pub oldest: Option<SimTime>,
}

/// A successful answer. Every variant derives `PartialEq` and folds into
/// a [`Response::digest`], so serial and concurrent runs can be compared
/// either way.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Range`].
    Range {
        /// The resolved series id.
        series: SeriesId,
        /// Samples with `from <= at < to`, in time order.
        samples: Vec<Sample>,
    },
    /// Answer to [`Query::DomainAggregate`].
    DomainAggregate {
        /// Number of series matched.
        series: u64,
        /// Bin width of the answering tier.
        width: SimDuration,
        /// Exact fold over every matched series' window bins.
        agg: Aggregate,
    },
    /// Answer to [`Query::TopK`] — descending watts, ties by rank, and a
    /// NaN score after every number.
    TopK(Vec<TopEntry>),
    /// Answer to [`Query::Freshness`].
    Freshness(FreshnessReport),
}

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// [`Query::Range`] named a series the view has never seen.
    UnknownSeries(String),
    /// A tier index at or past the store's tier count.
    BadTier {
        /// The requested tier.
        tier: usize,
        /// How many tiers the store has.
        tiers: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownSeries(name) => write!(f, "unknown series {name:?}"),
            QueryError::BadTier { tier, tiers } => {
                write!(f, "tier {tier} out of range (store has {tiers})")
            }
        }
    }
}

impl std::error::Error for QueryError {}

fn mix_f64(h: u64, x: f64) -> u64 {
    mix64(h, x.to_bits())
}

fn mix_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(mix64(h, s.len() as u64), |h, b| mix64(h, u64::from(b)))
}

impl Response {
    /// A 64-bit fingerprint of the full answer, stable across runs and
    /// platforms (folds every field, including label bytes and `f64`
    /// bits). Two responses are equal iff built from identical data, so
    /// chained digests let a bench compare a threaded run against a
    /// serial one without retaining every response.
    pub fn digest(&self) -> u64 {
        match self {
            Response::Range { series, samples } => {
                let mut h = mix64(1, series.index() as u64);
                h = mix64(h, samples.len() as u64);
                for s in samples {
                    h = mix64(h, s.at.as_nanos());
                    h = mix_f64(h, s.value);
                }
                h
            }
            Response::DomainAggregate { series, width, agg } => {
                let mut h = mix64(2, *series);
                h = mix64(h, width.as_nanos());
                h = mix64(h, agg.count);
                h = mix_f64(h, agg.sum);
                h = mix_f64(h, agg.min);
                mix_f64(h, agg.max)
            }
            Response::TopK(entries) => {
                let mut h = mix64(3, entries.len() as u64);
                for e in entries {
                    h = mix64(h, u64::from(e.rank));
                    h = mix_str(h, &e.agent);
                    h = mix_f64(h, e.watts);
                }
                h
            }
            Response::Freshness(fr) => {
                let mut h = mix64(4, fr.seq);
                h = mix64(h, fr.at.as_nanos());
                h = mix64(h, u64::from(fr.clean));
                h = mix64(h, fr.oldest.map_or(u64::MAX, SimTime::as_nanos));
                for c in fr.devices.iter() {
                    h = mix_str(h, &c.device);
                    h = mix64(h, c.scheduled);
                    h = mix64(h, c.succeeded);
                    h = mix64(h, c.stale_polls);
                    h = mix64(h, c.missed_polls);
                    h = mix64(h, c.records_fresh);
                    h = mix64(h, c.records_stale);
                    h = mix64(h, c.records_lost);
                }
                h
            }
        }
    }
}

/// A cloneable handle readers use to query the daemon's latest view.
///
/// Handles are cheap to clone and safe to move across OS threads; every
/// read takes the lock only long enough to clone the inner `Arc`, so
/// readers never hold the publish path up for the duration of a query.
#[derive(Clone)]
pub struct QueryFront {
    shared: Arc<RwLock<Arc<Published>>>,
}

impl fmt::Debug for QueryFront {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let view = self.view();
        f.debug_struct("QueryFront")
            .field("seq", &view.seq)
            .field("at", &view.at)
            .field("series", &view.store.len())
            .finish()
    }
}

impl QueryFront {
    pub(crate) fn new(initial: Published) -> Self {
        QueryFront {
            shared: Arc::new(RwLock::new(Arc::new(initial))),
        }
    }

    pub(crate) fn publish(&self, view: Published) {
        *self.shared.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(view);
    }

    /// Retain the current view (the daemon may publish newer ones while
    /// the caller holds this one; held views stay frozen and valid).
    pub fn view(&self) -> Arc<Published> {
        Arc::clone(&self.shared.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Answer `q` against the current view.
    pub fn query(&self, q: &Query) -> Result<Response, QueryError> {
        Self::answer(&self.view(), q)
    }

    /// Answer `q` against a retained view — a pure function of
    /// `(view, q)`, the property every serial==concurrent gate relies on.
    pub fn answer(view: &Published, q: &Query) -> Result<Response, QueryError> {
        match q {
            Query::Range { series, from, to } => {
                let id = view
                    .store
                    .find(series)
                    .ok_or_else(|| QueryError::UnknownSeries(series.clone()))?;
                let samples = view.store.get(id).raw_range(*from, *to).collect();
                Ok(Response::Range {
                    series: id,
                    samples,
                })
            }
            Query::DomainAggregate {
                domain,
                tier,
                from,
                to,
            } => {
                let width = check_tier(view, *tier)?;
                let ids = view
                    .domains
                    .get(domain.as_str())
                    .map_or(&[][..], Vec::as_slice);
                let mut agg = Aggregate::default();
                for &id in ids {
                    agg.absorb(&view.store.get(id).aggregate(*tier, *from, *to));
                }
                Ok(Response::DomainAggregate {
                    series: ids.len() as u64,
                    width,
                    agg,
                })
            }
            Query::TopK { k, tier, from, to } => {
                check_tier(view, *tier)?;
                // Sum window means per rank in series order, keeping ranks in
                // first-appearance order; `slot[rank]` is the rank's place in
                // `sums`. Each sum remembers its first series, whose agent
                // name is cloned only if the rank makes the top k.
                let mut slot: Vec<Option<usize>> = Vec::new();
                let mut sums: Vec<(u32, f64, SeriesId)> = Vec::new();
                view.store.means(*tier, *from, *to, |id, mean| {
                    let rank = view.meta[id.index()].rank;
                    let r = rank as usize;
                    if r >= slot.len() {
                        slot.resize(r + 1, None);
                    }
                    match slot[r] {
                        Some(i) => sums[i].1 += mean,
                        None => {
                            slot[r] = Some(sums.len());
                            sums.push((rank, mean, id));
                        }
                    }
                });
                sums.sort_by(top_order);
                sums.truncate(*k);
                Ok(Response::TopK(
                    sums.into_iter()
                        .map(|(rank, watts, id)| TopEntry {
                            rank,
                            agent: view.meta[id.index()].agent.clone(),
                            watts,
                        })
                        .collect(),
                ))
            }
            Query::Freshness => Ok(Response::Freshness(FreshnessReport {
                at: view.at,
                seq: view.seq,
                clean: view.completeness.iter().all(Completeness::is_clean),
                devices: Arc::clone(&view.completeness),
                oldest: view.oldest,
            })),
        }
    }
}

/// The order of top-k entries, `(rank, watts, _)`: descending watts,
/// ties by rank, and NaN after every number. Two samples of ±1.7e308 in
/// one bin overflow its sum to ±∞, and a window over a +∞ and a −∞ bin, or
/// a rank with one series of each, scores NaN. `-0.0` ties `0.0`, so every
/// NaN-free pair keeps the order `partial_cmp` gives it.
fn top_order(a: &(u32, f64, SeriesId), b: &(u32, f64, SeriesId)) -> Ordering {
    a.1.is_nan()
        .cmp(&b.1.is_nan())
        .then_with(|| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
        .then(a.0.cmp(&b.0))
}

fn check_tier(view: &Published, tier: usize) -> Result<SimDuration, QueryError> {
    let tiers = &view.store.config().tiers;
    tiers.get(tier).map(|t| t.width).ok_or(QueryError::BadTier {
        tier,
        tiers: tiers.len(),
    })
}
