//! The collection daemon: advances a [`ClusterRun`] in fixed virtual-time
//! ticks, ingests each rank's newly appended records into a [`TsStore`],
//! and publishes that store as an immutable view per tick for the query
//! front-end.
//!
//! Record flow (see DESIGN.md §13 for the full diagram):
//!
//! ```text
//! backend → MonEq session → Records arena ─┐  (per rank, append-only)
//!                                          ▼
//!                       Daemon::tick — cursor reads the tail,
//!                       files each record under agent/device/domain
//!                                          ▼
//!                       TsStore — raw ring + 1 s / 60 s rollups
//!                                          ▼
//!                       publish: Arc<Published> swap → QueryFront
//! ```
//!
//! Everything before the publish runs on the daemon's thread (or the
//! cluster's worker pool, for the `run_until` phase); readers only ever
//! touch published views, so ingest needs no locks and queries never
//! block collection.
//!
//! The store is double-buffered (left-right): two `Arc<TsStore>`s a tick
//! apart. The front always holds the one published last, so the daemon
//! writes into the other, whose view the front released at the previous
//! publish. Each tick swaps the two, calls `Arc::make_mut` once on the
//! lagging store, replays the previous tick's records into it
//! (registering the same names in the same order, so ids agree), ingests
//! the new records and publishes an `Arc` clone of it. Ingest then costs
//! what it records, not what the store retains. A reader that holds one
//! view across two publishes still reads it frozen: only then does
//! `Arc::make_mut` copy the whole store ([`Daemon::cow_copies`]).

use crate::query::{Published, QueryFront, SeriesMeta};
use moneq::completeness::merge_by_device;
use moneq::{ClusterResult, ClusterRun, MonEq};
use simkit::store::{SeriesId, StoreConfig, StoreStats, TsStore};
use simkit::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Daemon configuration: how often to tick and how much to retain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Virtual time between ticks (collection advance + ingest + publish).
    /// Must be non-zero. Default: 1 s, matching the store's finest tier so
    /// every publish closes at most one bin per series.
    pub tick: SimDuration,
    /// Capacity plan for the backing store.
    pub store: StoreConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tick: SimDuration::from_secs(1),
            store: StoreConfig::default(),
        }
    }
}

/// Per-rank ingest state: how many records the daemon has consumed and
/// where each `(device, domain)` pair files, keyed by the pair's label
/// ids in the rank's arena ([`moneq::Records::label_ids`]).
#[derive(Debug, Default)]
struct RankCursor {
    seen: usize,
    // A rank exposes a handful of device/domain pairs; a linear scan of
    // integer pairs beats hashing, and never compares a string.
    map: Vec<((u32, u32), SeriesId)>,
}

/// The long-running collection daemon (see module docs).
///
/// Owns the cluster and the store; hand clones of [`Daemon::front`] to
/// reader threads. Virtual time only advances through [`Daemon::tick`] /
/// [`Daemon::run_for`], so a paused daemon is a quiesced store — the
/// state in which serial and concurrent query runs must agree bitwise.
pub struct Daemon {
    run: ClusterRun,
    now: SimTime,
    tick: SimDuration,
    /// The store the front's current view shares.
    store: Arc<TsStore>,
    /// The same store one tick behind: `store` minus `lag`.
    spare: Arc<TsStore>,
    /// Every sample offered to `store` in the last tick, in ingest order
    /// (rejected ones too, so the replay counts them the same way).
    lag: Vec<(SeriesId, SimTime, f64)>,
    cursors: Vec<RankCursor>,
    meta: Arc<Vec<SeriesMeta>>,
    domains: Arc<HashMap<String, Vec<SeriesId>>>,
    front: QueryFront,
    seq: u64,
    cow_copies: u64,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("now", &self.now)
            .field("tick", &self.tick)
            .field("seq", &self.seq)
            .field("series", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Wrap a launched cluster. `now` must be the same instant the cluster
    /// was launched at; the first tick covers `(now, now + tick]`.
    ///
    /// Publishes an initial empty view (seq 0) so fronts handed out before
    /// the first tick answer cleanly instead of blocking.
    ///
    /// # Panics
    /// Panics if `cfg.tick` is zero or the store plan is invalid.
    pub fn new(run: ClusterRun, now: SimTime, cfg: ServeConfig) -> Self {
        assert!(!cfg.tick.is_zero(), "tick must be non-zero");
        let spare = Arc::new(TsStore::new(cfg.store.clone()));
        let store = Arc::new(TsStore::new(cfg.store));
        let cursors = run
            .sessions()
            .iter()
            .map(|_| RankCursor::default())
            .collect();
        let meta: Arc<Vec<SeriesMeta>> = Arc::default();
        let domains: Arc<HashMap<String, Vec<SeriesId>>> = Arc::default();
        let front = QueryFront::new(Published {
            seq: 0,
            at: now,
            store: Arc::clone(&store),
            meta: Arc::clone(&meta),
            domains: Arc::clone(&domains),
            completeness: Arc::new(Vec::new()),
            oldest: None,
        });
        Daemon {
            run,
            now,
            tick: cfg.tick,
            store,
            spare,
            lag: Vec::new(),
            cursors,
            meta,
            domains,
            front,
            seq: 0,
            cow_copies: 0,
        }
    }

    /// The daemon's current virtual time (the last published instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A handle for reader threads. Clones are cheap; every clone sees
    /// each publish as it happens.
    pub fn front(&self) -> QueryFront {
        self.front.clone()
    }

    /// Read access to the live store (tests and invariant gates; readers
    /// in other threads must go through [`Daemon::front`] instead).
    pub fn store(&self) -> &TsStore {
        &self.store
    }

    /// Ingest counters so far (same as the live store's).
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Whole stores copied on write so far: each tick that found the
    /// store it was about to write still held by a reader. Stays zero
    /// unless a reader holds a view across two publishes.
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// Advance one tick: drive every session `tick` forward in virtual
    /// time, ingest each rank's newly appended records, and publish the
    /// store as a new view. Returns the number of records ingested this
    /// tick.
    pub fn tick(&mut self) -> u64 {
        let until = self.now + self.tick;
        self.run.run_until(until);
        self.now = until;
        let ingested = self.ingest();
        self.publish();
        ingested
    }

    /// Run [`Daemon::tick`] until `span` has elapsed (rounded up to whole
    /// ticks). Returns the number of records ingested.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let until = self.now + span;
        let mut ingested = 0;
        while self.now < until {
            ingested += self.tick();
        }
        ingested
    }

    /// Swap in the store one tick behind, bring it level with the one
    /// just published (register the series it lacks in id order, then
    /// replay the last tick's samples), and pull every rank's record tail
    /// into it, in rank order then record order — the same order a serial
    /// scan of the finalized arenas would visit, which is what makes
    /// ingest-then-query reproduce batch-then-scan bitwise.
    fn ingest(&mut self) -> u64 {
        std::mem::swap(&mut self.store, &mut self.spare);
        if Arc::get_mut(&mut self.store).is_none() {
            self.cow_copies += 1;
        }
        let store = Arc::make_mut(&mut self.store);
        for id in self.spare.ids().skip(store.len()) {
            store.series(self.spare.name(id));
        }
        for &(id, at, value) in &self.lag {
            store.record(id, at, value);
        }
        self.lag.clear();
        debug_assert_eq!(store.stats(), self.spare.stats());
        let mut ingested = 0;
        for (rank, session) in self.run.sessions().iter().enumerate() {
            let cur = &mut self.cursors[rank];
            let data = session.collected();
            if cur.seen == data.len() {
                continue;
            }
            let agent = session.agent_name();
            for i in cur.seen..data.len() {
                let p = data.get(i).expect("cursor within arena");
                let labels = data.label_ids(i).expect("cursor within arena");
                let id = match cur.map.iter().find(|(key, _)| *key == labels) {
                    Some(&(_, id)) => id,
                    None => {
                        let name = format!("{agent}/{}/{}", p.device, p.domain);
                        let id = store.series(&name);
                        cur.map.push((labels, id));
                        let meta = Arc::make_mut(&mut self.meta);
                        debug_assert_eq!(meta.len(), id.index());
                        meta.push(SeriesMeta {
                            rank: session.rank(),
                            agent: agent.to_owned(),
                            device: p.device.to_owned(),
                            domain: p.domain.to_owned(),
                        });
                        Arc::make_mut(&mut self.domains)
                            .entry(p.domain.to_owned())
                            .or_default()
                            .push(id);
                        id
                    }
                };
                self.lag.push((id, p.timestamp, p.watts));
                if store.record(id, p.timestamp, p.watts) {
                    ingested += 1;
                }
            }
            cur.seen = data.len();
        }
        ingested
    }

    /// Swap in a fresh immutable view: share the store and the meta table,
    /// merge the live completeness ledgers by device, and find the stalest
    /// series' newest sample, so a freshness answer only copies fields.
    fn publish(&mut self) {
        self.seq += 1;
        let merged = merge_by_device(self.run.sessions().iter().flat_map(MonEq::completeness));
        let oldest = self
            .store
            .ids()
            .filter_map(|id| self.store.get(id).last().map(|s| s.at))
            .min();
        self.front.publish(Published {
            seq: self.seq,
            at: self.now,
            store: Arc::clone(&self.store),
            meta: Arc::clone(&self.meta),
            domains: Arc::clone(&self.domains),
            completeness: Arc::new(merged),
            oldest,
        });
    }

    /// Stop collecting: finalize every session at the daemon's current
    /// time and hand back the ordinary batch result (output files,
    /// overhead ledgers, completeness, telemetry). The store and any
    /// retained views stay valid — the published data simply stops
    /// advancing.
    pub fn finalize(self) -> ClusterResult {
        let now = self.now;
        self.run.finalize(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryError, QueryFront, Response};
    use moneq::backend::{EnvBackend, Poll, ReadError};
    use moneq::backends::BgqBackend;
    use moneq::DataPoint;
    use powermodel::{Metric, Platform, Support};
    use simkit::store::Aggregate;

    /// Eight BG/Q agents, one per node card, behind a daemon.
    fn bgq_daemon() -> Daemon {
        let machine = Arc::new(bgq_sim::BgqMachine::new(
            bgq_sim::BgqConfig::default(),
            2015,
        ));
        let run = ClusterRun::launch(
            8,
            None,
            |rank| Box::new(BgqBackend::new(Arc::clone(&machine), rank)) as _,
            |rank| format!("agent{rank:02}"),
            SimTime::ZERO,
        );
        Daemon::new(run, SimTime::ZERO, ServeConfig::default())
    }

    /// Every query kind over the whole served window, on both tiers: one
    /// range per series, every domain, top-k at two depths, freshness.
    fn battery(view: &Published) -> Vec<Query> {
        let (from, to) = (SimTime::ZERO, view.at + SimDuration::from_nanos(1));
        let mut qs = vec![Query::Freshness];
        for id in view.store.ids() {
            qs.push(Query::Range {
                series: view.store.name(id).to_owned(),
                from,
                to,
            });
        }
        for tier in 0..2 {
            for domain in view.domains.keys() {
                qs.push(Query::DomainAggregate {
                    domain: domain.clone(),
                    tier,
                    from,
                    to,
                });
            }
            for k in [3, usize::MAX] {
                qs.push(Query::TopK { k, tier, from, to });
            }
        }
        qs
    }

    fn digests(view: &Published, qs: &[Query]) -> Vec<u64> {
        qs.iter()
            .map(|q| QueryFront::answer(view, q).expect("answerable").digest())
            .collect()
    }

    #[test]
    fn ticks_copy_no_store_unless_a_view_outlives_two_publishes() {
        let mut daemon = bgq_daemon();
        for _ in 0..120 {
            daemon.tick();
        }
        assert!(daemon.stats().recorded > 0);
        assert_eq!(daemon.cow_copies(), 0);

        // Held across one publish: the writes go to the other store.
        let once = daemon.front().view();
        daemon.tick();
        drop(once);
        daemon.tick();
        assert_eq!(daemon.cow_copies(), 0);

        // Held across two: the second tick copies the whole store once,
        // and the view stays exactly as it was published.
        let held = daemon.front().view();
        let qs = battery(&held);
        let before = digests(&held, &qs);
        daemon.tick();
        daemon.tick();
        assert_eq!(daemon.cow_copies(), 1);
        assert_eq!(daemon.front().view().seq, held.seq + 2);
        assert_eq!(digests(&held, &qs), before);
        drop(held);
        daemon.run_for(SimDuration::from_secs(5));
        assert_eq!(daemon.cow_copies(), 1);
    }

    #[test]
    fn tiers_are_checked_against_the_store_plan_before_any_series() {
        let mut daemon = bgq_daemon();
        let front = daemon.front();
        let (from, to) = (SimTime::ZERO, SimTime::from_secs(1));
        let top = |tier| Query::TopK {
            k: 3,
            tier,
            from,
            to,
        };
        let domain = |tier| Query::DomainAggregate {
            domain: "Chip Core".to_owned(),
            tier,
            from,
            to,
        };
        assert_eq!(front.view().store.len(), 0);
        assert_eq!(front.query(&top(0)), Ok(Response::TopK(Vec::new())));
        assert_eq!(
            front.query(&domain(0)),
            Ok(Response::DomainAggregate {
                series: 0,
                width: SimDuration::from_secs(1),
                agg: Aggregate::default(),
            })
        );
        let bad = Err(QueryError::BadTier { tier: 2, tiers: 2 });
        assert_eq!(front.query(&top(2)), bad);
        assert_eq!(front.query(&domain(2)), bad);
        daemon.run_for(SimDuration::from_secs(3));
        assert!(!front.view().store.is_empty());
        assert_eq!(front.query(&top(2)), bad);
        assert_eq!(front.query(&domain(2)), bad);
    }

    /// One `dev/ok` record per poll, plus a `dev/bad` record that is NaN,
    /// +inf and finite in turn.
    struct NanBackend {
        polls: u32,
    }

    impl EnvBackend for NanBackend {
        fn name(&self) -> &'static str {
            "nan"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            SimDuration::from_millis(100)
        }
        fn poll_cost(&self) -> SimDuration {
            SimDuration::from_micros(10)
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            self.polls += 1;
            let bad = [f64::NAN, f64::INFINITY, 5.0][self.polls as usize % 3];
            Ok(Poll::complete(vec![
                DataPoint::power(t, "dev", "ok", 100.0),
                DataPoint::power(t, "dev", "bad", bad),
            ]))
        }
        fn records_per_poll(&self) -> usize {
            2
        }
    }

    #[test]
    fn nonfinite_values_are_counted_rejections_not_panics() {
        let run = ClusterRun::launch(
            3,
            Some(SimDuration::from_millis(100)),
            |_| Box::new(NanBackend { polls: 0 }) as _,
            |rank| format!("nan{rank}"),
            SimTime::ZERO,
        );
        let mut daemon = Daemon::new(run, SimTime::ZERO, ServeConfig::default());
        let ingested = daemon.run_for(SimDuration::from_secs(4));
        let front = daemon.front();
        let top = Query::TopK {
            k: 3,
            tier: 0,
            from: SimTime::ZERO,
            to: daemon.now(),
        };
        assert!(front.query(&top).is_ok());
        assert!(front.query(&Query::Freshness).is_ok());
        for id in daemon.store().ids() {
            let d = daemon.store().get(id);
            assert!(d.lifetime().sum.is_finite(), "{}", daemon.store().name(id));
            assert!(d.tier_bins(0).all(|b| b.sum.is_finite()));
        }
        let stats = daemon.stats();
        let result = daemon.finalize();
        let (mut total, mut nonfinite) = (0u64, 0u64);
        for f in &result.files {
            for p in f.points.iter() {
                total += 1;
                nonfinite += u64::from(!p.watts.is_finite());
            }
        }
        assert!(nonfinite > 0);
        assert_eq!(stats.rejected_nonfinite, nonfinite);
        assert_eq!(stats.recorded, ingested);
        assert_eq!(stats.recorded + stats.rejected_nonfinite, total);
    }
}
