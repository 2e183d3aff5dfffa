//! Property tests for the monitoring daemon (DESIGN.md §13).
//!
//! Seven guarantees:
//!
//! 1. *Ingest transparency*: driving a cluster incrementally through the
//!    daemon and querying the store returns exactly the samples a batch
//!    run of the same seed yields when its session arenas are scanned by
//!    hand — whatever the tick size.
//! 2. *Rollup exactness*: every tier aggregate over any window equals the
//!    raw fold at that tier's width, bit for bit (the invariant
//!    `bench_check` gates at bench scale).
//! 3. *Eviction safety*: the raw ring evicting a sample never loses
//!    rolled-up state — a store with a tiny raw ring carries bins and
//!    lifetime aggregates bitwise identical to one that retains
//!    everything, and what raw it does retain is an exact suffix.
//! 4. *Reader determinism*: on a quiesced daemon, faulted client batches
//!    on OS threads reproduce the serial reference bit for bit, run after
//!    run.
//! 5. *Every view is right*: after every tick the published view equals
//!    a single store fed the same records in the same order, and views
//!    readers hold for a few ticks stay exactly as published — whichever
//!    of the daemon's two stores served them, and whether or not the
//!    daemon had to copy one.
//! 6. *The window locator folds what a scan folds*: on tier rings of a
//!    few bins that wrap and evict, over streams with long gaps, a window
//!    anywhere folds exactly the bins a scan of the ring picks, bit for
//!    bit, and equals the raw fold while both rings still hold it.
//! 7. *No query panics the front*: any value of `Query` against a
//!    ticking daemon's views is answered or refused with a `QueryError`,
//!    and a reversed window answers like an empty one.
//! 8. *Lanes fold what each series folds*: `TsStore::means`, which folds
//!    series eight at a time, passes exactly the means each series' own
//!    `mean` gives, in id order, bit for bit; and top-k over a daemon's
//!    views equals a ranking built from those per-series means, with
//!    NaN scores (±1.7e308 samples overflow a bin's sum to ±∞) after
//!    every number.

use envmon::moneq::{DataPoint, Poll};
use envmon::prelude::*;
use envmon::serve::{clients, Published, QueryError, Response};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::store::{Aggregate, SeriesId, StoreConfig, TierSpec, TsStore};
use simkit::{Sample, SeriesData};
use std::sync::Arc;

/// A small BG/Q cluster, every rank on its own node-card slice of one
/// machine — the same construction the daemon benches use.
fn launch_run(seed: u64, agents: usize, secs: u64) -> ClusterRun {
    let mut profile = WorkloadProfile::new("prop", SimDuration::from_secs(secs + 4));
    profile.set_demand(
        Channel::Cpu,
        powermodel::PhaseBuilder::new()
            .phase(SimDuration::from_secs(secs + 4), 0.6)
            .build(),
    );
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    machine.assign_job(&(0..32).collect::<Vec<_>>(), &profile);
    let machine = Arc::new(machine);
    ClusterRun::launch(
        agents,
        None,
        move |rank| Box::new(BgqBackend::new(machine.clone(), rank % 32)),
        |rank| format!("agent{rank:02}"),
        SimTime::ZERO,
    )
}

/// Scan finalized-or-not session arenas the way the daemon's ingest does:
/// rank order, record order, one series per `(agent, device, domain)`,
/// dropping records that step backwards in time (the store's
/// `rejected_late` rule). Returns `(name, samples)` in first-appearance
/// order.
fn batch_scan(run: &ClusterRun) -> Vec<(String, Vec<Sample>)> {
    let mut series: Vec<(String, SimTime, Vec<Sample>)> = Vec::new();
    for session in run.sessions() {
        let agent = session.agent_name();
        let data = session.collected();
        for i in 0..data.len() {
            let p = data.get(i).expect("index within arena");
            let name = format!("{agent}/{}/{}", p.device, p.domain);
            match series.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, last, samples)) => {
                    if p.timestamp >= *last {
                        *last = p.timestamp;
                        samples.push(Sample {
                            at: p.timestamp,
                            value: p.watts,
                        });
                    }
                }
                None => series.push((
                    name,
                    p.timestamp,
                    vec![Sample {
                        at: p.timestamp,
                        value: p.watts,
                    }],
                )),
            }
        }
    }
    series.into_iter().map(|(n, _, s)| (n, s)).collect()
}

/// Feed every record the sessions appended since `seen` into `store`, in
/// rank order then record order, registering series on first appearance
/// — the order the daemon ingests in.
fn feed_tail(run: &ClusterRun, seen: &mut [usize], store: &mut TsStore) {
    for (rank, session) in run.sessions().iter().enumerate() {
        let agent = session.agent_name();
        let data = session.collected();
        for i in seen[rank]..data.len() {
            let p = data.get(i).expect("index within arena");
            let id = store.series(&format!("{agent}/{}/{}", p.device, p.domain));
            store.record(id, p.timestamp, p.watts);
        }
        seen[rank] = data.len();
    }
}

/// `got` and `want` hold the same series under the same ids with the same
/// raw samples, tier bins, tier aggregates and counters up to `at`, bit
/// for bit.
fn same_store(got: &TsStore, want: &TsStore, at: SimTime) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.stats(), want.stats());
    let end = at + SimDuration::from_nanos(1);
    for id in want.ids() {
        prop_assert_eq!(got.name(id), want.name(id));
        let (g, w) = (got.get(id), want.get(id));
        let raw = |d: &simkit::SeriesData| d.raw_range(SimTime::ZERO, end).collect::<Vec<_>>();
        prop_assert_eq!(raw(g), raw(w), "{}", want.name(id));
        prop_assert_eq!(g.lifetime(), w.lifetime());
        for tier in 0..w.tier_count() {
            let bins = |d: &simkit::SeriesData| d.tier_bins(tier).collect::<Vec<_>>();
            prop_assert_eq!(bins(g), bins(w), "{} tier {}", want.name(id), tier);
            prop_assert_eq!(
                g.aggregate(tier, SimTime::ZERO, end),
                w.aggregate(tier, SimTime::ZERO, end)
            );
        }
    }
    Ok(())
}

/// Feed one monotone sample stream into a fresh store; `dts` are the
/// nanosecond gaps between consecutive samples.
fn feed(cfg: StoreConfig, stream: &[(u64, f64)]) -> TsStore {
    let mut store = TsStore::new(cfg);
    let id = store.series("prop/device/domain");
    let mut at = SimTime::ZERO;
    for &(dt, value) in stream {
        at += SimDuration::from_nanos(dt);
        assert!(store.record(id, at, value));
    }
    store
}

/// An aggregate's fields as bits, so a comparison tells `-0.0` from
/// `0.0`.
fn bits(a: Aggregate) -> (u64, u64, u64, u64) {
    (a.count, a.sum.to_bits(), a.min.to_bits(), a.max.to_bits())
}

/// What a scan of tier `tier`'s retained bins folds for `[from, to)`:
/// each bin `tier_bins` yields whose start lies in `[floor(from), to)`,
/// in order, and nothing for a reversed window.
fn scan(d: &SeriesData, tier: usize, from: SimTime, to: SimTime) -> Aggregate {
    let floor = from.grid_floor(SimTime::ZERO, d.tier_width(tier));
    let mut agg = Aggregate::default();
    for bin in d.tier_bins(tier) {
        if from <= to && bin.start >= floor && bin.start < to {
            agg.absorb_bin(&bin);
        }
    }
    agg
}

/// A window end near second `secs`: on the edge, `jitter` ns past it, or
/// one nanosecond before the next edge.
fn window_end((secs, place, jitter): (u64, u8, u64)) -> SimTime {
    let edge = SimTime::from_secs(secs);
    match place {
        0 => edge,
        1 => edge + SimDuration::from_nanos(jitter),
        _ => edge + SimDuration::from_nanos(999_999_999),
    }
}

/// A series name or domain label: one the view holds (when it holds
/// any), or arbitrary text.
fn label(view: &Published, known: bool, pick: u64, garbage: String, domain: bool) -> String {
    match view
        .meta
        .get((pick % view.meta.len().max(1) as u64) as usize)
    {
        Some(m) if known && domain => m.domain.clone(),
        Some(m) if known => format!("{}/{}/{}", m.agent, m.device, m.domain),
        _ => garbage,
    }
}

/// The same query over `[from, to)`; `None` for a query with no window.
fn with_window(q: &Query, from: SimTime, to: SimTime) -> Option<Query> {
    Some(match q.clone() {
        Query::Range { series, .. } => Query::Range { series, from, to },
        Query::DomainAggregate { domain, tier, .. } => Query::DomainAggregate {
            domain,
            tier,
            from,
            to,
        },
        Query::TopK { k, tier, .. } => Query::TopK { k, tier, from, to },
        Query::Freshness => return None,
    })
}

/// `answer` is what `q` may get from `view`: an unknown series and an
/// out-of-plan tier are refused with the matching error, everything
/// else is answered in kind.
fn answer_fits(
    view: &Published,
    q: &Query,
    answer: &Result<Response, QueryError>,
) -> Result<(), TestCaseError> {
    let tiers = view.store.config().tiers.len();
    match (q, answer) {
        (Query::Range { series, .. }, Ok(Response::Range { series: id, .. })) => {
            prop_assert_eq!(view.store.find(series), Some(*id));
        }
        (Query::Range { series, .. }, Err(QueryError::UnknownSeries(name))) => {
            prop_assert_eq!(view.store.find(series), None);
            prop_assert_eq!(name, series);
        }
        (
            Query::DomainAggregate { tier, .. } | Query::TopK { tier, .. },
            Err(QueryError::BadTier { tier: t, tiers: n }),
        ) => {
            prop_assert!(*tier >= tiers);
            prop_assert_eq!((*t, *n), (*tier, tiers));
        }
        (
            Query::DomainAggregate { domain, tier, .. },
            Ok(Response::DomainAggregate { series, .. }),
        ) => {
            prop_assert!(*tier < tiers);
            let matched = view.meta.iter().filter(|m| m.domain == *domain).count();
            prop_assert_eq!(*series, matched as u64);
        }
        (Query::TopK { k, tier, .. }, Ok(Response::TopK(top))) => {
            prop_assert!(*tier < tiers);
            prop_assert!(top.len() <= *k);
        }
        (Query::Freshness, Ok(Response::Freshness(fr))) => {
            prop_assert_eq!((fr.seq, fr.at), (view.seq, view.at));
        }
        (q, answer) => prop_assert!(false, "{:?} answered {:?}", q, answer),
    }
    Ok(())
}

/// One agent's power on three `dev` domains, polled every 100 ms; `c`
/// skips every third second, so its rings have gaps. With `flip > 0`, `a`
/// and `b` swing between +1.7e308 and −1.7e308 W, `a` changing sign every
/// `flip` polls and `b` every `flip + 1`: two samples of one sign in a bin
/// overflow its sum to ±∞.
struct Swings {
    rank: u64,
    flip: u64,
    polls: u64,
}

impl EnvBackend for Swings {
    fn name(&self) -> &'static str {
        "swings"
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
        Vec::new()
    }
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        self.polls += 1;
        let (rank, polls) = (self.rank, self.polls);
        let plain = |d: u64| ((rank * 7_919 + polls * 104_729 + d * 31) % 1_000) as f64 / 4.0;
        let (a, b) = if self.flip == 0 {
            (plain(0), plain(1))
        } else {
            let swing = |flip: u64| {
                if (polls / flip).is_multiple_of(2) {
                    1.7e308
                } else {
                    -1.7e308
                }
            };
            (swing(self.flip), swing(self.flip + 1))
        };
        let mut points = vec![
            DataPoint::power(t, "dev", "a", a),
            DataPoint::power(t, "dev", "b", b),
        ];
        if (polls / 10) % 3 != 2 {
            points.push(DataPoint::power(t, "dev", "c", plain(2)));
        }
        Ok(Poll::complete(points))
    }
    fn records_per_poll(&self) -> usize {
        3
    }
}

/// Top-k built from each series' own `mean`: per-rank sums in id order,
/// ranked by descending score, ties by rank, then the NaN scores by rank;
/// the first `k`, as `(rank, agent, watts bits)`.
fn top_k_reference(
    view: &Published,
    k: usize,
    tier: usize,
    from: SimTime,
    to: SimTime,
) -> Vec<(u32, String, u64)> {
    let mut sums: Vec<(u32, f64, SeriesId)> = Vec::new();
    for id in view.store.ids() {
        let Some(mean) = view.store.get(id).mean(tier, from, to) else {
            continue;
        };
        let rank = view.meta[id.index()].rank;
        match sums.iter_mut().find(|s| s.0 == rank) {
            Some(s) => s.1 += mean,
            None => sums.push((rank, mean, id)),
        }
    }
    let (mut nan, mut ranked): (Vec<_>, Vec<_>) = sums.into_iter().partition(|s| s.1.is_nan());
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("no NaN left")
            .then(a.0.cmp(&b.0))
    });
    nan.sort_by_key(|s| s.0);
    ranked
        .into_iter()
        .chain(nan)
        .take(k)
        .map(|(rank, watts, id)| (rank, view.meta[id.index()].agent.clone(), watts.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    /// (8) Top-k over a daemon's views equals a ranking built from each
    /// series' own `mean`, bit for bit: agents whose ±1.7e308 samples
    /// score ±∞ or NaN, series with gaps, tier rings of a few bins that
    /// wrap and evict, any `k` and windows anywhere, reversed included.
    #[test]
    fn top_k_ranks_what_each_series_means(
        seed in 0u64..1_000,
        agents in 1usize..24,
        flips in prop::collection::vec((0u8..3, 1u64..12), 24..25),
        secs in 1u64..10,
        capacities in (1usize..6, 1usize..4),
        queries in prop::collection::vec(
            (
                0usize..12,
                0usize..2,
                (0u64..12, 0u8..3, 0u64..1_000_000_000),
                (0u64..12, 0u8..3, 0u64..1_000_000_000),
            ),
            1..16,
        ),
    ) {
        let tiers = vec![
            TierSpec { width: SimDuration::from_secs(1), capacity: capacities.0 },
            TierSpec { width: SimDuration::from_secs(5), capacity: capacities.1 },
        ];
        let run = ClusterRun::launch(
            agents,
            Some(SimDuration::from_millis(100)),
            |rank| {
                let (kind, flip) = flips[rank];
                Box::new(Swings {
                    rank: rank as u64 ^ seed,
                    flip: if kind == 0 { flip } else { 0 },
                    polls: 0,
                }) as _
            },
            |rank| format!("agent{rank:02}"),
            SimTime::ZERO,
        );
        let mut daemon = Daemon::new(
            run,
            SimTime::ZERO,
            ServeConfig {
                store: StoreConfig { raw_capacity: 8, tiers },
                ..ServeConfig::default()
            },
        );
        daemon.run_for(SimDuration::from_secs(secs));
        let view = daemon.front().view();
        for (k, tier, a, b) in queries {
            let (from, to) = (window_end(a), window_end(b));
            let q = Query::TopK { k, tier, from, to };
            let got = match QueryFront::answer(&view, &q) {
                Ok(Response::TopK(entries)) => entries
                    .into_iter()
                    .map(|e| (e.rank, e.agent, e.watts.to_bits()))
                    .collect::<Vec<_>>(),
                other => return Err(TestCaseError::fail(format!("{q:?} answered {other:?}"))),
            };
            prop_assert_eq!(got, top_k_reference(&view, k, tier, from, to), "{:?}", q);
        }
    }

    /// (7) Any query against a ticking daemon's views is answered or
    /// refused, never a panic: any `k` (0 and `usize::MAX` included), any
    /// tier, windows in either order and far past `now`, series and
    /// domains the view has never seen, and the empty seq-0 view. A
    /// reversed window answers exactly like the empty window at zero.
    #[test]
    fn hostile_queries_are_answered_or_refused(
        seed in 0u64..1_000,
        agents in 1usize..4,
        steps in prop::collection::vec(
            (
                0u64..3,
                (0u8..4, any::<u64>(), any::<bool>(), "[a-z/ ]{0,12}"),
                (any::<usize>(), 0usize..4, any::<bool>()),
                (any::<bool>(), 0u64..12_000_000_000, any::<u64>()),
                (any::<bool>(), 0u64..12_000_000_000, any::<u64>()),
            ),
            1..24,
        ),
    ) {
        let secs: u64 = steps.iter().map(|s| s.0).sum();
        let mut daemon = Daemon::new(
            launch_run(seed, agents, secs),
            SimTime::ZERO,
            ServeConfig::default(),
        );
        let front = daemon.front();
        let end = |(far, near, any): (bool, u64, u64)| SimTime::from_nanos(if far { any } else { near });
        for (ticks, (kind, pick, known, garbage), (k, tier, any_tier), from, to) in steps {
            for _ in 0..ticks {
                daemon.tick();
            }
            let view = front.view();
            let tier = if any_tier { pick as usize } else { tier };
            let (from, to) = (end(from), end(to));
            let q = match kind {
                0 => Query::Range { series: label(&view, known, pick, garbage, false), from, to },
                1 => Query::DomainAggregate {
                    domain: label(&view, known, pick, garbage, true),
                    tier,
                    from,
                    to,
                },
                2 => Query::TopK { k, tier, from, to },
                _ => Query::Freshness,
            };
            let answer = QueryFront::answer(&view, &q);
            answer_fits(&view, &q, &answer)?;
            if from > to {
                let empty = with_window(&q, SimTime::ZERO, SimTime::ZERO);
                if let Some(empty) = empty {
                    prop_assert_eq!(answer, QueryFront::answer(&view, &empty), "{:?}", q);
                }
            }
        }
    }

    /// (1) Ingest-then-query equals batch-session-then-scan, whatever the
    /// tick size. The daemon is pure plumbing: no record is lost,
    /// reordered, or rewritten on its way into the store.
    #[test]
    fn ingest_then_query_equals_batch_scan(
        seed in 0u64..1_000,
        agents in 2usize..6,
        secs in 2u64..5,
        tick_quarters in 1u32..9,
    ) {
        let tick = SimDuration::from_millis(u64::from(tick_quarters) * 250);
        let mut daemon = Daemon::new(
            launch_run(seed, agents, secs),
            SimTime::ZERO,
            ServeConfig { tick, ..ServeConfig::default() },
        );
        daemon.run_for(SimDuration::from_secs(secs));
        let now = daemon.now();

        let mut batch = launch_run(seed, agents, secs);
        batch.run_until(now);
        let expected = batch_scan(&batch);

        prop_assert_eq!(daemon.store().len(), expected.len());
        let front = daemon.front();
        for (name, samples) in &expected {
            let resp = front.query(&Query::Range {
                series: name.clone(),
                from: SimTime::ZERO,
                // `to` is exclusive; cover a record landing exactly at `now`.
                to: now + SimDuration::from_nanos(1),
            });
            match resp {
                Ok(envmon::serve::Response::Range { samples: got, .. }) => {
                    prop_assert_eq!(&got, samples, "series {}", name);
                }
                other => prop_assert!(false, "series {}: unexpected {:?}", name, other),
            }
        }
    }

    /// (5) Every published view — not just the last — equals one store fed
    /// the same records in the same order, and a view held for `hold`
    /// further publishes still equals it when released. The daemon copies
    /// a store exactly once for each view still held when the daemon
    /// writes to its store again, two publishes later.
    #[test]
    fn every_published_view_equals_a_batch_store(
        seed in 0u64..1_000,
        agents in 2usize..6,
        tick_quarters in 1u32..9,
        holds in prop::collection::vec(0usize..4, 2..14),
    ) {
        let tick = SimDuration::from_millis(u64::from(tick_quarters) * 250);
        let secs = (tick.as_nanos() * holds.len() as u64).div_ceil(1_000_000_000);
        let mut daemon = Daemon::new(
            launch_run(seed, agents, secs),
            SimTime::ZERO,
            ServeConfig { tick, ..ServeConfig::default() },
        );
        let mut batch_run = launch_run(seed, agents, secs);
        let mut batch = TsStore::new(StoreConfig::default());
        let mut seen = vec![0; agents];
        let front = daemon.front();
        // (view, what it must equal, tick after which it is released)
        let mut held: Vec<(Arc<Published>, TsStore, usize)> = Vec::new();
        for (t, &hold) in holds.iter().enumerate() {
            daemon.tick();
            batch_run.run_until(daemon.now());
            feed_tail(&batch_run, &mut seen, &mut batch);
            let view = front.view();
            prop_assert_eq!(view.at, daemon.now());
            same_store(&view.store, &batch, view.at)?;
            prop_assert_eq!(view.meta.len(), batch.len());
            if hold > 0 {
                held.push((view, batch.clone(), t + hold));
            }
            for (view, want, _) in held.iter().filter(|h| h.2 <= t) {
                same_store(&view.store, want, view.at)?;
            }
            held.retain(|h| h.2 > t);
        }
        for (view, want, _) in &held {
            same_store(&view.store, want, view.at)?;
        }
        let copied = holds
            .iter()
            .enumerate()
            .filter(|&(t, &h)| h >= 2 && t + 2 < holds.len())
            .count();
        prop_assert_eq!(daemon.cow_copies(), copied as u64);
    }

    /// (4) Concurrent readers equal the serial reader on a quiesced store,
    /// faults and all — and threaded runs reproduce themselves.
    #[test]
    fn concurrent_readers_equal_serial_on_quiesced_store(
        seed in 0u64..1_000,
        agents in 2usize..6,
        clients_n in 2usize..6,
        queries in 8usize..48,
        transient in 0.0f64..0.3,
        timeout in 0.0f64..0.2,
        blackout in 0.0f64..0.1,
    ) {
        let mut daemon = Daemon::new(
            launch_run(seed, agents, 3),
            SimTime::ZERO,
            ServeConfig::default(),
        );
        daemon.run_for(SimDuration::from_secs(3));
        let w = ClientWorkload {
            clients: clients_n,
            queries_per_client: queries,
            seed,
            fault: FaultSpec {
                transient,
                timeout,
                timeout_stall: SimDuration::from_millis(350),
                blackout,
                blackout_window: SimDuration::from_secs(1),
                ..FaultSpec::zero()
            },
        };
        let front = daemon.front();
        let serial = clients::run_serial(&front, &w);
        let threaded = clients::run_threaded(&front, &w);
        prop_assert_eq!(&serial, &threaded);
        prop_assert_eq!(
            clients::fold_reports(&serial),
            clients::fold_reports(&threaded)
        );
        prop_assert_eq!(clients::run_threaded(&front, &w), threaded);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(40))]

    /// (2) Every tier aggregate over any window equals the raw fold at
    /// that tier's width, bit for bit.
    #[test]
    fn rollup_tiers_reconcile_bitwise_with_raw(
        stream in prop::collection::vec(
            (1u64..2_000_000_000, -1_000.0f64..1_000.0), 1..200),
        wa in 0.0f64..1.0,
        wb in 0.0f64..1.0,
    ) {
        let store = feed(
            StoreConfig { raw_capacity: 4096, ..StoreConfig::default() },
            &stream,
        );
        let id = store.find("prop/device/domain").expect("registered");
        let d = store.get(id);
        let horizon = d.last().expect("non-empty stream").at + SimDuration::from_nanos(1);
        let span = horizon.as_nanos() as f64;
        let (a, b) = if wa <= wb { (wa, wb) } else { (wb, wa) };
        let sub_from = SimTime::ZERO + SimDuration::from_nanos((a * span) as u64);
        let sub_to = SimTime::ZERO + SimDuration::from_nanos((b * span) as u64);
        for tier in 0..d.tier_count() {
            let width = d.tier_width(tier);
            for &(from, to) in &[(SimTime::ZERO, horizon), (sub_from, sub_to)] {
                prop_assert_eq!(d.aggregate(tier, from, to), d.aggregate_raw(width, from, to));
            }
        }
    }

    /// (3) Raw-ring eviction never loses an unrolled-up sample: a store
    /// with a tiny raw ring ends up with rollup bins and a lifetime
    /// aggregate bitwise identical to a store that retained every raw
    /// sample, and its surviving raw samples are an exact suffix of the
    /// full recording.
    #[test]
    fn eviction_never_loses_unrolled_samples(
        stream in prop::collection::vec(
            (1u64..3_000_000_000, -1_000.0f64..1_000.0), 40..200),
        raw_capacity in 4usize..32,
    ) {
        let tiers = vec![
            TierSpec { width: SimDuration::from_secs(1), capacity: 1 << 16 },
            TierSpec { width: SimDuration::from_secs(60), capacity: 1 << 16 },
        ];
        let tiny = feed(
            StoreConfig { raw_capacity, tiers: tiers.clone() },
            &stream,
        );
        let full = feed(
            StoreConfig { raw_capacity: stream.len() + 1, tiers },
            &stream,
        );
        let id = tiny.find("prop/device/domain").expect("registered");
        let (t, f) = (tiny.get(id), full.get(id));
        // Non-vacuous: the tiny ring really did evict, the full one never.
        prop_assert_eq!(t.raw_evicted(), (stream.len() - raw_capacity) as u64);
        prop_assert_eq!(f.raw_evicted(), 0);
        // Rolled-up state is untouched by eviction, bit for bit.
        prop_assert_eq!(t.lifetime(), f.lifetime());
        for tier in 0..t.tier_count() {
            prop_assert_eq!(t.tier_evicted(tier), 0);
            let tb: Vec<_> = t.tier_bins(tier).collect();
            let fb: Vec<_> = f.tier_bins(tier).collect();
            prop_assert_eq!(tb, fb, "tier {}", tier);
        }
        // What raw survives is exactly the tail of the full recording.
        let horizon = f.last().expect("non-empty").at + SimDuration::from_nanos(1);
        let kept: Vec<_> = t.raw_range(SimTime::ZERO, horizon).collect();
        let all: Vec<_> = f.raw_range(SimTime::ZERO, horizon).collect();
        prop_assert_eq!(kept.len(), raw_capacity);
        prop_assert_eq!(&kept[..], &all[all.len() - raw_capacity..]);
    }

    /// (8) Lanes fold what each series folds: stores of 1–40 streams,
    /// gap-free at one shared cadence, with long gaps, or empty; tier
    /// rings of a few bins that wrap and evict; windows anywhere, reversed
    /// included. `TsStore::means` passes exactly the `(id, mean)` pairs
    /// each series' own `mean` gives, in id order, bit for bit.
    #[test]
    fn lanes_fold_what_each_series_folds(
        kinds in prop::collection::vec(0u8..8, 1..41),
        uniform in any::<bool>(),
        cadence_ms in 100u64..1_500,
        values in prop::collection::vec(-1_000.0f64..1_000.0, 1..80),
        gaps in prop::collection::vec((1u64..6_000_000_000, -1_000.0f64..1_000.0), 1..60),
        capacities in (1usize..6, 1usize..4),
        windows in prop::collection::vec(
            ((0u64..240, 0u8..3, 0u64..1_000_000_000), (0u64..240, 0u8..3, 0u64..1_000_000_000)),
            1..24,
        ),
    ) {
        let tiers = vec![
            TierSpec { width: SimDuration::from_secs(1), capacity: capacities.0 },
            TierSpec { width: SimDuration::from_secs(5), capacity: capacities.1 },
        ];
        let mut store = TsStore::new(StoreConfig { raw_capacity: 8, tiers });
        for (k, &kind) in kinds.iter().enumerate() {
            let id = store.series(&format!("agent{k:02}/dev/dom"));
            // Kinds 0-5 (every stream when `uniform`): one sample per
            // cadence from zero, each stream its own values; 6: long gaps;
            // 7: empty.
            match if uniform { 0 } else { kind } {
                0..=5 => {
                    for (i, v) in values.iter().cycle().skip(k).take(values.len()).enumerate() {
                        let at = SimTime::from_millis(cadence_ms * i as u64);
                        prop_assert!(store.record(id, at, *v));
                    }
                }
                6 => {
                    let mut at = SimTime::ZERO;
                    for &(dt, v) in gaps.iter().cycle().skip(k).take(gaps.len()) {
                        at += SimDuration::from_nanos(dt);
                        prop_assert!(store.record(id, at, v));
                    }
                }
                _ => {}
            }
        }
        for &(a, b) in &windows {
            let (from, to) = (window_end(a), window_end(b));
            for tier in 0..2 {
                let mut lanes = Vec::new();
                store.means(tier, from, to, |id, mean| lanes.push((id, mean.to_bits())));
                let each: Vec<(SeriesId, u64)> = store
                    .ids()
                    .filter_map(|id| Some((id, store.get(id).mean(tier, from, to)?.to_bits())))
                    .collect();
                prop_assert_eq!(lanes, each, "tier {} [{}, {})", tier, from, to);
            }
        }
    }

    /// (6) The window locator: tier rings of a few bins that wrap and
    /// evict, streams with gaps of many empty bins, and windows anywhere —
    /// before the ring, past it, reversed, on bin edges. `aggregate` and
    /// `mean` fold exactly the bins a scan of the ring picks, bit for
    /// bit, and equal the raw fold whenever the raw ring and the tier ring
    /// still hold every sample and bin of the window.
    #[test]
    fn windows_anywhere_fold_what_a_scan_folds(
        stream in prop::collection::vec(
            (1u64..6_000_000_000, -1_000.0f64..1_000.0), 1..120),
        raw_capacity in 1usize..80,
        capacities in (1usize..6, 1usize..4),
        windows in prop::collection::vec(
            ((0u64..240, 0u8..3, 0u64..1_000_000_000), (0u64..240, 0u8..3, 0u64..1_000_000_000)),
            1..24,
        ),
    ) {
        let tiers = vec![
            TierSpec { width: SimDuration::from_secs(1), capacity: capacities.0 },
            TierSpec { width: SimDuration::from_secs(5), capacity: capacities.1 },
        ];
        let store = feed(StoreConfig { raw_capacity, tiers }, &stream);
        let d = store.get(store.find("prop/device/domain").expect("registered"));
        let oldest_raw = d.raw_range(SimTime::ZERO, SimTime::MAX).next().expect("non-empty");
        for &(a, b) in &windows {
            let (from, to) = (window_end(a), window_end(b));
            for tier in 0..d.tier_count() {
                let width = d.tier_width(tier);
                let want = scan(d, tier, from, to);
                prop_assert_eq!(
                    bits(d.aggregate(tier, from, to)), bits(want),
                    "tier {} [{}, {})", tier, from, to
                );
                prop_assert_eq!(
                    d.mean(tier, from, to).map(f64::to_bits), want.mean().map(f64::to_bits),
                    "tier {} [{}, {})", tier, from, to
                );
                let floor = from.grid_floor(SimTime::ZERO, width);
                let raw_holds = d.raw_evicted() == 0
                    || floor > oldest_raw.at.grid_floor(SimTime::ZERO, width);
                let tier_holds = d.tier_evicted(tier) == 0
                    || d.tier_bins(tier).next().is_some_and(|b| floor >= b.start);
                if raw_holds && tier_holds {
                    prop_assert_eq!(
                        bits(want), bits(d.aggregate_raw(width, from, to)),
                        "tier {} [{}, {})", tier, from, to
                    );
                }
            }
        }
    }
}
