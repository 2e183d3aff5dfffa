//! Property tests for the monitoring daemon (DESIGN.md §13).
//!
//! Four guarantees:
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
//!    of the daemon's two stores served them.

use envmon::prelude::*;
use envmon::serve::{clients, Published};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::store::{StoreConfig, StoreSnapshot, TierSpec, TsStore};
use simkit::Sample;
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
/// raw samples, tier bins, tier aggregates and counters, bit for bit.
fn same_store(got: &StoreSnapshot, want: &StoreSnapshot) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.at(), want.at());
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.stats(), want.stats());
    let end = want.at() + SimDuration::from_nanos(1);
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

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

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
    /// further publishes still equals it when released. Views held across
    /// at most one publish never make the daemon copy a series.
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
        let mut held: Vec<(Arc<Published>, StoreSnapshot, usize)> = Vec::new();
        for (t, &hold) in holds.iter().enumerate() {
            daemon.tick();
            batch_run.run_until(daemon.now());
            feed_tail(&batch_run, &mut seen, &mut batch);
            let view = front.view();
            let want = batch.snapshot(daemon.now());
            same_store(&view.store, &want)?;
            prop_assert_eq!(view.meta.len(), want.len());
            if hold > 0 {
                held.push((view, want, t + hold));
            }
            for (view, want, _) in held.iter().filter(|h| h.2 <= t) {
                same_store(&view.store, want)?;
            }
            held.retain(|h| h.2 > t);
        }
        for (view, want, _) in &held {
            same_store(&view.store, want)?;
        }
        if holds.iter().all(|&h| h <= 1) {
            prop_assert_eq!(daemon.cow_copies(), 0);
        }
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
    /// that tier's width, bit for bit — on the live store and on a
    /// snapshot of it.
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
        let snap = store.snapshot(horizon);
        for tier in 0..d.tier_count() {
            let width = d.tier_width(tier);
            for &(from, to) in &[(SimTime::ZERO, horizon), (sub_from, sub_to)] {
                let rolled = d.aggregate(tier, from, to);
                prop_assert_eq!(rolled, d.aggregate_raw(width, from, to));
                prop_assert_eq!(rolled, snap.get(id).aggregate(tier, from, to));
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
}
