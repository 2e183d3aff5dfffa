//! `dash-256`: the query path on a quiesced store.
//!
//! Set-up launches 256 BG/Q EMON agents (32 per node card, the cards
//! running MMPS) behind a `Daemon` and ingests 120 virtual seconds:
//! 1,792 series. The timed work is one closed-loop client sending a
//! seeded stream of 4,000 queries five times over against the quiesced
//! view, each answered by `QueryFront::answer`; a query's latency is its
//! fastest answer. The daemon then finalizes and renders its files.

use crate::common::{self, check_cluster, render_all, Spans};
use crate::layers::{self, LayerInput, StoreView};
use crate::stats::Digest;
use crate::timed::Timed;
use crate::{queries, trace, Config, Pass, Size};
use envmon_serve::{Daemon, QueryFront, ServeConfig};
use moneq::backends::BgqBackend;
use moneq::{ClusterRun, MonEqConfig};
use simkit::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// Agents per node card.
const CARD: usize = 32;

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let (agents, ingest_ticks, n_queries, reps) = match cfg.size {
        Size::Full => (256usize, 120, 4_000, 5),
        Size::Toy => (64, 5, 200, 2),
    };
    let pass_start = Instant::now();
    if traced {
        trace::start();
    }
    let sp = Spans::intern();
    let mut pass = Pass::default();

    let t0 = Instant::now();
    let machine = trace::time(sp.devices, || {
        let mut m = bgq_sim::BgqMachine::new(bgq_sim::BgqConfig::default(), cfg.seed);
        let cards: Vec<usize> = (0..agents.div_ceil(CARD)).collect();
        m.assign_job(&cards, &hpc_workloads::Mmps::figure1().profile());
        Arc::new(m)
    });
    let run = trace::time(sp.launch, || {
        ClusterRun::launch_with(
            agents,
            |rank| {
                let backend = Box::new(BgqBackend::new(Arc::clone(&machine), rank / CARD));
                if traced {
                    Timed::wrap(backend)
                } else {
                    backend
                }
            },
            common::agent_name,
            SimTime::ZERO,
            MonEqConfig::default(),
        )
    });
    let mut daemon = trace::time(sp.daemon_new, || {
        Daemon::new(run, SimTime::ZERO, ServeConfig::default())
    });
    for _ in 0..ingest_ticks {
        trace::time(sp.tick, || daemon.tick());
    }
    pass.setup_s = t0.elapsed().as_secs_f64();

    // The client sends the stream `reps` times; a query's time is its
    // fastest answer. Every repeat must chain the same answers.
    let view = daemon.front().view();
    let stream = queries::stream(cfg.seed, &view, n_queries);
    pass.ops_ms = vec![f64::INFINITY; stream.len()];
    let mut chains = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut answers = Digest::default();
        for (q, op_ms) in stream.iter().zip(&mut pass.ops_ms) {
            let t0 = Instant::now();
            let answer = trace::time(sp.query[queries::kind(q)], || QueryFront::answer(&view, q));
            *op_ms = op_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            match answer {
                Ok(resp) => answers.word(resp.digest()),
                Err(_) => {
                    trace::count(sp.query_errors, 1);
                    pass.failed += 1;
                    answers.word(u64::MAX);
                }
            }
        }
        chains.push(answers);
    }
    pass.attempted += (stream.len() * reps) as u64;
    pass.work = stream.len() as f64;
    pass.check(chains.iter().all(|c| *c == chains[0]), || {
        "repeats of the query stream chained different answers".to_owned()
    });
    drop(view);

    pass.check(store_exact(&daemon), || {
        "a rollup tier disagrees with the raw fold over the served window".to_owned()
    });
    let store = StoreView {
        series: daemon.store().len(),
        stats: daemon.stats(),
    };
    let t0 = Instant::now();
    let result = trace::time(sp.finalize, || daemon.finalize());
    let finalize_s = t0.elapsed().as_secs_f64();
    let rendered = render_all(&result, sp.render);
    pass.finalize_s = finalize_s + rendered.render_s;
    let tr = trace::finish();

    let mut digest = rendered.digest;
    digest.word(chains[0].0);
    pass.digest = digest.0;
    check_cluster(&mut pass, &result, rendered.records);
    pass.check(store.stats.recorded == rendered.records, || {
        format!(
            "store recorded {} samples but the files hold {}",
            store.stats.recorded, rendered.records
        )
    });
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    if let Some(tr) = tr {
        pass.layers = layers::metrics(&LayerInput {
            trace: &tr,
            result: &result,
            store: Some(store),
            output_bytes: rendered.bytes,
            records: rendered.records,
        });
        pass.trace = Some(tr);
    }
    pass
}

/// Rollup exactness for every series and tier: each tier's aggregate
/// equals the fold over the raw samples, bit for bit. When the raw ring
/// has evicted samples the window starts at the first coarsest-tier
/// boundary fully covered by retained raw data; otherwise it is the
/// whole served window.
fn store_exact(daemon: &Daemon) -> bool {
    let store = daemon.store();
    let now = daemon.now();
    store.ids().all(|id| {
        let d = store.get(id);
        let from = if d.raw_evicted() == 0 {
            SimTime::ZERO
        } else {
            let coarsest = (0..d.tier_count())
                .map(|t| d.tier_width(t))
                .max()
                .unwrap_or(SimDuration::from_secs(60));
            match d.raw_range(SimTime::ZERO, now).next() {
                Some(oldest) => oldest.at.grid_floor(SimTime::ZERO, coarsest) + coarsest,
                None => return true,
            }
        };
        (0..d.tier_count()).all(|tier| {
            d.aggregate(tier, from, now) == d.aggregate_raw(d.tier_width(tier), from, now)
        })
    })
}
