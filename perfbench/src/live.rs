//! `live-remote`: writes beside reads.
//!
//! Set-up builds the registry and launches 256 agents in blocks of 16
//! cycling through the six mechanisms, telemetry on, under
//! `CollectionPlan::shared(16)` deployed over a faulty LAN
//! (`LinkSpec::lan().with_faults(0.05, 0.02, 0.02)`). The timed work is
//! 120 one-second `Daemon::tick`s, each followed on the same thread by a
//! dashboard refresh (freshness plus top-10 over the last minute); one
//! tick plus its refresh is one latency sample. The daemon then
//! finalizes and renders its files.

use crate::common::{self, check_cluster, render_all, Spans};
use crate::layers::{self, LayerInput, StoreView};
use crate::queries::KINDS;
use crate::stats::Digest;
use crate::timed::Timed;
use crate::{trace, Config, Pass, Size};
use envmon_analysis::registry::{self, NAMES};
use envmon_serve::{Daemon, Query, QueryFront, ServeConfig};
use moneq::{ClusterRun, CollectionPlan, Deployment, MonEqConfig};
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::time::Instant;

/// Consecutive ranks on one mechanism: one sharing domain.
const BLOCK: usize = 16;
/// The dashboard's window.
const WINDOW: SimDuration = SimDuration::from_secs(60);

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let (agents, ticks) = match cfg.size {
        Size::Full => (256, 120u64),
        Size::Toy => (6 * BLOCK, 5),
    };
    let pass_start = Instant::now();
    if traced {
        trace::start();
    }
    let sp = Spans::intern();
    let fresh_kind = KINDS.iter().position(|k| *k == "freshness").expect("kind");
    let top_kind = KINDS.iter().position(|k| *k == "top_k").expect("kind");
    let mut pass = Pass::default();

    let t0 = Instant::now();
    let horizon = SimTime::from_secs(ticks);
    let mechs = trace::time(sp.devices, || registry::mechanisms(cfg.seed, horizon));
    let mut factories: Vec<_> = mechs.iter().map(registry::Mechanism::factory).collect();
    let run = trace::time(sp.launch, || {
        ClusterRun::launch_with(
            agents,
            |rank| {
                let n = factories.len();
                let backend = factories[(rank / BLOCK) % n](rank);
                if traced {
                    Timed::wrap(backend)
                } else {
                    backend
                }
            },
            common::agent_name,
            SimTime::ZERO,
            MonEqConfig {
                telemetry: true,
                ..MonEqConfig::default()
            },
        )
    });
    let link = LinkSpec::lan().with_faults(0.05, 0.02, 0.02);
    let run = trace::time(sp.plan, || {
        run.with_collection_plan(CollectionPlan::shared(BLOCK).deployed(Deployment::Remote(link)))
    });
    let mut daemon = trace::time(sp.daemon_new, || {
        Daemon::new(run, SimTime::ZERO, ServeConfig::default())
    });
    pass.setup_s = t0.elapsed().as_secs_f64();

    let mut answers = Digest::default();
    let mut ingested = 0u64;
    let front = daemon.front();
    for _ in 0..ticks {
        let step = Instant::now();
        ingested += trace::time(sp.tick, || daemon.tick());
        let view = front.view();
        let now = view.at;
        let top = Query::TopK {
            k: 10,
            tier: 0,
            from: SimTime::from_nanos(now.as_nanos().saturating_sub(WINDOW.as_nanos())),
            to: now,
        };
        let fresh = trace::time(sp.query[fresh_kind], || {
            QueryFront::answer(&view, &Query::Freshness)
        });
        let top = trace::time(sp.query[top_kind], || QueryFront::answer(&view, &top));
        pass.ops_ms.push(step.elapsed().as_secs_f64() * 1e3);
        for answer in [fresh, top] {
            match answer {
                Ok(resp) => answers.word(resp.digest()),
                Err(_) => {
                    trace::count(sp.query_errors, 1);
                    pass.failed += 1;
                    answers.word(u64::MAX);
                }
            }
        }
        pass.attempted += 2;
    }
    pass.work = ingested as f64;
    drop(front);

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
    digest.word(answers.0);
    pass.digest = digest.0;
    check_cluster(&mut pass, &result, rendered.records);
    pass.check(ingested == rendered.records, || {
        format!(
            "daemon ingested {ingested} records but the files hold {}",
            rendered.records
        )
    });
    let tel = result.telemetry_merged();
    let launched = agents.div_ceil(BLOCK).min(NAMES.len());
    for name in &NAMES[..launched] {
        let c = |kind: &str| tel.counter(&format!("wire.{kind}/{name}"));
        let (tx, rx, timeouts) = (c("tx"), c("rx"), c("timeout"));
        pass.check(tx > 0 && tx == rx + timeouts, || {
            format!("{name} wire ledger: tx {tx} != rx {rx} + timeouts {timeouts}")
        });
    }
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
