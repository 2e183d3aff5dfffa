//! `fleet-49k`: MonEQ collection at full-machine scale.
//!
//! Set-up builds the six-mechanism registry and launches 49,152 agents
//! (Mira's node count) in blocks of 32 that cycle through the mechanisms,
//! per-agent plan, local deployment, telemetry off. The timed work drives
//! 3 virtual seconds, one `run_until` per virtual second — each step's
//! wall time is one latency sample, the time the whole machine takes to
//! collect one daemon tick's worth of data — then finalizes and renders
//! every file in memory.

use crate::common::{self, check_cluster, render_all, Spans};
use crate::layers::{self, LayerInput};
use crate::timed::Timed;
use crate::{trace, Config, Pass, Size};
use envmon_analysis::registry;
use moneq::{ClusterRun, MonEqConfig};
use simkit::SimTime;
use std::time::Instant;

/// Consecutive ranks on one mechanism.
const BLOCK: usize = 32;
/// One-second collection steps driven.
const STEPS: u64 = 3;

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let agents = match cfg.size {
        Size::Full => 49_152,
        Size::Toy => 6 * BLOCK,
    };
    let end = SimTime::from_secs(STEPS);
    let pass_start = Instant::now();
    if traced {
        trace::start();
    }
    let sp = Spans::intern();
    let mut pass = Pass::default();

    let t0 = Instant::now();
    let mechs = trace::time(sp.devices, || registry::mechanisms(cfg.seed, end));
    let mut factories: Vec<_> = mechs.iter().map(registry::Mechanism::factory).collect();
    let mut run = trace::time(sp.launch, || {
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
            MonEqConfig::default(),
        )
    });
    pass.setup_s = t0.elapsed().as_secs_f64();

    for k in 1..=STEPS {
        let step = Instant::now();
        trace::time(sp.run_until, || run.run_until(SimTime::from_secs(k)));
        pass.ops_ms.push(step.elapsed().as_secs_f64() * 1e3);
    }

    let t0 = Instant::now();
    let result = trace::time(sp.finalize, || run.finalize(end));
    let finalize_s = t0.elapsed().as_secs_f64();
    let rendered = render_all(&result, sp.render);
    pass.finalize_s = finalize_s + rendered.render_s;
    let tr = trace::finish();

    pass.work = rendered.records as f64;
    pass.digest = rendered.digest.0;
    check_cluster(&mut pass, &result, rendered.records);
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    if let Some(tr) = tr {
        pass.layers = layers::metrics(&LayerInput {
            trace: &tr,
            result: &result,
            store: None,
            output_bytes: rendered.bytes,
            records: rendered.records,
        });
        pass.trace = Some(tr);
    }
    pass
}
