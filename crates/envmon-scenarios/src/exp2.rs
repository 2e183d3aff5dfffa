//! exp2 — thermal-throttling feedback on NVML temperature.
//!
//! Four ranks run the same busy K20 kernel at four ambient temperatures.
//! Each rank's [`crate::LiveGpuBackend`] polls an RC-thermal plant
//! ([`nvml_sim::LiveGpu`]); a hysteresis controller engages the clock
//! throttle when the diode crosses the trip point and releases it only
//! below the lower threshold, on a 1 s decision cadence. Throttling
//! changes the power the plant dissipates, which changes the temperature
//! the next poll reads — a genuine feedback loop, not a replayed trace.
//!
//! Invariants checked per replication:
//! * `duty-monotone` — the throttle duty cycle is monotone nondecreasing
//!   in ambient temperature across ranks.
//! * `hysteresis-bands` — every engage decision saw a diode at/above the
//!   trip point, every release saw one at/below the release point.
//! * `switches-agree` — the plant's switch history is exactly the
//!   controller's engage/release edge sequence (the actuator did what the
//!   controller decided, nothing else touched it).

use crate::artifact::{fmt_f64, Invariant, Replication};
use crate::gpu::LiveGpuBackend;
use hpc_workloads::{Channel, WorkloadProfile};
use moneq::{ClusterRun, ControlHook, OutputFile, Records};
use nvml_sim::{GpuSpec, LiveGpu};
use powermodel::DemandTrace;
use simkit::rng::mix64;
use simkit::{CadenceGate, ControlTrace, Hysteresis, SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// exp2 knobs. [`Default`] is the catalog configuration.
#[derive(Clone, Debug)]
pub struct Exp2Config {
    /// Ambient temperature per rank, °C, in nondecreasing order.
    pub ambients_c: Vec<f64>,
    /// Trip point: engage at/above this diode temperature, °C.
    pub trip_c: f64,
    /// Release point: disengage at/below this diode temperature, °C.
    pub release_c: f64,
    /// Clock scale while throttled (fraction of full demand).
    pub throttle_scale: f64,
    /// Diode read noise, °C (1 σ).
    pub noise_sd_c: f64,
    /// Run horizon.
    pub horizon: SimTime,
    /// Session polling interval.
    pub interval: SimDuration,
    /// Decision cadence.
    pub cadence: SimDuration,
    /// Phase width of the cluster drive, as in [`crate::Exp1Config`].
    pub workers: usize,
    /// `false` = open loop (plants heat uncontrolled; byte-identity
    /// baseline).
    pub control: bool,
}

impl Default for Exp2Config {
    fn default() -> Self {
        Exp2Config {
            ambients_c: vec![24.0, 32.0, 40.0, 48.0],
            trip_c: 70.0,
            release_c: 64.0,
            throttle_scale: 0.3,
            noise_sd_c: 0.2,
            horizon: SimTime::from_secs(240),
            interval: SimDuration::from_millis(100),
            cadence: SimDuration::from_secs(1),
            workers: 1,
            control: true,
        }
    }
}

/// Everything one exp2 replication produced.
pub struct Exp2Run {
    /// The rendered artifact.
    pub replication: Replication,
    /// Rendered output file per rank.
    pub files: Vec<String>,
    /// Throttle duty cycle per rank, in rank (= ambient) order.
    pub duty_cycles: Vec<f64>,
}

/// The busy kernel: idle lead-in, then a saturating accelerator phase.
/// The lead-in keeps the initial diode temperature at the *idle* steady
/// state, so every rank heats from a credible power-on point.
fn busy_profile(horizon: SimTime) -> WorkloadProfile {
    let mut profile = WorkloadProfile::new("exp2-busy", horizon.saturating_since(SimTime::ZERO));
    let mut accel = DemandTrace::zero();
    accel.set(SimTime::from_secs(5), 1.0);
    profile.set_demand(Channel::Accelerator, accel);
    let mut mem = DemandTrace::zero();
    mem.set(SimTime::from_secs(5), 0.8);
    profile.set_demand(Channel::AcceleratorMemory, mem);
    profile
}

/// The per-rank controller: hysteresis on the diode, actuating the clock
/// throttle.
struct ThrottleHook {
    gpu: Arc<LiveGpu>,
    hysteresis: Hysteresis,
    gate: CadenceGate,
    trace: Arc<Mutex<ControlTrace>>,
}

impl ControlHook for ThrottleHook {
    fn after_poll(&mut self, t: SimTime, records: &Records, new_from: usize) {
        let mut diode = None;
        for i in new_from..records.len() {
            let p = records.get(i).expect("index in range");
            if !p.stale {
                if let Some(c) = p.temp_c {
                    diode = Some(c);
                }
            }
        }
        let Some(temp) = diode else { return };
        if !self.gate.try_fire(t) {
            return;
        }
        let engaged = self.hysteresis.update(temp);
        self.gpu.set_throttle(t, engaged);
        self.trace.lock().expect("trace lock").record(
            t,
            temp,
            if engaged { 0.0 } else { 1.0 },
            engaged,
        );
    }
}

/// Run one exp2 replication.
pub fn run(config: &Exp2Config, rep: usize, seed: u64) -> Exp2Run {
    let ranks = config.ambients_c.len();
    let profile = busy_profile(config.horizon);
    let gpus: Vec<Arc<LiveGpu>> = config
        .ambients_c
        .iter()
        .map(|&ambient| {
            Arc::new(LiveGpu::new(
                GpuSpec::k20(),
                &profile,
                ambient,
                config.throttle_scale,
            ))
        })
        .collect();
    let traces: Vec<Arc<Mutex<ControlTrace>>> = (0..ranks)
        .map(|_| Arc::new(Mutex::new(ControlTrace::new())))
        .collect();

    let mut run = ClusterRun::launch(
        ranks,
        Some(config.interval),
        |rank| {
            Box::new(LiveGpuBackend::new(
                Arc::clone(&gpus[rank]),
                mix64(seed, rank as u64),
                config.noise_sd_c,
            ))
        },
        |rank| format!("gpu{rank:02}"),
        SimTime::ZERO,
    )
    .with_par_agents(config.workers);
    if config.control {
        run.attach_control_hooks(|rank| {
            Some(Box::new(ThrottleHook {
                gpu: Arc::clone(&gpus[rank]),
                hysteresis: Hysteresis::new(config.trip_c, config.release_c),
                gate: CadenceGate::new(SimTime::ZERO, config.cadence),
                trace: Arc::clone(&traces[rank]),
            }) as Box<dyn ControlHook>)
        });
    }
    run.run_until(config.horizon);
    let result = run.finalize(config.horizon);

    // ---- invariants -----------------------------------------------------
    let duty_cycles: Vec<f64> = traces
        .iter()
        .map(|t| t.lock().expect("trace lock").duty_cycle())
        .collect();
    let duty_monotone = duty_cycles.windows(2).all(|w| w[0] <= w[1] + 1e-12);

    let mut bands_ok = true;
    let mut switches_agree = true;
    for (gpu, trace) in gpus.iter().zip(&traces) {
        let trace = trace.lock().expect("trace lock");
        let mut edges = Vec::new();
        let mut last = false;
        for row in trace.rows() {
            if row.engaged != last {
                edges.push((row.at, row.engaged));
                // An engage edge must have seen a diode at/above the trip
                // point, a release edge one at/below the release point.
                if row.engaged {
                    bands_ok &= row.observed >= config.trip_c;
                } else {
                    bands_ok &= row.observed <= config.release_c;
                }
                last = row.engaged;
            }
        }
        switches_agree &= gpu.switch_history() == edges;
    }

    // ---- artifact -------------------------------------------------------
    let mut csv = String::from("rank,ambient_c,at_ns,diode_c,engaged\n");
    for (rank, trace) in traces.iter().enumerate() {
        let ambient = config.ambients_c[rank];
        for row in trace.lock().expect("trace lock").rows() {
            csv.push_str(&format!(
                "{rank},{},{},{},{}\n",
                fmt_f64(ambient),
                row.at.as_nanos(),
                fmt_f64(row.observed),
                u8::from(row.engaged),
            ));
        }
    }
    let duty_rendered: Vec<String> = duty_cycles.iter().map(|&d| fmt_f64(d)).collect();
    let switches: usize = gpus.iter().map(|g| g.switch_history().len()).sum();

    let replication = Replication {
        exp: "exp2",
        rep,
        seed,
        csv,
        summary: vec![
            ("ranks", ranks.to_string()),
            ("duty_cycles", duty_rendered.join("/")),
            ("switches", switches.to_string()),
        ],
        invariants: vec![
            Invariant::new(
                "duty-monotone",
                duty_monotone,
                format!("duty by ambient: {}", duty_rendered.join(" <= ")),
            ),
            Invariant::new(
                "hysteresis-bands",
                bands_ok,
                format!(
                    "edges respect trip {} / release {} C",
                    fmt_f64(config.trip_c),
                    fmt_f64(config.release_c)
                ),
            ),
            Invariant::new(
                "switches-agree",
                switches_agree,
                format!("{switches} plant switches match controller edges"),
            ),
        ],
    };

    Exp2Run {
        replication,
        files: result.files.iter().map(OutputFile::render).collect(),
        duty_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_ambients_throttle_more() {
        let out = run(&Exp2Config::default(), 0, 11);
        assert!(out.replication.passed(), "{:?}", out.replication.invariants);
        // The two cool ranks never trip; the two hot ones genuinely do.
        assert_eq!(out.duty_cycles[0], 0.0);
        assert!(out.duty_cycles[3] > 0.5, "duty {:?}", out.duty_cycles);
        assert!(out.duty_cycles[2] > 0.0);
    }

    #[test]
    fn open_loop_never_switches() {
        let cfg = Exp2Config {
            control: false,
            horizon: SimTime::from_secs(60),
            ..Exp2Config::default()
        };
        let out = run(&cfg, 0, 11);
        assert_eq!(out.duty_cycles, vec![0.0; 4]);
        assert!(out.replication.passed());
    }
}
