//! exp1 — closed-loop power cap: RAPL energy in, `MSR_PKG_POWER_LIMIT` out.
//!
//! Each rank runs a Gaussian-elimination socket plant
//! ([`rapl_sim::CappedSocket`], zero ramp tau) observed through the real
//! [`moneq::backends::RaplBackend`] poll path. A per-rank `CapHook` feeds the
//! freshest Package-domain watts into a clamped PI regulator on a 500 ms
//! actuation cadence; each command is *written through the MSR* (so it is
//! quantized to the register's 1/8 W counts) and the decoded register
//! value is what the plant enforces — the loop actuates exactly what it
//! programmed, never its un-quantized intention.
//!
//! Invariants checked per replication:
//! * `cap-plant-exact` — sampling the plant between consecutive limit
//!   applications, package power never exceeds the limit in force (exact,
//!   1 nW tolerance: the zero-tau inversion is algebraic).
//! * `cap-measured-tick` — every *measured* window over which the limit
//!   was constant stays within one RAPL energy tick plus the counter's
//!   ±50k-cycle jitter allowance of the limit.
//! * `cmd-in-range` — every actuated limit is finite and inside the
//!   controller clamp, faults or no faults (the fault property test leans
//!   on this one).

use crate::artifact::{fmt_f64, Invariant, Replication};
use hpc_workloads::GaussianElimination;
use moneq::backends::RaplBackend;
use moneq::{ClusterRun, ControlHook, OutputFile, Records};
use rapl_sim::{
    CappedSocket, MsrAccess, MsrDevice, PowerLimit, PowerSource, RaplDomain, SocketSpec,
    MSR_PKG_POWER_LIMIT,
};
use simkit::rng::mix64;
use simkit::{
    CadenceGate, ControlTrace, FaultPlan, NoiseStream, PiController, SimDuration, SimTime,
};
use std::sync::{Arc, Mutex};

/// Lowest limit the controller may program, watts.
pub const LIMIT_FLOOR_W: f64 = 20.0;
/// Highest limit the controller may program, watts (the socket TDP).
pub const LIMIT_CEIL_W: f64 = 130.0;

/// exp1 knobs. [`Default`] is the catalog configuration.
#[derive(Clone, Debug)]
pub struct Exp1Config {
    /// Number of independently capped ranks.
    pub ranks: usize,
    /// The power-cap setpoint, watts.
    pub cap_w: f64,
    /// Run horizon.
    pub horizon: SimTime,
    /// Session polling interval.
    pub interval: SimDuration,
    /// Actuation cadence (one MSR write per period at most).
    pub cadence: SimDuration,
    /// Phase width of the cluster drive (1 stays on the calling thread).
    /// Outputs must be byte-identical at every width.
    pub workers: usize,
    /// Optional fault plan for the sensing path (the actuation path stays
    /// clean: the paper's failure mode is the *mechanism*, not the MSR
    /// write port).
    pub faults: Option<FaultPlan>,
    /// `false` runs the same plants open-loop (no hook attached) — the
    /// byte-identity baseline for `tests/scenario_prop.rs`.
    pub control: bool,
}

impl Default for Exp1Config {
    fn default() -> Self {
        Exp1Config {
            ranks: 4,
            cap_w: 32.0,
            horizon: SimTime::from_secs(60),
            interval: SimDuration::from_millis(100),
            cadence: SimDuration::from_millis(500),
            workers: 1,
            faults: None,
            control: true,
        }
    }
}

/// Everything one exp1 replication produced (artifact plus the raw state
/// the byte-identity tests compare).
pub struct Exp1Run {
    /// The rendered artifact.
    pub replication: Replication,
    /// Rendered output file per rank.
    pub files: Vec<String>,
    /// Per-rank limit application history.
    pub limit_histories: Vec<Vec<(SimTime, PowerLimit)>>,
}

/// The per-rank controller: PI on Package watts, actuating through an MSR
/// write handle onto the same plant the backend observes.
struct CapHook {
    plant: Arc<CappedSocket>,
    msr: MsrDevice,
    pi: PiController,
    gate: CadenceGate,
    trace: Arc<Mutex<ControlTrace>>,
}

impl ControlHook for CapHook {
    fn after_poll(&mut self, t: SimTime, records: &Records, new_from: usize) {
        // Freshest non-stale Package reading from this fire; a fully
        // glitched fire (or the baseline-only first poll) actuates nothing
        // and does not consume the cadence slot.
        let mut observed = None;
        for i in new_from..records.len() {
            let p = records.get(i).expect("index in range");
            if !p.stale && p.domain == RaplDomain::Pkg.name() {
                observed = Some(p.watts);
            }
        }
        let Some(watts) = observed else { return };
        if !self.gate.try_fire(t) {
            return;
        }
        let command = self.pi.update(t, watts);
        let wanted = PowerLimit {
            enabled: true,
            limit_watts: command,
            window_secs: 1.0,
        };
        self.msr
            .write(MSR_PKG_POWER_LIMIT, wanted.encode(&self.msr.units()))
            .expect("root write handle");
        // Enforce what the register now *holds* (quantized), not what the
        // controller wished for.
        let programmed = *self.msr.power_limit();
        self.plant.apply_limit(t, programmed);
        self.trace
            .lock()
            .expect("trace lock")
            .record(t, watts, programmed.limit_watts, true);
    }
}

/// The limit in force at `t`, if any limit has been applied by then.
fn limit_in_force(history: &[(SimTime, PowerLimit)], t: SimTime) -> Option<PowerLimit> {
    history
        .iter()
        .rev()
        .find(|(at, _)| *at <= t)
        .map(|(_, l)| *l)
}

/// Run one exp1 replication.
pub fn run(config: &Exp1Config, rep: usize, seed: u64) -> Exp1Run {
    let profile = GaussianElimination::figure3().profile();
    let plants: Vec<Arc<CappedSocket>> = (0..config.ranks)
        .map(|_| Arc::new(CappedSocket::new(SocketSpec::default(), &profile)))
        .collect();
    let traces: Vec<Arc<Mutex<ControlTrace>>> = (0..config.ranks)
        .map(|_| Arc::new(Mutex::new(ControlTrace::new())))
        .collect();

    let mut run = ClusterRun::launch(
        config.ranks,
        Some(config.interval),
        |rank| {
            let source = Arc::clone(&plants[rank]) as Arc<dyn PowerSource>;
            let backend = RaplBackend::new(source, MsrAccess::root(), mix64(seed, rank as u64))
                .expect("root access");
            match &config.faults {
                Some(plan) => Box::new(backend.with_faults(plan, &format!("socket{rank}"))),
                None => Box::new(backend),
            }
        },
        |rank| format!("cap{rank:02}"),
        SimTime::ZERO,
    )
    .with_par_agents(config.workers);
    if config.control {
        run.attach_control_hooks(|rank| {
            let source = Arc::clone(&plants[rank]) as Arc<dyn PowerSource>;
            let msr = MsrDevice::open(
                source,
                0,
                MsrAccess::root(),
                &NoiseStream::new(mix64(seed, 0x1000 + rank as u64)),
            )
            .expect("root access");
            Some(Box::new(CapHook {
                plant: Arc::clone(&plants[rank]),
                msr,
                // Gains sized for the zero-lag plant: the measured power
                // IS the previous command when the cap binds, so the
                // discrete loop (kp + ki terms at the 0.5 s cadence) needs
                // kp well under 1 to be stable; (0.4, 0.4) puts the
                // closed-loop eigenvalues at ~0.86 and -0.46.
                pi: PiController::new(config.cap_w, 0.4, 0.4, LIMIT_FLOOR_W, LIMIT_CEIL_W),
                gate: CadenceGate::new(SimTime::ZERO, config.cadence),
                trace: Arc::clone(&traces[rank]),
            }) as Box<dyn ControlHook>)
        });
    }
    run.run_until(config.horizon);
    let result = run.finalize(config.horizon);

    // ---- invariants -----------------------------------------------------
    let histories: Vec<Vec<(SimTime, PowerLimit)>> =
        plants.iter().map(|p| p.limit_history()).collect();
    let units = rapl_sim::PowerUnits::sandy_bridge_sim();
    let jitter_s = 50_000.0 / SocketSpec::default().frequency_hz;

    // (a) plant-side, exact: between applications the plant never exceeds
    // the limit in force.
    let mut plant_excess: f64 = f64::NEG_INFINITY;
    for (plant, history) in plants.iter().zip(&histories) {
        for (i, (at, limit)) in history.iter().enumerate() {
            if !limit.enabled {
                continue;
            }
            let until = history.get(i + 1).map_or(config.horizon, |(next, _)| *next);
            // Strictly before `until`: at the boundary instant the next
            // application is already in force.
            let mut t = *at;
            while t < until {
                let pkg = plant.domain_power(RaplDomain::Pkg, t);
                plant_excess = plant_excess.max(pkg - limit.limit_watts);
                t = t.saturating_add(SimDuration::from_millis(50));
            }
        }
    }
    let have_limits = histories.iter().any(|h| !h.is_empty());
    let plant_ok = !config.control || !have_limits || plant_excess <= 1e-9;

    // (b) measured-side: windows with a constant in-force limit stay
    // within one energy tick + jitter of that limit. A 2 ms guard before
    // the window start skips windows whose opening snapshot may predate
    // the latest MSR write by one counter generation.
    let guard = SimDuration::from_millis(2);
    let mut measured_excess: f64 = f64::NEG_INFINITY;
    let mut windows_checked = 0usize;
    let mut pkg_sum = 0.0;
    let mut pkg_n = 0usize;
    for (file, history) in result.files.iter().zip(&histories) {
        let mut prev: Option<SimTime> = None;
        for p in &file.points {
            if p.domain != RaplDomain::Pkg.name() || p.stale {
                continue;
            }
            pkg_sum += p.watts;
            pkg_n += 1;
            let t1 = p.timestamp;
            if let Some(t0) = prev {
                let l0 = limit_in_force(history, minus(t0, guard));
                let l1 = limit_in_force(history, t1);
                if let (Some(l0), Some(l1)) = (l0, l1) {
                    if l0.enabled && l0.limit_watts == l1.limit_watts {
                        let dt = t1.saturating_since(t0).as_secs_f64();
                        // One energy tick, plus the span error from the
                        // counters updating on a jittered ~1 ms grid: the
                        // opening snapshot can reflect a generation up to
                        // one update period (+ jitter) older than t0.
                        let generation_s = 0.001 + jitter_s;
                        let tol = (units.joules_per_count() + l0.limit_watts * generation_s) / dt;
                        measured_excess = measured_excess.max(p.watts - l0.limit_watts - tol);
                        windows_checked += 1;
                    }
                }
            }
            prev = Some(t1);
        }
    }
    let measured_ok = !config.control || windows_checked == 0 || measured_excess <= 0.0;

    // (c) every actuated command in clamp and finite.
    let mut commands = 0usize;
    let mut range_ok = true;
    for trace in &traces {
        for row in trace.lock().expect("trace lock").rows() {
            commands += 1;
            // The MSR quantizes downward, so allow one power count below
            // the floor.
            let lo = LIMIT_FLOOR_W - units.watts_per_count();
            if !row.command.is_finite() || row.command < lo || row.command > LIMIT_CEIL_W {
                range_ok = false;
            }
        }
    }

    // ---- artifact -------------------------------------------------------
    let mut csv = String::from("rank,at_ns,observed_w,limit_w\n");
    for (rank, trace) in traces.iter().enumerate() {
        for row in trace.lock().expect("trace lock").rows() {
            csv.push_str(&format!(
                "{rank},{},{},{}\n",
                row.at.as_nanos(),
                fmt_f64(row.observed),
                fmt_f64(row.command),
            ));
        }
    }
    let final_limit = traces[0]
        .lock()
        .expect("trace lock")
        .rows()
        .last()
        .map_or(0.0, |r| r.command);
    let mean_pkg = if pkg_n == 0 {
        0.0
    } else {
        pkg_sum / pkg_n as f64
    };

    let replication = Replication {
        exp: "exp1",
        rep,
        seed,
        csv,
        summary: vec![
            ("ranks", config.ranks.to_string()),
            ("actuations", commands.to_string()),
            ("final_limit_w", fmt_f64(final_limit)),
            ("mean_pkg_w", fmt_f64(mean_pkg)),
            ("windows_checked", windows_checked.to_string()),
        ],
        invariants: vec![
            Invariant::new(
                "cap-plant-exact",
                plant_ok,
                format!("max plant excess {} W", fmt_f64(plant_excess.max(-1.0))),
            ),
            Invariant::new(
                "cap-measured-tick",
                measured_ok,
                format!(
                    "max measured excess beyond tolerance {} W over {windows_checked} windows",
                    fmt_f64(measured_excess.max(-1.0))
                ),
            ),
            Invariant::new(
                "cmd-in-range",
                range_ok,
                format!(
                    "{commands} commands in [{}, {}] W",
                    fmt_f64(LIMIT_FLOOR_W),
                    fmt_f64(LIMIT_CEIL_W)
                ),
            ),
        ],
    };

    Exp1Run {
        replication,
        files: result.files.iter().map(OutputFile::render).collect(),
        limit_histories: histories,
    }
}

/// `t - d`, clamped at the origin.
fn minus(t: SimTime, d: SimDuration) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_sub(d.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Exp1Config {
        Exp1Config {
            ranks: 2,
            horizon: SimTime::from_secs(20),
            ..Exp1Config::default()
        }
    }

    #[test]
    fn cap_binds_and_invariants_hold() {
        let out = run(&quick(), 0, 42);
        assert!(out.replication.passed(), "{:?}", out.replication.invariants);
        // The loop actually engaged: limits were written and the plant
        // settled near the cap.
        assert!(out.limit_histories.iter().all(|h| h.len() >= 10));
        let last = out.limit_histories[0].last().expect("applied").1;
        assert!(
            (last.limit_watts - 32.0).abs() < 3.0,
            "settled limit {} W",
            last.limit_watts
        );
    }

    #[test]
    fn open_loop_never_touches_the_register() {
        let out = run(
            &Exp1Config {
                control: false,
                ..quick()
            },
            0,
            42,
        );
        assert!(out.limit_histories.iter().all(Vec::is_empty));
        assert!(out.replication.passed());
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = run(&quick(), 0, 7);
        let b = run(&quick(), 0, 7);
        assert_eq!(a.replication.artifact(), b.replication.artifact());
        assert_eq!(a.files, b.files);
    }
}
