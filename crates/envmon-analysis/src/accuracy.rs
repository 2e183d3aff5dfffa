//! The accuracy ablation: reported-vs-true energy per mechanism, with
//! the error decomposed — DESIGN.md §11.
//!
//! Three results the related work reports, reproduced here in one table:
//!
//! * NVML's error **grows with transient frequency** ("Part-time Power
//!   Measurements: nvidia-smi's Lack of Attention"): the 60 ms register
//!   cadence misses ever more of the signal as the workload toggles
//!   faster. EMON's 560 ms generations show the same shape, earlier and
//!   stronger.
//! * RAPL's error on a constant workload is **bounded by one update
//!   tick** plus counter-unit quantization ("Dissecting the software-
//!   based measurement of CPU energy consumption"): energy counters
//!   telescope, so only the window edges and the unit truncation can
//!   miss.
//! * Under **sub-560 ms transients** EMON is the *least* accurate
//!   mechanism — the whole wave fits inside one generation, so the
//!   served data is stale by up to a full period plus domain skew.
//!
//! The sweep polls each mechanism with its standard interval on the
//! aligned grid over the three [`SquareWave`] profiles; the burst
//! section adds the sub-560 ms wave; the constant section drives RAPL
//! with a flat demand and checks the one-tick bound. The monotonicity
//! claims use [`ErrorReport::cadence_abs_j`] normalized by the true
//! energy: the *unsigned* staleness injected per joule measured — the
//! signed total error can cancel across a symmetric wave, the unsigned
//! one cannot.

use envmon_accuracy::{standard_probes, ErrorReport, RaplProbe};
use hpc_workloads::{Channel, SquareWave, WorkloadProfile};
use powermodel::PhaseBuilder;
use simkit::{SimDuration, SimTime};

/// Polls start here (past every component's ramp-in).
const WINDOW_START: SimTime = SimTime::from_secs(30);
/// Polls end here.
const WINDOW_END: SimTime = SimTime::from_secs(150);
/// Workloads keep waving (and platform models keep precomputed state)
/// past the last poll.
const RUNTIME: SimDuration = SimDuration::from_secs(160);

/// One (profile, mechanism) cell of the sweep.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Workload profile name (`slow-…`/`medium-…`/`fast-…`/`burst-…`).
    pub profile: String,
    /// Toggles per second of the driving wave.
    pub transient_hz: f64,
    /// The measurement, with its decomposition.
    pub report: ErrorReport,
}

impl AccuracyRow {
    /// Unsigned cadence error per true joule — the monotonicity metric.
    pub fn cadence_share(&self) -> f64 {
        self.report.cadence_abs_j / self.report.true_energy_j
    }
}

/// The accuracy ablation: the three-profile sweep, the burst
/// cross-mechanism comparison, and the RAPL constant-workload bound.
#[derive(Clone, Debug)]
pub struct AccuracyTable {
    /// Three profiles × five mechanisms, profile-major in sweep order.
    pub sweep: Vec<AccuracyRow>,
    /// The five mechanisms under the sub-560 ms burst wave.
    pub burst: Vec<AccuracyRow>,
    /// RAPL under a constant workload.
    pub rapl_constant: ErrorReport,
    /// The one-tick + quantization bound for `rapl_constant`, joules.
    pub rapl_tick_bound_j: f64,
}

/// A wave profile extended to cover the measurement window.
fn wave_profile(mut w: SquareWave) -> WorkloadProfile {
    w.virtual_runtime = RUNTIME;
    w.profile()
}

/// A flat profile at the wave's mean demand level.
fn constant_profile() -> WorkloadProfile {
    let mut p = WorkloadProfile::new("constant-0.5", RUNTIME);
    let trace = PhaseBuilder::new().phase(RUNTIME, 0.5).build();
    for ch in [
        Channel::Cpu,
        Channel::Memory,
        Channel::Accelerator,
        Channel::AcceleratorMemory,
    ] {
        p.set_demand(ch, trace.clone());
    }
    p
}

/// Measure every standard probe over `profile` on the aligned grid.
fn measure_all(name: &str, hz: f64, profile: &WorkloadProfile, seed: u64) -> Vec<AccuracyRow> {
    standard_probes(profile, seed, SimTime::ZERO + RUNTIME)
        .iter()
        .map(|probe| AccuracyRow {
            profile: name.to_owned(),
            transient_hz: hz,
            report: ErrorReport::measure(
                probe.as_ref(),
                WINDOW_START,
                probe.poll_interval(),
                WINDOW_END,
            ),
        })
        .collect()
}

/// Run the accuracy ablation. Deterministic in `seed`.
pub fn accuracy(seed: u64) -> AccuracyTable {
    let mut sweep = Vec::new();
    for (name, wave) in SquareWave::standard_profiles() {
        let hz = wave.transient_frequency_hz();
        sweep.extend(measure_all(name, hz, &wave_profile(wave), seed));
    }

    let burst_wave = SquareWave::burst();
    let hz = burst_wave.transient_frequency_hz();
    let burst = measure_all("burst-310ms", hz, &wave_profile(burst_wave), seed);

    let constant = constant_profile();
    let rapl = RaplProbe::new(&constant, seed);
    use envmon_accuracy::MechanismProbe;
    let rapl_constant = ErrorReport::measure(&rapl, WINDOW_START, rapl.poll_interval(), WINDOW_END);
    // One ~1 ms tick of energy at the window's mean power can be missed
    // at each edge (the jittered grid only ever *lags*, so the two edges
    // largely cancel — one tick covers both), plus one counter unit of
    // truncation per domain per edge.
    let mean_power_w = rapl_constant.true_energy_j
        / (rapl_constant.window.1 - rapl_constant.window.0).as_secs_f64();
    let tick = SimDuration::from_millis(1).as_secs_f64();
    let unit_j = 1.0 / 524_288.0;
    let rapl_tick_bound_j = mean_power_w * tick * 1.05 + 4.0 * unit_j;

    AccuracyTable {
        sweep,
        burst,
        rapl_constant,
        rapl_tick_bound_j,
    }
}

impl AccuracyTable {
    /// Render as plain text: the decomposition per cell, then the burst
    /// comparison and the RAPL bound check.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Accuracy decomposition: reported vs true energy (aligned polls, 30-150 s window)\n\n",
        );
        let header = format!(
            "{:<14}{:<10}{:>6}{:>11}{:>11}{:>8}{:>10}{:>10}{:>10}{:>10}{:>10}{:>11}\n",
            "profile",
            "mechanism",
            "polls",
            "true(J)",
            "rep(J)",
            "err%",
            "phase",
            "cadence",
            "avg",
            "noise",
            "quant",
            "|cad|/J",
        );
        out.push_str(&header);
        let row = |r: &AccuracyRow| {
            let d = &r.report.decomposition;
            format!(
                "{:<14}{:<10}{:>6}{:>11.1}{:>11.1}{:>8.3}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>11.5}\n",
                r.profile,
                r.report.mechanism,
                r.report.polls,
                r.report.true_energy_j,
                r.report.reported_energy_j,
                r.report.relative_error() * 100.0,
                d.sampling_phase_j,
                d.cadence_j,
                d.averaging_j,
                d.noise_j,
                d.quantization_j,
                r.cadence_share(),
            )
        };
        for r in &self.sweep {
            out.push_str(&row(r));
        }
        out.push('\n');
        for r in &self.burst {
            out.push_str(&row(r));
        }
        out.push_str(&format!(
            "\nRAPL, constant workload: |error| {:.6} J vs one-tick bound {:.6} J ({})\n",
            self.rapl_constant.total_error_j().abs(),
            self.rapl_tick_bound_j,
            if self.rapl_constant.total_error_j().abs() <= self.rapl_tick_bound_j {
                "WITHIN"
            } else {
                "EXCEEDED"
            }
        ));
        out
    }

    /// The sweep rows for one mechanism, in profile (frequency) order.
    pub fn mechanism_sweep(&self, mechanism: &str) -> Vec<&AccuracyRow> {
        self.sweep
            .iter()
            .filter(|r| r.report.mechanism == mechanism)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> &'static AccuracyTable {
        static TABLE: std::sync::OnceLock<AccuracyTable> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| accuracy(2015))
    }

    #[test]
    fn decompositions_close_bit_for_bit() {
        let t = table();
        for r in t.sweep.iter().chain(&t.burst) {
            assert_eq!(
                r.report.decomposition.total(),
                r.report.total_error_j(),
                "{} / {}",
                r.profile,
                r.report.mechanism
            );
        }
        assert_eq!(
            t.rapl_constant.decomposition.total(),
            t.rapl_constant.total_error_j()
        );
    }

    #[test]
    fn nvml_and_emon_error_grow_with_transient_frequency() {
        let t = table();
        for mech in ["nvml", "bgq-emon"] {
            let rows = t.mechanism_sweep(mech);
            assert_eq!(rows.len(), 3, "{mech}");
            for pair in rows.windows(2) {
                assert!(
                    pair[0].cadence_share() < pair[1].cadence_share(),
                    "{mech}: {} ({}) !< {} ({})",
                    pair[0].profile,
                    pair[0].cadence_share(),
                    pair[1].profile,
                    pair[1].cadence_share()
                );
            }
        }
    }

    #[test]
    fn rapl_constant_error_is_within_one_tick() {
        let t = table();
        assert!(
            t.rapl_constant.total_error_j().abs() <= t.rapl_tick_bound_j,
            "error {} vs bound {}",
            t.rapl_constant.total_error_j().abs(),
            t.rapl_tick_bound_j
        );
        // And the error budget says why: no noise, no averaging.
        assert_eq!(t.rapl_constant.decomposition.noise_j, 0.0);
        assert_eq!(t.rapl_constant.decomposition.averaging_j, 0.0);
    }

    #[test]
    fn emon_is_worst_under_sub_generation_transients() {
        let t = table();
        let emon = t
            .burst
            .iter()
            .find(|r| r.report.mechanism == "bgq-emon")
            .expect("emon row");
        for r in &t.burst {
            if r.report.mechanism != "bgq-emon" {
                assert!(
                    emon.cadence_share() > r.cadence_share(),
                    "emon {} !> {} {}",
                    emon.cadence_share(),
                    r.report.mechanism,
                    r.cadence_share()
                );
            }
        }
    }

    #[test]
    fn renders_every_mechanism_and_is_deterministic() {
        let a = accuracy(7);
        let b = accuracy(7);
        assert_eq!(a.render(), b.render());
        for name in ["bgq-emon", "rapl-msr", "nvml", "mic-smc", "p9-occ"] {
            assert!(a.render().contains(name), "missing {name}");
        }
        assert!(a.render().contains("WITHIN"));
    }
}
