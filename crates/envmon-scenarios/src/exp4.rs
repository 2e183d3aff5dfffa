//! exp4 — diurnal load-follow across every registry mechanism.
//!
//! One compressed day: 24 "hours" of 5 s each, demand following a diurnal
//! curve (trough before dawn, peak mid-afternoon) on every workload
//! channel. The same profile is handed to
//! [`envmon_analysis::registry::mechanisms_on`], so *all* registry
//! mechanisms — EMON, RAPL, NVML, both Phi paths, the OCC — watch the
//! same day through their own hardware, intervals, and noise. Adding a
//! sixth mechanism to the registry automatically adds it here; nothing is
//! hand-listed.
//!
//! Invariants checked per replication:
//! * `diurnal-follow` — every mechanism's peak-hour mean power exceeds
//!   its trough-hour mean (the mechanism actually tracks load).
//! * `all-mechanisms-report` — every mechanism produced records for at
//!   least 20 of the 24 hours (nobody silently dropped out).

use crate::artifact::{fmt_f64, Invariant, Replication};
use envmon_analysis::registry::mechanisms_on;
use hpc_workloads::{Channel, WorkloadProfile};
use moneq::{MonEq, MonEqConfig};
use powermodel::DemandTrace;
use simkit::{SimDuration, SimTime};

/// Demand level per "hour", a compressed diurnal curve: trough around
/// 02:00–04:00, peak at 13:00–14:00.
pub const DIURNAL_LEVELS: [f64; 24] = [
    0.18, 0.15, 0.14, 0.14, 0.15, 0.20, 0.30, 0.42, 0.55, 0.66, 0.75, 0.82, 0.87, 0.90, 0.88, 0.83,
    0.76, 0.68, 0.60, 0.52, 0.44, 0.36, 0.28, 0.22,
];

/// Trough window: hours averaged for the low side of the invariant.
pub const TROUGH_HOURS: std::ops::Range<usize> = 0..5;
/// Peak window: hours averaged for the high side of the invariant.
pub const PEAK_HOURS: std::ops::Range<usize> = 11..16;

/// exp4 knobs. [`Default`] is the catalog configuration.
#[derive(Clone, Debug)]
pub struct Exp4Config {
    /// Virtual seconds per "hour".
    pub hour: SimDuration,
}

impl Default for Exp4Config {
    fn default() -> Self {
        Exp4Config {
            hour: SimDuration::from_secs(5),
        }
    }
}

/// Everything one exp4 replication produced.
pub struct Exp4Run {
    /// The rendered artifact.
    pub replication: Replication,
    /// `(mechanism, hourly mean watts)` in registry order.
    pub hourly_means: Vec<(&'static str, Vec<f64>)>,
}

/// The diurnal day on every channel the platform models read.
fn diurnal_profile(hour: SimDuration, horizon: SimTime) -> WorkloadProfile {
    let mut profile = WorkloadProfile::new("exp4-diurnal", horizon.saturating_since(SimTime::ZERO));
    let channel_scale = [
        (Channel::Cpu, 1.0),
        (Channel::Memory, 0.8),
        (Channel::Network, 0.6),
        (Channel::Accelerator, 1.0),
        (Channel::AcceleratorMemory, 0.8),
    ];
    for (channel, scale) in channel_scale {
        let mut trace = DemandTrace::zero();
        for (h, &level) in DIURNAL_LEVELS.iter().enumerate() {
            trace.set(
                SimTime::from_nanos(hour.as_nanos() * h as u64),
                level * scale,
            );
        }
        profile.set_demand(channel, trace);
    }
    profile
}

/// Run one exp4 replication.
pub fn run(config: &Exp4Config, rep: usize, seed: u64) -> Exp4Run {
    let horizon = SimTime::from_nanos(config.hour.as_nanos() * DIURNAL_LEVELS.len() as u64);
    let profile = diurnal_profile(config.hour, horizon);

    let mut hourly_means = Vec::new();
    let mut follows = true;
    let mut reports = true;
    let mut csv = String::from("mechanism,hour,mean_w,records\n");
    let mut peaks = Vec::new();

    for mechanism in mechanisms_on(seed, horizon, &profile) {
        let session = MonEq::initialize(
            0,
            vec![mechanism.build()],
            MonEqConfig::default(),
            SimTime::ZERO,
        );
        let result = session.finalize(horizon);

        let hours = DIURNAL_LEVELS.len();
        let mut sums = vec![0.0f64; hours];
        let mut counts = vec![0usize; hours];
        for p in &result.file.points {
            if p.stale {
                continue;
            }
            let h = (p.timestamp.as_nanos() / config.hour.as_nanos()) as usize;
            if h < hours {
                sums[h] += p.watts;
                counts[h] += 1;
            }
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect();
        for (h, mean) in means.iter().enumerate() {
            csv.push_str(&format!(
                "{},{h},{},{}\n",
                mechanism.name,
                fmt_f64(*mean),
                counts[h]
            ));
        }

        let window_mean = |hours: std::ops::Range<usize>| {
            let w: Vec<f64> = hours.clone().map(|h| means[h]).collect();
            w.iter().sum::<f64>() / w.len() as f64
        };
        let trough = window_mean(TROUGH_HOURS);
        let peak = window_mean(PEAK_HOURS);
        follows &= peak > trough + 1.0;
        reports &= counts.iter().filter(|&&n| n > 0).count() >= 20;
        peaks.push(format!("{}:{}", mechanism.name, fmt_f64(peak - trough)));
        hourly_means.push((mechanism.name, means));
    }

    let replication = Replication {
        exp: "exp4",
        rep,
        seed,
        csv,
        summary: vec![
            ("mechanisms", hourly_means.len().to_string()),
            ("peak_minus_trough_w", peaks.join("/")),
        ],
        invariants: vec![
            Invariant::new(
                "diurnal-follow",
                follows,
                "every mechanism's peak-hour mean exceeds its trough-hour mean by > 1 W",
            ),
            Invariant::new(
                "all-mechanisms-report",
                reports,
                "every mechanism reported in at least 20 of 24 hours",
            ),
        ],
    };

    Exp4Run {
        replication,
        hourly_means,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envmon_analysis::registry;

    #[test]
    fn every_registry_mechanism_follows_the_day() {
        let out = run(&Exp4Config::default(), 0, 3);
        assert!(out.replication.passed(), "{:?}", out.replication.invariants);
        // Iterates the registry, not a hand-kept list.
        assert_eq!(out.hourly_means.len(), registry::NAMES.len());
        for (name, means) in &out.hourly_means {
            assert_eq!(means.len(), 24, "{name}");
        }
    }
}
