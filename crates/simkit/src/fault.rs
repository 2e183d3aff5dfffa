//! Deterministic fault injection for the simulated mechanisms.
//!
//! Every vendor mechanism in the paper fails in practice in ways the paper
//! could only hint at: the BG/Q environmental database polls on a coarse
//! cadence and can miss or late-commit rows (§II-A), NVML sampling has
//! blackout gaps ("Part-time Power Measurements: nvidia-smi's Lack of
//! Attention"), RAPL's 32-bit energy counters wrap and stick ("What Is the
//! Cost of Energy Monitoring?"), and the Phi's MICRAS daemon goes
//! unresponsive under load. A production collector must survive all of
//! them, so the simulators can *inject* them — deterministically.
//!
//! The design mirrors [`crate::rng::NoiseStream`]: every fault decision is
//! a pure function of `(seed, device label, virtual time, attempt)`.
//! Querying out of order, retrying, or driving sessions on worker threads
//! cannot perturb which faults occur — the property the serial-vs-parallel
//! reproducibility tests rely on.
//!
//! ```
//! use simkit::{FaultPlan, FaultSpec, SimTime};
//!
//! // A disabled plan injects nothing and costs nothing.
//! assert!(!FaultPlan::none().is_active());
//!
//! // A uniform plan subjects every mechanism to identical fault rates —
//! // the robustness-comparison configuration.
//! let plan = FaultPlan::uniform(2015, 0.05);
//! let process = plan
//!     .process_for("nvml", FaultSpec::zero())
//!     .expect("active plan yields a process");
//! // Decisions are deterministic: same (time, attempt) -> same outcome.
//! let t = SimTime::from_millis(560);
//! assert_eq!(process.outcome(t, 0), process.outcome(t, 0));
//! ```

use crate::rng::{mix64, NoiseStream};
use crate::time::{SimDuration, SimTime};

/// What the fault process decides for one read attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultOutcome {
    /// No fault: the mechanism serves the read normally.
    Ok,
    /// Transient read error (EIO from an MSR read, a PCIe hiccup): the
    /// attempt fails but an immediate retry may succeed.
    Transient,
    /// The mechanism stalls for the given span before failing (an
    /// unresponsive MICRAS daemon, a hung SCIF round trip). Retryable.
    Timeout(SimDuration),
    /// The mechanism answers but has no fresh generation to serve (a BG/Q
    /// envdb row not yet committed). Not retryable within the poll.
    NoData,
    /// The mechanism serves a *value-corrupted* reading (a stuck or wrapped
    /// RAPL energy counter). The backend decides what the corruption looks
    /// like; the read itself "succeeds".
    Glitch,
    /// The mechanism is dark for the whole surrounding window (an NVML
    /// sampling blackout). Not retryable within the poll.
    Blackout,
}

/// Per-mechanism fault rates and shapes.
///
/// Probabilities are per read attempt (or per record / per window where
/// noted) and must lie in `[0, 1]`. The zero spec injects nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability a read attempt fails with a transient error.
    pub transient: f64,
    /// Probability a read attempt stalls for [`FaultSpec::timeout_stall`].
    pub timeout: f64,
    /// How long a stalled read hangs before the mechanism gives up.
    pub timeout_stall: SimDuration,
    /// Probability the mechanism has no fresh generation to serve.
    pub no_data: f64,
    /// Probability an individual record is silently lost (a missing
    /// environmental-database row).
    pub drop_record: f64,
    /// Probability a [`FaultSpec::blackout_window`]-long window is dark.
    pub blackout: f64,
    /// Length of one blackout-decision window of virtual time.
    pub blackout_window: SimDuration,
    /// Probability a read serves a value-corrupted (glitched) sample.
    pub glitch: f64,
}

impl FaultSpec {
    /// The spec that injects nothing.
    pub const fn zero() -> Self {
        FaultSpec {
            transient: 0.0,
            timeout: 0.0,
            timeout_stall: SimDuration::from_millis(10),
            no_data: 0.0,
            drop_record: 0.0,
            blackout: 0.0,
            blackout_window: SimDuration::from_secs(1),
            glitch: 0.0,
        }
    }

    /// Identical rate for every fault class — the configuration the
    /// robustness comparison uses so mechanisms face the same adversary.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        FaultSpec {
            transient: rate,
            timeout: rate,
            no_data: rate,
            drop_record: rate,
            blackout: rate,
            glitch: rate,
            ..FaultSpec::zero()
        }
    }

    /// Does this spec inject anything at all?
    pub fn any(&self) -> bool {
        self.transient > 0.0
            || self.timeout > 0.0
            || self.no_data > 0.0
            || self.drop_record > 0.0
            || self.blackout > 0.0
            || self.glitch > 0.0
    }

    /// Scale every probability by `factor` (clamped to 1); durations are
    /// kept. Used to derive a milder or harsher variant of a mechanism
    /// profile.
    pub fn scaled(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale must be finite and >= 0"
        );
        let s = |p: f64| (p * factor).min(1.0);
        FaultSpec {
            transient: s(self.transient),
            timeout: s(self.timeout),
            no_data: s(self.no_data),
            drop_record: s(self.drop_record),
            blackout: s(self.blackout),
            glitch: s(self.glitch),
            ..self
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("transient", self.transient),
            ("timeout", self.timeout),
            ("no_data", self.no_data),
            ("drop_record", self.drop_record),
            ("blackout", self.blackout),
            ("glitch", self.glitch),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault rate {name}={p} outside [0,1]"
            );
        }
        assert!(
            self.transient + self.timeout + self.no_data + self.glitch <= 1.0 + 1e-12,
            "per-attempt fault rates must sum to at most 1"
        );
        assert!(
            !self.blackout_window.is_zero(),
            "blackout window must be positive"
        );
    }
}

/// The run-wide fault configuration handed to backends at construction.
///
/// ```
/// use simkit::FaultPlan;
///
/// // Mechanism-realistic faults at full published intensity:
/// let plan = FaultPlan::mechanism(42, 1.0);
/// assert!(plan.is_active());
/// // And the do-nothing plan, byte-identical to an un-faulted run:
/// assert!(!FaultPlan::none().is_active());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlan {
    /// No faults: every backend behaves exactly as without this subsystem.
    None,
    /// Each mechanism suffers its *own* documented pathologies (the sim
    /// crates' `fault_profile()`), scaled by `intensity` (1.0 = the
    /// profile as published).
    Mechanism {
        /// Root seed for every per-device fault process.
        seed: u64,
        /// Probability scale applied to each mechanism profile.
        intensity: f64,
    },
    /// Every mechanism faces the identical `spec` — the fair-comparison
    /// configuration of the robustness table.
    Uniform {
        /// Root seed for every per-device fault process.
        seed: u64,
        /// The common spec.
        spec: FaultSpec,
    },
}

impl FaultPlan {
    /// The inactive plan.
    pub const fn none() -> Self {
        FaultPlan::None
    }

    /// Mechanism-realistic faults at the given intensity.
    pub fn mechanism(seed: u64, intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and >= 0"
        );
        FaultPlan::Mechanism { seed, intensity }
    }

    /// Identical fault rate for every class and mechanism.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan::Uniform {
            seed,
            spec: FaultSpec::uniform(rate),
        }
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        match self {
            FaultPlan::None => false,
            FaultPlan::Mechanism { intensity, .. } => *intensity > 0.0,
            FaultPlan::Uniform { spec, .. } => spec.any(),
        }
    }

    /// Build the fault process for one device.
    ///
    /// `label` names the device (fault streams are independent per label);
    /// `profile` is the mechanism's own pathology profile, used by
    /// [`FaultPlan::Mechanism`] and ignored by [`FaultPlan::Uniform`].
    /// Returns `None` when the plan injects nothing, so the zero-fault
    /// fast path carries no per-read cost at all.
    pub fn process_for(&self, label: &str, profile: FaultSpec) -> Option<FaultProcess> {
        match *self {
            FaultPlan::None => None,
            FaultPlan::Mechanism { seed, intensity } => {
                let spec = profile.scaled(intensity);
                spec.any().then(|| FaultProcess::new(seed, label, spec))
            }
            FaultPlan::Uniform { seed, spec } => {
                spec.any().then(|| FaultProcess::new(seed, label, spec))
            }
        }
    }
}

/// A seeded per-device fault process over the virtual timeline.
///
/// Decisions are indexed, never sequential: the outcome at `(t, attempt)`
/// and the drop decision at `(t, record)` depend only on the seed, the
/// device label, and those indices.
#[derive(Clone, Copy, Debug)]
pub struct FaultProcess {
    spec: FaultSpec,
    attempt_noise: NoiseStream,
    drop_noise: NoiseStream,
    blackout_noise: NoiseStream,
}

impl FaultProcess {
    /// Build the process for one device. Panics if any rate is outside
    /// `[0, 1]` or the per-attempt rates sum beyond 1.
    pub fn new(seed: u64, label: &str, spec: FaultSpec) -> Self {
        spec.validate();
        let root = NoiseStream::new(seed).child(label);
        FaultProcess {
            spec,
            attempt_noise: root.child("attempt"),
            drop_noise: root.child("drop"),
            blackout_noise: root.child("blackout"),
        }
    }

    /// The spec this process runs.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Decide the fate of read attempt `attempt` (0 = first try) at `t`.
    ///
    /// Blackouts are decided per window, so once a window is dark every
    /// attempt inside it observes [`FaultOutcome::Blackout`]; the remaining
    /// classes are drawn independently per `(t, attempt)`, which is what
    /// lets a bounded retry recover from transient errors.
    pub fn outcome(&self, t: SimTime, attempt: u32) -> FaultOutcome {
        if self.spec.blackout > 0.0 {
            let w = t.grid_index(SimTime::ZERO, self.spec.blackout_window);
            if self.blackout_noise.uniform01(w) < self.spec.blackout {
                return FaultOutcome::Blackout;
            }
        }
        let u = self
            .attempt_noise
            .uniform01(mix64(t.as_nanos(), u64::from(attempt)));
        let mut edge = self.spec.timeout;
        if u < edge {
            return FaultOutcome::Timeout(self.spec.timeout_stall);
        }
        edge += self.spec.transient;
        if u < edge {
            return FaultOutcome::Transient;
        }
        edge += self.spec.no_data;
        if u < edge {
            return FaultOutcome::NoData;
        }
        edge += self.spec.glitch;
        if u < edge {
            return FaultOutcome::Glitch;
        }
        FaultOutcome::Ok
    }

    /// Is record `index` of the poll at `t` silently lost?
    pub fn drop_record(&self, t: SimTime, index: usize) -> bool {
        self.spec.drop_record > 0.0
            && self.drop_noise.uniform01(mix64(t.as_nanos(), index as u64)) < self.spec.drop_record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(spec: FaultSpec) -> FaultProcess {
        FaultProcess::new(7, "dev0", spec)
    }

    #[test]
    fn zero_spec_never_faults() {
        let p = process(FaultSpec::zero());
        for k in 0..1_000u64 {
            assert_eq!(p.outcome(SimTime::from_millis(k * 60), 0), FaultOutcome::Ok);
            assert!(!p.drop_record(SimTime::from_millis(k * 60), 0));
        }
    }

    #[test]
    fn decisions_are_order_independent() {
        let p = process(FaultSpec::uniform(0.2));
        let times: Vec<SimTime> = (0..64).map(|k| SimTime::from_millis(k * 100)).collect();
        let forward: Vec<FaultOutcome> = times.iter().map(|&t| p.outcome(t, 0)).collect();
        let backward: Vec<FaultOutcome> = times.iter().rev().map(|&t| p.outcome(t, 0)).collect();
        let backward: Vec<FaultOutcome> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn devices_fault_independently() {
        let spec = FaultSpec::uniform(0.2);
        let a = FaultProcess::new(7, "gpu0", spec);
        let b = FaultProcess::new(7, "gpu1", spec);
        let same = (0..256u64)
            .filter(|&k| {
                let t = SimTime::from_millis(k * 60);
                a.outcome(t, 0) == b.outcome(t, 0)
            })
            .count();
        assert!(same < 256, "sibling devices share a fault stream");
    }

    #[test]
    fn rates_roughly_respected() {
        let p = process(FaultSpec {
            transient: 0.25,
            ..FaultSpec::zero()
        });
        let faults = (0..4_000u64)
            .filter(|&k| p.outcome(SimTime::from_millis(k * 60), 0) == FaultOutcome::Transient)
            .count();
        let rate = faults as f64 / 4_000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn blackouts_cover_whole_windows() {
        let spec = FaultSpec {
            blackout: 0.2,
            blackout_window: SimDuration::from_secs(1),
            ..FaultSpec::zero()
        };
        let p = process(spec);
        // Every decision inside one window agrees with the window's fate.
        for w in 0..50u64 {
            let first = p.outcome(SimTime::from_millis(w * 1_000), 0);
            for off in [1u64, 333, 999] {
                assert_eq!(p.outcome(SimTime::from_millis(w * 1_000 + off), 0), first);
            }
        }
        // And some windows are dark while others are not.
        let dark = (0..50u64)
            .filter(|&w| p.outcome(SimTime::from_millis(w * 1_000), 0) == FaultOutcome::Blackout)
            .count();
        assert!(dark > 0 && dark < 50, "dark windows: {dark}");
    }

    #[test]
    fn retry_attempts_redraw() {
        let p = process(FaultSpec {
            transient: 0.5,
            ..FaultSpec::zero()
        });
        let t0 = SimTime::from_millis(60);
        // Across many poll instants, at least one transient first attempt
        // must be followed by a clean second attempt.
        let recovered = (0..200u64).any(|k| {
            let t = t0 + SimDuration::from_millis(k * 60);
            p.outcome(t, 0) == FaultOutcome::Transient && p.outcome(t, 1) == FaultOutcome::Ok
        });
        assert!(recovered, "retries never redraw");
    }

    #[test]
    fn plan_none_yields_no_process() {
        assert!(FaultPlan::none()
            .process_for("x", FaultSpec::uniform(0.5))
            .is_none());
        // Zero intensity and zero spec also collapse to no process.
        assert!(FaultPlan::mechanism(1, 0.0)
            .process_for("x", FaultSpec::uniform(0.5))
            .is_none());
        assert!(FaultPlan::uniform(1, 0.0)
            .process_for("x", FaultSpec::zero())
            .is_none());
    }

    #[test]
    fn scaled_clamps_probabilities() {
        let s = FaultSpec::uniform(0.6).scaled(3.0);
        assert_eq!(s.transient, 1.0);
        assert_eq!(s.timeout_stall, FaultSpec::zero().timeout_stall);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn invalid_rate_rejected() {
        FaultProcess::new(
            1,
            "x",
            FaultSpec {
                transient: 1.5,
                ..FaultSpec::zero()
            },
        );
    }
}
