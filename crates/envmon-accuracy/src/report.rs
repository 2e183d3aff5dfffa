//! The error report: reported-vs-true energy over a poll schedule, with
//! the difference decomposed into named, exactly-telescoping components.
//!
//! ## The stage chain
//!
//! Every mechanism's reading is modelled as a pipeline, and each probe
//! evaluates all six stages for one poll interval `(prev, t]`, each as
//! the energy (joules) that stage's value attributes to the interval:
//!
//! 1. `aligned` — the exact truth for the interval (energy mechanisms)
//!    or the true instantaneous power *at the poll time* × Δt (power
//!    mechanisms). Σ`aligned` − E₀ is the **sampling-phase** error: pure
//!    rectangle-rule error, zero for energy counters.
//! 2. `staled` — the same, but at the *generation* the mechanism would
//!    serve instead of the poll time. `staled − aligned` is **cadence**.
//! 3. `averaged` — the mechanism's window/clamp semantics applied to the
//!    noise-free signal. `averaged − staled` is **averaging**.
//! 4. `pre_noise` — plus any quantization applied *before* the noise
//!    source (counter units).
//! 5. `noisy` — plus sensor-chain noise. `noisy − pre_noise` is
//!    **noise**.
//! 6. `reported` — plus output quantization (register truncation,
//!    mW/µW rounding, clamps); what the mechanism actually returns.
//!    **quantization** collects both quantization legs:
//!    `(pre_noise − averaged) + (reported − noisy)`.
//!
//! Summed over the polls, the components telescope to
//! Σ`reported` − E₀ — the total error — in real arithmetic; a closure
//! adjustment (folded into the sampling-phase leg, and recorded) absorbs
//! the fp rounding so the identity holds bit-for-bit.

use simkit::{SimDuration, SimTime};

/// One poll interval evaluated at every stage of the mechanism pipeline,
/// each stage as joules attributed to the interval.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PollStages {
    /// Stage 1: exact truth for the interval (see module docs).
    pub aligned_j: f64,
    /// Stage 2: truth at the served generation instead of the poll time.
    pub staled_j: f64,
    /// Stage 3: window/clamp semantics on the noise-free signal.
    pub averaged_j: f64,
    /// Stage 4: plus pre-noise quantization (counter units).
    pub pre_noise_j: f64,
    /// Stage 5: plus sensor-chain noise.
    pub noisy_j: f64,
    /// Stage 6: what the mechanism reports.
    pub reported_j: f64,
}

/// A mechanism wired up for accuracy probing: the true-energy oracle
/// plus the staged pipeline, both pure functions of virtual time.
pub trait MechanismProbe {
    /// Mechanism name, matching the `moneq` backend names where one
    /// exists (`bgq-emon`, `rapl-msr`, `nvml`, `mic-smc`).
    fn name(&self) -> &'static str;

    /// The poll interval `repro accuracy` uses for this mechanism —
    /// chosen non-commensurate with the mechanism's update grid so the
    /// schedule sweeps phases instead of locking to one.
    fn poll_interval(&self) -> SimDuration;

    /// Exact energy over `(from, to]`, joules, from the closed-form
    /// platform model (no counters, no sensors).
    fn true_energy(&self, from: SimTime, to: SimTime) -> f64;

    /// Evaluate one poll interval `(prev, t]` at every pipeline stage.
    fn poll_stages(&self, prev: SimTime, t: SimTime) -> PollStages;
}

/// The total measurement error split into the named components.
///
/// Invariant (maintained by [`ErrorReport::measure`]): [`Self::total`]
/// is bit-for-bit equal to `reported_energy_j - true_energy_j` of the
/// owning report.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ErrorDecomposition {
    /// Rectangle-rule error of the poll schedule itself (zero for
    /// energy-counter mechanisms); includes the fp closure adjustment.
    pub sampling_phase_j: f64,
    /// Error from serving a stale generation.
    pub cadence_j: f64,
    /// Error from windowed-mean / clamp semantics.
    pub averaging_j: f64,
    /// Sensor-chain noise contribution.
    pub noise_j: f64,
    /// Counter-unit, rounding, and clamp contributions.
    pub quantization_j: f64,
    /// The fp residual folded into `sampling_phase_j` to close the
    /// telescope exactly; kept separate for inspection. Always tiny
    /// relative to the window energy.
    pub closure_adjustment_j: f64,
}

impl ErrorDecomposition {
    /// The components summed in a fixed order (so the total is the same
    /// bit pattern however the decomposition was produced).
    pub fn total(&self) -> f64 {
        (((self.sampling_phase_j + self.cadence_j) + self.averaging_j) + self.noise_j)
            + self.quantization_j
    }
}

/// Reported vs true energy for one mechanism over one poll schedule,
/// with the error decomposed.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorReport {
    /// The probed mechanism's name.
    pub mechanism: String,
    /// Number of poll intervals integrated (polls − 1).
    pub polls: u64,
    /// The measurement window: first poll to last poll.
    pub window: (SimTime, SimTime),
    /// Exact energy over the window, joules.
    pub true_energy_j: f64,
    /// What integrating the mechanism's readings over the schedule
    /// yields, joules.
    pub reported_energy_j: f64,
    /// Σ|staled − aligned| per poll: the *unsigned* cadence error. The
    /// signed `cadence_j` can cancel across a symmetric wave; this one
    /// cannot, so it is the robust "how much staleness did the grid
    /// inject" metric the monotonicity claims use.
    pub cadence_abs_j: f64,
    /// The error split into named components (telescopes exactly to
    /// [`ErrorReport::total_error_j`]).
    pub decomposition: ErrorDecomposition,
}

impl ErrorReport {
    /// `reported − true`, joules.
    pub fn total_error_j(&self) -> f64 {
        self.reported_energy_j - self.true_energy_j
    }

    /// `|reported − true| / true` (0 if the true energy is 0).
    pub fn relative_error(&self) -> f64 {
        if self.true_energy_j == 0.0 {
            0.0
        } else {
            (self.total_error_j() / self.true_energy_j).abs()
        }
    }

    /// Measure `probe` over the aligned poll grid `anchor + k·interval`
    /// on `[anchor, horizon]` — the schedule a MonEQ session fires on.
    /// The first poll anchors the window; each later poll integrates one
    /// interval.
    ///
    /// # Panics
    ///
    /// If `interval` is zero (`interval must be positive`) or the grid
    /// has fewer than two polls.
    pub fn measure(
        probe: &dyn MechanismProbe,
        anchor: SimTime,
        interval: SimDuration,
        horizon: SimTime,
    ) -> ErrorReport {
        assert!(!interval.is_zero(), "polling interval must be positive");
        assert!(
            anchor + interval <= horizon,
            "schedule must contain at least two polls (anchor {anchor}, interval {interval}, \
             horizon {horizon})"
        );
        // Sum each stage in poll order, then difference adjacent stage
        // sums into components.
        let (mut aligned, mut staled, mut averaged) = (0.0f64, 0.0f64, 0.0f64);
        let (mut pre_noise, mut noisy, mut reported) = (0.0f64, 0.0f64, 0.0f64);
        let mut cadence_abs_j = 0.0f64;
        let mut polls = 0u64;
        let (mut prev, mut t) = (anchor, anchor + interval);
        while t <= horizon {
            let s = probe.poll_stages(prev, t);
            aligned += s.aligned_j;
            staled += s.staled_j;
            averaged += s.averaged_j;
            pre_noise += s.pre_noise_j;
            noisy += s.noisy_j;
            reported += s.reported_j;
            cadence_abs_j += (s.staled_j - s.aligned_j).abs();
            polls += 1;
            prev = t;
            t += interval;
        }
        let window = (anchor, prev);
        let true_energy_j = probe.true_energy(window.0, window.1);
        let mut decomposition = ErrorDecomposition {
            sampling_phase_j: aligned - true_energy_j,
            cadence_j: staled - aligned,
            averaging_j: averaged - staled,
            noise_j: noisy - pre_noise,
            quantization_j: (pre_noise - averaged) + (reported - noisy),
            closure_adjustment_j: 0.0,
        };
        // Close the telescope bit-for-bit: fold the fp residual into the
        // sampling-phase leg until the fixed-order sum reproduces the
        // total exactly. Converges in one or two rounds; the loop bound
        // is paranoia, and the final assert is the contract.
        let target = reported - true_energy_j;
        for _ in 0..8 {
            let residual = target - decomposition.total();
            if residual == 0.0 {
                break;
            }
            decomposition.sampling_phase_j += residual;
            decomposition.closure_adjustment_j += residual;
        }
        assert!(
            decomposition.total() == target,
            "decomposition failed to close: total {} vs target {}",
            decomposition.total(),
            target
        );
        ErrorReport {
            mechanism: probe.name().to_owned(),
            polls,
            window,
            true_energy_j,
            reported_energy_j: reported,
            cadence_abs_j,
            decomposition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic mechanism with known error structure: constant 100 W
    /// truth, a generation grid that floors to 100 ms, +0.5 W bias as
    /// "noise", and 1 J output quantization.
    struct FakeProbe;

    impl MechanismProbe for FakeProbe {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn poll_interval(&self) -> SimDuration {
            SimDuration::from_millis(130)
        }
        fn true_energy(&self, from: SimTime, to: SimTime) -> f64 {
            100.0 * (to - from).as_secs_f64()
        }
        fn poll_stages(&self, prev: SimTime, t: SimTime) -> PollStages {
            let dt = (t - prev).as_secs_f64();
            let aligned_j = 100.0 * dt;
            let staled_j = aligned_j; // constant truth: staleness invisible
            let averaged_j = staled_j;
            let pre_noise_j = averaged_j;
            let noisy_j = pre_noise_j + 0.5 * dt;
            let reported_j = noisy_j.round();
            PollStages {
                aligned_j,
                staled_j,
                averaged_j,
                pre_noise_j,
                noisy_j,
                reported_j,
            }
        }
    }

    #[test]
    fn decomposition_closes_bit_for_bit() {
        let r = ErrorReport::measure(
            &FakeProbe,
            SimTime::from_secs(1),
            SimDuration::from_millis(130),
            SimTime::from_secs(30),
        );
        assert_eq!(r.decomposition.total(), r.total_error_j());
        assert_eq!(r.mechanism, "fake");
        assert!(r.polls > 200);
    }

    #[test]
    fn components_land_where_the_model_puts_them() {
        let r = ErrorReport::measure(
            &FakeProbe,
            SimTime::from_secs(1),
            SimDuration::from_millis(130),
            SimTime::from_secs(30),
        );
        // Constant truth: no phase/cadence/averaging error.
        assert!(r.decomposition.sampling_phase_j.abs() < 1e-9);
        assert_eq!(r.decomposition.cadence_j, 0.0);
        assert_eq!(r.cadence_abs_j, 0.0);
        assert_eq!(r.decomposition.averaging_j, 0.0);
        // The bias lands in noise: 0.5 W over the window.
        let span = (r.window.1 - r.window.0).as_secs_f64();
        assert!((r.decomposition.noise_j - 0.5 * span).abs() < 1e-9);
        // Rounding to whole joules stays under half a joule per poll.
        assert!(r.decomposition.quantization_j.abs() <= 0.5 * r.polls as f64);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_is_rejected() {
        ErrorReport::measure(
            &FakeProbe,
            SimTime::from_secs(1),
            SimDuration::ZERO,
            SimTime::from_secs(2),
        );
    }

    #[test]
    #[should_panic(expected = "at least two polls")]
    fn degenerate_schedules_are_rejected() {
        ErrorReport::measure(
            &FakeProbe,
            SimTime::from_secs(1),
            SimDuration::from_secs(10),
            SimTime::from_secs(2),
        );
    }
}
