//! Wrapping integer energy counters.
//!
//! RAPL exposes energy as a 32-bit counter in units of `1 / 2^ESU` joules
//! (`MSR_RAPL_POWER_UNIT`). The counter silently wraps; a reader that polls
//! less often than the wrap period cannot distinguish "small delta" from
//! "small delta + one wrap" — the paper's warning that sampling intervals
//! beyond ~60 seconds produce erroneous data. [`EnergyCounter`] models the
//! hardware side; the single-wrap correction (and its failure beyond one
//! wrap) lives with the reader in `rapl-sim`.

use simkit::{SimDuration, SimTime};

/// Static description of a wrapping energy counter.
#[derive(Clone, Copy, Debug)]
pub struct EnergyCounterSpec {
    /// Joules per count (e.g. `2^-16` J for a 16-bit energy-status unit).
    pub unit_joules: f64,
    /// Counter width in bits; the counter wraps at `2^width`.
    pub width_bits: u32,
    /// Refresh cadence of the counter register.
    pub update_period: SimDuration,
}

impl EnergyCounterSpec {
    /// Counter modulus, `2^width`.
    pub fn modulus(&self) -> u64 {
        1u64 << self.width_bits
    }

    /// Joules accumulated per full wrap.
    pub fn wrap_joules(&self) -> f64 {
        self.modulus() as f64 * self.unit_joules
    }
}

/// A hardware energy counter driven by a cumulative-energy oracle.
#[derive(Clone, Copy, Debug)]
pub struct EnergyCounter {
    spec: EnergyCounterSpec,
}

impl EnergyCounter {
    /// Create a counter with the given spec.
    pub fn new(spec: EnergyCounterSpec) -> Self {
        assert!(spec.unit_joules > 0.0, "unit must be positive");
        assert!(
            (1..=63).contains(&spec.width_bits),
            "width must be 1..=63 bits"
        );
        EnergyCounter { spec }
    }

    /// The counter's static description.
    pub fn spec(&self) -> &EnergyCounterSpec {
        &self.spec
    }

    /// Raw register value at time `t`, given cumulative energy in joules
    /// since `t = 0` as `energy(t)`.
    ///
    /// The register only refreshes every `update_period`, so queries between
    /// refreshes observe the previous generation — matching RAPL's ~1 ms
    /// update grid.
    pub fn raw<F: Fn(SimTime) -> f64>(&self, t: SimTime, energy: F) -> u64 {
        let gen_t = t.grid_floor(SimTime::ZERO, self.spec.update_period);
        let joules = energy(gen_t);
        debug_assert!(joules >= 0.0, "cumulative energy went negative");
        let counts = (joules / self.spec.unit_joules) as u64;
        counts % self.spec.modulus()
    }

    /// Delta between two raw readings assuming **at most one wrap** occurred
    /// between them — the correction every real RAPL reader applies. If more
    /// than one wrap actually occurred the result is silently wrong, which is
    /// precisely the >60 s sampling hazard of the paper.
    pub fn delta_counts(&self, earlier_raw: u64, later_raw: u64) -> u64 {
        if later_raw >= earlier_raw {
            later_raw - earlier_raw
        } else {
            later_raw + self.spec.modulus() - earlier_raw
        }
    }

    /// Energy in joules for a wrap-corrected count delta.
    pub fn counts_to_joules(&self, counts: u64) -> f64 {
        counts as f64 * self.spec.unit_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> EnergyCounterSpec {
        EnergyCounterSpec {
            unit_joules: 1.0 / (1u64 << 16) as f64, // classic 15.3 uJ ESU
            width_bits: 32,
            update_period: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn spec_derived_quantities() {
        let s = spec();
        assert_eq!(s.modulus(), 1u64 << 32);
        assert!((s.wrap_joules() - 65_536.0).abs() < 1e-9);
    }

    #[test]
    fn raw_respects_update_grid() {
        let c = EnergyCounter::new(spec());
        // 100 J/s cumulative energy.
        let energy = |t: SimTime| 100.0 * t.as_secs_f64();
        let a = c.raw(SimTime::from_micros(1_400), energy);
        let b = c.raw(SimTime::from_micros(1_900), energy); // same 1 ms slot
        assert_eq!(a, b);
        let d = c.raw(SimTime::from_micros(2_100), energy); // next slot
        assert!(d > a);
    }

    #[test]
    fn single_wrap_corrected() {
        let c = EnergyCounter::new(spec());
        let m = c.spec().modulus();
        assert_eq!(c.delta_counts(m - 10, 5), 15);
        assert_eq!(c.delta_counts(100, 200), 100);
        assert_eq!(c.delta_counts(0, 0), 0);
    }

    #[test]
    fn double_wrap_is_silently_wrong() {
        // This is the documented failure mode, so pin it in a test: after two
        // full wraps plus 7 counts, the corrected delta reports only 7.
        let c = EnergyCounter::new(spec());
        let start_raw = 0u64;
        let true_counts = 2 * c.spec().modulus() + 7;
        let end_raw = true_counts % c.spec().modulus();
        assert_eq!(c.delta_counts(start_raw, end_raw), 7);
    }

    #[test]
    fn counter_wraps_against_real_energy_fn() {
        let c = EnergyCounter::new(spec());
        // 1000 W -> wrap every 65.536 s.
        let energy = |t: SimTime| 1_000.0 * t.as_secs_f64();
        let t1 = SimTime::from_secs(65);
        let t2 = SimTime::from_secs(66);
        let (r1, r2) = (c.raw(t1, energy), c.raw(t2, energy));
        assert!(r2 < r1, "expected wrap between 65 s and 66 s");
        let joules = c.counts_to_joules(c.delta_counts(r1, r2));
        assert!((joules - 1_000.0).abs() < 0.1, "got {joules} J");
    }

    #[test]
    fn counts_roundtrip() {
        let c = EnergyCounter::new(spec());
        let j = c.counts_to_joules(65_536);
        assert!((j - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn invalid_width_rejected() {
        EnergyCounter::new(EnergyCounterSpec {
            unit_joules: 1.0,
            width_bits: 64,
            update_period: SimDuration::from_millis(1),
        });
    }
}
