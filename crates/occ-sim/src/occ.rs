//! The On-Chip Controller's sensor loop.
//!
//! The OCC is a dedicated PPC405 microcontroller on the POWER9 die. Its
//! main loop wakes every ~25 ms, reads the analog power-measurement chain
//! (APSS) and the digital activity counters, and publishes a completed
//! sensor buffer into main memory where OPAL exposes it to the host. Reads
//! are therefore *buffer* reads: a query at `t` observes the latest
//! completed 25 ms generation, never the instantaneous signal.
//!
//! Energy is kept as a wrapping accumulation counter (the same
//! counter-then-delta construction as `rapl-sim`, via
//! [`powermodel::EnergyCounter`]): the OCC adds the window's energy into a
//! fixed-width register every accumulator step, and consumers difference
//! two reads modulo the width. Published power sensors are whole watts —
//! the coarse quantization the OCC evaluation paper measured.

use crate::chip::Power9Chip;
use powermodel::{EnergyCounter, EnergyCounterSpec};
use simkit::{SimDuration, SimTime};

/// OCC main-loop cadence: one fresh sensor buffer every 25 ms.
pub const OCC_TICK: SimDuration = SimDuration::from_millis(25);

/// Accumulator step: the APSS sampling cadence the energy accumulation
/// runs on (sub-tick, so the buffer's mean is a true accumulation, not a
/// point sample).
pub const OCC_ACC_STEP: SimDuration = SimDuration::from_micros(250);

// Generations lie on the accumulator grid; `Occ::sample` relies on it.
const _: () = assert!(OCC_TICK.as_nanos().is_multiple_of(OCC_ACC_STEP.as_nanos()));

/// Energy accumulator LSB, joules.
pub const OCC_ACC_UNIT_J: f64 = 1.0 / 1_024.0;

/// The accumulator register layout: 32 bits of [`OCC_ACC_UNIT_J`] units
/// added on the [`OCC_ACC_STEP`] grid. Public so tests (and the accuracy
/// oracle) can reason about wraparound without reaching into [`Occ`].
pub fn accumulator_spec() -> EnergyCounterSpec {
    EnergyCounterSpec {
        unit_joules: OCC_ACC_UNIT_J,
        width_bits: 32,
        update_period: OCC_ACC_STEP,
    }
}

/// One published OCC sensor buffer, as OPAL exposes it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OccReading {
    /// The 25 ms generation the query observed (when the buffer's window
    /// ended).
    pub generation: SimTime,
    /// Socket power, whole watts (the OCC publishes u16 watt sensors).
    pub socket_power_w: u32,
    /// The raw wrapping energy accumulator at the generation.
    pub energy_counts: u64,
    /// Die temperature, whole °C.
    pub die_temp_c: f64,
}

/// The OCC power pipeline with its stages separated — see
/// [`Occ::read_power_parts`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OccPowerParts {
    /// The 25 ms generation the query observes.
    pub generation: SimTime,
    /// Exact mean chip power over the tick ending at the generation (pure
    /// averaging semantics: what an infinitely fine accumulator would
    /// report).
    pub exact_mean_w: f64,
    /// The same mean computed from the wrapping accumulator — adds the
    /// ~0.98 mJ unit truncation on the 250 µs accumulation grid.
    pub counter_mean_w: f64,
    /// The published value: whole watts. The OCC chain is digital end to
    /// end (accumulate, difference, divide), so unlike the SMC there is no
    /// sensor-chain noise stage between the counter and the report.
    pub reported_w: u32,
}

/// The OCC sampling engine for one chip.
#[derive(Clone, Debug)]
pub struct Occ {
    counter: EnergyCounter,
}

impl Default for Occ {
    fn default() -> Self {
        Self::new()
    }
}

impl Occ {
    /// Build the OCC for a chip.
    pub fn new() -> Self {
        Occ {
            counter: EnergyCounter::new(accumulator_spec()),
        }
    }

    /// The generation (buffer-completion instant) a query at `t` observes.
    pub fn generation_at(&self, t: SimTime) -> SimTime {
        t.grid_floor(SimTime::ZERO, OCC_TICK)
    }

    /// The OCC power pipeline at `t` with each stage separated — the
    /// oracle surface for the accuracy harness. Stages, in pipeline order:
    /// the exact windowed mean over the completed tick (averaging
    /// semantics isolated), the accumulator-difference mean (adds unit
    /// truncation), and the published whole-watt sensor. [`Occ::read`]
    /// returns the last stage; it is the same computation.
    pub fn read_power_parts(&self, chip: &Power9Chip, t: SimTime) -> OccPowerParts {
        self.sample(chip, t).0
    }

    /// The power pipeline at `t` and the raw accumulator at its
    /// generation. Both instants lie on the accumulator grid, so the
    /// accumulator reads the energy evaluated once at each, as the exact
    /// mean does.
    fn sample(&self, chip: &Power9Chip, t: SimTime) -> (OccPowerParts, u64) {
        let generation = self.generation_at(t);
        let e1 = chip.total_energy(generation);
        let raw1 = self.counter.raw(generation, |_| e1);
        let (exact_mean_w, counter_mean_w) = if generation.as_nanos() >= OCC_TICK.as_nanos() {
            let earlier = generation - OCC_TICK;
            let e0 = chip.total_energy(earlier);
            let raw0 = self.counter.raw(earlier, |_| e0);
            let counter = self
                .counter
                .counts_to_joules(self.counter.delta_counts(raw0, raw1))
                / OCC_TICK.as_secs_f64();
            let exact = (e1 - e0) / OCC_TICK.as_secs_f64();
            (exact, counter)
        } else {
            // Before the first completed buffer the OCC publishes the
            // boot-time point sample.
            let p = chip.total_power(generation);
            (p, p)
        };
        let parts = OccPowerParts {
            generation,
            exact_mean_w,
            counter_mean_w,
            reported_w: counter_mean_w.max(0.0).round() as u32,
        };
        (parts, raw1)
    }

    /// Read the latest completed sensor buffer at query time `t`.
    pub fn read(&self, chip: &Power9Chip, t: SimTime) -> OccReading {
        let (parts, energy_counts) = self.sample(chip, t);
        OccReading {
            generation: parts.generation,
            socket_power_w: parts.reported_w,
            energy_counts,
            die_temp_c: chip.die_temp(parts.generation).round(),
        }
    }

    /// Read the buffer *before* the latest one — what a stale-buffer
    /// glitch serves when the main loop misses its deadline and the
    /// previous generation stays mapped.
    pub fn read_stale(&self, chip: &Power9Chip, t: SimTime) -> OccReading {
        let generation = self.generation_at(t);
        if generation.as_nanos() >= OCC_TICK.as_nanos() {
            self.read(chip, generation - OCC_TICK)
        } else {
            self.read(chip, t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::P9Spec;
    use hpc_workloads::Noop;

    fn setup() -> (Power9Chip, Occ) {
        let chip = Power9Chip::new(
            P9Spec::default(),
            &Noop::figure4().profile(),
            SimTime::from_secs(200),
        );
        (chip, Occ::new())
    }

    #[test]
    fn power_reading_matches_truth_within_a_watt_plus_quant() {
        let (chip, occ) = setup();
        let t = SimTime::from_secs(60);
        let r = occ.read(&chip, t);
        let truth = chip.total_power(t);
        assert!(
            (f64::from(r.socket_power_w) - truth).abs() < 2.0,
            "read {} vs truth {truth}",
            r.socket_power_w
        );
    }

    #[test]
    fn readings_quantize_to_25ms_generations() {
        let (chip, occ) = setup();
        let a = occ.read(&chip, SimTime::from_millis(60_005));
        let b = occ.read(&chip, SimTime::from_millis(60_020)); // same tick
        assert_eq!(a, b);
        let c = occ.read(&chip, SimTime::from_millis(60_030));
        assert_ne!(a.generation, c.generation);
    }

    #[test]
    fn early_queries_before_first_buffer_work() {
        let (chip, occ) = setup();
        let r = occ.read(&chip, SimTime::from_millis(10));
        assert!(r.socket_power_w > 80, "{}", r.socket_power_w);
    }

    #[test]
    fn power_parts_final_stage_is_the_reported_value() {
        let (chip, occ) = setup();
        for ms in [10u64, 1_000, 12_345, 60_005, 100_000] {
            let t = SimTime::from_millis(ms);
            let parts = occ.read_power_parts(&chip, t);
            let r = occ.read(&chip, t);
            assert_eq!(parts.reported_w, r.socket_power_w, "t = {t}");
            assert_eq!(parts.generation, r.generation);
            // Accumulator truncation only loses whole units per endpoint.
            let max_quant = 2.0 * OCC_ACC_UNIT_J / OCC_TICK.as_secs_f64();
            assert!(
                (parts.counter_mean_w - parts.exact_mean_w).abs() <= max_quant,
                "t = {t}: counter {} vs exact {}",
                parts.counter_mean_w,
                parts.exact_mean_w
            );
        }
    }

    #[test]
    fn stale_read_is_the_previous_generation() {
        let (chip, occ) = setup();
        let t = SimTime::from_millis(60_010);
        let fresh = occ.read(&chip, t);
        let stale = occ.read_stale(&chip, t);
        assert_eq!(stale.generation + OCC_TICK, fresh.generation);
        assert_eq!(stale, occ.read(&chip, t - OCC_TICK));
    }

    #[test]
    fn accumulator_wraps_and_deltas_correct_one_wrap() {
        let counter = EnergyCounter::new(accumulator_spec());
        // A constant 300 W synthetic signal wraps 2^32 counts of ~0.98 mJ
        // after ~14,000 s; a delta across the wrap must still be exact.
        let energy = |at: SimTime| 300.0 * at.as_secs_f64();
        let wrap_s = counter.spec().wrap_joules() / 300.0;
        let before = SimTime::from_secs(wrap_s as u64 - 1);
        let after = SimTime::from_secs(wrap_s as u64 + 1);
        let (r0, r1) = (counter.raw(before, energy), counter.raw(after, energy));
        assert!(r1 < r0, "accumulator did not wrap: {r0} -> {r1}");
        let joules = counter.counts_to_joules(counter.delta_counts(r0, r1));
        let exact = energy(after.grid_floor(SimTime::ZERO, OCC_ACC_STEP))
            - energy(before.grid_floor(SimTime::ZERO, OCC_ACC_STEP));
        assert!(
            (joules - exact).abs() <= 2.0 * OCC_ACC_UNIT_J,
            "wrap delta {joules} vs exact {exact}"
        );
    }

    #[test]
    fn temps_are_whole_degrees() {
        let (chip, occ) = setup();
        let r = occ.read(&chip, SimTime::from_secs(90));
        assert_eq!(r.die_temp_c, r.die_temp_c.round());
        assert!(r.die_temp_c > 28.0);
    }
}
