//! The System Management Controller (SMC).
//!
//! The SMC is the card's always-on management microcontroller: it samples
//! the power/thermal sensors on its own cadence and answers queries from
//! (a) the card-side MICRAS daemon, (b) the card OS serving in-band SysMgmt
//! requests, and (c) the platform BMC over IPMB.
//!
//! Power sampling "is essentially the same [as RAPL]; the Xeon Phi actually
//! uses RAPL internally" (§II-D): the SMC reads a wrapping energy counter
//! on a fixed grid and divides deltas by the window — the same
//! counter-then-delta construction as `rapl-sim`, reused here via
//! [`powermodel::EnergyCounter`].

use crate::card::PhiCard;
use powermodel::{EnergyCounter, EnergyCounterSpec, ScalarSensor, SensorSpec};
use simkit::{NoiseStream, SimDuration, SimTime};

/// One SMC telemetry snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmcReading {
    /// When the generation was produced.
    pub generation: SimTime,
    /// Total card power, microwatts (the unit the real MICRAS files use).
    pub total_power_uw: u64,
    /// Die temperature, °C.
    pub die_temp_c: f64,
    /// GDDR temperature, °C.
    pub gddr_temp_c: f64,
    /// Intake air temperature, °C.
    pub intake_temp_c: f64,
    /// Exhaust air temperature, °C.
    pub exhaust_temp_c: f64,
    /// Fan speed, RPM.
    pub fan_rpm: u32,
    /// Core rail (VCCP) voltage, volts.
    pub vccp_volts: f64,
    /// Core rail current, amperes.
    pub vccp_amps: f64,
}

/// The SMC power pipeline with its stages separated — see
/// [`Smc::read_power_parts`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmcPowerParts {
    /// The 50 ms generation the query observes.
    pub generation: SimTime,
    /// Exact mean card power over the sampling window ending at the
    /// generation (pure averaging semantics, no counter, no noise).
    pub exact_mean_w: f64,
    /// The same mean computed from the wrapping energy counter — adds
    /// the unit truncation the real SMC pays.
    pub counter_mean_w: f64,
    /// [`SmcPowerParts::counter_mean_w`] plus sensor-chain noise (before
    /// the non-negative clamp).
    pub noisy_w: f64,
    /// The reported value: clamped, in microwatts.
    pub reported_uw: u64,
}

/// The SMC sampling engine for one card.
#[derive(Clone, Debug)]
pub struct Smc {
    counter: EnergyCounter,
    window: SimDuration,
    temp_sensor: ScalarSensor,
    power_sensor_noise_w: f64,
    noise: NoiseStream,
}

/// SMC sampling cadence (one fresh generation every 50 ms).
pub const SMC_SAMPLE_PERIOD: SimDuration = SimDuration::from_millis(50);

/// Update period of the SMC's internal energy counter.
const COUNTER_PERIOD: SimDuration = SimDuration::from_millis(1);

// Generations lie on the counter's update grid; `read_power_parts` relies
// on it.
const _: () = assert!(SMC_SAMPLE_PERIOD
    .as_nanos()
    .is_multiple_of(COUNTER_PERIOD.as_nanos()));

/// Core rail voltage.
pub const VCCP_VOLTS: f64 = 1.05;

impl Smc {
    /// Build the SMC for a card.
    pub fn new(noise: NoiseStream) -> Self {
        Smc {
            // The internal RAPL-style counter: 32-bit, ~15.3 uJ units,
            // 1 ms update — the same construction as the host RAPL model.
            counter: EnergyCounter::new(EnergyCounterSpec {
                unit_joules: 1.0 / 65_536.0,
                width_bits: 32,
                update_period: COUNTER_PERIOD,
            }),
            window: SMC_SAMPLE_PERIOD,
            temp_sensor: ScalarSensor::new(
                SensorSpec::ideal(SMC_SAMPLE_PERIOD).with_noise(0.3),
                noise.child("temp"),
            ),
            power_sensor_noise_w: 0.45,
            noise: noise.child("power"),
        }
    }

    /// The generation (sampling instant) a query at `t` observes.
    pub fn generation_at(&self, t: SimTime) -> SimTime {
        t.grid_floor(SimTime::ZERO, SMC_SAMPLE_PERIOD)
    }

    /// The SMC power pipeline at `t` with each stage separated — the
    /// oracle surface for the accuracy harness. The stages are, in
    /// pipeline order: the exact windowed mean (what an infinitely fine
    /// counter would report — the *averaging* semantics isolated), the
    /// actual wrapping-counter mean (adds the ~15.3 µJ truncation), the
    /// value after sensor-chain noise, and the reported microwatts.
    /// [`Smc::read`] returns the last stage; it is the same computation.
    pub fn read_power_parts(&self, card: &PhiCard, t: SimTime) -> SmcPowerParts {
        let generation = self.generation_at(t);
        // RAPL-style power: energy-counter delta over the sampling window.
        // Both instants lie on the counter's update grid, so the counter
        // reads the energy evaluated once at each, as the exact mean does.
        let (exact_mean_w, counter_mean_w) = if generation.as_nanos() >= self.window.as_nanos() {
            let earlier = generation - self.window;
            let (e0, e1) = (card.total_energy(earlier), card.total_energy(generation));
            let raw0 = self.counter.raw(earlier, |_| e0);
            let raw1 = self.counter.raw(generation, |_| e1);
            let counter = self
                .counter
                .counts_to_joules(self.counter.delta_counts(raw0, raw1))
                / self.window.as_secs_f64();
            let exact = (e1 - e0) / self.window.as_secs_f64();
            (exact, counter)
        } else {
            let p = card.total_power(generation);
            (p, p)
        };
        // Sensor-chain noise, stable per generation.
        let k = t.grid_index(SimTime::ZERO, SMC_SAMPLE_PERIOD);
        let noisy_w = counter_mean_w + self.power_sensor_noise_w * self.noise.normal(k);
        SmcPowerParts {
            generation,
            exact_mean_w,
            counter_mean_w,
            noisy_w,
            reported_uw: (noisy_w.max(0.0) * 1e6).round() as u64,
        }
    }

    /// Read the SMC's current telemetry generation at query time `t`.
    pub fn read(&self, card: &PhiCard, t: SimTime) -> SmcReading {
        let parts = self.read_power_parts(card, t);
        let generation = parts.generation;
        let power_w = parts.noisy_w.max(0.0);
        let die = self.temp_sensor.observe(t, |at| card.die_temp(at));
        SmcReading {
            generation,
            total_power_uw: (power_w * 1e6).round() as u64,
            die_temp_c: die,
            gddr_temp_c: card.gddr_temp(generation),
            intake_temp_c: card.intake_temp(generation),
            exhaust_temp_c: card.exhaust_temp(generation),
            fan_rpm: card.fan_rpm(generation),
            vccp_volts: VCCP_VOLTS,
            vccp_amps: card.cores_power(generation) / VCCP_VOLTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::PhiSpec;
    use hpc_workloads::Noop;
    use powermodel::DemandTrace;

    fn setup() -> (PhiCard, Smc) {
        let card = PhiCard::new(
            PhiSpec::default(),
            &Noop::figure7().profile(),
            DemandTrace::zero(),
            SimTime::from_secs(200),
        );
        (card, Smc::new(NoiseStream::new(21)))
    }

    #[test]
    fn power_reading_matches_truth_within_noise() {
        let (card, smc) = setup();
        let t = SimTime::from_secs(60);
        let r = smc.read(&card, t);
        let truth = card.total_power(t);
        let read_w = r.total_power_uw as f64 / 1e6;
        assert!(
            (read_w - truth).abs() < 3.0,
            "read {read_w} vs truth {truth}"
        );
    }

    #[test]
    fn readings_quantize_to_generations() {
        let (card, smc) = setup();
        let a = smc.read(&card, SimTime::from_millis(60_010));
        let b = smc.read(&card, SimTime::from_millis(60_040)); // same 50 ms slot
        assert_eq!(a, b);
        let c = smc.read(&card, SimTime::from_millis(60_060));
        assert_ne!(a.generation, c.generation);
    }

    #[test]
    fn early_queries_before_first_window_work() {
        let (card, smc) = setup();
        let r = smc.read(&card, SimTime::from_millis(20));
        assert!(r.total_power_uw > 50_000_000, "{}", r.total_power_uw);
    }

    #[test]
    fn power_parts_final_stage_is_the_reported_value() {
        let (card, smc) = setup();
        for ms in [20u64, 1_000, 12_345, 60_010, 100_000] {
            let t = SimTime::from_millis(ms);
            let parts = smc.read_power_parts(&card, t);
            let r = smc.read(&card, t);
            assert_eq!(parts.reported_uw, r.total_power_uw, "t = {t}");
            assert_eq!(parts.generation, r.generation);
            // Counter truncation only loses whole units over the window.
            let max_quant = 2.0 * (1.0 / 65_536.0) / SMC_SAMPLE_PERIOD.as_secs_f64();
            assert!(
                (parts.counter_mean_w - parts.exact_mean_w).abs() <= max_quant,
                "t = {t}: counter {} vs exact {}",
                parts.counter_mean_w,
                parts.exact_mean_w
            );
        }
    }

    #[test]
    fn voltage_current_decomposition() {
        let (card, smc) = setup();
        let t = SimTime::from_secs(30);
        let r = smc.read(&card, t);
        assert!((r.vccp_volts - 1.05).abs() < 1e-9);
        let implied_w = r.vccp_volts * r.vccp_amps;
        let truth = card.cores_power(r.generation);
        assert!((implied_w - truth).abs() < 1e-6);
    }

    #[test]
    fn temps_ordered_sensibly() {
        let (card, smc) = setup();
        let r = smc.read(&card, SimTime::from_secs(100));
        assert!(r.die_temp_c > r.intake_temp_c);
        assert!(r.exhaust_temp_c > r.intake_temp_c);
        assert!(r.gddr_temp_c < r.die_temp_c);
        assert!(r.fan_rpm >= 1_500);
    }
}
