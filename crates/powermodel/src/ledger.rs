//! Exact ground-truth energy accounting — the reference every mechanism
//! is judged against.
//!
//! A [`crate::DevicePower`] already integrates its first-order ramp in
//! closed form per piecewise-constant demand segment, so true energy over
//! any window is an *analytic* quantity: no step size, no accumulation
//! drift, no dependence on how the window is subdivided (up to one
//! floating-point rounding per segment). The [`TrueEnergyLedger`] packages
//! that guarantee for a whole platform: named devices, instantaneous
//! total power, exact energy over arbitrary windows, and an exact
//! per-device per-window breakdown on a fixed grid — the denominator of
//! every error decomposition in `envmon-accuracy`.

use crate::device::DevicePower;
use simkit::{SimDuration, SimTime};

/// Exact energy of one device over one grid window — see
/// [`TrueEnergyLedger::windows`].
#[derive(Clone, Debug, PartialEq)]
pub struct WindowEnergy {
    /// Name the device was registered under.
    pub device: String,
    /// Zero-based window index on the grid.
    pub index: u64,
    /// Window start (inclusive), `from + index * period` exactly.
    pub start: SimTime,
    /// Window end (exclusive except for the final, clipped window).
    pub end: SimTime,
    /// Closed-form energy over `[start, end]`, joules.
    pub joules: f64,
}

/// A set of named ground-truth power sources with exact closed-form
/// energy integrals.
///
/// ```
/// use powermodel::{ComponentSpec, DevicePower, PhaseBuilder, TrueEnergyLedger};
/// use simkit::{SimDuration, SimTime};
///
/// let demand = PhaseBuilder::new().phase(SimDuration::from_secs(10), 1.0).build();
/// let dev = DevicePower::single(
///     "gpu",
///     ComponentSpec { name: "core", idle_w: 20.0, dynamic_w: 80.0,
///                     ramp_tau: SimDuration::ZERO },
///     &demand,
/// );
/// let mut ledger = TrueEnergyLedger::new();
/// ledger.add_device("gpu", dev);
/// // 100 W for 10 s, idle after: exact, not approximated.
/// let j = ledger.energy(SimTime::ZERO, SimTime::from_secs(10));
/// assert!((j - 1000.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TrueEnergyLedger {
    devices: Vec<(String, DevicePower)>,
}

impl TrueEnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TrueEnergyLedger::default()
    }

    /// Register a device under `name`. Names must be unique; energy
    /// queries sum devices in registration order (fixed order keeps
    /// floating-point sums reproducible).
    pub fn add_device(&mut self, name: impl Into<String>, device: DevicePower) -> &mut Self {
        let name = name.into();
        assert!(
            self.device(&name).is_none(),
            "duplicate ledger device {name:?}"
        );
        self.devices.push((name, device));
        self
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Is the ledger empty?
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The registered device names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.devices.iter().map(|(n, _)| n.as_str())
    }

    /// Look up a device by name.
    pub fn device(&self, name: &str) -> Option<&DevicePower> {
        self.devices.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// Instantaneous total true power at `t`, watts.
    pub fn power(&self, t: SimTime) -> f64 {
        self.devices.iter().map(|(_, d)| d.total_power(t)).sum()
    }

    /// Exact total energy over `[from, to]`, joules.
    pub fn energy(&self, from: SimTime, to: SimTime) -> f64 {
        self.devices
            .iter()
            .map(|(_, d)| d.total_energy(from, to))
            .sum()
    }

    /// Exact per-device energy on the grid `from + k * period`, every
    /// window clipped to `to`. Window boundaries are computed directly
    /// from the index in integer nanoseconds — boundary `k` is the same
    /// instant whether reached as a window start or the previous window's
    /// end, so summing window energies telescopes against
    /// [`TrueEnergyLedger::energy`] up to floating-point rounding only.
    pub fn windows(&self, from: SimTime, to: SimTime, period: SimDuration) -> Vec<WindowEnergy> {
        assert!(!period.is_zero(), "window period must be positive");
        assert!(from <= to, "window range must be ordered");
        let mut out = Vec::new();
        let mut index = 0u64;
        loop {
            let start = from + SimDuration::from_nanos(period.as_nanos().saturating_mul(index));
            if start >= to {
                break;
            }
            let nominal_end =
                from + SimDuration::from_nanos(period.as_nanos().saturating_mul(index + 1));
            let end = nominal_end.min(to);
            for (name, dev) in &self.devices {
                out.push(WindowEnergy {
                    device: name.clone(),
                    index,
                    start,
                    end,
                    joules: dev.total_energy(start, end),
                });
            }
            index += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseBuilder;
    use crate::device::ComponentSpec;

    fn spec(idle: f64, dynamic: f64, tau_ms: u64) -> ComponentSpec {
        ComponentSpec {
            name: "c",
            idle_w: idle,
            dynamic_w: dynamic,
            ramp_tau: SimDuration::from_millis(tau_ms),
        }
    }

    fn ramped_device() -> DevicePower {
        let demand = PhaseBuilder::new()
            .phase(SimDuration::from_secs(3), 0.8)
            .idle(SimDuration::from_secs(1))
            .phase(SimDuration::from_secs(2), 0.3)
            .build();
        DevicePower::single("dev", spec(25.0, 75.0, 700), &demand)
    }

    #[test]
    fn window_energies_telescope_to_the_total() {
        let mut ledger = TrueEnergyLedger::new();
        ledger.add_device("a", ramped_device());
        let (from, to) = (SimTime::from_millis(130), SimTime::from_secs(6));
        let total = ledger.energy(from, to);
        let windows = ledger.windows(from, to, SimDuration::from_millis(170));
        let sum: f64 = windows.iter().map(|w| w.joules).sum();
        assert!(
            (sum - total).abs() <= 1e-9 * total.abs().max(1.0),
            "sum {sum} vs total {total}"
        );
        // Boundaries are shared instants, and the last window is clipped.
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(windows.last().unwrap().end, to);
    }

    #[test]
    fn windows_split_by_device_and_grid() {
        let mut ledger = TrueEnergyLedger::new();
        ledger.add_device("a", ramped_device());
        ledger.add_device("b", ramped_device());
        let ws = ledger.windows(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(250),
        );
        assert_eq!(ws.len(), 4 * 2);
        let total = ledger
            .device("a")
            .unwrap()
            .total_energy(SimTime::ZERO, SimTime::from_secs(1));
        let sum: f64 = ws
            .iter()
            .filter(|w| w.device == "a")
            .map(|w| w.joules)
            .sum();
        assert!(
            (sum - total).abs() <= 1e-9 * total.max(1.0),
            "{sum} vs {total}"
        );
    }

    #[test]
    fn constant_load_is_exact() {
        let demand = PhaseBuilder::new()
            .phase(SimDuration::from_secs(100), 1.0)
            .build_open();
        let dev = DevicePower::single("dev", spec(30.0, 70.0, 0), &demand);
        let mut ledger = TrueEnergyLedger::new();
        ledger.add_device("flat", dev);
        assert_eq!(ledger.power(SimTime::from_secs(50)), 100.0);
        let j = ledger.energy(SimTime::from_secs(10), SimTime::from_secs(20));
        assert!((j - 1000.0).abs() < 1e-9, "{j}");
    }

    #[test]
    #[should_panic(expected = "duplicate ledger device")]
    fn duplicate_names_are_rejected() {
        let mut ledger = TrueEnergyLedger::new();
        ledger.add_device("x", ramped_device());
        ledger.add_device("x", ramped_device());
    }
}
