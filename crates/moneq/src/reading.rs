//! The record MonEQ stores per poll.
//!
//! §III: initialization "allocates an array of a custom C struct with
//! fields that correspond to all possible data points which can be
//! collected for the given hardware". [`DataPoint`] is that struct: a
//! fixed-shape record with optional fields for data a given backend cannot
//! provide.

use simkit::SimTime;
use std::borrow::Cow;

/// One collected record: a device/domain power sample with optional
/// voltage/current/temperature companions.
///
/// The labels are `Cow<'static, str>`: a backend draws them from its own
/// fixed vocabulary (`"nodecard"`, `"Chip Core"`, `"gpu0"`, …) and lends
/// them, so a poll allocates no label; labels parsed back from an output
/// file or off the wire that match no known vocabulary are owned.
#[derive(Clone, Debug, PartialEq)]
pub struct DataPoint {
    /// When the poll fired (virtual time).
    pub timestamp: SimTime,
    /// Device within the node (e.g. `nodecard`, `pkg`, `gpu0`, `mic0`).
    /// Several accelerators on one node each report under their own name.
    pub device: Cow<'static, str>,
    /// Domain within the device (e.g. `Chip Core`, `DRAM`, `board`).
    pub domain: Cow<'static, str>,
    /// Power, watts.
    pub watts: f64,
    /// Rail voltage, volts (platforms that expose it).
    pub volts: Option<f64>,
    /// Rail current, amperes (platforms that expose it).
    pub amps: Option<f64>,
    /// Temperature, °C (platforms that expose it).
    pub temp_c: Option<f64>,
    /// Degradation marker: `true` when the record is a last-good-value
    /// substitute or a glitched sample served while the mechanism was
    /// failing, rather than a fresh reading at `timestamp`. Stale records
    /// are counted separately in the completeness report and flagged in the
    /// output file so post-processing can exclude them.
    pub stale: bool,
}

impl DataPoint {
    /// A power-only record.
    pub fn power(
        timestamp: SimTime,
        device: impl Into<Cow<'static, str>>,
        domain: impl Into<Cow<'static, str>>,
        watts: f64,
    ) -> Self {
        DataPoint {
            timestamp,
            device: device.into(),
            domain: domain.into(),
            watts,
            volts: None,
            amps: None,
            temp_c: None,
            stale: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_constructor_defaults() {
        let p = DataPoint::power(SimTime::from_secs(1), "gpu0", "board", 55.0);
        assert_eq!(p.device, "gpu0");
        assert_eq!(p.watts, 55.0);
        assert!(p.volts.is_none() && p.amps.is_none() && p.temp_c.is_none());
    }
}
