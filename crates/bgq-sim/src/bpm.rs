//! Bulk power modules (BPMs).
//!
//! "In each BG/Q rack, bulk power modules (BPMs) convert AC power to 48 V DC
//! power, which is then distributed to the two midplanes. … The Blue Gene
//! environmental database stores power consumption information (in watts and
//! amperes) in both the input and output directions of the BPM." (§II-A)
//!
//! A [`BpmGroup`] models the BPM shelf of one midplane: the midplane's DC
//! load is shared equally across the group, each module converts at the
//! configured efficiency, and each module's input/output watts and amps are
//! read with a small measurement noise.

use crate::machine::BgqMachine;
use powermodel::{ScalarSensor, SensorSpec};
use simkit::{SimDuration, SimTime};

/// DC bus voltage of the BPM output.
pub const BUS_VOLTAGE: f64 = 48.0;

/// One environmental-database power reading of a single BPM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BpmReading {
    /// AC input power, watts.
    pub input_watts: f64,
    /// DC output power, watts.
    pub output_watts: f64,
    /// AC input current, amperes (at nominal 208 V).
    pub input_amps: f64,
    /// DC output current, amperes (at 48 V).
    pub output_amps: f64,
}

/// The BPM shelf of one midplane.
#[derive(Clone, Debug)]
pub struct BpmGroup {
    rack: u16,
    midplane: u8,
    sensors: Vec<ScalarSensor>,
}

/// Nominal AC line voltage feeding the BPMs.
pub const LINE_VOLTAGE: f64 = 208.0;

impl BpmGroup {
    /// Build the shelf for `(rack, midplane)` of `machine`.
    ///
    /// Each module gets an independent noise stream; BPM telemetry refreshes
    /// about once a second (far faster than the environmental database polls
    /// it, which is the point of §II-A's long-interval discussion).
    pub fn new(machine: &BgqMachine, rack: u16, midplane: u8) -> Self {
        let n = machine.config().bpms_per_midplane;
        let spec = SensorSpec::ideal(SimDuration::from_secs(1)).with_noise(4.0);
        let root = machine
            .noise()
            .child(&format!("bpm-R{rack:02}-M{midplane}"));
        let sensors = (0..n)
            .map(|i| ScalarSensor::new(spec, root.child(&format!("module-{i}"))))
            .collect();
        BpmGroup {
            rack,
            midplane,
            sensors,
        }
    }

    /// Number of modules in the shelf.
    pub fn modules(&self) -> usize {
        self.sensors.len()
    }

    /// Read module `i` at time `t`.
    pub fn read(&self, machine: &BgqMachine, i: usize, t: SimTime) -> BpmReading {
        let n = self.sensors.len() as f64;
        let efficiency = machine.config().conversion_efficiency;
        let rack = self.rack;
        let midplane = self.midplane;
        // Ground truth: this module's share of the midplane DC load.
        let truth = |at: SimTime| machine.midplane_power(rack, midplane, at) / n;
        let output_watts = self.sensors[i].observe(t, truth).max(0.0);
        let input_watts = output_watts / efficiency;
        BpmReading {
            input_watts,
            output_watts,
            input_amps: input_watts / LINE_VOLTAGE,
            output_amps: output_watts / BUS_VOLTAGE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::BgqConfig;
    use crate::topology::BOARDS_PER_MIDPLANE;
    use hpc_workloads::Mmps;

    fn machine() -> BgqMachine {
        BgqMachine::new(BgqConfig::default(), 7)
    }

    #[test]
    fn conversion_loss_shows_on_input_side() {
        let m = machine();
        let g = BpmGroup::new(&m, 0, 0);
        let r = g.read(&m, 0, SimTime::from_secs(5));
        assert!(r.input_watts > r.output_watts);
        let eta = r.output_watts / r.input_watts;
        assert!((eta - 0.94).abs() < 1e-9, "efficiency {eta}");
    }

    #[test]
    fn amps_consistent_with_watts() {
        let m = machine();
        let g = BpmGroup::new(&m, 0, 0);
        let r = g.read(&m, 2, SimTime::from_secs(5));
        assert!((r.output_amps * BUS_VOLTAGE - r.output_watts).abs() < 1e-9);
        assert!((r.input_amps * LINE_VOLTAGE - r.input_watts).abs() < 1e-9);
    }

    #[test]
    fn idle_module_near_one_node_card_input() {
        // With the default calibration (16 BPMs per midplane, 16 boards per
        // midplane) one module carries one node card's worth of load.
        let m = machine();
        assert_eq!(m.config().bpms_per_midplane, BOARDS_PER_MIDPLANE);
        let g = BpmGroup::new(&m, 0, 0);
        let r = g.read(&m, 0, SimTime::from_secs(3));
        // Idle card 815 W / 0.94 ≈ 867 W input, ± sensor noise.
        assert!(
            (820.0..920.0).contains(&r.input_watts),
            "idle module input {}",
            r.input_watts
        );
    }

    #[test]
    fn module_power_rises_with_a_job_and_lands_in_figure1_band() {
        let mut m = machine();
        // The job occupies the whole midplane, as a real MMPS run would.
        let boards: Vec<usize> = (0..BOARDS_PER_MIDPLANE).collect();
        m.assign_job(&boards, &Mmps::figure1().profile());
        let g = BpmGroup::new(&m, 0, 0);
        let idle_before = 850.0; // roughly, from the test above
        let busy = g.read(&m, 0, SimTime::from_secs(700)).input_watts;
        assert!(busy > idle_before + 500.0, "busy input {busy}");
        assert!(
            (1_500.0..1_900.0).contains(&busy),
            "busy module input {busy} outside Figure 1 band"
        );
    }

    #[test]
    fn modules_have_independent_noise() {
        let m = machine();
        let g = BpmGroup::new(&m, 0, 0);
        let t = SimTime::from_secs(9);
        let a = g.read(&m, 0, t).output_watts;
        let b = g.read(&m, 1, t).output_watts;
        assert_ne!(a, b, "two modules returned identical noisy readings");
    }

    #[test]
    fn rereads_are_stable() {
        let m = machine();
        let g = BpmGroup::new(&m, 0, 0);
        let t = SimTime::from_secs(9);
        assert_eq!(g.read(&m, 0, t), g.read(&m, 0, t));
    }
}
