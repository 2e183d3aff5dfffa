//! The machine model: node cards bound to workloads.
//!
//! A [`BgqMachine`] is the ground-truth power oracle: every node card holds
//! a seven-domain [`DevicePower`] built from the workload profile assigned
//! to it (idle cards run the zero profile). Both observation paths — the
//! environmental database's BPM polling and the EMON API — read through
//! this oracle.

use crate::domains::Domain;
use crate::topology::{Location, Topology};
use hpc_workloads::WorkloadProfile;
use powermodel::{DemandTrace, DevicePower, DeviceSpec};
use simkit::{NoiseStream, SimTime};

/// Static machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct BgqConfig {
    /// Machine shape.
    pub topology: Topology,
    /// AC→DC conversion efficiency of the bulk power modules.
    pub conversion_efficiency: f64,
    /// BPMs serving each midplane.
    ///
    /// Physically a BG/Q midplane is fed by an N+1 redundant BPM shelf; the
    /// default here (16) is calibrated so a single BPM's input power lands
    /// in the 800–1,800 W band printed on Figure 1's axis. The figure's
    /// *shape* is invariant to this choice.
    pub bpms_per_midplane: usize,
}

impl Default for BgqConfig {
    fn default() -> Self {
        BgqConfig {
            topology: Topology { racks: 1 },
            conversion_efficiency: 0.94,
            bpms_per_midplane: 16,
        }
    }
}

/// One node board (node card) and its power oracle.
#[derive(Clone, Debug)]
pub struct NodeCard {
    /// Physical location.
    pub location: Location,
    /// The seven-domain power model currently bound to this card.
    power: DevicePower,
}

impl NodeCard {
    /// Power of one domain at `t`, watts.
    pub fn domain_power(&self, domain: Domain, t: SimTime) -> f64 {
        let idx = Domain::ALL
            .iter()
            .position(|&d| d == domain)
            .expect("domain in ALL");
        self.power.component_power(idx, t)
    }

    /// Total card power at `t`, watts (DC, output side of the BPMs).
    pub fn total_power(&self, t: SimTime) -> f64 {
        self.power.total_power(t)
    }

    /// Total card energy over `[from, to]`, joules.
    pub fn total_energy(&self, from: SimTime, to: SimTime) -> f64 {
        self.power.total_energy(from, to)
    }
}

/// The whole machine.
#[derive(Clone, Debug)]
pub struct BgqMachine {
    config: BgqConfig,
    cards: Vec<NodeCard>,
    noise: NoiseStream,
}

impl BgqMachine {
    /// Build an idle machine.
    pub fn new(config: BgqConfig, seed: u64) -> Self {
        let cards = config
            .topology
            .board_locations()
            .map(|location| NodeCard {
                location,
                power: build_card_power(location, None),
            })
            .collect();
        BgqMachine {
            config,
            cards,
            noise: NoiseStream::new(seed),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &BgqConfig {
        &self.config
    }

    /// Machine-wide noise root (children derive per-sensor streams).
    pub fn noise(&self) -> &NoiseStream {
        &self.noise
    }

    /// All node cards.
    pub fn cards(&self) -> &[NodeCard] {
        &self.cards
    }

    /// A node card by board index.
    pub fn card(&self, board_index: usize) -> &NodeCard {
        &self.cards[board_index]
    }

    /// Bind a workload profile to a set of node cards (the job's partition).
    /// Other cards stay on their current binding.
    pub fn assign_job(&mut self, board_indices: &[usize], profile: &WorkloadProfile) {
        for &i in board_indices {
            let location = self.cards[i].location;
            self.cards[i] = NodeCard {
                location,
                power: build_card_power(location, Some(profile)),
            };
        }
    }

    /// Release cards back to idle.
    pub fn release(&mut self, board_indices: &[usize]) {
        for &i in board_indices {
            let location = self.cards[i].location;
            self.cards[i] = NodeCard {
                location,
                power: build_card_power(location, None),
            };
        }
    }

    /// DC power of one midplane at `t` (sum of its 16 node cards), watts.
    pub fn midplane_power(&self, rack: u16, midplane: u8, t: SimTime) -> f64 {
        self.cards
            .iter()
            .filter(|c| c.location.rack == rack && c.location.midplane == midplane)
            .map(|c| c.total_power(t))
            .sum()
    }
}

fn build_card_power(location: Location, profile: Option<&WorkloadProfile>) -> DevicePower {
    let spec = DeviceSpec {
        name: format!("node-card {location}"),
        components: Domain::ALL.iter().map(|d| d.component_spec()).collect(),
    };
    let demands: Vec<DemandTrace> = Domain::ALL
        .iter()
        .map(|d| match profile {
            Some(p) => d.demand_from(p),
            None => DemandTrace::zero(),
        })
        .collect();
    DevicePower::new(spec, &demands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::node_card_idle_watts;
    use hpc_workloads::Mmps;

    #[test]
    fn idle_machine_power_is_cards_times_idle() {
        let m = BgqMachine::new(BgqConfig::default(), 1);
        let t = SimTime::from_secs(10);
        let expected = 32.0 * node_card_idle_watts(); // 1 rack = 32 boards
        let total: f64 = m.cards().iter().map(|c| c.total_power(t)).sum();
        assert!((total - expected).abs() < 1e-6);
    }

    #[test]
    fn assigning_a_job_raises_only_its_cards() {
        let mut m = BgqMachine::new(BgqConfig::default(), 1);
        let profile = Mmps::figure1().profile();
        m.assign_job(&[0], &profile);
        let t = SimTime::from_secs(700);
        let busy = m.card(0).total_power(t);
        let idle = m.card(1).total_power(t);
        assert!(busy > idle + 500.0, "busy {busy} vs idle {idle}");
        assert!((idle - node_card_idle_watts()).abs() < 1e-6);
    }

    #[test]
    fn release_returns_card_to_idle() {
        let mut m = BgqMachine::new(BgqConfig::default(), 1);
        let profile = Mmps::figure1().profile();
        m.assign_job(&[3], &profile);
        m.release(&[3]);
        let t = SimTime::from_secs(700);
        assert!((m.card(3).total_power(t) - node_card_idle_watts()).abs() < 1e-6);
    }

    #[test]
    fn midplane_power_sums_sixteen_cards() {
        let m = BgqMachine::new(BgqConfig::default(), 1);
        let t = SimTime::ZERO;
        let mp = m.midplane_power(0, 0, t);
        assert!((mp - 16.0 * node_card_idle_watts()).abs() < 1e-6);
    }

    #[test]
    fn domain_power_sums_to_total() {
        let mut m = BgqMachine::new(BgqConfig::default(), 2);
        m.assign_job(&[0], &Mmps::figure1().profile());
        let t = SimTime::from_secs(100);
        let by_domain: f64 = Domain::ALL
            .iter()
            .map(|&d| m.card(0).domain_power(d, t))
            .sum();
        assert!((by_domain - m.card(0).total_power(t)).abs() < 1e-9);
    }
}
