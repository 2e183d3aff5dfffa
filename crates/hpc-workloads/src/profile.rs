//! Workload profiles: per-channel demand over virtual time.

use powermodel::DemandTrace;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Abstract activity channels a workload can load.
///
/// Channels are platform-neutral; each platform crate maps them onto its own
/// power components (e.g. [`Channel::Network`] → the BG/Q HSS-network and
/// link-chip domains).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// Host/node CPU cores.
    Cpu,
    /// Host/node main memory traffic.
    Memory,
    /// Interconnect / network traffic.
    Network,
    /// PCI Express transfers.
    Pcie,
    /// Accelerator (GPU / coprocessor) compute.
    Accelerator,
    /// Accelerator on-board memory traffic.
    AcceleratorMemory,
    /// Storage / I/O activity.
    Io,
}

impl Channel {
    /// Every channel, in a fixed order.
    pub const ALL: [Channel; 7] = [
        Channel::Cpu,
        Channel::Memory,
        Channel::Network,
        Channel::Pcie,
        Channel::Accelerator,
        Channel::AcceleratorMemory,
        Channel::Io,
    ];
}

/// A named span of the application the user wants profiled separately
/// (MonEQ's tagging feature, §III).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagSpan {
    /// Tag label.
    pub label: String,
    /// Span start (virtual time, relative to workload start).
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

/// A workload's complete demand description.
#[derive(Clone, Debug, Default)]
pub struct WorkloadProfile {
    /// Workload display name.
    pub name: String,
    /// Virtual runtime of the workload (demand is zero afterwards).
    pub duration: SimDuration,
    demands: BTreeMap<Channel, DemandTrace>,
    /// Logical sections for MonEQ's tagging feature.
    pub tags: Vec<TagSpan>,
}

impl WorkloadProfile {
    /// An empty profile with a name and duration.
    pub fn new(name: impl Into<String>, duration: SimDuration) -> Self {
        WorkloadProfile {
            name: name.into(),
            duration,
            demands: BTreeMap::new(),
            tags: Vec::new(),
        }
    }

    /// Install the demand trace for a channel (replacing any previous one).
    pub fn set_demand(&mut self, channel: Channel, trace: DemandTrace) {
        self.demands.insert(channel, trace);
    }

    /// The demand trace for a channel (zero demand if the workload never
    /// touches it).
    pub fn demand(&self, channel: Channel) -> DemandTrace {
        self.demands
            .get(&channel)
            .cloned()
            .unwrap_or_else(DemandTrace::zero)
    }

    /// The same workload delayed by `lead_in` of idle (Figure 1 needs idle
    /// visible before and after the job). Tags shift with the work.
    pub fn with_lead_in(&self, lead_in: SimDuration) -> WorkloadProfile {
        let mut out = WorkloadProfile::new(self.name.clone(), self.duration);
        for (&ch, tr) in &self.demands {
            out.demands.insert(ch, tr.shifted(lead_in));
        }
        out.tags = self
            .tags
            .iter()
            .map(|t| TagSpan {
                label: t.label.clone(),
                start: t.start + lead_in,
                end: t.end + lead_in,
            })
            .collect();
        out
    }

    /// Mean demand of a channel over the workload duration.
    pub fn mean_level(&self, channel: Channel) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        let end = SimTime::ZERO + self.duration;
        self.demand(channel).integrate(SimTime::ZERO, end) / self.duration.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermodel::PhaseBuilder;

    #[test]
    fn missing_channel_is_zero_demand() {
        let p = WorkloadProfile::new("w", SimDuration::from_secs(10));
        let d = p.demand(Channel::Io);
        assert_eq!(d.level_at(SimTime::from_secs(5)), 0.0);
        assert!(p.demands.is_empty());
    }

    #[test]
    fn set_and_get_demand() {
        let mut p = WorkloadProfile::new("w", SimDuration::from_secs(10));
        p.set_demand(
            Channel::Cpu,
            PhaseBuilder::new()
                .phase(SimDuration::from_secs(10), 0.9)
                .build(),
        );
        assert_eq!(p.demand(Channel::Cpu).level_at(SimTime::from_secs(5)), 0.9);
        assert_eq!(p.demands.keys().collect::<Vec<_>>(), [&Channel::Cpu]);
    }

    #[test]
    fn lead_in_shifts_demand_and_tags() {
        let mut p = WorkloadProfile::new("w", SimDuration::from_secs(10));
        p.set_demand(
            Channel::Cpu,
            PhaseBuilder::new()
                .phase(SimDuration::from_secs(10), 1.0)
                .build(),
        );
        p.tags.push(TagSpan {
            label: "loop1".into(),
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(4),
        });
        let shifted = p.with_lead_in(SimDuration::from_secs(60));
        assert_eq!(
            shifted
                .demand(Channel::Cpu)
                .level_at(SimTime::from_secs(30)),
            0.0
        );
        assert_eq!(
            shifted
                .demand(Channel::Cpu)
                .level_at(SimTime::from_secs(65)),
            1.0
        );
        assert_eq!(shifted.tags[0].start, SimTime::from_secs(62));
    }

    #[test]
    fn mean_level_weighted_by_time() {
        let mut p = WorkloadProfile::new("w", SimDuration::from_secs(10));
        p.set_demand(
            Channel::Cpu,
            PhaseBuilder::new()
                .phase(SimDuration::from_secs(5), 1.0)
                .idle(SimDuration::from_secs(5))
                .build(),
        );
        assert!((p.mean_level(Channel::Cpu) - 0.5).abs() < 1e-12);
    }
}
