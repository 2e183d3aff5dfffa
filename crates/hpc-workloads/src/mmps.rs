//! MMPS — the million-messages-per-second interconnect benchmark
//! (Figures 1 and 2).
//!
//! The ALCF MPI benchmark suite's MMPS test "measures the interconnect
//! messaging rate, which is the number of messages that can be communicated
//! to and from a node within unit of time". Here a real message-rate kernel
//! runs rank threads exchanging small messages over bounded `std` channels,
//! and its measured rate feeds a network-heavy [`WorkloadProfile`].

use crate::profile::{Channel, WorkloadProfile};
use powermodel::PhaseBuilder;
use simkit::SimDuration;

/// Result of actually running the message-rate kernel.
#[derive(Clone, Copy, Debug)]
pub struct MmpsResult {
    /// Total messages delivered.
    pub messages: u64,
    /// Wall-clock message rate, messages per second.
    pub rate_per_sec: f64,
}

/// The MMPS workload.
#[derive(Clone, Debug)]
pub struct Mmps {
    /// Number of rank threads (paired into send/receive partners).
    pub ranks: usize,
    /// Messages each rank sends in the real kernel run.
    pub messages_per_rank: u64,
    /// Virtual runtime the profile is scaled to.
    pub virtual_runtime: SimDuration,
}

impl Mmps {
    /// The Figure 1/2 configuration: a ~25 minute job on a BG/Q rack.
    pub fn figure1() -> Self {
        Mmps {
            ranks: 8,
            messages_per_rank: 20_000,
            virtual_runtime: SimDuration::from_secs(1_500),
        }
    }

    /// Run the real kernel: rank pairs ping messages over bounded channels;
    /// the measured rate is returned.
    pub fn run(&self) -> MmpsResult {
        assert!(
            self.ranks >= 2 && self.ranks.is_multiple_of(2),
            "ranks must be an even count >= 2"
        );
        let pairs = self.ranks / 2;
        let per_rank = self.messages_per_rank;
        let start = std::time::Instant::now();
        let mut delivered = 0u64;
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(pairs);
            for _ in 0..pairs {
                let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(64);
                s.spawn(move || {
                    for i in 0..per_rank {
                        tx.send(i).expect("receiver alive");
                    }
                });
                handles.push(s.spawn(move || {
                    let mut got = 0u64;
                    let mut checksum = 0u64;
                    while let Ok(v) = rx.recv() {
                        checksum = checksum.wrapping_add(v);
                        got += 1;
                    }
                    // The checksum of 0..n is n(n-1)/2; validate delivery.
                    assert_eq!(checksum, per_rank * (per_rank - 1) / 2);
                    got
                }));
            }
            for h in handles {
                delivered += h.join().expect("receiver panicked");
            }
        });
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        MmpsResult {
            messages: delivered,
            rate_per_sec: delivered as f64 / elapsed,
        }
    }

    /// The MMPS demand profile: saturated interconnect, moderate CPU (the
    /// cores mostly drive message injection), light memory traffic.
    pub fn profile(&self) -> WorkloadProfile {
        let mut p =
            WorkloadProfile::new(format!("mmps(ranks={})", self.ranks), self.virtual_runtime);
        // Short ramp-in while ranks connect, then a steady saturated phase.
        let ramp = self.virtual_runtime.mul_f64(0.02);
        let steady = self.virtual_runtime - ramp;
        p.set_demand(
            Channel::Network,
            PhaseBuilder::new()
                .phase(ramp, 0.50)
                .phase(steady, 0.95)
                .build(),
        );
        p.set_demand(
            Channel::Cpu,
            PhaseBuilder::new()
                .phase(ramp, 0.40)
                .phase(steady, 0.65)
                .build(),
        );
        p.set_demand(
            Channel::Memory,
            PhaseBuilder::new()
                .phase(ramp, 0.20)
                .phase(steady, 0.35)
                .build(),
        );
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn kernel_delivers_every_message() {
        let m = Mmps {
            ranks: 4,
            messages_per_rank: 5_000,
            virtual_runtime: SimDuration::from_secs(10),
        };
        let r = m.run();
        assert_eq!(r.messages, 2 * 5_000);
        assert!(r.rate_per_sec > 0.0);
    }

    #[test]
    #[should_panic(expected = "even count")]
    fn odd_rank_count_rejected() {
        Mmps {
            ranks: 3,
            messages_per_rank: 1,
            virtual_runtime: SimDuration::from_secs(1),
        }
        .run();
    }

    #[test]
    fn profile_is_network_dominated() {
        let p = Mmps::figure1().profile();
        let mid = SimTime::from_secs(700);
        let net = p.demand(Channel::Network).level_at(mid);
        let cpu = p.demand(Channel::Cpu).level_at(mid);
        assert!(net > cpu, "network {net} should exceed cpu {cpu}");
        assert!(net > 0.9);
        // Work ends at the virtual runtime.
        let after = SimTime::ZERO + p.duration + SimDuration::from_secs(1);
        assert_eq!(p.demand(Channel::Network).level_at(after), 0.0);
    }
}
