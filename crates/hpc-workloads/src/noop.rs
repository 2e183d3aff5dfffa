//! NOOP and fixed-runtime workloads (Figures 4 and 7, Table III).
//!
//! Figure 4 profiles "a basic NOOP which is executed a certain number of
//! times" on a K20: the device is *tasked* (so it leaves its deepest idle
//! state) but does almost no arithmetic — power rises modestly and levels
//! off. Figure 7 runs the same no-op on a Xeon Phi while comparing the two
//! collection paths. Table III uses "a toy application designed to run for
//! exactly the same amount of time regardless of the number of processors".

use crate::profile::{Channel, WorkloadProfile};
use powermodel::PhaseBuilder;
use simkit::SimDuration;

/// A kernel-launch loop that does no useful work.
#[derive(Clone, Copy, Debug)]
pub struct Noop {
    /// Virtual runtime.
    pub virtual_runtime: SimDuration,
    /// Demand level the launch loop induces on the accelerator (the
    /// scheduler and launch machinery are busy even though the kernels are
    /// empty). Figure 4's 44 W → 55 W rise corresponds to a low level.
    pub level: f64,
}

impl Noop {
    /// Figure 4's configuration: a 12.5 s NOOP loop on a K20.
    pub fn figure4() -> Self {
        Noop {
            virtual_runtime: SimDuration::from_millis(12_500),
            level: 0.11,
        }
    }

    /// Figure 7's configuration: a longer no-op on a Xeon Phi so both
    /// collection paths gather plenty of samples. The level is calibrated
    /// so the card sits near 113 W, the middle of Figure 7's axis.
    pub fn figure7() -> Self {
        Noop {
            virtual_runtime: SimDuration::from_secs(120),
            level: 0.06,
        }
    }

    /// Actually spin a launch loop: `launches` empty closures are dispatched
    /// to a worker thread and counted. Returns the number executed.
    pub fn run(&self, launches: u64) -> u64 {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Box<dyn FnOnce() + Send>>(32);
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let mut n = 0u64;
                while let Ok(f) = rx.recv() {
                    f();
                    n += 1;
                }
                n
            });
            for _ in 0..launches {
                tx.send(Box::new(|| std::hint::black_box(())))
                    .expect("worker alive");
            }
            drop(tx);
            h.join().expect("worker panicked")
        })
    }

    /// Constant low-level accelerator demand for the duration. The launch
    /// machinery keeps both the core and the memory controller out of their
    /// deepest idle states, so both accelerator channels carry the level.
    pub fn profile(&self) -> WorkloadProfile {
        let mut p = WorkloadProfile::new("noop", self.virtual_runtime);
        let trace = PhaseBuilder::new()
            .phase(self.virtual_runtime, self.level)
            .build();
        p.set_demand(Channel::Accelerator, trace.clone());
        p.set_demand(Channel::AcceleratorMemory, trace);
        p
    }
}

/// Table III's toy application: fixed runtime at any scale.
#[derive(Clone, Copy, Debug)]
pub struct FixedRuntime {
    /// Virtual runtime (the paper's runs all take ≈202.7 s).
    pub virtual_runtime: SimDuration,
}

impl FixedRuntime {
    /// The Table III configuration.
    pub fn table3() -> Self {
        FixedRuntime {
            virtual_runtime: SimDuration::from_millis(202_740),
        }
    }

    /// Moderate CPU+memory demand, independent of node count by design.
    pub fn profile(&self) -> WorkloadProfile {
        let mut p = WorkloadProfile::new("fixed-runtime-toy", self.virtual_runtime);
        p.set_demand(
            Channel::Cpu,
            PhaseBuilder::new()
                .phase(self.virtual_runtime, 0.60)
                .build(),
        );
        p.set_demand(
            Channel::Memory,
            PhaseBuilder::new()
                .phase(self.virtual_runtime, 0.40)
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
    fn launch_loop_executes_every_kernel() {
        let n = Noop::figure4().run(10_000);
        assert_eq!(n, 10_000);
    }

    #[test]
    fn noop_profile_is_low_and_flat() {
        let p = Noop::figure4().profile();
        let acc = p.demand(Channel::Accelerator);
        assert!((acc.level_at(SimTime::from_secs(1)) - 0.11).abs() < 1e-12);
        assert!((acc.level_at(SimTime::from_secs(12)) - 0.11).abs() < 1e-12);
        assert_eq!(acc.level_at(SimTime::from_secs(13)), 0.0);
        // The memory controller carries the same launch-loop level.
        assert!(
            (p.demand(Channel::AcceleratorMemory)
                .level_at(SimTime::from_secs(1))
                - 0.11)
                .abs()
                < 1e-12
        );
        // No host channel is loaded.
        assert_eq!(p.demand(Channel::Cpu).level_at(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn fixed_runtime_matches_table3() {
        let p = FixedRuntime::table3().profile();
        assert!((p.duration.as_secs_f64() - 202.74).abs() < 1e-9);
        assert!(p.mean_level(Channel::Cpu) > 0.5);
    }
}
