//! GPU vector add (Figure 5).
//!
//! The paper's vector-add workload "first generates the data on the host
//! side and then transfers the data to the GPU for the vector addition, so
//! for the first 10 or so seconds, the GPU hasn't been given any work to
//! do. After the data is generated and handed off to the GPU … the power
//! consumption increases dramatically where it remains for the remainder of
//! the computation."
//!
//! The real kernel allocates, fills, and sums large vectors in parallel and
//! verifies the result; the profile maps the host-generation / transfer /
//! device-compute phases onto channels.

use crate::profile::{Channel, WorkloadProfile};
use powermodel::DemandTrace;
use simkit::{DetRng, SimDuration, SimTime};

/// Result of actually running the vector-add kernel.
#[derive(Clone, Copy, Debug)]
pub struct VecAddResult {
    /// Element count processed.
    pub elements: usize,
    /// Maximum absolute error of `c[i] - (a[i] + b[i])` (must be 0.0).
    pub max_error: f64,
}

/// The vector-add workload.
#[derive(Clone, Debug)]
pub struct VectorAdd {
    /// Vector length for the real kernel run.
    pub elements: usize,
    /// Worker threads for the parallel addition.
    pub threads: usize,
    /// RNG seed for the data-generation phase.
    pub seed: u64,
    /// Virtual runtime of the whole workload.
    pub virtual_runtime: SimDuration,
    /// Fraction of the runtime spent generating data on the host.
    pub datagen_fraction: f64,
}

impl VectorAdd {
    /// The Figure 5 configuration: 100 s total, ~10 s host-side generation.
    pub fn figure5() -> Self {
        VectorAdd {
            elements: 1 << 20,
            threads: 4,
            seed: 0xF165,
            virtual_runtime: SimDuration::from_secs(100),
            datagen_fraction: 0.10,
        }
    }

    /// Execute the real kernel: generate `a` and `b` on the "host", add
    /// them in parallel chunks (the "device" side), and verify.
    pub fn run(&self) -> VecAddResult {
        let n = self.elements;
        let mut rng = DetRng::new(self.seed);
        let a: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
        let mut c = vec![0.0f64; n];
        let chunk = n.div_ceil(self.threads.max(1));
        std::thread::scope(|s| {
            for ((ca, aa), ba) in c
                .chunks_mut(chunk)
                .zip(a.chunks(chunk))
                .zip(b.chunks(chunk))
            {
                s.spawn(move || {
                    for i in 0..ca.len() {
                        ca[i] = aa[i] + ba[i];
                    }
                });
            }
        });
        let max_error = (0..n)
            .map(|i| (c[i] - (a[i] + b[i])).abs())
            .fold(0.0f64, f64::max);
        VecAddResult {
            elements: n,
            max_error,
        }
    }

    /// The Figure 5 demand profile.
    pub fn profile(&self) -> WorkloadProfile {
        assert!((0.0..1.0).contains(&self.datagen_fraction));
        let total = self.virtual_runtime;
        let datagen = total.mul_f64(self.datagen_fraction);
        let transfer = total.mul_f64(0.02);
        let mut p = WorkloadProfile::new(format!("vector-add(n={})", self.elements), total);
        // Host busy generating; GPU has merely been attached (a small launch
        // level that produces Figure 5's gentle early ramp, like the NOOP).
        let mut cpu = DemandTrace::zero();
        cpu.set(SimTime::ZERO, 0.80);
        cpu.set(SimTime::ZERO + datagen, 0.15);
        cpu.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::Cpu, cpu);

        let mut acc = DemandTrace::zero();
        acc.set(SimTime::ZERO, 0.10); // context held, no kernels yet
        acc.set(SimTime::ZERO + datagen + transfer, 0.95); // compute begins
        acc.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::Accelerator, acc);

        let mut accmem = DemandTrace::zero();
        accmem.set(SimTime::ZERO + datagen, 0.30); // transfer writes memory
        accmem.set(SimTime::ZERO + datagen + transfer, 0.85);
        accmem.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::AcceleratorMemory, accmem);

        let mut pcie = DemandTrace::zero();
        pcie.set(SimTime::ZERO + datagen, 0.90);
        pcie.set(SimTime::ZERO + datagen + transfer, 0.05);
        pcie.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::Pcie, pcie);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_adds_exactly() {
        let v = VectorAdd {
            elements: 100_000,
            threads: 4,
            seed: 3,
            virtual_runtime: SimDuration::from_secs(10),
            datagen_fraction: 0.1,
        };
        let r = v.run();
        assert_eq!(r.elements, 100_000);
        assert_eq!(r.max_error, 0.0);
    }

    #[test]
    fn profile_phases_match_figure5() {
        let p = VectorAdd::figure5().profile();
        // t=5s: host generating, GPU nearly idle.
        assert!(p.demand(Channel::Cpu).level_at(SimTime::from_secs(5)) > 0.7);
        assert!(
            p.demand(Channel::Accelerator)
                .level_at(SimTime::from_secs(5))
                < 0.2
        );
        // t=50s: GPU computing hard.
        assert!(
            p.demand(Channel::Accelerator)
                .level_at(SimTime::from_secs(50))
                > 0.9
        );
        assert!(
            p.demand(Channel::AcceleratorMemory)
                .level_at(SimTime::from_secs(50))
                > 0.8
        );
        // PCIe burst at the hand-off (~10-12 s).
        assert!(p.demand(Channel::Pcie).level_at(SimTime::from_secs(11)) > 0.8);
        // Everything idle after 100 s.
        assert_eq!(
            p.demand(Channel::Accelerator)
                .level_at(SimTime::from_secs(101)),
            0.0
        );
    }
}
