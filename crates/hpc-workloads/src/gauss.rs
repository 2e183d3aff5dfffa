//! Gaussian elimination (Figures 3 and 8).
//!
//! The paper profiles "a Gaussian Elimination code" on a Sandy Bridge CPU
//! through RAPL (Figure 3: ~50 W plateau with rhythmic ~5 W drops and tiny
//! spikes between them) and on 128 Xeon Phis on Stampede (Figure 8: ~100 s
//! of host-side data generation, then offload and a jump in power).
//!
//! This module contains a real dense LU factorization with partial pivoting,
//! parallelised across rows with `std` scoped threads, and the mapping
//! from its phase structure to a [`WorkloadProfile`]. The rhythmic dips come
//! from the synchronization between elimination blocks: every block boundary
//! is a barrier where utilization sags briefly.

use crate::profile::{Channel, WorkloadProfile};
use powermodel::DemandTrace;
use simkit::{DetRng, SimDuration, SimTime};

/// Result of actually running the kernel.
#[derive(Clone, Debug)]
pub struct GaussResult {
    /// Multiply-add count per elimination step (step k is O((n−k)²)).
    pub flops_per_step: Vec<u64>,
    /// Infinity-norm residual of `A x − b` after back-substitution.
    pub residual: f64,
}

/// The Gaussian-elimination workload.
#[derive(Clone, Debug)]
pub struct GaussianElimination {
    /// Matrix dimension for the real kernel run.
    pub n: usize,
    /// Worker threads for the parallel elimination.
    pub threads: usize,
    /// RNG seed for the matrix contents.
    pub seed: u64,
    /// Virtual runtime the profile is scaled to.
    pub virtual_runtime: SimDuration,
    /// Number of elimination blocks (one rhythmic dip per block).
    pub blocks: usize,
}

impl GaussianElimination {
    /// The Figure 3 configuration: a ~70 s CPU run with regular dips.
    pub fn figure3() -> Self {
        GaussianElimination {
            n: 128,
            threads: 4,
            seed: 0x6AE5,
            virtual_runtime: SimDuration::from_secs(60),
            blocks: 12,
        }
    }

    /// Execute the real kernel: factorize a seeded random system, solve it,
    /// and return instrumentation plus the solution residual.
    pub fn run(&self) -> GaussResult {
        let n = self.n;
        assert!(n >= 2, "matrix too small");
        let mut rng = DetRng::new(self.seed);
        // Diagonally dominant matrix: well-conditioned, residual stays tiny.
        let mut a: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let v = rng.uniform(-1.0, 1.0);
                        if i == j {
                            v + n as f64
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        let x_true: Vec<f64> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let mut b: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
            .collect();
        let a_orig = a.clone();
        let b_orig = b.clone();

        let mut flops_per_step = Vec::with_capacity(n - 1);
        for k in 0..n - 1 {
            // Partial pivoting.
            let pivot_row = (k..n)
                .max_by(|&i, &j| {
                    a[i][k]
                        .abs()
                        .partial_cmp(&a[j][k].abs())
                        .expect("NaN during pivoting")
                })
                .expect("non-empty pivot range");
            a.swap(k, pivot_row);
            b.swap(k, pivot_row);
            let (pivot_rows, elim_rows) = a.split_at_mut(k + 1);
            let pivot = &pivot_rows[k];
            let b_k = b[k];
            let (_, b_elim) = b.split_at_mut(k + 1);
            // Parallel elimination of all rows below the pivot.
            let chunk = elim_rows.len().div_ceil(self.threads.max(1));
            if chunk > 0 {
                std::thread::scope(|s| {
                    for (rows, bs) in elim_rows.chunks_mut(chunk).zip(b_elim.chunks_mut(chunk)) {
                        s.spawn(move || {
                            for (row, bi) in rows.iter_mut().zip(bs) {
                                let factor = row[k] / pivot[k];
                                for j in k..pivot.len() {
                                    row[j] -= factor * pivot[j];
                                }
                                *bi -= factor * b_k;
                            }
                        });
                    }
                });
            }
            flops_per_step.push(((n - k - 1) * (n - k + 1)) as u64);
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in i + 1..n {
                s -= a[i][j] * x[j];
            }
            x[i] = s / a[i][i];
        }
        // Residual against the original system.
        let residual = a_orig
            .iter()
            .zip(&b_orig)
            .map(|(row, bi)| (row.iter().zip(&x).map(|(aij, xj)| aij * xj).sum::<f64>() - bi).abs())
            .fold(0.0f64, f64::max);
        GaussResult {
            flops_per_step,
            residual,
        }
    }

    /// The Figure 3 profile: a CPU+memory plateau with one short spike and
    /// one sag per elimination block.
    ///
    /// Within each block the structure is
    /// `compute … spike … compute … sag`, reproducing the paper's "rhythmic
    /// drop of about 5 Watts … between these drops there are tiny spikes".
    pub fn profile(&self) -> WorkloadProfile {
        assert!(self.blocks >= 1);
        let total_ns = self.virtual_runtime.as_nanos();
        let block_ns = total_ns / self.blocks as u64;
        let mut cpu = DemandTrace::zero();
        let mut mem = DemandTrace::zero();
        const COMPUTE: f64 = 0.92;
        const SPIKE: f64 = 1.0;
        const SAG: f64 = 0.80;
        for bi in 0..self.blocks {
            let t0 = bi as u64 * block_ns;
            let at = |frac: f64| SimTime::from_nanos(t0 + (block_ns as f64 * frac) as u64);
            cpu.set(at(0.0), COMPUTE);
            cpu.set(at(0.44), SPIKE); // tiny spike between drops
            cpu.set(at(0.47), COMPUTE);
            cpu.set(at(0.90), SAG); // block-boundary barrier: the ~5 W drop
            mem.set(at(0.0), 0.70);
            mem.set(at(0.90), 0.40);
        }
        let end = SimTime::from_nanos(self.blocks as u64 * block_ns);
        cpu.set(end, 0.0);
        mem.set(end, 0.0);
        let mut p = WorkloadProfile::new(
            format!("gaussian-elimination(n={})", self.n),
            self.virtual_runtime,
        );
        p.set_demand(Channel::Cpu, cpu);
        p.set_demand(Channel::Memory, mem);
        p
    }

    /// The Figure 8 profile: host-side data generation for
    /// `datagen_fraction` of the runtime, a short PCIe transfer burst, then
    /// accelerator compute for the remainder.
    pub fn profile_offloaded(&self, datagen_fraction: f64) -> WorkloadProfile {
        assert!((0.0..1.0).contains(&datagen_fraction));
        let total = self.virtual_runtime;
        let datagen = total.mul_f64(datagen_fraction);
        let transfer = total.mul_f64(0.02);
        let compute = total - datagen - transfer;
        let mut p = WorkloadProfile::new(
            format!("gaussian-elimination-offloaded(n={})", self.n),
            total,
        );
        // Host generates data; cards are idle.
        let mut cpu = DemandTrace::zero();
        cpu.set(SimTime::ZERO, 0.85);
        cpu.set(SimTime::ZERO + datagen, 0.10);
        cpu.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::Cpu, cpu);
        // Transfer burst.
        let mut pcie = DemandTrace::zero();
        pcie.set(SimTime::ZERO + datagen, 0.90);
        pcie.set(SimTime::ZERO + datagen + transfer, 0.05);
        pcie.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::Pcie, pcie);
        // Accelerator compute (with the same block rhythm, fainter).
        let mut acc = DemandTrace::zero();
        let mut accmem = DemandTrace::zero();
        let comp_start = datagen + transfer;
        let block = compute / self.blocks as u64;
        for bi in 0..self.blocks as u64 {
            let t0 = SimTime::ZERO + comp_start + block * bi;
            acc.set(t0, 0.95);
            acc.set(t0 + block.mul_f64(0.9), 0.85);
            accmem.set(t0, 0.75);
        }
        acc.set(SimTime::ZERO + total, 0.0);
        accmem.set(SimTime::ZERO + total, 0.0);
        p.set_demand(Channel::Accelerator, acc);
        p.set_demand(Channel::AcceleratorMemory, accmem);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_solves_the_system() {
        let g = GaussianElimination {
            n: 96,
            threads: 4,
            seed: 1,
            virtual_runtime: SimDuration::from_secs(60),
            blocks: 6,
        };
        let r = g.run();
        assert!(r.residual < 1e-8, "residual {}", r.residual);
        assert_eq!(r.flops_per_step.len(), 95);
        // Work shrinks as elimination proceeds.
        assert!(r.flops_per_step.first() > r.flops_per_step.last());
    }

    #[test]
    fn kernel_deterministic_across_thread_counts() {
        let base = GaussianElimination {
            n: 48,
            threads: 1,
            seed: 9,
            virtual_runtime: SimDuration::from_secs(10),
            blocks: 4,
        };
        let r1 = base.run();
        let r4 = GaussianElimination { threads: 4, ..base }.run();
        assert_eq!(r1.flops_per_step, r4.flops_per_step);
        assert!(r4.residual < 1e-8);
    }

    #[test]
    fn profile_has_rhythmic_sags_and_spikes() {
        let g = GaussianElimination::figure3();
        let p = g.profile();
        let cpu = p.demand(Channel::Cpu);
        let block = g.virtual_runtime / g.blocks as u64;
        // Mid-block compute level.
        let mid = SimTime::ZERO + block.mul_f64(0.2);
        assert!((cpu.level_at(mid) - 0.92).abs() < 1e-9);
        // Spike at 44-47% of each block.
        let spike = SimTime::ZERO + block.mul_f64(0.45);
        assert!((cpu.level_at(spike) - 1.0).abs() < 1e-9);
        // Sag at the end of each block.
        let sag = SimTime::ZERO + block.mul_f64(0.95);
        assert!((cpu.level_at(sag) - 0.80).abs() < 1e-9);
        // And the pattern repeats in the 7th block.
        let sag7 = SimTime::ZERO + block * 6 + block.mul_f64(0.95);
        assert!((cpu.level_at(sag7) - 0.80).abs() < 1e-9);
        // Demand ends at the runtime.
        assert_eq!(
            cpu.level_at(SimTime::ZERO + g.virtual_runtime + SimDuration::from_millis(1)),
            0.0
        );
    }

    #[test]
    fn offloaded_profile_has_datagen_then_compute() {
        let g = GaussianElimination {
            virtual_runtime: SimDuration::from_secs(250),
            ..GaussianElimination::figure3()
        };
        let p = g.profile_offloaded(0.4);
        let acc = p.demand(Channel::Accelerator);
        let cpu = p.demand(Channel::Cpu);
        // During datagen (t=50s): host busy, card idle.
        assert!(cpu.level_at(SimTime::from_secs(50)) > 0.8);
        assert_eq!(acc.level_at(SimTime::from_secs(50)), 0.0);
        // During compute (t=200s): card busy, host mostly idle.
        assert!(acc.level_at(SimTime::from_secs(200)) > 0.8);
        assert!(cpu.level_at(SimTime::from_secs(200)) < 0.2);
        // PCIe burst right after datagen ends (t=101s).
        assert!(p.demand(Channel::Pcie).level_at(SimTime::from_secs(101)) > 0.8);
    }
}
