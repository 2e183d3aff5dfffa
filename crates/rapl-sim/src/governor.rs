//! The closed-loop power-capped socket plant.
//!
//! [`SocketModel`](crate::SocketModel) is a *passive* oracle: its power is
//! a pure function of the workload profile, fixed at construction. The
//! scenario catalog's exp1 (DESIGN.md §16) closes the loop — a controller
//! reads RAPL energy and writes `MSR_PKG_POWER_LIMIT` back — which needs a
//! plant whose behavior *changes* when the limit register changes.
//!
//! [`CappedSocket`] is that plant. It carries the same component wattages
//! as the Sandy Bridge socket (cores 4+38·u W, uncore 3+5·max(u,m) W,
//! DRAM 2+9·m W, idle iGPU) but with **zero ramp tau**, so package power
//! is exactly piecewise-constant and the limit inversion below is exact:
//!
//! ```text
//! pkg(u) = 7 + 38·u + 5·max(u, m)          (m = memory demand level)
//! u_cap  = (L − 7) / 43             if that ≥ m
//!        = (L − 7 − 5·m) / 38       otherwise
//! ```
//!
//! [`CappedSocket::apply_limit`] rewrites the *future* of the granted
//! demand trace to `min(wanted, u_cap)` per segment while preserving every
//! past breakpoint bit-for-bit, so energy already accumulated never
//! changes retroactively — exactly how firmware throttling behaves.

use hpc_workloads::{Channel, WorkloadProfile};
use powermodel::{ComponentSpec, DemandTrace, DevicePower, DeviceSpec};
use simkit::{SimDuration, SimTime};
use std::sync::{PoisonError, RwLock};

use crate::domains::RaplDomain;
use crate::limit::PowerLimit;
use crate::socket::{PowerSource, SocketSpec, CORES, DRAM, IGPU, UNCORE};

/// Idle (u = 0) package power of the zero-tau plant, watts.
const PKG_IDLE_W: f64 = 7.0;
/// Cores dynamic range, watts per unit of CPU demand.
const CORES_DYN_W: f64 = 38.0;
/// Uncore dynamic range, watts per unit of max(cpu, mem) demand.
const UNCORE_DYN_W: f64 = 5.0;

/// Mutable plant state behind the lock.
#[derive(Debug)]
struct CapState {
    granted_cpu: DemandTrace,
    power: DevicePower,
    /// Every limit ever applied, in application order.
    history: Vec<(SimTime, PowerLimit)>,
}

/// A power-capped socket: the same planes as [`SocketModel`]
/// (zero ramp tau) whose granted CPU demand is rewritten every time a
/// controller applies a package power limit.
///
/// [`SocketModel`]: crate::SocketModel
#[derive(Debug)]
pub struct CappedSocket {
    spec: SocketSpec,
    wanted_cpu: DemandTrace,
    wanted_mem: DemandTrace,
    state: RwLock<CapState>,
}

impl CappedSocket {
    /// A plant running `profile`, initially uncapped (granted == wanted).
    pub fn new(spec: SocketSpec, profile: &WorkloadProfile) -> Self {
        let wanted_cpu = profile.demand(Channel::Cpu);
        let wanted_mem = profile.demand(Channel::Memory);
        let power = build_power(&wanted_cpu, &wanted_mem);
        CappedSocket {
            state: RwLock::new(CapState {
                granted_cpu: wanted_cpu.clone(),
                power,
                history: Vec::new(),
            }),
            spec,
            wanted_cpu,
            wanted_mem,
        }
    }

    /// The demand level the cap `limit_watts` admits when memory demand
    /// sits at `m` — the exact inversion of the zero-tau package power.
    pub fn cap_level(limit_watts: f64, m: f64) -> f64 {
        let budget = limit_watts - PKG_IDLE_W;
        let joint = budget / (CORES_DYN_W + UNCORE_DYN_W);
        let u = if joint >= m {
            joint
        } else {
            (budget - UNCORE_DYN_W * m) / CORES_DYN_W
        };
        u.clamp(0.0, 1.0)
    }

    /// Apply `limit` at virtual time `t`: past granted demand is kept
    /// bit-for-bit, and from `t` forward the granted level becomes
    /// `min(wanted, cap_level)` per wanted/memory segment. A disabled
    /// limit restores the wanted trace from `t` on.
    pub fn apply_limit(&self, t: SimTime, limit: PowerLimit) {
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let mut granted = DemandTrace::zero();
        // Past: every breakpoint strictly before t survives unchanged, so
        // energy already integrated never moves.
        for &(bt, lv) in st.granted_cpu.breakpoints() {
            if bt < t {
                granted.set(bt, lv);
            }
        }
        // Future: walk the merged breakpoint grid of wanted cpu + mem
        // demand from t on (both piecewise-constant, so the capped level
        // is constant between merged breakpoints).
        let mut cuts: Vec<SimTime> = vec![t];
        for &(bt, _) in self.wanted_cpu.breakpoints() {
            if bt > t {
                cuts.push(bt);
            }
        }
        for &(bt, _) in self.wanted_mem.breakpoints() {
            if bt > t {
                cuts.push(bt);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let wanted = self.wanted_cpu.level_at(cut);
            let lv = if limit.enabled {
                let cap = Self::cap_level(limit.limit_watts, self.wanted_mem.level_at(cut));
                wanted.min(cap)
            } else {
                wanted
            };
            granted.set(cut, lv);
        }
        st.power = build_power(&granted, &self.wanted_mem);
        st.granted_cpu = granted;
        st.history.push((t, limit));
    }

    /// Every limit ever applied, in application order.
    pub fn limit_history(&self) -> Vec<(SimTime, PowerLimit)> {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .history
            .clone()
    }
}

/// The zero-tau device for a granted CPU trace against the fixed memory
/// trace — same wattages as the Sandy Bridge socket, instant ramps.
fn build_power(cpu: &DemandTrace, mem: &DemandTrace) -> DevicePower {
    let components = vec![
        ComponentSpec {
            name: "cores",
            idle_w: 4.0,
            dynamic_w: CORES_DYN_W,
            ramp_tau: SimDuration::ZERO,
        },
        ComponentSpec {
            name: "uncore",
            idle_w: 3.0,
            dynamic_w: UNCORE_DYN_W,
            ramp_tau: SimDuration::ZERO,
        },
        ComponentSpec {
            name: "dram",
            idle_w: 2.0,
            dynamic_w: 9.0,
            ramp_tau: SimDuration::ZERO,
        },
        ComponentSpec {
            name: "igpu",
            idle_w: 0.0,
            dynamic_w: 15.0,
            ramp_tau: SimDuration::ZERO,
        },
    ];
    let demands = vec![
        cpu.clone(),
        cpu.max_with(mem),
        mem.clone(),
        DemandTrace::zero(),
    ];
    DevicePower::new(
        DeviceSpec {
            name: "capped-socket".into(),
            components,
        },
        &demands,
    )
}

impl PowerSource for CappedSocket {
    fn spec(&self) -> SocketSpec {
        self.spec
    }

    fn domain_power(&self, domain: RaplDomain, t: SimTime) -> f64 {
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        match domain {
            RaplDomain::Pkg => {
                st.power.component_power(CORES, t)
                    + st.power.component_power(UNCORE, t)
                    + st.power.component_power(IGPU, t)
            }
            RaplDomain::Pp0 => st.power.component_power(CORES, t),
            RaplDomain::Pp1 => st.power.component_power(IGPU, t),
            RaplDomain::Dram => st.power.component_power(DRAM, t),
        }
    }

    fn domain_energy(&self, domain: RaplDomain, t: SimTime) -> f64 {
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        match domain {
            RaplDomain::Pkg => {
                st.power.component_energy(CORES, SimTime::ZERO, t)
                    + st.power.component_energy(UNCORE, SimTime::ZERO, t)
                    + st.power.component_energy(IGPU, SimTime::ZERO, t)
            }
            RaplDomain::Pp0 => st.power.component_energy(CORES, SimTime::ZERO, t),
            RaplDomain::Pp1 => st.power.component_energy(IGPU, SimTime::ZERO, t),
            RaplDomain::Dram => st.power.component_energy(DRAM, SimTime::ZERO, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::GaussianElimination;

    fn plant() -> CappedSocket {
        CappedSocket::new(
            SocketSpec::default(),
            &GaussianElimination::figure3().profile(),
        )
    }

    /// The granted CPU demand level at `t` under the limits applied so
    /// far, and the uncapped (wanted) level.
    fn levels(p: &CappedSocket, t: SimTime) -> (f64, f64) {
        let granted = p.state.read().unwrap().granted_cpu.level_at(t);
        (granted, p.wanted_cpu.level_at(t))
    }

    #[test]
    fn uncapped_tracks_wanted_demand() {
        let p = plant();
        for sec in [1u64, 10, 30] {
            let (granted, wanted) = levels(&p, SimTime::from_secs(sec));
            assert_eq!(granted, wanted);
        }
    }

    #[test]
    fn cap_level_inversion_is_exact() {
        // Both branches of the inversion: pkg(cap_level(L, m), m) == L
        // whenever the cap binds inside (0, 1).
        for &(limit, m) in &[(30.0, 0.1), (30.0, 0.6), (45.0, 0.0), (20.0, 0.9)] {
            let u = CappedSocket::cap_level(limit, m);
            if u > 0.0 && u < 1.0 {
                let pkg = PKG_IDLE_W + CORES_DYN_W * u + UNCORE_DYN_W * u.max(m);
                assert!(
                    (pkg - limit).abs() < 1e-9,
                    "pkg({u}, {m}) = {pkg}, want {limit}"
                );
            }
        }
    }

    #[test]
    fn applied_cap_bounds_true_power() {
        let p = plant();
        let limit = PowerLimit {
            enabled: true,
            limit_watts: 30.0,
            window_secs: 1.0,
        };
        p.apply_limit(SimTime::from_secs(5), limit);
        for ms in (5_000u64..60_000).step_by(137) {
            let t = SimTime::from_millis(ms);
            let pkg = p.domain_power(RaplDomain::Pkg, t);
            assert!(pkg <= 30.0 + 1e-9, "pkg {pkg} at {t}");
        }
    }

    #[test]
    fn past_energy_is_preserved_across_applies() {
        let p = plant();
        let t_apply = SimTime::from_secs(10);
        let e_before = p.domain_energy(RaplDomain::Pkg, t_apply);
        p.apply_limit(
            t_apply,
            PowerLimit {
                enabled: true,
                limit_watts: 25.0,
                window_secs: 1.0,
            },
        );
        let e_after = p.domain_energy(RaplDomain::Pkg, t_apply);
        assert_eq!(e_before.to_bits(), e_after.to_bits());
    }

    #[test]
    fn disabled_limit_restores_wanted() {
        let p = plant();
        p.apply_limit(
            SimTime::from_secs(5),
            PowerLimit {
                enabled: true,
                limit_watts: 20.0,
                window_secs: 1.0,
            },
        );
        p.apply_limit(
            SimTime::from_secs(15),
            PowerLimit {
                enabled: false,
                limit_watts: 20.0,
                window_secs: 1.0,
            },
        );
        let (granted, wanted) = levels(&p, SimTime::from_secs(20));
        assert_eq!(granted, wanted);
        assert_eq!(p.limit_history().len(), 2);
    }

    #[test]
    fn limit_above_peak_never_binds() {
        let p = plant();
        p.apply_limit(SimTime::ZERO, PowerLimit::default_for_tdp(130.0));
        for sec in 0..60 {
            let (granted, wanted) = levels(&p, SimTime::from_secs(sec));
            assert_eq!(granted, wanted, "bound at {sec}s");
        }
    }
}
