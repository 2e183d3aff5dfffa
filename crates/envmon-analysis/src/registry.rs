//! The one place that knows every vendor mechanism.
//!
//! The cross-cutting experiments (robustness, telemetry, caching,
//! transport, the repro CLI's limitations listing) each need "one backend
//! per mechanism, on its paper workload". Before this module existed every
//! one of them hand-built that list, so adding a mechanism meant touching
//! five match sites. Now they all iterate [`mechanisms`]; a sixth
//! mechanism is one new entry here (plus its accuracy probe) and every
//! table, sweep, and CI gate picks it up.
//!
//! Each [`Mechanism`] carries the mechanism's comparison metadata (paper
//! band, sharing-domain size, fault-stream label, service-link
//! personality) and one constructor, which builds the backend clean or
//! under a fault plan with the mechanism's own pathology profile. Devices
//! are built once per [`mechanisms`] call and shared across ranks through
//! `Arc`s — exactly the sharing the caching ablation measures.

use moneq::backends::{
    BgqBackend, MicApiBackend, MicDaemonBackend, NvmlBackend, OccBackend, RaplBackend,
};
use moneq::EnvBackend;
use simkit::wire::LinkSpec;
use simkit::{FaultPlan, SimDuration, SimTime};
use std::sync::Arc;

/// Paper-order mechanism names: the §II four (with the Phi's two access
/// paths split out) followed by the post-paper POWER9 addition.
pub const NAMES: [&str; 6] = [
    "bgq-emon",
    "rapl-msr",
    "nvml",
    "mic-sysmgmt",
    "mic-micras",
    "p9-occ",
];

/// A mechanism's constructor: a clean backend for `None`, one subjected
/// to the plan otherwise.
type Make = Arc<dyn Fn(Option<&FaultPlan>) -> Box<dyn EnvBackend> + Send + Sync>;

/// One vendor mechanism, ready to instantiate for any experiment.
#[derive(Clone)]
pub struct Mechanism {
    /// The backend's `name()`.
    pub name: &'static str,
    /// The paper's axis: where this mechanism's data naturally lives.
    pub band: &'static str,
    /// The fault-stream label its faulted builder salts draws with.
    pub fault_label: &'static str,
    /// Agents sharing one sensor in the caching ablation (32 for the BG/Q
    /// node card, 16 ranks per node elsewhere).
    pub domain: usize,
    /// The link personality an out-of-band deployment rides on.
    pub service_link: LinkSpec,
    make: Make,
}

impl std::fmt::Debug for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mechanism")
            .field("name", &self.name)
            .field("band", &self.band)
            .field("fault_label", &self.fault_label)
            .field("domain", &self.domain)
            .finish_non_exhaustive()
    }
}

impl Mechanism {
    /// A clean backend (every build shares the underlying device).
    pub fn build(&self) -> Box<dyn EnvBackend> {
        (self.make)(None)
    }

    /// A backend subjected to `plan` under this mechanism's own pathology
    /// profile, drawing from its [`fault_label`](Self::fault_label) stream.
    pub fn faulted(&self, plan: &FaultPlan) -> Box<dyn EnvBackend> {
        (self.make)(Some(plan))
    }

    /// A boxed per-rank factory of clean backends (the shape
    /// [`moneq::ClusterRun`] wants). Factories from the same [`Mechanism`]
    /// share one device, so two cluster runs over the same virtual window
    /// see identical sensors.
    pub fn factory(&self) -> Box<dyn FnMut(usize) -> Box<dyn EnvBackend>> {
        let make = Arc::clone(&self.make);
        Box::new(move |_| make(None))
    }
}

/// Box `backend`, subjected to `plan` on the `label` fault stream when a
/// plan is given.
fn boxed<B: EnvBackend + 'static>(
    backend: B,
    plan: Option<&FaultPlan>,
    with_faults: fn(B, &FaultPlan, &str) -> B,
    label: &str,
) -> Box<dyn EnvBackend> {
    match plan {
        Some(plan) => Box::new(with_faults(backend, plan, label)),
        None => Box::new(backend),
    }
}

/// The workload each mechanism's device runs, one profile per physical
/// device (the two Phi access paths share the one card).
struct RegistryProfiles {
    bgq: hpc_workloads::WorkloadProfile,
    rapl: hpc_workloads::WorkloadProfile,
    nvml: hpc_workloads::WorkloadProfile,
    mic: hpc_workloads::WorkloadProfile,
    occ: hpc_workloads::WorkloadProfile,
}

impl RegistryProfiles {
    /// The paper assignment: each mechanism on the workload its section
    /// of §II measured it under.
    fn paper() -> Self {
        RegistryProfiles {
            bgq: hpc_workloads::Mmps::figure1().profile(),
            rapl: hpc_workloads::GaussianElimination::figure3().profile(),
            nvml: hpc_workloads::Noop::figure4().profile(),
            mic: hpc_workloads::Noop::figure7().profile(),
            occ: hpc_workloads::GaussianElimination::figure3().profile(),
        }
    }

    /// Every device running the same profile — the shape the load-follow
    /// scenario (exp4) needs, where one machine-wide demand curve must be
    /// visible through every mechanism at once.
    fn uniform(profile: &hpc_workloads::WorkloadProfile) -> Self {
        RegistryProfiles {
            bgq: profile.clone(),
            rapl: profile.clone(),
            nvml: profile.clone(),
            mic: profile.clone(),
            occ: profile.clone(),
        }
    }
}

/// Build the full mechanism registry: every backend on its paper
/// workload, with devices precomputed out to `horizon` plus a 30 s
/// guard band. Deterministic in `seed`.
pub fn mechanisms(seed: u64, horizon: SimTime) -> Vec<Mechanism> {
    build(seed, horizon, RegistryProfiles::paper())
}

/// The same registry with every device bound to `profile` instead of its
/// paper workload (the scenario catalog's exp4 drives all six mechanisms
/// through one diurnal demand curve). [`mechanisms`] is byte-identical to
/// what it was before this entry point existed — the two differ only in
/// which profiles they hand the one shared builder.
pub fn mechanisms_on(
    seed: u64,
    horizon: SimTime,
    profile: &hpc_workloads::WorkloadProfile,
) -> Vec<Mechanism> {
    build(seed, horizon, RegistryProfiles::uniform(profile))
}

fn build(seed: u64, horizon: SimTime, profiles: RegistryProfiles) -> Vec<Mechanism> {
    let device_horizon = horizon + SimDuration::from_secs(30);

    // BG/Q node card running MMPS (§II-A, Figure 1).
    let mut machine = bgq_sim::BgqMachine::new(bgq_sim::BgqConfig::default(), seed);
    machine.assign_job(&[0], &profiles.bgq);
    let machine = Arc::new(machine);
    let bgq = Mechanism {
        name: "bgq-emon",
        band: "out-of-band",
        fault_label: "nodecard0",
        domain: 32,
        service_link: BgqBackend::service_link(),
        make: Arc::new(move |plan| {
            let backend = BgqBackend::new(Arc::clone(&machine), 0);
            boxed(backend, plan, BgqBackend::with_faults, "nodecard0")
        }),
    };

    // Stampede socket running Gaussian elimination (§II-B, Figure 3).
    let socket = Arc::new(rapl_sim::SocketModel::new(
        rapl_sim::SocketSpec::default(),
        &profiles.rapl,
    ));
    let rapl = Mechanism {
        name: "rapl-msr",
        band: "in-band",
        fault_label: "socket0",
        domain: 16,
        service_link: RaplBackend::service_link(),
        make: Arc::new(move |plan| {
            let backend = RaplBackend::new(
                Arc::clone(&socket) as Arc<dyn rapl_sim::PowerSource>,
                rapl_sim::MsrAccess::root(),
                seed,
            )
            .expect("root access");
            boxed(backend, plan, RaplBackend::with_faults, "socket0")
        }),
    };

    // K20 GPU idling through Noop (§II-C, Figure 4).
    let nvml_lib = Arc::new(nvml_sim::Nvml::init(
        &[nvml_sim::DeviceConfig {
            spec: nvml_sim::GpuSpec::k20(),
            workload: profiles.nvml.clone(),
            horizon: device_horizon,
        }],
        seed,
    ));
    let nvml = Mechanism {
        name: "nvml",
        band: "in-band",
        fault_label: "gpu0",
        domain: 16,
        service_link: NvmlBackend::service_link(),
        make: Arc::new(move |plan| {
            let backend = NvmlBackend::new(Arc::clone(&nvml_lib));
            boxed(backend, plan, NvmlBackend::with_faults, "gpu0")
        }),
    };

    // Xeon Phi card idling through Noop (§II-D, Figure 7), both access
    // paths. Each path reads through its own SMC noise stream (`seed` for
    // the in-band API, `seed ^ 1` for the daemon) so the two mechanisms'
    // sensor chains perturb independently.
    let profile = profiles.mic;
    let card = Arc::new(mic_sim::PhiCard::new(
        mic_sim::PhiSpec::default(),
        &profile,
        powermodel::DemandTrace::zero(),
        device_horizon,
    ));
    let api_smc = Arc::new(mic_sim::Smc::new(simkit::NoiseStream::new(seed)));
    let daemon_smc = Arc::new(mic_sim::Smc::new(simkit::NoiseStream::new(seed ^ 1)));
    let mic_api = Mechanism {
        name: "mic-sysmgmt",
        band: "in-band",
        fault_label: "mic0/api",
        domain: 16,
        service_link: MicApiBackend::service_link(),
        make: {
            let card = Arc::clone(&card);
            Arc::new(move |plan| {
                let backend = MicApiBackend::new(Arc::clone(&card), Arc::clone(&api_smc));
                boxed(backend, plan, MicApiBackend::with_faults, "mic0/api")
            })
        },
    };
    let mic_daemon = Mechanism {
        name: "mic-micras",
        band: "out-of-band",
        fault_label: "mic0/daemon",
        domain: 16,
        service_link: MicDaemonBackend::service_link(),
        make: Arc::new(move |plan| {
            let backend =
                MicDaemonBackend::new(Arc::clone(&card), Arc::clone(&daemon_smc), &profile);
            boxed(backend, plan, MicDaemonBackend::with_faults, "mic0/daemon")
        }),
    };

    // POWER9 module running Gaussian elimination, read through the OCC's
    // 25 ms sensor buffers (the post-paper fifth mechanism).
    let chip = Arc::new(occ_sim::Power9Chip::new(
        occ_sim::P9Spec::default(),
        &profiles.occ,
        device_horizon,
    ));
    let occ_dev = Arc::new(occ_sim::Occ::new());
    let occ = Mechanism {
        name: "p9-occ",
        band: "in-band",
        fault_label: "p9chip0",
        domain: 16,
        service_link: OccBackend::service_link(),
        make: Arc::new(move |plan| {
            let backend = OccBackend::new(Arc::clone(&chip), Arc::clone(&occ_dev));
            boxed(backend, plan, OccBackend::with_faults, "p9chip0")
        }),
    };

    vec![bgq, rapl, nvml, mic_api, mic_daemon, occ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: SimTime = SimTime::from_secs(60);

    #[test]
    fn registry_is_complete_and_in_paper_order() {
        let ms = mechanisms(2015, HORIZON);
        let names: Vec<&str> = ms.iter().map(|m| m.name).collect();
        assert_eq!(names, NAMES);
    }

    #[test]
    fn metadata_agrees_with_the_backends() {
        for m in mechanisms(2015, HORIZON) {
            let b = m.build();
            assert_eq!(b.name(), m.name, "registry name drifted");
            let f = m.faulted(&FaultPlan::uniform(7, 0.05));
            assert_eq!(f.name(), m.name);
        }
    }

    #[test]
    fn factories_share_one_device_across_ranks() {
        for m in mechanisms(9, HORIZON) {
            let mut factory = m.factory();
            let mut a = factory(0);
            let mut b = factory(1);
            // Two polls: RAPL's first read only establishes its baseline.
            let (t0, t1) = (SimTime::from_secs(30), SimTime::from_secs(31));
            let _ = (a.poll(t0), b.poll(t0));
            let pa = a.poll(t1);
            let pb = b.poll(t1);
            assert!(!pa.is_empty(), "{}", m.name);
            assert_eq!(pa[0].watts, pb[0].watts, "{} ranks diverged", m.name);
        }
    }

    #[test]
    fn bands_split_the_paper_axis() {
        let ms = mechanisms(2015, HORIZON);
        let out = ms.iter().filter(|m| m.band == "out-of-band").count();
        let inb = ms.iter().filter(|m| m.band == "in-band").count();
        assert_eq!((out, inb), (2, 4));
        assert!(ms.iter().all(|m| m.domain >= 16));
    }
}
