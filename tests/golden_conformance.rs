//! Golden conformance: the rendered MonEQ output file for a fixed-seed
//! session against every backend, byte-for-byte.
//!
//! The output format is the library's public contract (§III's "common
//! format for output data"), and half the repo's guarantees are phrased
//! as "byte-identical output files" — the collection plan, the telemetry
//! layer, the sampling policy all promise not to move a byte on the
//! default path. This suite pins the bytes themselves: any change to
//! sensor arithmetic, noise draws, scheduling, or rendering shows up as
//! a readable first-difference diff against the files under
//! `tests/golden/`.
//!
//! To re-bless after an *intentional* format or model change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_conformance
//! git diff tests/golden/   # review every changed byte before committing
//! ```

use envmon::prelude::*;
use simkit::NoiseStream;
use std::sync::Arc;

/// Drive one fixed-seed session and render its output file.
fn render_session(backend: Box<dyn EnvBackend>, seconds: u64) -> String {
    let mut session = MonEq::initialize(0, vec![backend], MonEqConfig::default(), SimTime::ZERO);
    let end = SimTime::from_secs(seconds);
    session.run_until(end);
    session.finalize(end).file.render()
}

/// The same session with the backend deployed behind the zero-fault,
/// zero-latency wire (DESIGN.md §14). The defining invariant of the
/// remote layer is that this changes nothing — which is why the remote
/// golden test below checks against the *same* golden file as its local
/// twin instead of blessing a `-remote` variant.
fn render_remote_session(backend: Box<dyn EnvBackend>, seconds: u64) -> String {
    let mut session = MonEq::initialize(0, vec![backend], MonEqConfig::default(), SimTime::ZERO);
    session.deploy_remote(LinkSpec::ideal());
    let end = SimTime::from_secs(seconds);
    session.run_until(end);
    session.finalize(end).file.render()
}

/// Compare against `tests/golden/{name}.txt`, or regenerate it when
/// `GOLDEN_BLESS=1`.
fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    envmon_bench::golden::check(
        &path,
        actual,
        "GOLDEN_BLESS=1 cargo test --test golden_conformance",
    );
}

#[test]
fn golden_bgq_emon() {
    let mut machine = BgqMachine::new(BgqConfig::default(), 1);
    machine.assign_job(&[0], &Mmps::figure1().profile());
    let rendered = render_session(Box::new(BgqBackend::new(Arc::new(machine), 0)), 60);
    check("bgq-emon", &rendered);
}

#[test]
fn golden_rapl_msr() {
    let socket = Arc::new(SocketModel::new(
        SocketSpec::default(),
        &GaussianElimination::figure3().profile(),
    ));
    let backend = RaplBackend::new(socket, MsrAccess::user_with_readonly(), 2).unwrap();
    check("rapl-msr", &render_session(Box::new(backend), 30));
}

#[test]
fn golden_nvml() {
    let nvml = Arc::new(Nvml::init(
        &[DeviceConfig {
            spec: GpuSpec::k20(),
            workload: Noop::figure4().profile(),
            horizon: SimTime::from_secs(20),
        }],
        3,
    ));
    check(
        "nvml",
        &render_session(Box::new(NvmlBackend::new(nvml)), 12),
    );
}

#[test]
fn golden_rapl_msr_remote_over_ideal_link() {
    // Byte-identical to `golden_rapl_msr`: serialize → wire → deserialize
    // with zero faults and zero latency must not move a single byte of the
    // output file, including the statefully-computed energy deltas.
    let socket = Arc::new(SocketModel::new(
        SocketSpec::default(),
        &GaussianElimination::figure3().profile(),
    ));
    let backend = RaplBackend::new(socket, MsrAccess::user_with_readonly(), 2).unwrap();
    check("rapl-msr", &render_remote_session(Box::new(backend), 30));
}

#[test]
fn golden_mic_sysmgmt() {
    let profile = Noop::figure7().profile();
    let horizon = SimTime::from_secs(40);
    let card = Arc::new(PhiCard::new(
        PhiSpec::default(),
        &profile,
        SysMgmtSession::mgmt_demand(SimDuration::from_millis(100), SimTime::ZERO, horizon),
        horizon,
    ));
    let smc = Arc::new(Smc::new(NoiseStream::new(4)));
    check(
        "mic-sysmgmt",
        &render_session(Box::new(MicApiBackend::new(card, smc)), 30),
    );
}

#[test]
fn golden_mic_micras() {
    let profile = Noop::figure7().profile();
    let card = Arc::new(PhiCard::new(
        PhiSpec::default(),
        &profile,
        DemandTrace::zero(),
        SimTime::from_secs(40),
    ));
    let smc = Arc::new(Smc::new(NoiseStream::new(5)));
    check(
        "mic-micras",
        &render_session(Box::new(MicDaemonBackend::new(card, smc, &profile)), 30),
    );
}

#[test]
fn golden_occ() {
    let chip = Arc::new(Power9Chip::new(
        P9Spec::default(),
        &GaussianElimination::figure3().profile(),
        SimTime::from_secs(40),
    ));
    let backend = OccBackend::new(chip, Arc::new(Occ::new()));
    check("p9-occ", &render_session(Box::new(backend), 30));
}

#[test]
fn golden_occ_remote_over_ideal_link() {
    // Byte-identical to `golden_occ`: the OCC's in-band buffer read
    // relayed over the zero-fault, zero-latency wire must not move a byte
    // — same golden file, not a `-remote` variant.
    let chip = Arc::new(Power9Chip::new(
        P9Spec::default(),
        &GaussianElimination::figure3().profile(),
        SimTime::from_secs(40),
    ));
    let backend = OccBackend::new(chip, Arc::new(Occ::new()));
    check("p9-occ", &render_remote_session(Box::new(backend), 30));
}

// ---- Telemetry reports ----------------------------------------------------
//
// The rendered `TelemetryReport` is pinned the same way: its metric names,
// the rule for when a row appears, and every value. The goldens live under
// `tests/golden/telemetry/`.

/// The faulted BG/Q session of `examples/telemetry.rs`.
#[test]
fn golden_telemetry_faulted_bgq_session() {
    let mut machine = BgqMachine::new(BgqConfig::default(), 2015);
    machine.assign_job(&[0], &Mmps::figure1().profile());
    let plan = FaultPlan::mechanism(2015, 1.5);
    let backend = BgqBackend::new(Arc::new(machine), 0).with_faults(&plan, "rank0/nodecard");
    let config = MonEqConfig {
        telemetry: true,
        ..MonEqConfig::default()
    };
    let session = MonEq::initialize(0, vec![Box::new(backend)], config, SimTime::ZERO);
    let report = session.finalize(SimTime::from_secs(120)).telemetry.report();
    check("telemetry/bgq-faulted", &report.render());
}

/// Two backends with one name in one session, both driven to disable
/// under heavy faults: their rows sum into one.
#[test]
fn golden_telemetry_same_name_backends() {
    let mut machine = BgqMachine::new(BgqConfig::default(), 7);
    machine.assign_job(&[0, 1], &Mmps::figure1().profile());
    let machine = Arc::new(machine);
    let plan = FaultPlan::mechanism(7, 6.0);
    let backends: Vec<Box<dyn EnvBackend>> = (0..2)
        .map(|card| {
            Box::new(
                BgqBackend::new(machine.clone(), card)
                    .with_faults(&plan, &format!("rank0/nodecard{card}")),
            ) as Box<dyn EnvBackend>
        })
        .collect();
    let config = MonEqConfig {
        telemetry: true,
        retry: RetryPolicy {
            disable_after: 2,
            ..RetryPolicy::default()
        },
        ..MonEqConfig::default()
    };
    let session = MonEq::initialize(0, backends, config, SimTime::ZERO);
    let result = session.finalize(SimTime::from_secs(60));
    check("telemetry/same-name", &result.telemetry.report().render());
}

/// A 48-agent cluster over all six registry mechanisms (eight ranks
/// each), sharing reads in domains of four, deployed over a faulty LAN:
/// rank 0's report and the run-wide merge.
#[test]
fn golden_telemetry_cluster_over_faulty_lan() {
    let horizon = SimTime::from_secs(4);
    let mechs = envmon::analysis::registry::mechanisms(2015, horizon);
    let mut factories: Vec<_> = mechs.iter().map(|m| m.factory()).collect();
    let link = LinkSpec::lan().with_faults(0.05, 0.02, 0.02);
    let mut run = ClusterRun::launch_with(
        48,
        |rank| factories[rank / 8](rank),
        |rank| format!("agent{rank:02}"),
        SimTime::ZERO,
        MonEqConfig {
            telemetry: true,
            ..MonEqConfig::default()
        },
    )
    .with_collection_plan(CollectionPlan::shared(4).deployed(Deployment::Remote(link)));
    run.run_until(horizon);
    let result = run.finalize(horizon);
    check(
        "telemetry/cluster-rank0",
        &result.telemetry[0].report().render(),
    );
    check(
        "telemetry/cluster-merged",
        &result.telemetry_merged().render(),
    );
}
