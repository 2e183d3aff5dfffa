//! Property tests for the accuracy subsystem: the decomposition closes
//! exactly at any poll phase, and constant on-grid workloads measure
//! clean.

use envmon::prelude::*;
use envmon_accuracy::{ErrorReport, MechanismProbe, NvmlProbe, RaplProbe, SmcProbe};
use hpc_workloads::SquareWave;
use proptest::prelude::*;

/// A short burst-wave profile (cheap enough per proptest case).
fn wave_profile(secs: u64) -> WorkloadProfile {
    let mut w = SquareWave::burst();
    w.virtual_runtime = SimDuration::from_secs(secs);
    w.profile()
}

/// A flat profile.
fn flat_profile(secs: u64) -> WorkloadProfile {
    let mut p = WorkloadProfile::new("flat", SimDuration::from_secs(secs));
    let trace = powermodel::PhaseBuilder::new()
        .phase(SimDuration::from_secs(secs), 0.5)
        .build();
    for ch in [
        Channel::Cpu,
        Channel::Memory,
        Channel::Accelerator,
        Channel::AcceleratorMemory,
    ] {
        p.set_demand(ch, trace.clone());
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    /// Wherever the poll grid falls relative to the mechanism's update
    /// grid, the five components sum bit-for-bit to the total error — for
    /// both an energy-counter probe and a windowed-mean probe.
    #[test]
    fn decomposition_closes_at_any_phase(
        seed in 0u64..1_000,
        interval_ms in 60u64..200,
        phase_ns in 0u64..200_000_000,
    ) {
        let interval = SimDuration::from_millis(interval_ms);
        let anchor =
            SimTime::from_secs(5) + SimDuration::from_nanos(phase_ns % interval.as_nanos());
        let profile = wave_profile(40);
        let horizon = SimTime::from_secs(40);
        let probes: [Box<dyn MechanismProbe>; 2] = [
            Box::new(RaplProbe::new(&profile, seed)),
            Box::new(SmcProbe::new(&profile, seed, horizon)),
        ];
        for probe in &probes {
            let r = ErrorReport::measure(probe.as_ref(), anchor, interval, SimTime::from_secs(35));
            prop_assert_eq!(
                r.decomposition.total(),
                r.total_error_j(),
                "{} from {}",
                r.mechanism,
                anchor
            );
            prop_assert!(r.cadence_abs_j >= r.decomposition.cadence_j.abs());
        }
    }
}

/// On-grid polls of a constant workload see no cadence error at all for
/// the unjittered-grid mechanisms (the generation *is* the poll time),
/// and only fp dust for the others.
#[test]
fn constant_workload_on_grid_measures_clean() {
    let profile = flat_profile(100);
    let horizon = SimTime::from_secs(100);
    let anchor = SimTime::from_secs(30);
    let end = SimTime::from_secs(90);

    // NVML: 120 ms polls on the 60 ms register grid.
    let nvml = NvmlProbe::new(&profile, 11, horizon);
    let r = ErrorReport::measure(&nvml, anchor, SimDuration::from_millis(120), end);
    assert_eq!(r.decomposition.cadence_j, 0.0, "nvml cadence");
    assert_eq!(r.cadence_abs_j, 0.0, "nvml |cadence|");
    assert!(r.relative_error() < 1e-2, "nvml {}", r.relative_error());

    // SMC: 100 ms polls on the 50 ms window grid.
    let smc = SmcProbe::new(&profile, 11, horizon);
    let r = ErrorReport::measure(&smc, anchor, SimDuration::from_millis(100), end);
    assert_eq!(r.decomposition.cadence_j, 0.0, "smc cadence");
    assert_eq!(r.cadence_abs_j, 0.0, "smc |cadence|");
    assert!(r.relative_error() < 1e-2, "smc {}", r.relative_error());

    // RAPL (jittered tick grid) and EMON (generation lag): the grids are
    // never exactly on the poll, but a settled constant signal makes the
    // staleness worthless — fp dust relative to the window energy.
    let rapl = RaplProbe::new(&profile, 11);
    let r = ErrorReport::measure(&rapl, anchor, SimDuration::from_millis(100), end);
    assert!(
        r.decomposition.cadence_j.abs() <= 1e-6 * r.true_energy_j,
        "rapl cadence {}",
        r.decomposition.cadence_j
    );
    assert!(
        r.decomposition.sampling_phase_j.abs() <= 1e-6 * r.true_energy_j,
        "rapl phase {}",
        r.decomposition.sampling_phase_j
    );

    let emon = envmon_accuracy::EmonProbe::new(&profile, 11);
    let r = ErrorReport::measure(&emon, anchor, SimDuration::from_millis(560), end);
    assert!(
        r.decomposition.cadence_j.abs() <= 1e-6 * r.true_energy_j,
        "emon cadence {}",
        r.decomposition.cadence_j
    );
}
