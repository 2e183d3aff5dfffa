//! Figures 1–5, 7, 8.
//!
//! Each `figureN(seed)` runs the corresponding experiment end to end on the
//! simulated platforms and returns the series/samples the paper plots.
//! Figure 6 is the Xeon Phi software-architecture diagram; it has no data —
//! its boxes are implemented as the `mic-sim` module structure (see that
//! crate's docs).

use bgq_sim::{BgqConfig, BgqMachine, EnvDatabase, EnvDbConfig, PollingDaemon};
use hpc_workloads::{GaussianElimination, Mmps, Noop, VectorAdd};
use mic_sim::{PhiCard, PhiSpec, Smc, SysMgmtSession};
use moneq::backends::{BgqBackend, MicApiBackend, MicDaemonBackend, NvmlBackend, RaplBackend};
use moneq::{EnvBackend, MonEq, MonEqConfig};
use nvml_sim::{DeviceConfig, GpuSpec, Nvml};
use powermodel::DemandTrace;
use rapl_sim::{MsrAccess, SocketModel, SocketSpec};
use simkit::{
    welch_t_test, BoxplotSummary, NoiseStream, SimDuration, SimTime, TimeSeries, WelchResult,
};
use std::sync::Arc;

/// Figure 1: BPM input power of an MMPS job, as the environmental database
/// sees it (≈4-minute polling, idle visible before and after).
pub struct Figure1 {
    /// Per-poll mean BPM input power, midplane 0 (watts).
    pub midplane0: TimeSeries,
    /// Per-poll mean BPM input power, midplane 1 (watts).
    pub midplane1: TimeSeries,
    /// When the job started / ended (virtual time).
    pub job_window: (SimTime, SimTime),
    /// Environmental-database rows collected.
    pub db_rows: usize,
}

/// Run the Figure 1 experiment.
pub fn figure1(seed: u64) -> Figure1 {
    let mmps = Mmps::figure1();
    let lead_in = SimDuration::from_secs(900);
    let profile = mmps.profile().with_lead_in(lead_in);
    let job_start = SimTime::ZERO + lead_in;
    let job_end = job_start + mmps.virtual_runtime;
    let horizon = job_end + SimDuration::from_secs(900);

    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    // The job occupies the whole rack (both midplanes), as a production
    // MMPS run does.
    let boards: Vec<usize> = (0..machine.cards().len()).collect();
    machine.assign_job(&boards, &profile);

    let daemon = PollingDaemon::new(EnvDbConfig::default_4min()).expect("valid interval");
    let mut db = EnvDatabase::new();
    daemon.run(&machine, &mut db, horizon);

    let modules = machine.config().bpms_per_midplane as f64;
    let mean_of = |prefix: &str, name: &str| {
        let sum = db.sum_by_cycle(bgq_sim::envdb::SensorKind::BpmInputWatts, prefix);
        let mut out = TimeSeries::new(name);
        for s in sum.samples() {
            out.push(s.at, s.value / modules);
        }
        out
    };
    Figure1 {
        midplane0: mean_of("R00-M0", "BPM input (M0)"),
        midplane1: mean_of("R00-M1", "BPM input (M1)"),
        job_window: (job_start, job_end),
        db_rows: db.rows().len(),
    }
}

/// Figure 2: the same MMPS as MonEQ sees it through EMON — 7 domains at
/// 560 ms, node-card scope, no idle visible (collection starts/stops with
/// the application).
pub struct Figure2 {
    /// Per-domain power series, in Figure 2 legend order.
    pub domains: Vec<TimeSeries>,
    /// Node-card total (the figure's top line).
    pub total: TimeSeries,
    /// Collection overhead fraction of the MonEQ session.
    pub overhead_fraction: f64,
}

/// Run the Figure 2 experiment.
pub fn figure2(seed: u64) -> Figure2 {
    let mmps = Mmps::figure1();
    let profile = mmps.profile();
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    machine.assign_job(&[0], &profile);
    let machine = Arc::new(machine);

    let mut session = MonEq::initialize(
        0,
        vec![Box::new(BgqBackend::new(machine, 0))],
        MonEqConfig {
            agent_name: "R00-M0-N00".into(),
            ..MonEqConfig::default()
        },
        SimTime::ZERO,
    );
    let end = SimTime::ZERO + mmps.virtual_runtime;
    session.run_until(end);
    let result = session.finalize(end);

    let mut domains: Vec<TimeSeries> = bgq_sim::Domain::ALL
        .iter()
        .map(|d| TimeSeries::new(d.label()))
        .collect();
    let mut total = TimeSeries::new("Node Card");
    let mut acc = 0.0;
    let mut current_t = None;
    for p in &result.file.points {
        let idx = bgq_sim::Domain::ALL
            .iter()
            .position(|d| d.label() == p.domain)
            .expect("known domain");
        domains[idx].push(p.timestamp, p.watts);
        if current_t != Some(p.timestamp) {
            if let Some(t) = current_t {
                total.push(t, acc);
            }
            current_t = Some(p.timestamp);
            acc = 0.0;
        }
        acc += p.watts;
    }
    if let Some(t) = current_t {
        total.push(t, acc);
    }
    Figure2 {
        domains,
        total,
        overhead_fraction: result.overhead.collection.as_secs_f64()
            / result.overhead.app_runtime.as_secs_f64(),
    }
}

/// Figure 3: RAPL package power of Gaussian elimination at 100 ms, capture
/// started before and ended after the run.
pub struct Figure3 {
    /// Package power series.
    pub pkg: TimeSeries,
    /// When the workload ran.
    pub job_window: (SimTime, SimTime),
}

/// Run the Figure 3 experiment.
pub fn figure3(seed: u64) -> Figure3 {
    let g = GaussianElimination::figure3();
    // Execute the real kernel once — the profile must come from a run that
    // actually solved the system.
    let result = g.run();
    assert!(result.residual < 1e-6, "kernel failed: {}", result.residual);
    let lead_in = SimDuration::from_secs(4);
    let profile = g.profile().with_lead_in(lead_in);
    let socket = Arc::new(SocketModel::new(SocketSpec::default(), &profile));
    let mut backend = RaplBackend::new(socket, MsrAccess::root(), seed).expect("root access");
    let mut pkg = TimeSeries::new("PKG power");
    let interval = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + lead_in + g.virtual_runtime + SimDuration::from_secs(6);
    while t <= end {
        for p in backend.poll(t) {
            if p.domain.contains("Package") {
                pkg.push(p.timestamp, p.watts);
            }
        }
        t += interval;
    }
    Figure3 {
        pkg,
        job_window: (
            SimTime::ZERO + lead_in,
            SimTime::ZERO + lead_in + g.virtual_runtime,
        ),
    }
}

/// Figure 4: NVML power of a NOOP launch loop on a K20 at 100 ms.
pub struct Figure4 {
    /// Board power series.
    pub power: TimeSeries,
}

/// Run the Figure 4 experiment.
pub fn figure4(seed: u64) -> Figure4 {
    let noop = Noop::figure4();
    let lead_in = SimDuration::from_millis(300);
    let profile = noop.profile().with_lead_in(lead_in);
    let horizon = SimTime::ZERO + lead_in + noop.virtual_runtime;
    let nvml = Arc::new(Nvml::init(
        &[DeviceConfig {
            spec: GpuSpec::k20(),
            workload: profile,
            horizon,
        }],
        seed,
    ));
    let mut backend = NvmlBackend::new(nvml);
    let mut power = TimeSeries::new("K20 board power");
    let interval = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while t <= horizon {
        for p in backend.poll(t) {
            power.push(p.timestamp, p.watts);
        }
        t += interval;
    }
    Figure4 { power }
}

/// Figure 5: NVML power and temperature of the vector-add workload.
pub struct Figure5 {
    /// Board power series.
    pub power: TimeSeries,
    /// Die temperature series.
    pub temperature: TimeSeries,
    /// When host-side data generation hands off to the GPU.
    pub handoff: SimTime,
}

/// Run the Figure 5 experiment.
pub fn figure5(seed: u64) -> Figure5 {
    let v = VectorAdd::figure5();
    // The real kernel must actually run and verify.
    let r = v.run();
    assert_eq!(r.max_error, 0.0, "vector add produced wrong results");
    let lead_in = SimDuration::from_secs(1);
    let profile = v.profile().with_lead_in(lead_in);
    let horizon = SimTime::ZERO + lead_in + v.virtual_runtime;
    let nvml = Arc::new(Nvml::init(
        &[DeviceConfig {
            spec: GpuSpec::k20(),
            workload: profile,
            horizon,
        }],
        seed,
    ));
    let mut backend = NvmlBackend::new(nvml);
    let mut power = TimeSeries::new("K20 board power");
    let mut temperature = TimeSeries::new("K20 temperature");
    let interval = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while t <= horizon {
        for p in backend.poll(t) {
            power.push(p.timestamp, p.watts);
            if let Some(temp) = p.temp_c {
                temperature.push(p.timestamp, temp);
            }
        }
        t += interval;
    }
    Figure5 {
        power,
        temperature,
        handoff: SimTime::ZERO + lead_in + v.virtual_runtime.mul_f64(v.datagen_fraction),
    }
}

/// Figure 7: Xeon Phi total power through the in-band API vs the MICRAS
/// daemon, with the significance test behind the paper's "statistically
/// significant difference".
pub struct Figure7 {
    /// Samples collected through the in-band SysMgmt API.
    pub api_samples: Vec<f64>,
    /// Samples collected through the MICRAS daemon.
    pub daemon_samples: Vec<f64>,
    /// Boxplot of the API samples.
    pub api_box: BoxplotSummary,
    /// Boxplot of the daemon samples.
    pub daemon_box: BoxplotSummary,
    /// Welch's t-test between the two.
    pub welch: WelchResult,
}

/// Run the Figure 7 experiment.
pub fn figure7(seed: u64) -> Figure7 {
    let noop = Noop::figure7();
    let profile = noop.profile();
    let horizon = SimTime::ZERO + noop.virtual_runtime;
    let interval = SimDuration::from_millis(100);

    // Scenario A: in-band polling. The collection activity physically runs
    // on the card, so the card is built *with* the mgmt demand.
    let mgmt = SysMgmtSession::mgmt_demand(interval, SimTime::ZERO, horizon);
    let card_api = Arc::new(PhiCard::new(PhiSpec::default(), &profile, mgmt, horizon));
    let smc_api = Arc::new(Smc::new(NoiseStream::new(seed).child("api")));
    let mut api_backend = MicApiBackend::new(card_api, smc_api);

    // Scenario B: daemon polling. No host-induced activity.
    let card_d = Arc::new(PhiCard::new(
        PhiSpec::default(),
        &profile,
        DemandTrace::zero(),
        horizon,
    ));
    let smc_d = Arc::new(Smc::new(NoiseStream::new(seed).child("daemon")));
    let mut daemon_backend = MicDaemonBackend::new(card_d, smc_d, &profile);

    let mut api_samples = Vec::new();
    let mut daemon_samples = Vec::new();
    // Skip the first 5 s (power still ramping toward the noop level).
    let mut t = SimTime::from_secs(5);
    while t <= horizon {
        api_samples.extend(api_backend.poll(t).iter().map(|p| p.watts));
        daemon_samples.extend(daemon_backend.poll(t).iter().map(|p| p.watts));
        t += interval;
    }
    let api_box = BoxplotSummary::from_samples(&api_samples);
    let daemon_box = BoxplotSummary::from_samples(&daemon_samples);
    let welch = welch_t_test(&api_samples, &daemon_samples);
    Figure7 {
        api_samples,
        daemon_samples,
        api_box,
        daemon_box,
        welch,
    }
}

/// Figure 8: sum of power across 128 Xeon Phi cards running the offloaded
/// Gaussian elimination on the simulated Stampede.
pub struct Figure8 {
    /// Sum-of-cards power series.
    pub sum_power: TimeSeries,
    /// Per-card series (kept for the 16-card ablation and tests).
    pub cards: usize,
    /// When data generation ends (transfer + compute begin).
    pub datagen_end: SimTime,
}

/// Run the Figure 8 experiment with the paper's 128 cards.
pub fn figure8(seed: u64) -> Figure8 {
    figure8_with_cards(seed, 128)
}

/// Figure 8 at an arbitrary scale (the paper's text also mentions a
/// 16-card variant "in the interest of preserving allocation").
///
/// Runs the way MonEQ actually runs on Stampede: one agent rank per node,
/// gathered through [`moneq::ClusterRun`], then reduced with the
/// machine-wide sum.
pub fn figure8_with_cards(seed: u64, cards: usize) -> Figure8 {
    let g = GaussianElimination {
        virtual_runtime: SimDuration::from_secs(250),
        ..GaussianElimination::figure3()
    };
    let datagen_fraction = 0.4;
    let profile = g.profile_offloaded(datagen_fraction);
    let horizon = SimTime::ZERO + g.virtual_runtime;
    let root = NoiseStream::new(seed);

    let mut run = moneq::ClusterRun::launch(
        cards,
        Some(SimDuration::from_secs(1)),
        |rank| {
            let card = Arc::new(PhiCard::new(
                PhiSpec::default(),
                &profile,
                DemandTrace::zero(),
                horizon,
            ));
            let smc = Arc::new(Smc::new(root.child(&format!("card{rank}"))));
            Box::new(MicDaemonBackend::new(card, smc, &profile))
        },
        |rank| format!("c401-{:03}", rank),
        SimTime::ZERO,
    );
    run.run_until(horizon);
    let result = run.finalize(horizon);
    Figure8 {
        sum_power: result.sum_series("mic0"),
        cards,
        datagen_end: SimTime::ZERO + g.virtual_runtime.mul_f64(datagen_fraction),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_idle_visible_and_band_correct() {
        let f = figure1(11);
        assert!(f.db_rows > 0);
        let (job_start, job_end) = f.job_window;
        for s in [&f.midplane0, &f.midplane1] {
            // Idle band before the job (the figure's left edge): 850-950 W.
            let idle = s
                .window_mean(SimTime::ZERO, job_start - SimDuration::from_secs(60))
                .expect("idle polls exist");
            assert!((830.0..950.0).contains(&idle), "idle {idle}");
            // Busy band mid-job: 1,500-1,850 W.
            let busy = s
                .window_mean(
                    job_start + SimDuration::from_secs(300),
                    job_end - SimDuration::from_secs(120),
                )
                .expect("busy polls exist");
            assert!((1_450.0..1_850.0).contains(&busy), "busy {busy}");
            // Idle again after the job.
            let tail = s
                .window_mean(job_end + SimDuration::from_secs(300), SimTime::MAX)
                .expect("tail polls exist");
            assert!((tail - idle).abs() < 80.0, "tail {tail} vs idle {idle}");
        }
        // Coarse cadence: far fewer points than a MonEQ capture.
        assert!(f.midplane0.len() < 25, "{} polls", f.midplane0.len());
    }

    #[test]
    fn figure2_domains_sum_and_idle_invisible() {
        let f = figure2(11);
        assert_eq!(f.domains.len(), 7);
        // Many more points than Figure 1 (560 ms vs ~4 min).
        assert!(f.total.len() > 2_000, "{} samples", f.total.len());
        // The top line is the node-card total and matches the BPM-side
        // magnitude (~1.6 kW DC).
        let mid = f
            .total
            .window_mean(SimTime::from_secs(200), SimTime::from_secs(1_200))
            .unwrap();
        assert!((1_450.0..1_750.0).contains(&mid), "node card {mid}");
        // Chip Core is the biggest domain; SRAM the smallest.
        let mean = |i: usize| f.domains[i].stats().mean();
        for i in 1..7 {
            assert!(mean(0) > mean(i), "Chip Core not dominant over {i}");
        }
        assert!(mean(6) < 60.0, "SRAM {}", mean(6));
        // No idle tail: first and last samples are during the job.
        let vals = f.total.values();
        assert!(vals.first().unwrap() > &1_000.0);
        // Collection overhead ≈ 0.19%.
        assert!((f.overhead_fraction - 0.00196).abs() < 3e-4);
    }

    #[test]
    fn figure3_idle_plateau_dips() {
        let f = figure3(11);
        let (start, end) = f.job_window;
        let idle = f.pkg.window_mean(SimTime::from_secs(1), start).unwrap();
        assert!((5.0..10.0).contains(&idle), "idle {idle}");
        let plateau = f
            .pkg
            .window_mean(
                start + SimDuration::from_secs(10),
                end - SimDuration::from_secs(10),
            )
            .unwrap();
        assert!((42.0..52.0).contains(&plateau), "plateau {plateau}");
        // Rhythmic dips: within a 10 s window the min is >=3 W below the mean.
        let w = f.pkg.slice(
            start + SimDuration::from_secs(10),
            start + SimDuration::from_secs(20),
        );
        let lo = w.values().into_iter().fold(f64::INFINITY, f64::min);
        assert!(plateau - lo > 3.0, "no dip: plateau {plateau}, lo {lo}");
        let tail = f
            .pkg
            .window_mean(end + SimDuration::from_secs(2), SimTime::MAX)
            .unwrap();
        assert!(tail < 12.0, "tail {tail}");
    }

    #[test]
    fn figure4_gradual_ramp_then_flat() {
        let f = figure4(11);
        let early = f
            .power
            .window_mean(SimTime::ZERO, SimTime::from_millis(400))
            .unwrap();
        assert!((40.0..48.0).contains(&early), "early {early}");
        let settled = f
            .power
            .window_mean(SimTime::from_secs(8), SimTime::from_secs(12))
            .unwrap();
        assert!((52.0..58.0).contains(&settled), "settled {settled}");
        // Takes a few seconds to level: at 1.5 s it is still clearly below.
        let mid = f
            .power
            .window_mean(SimTime::from_millis(1_300), SimTime::from_millis(1_800))
            .unwrap();
        assert!(mid < settled - 2.0, "ramp too fast: {mid} vs {settled}");
    }

    #[test]
    fn figure5_handoff_jump_and_temp_rise() {
        let f = figure5(11);
        let datagen = f
            .power
            .window_mean(SimTime::from_secs(3), f.handoff - SimDuration::from_secs(2))
            .unwrap();
        let compute = f
            .power
            .window_mean(
                f.handoff + SimDuration::from_secs(15),
                f.handoff + SimDuration::from_secs(60),
            )
            .unwrap();
        assert!(datagen < 65.0, "datagen {datagen}");
        assert!((115.0..150.0).contains(&compute), "compute {compute}");
        assert!(compute > datagen + 55.0, "no dramatic increase");
        let t0 = f.temperature.values()[10];
        let t1 = *f.temperature.values().last().unwrap();
        assert!((38.0..48.0).contains(&t0), "start temp {t0}");
        assert!((58.0..72.0).contains(&t1), "end temp {t1}");
    }

    #[test]
    fn figure7_api_above_daemon_and_significant() {
        let f = figure7(11);
        assert!(f.api_samples.len() > 1_000);
        // Slight but real offset, API higher (paper: 111–119 W axis).
        assert!(f.welch.mean_diff > 0.8, "offset {}", f.welch.mean_diff);
        assert!(
            f.welch.mean_diff < 4.0,
            "offset too large {}",
            f.welch.mean_diff
        );
        assert!(
            f.welch.significant_at(0.001),
            "not significant: p = {}",
            f.welch.p_two_sided
        );
        assert!(f.api_box.median > f.daemon_box.median);
        for b in [&f.api_box, &f.daemon_box] {
            assert!((108.0..122.0).contains(&b.median), "median {}", b.median);
        }
    }

    #[test]
    fn figure8_datagen_plateau_then_jump() {
        // 16 cards in the test for speed; the bench runs the full 128.
        let f = figure8_with_cards(11, 16);
        let per_card_scale = 16.0;
        let datagen = f
            .sum_power
            .window_mean(
                SimTime::from_secs(20),
                f.datagen_end - SimDuration::from_secs(10),
            )
            .unwrap();
        let compute = f
            .sum_power
            .window_mean(
                f.datagen_end + SimDuration::from_secs(20),
                SimTime::from_secs(240),
            )
            .unwrap();
        // Datagen: cards near idle (~105 W each); compute: ~190 W each.
        assert!(
            ((95.0 * per_card_scale)..(125.0 * per_card_scale)).contains(&datagen),
            "datagen sum {datagen}"
        );
        assert!(
            ((170.0 * per_card_scale)..(210.0 * per_card_scale)).contains(&compute),
            "compute sum {compute}"
        );
        assert!(compute > datagen * 1.5, "no visible jump");
    }
}
