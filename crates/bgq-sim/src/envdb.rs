//! The Blue Gene environmental database and its polling daemon.
//!
//! "Blue Gene systems have environmental monitoring capabilities that
//! periodically sample and gather environmental data from various sensors
//! and store this collected information together with the timestamp and
//! location information in an IBM DB2 relational database. … This sensor
//! data is collected at relatively long polling intervals (about 4 minutes
//! on average but can be configured anywhere within a range of 60–1,800
//! seconds), and while a shorter polling interval would be ideal, the
//! resulting volume of data alone would exceed the server's processing
//! capacity." (§II-A)
//!
//! [`EnvDatabase`] is the store; [`PollingDaemon`] walks every BPM (and the
//! coolant loop) each cycle and inserts rows. The ingest-capacity constraint
//! is modelled explicitly: rows beyond `capacity_rows_per_sec × interval`
//! in one cycle are dropped and counted, so configuring a 1-second interval
//! on a large machine visibly loses data instead of silently working.

use crate::bpm::BpmGroup;
use crate::coolant::CoolantLoop;
use crate::machine::BgqMachine;
use crate::topology::MIDPLANES_PER_RACK;
use simkit::{DetRng, SimDuration, SimTime, TimeSeries};

/// Kinds of rows the environmental database stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorKind {
    /// BPM AC input power, watts.
    BpmInputWatts,
    /// BPM DC output power, watts.
    BpmOutputWatts,
    /// BPM AC input current, amperes.
    BpmInputAmps,
    /// BPM DC output current, amperes.
    BpmOutputAmps,
    /// Coolant temperature, °C.
    CoolantTempC,
    /// Coolant flow, litres per minute.
    CoolantFlowLpm,
    /// Coolant pressure, bar.
    CoolantPressureBar,
    /// Node-board temperature, °C.
    BoardTempC,
}

/// One row of the environmental database.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvRow {
    /// Poll cycle the row belongs to.
    pub cycle: u64,
    /// Row timestamp (poll time plus per-sensor collection skew — the
    /// paired near-identical timestamps visible on Figure 1's axis).
    pub timestamp: SimTime,
    /// Location code, e.g. `R00-M0-B03` for BPM module 3.
    pub location: String,
    /// What was measured.
    pub kind: SensorKind,
    /// The measured value.
    pub value: f64,
}

/// Daemon/database configuration.
#[derive(Clone, Copy, Debug)]
pub struct EnvDbConfig {
    /// Polling interval; the paper's configurable range is enforced.
    pub poll_interval: SimDuration,
    /// Server ingest capacity, rows per second (averaged over a cycle).
    pub capacity_rows_per_sec: f64,
}

impl EnvDbConfig {
    /// The paper's default ≈4-minute interval.
    pub fn default_4min() -> Self {
        EnvDbConfig {
            poll_interval: SimDuration::from_secs(240),
            capacity_rows_per_sec: 50.0,
        }
    }

    /// Validate the interval against the configurable range (60–1,800 s).
    pub fn validate(&self) -> Result<(), String> {
        let s = self.poll_interval.as_secs_f64();
        if !(60.0..=1_800.0).contains(&s) {
            return Err(format!(
                "polling interval {s:.0}s outside the configurable 60-1800s range"
            ));
        }
        Ok(())
    }
}

/// The environmental database.
#[derive(Clone, Debug, Default)]
pub struct EnvDatabase {
    rows: Vec<EnvRow>,
    /// Rows dropped because a poll cycle exceeded ingest capacity.
    pub dropped_rows: u64,
}

impl EnvDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// All rows, in insertion (time) order.
    pub fn rows(&self) -> &[EnvRow] {
        &self.rows
    }

    /// Rows of one kind whose location starts with `prefix`, within a window.
    pub fn query(
        &self,
        kind: SensorKind,
        prefix: &str,
        from: SimTime,
        to: SimTime,
    ) -> Vec<&EnvRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.kind == kind
                    && r.location.starts_with(prefix)
                    && r.timestamp >= from
                    && r.timestamp <= to
            })
            .collect()
    }

    /// Per-cycle sum of one kind over a location prefix, as a time series
    /// (timestamp = earliest row of the cycle). This is Figure 1's
    /// reduction: total BPM input power per poll.
    pub fn sum_by_cycle(&self, kind: SensorKind, prefix: &str) -> TimeSeries {
        let mut out = TimeSeries::new(format!("{kind:?} sum {prefix}"));
        let mut current: Option<(u64, SimTime, f64)> = None;
        for r in self
            .rows
            .iter()
            .filter(|r| r.kind == kind && r.location.starts_with(prefix))
        {
            match &mut current {
                Some((cycle, _, acc)) if *cycle == r.cycle => *acc += r.value,
                _ => {
                    if let Some((_, t, acc)) = current.take() {
                        out.push(t, acc);
                    }
                    current = Some((r.cycle, r.timestamp, r.value));
                }
            }
        }
        if let Some((_, t, acc)) = current {
            out.push(t, acc);
        }
        out
    }
}

/// The polling daemon.
#[derive(Debug)]
pub struct PollingDaemon {
    config: EnvDbConfig,
}

impl PollingDaemon {
    /// Create a daemon; the interval must be inside the configurable range.
    pub fn new(config: EnvDbConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(PollingDaemon { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &EnvDbConfig {
        &self.config
    }

    /// Rows generated per cycle for `machine` (4 per BPM module plus 3 per
    /// rack coolant loop).
    pub fn rows_per_cycle(&self, machine: &BgqMachine) -> usize {
        let racks = machine.config().topology.racks as usize;
        let bpms = racks * MIDPLANES_PER_RACK * machine.config().bpms_per_midplane;
        // 4 rows per BPM + 3 coolant rows per rack + 1 temperature row per
        // node board (§II-A lists node boards among the sensor locations).
        bpms * 4 + racks * 3 + machine.cards().len()
    }

    /// Drive polling over `[0, horizon]`, filling `db`.
    ///
    /// Each cycle reads every BPM of every midplane; per-module collection
    /// skew (a few milliseconds, deterministic per module) gives each row
    /// its own near-duplicate timestamp, exactly as in Figure 1.
    pub fn run(&self, machine: &BgqMachine, db: &mut EnvDatabase, horizon: SimTime) {
        let racks = machine.config().topology.racks;
        let groups: Vec<BpmGroup> = (0..racks)
            .flat_map(|r| (0..MIDPLANES_PER_RACK as u8).map(move |m| (r, m)))
            .map(|(r, m)| BpmGroup::new(machine, r, m))
            .collect();
        let coolants: Vec<CoolantLoop> = (0..racks).map(|r| CoolantLoop::new(machine, r)).collect();
        let mut skew_rng = DetRng::new(0x05EE_DDB2).child("collection-skew");
        let capacity_per_cycle =
            (self.config.capacity_rows_per_sec * self.config.poll_interval.as_secs_f64()) as u64;

        // Cycle k polls at (k+1) intervals; a cycle due exactly at the
        // horizon runs.
        let mut poll_t = SimTime::ZERO + self.config.poll_interval;
        let mut cycle = 0u64;
        while poll_t <= horizon {
            let mut inserted_this_cycle = 0u64;
            let mut push = |db: &mut EnvDatabase,
                            timestamp: SimTime,
                            location: String,
                            kind: SensorKind,
                            value: f64| {
                if inserted_this_cycle >= capacity_per_cycle {
                    db.dropped_rows += 1;
                } else {
                    db.rows.push(EnvRow {
                        cycle,
                        timestamp,
                        location,
                        kind,
                        value,
                    });
                    inserted_this_cycle += 1;
                }
            };
            for (gi, g) in groups.iter().enumerate() {
                let rack = (gi / MIDPLANES_PER_RACK) as u16;
                let midplane = (gi % MIDPLANES_PER_RACK) as u8;
                for i in 0..g.modules() {
                    // Millisecond-scale skew between sensors in one cycle.
                    let skew = SimDuration::from_micros(skew_rng.below(20_000));
                    let ts = poll_t + skew;
                    let reading = g.read(machine, i, ts);
                    let loc = format!("R{rack:02}-M{midplane}-B{i:02}");
                    push(
                        db,
                        ts,
                        loc.clone(),
                        SensorKind::BpmInputWatts,
                        reading.input_watts,
                    );
                    push(
                        db,
                        ts,
                        loc.clone(),
                        SensorKind::BpmOutputWatts,
                        reading.output_watts,
                    );
                    push(
                        db,
                        ts,
                        loc.clone(),
                        SensorKind::BpmInputAmps,
                        reading.input_amps,
                    );
                    push(db, ts, loc, SensorKind::BpmOutputAmps, reading.output_amps);
                }
            }
            for (r, loop_) in coolants.iter().enumerate() {
                let skew = SimDuration::from_micros(skew_rng.below(20_000));
                let ts = poll_t + skew;
                let reading = loop_.read(machine, ts);
                let loc = format!("R{r:02}-COOLANT");
                push(
                    db,
                    ts,
                    loc.clone(),
                    SensorKind::CoolantTempC,
                    reading.outlet_temp_c,
                );
                push(
                    db,
                    ts,
                    loc.clone(),
                    SensorKind::CoolantFlowLpm,
                    reading.flow_lpm,
                );
                push(
                    db,
                    ts,
                    loc,
                    SensorKind::CoolantPressureBar,
                    reading.pressure_bar,
                );
            }
            // Node-board temperatures: water-cooled boards sit a few
            // degrees above the coolant, scaled by their own dissipation.
            for card in machine.cards() {
                let skew = SimDuration::from_micros(skew_rng.below(20_000));
                let ts = poll_t + skew;
                let rack = card.location.rack as usize;
                let coolant_out = coolants[rack].read(machine, ts).outlet_temp_c;
                let temp = coolant_out + card.total_power(ts) * 0.004;
                push(
                    db,
                    ts,
                    card.location.to_string(),
                    SensorKind::BoardTempC,
                    temp,
                );
            }
            poll_t += self.config.poll_interval;
            cycle += 1;
        }
        // Rows within a cycle were appended group-by-group with independent
        // skews; restore global time order for query sanity.
        db.rows.sort_by(|a, b| {
            a.timestamp
                .cmp(&b.timestamp)
                .then_with(|| a.location.cmp(&b.location))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::BgqConfig;
    use crate::topology::BOARDS_PER_MIDPLANE;
    use hpc_workloads::Mmps;

    fn setup() -> (BgqMachine, EnvDatabase, PollingDaemon) {
        let machine = BgqMachine::new(BgqConfig::default(), 3);
        let db = EnvDatabase::new();
        let daemon = PollingDaemon::new(EnvDbConfig::default_4min()).unwrap();
        (machine, db, daemon)
    }

    #[test]
    fn interval_range_enforced() {
        let mut cfg = EnvDbConfig::default_4min();
        cfg.poll_interval = SimDuration::from_secs(30);
        assert!(PollingDaemon::new(cfg).is_err());
        cfg.poll_interval = SimDuration::from_secs(1_801);
        assert!(PollingDaemon::new(cfg).is_err());
        cfg.poll_interval = SimDuration::from_secs(60);
        assert!(PollingDaemon::new(cfg).is_ok());
        cfg.poll_interval = SimDuration::from_secs(1_800);
        assert!(PollingDaemon::new(cfg).is_ok());
    }

    #[test]
    fn polls_fill_rows_at_expected_cadence() {
        let (machine, mut db, daemon) = setup();
        daemon.run(&machine, &mut db, SimTime::from_secs(3_600));
        // 3600/240 = 15 cycles; one rack: 32 BPMs * 4 rows + 3 coolant
        // rows + 32 board-temperature rows.
        let cycles: std::collections::BTreeSet<u64> = db.rows().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, (0..15).collect());
        assert_eq!(db.rows().len(), 15 * (32 * 4 + 3 + 32));
        assert_eq!(db.dropped_rows, 0);
        // Cycle k polls at 240·(k+1) s; each row adds under 20 ms of skew.
        for r in db.rows() {
            let poll_t = SimTime::from_secs(240 * (r.cycle + 1));
            assert!(
                r.timestamp >= poll_t && r.timestamp < poll_t + SimDuration::from_millis(20),
                "cycle {} row at {}",
                r.cycle,
                r.timestamp
            );
        }
    }

    #[test]
    fn near_duplicate_timestamps_within_a_cycle() {
        let (machine, mut db, daemon) = setup();
        daemon.run(&machine, &mut db, SimTime::from_secs(300));
        let rows = db.query(
            SensorKind::BpmInputWatts,
            "R00",
            SimTime::ZERO,
            SimTime::from_secs(300),
        );
        assert_eq!(rows.len(), 32);
        let min = rows.iter().map(|r| r.timestamp).min().unwrap();
        let max = rows.iter().map(|r| r.timestamp).max().unwrap();
        assert!(max > min, "all skews identical");
        assert!(max - min < SimDuration::from_millis(25), "skew too large");
    }

    #[test]
    fn sum_by_cycle_tracks_job_shape() {
        let (mut machine, mut db, daemon) = setup();
        // Job on midplane 0 with a 10-minute lead-in and ~25 min of work.
        let profile = Mmps::figure1()
            .profile()
            .with_lead_in(SimDuration::from_secs(600));
        let boards: Vec<usize> = (0..BOARDS_PER_MIDPLANE).collect();
        machine.assign_job(&boards, &profile);
        daemon.run(&machine, &mut db, SimTime::from_secs(3_600));
        let series = db.sum_by_cycle(SensorKind::BpmInputWatts, "R00-M0");
        // Idle cycles before the job are far below mid-job cycles.
        let idle = series
            .window_mean(SimTime::ZERO, SimTime::from_secs(500))
            .unwrap();
        let busy = series
            .window_mean(SimTime::from_secs(900), SimTime::from_secs(1_800))
            .unwrap();
        assert!(busy > idle * 1.5, "idle {idle} vs busy {busy}");
        // And the tail returns to idle after the job ends (~2100 s).
        let tail = series
            .window_mean(SimTime::from_secs(2_400), SimTime::from_secs(3_600))
            .unwrap();
        assert!(
            (tail - idle).abs() < idle * 0.05,
            "tail {tail} vs idle {idle}"
        );
    }

    #[test]
    fn undersized_capacity_drops_rows() {
        let machine = BgqMachine::new(
            BgqConfig {
                topology: crate::topology::Topology { racks: 4 },
                ..BgqConfig::default()
            },
            3,
        );
        let mut db = EnvDatabase::new();
        // 4 racks * 2 * 16 BPMs * 4 rows + 12 coolant + 128 board temps
        // = 652 rows/cycle; at 60 s and 5 rows/s capacity only 300 fit.
        let daemon = PollingDaemon::new(EnvDbConfig {
            poll_interval: SimDuration::from_secs(60),
            capacity_rows_per_sec: 5.0,
        })
        .unwrap();
        assert_eq!(daemon.rows_per_cycle(&machine), 652);
        daemon.run(&machine, &mut db, SimTime::from_secs(120));
        assert!(db.dropped_rows > 0, "expected drops");
        assert_eq!(db.dropped_rows, 2 * (652 - 300));
    }

    #[test]
    fn board_temps_track_load_at_rack_granularity() {
        let (mut machine, mut db, daemon) = setup();
        machine.assign_job(&(0..16).collect::<Vec<_>>(), &Mmps::figure1().profile());
        daemon.run(&machine, &mut db, SimTime::from_secs(1_000));
        let temps = db.query(
            SensorKind::BoardTempC,
            "R00",
            SimTime::from_secs(600),
            SimTime::from_secs(1_000),
        );
        assert_eq!(temps.len(), 32 * 2); // 32 boards x 2 remaining cycles
                                         // Busy boards (midplane 0) run hotter than idle ones (midplane 1).
        let mean = |prefix: &str| {
            let v: Vec<f64> = temps
                .iter()
                .filter(|r| r.location.starts_with(prefix))
                .map(|r| r.value)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean("R00-M0") > mean("R00-M1") + 1.5,
            "busy {} vs idle {}",
            mean("R00-M0"),
            mean("R00-M1")
        );
        // This is the temperature data §IV says exists "only at the rack
        // level" through the environmental path: coarse, slow, but present.
        assert!(temps.iter().all(|r| (15.0..60.0).contains(&r.value)));
    }

    #[test]
    fn rows_are_time_sorted_after_run() {
        let (machine, mut db, daemon) = setup();
        daemon.run(&machine, &mut db, SimTime::from_secs(1_200));
        for w in db.rows().windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}
