//! # envmon-scenarios — the closed-loop scenario catalog
//!
//! Everything else in this repository *observes*: the mechanisms serve
//! measurements and the analysis crates compare what was served. This
//! crate closes the loop — controllers consume those measurements and
//! write device state back (a power-limit MSR, a clock throttle, a
//! co-schedule), which is where a collection mechanism's latency,
//! staleness, and noise stop being columns in a table and start deciding
//! whether a control system behaves. DESIGN.md §16 covers the
//! architecture; [`CATALOG`] lists every scenario with its metadata and
//! its runner.
//!
//! | Scenario | Loop | Invariant |
//! |---|---|---|
//! | [`exp1`] | RAPL energy → PI → `MSR_PKG_POWER_LIMIT` | plant never exceeds the programmed limit |
//! | [`exp2`] | NVML diode → hysteresis → clock throttle | duty cycle monotone in ambient |
//! | [`exp3`] | co-tenants on shared EMON domains | sharing transparent; ledger and cost exact |
//! | [`exp4`] | diurnal day across the whole registry | every mechanism follows the load |
//!
//! Every replication renders a deterministic CSV + JSON
//! [`artifact::Replication`]: same `(exp, rep, seed)` ⇒ the same bytes,
//! serial or parallel, which the golden files and
//! `tests/scenario_prop.rs` enforce.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod gpu;

pub use artifact::{Invariant, Replication};
pub use exp1::Exp1Config;
pub use exp2::Exp2Config;
pub use exp3::Exp3Config;
pub use exp4::Exp4Config;
pub use gpu::LiveGpuBackend;

/// One scenario of the DESIGN.md §16 catalog.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Stable key (`exp1`..`exp4`) used by `repro scenarios` and the
    /// sweep's BENCH rows.
    pub key: &'static str,
    /// Human title for the summary table.
    pub title: &'static str,
    /// The machine-checkable invariant every replication must satisfy.
    pub invariant: &'static str,
    /// Default replication count for a full run (quick runs use fewer).
    pub replications: usize,
    /// Run replication `rep` under a seed, with the scenario's default
    /// configuration.
    pub run: fn(usize, u64) -> Replication,
}

/// Default replication count for a full catalog run.
pub const DEFAULT_REPLICATIONS: usize = 5;

/// The catalog, in experiment order.
pub const CATALOG: [ScenarioSpec; 4] = [
    ScenarioSpec {
        key: "exp1",
        title: "closed-loop power cap (RAPL energy -> PKG power-limit MSR)",
        invariant: "capped plant power never exceeds the programmed limit by more than one RAPL tick",
        replications: DEFAULT_REPLICATIONS,
        run: |rep, seed| exp1::run(&Exp1Config::default(), rep, seed).replication,
    },
    ScenarioSpec {
        key: "exp2",
        title: "thermal-throttling feedback (NVML temperature, hysteresis)",
        invariant: "throttle duty cycle is monotone nondecreasing in ambient temperature",
        replications: DEFAULT_REPLICATIONS,
        run: |rep, seed| exp2::run(&Exp2Config::default(), rep, seed).replication,
    },
    ScenarioSpec {
        key: "exp3",
        title: "multi-tenant co-schedule on shared EMON node-card domains",
        invariant: "plan on/off and solo/co-run files byte-identical; cache ledger exact; naive cost == domain x plan cost",
        replications: DEFAULT_REPLICATIONS,
        run: |rep, seed| exp3::run(&Exp3Config::default(), rep, seed).replication,
    },
    ScenarioSpec {
        key: "exp4",
        title: "diurnal load-follow across every registry mechanism",
        invariant: "every mechanism's peak-hour mean power exceeds its trough-hour mean",
        replications: DEFAULT_REPLICATIONS,
        run: |rep, seed| exp4::run(&Exp4Config::default(), rep, seed).replication,
    },
];

/// Look up one scenario by key.
pub fn spec(key: &str) -> Option<&'static ScenarioSpec> {
    CATALOG.iter().find(|s| s.key == key)
}

/// Run one replication of catalog scenario `exp` under `seed`, with the
/// catalog-default configuration; `None` for a key not in [`CATALOG`].
pub fn run_replication(exp: &str, rep: usize, seed: u64) -> Option<Replication> {
    spec(exp).map(|s| (s.run)(rep, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_ordered() {
        let keys: Vec<&str> = CATALOG.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec!["exp1", "exp2", "exp3", "exp4"]);
        assert!(spec("exp3").is_some());
        assert!(spec("exp9").is_none());
    }

    #[test]
    fn unknown_keys_are_refused() {
        for key in ["exp9", "", "EXP1", "exp1 "] {
            assert!(run_replication(key, 0, 1).is_none(), "{key:?}");
        }
    }
}
