//! # envmon-bench — the `repro` binary and the `*_sweep` bench binaries
//!
//! * `cargo run -p envmon-bench --bin repro [--seed N] [experiment…]`
//!   regenerates the paper's tables and figures as text (run with no
//!   arguments for everything).
//! * `cargo run --release -p envmon-bench --bin <name>_sweep` runs one
//!   sweep (cluster, cache, telemetry, accuracy, query, transport,
//!   scenario) and writes its `BENCH_*.json` rows through [`bench_file`].
//! * `cargo build --release -p envmon-bench && ./target/release/bench_check`
//!   re-runs every sweep with `--quick` and checks the fresh files against
//!   the committed ones.
//!
//! The library part only hosts helpers shared by those binaries, and the
//! [`golden`] check every golden test in the workspace uses.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bench_file;
pub mod golden;

use hpc_workloads::{Channel, WorkloadProfile};
use simkit::SimDuration;
use std::sync::Arc;

/// Default seed used by the sweep binaries and the `repro` binary.
pub const DEFAULT_SEED: u64 = 2015;

/// The BG/Q machine the cluster-shaped sweeps drive: nodes 0..32 run one
/// job at a constant 0.6 CPU demand for `horizon_secs` virtual seconds.
pub fn bgq_machine(seed: u64, horizon_secs: u64) -> Arc<bgq_sim::BgqMachine> {
    let horizon = SimDuration::from_secs(horizon_secs);
    let mut profile = WorkloadProfile::new("sweep", horizon);
    profile.set_demand(
        Channel::Cpu,
        powermodel::PhaseBuilder::new().phase(horizon, 0.6).build(),
    );
    let mut machine = bgq_sim::BgqMachine::new(bgq_sim::BgqConfig::default(), seed);
    machine.assign_job(&(0..32).collect::<Vec<_>>(), &profile);
    Arc::new(machine)
}

/// The sweeps' per-rank agent name, byte-identical to
/// `format!("agent{rank:05}")` for every rank. Hand-rolled because the
/// name is built once per rank inside the timed launch window: at 49k
/// (or 1M) ranks the `format!` machinery is a visible slice of
/// `launch_ms`, and the claim under test is the library's launch cost,
/// not the standard formatter's.
pub fn agent_name(rank: usize) -> String {
    if rank >= 100_000 {
        // Wider than the padding: format! prints the full number.
        return format!("agent{rank:05}");
    }
    let mut buf = *b"agent00000";
    let mut r = rank;
    for slot in buf[5..].iter_mut().rev() {
        *slot = b'0' + (r % 10) as u8;
        r /= 10;
    }
    String::from_utf8(buf.to_vec()).expect("ASCII digits")
}

/// The one replication-seed schedule for the scenario catalog.
///
/// Both entry points into the catalog — `repro scenarios` and the
/// `scenario_sweep` bench bin — derive their per-replication seeds here,
/// so a BENCH row and a repro summary line for the same `(exp, rep)` pair
/// describe the *same* run (`tests/scenario_agreement.rs` pins this).
/// FNV-1a over the experiment key, mixed with the replication index and
/// the repo-wide [`DEFAULT_SEED`].
pub fn seed_for(exp: &str, rep: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in exp.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= (rep as u64).wrapping_add(DEFAULT_SEED);
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    // Final avalanche so consecutive reps differ in every byte.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// The per-replication seed for a run started with `--seed run_seed`.
///
/// At the default seed this IS [`seed_for`] — the pinned schedule the
/// golden files bake in. A non-default run seed perturbs every
/// replication (mixed, not added, so nearby run seeds share nothing)
/// while keeping the two entry points in agreement: `repro scenarios
/// --seed N` and `scenario_sweep --seed N` still describe the same runs.
pub fn replication_seed(exp: &str, rep: usize, run_seed: u64) -> u64 {
    let base = seed_for(exp, rep);
    if run_seed == DEFAULT_SEED {
        base
    } else {
        simkit::rng::mix64(base, run_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::{agent_name, replication_seed, seed_for};

    #[test]
    fn agent_name_matches_format() {
        for rank in (0..100usize).chain([999, 1_535, 49_151, 99_999, 100_000, 1_048_575]) {
            assert_eq!(agent_name(rank), format!("agent{rank:05}"));
        }
    }

    #[test]
    fn replication_seed_is_the_schedule_at_the_default_seed() {
        assert_eq!(
            replication_seed("exp2", 3, super::DEFAULT_SEED),
            seed_for("exp2", 3)
        );
        assert_ne!(replication_seed("exp2", 3, 7), seed_for("exp2", 3));
    }

    #[test]
    fn seed_schedule_is_stable_and_collision_free() {
        // Pin the schedule: golden scenario files bake these seeds in, so
        // a silent change here must fail loudly, not drift the goldens.
        assert_eq!(seed_for("exp1", 0), seed_for("exp1", 0));
        let mut seen = std::collections::HashSet::new();
        for exp in ["exp1", "exp2", "exp3", "exp4"] {
            for rep in 0..16 {
                assert!(seen.insert(seed_for(exp, rep)), "collision {exp}/{rep}");
            }
        }
    }
}
