//! Mechanism robustness under identical fault rates.
//!
//! The paper compares the vendor mechanisms on cost and capability; this
//! table extends the comparison to *robustness*: every mechanism in the
//! [`crate::registry`] is
//! subjected to the same adversary ([`FaultPlan::uniform`] — identical
//! per-attempt fault rates for every class) and profiled by an otherwise
//! default MonEQ session. The per-device [`Completeness`] ledger then shows
//! how each mechanism's degradation semantics fare: who recovers by retry,
//! who serves stale substitutes, who loses records outright.
//!
//! Rates are per read attempt, so mechanisms are compared per poll, not per
//! wall-clock second — a mechanism with a slower interval faces fewer
//! drawings but each drawing is equally hostile.
//!
//! The sessions run with a raised `disable_after` (64 instead of the
//! default 8): a 1 s blackout window spans 10–16 polls for the sub-100 ms
//! mechanisms, so the default threshold converts the *first* blackout into
//! a permanent disable and the table would only measure time-to-first-
//! blackout. With the raised threshold the table shows steady-state
//! degradation; the `disabled` column still flags mechanisms that fail 64
//! polls in a row even so.

use crate::registry::mechanisms;
use moneq::{Completeness, FinalizeResult, MonEq, MonEqConfig, OverheadReport, RetryPolicy};
use simkit::{FaultPlan, SimDuration, SimTime};

/// One mechanism's showing under the common fault plan.
#[derive(Clone, Debug)]
pub struct RobustnessRow {
    /// Mechanism name (the backend's `name()`).
    pub mechanism: String,
    /// The per-device completeness ledger of the faulted session.
    pub completeness: Completeness,
    /// The session's overhead report (fault recovery time, retries).
    pub overhead: OverheadReport,
    /// Records that made it into the output file.
    pub records: usize,
}

/// The robustness comparison: one row per mechanism, all under the same
/// uniform fault rate.
#[derive(Clone, Debug)]
pub struct RobustnessTable {
    /// The common per-class fault rate every mechanism faced.
    pub rate: f64,
    /// One row per mechanism, in the paper's §II order.
    pub rows: Vec<RobustnessRow>,
}

/// The virtual span every faulted session profiles.
const HORIZON: SimTime = SimTime::from_secs(120);

/// Each registry mechanism profiled for 120 virtual seconds at its own
/// default interval under `FaultPlan::uniform(seed, rate)`, with telemetry
/// on (it never changes outputs) and `disable_after` raised to 64: the
/// mechanism's name, its clean per-poll cost and the finalized session.
/// The robustness and telemetry tables both read these runs.
/// Deterministic in `(seed, rate)`.
pub(crate) fn faulted_sessions(
    seed: u64,
    rate: f64,
) -> Vec<(&'static str, SimDuration, FinalizeResult)> {
    let plan = FaultPlan::uniform(seed, rate);
    mechanisms(seed, HORIZON)
        .into_iter()
        .map(|m| {
            let b = m.faulted(&plan);
            let poll_cost = b.poll_cost();
            let config = MonEqConfig {
                telemetry: true,
                retry: RetryPolicy {
                    disable_after: 64,
                    ..RetryPolicy::default()
                },
                ..MonEqConfig::default()
            };
            let session = MonEq::initialize(0, vec![b], config, SimTime::ZERO);
            (m.name, poll_cost, session.finalize(HORIZON))
        })
        .collect()
}

/// Run the robustness experiment at the default 5% per-class rate.
pub fn robustness(seed: u64) -> RobustnessTable {
    robustness_at(seed, 0.05)
}

/// Run the robustness experiment: each mechanism profiled for 120 virtual
/// seconds at its own default interval, under `FaultPlan::uniform(seed,
/// rate)`. Deterministic in `(seed, rate)`.
pub fn robustness_at(seed: u64, rate: f64) -> RobustnessTable {
    let rows = faulted_sessions(seed, rate)
        .into_iter()
        .map(|(name, _, result)| RobustnessRow {
            mechanism: name.to_owned(),
            completeness: result.completeness.into_iter().next().expect("one backend"),
            overhead: result.overhead,
            records: result.file.points.len(),
        })
        .collect();
    RobustnessTable { rate, rows }
}

impl RobustnessTable {
    /// Render as a plain-text table in the style of the §II comparisons.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Mechanism robustness under identical fault rates \
             ({:.0}% per class, per attempt)\n\n",
            self.rate * 100.0
        );
        out.push_str(&format!(
            "{:<16}{:>7}{:>7}{:>8}{:>7}{:>8}{:>9}{:>9}{:>11}{:>10}\n",
            "mechanism",
            "polls",
            "ok",
            "retried",
            "stale",
            "missed",
            "fresh %",
            "lost",
            "recovery",
            "disabled"
        ));
        for r in &self.rows {
            let c = &r.completeness;
            out.push_str(&format!(
                "{:<16}{:>7}{:>7}{:>8}{:>7}{:>8}{:>8.1}%{:>9}{:>11}{:>10}\n",
                r.mechanism,
                c.scheduled,
                c.succeeded,
                c.retried,
                c.stale_polls,
                c.missed_polls,
                c.fresh_fraction() * 100.0,
                c.records_lost,
                r.overhead.fault_recovery.to_string(),
                if c.disabled_at_ns.is_some() {
                    "YES"
                } else {
                    "no"
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mechanism_reconciles() {
        let t = robustness(2015);
        assert_eq!(t.rows.len(), crate::registry::NAMES.len());
        for r in &t.rows {
            assert!(r.completeness.reconciles(), "{} counters", r.mechanism);
            assert!(r.completeness.scheduled > 0, "{} never polled", r.mechanism);
        }
        let names: Vec<&str> = t.rows.iter().map(|r| r.mechanism.as_str()).collect();
        assert_eq!(names, crate::registry::NAMES);
    }

    #[test]
    fn faults_actually_bite_and_are_deterministic() {
        let a = robustness(2015);
        let degraded = a.rows.iter().filter(|r| !r.completeness.is_clean()).count();
        assert!(degraded >= 3, "only {degraded}/6 mechanisms degraded at 5%");
        let b = robustness(2015);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.completeness, y.completeness);
            assert_eq!(x.records, y.records);
        }
    }

    #[test]
    fn zero_rate_is_a_clean_run() {
        let t = robustness_at(9, 0.0);
        for r in &t.rows {
            assert!(r.completeness.is_clean(), "{} degraded at 0%", r.mechanism);
            assert_eq!(r.overhead.retries, 0);
        }
    }

    #[test]
    fn harsher_rates_lose_more() {
        let mild = robustness_at(2015, 0.02);
        let harsh = robustness_at(2015, 0.15);
        let lost = |t: &RobustnessTable| -> u64 {
            t.rows
                .iter()
                .map(|r| r.completeness.records_lost + r.completeness.records_stale)
                .sum()
        };
        assert!(lost(&harsh) > lost(&mild), "faults should scale with rate");
    }

    #[test]
    fn render_carries_every_mechanism() {
        let t = robustness(2015);
        let text = t.render();
        for name in crate::registry::NAMES {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("recovery"));
    }
}
