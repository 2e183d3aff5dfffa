//! Per-mechanism query-latency telemetry.
//!
//! The paper's §II cost comparison reduces each mechanism to one constant
//! (1.10 ms per EMON query, 0.03 ms per RAPL MSR read, …). The telemetry
//! layer lets us report the whole *distribution* instead: every poll's
//! simulated query latency — per-poll cost plus whatever fault recovery
//! the poll charged (backoff waits, capped timeout stalls) — lands in a
//! log₂ histogram per mechanism. On a clean run the distribution collapses
//! to the paper's constant (and the histogram's exact-extrema tracking
//! makes the percentiles exact, not bucket-rounded); under faults the tail
//! shows which mechanism's pathology actually costs time.
//!
//! Everything here is virtual-time arithmetic over indexed fault draws, so
//! the table is deterministic in `(seed, rate)` and identical however the
//! sessions are scheduled.

use crate::robustness::faulted_sessions;
use simkit::{SimDuration, TelemetryReport};

/// One mechanism's query-latency distribution.
#[derive(Clone, Debug)]
pub struct TelemetryRow {
    /// Mechanism name (the backend's `name()`).
    pub mechanism: String,
    /// The §II per-query constant: the mechanism's clean per-poll cost.
    pub paper_cost: SimDuration,
    /// The session's full telemetry snapshot.
    pub report: TelemetryReport,
}

impl TelemetryRow {
    /// The `query_latency/{mechanism}` histogram key for this row.
    pub fn latency_key(&self) -> String {
        format!("query_latency/{}", self.mechanism)
    }
}

/// The telemetry comparison: one row per mechanism under the same uniform
/// fault rate, plus the cross-mechanism merge.
#[derive(Clone, Debug)]
pub struct TelemetryTable {
    /// The common per-class fault rate every mechanism faced.
    pub rate: f64,
    /// One row per mechanism, in the paper's §II order.
    pub rows: Vec<TelemetryRow>,
    /// All rows' reports folded together (the cluster-merge view).
    pub merged: TelemetryReport,
}

/// Run the telemetry experiment at the default 5% per-class rate.
pub fn telemetry(seed: u64) -> TelemetryTable {
    telemetry_at(seed, 0.05)
}

/// Run the telemetry experiment: each mechanism profiled for 120 virtual
/// seconds at its own default interval with telemetry enabled, under
/// `FaultPlan::uniform(seed, rate)`. Deterministic in `(seed, rate)`.
pub fn telemetry_at(seed: u64, rate: f64) -> TelemetryTable {
    let rows: Vec<TelemetryRow> = faulted_sessions(seed, rate)
        .into_iter()
        .map(|(name, paper_cost, result)| TelemetryRow {
            mechanism: name.to_owned(),
            paper_cost,
            report: result.telemetry.report(),
        })
        .collect();
    let mut merged = TelemetryReport::default();
    for r in &rows {
        merged.absorb(&r.report);
    }
    TelemetryTable { rate, rows, merged }
}

impl TelemetryTable {
    /// Render as a plain-text table: per-mechanism query-latency
    /// percentiles against the paper's per-query constants, followed by
    /// the merged event counters.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Per-mechanism query latency (telemetry, {:.0}% fault rate per class)\n\n",
            self.rate * 100.0
        );
        out.push_str(&format!(
            "{:<16}{:>7}{:>11}{:>11}{:>11}{:>11}{:>11}{:>11}\n",
            "mechanism", "polls", "paper", "mean", "p50", "p90", "p99", "max"
        ));
        for r in &self.rows {
            let empty = simkit::LogHistogram::new();
            let h = r.report.histograms.get(&r.latency_key()).unwrap_or(&empty);
            out.push_str(&format!(
                "{:<16}{:>7}{:>11}{:>11}{:>11}{:>11}{:>11}{:>11}\n",
                r.mechanism,
                h.count(),
                r.paper_cost.to_string(),
                h.mean().to_string(),
                h.percentile(0.50).to_string(),
                h.percentile(0.90).to_string(),
                h.percentile(0.99).to_string(),
                h.max().unwrap_or(SimDuration::ZERO).to_string(),
            ));
        }
        out.push_str("\nMerged event counters (all mechanisms):\n");
        for (k, v) in &self.merged.counters {
            let interesting = k.starts_with("polls.")
                || k.starts_with("faults.")
                || k.starts_with("devices.")
                || k.starts_with("records.")
                || k.starts_with("gate.");
            if interesting {
                out.push_str(&format!("  {k:<40}{v:>12}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_latency_is_exactly_the_paper_constant() {
        // At a 0% rate every poll costs exactly the §II constant, and the
        // histogram's exact extrema make every percentile exact: the table
        // reproduces 1.10 ms for EMON (and each sibling constant) without
        // bucket rounding.
        let t = telemetry_at(7, 0.0);
        assert_eq!(t.rows.len(), crate::registry::NAMES.len());
        for r in &t.rows {
            let h = &r.report.histograms[&r.latency_key()];
            assert!(h.count() > 0, "{} never polled", r.mechanism);
            for q in [0.5, 0.9, 0.99] {
                assert_eq!(h.percentile(q), r.paper_cost, "{} q={q}", r.mechanism);
            }
            assert_eq!(h.mean(), r.paper_cost, "{}", r.mechanism);
            assert_eq!(
                r.report.counter("polls.scheduled"),
                r.report.counter("polls.succeeded"),
                "{} clean run must succeed every poll",
                r.mechanism
            );
        }
    }

    #[test]
    fn faulted_runs_grow_a_tail_and_stay_deterministic() {
        let a = telemetry(2015);
        let b = telemetry(2015);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.report, y.report, "{} not deterministic", x.mechanism);
        }
        // Under faults at least one mechanism's worst poll costs more than
        // its clean constant (backoff / stall time lands in the histogram).
        let stretched = a.rows.iter().any(|r| {
            r.report.histograms[&r.latency_key()]
                .max()
                .is_some_and(|m| m > r.paper_cost)
        });
        assert!(stretched, "5% faults never stretched any poll");
        // And the fault counters actually fired somewhere.
        let fault_events: u64 = a
            .merged
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("faults."))
            .map(|(_, v)| v)
            .sum();
        assert!(fault_events > 0);
    }

    #[test]
    fn render_names_all_mechanisms_and_counters() {
        let t = telemetry(2015);
        let text = t.render();
        for name in crate::registry::NAMES {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("paper"));
        assert!(text.contains("polls.scheduled"));
    }
}
