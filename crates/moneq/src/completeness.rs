//! The completeness report: what was collected, what was lost.
//!
//! §IV's "stated limitations" request, extended to the failure axis: a
//! production collector must not only collect, it must *account* — for
//! every device, how many polls were scheduled, how many succeeded, how
//! many fell back to the last good value, how many yielded nothing, and
//! how many records each outcome represents. The invariants are exact:
//!
//! * `scheduled == succeeded + stale_polls + missed_polls`
//! * `records_expected() == records_fresh + records_stale + records_lost`
//!
//! and are enforced by the fault property tests, serial and parallel.
//!
//! ```
//! use moneq::Completeness;
//!
//! let mut c = Completeness::new("gpu0");
//! c.scheduled = 10;
//! c.succeeded = 8;
//! c.stale_polls = 1;
//! c.missed_polls = 1;
//! c.records_fresh = 8;
//! c.records_stale = 1;
//! c.records_lost = 1;
//! assert!(c.reconciles());
//! assert_eq!(c.records_expected(), 10);
//! assert!((c.fresh_fraction() - 0.8).abs() < 1e-12);
//! ```

use std::borrow::Cow;

/// Per-device completeness counters for one session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Completeness {
    /// Device (backend) the counters describe. Borrowed for the common
    /// case — [`crate::EnvBackend::name`] returns `&'static str`, so the
    /// 49k sessions of a cluster launch allocate no name strings — and
    /// owned when parsed back from an output file.
    pub device: Cow<'static, str>,
    /// Timer fires that scheduled a poll of this device (including fires
    /// after the device was disabled).
    pub scheduled: u64,
    /// Polls whose read ultimately returned data (possibly after retries).
    pub succeeded: u64,
    /// Retry attempts performed across all polls.
    pub retried: u64,
    /// Polls that failed outright and were served from the last good value.
    pub stale_polls: u64,
    /// Polls that yielded nothing at all (no last good value to substitute,
    /// or the device was disabled).
    pub missed_polls: u64,
    /// Fresh records collected.
    pub records_fresh: u64,
    /// Stale records: last-good-value substitutes plus glitched samples the
    /// mechanism served while failing.
    pub records_stale: u64,
    /// Records lost: silently dropped by the mechanism, or never produced
    /// because the poll missed entirely.
    pub records_lost: u64,
    /// Virtual-time nanosecond at which the device was disabled after too
    /// many consecutive failures; `None` if it stayed enabled.
    pub disabled_at_ns: Option<u64>,
    /// Ranks on which the device was disabled (sorted, deduplicated).
    /// A session records its own rank here at disable time; cluster merges
    /// take the set union, so a device disabled on several ranks counts
    /// each rank exactly once no matter how reports are merged.
    pub disabled_ranks: Vec<u32>,
}

impl Completeness {
    /// Fresh counters for `device`.
    pub fn new(device: impl Into<Cow<'static, str>>) -> Self {
        Completeness {
            device: device.into(),
            ..Completeness::default()
        }
    }

    /// Records the run should account for: every record either arrived
    /// fresh, arrived stale, or is known lost.
    pub fn records_expected(&self) -> u64 {
        self.records_fresh + self.records_stale + self.records_lost
    }

    /// Do the counters reconcile exactly? (The two completeness
    /// invariants; trivially true for a clean run.)
    pub fn reconciles(&self) -> bool {
        self.scheduled == self.succeeded + self.stale_polls + self.missed_polls
    }

    /// `true` when no fault left any trace: nothing retried, stale,
    /// missed, lost, or disabled. Clean reports are omitted from output
    /// files so un-faulted runs stay byte-identical.
    pub fn is_clean(&self) -> bool {
        self.retried == 0
            && self.stale_polls == 0
            && self.missed_polls == 0
            && self.records_stale == 0
            && self.records_lost == 0
            && self.disabled_at_ns.is_none()
            && self.disabled_ranks.is_empty()
    }

    /// How many distinct ranks disabled this device. Unlike counting
    /// disables across merges naively, this cannot double-count: a rank
    /// appears in [`Completeness::disabled_ranks`] at most once however
    /// many partial reports mentioning it are absorbed.
    pub fn disabled_count(&self) -> usize {
        self.disabled_ranks.len()
    }

    /// Record that rank `rank` disabled this device (idempotent).
    pub fn mark_disabled(&mut self, rank: u32, at_ns: u64) {
        self.disabled_at_ns = Some(match self.disabled_at_ns {
            Some(prev) => prev.min(at_ns),
            None => at_ns,
        });
        if let Err(pos) = self.disabled_ranks.binary_search(&rank) {
            self.disabled_ranks.insert(pos, rank);
        }
    }

    /// Fraction of expected records that arrived fresh (1.0 for an empty
    /// report).
    pub fn fresh_fraction(&self) -> f64 {
        let expected = self.records_expected();
        if expected == 0 {
            1.0
        } else {
            self.records_fresh as f64 / expected as f64
        }
    }

    /// Fold another device's counters into this one (used to aggregate
    /// across ranks; `disabled_at_ns` keeps the earliest disable).
    pub fn absorb(&mut self, other: &Completeness) {
        self.scheduled += other.scheduled;
        self.succeeded += other.succeeded;
        self.retried += other.retried;
        self.stale_polls += other.stale_polls;
        self.missed_polls += other.missed_polls;
        self.records_fresh += other.records_fresh;
        self.records_stale += other.records_stale;
        self.records_lost += other.records_lost;
        self.disabled_at_ns = match (self.disabled_at_ns, other.disabled_at_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // Set union keyed by (device, rank): a rank already present is not
        // inserted again, so repeated or overlapping merges cannot inflate
        // the disable count.
        for &r in &other.disabled_ranks {
            if let Err(pos) = self.disabled_ranks.binary_search(&r) {
                self.disabled_ranks.insert(pos, r);
            }
        }
    }
}

/// Fold ledgers together by device (backend) name, in first-seen order.
/// The counters still reconcile after merging — sums of exact invariants
/// are exact.
pub fn merge_by_device<'a>(
    ledgers: impl IntoIterator<Item = &'a Completeness>,
) -> Vec<Completeness> {
    let mut merged: Vec<Completeness> = Vec::new();
    for c in ledgers {
        match merged.iter_mut().find(|m| m.device == c.device) {
            Some(m) => m.absorb(c),
            None => merged.push(c.clone()),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_reconciles_trivially() {
        let mut c = Completeness::new("dev");
        c.scheduled = 5;
        c.succeeded = 5;
        c.records_fresh = 5;
        assert!(c.reconciles());
        assert!(c.is_clean());
        assert_eq!(c.fresh_fraction(), 1.0);
    }

    #[test]
    fn absorb_sums_and_keeps_earliest_disable() {
        let mut a = Completeness::new("dev");
        a.scheduled = 3;
        a.succeeded = 2;
        a.missed_polls = 1;
        a.records_lost = 1;
        let mut b = Completeness::new("dev");
        b.scheduled = 4;
        b.succeeded = 4;
        b.records_fresh = 4;
        b.disabled_at_ns = Some(9);
        a.absorb(&b);
        assert_eq!(a.scheduled, 7);
        assert_eq!(a.succeeded, 6);
        assert_eq!(a.disabled_at_ns, Some(9));
        assert!(a.reconciles());
        let mut c = Completeness::new("dev");
        c.disabled_at_ns = Some(4);
        a.absorb(&c);
        assert_eq!(a.disabled_at_ns, Some(4));
    }

    #[test]
    fn absorb_dedupes_disables_by_rank() {
        // Regression: a device disabled on several ranks must count each
        // rank once, however the partial reports are merged (including a
        // rank appearing in more than one partial merge).
        let mut part_a = Completeness::new("dev");
        part_a.mark_disabled(3, 900);
        part_a.mark_disabled(7, 400);
        let mut part_b = Completeness::new("dev");
        part_b.mark_disabled(7, 650); // rank 7 again, later instant
        part_b.mark_disabled(1, 500);
        let mut merged = Completeness::new("dev");
        merged.absorb(&part_a);
        merged.absorb(&part_b);
        merged.absorb(&part_a); // overlapping re-merge must not inflate
        assert_eq!(merged.disabled_ranks, vec![1, 3, 7]);
        assert_eq!(merged.disabled_count(), 3);
        assert_eq!(merged.disabled_at_ns, Some(400), "earliest disable wins");
        assert!(!merged.is_clean());
    }

    #[test]
    fn mark_disabled_is_idempotent_and_keeps_earliest() {
        let mut c = Completeness::new("dev");
        c.mark_disabled(5, 200);
        c.mark_disabled(5, 100);
        c.mark_disabled(5, 300);
        assert_eq!(c.disabled_ranks, vec![5]);
        assert_eq!(c.disabled_at_ns, Some(100));
    }

    #[test]
    fn empty_report_is_fully_fresh() {
        let c = Completeness::new("dev");
        assert_eq!(c.fresh_fraction(), 1.0);
        assert!(c.is_clean() && c.reconciles());
    }
}
