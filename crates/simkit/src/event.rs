//! Deterministic discrete-event queue.
//!
//! The queue drives the *active* parts of the simulation: the MonEQ polling
//! timer (the paper's SIGALRM), the Blue Gene environmental-database polling
//! daemon, and the Xeon Phi SMC sampling loop. Sensors themselves are pull-
//! based (pure functions of time), so the queue stays small and the whole
//! system remains deterministic.
//!
//! Events scheduled for the same instant pop in insertion order (a stable
//! tiebreak by monotone sequence number); nothing in the suite may depend on
//! heap-internal ordering.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled on the queue: a payload tagged with its due time.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone insertion sequence; breaks ties deterministically.
    pub seq: u64,
    /// The payload.
    pub payload: T,
}

impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for ScheduledEvent<T> {}

impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority event queue keyed by [`SimTime`].
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with the clock at the origin.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the due time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic error
    /// and panics: the causal order of a discrete-event simulation must never
    /// run backwards.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {:?} < now {:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
    }

    /// Pop the next event, advancing the clock to its due time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some(ev)
    }

    /// Pop the next event only if it is due at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<T>> {
        match self.heap.peek() {
            Some(e) if e.at <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Drain every event up to and including `horizon`, calling `f` on each.
    ///
    /// `f` may schedule further events (periodic timers re-arm themselves
    /// this way); newly scheduled events inside the horizon are processed in
    /// the same drain. Returns the number of events processed.
    pub fn run_until<F: FnMut(&mut Self, SimTime, T)>(
        &mut self,
        horizon: SimTime,
        mut f: F,
    ) -> usize {
        let mut n = 0;
        while let Some(ev) = self.pop_until(horizon) {
            n += 1;
            f(self, ev.at, ev.payload);
        }
        // The clock ends at the horizon even if the last event was earlier.
        if self.now < horizon {
            self.now = horizon;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(10), 2);
        assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().payload, 1);
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn periodic_timer_rearms_within_drain() {
        let mut q = EventQueue::new();
        let period = SimDuration::from_millis(100);
        q.schedule(SimTime::ZERO + period, "tick");
        let mut ticks = 0;
        let n = q.run_until(SimTime::from_secs(1), |q, at, _| {
            ticks += 1;
            let next = at + period;
            if next <= SimTime::from_secs(1) {
                q.schedule(next, "tick");
            }
        });
        assert_eq!(ticks, 10);
        assert_eq!(n, 10);
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert!(q.is_empty());
    }
}
