//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call it
//! makes into a layer's public API (and, through [`crate::timed::Timed`],
//! around every device-model read). They stay in memory until the pass
//! ends and are aggregated per `(name, parent)` as they close: fleet-49k
//! makes millions of reads, far too many to keep one by one. Each
//! aggregate keeps the count, the summed duration, the first start and
//! the last end; names registered with [`intern_sampled`] also keep every
//! duration, for percentiles.
//!
//! The recorder is thread-local, because every workload runs on one
//! thread. While it is off, [`time`] costs one thread-local check.

use std::cell::RefCell;
use std::time::Instant;

/// An interned span or counter name.
pub type SpanId = usize;

/// The implicit parent of top-level spans: the pass itself.
pub const ROOT: SpanId = 0;

/// Upper bound on interned names; aggregates live in a flat
/// `MAX_NAMES × MAX_NAMES` table so closing a span is one index.
const MAX_NAMES: usize = 64;

#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    first_start_ns: u64,
    last_end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    sampled: Vec<bool>,
    /// `name * MAX_NAMES + parent` → aggregate.
    aggs: Vec<Agg>,
    samples: Vec<Vec<u64>>,
    counters: Vec<u64>,
    stack: Vec<SpanId>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (a fresh, empty trace).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            names: vec!["pass".to_owned()],
            sampled: vec![false],
            aggs: vec![Agg::default(); MAX_NAMES * MAX_NAMES],
            samples: vec![Vec::new()],
            counters: vec![0],
            stack: Vec::new(),
        });
    });
}

/// Stop recording and hand back everything recorded since [`start`].
/// `None` when recording was off.
pub fn finish() -> Option<Trace> {
    let rec = RECORDER.with(|r| r.borrow_mut().take())?;
    let wall_s = rec.epoch.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    for (i, a) in rec.aggs.iter().enumerate() {
        if a.count > 0 {
            spans.push(SpanRow {
                name: rec.names[i / MAX_NAMES].clone(),
                parent: rec.names[i % MAX_NAMES].clone(),
                count: a.count,
                total_s: a.total_ns as f64 * 1e-9,
                first_start_s: a.first_start_ns as f64 * 1e-9,
                last_end_s: a.last_end_ns as f64 * 1e-9,
            });
        }
    }
    let samples = rec
        .names
        .iter()
        .zip(rec.samples)
        .filter(|(_, s)| !s.is_empty())
        .map(|(n, s)| (n.clone(), s))
        .collect();
    let counters = rec
        .names
        .iter()
        .zip(rec.counters)
        .filter(|(_, c)| *c > 0)
        .map(|(n, c)| (n.clone(), c))
        .collect();
    Some(Trace {
        wall_s,
        spans,
        samples,
        counters,
    })
}

fn intern_with(name: &str, sampled: bool) -> SpanId {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else {
            return ROOT;
        };
        if let Some(i) = rec.names.iter().position(|n| n == name) {
            rec.sampled[i] |= sampled;
            return i;
        }
        assert!(rec.names.len() < MAX_NAMES, "too many span names");
        rec.names.push(name.to_owned());
        rec.sampled.push(sampled);
        rec.samples.push(Vec::new());
        rec.counters.push(0);
        rec.names.len() - 1
    })
}

/// Intern a span or counter name (a no-op returning [`ROOT`] while
/// recording is off).
pub fn intern(name: &str) -> SpanId {
    intern_with(name, false)
}

/// Intern a span name whose every duration is kept, for percentiles.
pub fn intern_sampled(name: &str) -> SpanId {
    intern_with(name, true)
}

/// Run `f` inside span `id`. Spans nest: the innermost open span is the
/// parent of any span opened inside `f`.
pub fn time<R>(id: SpanId, f: impl FnOnce() -> R) -> R {
    if id == ROOT {
        return f();
    }
    let parent = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let parent = rec.stack.last().copied().unwrap_or(ROOT);
            rec.stack.push(id);
            parent
        })
    });
    let Some(parent) = parent else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.stack.pop();
            let start_ns = start.duration_since(rec.epoch).as_nanos() as u64;
            let end_ns = end.duration_since(rec.epoch).as_nanos() as u64;
            let dur = end_ns - start_ns;
            let a = &mut rec.aggs[id * MAX_NAMES + parent];
            if a.count == 0 {
                a.first_start_ns = start_ns;
            }
            a.count += 1;
            a.total_ns += dur;
            a.last_end_ns = end_ns;
            if rec.sampled[id] {
                rec.samples[id].push(dur);
            }
        }
    });
    out
}

/// Add `n` to counter `id` (no-op while recording is off).
pub fn count(id: SpanId, n: u64) {
    if id == ROOT {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.counters[id] += n;
        }
    });
}

/// One aggregated `(name, parent)` row.
#[derive(Clone, Debug)]
pub struct SpanRow {
    /// Span name.
    pub name: String,
    /// Name of the enclosing span (`pass` for top-level spans).
    pub parent: String,
    /// Spans closed.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Start of the first such span, seconds after the trace began.
    pub first_start_s: f64,
    /// End of the last such span, seconds after the trace began.
    pub last_end_s: f64,
}

/// A finished trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Wall time from [`start`] to [`finish`].
    pub wall_s: f64,
    /// Aggregated spans, ordered by `(name id, parent id)`.
    pub spans: Vec<SpanRow>,
    /// Every duration (ns) of each sampled span name.
    pub samples: Vec<(String, Vec<u64>)>,
    /// Non-zero counters.
    pub counters: Vec<(String, u64)>,
}

impl Trace {
    /// Summed duration of every span called `name`, whatever its parent.
    pub fn total(&self, name: &str) -> f64 {
        self.rows(name).map(|r| r.total_s).sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.rows(name).map(|r| r.count).sum()
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    }

    /// Median duration of sampled span `name`, seconds (0 when absent).
    pub fn p50(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| {
                let v: Vec<f64> = s.iter().map(|&ns| ns as f64 * 1e-9).collect();
                crate::stats::percentile(&v, 0.5)
            })
    }

    /// Self time of `name`: its summed duration minus the part its child
    /// spans cover. Spans of one thread nest strictly, so the children's
    /// summed durations are exactly the covered part.
    pub fn self_time(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|r| r.parent == name)
            .map(|r| r.total_s)
            .sum();
        self.total(name) - children
    }

    /// Summed duration of the top-level spans: the wall time the layers
    /// account for.
    pub fn covered(&self) -> f64 {
        self.spans
            .iter()
            .filter(|r| r.parent == "pass")
            .map(|r| r.total_s)
            .sum()
    }

    fn rows<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRow> + 'a {
        self.spans.iter().filter(move |r| r.name == name)
    }

    /// The span table for the run log: one line per `(name, parent)`,
    /// then each name's self time.
    pub fn table(&self) -> Vec<String> {
        let mut out = vec![format!(
            "span  {:<28} {:<20} {:>9} {:>11} {:>10} {:>10}",
            "name", "parent", "count", "total_s", "start_s", "end_s"
        )];
        for r in &self.spans {
            out.push(format!(
                "span  {:<28} {:<20} {:>9} {:>11.6} {:>10.6} {:>10.6}",
                r.name, r.parent, r.count, r.total_s, r.first_start_s, r.last_end_s
            ));
        }
        let mut names: Vec<&str> = self.spans.iter().map(|r| r.name.as_str()).collect();
        names.dedup();
        for name in names {
            out.push(format!(
                "self  {:<28} {:>11.6} s of {:>11.6} s",
                name,
                self.self_time(name),
                self.total(name)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_aggregate_per_parent_and_self_time_subtracts_children() {
        start();
        let outer = intern("outer");
        let inner = intern_sampled("inner");
        let hits = intern("hits");
        for _ in 0..3 {
            time(outer, || {
                time(inner, || std::hint::black_box(1 + 1));
                count(hits, 2);
            });
        }
        time(inner, || ());
        let t = finish().expect("recording was on");
        assert_eq!(t.count("outer"), 3);
        assert_eq!(t.count("inner"), 4);
        assert_eq!(t.counter("hits"), 6);
        let under_outer = t
            .spans
            .iter()
            .find(|r| r.name == "inner" && r.parent == "outer")
            .expect("nested row");
        assert_eq!(under_outer.count, 3);
        assert!(t.self_time("outer") <= t.total("outer"));
        assert!(t.covered() <= t.wall_s);
        assert!(t.p50("inner") >= 0.0);
        assert!(finish().is_none(), "finish stops recording");
    }

    #[test]
    fn off_recorder_is_transparent() {
        assert_eq!(intern("x"), ROOT);
        assert_eq!(time(ROOT, || 7), 7);
        count(ROOT, 1);
        assert!(finish().is_none());
    }
}
