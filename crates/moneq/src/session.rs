//! The profiling session: Listing 1's `MonEQ_Initialize` … `MonEQ_Finalize`.
//!
//! A session belongs to one agent rank — "an array local to the finest
//! granularity possible on the system. For example, on a BG/Q, this is the
//! local agent rank on a node card, but for other systems this could be a
//! single node. If a node has several accelerators installed locally, each
//! of these is accounted for individually within the file produced for the
//! node." (§III)
//!
//! ## Degradation semantics
//!
//! Backends can fail ([`EnvBackend::read`] returns a typed
//! [`crate::backend::ReadError`]); the session reacts per DESIGN.md §8:
//! retryable errors get bounded retries with exponential backoff, timeout
//! stalls are charged (capped) to the fault-recovery ledger, a poll that
//! fails outright is served from the device's last good value (flagged
//! stale) or marked missed, and a device that fails
//! [`crate::backend::RetryPolicy::disable_after`] consecutive polls is
//! disabled for the rest of the run. Every outcome is accounted in the
//! per-device [`Completeness`] report.

use crate::backend::{validate_interval, EnvBackend, ReadError, RetryPolicy};
use crate::completeness::Completeness;
use crate::control::ControlHook;
use crate::output::OutputFile;
use crate::overhead::{finalize_time, init_time, OverheadReport, IO_STRIPE_WIDTH};
use crate::plan::{SharedLookup, SharedReadCache};
use crate::records::Records;
use crate::remote::RemoteBackend;
use crate::tags::{TagEvent, TagKind};
use crate::telemetry::SessionTelemetry;
use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;

/// Session configuration.
///
/// ```
/// use moneq::{MonEqConfig, RetryPolicy};
/// use simkit::SimDuration;
///
/// // Defaults follow the paper: lowest valid interval, a "reasonably
/// // large" preallocated array, and a bounded-retry degradation policy.
/// let config = MonEqConfig {
///     interval: Some(SimDuration::from_millis(560)),
///     agent_name: "R00-M0-N04".into(),
///     retry: RetryPolicy {
///         max_retries: 3,
///         ..RetryPolicy::default()
///     },
///     ..MonEqConfig::default()
/// };
/// assert_eq!(config.max_samples, 1 << 20);
/// assert_eq!(config.retry.max_retries, 3);
/// ```
#[derive(Clone, Debug)]
pub struct MonEqConfig {
    /// Polling interval; `None` = "the lowest polling interval possible for
    /// the given hardware" (the slowest backend minimum when several
    /// backends are attached, so every poll has fresh data everywhere).
    pub interval: Option<SimDuration>,
    /// Preallocated record-array capacity ("allocated to a reasonably large
    /// number"; records beyond it are dropped and counted).
    pub max_samples: usize,
    /// Agent name written into the output header.
    pub agent_name: String,
    /// Number of agent ranks in the whole run (drives the collective init/
    /// finalize cost model; 1 for single-node profiling).
    pub total_agents: usize,
    /// How the session reacts to backend read failures.
    pub retry: RetryPolicy,
    /// Record telemetry (counters / histograms / spans) for this session.
    /// Off by default: disabled telemetry costs one branch per update and
    /// allocates nothing, so existing runs are bit-for-bit unchanged.
    pub telemetry: bool,
}

impl Default for MonEqConfig {
    fn default() -> Self {
        MonEqConfig {
            interval: None,
            max_samples: 1 << 20,
            agent_name: "node0".into(),
            total_agents: 1,
            retry: RetryPolicy::default(),
            telemetry: false,
        }
    }
}

/// What finalize returns.
#[derive(Clone, Debug)]
pub struct FinalizeResult {
    /// The rendered per-node output file.
    pub file: OutputFile,
    /// The overhead ledger (one Table III column).
    pub overhead: OverheadReport,
    /// Records dropped because the preallocated array filled up.
    pub dropped_records: u64,
    /// Per-backend completeness counters (always populated; written into
    /// the output file only when some device was degraded).
    pub completeness: Vec<Completeness>,
    /// The session's telemetry instruments, moved out whole at finalize
    /// (a pointer move — no string-keyed report is built on the finalize
    /// path). Disabled unless [`MonEqConfig::telemetry`] was set. Build a
    /// mergeable [`simkit::TelemetryReport`] with
    /// [`SessionTelemetry::report`]; derived exclusively from the virtual
    /// timeline, so serial and parallel drives of the same seed produce
    /// equal instruments.
    pub telemetry: SessionTelemetry,
}

/// One attached backend plus its degradation state.
struct Slot {
    backend: Box<dyn EnvBackend>,
    /// Indices into the session's record array of the most recent poll's
    /// fresh records — the substitution source when a later poll fails
    /// outright. Indices, not clones: the array is append-only, so they
    /// stay valid, and the clean path never copies a record. (A fresh
    /// record dropped for capacity is not indexed; once the array is full
    /// substitutes would be dropped anyway.)
    last_good: Vec<usize>,
    consecutive_failures: u32,
    disabled: bool,
    comp: Completeness,
}

/// An active profiling session.
pub struct MonEq {
    rank: u32,
    slots: Vec<Slot>,
    config: MonEqConfig,
    interval: SimDuration,
    data: Records,
    /// Reusable index scratch for the poll path's fresh-record list; swaps
    /// with `Slot::last_good` so steady-state polls allocate nothing.
    scratch_fresh: Vec<usize>,
    tags: Vec<TagEvent>,
    dropped: u64,
    /// SIGALRM-style timer: nominal due time of the next poll. MonEQ's
    /// real timer is one `SIGALRM` registration per session, so a single
    /// armed deadline stored inline is the whole timer, and no heap
    /// allocation per session sits on the cluster launch path.
    next_fire: SimTime,
    started_at: SimTime,
    init_cost: SimDuration,
    collection_cost: SimDuration,
    fault_recovery: SimDuration,
    polls: u64,
    telemetry: SessionTelemetry,
    /// The sharing domain's read cache, when a collection plan is active
    /// ([`MonEq::attach_shared_cache`]). `None` (the default) keeps the
    /// poll path bit-identical to builds that predate the planner.
    shared_cache: Option<Arc<SharedReadCache>>,
    /// The session's control hook, when a closed-loop scenario attached
    /// one ([`MonEq::attach_control`]). `None` (the default) keeps the
    /// fire loop bit-identical to builds that predate the hook.
    control: Option<Box<dyn ControlHook>>,
}

impl MonEq {
    /// `MonEQ_Initialize`: set up the record array and register the
    /// SIGALRM-style timer. Charges the Table III initialization cost and
    /// schedules the first poll one interval after `now`; later polls fire
    /// every interval after that.
    ///
    /// # Panics
    ///
    /// If no backends are given, if a requested interval is below any
    /// backend's minimum, or if the effective interval is zero (`interval
    /// must be positive`: a backend with a zero minimum and `interval:
    /// None`) — all programming errors in the caller.
    pub fn initialize(
        rank: u32,
        backends: Vec<Box<dyn EnvBackend>>,
        config: MonEqConfig,
        now: SimTime,
    ) -> Self {
        Self::initialize_from(rank, backends.into_iter(), config, now)
    }

    /// [`MonEq::initialize`] over any exact-size backend iterator. This is
    /// what [`crate::ClusterRun`] launches through — `iter::once(backend)`
    /// skips the intermediate one-element `Vec` per rank, which is a
    /// measurable slice of launch time at 49k sessions.
    pub(crate) fn initialize_from(
        rank: u32,
        backends: impl ExactSizeIterator<Item = Box<dyn EnvBackend>>,
        config: MonEqConfig,
        now: SimTime,
    ) -> Self {
        assert!(backends.len() > 0, "at least one backend required");
        let slots: Vec<Slot> = backends
            .map(|backend| {
                let comp = Completeness::new(backend.name());
                Slot {
                    backend,
                    last_good: Vec::new(),
                    consecutive_failures: 0,
                    disabled: false,
                    comp,
                }
            })
            .collect();
        let interval = match config.interval {
            Some(req) => {
                for s in &slots {
                    validate_interval(s.backend.as_ref(), req)
                        .unwrap_or_else(|e| panic!("invalid interval: {e}"));
                }
                req
            }
            None => slots
                .iter()
                .map(|s| s.backend.min_interval())
                .max()
                .expect("non-empty backends"),
        };
        // A zero interval would fire forever at one instant.
        assert!(!interval.is_zero(), "polling interval must be positive");
        let init_cost = init_time(config.total_agents.max(1));
        let telemetry =
            SessionTelemetry::new(config.telemetry, slots.iter().map(|s| s.backend.name()));
        MonEq {
            rank,
            slots,
            telemetry,
            // No up-front reservation: records live in columnar arenas
            // (`Records`), so growth is amortized per column and launching
            // tens of thousands of ranks in one process commits no
            // per-rank record heap at all (an eager reservation times a
            // 49k-rank run was most of the old 95 ms cluster launch cost).
            data: Records::new(),
            scratch_fresh: Vec::new(),
            tags: Vec::new(),
            dropped: 0,
            next_fire: now + init_cost + interval,
            started_at: now,
            init_cost,
            collection_cost: SimDuration::ZERO,
            fault_recovery: SimDuration::ZERO,
            polls: 0,
            shared_cache: None,
            control: None,
            interval,
            config,
        }
    }

    /// Attach the sharing domain's read cache (the cluster does this when
    /// a [`crate::CollectionPlan`] is active). Polls then consult the
    /// cache before charging the access path: the first rank to reach a
    /// generation reads live and publishes; co-resident ranks get the
    /// generation at zero marginal cost. Must be attached before any poll
    /// fires, or early generations are simply all misses.
    pub fn attach_shared_cache(&mut self, cache: Arc<SharedReadCache>) {
        self.shared_cache = Some(cache);
    }

    /// Serve every attached mechanism over a simulated link: each slot's
    /// backend is wrapped in a [`RemoteBackend`] on `link`, with the
    /// link's noise streams salted by this session's rank so each rank
    /// gets independent weather from one shared [`LinkSpec`]. The cluster
    /// calls this when the collection plan says
    /// [`Deployment::Remote`](crate::plan::Deployment::Remote); call it
    /// before any poll fires.
    pub fn deploy_remote(&mut self, link: LinkSpec) {
        let salt = u64::from(self.rank);
        self.slots = std::mem::take(&mut self.slots)
            .into_iter()
            .map(|mut slot| {
                slot.backend = Box::new(RemoteBackend::connect_salted(slot.backend, link, salt));
                slot
            })
            .collect();
    }

    /// Attach a control hook: after every timer fire, the hook sees the
    /// records that fire appended and may actuate the plant it holds.
    /// Attach before any poll fires so the controller sees the whole run.
    pub fn attach_control(&mut self, hook: Box<dyn ControlHook>) {
        self.control = Some(hook);
    }

    /// The effective polling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The agent rank this session belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of records collected so far.
    pub fn records(&self) -> usize {
        self.data.len()
    }

    /// The records collected so far, zero-copy.
    ///
    /// This is the monitoring daemon's ingest hook: records are append-only
    /// until [`MonEq::finalize`], so an incremental consumer keeps a cursor
    /// of how many it has seen and reads only the tail after each
    /// [`MonEq::run_until`] step.
    pub fn collected(&self) -> &Records {
        &self.data
    }

    /// The agent name records are filed under (`MonEqConfig::agent_name`).
    pub fn agent_name(&self) -> &str {
        &self.config.agent_name
    }

    /// Every device's completeness ledger as it stands, in backend order —
    /// the same counters [`MonEq::finalize`] returns, but readable mid-run
    /// so a staleness endpoint can answer while the session is still
    /// collecting.
    pub fn completeness(&self) -> impl Iterator<Item = &Completeness> {
        self.slots.iter().map(|s| &s.comp)
    }

    /// Drive the timer up to `until` (the application calls this as virtual
    /// time passes; each fire polls every backend and charges its cost).
    pub fn run_until(&mut self, until: SimTime) {
        // A deadline exactly at `until` fires. The interval is positive,
        // so `next_fire` always advances and the loop terminates.
        while self.next_fire <= until {
            let t = self.next_fire;
            let new_from = self.data.len();
            let before = self.collection_cost + self.fault_recovery;
            for i in 0..self.slots.len() {
                self.poll_slot(i, t);
            }
            self.telemetry
                .fire((self.collection_cost + self.fault_recovery) - before);
            // The control hook fires after every backend polled, on the
            // same timeline — a `None` hook is one untaken branch.
            if let Some(hook) = self.control.as_mut() {
                hook.after_poll(t, &self.data, new_from);
            }
            self.polls += 1;
            self.next_fire = t + self.interval;
        }
    }

    /// One backend's share of one timer fire: read with bounded retry,
    /// then record, substitute, or mark missed.
    ///
    /// A live poll is timed as one `query_latency/{backend}` sample (the
    /// report also reads it as the `poll/{backend}` span) covering the
    /// poll cost and any fault-recovery time it charged — all simulated
    /// time, so the sample is identical however the session is scheduled.
    /// Disabled devices record none (their polls do no mechanism work).
    fn poll_slot(&mut self, i: usize, t: SimTime) {
        let policy = self.config.retry;
        let slot = &mut self.slots[i];
        slot.comp.scheduled += 1;
        if slot.disabled {
            slot.comp.missed_polls += 1;
            slot.comp.records_lost += slot.backend.records_per_poll() as u64;
            return;
        }
        let before = self.collection_cost + self.fault_recovery;
        // Collection-plan consult: when a sharing domain's cache is
        // attached, ask whether this generation was already fetched by
        // the domain's leader. A hit skips the access-path charge, never
        // the read: every mechanism is a deterministic function of grid
        // time, so this rank's own read serves the leader's values. A
        // failure marker forces a full-cost read — faults are never
        // papered over by a sibling's success.
        let name = slot.backend.name();
        let mut charged = true;
        let mut leader = false;
        if let Some(cache) = &self.shared_cache {
            let found = cache.consult(name, slot.backend.read_cadence(), t);
            self.telemetry.lookup(i, &found);
            match found {
                SharedLookup::Hit => charged = false,
                SharedLookup::Failed => {}
                SharedLookup::Miss => leader = true,
            }
        }
        let mut attempt = 0u32;
        let outcome = loop {
            match slot.backend.read(t) {
                Ok(poll) => break Ok(poll),
                Err(e) => {
                    self.telemetry.fault(&e);
                    if let ReadError::Timeout { stalled } = &e {
                        self.fault_recovery += (*stalled).min(policy.timeout);
                    }
                    if e.is_retryable() && attempt < policy.max_retries {
                        attempt += 1;
                        slot.comp.retried += 1;
                        // Exponential backoff before retry n: base << (n-1),
                        // each wait capped at the per-backend timeout.
                        let backoff = 1u64
                            .checked_shl(attempt - 1)
                            .map_or(policy.timeout, |m| policy.base_backoff.saturating_mul(m))
                            .min(policy.timeout);
                        self.fault_recovery += backoff;
                        self.telemetry.retry(backoff);
                        continue;
                    }
                    break Err(e);
                }
            }
        };
        // Charge the access path once per poll, after the outcome settles:
        // for local mechanisms `last_poll_cost` is the static `poll_cost`
        // (so charging before or after the read is equivalent); for remote
        // ones it is the measured round-trip of the poll that just ran,
        // which only exists now. Failed polls still charge — the access
        // path was crossed even when the mechanism served nothing — except
        // when the wire itself never completed an exchange, in which case
        // the whole loss is the stall already charged to fault recovery.
        if charged {
            self.collection_cost += slot.backend.last_poll_cost();
        }
        self.telemetry
            .backend_poll(i, (self.collection_cost + self.fault_recovery) - before);
        // The generation's leader publishes whether its read succeeded, so
        // co-resident ranks share the fetch's cost; a failed read publishes
        // the failure marker.
        if leader {
            if let Some(cache) = &self.shared_cache {
                cache.publish(name, slot.backend.read_cadence(), t, outcome.is_ok());
            }
        }
        match outcome {
            Ok(poll) => {
                slot.consecutive_failures = 0;
                slot.comp.succeeded += 1;
                slot.comp.records_lost += u64::from(poll.missing);
                // The fresh-index list reuses a session-level scratch
                // buffer (and, below, swaps with the slot's previous list)
                // so the steady-state poll allocates nothing.
                let mut fresh = std::mem::take(&mut self.scratch_fresh);
                fresh.clear();
                for p in poll.points {
                    // Only genuinely fresh readings may serve as
                    // substitution material later; a glitched
                    // (stale-flagged) sample must not resurface as
                    // "last good".
                    if p.stale {
                        slot.comp.records_stale += 1;
                    } else {
                        slot.comp.records_fresh += 1;
                        if self.data.len() < self.config.max_samples {
                            fresh.push(self.data.len());
                        }
                    }
                    if self.data.len() < self.config.max_samples {
                        self.data.push(p);
                    } else {
                        self.dropped += 1;
                    }
                }
                if fresh.is_empty() {
                    self.scratch_fresh = fresh;
                } else {
                    self.scratch_fresh = std::mem::replace(&mut slot.last_good, fresh);
                }
            }
            Err(_) => {
                slot.consecutive_failures += 1;
                if slot.last_good.is_empty() {
                    slot.comp.missed_polls += 1;
                    slot.comp.records_lost += slot.backend.records_per_poll() as u64;
                } else {
                    slot.comp.stale_polls += 1;
                    for k in 0..slot.last_good.len() {
                        slot.comp.records_stale += 1;
                        if self.data.len() < self.config.max_samples {
                            // Columnar last-good substitution: copies the
                            // row in place, allocation-free.
                            self.data.push_stale_copy(slot.last_good[k], t);
                        } else {
                            self.dropped += 1;
                        }
                    }
                }
                if slot.consecutive_failures >= policy.disable_after {
                    slot.disabled = true;
                    slot.comp.mark_disabled(self.rank, t.as_nanos());
                }
            }
        }
    }

    /// Open a tagged section ("3 work loops → 6 lines of code").
    pub fn start_tag(&mut self, label: &str, at: SimTime) {
        self.tags.push(TagEvent {
            label: label.to_owned(),
            kind: TagKind::Start,
            at,
        });
    }

    /// Close a tagged section.
    pub fn end_tag(&mut self, label: &str, at: SimTime) {
        self.tags.push(TagEvent {
            label: label.to_owned(),
            kind: TagKind::End,
            at,
        });
    }

    /// `MonEQ_Finalize`: stop polling, inject tag markers, render the
    /// output file, and account the scale-dependent finalize cost.
    pub fn finalize(mut self, now: SimTime) -> FinalizeResult {
        self.run_until(now);
        let app_runtime = now.saturating_since(self.started_at);
        let waves = self.config.total_agents.max(1).div_ceil(IO_STRIPE_WIDTH) as u64;
        // Disabled telemetry never pulls the iterator, so no gate or link
        // ledger is copied unless someone will read it.
        self.telemetry.finalize(
            self.slots
                .iter()
                .map(|s| (&s.comp, s.backend.gate_stats(), s.backend.wire_stats())),
            self.polls,
            self.dropped,
            waves,
            app_runtime,
        );
        let overhead = OverheadReport {
            app_runtime,
            init: self.init_cost,
            finalize: finalize_time(self.config.total_agents.max(1)),
            collection: self.collection_cost,
            fault_recovery: self.fault_recovery,
            polls: self.polls,
            retries: self.slots.iter().map(|s| s.comp.retried).sum(),
        };
        let completeness: Vec<Completeness> = self.slots.iter().map(|s| s.comp.clone()).collect();
        // Clean runs omit the report entirely so un-faulted output is
        // byte-identical to the pre-fault format; one degraded device puts
        // every device's counters in the file (a complete table).
        let file_completeness = if completeness.iter().all(Completeness::is_clean) {
            Vec::new()
        } else {
            completeness.clone()
        };
        let file = OutputFile {
            rank: self.rank,
            agent: self.config.agent_name.clone(),
            backends: self
                .slots
                .iter()
                .map(|s| s.backend.name().to_owned())
                .collect(),
            interval_ns: self.interval.as_nanos(),
            points: std::mem::take(&mut self.data),
            tags: std::mem::take(&mut self.tags),
            completeness: file_completeness,
        };
        FinalizeResult {
            file,
            overhead,
            dropped_records: self.dropped,
            completeness,
            telemetry: std::mem::take(&mut self.telemetry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Poll;
    use crate::reading::DataPoint;
    use powermodel::{Metric, Platform, Support};

    /// A constant-power test backend.
    struct Fake {
        min: SimDuration,
        cost: SimDuration,
        devices: usize,
    }

    impl EnvBackend for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            self.min
        }
        fn poll_cost(&self) -> SimDuration {
            self.cost
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            Ok(Poll::complete(
                (0..self.devices)
                    .map(|d| DataPoint::power(t, format!("dev{d}"), "board", 50.0))
                    .collect(),
            ))
        }
        fn records_per_poll(&self) -> usize {
            self.devices
        }
    }

    fn fake(min_ms: u64, cost_us: u64, devices: usize) -> Box<dyn EnvBackend> {
        Box::new(Fake {
            min: SimDuration::from_millis(min_ms),
            cost: SimDuration::from_micros(cost_us),
            devices,
        })
    }

    /// A backend that follows a failure script: `script[k]` decides poll
    /// `k`'s fate (attempt-level, so retries consume script entries).
    struct Scripted {
        script: Vec<Result<f64, ReadError>>,
        cursor: usize,
    }

    impl EnvBackend for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            SimDuration::from_millis(100)
        }
        fn poll_cost(&self) -> SimDuration {
            SimDuration::from_micros(10)
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            let step = self.script.get(self.cursor).cloned();
            self.cursor += 1;
            match step {
                Some(Ok(w)) => Ok(Poll::complete(vec![DataPoint::power(t, "dev", "d", w)])),
                Some(Err(e)) => Err(e),
                None => Ok(Poll::complete(vec![DataPoint::power(t, "dev", "d", 1.0)])),
            }
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    fn session_with(script: Vec<Result<f64, ReadError>>, retry: RetryPolicy) -> MonEq {
        MonEq::initialize(
            0,
            vec![Box::new(Scripted { script, cursor: 0 })],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                retry,
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn default_interval_is_slowest_backend_minimum() {
        let s = MonEq::initialize(
            0,
            vec![fake(60, 30, 1), fake(560, 1_100, 1)],
            MonEqConfig::default(),
            SimTime::ZERO,
        );
        assert_eq!(s.interval(), SimDuration::from_millis(560));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn interval_below_minimum_panics() {
        MonEq::initialize(
            0,
            vec![fake(60, 30, 1)],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(10)),
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
    }

    #[test]
    fn polls_fire_at_interval_and_collect_per_device() {
        let mut s = MonEq::initialize(
            0,
            vec![fake(100, 10, 2)], // a node with two accelerators
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
        s.run_until(SimTime::from_secs(1));
        // First poll at init_cost + 100 ms, then every 100 ms: ~9-10 polls,
        // each with 2 records (both accelerators, individually).
        let r = s.records();
        assert!((18..=20).contains(&r), "records {r}");
        let result = s.finalize(SimTime::from_secs(1));
        assert_eq!(result.file.points.len(), r);
        assert!(result.file.points.iter().any(|p| p.device == "dev1"));
        assert_eq!(result.overhead.polls as usize * 2, r);
    }

    #[test]
    fn polls_land_exactly_on_the_interval_grid() {
        let now = SimTime::from_secs(7);
        let interval = SimDuration::from_millis(100);
        let mut s = MonEq::initialize(
            0,
            vec![fake(100, 10, 1)],
            MonEqConfig {
                interval: Some(interval),
                ..MonEqConfig::default()
            },
            now,
        );
        let end = SimTime::from_secs(9);
        s.run_until(end);
        let result = s.finalize(end);
        let stamps: Vec<SimTime> = result.file.points.iter().map(|p| p.timestamp).collect();
        let first = now + result.overhead.init + interval;
        let expect: Vec<SimTime> = (0u64..)
            .map(|k| first + SimDuration::from_nanos(k * interval.as_nanos()))
            .take_while(|&t| t <= end)
            .collect();
        assert!(expect.len() >= 19, "{} polls", expect.len());
        assert_eq!(stamps, expect);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_from_a_zero_minimum_backend_panics() {
        MonEq::initialize(
            0,
            vec![fake(0, 10, 1)],
            MonEqConfig::default(),
            SimTime::ZERO,
        );
    }

    #[test]
    fn collection_cost_accumulates_per_backend_poll() {
        let mut s = MonEq::initialize(
            0,
            vec![fake(100, 1_000, 1)],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
        s.run_until(SimTime::from_secs(10));
        let result = s.finalize(SimTime::from_secs(10));
        let polls = result.overhead.polls;
        assert_eq!(
            result.overhead.collection,
            SimDuration::from_millis(polls),
            "1 ms per poll"
        );
        // ~1% *collection* overhead at a 100 ms interval with a 1 ms poll
        // cost (total() also carries the init/finalize one-time costs).
        let collection_frac =
            result.overhead.collection.as_secs_f64() / result.overhead.app_runtime.as_secs_f64();
        assert!((collection_frac - 0.010).abs() < 0.002, "{collection_frac}");
    }

    #[test]
    fn preallocated_array_drops_beyond_capacity() {
        let mut s = MonEq::initialize(
            0,
            vec![fake(100, 10, 1)],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                max_samples: 5,
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
        s.run_until(SimTime::from_secs(2));
        let result = s.finalize(SimTime::from_secs(2));
        assert_eq!(result.file.points.len(), 5);
        assert!(result.dropped_records > 0);
    }

    #[test]
    fn tags_survive_into_the_output_file() {
        let mut s = MonEq::initialize(
            0,
            vec![fake(100, 10, 1)],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
        s.start_tag("loop1", SimTime::from_millis(200));
        s.run_until(SimTime::from_millis(700));
        s.end_tag("loop1", SimTime::from_millis(700));
        let result = s.finalize(SimTime::from_secs(1));
        assert_eq!(result.file.tags.len(), 2);
        let spans = crate::tags::pair_tags(&result.file.tags).unwrap();
        assert_eq!(spans[0].0, "loop1");
        // Round-trip through the text format too.
        let parsed = OutputFile::parse(&result.file.render()).unwrap();
        assert_eq!(parsed.tags.len(), 2);
    }

    #[test]
    fn overhead_report_scales_with_agents() {
        let mk = |agents: usize| {
            let s = MonEq::initialize(
                0,
                vec![fake(100, 10, 1)],
                MonEqConfig {
                    interval: Some(SimDuration::from_millis(100)),
                    total_agents: agents,
                    ..MonEqConfig::default()
                },
                SimTime::ZERO,
            );
            s.finalize(SimTime::from_secs(1)).overhead
        };
        let small = mk(1);
        let big = mk(32);
        assert!(big.finalize > small.finalize * 2);
        assert!(big.init > small.init);
        assert_eq!(big.polls, small.polls, "collection is scale-independent");
    }

    #[test]
    fn clean_run_reports_clean_completeness_and_omits_it_from_file() {
        let mut s = MonEq::initialize(
            0,
            vec![fake(100, 10, 2)],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
        s.run_until(SimTime::from_secs(1));
        let result = s.finalize(SimTime::from_secs(1));
        assert_eq!(result.completeness.len(), 1);
        let c = &result.completeness[0];
        assert!(c.is_clean() && c.reconciles());
        assert_eq!(c.scheduled, result.overhead.polls);
        assert_eq!(c.records_fresh as usize, result.file.points.len());
        assert!(result.file.completeness.is_empty(), "clean file stays lean");
        assert_eq!(result.overhead.fault_recovery, SimDuration::ZERO);
        assert_eq!(result.overhead.retries, 0);
    }

    #[test]
    fn transient_failures_retry_and_recover() {
        // Poll 1: fails twice, succeeds on the 3rd attempt (2 retries).
        let script = vec![
            Err(ReadError::Transient("x".into())),
            Err(ReadError::Transient("x".into())),
            Ok(10.0),
            Ok(11.0),
        ];
        let mut s = session_with(script, RetryPolicy::default());
        s.run_until(SimTime::from_millis(250));
        let result = s.finalize(SimTime::from_millis(250));
        let c = &result.completeness[0];
        assert_eq!(c.scheduled, 2);
        assert_eq!(c.succeeded, 2);
        assert_eq!(c.retried, 2);
        assert_eq!(c.records_fresh, 2);
        assert!(c.reconciles());
        assert_eq!(result.overhead.retries, 2);
        // Backoff 1 ms + 2 ms charged to fault recovery.
        assert_eq!(result.overhead.fault_recovery, SimDuration::from_millis(3));
        // Both polls' watts arrive fresh.
        assert!(result.file.points.iter().all(|p| !p.stale));
    }

    #[test]
    fn exhausted_retries_fall_back_to_last_good_value() {
        // Poll 1 succeeds; poll 2 fails through all attempts.
        let mut script = vec![Ok(42.0)];
        script.extend((0..3).map(|_| Err(ReadError::Transient("x".into()))));
        let mut s = session_with(script, RetryPolicy::default());
        s.run_until(SimTime::from_millis(250));
        let result = s.finalize(SimTime::from_millis(250));
        let c = &result.completeness[0];
        assert_eq!(c.scheduled, 2);
        assert_eq!(c.succeeded, 1);
        assert_eq!(c.stale_polls, 1);
        assert_eq!(c.records_stale, 1);
        assert!(c.reconciles());
        assert_eq!(c.records_expected(), 2);
        // The substitute record carries poll 2's timestamp and the stale
        // flag, with poll 1's value.
        let sub = result.file.points.last().unwrap();
        assert!(sub.stale);
        assert_eq!(sub.watts, 42.0);
        assert!(sub.timestamp > result.file.points.first().unwrap().timestamp);
        // A degraded run writes the completeness table into the file.
        assert_eq!(result.file.completeness.len(), 1);
    }

    #[test]
    fn failure_without_history_is_a_missed_poll() {
        let script = vec![Err(ReadError::NoData), Ok(5.0)];
        let mut s = session_with(script, RetryPolicy::default());
        s.run_until(SimTime::from_millis(250));
        let result = s.finalize(SimTime::from_millis(250));
        let c = &result.completeness[0];
        assert_eq!(c.missed_polls, 1);
        assert_eq!(c.records_lost, 1);
        assert_eq!(c.retried, 0, "NoData is not retryable");
        assert_eq!(c.succeeded, 1);
        assert!(c.reconciles());
        assert_eq!(result.file.points.len(), 1);
    }

    #[test]
    fn timeout_stall_is_charged_capped() {
        let policy = RetryPolicy {
            max_retries: 0,
            timeout: SimDuration::from_millis(20),
            ..RetryPolicy::default()
        };
        let script = vec![Err(ReadError::Timeout {
            stalled: SimDuration::from_millis(500),
        })];
        let mut s = session_with(script, policy);
        s.run_until(SimTime::from_millis(150));
        let result = s.finalize(SimTime::from_millis(150));
        // The 500 ms stall is capped at the 20 ms per-backend timeout.
        assert_eq!(result.overhead.fault_recovery, SimDuration::from_millis(20));
        assert!(result.overhead.total() > result.overhead.collection);
    }

    #[test]
    fn long_retry_runs_cap_each_backoff_at_the_timeout() {
        // A device that fails every attempt with a retryable error. With
        // the 1 ms base, retries 1-6 wait 1..32 ms (63 ms) and retries
        // 7-64 hit the 50 ms timeout cap; with a 1 ns base, retry 65
        // would shift past 64 bits.
        let cases = [
            (
                64,
                SimDuration::from_millis(1),
                63_000_000 + 58 * 50_000_000,
            ),
            (
                70,
                SimDuration::from_nanos(1),
                (1 << 26) - 1 + 44 * 50_000_000,
            ),
        ];
        for (max_retries, base_backoff, per_poll_ns) in cases {
            let policy = RetryPolicy {
                max_retries,
                base_backoff,
                ..RetryPolicy::default()
            };
            let script = (0..1_000)
                .map(|_| Err(ReadError::Transient("dead".into())))
                .collect();
            let mut s = session_with(script, policy);
            s.run_until(SimTime::from_millis(350));
            let result = s.finalize(SimTime::from_millis(350));
            let c = &result.completeness[0];
            assert_eq!(c.scheduled, 3);
            assert_eq!(c.missed_polls, 3);
            assert_eq!(c.retried, 3 * u64::from(max_retries));
            assert_eq!(
                result.overhead.fault_recovery,
                SimDuration::from_nanos(3 * per_poll_ns)
            );
        }
    }

    #[test]
    fn telemetry_mirrors_completeness_and_latency() {
        // Poll 1 retries twice then succeeds; poll 2 is clean.
        let script = vec![
            Err(ReadError::Transient("x".into())),
            Err(ReadError::Transient("x".into())),
            Ok(10.0),
            Ok(11.0),
        ];
        let mut s = MonEq::initialize(
            0,
            vec![Box::new(Scripted { script, cursor: 0 })],
            MonEqConfig {
                interval: Some(SimDuration::from_millis(100)),
                telemetry: true,
                ..MonEqConfig::default()
            },
            SimTime::ZERO,
        );
        s.run_until(SimTime::from_millis(250));
        let result = s.finalize(SimTime::from_millis(250));
        let t = result.telemetry.report();
        assert_eq!(t.counter("polls.scheduled"), 2);
        assert_eq!(t.counter("polls.succeeded"), 2);
        assert_eq!(t.counter("polls.retried"), 2);
        assert_eq!(t.counter("faults.transient"), 2);
        assert_eq!(t.counter("records.fresh"), 2);
        // Query latency: poll 1 = 10 us cost + 1 ms + 2 ms backoff, poll 2
        // = 10 us. Exact min/max; mean is exact too.
        let h = &t.histograms["query_latency/scripted"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(SimDuration::from_micros(10)));
        assert_eq!(h.max(), Some(SimDuration::from_micros(3_010)));
        // Spans: one session span, two poll spans, two per-backend spans.
        assert_eq!(t.spans["session"].count, 1);
        assert_eq!(t.spans["poll"].count, 2);
        assert_eq!(t.spans["poll/scripted"].count, 2);
        assert_eq!(t.spans["poll/scripted"].depth, 2);
        assert_eq!(
            t.spans["poll/scripted"].total,
            SimDuration::from_micros(3_020)
        );
    }

    #[test]
    fn telemetry_disabled_by_default_and_output_identical() {
        let mk = |telemetry: bool| {
            let script = vec![Err(ReadError::Transient("x".into())), Ok(10.0), Ok(11.0)];
            let mut s = MonEq::initialize(
                0,
                vec![Box::new(Scripted { script, cursor: 0 })],
                MonEqConfig {
                    interval: Some(SimDuration::from_millis(100)),
                    telemetry,
                    ..MonEqConfig::default()
                },
                SimTime::ZERO,
            );
            s.run_until(SimTime::from_millis(250));
            s.finalize(SimTime::from_millis(250))
        };
        let off = mk(false);
        let on = mk(true);
        assert!(off.telemetry.report().is_empty());
        assert!(!on.telemetry.report().is_empty());
        // Telemetry must never change what the session produces.
        assert_eq!(off.file.render(), on.file.render());
        assert_eq!(off.overhead, on.overhead);
        assert_eq!(off.completeness, on.completeness);
    }

    #[test]
    fn device_disables_after_consecutive_failures() {
        let policy = RetryPolicy {
            max_retries: 0,
            disable_after: 3,
            ..RetryPolicy::default()
        };
        for telemetry in [false, true] {
            let script: Vec<_> = (0..20).map(|_| Err(ReadError::NoData)).collect();
            let mut s = MonEq::initialize(
                0,
                vec![Box::new(Scripted { script, cursor: 0 })],
                MonEqConfig {
                    interval: Some(SimDuration::from_millis(100)),
                    retry: policy,
                    telemetry,
                    ..MonEqConfig::default()
                },
                SimTime::ZERO,
            );
            s.run_until(SimTime::from_secs(1));
            let result = s.finalize(SimTime::from_secs(1));
            let c = &result.completeness[0];
            assert!(c.disabled_at_ns.is_some());
            // Every poll missed: 3 live failures, the rest disabled.
            assert_eq!(c.missed_polls, c.scheduled);
            assert_eq!(c.succeeded, 0);
            assert!(c.reconciles());
            assert_eq!(c.records_lost, c.scheduled);
            // Disabled polls charge no collection cost.
            let live_cost = SimDuration::from_micros(10) * 3;
            assert_eq!(result.overhead.collection, live_cost);
            if telemetry {
                // Every fire opens the session's `poll` span; only the 3
                // live polls open the backend's span and sample latency.
                let t = result.telemetry.report();
                assert_eq!(t.spans["poll"].count, c.scheduled);
                assert_eq!(t.spans["poll/scripted"].count, 3);
                assert_eq!(t.histograms["query_latency/scripted"].count(), 3);
            }
        }
    }
}
