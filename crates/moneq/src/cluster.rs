//! Multi-rank runs: MonEQ the way it actually runs on a machine.
//!
//! On Mira or Stampede, every agent rank (node card / node) runs its own
//! session; finalize gathers one output file per agent ("each node … within
//! the file produced for the node", §III). [`ClusterRun`] owns that
//! fan-out: it drives N sessions over the same virtual timeline, collects
//! their files, and reduces them — the machinery behind Figure 8's sum and
//! Table III's scale sweep.

use crate::backend::EnvBackend;
use crate::completeness::{merge_by_device, Completeness};
use crate::output::OutputFile;
use crate::overhead::OverheadReport;
use crate::plan::{CacheStats, CollectionPlan, Deployment, SharedReadCache};
use crate::session::{FinalizeResult, MonEq, MonEqConfig};
use crate::telemetry::SessionTelemetry;
use simkit::{SimDuration, SimTime, TelemetryReport, TimeSeries};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of CPUs the host actually has (1 when it cannot be determined).
/// The sweeps use it as their default phase width.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Consecutive ranks a worker claims off the cursor at once (rounded up to
/// whole sharing domains).
///
/// Chunking amortizes the per-claim synchronization over many cheap
/// sessions; at Mira scale (49,152 nodes = 1,536 node-card agents) a worker
/// grabs a batch of ranks at a time instead of contending per rank. A
/// smaller run does not narrow its chunks to reach its width: a run of at
/// most 32 ranks is one chunk on the calling thread, because splitting a
/// 32-rank phase over two threads cost more than the phase's own work
/// (DESIGN.md §12.3).
const CHUNK: usize = 32;

/// A whole-machine profiling run.
///
/// Sessions never interact — every rank polls its own node's hardware — so
/// the fan-out is embarrassingly parallel. Each `run_until` and the
/// `finalize` is one **phase**: width 1 (the default) runs on the calling
/// thread and spawns nothing, and a phase of width w > 1 (see
/// [`with_par_agents`]) spawns its workers inside one
/// [`std::thread::scope`], joined before the call returns. Workers claim
/// chunks of consecutive ranks from one shared cursor, through the same
/// loop at every width; `run_until` drives the sessions in place. Results
/// are gathered in rank order, so a parallel run produces a
/// [`ClusterResult`] identical to a serial run of the same seed and
/// agents.
///
/// [`with_par_agents`]: ClusterRun::with_par_agents
pub struct ClusterRun {
    sessions: Vec<MonEq>,
    par_agents: usize,
    plan: CollectionPlan,
    /// One shared read cache per sharing domain (empty for the per-agent
    /// plan). Arcs are shared with the domain's sessions.
    caches: Vec<Arc<SharedReadCache>>,
    sched: SchedStats,
}

/// Wall-clock scheduling diagnostics for a cluster run's phases.
///
/// Unlike everything in a [`TelemetryReport`], these numbers come from the
/// *host* clock and the racy order in which workers claim chunks, so they
/// are **not deterministic** and are deliberately kept out of the
/// determinism-tested telemetry: two runs of the same seed agree on every
/// counter and histogram but may divide chunks among workers differently.
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// Most workers any one phase ran on (1 = every phase ran on the
    /// calling thread alone).
    pub workers: usize,
    /// Wall-clock time each worker spent driving sessions, per worker
    /// slot, totalled over every phase.
    pub busy_per_worker: Vec<Duration>,
}

impl SchedStats {
    /// Fold one phase's per-worker busy times into the run's totals. A
    /// phase may run wider or narrower than the ones before it.
    fn absorb(&mut self, busy: &[Duration]) {
        if self.busy_per_worker.len() < busy.len() {
            self.busy_per_worker.resize(busy.len(), Duration::ZERO);
        }
        for (total, b) in self.busy_per_worker.iter_mut().zip(busy) {
            *total += *b;
        }
        self.workers = self.busy_per_worker.len();
    }
}

/// The gathered result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// One output file per agent rank, in rank order.
    pub files: Vec<OutputFile>,
    /// Per-agent overhead ledgers.
    pub overheads: Vec<OverheadReport>,
    /// Total records dropped across agents.
    pub dropped_records: u64,
    /// Per-rank completeness reports (rank → one entry per backend), in
    /// rank order like [`ClusterResult::files`].
    pub completeness: Vec<Vec<Completeness>>,
    /// Per-rank telemetry, in rank order. Each is moved whole out of its
    /// session at finalize; string-keyed [`TelemetryReport`]s are built
    /// only on demand ([`SessionTelemetry::report`] per rank,
    /// [`ClusterResult::telemetry_merged`] run-wide), so the gather path
    /// never pays for them. All disabled unless the sessions were launched
    /// with [`MonEqConfig::telemetry`] set. Deterministic: serial and
    /// parallel drives produce equal instruments.
    pub telemetry: Vec<SessionTelemetry>,
    /// Exact shared-read cache ledger, folded over every sharing domain.
    /// All zero unless a collection plan was active
    /// ([`ClusterRun::with_collection_plan`]). Deterministic: domain
    /// chunks are driven in rank order, so serial and parallel runs agree
    /// on every count.
    pub cache: CacheStats,
    /// Wall-clock scheduling diagnostics (see [`SchedStats`] — these are
    /// *not* deterministic and excluded from serial == parallel equality).
    pub sched: SchedStats,
}

/// Render a caught panic payload as text (the common `&str` / `String`
/// payloads verbatim; anything else a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One phase over `slots`, on `workers` threads. Width 1 runs the worker
/// loop on the calling thread and spawns nothing; a wider phase spawns
/// all `workers` inside one [`std::thread::scope`] and the calling thread
/// only joins them (DESIGN.md §12.3 has the measurement behind that).
/// Each worker claims slot indices from one atomic cursor and runs `drive`
/// on the claimed slot; the slot mutexes are uncontended, since each index
/// is claimed exactly once. `drive` catches each session's panic and
/// returns it with the rank; the first one stops every worker, and after
/// the phase the lowest-rank panic caught is re-raised as `rank N panicked
/// during cluster {phase}: msg`.
fn drive_phase<S: Send>(
    slots: &[Mutex<S>],
    workers: usize,
    phase: &str,
    sched: &mut SchedStats,
    drive: impl Fn(&mut S) -> Result<(), (u32, String)> + Sync,
) {
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let panics = Mutex::new(Vec::new());
    // Returns the worker's busy wall-clock.
    let worker = || {
        let mut busy = Duration::ZERO;
        while !abort.load(Ordering::Relaxed) {
            let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let start = Instant::now();
            let done = drive(&mut slot.lock().unwrap_or_else(PoisonError::into_inner));
            busy += start.elapsed();
            if let Err(panic) = done {
                abort.store(true, Ordering::Relaxed);
                panics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(panic);
            }
        }
        busy
    };
    let busy: Vec<Duration> = if workers == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    sched.absorb(&busy);
    let mut panics = panics.into_inner().unwrap_or_else(PoisonError::into_inner);
    panics.sort();
    if let Some((rank, msg)) = panics.first() {
        panic!("rank {rank} panicked during cluster {phase}: {msg}");
    }
}

/// Catch a session's panic, tagged with its rank, for [`drive_phase`].
fn catch_rank<T>(rank: u32, f: impl FnOnce() -> T) -> Result<T, (u32, String)> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| (rank, panic_message(p)))
}

impl ClusterRun {
    /// Launch one session per backend factory. `make_backend(rank)` builds
    /// rank `rank`'s backend (each rank needs its own handle to its own
    /// node's hardware); `name(rank)` labels its output file.
    ///
    /// # Panics
    ///
    /// If `agents` is 0: a run has at least one rank.
    pub fn launch<B, N>(
        agents: usize,
        interval: Option<SimDuration>,
        make_backend: B,
        name: N,
        now: SimTime,
    ) -> Self
    where
        B: FnMut(usize) -> Box<dyn EnvBackend>,
        N: FnMut(usize) -> String,
    {
        let base = MonEqConfig {
            interval,
            ..MonEqConfig::default()
        };
        Self::launch_with(agents, make_backend, name, now, base)
    }

    /// Launch with an explicit base configuration (retry policy, record
    /// capacity, …). Per-rank `agent_name` and `total_agents` are still
    /// filled in here; the rest of `base` applies to every rank.
    ///
    /// # Panics
    ///
    /// If `agents` is 0, like [`ClusterRun::launch`].
    pub fn launch_with<B, N>(
        agents: usize,
        mut make_backend: B,
        mut name: N,
        now: SimTime,
        base: MonEqConfig,
    ) -> Self
    where
        B: FnMut(usize) -> Box<dyn EnvBackend>,
        N: FnMut(usize) -> String,
    {
        assert!(agents >= 1, "a cluster run needs at least one agent");
        let sessions = (0..agents)
            .map(|rank| {
                // `iter::once` instead of a one-element `Vec`: at 49k ranks
                // the intermediate allocation is measurable launch time.
                MonEq::initialize_from(
                    rank as u32,
                    std::iter::once(make_backend(rank)),
                    MonEqConfig {
                        agent_name: name(rank),
                        total_agents: agents,
                        ..base.clone()
                    },
                    now,
                )
            })
            .collect();
        ClusterRun {
            sessions,
            par_agents: 1,
            plan: CollectionPlan::per_agent(),
            caches: Vec::new(),
            sched: SchedStats::default(),
        }
    }

    /// Activate a batched collection plan: `plan.domain_size()` consecutive
    /// ranks share one [`SharedReadCache`], so each generation is charged
    /// once per domain (to whichever rank reaches it first); co-resident
    /// ranks still read for themselves, at zero marginal charged cost.
    ///
    /// The caller must make the domains match the hardware the ranks are
    /// attached to — every rank of a domain has to read the *same* device
    /// (node card, socket, card), or the shared charge would undercount
    /// the access paths crossed. Outputs are byte-identical with the plan
    /// on or off; only the charged collection overhead changes.
    ///
    /// Dispatch chunks are aligned up to whole domains, so a parallel run
    /// drives each domain's ranks on one worker in rank order — leader
    /// election stays deterministic and the domain's cache lock
    /// uncontended.
    ///
    /// # Panics
    ///
    /// If the plan is deployed as [`Deployment::Remote`] over a link that
    /// [`simkit::wire::LinkSpec::validate`] rejects.
    pub fn with_collection_plan(mut self, plan: CollectionPlan) -> Self {
        self.plan = plan;
        self.caches.clear();
        // Deployment before sharing: a remote leader's fetch cost is the
        // wire round-trip, paid once per domain like any access path.
        if let Deployment::Remote(link) = plan.deployment() {
            for session in &mut self.sessions {
                session.deploy_remote(link);
            }
        }
        if plan.is_shared() {
            self.caches = (0..plan.domains(self.sessions.len()))
                .map(|_| Arc::new(SharedReadCache::new()))
                .collect();
            for (rank, session) in self.sessions.iter_mut().enumerate() {
                session.attach_shared_cache(Arc::clone(&self.caches[plan.domain_of(rank)]));
            }
        }
        self
    }

    /// Attach a per-rank control hook to every session that gets one
    /// (`make(rank)` returning `None` leaves that rank open-loop).
    ///
    /// Hooks must be rank-local: each one may only touch plant state owned
    /// by its own rank, or the serial == parallel guarantee is forfeit.
    /// Call before the first `run_until`; fires already driven stay
    /// open-loop.
    pub fn attach_control_hooks<F>(&mut self, mut make: F)
    where
        F: FnMut(usize) -> Option<Box<dyn crate::control::ControlHook>>,
    {
        for (rank, session) in self.sessions.iter_mut().enumerate() {
            if let Some(hook) = make(rank) {
                session.attach_control(hook);
            }
        }
    }

    /// Set the phase width for `run_until`/`finalize`, the one scheduling
    /// setting. `1` (the default) keeps every phase on the calling thread.
    /// A phase runs `min(workers, chunks)` threads, where a chunk is 32
    /// consecutive ranks rounded up to whole sharing domains, so a run
    /// reaches its full width only with more than `workers − 1` chunks of
    /// ranks; nothing caps the width at the host's CPU count.
    ///
    /// # Panics
    ///
    /// If `workers` is 0.
    pub fn with_par_agents(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker required");
        self.par_agents = workers;
        self
    }

    /// One phase's `(chunk, workers)`, by the rule on
    /// [`ClusterRun::with_par_agents`]. The chunk rounds up to whole
    /// sharing domains: a domain split across two workers would let its
    /// ranks race on leader election, making the charged overheads depend
    /// on scheduling.
    fn dispatch(&self) -> (usize, usize) {
        let domain = self.plan.domain_size();
        let chunk = CHUNK.div_ceil(domain) * domain;
        let chunks = self.sessions.len().div_ceil(chunk);
        (chunk, self.par_agents.min(chunks))
    }

    /// Advance every rank's timer to `until`.
    ///
    /// The sessions are driven in place, chunk by chunk, by the phase's
    /// workers (the calling thread alone at width 1); each session still
    /// observes exactly the serial event sequence, because no state is
    /// shared between ranks outside a chunk.
    ///
    /// # Panics
    ///
    /// Re-raises a rank's panic, after the phase, as `rank N panicked
    /// during cluster run_until: msg` (the lowest rank caught), at every
    /// width.
    pub fn run_until(&mut self, until: SimTime) {
        let (chunk, workers) = self.dispatch();
        let slots: Vec<_> = self.sessions.chunks_mut(chunk).map(Mutex::new).collect();
        drive_phase(&slots, workers, "run_until", &mut self.sched, |ranks| {
            for s in ranks.iter_mut() {
                catch_rank(s.rank(), || s.run_until(until))?;
            }
            Ok(())
        });
        self.prune_caches(until);
    }

    /// Drop cached generations every rank has now been driven past. Later
    /// polls are strictly after `until`, so at worst they fall in the
    /// generation containing `until` — which the prune keeps.
    fn prune_caches(&self, until: SimTime) {
        for cache in &self.caches {
            cache.prune_before(until);
        }
    }

    /// Read access to every rank's session, in rank order.
    ///
    /// The monitoring daemon walks this between [`ClusterRun::run_until`]
    /// steps to ingest each rank's newly appended records (see
    /// [`MonEq::collected`]) and to answer staleness queries from the live
    /// ledgers (see [`MonEq::completeness`]).
    pub fn sessions(&self) -> &[MonEq] {
        &self.sessions
    }

    /// Tag a section on every rank (collective tags, the common usage).
    pub fn start_tag_all(&mut self, label: &str, at: SimTime) {
        for s in &mut self.sessions {
            s.start_tag(label, at);
        }
    }

    /// Close a collective tag.
    pub fn end_tag_all(&mut self, label: &str, at: SimTime) {
        for s in &mut self.sessions {
            s.end_tag(label, at);
        }
    }

    /// Finalize every rank and gather the files.
    ///
    /// Each chunk's sessions are finalized by whichever worker claims the
    /// chunk, into that chunk's slot; the slots are gathered in chunk
    /// order, so the result is byte-identical at every width.
    ///
    /// # Panics
    ///
    /// Re-raises a rank's panic as `rank N panicked during cluster
    /// finalize: msg`, like [`ClusterRun::run_until`].
    pub fn finalize(mut self, now: SimTime) -> ClusterResult {
        let n = self.sessions.len();
        let (chunk, workers) = self.dispatch();
        let n_chunks = n.div_ceil(chunk);
        // One slot per chunk: its sessions in, their results out.
        let mut sessions = std::mem::take(&mut self.sessions).into_iter();
        let slots: Vec<Mutex<(Vec<MonEq>, Vec<FinalizeResult>)>> = (0..n_chunks)
            .map(|_| Mutex::new((sessions.by_ref().take(chunk).collect(), Vec::new())))
            .collect();
        drive_phase(
            &slots,
            workers,
            "finalize",
            &mut self.sched,
            |(ranks, results)| {
                results.reserve_exact(ranks.len());
                for s in ranks.drain(..) {
                    results.push(catch_rank(s.rank(), || s.finalize(now))?);
                }
                Ok(())
            },
        );
        let results = slots
            .into_iter()
            .flat_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).1);
        let mut files = Vec::with_capacity(n);
        let mut overheads = Vec::with_capacity(n);
        let mut completeness = Vec::with_capacity(n);
        let mut telemetry = Vec::with_capacity(n);
        let mut dropped = 0;
        for r in results {
            files.push(r.file);
            overheads.push(r.overhead);
            completeness.push(r.completeness);
            telemetry.push(r.telemetry);
            dropped += r.dropped_records;
        }
        let mut cache = CacheStats::default();
        for c in &self.caches {
            cache.absorb(&c.stats());
        }
        ClusterResult {
            files,
            overheads,
            dropped_records: dropped,
            completeness,
            telemetry,
            cache,
            sched: self.sched,
        }
    }
}

impl ClusterResult {
    /// Per-agent power series for one device/domain pair (summing the
    /// watts of matching records per poll timestamp).
    ///
    /// Records are grouped by timestamp wherever they appear in the file —
    /// a backend that interleaves devices within a poll, or reports a late
    /// generation out of order, still contributes to the right instant.
    ///
    /// # Panics
    ///
    /// If `rank` is not below the run's agent count (`files.len()`).
    pub fn agent_series(&self, rank: usize, device: &str) -> TimeSeries {
        let file = &self.files[rank];
        let mut sums: std::collections::BTreeMap<SimTime, f64> = std::collections::BTreeMap::new();
        for p in file.points.iter().filter(|p| p.device == device) {
            *sums.entry(p.timestamp).or_insert(0.0) += p.watts;
        }
        let mut out = TimeSeries::new(format!("rank{rank} {device}"));
        for (t, watts) in sums {
            out.push(t, watts);
        }
        out
    }

    /// Machine-wide sum over all agents of one device's power (Figure 8's
    /// reduction). All agents must have polled on the same grid.
    pub fn sum_series(&self, device: &str) -> TimeSeries {
        let per_agent: Vec<TimeSeries> = (0..self.files.len())
            .map(|r| self.agent_series(r, device))
            .collect();
        TimeSeries::sum(format!("sum {device}"), &per_agent)
    }

    /// Write every agent's file into `dir` (the real finalize side effect).
    pub fn write_all(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        self.files.iter().map(|f| f.write_to(dir)).collect()
    }

    /// The run-wide completeness report: every rank's per-device counters
    /// folded together by device (backend) name, in first-seen order. The
    /// counters still reconcile after merging — sums of exact invariants
    /// are exact.
    pub fn completeness_by_device(&self) -> Vec<Completeness> {
        merge_by_device(self.completeness.iter().flatten())
    }

    /// The run-wide telemetry report: every rank's report built and
    /// folded together with [`TelemetryReport::absorb`], exactly like
    /// [`ClusterResult::completeness_by_device`] — counters and histogram
    /// buckets are exact sums, so the merge is order-independent. This is
    /// where per-rank reports are first built; the collection and gather
    /// paths never build them.
    pub fn telemetry_merged(&self) -> TelemetryReport {
        let mut merged = TelemetryReport::default();
        for t in &self.telemetry {
            merged.absorb(&t.report());
        }
        merged
    }

    /// The Table III view: the slowest agent's ledger per phase (the
    /// numbers the paper reports are run-wide completion times).
    pub fn worst_case_overhead(&self) -> OverheadReport {
        let mut worst = self.overheads[0];
        for o in &self.overheads[1..] {
            if o.total() > worst.total() {
                worst = *o;
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::DataPoint;
    use powermodel::{Metric, Platform, Support};

    struct Fake {
        rank: usize,
    }
    impl EnvBackend for Fake {
        fn name(&self) -> &'static str {
            "fake"
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
        fn read(&mut self, t: SimTime) -> Result<crate::backend::Poll, crate::backend::ReadError> {
            Ok(crate::backend::Poll::complete(vec![DataPoint::power(
                t,
                "dev",
                "d",
                100.0 + self.rank as f64,
            )]))
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    fn launch(agents: usize) -> ClusterRun {
        ClusterRun::launch(
            agents,
            Some(SimDuration::from_millis(100)),
            |rank| Box::new(Fake { rank }),
            |rank| format!("node{rank}"),
            SimTime::ZERO,
        )
    }

    #[test]
    fn one_file_per_agent_in_rank_order() {
        let mut run = launch(4);
        run.run_until(SimTime::from_secs(2));
        let result = run.finalize(SimTime::from_secs(2));
        assert_eq!(result.files.len(), 4);
        for (i, f) in result.files.iter().enumerate() {
            assert_eq!(f.rank as usize, i);
            assert_eq!(f.agent, format!("node{i}"));
            assert!(!f.points.is_empty());
        }
    }

    #[test]
    fn sum_series_adds_across_agents() {
        let mut run = launch(3);
        run.run_until(SimTime::from_secs(2));
        let result = run.finalize(SimTime::from_secs(2));
        let sum = result.sum_series("dev");
        // Ranks report 100, 101, 102 -> sum 303 at every poll.
        assert!(!sum.is_empty());
        for s in sum.samples() {
            assert!((s.value - 303.0).abs() < 1e-9);
        }
    }

    #[test]
    fn collective_tags_reach_every_file() {
        let mut run = launch(2);
        run.start_tag_all("phase", SimTime::from_millis(200));
        run.run_until(SimTime::from_secs(1));
        run.end_tag_all("phase", SimTime::from_secs(1));
        let result = run.finalize(SimTime::from_secs(1));
        for f in &result.files {
            assert_eq!(f.tags.len(), 2);
        }
    }

    #[test]
    fn write_all_creates_one_file_per_agent() {
        let mut run = launch(3);
        run.run_until(SimTime::from_secs(1));
        let result = run.finalize(SimTime::from_secs(1));
        let dir = std::env::temp_dir().join(format!("moneq-cluster-{}", std::process::id()));
        let paths = result.write_all(&dir).expect("writable temp dir");
        assert_eq!(paths.len(), 3);
        for (p, f) in paths.iter().zip(&result.files) {
            let back = OutputFile::from_path(p).expect("readable");
            assert_eq!(&back, f);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let drive = |run: &mut ClusterRun| {
            run.run_until(SimTime::from_secs(1));
            run.start_tag_all("phase", SimTime::from_secs(1));
            run.run_until(SimTime::from_secs(2));
            run.end_tag_all("phase", SimTime::from_secs(2));
        };
        let mut serial = launch(100);
        drive(&mut serial);
        let serial = serial.finalize(SimTime::from_secs(3));
        // Width 4 over 100 agents: 32-rank chunks, the last one 4 ranks.
        let mut parallel = launch(100).with_par_agents(4);
        drive(&mut parallel);
        let parallel = parallel.finalize(SimTime::from_secs(3));
        assert_eq!(parallel.sched.workers, 4);
        assert_eq!(serial.files, parallel.files);
        assert_eq!(serial.overheads, parallel.overheads);
        assert_eq!(serial.dropped_records, parallel.dropped_records);
    }

    #[test]
    fn agent_series_groups_noncontiguous_timestamps() {
        // Two devices interleaved within each poll: records for "a" at the
        // same timestamp are separated by a "b" record, and one "a" record
        // arrives out of order (a late generation). All must be summed into
        // their own timestamps.
        let t1 = SimTime::from_millis(100);
        let t2 = SimTime::from_millis(200);
        let file = OutputFile {
            rank: 0,
            agent: "node0".into(),
            backends: vec!["fake".into()],
            interval_ns: 100_000_000,
            points: vec![
                DataPoint::power(t1, "a", "d", 10.0),
                DataPoint::power(t1, "b", "d", 1.0),
                DataPoint::power(t1, "a", "d", 5.0),
                DataPoint::power(t2, "a", "d", 20.0),
                DataPoint::power(t1, "a", "d", 2.0), // late, out of order
            ]
            .into(),
            tags: vec![],
            completeness: vec![],
        };
        let result = ClusterResult {
            files: vec![file],
            overheads: vec![OverheadReport::default()],
            dropped_records: 0,
            completeness: vec![vec![]],
            telemetry: vec![SessionTelemetry::default()],
            cache: CacheStats::default(),
            sched: SchedStats::default(),
        };
        let series = result.agent_series(0, "a");
        let samples = series.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].at, t1);
        assert!((samples[0].value - 17.0).abs() < 1e-12);
        assert_eq!(samples[1].at, t2);
        assert!((samples[1].value - 20.0).abs() < 1e-12);
    }

    #[test]
    fn completeness_gathered_per_rank_and_mergeable() {
        let mut run = launch(3);
        run.run_until(SimTime::from_secs(1));
        let result = run.finalize(SimTime::from_secs(1));
        assert_eq!(result.completeness.len(), 3);
        for per_rank in &result.completeness {
            assert_eq!(per_rank.len(), 1);
            assert!(per_rank[0].is_clean() && per_rank[0].reconciles());
        }
        let merged = result.completeness_by_device();
        assert_eq!(merged.len(), 1, "all ranks share the one backend name");
        assert_eq!(merged[0].device, "fake");
        let total: u64 = result.completeness.iter().map(|r| r[0].scheduled).sum();
        assert_eq!(merged[0].scheduled, total);
        assert!(merged[0].reconciles());
    }

    #[test]
    fn dispatch_derives_chunk_and_workers_from_the_cluster() {
        let dispatch = |agents: usize, width: usize, plan: CollectionPlan| {
            launch(agents)
                .with_collection_plan(plan)
                .with_par_agents(width)
                .dispatch()
        };
        // A run reaches width w past w - 1 whole chunks: 100 = 3 x 32 + 4.
        assert_eq!(dispatch(100, 4, CollectionPlan::per_agent()), (32, 4));
        // Every width past the chunk count is capped by it.
        assert_eq!(dispatch(100, 64, CollectionPlan::per_agent()), (32, 4));
        // A run of at most one chunk stays on the calling thread: the
        // 32-agent legs of the sweeps at width 2, and any smaller run.
        assert_eq!(dispatch(32, 2, CollectionPlan::per_agent()), (32, 1));
        assert_eq!(dispatch(13, 4, CollectionPlan::per_agent()), (32, 1));
        // Live-remote's shape: 16-rank domains round up to 32-rank chunks.
        for width in [1, 2] {
            let (chunk, workers) = dispatch(256, width, CollectionPlan::shared(16));
            assert_eq!((chunk, workers), (32, width));
        }
        // 5-rank domains round 32 up to 35-rank chunks: 70 ranks are two.
        assert_eq!(dispatch(70, 4, CollectionPlan::shared(5)), (35, 2));
        // One domain is one chunk, whatever the width asks for.
        assert_eq!(dispatch(32, 2, CollectionPlan::shared(32)), (32, 1));
        // Mira at node-card granularity: 32-rank chunks at any width up to 48.
        assert_eq!(dispatch(1_536, 8, CollectionPlan::per_agent()), (32, 8));
    }

    #[test]
    fn sched_stats_absorb_handles_unequal_phase_widths() {
        // Regression: a phase wider than every one before it must add its
        // extra workers' busy time, not drop it off the end, and a narrower
        // phase after it must leave the wider slots alone.
        let ms = Duration::from_millis;
        let mut total = SchedStats::default();
        total.absorb(&[ms(4), ms(6)]);
        total.absorb(&[ms(5), ms(7), ms(9)]);
        total.absorb(&[ms(1)]);
        assert_eq!(total.workers, 3);
        assert_eq!(total.busy_per_worker, vec![ms(10), ms(13), ms(9)]);
    }

    #[test]
    fn many_parallel_phases_stay_exact() {
        // Every phase opens its own scope; repeated run_until calls plus
        // finalize must match a serial run byte for byte.
        let mut serial = launch(100);
        for step in 1..=4 {
            serial.run_until(SimTime::from_secs(step));
        }
        let serial = serial.finalize(SimTime::from_secs(5));
        let mut parallel = launch(100).with_par_agents(4);
        for step in 1..=4 {
            parallel.run_until(SimTime::from_secs(step));
            assert_eq!(parallel.sched.workers, 4);
        }
        let parallel = parallel.finalize(SimTime::from_secs(5));
        assert_eq!(serial.files, parallel.files);
        assert_eq!(serial.overheads, parallel.overheads);
        assert_eq!(serial.dropped_records, parallel.dropped_records);
        let render =
            |r: &ClusterResult| -> Vec<String> { r.files.iter().map(|f| f.render()).collect() };
        assert_eq!(render(&serial), render(&parallel));
        assert_eq!(parallel.sched.workers, 4);
    }

    #[test]
    fn a_later_phase_may_run_wider() {
        // 170 ranks = 5 whole 32-rank chunks and a 10-rank tail.
        let mut run = launch(170).with_par_agents(2);
        run.run_until(SimTime::from_secs(1));
        assert_eq!(run.sched.workers, 2);
        // Widen the request mid-run (directly: the builder consumes self).
        run.par_agents = 6;
        run.run_until(SimTime::from_secs(2));
        assert_eq!(run.sched.workers, 6);
        assert_eq!(run.sched.busy_per_worker.len(), 6);
        let result = run.finalize(SimTime::from_secs(3));
        assert_eq!(result.files.len(), 170);
        assert_eq!(result.sched.workers, 6);
    }

    /// A backend that panics on one rank once virtual time reaches `after`.
    struct PanicAt {
        rank: usize,
        bad_rank: usize,
        after: SimTime,
    }
    impl EnvBackend for PanicAt {
        fn name(&self) -> &'static str {
            "panicky"
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
        fn read(&mut self, t: SimTime) -> Result<crate::backend::Poll, crate::backend::ReadError> {
            if self.rank == self.bad_rank && t >= self.after {
                panic!("injected failure on rank {}", self.rank);
            }
            Ok(crate::backend::Poll::complete(vec![DataPoint::power(
                t, "dev", "d", 1.0,
            )]))
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    fn launch_panicky(agents: usize, bad_rank: usize, after: SimTime) -> ClusterRun {
        ClusterRun::launch(
            agents,
            Some(SimDuration::from_millis(100)),
            move |rank| {
                Box::new(PanicAt {
                    rank,
                    bad_rank,
                    after,
                })
            },
            |rank| format!("node{rank}"),
            SimTime::ZERO,
        )
        .with_par_agents(4)
    }

    #[test]
    fn parallel_panic_reports_original_rank_not_poison() {
        // Regression: a panic in one rank's run_until used to poison the
        // chunk mutex and surface in sibling workers as an opaque
        // PoisonError panic; the caller must see rank 5's own message.
        let mut run = launch_panicky(100, 5, SimTime::ZERO);
        let err = catch_unwind(AssertUnwindSafe(|| run.run_until(SimTime::from_secs(1))))
            .expect_err("rank 5 must panic");
        assert_eq!(run.sched.workers, 4);
        let msg = panic_message(err);
        assert!(msg.contains("injected failure on rank 5"), "{msg}");
        assert!(!msg.contains("PoisonError"), "{msg}");
        assert!(
            msg.contains("rank 5 panicked during cluster run_until"),
            "{msg}"
        );
    }

    #[test]
    fn width_one_panic_reports_its_rank_like_wider_phases() {
        // At width 1 the phase runs on the calling thread, through the
        // same per-session catch as wider phases.
        let mut run = launch_panicky(8, 2, SimTime::ZERO).with_par_agents(1);
        let err = catch_unwind(AssertUnwindSafe(|| run.run_until(SimTime::from_secs(1))))
            .expect_err("rank 2 must panic");
        let msg = panic_message(err);
        assert!(
            msg.contains("rank 2 panicked during cluster run_until: injected failure on rank 2"),
            "{msg}"
        );
        assert_eq!(run.sched.workers, 1);
        assert_eq!(run.sched.busy_per_worker.len(), 1);
    }

    #[test]
    fn parallel_finalize_panic_reports_original_rank() {
        // The panic only trips during the final drive inside finalize.
        let mut run = launch_panicky(100, 3, SimTime::from_millis(1_500));
        run.run_until(SimTime::from_secs(1)); // before the trip point
        assert_eq!(run.sched.workers, 4);
        let err = catch_unwind(AssertUnwindSafe(move || {
            run.finalize(SimTime::from_secs(2));
        }))
        .expect_err("rank 3 must panic in finalize");
        let msg = panic_message(err);
        assert!(msg.contains("injected failure on rank 3"), "{msg}");
        assert!(!msg.contains("PoisonError"), "{msg}");
        assert!(
            msg.contains("rank 3 panicked during cluster finalize"),
            "{msg}"
        );
    }

    #[test]
    fn telemetry_gathers_per_rank_and_merges() {
        let base = MonEqConfig {
            interval: Some(SimDuration::from_millis(100)),
            telemetry: true,
            ..MonEqConfig::default()
        };
        let mut run = ClusterRun::launch_with(
            3,
            |rank| Box::new(Fake { rank }),
            |rank| format!("node{rank}"),
            SimTime::ZERO,
            base,
        );
        run.run_until(SimTime::from_secs(1));
        let result = run.finalize(SimTime::from_secs(1));
        assert_eq!(result.telemetry.len(), 3);
        for t in &result.telemetry {
            let t = t.report();
            assert!(t.counter("polls.succeeded") > 0);
            assert!(t.histograms.contains_key("query_latency/fake"));
        }
        let merged = result.telemetry_merged();
        let scheduled: u64 = result.completeness.iter().map(|r| r[0].scheduled).sum();
        assert_eq!(merged.counter("polls.scheduled"), scheduled);
        // Every poll of the fake backend costs exactly its poll_cost, so
        // the merged latency histogram is a constant distribution.
        let h = &merged.histograms["query_latency/fake"];
        assert_eq!(h.percentile(0.99), SimDuration::from_micros(10));
    }

    #[test]
    fn telemetry_off_by_default_reports_empty() {
        let mut run = launch(2);
        run.run_until(SimTime::from_secs(1));
        let result = run.finalize(SimTime::from_secs(1));
        assert_eq!(result.telemetry.len(), 2);
        assert!(result.telemetry.iter().all(|t| t.report().is_empty()));
    }

    #[test]
    fn shared_plan_keeps_outputs_identical_and_cuts_charged_cost() {
        let drive = |run: &mut ClusterRun| run.run_until(SimTime::from_secs(2));
        let mut naive = launch(10);
        drive(&mut naive);
        let naive = naive.finalize(SimTime::from_secs(2));
        // Domains {0-3}, {4-7}, {8-9} (ragged tail on purpose).
        let mut shared = launch(10).with_collection_plan(CollectionPlan::shared(4));
        assert!(shared.plan.is_shared());
        drive(&mut shared);
        let shared = shared.finalize(SimTime::from_secs(2));
        // Data is untouched by the plan; only the charged cost moves.
        assert_eq!(naive.files, shared.files);
        assert_eq!(naive.completeness, shared.completeness);
        for (rank, (n, s)) in naive.overheads.iter().zip(&shared.overheads).enumerate() {
            if rank % 4 == 0 {
                assert_eq!(n.collection, s.collection, "leader rank {rank} pays live");
            } else {
                assert_eq!(
                    s.collection,
                    SimDuration::ZERO,
                    "follower rank {rank} rides the leader's fetch"
                );
            }
            assert_eq!(n.polls, s.polls);
        }
        // Ledger: every poll is exactly one lookup; per generation the
        // leader misses and the domain's other ranks hit.
        let scheduled: u64 = shared.overheads.iter().map(|o| o.polls).sum();
        assert_eq!(shared.cache.lookups(), scheduled);
        assert_eq!(shared.cache.bypasses, 0);
        let polls = shared.overheads[0].polls;
        assert_eq!(shared.cache.misses, polls * 3, "one leader per domain");
        assert_eq!(shared.cache.hits, polls * 7);
        assert_eq!(naive.cache.lookups(), 0, "no plan, no ledger");
    }

    #[test]
    fn shared_plan_parallel_matches_serial_including_ledger() {
        let mut serial = launch(100).with_collection_plan(CollectionPlan::shared(6));
        serial.run_until(SimTime::from_secs(1));
        let serial = serial.finalize(SimTime::from_secs(2));
        // 32 ranks are misaligned with the 6-rank domains; dispatch rounds
        // the chunk up to 36, so 100 ranks are 3 chunks on 3 workers, and
        // the last domain is a ragged 4.
        let mut parallel = launch(100)
            .with_collection_plan(CollectionPlan::shared(6))
            .with_par_agents(4);
        parallel.run_until(SimTime::from_secs(1));
        let parallel = parallel.finalize(SimTime::from_secs(2));
        assert_eq!(parallel.sched.workers, 3);
        assert_eq!(serial.files, parallel.files);
        assert_eq!(serial.overheads, parallel.overheads);
        assert_eq!(serial.cache, parallel.cache);
    }

    /// A backend whose readings depend only on the query instant (one
    /// sensor genuinely shared by the whole domain) and which counts its
    /// live reads, so tests can see who touches the sensor.
    struct SharedSensor {
        reads: Arc<AtomicUsize>,
    }
    impl EnvBackend for SharedSensor {
        fn name(&self) -> &'static str {
            "shared-sensor"
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
        fn read(&mut self, t: SimTime) -> Result<crate::backend::Poll, crate::backend::ReadError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            Ok(crate::backend::Poll::complete(vec![DataPoint::power(
                t,
                "dev",
                "d",
                t.as_nanos() as f64 * 1e-9,
            )]))
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    #[test]
    fn followers_read_for_themselves_but_are_charged_nothing() {
        let run_with = |plan: Option<CollectionPlan>| {
            let reads = Arc::new(AtomicUsize::new(0));
            let handle = Arc::clone(&reads);
            let mut run = ClusterRun::launch(
                4,
                Some(SimDuration::from_millis(100)),
                move |_| {
                    Box::new(SharedSensor {
                        reads: Arc::clone(&handle),
                    })
                },
                |rank| format!("node{rank}"),
                SimTime::ZERO,
            );
            if let Some(p) = plan {
                run = run.with_collection_plan(p);
            }
            run.run_until(SimTime::from_secs(1));
            let result = run.finalize(SimTime::from_secs(1));
            (result, reads.load(Ordering::Relaxed))
        };
        let (naive, naive_reads) = run_with(None);
        let (shared, shared_reads) = run_with(Some(CollectionPlan::shared(4)));
        assert_eq!(naive.files, shared.files, "the plan never touches the data");
        let polls = shared.overheads[0].polls as usize;
        assert_eq!(naive_reads, polls * 4);
        assert_eq!(
            shared_reads,
            polls * 4,
            "a hit skips the charge, not the read"
        );
        let charged = |r: &ClusterResult| {
            r.overheads
                .iter()
                .map(|o| o.collection)
                .sum::<SimDuration>()
        };
        assert_eq!(
            charged(&naive),
            charged(&shared) * 4,
            "one charge per domain"
        );
    }

    #[test]
    fn single_rank_domain_plan_is_the_naive_plan_in_disguise() {
        let end = SimTime::from_secs(1);
        let mut naive = launch(6);
        naive.run_until(end);
        let naive = naive.finalize(end);
        let mut single = launch(6).with_collection_plan(CollectionPlan::shared(1));
        assert!(!single.plan.is_shared());
        single.run_until(end);
        let single = single.finalize(end);
        assert_eq!(naive.files, single.files);
        assert_eq!(naive.overheads, single.overheads);
        assert_eq!(single.cache.lookups(), 0, "no sharing, no cache ledger");
    }

    #[test]
    fn ragged_tail_domain_elects_its_own_leader() {
        // 9 ranks, domain size 4 -> {0-3}, {4-7}, {8}: the rank count is
        // not divisible by the domain size, so the tail is a one-rank
        // domain whose only member must lead itself every generation.
        let plan = CollectionPlan::shared(4);
        assert_eq!(plan.domains(9), 3);
        assert_eq!(plan.domain_of(8), 2);
        let end = SimTime::from_secs(2);
        let mut naive = launch(9);
        naive.run_until(end);
        let naive = naive.finalize(end);
        let mut shared = launch(9).with_collection_plan(plan);
        shared.run_until(end);
        let shared = shared.finalize(end);
        assert_eq!(naive.files, shared.files);
        for (rank, (n, s)) in naive.overheads.iter().zip(&shared.overheads).enumerate() {
            if rank % 4 == 0 {
                assert_eq!(n.collection, s.collection, "leader rank {rank} pays live");
            } else {
                assert_eq!(s.collection, SimDuration::ZERO, "follower rank {rank}");
            }
        }
        // The tail leader misses every generation exactly like the full
        // domains' leaders; only the six followers ever hit.
        let polls = shared.overheads[0].polls;
        assert_eq!(shared.cache.misses, polls * 3);
        assert_eq!(shared.cache.hits, polls * 6);
        assert_eq!(shared.cache.bypasses, 0);
    }

    /// Healthy until `fail_from`, then every read on rank 0 fails — drives
    /// a domain leader through retries into the disable path mid-run.
    struct FailsFrom {
        rank: usize,
        fail_from: SimTime,
    }
    impl EnvBackend for FailsFrom {
        fn name(&self) -> &'static str {
            "fails-from"
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
        fn read(&mut self, t: SimTime) -> Result<crate::backend::Poll, crate::backend::ReadError> {
            if self.rank == 0 && t >= self.fail_from {
                return Err(crate::backend::ReadError::Transient("dead sensor".into()));
            }
            Ok(crate::backend::Poll::complete(vec![DataPoint::power(
                t,
                "dev",
                "d",
                100.0 + self.rank as f64,
            )]))
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    #[test]
    fn disabled_leader_hands_the_domain_to_the_next_rank() {
        let fail_from = SimTime::from_secs(3);
        let launch_flaky = || {
            ClusterRun::launch(
                4,
                Some(SimDuration::from_millis(100)),
                move |rank| Box::new(FailsFrom { rank, fail_from }) as Box<dyn EnvBackend>,
                |rank| format!("node{rank}"),
                SimTime::ZERO,
            )
        };
        let end = SimTime::from_secs(8);
        let mut naive = launch_flaky();
        naive.run_until(end);
        let naive = naive.finalize(end);
        let mut shared = launch_flaky().with_collection_plan(CollectionPlan::shared(4));
        shared.run_until(end);
        let shared = shared.finalize(end);
        // The plan changes charged cost only — data, substitutions, and
        // the disable marker are identical with it on or off.
        assert_eq!(naive.files, shared.files);
        assert_eq!(naive.completeness, shared.completeness);
        // Rank 0 was disabled mid-window, strictly between the first
        // failure and the end of the run; the healthy ranks never were.
        let c0 = &shared.completeness[0][0];
        assert_eq!(c0.disabled_ranks, vec![0]);
        let disabled_at = c0.disabled_at_ns.expect("rank 0 must disable");
        assert!(disabled_at > fail_from.as_nanos() && disabled_at < end.as_nanos());
        for rank in 1..4 {
            assert!(shared.completeness[rank][0].disabled_ranks.is_empty());
        }
        // While rank 0 was failing-but-enabled it published failure
        // markers, so its followers bypassed the cache at full cost.
        assert!(shared.cache.bypasses > 0, "failure markers force bypasses");
        // After the disable, rank 1 is the first to consult each
        // generation and takes over as leader: it pays live reads the
        // deeper followers never do, on top of the bypass-phase cost all
        // three paid equally.
        let collection = |rank: usize| shared.overheads[rank].collection;
        assert_eq!(collection(2), collection(3), "pure followers pay alike");
        assert!(collection(2) > SimDuration::ZERO, "bypass phase is charged");
        assert!(
            collection(1) > collection(2),
            "rank 1 leads the post-disable generations: {:?} vs {:?}",
            collection(1),
            collection(2)
        );
        // Disabled polls never consult the cache: the ledger accounts one
        // lookup for every poll except rank 0's post-disable (missed) ones.
        let polls: u64 = shared.overheads.iter().map(|o| o.polls).sum();
        assert_eq!(shared.cache.lookups(), polls - c0.missed_polls);
    }

    #[test]
    fn worst_case_overhead_is_maximal() {
        let mut run = launch(3);
        run.run_until(SimTime::from_secs(1));
        let result = run.finalize(SimTime::from_secs(1));
        let worst = result.worst_case_overhead();
        for o in &result.overheads {
            assert!(worst.total() >= o.total());
        }
    }
}
