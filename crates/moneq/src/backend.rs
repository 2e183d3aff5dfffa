//! The backend abstraction.
//!
//! "Since the interface for MonEQ was already well defined from our
//! experiences with BG/Q, we kept that the same while adding the necessary
//! functionality for other pieces of hardware internally" (§III). The
//! [`EnvBackend`] trait is that internal seam: one implementation per
//! vendor mechanism, each declaring its minimum reliable polling interval,
//! its per-poll virtual-time cost (the paper's measured per-query numbers),
//! and its Table I capability column.

use crate::reading::DataPoint;
use powermodel::{Metric, Platform, Support};
use simkit::fault::{FaultOutcome, FaultPlan, FaultProcess, FaultSpec};
use simkit::{SimDuration, SimTime};

/// Why a read attempt failed.
///
/// The variants mirror the mechanisms' real failure modes (DESIGN.md §8):
/// retryable faults ([`ReadError::is_retryable`]) may clear on an immediate
/// retry inside the same poll; the rest are lost causes until the next
/// poll, so the session degrades instead of retrying.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadError {
    /// The query failed transiently (an `EIO` MSR read, a PCIe hiccup);
    /// an immediate retry may succeed.
    Transient(String),
    /// The mechanism stalled for `stalled` of virtual time and then gave
    /// up (an unresponsive MICRAS daemon). The session charges the stall
    /// (capped by its per-backend timeout) to fault recovery.
    Timeout {
        /// How long the mechanism hung before failing.
        stalled: SimDuration,
    },
    /// The mechanism answered but has no fresh generation to serve (a
    /// BG/Q envdb row not yet committed). Retrying within the poll cannot
    /// help — the generation will not appear any sooner.
    NoData,
    /// The mechanism is unavailable for the surrounding window (an NVML
    /// sampling blackout). Not retryable.
    Unavailable(String),
}

impl ReadError {
    /// May an immediate retry inside the same poll succeed?
    pub fn is_retryable(&self) -> bool {
        matches!(self, ReadError::Transient(_) | ReadError::Timeout { .. })
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Transient(m) => write!(f, "transient read error: {m}"),
            ReadError::Timeout { stalled } => write!(f, "read timed out after {stalled}"),
            ReadError::NoData => write!(f, "no fresh generation available"),
            ReadError::Unavailable(m) => write!(f, "mechanism unavailable: {m}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A successful poll's yield.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Poll {
    /// The records the mechanism served (possibly flagged stale).
    pub points: Vec<DataPoint>,
    /// Records the mechanism should have served but silently lost (missing
    /// environmental-database rows). Counted as lost in the completeness
    /// report.
    pub missing: u32,
}

impl Poll {
    /// A fault-free poll serving `points`.
    pub fn complete(points: Vec<DataPoint>) -> Self {
        Poll { points, missing: 0 }
    }

    /// A poll with `missing` silently lost records.
    pub fn with_missing(points: Vec<DataPoint>, missing: u32) -> Self {
        Poll { points, missing }
    }
}

/// How a session reacts to read failures (DESIGN.md §8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retry attempts after the first failure (retryable errors only).
    pub max_retries: u32,
    /// Backoff before retry `n` (1-based) is `base_backoff << (n-1)`,
    /// capped at [`RetryPolicy::timeout`]: exponential up to the cap,
    /// charged to fault recovery on the virtual timeline.
    pub base_backoff: SimDuration,
    /// Per-backend cap on how long one stalled read, or one backoff wait,
    /// may charge; a mechanism that hangs longer is abandoned at this
    /// bound.
    pub timeout: SimDuration,
    /// Consecutive failed polls after which the device is disabled for the
    /// rest of the run (its polls then count as missed).
    pub disable_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: SimDuration::from_millis(1),
            timeout: SimDuration::from_millis(50),
            disable_after: 8,
        }
    }
}

/// Per-fault-kind decision counters kept by an active [`FaultGate`].
///
/// Every [`FaultGate::admit`] / [`FaultGate::filter`] decision is tallied
/// here, so a session's telemetry can report exactly how often each
/// documented pathology fired per mechanism. Draws are indexed by virtual
/// time, so these counts are deterministic and identical serial vs.
/// parallel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Attempts admitted cleanly.
    pub admitted: u64,
    /// Attempts admitted with a value glitch (stale-flagged sample).
    pub glitches: u64,
    /// Attempts failed with a transient error.
    pub transient: u64,
    /// Attempts failed with a timeout stall.
    pub timeout: u64,
    /// Attempts failed with no fresh generation to serve.
    pub no_data: u64,
    /// Attempts failed inside an unavailability blackout.
    pub blackout: u64,
    /// Records silently dropped by per-record drop faults.
    pub dropped_records: u64,
}

impl GateStats {
    /// `true` when the gate never decided anything.
    pub fn is_empty(&self) -> bool {
        *self == GateStats::default()
    }

    /// The counters as `(kind, count)` pairs, for folding into telemetry.
    pub fn kinds(&self) -> [(&'static str, u64); 7] {
        [
            ("admitted", self.admitted),
            ("glitch", self.glitches),
            ("transient", self.transient),
            ("timeout", self.timeout),
            ("no_data", self.no_data),
            ("blackout", self.blackout),
            ("dropped_record", self.dropped_records),
        ]
    }
}

/// Per-device fault admission, shared by every backend adapter.
///
/// A backend holds one gate per device; `read` asks the gate to
/// [`admit`](FaultGate::admit) each attempt, and the gate translates the
/// [`FaultProcess`] outcome into a typed [`ReadError`] (or a glitch grant).
/// An inactive gate ([`FaultGate::none`]) admits everything at zero cost,
/// so un-faulted runs stay byte-identical to pre-fault behavior. Active
/// gates tally every decision into a [`GateStats`].
#[derive(Clone, Debug, Default)]
pub struct FaultGate {
    process: Option<FaultProcess>,
    /// Last admitted instant and its attempt count, used to infer the
    /// attempt index when a session retries at the same poll instant.
    last: Option<(SimTime, u32)>,
    stats: GateStats,
}

/// An admitted read attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The mechanism will serve a value-corrupted sample this attempt;
    /// the backend decides what the corruption looks like and flags the
    /// records stale.
    pub glitch: bool,
}

impl FaultGate {
    /// A gate that admits everything (the `FaultPlan::none()` fast path).
    pub fn none() -> Self {
        FaultGate::default()
    }

    /// Build the gate for device `label` from the run's plan and the
    /// mechanism's own pathology profile.
    pub fn from_plan(plan: &FaultPlan, label: &str, profile: FaultSpec) -> Self {
        FaultGate {
            process: plan.process_for(label, profile),
            last: None,
            stats: GateStats::default(),
        }
    }

    /// Does this gate ever inject anything?
    pub fn is_active(&self) -> bool {
        self.process.is_some()
    }

    /// The gate's per-fault-kind decision counters so far. All zero for an
    /// inactive gate.
    pub fn stats(&self) -> GateStats {
        self.stats
    }

    /// Admit or fail one read attempt at `t`. Consecutive calls at the
    /// same `t` are treated as retries (attempt 1, 2, …) and redraw.
    pub fn admit(&mut self, t: SimTime) -> Result<Grant, ReadError> {
        let Some(process) = &self.process else {
            return Ok(Grant { glitch: false });
        };
        let attempt = match self.last {
            Some((last_t, a)) if last_t == t => a + 1,
            _ => 0,
        };
        self.last = Some((t, attempt));
        match process.outcome(t, attempt) {
            FaultOutcome::Ok => {
                self.stats.admitted += 1;
                Ok(Grant { glitch: false })
            }
            FaultOutcome::Glitch => {
                self.stats.glitches += 1;
                Ok(Grant { glitch: true })
            }
            FaultOutcome::Transient => {
                self.stats.transient += 1;
                Err(ReadError::Transient("injected transient fault".into()))
            }
            FaultOutcome::Timeout(stalled) => {
                self.stats.timeout += 1;
                Err(ReadError::Timeout { stalled })
            }
            FaultOutcome::NoData => {
                self.stats.no_data += 1;
                Err(ReadError::NoData)
            }
            FaultOutcome::Blackout => {
                self.stats.blackout += 1;
                Err(ReadError::Unavailable("sampling blackout".into()))
            }
        }
    }

    /// Apply per-record drop faults to an admitted poll's records: returns
    /// the surviving records and the number silently lost.
    pub fn filter(&mut self, t: SimTime, points: Vec<DataPoint>) -> (Vec<DataPoint>, u32) {
        let Some(process) = &self.process else {
            return (points, 0);
        };
        let mut missing = 0u32;
        let kept = points
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| {
                if process.drop_record(t, i) {
                    missing += 1;
                    None
                } else {
                    Some(p)
                }
            })
            .collect();
        self.stats.dropped_records += u64::from(missing);
        (kept, missing)
    }
}

/// A mechanism limitation, stated by the backend itself.
///
/// §IV's first "looking forward" request: "the first and perhaps most
/// important is **stated limitations** of the data and the collection of
/// this data. For many of the devices discussed, the limitations in
/// collection had to be deduced from careful experimentation." Here every
/// backend declares its own limitations programmatically, so no user has to
/// rediscover the 14.2 ms in-band cost or the >60 s overflow the hard way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatedLimitation {
    /// The affected aspect (`"granularity"`, `"staleness"`, `"overflow"`,
    /// `"accuracy"`, `"cost"`, `"access"`, `"perturbation"`, `"scope"`).
    pub aspect: &'static str,
    /// Human-readable statement of the limitation.
    pub statement: String,
}

impl StatedLimitation {
    /// Convenience constructor.
    pub fn new(aspect: &'static str, statement: impl Into<String>) -> Self {
        StatedLimitation {
            aspect,
            statement: statement.into(),
        }
    }
}

/// One vendor environmental-data mechanism.
///
/// `Send` is a supertrait so that whole sessions can be moved onto worker
/// threads: [`crate::ClusterRun`] drives one `MonEq` per simulated rank and
/// fans them out across a pool for Mira-scale sweeps.
pub trait EnvBackend: Send {
    /// Short backend name (appears in output-file headers).
    fn name(&self) -> &'static str;

    /// The platform of Table I this backend belongs to.
    fn platform(&self) -> Platform;

    /// The lowest polling interval at which the mechanism yields reliable
    /// data (560 ms for EMON, ~60 ms for RAPL/NVML, 50 ms on the Phi).
    fn min_interval(&self) -> SimDuration;

    /// Virtual-time cost charged to the application per poll (all the
    /// queries one poll makes).
    fn poll_cost(&self) -> SimDuration;

    /// The backend's Table I column.
    fn capabilities(&self) -> Vec<(Metric, Support)>;

    /// Collect the latest generation of data at time `t`.
    ///
    /// `t` is the instant the SIGALRM fired; implementations must return
    /// whatever generation their mechanism would serve at that instant
    /// (stale EMON generations, RAPL counter deltas since the previous
    /// poll, …) — or a typed [`ReadError`] describing why the mechanism
    /// failed to serve. Sessions retry retryable errors with bounded
    /// exponential backoff and degrade gracefully on the rest.
    ///
    /// Calling `read` again with the same `t` is a retry of the same poll;
    /// fault-injected backends redraw their fault process per attempt.
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError>;

    /// Infallible convenience wrapper over [`EnvBackend::read`]: returns
    /// the served records, or nothing on any failure. Figure and benchmark
    /// code that predates the fault layer polls through this.
    fn poll(&mut self, t: SimTime) -> Vec<DataPoint> {
        self.read(t).map(|p| p.points).unwrap_or_default()
    }

    /// The mechanism's *update grid*: the cadence on which the hardware
    /// regenerates the values a read observes (560 ms EMON generations,
    /// ~60 ms NVML register refresh, the RAPL counters' ~1 ms tick, the
    /// SMC's 50 ms sampling window). Two reads inside one grid period can
    /// only observe the same generation, which is what makes shared-read
    /// caching sound; [`crate::SharedReadCache`] keys on this grid.
    ///
    /// Defaults to [`EnvBackend::min_interval`] (a reliable, conservative
    /// grid); each adapter overrides it with the mechanism's actual
    /// cadence.
    fn read_cadence(&self) -> SimDuration {
        self.min_interval()
    }

    /// May a stored poll result for the *same instant* be served again in
    /// place of a live [`EnvBackend::read`], with byte-identical effect?
    ///
    /// `true` only when the backend's served values are a pure function
    /// of the query instant (no polling-history state like RAPL's
    /// previous-snapshot delta or NVML's sample-ring drain cursor) *and*
    /// no fault gate is active (fault draws are per-attempt state). When
    /// `false`, a cache hit still shares the access-path *cost*, but the
    /// value is recomputed locally — deterministically identical, since
    /// every mechanism model is a deterministic function of grid time.
    fn replayable(&self) -> bool {
        false
    }

    /// Batched collection: one access-path round-trip serving `agents`
    /// co-resident consumers of the same device. Returns one [`Poll`] per
    /// consumer — clones of a single live read, which is exact because
    /// co-resident consumers of one mechanism can only observe the same
    /// generation. Charge [`EnvBackend::batched_cost`] for the whole
    /// batch instead of `agents` individual [`EnvBackend::poll_cost`]s.
    fn read_many(&mut self, t: SimTime, agents: usize) -> Result<Vec<Poll>, ReadError> {
        if agents == 0 {
            return Ok(Vec::new());
        }
        let first = self.read(t)?;
        Ok(vec![first; agents])
    }

    /// Virtual-time cost of one batched [`EnvBackend::read_many`] serving
    /// `agents` consumers: the access path is crossed once, so the
    /// default is a single [`EnvBackend::poll_cost`] regardless of batch
    /// width — the amortisation the real MonEQ gets from per-node-card
    /// collection.
    fn batched_cost(&self, agents: usize) -> SimDuration {
        let _ = agents;
        self.poll_cost()
    }

    /// Upper bound on records per poll (used to size the preallocated
    /// array).
    fn records_per_poll(&self) -> usize;

    /// The mechanism's stated limitations (§IV's "looking forward" ask).
    /// Backends override this; an empty default keeps third-party backends
    /// compiling.
    fn limitations(&self) -> Vec<StatedLimitation> {
        Vec::new()
    }

    /// This backend's [`FaultGate`] decision counters, when it routes reads
    /// through one. `None` (the default) means the backend has no gate;
    /// sessions then record no per-fault-kind telemetry for it.
    fn gate_stats(&self) -> Option<GateStats> {
        None
    }

    /// The access-path cost actually incurred by the most recent poll at
    /// one instant. Sessions charge this (once per poll, after the read
    /// outcome settles) instead of the static [`EnvBackend::poll_cost`].
    ///
    /// For local mechanisms the two are identical — the cost of crossing
    /// the access path is a fixed property of the mechanism — so the
    /// default just forwards. A [`crate::remote::RemoteBackend`] overrides
    /// it with the measured wire round-trip, which over an ideal link
    /// collapses back to `poll_cost` exactly (the byte-identity invariant).
    fn last_poll_cost(&self) -> SimDuration {
        self.poll_cost()
    }

    /// The transfer ledger of the link this backend is served over, when
    /// it is deployed remotely. `None` (the default) means in-band: no
    /// wire, no wire telemetry.
    fn wire_stats(&self) -> Option<simkit::wire::LinkStats> {
        None
    }
}

/// Validate a user-requested interval against a backend.
///
/// §III: "users have the ability to set this interval to whatever valid
/// value is desired" — valid meaning at or above the hardware minimum.
pub fn validate_interval(
    backend: &dyn EnvBackend,
    interval: SimDuration,
) -> Result<SimDuration, String> {
    if interval < backend.min_interval() {
        Err(format!(
            "interval {interval} below {}'s minimum {}",
            backend.name(),
            backend.min_interval()
        ))
    } else {
        Ok(interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl EnvBackend for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            SimDuration::from_millis(60)
        }
        fn poll_cost(&self) -> SimDuration {
            SimDuration::from_micros(30)
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            Ok(Poll::complete(vec![DataPoint::power(t, "x", "y", 1.0)]))
        }
        fn records_per_poll(&self) -> usize {
            1
        }
    }

    #[test]
    fn provided_poll_discards_errors() {
        struct Failing;
        impl EnvBackend for Failing {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn platform(&self) -> Platform {
                Platform::Rapl
            }
            fn min_interval(&self) -> SimDuration {
                SimDuration::from_millis(60)
            }
            fn poll_cost(&self) -> SimDuration {
                SimDuration::ZERO
            }
            fn capabilities(&self) -> Vec<(Metric, Support)> {
                vec![]
            }
            fn read(&mut self, _t: SimTime) -> Result<Poll, ReadError> {
                Err(ReadError::NoData)
            }
            fn records_per_poll(&self) -> usize {
                1
            }
        }
        assert!(Failing.poll(SimTime::ZERO).is_empty());
    }

    #[test]
    fn gate_infers_attempts_from_repeated_instant() {
        let plan = FaultPlan::uniform(11, 0.2);
        let mut gate = FaultGate::from_plan(&plan, "dev", FaultSpec::zero());
        assert!(gate.is_active());
        // Find an instant whose first attempt fails but a retry clears.
        let mut recovered = false;
        for k in 1..400u64 {
            let t = SimTime::from_millis(k * 60);
            if gate.admit(t).is_err() && gate.admit(t).is_ok() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "retries never redraw through the gate");
    }

    #[test]
    fn inactive_gate_admits_everything() {
        let mut gate = FaultGate::none();
        assert!(!gate.is_active());
        for k in 0..100u64 {
            assert_eq!(
                gate.admit(SimTime::from_millis(k)),
                Ok(Grant { glitch: false })
            );
        }
        let pts = vec![DataPoint::power(SimTime::ZERO, "d", "x", 1.0)];
        let (kept, missing) = gate.filter(SimTime::ZERO, pts.clone());
        assert_eq!(kept, pts);
        assert_eq!(missing, 0);
    }

    #[test]
    fn gate_filter_drops_records_deterministically() {
        let spec = FaultSpec {
            drop_record: 0.3,
            ..FaultSpec::zero()
        };
        let plan = FaultPlan::Uniform { seed: 5, spec };
        let mut gate = FaultGate::from_plan(&plan, "dev", FaultSpec::zero());
        let t = SimTime::from_secs(1);
        let pts: Vec<DataPoint> = (0..64)
            .map(|i| DataPoint::power(t, format!("d{i}"), "x", 1.0))
            .collect();
        let (kept_a, missing_a) = gate.filter(t, pts.clone());
        let (kept_b, missing_b) = gate.filter(t, pts.clone());
        assert_eq!(kept_a, kept_b);
        assert_eq!(missing_a, missing_b);
        assert!(missing_a > 0, "0.3 drop rate over 64 records lost nothing");
        assert_eq!(kept_a.len() + missing_a as usize, pts.len());
    }

    #[test]
    fn active_gate_tallies_every_decision() {
        let plan = FaultPlan::uniform(11, 0.2);
        let mut gate = FaultGate::from_plan(&plan, "dev", FaultSpec::zero());
        for k in 0..200u64 {
            let _ = gate.admit(SimTime::from_millis(k * 60));
        }
        let s = gate.stats();
        assert_eq!(
            s.admitted + s.glitches + s.transient + s.timeout + s.no_data + s.blackout,
            200,
            "every admit decision lands in exactly one bucket"
        );
        assert!(!s.is_empty());
        assert!(FaultGate::none().stats().is_empty());
    }

    #[test]
    fn interval_validation() {
        let d = Dummy;
        assert!(validate_interval(&d, SimDuration::from_millis(59)).is_err());
        assert_eq!(
            validate_interval(&d, SimDuration::from_millis(60)).unwrap(),
            SimDuration::from_millis(60)
        );
        assert!(validate_interval(&d, SimDuration::from_secs(1)).is_ok());
    }
}
