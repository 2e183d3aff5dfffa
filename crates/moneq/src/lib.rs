//! # moneq — the unified power-profiling library (the paper's contribution)
//!
//! MonEQ started as a Blue Gene/Q power profiler; the paper extends it "to
//! support the most common of devices now found in supercomputers with the
//! same feature set and ease of use as before" (§III). This crate is that
//! extended library, rebuilt over the simulated platforms:
//!
//! ```no_run
//! use moneq::{MonEq, MonEqConfig};
//! use moneq::backends::RaplBackend;
//! use simkit::SimTime;
//!
//! # fn backend() -> RaplBackend { unimplemented!() }
//! // Listing 1, in Rust. Two calls around the user code:
//! let mut session = MonEq::initialize(
//!     0,                              // MPI rank
//!     vec![Box::new(backend())],
//!     MonEqConfig::default(),
//!     SimTime::ZERO,
//! );
//! /* user code runs; the SIGALRM-style timer polls in the background */
//! session.run_until(SimTime::from_secs(100));
//! let result = session.finalize(SimTime::from_secs(100));
//! # let _ = result;
//! ```
//!
//! Feature map to §III:
//!
//! * **default lowest interval** — `MonEqConfig::interval = None` polls at
//!   each backend's minimum reliable cadence;
//! * **SIGALRM polling** — [`session::MonEq::run_until`] fires the timer and
//!   records "the latest generation of environmental data available" into a
//!   **preallocated array** ([`MonEqConfig::max_samples`]);
//! * **finest granularity** — one session per agent rank (the node card on
//!   BG/Q, the node elsewhere); several accelerators on one node are each
//!   accounted individually in the node's file;
//! * **tagging** — [`session::MonEq::start_tag`]/[`session::MonEq::end_tag`]
//!   wrap code sections; markers are injected into the output at finalize
//!   ("because the injection happens after the program has completed, the
//!   overhead of tagging is almost negligible");
//! * **overhead discipline** — the costly work (file output) happens in
//!   finalize, outside the application's timed region; the only unavoidable
//!   runtime overhead is the periodic poll, charged per backend at the
//!   paper's measured per-query costs ([`overhead`]).

//!
//! Under fault injection ([`simkit::fault`]) the same sessions degrade
//! gracefully instead of crashing: typed read errors, bounded retry with
//! exponential backoff, last-good-value substitution with staleness flags,
//! per-device disable, and an exact per-device [`Completeness`] report
//! ([`completeness`]).
//!
//! With [`session::MonEqConfig::telemetry`] set, the same sessions also
//! record deterministic telemetry ([`telemetry::SessionTelemetry`]): typed
//! instruments for what no ledger holds (per-kind faults, retry backoff,
//! per-mechanism query latency and cache decisions, simulated-time spans),
//! read out as a named [`simkit::TelemetryReport`] together with the
//! completeness, gate and link ledgers, and merged across a cluster
//! exactly like [`Completeness`]. Disabled (the default), telemetry costs
//! one branch per update and allocates nothing.
//!
//! A [`plan::CollectionPlan`] ([`cluster::ClusterRun::with_collection_plan`])
//! adds cadence-aware shared collection: ranks behind one sensor elect a
//! per-generation leader through a [`plan::SharedReadCache`], so a
//! 32-agent node card pays for one EMON query instead of 32. Off by
//! default; when on, output files stay byte-identical (sensors are
//! deterministic functions of grid time) — only the charged collection
//! cost drops.
//!
//! The deployment axis ([`plan::Deployment`]) makes the paper's in-band
//! vs. out-of-band distinction first-class: `Remote(link)` serves every
//! poll over a framed [`simkit::wire`] exchange through a
//! [`remote::RemoteBackend`], charging serialize/flight/deserialize time
//! on the virtual clock and subjecting reads to the link's fault weather.
//! Over a zero-cost, zero-fault link a remote run is byte-identical to
//! the local one — the invariant the transport test suite pins.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod backends;
pub mod cluster;
pub mod completeness;
pub mod control;
pub mod output;
pub mod overhead;
pub mod plan;
pub mod reading;
pub mod records;
pub mod remote;
pub mod session;
pub mod tags;
pub mod telemetry;

pub use backend::{
    EnvBackend, FaultGate, GateStats, Grant, Poll, ReadError, RetryPolicy, StatedLimitation,
};
pub use cluster::{host_cpus, ClusterResult, ClusterRun, SchedStats};
pub use completeness::Completeness;
pub use control::ControlHook;
pub use output::{OutputError, OutputFile, ParseError};
pub use overhead::{finalize_time, init_time, OverheadReport};
pub use plan::{CollectionPlan, Deployment, SharedLookup, SharedRead, SharedReadCache};
pub use reading::DataPoint;
pub use records::{DataPointRef, Records};
pub use remote::{BackendServer, RemoteBackend, RemoteMeta};
pub use session::{FinalizeResult, MonEq, MonEqConfig};
pub use tags::{TagEvent, TagKind};
pub use telemetry::SessionTelemetry;
