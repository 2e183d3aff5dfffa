//! # envmon-serve — monitoring as a service
//!
//! The paper's sessions are batch jobs: launch, run, finalize, render a
//! file. This crate turns the same collection machinery into a *service*:
//! a [`Daemon`] advances a [`moneq::ClusterRun`] tick by tick in virtual
//! time, ingests every newly collected record into a
//! [`simkit::store::TsStore`] (raw rings plus exact 1 s / 60 s rollups),
//! and publishes the store as an immutable view per tick that any number
//! of reader threads query through a [`QueryFront`] — range scans,
//! per-domain aggregation, top-k power consumers, and a
//! completeness/staleness endpoint built on the PR 2 ledgers.
//!
//! Three guarantees carry over from the batch world (DESIGN.md §13):
//!
//! 1. **Rollup exactness** — a tier aggregate over any aligned window
//!    equals the fold over the raw samples, bit for bit.
//! 2. **Ingest transparency** — ingest-then-query equals
//!    batch-session-then-scan: the daemon observes sessions without
//!    perturbing them (collection output stays byte-identical).
//! 3. **Reader determinism** — concurrent readers on a quiesced store
//!    reproduce a serial reader exactly; [`clients`] model slow and
//!    disconnecting clients with [`simkit::fault`] and prove it with
//!    chained response digests.
//!
//! ```
//! use envmon_serve::{clients, ClientWorkload, Daemon, ServeConfig};
//! use moneq::backends::BgqBackend;
//! use moneq::ClusterRun;
//! use simkit::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! // Four agents on one BG/Q node card, collected as a service.
//! let machine = Arc::new(bgq_sim::BgqMachine::new(bgq_sim::BgqConfig::default(), 2015));
//! let run = ClusterRun::launch(
//!     4,
//!     None,
//!     |rank| Box::new(BgqBackend::new(machine.clone(), rank)) as _,
//!     |rank| format!("agent{rank:02}"),
//!     SimTime::ZERO,
//! );
//! let mut daemon = Daemon::new(run, SimTime::ZERO, ServeConfig::default());
//! daemon.run_for(SimDuration::from_secs(30)); // 30 virtual seconds of ingest
//!
//! // Sixteen queries from each of four concurrent clients.
//! let reports = clients::run_threaded(&daemon.front(), &ClientWorkload::clean(4, 16, 7));
//! assert!(reports.iter().all(|r| r.answered == 16));
//! // Quiesced daemon ⇒ a serial run answers identically, bit for bit.
//! let serial = clients::run_serial(&daemon.front(), &ClientWorkload::clean(4, 16, 7));
//! assert_eq!(clients::fold_reports(&reports), clients::fold_reports(&serial));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clients;
pub mod daemon;
pub mod query;

pub use clients::{
    fold_reports, run_client, run_serial, run_threaded, ClientReport, ClientWorkload,
};
pub use daemon::{Daemon, ServeConfig};
pub use query::{
    FreshnessReport, Published, Query, QueryError, QueryFront, Response, SeriesMeta, TopEntry,
};
