//! # mic-sim — Intel Xeon Phi / MIC platform model
//!
//! The Phi is the paper's most intricate mechanism (§II-D): **three**
//! distinct paths to the same sensors, each with different costs and side
//! effects, all modelled here:
//!
//! * **In-band** ([`sysmgmt`]): the SysMgmt SCIF interface. A query crosses
//!   the PCIe bus over [`scif`], wakes collection code *on the card* (user
//!   library → kernel driver → registers), and returns. Cost ≈14.2 ms
//!   (≈14 % at a 100 ms poll), and — the paper's Figure 7 finding — it
//!   *raises the card's power over idle*, because code that wasn't running
//!   before must run for every query.
//! * **MICRAS daemon** ([`micras`]): the on-card daemon exposes pseudo-files
//!   on a virtual sysfs; collection is "simply a process of reading the
//!   appropriate file and parsing the data", costing ≈0.04 ms — "nearly
//!   the same overhead as RAPL … because the implementation on both is
//!   essentially the same; the Xeon Phi actually uses RAPL internally".
//! * **Out-of-band** ([`ipmb`]): the card's System Management Controller
//!   ([`smc`]) answers the platform BMC over the IPMB protocol, bypassing
//!   the host OS and the card's cores entirely.
//!
//! The module structure deliberately mirrors the boxes of the paper's
//! Figure 6 control-panel architecture diagram: host SCIF driver /
//! coprocessor SCIF driver ([`scif`]), SysMgmt SCIF interface
//! ([`sysmgmt`]), MICRAS + sysfs ([`micras`]), SMC ([`smc`]).
//!
//! ```
//! use mic_sim::micras::{PowerFileReading, POWER_FILE};
//! use mic_sim::{MicrasDaemon, PhiCard, PhiSpec, Smc};
//! use hpc_workloads::Noop;
//! use powermodel::DemandTrace;
//! use simkit::{NoiseStream, SimTime};
//! use std::sync::Arc;
//!
//! let profile = Noop::figure7().profile();
//! let card = Arc::new(PhiCard::new(
//!     PhiSpec::default(),
//!     &profile,
//!     DemandTrace::zero(),
//!     SimTime::from_secs(150),
//! ));
//! let smc = Arc::new(Smc::new(NoiseStream::new(42)));
//! let daemon = MicrasDaemon::start(card, smc, &profile);
//! // Collecting is "simply a process of reading the appropriate file and
//! // parsing the data":
//! let text = daemon.read_file(POWER_FILE, SimTime::from_secs(60)).unwrap();
//! let reading = PowerFileReading::parse(&text).unwrap();
//! assert!((105.0..120.0).contains(&reading.total_watts()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod card;
pub mod hostadmin;
pub mod ipmb;
pub mod micras;
pub mod scif;
pub mod smc;
pub mod sysmgmt;

pub use card::{PhiCard, PhiSpec};
pub use hostadmin::{EccMode, HostAdmin, PowerMgmtConfig, RasEvent, RasSeverity};
pub use ipmb::{Bmc, IpmbError, IpmbFrame};
pub use micras::{MicrasDaemon, PowerFileReading};
pub use scif::{ScifEndpoint, ScifError, ScifNetwork, ScifPort};
pub use smc::{Smc, SmcReading};
pub use sysmgmt::{SysMgmtSession, MIC_API_QUERY_COST};

use powermodel::{Metric, Platform, Support};
use simkit::fault::FaultSpec;
use simkit::SimDuration;

/// The Xeon Phi failure profile for fault-injected runs.
///
/// Both Phi paths depend on software running *on the card*: the in-band
/// SysMgmt path wakes collection code over SCIF, and the MICRAS daemon
/// serves pseudo-files from a userspace process. Either can go
/// unresponsive when the card is saturated — the query hangs and times out
/// (`timeout`, ~25 ms stall), returns garbage mid-update (`transient`), or
/// the daemon's pseudo-file briefly serves an empty generation
/// (`no_data`).
pub fn fault_profile() -> FaultSpec {
    FaultSpec {
        timeout: 0.08,
        timeout_stall: SimDuration::from_millis(25),
        transient: 0.02,
        no_data: 0.03,
        ..FaultSpec::zero()
    }
}

/// Virtual-time cost of one MICRAS pseudo-file read (§II-D: "about 0.04 ms
/// per query").
pub const MIC_DAEMON_QUERY_COST: SimDuration = SimDuration::from_micros(40);

/// The Xeon Phi column of Table I: the full telemetry set (§II-D and the
/// full Xeon Phi column of the paper's matrix).
pub fn capabilities() -> Vec<(Metric, Support)> {
    use Support::Yes;
    Metric::ALL.iter().map(|&m| (m, Yes)).collect()
}

/// The platform this crate models.
pub const PLATFORM: Platform = Platform::XeonPhi;

#[cfg(test)]
mod tests {
    use super::*;
    use powermodel::paper_matrix;

    #[test]
    fn capabilities_match_paper_table1_column() {
        assert_eq!(capabilities(), paper_matrix().column(PLATFORM));
    }

    #[test]
    fn daemon_cost_is_0_04ms() {
        assert_eq!(MIC_DAEMON_QUERY_COST, SimDuration::from_micros(40));
    }
}
