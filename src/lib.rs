//! # envmon — unified environmental-data collection across simulated HPC platforms
//!
//! A full Rust reproduction of *"Comparison of Vendor Supplied Environmental
//! Data Collection Mechanisms"* (Wallace et al., IEEE CLUSTER 2015): the
//! MonEQ unified power-profiling library plus register/protocol/database-
//! level simulations of the vendor mechanisms it profiles through —
//! IBM Blue Gene/Q (EMON + environmental database), Intel RAPL (MSRs),
//! NVIDIA NVML, the Intel Xeon Phi (SCIF SysMgmt, MICRAS daemon, and
//! BMC/IPMB out-of-band), and, past the paper's four, the IBM POWER9
//! On-Chip Controller (25 ms sensor buffers over OPAL).
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! ```
//! use envmon::prelude::*;
//!
//! // Listing 1 of the paper, on the simulated BG/Q: two calls around the
//! // user code.
//! let mut machine = BgqMachine::new(BgqConfig::default(), 42);
//! machine.assign_job(&[0], &Mmps::figure1().profile());
//! let session = MonEq::initialize(
//!     0,
//!     vec![Box::new(BgqBackend::new(std::sync::Arc::new(machine), 0))],
//!     MonEqConfig::default(),
//!     SimTime::ZERO,
//! );
//! let result = session.finalize(SimTime::from_secs(100));
//! assert!(result.file.points.len() > 100);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use bgq_sim;
pub use envmon_accuracy as accuracy;
pub use envmon_analysis as analysis;
pub use envmon_scenarios as scenarios;
pub use envmon_serve as serve;
pub use hpc_workloads as workloads;
pub use mic_sim;
pub use moneq;
pub use nvml_sim;
pub use occ_sim;
pub use powermodel;
pub use powertools_sim as powertools;
pub use rapl_sim;
pub use simkit;

/// The commonly used names, flattened.
pub mod prelude {
    pub use bgq_sim::{BgqConfig, BgqMachine, EmonApi};
    pub use envmon_accuracy::{ErrorReport, MechanismProbe};
    pub use envmon_scenarios::{
        Exp1Config, Exp2Config, Exp3Config, Exp4Config, LiveGpuBackend, Replication,
    };
    pub use envmon_serve::{ClientWorkload, Daemon, Query, QueryFront, ServeConfig};
    pub use hpc_workloads::{
        Channel, FixedRuntime, GaussianElimination, Mmps, Noop, TaggedLoops, VectorAdd,
        WorkloadProfile,
    };
    pub use mic_sim::{PhiCard, PhiSpec, Smc, SysMgmtSession};
    pub use moneq::backends::{
        BgqBackend, MicApiBackend, MicDaemonBackend, NvmlBackend, OccBackend, RaplBackend,
    };
    pub use moneq::{
        ClusterRun, CollectionPlan, Completeness, ControlHook, Deployment, EnvBackend, MonEq,
        MonEqConfig, ReadError, RemoteBackend, RetryPolicy,
    };
    pub use nvml_sim::{DeviceConfig, GpuSpec, LiveGpu, Nvml};
    pub use occ_sim::{Occ, P9Spec, Power9Chip};
    pub use powermodel::{DemandTrace, Metric, Platform, Support, TrueEnergyLedger};
    pub use rapl_sim::{
        CappedSocket, MsrAccess, PowerLimit, PowerSource, RaplDomain, SocketModel, SocketSpec,
    };
    pub use simkit::wire::LinkSpec;
    pub use simkit::{
        CadenceGate, ControlTrace, FaultPlan, FaultSpec, Hysteresis, PiController, SimDuration,
        SimTime, TimeSeries,
    };
}
