//! # hpc-workloads — instrumented kernels that drive the power models
//!
//! The paper profiles real applications: the ALCF MMPS interconnect
//! benchmark (Figures 1–2), Gaussian elimination (Figures 3 and 8), a GPU
//! vector add (Figure 5), NOOP kernels (Figures 4 and 7), and a fixed-
//! runtime toy application for the Table III overhead study.
//!
//! Each module here contains a *real, executed* Rust kernel (parallelised
//! with `std` scoped threads where the original is parallel) plus
//! instrumentation that converts the kernel's measured phase structure
//! into a [`WorkloadProfile`]: per-channel utilization demand over virtual
//! time.
//! The platform crates map channels onto their power components (the BG/Q
//! maps [`Channel::Network`] onto its HSS/link-chip domains, the GPU maps
//! [`Channel::Accelerator`] onto its core rail, …).
//!
//! Executing the kernels for real — rather than hard-coding phase tables —
//! keeps the demand shapes honest: the Gaussian elimination profile's
//! shrinking-pivot rhythm (the ~5 W dips of Figure 3) comes out of the
//! actual O((n−k)²) work per elimination step.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod gauss;
pub mod mmps;
pub mod noop;
pub mod profile;
pub mod tagged;
pub mod transients;
pub mod vecadd;

pub use gauss::GaussianElimination;
pub use mmps::Mmps;
pub use noop::{FixedRuntime, Noop};
pub use profile::{Channel, TagSpan, WorkloadProfile};
pub use tagged::TaggedLoops;
pub use transients::SquareWave;
pub use vecadd::VectorAdd;
