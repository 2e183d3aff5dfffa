//! # envmon-accuracy — how wrong is each mechanism, and why?
//!
//! The paper reports *what* each vendor mechanism returns; the related
//! error-analysis literature ("Part-time Power Measurements" for NVML,
//! the RAPL dissection papers) asks how far those returns sit from the
//! physical truth. This crate closes the loop for the simulator: every
//! platform model is a closed-form function of virtual time, so the
//! *exact* energy over any window is computable to fp precision
//! ([`powermodel::TrueEnergyLedger`]) and the measurement error of a
//! polling collector can be decomposed — not just bounded — into named
//! components:
//!
//! * **sampling phase** — rectangle-rule error of polling an
//!   instantaneous signal on a grid (where the polls land relative to
//!   the workload's transients);
//! * **cadence** — serving a stale generation (560 ms EMON generations,
//!   ~1 ms RAPL ticks, 60 ms NVML refreshes, 50 ms SMC windows, 25 ms
//!   OCC sensor buffers);
//! * **averaging** — windowed-mean semantics standing in for an
//!   instantaneous value (and NVML's power-limit clamp);
//! * **noise** — the sensor-chain perturbation;
//! * **quantization** — counter units, register truncation, mW/µW
//!   rounding, non-negative clamps.
//!
//! The decomposition is *exact by construction*: each component is the
//! difference between two adjacent stages of the mechanism's own
//! pipeline, evaluated per poll, so the five components telescope to the
//! total error. [`ErrorReport`] carries a closure adjustment that
//! absorbs the residual fp rounding, making the identity bit-for-bit
//! (asserted by `tests/accuracy_prop.rs`).
//!
//! Polls land on the grid a MonEQ session fires on — one interval apart
//! from an anchor — so the harness measures exactly what a session sees.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod probes;
pub mod report;

pub use probes::{standard_probes, EmonProbe, NvmlProbe, OccProbe, RaplProbe, SmcProbe};
pub use report::{ErrorDecomposition, ErrorReport, MechanismProbe, PollStages};
