//! # simkit — virtual-time simulation core for the `envmon` suite
//!
//! Every experiment in this workspace runs against *virtual* time: a
//! 202-second Blue Gene/Q application run costs milliseconds of wall clock,
//! yet every published per-query collection cost (1.10 ms for EMON, 0.03 ms
//! for a RAPL MSR read, …) is charged faithfully on the virtual timeline.
//!
//! The crate provides the building blocks shared by all platform models:
//!
//! * [`time`] — nanosecond-resolution [`SimTime`]/[`SimDuration`] with total
//!   ordering and saturating/checked arithmetic;
//! * [`rng`] — [`DetRng`], a splittable deterministic generator (SplitMix64 +
//!   xoshiro256++) plus hash-indexed noise streams whose value at a given
//!   sample index is independent of query order;
//! * [`stats`] / [`series`] — running moments, exact quantiles, five-number
//!   boxplot summaries, Welch's t-test, and time-series containers used to
//!   regenerate the paper's figures;
//! * [`fault`] — seeded, order-independent per-device fault processes
//!   ([`FaultPlan`] / [`FaultSpec`]) used to subject each vendor mechanism
//!   to its documented failure modes deterministically;
//! * [`control`] — deterministic controller/actuator primitives
//!   ([`PiController`], [`Hysteresis`], [`CadenceGate`], [`ControlTrace`])
//!   for the closed-loop scenario catalog, pure arithmetic on the virtual
//!   clock;
//! * [`store`] — the in-memory time-series store ([`TsStore`]): fixed-
//!   capacity raw rings per series plus exact rollup tiers;
//! * [`telemetry`] — the value types of deterministic observability:
//!   simulated-time log₂ histograms ([`LogHistogram`]), span aggregates
//!   ([`SpanStats`]), and the mergeable named [`TelemetryReport`];
//! * [`wire`] — a framed binary protocol ([`Frame`]/[`WireError`]) plus a
//!   deterministic simulated link ([`SimTransport`] over a [`LinkSpec`])
//!   so mechanisms can be served remotely with exact latency/fault
//!   accounting on the virtual clock.
//!
//! Determinism is a hard requirement: the same seed must reproduce every
//! figure byte-for-byte. Nothing in this crate reads wall-clock time or
//! global state.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod control;
pub mod fault;
pub mod rng;
pub mod sampling;
pub mod series;
pub mod stats;
pub mod store;
pub mod telemetry;
pub mod time;
pub mod wire;

pub use control::{CadenceGate, ControlRow, ControlTrace, Hysteresis, PiController};
pub use fault::{FaultOutcome, FaultPlan, FaultProcess, FaultSpec};
pub use rng::{DetRng, NoiseStream};
pub use sampling::SamplingPolicy;
pub use series::{Sample, TimeSeries};
pub use stats::{welch_t_test, BoxplotSummary, Histogram, RunningStats, WelchResult};
pub use store::{
    Aggregate, RollupBin, SeriesData, SeriesId, StoreConfig, StoreStats, TierSpec, TsStore,
};
pub use telemetry::{LogHistogram, SpanStats, TelemetryReport};
pub use time::{SimDuration, SimTime};
pub use wire::{Frame, LinkSpec, LinkStats, SimTransport, WireError};
