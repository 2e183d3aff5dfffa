//! # envmon-analysis — the experiment harness
//!
//! One function per table and figure of the paper. Every function is
//! deterministic in its seed, returns a typed result carrying the raw data
//! (time series, sample vectors, overhead ledgers), and offers a `render()`
//! producing the rows/series the paper prints. The `repro` binary in
//! `envmon-bench` is a thin CLI over this crate; the integration tests
//! assert the *shapes* the paper reports (who wins, where transitions fall,
//! which differences are significant).
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`tables`] | Table I (capability matrix), Table II (RAPL domains), Table III (MonEQ overhead), and the §II per-query cost comparison |
//! | [`figures`] | Figures 1–5, 7, 8 (Figure 6 is an architecture diagram; its boxes are the `mic-sim` module structure) |
//! | [`ablations`] | The DESIGN.md ablation suite: polling-interval sweeps, Phi access-path comparison, RAPL capping, finalize scaling |
//! | [`robustness`] | The DESIGN.md §8 robustness comparison: all mechanisms under identical fault rates |
//! | [`telemetry`] | The DESIGN.md §9 observability table: per-mechanism query-latency percentiles vs. the §II per-query constants |
//! | [`caching`] | The DESIGN.md §10 caching ablation: naive vs batched collection cost per mechanism, with byte-identity verification |
//! | [`accuracy`] | The DESIGN.md §11 accuracy ablation: reported-vs-true energy per mechanism with the error decomposed into named components |
//! | [`serving`] | The DESIGN.md §13 serving demonstration: the collection daemon + query front on the paper's node card, with exactness/parity/determinism verdicts |
//! | [`transport`] | The DESIGN.md §14 transport ablation: in-band vs out-of-band deployment over the framed wire protocol, with byte-identity and exact-latency verdicts |
//! | [`registry`] | The mechanism registry every cross-cutting experiment enumerates (add a mechanism once, every table picks it up) |
//! | [`render`] | Plain-text table/series rendering shared by all of the above |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod accuracy;
pub mod caching;
pub mod figures;
pub mod registry;
pub mod render;
pub mod report;
pub mod robustness;
pub mod serving;
pub mod tables;
pub mod telemetry;
pub mod transport;
