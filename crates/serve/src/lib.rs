//! # ssp-serve
//!
//! The fault-tolerant batched solve service behind `ssp serve`: a bounded
//! admission queue feeding a fixed worker pool, where every request runs
//! through the [`ssp_harness`] robustness stack with per-request
//! `catch_unwind` isolation, per-request deadlines (cooperatively observed
//! inside BAL bisection and local-search loops via
//! [`ssp_model::CancelToken`]/deadline-aware [`ssp_model::Budget`]s), load
//! shedding down the degradation chain, and a permutation-invariant
//! instance-fingerprint cache that reuses certified energies and lower
//! bounds for repeated traffic. Each request makes one attempt: a solve is
//! deterministic, so a failure would repeat bit for bit.
//!
//! The crate is transport-agnostic: [`server::Server::submit`] takes raw
//! JSONL request lines and a response sink, so the CLI's stdin loop, its
//! Unix-socket listener, the chaos tests, and the EXP-21 soak all exercise
//! the identical code path. Protocol and semantics are documented in
//! `docs/SERVE.md`; the `serve.*` observability surface in
//! `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod fingerprint;
pub use ssp_probe::json;
pub mod protocol;
pub mod retry;
pub mod server;

pub use fingerprint::{CachedResult, Fingerprint, ResultCache};
pub use protocol::{parse_request, OkResponse, Reject, Request};
pub use server::{ServeOptions, Server, ServerHandle, Sink, StatsSnapshot};
