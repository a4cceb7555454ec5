#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! A resident, multi-threaded R-PathSim query service.
//!
//! The ROADMAP's north star serves heavy traffic from a long-lived
//! process; this crate supplies that process. It speaks newline-delimited
//! JSON over TCP (std-only — requests are parsed with
//! [`repsim_obs::json`], no external dependencies) and is built around
//! three robustness layers:
//!
//! 1. **Admission control & load shedding** ([`queue`], [`breaker`]) — a
//!    bounded request queue feeds a worker pool sized by
//!    [`repsim_sparse::Parallelism`]. A full queue rejects immediately
//!    with a typed [`error::ServiceError::Overloaded`] carrying a
//!    retry-after hint, and a circuit breaker trips after consecutive
//!    budget-exhausted responses, half-opening with exponential backoff
//!    plus deterministic jitter.
//! 2. **Graceful degradation** ([`service`]) — per-request deadlines map
//!    onto [`repsim_sparse::Budget`]; when the exact engine build cannot
//!    fit, the request routes through
//!    [`repsim_core::budgeted::BudgetedRPathSim`] and the response
//!    envelope reports the [`repsim_core::budgeted::Degradation`] tier
//!    instead of dropping the connection.
//! 3. **Crash-safe persistence** ([`snapshot`], [`wal`]) — commuting-matrix cache
//!    entries (which double as the engines' half-matrix indexes) persist
//!    in a versioned, checksummed snapshot written temp-file + fsync +
//!    atomic rename. Loads validate magic, version, graph fingerprint
//!    and payload checksum; anything suspect is quarantined on disk and
//!    the server transparently rebuilds — answers are bit-identical to a
//!    cold rebuild either way (the paper's whole point is that rankings
//!    are representation-stable; a warm start must not perturb them).
//!    Live mutations append to a checksummed write-ahead log ([`wal`])
//!    before they are acknowledged; recovery replays it, truncating a
//!    torn tail and quarantining corrupt suffixes through the bounded
//!    [`quarantine`] rotation. The WAL and the traffic [`capture`] are
//!    two thin codecs over one shared framed record log, so both have
//!    one parser and one repair path.
//!
//! The serving path is observable end-to-end: queue depth, sheds,
//! breaker transitions and snapshot save/load durations surface as
//! `repsim.serve.*` metrics, and every request runs under a
//! `repsim.serve.request` span.

pub mod breaker;
pub mod capture;
pub mod coord;
pub mod error;
mod framed;
pub mod protocol;
pub mod quarantine;
pub mod queue;
pub mod server;
pub mod service;
pub mod singleflight;
pub mod snapshot;
pub mod wal;

pub use breaker::{BreakerConfig, CircuitBreaker, OpClass};
pub use capture::{CaptureRecord, CaptureWriter, RecoveredCapture};
pub use coord::{run_coordinator, CoordConfig, Coordinator};
pub use error::ServiceError;
pub use protocol::{parse_shard_reply, Request, Response, ShardIdent, ShardReply};
pub use server::{client_roundtrip, run, ServeConfig, ServeError, ServeReport};
pub use service::{QueryService, Restore, ServiceConfig, ShardSpec};
pub use wal::{RecoveredLog, Wal, WalError};
