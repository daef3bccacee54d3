//! # br-net — TCP serving front end for the spGEMM service
//!
//! Puts a real wire protocol in front of the `br-service` worker pool: a
//! zero-dependency std-TCP listener (thread per connection) speaking a
//! length-prefixed binary framing ([`frame`]). The server runs no workers
//! of its own: it starts one `br_service::SpgemmService` and submits every
//! admitted request into that service's queue, whose reply builds the
//! response frame. It adds
//!
//! * **two priority lanes** — interactive work always drains before batch
//!   work (the service queue's [`Lane`]s);
//! * **admission control** — per-client in-flight quotas keyed by the id
//!   in the `Hello` frame, and load shedding with an explicit `Shed`
//!   response once the queue's combined depth reaches a configurable
//!   threshold (the service queue's bound, so `max_depth ≤ threshold`
//!   holds structurally);
//! * **per-request deadlines** — a request whose deadline passes while
//!   queued is answered with a typed `Reject` instead of executing;
//! * **graceful drain** — a `Shutdown` frame stops the listener, notifies
//!   every connection with a `DrainNotice`, finishes queued and in-flight
//!   jobs, flushes every response, and lets [`server::NetServer::run`]
//!   return.
//!
//! Every `Submit` receives **exactly one** response: `Result`, `Shed`, or
//! `Reject` (quota, bad spec, draining, deadline, failed).
//!
//! ## Deterministic admission accounting
//!
//! Shedding normally depends on how fast workers drain — a wall-clock
//! race. For reproducible accounting the server supports a **held worker
//! gate** ([`server::ServerConfig::hold`]): admission decisions happen
//! while nothing leaves the queue, making the shed/quota/saturation
//! counters a pure function of the offered load; a `Release` frame then
//! opens the gate. `scripts/bench_gate.sh` floods a held server at
//! `BR_THREADS=1` and `8` and byte-compares the metric exports.
//!
//! Wire specs never name files: `input=` and `pair=` are refused with
//! `Reject(bad_spec)` before anything is opened.
//!
//! Everything is std-only (no tokio — the workspace is offline); the
//! listener uses one reader + one writer thread per connection, which is
//! plenty for the pool sizes a simulated-GPU backend can drive.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

/// Convenient glob-import surface for the CLI and tests.
pub mod prelude {
    pub use crate::client::{ClientError, NetClient, ResponseSummary, ServerInfo};
    pub use crate::frame::{Frame, FrameError, Lane, ProtocolError, RejectCode};
    pub use crate::server::{NetServer, ServeReport, ServerConfig};
}

pub use client::{ClientError, NetClient, ResponseSummary};
pub use frame::{Frame, Lane, ProtocolError, RejectCode};
pub use server::{NetServer, ServeReport, ServerConfig};
