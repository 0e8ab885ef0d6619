//! # hvx-serve — a crash-safe sweep server for the hvx runner
//!
//! Long sweeps over the ISCA-2016 reproduction (paper artifacts,
//! consolidation grids, chaos probes) outlive a single CLI invocation:
//! clients submit [`ScenarioSpec`](hvx_core::ScenarioSpec) bodies over
//! HTTP/JSON and poll for results while the server absorbs load,
//! contains failures, and survives crashes. Four mechanisms, one per
//! module:
//!
//! * **Admission control** ([`server`]) — a weight-bounded queue with
//!   batched all-or-nothing sweep admission; overload is *shed* with a
//!   structured 429 carrying queue depth and a retry-after hint, never
//!   by blocking the accept loop.
//! * **Backpressure & degradation** ([`server`]) — per-client
//!   in-flight caps, oldest-idle eviction of finished results, and a
//!   drain path that finishes running cells, refuses new ones, and
//!   exits cleanly.
//! * **Failure containment** ([`server`]) — a run is a pure function
//!   of its fingerprint, so a failed run is the job's result: the
//!   server records it, and a re-submission of that fingerprint is
//!   answered `failed` from the record at admission, as a warm hit is
//!   answered `done`. One poisoned spec costs one worker run, not one
//!   per submission.
//! * **Crash safety** ([`journal`]) — every acceptance is fsynced to
//!   an append-only JSON-lines journal before the client sees 202;
//!   startup replays accepted-minus-terminal and re-admits the
//!   remainder **exactly once**, serving already-cached fingerprints
//!   without re-running them.
//!
//! The server is domain-agnostic: everything scenario-shaped lives
//! behind the [`JobExecutor`] trait, which `hvx-suite` implements over
//! its spec runner and content-addressed result cache. That keeps the
//! dependency graph acyclic and the server testable with mocks.
//!
//! ```no_run
//! use hvx_serve::{Server, ServerConfig, JobExecutor};
//! use std::sync::Arc;
//!
//! fn serve(exec: Arc<dyn JobExecutor>) -> Result<(), hvx_core::Error> {
//!     let mut cfg = ServerConfig::default();
//!     cfg.addr = "127.0.0.1:8199".into();
//!     let server = Server::bind(cfg, exec)?;
//!     println!("listening on {}", server.local_addr());
//!     server.run() // blocks until POST /drain completes
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod job;
pub mod journal;
pub mod server;

pub use job::{JobExecutor, JobFailure, JobOutput, JobState, PreparedJob};
pub use journal::{recover, Journal, Recovery};
pub use server::{client, Server, ServerConfig};
