//! # symbist-service — concurrent BIST-campaign job service
//!
//! A self-contained job service around the [`symbist_defects`] campaign
//! runner: clients submit campaign specs over HTTP, a bounded worker pool
//! runs them with per-job panic isolation, and results stream back as
//! NDJSON while the campaign is still running. Everything is hand-rolled
//! on `std` — HTTP/1.1, thread pools — matching the repo's zero-dependency
//! policy. JSON goes through the workspace's one codec,
//! `symbist_obs::json`; [`Json`] and [`JsonError`] are re-exported here
//! because the client and job APIs carry them.
//!
//! ## Architecture
//!
//! ```text
//!         POST /v1/jobs           bounded FIFO           fixed threads
//! client ──► HTTP front-end ────► job Registry ─────────► WorkerPool
//!   ▲          (http.rs)           (job.rs)                (worker.rs)
//!   │                                  │ JobMonitor            │
//!   └─ GET /v1/jobs/{id}/results ◄─────┘ per-record       CampaignBackend
//!        NDJSON, follows live          publishing          (backend.rs)
//! ```
//!
//! Backpressure is explicit at both admission points: a full job queue
//! rejects `POST /v1/jobs` with `503`, a saturated handler pool refuses
//! connections with `429`. Graceful shutdown drains running campaigns to
//! their JSONL checkpoints and persists them as `queued`, so a restarted
//! server on the same data directory resumes them and produces records
//! bit-identical to an uninterrupted run (the same resume contract the
//! campaign runner's kill-and-resume tests enforce).
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use symbist_service::backend::SyntheticBackend;
//! use symbist_service::http::{Server, ServiceConfig};
//! use symbist_service::client::Client;
//! use symbist_service::spec::JobSpec;
//!
//! let server = Server::start(
//!     ServiceConfig::default(),
//!     Arc::new(SyntheticBackend::new(8)),
//! ).unwrap();
//! let client = Client::builder()
//!     .base_url(server.addr().to_string())
//!     .build();
//! let id = client.submit(&JobSpec::default()).unwrap();
//! for record in client.stream_results(id).unwrap() {
//!     println!("{:?}", record.unwrap());
//! }
//! ```
//!
//! The `serve` binary wires this up with the real SAR ADC backend; see
//! `README.md` for a curl session.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod backoff;
pub mod client;
pub mod coord;
pub mod dut_backend;
pub mod http;
pub mod job;
pub mod spec;
pub mod worker;

pub use backend::{AdcBackend, CampaignBackend, SyntheticBackend};
pub use backoff::Backoff;
pub use client::{Client, ClientBuilder, ClientError, ResultStream, ServiceError};
pub use coord::{CoordConfig, CoordError, CoordOutcome, ShardOutcome};
pub use dut_backend::GenericBackend;
pub use http::{Server, ServiceConfig};
pub use job::{
    Job, JobId, JobProgress, JobReport, JobState, JobStatus, Registry, RegistryStats, SubmitError,
};
pub use spec::{JobSpec, SpecError};
pub use symbist_obs::json::{Json, JsonError};
pub use worker::WorkerPool;
