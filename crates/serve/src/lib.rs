//! Simulation-as-a-service: a std-only HTTP/1.1 + SSE front end over the
//! unitherm cluster simulator.
//!
//! The `unitherm-serve` binary turns the one-shot `repro run-scenario`
//! flow into a long-lived service with four moving parts, each its own
//! module:
//!
//! - [`http`] — a bounded, never-panicking HTTP/1.1 request parser and
//!   response renderer built on `std::net` alone (no external HTTP stack,
//!   matching the repo's no-new-dependencies rule).
//! - [`queue`] — the bounded multi-tenant [`queue::JobQueue`]: submissions
//!   are validated [`unitherm_cluster::Scenario`]s, rejections are named
//!   ([`queue::SubmitError::QueueFull`] / [`queue::SubmitError::TenantQuota`]),
//!   and every read endpoint snapshots from here.
//! - [`runner`] — claiming threads that execute jobs through
//!   [`unitherm_cluster::Simulation`] under a shared
//!   [`unitherm_cluster::ThreadPermits`] budget, so service concurrency
//!   never oversubscribes the cores its passes run on (DESIGN.md §15).
//! - [`server`] — reused connection handler threads, and routing for the
//!   HTTP API documented in `docs/API.md`:
//!   `POST /jobs`, `GET /jobs`, `GET /jobs/{id}`, `GET /jobs/{id}/events`
//!   (SSE, JSONL, or unitherm-bjl/v1), `GET /metrics`, `GET /healthz`.
//!
//! # Determinism contract
//!
//! A job's finished report is bit-identical to running the same scenario
//! JSON through `repro run-scenario` — same FNV digest — and its journal
//! (JSONL or bjl download) is byte-identical to the file a direct run
//! would write. The SSE stream's `data:` payloads are the exact JSONL
//! lines, so stripping the framing reproduces the journal. See
//! `docs/FORMATS.md` §6 for the wire formats and the guarantee.

#![warn(missing_docs)]

mod handoff;
pub mod http;
pub mod queue;
pub mod runner;
pub mod server;

pub use http::{parse_request, reason_phrase, render_response, HttpError, Limits, Method, Request};
pub use queue::{JobId, JobQueue, JobSnapshot, JobStatus, QueueConfig, QueueStats, SubmitError};
pub use runner::{run_one, spawn_runners, QueueSink, RunnerPool};
pub use server::{ServeConfig, Server};
