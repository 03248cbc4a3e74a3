//! `dve-service` — the always-on replication service.
//!
//! Everything below PR 5 is a library plus batch harnesses: build a
//! [`dve::system::System`], run it to completion, read the result. The
//! paper's premise, though, is *on-demand* reliability — Dvé turns
//! coherent replication on and off while the machine serves traffic —
//! and that claim is only testable against a long-running front end.
//! This crate is that front end:
//!
//! ```text
//! clients ──┬─ in-process sessions (mpsc) ──┐
//!           └─ TCP sessions (length-prefixed │    ┌────────────┐
//!              frames over localhost)  ──────┼──▶ │ EpochBatcher│──▶ epoch
//!                                            │    │ (bounded,   │    runner
//!              GET /metrics · GET /health ───┘    │  shed+count)│    (live
//!                                                 └────────────┘    System)
//! ```
//!
//! * **Sessions** submit `(seq, line, read|write)` operations and
//!   receive per-op completions carrying the engine's
//!   [`LatencyBreakdown`](dve_sim::latency::LatencyBreakdown) stamps.
//! * **The batcher** is the admission point: a bounded ingress queue
//!   that sheds (and exactly counts) what it cannot hold, and cuts
//!   fixed-size / fixed-deadline epochs in a canonical `(client, seq)`
//!   order so the epoch contents do not depend on arrival
//!   interleaving.
//! * **The epoch loop** ([`EpochLoop`]) owns the live timed [`System`]
//!   and drives each epoch through [`System::run_batch`]: client
//!   traffic pays for coherence contention, bank conflicts, link
//!   occupancy, chaos detours and §V-E degraded operation exactly like
//!   trace traffic. It is threadless; the service's runner thread is a
//!   shell over it, and batch callers drive it directly.
//! * **Telemetry** aggregates per-component
//!   [`LatencyHists`](dve_sim::latency::LatencyHists) and serves
//!   plaintext `/metrics` + `/health` over the same TCP listener the
//!   op protocol uses.
//!
//! The build environment is offline, so the whole stack is std-only:
//! `std::net::TcpListener`, `std::sync::mpsc`, threads.
//!
//! [`System`]: dve::system::System
//! [`System::run_batch`]: dve::system::System::run_batch

pub mod batcher;
pub mod config;
pub mod epoch;
pub mod loadgen;
pub mod proto;
pub mod service;
pub mod telemetry;

pub use batcher::{EpochBatcher, SubmitOutcome, SubmittedOp};
pub use config::ServiceConfig;
pub use epoch::{Completion, EpochLoop};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use service::{Service, Session};
pub use telemetry::{ServiceReport, Telemetry, TenantTelemetry};
