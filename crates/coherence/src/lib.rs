//! # dve-coherence — caches, directories, and the Coherent Replication
//! protocols
//!
//! The heart of the Dvé reproduction (§V of the paper). The crate
//! provides:
//!
//! * [`cache`] — set-associative cache arrays with LRU replacement, used
//!   for private L1s and the per-socket shared LLC.
//! * [`home_dir`] — the global home directory (coarse socket-grain
//!   sharer vector, MOSI states) including the request-class
//!   classification of Fig. 7 (private-read / read-only / read-write /
//!   private-read-write).
//! * [`replica_dir`] — Dvé's *replica directory*, in both protocol
//!   families of §V-C: **allow-based** (lazily pulled read permissions;
//!   absence of an entry means the replica may NOT be read) and
//!   **deny-based** (eagerly pushed RM entries; absence means the replica
//!   MAY be read), with finite capacity, LRU eviction and optional
//!   coarse-grain (region) tracking (§V-C5).
//! * [`engine`] — the [`engine::ProtocolEngine`]: a functional model of
//!   the full two-socket hierarchy (L1 → LLC+local directory → home or
//!   replica directory → DRAM) that executes each memory operation,
//!   maintains every coherence structure, and charges latency through the
//!   [`fabric::Fabric`] trait so the same protocol logic runs under the
//!   cycle-accounting fabric of the `dve` crate or the fixed-latency test
//!   fabric here.
//! * [`fabric`] — that timing abstraction plus [`fabric::TestFabric`].
//!
//! The engine keeps replicas strongly consistent (dirty LLC evictions are
//! written to home *and* replica memory) and serves reads from the
//! nearest replica whenever the replica directory proves it safe — the
//! two halves of Coherent Replication.
//!
//! Transient-state interleavings are exhaustively model-checked in the
//! separate `dve-verify` crate, mirroring the paper's Murphi approach.

pub mod cache;
pub mod dir_cache;
pub mod engine;
pub mod fabric;
pub mod home_dir;
mod lru;
pub mod replica_dir;
pub mod types;

pub use engine::{EngineStats, Mode, ProtocolEngine, ReplicationScope, SeededBug};
pub use fabric::{Fabric, TestFabric};
pub use types::{LineAddr, ReqType, RequestClass, ServiceLevel};
