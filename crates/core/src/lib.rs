//! # dve — Coherent Replication for DRAM reliability and performance
//!
//! A full-system reproduction of **Dvé (ISCA 2021)**: a hardware-driven
//! replication mechanism in which every replicated cache line has a copy
//! on *each* socket of a dual-socket cache-coherent NUMA machine. The
//! coherence protocol keeps the two copies strongly consistent, errors
//! detected at either memory controller are corrected by reading the
//! other copy, and during fault-free operation reads are served from the
//! *nearest* copy — turning a reliability mechanism into a performance
//! win.
//!
//! This crate is the top of the workspace: it assembles the substrates
//! (`dve-dram`, `dve-noc`, `dve-coherence`, `dve-workloads`) into a
//! runnable system. Replicas are placed by `dve_noc::topology`, and §V-D's
//! on-demand replication is
//! [`ReplicationScope::Pages`](dve_coherence::engine::ReplicationScope::Pages).
//!
//! * [`config`] — Table II system configuration and the scheme catalog
//!   (baseline NUMA, Intel-mirroring++, Dvé allow / deny / dynamic).
//! * [`fabric_impl`] — the cycle-accounting [`coherence
//!   Fabric`](dve_coherence::fabric::Fabric) over real DRAM controllers,
//!   the 2×4 mesh and the inter-socket link, and the one §V-B2 recovery
//!   flow: ECC detection at one controller, correction from the
//!   replica, repair-and-reread, and degraded mode, all in simulated
//!   time.
//! * [`system`] — the event-driven multi-core runner and [`system::RunResult`].
//! * [`chaos`] — in-band fault injection: deterministic fault
//!   schedules, link outages, paced patrol scrub, and the recovery
//!   ledger checked by the `chaos` harness.
//! * [`fault_source`] — correlated, workload-coupled fault sources
//!   (row-hammer pressure, Arrhenius-scaled thermal arrivals, aging
//!   ramps) the runner polls in-band alongside the static schedule.
//! * [`metrics`] — the paper's aggregates (geomean over top-10/15/all).
//! * [`pdes`] — the sharded trace supply: worker threads pre-generate
//!   per-core operation streams through bounded channels, bit-identical
//!   to the inline generator (enable via `SystemConfig::pdes_workers`;
//!   measured slower than inline, see `DESIGN.md` §14).
//!
//! # Quickstart
//!
//! ```
//! use dve::config::{Scheme, SystemConfig};
//! use dve::system::System;
//! use dve_workloads::catalog;
//!
//! let profile = &catalog()[0]; // backprop
//! let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
//! cfg.ops_per_thread = 2_000; // tiny run for the doctest
//! let result = System::new(cfg, profile, 42).run();
//! assert!(result.cycles > 0);
//! assert!(result.engine.replica_reads > 0); // Dvé served local replicas
//! ```

pub mod chaos;
pub mod config;
pub mod fabric_impl;
pub mod fault_source;
pub mod metrics;
pub mod pdes;
pub mod system;

pub use chaos::{
    ChaosConfig, ChaosParams, CorrelatedConfig, FaultSchedule, FaultSourceKind, RecoveryLedger,
};
pub use config::{Scheme, SystemConfig, TopologySpec};
pub use fault_source::FaultSource;
pub use pdes::{ShardedSupply, TraceSupply};
pub use system::{RunResult, System};

// Directed tests of the §V-B2 recovery flow in `fabric_impl`.
#[cfg(test)]
mod recovery {
    mod tests;
}
