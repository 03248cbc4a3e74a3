//! # dve-dram — DDR4 DRAM device, controller, energy and fault model
//!
//! The memory substrate under both the baseline NUMA system and Dvé
//! (Table II of the paper: 8 GB DDR4-2400, 8 devices with an 8-bit
//! interface each, tCL = tRCD = tRP = 14.16 ns, tRAS = 32 ns, 1 KB row
//! buffer, 16 banks/rank, 1 channel/socket baseline and 2 channels/socket
//! when replication doubles capacity).
//!
//! * [`config`] — timing/geometry parameters with the paper's defaults.
//! * [`address`] — physical-address → (channel, rank, bank, row, column)
//!   decomposition.
//! * [`bank`] — per-bank row-buffer state machine (open row, busy-until).
//! * [`controller`] — the memory controller: open-page FR-FCFS-style
//!   access timing, per-request latency, row hit/miss/conflict and
//!   refresh accounting, and the ECC check hook at the controller edge
//!   (where Dvé performs detection).
//! * [`energy`] — Micron-datasheet-style energy accounting and the
//!   energy-delay-product metric used in §VII.
//! * [`fault`] — persistent fault state at controller/channel/chip/row
//!   granularity; failed components make reads return detection failures,
//!   which is what triggers Dvé's replica recovery.
//! * [`rowhammer`] — per-row activation tracking within refresh windows;
//!   quantifies the exposure reduction Dvé's replica load-balancing
//!   provides (§III).
//! * [`thermal`] — the rank-level thermal profile (§IV-C) whose
//!   Arrhenius-scaled per-rank risks set the thermal fault source's
//!   arrival rates.
//! * [`scrub`] — the patrol scrubber whose interval conditions every
//!   DUE/SDC coincidence term in §IV's analytical model.
//!
//! # Example
//!
//! ```
//! use dve_dram::config::DramConfig;
//! use dve_dram::controller::{AccessKind, MemoryController};
//! use dve_sim::time::Cycles;
//!
//! let mut mc = MemoryController::new(0, DramConfig::ddr4_2400());
//! let first = mc.access(0x0000, AccessKind::Read, Cycles(0));
//! let second = mc.access(0x0040, AccessKind::Read, Cycles(first.complete_at.raw()));
//! // Second access hits the open row: strictly faster.
//! assert!(second.latency < first.latency);
//! ```

pub mod address;
pub mod bank;
pub mod config;
pub mod controller;
pub mod energy;
pub mod fault;
pub mod rowhammer;
pub mod scrub;
pub mod thermal;

pub use config::DramConfig;
pub use controller::{AccessKind, AccessResult, MemoryController};
pub use energy::EnergyModel;
pub use fault::{FaultDomain, FaultState};
pub use rowhammer::RowHammerMonitor;
pub use scrub::Scrubber;
pub use thermal::ThermalProfile;
