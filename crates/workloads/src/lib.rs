//! # dve-workloads — the 20 benchmark profiles and trace synthesis
//!
//! The paper evaluates on Prism/Valgrind traces of 20 multithreaded
//! benchmarks (Table III) replayed in gem5. Neither the trace files nor
//! the original applications are usable here, so this crate substitutes
//! **statistical workload clones**: for each benchmark, a
//! [`profile::WorkloadProfile`] captures the published characteristics
//! that the coherent-replication protocols actually react to —
//!
//! * the L2 MPKI *ordering* (the paper sorts workloads by MPKI and
//!   reports top-10/top-15/all-20 geomeans),
//! * the Fig. 7 sharing-class mix (private-read / read-only / read-write
//!   / private-read-write) that determines whether the allow- or
//!   deny-based protocol wins,
//! * working-set size, write fraction, spatial locality, and the
//!   compute-to-memory ratio.
//!
//! [`generate::TraceGenerator`] turns a profile into a deterministic
//! per-thread operation stream (compute delays, reads, writes, sync
//! events — the same event vocabulary as the paper's Prism traces).
//! Every stream is seeded, so whole experiments are reproducible
//! bit-for-bit; the generator is the one trace source, and no trace is
//! ever written to or read from a file.
//!
//! # Example
//!
//! ```
//! use dve_workloads::{catalog, TraceGenerator};
//!
//! let profiles = catalog();
//! assert_eq!(profiles.len(), 20);
//! let backprop = profiles.iter().find(|p| p.name == "backprop").unwrap();
//! let mut gen = TraceGenerator::new(backprop, 16, 42);
//! let op = gen.next_op(0); // first operation of thread 0
//! assert!(matches!(op, dve_workloads::Op::Compute(_) | dve_workloads::Op::Mem { .. }));
//! ```

pub mod generate;
pub mod op;
pub mod profile;
pub mod tenant;

pub use generate::{CoreTraceStream, TraceGenerator, TraceShape};
pub use op::Op;
pub use profile::{catalog, SharingMix, WorkloadProfile};
pub use tenant::{TenantMix, TenantProfile};
