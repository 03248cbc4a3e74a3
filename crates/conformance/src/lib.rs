//! # dve-conformance — differential conformance fuzzing of the
//! production coherence engine
//!
//! §V-C4 of the paper verifies the Dvé protocol in Murφ, and
//! `dve-verify` reproduces that — but against its *own* small model,
//! not the production state machine in `dve-coherence::engine` that
//! every performance number flows through. This crate closes that gap
//! in the spirit of Tvarak's end-to-end redundancy verification and the
//! Ramulator 2.0 re-evaluation's warning about silently-wrong simulator
//! models:
//!
//! * [`shadow`] — a data-carrying **golden shadow**: a flat,
//!   sequentially-consistent memory (per-line version counters) plus a
//!   freshness map recording *which physical locations* (home memory,
//!   replica memory, each LLC, each L1) currently hold the latest
//!   version of each line. A [`shadow::RecordingFabric`] captures every
//!   memory/replica read and write the engine performs.
//! * [`check`] — the op-by-op conformance checker: after **every**
//!   operation it verifies SWMR across L1s/LLCs, L1⊆LLC inclusion,
//!   home-directory and replica-directory agreement with the caches,
//!   replica-memory freshness whenever the replica directory would
//!   allow a read, read-returns-last-write (the service level the
//!   engine reports must name a location holding the latest version),
//!   latency monotonicity, and exact stats conservation against an
//!   independently maintained mirror.
//! * [`fuzz`] — randomized multi-core op sequences, seeded via
//!   [`dve_sim::rng::derive_seed`] and biased by `dve-workloads`
//!   profiles (sharing mix, write fraction, spatial locality), driven
//!   through **all** engine modes: Baseline, IntelMirror,
//!   Dvé×{allow,deny}×{speculative}, replicated-subset scopes, and
//!   tiny replica-directory capacities that stress evictions, plus
//!   degraded-mode transitions and dynamic protocol switches.
//! * [`shrink`](mod@shrink) — a delta-debugging (ddmin) shrinker that minimizes a
//!   violating op trace to a replayable regression case.
//! * [`mutation`] — the harness-validation gate: re-runs the fuzzer
//!   against engines with deliberately seeded protocol bugs
//!   ([`dve_coherence::SeededBug`]) and asserts each one is caught and
//!   shrunk to a short trace. A fuzzer that cannot catch planted bugs
//!   proves nothing about the real one.
//!
//! The harness is the net; the bugfixes it forced in
//! `dve-coherence::engine` (stale sibling-L1 copies after in-socket
//! writes, missing L1 downgrades on owner forwards, replica-directory
//! pollution outside the replication scope, and unsafe §V-E degraded
//! recovery) are the catch — each ships with its minimized trace as a
//! committed regression test in `tests/regressions.rs`.

pub mod check;
pub mod fuzz;
pub mod mutation;
pub mod shadow;
pub mod shrink;
pub mod trace;

pub use check::{ConformanceChecker, Violation};
pub use fuzz::{builtin_configs, fuzz_config, run_trace, FuzzOutcome};
pub use mutation::{mutation_check, MutationReport, ALL_BUGS};
pub use shrink::shrink;
pub use trace::{FuzzConfig, FuzzOp};
