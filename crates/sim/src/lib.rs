//! # dve-sim — discrete-event simulation engine
//!
//! The foundation shared by every other crate in the Dvé reproduction:
//!
//! * [`event::EventQueue`] — a deterministic time-ordered event queue.
//!   Events scheduled at the same timestamp are delivered in insertion
//!   order, which makes every simulation in this workspace bit-for-bit
//!   reproducible.
//! * [`time`] — strongly-typed simulated time ([`time::Cycles`],
//!   [`time::Nanos`]), clock-domain conversion ([`time::Frequency`]) and
//!   the Table II core clock every layer converts at
//!   ([`time::CORE_CLOCK`]).
//! * [`stats`] — the [`stats::LogHistogram`] latency histogram and the
//!   geometric-mean aggregation the paper reports.
//! * [`hash`] — [`hash::IntHasher`], the deterministic integer hasher
//!   behind the directory maps ([`hash::IntMap`]).
//! * [`rng`] — a tiny, dependency-free, seedable [`rng::SplitMix64`]
//!   generator for components that need cheap deterministic randomness
//!   without pulling `rand` into the simulation core.
//! * [`resource`] — the [`resource::Resource`] occupancy port, the
//!   queueing model the finite timed substrates share: DRAM banks and
//!   per-core MSHR files.
//! * [`latency`] — structured latency attribution: the
//!   [`latency::LatencyBreakdown`] component totals and the
//!   [`latency::Stamp`] clock that conserves them by construction.
//!
//! # Example
//!
//! ```
//! use dve_sim::event::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.push(10, "b");
//! q.push(5, "a");
//! q.push(10, "c");
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b"))); // same-time events keep FIFO order
//! assert_eq!(q.pop(), Some((10, "c")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod event;
pub mod hash;
pub mod latency;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use latency::{Component, LatencyBreakdown, Stamp};
pub use resource::{Grant, Resource};
pub use rng::SplitMix64;
pub use stats::geomean;
pub use time::{Cycles, Frequency, Nanos, CORE_CLOCK};
