//! # dve-noc — on-chip mesh and inter-socket interconnect
//!
//! Models the two interconnect levels of the paper's Table II system:
//!
//! * [`mesh`] — the intra-socket 2×4 mesh with static shortest-path
//!   (SSSP) routing at 1 cycle per hop: a route costs its Manhattan
//!   distance.
//! * [`link`] — [`link::LinkTable`], the point-to-point QPI/UPI-like
//!   links between nodes: one pipelined edge per ordered node pair with
//!   a 50 ns (Fig. 10 sweeps 30–60 ns) latency plus serialization, a
//!   per-edge message and busy-cycle count, and per-edge outage
//!   windows.
//! * [`traffic`] — message-class accounting; Fig. 8's headline metric is
//!   the *inter-socket traffic* reduction Dvé achieves by serving reads
//!   from the local replica.
//! * [`topology`] — the N-node generalization: node kinds
//!   (compute sockets vs disaggregated far memory), per-edge link
//!   parameters, and the replica [`PlacementMap`] every layer shares
//!   (mirror-2, round-robin N-way, two-tier).
//!
//! # Example
//!
//! ```
//! use dve_noc::mesh::Mesh;
//!
//! let mesh = Mesh::new(4, 2); // the paper's 2×4 mesh
//! assert_eq!(mesh.hops(0, 7), 4); // corner to corner: 3 + 1
//! assert_eq!(mesh.latency_cycles(0, 7), 4); // 1 cycle per hop
//! ```

pub mod link;
pub mod mesh;
pub mod topology;
pub mod traffic;

pub use link::LinkTable;
pub use mesh::Mesh;
pub use topology::{NodeId, NodeKind, PlacementMap, PlacementPolicy, Topology};
pub use traffic::{MessageClass, TrafficStats};
