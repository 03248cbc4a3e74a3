//! # dve-osmem — OS support for on-demand memory replication (§III, §V-D)
//!
//! Dvé maps every replicated physical page to a partner page on another
//! node through the OS-managed **Replica Map Table** (RMT) for flexible,
//! on-demand replication. This crate models that software layer; the
//! examples `on_demand_replication` and `aging_fleet` drive it. The timed
//! system does not: it places replicas with
//! `dve_noc::topology::PlacementMap`.
//!
//! * [`rmt`] — the RMT as a linear table and as a 2-level radix tree,
//!   plus the directory-side RMT cache with hit/walk statistics. Entries
//!   are `page → (node, frame)` [`ReplicaLoc`]s, so replicas can live on
//!   any node of an N-node topology, not just "the other socket".
//! * [`allocator`] — a two-node physical page allocator that builds
//!   replica pairs across sockets, carves capacity balloon-style from
//!   free memory, and hot-plugs it back when replication is disabled.
//! * [`policy`] — the control-plane decision logic: hysteresis
//!   thresholds on memory utilization and per-process replication flags
//!   (the PCB bit of §V-D).
//!
//! # Example
//!
//! ```
//! use dve_osmem::allocator::ReplicaAllocator;
//!
//! let mut alloc = ReplicaAllocator::new(1024, 1024); // pages per socket
//! let pair = alloc.allocate_pair().unwrap();
//! assert_ne!(pair.primary_socket, pair.replica_socket);
//! ```

pub mod allocator;
pub mod policy;
pub mod rmt;

pub use allocator::{PagePair, ReplicaAllocator};
pub use policy::ReplicationPolicy;
pub use rmt::{ReplicaLoc, ReplicaMapTable, RmtCache, RmtOrganization};
