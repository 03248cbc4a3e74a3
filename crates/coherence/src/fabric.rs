//! The timing abstraction between protocol logic and the platform model.
//!
//! The [`engine::ProtocolEngine`](crate::engine::ProtocolEngine) decides
//! *what* happens (state transitions, which structures are consulted,
//! which messages cross the link); a [`Fabric`] decides *how long* each
//! of those actions takes and accounts for contention. The `dve` crate
//! implements `Fabric` over the real DRAM controllers, mesh and
//! inter-socket link; [`TestFabric`] here provides fixed latencies for
//! protocol unit tests.
//!
//! Time travels through the fabric as a [`Stamp`], not a bare cycle
//! count: every timed service advances the stamp by charging its cycles
//! to a named [`Component`], so the
//! [`LatencyBreakdown`](dve_sim::latency::LatencyBreakdown) an access
//! returns always sums to its end-to-end latency (conservation by
//! construction — the invariant the conformance harness checks on every
//! operation).

use crate::types::LineAddr;
use dve_noc::traffic::MessageClass;
use dve_sim::latency::{Component, Stamp};

/// Platform timing services used by the protocol engine. Stamps carry
/// absolute core cycles plus the per-component attribution.
pub trait Fabric {
    /// Private L1 access latency (Table II: 1 cycle).
    fn l1_latency(&self) -> u64 {
        1
    }

    /// Shared LLC (+ embedded local directory) access latency
    /// (Table II: 20 cycles).
    fn llc_latency(&self) -> u64 {
        20
    }

    /// Global (home/replica) directory access latency (Table II: 20
    /// cycles).
    fn dir_latency(&self) -> u64 {
        20
    }

    /// Mesh traversal between the LLC slice and the directory tile
    /// (non-core-specific hops). The timed fabric colocates the two
    /// agents on the directory tile, so it returns the real (zero-hop)
    /// route; [`TestFabric`] keeps a flat charge for unit tests.
    fn mesh_latency(&self) -> u64;

    /// Mesh traversal from a specific core's tile to its socket's
    /// LLC/directory tile. Defaults to [`Fabric::mesh_latency`]; the
    /// timed fabric routes through the real 2×4 mesh (Table II).
    fn mesh_latency_core(&self, core: usize) -> u64 {
        let _ = core;
        self.mesh_latency()
    }

    /// Sends a message from socket `from` to socket `to` at `t`;
    /// returns the arrival stamp (link cycles charged to
    /// `Component::Link`) and records inter-socket traffic.
    fn link_send(&mut self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp;

    /// Arrival stamp a message would observe, without sending it
    /// (used to cost speculative paths without double-counting traffic).
    fn link_probe(&self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp;

    /// Reads the *home copy* of `line` from `socket`'s memory; returns
    /// the completion stamp (bank queueing and service charged to
    /// `Component::BankQueue` / `Component::BankService`).
    fn mem_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp;

    /// Reads the *replica copy* of `line` held on `socket`.
    fn replica_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp;

    /// Writes the home copy (writebacks; usually off the critical path).
    fn mem_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp;

    /// Writes the replica copy on `socket`.
    fn replica_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp;
}

/// Fixed-latency fabric for unit tests: no contention, simple counters.
///
/// # Example
///
/// ```
/// use dve_coherence::fabric::{Fabric, TestFabric};
/// use dve_noc::traffic::MessageClass;
/// use dve_sim::latency::Stamp;
///
/// let mut f = TestFabric::default();
/// let arrive = f.link_send(0, 1, Stamp::start(100), MessageClass::Request);
/// assert_eq!(arrive.at(), 100 + 150);
/// assert_eq!(arrive.breakdown().link, 150);
/// assert_eq!(f.traffic.total_messages(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TestFabric {
    /// Mesh traversal latency.
    pub mesh: u64,
    /// One-way link latency.
    pub link: u64,
    /// DRAM access latency (flat: all service, no queueing).
    pub dram: u64,
    /// Recorded inter-socket traffic.
    pub traffic: dve_noc::traffic::TrafficStats,
    /// Home-copy reads per node.
    pub mem_reads: Vec<u64>,
    /// Replica-copy reads per node.
    pub replica_reads: Vec<u64>,
    /// Home-copy writes per node.
    pub mem_writes: Vec<u64>,
    /// Replica-copy writes per node.
    pub replica_writes: Vec<u64>,
}

impl Default for TestFabric {
    fn default() -> Self {
        TestFabric::with_nodes(2)
    }
}

impl TestFabric {
    /// A fixed-latency fabric spanning `nodes` nodes (sockets plus any
    /// far-memory pool).
    pub fn with_nodes(nodes: usize) -> TestFabric {
        TestFabric {
            mesh: 2,
            link: 150, // 50 ns at 3 GHz
            dram: 100,
            traffic: dve_noc::traffic::TrafficStats::new(),
            mem_reads: vec![0; nodes],
            replica_reads: vec![0; nodes],
            mem_writes: vec![0; nodes],
            replica_writes: vec![0; nodes],
        }
    }
}

impl Fabric for TestFabric {
    fn mesh_latency(&self) -> u64 {
        self.mesh
    }

    fn link_send(&mut self, _from: usize, _to: usize, t: Stamp, class: MessageClass) -> Stamp {
        self.traffic.record(class);
        t.advance(Component::Link, self.link)
    }

    fn link_probe(&self, _from: usize, _to: usize, t: Stamp, _class: MessageClass) -> Stamp {
        t.advance(Component::Link, self.link)
    }

    fn mem_read(&mut self, socket: usize, _line: LineAddr, t: Stamp) -> Stamp {
        self.mem_reads[socket] += 1;
        t.advance(Component::BankService, self.dram)
    }

    fn replica_read(&mut self, socket: usize, _line: LineAddr, t: Stamp) -> Stamp {
        self.replica_reads[socket] += 1;
        t.advance(Component::BankService, self.dram)
    }

    fn mem_write(&mut self, socket: usize, _line: LineAddr, t: Stamp) -> Stamp {
        self.mem_writes[socket] += 1;
        t.advance(Component::BankService, self.dram)
    }

    fn replica_write(&mut self, socket: usize, _line: LineAddr, t: Stamp) -> Stamp {
        self.replica_writes[socket] += 1;
        t.advance(Component::BankService, self.dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let f = TestFabric::default();
        assert_eq!(f.l1_latency(), 1);
        assert_eq!(f.llc_latency(), 20);
        assert_eq!(f.dir_latency(), 20);
        assert_eq!(f.mesh_latency(), 2);
    }

    #[test]
    fn counters_track_operations() {
        let mut f = TestFabric::default();
        let t = Stamp::start(0);
        f.mem_read(0, 1, t);
        f.replica_read(1, 1, t);
        f.mem_write(0, 1, t);
        f.replica_write(1, 1, t);
        assert_eq!(f.mem_reads, [1, 0]);
        assert_eq!(f.replica_reads, [0, 1]);
        assert_eq!(f.mem_writes, [1, 0]);
        assert_eq!(f.replica_writes, [0, 1]);
    }

    #[test]
    fn probe_does_not_record_traffic() {
        let f = TestFabric::default();
        let t = f.link_probe(0, 1, Stamp::start(5), MessageClass::DataResponse);
        assert_eq!(t.at(), 155);
        assert_eq!(f.traffic.total_messages(), 0);
    }

    #[test]
    fn charges_are_attributed() {
        let mut f = TestFabric::default();
        let t = f.mem_read(0, 1, Stamp::start(10));
        assert_eq!(t.breakdown().bank_service, 100);
        assert_eq!(t.elapsed(), 100);
        let t = f.link_send(0, 1, t, MessageClass::DataResponse);
        assert_eq!(t.breakdown().link, 150);
        assert_eq!(t.at(), 10 + 100 + 150);
    }
}
