//! N-node system topology and replica placement.
//!
//! The paper's system is hard-wired to two sockets: every layer above
//! the link can say "the other socket" and be done. Generalizing to N
//! nodes (and to a disaggregated far-memory tier, following the
//! two-tier replication-based protection scheme of Volos & Sazeides,
//! arXiv 2502.17138) needs two first-class concepts:
//!
//! * [`Topology`] — the node set (compute [`NodeKind::Socket`]s and
//!   [`NodeKind::FarMemory`] pools) and the per-edge link parameters
//!   (latency, serialization bandwidth) of the point-to-point fabric
//!   connecting them.
//! * [`PlacementMap`] — the pure-arithmetic placement function: which
//!   node is *home* for a line, and which node holds its *replica*.
//!   The two-socket mirror is one policy among several; the others are
//!   round-robin N-way striping and the two-tier local-compressed +
//!   remote-full scheme.
//!
//! Golden preservation: [`PlacementPolicy::Mirror2`] on a two-socket
//! topology reproduces the original hard-wired arithmetic exactly —
//! `home = (line / page_lines) % 2` and `replica = 1 - home` — so
//! every pinned cycle-exact golden is reachable from the generic
//! layer. (Round-robin at N = 2 degenerates to the same function; the
//! mirror policy exists so the golden anchor is explicit, not an
//! accident of modular arithmetic.)

use dve_sim::time::Nanos;

/// A node identifier: index into the topology's node table. Sockets
/// come first (`0..sockets`), far-memory nodes after.
pub type NodeId = usize;

/// What hardware a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A compute socket: cores, caches, a directory slice, and local
    /// DRAM. Only sockets can be *home* for a line.
    Socket,
    /// A disaggregated memory pool (CXL-class): DRAM and a controller,
    /// no cores. Holds full replicas in the two-tier scheme.
    FarMemory,
}

/// Per-edge link parameters (one direction of a point-to-point link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeParams {
    /// One-way propagation latency.
    pub latency: Nanos,
    /// Serialization bandwidth in bytes per core cycle.
    pub bytes_per_cycle: u64,
}

impl EdgeParams {
    /// The paper's Table II link: 50 ns, 16 B/cycle.
    pub fn qpi() -> EdgeParams {
        EdgeParams {
            latency: Nanos(50),
            bytes_per_cycle: 16,
        }
    }

    /// A CXL-class far-memory hop: longer wire, narrower serialization
    /// (the far tier trades latency for capacity).
    pub fn far_tier() -> EdgeParams {
        EdgeParams {
            latency: Nanos(90),
            bytes_per_cycle: 8,
        }
    }
}

/// The node set and per-edge link parameters of an N-node system.
///
/// Edges exist between every ordered pair of distinct nodes (the
/// fabric is a full mesh of point-to-point links); each edge carries
/// its own latency/bandwidth, defaulting to `Topology::default_edge`
/// unless overridden per edge.
///
/// # Example
///
/// ```
/// use dve_noc::topology::{EdgeParams, NodeKind, Topology};
///
/// let t = Topology::symmetric(4, EdgeParams::qpi());
/// assert_eq!(t.nodes(), 4);
/// assert_eq!(t.sockets(), 4);
/// assert_eq!(t.kind(3), NodeKind::Socket);
///
/// let tt = Topology::two_tier(EdgeParams::qpi(), EdgeParams::far_tier());
/// assert_eq!(tt.nodes(), 3);
/// assert_eq!(tt.sockets(), 2);
/// assert_eq!(tt.kind(2), NodeKind::FarMemory);
/// assert!(tt.edge(0, 2).latency > tt.edge(0, 1).latency);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    default_edge: EdgeParams,
    /// Sparse per-edge overrides, keyed by ordered `(from, to)`.
    overrides: Vec<((NodeId, NodeId), EdgeParams)>,
}

impl Topology {
    /// `sockets` identical compute sockets, full mesh of identical
    /// links.
    ///
    /// # Panics
    ///
    /// Panics if `sockets < 2` (replication needs a second node).
    pub fn symmetric(sockets: usize, edge: EdgeParams) -> Topology {
        assert!(sockets >= 2, "replication needs at least two sockets");
        Topology {
            kinds: vec![NodeKind::Socket; sockets],
            default_edge: edge,
            overrides: Vec::new(),
        }
    }

    /// The paper's two-socket system.
    pub fn mirror2(edge: EdgeParams) -> Topology {
        Topology::symmetric(2, edge)
    }

    /// Two sockets plus one far-memory pool; every edge touching the
    /// far node uses `far_edge`.
    pub fn two_tier(socket_edge: EdgeParams, far_edge: EdgeParams) -> Topology {
        let mut t = Topology {
            kinds: vec![NodeKind::Socket, NodeKind::Socket, NodeKind::FarMemory],
            default_edge: socket_edge,
            overrides: Vec::new(),
        };
        let far = 2;
        for s in 0..2 {
            t.set_edge(s, far, far_edge);
            t.set_edge(far, s, far_edge);
        }
        t
    }

    /// Total node count (sockets + far-memory pools).
    pub fn nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of compute sockets (always the node-id prefix `0..sockets`).
    pub fn sockets(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| **k == NodeKind::Socket)
            .count()
    }

    /// The kind of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node]
    }

    /// Overrides the parameters of the ordered edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are out of range or equal.
    pub fn set_edge(&mut self, from: NodeId, to: NodeId, edge: EdgeParams) {
        assert!(from < self.nodes() && to < self.nodes() && from != to);
        if let Some(slot) = self
            .overrides
            .iter_mut()
            .find(|((f, t), _)| (*f, *t) == (from, to))
        {
            slot.1 = edge;
        } else {
            self.overrides.push(((from, to), edge));
        }
    }

    /// The parameters of the ordered edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are out of range or equal.
    pub fn edge(&self, from: NodeId, to: NodeId) -> EdgeParams {
        assert!(
            from < self.nodes() && to < self.nodes() && from != to,
            "edge endpoints must be distinct nodes in range"
        );
        self.overrides
            .iter()
            .find(|((f, t), _)| (*f, *t) == (from, to))
            .map(|&(_, e)| e)
            .unwrap_or(self.default_edge)
    }

    /// All ordered edges `(from, to)` with `from != to`, in
    /// deterministic `(from, to)` lexicographic order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.nodes();
        let mut out = Vec::with_capacity(n * (n - 1));
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    out.push((from, to));
                }
            }
        }
        out
    }
}

/// Which placement function maps a line's home to its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The paper's two-socket mirror: `replica = 1 - home`. The
    /// golden-preserving default; only valid on two-socket topologies.
    Mirror2,
    /// Round-robin N-way: pages striped across the *other* sockets,
    /// `replica = (home + 1 + page % (sockets-1)) % sockets`. At
    /// N = 2 this degenerates to the mirror.
    RoundRobin,
    /// Two-tier (Volos & Sazeides): the coherent full replica lives on
    /// a far-memory node; the home node additionally keeps a local
    /// compressed copy for fast recovery (capacity-accounted, not
    /// timed — see DESIGN.md §15 for the fidelity remainder).
    TwoTier {
        /// The far-memory node holding full replicas.
        far: NodeId,
    },
}

/// The pure-arithmetic placement map every layer shares: line → home
/// node, line → replica node. Cheap to copy into the engine, the
/// fabric, and the conformance shadow so they provably agree.
///
/// # Example
///
/// ```
/// use dve_noc::topology::{PlacementMap, PlacementPolicy};
///
/// // The paper's layout: 2 sockets, 64-line pages.
/// let m = PlacementMap::new(2, 64, PlacementPolicy::Mirror2);
/// assert_eq!(m.home_of(0), 0);
/// assert_eq!(m.home_of(64), 1);
/// assert_eq!(m.replica_node(0), 1);
/// assert_eq!(m.replica_node(64), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementMap {
    sockets: usize,
    page_lines: u64,
    policy: PlacementPolicy,
}

impl PlacementMap {
    /// Builds a placement map.
    ///
    /// # Panics
    ///
    /// Panics if `sockets < 2`, `page_lines == 0`, if `Mirror2` is used
    /// with more than two sockets, or if a `TwoTier` far node collides
    /// with the socket range.
    pub fn new(sockets: usize, page_lines: u64, policy: PlacementPolicy) -> PlacementMap {
        assert!(sockets >= 2, "placement needs at least two sockets");
        assert!(page_lines > 0, "page_lines must be non-zero");
        match policy {
            PlacementPolicy::Mirror2 => {
                assert_eq!(sockets, 2, "the mirror policy is two-socket by definition");
            }
            PlacementPolicy::RoundRobin => {}
            PlacementPolicy::TwoTier { far } => {
                assert!(far >= sockets, "the far node must lie outside the sockets");
            }
        }
        PlacementMap {
            sockets,
            page_lines,
            policy,
        }
    }

    /// Number of compute sockets (home candidates).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Lines per page (the placement granule).
    pub fn page_lines(&self) -> u64 {
        self.page_lines
    }

    /// The policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Total nodes the placement can name (sockets, plus the far node
    /// for two-tier).
    pub fn nodes(&self) -> usize {
        match self.policy {
            PlacementPolicy::TwoTier { far } => (far + 1).max(self.sockets),
            _ => self.sockets,
        }
    }

    /// The page a line belongs to.
    pub fn page_of(&self, line: u64) -> u64 {
        line / self.page_lines
    }

    /// The home socket of a line: pages interleave round-robin across
    /// sockets (the two-socket case is the paper's parity rule).
    pub fn home_of(&self, line: u64) -> NodeId {
        (self.page_of(line) % self.sockets as u64) as usize
    }

    /// The node holding the coherent replica of `line`.
    pub fn replica_node(&self, line: u64) -> NodeId {
        let home = self.home_of(line);
        match self.policy {
            PlacementPolicy::Mirror2 => 1 - home,
            PlacementPolicy::RoundRobin => {
                let others = self.sockets as u64 - 1;
                (home + 1 + (self.page_of(line) % others) as usize) % self.sockets
            }
            PlacementPolicy::TwoTier { far } => far,
        }
    }

    /// The node holding an auxiliary (recovery-only) local compressed
    /// copy, if the policy keeps one.
    pub fn local_copy_node(&self, line: u64) -> Option<NodeId> {
        match self.policy {
            PlacementPolicy::TwoTier { .. } => Some(self.home_of(line)),
            _ => None,
        }
    }

    /// Whether a core on `node` can be served by the coherent replica
    /// of `line` (it is co-located with the replica and is not the
    /// home).
    pub fn serves_replica_locally(&self, node: NodeId, line: u64) -> bool {
        node != self.home_of(line) && node == self.replica_node(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror2_matches_the_hardwired_arithmetic() {
        let m = PlacementMap::new(2, 64, PlacementPolicy::Mirror2);
        for line in 0..1024u64 {
            let home = ((line / 64) % 2) as usize;
            assert_eq!(m.home_of(line), home);
            assert_eq!(m.replica_node(line), 1 - home, "line {line}");
            assert!(m.serves_replica_locally(1 - home, line));
            assert!(!m.serves_replica_locally(home, line));
        }
        assert_eq!(m.local_copy_node(0), None);
    }

    #[test]
    fn round_robin_at_two_sockets_degenerates_to_the_mirror() {
        let mirror = PlacementMap::new(2, 64, PlacementPolicy::Mirror2);
        let rr = PlacementMap::new(2, 64, PlacementPolicy::RoundRobin);
        for line in 0..4096u64 {
            assert_eq!(mirror.home_of(line), rr.home_of(line));
            assert_eq!(mirror.replica_node(line), rr.replica_node(line));
        }
    }

    #[test]
    fn round_robin_never_places_replica_at_home_and_covers_all_peers() {
        for sockets in 2..=6usize {
            let m = PlacementMap::new(sockets, 8, PlacementPolicy::RoundRobin);
            let mut seen = vec![std::collections::HashSet::new(); sockets];
            for line in 0..(8 * 64 * sockets as u64) {
                let home = m.home_of(line);
                let rep = m.replica_node(line);
                assert_ne!(home, rep, "sockets {sockets} line {line}");
                assert!(rep < sockets, "replica stays on a socket");
                seen[home].insert(rep);
            }
            for (home, peers) in seen.iter().enumerate() {
                assert_eq!(
                    peers.len(),
                    sockets - 1,
                    "home {home} stripes replicas over every other socket"
                );
            }
        }
    }

    #[test]
    fn two_tier_replicates_to_the_far_node_with_a_local_copy() {
        let m = PlacementMap::new(2, 64, PlacementPolicy::TwoTier { far: 2 });
        assert_eq!(m.nodes(), 3);
        for line in 0..512u64 {
            assert_eq!(m.replica_node(line), 2);
            assert_eq!(m.local_copy_node(line), Some(m.home_of(line)));
            // No core lives on the far node, so nothing is served
            // replica-locally.
            for node in 0..2 {
                assert!(!m.serves_replica_locally(node, line));
            }
        }
    }

    #[test]
    fn topology_edges_and_overrides() {
        let mut t = Topology::symmetric(3, EdgeParams::qpi());
        assert_eq!(t.edges().len(), 6);
        let slow = EdgeParams {
            latency: Nanos(60),
            bytes_per_cycle: 16,
        };
        t.set_edge(0, 2, slow);
        assert_eq!(t.edge(0, 2), slow);
        assert_eq!(t.edge(2, 0), EdgeParams::qpi(), "overrides are directional");
        // Re-override replaces in place.
        t.set_edge(0, 2, EdgeParams::qpi());
        assert_eq!(t.edge(0, 2), EdgeParams::qpi());
    }

    #[test]
    #[should_panic(expected = "two-socket by definition")]
    fn mirror_rejects_more_sockets() {
        PlacementMap::new(4, 64, PlacementPolicy::Mirror2);
    }

    #[test]
    #[should_panic(expected = "outside the sockets")]
    fn two_tier_far_node_must_not_be_a_socket() {
        PlacementMap::new(2, 64, PlacementPolicy::TwoTier { far: 1 });
    }
}
