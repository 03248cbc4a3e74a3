//! The inter-node point-to-point links (QPI/UPI-like).
//!
//! §VI: "We use an inter-socket latency of 50ns per hop", with a
//! sensitivity sweep from 30 ns (Fig. 10, NUMA-optimized) to 60 ns
//! (CCIX/OpenCAPI/Gen-Z-class long-range links). Each link also models
//! serialization bandwidth so heavy coherence traffic is charged for
//! wire time.
//!
//! [`LinkTable`] is the one link model: every ordered pair of distinct
//! nodes of a [`Topology`](crate::topology::Topology) gets its own
//! edge. The paper's two-socket machine is the two-node table. The
//! edges are *pipelined*: at the traffic levels any of the paper's
//! workloads generate (worst case ≈ 1.5 GB/s against a 48 GB/s-per-
//! direction QPI-class link, <3% utilization) a queueing model would
//! add nothing but noise, so a message never queues and arrives at
//! `now + service`. Each edge counts the messages it carried and the
//! cycles of wire time they occupied it ([`EdgeCounts`]); message
//! classes and bytes are the fabric's `TrafficStats`, and retries and
//! failed sends are its recovery ledger's.

use dve_sim::time::{Cycles, CORE_CLOCK};

/// Backoff base of a send under an outage: retry `k` is attempted
/// `RETRY_BASE * (2^k - 1)` cycles after the first try.
const RETRY_BASE: u64 = 64;

/// Retries before a send under an outage fails over to local-only.
const MAX_RETRIES: u32 = 6;

/// Outcome of a send attempted under outage windows
/// ([`LinkTable::transfer_resilient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSendOutcome {
    /// The message got onto the wire (possibly after retries); carries
    /// the arrival time at the destination node and the retry count.
    Delivered {
        /// Arrival time at the destination node.
        arrival: Cycles,
        /// Number of retries before the send succeeded (0 = first try).
        retries: u32,
    },
    /// Every attempt of the bounded exponential-backoff schedule fell
    /// inside an outage window; the caller must fall back to
    /// local-copy-only service.
    Failed {
        /// Number of retries burned (always the whole budget of 6).
        retries: u32,
    },
}

/// What one directed edge has carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// Messages sent over the edge.
    pub messages: u64,
    /// Cycles of wire time (serialization + propagation) those messages
    /// occupied the edge.
    pub busy_cycles: u64,
}

/// A full mesh of point-to-point links over an N-node
/// [`Topology`](crate::topology::Topology).
///
/// Every ordered pair of distinct nodes gets its own [`EdgeCounts`]
/// and outage-window list, so edges fail and load independently. A
/// message over edge `from → to` pays the edge's propagation latency
/// (converted at [`CORE_CLOCK`]) plus `ceil(bytes / bytes_per_cycle)`
/// cycles of serialization.
///
/// Outage windows come in two layers: *global* windows (the
/// `dve::chaos::ChaosConfig` whole-fabric outage, consulted by the
/// system's degraded-mode logic) apply to every edge, and *per-edge*
/// windows apply to one direction of one link only. A send under an
/// outage retries with bounded exponential backoff
/// ([`LinkTable::set_outages`]).
///
/// # Example
///
/// ```
/// use dve_noc::link::LinkTable;
/// use dve_noc::topology::{EdgeParams, Topology};
/// use dve_sim::time::Cycles;
///
/// // The paper's two sockets over a 50 ns, 16 B/cycle link at 3 GHz.
/// let mut table = LinkTable::new(&Topology::symmetric(2, EdgeParams::qpi()));
/// let done = table.transfer(0, 1, Cycles(0), 64);
/// assert_eq!(done.raw(), 150 + 4); // 50 ns propagation + 64B/16Bpc
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTable {
    nodes: usize,
    /// Edge index for ordered pair `(from, to)`, `from != to`:
    /// `from * (nodes - 1) + (to - (to > from))`.
    latency: Vec<Cycles>,
    bytes_per_cycle: Vec<u64>,
    counts: Vec<EdgeCounts>,
    /// Whole-fabric outage windows (sorted, non-overlapping).
    global_outages: Vec<(u64, u64)>,
    /// Additional per-edge outage windows.
    edge_outages: Vec<Vec<(u64, u64)>>,
}

impl LinkTable {
    /// Builds the table from a topology's per-edge parameters,
    /// converting latencies at [`CORE_CLOCK`].
    ///
    /// # Panics
    ///
    /// Panics if an edge has zero bandwidth.
    pub fn new(topology: &crate::topology::Topology) -> LinkTable {
        let nodes = topology.nodes();
        let edges = nodes * (nodes - 1);
        let mut latency = Vec::with_capacity(edges);
        let mut bpc = Vec::with_capacity(edges);
        for (from, to) in topology.edges() {
            let e = topology.edge(from, to);
            assert!(e.bytes_per_cycle > 0, "bandwidth must be non-zero");
            latency.push(CORE_CLOCK.cycles_for(e.latency));
            bpc.push(e.bytes_per_cycle);
        }
        LinkTable {
            nodes,
            latency,
            bytes_per_cycle: bpc,
            counts: vec![EdgeCounts::default(); edges],
            global_outages: Vec::new(),
            edge_outages: vec![Vec::new(); edges],
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn idx(&self, from: usize, to: usize) -> usize {
        assert!(
            from < self.nodes && to < self.nodes && from != to,
            "edge endpoints must be distinct nodes in range"
        );
        from * (self.nodes - 1) + to - usize::from(to > from)
    }

    /// One-way propagation latency of the edge `from → to`.
    pub fn latency(&self, from: usize, to: usize) -> Cycles {
        self.latency[self.idx(from, to)]
    }

    fn service(&self, edge: usize, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes_per_cycle[edge]) + self.latency[edge].raw()
    }

    /// Sends `bytes` over the edge `from → to` at `now`; returns the
    /// arrival time and counts the message on the edge.
    pub fn transfer(&mut self, from: usize, to: usize, now: Cycles, bytes: u64) -> Cycles {
        let e = self.idx(from, to);
        let service = self.service(e, bytes);
        let counts = &mut self.counts[e];
        counts.messages += 1;
        counts.busy_cycles += service;
        Cycles(now.raw() + service)
    }

    /// Arrival a send *would* observe, without sending.
    pub fn probe(&self, from: usize, to: usize, now: Cycles, bytes: u64) -> Cycles {
        Cycles(now.raw() + self.service(self.idx(from, to), bytes))
    }

    fn check_windows(windows: &[(u64, u64)]) {
        let mut prev_end = 0u64;
        for &(s, e) in windows {
            assert!(s < e, "outage window [{s}, {e}) is empty or inverted");
            assert!(
                s >= prev_end,
                "outage windows must be sorted and non-overlapping"
            );
            prev_end = e;
        }
    }

    /// Installs whole-fabric outage windows (sorted, non-overlapping,
    /// half-open `[start, end)` in cycles; they apply to every edge).
    ///
    /// A send under an outage ([`LinkTable::transfer_resilient`]) makes
    /// retry `k` (k = 1..=6) at `now + 64 * (2^k - 1)` cycles; the first
    /// attempt time that falls outside every window wins. If all
    /// attempts land inside windows the send fails and the caller must
    /// serve from the local copy only.
    ///
    /// # Panics
    ///
    /// Panics if the windows are empty-width, unsorted or overlapping.
    pub fn set_outages(&mut self, windows: Vec<(u64, u64)>) {
        Self::check_windows(&windows);
        self.global_outages = windows;
    }

    /// Installs outage windows on one ordered edge only — other edges
    /// keep delivering (the per-edge failure-independence the N-node
    /// recovery paths rely on).
    ///
    /// # Panics
    ///
    /// Panics on malformed windows or out-of-range endpoints.
    pub fn set_edge_outages(&mut self, from: usize, to: usize, windows: Vec<(u64, u64)>) {
        Self::check_windows(&windows);
        let e = self.idx(from, to);
        self.edge_outages[e] = windows;
    }

    /// If `now` falls inside a whole-fabric outage window, returns that
    /// window's end.
    pub fn outage_until(&self, now: Cycles) -> Option<Cycles> {
        let t = now.raw();
        self.global_outages
            .iter()
            .find(|&&(s, e)| t >= s && t < e)
            .map(|&(_, e)| Cycles(e))
    }

    /// The first time after `now` at which [`LinkTable::outage_until`]
    /// changes its answer: the next whole-fabric window start or end
    /// strictly later than `now`, if any.
    pub fn next_outage_edge(&self, now: Cycles) -> Option<Cycles> {
        let t = now.raw();
        // Sorted, non-overlapping windows: the edges ascend.
        self.global_outages
            .iter()
            .flat_map(|&(s, e)| [s, e])
            .find(|&edge| edge > t)
            .map(Cycles)
    }

    fn in_outage(&self, edge: usize, t: u64) -> bool {
        let hit = |w: &[(u64, u64)]| w.iter().any(|&(s, e)| t >= s && t < e);
        hit(&self.global_outages) || hit(&self.edge_outages[edge])
    }

    /// The first attempt of the backoff schedule that falls outside
    /// every window, as `(start time, retries)`, or `None` once the
    /// retry budget is exhausted. Attempt `k` starts at
    /// `now + RETRY_BASE * (2^k - 1)`: now, +64, +192, +448, ...
    fn resilient_start(&self, edge: usize, now: u64) -> Option<(u64, u32)> {
        (0..=MAX_RETRIES)
            .map(|k| (now + RETRY_BASE * ((1 << k) - 1), k))
            .find(|&(t, _)| !self.in_outage(edge, t))
    }

    /// Sends `bytes` over `from → to` at `now` under the configured
    /// outage windows: the message is retried with bounded exponential
    /// backoff until an attempt falls outside every global and per-edge
    /// window, then pays the normal serialization + propagation cost
    /// from that attempt time. With no outage windows this is exactly
    /// [`LinkTable::transfer`] (same arrival, same edge counts). A
    /// failed send never reaches the wire and counts nothing.
    pub fn transfer_resilient(
        &mut self,
        from: usize,
        to: usize,
        now: Cycles,
        bytes: u64,
    ) -> LinkSendOutcome {
        let e = self.idx(from, to);
        match self.resilient_start(e, now.raw()) {
            Some((start, retries)) => {
                let arrival = self.transfer(from, to, Cycles(start), bytes);
                LinkSendOutcome::Delivered { arrival, retries }
            }
            None => LinkSendOutcome::Failed {
                retries: MAX_RETRIES,
            },
        }
    }

    /// What the ordered edge `from → to` has carried.
    pub fn edge_counts(&self, from: usize, to: usize) -> EdgeCounts {
        self.counts[self.idx(from, to)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{EdgeParams, Topology};
    use dve_sim::time::Nanos;

    fn table(nodes: usize) -> LinkTable {
        LinkTable::new(&Topology::symmetric(nodes, EdgeParams::qpi()))
    }

    /// The paper's two-socket link.
    fn link() -> LinkTable {
        table(2)
    }

    #[test]
    fn uncontended_latency() {
        let mut l = link();
        // 64-byte line: 4 cycles serialization + 150 cycles propagation.
        assert_eq!(l.transfer(0, 1, Cycles(0), 64), Cycles(154));
        // Small control message: 1 cycle + 150.
        assert_eq!(l.transfer(1, 0, Cycles(0), 8), Cycles(151));
    }

    #[test]
    fn pipelined_same_direction_messages_do_not_queue() {
        let mut l = link();
        let a = l.transfer(0, 1, Cycles(0), 64);
        let b = l.transfer(0, 1, Cycles(0), 64);
        assert_eq!(a, b, "pipelined link: identical send times arrive together");
        assert_eq!(l.edge_counts(0, 1).messages, 2);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        let a = l.transfer(0, 1, Cycles(0), 64);
        let b = l.transfer(1, 0, Cycles(0), 64);
        assert_eq!(a, b, "full duplex: no cross-direction interference");
        assert_eq!(l.edge_counts(0, 1).messages, 1);
        assert_eq!(l.edge_counts(1, 0).messages, 1);
    }

    #[test]
    fn traffic_is_counted() {
        let mut l = link();
        l.transfer(0, 1, Cycles(0), 64);
        l.transfer(1, 0, Cycles(0), 8);
        l.transfer(1, 0, Cycles(0), 8);
        let counts = |messages, busy_cycles| EdgeCounts {
            messages,
            busy_cycles,
        };
        assert_eq!(l.edge_counts(0, 1), counts(1, 154));
        assert_eq!(l.edge_counts(1, 0), counts(2, 2 * 151));
    }

    #[test]
    fn probe_matches_transfer_without_side_effects() {
        let mut l = link();
        let predicted = l.probe(0, 1, Cycles(0), 64);
        let actual = l.transfer(0, 1, Cycles(0), 64);
        assert_eq!(predicted, actual);
        assert_eq!(l.edge_counts(0, 1).messages, 1, "probe did not count");
    }

    #[test]
    fn port_occupancy_is_tracked() {
        let mut l = link();
        l.transfer(0, 1, Cycles(0), 64); // 4 + 150 cycles of wire time
        let s = l.edge_counts(0, 1);
        assert_eq!(s.busy_cycles, 154);
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn latency_sweep_matches_fig10_points() {
        for (ns, cycles) in [(30u64, 90u64), (50, 150), (60, 180)] {
            let edge = EdgeParams {
                latency: Nanos(ns),
                ..EdgeParams::qpi()
            };
            let l = LinkTable::new(&Topology::symmetric(2, edge));
            assert_eq!(l.latency(0, 1).raw(), cycles);
            assert_eq!(l.latency(1, 0).raw(), cycles);
        }
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn self_transfer_rejected() {
        link().transfer(0, 0, Cycles(0), 64);
    }

    #[test]
    fn resilient_without_outages_matches_transfer() {
        let mut a = link();
        let mut b = link();
        let plain = a.transfer(0, 1, Cycles(10), 64);
        match b.transfer_resilient(0, 1, Cycles(10), 64) {
            LinkSendOutcome::Delivered { arrival, retries } => {
                assert_eq!(arrival, plain);
                assert_eq!(retries, 0);
            }
            LinkSendOutcome::Failed { .. } => panic!("no outage, must deliver"),
        }
        assert_eq!(a.edge_counts(0, 1), b.edge_counts(0, 1));
    }

    #[test]
    fn outage_forces_exponential_backoff() {
        let mut l = link();
        // Window [0, 250): attempts at 0, 64, 192, 448 — the fourth
        // attempt (retry 3, at 64*(2^3-1) = 448) clears the window.
        l.set_outages(vec![(0, 250)]);
        match l.transfer_resilient(0, 1, Cycles(0), 64) {
            LinkSendOutcome::Delivered { arrival, retries } => {
                assert_eq!(retries, 3);
                // start 448 + 4 serialization + 150 propagation.
                assert_eq!(arrival, Cycles(448 + 4 + 150));
            }
            LinkSendOutcome::Failed { .. } => panic!("retry budget was sufficient"),
        }
        assert_eq!(l.edge_counts(0, 1).messages, 1, "one message on the wire");
    }

    #[test]
    fn outage_exhausts_bounded_retry_budget() {
        let mut l = link();
        // Budget of 6 retries: the last attempt is at 64*(2^6-1) =
        // 4032, still inside.
        l.set_outages(vec![(0, 4_033)]);
        assert_eq!(
            l.transfer_resilient(0, 1, Cycles(0), 64),
            LinkSendOutcome::Failed { retries: 6 }
        );
        assert_eq!(
            l.edge_counts(0, 1),
            EdgeCounts::default(),
            "failed send never hits the wire"
        );
    }

    #[test]
    fn outage_until_reports_window_end() {
        let mut l = link();
        l.set_outages(vec![(100, 200), (500, 600)]);
        assert_eq!(l.outage_until(Cycles(50)), None);
        assert_eq!(l.outage_until(Cycles(150)), Some(Cycles(200)));
        assert_eq!(l.outage_until(Cycles(200)), None, "half-open window");
        assert_eq!(l.outage_until(Cycles(599)), Some(Cycles(600)));
        // The answer above only changes at the next edge after `now`.
        assert_eq!(l.next_outage_edge(Cycles(0)), Some(Cycles(100)));
        assert_eq!(l.next_outage_edge(Cycles(100)), Some(Cycles(200)));
        assert_eq!(l.next_outage_edge(Cycles(200)), Some(Cycles(500)));
        assert_eq!(l.next_outage_edge(Cycles(599)), Some(Cycles(600)));
        assert_eq!(l.next_outage_edge(Cycles(600)), None);
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn overlapping_outages_rejected() {
        link().set_outages(vec![(0, 100), (50, 200)]);
    }

    #[test]
    fn table_on_two_nodes_matches_the_closed_form() {
        let mut tab = link();
        // A mixed traffic pattern in both directions, including
        // same-cycle pipelined sends: every arrival is
        // `now + ceil(bytes / 16) + 150`.
        let msgs = [
            (0usize, 1usize, 0u64, 64u64),
            (0, 1, 0, 64),
            (1, 0, 10, 8),
            (0, 1, 200, 192),
            (1, 0, 200, 64),
        ];
        let mut busy = [0u64; 2];
        for &(f, t, at, bytes) in &msgs {
            let service = bytes.div_ceil(16) + 150;
            assert_eq!(
                tab.transfer(f, t, Cycles(at), bytes),
                Cycles(at + service),
                "send {f}->{t} at {at}"
            );
            busy[f] += service;
        }
        let sent = |f: usize| msgs.iter().filter(|m| m.0 == f).count() as u64;
        for (f, t) in [(0, 1), (1, 0)] {
            let counts = tab.edge_counts(f, t);
            assert_eq!((counts.messages, counts.busy_cycles), (sent(f), busy[f]));
        }
        // A resilient send under a global outage starts at the first
        // backoff attempt outside the window, then pays the same cost.
        tab.set_outages(vec![(0, 250)]);
        assert_eq!(
            tab.transfer_resilient(0, 1, Cycles(0), 64),
            LinkSendOutcome::Delivered {
                arrival: Cycles(448 + 4 + 150),
                retries: 3
            },
        );
    }

    #[test]
    fn table_edges_are_independent() {
        let mut t = table(4);
        let a = t.transfer(0, 1, Cycles(0), 64);
        let b = t.transfer(2, 3, Cycles(0), 64);
        assert_eq!(a, b, "disjoint edges do not interfere");
        assert_eq!(t.edge_counts(0, 1).messages, 1);
        assert_eq!(t.edge_counts(2, 3).messages, 1);
        assert_eq!(t.edge_counts(1, 0).messages, 0, "directions are distinct");
        assert_eq!(t.edge_counts(3, 2).messages, 0);
    }

    #[test]
    fn per_edge_outage_only_stalls_that_edge() {
        let mut t = table(3);
        t.set_edge_outages(0, 1, vec![(0, 250)]);
        // The edge under outage retries...
        match t.transfer_resilient(0, 1, Cycles(0), 64) {
            LinkSendOutcome::Delivered { retries, .. } => assert_eq!(retries, 3),
            LinkSendOutcome::Failed { .. } => panic!("budget was sufficient"),
        }
        // ...while the reverse direction and other edges deliver
        // immediately.
        for (f, to) in [(1usize, 0usize), (0, 2), (2, 1)] {
            match t.transfer_resilient(f, to, Cycles(0), 64) {
                LinkSendOutcome::Delivered { retries, arrival } => {
                    assert_eq!(retries, 0, "{f}->{to}");
                    assert_eq!(arrival, Cycles(154));
                }
                LinkSendOutcome::Failed { .. } => panic!("no outage on {f}->{to}"),
            }
        }
    }

    #[test]
    fn global_outage_stalls_every_edge() {
        let mut t = table(3);
        t.set_outages(vec![(0, 5_000)]);
        for (f, to) in [(0usize, 1usize), (1, 2), (2, 0)] {
            assert_eq!(
                t.transfer_resilient(f, to, Cycles(0), 64),
                LinkSendOutcome::Failed { retries: 6 },
                "{f}->{to}"
            );
            assert_eq!(t.edge_counts(f, to), EdgeCounts::default());
        }
        assert_eq!(t.outage_until(Cycles(500)), Some(Cycles(5_000)));
    }

    #[test]
    fn heterogeneous_edges_charge_their_own_parameters() {
        let topo = Topology::two_tier(EdgeParams::qpi(), EdgeParams::far_tier());
        let mut t = LinkTable::new(&topo);
        // Socket-socket: 150 + 64/16 = 154. Socket-far: 270 + 64/8 = 278.
        assert_eq!(t.transfer(0, 1, Cycles(0), 64), Cycles(154));
        assert_eq!(t.transfer(0, 2, Cycles(0), 64), Cycles(278));
        assert_eq!(t.latency(0, 2), Cycles(270));
    }

    #[test]
    fn table_probe_matches_transfer() {
        let mut t = table(3);
        assert_eq!(t.edge_counts(1, 2), EdgeCounts::default());
        let predicted = t.probe(1, 2, Cycles(7), 100);
        assert_eq!(
            t.edge_counts(1, 2),
            EdgeCounts::default(),
            "probe did not count"
        );
        assert_eq!(t.transfer(1, 2, Cycles(7), 100), predicted);
        assert_eq!(t.edge_counts(1, 2).messages, 1);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn table_self_edge_rejected() {
        table(3).transfer(1, 1, Cycles(0), 64);
    }
}
