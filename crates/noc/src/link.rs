//! The inter-socket point-to-point link (QPI/UPI-like).
//!
//! §VI: "We use an inter-socket latency of 50ns per hop", with a
//! sensitivity sweep from 30 ns (Fig. 10, NUMA-optimized) to 60 ns
//! (CCIX/OpenCAPI/Gen-Z-class long-range links). The link also models
//! serialization bandwidth so heavy coherence traffic is charged for
//! wire time.
//!
//! Occupancy and traffic accounting sit on a pair of
//! [`dve_sim::resource::Resource`] ports — one per direction — instead
//! of the hand-rolled counters this module used to keep. The ports are
//! *pipelined*: at the traffic levels any of the paper's workloads
//! generate (worst case ≈ 1.5 GB/s against a 48 GB/s-per-direction
//! QPI-class link, <3% utilization) a queueing model would add nothing
//! but noise, so messages never queue; the ports still record grants,
//! occupancy and (trivially zero) queue cycles uniformly with every
//! other timed substrate.

use dve_sim::resource::{Resource, ResourceStats};
use dve_sim::time::{Cycles, Frequency, Nanos};

/// Outcome of a send attempted under outage windows
/// ([`InterSocketLink::transfer_resilient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSendOutcome {
    /// The message got onto the wire (possibly after retries); carries
    /// the arrival time at the far socket and the retry count.
    Delivered {
        /// Arrival time at the destination socket.
        arrival: Cycles,
        /// Number of retries before the send succeeded (0 = first try).
        retries: u32,
    },
    /// Every attempt of the bounded exponential-backoff schedule fell
    /// inside an outage window; the caller must fall back to
    /// local-copy-only service.
    Failed {
        /// Number of retries burned (always `max_retries`).
        retries: u32,
    },
}

/// A full-duplex point-to-point link between two sockets.
///
/// Each message pays the propagation latency plus a serialization delay
/// of `bytes / bytes_per_cycle` cycles, charged through a pipelined
/// [`Resource`] port per direction.
///
/// # Example
///
/// ```
/// use dve_noc::link::InterSocketLink;
/// use dve_sim::time::{Cycles, Frequency, Nanos};
///
/// let mut link = InterSocketLink::new(Nanos(50), Frequency::ghz(3.0), 16);
/// let done = link.transfer(0, 1, Cycles(0), 64);
/// assert_eq!(done.raw(), 150 + 4); // 50 ns propagation + 64B/16Bpc
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterSocketLink {
    latency: Cycles,
    bytes_per_cycle: u64,
    /// Directional occupancy ports; index = source socket.
    ports: [Resource; 2],
    bytes: [u64; 2],
    /// Sorted, non-overlapping half-open outage windows `[start, end)`
    /// in cycles. Sends whose attempt time falls inside a window are
    /// retried with bounded exponential backoff.
    outages: Vec<(u64, u64)>,
    /// Backoff base: retry `k` is attempted at `now + base * (2^k - 1)`.
    retry_base: u64,
    /// Maximum number of retries before a send is declared failed.
    max_retries: u32,
    /// Total retries across all resilient sends.
    retries: u64,
    /// Sends that exhausted the retry budget.
    failed_sends: u64,
}

impl InterSocketLink {
    /// Creates a link with propagation latency `latency` (converted at
    /// `clock`) and serialization bandwidth `bytes_per_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(latency: Nanos, clock: Frequency, bytes_per_cycle: u64) -> InterSocketLink {
        assert!(bytes_per_cycle > 0, "bandwidth must be non-zero");
        InterSocketLink {
            latency: clock.cycles_for(latency),
            bytes_per_cycle,
            ports: [Resource::pipelined(), Resource::pipelined()],
            bytes: [0; 2],
            outages: Vec::new(),
            retry_base: 64,
            max_retries: 6,
            retries: 0,
            failed_sends: 0,
        }
    }

    /// The paper's default: 50 ns at 3 GHz, 16 B/cycle.
    pub fn default_qpi() -> InterSocketLink {
        Self::new(Nanos(50), Frequency::ghz(3.0), 16)
    }

    /// One-way propagation latency in cycles.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    fn dir(from: usize, to: usize) -> usize {
        assert!(
            from < 2 && to < 2 && from != to,
            "link endpoints are sockets 0 and 1"
        );
        from // direction index equals the source socket
    }

    fn service(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes_per_cycle) + self.latency.raw()
    }

    /// Sends `bytes` from socket `from` to socket `to` at time `now`;
    /// returns the arrival time (after serialization and propagation)
    /// and records the message on the directional port.
    pub fn transfer(&mut self, from: usize, to: usize, now: Cycles, bytes: u64) -> Cycles {
        let d = Self::dir(from, to);
        let service = self.service(bytes);
        let grant = self.ports[d].acquire(now.raw(), service);
        self.bytes[d] += bytes;
        debug_assert_eq!(grant.queued, 0, "pipelined link must never queue");
        Cycles(grant.complete_at)
    }

    /// Arrival time a message *would* observe, without sending it or
    /// recording traffic (for speculative-access latency estimates).
    pub fn probe(&self, from: usize, to: usize, now: Cycles, bytes: u64) -> Cycles {
        let d = Self::dir(from, to);
        Cycles(
            self.ports[d]
                .probe(now.raw(), self.service(bytes))
                .complete_at,
        )
    }

    /// Installs outage windows (sorted, non-overlapping, half-open
    /// `[start, end)` in cycles) and the bounded exponential-backoff
    /// retry policy used by [`transfer_resilient`].
    ///
    /// Retry `k` (k = 1..=`max_retries`) is attempted at
    /// `now + retry_base * (2^k - 1)`; the first attempt time that
    /// falls outside every window wins. If all attempts land inside
    /// windows the send fails and the caller must serve from the local
    /// copy only.
    ///
    /// [`transfer_resilient`]: InterSocketLink::transfer_resilient
    ///
    /// # Panics
    ///
    /// Panics if the windows are empty-width, unsorted or overlapping,
    /// or if `retry_base` is zero.
    pub fn set_outages(&mut self, windows: Vec<(u64, u64)>, retry_base: u64, max_retries: u32) {
        assert!(retry_base > 0, "retry backoff base must be non-zero");
        let mut prev_end = 0u64;
        for &(s, e) in &windows {
            assert!(s < e, "outage window [{s}, {e}) is empty or inverted");
            assert!(
                s >= prev_end,
                "outage windows must be sorted and non-overlapping"
            );
            prev_end = e;
        }
        self.outages = windows;
        self.retry_base = retry_base;
        self.max_retries = max_retries;
    }

    /// If `now` falls inside an outage window, returns that window's
    /// end (the first cycle service resumes).
    pub fn outage_until(&self, now: Cycles) -> Option<Cycles> {
        let t = now.raw();
        self.outages
            .iter()
            .find(|&&(s, e)| t >= s && t < e)
            .map(|&(_, e)| Cycles(e))
    }

    /// The end of the last configured outage window, if any.
    pub fn last_outage_end(&self) -> Option<Cycles> {
        self.outages.last().map(|&(_, e)| Cycles(e))
    }

    fn in_outage(&self, t: u64) -> bool {
        self.outages.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// The backoff schedule: attempt `k`'s start time, or `None` once
    /// the retry budget is exhausted. The first attempt (`k == 0`) is
    /// at `now` itself.
    fn attempt_time(&self, now: u64, k: u32) -> Option<u64> {
        if k > self.max_retries {
            return None;
        }
        // base * (2^k - 1): 0, base, 3*base, 7*base, ...
        let factor = (1u64 << k.min(63)) - 1;
        Some(now + self.retry_base.saturating_mul(factor))
    }

    /// First attempt start time outside every outage window, with the
    /// retry count it took; `None` when the budget is exhausted.
    fn resilient_start(&self, now: u64) -> Option<(u64, u32)> {
        for k in 0..=self.max_retries {
            let t = self.attempt_time(now, k)?;
            if !self.in_outage(t) {
                return Some((t, k));
            }
        }
        None
    }

    /// Sends `bytes` from `from` to `to` at `now` under the configured
    /// outage windows: the message is retried with bounded exponential
    /// backoff until an attempt falls outside every window, then pays
    /// the normal serialization + propagation cost from that attempt
    /// time. With no outage windows configured this is exactly
    /// [`transfer`] (same arrival, same port accounting).
    ///
    /// [`transfer`]: InterSocketLink::transfer
    pub fn transfer_resilient(
        &mut self,
        from: usize,
        to: usize,
        now: Cycles,
        bytes: u64,
    ) -> LinkSendOutcome {
        match self.resilient_start(now.raw()) {
            Some((start, retries)) => {
                self.retries += u64::from(retries);
                let arrival = self.transfer(from, to, Cycles(start), bytes);
                LinkSendOutcome::Delivered { arrival, retries }
            }
            None => {
                self.failed_sends += 1;
                LinkSendOutcome::Failed {
                    retries: self.max_retries,
                }
            }
        }
    }

    /// The arrival a resilient send *would* observe, without sending
    /// or recording anything (mirror of [`probe`] for the outage path).
    ///
    /// [`probe`]: InterSocketLink::probe
    pub fn probe_resilient(
        &self,
        from: usize,
        to: usize,
        now: Cycles,
        bytes: u64,
    ) -> LinkSendOutcome {
        match self.resilient_start(now.raw()) {
            Some((start, retries)) => LinkSendOutcome::Delivered {
                arrival: self.probe(from, to, Cycles(start), bytes),
                retries,
            },
            None => LinkSendOutcome::Failed {
                retries: self.max_retries,
            },
        }
    }

    /// Total retries across all resilient sends.
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    /// Resilient sends that exhausted the retry budget.
    pub fn failed_sends(&self) -> u64 {
        self.failed_sends
    }

    /// Port statistics for one direction (`dir` = source socket).
    pub fn port_stats(&self, dir: usize) -> ResourceStats {
        self.ports[dir].stats()
    }

    /// Total messages sent in both directions.
    pub fn total_messages(&self) -> u64 {
        self.ports[0].stats().grants + self.ports[1].stats().grants
    }

    /// Total bytes sent in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes[0] + self.bytes[1]
    }

    /// Resets the traffic counters (not the occupancy or the outage
    /// configuration).
    pub fn reset_counters(&mut self) {
        self.ports[0].reset_stats();
        self.ports[1].reset_stats();
        self.bytes = [0; 2];
        self.retries = 0;
        self.failed_sends = 0;
    }
}

/// A full mesh of point-to-point links over an N-node
/// [`Topology`](crate::topology::Topology): the per-edge
/// generalization of [`InterSocketLink`].
///
/// Every ordered pair of distinct nodes gets its own pipelined
/// [`Resource`] port, byte counter, and outage-window list, so edges
/// fail and congest independently. On a two-node topology with the
/// paper's link parameters this is cycle-identical to
/// [`InterSocketLink`]: the same service formula
/// (`bytes/bytes_per_cycle + latency`) against the same pipelined port
/// arithmetic, one port per direction.
///
/// Outage windows come in two layers: *global* windows (the original
/// `dve::chaos::ChaosConfig`-style whole-fabric outage, consulted by
/// the system's degraded-mode logic) apply to every edge, and
/// *per-edge* windows apply to one direction of one link only. A send
/// retries with the same bounded exponential backoff as the two-socket
/// link.
///
/// # Example
///
/// ```
/// use dve_noc::link::{InterSocketLink, LinkTable};
/// use dve_noc::topology::{EdgeParams, Topology};
/// use dve_sim::time::{Cycles, Frequency};
///
/// let t = Topology::symmetric(2, EdgeParams::qpi());
/// let mut table = LinkTable::new(&t, Frequency::ghz(3.0));
/// let mut pair = InterSocketLink::default_qpi();
/// assert_eq!(
///     table.transfer(0, 1, Cycles(0), 64),
///     pair.transfer(0, 1, Cycles(0), 64),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTable {
    nodes: usize,
    /// Edge index for ordered pair `(from, to)`, `from != to`:
    /// `from * (nodes - 1) + (to - (to > from))`.
    latency: Vec<Cycles>,
    bytes_per_cycle: Vec<u64>,
    ports: Vec<Resource>,
    bytes: Vec<u64>,
    /// Whole-fabric outage windows (sorted, non-overlapping).
    global_outages: Vec<(u64, u64)>,
    /// Additional per-edge outage windows.
    edge_outages: Vec<Vec<(u64, u64)>>,
    retry_base: u64,
    max_retries: u32,
    retries: u64,
    failed_sends: u64,
}

impl LinkTable {
    /// Builds the table from a topology's per-edge parameters,
    /// converting latencies at `clock`.
    pub fn new(topology: &crate::topology::Topology, clock: Frequency) -> LinkTable {
        let nodes = topology.nodes();
        let edges = nodes * (nodes - 1);
        let mut latency = Vec::with_capacity(edges);
        let mut bpc = Vec::with_capacity(edges);
        for (from, to) in topology.edges() {
            let e = topology.edge(from, to);
            assert!(e.bytes_per_cycle > 0, "bandwidth must be non-zero");
            latency.push(clock.cycles_for(e.latency));
            bpc.push(e.bytes_per_cycle);
        }
        LinkTable {
            nodes,
            latency,
            bytes_per_cycle: bpc,
            ports: vec![Resource::pipelined(); edges],
            bytes: vec![0; edges],
            global_outages: Vec::new(),
            edge_outages: vec![Vec::new(); edges],
            retry_base: 64,
            max_retries: 6,
            retries: 0,
            failed_sends: 0,
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
    /// arrival time and records the message on the edge's port.
    pub fn transfer(&mut self, from: usize, to: usize, now: Cycles, bytes: u64) -> Cycles {
        let e = self.idx(from, to);
        let service = self.service(e, bytes);
        let grant = self.ports[e].acquire(now.raw(), service);
        self.bytes[e] += bytes;
        debug_assert_eq!(grant.queued, 0, "pipelined link must never queue");
        Cycles(grant.complete_at)
    }

    /// Arrival a send *would* observe, without sending.
    pub fn probe(&self, from: usize, to: usize, now: Cycles, bytes: u64) -> Cycles {
        let e = self.idx(from, to);
        Cycles(
            self.ports[e]
                .probe(now.raw(), self.service(e, bytes))
                .complete_at,
        )
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

    /// Installs whole-fabric outage windows and the retry policy (the
    /// [`InterSocketLink::set_outages`] equivalent; applies to every
    /// edge).
    ///
    /// # Panics
    ///
    /// Panics on malformed windows or a zero `retry_base`.
    pub fn set_outages(&mut self, windows: Vec<(u64, u64)>, retry_base: u64, max_retries: u32) {
        assert!(retry_base > 0, "retry backoff base must be non-zero");
        Self::check_windows(&windows);
        self.global_outages = windows;
        self.retry_base = retry_base;
        self.max_retries = max_retries;
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

    /// The end of the last whole-fabric outage window, if any.
    pub fn last_outage_end(&self) -> Option<Cycles> {
        self.global_outages.last().map(|&(_, e)| Cycles(e))
    }

    fn in_outage(&self, edge: usize, t: u64) -> bool {
        let hit = |w: &[(u64, u64)]| w.iter().any(|&(s, e)| t >= s && t < e);
        hit(&self.global_outages) || hit(&self.edge_outages[edge])
    }

    fn attempt_time(&self, now: u64, k: u32) -> Option<u64> {
        if k > self.max_retries {
            return None;
        }
        let factor = (1u64 << k.min(63)) - 1;
        Some(now + self.retry_base.saturating_mul(factor))
    }

    fn resilient_start(&self, edge: usize, now: u64) -> Option<(u64, u32)> {
        for k in 0..=self.max_retries {
            let t = self.attempt_time(now, k)?;
            if !self.in_outage(edge, t) {
                return Some((t, k));
            }
        }
        None
    }

    /// Sends under the configured outage windows with bounded
    /// exponential backoff; the [`InterSocketLink::transfer_resilient`]
    /// equivalent, per edge.
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
                self.retries += u64::from(retries);
                let arrival = self.transfer(from, to, Cycles(start), bytes);
                LinkSendOutcome::Delivered { arrival, retries }
            }
            None => {
                self.failed_sends += 1;
                LinkSendOutcome::Failed {
                    retries: self.max_retries,
                }
            }
        }
    }

    /// The arrival a resilient send *would* observe, without sending.
    pub fn probe_resilient(
        &self,
        from: usize,
        to: usize,
        now: Cycles,
        bytes: u64,
    ) -> LinkSendOutcome {
        let e = self.idx(from, to);
        match self.resilient_start(e, now.raw()) {
            Some((start, retries)) => LinkSendOutcome::Delivered {
                arrival: self.probe(from, to, Cycles(start), bytes),
                retries,
            },
            None => LinkSendOutcome::Failed {
                retries: self.max_retries,
            },
        }
    }

    /// Total retries across all resilient sends.
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    /// Resilient sends that exhausted the retry budget.
    pub fn failed_sends(&self) -> u64 {
        self.failed_sends
    }

    /// Port statistics for the ordered edge `from → to`.
    pub fn edge_stats(&self, from: usize, to: usize) -> ResourceStats {
        self.ports[self.idx(from, to)].stats()
    }

    /// Bytes sent over the ordered edge `from → to`.
    pub fn edge_bytes(&self, from: usize, to: usize) -> u64 {
        self.bytes[self.idx(from, to)]
    }

    /// Total messages across all edges.
    pub fn total_messages(&self) -> u64 {
        self.ports.iter().map(|p| p.stats().grants).sum()
    }

    /// Total bytes across all edges.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Resets traffic counters (not occupancy or outage config).
    pub fn reset_counters(&mut self) {
        for p in &mut self.ports {
            p.reset_stats();
        }
        self.bytes.iter_mut().for_each(|b| *b = 0);
        self.retries = 0;
        self.failed_sends = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{EdgeParams, Topology};

    fn link() -> InterSocketLink {
        InterSocketLink::new(Nanos(50), Frequency::ghz(3.0), 16)
    }

    fn table(nodes: usize) -> LinkTable {
        LinkTable::new(
            &Topology::symmetric(nodes, EdgeParams::qpi()),
            Frequency::ghz(3.0),
        )
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
        assert_eq!(l.port_stats(0).queue_cycles, 0);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        let a = l.transfer(0, 1, Cycles(0), 64);
        let b = l.transfer(1, 0, Cycles(0), 64);
        assert_eq!(a, b, "full duplex: no cross-direction interference");
        assert_eq!(l.port_stats(0).grants, 1);
        assert_eq!(l.port_stats(1).grants, 1);
    }

    #[test]
    fn traffic_is_counted() {
        let mut l = link();
        l.transfer(0, 1, Cycles(0), 64);
        l.transfer(1, 0, Cycles(0), 8);
        assert_eq!(l.total_messages(), 2);
        assert_eq!(l.total_bytes(), 72);
        l.reset_counters();
        assert_eq!(l.total_messages(), 0);
    }

    #[test]
    fn probe_matches_transfer_without_side_effects() {
        let mut l = link();
        let predicted = l.probe(0, 1, Cycles(0), 64);
        let actual = l.transfer(0, 1, Cycles(0), 64);
        assert_eq!(predicted, actual);
        assert_eq!(l.total_messages(), 1, "probe did not count");
    }

    #[test]
    fn port_occupancy_is_tracked() {
        let mut l = link();
        l.transfer(0, 1, Cycles(0), 64); // 4 + 150 cycles of wire time
        let s = l.port_stats(0);
        assert_eq!(s.busy_cycles, 154);
        assert_eq!(s.grants, 1);
    }

    #[test]
    fn latency_sweep_matches_fig10_points() {
        for (ns, cycles) in [(30u64, 90u64), (50, 150), (60, 180)] {
            let l = InterSocketLink::new(Nanos(ns), Frequency::ghz(3.0), 16);
            assert_eq!(l.latency().raw(), cycles);
        }
    }

    #[test]
    #[should_panic(expected = "sockets 0 and 1")]
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
        assert_eq!(a.port_stats(0).grants, b.port_stats(0).grants);
    }

    #[test]
    fn outage_forces_exponential_backoff() {
        let mut l = link();
        // Window [0, 250): attempts at 0, 100, 300 — third attempt
        // (retry 2, at 100*(2^2-1) = 300) clears the window.
        l.set_outages(vec![(0, 250)], 100, 6);
        match l.transfer_resilient(0, 1, Cycles(0), 64) {
            LinkSendOutcome::Delivered { arrival, retries } => {
                assert_eq!(retries, 2);
                // start 300 + 4 serialization + 150 propagation.
                assert_eq!(arrival, Cycles(300 + 4 + 150));
            }
            LinkSendOutcome::Failed { .. } => panic!("retry budget was sufficient"),
        }
        assert_eq!(l.retry_count(), 2);
        assert_eq!(l.failed_sends(), 0);
    }

    #[test]
    fn outage_exhausts_bounded_retry_budget() {
        let mut l = link();
        // Budget of 2 retries: attempts at 0, 10, 30 — all inside.
        l.set_outages(vec![(0, 1_000)], 10, 2);
        assert_eq!(
            l.transfer_resilient(0, 1, Cycles(0), 64),
            LinkSendOutcome::Failed { retries: 2 }
        );
        assert_eq!(l.failed_sends(), 1);
        assert_eq!(l.total_messages(), 0, "failed send never hits the wire");
    }

    #[test]
    fn probe_resilient_matches_transfer_resilient() {
        let mut l = link();
        l.set_outages(vec![(0, 250)], 100, 6);
        let predicted = l.probe_resilient(0, 1, Cycles(0), 64);
        let actual = l.transfer_resilient(0, 1, Cycles(0), 64);
        assert_eq!(predicted, actual);
    }

    #[test]
    fn outage_until_reports_window_end() {
        let mut l = link();
        l.set_outages(vec![(100, 200), (500, 600)], 32, 4);
        assert_eq!(l.outage_until(Cycles(50)), None);
        assert_eq!(l.outage_until(Cycles(150)), Some(Cycles(200)));
        assert_eq!(l.outage_until(Cycles(200)), None, "half-open window");
        assert_eq!(l.outage_until(Cycles(599)), Some(Cycles(600)));
        assert_eq!(l.last_outage_end(), Some(Cycles(600)));
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn overlapping_outages_rejected() {
        link().set_outages(vec![(0, 100), (50, 200)], 32, 4);
    }

    #[test]
    fn table_on_two_nodes_is_cycle_identical_to_the_pair_link() {
        let mut pair = link();
        let mut tab = table(2);
        // A mixed traffic pattern in both directions, including
        // same-cycle pipelined sends.
        let msgs = [
            (0usize, 1usize, 0u64, 64u64),
            (0, 1, 0, 64),
            (1, 0, 10, 8),
            (0, 1, 200, 192),
            (1, 0, 200, 64),
        ];
        for &(f, t, at, bytes) in &msgs {
            assert_eq!(
                pair.transfer(f, t, Cycles(at), bytes),
                tab.transfer(f, t, Cycles(at), bytes),
                "send {f}->{t} at {at}"
            );
        }
        assert_eq!(pair.total_messages(), tab.total_messages());
        assert_eq!(pair.total_bytes(), tab.total_bytes());
        assert_eq!(
            pair.port_stats(0).busy_cycles,
            tab.edge_stats(0, 1).busy_cycles
        );
        // Resilient sends under the same global outage windows agree too.
        pair.set_outages(vec![(0, 250)], 100, 6);
        tab.set_outages(vec![(0, 250)], 100, 6);
        assert_eq!(
            pair.transfer_resilient(0, 1, Cycles(0), 64),
            tab.transfer_resilient(0, 1, Cycles(0), 64),
        );
        assert_eq!(pair.retry_count(), tab.retry_count());
    }

    #[test]
    fn table_edges_are_independent() {
        let mut t = table(4);
        let a = t.transfer(0, 1, Cycles(0), 64);
        let b = t.transfer(2, 3, Cycles(0), 64);
        assert_eq!(a, b, "disjoint edges do not interfere");
        assert_eq!(t.edge_stats(0, 1).grants, 1);
        assert_eq!(t.edge_stats(2, 3).grants, 1);
        assert_eq!(t.edge_stats(1, 0).grants, 0, "directions are distinct");
        assert_eq!(t.edge_bytes(0, 1), 64);
        assert_eq!(t.edge_bytes(3, 2), 0);
    }

    #[test]
    fn per_edge_outage_only_stalls_that_edge() {
        let mut t = table(3);
        t.set_outages(Vec::new(), 100, 6);
        t.set_edge_outages(0, 1, vec![(0, 250)]);
        // The edge under outage retries...
        match t.transfer_resilient(0, 1, Cycles(0), 64) {
            LinkSendOutcome::Delivered { retries, .. } => assert_eq!(retries, 2),
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
        t.set_outages(vec![(0, 1_000)], 10, 2);
        for (f, to) in [(0usize, 1usize), (1, 2), (2, 0)] {
            assert_eq!(
                t.transfer_resilient(f, to, Cycles(0), 64),
                LinkSendOutcome::Failed { retries: 2 },
                "{f}->{to}"
            );
        }
        assert_eq!(t.failed_sends(), 3);
        assert_eq!(t.outage_until(Cycles(500)), Some(Cycles(1_000)));
        assert_eq!(t.last_outage_end(), Some(Cycles(1_000)));
    }

    #[test]
    fn heterogeneous_edges_charge_their_own_parameters() {
        let topo = Topology::two_tier(EdgeParams::qpi(), EdgeParams::far_tier());
        let mut t = LinkTable::new(&topo, Frequency::ghz(3.0));
        // Socket-socket: 150 + 64/16 = 154. Socket-far: 270 + 64/8 = 278.
        assert_eq!(t.transfer(0, 1, Cycles(0), 64), Cycles(154));
        assert_eq!(t.transfer(0, 2, Cycles(0), 64), Cycles(278));
        assert_eq!(t.latency(0, 2), Cycles(270));
    }

    #[test]
    fn table_probe_matches_transfer() {
        let mut t = table(3);
        let predicted = t.probe(1, 2, Cycles(7), 100);
        assert_eq!(t.transfer(1, 2, Cycles(7), 100), predicted);
        assert_eq!(t.total_messages(), 1, "probe did not count");
        t.reset_counters();
        assert_eq!(t.total_messages(), 0);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn table_self_edge_rejected() {
        table(3).transfer(1, 1, Cycles(0), 64);
    }
}
