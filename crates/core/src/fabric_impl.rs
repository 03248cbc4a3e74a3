//! The cycle-accounting fabric: protocol actions → platform latencies.
//!
//! Implements [`Fabric`] over the real substrates: per-socket DRAM
//! controllers (one channel in the baseline, two when replication or
//! mirroring doubles capacity), the Table II 2×4 intra-socket mesh, and
//! the per-edge inter-node links with serialization/occupancy. This is
//! where the scheme-specific memory layouts live:
//!
//! * **Baseline NUMA** — the home copy is the only copy, on channel 0 of
//!   the home socket.
//! * **Intel-mirroring++** — channel 1 of the *same* socket mirrors
//!   channel 0; reads round-robin across the two channels (the paper's
//!   "actively load balancing reads"), writes go to both.
//! * **Dvé** — the home copy lives on channel 0 of the home node and
//!   the replica on channel 1 of the node the placement map assigns
//!   (the other socket under the paper's mirror, a striped peer under
//!   round-robin N-way, the far-memory pool under two-tier).
//!
//! Every timed service advances the caller's [`Stamp`] by charging its
//! cycles to the right [`Component`]: mesh hops to `Mesh`, link wire
//! time to `Link`, and DRAM accesses split into `BankQueue` (arrival →
//! first command issue, read off [`AccessResult::issued_at`]) and
//! `BankService` (issue → data transfer complete). The breakdown an
//! access accumulates therefore always sums to its end-to-end latency.
//!
//! # The in-band recovery detour (§V-B2)
//!
//! When the chaos layer is armed ([`SystemConfig::chaos`]), demand
//! reads run the controller-edge ECC check. A detected-uncorrectable
//! read takes the full recovery detour *in simulated time*: request to
//! the surviving copy (across the inter-node link for Dvé, the
//! sibling channel for mirroring), remote bank read, data return,
//! repair write + re-read at the failed controller. Every cycle after
//! detection is charged to [`Component::Recovery`], so the Stamp
//! conservation invariant extends through the detour unchanged. Hard
//! failures record the copy in `degraded_lines` (later reads redirect
//! straight to the survivor) and raise `pending_degrade`, which the
//! runner turns into the coherence engine's §V-E degraded state.
//! Detection is timing-neutral, so a run with an *inert* chaos config
//! is bit-identical to one with the layer disarmed.
//!
//! Link outage windows gate the *recovery-class* sends through the
//! link's bounded-retry backoff ([`transfer_resilient`]); ordinary
//! protocol traffic rides the link's residual service. The §V-E
//! fallback to local-copy-only operation is driven by the runner,
//! which degrades the engine for the duration of the window and
//! re-syncs (deny-RM re-push + stale-replica quarantine) on recovery.
//!
//! [`transfer_resilient`]: LinkTable::transfer_resilient

use crate::chaos::{FaultAction, FaultEvent, FaultSourceKind, RecoveryLedger};
use crate::config::SystemConfig;
use dve_coherence::engine::Mode;
use dve_coherence::fabric::Fabric;
use dve_coherence::types::LineAddr;
use dve_dram::config::DramConfig;
use dve_dram::controller::{AccessKind, AccessResult, ControllerStats, MemoryController};
use dve_dram::energy::EnergyParams;
use dve_dram::fault::FaultDomain;
use dve_dram::scrub::Scrubber;
use dve_noc::link::{LinkSendOutcome, LinkTable};
use dve_noc::mesh::Mesh;
use dve_noc::topology::PlacementMap;
use dve_noc::traffic::{MessageClass, TrafficStats};
use dve_sim::latency::{Component, Stamp};
use dve_sim::time::Cycles;
use std::collections::{BTreeSet, HashSet};

/// Mesh node hosting the directory + memory controller tile. The LLC
/// home slice for a line is colocated with its directory entry on this
/// tile, so the slice→directory route is zero hops — the per-core tile
/// route ([`Fabric::mesh_latency_core`]) carries the real traversal.
const DIR_NODE: usize = 2;

/// Table II's intra-socket mesh: 4 routers wide, 2 high.
const MESH: (usize, usize) = (4, 2);

/// Where [`SystemFabric::read_survivor`] left a recovery, with the
/// [`Stamp`] at that point. Anything but `Delivered` is a machine check.
enum SurvivorRead {
    /// No survivor, or a link leg failed.
    Lost(Stamp),
    /// The survivor's read failed its check too (at the given node).
    Bad(Stamp, usize),
    /// The survivor's data is back at the failed copy's node.
    Delivered(Stamp),
}

/// The timed platform fabric.
#[derive(Debug)]
pub struct SystemFabric {
    mode: Mode,
    mesh: Mesh,
    cores_per_socket: usize,
    /// Per-edge point-to-point links over the configured topology (one
    /// pipelined edge per ordered node pair; the paper's two sockets
    /// are the two-node table).
    link: LinkTable,
    /// The placement map the engine shares: line → home node / replica
    /// node. Drives line-aware survivor selection in the §V-B2 detour.
    place: PlacementMap,
    /// `ctrls[node][channel]`. Socket nodes run the configured DRAM;
    /// far-memory nodes (two-tier) run the far-tier preset.
    ctrls: Vec<Vec<MemoryController>>,
    traffic: TrafficStats,
    mirror_rr: u64,
    line_bytes: u64,
    /// Whether the chaos layer is armed ([`SystemConfig::chaos`] was
    /// `Some`). When `false`, demand reads take the unchecked fast path
    /// and none of the recovery state below is ever touched.
    chaos: bool,
    /// Copies taken out of service by a hard failure:
    /// `(socket, channel, global line)`. Reads of these redirect to the
    /// survivor without touching the dead copy.
    degraded_lines: BTreeSet<(usize, usize, u64)>,
    /// Fault domains planted as *transient* (`[socket][channel]`): the
    /// §V-B2 repair write clears them. Hard faults never enter here.
    transients: Vec<Vec<HashSet<FaultDomain>>>,
    /// Paced patrol scrubbers, `[socket][channel]`; empty when scrub is
    /// not configured.
    scrubbers: Vec<Vec<Scrubber>>,
    /// Run-wide recovery accounting.
    ledger: RecoveryLedger,
    /// Set when a read hard-degrades a copy; the runner consumes it
    /// ([`take_pending_degrade`]) and drives the engine's §V-E state.
    ///
    /// [`take_pending_degrade`]: SystemFabric::take_pending_degrade
    pending_degrade: bool,
}

impl SystemFabric {
    /// Builds the fabric for a system configuration.
    pub fn new(cfg: &SystemConfig) -> SystemFabric {
        let mesh = Mesh::new(MESH.0, MESH.1);
        let cores_per_socket = cfg.engine.cores_per_socket();
        let nodes = cfg.nodes();
        let mut link = LinkTable::new(&cfg.topology_graph());
        let place = PlacementMap::new(
            cfg.engine.sockets,
            cfg.engine.page_lines,
            cfg.engine.placement,
        );
        let channels = cfg.channels_per_socket();
        let mut ctrls: Vec<Vec<MemoryController>> = (0..nodes)
            .map(|n| {
                // Far-memory pools (node ids past the sockets) run the
                // CXL-class far-tier DRAM; sockets run Table II DDR4.
                let dram = if n < cfg.engine.sockets {
                    cfg.dram.clone()
                } else {
                    DramConfig::far_tier()
                };
                (0..channels)
                    .map(|ch| MemoryController::new(n * channels + ch, dram.clone()))
                    .collect()
            })
            .collect();
        for socket in &mut ctrls {
            for c in socket.iter_mut() {
                c.set_ecc(cfg.ecc);
            }
        }
        let mut scrubbers = Vec::new();
        if let Some(chaos) = &cfg.chaos {
            if !chaos.link_outages.is_empty() {
                link.set_outages(chaos.link_outages.clone());
            }
            for (from, to, windows) in &chaos.edge_outages {
                link.set_edge_outages(*from, *to, windows.clone());
            }
            if let Some(scrub) = &chaos.scrub {
                scrubbers = (0..nodes)
                    .map(|_| {
                        (0..channels)
                            .map(|_| Scrubber::new(scrub.region_bytes))
                            .collect()
                    })
                    .collect();
            }
        }
        SystemFabric {
            mode: cfg.engine_mode(),
            mesh,
            cores_per_socket,
            link,
            place,
            ctrls,
            traffic: TrafficStats::new(),
            mirror_rr: 0,
            line_bytes: cfg.dram.line_bytes as u64,
            chaos: cfg.chaos.is_some(),
            degraded_lines: BTreeSet::new(),
            transients: (0..nodes)
                .map(|_| (0..channels).map(|_| HashSet::new()).collect())
                .collect(),
            scrubbers,
            ledger: RecoveryLedger::default(),
            pending_degrade: false,
        }
    }

    /// Inter-socket traffic recorded so far.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The memory controllers, `[node][channel]`.
    pub fn controllers(&self) -> &[Vec<MemoryController>] {
        &self.ctrls
    }

    /// The per-edge inter-node link table (occupancy, outages).
    pub fn link_table(&self) -> &LinkTable {
        &self.link
    }

    /// The page-granular placement map driving replica homes.
    pub fn placement(&self) -> PlacementMap {
        self.place
    }

    /// Every controller's statistics, summed.
    pub fn dram_stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for c in self.ctrls.iter().flatten() {
            total.merge(&c.stats());
        }
        total
    }

    /// Dynamic DRAM energy so far across all controllers, in joules,
    /// priced from their summed command counts.
    pub fn total_energy(&self) -> f64 {
        EnergyParams::dynamic_joules(&self.dram_stats())
    }

    fn byte_addr(&self, line: LineAddr) -> u64 {
        line * self.line_bytes
    }

    /// Charges a DRAM access onto `t`, splitting the elapsed time into
    /// bank queueing (arrival → first command issue) and bank service
    /// (issue → transfer complete) using [`AccessResult::issued_at`].
    fn charge_dram(t: Stamp, r: &AccessResult) -> Stamp {
        let queued = r.issued_at.raw() - t.at();
        let service = r.complete_at.raw() - r.issued_at.raw();
        t.advance(Component::BankQueue, queued)
            .advance(Component::BankService, service)
    }

    // ----- the in-band recovery detour (§V-B2) ------------------------

    /// Charges a DRAM access made *inside the recovery detour* onto
    /// `t`. The bank still occupies real queue + service time — the
    /// access went through the controller's normal timed path — but
    /// every cycle is attributed to [`Component::Recovery`] so the
    /// breakdown separates "time lost to the fault" from ordinary
    /// memory time.
    fn charge_dram_recovery(t: Stamp, r: &AccessResult) -> Stamp {
        t.advance(Component::Recovery, r.complete_at.raw() - t.at())
    }

    /// The surviving copy for a failed `(node, channel)` holding
    /// `line`, per the scheme's memory layout. `None` means the failed
    /// copy was the only one (baseline NUMA, or an N-node placement
    /// that stores no second copy at that controller) — detection
    /// escalates straight to a machine check.
    fn survivor_of(&self, socket: usize, channel: usize, line: LineAddr) -> Option<(usize, usize)> {
        match self.mode {
            Mode::Baseline => None,
            // The mirror pair lives on the sibling channel of the same
            // socket — no link crossing.
            Mode::IntelMirror => Some((socket, 1 - channel)),
            // Dvé: the placement map pins the home copy at
            // ctrls[home][0] and the replica at ctrls[replica][1], so
            // each copy's survivor is the other.
            Mode::Dve { .. } => {
                let home = self.place.home_of(line);
                let replica = self.place.replica_node(line);
                if socket == home && channel == 0 {
                    Some((replica, 1))
                } else if socket == replica && channel == 1 {
                    Some((home, 0))
                } else if self.place.nodes() == 2 {
                    // Two-node mirror placement keeps both copies in
                    // lockstep across the pair, so even a combination
                    // the map doesn't place (e.g. a scrub probe of the
                    // unused channel) pairs with its diagonal.
                    Some((1 - socket, 1 - channel))
                } else {
                    None
                }
            }
        }
    }

    /// Sends one recovery-class message from socket `from` to `to` at
    /// `now`, riding the link's outage-aware bounded-retry path.
    /// Same-socket legs (mirroring) are free. Returns the arrival time,
    /// or `None` when the retry budget is exhausted (caller escalates).
    fn send_recovery(
        &mut self,
        from: usize,
        to: usize,
        now: u64,
        class: MessageClass,
    ) -> Option<u64> {
        if from == to {
            return Some(now);
        }
        match self
            .link
            .transfer_resilient(from, to, Cycles(now), class.bytes())
        {
            LinkSendOutcome::Delivered { arrival, retries } => {
                self.traffic.record(class);
                if retries > 0 {
                    self.ledger.link_retries += 1;
                }
                Some(arrival.raw())
            }
            LinkSendOutcome::Failed { .. } => {
                self.ledger.link_failed_sends += 1;
                None
            }
        }
    }

    /// A demand read under the armed chaos layer: run the
    /// controller-edge ECC check and, on detection, take the timed
    /// recovery detour. Detection itself is timing-neutral — a clean
    /// read charges exactly what [`charge_dram`] would, so an inert
    /// chaos config reproduces the fault-free goldens bit-for-bit.
    ///
    /// [`charge_dram`]: SystemFabric::charge_dram
    fn checked_read(&mut self, socket: usize, channel: usize, line: LineAddr, t: Stamp) -> Stamp {
        if self.degraded_lines.contains(&(socket, channel, line)) {
            self.ledger.detected_reads += 1;
            return self.redirect(socket, channel, line, t);
        }
        let addr = self.byte_addr(line);
        let (r, outcome) = self.ctrls[socket][channel].read_with_check(addr, Cycles(t.at()));
        let t = Self::charge_dram(t, &r);
        if outcome.is_good() {
            return t;
        }
        self.ledger.detected_reads += 1;
        self.detour(socket, channel, line, t)
    }

    /// The survivor leg shared by [`detour`] and [`redirect`]: request
    /// to the surviving copy, its checked bank read, and the data return
    /// to `socket`, every cycle charged to [`Component::Recovery`].
    ///
    /// [`detour`]: SystemFabric::detour
    /// [`redirect`]: SystemFabric::redirect
    fn read_survivor(
        &mut self,
        socket: usize,
        channel: usize,
        line: LineAddr,
        t: Stamp,
    ) -> SurvivorRead {
        let Some((rs, rc)) = self.survivor_of(socket, channel, line) else {
            return SurvivorRead::Lost(t);
        };
        let Some(t1) = self.send_recovery(socket, rs, t.at(), MessageClass::Request) else {
            return SurvivorRead::Lost(t);
        };
        let t = t.advance(Component::Recovery, t1 - t.at());
        // Checked: the other copy may be bad too.
        let addr = self.byte_addr(line);
        let (r, outcome) = self.ctrls[rs][rc].read_with_check(addr, Cycles(t.at()));
        let t = Self::charge_dram_recovery(t, &r);
        if !outcome.is_good() {
            return SurvivorRead::Bad(t, rs);
        }
        let Some(t2) = self.send_recovery(rs, socket, t.at(), MessageClass::DataResponse) else {
            return SurvivorRead::Lost(t);
        };
        SurvivorRead::Delivered(t.advance(Component::Recovery, t2 - t.at()))
    }

    /// The full §V-B2 detour after a detected-uncorrectable read at
    /// `(socket, channel)`: the survivor leg ([`read_survivor`]), then a
    /// repair write + verify re-read at the failed controller. A good
    /// re-read means the fault was transient (`repaired`); a still-bad
    /// re-read hard-degrades the copy (`degraded` +
    /// [`pending_degrade`]); no survivor or a dead link means a machine
    /// check. Every cycle is charged to [`Component::Recovery`].
    ///
    /// [`read_survivor`]: SystemFabric::read_survivor
    /// [`pending_degrade`]: SystemFabric::take_pending_degrade
    fn detour(&mut self, socket: usize, channel: usize, line: LineAddr, t: Stamp) -> Stamp {
        let mut t = match self.read_survivor(socket, channel, line, t) {
            SurvivorRead::Delivered(t) => t,
            SurvivorRead::Lost(t) => {
                self.ledger.machine_checks += 1;
                return t;
            }
            // Both copies failed: notify the requester, raise an MCE.
            SurvivorRead::Bad(t, rs) => {
                self.ledger.machine_checks += 1;
                return match self.send_recovery(rs, socket, t.at(), MessageClass::Request) {
                    Some(t2) => t.advance(Component::Recovery, t2 - t.at()),
                    None => t,
                };
            }
        };
        self.ledger.corrected += 1;
        // Repair write at the failed controller, which clears transient
        // damage covering the line...
        let addr = self.byte_addr(line);
        let w = self.ctrls[socket][channel].access(addr, AccessKind::Write, Cycles(t.at()));
        t = Self::charge_dram_recovery(t, &w);
        self.clear_transients_at(socket, channel, addr);
        // ...then verify with a re-read.
        let (rr, re) = self.ctrls[socket][channel].read_with_check(addr, Cycles(t.at()));
        t = Self::charge_dram_recovery(t, &rr);
        if re.is_good() {
            self.ledger.repaired += 1;
        } else {
            self.ledger.degraded += 1;
            let inserted = self.degraded_lines.insert((socket, channel, line));
            debug_assert!(inserted, "a copy must never degrade twice");
            self.pending_degrade = true;
        }
        t
    }

    /// A read of an already-degraded copy: go straight to the survivor
    /// (no pointless read of the dead copy, no repair attempt). The
    /// caller has already counted `detected_reads`.
    fn redirect(&mut self, socket: usize, channel: usize, line: LineAddr, t: Stamp) -> Stamp {
        match self.read_survivor(socket, channel, line, t) {
            SurvivorRead::Delivered(t) => {
                self.ledger.clean_redirects += 1;
                t
            }
            SurvivorRead::Lost(t) | SurvivorRead::Bad(t, _) => {
                self.ledger.machine_checks += 1;
                t
            }
        }
    }

    /// Removes every *transient* fault domain covering `addr` from the
    /// controller — the semantics of the §V-B2 repair write. Hard
    /// faults (not in the transient set) survive and fail the re-read.
    fn clear_transients_at(&mut self, socket: usize, channel: usize, addr: u64) {
        for d in self.ctrls[socket][channel].faulty_domains_at(addr) {
            if self.transients[socket][channel].remove(&d) {
                let repaired = self.ctrls[socket][channel].faults_mut().repair(d);
                debug_assert!(repaired, "transient ledger out of sync with FaultState");
            }
        }
    }

    /// Applies one scheduled fault event. Channels are clamped to what
    /// the scheme actually has (a schedule drawn for two channels stays
    /// valid on baseline's single channel). Idempotent per the
    /// [`FaultState`](dve_dram::fault::FaultState) edge contract:
    /// double-plants and spurious heals are not counted.
    pub fn apply_fault_event(&mut self, ev: &FaultEvent) {
        self.apply_sourced_event(ev, None);
    }

    /// [`apply_fault_event`](SystemFabric::apply_fault_event), with the
    /// plant attributed to a correlated [`FaultSourceKind`] bucket of
    /// the ledger. Attribution follows the same edge contract: a
    /// double-plant that does not land is not counted anywhere.
    pub fn apply_sourced_event(&mut self, ev: &FaultEvent, source: Option<FaultSourceKind>) {
        let socket = ev.socket.min(self.ctrls.len() - 1);
        let channel = ev.channel % self.ctrls[socket].len();
        let gch = self.ctrls[socket][channel].channel();
        match ev.action {
            FaultAction::Plant { site, transient } => {
                let d = site.domain(gch);
                if self.ctrls[socket][channel].faults_mut().fail(d) {
                    self.ledger.faults_planted += 1;
                    match source {
                        Some(FaultSourceKind::Hammer) => self.ledger.hammer_plants += 1,
                        Some(FaultSourceKind::Thermal) => self.ledger.thermal_plants += 1,
                        Some(FaultSourceKind::Aging) => self.ledger.aging_plants += 1,
                        None => {}
                    }
                    if transient {
                        self.transients[socket][channel].insert(d);
                    }
                }
            }
            FaultAction::Heal { site } => {
                let d = site.domain(gch);
                if self.ctrls[socket][channel].faults_mut().repair(d) {
                    self.ledger.faults_healed += 1;
                    self.transients[socket][channel].remove(&d);
                    self.revalidate_degraded(socket, channel);
                }
            }
        }
    }

    /// After a heal, lifts degradations the healed domain was causing:
    /// a `(socket, channel, line)` entry stays only while the
    /// controller would still detect an error there.
    fn revalidate_degraded(&mut self, socket: usize, channel: usize) {
        let ctrl = &self.ctrls[socket][channel];
        let line_bytes = self.line_bytes;
        self.degraded_lines.retain(|&(s, c, line)| {
            s != socket || c != channel || ctrl.would_detect(line * line_bytes)
        });
    }

    /// Runs one paced patrol-scrub slice on `(socket, channel)` at
    /// `now`, reading up to `max_lines` lines through the controller's
    /// normal timed path (scrub reads occupy banks and contend with
    /// demand traffic). Detected-uncorrectable lines are escalated
    /// proactively through the same §V-B2 detour demand reads take.
    /// Returns the time the slice (plus any escalations) finished.
    ///
    /// # Panics
    ///
    /// Panics if scrub was not configured ([`ChaosConfig::scrub`] was
    /// `None`).
    ///
    /// [`ChaosConfig::scrub`]: crate::chaos::ChaosConfig::scrub
    pub fn scrub_tick(&mut self, socket: usize, channel: usize, now: u64, max_lines: u64) -> u64 {
        assert!(!self.scrubbers.is_empty(), "scrub not configured");
        let slice =
            self.scrubbers[socket][channel].slice(&mut self.ctrls[socket][channel], now, max_lines);
        self.ledger.scrub_slices += 1;
        self.ledger.scrub_lines += slice.report.lines;
        self.ledger.scrub_corrected += slice.report.corrected;
        self.ledger.scrub_detected += slice.report.detected;
        let mut end = slice.end;
        for addr in slice.detected_addrs {
            let line = addr / self.line_bytes;
            if self.degraded_lines.contains(&(socket, channel, line)) {
                continue; // already redirected; nothing left to repair
            }
            self.ledger.scrub_escalations += 1;
            self.ledger.detected_reads += 1;
            end = self.detour(socket, channel, line, Stamp::start(end)).at();
        }
        end
    }

    /// The recovery ledger accumulated so far.
    pub fn ledger(&self) -> RecoveryLedger {
        self.ledger
    }

    /// The ledger's per-op exposure counters, `(detected_reads,
    /// machine_checks)`: the runner takes their deltas across each
    /// client op.
    pub(crate) fn op_exposure(&self) -> (u64, u64) {
        (self.ledger.detected_reads, self.ledger.machine_checks)
    }

    /// If `now` falls inside a link outage window, the window's end.
    pub fn link_outage_until(&self, now: u64) -> Option<u64> {
        self.link.outage_until(Cycles(now)).map(|c| c.raw())
    }

    /// The next time after `now` at which
    /// [`SystemFabric::link_outage_until`] changes its answer (a global
    /// outage window opens or closes), if any.
    pub(crate) fn next_outage_edge(&self, now: u64) -> Option<u64> {
        self.link.next_outage_edge(Cycles(now)).map(|c| c.raw())
    }

    /// Whether the hard-degradation edge flag is raised, without
    /// consuming it ([`SystemFabric::take_pending_degrade`] does).
    pub(crate) fn pending_degrade(&self) -> bool {
        self.pending_degrade
    }

    /// Consumes the hard-degradation edge flag (set by the detour when
    /// a post-repair re-read still fails). The runner turns it into the
    /// engine's §V-E degraded state.
    pub fn take_pending_degrade(&mut self) -> bool {
        std::mem::take(&mut self.pending_degrade)
    }

    /// Whether any copy is currently hard-degraded.
    pub fn has_degraded_lines(&self) -> bool {
        !self.degraded_lines.is_empty()
    }

    /// Number of copies currently out of service.
    pub fn degraded_line_count(&self) -> usize {
        self.degraded_lines.len()
    }
}

impl Fabric for SystemFabric {
    /// LLC-slice → directory route. The two agents are colocated on the
    /// directory tile (`DIR_NODE`), so this is the zero-hop route: 0
    /// cycles. The per-core traversal is carried by
    /// [`Fabric::mesh_latency_core`] instead.
    fn mesh_latency(&self) -> u64 {
        0
    }

    fn mesh_latency_core(&self, core: usize) -> u64 {
        // Core tiles occupy the socket's mesh nodes in order; the
        // directory/memory-controller tile sits at DIR_NODE.
        let tile = core % self.cores_per_socket % self.mesh.nodes();
        self.mesh.latency_cycles(tile, DIR_NODE)
    }

    fn link_send(&mut self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp {
        self.traffic.record(class);
        let arrive = self.link.transfer(from, to, Cycles(t.at()), class.bytes());
        t.advance(Component::Link, arrive.raw() - t.at())
    }

    fn link_probe(&self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp {
        let arrive = self.link.probe(from, to, Cycles(t.at()), class.bytes());
        t.advance(Component::Link, arrive.raw() - t.at())
    }

    fn mem_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let channel = if matches!(self.mode, Mode::IntelMirror) {
            // Load-balance reads across the mirrored channels.
            self.mirror_rr = self.mirror_rr.wrapping_add(1);
            (self.mirror_rr % 2) as usize
        } else {
            0
        };
        if self.chaos {
            return self.checked_read(socket, channel, line, t);
        }
        let addr = self.byte_addr(line);
        let r = self.ctrls[socket][channel].access(addr, AccessKind::Read, Cycles(t.at()));
        Self::charge_dram(t, &r)
    }

    fn replica_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        // The replica always lives on the socket's second channel.
        if self.chaos {
            return self.checked_read(socket, 1, line, t);
        }
        let addr = self.byte_addr(line);
        let r = self.ctrls[socket][1].access(addr, AccessKind::Read, Cycles(t.at()));
        Self::charge_dram(t, &r)
    }

    fn mem_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let addr = self.byte_addr(line);
        let r0 = self.ctrls[socket][0].access(addr, AccessKind::Write, Cycles(t.at()));
        if matches!(self.mode, Mode::IntelMirror) {
            // Mirrored write: both channels, lock-step; the write
            // completes when the slower channel does, so charge the
            // later-completing access's queue/service split.
            let r1 = self.ctrls[socket][1].access(addr, AccessKind::Write, Cycles(t.at()));
            if r1.complete_at > r0.complete_at {
                Self::charge_dram(t, &r1)
            } else {
                Self::charge_dram(t, &r0)
            }
        } else {
            Self::charge_dram(t, &r0)
        }
    }

    fn replica_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let addr = self.byte_addr(line);
        let r = self.ctrls[socket][1].access(addr, AccessKind::Write, Cycles(t.at()));
        Self::charge_dram(t, &r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    #[test]
    fn baseline_has_one_channel_per_socket() {
        let f = SystemFabric::new(&SystemConfig::table_ii(Scheme::BaselineNuma));
        assert_eq!(f.controllers()[0].len(), 1);
        assert_eq!(f.controllers()[1].len(), 1);
    }

    #[test]
    fn dve_has_two_channels_per_socket() {
        let f = SystemFabric::new(&SystemConfig::table_ii(Scheme::DveDeny));
        assert_eq!(f.controllers()[0].len(), 2);
    }

    #[test]
    fn mirror_reads_alternate_channels() {
        let mut f = SystemFabric::new(&SystemConfig::table_ii(Scheme::IntelMirrorPlus));
        for i in 0..10 {
            f.mem_read(0, i, Stamp::start(0));
        }
        let r0 = f.controllers()[0][0].stats().reads;
        let r1 = f.controllers()[0][1].stats().reads;
        assert_eq!(r0, 5);
        assert_eq!(r1, 5);
    }

    #[test]
    fn mirror_writes_hit_both_channels() {
        let mut f = SystemFabric::new(&SystemConfig::table_ii(Scheme::IntelMirrorPlus));
        f.mem_write(0, 1, Stamp::start(0));
        assert_eq!(f.controllers()[0][0].stats().writes, 1);
        assert_eq!(f.controllers()[0][1].stats().writes, 1);
    }

    #[test]
    fn dve_replica_ops_use_second_channel() {
        let mut f = SystemFabric::new(&SystemConfig::table_ii(Scheme::DveAllow));
        f.replica_read(1, 5, Stamp::start(0));
        f.replica_write(1, 5, Stamp::start(0));
        assert_eq!(f.controllers()[1][1].stats().reads, 1);
        assert_eq!(f.controllers()[1][1].stats().writes, 1);
        assert_eq!(f.controllers()[1][0].stats().reads, 0);
    }

    #[test]
    fn per_core_mesh_latency_varies_with_tile() {
        let f = SystemFabric::new(&SystemConfig::table_ii(Scheme::BaselineNuma));
        // Core at the directory tile pays 0 hops; the far corner pays 4.
        assert_eq!(f.mesh_latency_core(2), 0);
        assert_eq!(f.mesh_latency_core(7), 2); // node 7 = (3,1) -> (2,0): 2 hops
                                               // Cores on the two sockets with the same tile index match.
        assert_eq!(f.mesh_latency_core(1), f.mesh_latency_core(9));
        // All within mesh diameter.
        for c in 0..16 {
            assert!(f.mesh_latency_core(c) <= 4);
        }
    }

    #[test]
    fn link_send_records_traffic_and_charges_link() {
        let mut f = SystemFabric::new(&SystemConfig::table_ii(Scheme::BaselineNuma));
        let t = f.link_send(0, 1, Stamp::start(0), MessageClass::DataResponse);
        assert!(t.at() >= 150, "50 ns at 3 GHz plus serialization");
        assert_eq!(t.breakdown().link, t.at(), "all time charged to the link");
        assert_eq!(f.traffic().total_messages(), 1);
    }

    #[test]
    fn llc_and_directory_are_colocated() {
        // The LLC home slice and the directory share the DIR_NODE tile,
        // so the slice->directory route is the real zero-hop route; the
        // per-core route carries the traversal instead.
        let f = SystemFabric::new(&SystemConfig::table_ii(Scheme::BaselineNuma));
        assert_eq!(f.mesh_latency(), 0);
        assert!(f.mesh_latency_core(0) > 0);
    }

    #[test]
    fn dram_charge_splits_queue_and_service() {
        let mut f = SystemFabric::new(&SystemConfig::table_ii(Scheme::BaselineNuma));
        // First read: idle bank, no queueing.
        let t1 = f.mem_read(0, 1, Stamp::start(0));
        assert_eq!(t1.breakdown().bank_queue, 0);
        assert_eq!(t1.breakdown().bank_service, t1.elapsed());
        // Second read to the same bank while busy: queueing appears,
        // and the breakdown still sums to the end-to-end latency.
        let t2 = f.mem_read(0, 1, Stamp::start(1));
        assert!(t2.breakdown().bank_queue > 0, "busy bank must queue");
        assert_eq!(
            t2.breakdown().bank_queue + t2.breakdown().bank_service,
            t2.elapsed()
        );
    }

    fn plant(f: &mut SystemFabric, socket: usize, channel: usize, line: u64, transient: bool) {
        f.apply_fault_event(&FaultEvent {
            at: 0,
            socket,
            channel,
            action: FaultAction::Plant {
                site: crate::chaos::FaultSite::Line { line },
                transient,
            },
        });
    }

    fn chaos_cfg(scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.chaos = Some(crate::chaos::ChaosConfig::inert());
        cfg
    }

    #[test]
    fn inert_chaos_reads_are_bit_identical() {
        let mut plain = SystemFabric::new(&SystemConfig::table_ii(Scheme::DveDeny));
        let mut armed = SystemFabric::new(&chaos_cfg(Scheme::DveDeny));
        for i in 0..20 {
            let a = plain.mem_read(0, i % 5, Stamp::start(i * 3));
            let b = armed.mem_read(0, i % 5, Stamp::start(i * 3));
            assert_eq!(a.at(), b.at());
            assert_eq!(a.breakdown(), b.breakdown());
        }
        assert!(!armed.ledger().any_activity());
    }

    #[test]
    fn transient_fault_takes_detour_and_repairs() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::DveDeny));
        plant(&mut f, 0, 0, 7, true);
        let t = f.mem_read(0, 7, Stamp::start(0));
        let l = f.ledger();
        assert_eq!(l.detected_reads, 1);
        assert_eq!(l.corrected, 1);
        assert_eq!(l.repaired, 1, "repair write clears a transient fault");
        assert_eq!(l.degraded, 0);
        assert!(
            t.breakdown().recovery > 0,
            "the detour costs simulated time"
        );
        assert_eq!(t.at(), t.breakdown().total(), "conservation holds");
        // Survivor = the replica on the other socket's second channel.
        assert_eq!(f.controllers()[1][1].stats().reads, 1);
        // The repaired copy now reads clean — no second detour.
        let t2 = f.mem_read(0, 7, Stamp::start(t.at()));
        assert_eq!(t2.breakdown().recovery, 0);
        assert_eq!(f.ledger().detected_reads, 1);
        assert!(f.ledger().consistent());
    }

    #[test]
    fn hard_fault_degrades_then_redirects() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::DveDeny));
        plant(&mut f, 0, 0, 9, false);
        f.mem_read(0, 9, Stamp::start(0));
        let l = f.ledger();
        assert_eq!(l.corrected, 1);
        assert_eq!(l.degraded, 1, "hard fault survives the repair write");
        assert!(f.take_pending_degrade(), "runner sees the degrade edge");
        assert!(!f.take_pending_degrade(), "edge flag is consumed");
        assert_eq!(f.degraded_line_count(), 1);
        // Later reads skip the dead copy and go straight to the survivor.
        let t = f.mem_read(0, 9, Stamp::start(1_000));
        assert_eq!(f.ledger().clean_redirects, 1);
        assert!(t.breakdown().recovery > 0);
        assert_eq!(t.breakdown().bank_queue + t.breakdown().bank_service, 0);
        assert!(f.ledger().consistent());
    }

    #[test]
    fn baseline_detection_is_a_machine_check() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::BaselineNuma));
        plant(&mut f, 0, 0, 3, false);
        f.mem_read(0, 3, Stamp::start(0));
        let l = f.ledger();
        assert_eq!(l.machine_checks, 1, "no second copy to recover from");
        assert_eq!(l.corrected, 0);
        assert!(l.consistent());
    }

    #[test]
    fn both_copies_bad_is_a_machine_check() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::DveDeny));
        plant(&mut f, 0, 0, 11, false); // home copy
        plant(&mut f, 1, 1, 11, false); // replica (the survivor)
        f.mem_read(0, 11, Stamp::start(0));
        let l = f.ledger();
        assert_eq!(l.machine_checks, 1);
        assert_eq!(l.corrected, 0);
        assert!(l.consistent());
    }

    #[test]
    fn mirror_detour_stays_on_socket() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::IntelMirrorPlus));
        // Read 1 lands on channel 1 (rr starts there); fault channel 1.
        plant(&mut f, 0, 1, 5, true);
        let before = f.traffic().total_messages();
        f.mem_read(0, 5, Stamp::start(0));
        assert_eq!(f.ledger().repaired, 1);
        assert_eq!(
            f.traffic().total_messages(),
            before,
            "mirror recovery never crosses the link"
        );
        assert_eq!(
            f.controllers()[0][0].stats().reads,
            1,
            "sibling channel served"
        );
    }

    #[test]
    fn heal_lifts_degradation() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::DveDeny));
        plant(&mut f, 0, 0, 9, false);
        f.mem_read(0, 9, Stamp::start(0));
        assert_eq!(f.degraded_line_count(), 1);
        f.apply_fault_event(&FaultEvent {
            at: 10,
            socket: 0,
            channel: 0,
            action: FaultAction::Heal {
                site: crate::chaos::FaultSite::Line { line: 9 },
            },
        });
        assert_eq!(f.ledger().faults_healed, 1);
        assert_eq!(f.degraded_line_count(), 0, "heal lifts the degradation");
        // And the copy serves demand reads again, clean.
        let t = f.mem_read(0, 9, Stamp::start(2_000));
        assert_eq!(t.breakdown().recovery, 0);
    }

    #[test]
    fn double_plant_and_spurious_heal_not_counted() {
        let mut f = SystemFabric::new(&chaos_cfg(Scheme::DveDeny));
        plant(&mut f, 0, 0, 4, false);
        plant(&mut f, 0, 0, 4, false);
        assert_eq!(f.ledger().faults_planted, 1);
        f.apply_fault_event(&FaultEvent {
            at: 0,
            socket: 1,
            channel: 0,
            action: FaultAction::Heal {
                site: crate::chaos::FaultSite::Line { line: 4 },
            },
        });
        assert_eq!(f.ledger().faults_healed, 0, "nothing to heal there");
    }

    #[test]
    fn scrub_tick_counts_lines_and_escalates_detections() {
        let mut cfg = chaos_cfg(Scheme::DveDeny);
        cfg.chaos.as_mut().unwrap().scrub = Some(crate::chaos::ScrubConfig {
            region_bytes: 1 << 12, // 64 lines
            lines_per_slice: 16,
            interval: 1_000,
        });
        let mut f = SystemFabric::new(&cfg);
        plant(&mut f, 0, 0, 5, true); // inside the scrubbed region
        let mut t = 0;
        for _ in 0..4 {
            t = f.scrub_tick(0, 0, t, 16);
        }
        let l = f.ledger();
        assert_eq!(l.scrub_slices, 4);
        assert_eq!(l.scrub_lines, 64, "one full pass");
        assert_eq!(l.scrub_detected, 1);
        assert_eq!(l.scrub_escalations, 1, "detection escalated to §V-B2");
        assert_eq!(l.repaired, 1, "transient fault scrubbed away");
        assert!(l.consistent());
        // The next pass reads clean.
        for _ in 0..4 {
            t = f.scrub_tick(0, 0, t, 16);
        }
        assert_eq!(f.ledger().scrub_detected, 1);
    }

    #[test]
    fn energy_aggregates_all_controllers() {
        let mut f = SystemFabric::new(&SystemConfig::table_ii(Scheme::DveDeny));
        f.mem_read(0, 1, Stamp::start(0));
        f.replica_write(1, 1, Stamp::start(0));
        let s = f.dram_stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        let per_controller: f64 = f
            .controllers()
            .iter()
            .flatten()
            .map(|c| EnergyParams::dynamic_joules(&c.stats()))
            .sum();
        assert!(f.total_energy() > 0.0);
        assert!((f.total_energy() - per_controller).abs() < 1e-18);
    }
}
