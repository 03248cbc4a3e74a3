//! The event-driven multi-core system runner.
//!
//! Sixteen cores replay their synthesized trace streams concurrently:
//! the runner always advances the core with the earliest local clock
//! (a deterministic discrete-event order), so inter-thread interleaving
//! — and with it coherence contention, bank conflicts and link occupancy
//! — emerges naturally. Each core issues memory operations through a
//! bank of MSHRs ([`SystemConfig::mshrs`] ways, default 1): with one
//! way the core blocks on every miss exactly as the original runner
//! did; with more ways it runs ahead while up to that many misses are
//! in flight, stalling only when all ways are occupied or at a sync
//! point. The dynamic Dvé scheme additionally runs the paper's sampling
//! procedure: each epoch starts with a profiling phase that tries the
//! allow and deny state machines back-to-back and applies the winner
//! for the rest of the epoch (§V-C5).

use crate::chaos::{FaultEvent, FaultSourceKind, RecoveryLedger, ScrubConfig};
use crate::config::{Scheme, SystemConfig, DYNAMIC_WINDOW};
use crate::fabric_impl::SystemFabric;
use crate::fault_source::{build_sources, FaultSource};
use crate::pdes::TraceSupply;
use dve_coherence::engine::{EngineStats, ProtocolEngine};
use dve_coherence::replica_dir::ReplicaPolicy;
use dve_coherence::types::ReqType;
use dve_dram::energy::EnergyParams;
use dve_noc::traffic::TrafficStats;
use dve_sim::event::EventQueue;
use dve_sim::latency::{Component, LatencyBreakdown, LatencyHists};
use dve_sim::resource::Resource;
use dve_sim::time::{Cycles, CORE_CLOCK};
use dve_workloads::op::{MemReq, Op};
use dve_workloads::WorkloadProfile;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Results of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme that produced this result.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Wall-clock cycles of the measured region (max over cores).
    pub cycles: u64,
    /// Total operations executed in the measured region.
    pub ops: u64,
    /// Memory operations in the measured region.
    pub mem_ops: u64,
    /// Engine (coherence) statistics.
    pub engine: EngineStats,
    /// Per-component attribution of the total memory-access latency over
    /// the *measured region* (mesh, link, bank queue, bank service,
    /// protocol). Its [`LatencyBreakdown::total`] equals the sum of the
    /// per-class latencies the engine accumulated over the same region —
    /// conservation by construction.
    pub latency: LatencyBreakdown,
    /// Inter-socket traffic in the measured region.
    pub traffic: TrafficStats,
    /// Fig. 7 classification fractions (summed over both home dirs).
    pub class_fractions: [f64; 4],
    /// DRAM energy over the measured region, joules.
    pub mem_energy_joules: f64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Memory energy-delay product (J·s).
    pub mem_edp: f64,
    /// Aggregated DRAM row-buffer statistics over the whole run
    /// (including warm-up): (hits, misses, conflicts).
    pub dram_rows: (u64, u64, u64),
    /// (total accesses, total bank queuing delay) over the whole run.
    pub dram_queue: (u64, u64),
    /// Worst-case per-row activation count within one refresh window
    /// across all controllers — the row-hammer exposure metric (§III).
    pub max_row_activations: u64,
    /// In-band recovery accounting over the *whole run* (faults do not
    /// respect measurement regions). All-zero when the chaos layer is
    /// disarmed or inert.
    pub recovery: RecoveryLedger,
    /// Per-op latency distributions over the measured region (total +
    /// per component). Sum-conserves against [`RunResult::latency`]:
    /// each component histogram's exact sum equals the cycles the
    /// aggregate breakdown charged to that component.
    pub latency_hist: LatencyHists,
}

impl RunResult {
    /// Speedup of this run relative to a baseline run of the same
    /// workload (same op counts): baseline cycles / this run's cycles.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        assert_eq!(
            self.workload, baseline.workload,
            "speedup across different workloads"
        );
        baseline.cycles as f64 / self.cycles as f64
    }

    /// (p50, p99, p999) upper bounds of the per-op end-to-end latency
    /// over the measured region. This is *the* way bench binaries
    /// report percentiles — no ad-hoc sample collection and sorting.
    pub fn latency_tail(&self) -> (u64, u64, u64) {
        self.latency_hist.total.tail()
    }

    /// (p50, p99, p999) upper bounds of one component's per-op latency
    /// over the measured region.
    pub fn component_tail(&self, c: Component) -> (u64, u64, u64) {
        self.latency_hist.component(c).tail()
    }
}

/// One externally supplied operation for [`System::run_batch`]: the
/// serving front end (dve-service) maps client sessions onto cores and
/// drives the live system one epoch at a time with these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOp {
    /// Core that issues the operation (`< SystemConfig.engine.cores`).
    pub core: usize,
    /// Cache-line address (byte address / 64).
    pub line: u64,
    /// Load or store.
    pub req: MemReq,
}

/// Per-op completion returned by [`System::run_batch`], carrying the
/// engine's latency stamps for this operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCompletion {
    /// Simulated issue time.
    pub issued_at: u64,
    /// Simulated completion time.
    pub complete_at: u64,
    /// Per-layer attribution; its components sum to
    /// `complete_at - issued_at` (conservation by construction).
    pub breakdown: LatencyBreakdown,
    /// Recovery-path entries this op's accesses caused (detected
    /// errors or redirects of degraded copies) — the delta of the
    /// ledger's `detected_reads` across this op. Scrub-driven
    /// detections between ops are deliberately not attributed.
    pub detected_reads: u64,
    /// Machine-check exceptions this op's accesses raised (every copy
    /// failed) — the per-tenant exposure metric.
    pub machine_checks: u64,
}

/// Snapshot of the cumulative counters at [`System::begin_region`],
/// plus the region's work accumulators that
/// [`System::step_ops`]/[`System::run_batch`] maintain.
#[derive(Debug)]
struct RegionStart {
    traffic: TrafficStats,
    dyn_joules: f64,
    breakdown: LatencyBreakdown,
    class: Vec<[u64; 4]>,
    cycles: u64,
    ops: u64,
    mem_ops: u64,
}

/// Low bits of a scheduler key that hold the core index.
/// [`ProtocolEngine::new`] accepts at most 8 sockets (its sharer vector
/// is a `u8`) of at most 16 cores each (an LLC line's L1-sharer mask is
/// a `u16`): core indices below 128, 7 bits.
const CORE_BITS: u32 = u32::BITS - (8 * u16::BITS - 1).leading_zeros();

/// The latest local clock a scheduler key can hold.
const MAX_KEY_CLOCK: u64 = u64::MAX >> CORE_BITS;

/// Packs `(clock, core)` into one scheduler key, `!clock` above the
/// core index: a larger key is an earlier clock, or the same clock on
/// a higher core, exactly the order of `(Reverse(clock), core)`.
///
/// # Panics
///
/// Panics if `clock` exceeds [`MAX_KEY_CLOCK`] or `core` needs more
/// than [`CORE_BITS`] bits.
#[inline]
fn core_key(clock: u64, core: usize) -> u64 {
    assert!(
        clock <= MAX_KEY_CLOCK && core >> CORE_BITS == 0,
        "scheduler key overflow: clock {clock}, core {core}"
    );
    (!clock << CORE_BITS) | core as u64
}

/// Unpacks a [`core_key`] into `(clock, core)`.
#[inline]
fn key_parts(key: u64) -> (u64, usize) {
    (!key >> CORE_BITS, (key & ((1 << CORE_BITS) - 1)) as usize)
}

/// The scheduler's ready set: a [`core_key`] for each of `cores`, so
/// the top is the earliest clock and ties go to the highest core index.
/// The runners update the top in place ([`PeekMut`]) after each op, and
/// pop it when the core retires.
fn core_heap(core_time: &[u64], cores: impl Iterator<Item = usize>) -> BinaryHeap<u64> {
    cores.map(|c| core_key(core_time[c], c)).collect()
}

/// Entries in [`System`]'s latency fold table (a power of two).
const LAT_FOLD_SLOTS: usize = 32;

/// The fold-table slot of a breakdown: the components, each rotated to
/// its own bit offset, mixed by one multiply, top bits taken.
#[inline]
fn lat_fold_slot(b: &LatencyBreakdown) -> usize {
    let key = b.mesh
        ^ b.link.rotate_left(11)
        ^ b.bank_queue.rotate_left(22)
        ^ b.bank_service.rotate_left(33)
        ^ b.protocol.rotate_left(44)
        ^ b.recovery.rotate_left(55);
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - LAT_FOLD_SLOTS.trailing_zeros())) as usize
}

/// The assembled system: engine + fabric + trace streams.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    engine: ProtocolEngine,
    fabric: SystemFabric,
    /// The operation source: inline generator, or the sharded
    /// multi-threaded supply when `cfg.pdes_workers > 1` (bit-identical
    /// either way).
    supply: TraceSupply,
    workload: String,
    /// Per-core local clocks.
    core_time: Vec<u64>,
    /// Per-core MSHR banks: one occupancy way per outstanding miss a
    /// core may have in flight. With `cfg.mshrs == 1` every memory
    /// operation blocks the core until it completes (the original
    /// runner's semantics, cycle-for-cycle); with more ways the core
    /// issues and runs ahead until the ways are exhausted.
    mshrs: Vec<Resource>,
    /// The chaos layer's quiet window `(polled_at, due)`: the last full
    /// pass ran at `polled_at`, and nothing it tracks changes before
    /// `due` (see [`System::advance_chaos`]).
    chaos_quiet: (u64, u64),
    /// The fault schedule, time-sorted; `chaos_cursor` indexes the next
    /// event not yet applied.
    chaos_events: Vec<FaultEvent>,
    chaos_cursor: usize,
    /// Correlated fault sources ([`ChaosConfig::correlated`]), polled
    /// in-band on their own sim-time grids.
    ///
    /// [`ChaosConfig::correlated`]: crate::chaos::ChaosConfig::correlated
    sources: Vec<Box<dyn FaultSource>>,
    /// Pending paced scrub slices: `(socket, channel)` scheduled on the
    /// simulation's event queue, rescheduled `interval` cycles after
    /// each slice finishes (the patrol never overlaps itself).
    scrub_queue: EventQueue<(usize, usize)>,
    scrub_cfg: Option<ScrubConfig>,
    /// §V-E fallback: the inter-socket link is inside an outage window,
    /// so the engine runs local-copy-only until the window closes.
    outage_degraded: bool,
    /// §V-B2 aftermath: a hard fault took a copy out of service; the
    /// engine stays degraded until a heal lifts the last degradation.
    fault_degraded: bool,
    /// Per-op latency distributions recorded since the last
    /// [`System::begin_region`] (warm-up samples are discarded there).
    lat_hists: LatencyHists,
    /// Per-op breakdowns not yet folded into `lat_hists`: a
    /// direct-mapped table of `(breakdown, count)` keyed by a hash of
    /// the breakdown. [`System::flush_latency`] empties it before a
    /// runner returns.
    lat_fold: Box<[(LatencyBreakdown, u64); LAT_FOLD_SLOTS]>,
    /// The open measurement region, if any.
    region: Option<RegionStart>,
}

impl System {
    /// Builds a system for `cfg` running `profile` with `seed`.
    pub fn new(cfg: SystemConfig, profile: &WorkloadProfile, seed: u64) -> System {
        let mut engine = ProtocolEngine::new(cfg.engine_mode(), cfg.engine.clone());
        let mut fabric = SystemFabric::new(&cfg);
        if cfg.degraded {
            engine.set_degraded(true, 0, &mut fabric);
        }
        let supply = TraceSupply::new(profile, cfg.engine.cores, seed, cfg.pdes_workers);
        let cores = cfg.engine.cores;
        let ways = cfg.mshrs;
        let mut chaos_events = Vec::new();
        let mut scrub_cfg = None;
        let mut scrub_queue = EventQueue::new();
        let mut sources: Vec<Box<dyn FaultSource>> = Vec::new();
        if let Some(chaos) = &cfg.chaos {
            chaos.validate();
            chaos_events = chaos.schedule.events().to_vec();
            scrub_cfg = chaos.scrub;
            if let Some(scrub) = &chaos.scrub {
                for s in 0..cfg.nodes() {
                    for ch in 0..cfg.channels_per_socket() {
                        scrub_queue.push(scrub.interval, (s, ch));
                    }
                }
            }
            if let Some(correlated) = &chaos.correlated {
                sources = build_sources(correlated, &fabric);
            }
        }
        System {
            cfg,
            engine,
            fabric,
            supply,
            workload: profile.name.to_string(),
            core_time: vec![0; cores],
            mshrs: (0..cores).map(|_| Resource::new(ways)).collect(),
            chaos_quiet: (0, 0),
            chaos_events,
            chaos_cursor: 0,
            sources,
            scrub_queue,
            scrub_cfg,
            outage_degraded: false,
            fault_degraded: false,
            lat_hists: LatencyHists::new(),
            lat_fold: Box::new([(LatencyBreakdown::default(), 0); LAT_FOLD_SLOTS]),
            region: None,
        }
    }

    /// Number of cores in the system (the valid [`ClientOp::core`]
    /// range).
    pub fn cores(&self) -> usize {
        self.core_time.len()
    }

    /// Current simulated time: the latest core-local clock.
    pub fn now(&self) -> u64 {
        *self.core_time.iter().max().expect("cores")
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Cumulative engine statistics (whole run so far).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// In-band recovery accounting so far.
    pub fn recovery_ledger(&self) -> RecoveryLedger {
        self.fabric.ledger()
    }

    /// The memory fabric: controllers, inter-node link table, and the
    /// placement map (telemetry endpoints read per-node/per-edge
    /// occupancy from here).
    pub fn fabric(&self) -> &SystemFabric {
        &self.fabric
    }

    /// Live replica-directory entry count per node — the `/metrics`
    /// per-node replica gauge (far-pool nodes host entries too: their
    /// directories track lines replicated into the pool).
    pub fn node_replica_entries(&self) -> Vec<u64> {
        (0..self.engine.num_nodes())
            .map(|n| self.engine.replica_dir(n).len() as u64)
            .collect()
    }

    /// Per-op latency distributions recorded since the last
    /// [`System::begin_region`] (or construction).
    pub fn latency_hists(&self) -> &LatencyHists {
        &self.lat_hists
    }

    /// Forces (or lifts) §V-E degraded operation at the current
    /// simulated time, as if flipped by an operator. The engine only
    /// sees real edges, and chaos-driven degradation sources still
    /// apply on top — lifting the forced flag while a hard fault is
    /// outstanding keeps the engine degraded.
    pub fn set_forced_degraded(&mut self, on: bool) {
        self.cfg.degraded = on;
        let now = self.now();
        self.apply_degraded(now);
    }

    /// Advances the chaos layer to simulated time `now`: applies due
    /// fault events, runs due patrol-scrub slices, and tracks the two
    /// degradation sources (link outage windows and hard-degraded
    /// copies) into the engine's §V-E state.
    ///
    /// The scheduler calls this before every op, but a full pass has
    /// work only when something fell due, so it returns at once inside
    /// the quiet window `polled_at <= now < due` left by the last pass
    /// (see [`System::poll_chaos`]) unless a read raised the
    /// hard-degradation flag since. The skip is exact: inside the
    /// window no event, source poll or scrub slice is due and the
    /// outage state is the one the last pass saw, hard-degraded copies
    /// are removed only by heals, which happen inside a full pass, and a
    /// read adds a degraded copy only together with raising the flag.
    /// The lower bound matters: across [`System::run_batch`] epochs a
    /// core that sat idle keeps an older clock, so `now` can move back
    /// into an outage the system already left. A disarmed layer has
    /// nothing ever due, so its first pass leaves a window that never
    /// closes.
    #[inline]
    fn advance_chaos(&mut self, now: u64) {
        let (polled_at, due) = self.chaos_quiet;
        if polled_at <= now && now < due && !self.fabric.pending_degrade() {
            return;
        }
        self.poll_chaos(now);
    }

    /// The full chaos pass at `now` behind [`System::advance_chaos`];
    /// it ends by storing the next quiet window.
    fn poll_chaos(&mut self, now: u64) {
        // Due fault plants/heals.
        while self.chaos_cursor < self.chaos_events.len()
            && self.chaos_events[self.chaos_cursor].at <= now
        {
            let ev = self.chaos_events[self.chaos_cursor];
            self.fabric.apply_fault_event(&ev);
            self.chaos_cursor += 1;
        }
        // Correlated sources: poll each one that is due on its grid
        // (observation only — an armed-but-inert source never perturbs
        // timed state), then apply what they emitted, attributed per
        // source in the ledger.
        if !self.sources.is_empty() {
            let mut emitted: Vec<(FaultSourceKind, FaultEvent)> = Vec::new();
            for src in &mut self.sources {
                if src.next_poll() <= now {
                    let kind = src.kind();
                    emitted.extend(src.poll(now, &self.fabric).into_iter().map(|e| (kind, e)));
                }
            }
            for (kind, ev) in &emitted {
                self.fabric.apply_sourced_event(ev, Some(*kind));
            }
        }
        // Due scrub slices: each runs through the controllers' timed
        // path (contending with demand traffic) and reschedules itself
        // `interval` cycles after it finished.
        if let Some(scrub) = self.scrub_cfg {
            while self.scrub_queue.peek_time().is_some_and(|t| t <= now) {
                let (at, (s, ch)) = self.scrub_queue.pop().expect("peeked");
                let end = self.fabric.scrub_tick(s, ch, at, scrub.lines_per_slice);
                self.scrub_queue.push(end.max(at) + scrub.interval, (s, ch));
            }
        }
        // §V-E edges. A link outage forces local-copy-only service for
        // the duration of the window; leaving it re-syncs the replicas
        // (deny-RM re-push inside `set_degraded`). A hard-degraded copy
        // keeps the engine degraded until a heal lifts the last one,
        // which may be in this very pass, after the read that raised the
        // flag: the flag counts only while a degraded copy remains.
        let in_outage = self.fabric.link_outage_until(now).is_some();
        let mut changed = in_outage != self.outage_degraded;
        self.outage_degraded = in_outage;
        if self.fabric.take_pending_degrade() && self.fabric.has_degraded_lines() {
            changed |= !self.fault_degraded;
            self.fault_degraded = true;
        } else if self.fault_degraded && !self.fabric.has_degraded_lines() {
            self.fault_degraded = false;
            changed = true;
        }
        if changed {
            self.apply_degraded(now);
        }
        // The next quiet window: nothing is due before the earliest
        // pending event, source poll, scrub slice or outage edge.
        let mut due = self
            .chaos_events
            .get(self.chaos_cursor)
            .map_or(u64::MAX, |ev| ev.at);
        for src in &self.sources {
            due = due.min(src.next_poll());
        }
        if let Some(t) = self.scrub_queue.peek_time() {
            due = due.min(t);
        }
        if let Some(t) = self.fabric.next_outage_edge(now) {
            due = due.min(t);
        }
        self.chaos_quiet = (now, due);
    }

    /// Records one completed op's latency breakdown. Ops that share a
    /// breakdown (most are L1 hits, and misses repeat a handful of
    /// shapes) count up in their fold-table slot; a slot holding a
    /// different breakdown is folded into the histograms in one
    /// [`LatencyHists::record_n`] before it is taken over.
    #[inline]
    fn record_latency(&mut self, b: &LatencyBreakdown) {
        let slot = &mut self.lat_fold[lat_fold_slot(b)];
        if slot.0 == *b {
            slot.1 += 1;
        } else {
            self.lat_hists.record_n(&slot.0, slot.1);
            *slot = (*b, 1);
        }
    }

    /// Folds every pending fold-table entry into the histograms. The
    /// histograms are order-free sums, so the result is the same as
    /// recording each op as it completed. Every runner flushes before
    /// it returns, so [`System::latency_hists`] and the region calls
    /// never see a pending entry.
    fn flush_latency(&mut self) {
        for (b, n) in self.lat_fold.iter_mut() {
            self.lat_hists.record_n(b, std::mem::take(n));
        }
    }

    /// Reconciles the engine's degraded state with the three sources
    /// that demand it (the §V-E config knob, an open link outage
    /// window, a hard-degraded copy). Only actual edges reach
    /// [`ProtocolEngine::set_degraded`], so the engine's
    /// `degraded_transitions` counter counts real transitions.
    fn apply_degraded(&mut self, now: u64) {
        let want = self.cfg.degraded || self.outage_degraded || self.fault_degraded;
        if want != self.engine.is_degraded() {
            self.engine.set_degraded(want, now, &mut self.fabric);
        }
    }

    /// Executes `mem_ops_per_core` memory operations on every core
    /// (compute/sync ops execute in between without counting), returning
    /// the wall time consumed and ops executed.
    fn run_ops(&mut self, mem_ops_per_core: u64) -> (u64, u64, u64) {
        // A zero budget means "run nothing": without this guard the
        // `remaining[core] -= 1` below underflows on the first memory
        // op (debug builds panic; release builds wrap to u64::MAX and
        // the loop effectively never terminates).
        if mem_ops_per_core == 0 {
            return (0, 0, 0);
        }
        let cores = self.core_time.len();
        let start_max = *self.core_time.iter().max().expect("cores");
        let mut heap = core_heap(&self.core_time, 0..cores);
        let mut remaining: Vec<u64> = vec![mem_ops_per_core; cores];
        let mut total_ops = 0u64;
        let mut total_mem = 0u64;
        while let Some(mut top) = heap.peek_mut() {
            let (now, core) = key_parts(*top);
            self.advance_chaos(now);
            let op = self.supply.next_op(core);
            total_ops += 1;
            let next = match op {
                Op::Compute(c) => now + c as u64,
                // A synchronization point (barrier/lock) first drains
                // every outstanding miss on this core, then pays the
                // sync cost.
                Op::Sync => self.mshrs[core].drained_at().max(now) + Op::SYNC_CYCLES as u64,
                Op::Mem { line, req } => {
                    total_mem += 1;
                    remaining[core] -= 1;
                    let r = match req {
                        MemReq::Read => ReqType::Read,
                        MemReq::Write => ReqType::Write,
                    };
                    // Every memory operation is simulated in detail,
                    // matching the paper's SynchroTrace/gem5 replay.
                    // (What §V-E keeps off the critical path — the
                    // propagation of writebacks to the replica memory —
                    // is handled as background work inside the engine.)
                    let outcome = self.engine.access(core, line, r, now, &mut self.fabric);
                    self.record_latency(&outcome.breakdown);
                    let done = outcome.complete_at;
                    // The miss occupies an MSHR way from issue to
                    // completion. The scheduler never advances a core
                    // past the next way's free time, so a way is always
                    // available here — acquisition must not queue.
                    let (grant, free_at) = self.mshrs[core].issue(now, done - now);
                    debug_assert_eq!(grant.queued, 0, "core issued without a free MSHR");
                    // The core occupies its issue slot for one cycle,
                    // then runs ahead — but no earlier than the next
                    // free MSHR way. With a single way this is exactly
                    // `done` (the transaction always outlives the issue
                    // cycle), i.e. the blocking-core semantics.
                    (now + 1).max(free_at)
                }
            };
            self.core_time[core] = next;
            if remaining[core] == 0 {
                PeekMut::pop(top);
            } else {
                *top = core_key(next, core);
            }
        }
        self.flush_latency();
        // Region barrier: the region only ends once every core's
        // outstanding misses have drained, so warm-up, profiling windows
        // and the measured region never leak in-flight work into each
        // other. (A single-way core is always drained by construction.)
        for (t, m) in self.core_time.iter_mut().zip(&self.mshrs) {
            *t = (*t).max(m.drained_at());
        }
        let end_max = *self.core_time.iter().max().expect("cores");
        (end_max - start_max, total_ops, total_mem)
    }

    /// Runs the warm-up region (not measured). A no-op when
    /// `warmup_per_thread` is zero. Part of the epoch-stepping API:
    /// `run` is exactly `warm_up` → `begin_region` → steps →
    /// `finish_region`, and external callers (the dve-service epoch
    /// runner) may compose the same phases without consuming the
    /// system.
    pub fn warm_up(&mut self) {
        if self.cfg.warmup_per_thread > 0 {
            self.run_ops(self.cfg.warmup_per_thread);
        }
    }

    /// Opens a measurement region: snapshots the cumulative counters
    /// and clears the per-op latency histograms, so the eventual
    /// [`System::finish_region`] reports deltas over exactly the work
    /// stepped in between.
    pub fn begin_region(&mut self) {
        self.lat_hists = LatencyHists::new();
        self.region = Some(RegionStart {
            traffic: self.fabric.traffic().clone(),
            dyn_joules: self.fabric.total_energy(),
            breakdown: self.engine.stats().latency_breakdown,
            class: (0..self.cfg.engine.sockets)
                .map(|s| self.engine.home_dir(s).class_counts())
                .collect(),
            cycles: 0,
            ops: 0,
            mem_ops: 0,
        });
    }

    /// Executes `mem_ops_per_core` trace operations on every core — one
    /// epoch of the synthesized workload — without consuming the
    /// system. Returns `(wall cycles, ops, mem ops)` for this step and
    /// accumulates them into the open region, if any. Stepping a run in
    /// epochs is cycle-exact with running it whole at `mshrs = 1` (the
    /// pinned-golden regime): the inter-epoch MSHR drain barrier is a
    /// no-op for blocking cores.
    pub fn step_ops(&mut self, mem_ops_per_core: u64) -> (u64, u64, u64) {
        let (cycles, ops, mems) = self.run_ops(mem_ops_per_core);
        if let Some(region) = &mut self.region {
            region.cycles += cycles;
            region.ops += ops;
            region.mem_ops += mems;
        }
        (cycles, ops, mems)
    }

    /// Executes one epoch of externally supplied operations against the
    /// live system and returns per-op completions (indexed like `ops`).
    ///
    /// Each core executes its assigned ops in slice order; across
    /// cores, the scheduler advances the core with the earliest local
    /// clock, exactly like the trace runner — so coherence contention,
    /// bank conflicts, chaos events and link occupancy all apply to
    /// client traffic. The epoch ends with the same MSHR drain barrier
    /// the trace runner uses between regions. Deterministic: the same
    /// batch against the same system state reproduces bit-for-bit.
    pub fn run_batch(&mut self, ops: &[ClientOp]) -> Vec<OpCompletion> {
        let cores = self.core_time.len();
        let start_max = self.now();
        // Per-core FIFO of indices into `ops`, preserving slice order.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); cores];
        for (i, op) in ops.iter().enumerate() {
            assert!(
                op.core < cores,
                "ClientOp.core {} out of range ({} cores)",
                op.core,
                cores
            );
            queues[op.core].push(i);
        }
        let mut cursor = vec![0usize; cores];
        let mut heap = core_heap(
            &self.core_time,
            (0..cores).filter(|&c| !queues[c].is_empty()),
        );
        let mut completions: Vec<Option<OpCompletion>> = vec![None; ops.len()];
        while let Some(mut top) = heap.peek_mut() {
            let (now, core) = key_parts(*top);
            self.advance_chaos(now);
            let idx = queues[core][cursor[core]];
            cursor[core] += 1;
            let op = &ops[idx];
            let r = match op.req {
                MemReq::Read => ReqType::Read,
                MemReq::Write => ReqType::Write,
            };
            // Snapshot the recovery counters after chaos advanced but
            // before this access: the delta across the access is this
            // op's own recovery exposure (scrub activity between ops
            // stays unattributed by construction).
            let (detected0, mces0) = self.fabric.op_exposure();
            let outcome = self.engine.access(core, op.line, r, now, &mut self.fabric);
            let (detected1, mces1) = self.fabric.op_exposure();
            self.record_latency(&outcome.breakdown);
            let done = outcome.complete_at;
            completions[idx] = Some(OpCompletion {
                issued_at: now,
                complete_at: done,
                breakdown: outcome.breakdown,
                detected_reads: detected1 - detected0,
                machine_checks: mces1 - mces0,
            });
            // Same MSHR semantics as the trace runner: the miss holds a
            // way from issue to completion and the core never runs past
            // the next free way.
            let (grant, free_at) = self.mshrs[core].issue(now, done - now);
            debug_assert_eq!(grant.queued, 0, "core issued without a free MSHR");
            let next = (now + 1).max(free_at);
            self.core_time[core] = next;
            if cursor[core] < queues[core].len() {
                *top = core_key(next, core);
            } else {
                PeekMut::pop(top);
            }
        }
        self.flush_latency();
        // Epoch barrier: drain outstanding misses so epochs never leak
        // in-flight work into each other.
        for (t, m) in self.core_time.iter_mut().zip(&self.mshrs) {
            *t = (*t).max(m.drained_at());
        }
        let end_max = *self.core_time.iter().max().expect("cores");
        if let Some(region) = &mut self.region {
            region.cycles += end_max - start_max;
            region.ops += ops.len() as u64;
            region.mem_ops += ops.len() as u64;
        }
        completions
            .into_iter()
            .map(|c| c.expect("every submitted op completes"))
            .collect()
    }

    /// Closes the measurement region opened by
    /// [`System::begin_region`] and collects a [`RunResult`] over the
    /// work stepped in between, without consuming the system (a new
    /// region may be opened afterwards).
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub fn finish_region(&mut self) -> RunResult {
        let region = self
            .region
            .take()
            .expect("begin_region before finish_region");
        let cycles = region.cycles;
        let ops = region.ops;
        let mem_ops = region.mem_ops;

        // Deltas over the measured region.
        let traffic = self.fabric.traffic().saturating_sub(&region.traffic);
        let latency = self
            .engine
            .stats()
            .latency_breakdown
            .delta_since(&region.breakdown);
        let dyn_joules = self.fabric.total_energy() - region.dyn_joules;
        let seconds = CORE_CLOCK.nanos_for(Cycles(cycles)) * 1e-9;
        // Background power of the full DIMM population over the region.
        let background = EnergyParams::background_joules(self.cfg.total_ranks(), seconds);
        let mem_energy = dyn_joules + background;

        let mut counts = [0u64; 4];
        for (s, before) in region.class.iter().enumerate() {
            let after = self.engine.home_dir(s).class_counts();
            for (c, (a, b)) in counts.iter_mut().zip(after.iter().zip(before)) {
                // Class counters only ever increment; a snapshot taken
                // before the measured region can never exceed one taken
                // after. A raw-u64 subtraction would wrap silently on a
                // violation, so fail loudly in debug builds instead.
                debug_assert!(
                    a >= b,
                    "class counter went backwards over the measured region: {a} < {b}"
                );
                *c += a - b;
            }
        }
        let total: u64 = counts.iter().sum();
        let mut fractions = [0.0; 4];
        if total > 0 {
            for (f, &c) in fractions.iter_mut().zip(&counts) {
                *f = c as f64 / total as f64;
            }
        }

        let dram = self.fabric.dram_stats();
        let max_row_activations = self
            .fabric
            .controllers()
            .iter()
            .flatten()
            .map(|c| c.rowhammer().max_activations())
            .max()
            .unwrap_or(0);
        RunResult {
            scheme: self.cfg.scheme,
            workload: self.workload.clone(),
            cycles,
            ops,
            mem_ops,
            engine: self.engine.stats(),
            latency,
            traffic,
            class_fractions: fractions,
            mem_energy_joules: mem_energy,
            seconds,
            mem_edp: mem_energy * seconds,
            dram_rows: (dram.row_hits, dram.row_misses, dram.row_conflicts),
            dram_queue: (dram.reads + dram.writes, dram.queue_delay_sum),
            max_row_activations,
            recovery: self.fabric.ledger(),
            latency_hist: self.lat_hists.clone(),
        }
    }

    /// Runs warm-up + the measured region and collects results. For the
    /// dynamic scheme this includes the per-epoch profiling procedure.
    /// Exactly equivalent to composing the epoch-stepping API:
    /// [`System::warm_up`], [`System::begin_region`],
    /// [`System::step_ops`], [`System::finish_region`].
    pub fn run(mut self) -> RunResult {
        self.warm_up();
        self.begin_region();
        if self.cfg.scheme == Scheme::DveDynamic {
            self.run_dynamic();
        } else {
            self.step_ops(self.cfg.ops_per_thread);
        }
        self.finish_region()
    }

    /// The sampling-based dynamic protocol: per epoch, profile both
    /// state machines on a window, then run the remainder with the
    /// winner. Work accounting accumulates into the open region via
    /// [`System::step_ops`].
    fn run_dynamic(&mut self) {
        let total = self.cfg.ops_per_thread;
        let window = DYNAMIC_WINDOW;
        // One epoch = 2 profiling windows + 8 windows of the winner
        // (the paper's 100M-per-1B ratio, scaled).
        let epoch_body = window * 8;
        let mut done = 0u64;
        let spec = self.cfg.speculative;
        while done < total {
            // Profile allow.
            let now = self.now();
            self.engine
                .switch_policy(ReplicaPolicy::Allow, spec, now, &mut self.fabric);
            let w = window.min(total - done);
            let (c_allow, _, _) = self.step_ops(w);
            done += w;
            if done >= total {
                break;
            }
            // Profile deny.
            let now = self.now();
            self.engine
                .switch_policy(ReplicaPolicy::Deny, spec, now, &mut self.fabric);
            let w = window.min(total - done);
            let (c_deny, _, _) = self.step_ops(w);
            done += w;
            if done >= total {
                break;
            }
            // Apply the winner for the epoch body.
            let winner = if c_allow < c_deny {
                ReplicaPolicy::Allow
            } else {
                ReplicaPolicy::Deny
            };
            let now = self.now();
            self.engine
                .switch_policy(winner, spec, now, &mut self.fabric);
            let w = epoch_body.min(total - done);
            self.step_ops(w);
            done += w;
        }
    }
}

/// Convenience: run one workload under one scheme with Table II config.
pub fn run_workload(
    profile: &WorkloadProfile,
    scheme: Scheme,
    ops_per_thread: u64,
    seed: u64,
) -> RunResult {
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.ops_per_thread = ops_per_thread;
    cfg.warmup_per_thread = ops_per_thread / 10;
    System::new(cfg, profile, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_workloads::catalog;

    fn small_run(scheme: Scheme, workload: &str, ops: u64) -> RunResult {
        let p = catalog().into_iter().find(|p| p.name == workload).unwrap();
        run_workload(&p, scheme, ops, 42)
    }

    #[test]
    fn latency_fold_table_equals_per_op_recording() {
        // A chaos run with overlapped misses gives far more distinct
        // breakdowns than the fold table has slots (evictions) and
        // recovery detours; after every epoch the histograms must equal
        // recording each returned breakdown as it completed.
        use crate::chaos::{ChaosConfig, ChaosParams};
        use dve_dram::controller::EccProfile;
        use dve_sim::rng::SplitMix64;
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.mshrs = 4;
        cfg.ecc = EccProfile::tsd();
        let span = dve_workloads::TraceGenerator::new(&p, cfg.engine.cores, 42).span_lines();
        cfg.chaos = Some(ChaosConfig::random(
            7,
            &ChaosParams {
                faults: 8,
                horizon: 200_000,
                transient_fraction: 0.5,
                heal_after: Some(100_000),
                channels_per_socket: cfg.channels_per_socket(),
                line_span: span,
                nodes: cfg.nodes(),
            },
        ));
        let cores = cfg.engine.cores as u64;
        let mut sys = System::new(cfg, &p, 42);
        let mut rng = SplitMix64::new(0xF01D);
        let mut want = LatencyHists::new();
        let mut shapes = Vec::new();
        for epoch in 0..40 {
            let batch: Vec<ClientOp> = (0..1024 + 37 * (epoch % 5))
                .map(|_| ClientOp {
                    core: rng.next_below(cores) as usize,
                    line: rng.next_below(span),
                    req: if rng.next_below(10) < 7 {
                        MemReq::Read
                    } else {
                        MemReq::Write
                    },
                })
                .collect();
            for c in sys.run_batch(&batch) {
                want.record(&c.breakdown);
                shapes.push(c.breakdown);
            }
            let got = sys.latency_hists();
            assert_eq!(got, &want, "epoch {epoch}");
            for c in Component::ALL {
                for q in [0.5, 0.99, 0.999, 1.0] {
                    assert_eq!(
                        got.component(c).percentile(q),
                        want.component(c).percentile(q),
                        "epoch {epoch} {} p{q}",
                        c.label()
                    );
                }
            }
            assert_eq!(got.total.percentile(0.99), want.total.percentile(0.99));
        }
        assert!(want.component(Component::Recovery).max() > 0, "no detour");
        shapes.sort_unstable_by_key(|b| {
            (
                b.mesh,
                b.link,
                b.bank_queue,
                b.bank_service,
                b.protocol,
                b.recovery,
            )
        });
        shapes.dedup();
        assert!(shapes.len() > 4 * LAT_FOLD_SLOTS, "{} shapes", shapes.len());
    }

    #[test]
    fn core_key_orders_like_reverse_clock_then_core() {
        use dve_sim::rng::SplitMix64;
        use std::cmp::Reverse;
        let max_core = (1 << CORE_BITS) - 1;
        let mut rng = SplitMix64::new(0xC0DE_4EA9);
        let mut pairs = vec![
            (0, 0),
            (0, max_core),
            (MAX_KEY_CLOCK, 0),
            (MAX_KEY_CLOCK, max_core),
        ];
        for _ in 0..600 {
            // Clocks drawn from a few narrow bands, so many pairs tie.
            let clock = match rng.next_below(3) {
                0 => rng.next_below(4),
                1 => MAX_KEY_CLOCK - rng.next_below(4),
                _ => rng.next_below(MAX_KEY_CLOCK + 1),
            };
            pairs.push((clock, rng.next_below(max_core as u64 + 1) as usize));
        }
        for &(clock, core) in &pairs {
            assert_eq!(key_parts(core_key(clock, core)), (clock, core));
        }
        for &a in &pairs {
            for &b in &pairs {
                assert_eq!(
                    core_key(a.0, a.1).cmp(&core_key(b.0, b.1)),
                    (Reverse(a.0), a.1).cmp(&(Reverse(b.0), b.1)),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scheduler key overflow")]
    fn core_key_rejects_a_clock_past_the_key() {
        core_key(MAX_KEY_CLOCK + 1, 0);
    }

    #[test]
    fn zero_op_budget_terminates_with_empty_result() {
        // `run_ops(0)` used to decrement `remaining[core]` straight to
        // u64::MAX on the first memory op: a panic in debug builds and
        // an effectively infinite loop in release. A zero budget (and
        // the zero warmup it implies via `run_workload`) must instead
        // run nothing and return immediately.
        for scheme in [Scheme::BaselineNuma, Scheme::DveDeny, Scheme::DveDynamic] {
            let r = small_run(scheme, "backprop", 0);
            assert_eq!(r.cycles, 0, "{scheme:?}: no cycles simulated");
            assert_eq!(r.ops, 0, "{scheme:?}: no ops executed");
            assert_eq!(r.mem_ops, 0, "{scheme:?}: no memory ops executed");
        }
    }

    #[test]
    fn zero_warmup_measures_from_cold_caches() {
        // warmup_per_thread == 0 must skip the warm-up region entirely
        // (not attempt a zero-budget run) and still measure correctly.
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(Scheme::BaselineNuma);
        cfg.ops_per_thread = 300;
        cfg.warmup_per_thread = 0;
        let r = System::new(cfg, &p, 7).run();
        assert_eq!(r.mem_ops, 300 * 16);
        assert!(r.cycles > 0);
    }

    #[test]
    fn baseline_run_completes_deterministically() {
        let a = small_run(Scheme::BaselineNuma, "backprop", 500);
        let b = small_run(Scheme::BaselineNuma, "backprop", 500);
        assert_eq!(a.cycles, b.cycles, "bit-for-bit reproducible");
        assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
        assert!(a.cycles > 0);
        assert_eq!(a.mem_ops, 500 * 16);
    }

    #[test]
    fn deny_beats_baseline_on_read_heavy_workload() {
        let base = small_run(Scheme::BaselineNuma, "backprop", 1500);
        let deny = small_run(Scheme::DveDeny, "backprop", 1500);
        let speedup = deny.speedup_over(&base);
        assert!(speedup > 1.0, "speedup = {speedup:.3}");
        assert!(deny.engine.replica_reads > 0);
    }

    #[test]
    fn deny_cuts_inter_socket_traffic_on_read_heavy_workload() {
        let base = small_run(Scheme::BaselineNuma, "backprop", 1500);
        let deny = small_run(Scheme::DveDeny, "backprop", 1500);
        let norm = deny.traffic.normalized_to(&base.traffic);
        assert!(norm < 0.9, "normalized traffic = {norm:.3}");
    }

    #[test]
    fn allow_beats_deny_on_private_write_heavy_workload() {
        // Long enough that the write-allocation effect dominates the
        // trace-synthesis noise (short runs sit within ~0.5% of parity).
        let allow = small_run(Scheme::DveAllow, "lbm", 6000);
        let deny = small_run(Scheme::DveDeny, "lbm", 6000);
        assert!(
            allow.cycles < deny.cycles,
            "allow {} vs deny {}",
            allow.cycles,
            deny.cycles
        );
    }

    #[test]
    fn deny_beats_allow_on_read_heavy_workload() {
        let allow = small_run(Scheme::DveAllow, "xsbench", 1500);
        let deny = small_run(Scheme::DveDeny, "xsbench", 1500);
        assert!(
            deny.cycles < allow.cycles,
            "deny {} vs allow {}",
            deny.cycles,
            allow.cycles
        );
    }

    #[test]
    fn class_fractions_reflect_profile() {
        let r = small_run(Scheme::BaselineNuma, "lbm", 1000);
        // lbm is dominated by private read/write.
        assert!(
            r.class_fractions[3] > 0.3,
            "private-rw fraction = {:.3}",
            r.class_fractions[3]
        );
        let sum: f64 = r.class_fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_scheme_runs_and_is_competitive() {
        let base = small_run(Scheme::BaselineNuma, "backprop", 2000);
        let dynamic = small_run(Scheme::DveDynamic, "backprop", 2000);
        let speedup = dynamic.speedup_over(&base);
        assert!(speedup > 0.95, "dynamic speedup = {speedup:.3}");
    }

    #[test]
    fn mirror_scheme_runs() {
        let r = small_run(Scheme::IntelMirrorPlus, "fft", 500);
        assert!(r.cycles > 0);
        assert_eq!(
            r.engine.replica_reads, 0,
            "mirroring is not coherent replication"
        );
    }

    #[test]
    fn energy_accounting_positive() {
        let r = small_run(Scheme::DveDeny, "fft", 500);
        assert!(r.mem_energy_joules > 0.0);
        assert!(r.mem_edp > 0.0);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn latency_breakdown_conserves_and_attributes() {
        // With no warm-up, the measured-region breakdown is the whole
        // run's, and conservation pins it to the engine's per-class
        // latency sums exactly.
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.ops_per_thread = 300;
        cfg.warmup_per_thread = 0;
        let r = System::new(cfg, &p, 7).run();
        let engine_total: u64 = r.engine.latency_sum.iter().sum();
        assert_eq!(r.latency.total(), engine_total, "conservation");
        assert!(r.latency.protocol > 0, "cache/directory lookups charged");
        assert!(r.latency.bank_service > 0, "DRAM service charged");
        assert!(r.latency.link > 0, "remote traffic charged");
        // Fractions are well-formed.
        let sum: f64 = dve_sim::latency::Component::ALL
            .iter()
            .map(|&c| r.latency.fraction(c))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn class_fraction_deltas_are_monotone() {
        // Satellite check for the measured-region class-count deltas:
        // the warm-up region inflates the "before" snapshot, and the
        // debug_assert in `run()` verifies after >= before per class.
        // A run with both regions exercises that guard; the fractions
        // it produces must be a valid distribution.
        let r = small_run(Scheme::DveDeny, "backprop", 800);
        for (i, f) in r.class_fractions.iter().enumerate() {
            assert!((0.0..=1.0).contains(f), "class {i} fraction {f}");
        }
        let sum: f64 = r.class_fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_mshr_blocks_and_more_ways_overlap() {
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let run_with = |m: usize| {
            let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
            cfg.ops_per_thread = 500;
            cfg.warmup_per_thread = 50;
            cfg.mshrs = m;
            System::new(cfg, &p, 42).run()
        };
        let blocking = run_with(1);
        let overlapped = run_with(4);
        assert_eq!(blocking.mem_ops, overlapped.mem_ops, "same work");
        assert!(
            overlapped.cycles < blocking.cycles,
            "4 MSHRs must overlap misses: {} vs {}",
            overlapped.cycles,
            blocking.cycles
        );
        // Overlapped runs stay deterministic.
        let again = run_with(4);
        assert_eq!(overlapped.cycles, again.cycles);
    }

    #[test]
    fn inert_chaos_is_bit_identical_to_disarmed() {
        use crate::chaos::ChaosConfig;
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        for scheme in [Scheme::BaselineNuma, Scheme::DveAllow, Scheme::DveDeny] {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 500;
            cfg.warmup_per_thread = 50;
            let plain = System::new(cfg.clone(), &p, 42).run();
            cfg.chaos = Some(ChaosConfig::inert());
            let armed = System::new(cfg, &p, 42).run();
            assert_eq!(plain.cycles, armed.cycles, "{scheme:?}: cycle-exact");
            assert_eq!(plain.latency, armed.latency, "{scheme:?}: same breakdown");
            assert_eq!(
                plain.traffic.total_bytes(),
                armed.traffic.total_bytes(),
                "{scheme:?}: same traffic"
            );
            assert!(
                !armed.recovery.any_activity(),
                "{scheme:?}: inert means inert"
            );
            assert_eq!(armed.latency.recovery, 0, "{scheme:?}: no recovery time");
        }
    }

    fn chaos_run(
        scheme: Scheme,
        chaos: crate::chaos::ChaosConfig,
        ops: u64,
        seed: u64,
    ) -> RunResult {
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.ops_per_thread = ops;
        cfg.warmup_per_thread = ops / 10;
        cfg.chaos = Some(chaos);
        System::new(cfg, &p, seed).run()
    }

    #[test]
    fn transient_controller_fault_is_repaired_in_band() {
        use crate::chaos::{ChaosConfig, FaultAction, FaultEvent, FaultSchedule, FaultSite};
        let chaos = ChaosConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: 1_000,
                socket: 0,
                channel: 0,
                action: FaultAction::Plant {
                    site: FaultSite::Controller,
                    transient: true,
                },
            }]),
            ..ChaosConfig::inert()
        };
        let r = chaos_run(Scheme::DveDeny, chaos, 500, 42);
        assert_eq!(r.recovery.faults_planted, 1);
        assert_eq!(r.recovery.repaired, 1, "first detected read repairs it");
        assert_eq!(r.recovery.degraded, 0);
        assert!(r.recovery.consistent(), "{:?}", r.recovery);
        assert_eq!(
            r.engine.degraded_transitions, 0,
            "a repaired transient never degrades the engine"
        );
    }

    #[test]
    fn hard_fault_degrades_engine_and_heal_restores_it() {
        use crate::chaos::{ChaosConfig, FaultAction, FaultEvent, FaultSchedule, FaultSite};
        let chaos = ChaosConfig {
            schedule: FaultSchedule::new(vec![
                FaultEvent {
                    at: 1_000,
                    socket: 0,
                    channel: 0,
                    action: FaultAction::Plant {
                        site: FaultSite::Controller,
                        transient: false,
                    },
                },
                FaultEvent {
                    at: 25_000,
                    socket: 0,
                    channel: 0,
                    action: FaultAction::Heal {
                        site: FaultSite::Controller,
                    },
                },
            ]),
            ..ChaosConfig::inert()
        };
        let r = chaos_run(Scheme::DveDeny, chaos, 500, 42);
        assert!(r.recovery.degraded > 0, "hard fault degrades copies");
        assert_eq!(r.recovery.faults_healed, 1);
        assert!(
            r.engine.degraded_transitions >= 2,
            "entered and left §V-E degraded state: {}",
            r.engine.degraded_transitions
        );
        assert!(r.recovery.consistent(), "{:?}", r.recovery);
        assert!(r.latency.recovery > 0, "detours cost measured time");
        // Determinism: the same chaos run reproduces bit-for-bit.
        let chaos2 = crate::chaos::ChaosConfig {
            schedule: crate::chaos::FaultSchedule::new(vec![
                FaultEvent {
                    at: 1_000,
                    socket: 0,
                    channel: 0,
                    action: FaultAction::Plant {
                        site: FaultSite::Controller,
                        transient: false,
                    },
                },
                FaultEvent {
                    at: 25_000,
                    socket: 0,
                    channel: 0,
                    action: FaultAction::Heal {
                        site: FaultSite::Controller,
                    },
                },
            ]),
            ..crate::chaos::ChaosConfig::inert()
        };
        let again = chaos_run(Scheme::DveDeny, chaos2, 500, 42);
        assert_eq!(r.cycles, again.cycles);
        assert_eq!(r.recovery, again.recovery);
    }

    #[test]
    fn link_outage_window_forces_and_lifts_degraded_mode() {
        use crate::chaos::ChaosConfig;
        let chaos = ChaosConfig {
            link_outages: vec![(2_000, 12_000)],
            ..ChaosConfig::inert()
        };
        let r = chaos_run(Scheme::DveDeny, chaos, 500, 42);
        assert_eq!(
            r.engine.degraded_transitions, 2,
            "one §V-E round trip for the outage window"
        );
        assert_eq!(r.mem_ops, 500 * 16, "all work still completes");
        assert!(r.recovery.consistent());
    }

    #[test]
    fn paced_scrub_runs_and_contends_without_faults() {
        use crate::chaos::{ChaosConfig, ScrubConfig};
        let chaos = ChaosConfig {
            scrub: Some(ScrubConfig {
                region_bytes: 1 << 14,
                lines_per_slice: 16,
                interval: 5_000,
            }),
            ..ChaosConfig::inert()
        };
        let r = chaos_run(Scheme::DveDeny, chaos, 500, 42);
        assert!(r.recovery.scrub_slices > 0, "the patrol ran");
        assert_eq!(
            r.recovery.scrub_lines,
            r.recovery.scrub_slices * 16,
            "fault-free slices never clip early"
        );
        assert_eq!(r.recovery.scrub_detected, 0);
        assert_eq!(r.recovery.detected_reads, 0, "no demand detour");
        assert!(r.recovery.consistent());
    }

    #[test]
    fn epoch_stepping_composes_run_exactly() {
        // `run` is exactly warm_up → begin_region → step_ops(total) →
        // finish_region; composing the public phases by hand must be
        // bit-identical (this is the decomposition the pinned goldens
        // ride on).
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        for scheme in [Scheme::BaselineNuma, Scheme::DveAllow, Scheme::DveDeny] {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 500;
            cfg.warmup_per_thread = 50;
            let whole = System::new(cfg.clone(), &p, 42).run();
            let mut sys = System::new(cfg.clone(), &p, 42);
            sys.warm_up();
            sys.begin_region();
            sys.step_ops(500);
            let stepped = sys.finish_region();
            assert_eq!(stepped.cycles, whole.cycles, "{scheme:?}");
            assert_eq!(stepped.mem_ops, whole.mem_ops, "{scheme:?}");
            assert_eq!(stepped.latency, whole.latency, "{scheme:?}");
            assert_eq!(stepped.latency_hist, whole.latency_hist, "{scheme:?}");
            assert_eq!(
                stepped.traffic.total_bytes(),
                whole.traffic.total_bytes(),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn epoch_stepping_is_deterministic_and_conserving_at_any_split() {
        // Finer epoch splits re-order how the engine *processes*
        // concurrent accesses (each step is a scheduling barrier), so
        // they are not required to be cycle-identical to the whole run
        // — but every split must be deterministic under replay, run
        // all the work, and keep the latency histograms conserving
        // against the region aggregate.
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let run_split = |epoch: u64| {
            let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
            cfg.ops_per_thread = 500;
            cfg.warmup_per_thread = 50;
            let mut sys = System::new(cfg, &p, 42);
            sys.warm_up();
            sys.begin_region();
            let mut left = 500u64;
            while left > 0 {
                let w = epoch.min(left);
                sys.step_ops(w);
                left -= w;
            }
            sys.finish_region()
        };
        for epoch in [7u64, 50, 125] {
            let a = run_split(epoch);
            let b = run_split(epoch);
            assert_eq!(a.cycles, b.cycles, "epoch={epoch}: replay bit-identical");
            assert_eq!(a.latency_hist, b.latency_hist, "epoch={epoch}");
            assert_eq!(a.mem_ops, 500 * 16, "epoch={epoch}: all work ran");
            assert!(a.latency_hist.conserves(&a.latency), "epoch={epoch}");
        }
    }

    #[test]
    fn run_result_latency_hist_conserves_and_reports_tails() {
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.ops_per_thread = 400;
        cfg.warmup_per_thread = 40;
        let r = System::new(cfg, &p, 7).run();
        // The measured-region histograms sum-conserve against the
        // measured-region aggregate breakdown, component by component.
        assert!(r.latency_hist.conserves(&r.latency));
        assert_eq!(r.latency_hist.count(), r.mem_ops);
        let (p50, p99, p999) = r.latency_tail();
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "{p50}/{p99}/{p999}");
        assert!(
            p999 as u128 <= r.latency_hist.total.sum(),
            "sane upper bound"
        );
        let (b50, _, b999) = r.component_tail(Component::BankService);
        assert!(b50 <= b999);
    }

    fn client_batch(seed: u64, n: usize, cores: usize) -> Vec<ClientOp> {
        let mut rng = dve_sim::rng::SplitMix64::new(seed);
        (0..n)
            .map(|_| ClientOp {
                core: rng.next_below(cores as u64) as usize,
                line: rng.next_below(1 << 14),
                req: if rng.chance(0.7) {
                    MemReq::Read
                } else {
                    MemReq::Write
                },
            })
            .collect()
    }

    #[test]
    fn run_batch_completes_every_op_deterministically() {
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.warmup_per_thread = 0;
        let run_once = || {
            let mut sys = System::new(cfg.clone(), &p, 42);
            sys.begin_region();
            let mut all = Vec::new();
            for epoch in 0..4u64 {
                let batch = client_batch(epoch, 800, sys.cores());
                all.extend(sys.run_batch(&batch));
            }
            (all, sys.finish_region())
        };
        let (a, ra) = run_once();
        let (b, rb) = run_once();
        assert_eq!(a, b, "bit-identical completions on replay");
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(a.len(), 4 * 800);
        // Per-op stamps conserve and the region histograms cover
        // exactly the batched ops.
        for c in &a {
            assert_eq!(
                c.breakdown.total(),
                c.complete_at - c.issued_at,
                "per-op conservation"
            );
        }
        assert_eq!(ra.mem_ops, 4 * 800);
        assert_eq!(ra.latency_hist.count(), 4 * 800);
        assert!(ra.latency_hist.conserves(&ra.latency));
    }

    #[test]
    fn run_batch_respects_mshr_width() {
        // Same batch, wider cores: overlapped misses can only shrink
        // the epoch's wall time, and determinism holds either way.
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let run_with = |mshrs: usize| {
            let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
            cfg.warmup_per_thread = 0;
            cfg.mshrs = mshrs;
            let mut sys = System::new(cfg, &p, 42);
            let batch = client_batch(1, 2000, sys.cores());
            sys.begin_region();
            sys.run_batch(&batch);
            sys.finish_region().cycles
        };
        let blocking = run_with(1);
        let overlapped = run_with(4);
        assert!(
            overlapped < blocking,
            "4 MSHRs must overlap client misses: {overlapped} vs {blocking}"
        );
    }

    #[test]
    fn forced_degraded_flip_reaches_engine_and_lifts() {
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.warmup_per_thread = 0;
        let mut sys = System::new(cfg, &p, 42);
        let batch = client_batch(2, 500, sys.cores());
        sys.run_batch(&batch);
        assert_eq!(sys.engine_stats().degraded_transitions, 0);
        sys.set_forced_degraded(true);
        sys.run_batch(&batch);
        assert_eq!(sys.engine_stats().degraded_transitions, 1, "entered §V-E");
        sys.set_forced_degraded(true); // redundant flip: no edge
        assert_eq!(sys.engine_stats().degraded_transitions, 1);
        sys.set_forced_degraded(false);
        sys.run_batch(&batch);
        assert_eq!(sys.engine_stats().degraded_transitions, 2, "left §V-E");
    }

    #[test]
    fn mshr_scaling_is_monotone_on_backprop() {
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut last = u64::MAX;
        for m in [1usize, 2, 4, 8] {
            let mut cfg = SystemConfig::table_ii(Scheme::BaselineNuma);
            cfg.ops_per_thread = 400;
            cfg.warmup_per_thread = 40;
            cfg.mshrs = m;
            let r = System::new(cfg, &p, 42).run();
            assert!(
                r.cycles <= last,
                "mshrs={m} slower than previous: {} > {last}",
                r.cycles
            );
            last = r.cycles;
        }
    }
}
