//! The op-by-op conformance checker.
//!
//! A [`ConformanceChecker`] owns one production [`ProtocolEngine`], a
//! [`RecordingFabric`] and a [`GoldenShadow`], drives [`FuzzOp`]s
//! through the engine one at a time (matching §V-C3's per-line
//! serialization at the directory), and after **every** op verifies:
//!
//! 1. **Latency monotonicity** — the reported completion time is not
//!    before the issue time — and **latency conservation** — the
//!    per-component breakdown the outcome carries sums exactly to the
//!    end-to-end latency (every cycle attributed to one layer, none
//!    invented).
//! 2. **Read-returns-last-write** — the physical location the engine's
//!    reported [`ServiceLevel`] names must hold the golden latest
//!    version of the line (per the shadow's freshness mask).
//! 3. **Routing integrity** — replica-served reads only for lines that
//!    actually have a replica, and only with a recorded replica-memory
//!    access; owner-served reads only when the home directory knows an
//!    owner.
//! 4. **Structural invariants** over the whole line pool: SWMR, L1⊆LLC
//!    inclusion, L1-sharer-mask agreement, no *stale resident copy*
//!    anywhere, home-directory ↔ cache agreement, replica-directory
//!    hygiene (no entries outside Dvé/healthy/covered state), the deny
//!    guarantee (home-side M ⇒ not replica-readable), the allow
//!    guarantee (S permission ⇒ no dirty copy of the line anywhere),
//!    and replica-memory freshness whenever the replica directory would
//!    allow a read to be served from it.
//! 5. **Stats conservation** — ops/reads/writes/served/latency_sum
//!    against an independently maintained mirror, and
//!    `served[L1] == l1_hits`.
//!
//! Any failure is reported as a [`Violation`] whose `kind` starts with
//! a stable class prefix (`stale-read:`, `swmr:`, `inclusion:`,
//! `dir-mismatch:`, `replica-dir:`, `stale-copy:`, `monotonicity:`,
//! `conservation:`, `routing:`, `stats:`) — the shrinker preserves the
//! class while minimizing the trace.

use crate::shadow::{FabricEvent, GoldenShadow, Location, RecordingFabric};
use crate::trace::{FuzzConfig, FuzzOp};
use dve_coherence::engine::{service_index, ProtocolEngine, SeededBug};
use dve_coherence::replica_dir::{ReplicaPolicy, ReplicaState};
use dve_coherence::types::{LineAddr, ReqType, ServiceLevel};
use dve_coherence::Mode;
use dve_sim::latency::LatencyBreakdown;

/// A conformance failure: the index of the op that exposed it and a
/// human-readable description starting with a stable class prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index (within the trace) of the op after which the check failed.
    pub op_index: usize,
    /// Class-prefixed description (`class: details`).
    pub kind: String,
}

impl Violation {
    /// The class prefix of the violation (text before the first `:`).
    pub fn class(&self) -> &str {
        self.kind.split(':').next().unwrap_or(&self.kind)
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {}", self.op_index, self.kind)
    }
}

/// Independent mirror of the engine-stat fields the checker can predict
/// exactly from the outcomes it observes.
#[derive(Debug, Clone, Copy, Default)]
struct StatsMirror {
    ops: u64,
    reads: u64,
    writes: u64,
    served: [u64; 6],
    latency_sum: [u64; 6],
    breakdown: LatencyBreakdown,
}

/// Drives ops through one engine configuration and checks every
/// invariant after each op.
#[derive(Debug)]
pub struct ConformanceChecker {
    engine: ProtocolEngine,
    fabric: RecordingFabric,
    shadow: GoldenShadow,
    mirror: StatsMirror,
    /// All lines the trace may touch (structural checks sweep these).
    pool: Vec<LineAddr>,
    now: u64,
    ops_applied: usize,
}

impl ConformanceChecker {
    /// Builds a checker for `cfg`, optionally seeding `bug` into the
    /// engine (mutation-check mode). `pool` lists every line the trace
    /// may address.
    pub fn new(cfg: &FuzzConfig, bug: Option<SeededBug>, pool: Vec<LineAddr>) -> Self {
        let mut engine = ProtocolEngine::new(cfg.mode, cfg.engine.clone());
        engine.seed_bug(bug);
        let shadow = GoldenShadow::new(engine.placement(), cfg.engine.cores_per_socket());
        let fabric = RecordingFabric::with_nodes(engine.num_nodes());
        ConformanceChecker {
            engine,
            fabric,
            shadow,
            mirror: StatsMirror::default(),
            pool,
            // Start at 1 so an op whose completion "time travels" below
            // its issue time is distinguishable even on the very first
            // op (a saturating 0 would equal an issue time of 0).
            now: 1,
            ops_applied: 0,
        }
    }

    /// The engine under test (read-only, for reporting).
    pub fn engine(&self) -> &ProtocolEngine {
        &self.engine
    }

    /// Number of ops applied so far.
    pub fn ops_applied(&self) -> usize {
        self.ops_applied
    }

    /// Applies one op and runs every check. Returns the first violation.
    pub fn apply(&mut self, op: FuzzOp) -> Result<(), Violation> {
        let idx = self.ops_applied;
        self.ops_applied += 1;
        match op {
            FuzzOp::Access { core, line, write } => {
                self.apply_access(idx, core as usize, line, write)?
            }
            FuzzOp::SetDegraded(d) => {
                self.engine.set_degraded(d, self.now, &mut self.fabric);
                let events = self.fabric.take_events();
                self.shadow.apply_events(&events);
            }
            FuzzOp::SwitchPolicy { deny, speculative } => {
                if matches!(self.engine.mode(), Mode::Dve { .. }) {
                    let policy = if deny {
                        ReplicaPolicy::Deny
                    } else {
                        ReplicaPolicy::Allow
                    };
                    self.engine
                        .switch_policy(policy, speculative, self.now, &mut self.fabric);
                    let events = self.fabric.take_events();
                    self.shadow.apply_events(&events);
                }
            }
        }
        self.structural_check(idx)
    }

    fn violation(idx: usize, kind: String) -> Violation {
        Violation {
            op_index: idx,
            kind,
        }
    }

    fn apply_access(
        &mut self,
        idx: usize,
        core: usize,
        line: LineAddr,
        write: bool,
    ) -> Result<(), Violation> {
        let req = if write { ReqType::Write } else { ReqType::Read };
        let issued = self.now;
        let outcome = self
            .engine
            .access(core, line, req, issued, &mut self.fabric);
        let events = self.fabric.take_events();

        // 1. Latency monotonicity.
        if outcome.complete_at < issued {
            return Err(Self::violation(
                idx,
                format!(
                    "monotonicity: op issued at {issued} reported completion {}",
                    outcome.complete_at
                ),
            ));
        }
        // 1b. Latency conservation: the per-component breakdown must sum
        // to the reported end-to-end latency. (Checked here in release
        // builds too — the engine's own debug_assert is compiled out in
        // the fuzzing harness.)
        if outcome.breakdown.total() != outcome.complete_at - issued {
            return Err(Self::violation(
                idx,
                format!(
                    "conservation: breakdown {:?} sums to {} but end-to-end latency is {}",
                    outcome.breakdown,
                    outcome.breakdown.total(),
                    outcome.complete_at - issued
                ),
            ));
        }
        // 1c. The coherence engine itself never charges the recovery
        // component — only the timed fabric's §V-B2 detour does, and the
        // conformance model runs the protocol over a fault-free fabric.
        // A non-zero value here means a protocol path misattributed
        // ordinary service time to recovery.
        if outcome.breakdown.recovery != 0 {
            return Err(Self::violation(
                idx,
                format!(
                    "conservation: protocol op charged {} recovery cycles on a fault-free fabric",
                    outcome.breakdown.recovery
                ),
            ));
        }
        self.now = outcome.complete_at.max(self.now) + 1;

        if write {
            self.shadow.apply_write(core, line);
            self.shadow.apply_events(&events);
        } else {
            // 2./3. Identify the physical source the service level
            // names and check it held the latest version.
            let source = self.read_source(idx, core, line, outcome.service, &events)?;
            if !self.shadow.is_fresh(line, source) {
                return Err(Self::violation(
                    idx,
                    format!(
                        "stale-read: core {core} load of line {line} served {:?} from {source:?}, \
                         which does not hold golden version {}",
                        outcome.service,
                        self.shadow.version(line)
                    ),
                ));
            }
            self.shadow.apply_events(&events);
            self.shadow
                .fill_caches(core, line, outcome.service != ServiceLevel::L1);
        }

        // 5. Stats conservation.
        self.mirror.ops += 1;
        if write {
            self.mirror.writes += 1;
        } else {
            self.mirror.reads += 1;
        }
        let si = service_index(outcome.service);
        self.mirror.served[si] += 1;
        self.mirror.latency_sum[si] += outcome.complete_at.saturating_sub(issued);
        self.mirror.breakdown.merge(&outcome.breakdown);
        let stats = self.engine.stats();
        if stats.ops != self.mirror.ops
            || stats.reads != self.mirror.reads
            || stats.writes != self.mirror.writes
        {
            return Err(Self::violation(
                idx,
                format!(
                    "stats: op counters diverged (engine {}r/{}w/{} total, mirror {}r/{}w/{})",
                    stats.reads,
                    stats.writes,
                    stats.ops,
                    self.mirror.reads,
                    self.mirror.writes,
                    self.mirror.ops
                ),
            ));
        }
        if stats.served != self.mirror.served {
            return Err(Self::violation(
                idx,
                format!(
                    "stats: served[] diverged (engine {:?}, mirror {:?})",
                    stats.served, self.mirror.served
                ),
            ));
        }
        if stats.latency_sum != self.mirror.latency_sum {
            return Err(Self::violation(
                idx,
                format!(
                    "stats: latency_sum[] diverged (engine {:?}, mirror {:?})",
                    stats.latency_sum, self.mirror.latency_sum
                ),
            ));
        }
        if stats.latency_breakdown != self.mirror.breakdown {
            return Err(Self::violation(
                idx,
                format!(
                    "stats: latency_breakdown diverged (engine {:?}, mirror {:?})",
                    stats.latency_breakdown, self.mirror.breakdown
                ),
            ));
        }
        if stats.served[service_index(ServiceLevel::L1)] != stats.l1_hits {
            return Err(Self::violation(
                idx,
                format!(
                    "stats: served[L1]={} != l1_hits={}",
                    stats.served[service_index(ServiceLevel::L1)],
                    stats.l1_hits
                ),
            ));
        }
        Ok(())
    }

    /// Maps a read's reported service level to the physical location
    /// that supplied the data, verifying routing integrity on the way.
    fn read_source(
        &self,
        idx: usize,
        core: usize,
        line: LineAddr,
        service: ServiceLevel,
        events: &[FabricEvent],
    ) -> Result<Location, Violation> {
        let socket = self.engine.socket_of(core);
        let home = self.engine.home_of(line);
        match service {
            ServiceLevel::L1 => Ok(Location::L1(core)),
            ServiceLevel::Llc => Ok(Location::Llc(socket)),
            ServiceLevel::LocalDram => {
                if socket == home {
                    Ok(Location::HomeMem)
                } else {
                    // Only a replica copy can serve "local DRAM" on a
                    // non-home socket, and only on the node the
                    // placement actually assigned the replica to.
                    if !self.engine.line_has_replica(line) {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "routing: line {line} served LocalDram on socket {socket} \
                                 but has no live replica"
                            ),
                        ));
                    }
                    if self.engine.replica_node_of(line) != socket {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "routing: line {line} served LocalDram on socket {socket} \
                                 but its replica is placed on node {}",
                                self.engine.replica_node_of(line)
                            ),
                        ));
                    }
                    let saw_replica_read = events.iter().any(|e| {
                        matches!(e, FabricEvent::ReplicaRead { socket: s, line: l }
                                 if *s == socket && *l == line)
                    });
                    if !saw_replica_read {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "routing: replica-served read of line {line} recorded no \
                                 replica-memory access on socket {socket}"
                            ),
                        ));
                    }
                    Ok(Location::ReplicaMem(socket))
                }
            }
            ServiceLevel::RemoteDram => Ok(Location::HomeMem),
            ServiceLevel::LocalOwner | ServiceLevel::RemoteOwner => {
                match self.engine.home_dir(home).entry(line).owner {
                    Some(owner) => Ok(Location::Llc(owner)),
                    None => Err(Self::violation(
                        idx,
                        format!(
                            "routing: line {line} served {service:?} but the home directory \
                             records no owner"
                        ),
                    )),
                }
            }
        }
    }

    /// Sweeps the line pool and checks every structural invariant.
    fn structural_check(&self, idx: usize) -> Result<(), Violation> {
        let cfg = self.engine.config();
        let cores = cfg.cores;
        let cps = cfg.cores_per_socket();
        let sockets = cfg.sockets;
        let nodes = self.engine.num_nodes();
        let is_dve = matches!(self.engine.mode(), Mode::Dve { .. });
        let degraded = self.engine.is_degraded();

        // Replica directories must be empty outside Dvé/healthy state.
        if !is_dve || degraded {
            for s in 0..nodes {
                if !self.engine.replica_dir(s).is_empty() {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "replica-dir: socket {s} directory holds {} entries while \
                             {} (replica permissions are meaningless here)",
                            self.engine.replica_dir(s).len(),
                            if degraded {
                                "degraded"
                            } else {
                                "not in a Dvé mode"
                            }
                        ),
                    ));
                }
            }
        }

        for &line in &self.pool {
            let home = self.engine.home_of(line);
            let l1: Vec<_> = (0..cores).map(|c| self.engine.l1_state(c, line)).collect();
            let llc: Vec<_> = (0..sockets)
                .map(|s| self.engine.llc_state(s, line))
                .collect();

            // Inclusion and L1-sharer-mask agreement.
            for (c, l1s) in l1.iter().enumerate() {
                let Some(st) = l1s else { continue };
                let s = c / cps;
                let Some(llc_st) = llc[s] else {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "inclusion: core {c} L1 holds line {line} ({st:?}) but socket {s} \
                             LLC does not (inclusive hierarchy)"
                        ),
                    ));
                };
                if st.dirty() && llc_st != dve_coherence::types::CacheState::M {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "inclusion: core {c} L1 holds line {line} dirty ({st:?}) but socket \
                             {s} LLC is only {llc_st:?}"
                        ),
                    ));
                }
                let mask = self.engine.llc_l1_sharers(s, line).unwrap_or(0);
                if mask & (1 << (c % cps)) == 0 {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "dir-mismatch: core {c} L1 holds line {line} but socket {s}'s \
                             embedded directory sharer mask {mask:#06b} misses it"
                        ),
                    ));
                }
            }

            // SWMR across sockets and cores.
            let dirty_sockets: Vec<_> = (0..sockets)
                .filter(|&s| llc[s].is_some_and(|st| st.dirty()))
                .collect();
            if dirty_sockets.len() > 1 {
                return Err(Self::violation(
                    idx,
                    format!("swmr: line {line} dirty in multiple sockets' LLCs ({llc:?})"),
                ));
            }
            for s in 0..sockets {
                if llc[s] != Some(dve_coherence::types::CacheState::M) {
                    continue;
                }
                for other in (0..sockets).filter(|&o| o != s) {
                    if llc[other].is_some() {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "swmr: socket {s} LLC holds line {line} in M while socket \
                                 {other} LLC still holds {:?}",
                                llc[other]
                            ),
                        ));
                    }
                }
                for (c, st) in l1.iter().enumerate() {
                    if c / cps != s && st.is_some() {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "swmr: socket {s} LLC holds line {line} in M while core {c} \
                                 (another socket) L1 holds {st:?}"
                            ),
                        ));
                    }
                }
            }
            if let Some(writer) = (0..cores).find(|&c| l1[c].is_some_and(|st| st.dirty())) {
                for (c, st) in l1.iter().enumerate() {
                    if c != writer && st.is_some() {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "swmr: core {writer} L1 holds line {line} dirty while core {c} \
                                 L1 holds {st:?}"
                            ),
                        ));
                    }
                }
            }

            // Stale resident copies: in this serialized setting every
            // resident cache copy must hold the latest version.
            for (c, st) in l1.iter().enumerate() {
                if st.is_some() && !self.shadow.is_fresh(line, Location::L1(c)) {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "stale-copy: core {c} L1 holds line {line} ({:?}) but the latest \
                             write (v{}) never reached it",
                            st.unwrap(),
                            self.shadow.version(line)
                        ),
                    ));
                }
            }
            for (s, st) in llc.iter().enumerate() {
                if st.is_some() && !self.shadow.is_fresh(line, Location::Llc(s)) {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "stale-copy: socket {s} LLC holds line {line} ({:?}) but the latest \
                             write (v{}) never reached it",
                            st.unwrap(),
                            self.shadow.version(line)
                        ),
                    ));
                }
            }

            // Home-directory agreement.
            let entry = self.engine.home_dir(home).entry(line);
            for (s, slot) in llc.iter().enumerate() {
                let Some(st) = *slot else { continue };
                if entry.sharers & (1 << s) == 0 {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "dir-mismatch: socket {s} LLC holds line {line} ({st:?}) but the \
                             home directory's sharer vector {:#04b} misses it",
                            entry.sharers
                        ),
                    ));
                }
                if st.dirty() && entry.owner != Some(s) {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "dir-mismatch: socket {s} LLC holds line {line} dirty ({st:?}) but \
                             the home directory records owner {:?}",
                            entry.owner
                        ),
                    ));
                }
            }
            if entry.state.dirty() && entry.owner.is_none() {
                return Err(Self::violation(
                    idx,
                    format!(
                        "dir-mismatch: home directory marks line {line} {:?} with no owner",
                        entry.state
                    ),
                ));
            }

            // Replica-directory hygiene and the replica-value invariant.
            if is_dve && !degraded {
                let replica = self.engine.replica_node_of(line);
                let rd = self.engine.replica_dir(replica);
                let covered = self.engine.line_has_replica(line);
                if rd.peek(line).is_some() && !covered {
                    return Err(Self::violation(
                        idx,
                        format!(
                            "replica-dir: node {replica} holds an entry for line {line}, \
                             which is outside the replication scope"
                        ),
                    ));
                }
                // A line's entry lives only in the directory of the
                // node the placement assigned its replica to.
                for n in (0..nodes).filter(|&n| n != replica) {
                    if self.engine.replica_dir(n).peek(line).is_some() {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "replica-dir: node {n} holds an entry for line {line}, whose \
                                 replica is placed on node {replica}"
                            ),
                        ));
                    }
                }
                if covered {
                    match rd.policy() {
                        ReplicaPolicy::Deny => {
                            if llc[home].is_some_and(|st| st.dirty()) && rd.replica_readable(line) {
                                return Err(Self::violation(
                                    idx,
                                    format!(
                                        "replica-dir: deny directory leaves line {line} \
                                         replica-readable while the home socket holds it dirty \
                                         ({:?})",
                                        llc[home]
                                    ),
                                ));
                            }
                        }
                        ReplicaPolicy::Allow => {
                            if rd.peek(line) == Some(ReplicaState::S)
                                && (0..sockets).any(|s| llc[s].is_some_and(|st| st.dirty()))
                            {
                                return Err(Self::violation(
                                    idx,
                                    format!(
                                        "replica-dir: allow directory grants S on line {line} \
                                         while a dirty copy exists ({llc:?})"
                                    ),
                                ));
                            }
                        }
                    }
                    // If a replica-side read would be served from
                    // replica memory right now, that memory must be
                    // fresh. (A far-memory replica node has no LLC.)
                    let replica_llc_dirty =
                        replica < sockets && llc[replica].is_some_and(|st| st.dirty());
                    if rd.replica_readable(line)
                        && !replica_llc_dirty
                        && !self.engine.replica_stale(line)
                        && !self.shadow.is_fresh(line, Location::ReplicaMem(replica))
                    {
                        return Err(Self::violation(
                            idx,
                            format!(
                                "replica-dir: line {line} is replica-readable on node \
                                 {replica} but the replica memory copy is stale (golden v{})",
                                self.shadow.version(line)
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{config_by_name, tiny_engine};

    fn pool() -> Vec<LineAddr> {
        (0..32).collect()
    }

    #[test]
    fn clean_baseline_trace_passes() {
        let cfg = config_by_name("baseline");
        let mut ck = ConformanceChecker::new(&cfg, None, pool());
        for (i, op) in [
            FuzzOp::Access {
                core: 0,
                line: 0,
                write: false,
            },
            FuzzOp::Access {
                core: 1,
                line: 0,
                write: true,
            },
            FuzzOp::Access {
                core: 2,
                line: 0,
                write: false,
            },
            FuzzOp::Access {
                core: 0,
                line: 0,
                write: false,
            },
        ]
        .into_iter()
        .enumerate()
        {
            ck.apply(op).unwrap_or_else(|v| panic!("op {i}: {v}"));
        }
        assert_eq!(ck.ops_applied(), 4);
    }

    #[test]
    fn breakdown_conserves_across_clean_trace() {
        // Drive a Dvé config through a mixed trace; the per-op
        // conservation check and the breakdown mirror both run after
        // every op, so reaching the end proves every access's
        // per-component attribution summed to its end-to-end latency.
        let cfg = config_by_name("dve-deny-spec");
        let mut ck = ConformanceChecker::new(&cfg, None, pool());
        for i in 0..24u64 {
            let op = FuzzOp::Access {
                core: (i % 4) as u8,
                line: i % 6,
                write: i % 3 == 0,
            };
            ck.apply(op).unwrap_or_else(|v| panic!("op {i}: {v}"));
        }
        let stats = ck.engine().stats();
        assert_eq!(
            stats.latency_breakdown.total(),
            stats.latency_sum.iter().sum::<u64>(),
            "aggregate breakdown equals aggregate latency"
        );
        assert!(stats.latency_breakdown.link > 0, "remote traffic charged");
    }

    #[test]
    fn time_travel_bug_caught_as_monotonicity() {
        let cfg = config_by_name("baseline");
        let mut ck = ConformanceChecker::new(&cfg, Some(SeededBug::TimeTravelCompletion), pool());
        let v = ck
            .apply(FuzzOp::Access {
                core: 0,
                line: 0,
                write: false,
            })
            .unwrap_err();
        assert_eq!(v.class(), "monotonicity");
    }

    #[test]
    fn violation_class_is_prefix() {
        let v = Violation {
            op_index: 3,
            kind: "stale-read: details".into(),
        };
        assert_eq!(v.class(), "stale-read");
        assert_eq!(format!("{v}"), "op 3: stale-read: details");
    }

    #[test]
    fn checker_reports_engine_geometry() {
        let cfg = FuzzConfig {
            name: "t".into(),
            mode: Mode::Baseline,
            engine: tiny_engine(),
        };
        let ck = ConformanceChecker::new(&cfg, None, pool());
        assert_eq!(ck.engine().config().cores, 4);
    }
}
