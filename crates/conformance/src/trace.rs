//! Fuzz-trace vocabulary: the operations the fuzzer drives through the
//! engine and the mode/structure configurations it sweeps.

use dve_coherence::engine::{EngineConfig, Mode, ReplicationScope};
use dve_coherence::replica_dir::ReplicaPolicy;
use dve_coherence::types::LineAddr;
use dve_noc::topology::PlacementPolicy;

/// One step of a conformance-fuzz trace.
///
/// Traces are plain data: they replay deterministically through
/// [`crate::fuzz::run_trace`], shrink with [`crate::shrink::shrink`],
/// and commit verbatim as regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// One memory operation by `core` on `line`.
    Access {
        /// Issuing core.
        core: u8,
        /// Target cache line.
        line: LineAddr,
        /// Store (`true`) or load (`false`).
        write: bool,
    },
    /// Enter/leave the §V-E degraded (single-copy) state.
    SetDegraded(bool),
    /// Dynamic-scheme protocol switch (§V-C5). Ignored outside Dvé
    /// modes so shrunken traces stay replayable everywhere.
    SwitchPolicy {
        /// Switch to the deny family (`true`) or allow (`false`).
        deny: bool,
        /// Speculative replica access after the switch.
        speculative: bool,
    },
}

/// A named engine configuration the fuzzer drives.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Human-readable name (used in reports and CI logs).
    pub name: String,
    /// Engine mode.
    pub mode: Mode,
    /// Engine structure configuration (typically tiny caches, so
    /// evictions and writebacks happen within short traces).
    pub engine: EngineConfig,
}

/// Small-structure engine config shared by all fuzz modes: 4 cores over
/// 2 sockets, 512 B direct-mapped-ish L1s and a 2 KiB LLC so capacity
/// evictions, writebacks and back-invalidations fire within a few dozen
/// ops, and 8-line pages so the home mapping interleaves densely across
/// the 32-line fuzz pool.
pub fn tiny_engine() -> EngineConfig {
    EngineConfig {
        cores: 4,
        l1_bytes: 512,
        l1_ways: 2,
        llc_bytes: 2048,
        llc_ways: 4,
        line_bytes: 64,
        page_lines: 8,
        replica_dir_entries: Some(2048),
        replica_region_lines: 1,
        free_installs: false,
        dir_cache_entries: None,
        replication_scope: ReplicationScope::All,
        sockets: 2,
        placement: PlacementPolicy::Mirror2,
    }
}

fn dve(policy: ReplicaPolicy, speculative: bool) -> Mode {
    Mode::Dve {
        policy,
        speculative,
    }
}

/// The full mode sweep: baseline NUMA, Intel mirroring, both Dvé
/// families with and without speculation, a replicated-subset scope,
/// tiny replica directories (capacity 4, forcing constant evictions —
/// including forced RM downgrades) and a coarse-grained (4-line region)
/// replica directory.
pub fn builtin_configs() -> Vec<FuzzConfig> {
    let base = tiny_engine();
    let scoped = |cfg: &EngineConfig| EngineConfig {
        // Pages 0 (home 0) and 1 (home 1) replicated; pages 2 and 3
        // take the §V-D single-copy fallback path even in Dvé modes.
        replication_scope: ReplicationScope::Pages([0u64, 1u64].into_iter().collect()),
        ..cfg.clone()
    };
    let tiny_rd = |cfg: &EngineConfig| EngineConfig {
        replica_dir_entries: Some(4),
        ..cfg.clone()
    };
    let coarse = |cfg: &EngineConfig| EngineConfig {
        replica_region_lines: 4,
        replica_dir_entries: Some(8),
        ..cfg.clone()
    };
    let dir_cached = |cfg: &EngineConfig| EngineConfig {
        dir_cache_entries: Some(8),
        ..cfg.clone()
    };
    // Three sockets, round-robin replica striping: replica-set bugs the
    // two-node configs cannot express (a third socket that is neither
    // home nor replica for a line).
    let nway3 = |cfg: &EngineConfig| EngineConfig {
        cores: 6,
        sockets: 3,
        placement: PlacementPolicy::RoundRobin,
        ..cfg.clone()
    };
    let mk = |name: &str, mode: Mode, engine: EngineConfig| FuzzConfig {
        name: name.to_string(),
        mode,
        engine,
    };
    vec![
        mk("baseline", Mode::Baseline, base.clone()),
        mk("intel-mirror", Mode::IntelMirror, base.clone()),
        mk("dve-allow", dve(ReplicaPolicy::Allow, false), base.clone()),
        mk("dve-deny", dve(ReplicaPolicy::Deny, false), base.clone()),
        mk(
            "dve-allow-spec",
            dve(ReplicaPolicy::Allow, true),
            base.clone(),
        ),
        mk(
            "dve-deny-spec",
            dve(ReplicaPolicy::Deny, true),
            base.clone(),
        ),
        mk(
            "dve-allow-scoped",
            dve(ReplicaPolicy::Allow, false),
            scoped(&base),
        ),
        mk(
            "dve-deny-scoped",
            dve(ReplicaPolicy::Deny, true),
            scoped(&base),
        ),
        mk(
            "dve-allow-tiny-rd",
            dve(ReplicaPolicy::Allow, false),
            tiny_rd(&base),
        ),
        mk(
            "dve-deny-tiny-rd",
            dve(ReplicaPolicy::Deny, false),
            tiny_rd(&base),
        ),
        mk(
            "dve-deny-coarse",
            dve(ReplicaPolicy::Deny, false),
            coarse(&base),
        ),
        mk(
            "dve-allow-coarse",
            dve(ReplicaPolicy::Allow, false),
            coarse(&base),
        ),
        mk(
            "dve-deny-dircache",
            dve(ReplicaPolicy::Deny, false),
            dir_cached(&base),
        ),
        mk(
            "dve-allow-nway3",
            dve(ReplicaPolicy::Allow, false),
            nway3(&base),
        ),
        mk(
            "dve-deny-nway3",
            dve(ReplicaPolicy::Deny, false),
            nway3(&base),
        ),
    ]
}

/// Looks up a builtin config by name.
///
/// # Panics
///
/// Panics if `name` is not a builtin configuration.
pub fn config_by_name(name: &str) -> FuzzConfig {
    builtin_configs()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown fuzz config {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_cover_all_mode_families() {
        let cfgs = builtin_configs();
        assert!(cfgs.iter().any(|c| c.mode == Mode::Baseline));
        assert!(cfgs.iter().any(|c| c.mode == Mode::IntelMirror));
        for policy in [ReplicaPolicy::Allow, ReplicaPolicy::Deny] {
            for spec in [false, true] {
                assert!(
                    cfgs.iter().any(|c| c.mode == dve(policy, spec)),
                    "missing Dvé {policy:?} spec={spec}"
                );
            }
        }
        // Stress variants present.
        assert!(cfgs.iter().any(|c| c.engine.replica_dir_entries == Some(4)));
        assert!(cfgs.iter().any(|c| c.engine.replica_region_lines > 1));
        assert!(cfgs
            .iter()
            .any(|c| matches!(c.engine.replication_scope, ReplicationScope::Pages(_))));
        assert!(cfgs.iter().any(|c| c.engine.dir_cache_entries.is_some()));
    }

    #[test]
    fn config_names_unique() {
        let cfgs = builtin_configs();
        let mut names: Vec<_> = cfgs.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cfgs.len());
    }

    #[test]
    fn config_by_name_round_trips() {
        for c in builtin_configs() {
            assert_eq!(config_by_name(&c.name).name, c.name);
        }
    }
}
