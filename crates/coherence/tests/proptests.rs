//! Property-based tests for the coherence structures and the protocol
//! engine's safety invariants under random operation streams.

use dve_coherence::cache::{Eviction, SetAssocCache};
use dve_coherence::dir_cache::DirCache;
use dve_coherence::engine::{EngineConfig, Mode, ProtocolEngine};
use dve_coherence::fabric::TestFabric;
use dve_coherence::replica_dir::{ReplicaDirectory, ReplicaEviction, ReplicaPolicy, ReplicaState};
use dve_coherence::types::{CacheState, ReqType};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A set-associative cache agrees with a reference map within each
    // set's capacity: a line inserted and not since evicted is found.
    #[test]
    fn cache_agrees_with_reference_model(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        let mut cache = SetAssocCache::new(2048, 4, 64); // 8 sets × 4 ways
        let mut reference: HashMap<u64, CacheState> = HashMap::new();
        for (addr, write) in ops {
            let state = if write { CacheState::M } else { CacheState::S };
            if let Some(ev) = cache.insert(addr, state) {
                reference.remove(&ev.addr);
            }
            reference.insert(addr, state);
            // Everything the reference believes resident that the cache
            // also holds must agree on state.
            if let Some(got) = cache.state_of(addr) {
                prop_assert_eq!(got, *reference.get(&addr).unwrap());
            }
        }
        // The cache never holds a line the reference does not know.
        for addr in 0u64..64 {
            if let Some(st) = cache.state_of(addr) {
                prop_assert_eq!(reference.get(&addr), Some(&st));
            }
        }
    }

    // Every eviction is the victim a timestamp-LRU reference picks:
    // each lookup hit or insert stamps the line with a rising tick, and
    // a full set evicts its smallest stamp. The readers (`state_of`,
    // `sharers_of`) and writers agree with the reference on every line.
    // Half the draws sit just below the 46-bit address limit, sharing
    // sets with the low ones, so a field that spills into the address
    // shows up as a wrong hit or a wrong eviction.
    #[test]
    fn cache_evicts_the_timestamp_lru_victim(
        ops in proptest::collection::vec((0u8..7, 0u64..32, any::<bool>(), any::<bool>()), 1..400)
    ) {
        let mut cache = SetAssocCache::new(1024, 4, 64); // 4 sets × 4 ways
        // Per set: (addr, state, sharers, stamp).
        let mut reference: Vec<Vec<(u64, CacheState, u16, u64)>> = vec![Vec::new(); 4];
        let mut tick = 0u64;
        for (op, low, write, high) in ops {
            let addr = if high { (1 << 46) - 32 + low } else { low };
            let state = if write { CacheState::M } else { CacheState::S };
            let set = &mut reference[(addr % 4) as usize];
            let pos = set.iter().position(|l| l.0 == addr);
            match op {
                0 => {
                    tick += 1;
                    let want = pos.map(|i| {
                        set[i].3 = tick;
                        set[i].1
                    });
                    prop_assert_eq!(cache.lookup(addr), want);
                }
                1 => {
                    tick += 1;
                    let want = if let Some(i) = pos {
                        set[i].1 = state;
                        set[i].3 = tick;
                        None
                    } else {
                        let victim = (set.len() == 4).then(|| {
                            let i = (0..4).min_by_key(|&i| set[i].3).expect("full set");
                            let (addr, state, sharers, _) = set.remove(i);
                            Eviction { addr, state, sharers }
                        });
                        set.push((addr, state, 0, tick));
                        victim
                    };
                    prop_assert_eq!(cache.insert(addr, state), want);
                }
                2 => {
                    let want = pos.map(|i| set.remove(i).1);
                    prop_assert_eq!(cache.invalidate(addr), want);
                }
                3 => {
                    if let Some(i) = pos {
                        set[i].1 = state;
                    }
                    prop_assert_eq!(cache.set_state(addr, state), pos.is_some());
                }
                4 => {
                    let sharers = (low as u16) | if high { 0xFF00 } else { 0x100 };
                    if let Some(i) = pos {
                        set[i].2 = sharers;
                    }
                    prop_assert_eq!(cache.set_sharers(addr, sharers), pos.is_some());
                }
                5 => prop_assert_eq!(cache.state_of(addr), pos.map(|i| set[i].1)),
                _ => prop_assert_eq!(cache.sharers_of(addr), pos.map(|i| set[i].2)),
            }
        }
    }

    // The replica directory never exceeds capacity and respects the
    // policy's absence semantics.
    #[test]
    fn replica_dir_capacity_and_semantics(
        ops in proptest::collection::vec((0u64..512, 0u8..3), 1..400),
        allow in any::<bool>(),
    ) {
        let policy = if allow { ReplicaPolicy::Allow } else { ReplicaPolicy::Deny };
        let mut rd = ReplicaDirectory::new(policy, Some(32), 1);
        for (line, op) in ops {
            match op {
                0 => {
                    rd.install(line, if allow { ReplicaState::S } else { ReplicaState::Rm });
                }
                1 => {
                    rd.remove(line);
                }
                _ => {
                    rd.lookup(line);
                }
            }
            prop_assert!(rd.len() <= 32, "capacity exceeded");
        }
        // Absence semantics: a never-touched line far outside the range.
        let fresh = 1 << 40;
        prop_assert_eq!(rd.replica_readable(fresh), !allow);
    }

    // Eviction sequences match a reference directory that always runs
    // the 32-deep cheap-victim scan, whatever the mix of S/M/Rm
    // entries: all S/M (allow-style), all Rm (deny-style) or mixed,
    // with installs, state updates, removes, LRU-touching lookups and
    // the odd drain, at capacities on both sides of the scan window and
    // unbounded. Removals, evictions and drains free list slots that
    // later installs reuse, so slot reuse is checked too.
    #[test]
    fn replica_dir_evictions_match_full_scan_reference(
        ops in proptest::collection::vec((0u8..100, 0u64..96, 0u8..6), 1..500),
        mix in 0u8..3,
        capacity in 1usize..48,
        bounded in any::<bool>(),
        coarse in any::<bool>(),
    ) {
        let capacity = bounded.then_some(capacity);
        let region_lines = if coarse { 4 } else { 1 };
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Deny, capacity, region_lines);
        // LRU order, least recent first.
        let mut reference: Vec<(u64, ReplicaState)> = Vec::new();
        let state_of = |pick: u8| match (mix, pick % 3) {
            (0, p) | (2, p @ 0..=1) => [ReplicaState::S, ReplicaState::M][p as usize % 2],
            _ => ReplicaState::Rm,
        };
        for (op, line, pick) in ops {
            let region = line - line % region_lines;
            let pos = reference.iter().position(|&(r, _)| r == region);
            match op {
                0..=49 => {
                    let state = state_of(pick);
                    let want = if let Some(i) = pos {
                        reference.remove(i);
                        None
                    } else if capacity.is_some_and(|cap| reference.len() >= cap) {
                        let i = reference
                            .iter()
                            .take(32)
                            .position(|&(_, s)| s != ReplicaState::Rm)
                            .unwrap_or(0);
                        let (region, state) = reference.remove(i);
                        Some(ReplicaEviction { region, state })
                    } else {
                        None
                    };
                    reference.push((region, state));
                    prop_assert_eq!(rd.install(line, state), want);
                }
                50..=65 => {
                    let want = pos.map(|i| reference.remove(i).1);
                    prop_assert_eq!(rd.remove(line), want);
                }
                66..=98 => {
                    let want = pos.map(|i| {
                        let e = reference.remove(i);
                        reference.push(e);
                        e.1
                    });
                    prop_assert_eq!(rd.lookup(line), want);
                }
                _ => {
                    prop_assert_eq!(rd.drain(), reference.len());
                    reference.clear();
                }
            }
            prop_assert_eq!(rd.len(), reference.len());
        }
    }

    // The directory cache hits exactly when a `Vec` LRU reference of
    // the same capacity holds the line, and evicts the reference's
    // least recent line.
    #[test]
    fn dir_cache_matches_lru_reference(
        ops in proptest::collection::vec(0u64..32, 1..400),
        capacity in 1usize..16,
    ) {
        let mut dc = DirCache::new(capacity);
        // Least recent first.
        let mut reference: Vec<u64> = Vec::new();
        for line in ops {
            let hit = if let Some(i) = reference.iter().position(|&l| l == line) {
                reference.remove(i);
                true
            } else {
                if reference.len() == capacity {
                    reference.remove(0);
                }
                false
            };
            reference.push(line);
            prop_assert_eq!(dc.access(line), hit);
            prop_assert_eq!(dc.len(), reference.len());
        }
    }

    // SWMR under random traffic, all three Dvé-relevant modes: at most
    // one socket LLC writable, never alongside a remote copy. Verified
    // via the engine's own replica-read counters staying consistent.
    #[test]
    fn engine_never_serves_stale_replica(
        seed in any::<u64>(),
        mode_pick in 0u8..3,
    ) {
        let mode = match mode_pick {
            0 => Mode::Baseline,
            1 => Mode::Dve { policy: ReplicaPolicy::Allow, speculative: true },
            _ => Mode::Dve { policy: ReplicaPolicy::Deny, speculative: false },
        };
        let mut engine = ProtocolEngine::new(mode, EngineConfig::default());
        let mut fabric = TestFabric::default();
        let mut rng = dve_sim::rng::SplitMix64::new(seed);
        let mut t = 0u64;
        // Shadow memory: last written "version" per line; a read must
        // never observe an epoch older than the last *completed* write
        // (tracked implicitly by the engine's coherence states, which we
        // cross-check through the home directory's SWMR structure).
        for _ in 0..500 {
            let core = rng.next_below(16) as usize;
            let line = rng.next_below(48);
            let req = if rng.chance(0.35) { ReqType::Write } else { ReqType::Read };
            let o = engine.access(core, line, req, t, &mut fabric);
            prop_assert!(o.complete_at >= t);
            t = o.complete_at;
            // Structural SWMR for the accessed line: at most one LLC
            // holds it dirty, an M copy is the only LLC copy, and a
            // dirty copy's socket is the home directory's owner.
            let llc: Vec<Option<CacheState>> = (0..engine.config().sockets)
                .map(|s| engine.llc_state(s, line))
                .collect();
            let copies = llc.iter().flatten().count();
            let dirty: Vec<usize> = (0..llc.len())
                .filter(|&s| llc[s].is_some_and(|st| st.dirty()))
                .collect();
            prop_assert!(dirty.len() <= 1, "line {line} dirty in LLCs {dirty:?}");
            if llc.contains(&Some(CacheState::M)) {
                prop_assert!(copies == 1, "line {line} in M beside another copy: {llc:?}");
            }
            let owner = engine.home_dir(engine.home_of(line)).entry(line).owner;
            for &s in &dirty {
                prop_assert!(
                    owner.map(usize::from) == Some(s),
                    "line {line} dirty on socket {s}, directory owner {owner:?}"
                );
            }
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.ops, 500);
        prop_assert_eq!(stats.reads + stats.writes, 500);
        // Monotone accounting.
        prop_assert!(stats.l1_hits + stats.llc_hits <= stats.ops);
    }

    // Time never goes backwards through the engine, for any mode.
    #[test]
    fn engine_time_is_monotone(seed in any::<u64>()) {
        let mut engine = ProtocolEngine::new(
            Mode::Dve { policy: ReplicaPolicy::Deny, speculative: true },
            EngineConfig::default(),
        );
        let mut fabric = TestFabric::default();
        let mut rng = dve_sim::rng::SplitMix64::new(seed);
        let mut t = 0u64;
        for _ in 0..300 {
            let core = rng.next_below(16) as usize;
            let line = rng.next_below(1024);
            let req = if rng.chance(0.5) { ReqType::Write } else { ReqType::Read };
            let o = engine.access(core, line, req, t, &mut fabric);
            prop_assert!(o.complete_at >= t, "time went backwards");
            t = o.complete_at;
        }
    }

    // Latency conservation: for every access, in every mode, the
    // per-component breakdown sums exactly to the end-to-end latency —
    // no cycle unattributed, none double-charged. (The engine
    // debug_asserts this; this property pins it in release builds and
    // across the aggregate stats too.)
    #[test]
    fn latency_breakdown_conserves_per_access(seed in any::<u64>(), mode_pick in 0usize..4) {
        let mode = match mode_pick {
            0 => Mode::Baseline,
            1 => Mode::IntelMirror,
            2 => Mode::Dve { policy: ReplicaPolicy::Allow, speculative: false },
            _ => Mode::Dve { policy: ReplicaPolicy::Deny, speculative: true },
        };
        let mut engine = ProtocolEngine::new(mode, EngineConfig::default());
        let mut fabric = TestFabric::default();
        let mut rng = dve_sim::rng::SplitMix64::new(seed);
        let mut t = 0u64;
        for _ in 0..300 {
            let core = rng.next_below(16) as usize;
            let line = rng.next_below(256);
            let req = if rng.chance(0.4) { ReqType::Write } else { ReqType::Read };
            let o = engine.access(core, line, req, t, &mut fabric);
            prop_assert_eq!(o.breakdown.total(), o.complete_at - t);
            t = o.complete_at + rng.next_below(20);
        }
        let stats = engine.stats();
        prop_assert_eq!(
            stats.latency_breakdown.total(),
            stats.latency_sum.iter().sum::<u64>()
        );
    }
}
