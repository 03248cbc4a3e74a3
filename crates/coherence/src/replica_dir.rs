//! Dvé's replica directory — both protocol families of §V-C.
//!
//! Each socket's directory controller is augmented with metadata about
//! the *replica* locations mapped to that socket. Two families govern how
//! read permission for the replica is obtained:
//!
//! * **Allow-based** — permissions are *pulled lazily*: an entry in
//!   [`ReplicaState::S`] explicitly allows reading the replica; *absence
//!   of an entry means "no"* (one of the home-LLCs may hold the line
//!   modified). Suited to workloads with significant private writes.
//! * **Deny-based** — permissions are *pushed eagerly*: the home
//!   directory installs a [`ReplicaState::Rm`] (remote-modified) entry
//!   whenever a home-side LLC takes the line writable; *absence of an
//!   entry means "yes"*. Suited to read-mostly workloads.
//!
//! The structure is finite (a fully-associative 2K-entry table in the
//! paper's default, 4K in the Fig. 9 optimization, unbounded for the
//! oracle) with true-LRU replacement, and optionally tracks coarse
//! regions instead of single lines (§V-C5, "coarse-grained replica
//! directory").

use crate::types::LineAddr;
use dve_sim::hash::IntMap;
use std::collections::BTreeMap;

/// Which protocol family this replica directory implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaPolicy {
    /// Lazily pulled allow permissions; absence = not readable.
    Allow,
    /// Eagerly pushed deny permissions; absence = readable.
    Deny,
}

/// State of a replica-directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaState {
    /// Replica readable: the home directory granted read permission
    /// (allow protocol) — the replica directory is a "sharer" at home.
    S,
    /// A replica-side LLC holds the line writable; the replica directory
    /// owns it from the home's perspective.
    M,
    /// Remote (home-side) LLC holds the line writable — replica stale
    /// (deny protocol only).
    Rm,
}

/// An entry evicted to make room, which the protocol engine must handle
/// (an `Rm` eviction requires downgrading the remote writer first; an `M`
/// eviction requires writing back the local owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaEviction {
    /// Region key (line address of the region base).
    pub region: LineAddr,
    /// State at eviction.
    pub state: ReplicaState,
}

/// Accumulated replica-directory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaDirStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries installed.
    pub installs: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

/// The replica directory for one socket.
///
/// # Example
///
/// ```
/// use dve_coherence::replica_dir::{ReplicaDirectory, ReplicaPolicy, ReplicaState};
///
/// let mut rd = ReplicaDirectory::new(ReplicaPolicy::Allow, Some(2048), 1);
/// assert_eq!(rd.lookup(0x40), None); // allow: absence = not readable
/// rd.install(0x40, ReplicaState::S);
/// assert_eq!(rd.lookup(0x40), Some(ReplicaState::S));
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaDirectory {
    policy: ReplicaPolicy,
    /// Max entries; `None` = unbounded (the Fig. 9 oracle).
    capacity: Option<usize>,
    /// Lines per tracked region (1 = cache-line granularity).
    region_lines: u64,
    entries: IntMap<LineAddr, (ReplicaState, u64)>,
    lru_index: BTreeMap<u64, LineAddr>,
    /// Live entries in [`ReplicaState::Rm`]. The capacity victim scan
    /// can only pick something other than the LRU entry when `Rm`
    /// entries share the table with `S`/`M` ones.
    rm_entries: usize,
    tick: u64,
    stats: ReplicaDirStats,
}

impl ReplicaDirectory {
    /// Creates a replica directory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == Some(0)` or `region_lines == 0`.
    pub fn new(
        policy: ReplicaPolicy,
        capacity: Option<usize>,
        region_lines: u64,
    ) -> ReplicaDirectory {
        assert!(capacity != Some(0), "capacity must be non-zero");
        assert!(region_lines > 0, "region granularity must be non-zero");
        ReplicaDirectory {
            policy,
            capacity,
            region_lines,
            entries: IntMap::default(),
            lru_index: BTreeMap::new(),
            rm_entries: 0,
            tick: 0,
            stats: ReplicaDirStats::default(),
        }
    }

    /// The paper's default configuration: fully-associative 2K entries,
    /// line granularity.
    pub fn default_config(policy: ReplicaPolicy) -> ReplicaDirectory {
        ReplicaDirectory::new(policy, Some(2048), 1)
    }

    /// The protocol family.
    pub fn policy(&self) -> ReplicaPolicy {
        self.policy
    }

    /// Region key of a line.
    pub fn region_of(&self, line: LineAddr) -> LineAddr {
        line - line % self.region_lines
    }

    /// Lines per region.
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }

    /// Moves `region`'s entry to the MRU position and returns its
    /// state, or `None` when no entry covers it.
    fn touch(&mut self, region: LineAddr) -> Option<&mut ReplicaState> {
        let (state, tick) = self.entries.get_mut(&region)?;
        self.lru_index.remove(tick);
        self.tick += 1;
        *tick = self.tick;
        self.lru_index.insert(self.tick, region);
        Some(state)
    }

    /// Looks up the entry covering `line`, updating LRU and hit/miss
    /// statistics.
    pub fn lookup(&mut self, line: LineAddr) -> Option<ReplicaState> {
        let state = self.touch(self.region_of(line)).copied();
        if state.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        state
    }

    /// Peeks without touching LRU or statistics.
    pub fn peek(&self, line: LineAddr) -> Option<ReplicaState> {
        self.entries.get(&self.region_of(line)).map(|(s, _)| *s)
    }

    /// Whether a read of `line` may be served from the local replica
    /// right now, per this directory's policy.
    pub fn replica_readable(&self, line: LineAddr) -> bool {
        match (self.policy, self.peek(line)) {
            (ReplicaPolicy::Allow, Some(ReplicaState::S)) => true,
            (ReplicaPolicy::Allow, _) => false,
            (ReplicaPolicy::Deny, Some(ReplicaState::Rm)) => false,
            // Deny: S/M entries or absence → replica (or local LLC) fine.
            (ReplicaPolicy::Deny, _) => true,
        }
    }

    /// Installs (or updates) the entry covering `line`. Returns an entry
    /// evicted by capacity pressure, which the caller must resolve.
    pub fn install(&mut self, line: LineAddr, state: ReplicaState) -> Option<ReplicaEviction> {
        let region = self.region_of(line);
        if let Some(old) = self.touch(region).map(|s| std::mem::replace(s, state)) {
            self.rm_entries -= usize::from(old == ReplicaState::Rm);
            self.rm_entries += usize::from(state == ReplicaState::Rm);
            return None;
        }
        let mut evicted = None;
        if self.capacity.is_some_and(|cap| self.entries.len() >= cap) {
            let lru_tick = *self.lru_index.keys().next().expect("non-empty at capacity");
            // Evict LRU, but prefer a victim whose eviction is free: S
            // entries (allow: absence is conservative) and M entries
            // (the home directory independently tracks the owner) can
            // be dropped silently, while evicting an RM entry forces a
            // downgrade of the remote writer. Scan a bounded window of
            // the LRU order for a cheap victim before falling back to
            // the true LRU. When every entry is RM, or none is (deny
            // mode installs only RM entries, allow mode only S/M), the
            // scan can only return the LRU entry, so skip it.
            const VICTIM_SCAN: usize = 32;
            let victim_tick = if self.rm_entries == 0 || self.rm_entries == self.entries.len() {
                lru_tick
            } else {
                self.lru_index
                    .iter()
                    .take(VICTIM_SCAN)
                    .find(|(_, region)| {
                        !matches!(self.entries.get(region), Some((ReplicaState::Rm, _)))
                    })
                    .map_or(lru_tick, |(&t, _)| t)
            };
            let victim = self.lru_index.remove(&victim_tick).expect("indexed tick");
            let (vstate, _) = self.entries.remove(&victim).expect("indexed entry");
            self.rm_entries -= usize::from(vstate == ReplicaState::Rm);
            self.stats.evictions += 1;
            evicted = Some(ReplicaEviction {
                region: victim,
                state: vstate,
            });
        }
        self.tick += 1;
        self.entries.insert(region, (state, self.tick));
        self.lru_index.insert(self.tick, region);
        self.rm_entries += usize::from(state == ReplicaState::Rm);
        self.stats.installs += 1;
        evicted
    }

    /// Removes the entry covering `line`, returning its state.
    pub fn remove(&mut self, line: LineAddr) -> Option<ReplicaState> {
        let region = self.region_of(line);
        let (state, tick) = self.entries.remove(&region)?;
        self.lru_index.remove(&tick);
        self.rm_entries -= usize::from(state == ReplicaState::Rm);
        Some(state)
    }

    /// Clears every entry — the *drain phase* used when the sampling
    /// dynamic scheme switches protocol state machines (§V-C5).
    pub fn drain(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.lru_index.clear();
        self.rm_entries = 0;
        n
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ReplicaDirStats {
        self.stats
    }

    /// Hit rate of lookups in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let t = self.stats.hits + self.stats.misses;
        if t == 0 {
            0.0
        } else {
            self.stats.hits as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_absence_means_no() {
        let rd = ReplicaDirectory::default_config(ReplicaPolicy::Allow);
        assert!(!rd.replica_readable(0x40));
    }

    #[test]
    fn deny_absence_means_yes() {
        let rd = ReplicaDirectory::default_config(ReplicaPolicy::Deny);
        assert!(rd.replica_readable(0x40));
    }

    #[test]
    fn allow_s_entry_grants_access() {
        let mut rd = ReplicaDirectory::default_config(ReplicaPolicy::Allow);
        rd.install(0x40, ReplicaState::S);
        assert!(rd.replica_readable(0x40));
        assert!(!rd.replica_readable(0x80));
    }

    #[test]
    fn deny_rm_entry_blocks_access() {
        let mut rd = ReplicaDirectory::default_config(ReplicaPolicy::Deny);
        rd.install(0x40, ReplicaState::Rm);
        assert!(!rd.replica_readable(0x40));
        rd.remove(0x40);
        assert!(rd.replica_readable(0x40));
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Allow, Some(2), 1);
        rd.install(1, ReplicaState::S);
        rd.install(2, ReplicaState::S);
        rd.lookup(1); // 2 becomes LRU
        let ev = rd
            .install(3, ReplicaState::S)
            .expect("eviction at capacity");
        assert_eq!(ev.region, 2);
        assert_eq!(rd.len(), 2);
        assert_eq!(rd.stats().evictions, 1);
        assert!(rd.replica_readable(1));
        assert!(!rd.replica_readable(2));
    }

    #[test]
    fn eviction_prefers_cheap_victims_over_rm() {
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Deny, Some(3), 1);
        rd.install(1, ReplicaState::Rm);
        rd.install(2, ReplicaState::M); // cheap victim, older than 3
        rd.install(3, ReplicaState::Rm);
        let ev = rd.install(4, ReplicaState::Rm).expect("at capacity");
        assert_eq!(ev.region, 2, "the M entry evicts before any RM entry");
        assert_eq!(ev.state, ReplicaState::M);
        // Now every entry is RM: fall back to true LRU.
        let ev = rd.install(5, ReplicaState::Rm).expect("at capacity");
        assert_eq!(ev.region, 1);
        assert_eq!(ev.state, ReplicaState::Rm);
    }

    #[test]
    fn victim_scan_window_is_bounded() {
        // The cheap-victim scan looks at most 32 positions deep in LRU
        // order. With 64 entries where the only non-Rm entry is the
        // *newest*, it sits outside the window and the true LRU (an Rm
        // entry) must be evicted instead — the scan must not degenerate
        // into a full-table search for a free victim.
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Deny, Some(64), 1);
        for i in 0..63 {
            rd.install(i, ReplicaState::Rm);
        }
        rd.install(63, ReplicaState::M); // cheap, but 64th in LRU order
        let ev = rd.install(64, ReplicaState::Rm).expect("at capacity");
        assert_eq!(ev.region, 0, "true LRU evicted, not the out-of-window M");
        assert_eq!(ev.state, ReplicaState::Rm);
        assert_eq!(rd.peek(63), Some(ReplicaState::M), "M entry survives");
        // Bring the M entry inside the window by aging everything else:
        // after evictions shrink the Rm population ahead of it, a later
        // install finds it.
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Deny, Some(33), 1);
        rd.install(0, ReplicaState::M);
        for i in 1..33 {
            rd.install(i, ReplicaState::Rm);
        }
        let ev = rd.install(33, ReplicaState::Rm).expect("at capacity");
        assert_eq!(ev.region, 0, "oldest entry is cheap and in-window");
        assert_eq!(ev.state, ReplicaState::M);
    }

    /// Asserts the internal indices agree: every entry's LRU tick maps
    /// back to it, the index holds nothing else, and the `Rm` count
    /// matches the table.
    fn assert_index_consistent(rd: &ReplicaDirectory) {
        assert_eq!(rd.entries.len(), rd.lru_index.len(), "index size drift");
        let rm = rd
            .entries
            .values()
            .filter(|(s, _)| *s == ReplicaState::Rm)
            .count();
        assert_eq!(rd.rm_entries, rm, "Rm count drift");
        for (&region, &(_, tick)) in &rd.entries {
            assert_eq!(
                rd.lru_index.get(&tick),
                Some(&region),
                "entry {region} tick {tick} not indexed"
            );
        }
    }

    #[test]
    fn lru_index_stays_consistent_under_churn() {
        // install/lookup/remove/evict churn across a small capacity,
        // checking after every operation that `entries` and `lru_index`
        // never drift (a dangling tick would make a later eviction
        // panic or pick a phantom victim).
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Deny, Some(8), 1);
        let mut rng = dve_sim::rng::SplitMix64::new(0xD0E5_2021);
        for _ in 0..4_000 {
            let line = rng.next_below(24);
            match rng.next_below(4) {
                0 => {
                    let state = match rng.next_below(3) {
                        0 => ReplicaState::S,
                        1 => ReplicaState::M,
                        _ => ReplicaState::Rm,
                    };
                    rd.install(line, state);
                }
                1 => {
                    rd.lookup(line);
                }
                2 => {
                    rd.remove(line);
                }
                _ => {
                    rd.peek(line);
                }
            }
            assert!(rd.len() <= 8, "capacity respected");
            assert_index_consistent(&rd);
        }
        assert!(rd.stats().evictions > 0, "churn exercised evictions");
        rd.drain();
        assert_index_consistent(&rd);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Allow, None, 1);
        for i in 0..10_000 {
            assert!(rd.install(i, ReplicaState::S).is_none());
        }
        assert_eq!(rd.len(), 10_000);
        assert_eq!(rd.stats().evictions, 0);
    }

    #[test]
    fn coarse_regions_cover_multiple_lines() {
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Allow, Some(16), 16);
        rd.install(0, ReplicaState::S);
        for line in 0..16 {
            assert!(rd.replica_readable(line), "line {line}");
        }
        assert!(!rd.replica_readable(16));
        assert_eq!(rd.len(), 1, "one region entry");
        // Removing by any covered line removes the region.
        assert_eq!(rd.remove(7), Some(ReplicaState::S));
        assert!(!rd.replica_readable(0));
    }

    #[test]
    fn lookup_updates_stats() {
        let mut rd = ReplicaDirectory::default_config(ReplicaPolicy::Allow);
        rd.install(0, ReplicaState::S);
        rd.lookup(0);
        rd.lookup(64);
        let s = rd.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.installs, 1);
        assert!((rd.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drain_clears_everything() {
        let mut rd = ReplicaDirectory::default_config(ReplicaPolicy::Deny);
        rd.install(0, ReplicaState::Rm);
        rd.install(64, ReplicaState::S);
        assert_eq!(rd.drain(), 2);
        assert!(rd.is_empty());
        assert!(rd.replica_readable(0), "deny after drain: absence = yes");
    }

    #[test]
    fn install_existing_updates_state_without_eviction() {
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Deny, Some(1), 1);
        rd.install(0, ReplicaState::S);
        assert!(rd.install(0, ReplicaState::Rm).is_none());
        assert_eq!(rd.peek(0), Some(ReplicaState::Rm));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        ReplicaDirectory::new(ReplicaPolicy::Allow, Some(0), 1);
    }
}
