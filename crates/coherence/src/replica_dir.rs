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
//! directory"). The entries sit in a linked recency list, so a lookup,
//! install or removal costs one hash probe and a few link updates, and
//! the capacity victim scan walks the list from its least recent end.
//! The directory keeps no tallies: what the engine counts about it
//! (replica reads, `Rm` installs, forced downgrades) lives in
//! [`EngineStats`](crate::engine::EngineStats).

use crate::lru::LruList;
use crate::types::LineAddr;

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
    /// Entries by region key, least recently used first.
    entries: LruList<ReplicaState>,
    /// Live entries in [`ReplicaState::Rm`]. The capacity victim scan
    /// can only pick something other than the LRU entry when `Rm`
    /// entries share the table with `S`/`M` ones.
    rm_entries: usize,
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
            entries: LruList::default(),
            rm_entries: 0,
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

    /// Looks up the entry covering `line`, updating LRU.
    pub fn lookup(&mut self, line: LineAddr) -> Option<ReplicaState> {
        self.entries.touch(self.region_of(line)).copied()
    }

    /// Peeks without touching LRU.
    pub fn peek(&self, line: LineAddr) -> Option<ReplicaState> {
        self.entries.get(self.region_of(line)).copied()
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
        if let Some(old) = self
            .entries
            .touch(region)
            .map(|s| std::mem::replace(s, state))
        {
            self.rm_entries -= usize::from(old == ReplicaState::Rm);
            self.rm_entries += usize::from(state == ReplicaState::Rm);
            return None;
        }
        let mut evicted = None;
        if self.capacity.is_some_and(|cap| self.entries.len() >= cap) {
            let lru = self.entries.lru().expect("non-empty at capacity");
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
            let victim = if self.rm_entries == 0 || self.rm_entries == self.entries.len() {
                lru
            } else {
                self.entries
                    .iter()
                    .take(VICTIM_SCAN)
                    .find(|&(_, &s)| s != ReplicaState::Rm)
                    .map_or(lru, |(region, _)| region)
            };
            let vstate = self.entries.remove(victim).expect("listed entry");
            self.rm_entries -= usize::from(vstate == ReplicaState::Rm);
            evicted = Some(ReplicaEviction {
                region: victim,
                state: vstate,
            });
        }
        self.entries.push(region, state);
        self.rm_entries += usize::from(state == ReplicaState::Rm);
        evicted
    }

    /// Removes the entry covering `line`, returning its state.
    pub fn remove(&mut self, line: LineAddr) -> Option<ReplicaState> {
        let region = self.region_of(line);
        let state = self.entries.remove(region)?;
        self.rm_entries -= usize::from(state == ReplicaState::Rm);
        Some(state)
    }

    /// Clears every entry — the *drain phase* used when the sampling
    /// dynamic scheme switches protocol state machines (§V-C5).
    pub fn drain(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.rm_entries = 0;
        n
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
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
        assert_eq!(
            ev,
            ReplicaEviction {
                region: 2,
                state: ReplicaState::S
            }
        );
        assert_eq!(rd.len(), 2);
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

    /// Asserts the recency list is well formed (see
    /// `LruList::assert_consistent`) and the `Rm` count matches it.
    fn assert_list_consistent(rd: &ReplicaDirectory) {
        rd.entries.assert_consistent();
        let rm = rd
            .entries
            .iter()
            .filter(|&(_, &s)| s == ReplicaState::Rm)
            .count();
        assert_eq!(rd.rm_entries, rm, "Rm count drift");
    }

    #[test]
    fn lru_list_stays_consistent_under_churn() {
        // install/lookup/remove/evict churn across a small capacity,
        // checking after every operation that the recency list's links,
        // slot map and free list never drift (a dangling link would
        // make a later eviction panic or pick a phantom victim).
        let mut evictions = 0;
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
                    evictions += usize::from(rd.install(line, state).is_some());
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
            assert_list_consistent(&rd);
        }
        assert!(evictions > 0, "churn exercised evictions");
        rd.drain();
        assert_list_consistent(&rd);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut rd = ReplicaDirectory::new(ReplicaPolicy::Allow, None, 1);
        for i in 0..10_000 {
            assert!(rd.install(i, ReplicaState::S).is_none());
        }
        assert_eq!(rd.len(), 10_000);
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
