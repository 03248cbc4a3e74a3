//! The Replica Map Table (RMT) and its directory-side cache (§V-D).
//!
//! A single system-wide OS-managed table maps each replicated physical
//! page to its replica location — the *node* holding the copy and the
//! *frame* within that node. The paper notes it "can be organized as a
//! simple linear table or a 2-level radix-tree (similar to the page
//! table)"; both organizations are provided behind one API. Entries can
//! outlive deallocation (reducing shoot-downs), and directory
//! controllers cache recent translations, walking the table in hardware
//! on a miss.
//!
//! In the original two-socket system the node was implicit ("the other
//! socket") and the table held a bare frame number. The N-node
//! placement policies of `dve_noc::topology` make the node explicit:
//! entries are [`ReplicaLoc`]s.

use dve_noc::topology::NodeId;
use std::collections::HashMap;

/// Where a replicated page's copy lives: a node and a frame on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaLoc {
    /// Node holding the replica (socket or far-memory pool).
    pub node: NodeId,
    /// Physical frame number on that node.
    pub frame: u64,
}

/// RMT organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmtOrganization {
    /// Flat hash/array lookup, O(1).
    Linear,
    /// Two-level radix tree (page-table-like); a hardware walk costs two
    /// dependent memory accesses.
    Radix2,
}

/// Radix parameters: low 9 bits index the leaf, next bits the root.
const RADIX_LEAF_BITS: u32 = 9;
const RADIX_LEAF_SIZE: usize = 1 << RADIX_LEAF_BITS;

#[derive(Debug, Clone)]
enum Table {
    Linear(HashMap<u64, ReplicaLoc>),
    Radix2 {
        root: HashMap<u64, Box<[Option<ReplicaLoc>; RADIX_LEAF_SIZE]>>,
        len: usize,
    },
}

/// The system-wide replica map table.
///
/// # Example
///
/// ```
/// use dve_osmem::rmt::{ReplicaLoc, ReplicaMapTable, RmtOrganization};
///
/// let mut rmt = ReplicaMapTable::new(RmtOrganization::Radix2);
/// rmt.map(100, ReplicaLoc { node: 1, frame: 257 });
/// assert_eq!(rmt.lookup(100), Some(ReplicaLoc { node: 1, frame: 257 }));
/// assert_eq!(rmt.lookup(101), None); // unmapped: falls back to single copy
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaMapTable {
    table: Table,
}

impl ReplicaMapTable {
    /// Creates an empty RMT with the chosen organization.
    pub fn new(org: RmtOrganization) -> ReplicaMapTable {
        let table = match org {
            RmtOrganization::Linear => Table::Linear(HashMap::new()),
            RmtOrganization::Radix2 => Table::Radix2 {
                root: HashMap::new(),
                len: 0,
            },
        };
        ReplicaMapTable { table }
    }

    /// The organization in use.
    pub fn organization(&self) -> RmtOrganization {
        match self.table {
            Table::Linear(_) => RmtOrganization::Linear,
            Table::Radix2 { .. } => RmtOrganization::Radix2,
        }
    }

    /// Maps `page` to `replica`. Returns the previous mapping, if any.
    pub fn map(&mut self, page: u64, replica: ReplicaLoc) -> Option<ReplicaLoc> {
        match &mut self.table {
            Table::Linear(m) => m.insert(page, replica),
            Table::Radix2 { root, len } => {
                let leaf = root
                    .entry(page >> RADIX_LEAF_BITS)
                    .or_insert_with(|| Box::new([None; RADIX_LEAF_SIZE]));
                let slot = &mut leaf[(page & (RADIX_LEAF_SIZE as u64 - 1)) as usize];
                let prev = slot.take();
                *slot = Some(replica);
                if prev.is_none() {
                    *len += 1;
                }
                prev
            }
        }
    }

    /// Looks up the replica location. `None` means the page is not
    /// replicated — "Dvé seamlessly falls back to using a single copy".
    pub fn lookup(&self, page: u64) -> Option<ReplicaLoc> {
        match &self.table {
            Table::Linear(m) => m.get(&page).copied(),
            Table::Radix2 { root, .. } => root
                .get(&(page >> RADIX_LEAF_BITS))
                .and_then(|leaf| leaf[(page & (RADIX_LEAF_SIZE as u64 - 1)) as usize]),
        }
    }

    /// Removes the mapping (rare: only on capacity reclamation).
    pub fn unmap(&mut self, page: u64) -> Option<ReplicaLoc> {
        match &mut self.table {
            Table::Linear(m) => m.remove(&page),
            Table::Radix2 { root, len } => {
                let leaf = root.get_mut(&(page >> RADIX_LEAF_BITS))?;
                let slot = &mut leaf[(page & (RADIX_LEAF_SIZE as u64 - 1)) as usize];
                let prev = slot.take();
                if prev.is_some() {
                    *len -= 1;
                }
                prev
            }
        }
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        match &self.table {
            Table::Linear(m) => m.len(),
            Table::Radix2 { len, .. } => *len,
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory accesses a hardware walk costs for this organization.
    pub fn walk_accesses(&self) -> u32 {
        match self.table {
            Table::Linear(_) => 1,
            Table::Radix2 { .. } => 2,
        }
    }
}

/// A small fully-associative LRU cache of RMT translations held at a
/// directory controller ("The RMT can be cached at the directory
/// controller for quick lookups").
#[derive(Debug, Clone)]
pub struct RmtCache {
    capacity: usize,
    entries: Vec<(u64, ReplicaLoc)>, // (page, replica), front = MRU
    hits: u64,
    misses: u64,
}

impl RmtCache {
    /// Creates a cache with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> RmtCache {
        assert!(capacity > 0, "capacity must be non-zero");
        RmtCache {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `page`, walking `rmt` on a miss. Returns the replica
    /// location (if mapped) and the number of memory accesses spent
    /// (0 on a cache hit, `rmt.walk_accesses()` on a miss).
    pub fn translate(&mut self, page: u64, rmt: &ReplicaMapTable) -> (Option<ReplicaLoc>, u32) {
        if let Some(i) = self.entries.iter().position(|&(p, _)| p == page) {
            let e = self.entries.remove(i);
            self.entries.insert(0, e);
            self.hits += 1;
            return (Some(e.1), 0);
        }
        self.misses += 1;
        let walked = rmt.lookup(page);
        if let Some(r) = walked {
            if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, (page, r));
        }
        (walked, rmt.walk_accesses())
    }

    /// Invalidates one cached translation (RMT shoot-down).
    pub fn invalidate(&mut self, page: u64) {
        self.entries.retain(|&(p, _)| p != page);
    }

    /// Cache hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand: a replica on node 1 at `frame` (the two-socket
    /// mirror's only choice).
    fn loc(frame: u64) -> ReplicaLoc {
        ReplicaLoc { node: 1, frame }
    }

    #[test]
    fn both_organizations_roundtrip() {
        for org in [RmtOrganization::Linear, RmtOrganization::Radix2] {
            let mut rmt = ReplicaMapTable::new(org);
            assert_eq!(rmt.organization(), org);
            assert!(rmt.is_empty());
            for p in 0..2000u64 {
                assert_eq!(rmt.map(p, loc(p + 10_000)), None);
            }
            assert_eq!(rmt.len(), 2000);
            for p in 0..2000u64 {
                assert_eq!(rmt.lookup(p), Some(loc(p + 10_000)), "{org:?} page {p}");
            }
            assert_eq!(rmt.lookup(99_999), None);
            assert_eq!(rmt.unmap(5), Some(loc(10_005)));
            assert_eq!(rmt.lookup(5), None);
            assert_eq!(rmt.len(), 1999);
        }
    }

    #[test]
    fn remap_returns_previous() {
        let mut rmt = ReplicaMapTable::new(RmtOrganization::Radix2);
        rmt.map(1, loc(2));
        assert_eq!(rmt.map(1, loc(3)), Some(loc(2)));
        assert_eq!(rmt.lookup(1), Some(loc(3)));
        assert_eq!(rmt.len(), 1);
    }

    #[test]
    fn radix_spans_leaves() {
        let mut rmt = ReplicaMapTable::new(RmtOrganization::Radix2);
        // Pages far apart land in different leaves.
        rmt.map(0, loc(1));
        rmt.map(1 << 20, loc(7));
        assert_eq!(rmt.lookup(0), Some(loc(1)));
        assert_eq!(rmt.lookup(1 << 20), Some(loc(7)));
        assert_eq!(rmt.walk_accesses(), 2);
        assert_eq!(
            ReplicaMapTable::new(RmtOrganization::Linear).walk_accesses(),
            1
        );
    }

    #[test]
    fn cache_hits_after_first_walk() {
        let mut rmt = ReplicaMapTable::new(RmtOrganization::Radix2);
        rmt.map(7, loc(8));
        let mut cache = RmtCache::new(4);
        let (r1, cost1) = cache.translate(7, &rmt);
        assert_eq!((r1, cost1), (Some(loc(8)), 2));
        let (r2, cost2) = cache.translate(7, &rmt);
        assert_eq!((r2, cost2), (Some(loc(8)), 0));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn cache_lru_eviction() {
        let mut rmt = ReplicaMapTable::new(RmtOrganization::Linear);
        for p in 0..5 {
            rmt.map(p, loc(p + 100));
        }
        let mut cache = RmtCache::new(2);
        cache.translate(0, &rmt);
        cache.translate(1, &rmt);
        cache.translate(0, &rmt); // 0 MRU, 1 LRU
        cache.translate(2, &rmt); // evicts 1
        let (_, cost) = cache.translate(0, &rmt);
        assert_eq!(cost, 0, "0 still cached");
        let (_, cost) = cache.translate(1, &rmt);
        assert_eq!(cost, 1, "1 was evicted");
    }

    #[test]
    fn cache_shootdown() {
        let mut rmt = ReplicaMapTable::new(RmtOrganization::Linear);
        rmt.map(3, loc(4));
        let mut cache = RmtCache::new(4);
        cache.translate(3, &rmt);
        cache.invalidate(3);
        let (_, cost) = cache.translate(3, &rmt);
        assert_eq!(cost, 1, "must re-walk after shoot-down");
    }

    #[test]
    fn unmapped_pages_not_cached() {
        let rmt = ReplicaMapTable::new(RmtOrganization::Linear);
        let mut cache = RmtCache::new(4);
        let (r, _) = cache.translate(9, &rmt);
        assert_eq!(r, None);
        // A second lookup must walk again (no negative caching).
        let (_, cost) = cache.translate(9, &rmt);
        assert_eq!(cost, 1);
    }
}
