//! The on-chip directory cache.
//!
//! §V-A / Table II: "We assume a full directory with the recently
//! accessed entries cached on-chip." The full directory state lives in
//! DRAM (a reserved region); the directory controller caches hot entries
//! in SRAM. A directory-cache miss therefore costs one extra DRAM access
//! to fetch the entry before the transaction can be ordered.
//!
//! [`DirCache`] models exactly that residency set (LRU over line
//! addresses, kept in the same linked recency list as the replica
//! directory's, so an access is one hash probe and a few link updates).
//! The engine consults it at every home-directory access when
//! configured; `None` capacity models an ideal all-SRAM directory (the
//! default, matching the calibrated Table II latencies).

use crate::lru::LruList;
use crate::types::LineAddr;

/// LRU residency tracker for on-chip directory entries.
///
/// # Example
///
/// ```
/// use dve_coherence::dir_cache::DirCache;
///
/// let mut dc = DirCache::new(2);
/// assert!(!dc.access(0x40)); // cold miss
/// assert!(dc.access(0x40)); // hit
/// dc.access(0x80);
/// dc.access(0xC0); // evicts 0x40
/// assert!(!dc.access(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct DirCache {
    capacity: usize,
    /// Resident lines, least recently used first.
    entries: LruList<()>,
}

impl DirCache {
    /// Creates a cache holding `capacity` directory entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> DirCache {
        assert!(capacity > 0, "capacity must be non-zero");
        DirCache {
            capacity,
            entries: LruList::default(),
        }
    }

    /// Touches the entry for `line`: returns `true` on an on-chip hit,
    /// `false` when the entry must be fetched from the in-memory
    /// directory (and installs it, evicting LRU).
    pub fn access(&mut self, line: LineAddr) -> bool {
        if self.entries.touch(line).is_some() {
            return true;
        }
        if self.entries.len() == self.capacity {
            let victim = self.entries.lru().expect("non-empty at capacity");
            self.entries.remove(victim);
        }
        self.entries.push(line, ());
        false
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_install() {
        let mut dc = DirCache::new(4);
        assert!(!dc.access(1));
        assert!(dc.access(1));
        assert!(dc.access(1));
        assert_eq!(dc.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut dc = DirCache::new(2);
        dc.access(1);
        dc.access(2);
        dc.access(1); // 2 is now LRU
        dc.access(3); // evicts 2
        assert!(dc.access(1));
        assert!(!dc.access(2));
        assert_eq!(dc.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut dc = DirCache::new(8);
        for i in 0..1000u64 {
            dc.access(i);
            assert!(dc.len() <= 8);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        DirCache::new(0);
    }
}
