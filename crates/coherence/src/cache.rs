//! Set-associative cache arrays with true-LRU replacement.
//!
//! Used for the per-core private L1s (64 KB, 8-way in Table II) and the
//! per-socket shared LLC (8 MB, 16-way). Each line carries a coherence
//! state and, for the LLC, a bitmask of on-socket L1 sharers (the "local
//! directory embedded in L2" of Table II).
//!
//! A resident line is one `u64`: `addr << 18 | sharers << 2 | state`.
//! The line address takes the top 46 bits, so
//! [`SetAssocCache::insert`] panics on an address at or above `1 << 46`
//! (a 4 PiB span of 64 B lines); the 16-bit sharer mask and the 2-bit
//! state fill the rest. A set is a `Vec` of these words, allocated on
//! its first insert, so an LLC line costs 8 bytes and a set never
//! touched costs nothing but its empty `Vec`.
//!
//! Lines carry no timestamp: each set is kept in recency order, least
//! recent first. A hit in [`SetAssocCache::lookup`] or
//! [`SetAssocCache::insert`] rotates the line to the back (unless it is
//! already there), a full set evicts its front, and
//! [`SetAssocCache::invalidate`] removes a line without reordering the
//! rest. That is still true LRU: the front is exactly the line whose
//! last touch is oldest.
//!
//! Every search scans a set from the back, newest first. Most hits land
//! on a recently touched line, and the state and sharer updates that
//! follow a lookup find the line it just moved to the back. Addresses
//! are unique within a set, so the scan direction changes no result.

use crate::types::{CacheState, LineAddr};

/// Bits below the address in a line word: 16 sharer bits over 2 state
/// bits.
const ADDR_SHIFT: u32 = 18;
/// Position of the sharer mask in a line word.
const SHARERS_SHIFT: u32 = 2;
/// The state field of a line word.
const STATE_MASK: u64 = 0b11;
/// The sharer field of a line word.
const SHARERS_MASK: u64 = 0xFFFF << SHARERS_SHIFT;
/// Decodes the state field; `state as u64` encodes it.
const STATES: [CacheState; 4] = [CacheState::M, CacheState::O, CacheState::S, CacheState::I];

fn pack(addr: LineAddr, sharers: u16, state: CacheState) -> u64 {
    addr << ADDR_SHIFT | u64::from(sharers) << SHARERS_SHIFT | state as u64
}

fn with_state(word: u64, state: CacheState) -> u64 {
    word & !STATE_MASK | state as u64
}

fn word_addr(word: u64) -> LineAddr {
    word >> ADDR_SHIFT
}

fn word_state(word: u64) -> CacheState {
    STATES[(word & STATE_MASK) as usize]
}

fn word_sharers(word: u64) -> u16 {
    ((word & SHARERS_MASK) >> SHARERS_SHIFT) as u16
}

/// What fell out of the cache on an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address.
    pub addr: LineAddr,
    /// Its state at eviction (dirty states need a writeback).
    pub state: CacheState,
    /// Its L1 sharer mask (the LLC must back-invalidate these).
    pub sharers: u16,
}

/// A set-associative, true-LRU cache keyed by line address.
///
/// # Example
///
/// ```
/// use dve_coherence::cache::SetAssocCache;
/// use dve_coherence::types::CacheState;
///
/// let mut l1 = SetAssocCache::new(64 * 1024, 8, 64); // Table II L1
/// assert_eq!(l1.sets(), 128);
/// l1.insert(0x40, CacheState::S);
/// assert_eq!(l1.state_of(0x40), Some(CacheState::S));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Each set's resident line words, least recently used first.
    sets: Vec<Vec<u64>>,
    ways: usize,
    set_mask: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry yields a power-of-two number of sets.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> SetAssocCache {
        assert!(ways > 0 && line_bytes > 0, "invalid geometry");
        let lines = capacity_bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity not divisible by ways");
        let num_sets = lines / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        SetAssocCache {
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            ways,
            set_mask: (num_sets - 1) as u64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        (addr & self.set_mask) as usize
    }

    /// The resident word of `addr`, newest first.
    fn find(&self, addr: LineAddr) -> Option<u64> {
        self.sets[self.set_of(addr)]
            .iter()
            .rfind(|&&w| word_addr(w) == addr)
            .copied()
    }

    /// The resident word of `addr`, for an in-place update.
    fn find_mut(&mut self, addr: LineAddr) -> Option<&mut u64> {
        let set = self.set_of(addr);
        self.sets[set].iter_mut().rfind(|w| word_addr(**w) == addr)
    }

    /// Looks up `addr`, updating LRU. Returns the state if present.
    /// The engine counts L1 and LLC hits ([`EngineStats`]).
    ///
    /// [`EngineStats`]: crate::engine::EngineStats
    pub fn lookup(&mut self, addr: LineAddr) -> Option<CacheState> {
        let set = self.set_of(addr);
        let lines = &mut self.sets[set];
        let i = lines.iter().rposition(|&w| word_addr(w) == addr)?;
        if i + 1 < lines.len() {
            lines[i..].rotate_left(1);
        }
        lines.last().map(|&w| word_state(w))
    }

    /// Returns the state of `addr` without touching LRU.
    pub fn state_of(&self, addr: LineAddr) -> Option<CacheState> {
        self.find(addr).map(word_state)
    }

    /// Returns the L1-sharer mask of `addr` (LLC use), if resident.
    pub fn sharers_of(&self, addr: LineAddr) -> Option<u16> {
        self.find(addr).map(word_sharers)
    }

    /// Inserts (or updates) `addr` with `state`, evicting the LRU line of
    /// a full set. Returns the eviction, if any.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not fit the 46-bit address field.
    pub fn insert(&mut self, addr: LineAddr, state: CacheState) -> Option<Eviction> {
        assert!(
            addr < 1 << (64 - ADDR_SHIFT),
            "line address {addr:#x} is wider than the cache's 46-bit field"
        );
        let set = self.set_of(addr);
        let lines = &mut self.sets[set];
        if let Some(i) = lines.iter().rposition(|&w| word_addr(w) == addr) {
            if i + 1 < lines.len() {
                lines[i..].rotate_left(1);
            }
            let last = lines.last_mut().expect("hit line");
            *last = with_state(*last, state);
            return None;
        }
        let evicted = (lines.len() == self.ways).then(|| {
            let v = lines.remove(0);
            Eviction {
                addr: word_addr(v),
                state: word_state(v),
                sharers: word_sharers(v),
            }
        });
        lines.push(pack(addr, 0, state));
        evicted
    }

    /// Changes the state of a resident line. Returns `false` if absent.
    pub fn set_state(&mut self, addr: LineAddr, state: CacheState) -> bool {
        self.find_mut(addr)
            .map(|w| *w = with_state(*w, state))
            .is_some()
    }

    /// Updates the L1-sharer mask of a resident line (LLC use).
    pub fn set_sharers(&mut self, addr: LineAddr, sharers: u16) -> bool {
        self.find_mut(addr)
            .map(|w| *w = *w & !SHARERS_MASK | u64::from(sharers) << SHARERS_SHIFT)
            .is_some()
    }

    /// Removes `addr`, returning its final state.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheState> {
        let set = self.set_of(addr);
        let lines = &mut self.sets[set];
        lines
            .iter()
            .rposition(|&w| word_addr(w) == addr)
            .map(|i| word_state(lines.remove(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways × 64 B = 256 B.
        SetAssocCache::new(256, 2, 64)
    }

    #[test]
    fn geometry() {
        let l1 = SetAssocCache::new(64 * 1024, 8, 64);
        assert_eq!(l1.sets(), 128);
        assert_eq!(l1.ways(), 8);
        let llc = SetAssocCache::new(8 * 1024 * 1024, 16, 64);
        assert_eq!(llc.sets(), 8192);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert_eq!(c.lookup(4), None);
        c.insert(4, CacheState::S);
        assert_eq!(c.lookup(4), Some(CacheState::S));
        assert_eq!(c.lookup(6), None, "same set, not resident");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Addresses 0, 2, 4 all map to set 0 (even line addresses).
        c.insert(0, CacheState::S);
        c.insert(2, CacheState::S);
        c.lookup(0); // 0 now MRU; 2 is LRU
        let ev = c.insert(4, CacheState::S).expect("eviction");
        assert_eq!(ev.addr, 2);
        assert_eq!(c.state_of(0), Some(CacheState::S));
        assert_eq!(c.state_of(2), None);
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut c = tiny();
        c.insert(0, CacheState::S);
        assert!(c.insert(0, CacheState::M).is_none());
        assert_eq!(c.state_of(0), Some(CacheState::M));
    }

    #[test]
    fn eviction_carries_state_and_sharers() {
        let mut c = tiny();
        c.insert(0, CacheState::M);
        c.set_sharers(0, 0b101);
        c.insert(2, CacheState::S);
        let ev = c.insert(4, CacheState::S).unwrap();
        assert_eq!(ev.addr, 0);
        assert_eq!(ev.state, CacheState::M);
        assert_eq!(ev.sharers, 0b101);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(8, CacheState::O);
        assert_eq!(c.invalidate(8), Some(CacheState::O));
        assert_eq!(c.invalidate(8), None);
        assert_eq!(c.state_of(8), None);
    }

    #[test]
    fn set_state_and_sharers_require_residency() {
        let mut c = tiny();
        assert!(!c.set_state(0, CacheState::M));
        assert!(!c.set_sharers(0, 1));
        c.insert(0, CacheState::S);
        assert!(c.set_state(0, CacheState::M));
        assert!(c.set_sharers(0, 0b11));
        assert_eq!(c.sharers_of(0), Some(0b11));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        c.insert(0, CacheState::S); // set 0
        c.insert(1, CacheState::S); // set 1
        c.insert(2, CacheState::S); // set 0
        c.insert(3, CacheState::S); // set 1
                                    // All four fit: 2 per set.
        for a in 0..4 {
            assert!(c.state_of(a).is_some(), "addr {a}");
        }
    }

    #[test]
    fn line_word_round_trips_at_the_field_limits() {
        // The three fields fill the word exactly: the widest address,
        // every sharer bit and each state come back unchanged.
        assert_eq!(ADDR_SHIFT + 46, u64::BITS);
        for state in STATES {
            for (addr, sharers) in [(0, 0), ((1 << 46) - 1, u16::MAX), (0x2A, 0x8001)] {
                let w = pack(addr, sharers, state);
                assert_eq!(
                    (word_addr(w), word_sharers(w), word_state(w)),
                    (addr, sharers, state)
                );
            }
        }
        let mut c = tiny();
        let top = (1 << 46) - 2;
        c.insert(top, CacheState::O);
        c.set_sharers(top, u16::MAX);
        assert_eq!(c.state_of(top), Some(CacheState::O));
        assert_eq!(c.sharers_of(top), Some(u16::MAX));
    }

    #[test]
    #[should_panic(expected = "46-bit field")]
    fn too_wide_address_rejected() {
        tiny().insert(1 << 46, CacheState::S);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        SetAssocCache::new(192, 1, 64);
    }
}
