//! The global home directory.
//!
//! Table II: a full directory with a *coarse-grain (sockets) sharing
//! vector*, logically centralized but physically distributed — each
//! socket's directory controller owns the lines whose home memory sits on
//! that socket. The directory also performs the request classification
//! the paper uses in Fig. 7 to explain which protocol wins per workload.
//!
//! The entries live in a private open-addressed table of `u64` slots,
//! one per line: `(line + 1) << 16 | entry`, where 0 marks an empty
//! slot. The 15 entry bits are the socket-level state (2), the owner
//! socket plus one (4, 0 for none), the one-bit-per-socket sharer
//! vector (8) and the replica-sharer flag (1).
//! [`ProtocolEngine::new`](crate::engine::ProtocolEngine::new) caps the
//! placement at 8 nodes, so both socket fields fit. The key takes the
//! top 48 bits, so [`HomeDirectory::update`] panics on a line at or
//! above `2^48 - 1`.
//!
//! The table's capacity is a power of two, allocated on the first
//! update. A probe starts at the top bits of
//! `line.wrapping_mul(`[`K`]`)` and walks forward linearly to the
//! line's slot or the first empty one. The table doubles before an
//! insert would take it past 3/4 load. Nothing deletes an entry: a line
//! the protocol has touched keeps its slot for the rest of the run,
//! `INVALID` or not.

use crate::types::{CacheState, LineAddr, ReqType, RequestClass};
use dve_sim::hash::K;

/// Low slot bits holding the entry; the key sits above them.
const ENTRY_BITS: u32 = 16;
/// Lines at or above this do not fit the 48-bit `line + 1` key.
const LINE_LIMIT: LineAddr = (1 << (64 - ENTRY_BITS)) - 1;
/// Slots allocated on the first update (4 KiB).
const MIN_SLOTS: usize = 512;

const OWNER_SHIFT: u32 = 2;
const SHARERS_SHIFT: u32 = 6;
const REPLICA_SHIFT: u32 = 14;

/// One home-directory entry: socket-granularity sharer tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeEntry {
    /// Socket-level stable state of the line.
    pub state: CacheState,
    /// Owning socket when state is M/O.
    pub owner: Option<u8>,
    /// Bitmask of sockets holding the line.
    pub sharers: u8,
    /// Whether the replica directory is registered as a sharer (the
    /// allow-based protocol's "home directory ... adds the replica
    /// directory as one of its sharers").
    pub replica_shared: bool,
}

impl HomeEntry {
    /// The invalid (absent) entry.
    pub const INVALID: HomeEntry = HomeEntry {
        state: CacheState::I,
        owner: None,
        sharers: 0,
        replica_shared: false,
    };

    /// The 15 entry bits of a slot. `INVALID` packs to 0.
    fn pack(self) -> u64 {
        let state = match self.state {
            CacheState::I => 0,
            CacheState::S => 1,
            CacheState::O => 2,
            CacheState::M => 3,
        };
        let owner = self.owner.map_or(0, |o| {
            debug_assert!(o < 15, "owner {o} does not fit the 4-bit field");
            u64::from(o) + 1
        });
        state
            | owner << OWNER_SHIFT
            | u64::from(self.sharers) << SHARERS_SHIFT
            | u64::from(self.replica_shared) << REPLICA_SHIFT
    }

    /// The entry in the low bits of `slot` (an empty slot is `INVALID`).
    fn unpack(slot: u64) -> HomeEntry {
        const STATES: [CacheState; 4] =
            [CacheState::I, CacheState::S, CacheState::O, CacheState::M];
        let owner = (slot >> OWNER_SHIFT & 0xF) as u8;
        HomeEntry {
            state: STATES[(slot & 0b11) as usize],
            owner: owner.checked_sub(1),
            sharers: (slot >> SHARERS_SHIFT) as u8,
            replica_shared: slot >> REPLICA_SHIFT & 1 != 0,
        }
    }
}

impl Default for HomeEntry {
    fn default() -> Self {
        Self::INVALID
    }
}

/// The home directory for lines homed on one socket.
///
/// # Example
///
/// ```
/// use dve_coherence::home_dir::HomeDirectory;
/// use dve_coherence::types::{CacheState, ReqType, RequestClass};
///
/// let mut dir = HomeDirectory::new(0);
/// let class = dir.classify(ReqType::Read, CacheState::I);
/// assert_eq!(class, RequestClass::PrivateRead);
/// dir.update(0x40, |e| e.state = CacheState::S);
/// assert_eq!(dir.entry(0x40).state, CacheState::S);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HomeDirectory {
    socket: usize,
    /// The open-addressed table: empty, or a power of two of slots.
    slots: Vec<u64>,
    /// Occupied slots.
    len: usize,
    class_counts: [u64; 4],
}

impl HomeDirectory {
    /// Creates the directory for `socket`.
    pub fn new(socket: usize) -> HomeDirectory {
        HomeDirectory {
            socket,
            ..HomeDirectory::default()
        }
    }

    /// The socket this directory serves.
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// The slot holding `line`, or the empty slot where it would go.
    /// The table must be allocated and below full.
    fn probe(&self, line: LineAddr) -> usize {
        let key = line.wrapping_add(1);
        let mask = self.slots.len() - 1;
        let shift = u64::BITS - self.slots.len().trailing_zeros();
        let mut i = (line.wrapping_mul(K) >> shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 || slot >> ENTRY_BITS == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and re-places
    /// every slot.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        for slot in old.into_iter().filter(|&s| s != 0) {
            let i = self.probe((slot >> ENTRY_BITS) - 1);
            self.slots[i] = slot;
        }
    }

    /// The entry for `line` (INVALID if never touched).
    pub fn entry(&self, line: LineAddr) -> HomeEntry {
        if self.slots.is_empty() {
            return HomeEntry::INVALID;
        }
        // A line past the key width never matches a stored key, so the
        // probe ends at an empty slot and reads as INVALID.
        HomeEntry::unpack(self.slots[self.probe(line)])
    }

    /// Applies `f` to the entry for `line`, creating it (INVALID) first
    /// if the line was never touched.
    ///
    /// # Panics
    ///
    /// Panics if `line` does not fit the 48-bit key (`line + 1`).
    pub fn update(&mut self, line: LineAddr, f: impl FnOnce(&mut HomeEntry)) {
        assert!(
            line < LINE_LIMIT,
            "line {line:#x} is wider than the home directory's 48-bit key"
        );
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.probe(line);
        let slot = &mut self.slots[i];
        if *slot == 0 {
            self.len += 1;
        }
        let mut entry = HomeEntry::unpack(*slot);
        f(&mut entry);
        *slot = (line + 1) << ENTRY_BITS | entry.pack();
    }

    /// Classifies a request against the pre-transition state (Fig. 7) and
    /// counts it.
    pub fn classify(&mut self, req: ReqType, prior: CacheState) -> RequestClass {
        let class = match (req, prior) {
            (ReqType::Read, CacheState::I) => RequestClass::PrivateRead,
            (ReqType::Read, CacheState::S) => RequestClass::ReadOnly,
            (ReqType::Read, CacheState::M | CacheState::O) => RequestClass::ReadWrite,
            (ReqType::Write, CacheState::I) => RequestClass::PrivateReadWrite,
            (ReqType::Write, _) => RequestClass::ReadWrite,
        };
        let idx = RequestClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("class in ALL");
        self.class_counts[idx] += 1;
        class
    }

    /// Per-class request counts, in [`RequestClass::ALL`] order.
    pub fn class_counts(&self) -> [u64; 4] {
        self.class_counts
    }

    /// Iterates all live entries in table order (used by the
    /// dynamic-protocol switch-over to re-push RM entries for modified
    /// lines, which sorts what it collects).
    pub fn iter_entries(&self) -> impl Iterator<Item = (LineAddr, HomeEntry)> + '_ {
        self.slots
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| ((s >> ENTRY_BITS) - 1, HomeEntry::unpack(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn classification_matches_fig7_definitions() {
        let mut d = HomeDirectory::new(0);
        assert_eq!(
            d.classify(ReqType::Read, CacheState::I),
            RequestClass::PrivateRead
        );
        assert_eq!(
            d.classify(ReqType::Read, CacheState::S),
            RequestClass::ReadOnly
        );
        assert_eq!(
            d.classify(ReqType::Read, CacheState::M),
            RequestClass::ReadWrite
        );
        assert_eq!(
            d.classify(ReqType::Read, CacheState::O),
            RequestClass::ReadWrite
        );
        assert_eq!(
            d.classify(ReqType::Write, CacheState::I),
            RequestClass::PrivateReadWrite
        );
        assert_eq!(
            d.classify(ReqType::Write, CacheState::S),
            RequestClass::ReadWrite
        );
        assert_eq!(
            d.classify(ReqType::Write, CacheState::M),
            RequestClass::ReadWrite
        );
        let counts = d.class_counts();
        assert_eq!(counts, [1, 1, 4, 1]);
    }

    #[test]
    fn entries_default_invalid() {
        let d = HomeDirectory::new(1);
        assert_eq!(d.entry(42), HomeEntry::INVALID);
        assert_eq!(d.iter_entries().count(), 0);
        assert_eq!(d.socket(), 1);
    }

    #[test]
    fn update_creates_and_mutates() {
        let mut d = HomeDirectory::new(0);
        d.update(7, |e| {
            e.state = CacheState::M;
            e.owner = Some(1);
            e.sharers = 0b10;
        });
        assert_eq!(d.entry(7).state, CacheState::M);
        assert_eq!(d.entry(7).owner, Some(1));
        assert_eq!(d.iter_entries().count(), 1);
        assert_eq!(d.entry(8), HomeEntry::INVALID);
        // An update that leaves the entry INVALID still takes a slot.
        d.update(8, |_| {});
        assert_eq!(d.iter_entries().count(), 2);
    }

    #[test]
    fn every_entry_round_trips_through_its_bits() {
        let states = [CacheState::M, CacheState::O, CacheState::S, CacheState::I];
        for state in states {
            for owner in std::iter::once(None).chain((0..8).map(Some)) {
                for sharers in 0..=u8::MAX {
                    for replica_shared in [false, true] {
                        let e = HomeEntry {
                            state,
                            owner,
                            sharers,
                            replica_shared,
                        };
                        let bits = e.pack();
                        assert!(bits < 1 << 15, "{e:?} packs to {bits:#x}");
                        assert_eq!(HomeEntry::unpack(bits), e);
                        // The key above the entry bits does not leak in.
                        let slot = LINE_LIMIT << ENTRY_BITS | bits;
                        assert_eq!(HomeEntry::unpack(slot), e);
                    }
                }
            }
        }
        assert_eq!(HomeEntry::INVALID.pack(), 0);
    }

    #[test]
    fn slot_word_holds_the_widest_key_and_entry() {
        // The key and the entry bits fill the word exactly: the widest
        // key shifts in without losing a bit, and the widest entry stays
        // below the key.
        assert_eq!(LINE_LIMIT << ENTRY_BITS >> ENTRY_BITS, LINE_LIMIT);
        assert_eq!(LINE_LIMIT.leading_zeros(), ENTRY_BITS);
        let widest = HomeEntry {
            state: CacheState::M,
            owner: Some(7),
            sharers: u8::MAX,
            replica_shared: true,
        };
        assert!(widest.pack() < 1 << ENTRY_BITS);
        let mut d = HomeDirectory::new(0);
        let top = LINE_LIMIT - 1;
        d.update(top, |e| *e = widest);
        d.update(0, |e| e.sharers = 1);
        assert_eq!(d.entry(top), widest);
        assert_eq!(d.entry(LINE_LIMIT), HomeEntry::INVALID);
        assert_eq!(d.entry(u64::MAX), HomeEntry::INVALID);
        let mut got: Vec<_> = d.iter_entries().map(|(l, _)| l).collect();
        got.sort_unstable();
        assert_eq!(got, [0, top]);
    }

    #[test]
    #[should_panic(expected = "48-bit key")]
    fn too_wide_line_rejected() {
        HomeDirectory::new(0).update(LINE_LIMIT, |e| e.sharers = 1);
    }

    /// One random entry from a draw.
    fn entry_from(bits: u64) -> HomeEntry {
        let states = [CacheState::M, CacheState::O, CacheState::S, CacheState::I];
        let owner = (bits >> 2) % 9;
        HomeEntry {
            state: states[(bits & 3) as usize],
            owner: owner.checked_sub(1).map(|o| o as u8),
            sharers: (bits >> 8) as u8,
            replica_shared: bits >> 16 & 1 != 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The table agrees with a `HashMap` on every read, through at
        // least four doublings, on random, page-strided and clustered
        // lines up to the key width. An update reads the old entry it
        // is handed, so a lost or misplaced slot shows there too.
        #[test]
        fn directory_matches_a_hashmap_reference(
            draws in proptest::collection::vec((0u8..4, 0u64..LINE_LIMIT, any::<u64>()), 8000..10_000),
            base in 0u64..LINE_LIMIT - (1 << 20),
        ) {
            let mut d = HomeDirectory::new(0);
            let mut reference: HashMap<LineAddr, HomeEntry> = HashMap::new();
            for (kind, wide, bits) in draws {
                let line = match kind {
                    // Anywhere below the limit.
                    0 => wide,
                    // One line per 4 KiB page, pages on a stride.
                    1 => (base + (wide % 4096) * 64) % LINE_LIMIT,
                    // A dense cluster near the limit.
                    2 => LINE_LIMIT - 1 - wide % 512,
                    // A dense cluster near zero.
                    _ => wide % 2048,
                };
                if bits >> 62 == 0 {
                    prop_assert_eq!(d.entry(line), reference.get(&line).copied().unwrap_or_default());
                    continue;
                }
                let want = entry_from(bits);
                let old = reference.insert(line, want).unwrap_or_default();
                let mut seen = None;
                d.update(line, |e| {
                    seen = Some(*e);
                    *e = want;
                });
                prop_assert_eq!(seen, Some(old));
                prop_assert_eq!(d.entry(line), want);
            }
            prop_assert!(d.slots.len() >= MIN_SLOTS << 4, "only {} slots", d.slots.len());
            prop_assert_eq!(d.len, reference.len());
            let got: HashMap<LineAddr, HomeEntry> = d.iter_entries().collect();
            prop_assert_eq!(d.iter_entries().count(), reference.len());
            prop_assert_eq!(got, reference);
        }
    }
}
