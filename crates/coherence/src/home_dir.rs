//! The global home directory.
//!
//! Table II: a full directory with a *coarse-grain (sockets) sharing
//! vector*, logically centralized but physically distributed — each
//! socket's directory controller owns the lines whose home memory sits on
//! that socket. The directory also performs the request classification
//! the paper uses in Fig. 7 to explain which protocol wins per workload.

use crate::types::{CacheState, LineAddr, ReqType, RequestClass};
use dve_sim::hash::IntMap;

/// One home-directory entry: socket-granularity sharer tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeEntry {
    /// Socket-level stable state of the line.
    pub state: CacheState,
    /// Owning socket when state is M/O.
    pub owner: Option<usize>,
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
/// ```
#[derive(Debug, Clone, Default)]
pub struct HomeDirectory {
    socket: usize,
    entries: IntMap<LineAddr, HomeEntry>,
    class_counts: [u64; 4],
}

impl HomeDirectory {
    /// Creates the directory for `socket`.
    pub fn new(socket: usize) -> HomeDirectory {
        HomeDirectory {
            socket,
            entries: IntMap::default(),
            class_counts: [0; 4],
        }
    }

    /// The socket this directory serves.
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// The entry for `line` (INVALID if never touched).
    pub fn entry(&self, line: LineAddr) -> HomeEntry {
        self.entries.get(&line).copied().unwrap_or_default()
    }

    /// Mutable entry, created on demand.
    pub fn entry_mut(&mut self, line: LineAddr) -> &mut HomeEntry {
        self.entries.entry(line).or_default()
    }

    /// Removes an entry (line fully evicted everywhere).
    pub fn remove(&mut self, line: LineAddr) {
        self.entries.remove(&line);
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

    /// Fraction of requests in each class (Fig. 7's distribution).
    /// Returns zeros when no requests were classified.
    pub fn class_fractions(&self) -> [f64; 4] {
        let total: u64 = self.class_counts.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, &c) in out.iter_mut().zip(&self.class_counts) {
            *o = c as f64 / total as f64;
        }
        out
    }

    /// Iterates all live entries (used by the dynamic-protocol
    /// switch-over to re-push RM entries for modified lines).
    pub fn iter_entries(&self) -> impl Iterator<Item = (&LineAddr, &HomeEntry)> {
        self.entries.iter()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory has no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let f = d.class_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entries_default_invalid() {
        let d = HomeDirectory::new(1);
        assert_eq!(d.entry(42), HomeEntry::INVALID);
        assert!(d.is_empty());
        assert_eq!(d.socket(), 1);
    }

    #[test]
    fn entry_mut_creates_and_mutates() {
        let mut d = HomeDirectory::new(0);
        {
            let e = d.entry_mut(7);
            e.state = CacheState::M;
            e.owner = Some(1);
            e.sharers = 0b10;
        }
        assert_eq!(d.entry(7).state, CacheState::M);
        assert_eq!(d.entry(7).owner, Some(1));
        assert_eq!(d.len(), 1);
        d.remove(7);
        assert_eq!(d.entry(7), HomeEntry::INVALID);
    }

    #[test]
    fn fractions_zero_when_empty() {
        let d = HomeDirectory::new(0);
        assert_eq!(d.class_fractions(), [0.0; 4]);
    }
}
