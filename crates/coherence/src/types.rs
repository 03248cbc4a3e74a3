//! Shared vocabulary for the coherence subsystem.

use std::fmt;

/// A cache-line address (byte address / 64). All coherence structures
/// work at line granularity.
pub type LineAddr = u64;

/// Number of sockets in the system (the paper evaluates a dual-socket
/// machine; the protocol generalizes but the replica pairing is 1:1).
pub const NUM_SOCKETS: usize = 2;

/// A memory request type as seen by the coherence protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqType {
    /// Load — becomes a GETS on a miss.
    Read,
    /// Store — becomes a GETX on a miss/upgrade.
    Write,
}

/// Stable coherence states (MOSI, as in the paper's hierarchical
/// MOESI/MOSI configuration — we keep O so the read/write sharing class
/// of Fig. 7 is observable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// Modified: exclusive, dirty.
    M,
    /// Owned: shared, dirty, this holder responds.
    O,
    /// Shared: clean, read-only.
    S,
    /// Invalid.
    I,
}

impl CacheState {
    /// Whether this state permits reads.
    pub fn readable(self) -> bool {
        !matches!(self, CacheState::I)
    }

    /// Whether this state permits writes.
    pub fn writable(self) -> bool {
        matches!(self, CacheState::M)
    }

    /// Whether the holder is responsible for the dirty data.
    pub fn dirty(self) -> bool {
        matches!(self, CacheState::M | CacheState::O)
    }
}

impl fmt::Display for CacheState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheState::M => "M",
            CacheState::O => "O",
            CacheState::S => "S",
            CacheState::I => "I",
        };
        f.write_str(s)
    }
}

/// Where a memory operation was ultimately serviced — the latency class
/// the requester observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Private L1 hit.
    L1,
    /// Shared LLC hit on the requester's socket.
    Llc,
    /// DRAM on the requester's socket (home memory or, under Dvé, the
    /// local replica).
    LocalDram,
    /// DRAM on the other socket.
    RemoteDram,
    /// Forwarded from the owning LLC on the requester's socket.
    LocalOwner,
    /// Forwarded from the owning LLC on the other socket.
    RemoteOwner,
}

/// The paper's Fig. 7 classification of requests arriving at the home
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// GETS to a line in I state.
    PrivateRead,
    /// GETS to a line in S state.
    ReadOnly,
    /// GETS to a line in M/O state, or GETX to a line in S state.
    ReadWrite,
    /// GETX to a line in I state.
    PrivateReadWrite,
}

impl RequestClass {
    /// All classes in Fig. 7's presentation order.
    pub const ALL: [RequestClass; 4] = [
        RequestClass::PrivateRead,
        RequestClass::ReadOnly,
        RequestClass::ReadWrite,
        RequestClass::PrivateReadWrite,
    ];
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RequestClass::PrivateRead => "private-read",
            RequestClass::ReadOnly => "read-only",
            RequestClass::ReadWrite => "read/write",
            RequestClass::PrivateReadWrite => "private-read/write",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_permissions() {
        assert!(CacheState::M.readable() && CacheState::M.writable());
        assert!(CacheState::O.readable() && !CacheState::O.writable());
        assert!(CacheState::S.readable() && !CacheState::S.writable());
        assert!(!CacheState::I.readable() && !CacheState::I.writable());
        assert!(CacheState::M.dirty() && CacheState::O.dirty());
        assert!(!CacheState::S.dirty());
    }

    #[test]
    fn display_strings() {
        assert_eq!(CacheState::M.to_string(), "M");
        assert_eq!(
            RequestClass::PrivateReadWrite.to_string(),
            "private-read/write"
        );
    }
}
