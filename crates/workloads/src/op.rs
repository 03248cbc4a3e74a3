//! The trace operation vocabulary.
//!
//! Matches the event classes of the paper's Prism traces (§VI): compute,
//! memory, and thread-API/synchronization events. The replay rules are
//! the paper's: compute costs 1 cycle per unit, thread-API events cost
//! 100 cycles, memory operations are simulated in detail.

/// Memory request type at trace level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemReq {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One trace operation for one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Computation consuming the given number of cycles (the paper
    /// charges 1 cycle per integer/FP operation).
    Compute(u32),
    /// A memory access to a cache-line address.
    Mem {
        /// Line address (byte address / 64).
        line: u64,
        /// Load or store.
        req: MemReq,
    },
    /// A synchronization / thread-API event (create, join, mutex,
    /// barrier, ...) — fixed 100-cycle cost in the paper's replay.
    Sync,
}

impl Op {
    /// The paper's fixed cost for thread-API events.
    pub const SYNC_CYCLES: u32 = 100;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kinds() {
        assert_eq!(Op::SYNC_CYCLES, 100);
    }
}
