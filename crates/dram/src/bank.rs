//! Per-bank row-buffer state machine.
//!
//! Bank occupancy sits on a single-way [`dve_sim::resource::Resource`]
//! port, so a busy bank queues requests through the same primitive as
//! the per-core MSHR files, and the queue/service split is read
//! straight off the returned [`Grant`].

use dve_sim::resource::{Grant, Resource};
use dve_sim::time::Cycles;

/// Classification of an access against the bank's row-buffer state —
/// determines which DRAM timing path applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// Requested row is already open: column access only (tCL).
    Hit,
    /// Bank precharged, no row open: activate + column (tRCD + tCL).
    Miss,
    /// A different row is open: precharge + activate + column
    /// (tRP + tRCD + tCL).
    Conflict,
}

/// One DRAM bank: the open row (if any) and a one-way occupancy port
/// serializing its command bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    open_row: Option<u64>,
    /// Single-way occupancy port: the bank services one burst at a time.
    port: Resource,
    /// When the currently open row was activated (to honor tRAS before a
    /// precharge on conflict).
    activated_at: Cycles,
}

impl Default for Bank {
    fn default() -> Bank {
        Bank {
            open_row: None,
            port: Resource::new(1),
            activated_at: Cycles(0),
        }
    }
}

impl Bank {
    /// Creates an idle, precharged bank.
    pub fn new() -> Bank {
        Bank::default()
    }

    /// The row currently latched in the row buffer.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest time the bank can start a new operation.
    pub fn busy_until(&self) -> Cycles {
        Cycles(self.port.drained_at())
    }

    /// Classifies an access to `row` without performing it.
    pub fn classify(&self, row: u64) -> RowOutcome {
        match self.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        }
    }

    /// Performs an access to `row` arriving at `now`, given the timing
    /// parameters. Returns the row outcome plus the port [`Grant`]:
    /// `grant.start` is when the first DRAM command actually issues
    /// (after any queueing on a busy bank, including a tRAS hold before
    /// a conflict's precharge), `grant.complete_at` is when the data
    /// transfer completes, and `grant.queued` is the full pre-issue wait.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        row: u64,
        now: Cycles,
        t_cl: Cycles,
        t_rcd: Cycles,
        t_rp: Cycles,
        t_ras: Cycles,
        t_burst: Cycles,
    ) -> (RowOutcome, Grant) {
        let outcome = self.classify(row);
        let latency = match outcome {
            RowOutcome::Hit => t_cl + t_burst,
            RowOutcome::Miss => t_rcd + t_cl + t_burst,
            RowOutcome::Conflict => {
                // The precharge may not issue until tRAS after the open
                // row's activation: hold the port shut until then so the
                // wait is charged as queueing.
                self.port.block_until((self.activated_at + t_ras).raw());
                t_rp + t_rcd + t_cl + t_burst
            }
        };
        let grant = self.port.acquire(now.raw(), latency.raw());
        let start = Cycles(grant.start);
        match outcome {
            RowOutcome::Hit => {}
            RowOutcome::Miss => {
                self.open_row = Some(row);
                self.activated_at = start;
            }
            RowOutcome::Conflict => {
                self.open_row = Some(row);
                self.activated_at = start + t_rp;
            }
        }
        (outcome, grant)
    }

    /// Closes the open row (e.g. for a refresh) and marks the bank busy
    /// until `until`.
    pub fn force_busy(&mut self, until: Cycles) {
        self.open_row = None;
        self.port.block_until(until.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CL: Cycles = Cycles(43);
    const RCD: Cycles = Cycles(43);
    const RP: Cycles = Cycles(43);
    const RAS: Cycles = Cycles(96);
    const BURST: Cycles = Cycles(10);

    fn go(bank: &mut Bank, row: u64, now: u64) -> (RowOutcome, Grant) {
        bank.access(row, Cycles(now), CL, RCD, RP, RAS, BURST)
    }

    #[test]
    fn first_access_is_miss() {
        let mut b = Bank::new();
        let (o, g) = go(&mut b, 5, 0);
        assert_eq!(o, RowOutcome::Miss);
        assert_eq!(g.start, 0);
        assert_eq!(g.complete_at, (RCD + CL + BURST).raw());
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn same_row_hits() {
        let mut b = Bank::new();
        let (_, g1) = go(&mut b, 5, 0);
        let (o, g2) = go(&mut b, 5, g1.complete_at);
        assert_eq!(o, RowOutcome::Hit);
        assert_eq!(g2.complete_at - g1.complete_at, (CL + BURST).raw());
    }

    #[test]
    fn different_row_conflicts_and_respects_tras() {
        let mut b = Bank::new();
        go(&mut b, 5, 0); // activated at 0
        let (o, g) = go(&mut b, 9, 0);
        assert_eq!(o, RowOutcome::Conflict);
        // Cannot precharge before tRAS after activation (0 + 96).
        assert!(g.start >= RAS.raw());
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn busy_bank_queues_requests() {
        let mut b = Bank::new();
        let (_, g1) = go(&mut b, 1, 0);
        // Request arrives while the first is in flight.
        let (_, g2) = go(&mut b, 1, 1);
        assert_eq!(
            g2.start, g1.complete_at,
            "second request waits for the bank"
        );
        assert_eq!(g2.queued, g1.complete_at - 1, "wait is charged as queueing");
        assert_eq!(b.busy_until(), Cycles(g2.complete_at));
    }

    #[test]
    fn force_busy_closes_row() {
        let mut b = Bank::new();
        go(&mut b, 1, 0);
        b.force_busy(Cycles(10_000));
        assert_eq!(b.open_row(), None);
        assert_eq!(b.busy_until(), Cycles(10_000));
        let (o, g) = go(&mut b, 1, 0);
        assert_eq!(o, RowOutcome::Miss);
        assert_eq!(g.start, 10_000);
    }
}
