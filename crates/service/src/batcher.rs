//! Epoch batching with bounded admission.
//!
//! The batcher is the single admission point between the concurrent
//! session front end and the deterministic epoch runner. Two
//! properties are load-bearing and proptested
//! (`tests/proptests.rs`):
//!
//! 1. **Canonical epochs.** An epoch's contents are a pure function of
//!    the *set* of admitted ops, not of their arrival interleaving:
//!    pending ops are ordered by `(client, seq)` before an epoch is
//!    cut. Two runs that admit the same ops in any thread schedule
//!    execute identical epochs — which keeps the live service
//!    replayable even though its ingress is racy.
//! 2. **Every op comes back exactly once.** The pending buffer is
//!    bounded by `queue_cap`; a submit against a full buffer either
//!    refuses the incoming op or — when the incoming op outranks
//!    pending work — evicts one lowest-priority pending op in its
//!    favor. Both paths hand the shed op back to the caller, so every
//!    submitted op is returned once, as shed or in a cut epoch, or is
//!    still pending. Nothing is silently dropped. The batcher counts
//!    nothing itself: the epoch loop's `Telemetry` counts submitted,
//!    admitted and shed ops, and `ServiceReport::conserves` checks
//!    `admitted + shed == submitted`.
//!
//! Priority-aware shedding makes overload a *tenant* policy: the
//! service runner stamps each op with its tenant's priority, so when
//! the buffer saturates, low-priority tenants absorb the shed first
//! and high-priority tenants keep their SLO.

use dve_workloads::op::MemReq;

/// One client operation as submitted to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmittedOp {
    /// Session id (assigned at registration; unique per session).
    pub client: u64,
    /// Client-chosen sequence number; echoed in the completion so the
    /// client can match responses, and used (with `client`) for the
    /// canonical epoch order. Sessions should use distinct seqs.
    pub seq: u64,
    /// Global line address to access.
    pub line: u64,
    /// Read or write.
    pub req: MemReq,
    /// Shed priority (higher survives overload longer). Stamped by the
    /// service runner from the tenant mix; sessions submit 0.
    pub priority: u8,
}

/// What [`EpochBatcher::submit`] did with an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted into the pending buffer.
    Admitted,
    /// Refused: the buffer is full and nothing pending ranks below the
    /// incoming op.
    Shed,
    /// Admitted by evicting the returned lower-priority pending op,
    /// which is now shed (the caller owes its client a shed
    /// completion).
    AdmittedEvicting(SubmittedOp),
}

impl SubmitOutcome {
    /// Whether the submitted op itself entered the buffer.
    pub fn admitted(&self) -> bool {
        !matches!(self, SubmitOutcome::Shed)
    }
}

/// Bounded ingress buffer that cuts fixed-size epochs in canonical
/// order. Single-threaded by design — the epoch runner owns it and
/// drains session channels into it.
#[derive(Debug)]
pub struct EpochBatcher {
    pending: Vec<SubmittedOp>,
    queue_cap: usize,
    epoch_ops: usize,
}

impl EpochBatcher {
    /// `queue_cap` bounds the pending buffer; `epoch_ops` is the epoch
    /// size. Requires `queue_cap >= epoch_ops >= 1` so a full epoch
    /// can always form.
    pub fn new(queue_cap: usize, epoch_ops: usize) -> EpochBatcher {
        assert!(epoch_ops >= 1 && queue_cap >= epoch_ops);
        EpochBatcher {
            pending: Vec::with_capacity(queue_cap.min(1 << 16)),
            queue_cap,
            epoch_ops,
        }
    }

    /// Offers one op. With free capacity the op is admitted. At
    /// capacity, the op is shed — unless some pending op has strictly
    /// lower priority, in which case the lowest-priority pending op
    /// (latest in `(client, seq)` order among equals, so earlier work
    /// survives) is evicted in the incoming op's favor and returned
    /// for a shed completion.
    pub fn submit(&mut self, op: SubmittedOp) -> SubmitOutcome {
        if self.pending.len() < self.queue_cap {
            self.pending.push(op);
            return SubmitOutcome::Admitted;
        }
        // Full: find the weakest pending op. The scan key is
        // arrival-order independent, so eviction choices are as
        // canonical as the epochs themselves.
        let victim = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.priority, std::cmp::Reverse((p.client, p.seq))))
            .map(|(i, p)| (i, p.priority));
        match victim {
            Some((i, vp)) if vp < op.priority => {
                let evicted = self.pending.swap_remove(i);
                self.pending.push(op);
                SubmitOutcome::AdmittedEvicting(evicted)
            }
            _ => SubmitOutcome::Shed,
        }
    }

    /// Whether a full epoch's worth of ops is pending.
    pub fn epoch_ready(&self) -> bool {
        self.pending.len() >= self.epoch_ops
    }

    /// Number of ops currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cuts the next epoch: sorts pending ops into the canonical
    /// `(client, seq)` order and drains up to `epoch_ops` of them.
    /// Returns an empty vec when nothing is pending.
    pub fn take_epoch(&mut self) -> Vec<SubmittedOp> {
        // Sorting the whole buffer (not just the drained prefix) keeps
        // the leftover suffix canonical too, so the *next* epoch is
        // also interleaving-independent. The sort is stable but the
        // key is total for well-behaved clients (distinct seqs), so
        // ties cannot reorder observable results.
        self.pending.sort_by_key(|op| (op.client, op.seq));
        let n = self.pending.len().min(self.epoch_ops);
        self.pending.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(client: u64, seq: u64) -> SubmittedOp {
        SubmittedOp {
            client,
            seq,
            line: client * 1000 + seq,
            req: MemReq::Read,
            priority: 0,
        }
    }

    fn prio(client: u64, seq: u64, priority: u8) -> SubmittedOp {
        SubmittedOp {
            priority,
            ..op(client, seq)
        }
    }

    #[test]
    fn epochs_are_canonical_regardless_of_arrival_order() {
        let mut a = EpochBatcher::new(64, 4);
        let mut b = EpochBatcher::new(64, 4);
        let ops = [op(2, 0), op(1, 1), op(1, 0), op(2, 1), op(1, 2)];
        for o in ops {
            assert!(a.submit(o).admitted());
        }
        for o in ops.iter().rev() {
            assert!(b.submit(*o).admitted());
        }
        let ea = a.take_epoch();
        assert_eq!(ea, b.take_epoch());
        assert_eq!(ea, vec![op(1, 0), op(1, 1), op(1, 2), op(2, 0)]);
        // The leftover suffix drains canonically too.
        assert_eq!(a.take_epoch(), vec![op(2, 1)]);
        assert_eq!(a.take_epoch(), Vec::new());
    }

    #[test]
    fn sheds_exactly_past_capacity() {
        let mut b = EpochBatcher::new(3, 2);
        let mut refused = 0;
        for seq in 0..10 {
            match b.submit(op(1, seq)) {
                SubmitOutcome::Admitted => {}
                SubmitOutcome::Shed => refused += 1,
                SubmitOutcome::AdmittedEvicting(v) => panic!("equal priorities evicted {v:?}"),
            }
        }
        assert_eq!(b.pending_len(), 3);
        assert_eq!(refused, 7);
        // Draining an epoch frees capacity again.
        assert_eq!(b.take_epoch(), vec![op(1, 0), op(1, 1)]);
        assert!(b.submit(op(1, 10)).admitted());
        assert_eq!(b.pending_len(), 2);
    }

    #[test]
    fn high_priority_evicts_the_weakest_pending_op() {
        let mut b = EpochBatcher::new(2, 2);
        assert_eq!(b.submit(prio(1, 0, 0)), SubmitOutcome::Admitted);
        assert_eq!(b.submit(prio(2, 0, 1)), SubmitOutcome::Admitted);
        // Full. An equal-priority op is shed (no eviction among peers).
        assert_eq!(b.submit(prio(3, 0, 0)), SubmitOutcome::Shed);
        // A gold op evicts the priority-0 op, not the priority-1 one.
        let out = b.submit(prio(4, 0, 2));
        assert_eq!(out, SubmitOutcome::AdmittedEvicting(prio(1, 0, 0)));
        assert_eq!(b.pending_len(), 2, "the evicted op left the buffer");
        // The epoch holds exactly the survivors, in canonical order.
        assert_eq!(b.take_epoch(), vec![prio(2, 0, 1), prio(4, 0, 2)]);
    }

    #[test]
    fn eviction_prefers_latest_among_equal_priority() {
        let mut b = EpochBatcher::new(2, 2);
        assert!(b.submit(prio(1, 5, 0)).admitted());
        assert!(b.submit(prio(1, 9, 0)).admitted());
        // Among equal priorities the latest (client, seq) is evicted,
        // so earlier-queued work survives.
        assert_eq!(
            b.submit(prio(2, 0, 1)),
            SubmitOutcome::AdmittedEvicting(prio(1, 9, 0))
        );
    }
}
