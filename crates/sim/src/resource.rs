//! A reusable occupancy port: the contention model the finite timed
//! substrates share.
//!
//! A [`Resource`] is a deterministic, cloneable set of `ways` service
//! slots. A request arriving while every slot is busy queues behind
//! the earliest-freeing one; `ways = 1` is a fully serialized port (a
//! DRAM bank, an MSHR file with one entry). The port keeps occupancy
//! only: it counts nothing, and each caller reads what it needs off the
//! returned [`Grant`] (the DRAM controller sums `queued` into its
//! queue-delay statistic). The inter-socket link never queues, so it
//! charges its wire time without a port (`dve_noc::link::LinkTable`).
//!
//! # Example
//!
//! ```
//! use dve_sim::resource::Resource;
//!
//! let mut bank = Resource::new(1);
//! let a = bank.acquire(0, 100);
//! assert_eq!((a.start, a.complete_at, a.queued), (0, 100, 0));
//! // Arrives at 40, but the port is busy until 100: queues 60 cycles.
//! let b = bank.acquire(40, 100);
//! assert_eq!((b.start, b.complete_at, b.queued), (100, 200, 60));
//! assert_eq!(bank.drained_at(), 200);
//! ```

/// One admitted request: when it started service, when it completes,
/// and how long it queued first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Time service began (`>=` the requested time).
    pub start: u64,
    /// Time service completes (`start + service`).
    pub complete_at: u64,
    /// Cycles spent waiting for a free slot (`start - now`).
    pub queued: u64,
    /// Service time charged.
    pub service: u64,
}

/// A deterministic, cloneable occupancy port. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// When each slot next frees.
    slots: Vec<u64>,
}

impl Resource {
    /// A port with `ways` parallel service slots.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> Resource {
        assert!(ways > 0, "a resource needs at least one way");
        Resource {
            slots: vec![0; ways],
        }
    }

    /// Admits a request arriving at `now` needing `service` cycles.
    pub fn acquire(&mut self, now: u64, service: u64) -> Grant {
        self.issue(now, service).0
    }

    /// Admits a request like [`Resource::acquire`] and also returns
    /// [`Resource::earliest_available`] after the booking, from the
    /// same slot scan: it finds the earliest- and second-earliest-free
    /// slots (ties: lowest index, so admission order is deterministic),
    /// books the first, and the port next frees at the earlier of the
    /// booked slot's end and the second.
    pub fn issue(&mut self, now: u64, service: u64) -> (Grant, u64) {
        let slots = &mut self.slots;
        let (mut best, mut first, mut second) = (0, slots[0], u64::MAX);
        for (i, &free) in slots.iter().enumerate().skip(1) {
            if free < first {
                (best, first, second) = (i, free, first);
            } else if free < second {
                second = free;
            }
        }
        let start = now.max(first);
        let complete_at = start + service;
        slots[best] = complete_at;
        let grant = Grant {
            start,
            complete_at,
            queued: start - now,
            service,
        };
        (grant, second.min(complete_at))
    }

    /// Forces every slot busy until at least `until` (e.g. an all-bank
    /// refresh window).
    pub fn block_until(&mut self, until: u64) {
        for s in &mut self.slots {
            *s = (*s).max(until);
        }
    }

    /// Earliest time at which *some* slot is free (0 for an idle port).
    pub fn earliest_available(&self) -> u64 {
        self.slots.iter().copied().min().unwrap_or(0)
    }

    /// Time by which *every* slot has drained (all outstanding service
    /// complete).
    pub fn drained_at(&self) -> u64 {
        self.slots.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialized_port_queues_fifo() {
        let mut r = Resource::new(1);
        let a = r.acquire(0, 10);
        let b = r.acquire(0, 10);
        let c = r.acquire(5, 10);
        assert_eq!(a.complete_at, 10);
        assert_eq!((b.start, b.queued), (10, 10));
        assert_eq!((c.start, c.queued, c.complete_at), (20, 15, 30));
        assert_eq!(r.drained_at(), 30);
    }

    #[test]
    fn multi_way_port_overlaps_up_to_ways() {
        let mut r = Resource::new(2);
        let a = r.acquire(0, 10);
        let b = r.acquire(0, 10);
        let c = r.acquire(0, 10);
        assert_eq!(a.queued, 0);
        assert_eq!(b.queued, 0, "second way admits in parallel");
        assert_eq!(c.start, 10, "third request queues behind a way");
    }

    #[test]
    fn block_until_behaves_like_refresh() {
        let mut r = Resource::new(1);
        r.block_until(1000);
        let g = r.acquire(10, 5);
        assert_eq!(g.start, 1000);
        assert_eq!(g.queued, 990);
        // block_until never shortens existing occupancy.
        r.block_until(500);
        assert_eq!(r.earliest_available(), 1005);
    }

    #[test]
    fn availability_probes() {
        let mut r = Resource::new(2);
        r.acquire(0, 10);
        assert_eq!(r.earliest_available(), 0, "second way still free");
        r.acquire(0, 20);
        assert_eq!(r.earliest_available(), 10);
        assert_eq!(r.drained_at(), 20);
    }

    #[test]
    fn deterministic_and_cloneable() {
        let mut a = Resource::new(3);
        for i in 0..20 {
            a.acquire(i * 3, 11);
        }
        let mut b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.acquire(100, 7), b.acquire(100, 7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        Resource::new(0);
    }
}
