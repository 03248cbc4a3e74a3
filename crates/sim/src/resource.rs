//! A reusable occupancy port: the one contention model every timed
//! substrate shares.
//!
//! Before this module existed, three components hand-rolled their own
//! serialization/queueing arithmetic: the inter-socket link (manual
//! `bytes / bytes_per_cycle` serialization), the DRAM banks (a bare
//! `busy_until` timestamp), and the mesh (collapsed to a rounded mean).
//! The Ramulator 2.0 re-evaluation showed exactly this kind of ad-hoc
//! latency bookkeeping is where simulators silently diverge, so all of
//! them now sit on [`Resource`]: a deterministic, cloneable set of
//! service slots with uniform statistics (grants, busy cycles, queue
//! cycles) that any audit can read back.
//!
//! Two occupancy disciplines are supported:
//!
//! * **finite** (`ways = n`): `n` parallel service slots; a request
//!   arriving while every slot is busy queues behind the
//!   earliest-freeing one. `ways = 1` is a fully serialized port (a
//!   DRAM bank, an MSHR file with one entry).
//! * **pipelined** (unbounded ways): requests never queue — the port
//!   charges the service time but admits any number of overlapping
//!   requests. This models a deeply pipelined channel whose utilization
//!   is far below saturation (the paper's inter-socket link runs at
//!   <3% of a QPI-class 48 GB/s lane).
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
//! assert_eq!(bank.stats().queue_cycles, 60);
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

/// Aggregate port statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Requests admitted.
    pub grants: u64,
    /// Total service cycles charged (occupancy).
    pub busy_cycles: u64,
    /// Total cycles requests spent queued before service.
    pub queue_cycles: u64,
}

/// A deterministic, cloneable occupancy port. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// `Some(free_at)` per slot for finite ports; `None` = pipelined.
    slots: Option<Vec<u64>>,
    stats: ResourceStats,
}

impl Resource {
    /// A finite port with `ways` parallel service slots.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> Resource {
        assert!(ways > 0, "a resource needs at least one way");
        Resource {
            slots: Some(vec![0; ways]),
            stats: ResourceStats::default(),
        }
    }

    /// A pipelined port: service time is charged, occupancy is tracked,
    /// but requests never queue.
    pub fn pipelined() -> Resource {
        Resource {
            slots: None,
            stats: ResourceStats::default(),
        }
    }

    /// Number of parallel service slots (`None` for a pipelined port).
    pub fn ways(&self) -> Option<usize> {
        self.slots.as_ref().map(Vec::len)
    }

    /// Index of the slot that frees earliest (ties: lowest index, so
    /// admission order is deterministic).
    fn best_slot(slots: &[u64]) -> usize {
        let mut best = 0;
        for (i, &free) in slots.iter().enumerate().skip(1) {
            if free < slots[best] {
                best = i;
            }
        }
        best
    }

    /// The grant for a request arriving at `now` that starts service at
    /// `start`.
    fn grant(now: u64, start: u64, service: u64) -> Grant {
        Grant {
            start,
            complete_at: start + service,
            queued: start - now,
            service,
        }
    }

    /// Admits a request arriving at `now` needing `service` cycles.
    pub fn acquire(&mut self, now: u64, service: u64) -> Grant {
        self.issue(now, service).0
    }

    /// Admits a request like [`Resource::acquire`] and also returns
    /// [`Resource::earliest_available`] after the booking, from the
    /// same slot scan: it finds the earliest- and second-earliest-free
    /// slots (ties: lowest index), books the first, and the port next
    /// frees at the earlier of the booked slot's end and the second.
    pub fn issue(&mut self, now: u64, service: u64) -> (Grant, u64) {
        let (start, free_at) = match &mut self.slots {
            Some(slots) => {
                let (mut best, mut first, mut second) = (0, slots[0], u64::MAX);
                for (i, &free) in slots.iter().enumerate().skip(1) {
                    if free < first {
                        (best, first, second) = (i, free, first);
                    } else if free < second {
                        second = free;
                    }
                }
                let start = now.max(first);
                slots[best] = start + service;
                (start, second.min(start + service))
            }
            None => (now, 0),
        };
        let grant = Self::grant(now, start, service);
        self.stats.grants += 1;
        self.stats.busy_cycles += service;
        self.stats.queue_cycles += grant.queued;
        (grant, free_at)
    }

    /// The grant a request *would* receive, without admitting it or
    /// touching statistics (speculative costing).
    pub fn probe(&self, now: u64, service: u64) -> Grant {
        Self::grant(now, now.max(self.earliest_available()), service)
    }

    /// Forces every slot busy until at least `until` (e.g. an all-bank
    /// refresh window). No-op on a pipelined port.
    pub fn block_until(&mut self, until: u64) {
        if let Some(slots) = &mut self.slots {
            for s in slots {
                *s = (*s).max(until);
            }
        }
    }

    /// Earliest time at which *some* slot is free (0 for a pipelined
    /// port or an idle finite port).
    pub fn earliest_available(&self) -> u64 {
        match &self.slots {
            Some(slots) => slots[Self::best_slot(slots)],
            None => 0,
        }
    }

    /// Time by which *every* slot has drained (all outstanding service
    /// complete). 0 for a pipelined port.
    pub fn drained_at(&self) -> u64 {
        match &self.slots {
            Some(slots) => slots.iter().copied().max().unwrap_or(0),
            None => 0,
        }
    }

    /// Whether at least one slot is free at `now`.
    pub fn available(&self, now: u64) -> bool {
        self.earliest_available() <= now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// Resets the statistics (not the occupancy).
    pub fn reset_stats(&mut self) {
        self.stats = ResourceStats::default();
    }

    /// Mean occupancy over `elapsed` cycles (busy / (ways × elapsed)).
    /// Pipelined ports report busy / elapsed (can exceed 1.0).
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let ways = self.ways().unwrap_or(1) as f64;
        self.stats.busy_cycles as f64 / (ways * elapsed as f64)
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
        assert_eq!(r.stats().grants, 3);
        assert_eq!(r.stats().busy_cycles, 30);
        assert_eq!(r.stats().queue_cycles, 25);
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
    fn pipelined_port_never_queues() {
        let mut r = Resource::pipelined();
        for i in 0..100 {
            let g = r.acquire(7, 3 + i);
            assert_eq!(g.start, 7);
            assert_eq!(g.queued, 0);
        }
        assert_eq!(r.stats().queue_cycles, 0);
        assert_eq!(r.stats().grants, 100);
    }

    #[test]
    fn probe_matches_acquire_without_side_effects() {
        let mut r = Resource::new(1);
        r.acquire(0, 50);
        let p = r.probe(10, 5);
        let a = r.acquire(10, 5);
        assert_eq!(p, a);
        assert_eq!(r.stats().grants, 2);
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
        assert!(r.available(0), "second way still free");
        r.acquire(0, 20);
        assert!(!r.available(5));
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
    fn utilization_accounts_ways() {
        let mut r = Resource::new(2);
        r.acquire(0, 10);
        r.acquire(0, 10);
        assert!((r.utilization(10) - 1.0).abs() < 1e-12);
        assert!((r.utilization(20) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        Resource::new(0);
    }
}
