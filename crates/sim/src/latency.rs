//! Structured latency accounting: where did the cycles go?
//!
//! The paper's performance story (Fig. 6–8, the Fig. 10 link sweep) is
//! an attribution claim — local replica reads spend their cycles in
//! different places than remote home accesses. A single end-to-end
//! cycle count cannot check that claim; a [`LatencyBreakdown`] can.
//! Every timed layer charges its cycles to a named [`Component`], and a
//! conservation invariant (the components sum to the end-to-end
//! latency) is enforced *by construction* through the [`Stamp`] type:
//! the only way to advance a stamp's clock is to attribute the cycles.
//!
//! # Composition rules
//!
//! * **Sequential** composition is [`Stamp::advance`]: charge `n`
//!   cycles to a component, the clock moves by `n`.
//! * **Fan-out/max** composition (a write waiting on the later of its
//!   data fetch and its invalidation acks) is [`Stamp::max`]: the later
//!   stamp wins *wholly*, so the breakdown always describes the
//!   critical path, never a double-counted union.
//!
//! Both preserve the invariant `at == origin + parts.total()`, which is
//! `debug_assert`ed at every step and property-tested end-to-end in the
//! conformance crate.

/// A named latency component: the layer a cycle is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// On-chip mesh hops (core → LLC slice, LLC → directory tile).
    Mesh,
    /// Inter-socket link serialization + propagation.
    Link,
    /// Cycles queued behind a busy DRAM bank (or tRAS window).
    BankQueue,
    /// DRAM bank service time (tRCD/tCL/tRP/burst as applicable).
    BankService,
    /// Everything the protocol itself charges: L1/LLC/directory
    /// lookups, forward hops inside a socket, ECC decode penalties.
    Protocol,
    /// Cycles spent on the §V-B2 recovery detour after a detected
    /// DRAM error: the remote-replica fetch across the inter-socket
    /// link, the repair write-back and the re-read. Only the timed
    /// fault-injection path (the chaos layer) ever charges this
    /// component; fault-free runs keep it at exactly zero.
    Recovery,
}

impl Component {
    /// All components, in display order.
    pub const ALL: [Component; 6] = [
        Component::Mesh,
        Component::Link,
        Component::BankQueue,
        Component::BankService,
        Component::Protocol,
        Component::Recovery,
    ];

    /// Short stable label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Component::Mesh => "mesh",
            Component::Link => "link",
            Component::BankQueue => "bank_queue",
            Component::BankService => "bank_service",
            Component::Protocol => "protocol",
            Component::Recovery => "recovery",
        }
    }
}

/// Per-component cycle totals. The additive half of the timing model:
/// [`LatencyBreakdown::total`] of an access equals its end-to-end
/// latency (the conservation invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// On-chip mesh hop cycles.
    pub mesh: u64,
    /// Inter-socket link cycles (serialization + propagation + queue).
    pub link: u64,
    /// Cycles queued behind busy DRAM banks.
    pub bank_queue: u64,
    /// DRAM bank service cycles.
    pub bank_service: u64,
    /// Protocol-layer cycles (cache lookups, directory, forwards, ECC).
    pub protocol: u64,
    /// Recovery-detour cycles (remote-replica fetch, repair, re-read).
    pub recovery: u64,
}

impl LatencyBreakdown {
    /// Sum of every component.
    pub fn total(&self) -> u64 {
        self.mesh + self.link + self.bank_queue + self.bank_service + self.protocol + self.recovery
    }

    /// The cycles charged to `c`.
    pub fn get(&self, c: Component) -> u64 {
        match c {
            Component::Mesh => self.mesh,
            Component::Link => self.link,
            Component::BankQueue => self.bank_queue,
            Component::BankService => self.bank_service,
            Component::Protocol => self.protocol,
            Component::Recovery => self.recovery,
        }
    }

    /// Charges `cycles` to component `c`.
    pub fn add(&mut self, c: Component, cycles: u64) {
        match c {
            Component::Mesh => self.mesh += cycles,
            Component::Link => self.link += cycles,
            Component::BankQueue => self.bank_queue += cycles,
            Component::BankService => self.bank_service += cycles,
            Component::Protocol => self.protocol += cycles,
            Component::Recovery => self.recovery += cycles,
        }
    }

    /// Component-wise sum (accumulating per-access breakdowns into a
    /// run total).
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.mesh += other.mesh;
        self.link += other.link;
        self.bank_queue += other.bank_queue;
        self.bank_service += other.bank_service;
        self.protocol += other.protocol;
        self.recovery += other.recovery;
    }

    /// Component-wise `self - earlier` for interval/epoch deltas.
    ///
    /// Debug-asserts monotonicity (cumulative counters never shrink),
    /// matching the PR 3 stats convention.
    pub fn delta_since(&self, earlier: &LatencyBreakdown) -> LatencyBreakdown {
        for c in Component::ALL {
            debug_assert!(
                self.get(c) >= earlier.get(c),
                "latency counter {} went backwards: {} -> {}",
                c.label(),
                earlier.get(c),
                self.get(c)
            );
        }
        LatencyBreakdown {
            mesh: self.mesh - earlier.mesh,
            link: self.link - earlier.link,
            bank_queue: self.bank_queue - earlier.bank_queue,
            bank_service: self.bank_service - earlier.bank_service,
            protocol: self.protocol - earlier.protocol,
            recovery: self.recovery - earlier.recovery,
        }
    }

    /// Fraction of the total charged to `c` (0.0 when empty).
    pub fn fraction(&self, c: Component) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(c) as f64 / total as f64
        }
    }
}

/// Per-op latency distributions: one [`LogHistogram`] for the
/// end-to-end latency plus one per [`Component`].
///
/// [`LatencyBreakdown`] answers "where did the cycles go in aggregate";
/// `LatencyHists` answers the serving question — "what did the p99 op
/// pay, and to which layer". Every completed memory operation records
/// its breakdown once (zeros included, so per-component counts equal
/// the op count), which gives two invariants for free:
///
/// * each component histogram's [`LogHistogram::sum`](crate::stats::LogHistogram::sum) equals the
///   cycles the aggregate breakdown charged to that component, and
/// * every histogram's count equals the number of recorded ops.
///
/// [`LatencyHists::conserves`] checks the first against an aggregate
/// snapshot; the service telemetry gates on it per scrape.
///
/// [`LogHistogram`]: crate::stats::LogHistogram
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHists {
    /// End-to-end per-op latency (sum of all components).
    pub total: crate::stats::LogHistogram,
    /// Per-component distributions, indexed like [`Component::ALL`].
    per: [crate::stats::LogHistogram; 6],
}

impl LatencyHists {
    /// Creates an empty set of histograms.
    pub fn new() -> LatencyHists {
        LatencyHists::default()
    }

    /// Records one completed op's breakdown (every component, zeros
    /// included).
    pub fn record(&mut self, b: &LatencyBreakdown) {
        self.total.record(b.total());
        for (h, c) in self.per.iter_mut().zip(Component::ALL) {
            h.record(b.get(c));
        }
    }

    /// The distribution of one component's per-op latency.
    pub fn component(&self, c: Component) -> &crate::stats::LogHistogram {
        let idx = Component::ALL
            .iter()
            .position(|&x| x == c)
            .expect("component in ALL");
        &self.per[idx]
    }

    /// Number of recorded ops.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Adds every op of `other` into `self` (epoch aggregation).
    pub fn merge(&mut self, other: &LatencyHists) {
        self.total.merge(&other.total);
        for (a, b) in self.per.iter_mut().zip(&other.per) {
            a.merge(b);
        }
    }

    /// Sum-conservation against an aggregate breakdown over the same
    /// ops: per component, the histogram's exact sum must equal the
    /// cycles the aggregate charged to that component.
    pub fn conserves(&self, aggregate: &LatencyBreakdown) -> bool {
        self.total.sum() == aggregate.total() as u128
            && Component::ALL
                .iter()
                .all(|&c| self.component(c).sum() == aggregate.get(c) as u128)
    }
}

/// A point in time that remembers where its cycles came from.
///
/// A `Stamp` starts at some `origin` and can only move forward by
/// attributing cycles to a [`Component`], so the invariant
///
/// ```text
/// at() == origin() + breakdown().total()
/// ```
///
/// holds by construction: conservation is not something the timing code
/// has to remember, it is the only thing the API permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    at: u64,
    origin: u64,
    parts: LatencyBreakdown,
}

impl Stamp {
    /// A fresh stamp at `now` with an empty breakdown.
    pub fn start(now: u64) -> Stamp {
        Stamp {
            at: now,
            origin: now,
            parts: LatencyBreakdown::default(),
        }
    }

    /// The current time of this stamp.
    pub fn at(&self) -> u64 {
        self.at
    }

    /// The time the stamp started at.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// The attributed cycles so far.
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.parts
    }

    /// Total elapsed cycles (`at - origin`), always equal to
    /// `breakdown().total()`.
    pub fn elapsed(&self) -> u64 {
        self.check();
        self.at - self.origin
    }

    /// Advances the clock by `cycles`, charging them to `c`.
    pub fn advance(self, c: Component, cycles: u64) -> Stamp {
        let mut s = self;
        s.at += cycles;
        s.parts.add(c, cycles);
        s.check();
        s
    }

    /// Fan-out/max composition: the later stamp wins wholly, so the
    /// result describes the critical path. Ties resolve to `self`
    /// (deterministic). Both stamps must share an origin — `max` over
    /// stamps from different forks of the *same* request is the only
    /// meaningful use.
    pub fn max(self, other: Stamp) -> Stamp {
        debug_assert_eq!(
            self.origin, other.origin,
            "Stamp::max across different origins loses conservation"
        );
        if other.at > self.at {
            other
        } else {
            self
        }
    }

    fn check(&self) {
        debug_assert_eq!(
            self.at,
            self.origin + self.parts.total(),
            "latency conservation violated: at={} origin={} parts={:?}",
            self.at,
            self.origin,
            self.parts
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_accessors() {
        let mut b = LatencyBreakdown::default();
        assert_eq!(b.total(), 0);
        b.add(Component::Mesh, 4);
        b.add(Component::Link, 150);
        b.add(Component::BankQueue, 7);
        b.add(Component::BankService, 36);
        b.add(Component::Protocol, 21);
        b.add(Component::Recovery, 190);
        assert_eq!(b.total(), 4 + 150 + 7 + 36 + 21 + 190);
        for c in Component::ALL {
            assert!(b.get(c) > 0, "{} not set", c.label());
        }
        assert!((b.fraction(Component::Link) - 150.0 / b.total() as f64).abs() < 1e-12);
    }

    #[test]
    fn merge_and_delta_roundtrip() {
        let mut a = LatencyBreakdown::default();
        a.add(Component::Mesh, 3);
        a.add(Component::Protocol, 9);
        let mut run = a;
        let mut b = LatencyBreakdown::default();
        b.add(Component::Link, 5);
        b.add(Component::Mesh, 1);
        run.merge(&b);
        assert_eq!(run.total(), a.total() + b.total());
        assert_eq!(run.delta_since(&a), b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "went backwards")]
    fn delta_guards_monotonicity() {
        let mut a = LatencyBreakdown::default();
        a.add(Component::Mesh, 3);
        LatencyBreakdown::default().delta_since(&a);
    }

    #[test]
    fn latency_hists_record_merge_conserve() {
        let mut agg = LatencyBreakdown::default();
        let mut hists = LatencyHists::new();
        let ops = [
            Stamp::start(0)
                .advance(Component::Protocol, 3)
                .advance(Component::Mesh, 4),
            Stamp::start(10)
                .advance(Component::Link, 150)
                .advance(Component::BankService, 36),
            Stamp::start(99).advance(Component::Recovery, 500),
        ];
        for s in &ops {
            hists.record(&s.breakdown());
            agg.merge(&s.breakdown());
        }
        assert_eq!(hists.count(), 3);
        assert!(hists.conserves(&agg));
        // Zeros are recorded, so per-component counts equal op count.
        for c in Component::ALL {
            assert_eq!(hists.component(c).count(), 3, "{}", c.label());
        }
        // A mismatched aggregate is caught.
        agg.add(Component::Mesh, 1);
        assert!(!hists.conserves(&agg));
        // Merge equals recording everything into one set.
        let mut a = LatencyHists::new();
        a.record(&ops[0].breakdown());
        let mut b = LatencyHists::new();
        b.record(&ops[1].breakdown());
        b.record(&ops[2].breakdown());
        a.merge(&b);
        assert_eq!(a, hists);
    }

    #[test]
    fn stamp_conserves_by_construction() {
        let s = Stamp::start(100)
            .advance(Component::Protocol, 1)
            .advance(Component::Mesh, 2)
            .advance(Component::Link, 150)
            .advance(Component::BankService, 36);
        assert_eq!(s.origin(), 100);
        assert_eq!(s.at(), 100 + 1 + 2 + 150 + 36);
        assert_eq!(s.elapsed(), s.breakdown().total());
    }

    #[test]
    fn max_picks_critical_path_wholly() {
        let base = Stamp::start(10).advance(Component::Protocol, 1);
        let data = base.advance(Component::Link, 150);
        let acks = base.advance(Component::Mesh, 4);
        let joined = data.max(acks);
        assert_eq!(joined, data, "later fork wins");
        assert_eq!(
            joined.breakdown().mesh,
            0,
            "loser's cycles are not unioned in"
        );
        // Ties resolve to self.
        let tie_a = base.advance(Component::Link, 7);
        let tie_b = base.advance(Component::Mesh, 7);
        assert_eq!(tie_a.max(tie_b), tie_a);
        assert_eq!(tie_b.max(tie_a), tie_b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different origins")]
    fn max_rejects_mismatched_origins() {
        let _ = Stamp::start(0).max(Stamp::start(1));
    }

    #[test]
    fn fraction_of_empty_is_zero() {
        let b = LatencyBreakdown::default();
        assert_eq!(b.fraction(Component::Mesh), 0.0);
    }
}
