//! Property-based tests for the interconnect models.

use dve_noc::link::LinkTable;
use dve_noc::mesh::Mesh;
use dve_noc::topology::{EdgeParams, Topology};
use dve_noc::traffic::{MessageClass, TrafficStats};
use dve_sim::time::{Cycles, Nanos};
use proptest::prelude::*;

proptest! {
    // Mesh shortest paths satisfy the metric axioms and match the
    // analytic Manhattan distance on a grid.
    #[test]
    fn mesh_distances_are_a_metric(w in 1usize..6, h in 1usize..6) {
        let m = Mesh::new(w, h);
        let n = m.nodes();
        for a in 0..n {
            prop_assert_eq!(m.hops(a, a), 0);
            for b in 0..n {
                prop_assert_eq!(m.hops(a, b), m.hops(b, a));
                let manhattan = ((a % w) as i64 - (b % w) as i64).unsigned_abs() as u32
                    + ((a / w) as i64 - (b / w) as i64).unsigned_abs() as u32;
                prop_assert_eq!(m.hops(a, b), manhattan);
                for c in 0..n {
                    prop_assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
                }
            }
        }
    }

    // Link latency is linear in message size and respects the propagation
    // floor; traffic accounting is exact. Two nodes: the paper's pair.
    #[test]
    fn link_latency_and_accounting(
        ns in 1u64..200,
        msgs in proptest::collection::vec((any::<bool>(), 1u64..512), 1..50),
    ) {
        let edge = EdgeParams { latency: Nanos(ns), ..EdgeParams::qpi() };
        let mut link = LinkTable::new(&Topology::symmetric(2, edge));
        let floor = link.latency(0, 1).raw();
        let mut wire = [0u64; 2];
        for (dir, bytes) in &msgs {
            let (from, to) = if *dir { (0, 1) } else { (1, 0) };
            let arrive = link.transfer(from, to, Cycles(1000), *bytes);
            prop_assert!(arrive.raw() >= 1000 + floor);
            prop_assert!(arrive.raw() <= 1000 + floor + bytes.div_ceil(16));
            wire[from] += arrive.raw() - 1000;
        }
        let (fwd, back) = (link.edge_counts(0, 1), link.edge_counts(1, 0));
        prop_assert_eq!(fwd.messages + back.messages, msgs.len() as u64);
        prop_assert_eq!([fwd.busy_cycles, back.busy_cycles], wire);
    }

    // Traffic stats: merge and saturating_sub are inverse-ish and totals
    // always equal the sum of class entries.
    #[test]
    fn traffic_algebra(counts in proptest::collection::vec(0u8..6, 0..100)) {
        let mut a = TrafficStats::new();
        for c in &counts {
            a.record(MessageClass::ALL[*c as usize]);
        }
        let mut doubled = a.clone();
        doubled.merge(&a);
        prop_assert_eq!(doubled.total_messages(), 2 * a.total_messages());
        let back = doubled.saturating_sub(&a);
        prop_assert_eq!(back.total_bytes(), a.total_bytes());
        let per_class: u64 = MessageClass::ALL.iter().map(|&c| a.messages(c)).sum();
        prop_assert_eq!(per_class, a.total_messages());
    }
}
