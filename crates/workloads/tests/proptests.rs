//! Property-based tests for trace synthesis.

use dve_workloads::op::{MemReq, Op};
use dve_workloads::{catalog, TraceGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Every generated address stays within the declared span, for every
    // profile.
    #[test]
    fn addresses_stay_in_span(profile_idx in 0usize..20, seed in any::<u64>()) {
        let p = &catalog()[profile_idx];
        let mut g = TraceGenerator::new(p, 8, seed);
        let span = g.span_lines();
        for t in 0..8 {
            for _ in 0..500 {
                if let Op::Mem { line, .. } = g.next_op(t) {
                    prop_assert!(line < span, "line {line} outside span {span}");
                }
            }
        }
    }

    // Trace generation is a pure function of (profile, threads, seed).
    #[test]
    fn generation_deterministic(profile_idx in 0usize..20, seed in any::<u64>()) {
        let p = &catalog()[profile_idx];
        let mut a = TraceGenerator::new(p, 4, seed);
        let mut b = TraceGenerator::new(p, 4, seed);
        for t in 0..4 {
            for _ in 0..200 {
                prop_assert_eq!(a.next_op(t), b.next_op(t));
            }
        }
    }

    // Writes only ever target writable regions (shared-rw / private-rw).
    #[test]
    fn writes_only_in_writable_regions(profile_idx in 0usize..20, seed in any::<u64>()) {
        let p = &catalog()[profile_idx];
        let threads = 4usize;
        let mut g = TraceGenerator::new(p, threads, seed);
        let l = g.layout();
        let shared_rw = (l.shared_ro, l.shared_ro + l.shared_rw);
        let priv_rw_base = l.shared_ro + l.shared_rw + threads as u64 * l.private_ro_per_thread;
        for t in 0..threads {
            for _ in 0..1000 {
                if let Op::Mem { line, req: MemReq::Write } = g.next_op(t) {
                    let in_shared_rw = line >= shared_rw.0 && line < shared_rw.1;
                    let in_priv_rw = line >= priv_rw_base;
                    prop_assert!(in_shared_rw || in_priv_rw, "write to read-only line {line}");
                }
            }
        }
    }
}
