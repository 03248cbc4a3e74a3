//! Property-based tests for the simulation engine primitives.

use dve_sim::event::EventQueue;
use dve_sim::rng::SplitMix64;
use dve_sim::stats::{geomean, LogHistogram};
use dve_sim::time::{Cycles, Frequency, Nanos};
use proptest::prelude::*;

proptest! {
    // The event queue is a stable priority queue: pops come out in
    // non-decreasing time order, FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable_priority_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO within a timestamp violated");
            }
        }
    }

    // Histogram mean equals the exact mean; count and max are exact.
    #[test]
    fn histogram_summary_statistics_exact(samples in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let exact_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        prop_assert!((h.mean() - exact_mean).abs() < 1e-6);
        // Percentile upper bounds dominate the true percentiles.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let true_p50 = sorted[(sorted.len() - 1) / 2];
        prop_assert!(h.percentile(0.5) as f64 >= true_p50 as f64 * 0.99);
    }

    // geomean(k·xs) == k · geomean(xs) and lies within [min, max].
    #[test]
    fn geomean_homogeneous_and_bounded(
        xs in proptest::collection::vec(0.001f64..1000.0, 1..50),
        k in 0.01f64..100.0,
    ) {
        let g = geomean(&xs);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let gs = geomean(&scaled);
        prop_assert!((gs / g - k).abs() < 1e-9 * k);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= min * 0.999_999 && g <= max * 1.000_001);
    }

    // Frequency conversion: cycles_for never rounds down below the exact
    // value, and nanos_for inverts within one cycle.
    #[test]
    fn frequency_conversions_consistent(ghz in 0.1f64..10.0, ns in 0u64..1_000_000) {
        let f = Frequency::ghz(ghz);
        let cycles = f.cycles_for(Nanos(ns));
        let exact = ns as f64 * ghz;
        prop_assert!(cycles.raw() as f64 >= exact - 1e-6);
        prop_assert!(cycles.raw() as f64 <= exact + 1.0);
        let back = f.nanos_for(Cycles(cycles.raw()));
        prop_assert!(back >= ns as f64 - 1e-6);
    }

    // SplitMix64 bounded draws are in range and roughly uniform.
    #[test]
    fn rng_bounded_uniformity(seed in any::<u64>(), bound in 1u64..64) {
        let mut r = SplitMix64::new(seed);
        let mut counts = vec![0u64; bound as usize];
        let draws = 2000;
        for _ in 0..draws {
            let v = r.next_below(bound);
            prop_assert!(v < bound);
            counts[v as usize] += 1;
        }
        // No bucket wildly over-represented (6x expectation).
        let expected = draws as f64 / bound as f64;
        for c in counts {
            prop_assert!((c as f64) < expected * 6.0 + 10.0);
        }
    }
}
