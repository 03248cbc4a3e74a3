//! Median-of-batches micro-benchmark timing, used only by the `perf`
//! bin to produce the `BENCH_ecc.json` rows.
//!
//! Each [`Bencher::iter`] call runs a warm-up pass and then five
//! independently timed batches, reporting the **median** ns/iteration
//! across batches (the median discards one-off scheduling hiccups that
//! would skew a single-batch mean). Every completed benchmark is
//! recorded on the [`MicroBench`] as a [`Measurement`]; the caller
//! drains them with [`MicroBench::take_measurements`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of independently timed batches whose median is reported.
const BATCHES: usize = 5;

/// Upper bound on warm-up iterations (the warm-up also stops after 2 ms).
const WARMUP_ITERS: usize = 50;

/// One finished benchmark: its name and the median nanoseconds per
/// iteration over the timed batches.
#[derive(Debug)]
pub struct Measurement {
    /// Benchmark id.
    pub name: String,
    /// Median ns per iteration across the timed batches.
    pub median_ns_per_iter: f64,
}

/// Runs benchmarks and records their measurements in execution order.
#[derive(Debug)]
pub struct MicroBench {
    /// Total timed-batch budget per benchmark.
    budget_nanos: u64,
    measurements: Vec<Measurement>,
}

impl MicroBench {
    /// A driver spending `budget` in timed batches per benchmark.
    /// Smaller budgets trade precision for speed (`perf smoke` uses 1 ms).
    pub fn new(budget: Duration) -> MicroBench {
        MicroBench {
            budget_nanos: (budget.as_nanos() as u64).max(1),
            measurements: Vec::new(),
        }
    }

    /// Runs one benchmark: `f` receives the [`Bencher`] and calls
    /// [`Bencher::iter`] on the routine to time.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce(&mut Bencher),
    {
        let mut b = Bencher {
            budget_nanos: self.budget_nanos,
            last_ns_per_iter: 0.0,
        };
        f(&mut b);
        self.measurements.push(Measurement {
            name: name.to_string(),
            median_ns_per_iter: b.last_ns_per_iter,
        });
    }

    /// Drains and returns every measurement recorded so far, in
    /// execution order.
    pub fn take_measurements(&mut self) -> Vec<Measurement> {
        std::mem::take(&mut self.measurements)
    }
}

/// The per-benchmark timing handle.
#[derive(Debug)]
pub struct Bencher {
    /// Total nanoseconds to spend across all timed batches.
    budget_nanos: u64,
    /// Median nanoseconds per iteration of the last `iter` call.
    last_ns_per_iter: f64,
}

impl Bencher {
    /// Times repeated calls of `routine`: a warm-up pass, then five
    /// equally sized timed batches. Records the median batch's
    /// ns/iteration, which is robust to a single batch being
    /// descheduled or absorbing a lazy-init cost.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: run until ~2ms or `WARMUP_ITERS` iterations.
        let warm_start = Instant::now();
        let mut warm_iters = 0usize;
        while warm_iters < WARMUP_ITERS && warm_start.elapsed() < Duration::from_millis(2) {
            black_box(routine());
            warm_iters += 1;
        }
        // Probe once to size the batches.
        let probe = Instant::now();
        black_box(routine());
        let per = probe.elapsed().as_nanos().max(1) as u64;
        let per_batch_budget = (self.budget_nanos / BATCHES as u64).max(1);
        let iters = ((per_batch_budget / per) as usize).clamp(1, 1_000_000);
        let mut batch_ns: [f64; BATCHES] = [0.0; BATCHES];
        for slot in &mut batch_ns {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            *slot = start.elapsed().as_nanos() as f64 / iters as f64;
        }
        batch_ns.sort_by(|a, b| a.total_cmp(b));
        self.last_ns_per_iter = batch_ns[BATCHES / 2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_reports_positive_time() {
        let mut c = MicroBench::new(Duration::from_millis(2));
        c.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let ms = c.take_measurements();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "spin");
        assert!(ms[0].median_ns_per_iter > 0.0);
    }

    #[test]
    fn take_measurements_drains() {
        let mut c = MicroBench::new(Duration::from_millis(1));
        c.bench_function("a", |b| b.iter(|| 1u64 + 1));
        assert_eq!(c.take_measurements().len(), 1);
        assert!(c.take_measurements().is_empty());
    }

    #[test]
    fn measurement_ordering_is_execution_order() {
        let mut c = MicroBench::new(Duration::from_millis(1));
        c.bench_function("first", |b| b.iter(|| 1u64 + 1));
        c.bench_function("second", |b| b.iter(|| 2u64 + 2));
        let names: Vec<_> = c.take_measurements().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["first", "second"]);
    }
}
