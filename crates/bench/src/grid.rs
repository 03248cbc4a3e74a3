//! The simulation grid: every `System` run the `figures` bin (or the
//! `sweep` CSV) reads, requested up front, deduplicated, and simulated
//! once each on all workers.
//!
//! A [`Cell`] is one catalog workload under one [`SystemConfig`],
//! always seeded with [`workload_seed`]. Figures request the cells they
//! read, and many request the same ones (baseline NUMA at the default
//! link is read by seven sections). [`Grid::run`] simulates each
//! distinct cell once and returns the results in request order, so its
//! output is the same at every worker count.

use crate::{config, profile, workload_seed};
use dve::config::{Scheme, SystemConfig};
use dve::system::{RunResult, System};
use dve_workloads::catalog;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One simulation: a catalog workload under a full configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Catalog name of the workload.
    pub workload: &'static str,
    /// The configuration it runs under.
    pub cfg: SystemConfig,
}

impl Cell {
    /// Simulates the cell with its workload's [`workload_seed`].
    pub fn run(&self) -> RunResult {
        let p = profile(self.workload);
        System::new(self.cfg.clone(), &p, workload_seed(self.workload)).run()
    }
}

/// The cells requested so far, in request order; repeats allowed.
#[derive(Debug)]
pub struct Grid {
    ops: u64,
    cells: Vec<Cell>,
}

/// What [`Grid::run`] returns.
#[derive(Debug)]
pub struct GridRun {
    /// One result per request, in request order.
    pub results: Vec<RunResult>,
    /// Simulations actually run: the number of distinct cells.
    pub simulated: usize,
}

impl Grid {
    /// An empty grid whose cells measure `ops` memory operations per
    /// thread (see [`config`]).
    pub fn new(ops: u64) -> Grid {
        Grid {
            ops,
            cells: Vec::new(),
        }
    }

    /// Requests `workload` under `scheme` with `tweak` applied to its
    /// config, returning the request's index.
    pub fn cell(
        &mut self,
        workload: &'static str,
        scheme: Scheme,
        tweak: impl FnOnce(&mut SystemConfig),
    ) -> usize {
        let mut cfg = config(scheme, self.ops);
        tweak(&mut cfg);
        self.cells.push(Cell { workload, cfg });
        self.cells.len() - 1
    }

    /// Requests all 20 catalog workloads (paper order) under `scheme`
    /// with `tweak` applied to each, returning their request range.
    pub fn all(&mut self, scheme: Scheme, tweak: impl Fn(&mut SystemConfig)) -> Range<usize> {
        let start = self.cells.len();
        for p in catalog() {
            self.cell(p.name, scheme, &tweak);
        }
        start..self.cells.len()
    }

    /// Simulates every distinct cell once on `workers` threads (at
    /// least one), each claiming the next unrun cell from a shared
    /// cursor, and returns the results in request order.
    ///
    /// # Panics
    ///
    /// Panics if a simulation panics.
    pub fn run(&self, workers: usize) -> GridRun {
        // Cells are compared by value: a `Debug` rendering would not do,
        // because `ReplicationScope::Pages` holds a `HashSet`.
        let mut distinct: Vec<&Cell> = Vec::new();
        let slot: Vec<usize> = self
            .cells
            .iter()
            .map(|c| {
                distinct.iter().position(|&d| d == c).unwrap_or_else(|| {
                    distinct.push(c);
                    distinct.len() - 1
                })
            })
            .collect();

        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, RunResult)> = std::thread::scope(|s| {
            let claim = || {
                std::iter::repeat_with(|| cursor.fetch_add(1, Ordering::Relaxed))
                    .map_while(|i| Some((i, distinct.get(i)?.run())))
                    .collect::<Vec<_>>()
            };
            let handles: Vec<_> = (0..workers.max(1)).map(|_| s.spawn(claim)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("grid worker panicked"))
                .collect()
        });
        // Sorted by index, `done[d]` is distinct cell `d`'s result.
        done.sort_unstable_by_key(|&(i, _)| i);
        let results = slot.iter().map(|&d| done[d].1.clone()).collect();
        GridRun {
            results,
            simulated: done.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_sim::time::Nanos;

    /// Eight requests over four distinct cells: exact repeats, a tweak
    /// that leaves the config unchanged, and one that does not. Returns
    /// which distinct cell each request is.
    fn grid_with_repeats() -> (Grid, Vec<usize>) {
        let mut grid = Grid::new(200);
        let ns = |n| move |c: &mut SystemConfig| c.link_latency = Nanos(n);
        grid.cell("fft", Scheme::BaselineNuma, |_| {});
        grid.cell("backprop", Scheme::DveDeny, |_| {});
        grid.cell("fft", Scheme::BaselineNuma, |_| {});
        grid.cell("fft", Scheme::DveDeny, |_| {});
        grid.cell("backprop", Scheme::DveDeny, ns(50));
        grid.cell("backprop", Scheme::DveDeny, ns(30));
        grid.cell("fft", Scheme::BaselineNuma, |_| {});
        grid.cell("backprop", Scheme::DveDeny, ns(30));
        (grid, vec![0, 1, 0, 2, 1, 3, 0, 3])
    }

    /// The fields a figure reads, as comparable text.
    fn fingerprint(r: &RunResult) -> String {
        format!(
            "{} {:?} {} {} {:?} {:?} {:?} {}",
            r.workload,
            r.scheme,
            r.cycles,
            r.mem_ops,
            r.traffic,
            r.class_fractions,
            r.dram_rows,
            r.max_row_activations
        )
    }

    #[test]
    fn each_distinct_cell_runs_once_and_results_keep_request_order() {
        let (grid, class) = grid_with_repeats();
        let mut by_workers = Vec::new();
        for workers in [1, 2, 4] {
            let run = grid.run(workers);
            assert_eq!(run.simulated, 4, "workers = {workers}");
            assert_eq!(run.results.len(), grid.cells.len());
            for (r, cell) in run.results.iter().zip(&grid.cells) {
                assert_eq!(r.workload, cell.workload);
                assert_eq!(r.scheme, cell.cfg.scheme);
            }
            let prints: Vec<String> = run.results.iter().map(fingerprint).collect();
            for (i, &ci) in class.iter().enumerate() {
                for (j, &cj) in class.iter().enumerate() {
                    assert_eq!(ci == cj, prints[i] == prints[j], "requests {i}, {j}");
                }
            }
            by_workers.push(prints);
        }
        assert_eq!(by_workers[0], by_workers[1]);
        assert_eq!(by_workers[0], by_workers[2]);
    }

    #[test]
    fn a_cell_matches_a_direct_run() {
        let mut grid = Grid::new(200);
        grid.cell("nw", Scheme::DveAllow, |c| c.mshrs = 2);
        let via_grid = grid.run(1);
        let mut cfg = config(Scheme::DveAllow, 200);
        cfg.mshrs = 2;
        let direct = System::new(cfg, &profile("nw"), workload_seed("nw")).run();
        assert_eq!(fingerprint(&via_grid.results[0]), fingerprint(&direct));
    }

    #[test]
    fn an_empty_grid_runs_nothing() {
        let run = Grid::new(200).run(3);
        assert!(run.results.is_empty());
        assert_eq!(run.simulated, 0);
    }
}
