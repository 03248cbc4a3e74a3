//! Shared harness code for the table and figure regenerators.
//!
//! `figures` renders every simulated paper figure (Fig. 1's performance
//! column, Figs. 6–10, §VII energy and the ablations) from one
//! deduplicated [`grid`] of runs, and `sweep` emits its CSV from
//! another; `table1` and `fig5` need no `System` run. This library holds the common
//! machinery: the grid, collecting speedups in the paper's MPKI order,
//! and rendering aligned text tables.
//!
//! Run lengths default to 30 000 measured memory operations per thread
//! (plus 10% warm-up) — far past the point where the *normalized*
//! metrics of the statistical workload clones stabilize. Set `DVE_OPS`
//! to override.
//!
//! The gate binaries (`chaos`, `topology`, `service`, `perf`,
//! `campaign`, `conformance`) report through [`gate`]; `perf` times its
//! micro-benchmarks with [`timing`].

use dve::config::{Scheme, SystemConfig};
use dve::metrics::GroupedSpeedups;
use dve::system::RunResult;
use dve_sim::rng::derive_seed;
use dve_workloads::{catalog, WorkloadProfile};

pub mod gate;
pub mod grid;
pub mod timing;

/// Default measured memory operations per thread.
pub const DEFAULT_OPS: u64 = 30_000;

/// The master experiment seed used by every harness (reproducibility).
/// Per-run child seeds come from [`workload_seed`], never from ad-hoc
/// arithmetic on this constant.
pub const SEED: u64 = 0xD0E5_2021;

/// Stream id reserved for bench-harness runs in
/// [`dve_sim::rng::derive_seed`].
pub const BENCH_STREAM: u64 = 0xBE;

/// Deterministic child seed for one workload's run, derived from the
/// master [`SEED`] via [`dve_sim::rng::derive_seed`] with the
/// workload's name as the index (stable across catalog reorderings).
pub fn workload_seed(name: &str) -> u64 {
    // FNV-1a folds the name into the index; derive_seed does the mixing.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(SEED, BENCH_STREAM, h)
}

/// Reads the per-thread op budget from `DVE_OPS`, defaulting to
/// [`DEFAULT_OPS`].
///
/// # Panics
///
/// Panics, naming the variable, if `DVE_OPS` is set but malformed.
pub fn ops_from_env() -> u64 {
    gate::env_u64("DVE_OPS", DEFAULT_OPS).unwrap_or_else(|e| panic!("{e}"))
}

/// The catalog workload called `name`.
///
/// # Panics
///
/// Panics if the catalog has no such workload.
pub fn profile(name: &str) -> WorkloadProfile {
    catalog()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no workload {name:?} in the catalog"))
}

/// The Table II configuration for `scheme`, measuring `ops` memory
/// operations per thread after `ops / 10` of warm-up.
pub fn config(scheme: Scheme, ops: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.ops_per_thread = ops;
    cfg.warmup_per_thread = ops / 10;
    cfg
}

/// Per-workload speedups of `variant` over `baseline`, in catalog order.
pub fn speedups(variant: &[RunResult], baseline: &[RunResult]) -> Vec<f64> {
    assert_eq!(variant.len(), baseline.len());
    variant
        .iter()
        .zip(baseline)
        .map(|(v, b)| v.speedup_over(b))
        .collect()
}

/// The paper's top-10 / top-15 / all-20 geomeans.
pub fn grouped(speedups: &[f64]) -> GroupedSpeedups {
    GroupedSpeedups::from_ordered(speedups)
}

/// Renders one row of an aligned table.
pub fn row(name: &str, cells: &[String]) -> String {
    let mut out = format!("{name:<16}");
    for c in cells {
        out.push_str(&format!("{c:>14}"));
    }
    out
}

/// Header + separator for an aligned table.
pub fn header(title: &str, cols: &[&str]) -> String {
    let mut out = format!("=== {title} ===\n");
    out.push_str(&row(
        "workload",
        &cols.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(16 + 14 * cols.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_end_to_end_matrix() {
        let mut grid = grid::Grid::new(300);
        let base = grid.all(Scheme::BaselineNuma, |_| {});
        let deny = grid.all(Scheme::DveDeny, |_| {});
        let run = grid.run(2);
        assert_eq!(run.simulated, 40);
        let s = speedups(&run.results[deny], &run.results[base]);
        assert_eq!(s.len(), 20);
        let g = grouped(&s);
        assert!(g.top10 > 0.3 && g.top10 < 10.0, "top10 = {}", g.top10);
    }

    #[test]
    fn table_rendering() {
        let h = header("Fig. X", &["a", "b"]);
        assert!(h.contains("Fig. X"));
        assert!(h.contains("workload"));
        let r = row("fft", &["1.00".into(), "2.00".into()]);
        assert!(r.starts_with("fft"));
        assert!(r.contains("2.00"));
    }
}
