//! Full parameter-sweep grid, emitted as CSV for external plotting.
//!
//! Sweeps every scheme across the Fig. 10 link latencies and writes one
//! row per (workload, scheme, link latency, MSHR depth) with the metrics
//! each paper figure consumes: cycles, speedup, inter-socket traffic,
//! replica-read share, memory energy, EDP, row-hammer exposure, and the
//! fraction of total access latency spent in each timing layer (mesh,
//! link, bank queue, bank service, protocol). This is the
//! machine-readable counterpart to the per-figure text harnesses.
//!
//! Every cell runs with blocking cores (`mshrs = 1`, the Table II
//! default). On one miss-bound workload (backprop) and one sync-bound
//! one (lbm), baseline NUMA and Dvé-deny also run at `mshrs ∈ {2, 4, 8}`
//! outstanding misses per core: wider cores overlap misses and shift
//! time out of bank service and link propagation (hidden latency) into
//! bank queueing (contention made visible). Speedups are always against
//! blocking baseline NUMA at the same link latency.
//!
//! ```text
//! cargo run -p dve-bench --bin sweep --release > results/sweep.csv
//! ```
//!
//! The runs are requested as [`dve_bench::grid`] cells and simulated
//! on every core; the CSV is the same at any worker count.

use dve::config::Scheme;
use dve_bench::grid::Grid;
use dve_bench::ops_from_env;
use dve_sim::latency::Component;
use dve_sim::time::Nanos;
use dve_workloads::catalog;

/// The timing layers whose latency fractions the CSV reports.
const LAYERS: [Component; 5] = [
    Component::Mesh,
    Component::Link,
    Component::BankQueue,
    Component::BankService,
    Component::Protocol,
];

/// MSHR depths swept for `workload` under `scheme`.
fn depths(workload: &str, scheme: Scheme) -> &'static [usize] {
    let mlp = matches!(workload, "backprop" | "lbm")
        && matches!(scheme, Scheme::BaselineNuma | Scheme::DveDeny);
    if mlp {
        &[1, 2, 4, 8]
    } else {
        &[1]
    }
}

fn main() {
    let ops = ops_from_env().min(15_000); // ~340 runs: keep each modest
    let latencies = [30u64, 50, 60];
    // One row per (workload, scheme, link latency, MSHR depth): its
    // cell and the blocking baseline at the same link latency, which
    // anchors speedups. The grid runs each distinct cell once, so a
    // baseline row and its anchor are one simulation.
    let mut grid = Grid::new(ops);
    let mut rows = Vec::new();
    for p in catalog() {
        for scheme in Scheme::ALL {
            for &ns in &latencies {
                let base = grid.cell(p.name, Scheme::BaselineNuma, |c| c.link_latency = Nanos(ns));
                for &mshrs in depths(p.name, scheme) {
                    let cell = grid.cell(p.name, scheme, |c| {
                        c.link_latency = Nanos(ns);
                        c.mshrs = mshrs;
                    });
                    rows.push((p.name, scheme, ns, mshrs, cell, base));
                }
            }
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = grid.run(workers).results;

    let mut header = String::from(
        "workload,scheme,link_ns,cycles,speedup,traffic_bytes,traffic_norm,\
         replica_read_share,mem_joules,mem_edp,max_row_activations,mshrs",
    );
    for c in LAYERS {
        header.push_str(&format!(",frac_{}", c.label()));
    }
    println!("{header}");
    for (workload, scheme, ns, mshrs, cell, base) in rows {
        let (r, base) = (&results[cell], &results[base]);
        let dir_requests: u64 = r.engine.served[2..].iter().sum();
        let replica_share = if dir_requests == 0 {
            0.0
        } else {
            r.engine.replica_reads as f64 / dir_requests as f64
        };
        let mut line = format!(
            "{},{},{},{},{:.4},{},{:.4},{:.4},{:.6e},{:.6e},{},{}",
            workload,
            scheme.label(),
            ns,
            r.cycles,
            r.speedup_over(base),
            r.traffic.total_bytes(),
            r.traffic.normalized_to(&base.traffic),
            replica_share,
            r.mem_energy_joules,
            r.mem_edp,
            r.max_row_activations,
            mshrs,
        );
        for c in LAYERS {
            line.push_str(&format!(",{:.6}", r.latency.fraction(c)));
        }
        println!("{line}");
    }
}
