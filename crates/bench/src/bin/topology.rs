//! Topology sweep harness: the same pinned trace across replication
//! topologies — the classic mirror pair, symmetric N-way placement,
//! and the two-tier far-memory scheme.
//!
//! ```text
//! cargo run -p dve-bench --bin topology --release
//! ```
//!
//! The sweep runs every topology × Dvé scheme on the pinned backprop
//! trace: cycles, replica-read share, inter-node traffic, and the
//! per-edge message split, re-run to prove bit-identical determinism,
//! and gates the exit code on the placement's structural invariants.
//! It is written to `results/topology_report.txt`. The pinned
//! per-placement cycle counts live in `crates/core/tests/goldens.rs`.

use dve::config::{Scheme, SystemConfig, TopologySpec};
use dve::system::{RunResult, System};
use dve_bench::gate::{no_args, write_report, Gate, HarnessError};
use dve_bench::profile;
use dve_workloads::WorkloadProfile;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One sweep run, returning the system so the report can read per-edge
/// link stats off the fabric (`set_topology` drops nway:3 to 15 cores).
fn run_sweep_cell(
    p: &WorkloadProfile,
    spec: TopologySpec,
    scheme: Scheme,
    ops: u64,
    seed: u64,
) -> (RunResult, System) {
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.set_topology(spec);
    let mut sys = System::new(cfg, p, seed);
    sys.warm_up();
    sys.begin_region();
    sys.step_ops(ops);
    let r = sys.finish_region();
    (r, sys)
}

fn sweep(gate: &mut Gate, p: &WorkloadProfile, ops: u64) -> String {
    println!("-- sweep: topology x scheme on backprop ({ops} ops/thread) --");
    let specs = [
        TopologySpec::Mirror2,
        TopologySpec::Nway(3),
        TopologySpec::Nway(4),
        TopologySpec::TwoTier,
    ];
    let mut report = String::new();
    let _ = writeln!(
        report,
        "topology sweep: backprop, {ops} measured ops/thread, seed 42\n"
    );
    let _ = writeln!(
        report,
        "{:<8} {:>7} {:>6} {:>9} {:>13} {:>12} {:>13} {:>6}",
        "topology",
        "scheme",
        "nodes",
        "cycles",
        "replica_reads",
        "link_msgs",
        "link_bytes",
        "edges"
    );
    for spec in specs {
        for scheme in [Scheme::DveAllow, Scheme::DveDeny] {
            let (r, sys) = run_sweep_cell(p, spec, scheme, ops, 42);
            let (r2, _) = run_sweep_cell(p, spec, scheme, ops, 42);
            gate.check(
                r.cycles == r2.cycles && r.cycles > 0,
                format!(
                    "{spec} {}: deterministic at {} cycles",
                    scheme.label(),
                    r.cycles
                ),
            );
            let link = sys.fabric().link_table();
            let nodes = sys.config().nodes();
            let used_edges = (0..nodes)
                .flat_map(|a| (0..nodes).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && link.edge_stats(a, b).grants > 0)
                .count();
            let _ = writeln!(
                report,
                "{:<8} {:>7} {:>6} {:>9} {:>13} {:>12} {:>13} {:>6}",
                spec.to_string(),
                scheme.label(),
                nodes,
                r.cycles,
                r.engine.replica_reads,
                link.total_messages(),
                link.total_bytes(),
                used_edges
            );
        }
    }
    // Structural expectations the sweep itself proves:
    let (_, sys3) = run_sweep_cell(p, TopologySpec::Nway(3), Scheme::DveDeny, ops, 42);
    let link3 = sys3.fabric().link_table();
    let active = (0..3)
        .flat_map(|a| (0..3).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b && link3.edge_stats(a, b).grants > 0)
        .count();
    gate.check(
        active == 6,
        format!("nway:3 traffic uses all 6 directed edges (saw {active})"),
    );
    let (rt, syst) = run_sweep_cell(p, TopologySpec::TwoTier, Scheme::DveDeny, ops, 42);
    gate.check(
        rt.engine.replica_reads == 0,
        "twotier serves no coherent replica reads (far pool hosts no cores)",
    );
    gate.check(
        syst.fabric().controllers().len() == 3,
        "twotier instantiates two sockets + one far pool",
    );
    report
}

fn main() -> Result<ExitCode, HarnessError> {
    no_args()?;
    let p = profile("backprop");
    let mut gate = Gate::new();

    let report = sweep(&mut gate, &p, 2000);
    write_report("results/topology_report.txt", &report)?;
    print!("{report}");
    Ok(gate.finish("topology"))
}
