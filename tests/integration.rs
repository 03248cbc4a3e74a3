//! Cross-crate integration tests: the full system assembled end-to-end.

use dve::config::{Scheme, SystemConfig, DYNAMIC_WINDOW};
use dve::system::{run_workload, System};
use dve_workloads::catalog;

const OPS: u64 = 2_000;
const SEED: u64 = 0xD0E5_2021;

fn workload(name: &str) -> dve_workloads::WorkloadProfile {
    catalog()
        .into_iter()
        .find(|p| p.name == name)
        .expect("workload in catalog")
}

#[test]
fn full_system_is_deterministic_across_runs() {
    let p = workload("fft");
    let a = run_workload(&p, Scheme::DveDeny, OPS, SEED);
    let b = run_workload(&p, Scheme::DveDeny, OPS, SEED);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
    assert_eq!(a.engine.replica_reads, b.engine.replica_reads);
    assert_eq!(a.mem_ops, b.mem_ops);
}

#[test]
fn different_seeds_produce_different_timings() {
    let p = workload("fft");
    let a = run_workload(&p, Scheme::BaselineNuma, OPS, 1);
    let b = run_workload(&p, Scheme::BaselineNuma, OPS, 2);
    assert_ne!(a.cycles, b.cycles);
}

#[test]
fn deny_protocol_beats_baseline_on_every_top10_workload() {
    for p in catalog().iter().take(10) {
        let base = run_workload(p, Scheme::BaselineNuma, OPS, SEED);
        let deny = run_workload(p, Scheme::DveDeny, OPS, SEED);
        let speedup = deny.speedup_over(&base);
        assert!(speedup > 1.0, "{}: deny speedup {:.3}", p.name, speedup);
        assert!(
            deny.engine.replica_reads > 0,
            "{}: no replica reads",
            p.name
        );
    }
}

#[test]
fn dve_cuts_inter_socket_traffic() {
    let p = workload("backprop");
    let base = run_workload(&p, Scheme::BaselineNuma, OPS, SEED);
    for scheme in [Scheme::DveAllow, Scheme::DveDeny] {
        let r = run_workload(&p, scheme, OPS, SEED);
        let norm = r.traffic.normalized_to(&base.traffic);
        assert!(norm < 1.0, "{scheme:?}: traffic {norm:.3} not reduced");
    }
}

#[test]
fn replicas_stay_strongly_consistent_through_writebacks() {
    // Under Dvé every dirty writeback hits both memory copies: the
    // replica-channel write counters must track the home-channel ones.
    let p = workload("lbm"); // write-heavy
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.ops_per_thread = OPS;
    cfg.warmup_per_thread = OPS / 10;
    // Tiny caches force writebacks.
    cfg.engine.llc_bytes = 64 * 1024;
    cfg.engine.l1_bytes = 4 * 1024;
    let r = System::new(cfg, &p, SEED).run();
    assert!(r.engine.writebacks > 0, "no writebacks despite tiny caches");
}

#[test]
fn sharing_classification_sums_to_one() {
    for p in catalog().iter().step_by(5) {
        let r = run_workload(p, Scheme::BaselineNuma, OPS, SEED);
        let sum: f64 = r.class_fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{}: fractions sum {sum}", p.name);
    }
}

#[test]
fn fig7_structure_separates_the_two_groups() {
    // Deny winners are read-dominated; allow winners are write-dominated
    // at the directory.
    let top = run_workload(&workload("backprop"), Scheme::BaselineNuma, OPS, SEED);
    let bottom = run_workload(&workload("lbm"), Scheme::BaselineNuma, OPS, SEED);
    assert!(
        top.class_fractions[0] > 0.5,
        "backprop should be private-read heavy"
    );
    assert!(
        bottom.class_fractions[3] > top.class_fractions[3],
        "lbm must show more private-rw than backprop"
    );
}

#[test]
fn intel_mirror_balances_reads_without_coherent_replication() {
    let p = workload("fft");
    let r = run_workload(&p, Scheme::IntelMirrorPlus, OPS, SEED);
    assert_eq!(
        r.engine.replica_reads, 0,
        "mirroring must not use the replica directory"
    );
    assert!(r.cycles > 0);
}

#[test]
fn dynamic_scheme_switches_policies() {
    let p = workload("backprop");
    // One allow window, one deny window, then the start of the
    // winner's epoch body.
    let ops = 2 * DYNAMIC_WINDOW + 100;
    let mut cfg = SystemConfig::table_ii(Scheme::DveDynamic);
    cfg.ops_per_thread = ops;
    cfg.warmup_per_thread = 100;
    let r = System::new(cfg, &p, SEED).run();
    // The dynamic run completed all work with both machines exercised.
    assert_eq!(r.mem_ops, ops * 16, "all measured ops executed");
    assert!(r.engine.replica_reads > 0);
}

#[test]
fn link_latency_sweep_moves_baseline_but_not_dve_much() {
    // Fig. 10's mechanism: Dvé's replica reads bypass the link, so its
    // absolute runtime moves far less with link latency than baseline's.
    let p = workload("xsbench");
    let run_at = |scheme, ns| {
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.ops_per_thread = OPS;
        cfg.warmup_per_thread = OPS / 10;
        cfg.link_latency = dve_sim::time::Nanos(ns);
        System::new(cfg, &p, SEED).run().cycles as f64
    };
    let base_delta = run_at(Scheme::BaselineNuma, 60) / run_at(Scheme::BaselineNuma, 30);
    let deny_delta = run_at(Scheme::DveDeny, 60) / run_at(Scheme::DveDeny, 30);
    assert!(
        base_delta > deny_delta,
        "baseline sensitivity {base_delta:.3} must exceed deny's {deny_delta:.3}"
    );
}

#[test]
fn energy_shows_dve_memory_overhead() {
    // Replication doubles the DRAM population: Dvé's absolute memory
    // energy must exceed baseline's for the same work.
    let p = workload("canneal");
    let base = run_workload(&p, Scheme::BaselineNuma, OPS, SEED);
    let deny = run_workload(&p, Scheme::DveDeny, OPS, SEED);
    assert!(deny.mem_energy_joules > base.mem_energy_joules);
}

#[test]
fn recovery_and_protocol_compose() {
    // The reliability claim end-to-end on the timed fabric: the home
    // controller dies, every read of a line it holds still returns data
    // from the replica (a CE, then a clean redirect of the degraded
    // copy), and none machine-checks.
    use dve::chaos::{ChaosConfig, FaultAction, FaultEvent, FaultSite};
    use dve::fabric_impl::SystemFabric;
    use dve_coherence::fabric::Fabric;
    use dve_sim::latency::Stamp;
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.ecc = dve_dram::controller::EccProfile::tsd();
    cfg.chaos = Some(ChaosConfig::inert());
    let mut f = SystemFabric::new(&cfg);
    f.apply_fault_event(&FaultEvent {
        at: 0,
        socket: 0,
        channel: 0,
        action: FaultAction::Plant {
            site: FaultSite::Controller,
            transient: false,
        },
    });
    let held: Vec<u64> = (0..2_000u64)
        .filter(|&line| f.placement().home_of(line) == 0)
        .take(250)
        .collect();
    assert_eq!(held.len(), 250);
    let mut t = Stamp::start(0);
    for pass in 0..2 {
        for &line in &held {
            t = f.mem_read(0, line, Stamp::start(t.at()));
            let l = f.ledger();
            assert_eq!(l.machine_checks, 0, "pass {pass} line {line}");
            assert!(l.consistent(), "pass {pass} line {line}: {l:?}");
        }
    }
    let l = f.ledger();
    let n = held.len() as u64;
    assert_eq!(l.detected_reads, 2 * n);
    assert_eq!((l.corrected, l.degraded, l.repaired), (n, n, 0));
    assert_eq!(l.clean_redirects, n, "every re-read redirects cleanly");
    assert_eq!(f.degraded_line_count(), held.len());
}

#[test]
fn verified_protocols_match_engine_behavior() {
    // The model checker and the performance engine implement the same
    // policies: absence semantics agree.
    use dve_coherence::replica_dir::{ReplicaDirectory, ReplicaPolicy};
    let allow = ReplicaDirectory::default_config(ReplicaPolicy::Allow);
    let deny = ReplicaDirectory::default_config(ReplicaPolicy::Deny);
    assert!(!allow.replica_readable(0), "allow: absence = no");
    assert!(deny.replica_readable(0), "deny: absence = yes");
    let a = dve_verify::check(dve_verify::Variant::Allow, 500_000);
    let d = dve_verify::check(dve_verify::Variant::Deny, 500_000);
    assert!(a.ok() && d.ok());
}

#[test]
fn table1_reliability_hierarchy() {
    // End-to-end reliability ordering the paper establishes.
    use dve_reliability::fit::ThermalMapping;
    use dve_reliability::model::ReliabilityModel;
    let m = ReliabilityModel::paper_defaults();
    let chipkill = m.chipkill();
    let dve = m.dve_tsd(ThermalMapping::Identity);
    let raim = m.raim();
    let dve_ck = m.dve_chipkill();
    assert!(dve.due < chipkill.due, "Dvé beats Chipkill on DUE");
    assert!(dve_ck.due < raim.due, "Dvé+Chipkill beats RAIM on DUE");
    assert!(dve.sdc < chipkill.sdc, "TSD detection crushes SDC");
}
