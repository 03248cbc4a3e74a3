//! End-to-end runs on non-mirror topologies: symmetric N-way and
//! two-tier (local sockets + far-memory pool).
//!
//! The mirror-pair regime is pinned bit-exactly by `goldens.rs`; these
//! tests cover what only exists beyond two nodes — placement spreading
//! homes over N sockets, faults landing on node ids ≥ 2, and the far
//! tier actually absorbing replica traffic.

use dve::chaos::{ChaosConfig, ChaosParams, FaultAction, FaultEvent, FaultSchedule, FaultSite};
use dve::config::{Scheme, SystemConfig, TopologySpec};
use dve::system::{RunResult, System};
use dve_dram::controller::EccProfile;
use dve_workloads::{catalog, WorkloadProfile};

fn backprop() -> WorkloadProfile {
    catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .expect("backprop in catalog")
}

fn topo_config(scheme: Scheme, spec: TopologySpec, ops: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.set_topology(spec);
    cfg.ops_per_thread = ops;
    cfg.warmup_per_thread = ops / 10;
    cfg
}

fn run(cfg: SystemConfig, seed: u64) -> RunResult {
    System::new(cfg, &backprop(), seed).run()
}

#[test]
fn nway4_run_completes_and_is_deterministic() {
    let p = backprop();
    let cfg = topo_config(Scheme::DveDeny, TopologySpec::Nway(4), 300);
    let a = System::new(cfg.clone(), &p, 42).run();
    let b = System::new(cfg, &p, 42).run();
    assert_eq!(a.mem_ops, 300 * 16);
    assert!(a.cycles > 0);
    // Replicas still serve local reads with homes spread over 4 nodes.
    assert!(a.engine.replica_reads > 0);
    assert_eq!(a.cycles, b.cycles, "same seed must reproduce bit-exactly");
    assert_eq!(a.engine, b.engine);
}

#[test]
fn nway4_spreads_memory_traffic_over_all_four_nodes() {
    let r_cfg = topo_config(Scheme::DveDeny, TopologySpec::Nway(4), 300);
    let sys = {
        let mut s = System::new(r_cfg, &backprop(), 42);
        s.warm_up();
        s.begin_region();
        s.step_ops(300);
        s.finish_region();
        s
    };
    let ctrls = sys.fabric().controllers();
    assert_eq!(ctrls.len(), 4, "one controller group per node");
    for (n, node) in ctrls.iter().enumerate() {
        let accesses: u64 = node
            .iter()
            .map(|c| c.stats().reads + c.stats().writes)
            .sum();
        assert!(accesses > 0, "node {n} saw no DRAM traffic");
    }
}

/// Regression for the mirror-era `socket.min(1)` clamp: a fault
/// scheduled on node 2 of a four-node topology must land on node 2,
/// not be folded onto node 1.
#[test]
fn fault_on_node_two_of_four_lands_and_recovers() {
    let mut cfg = topo_config(Scheme::DveDeny, TopologySpec::Nway(4), 300);
    cfg.ecc = EccProfile::tsd();
    cfg.chaos = Some(ChaosConfig {
        schedule: FaultSchedule::new(vec![FaultEvent {
            at: 0,
            socket: 2,
            channel: 0,
            action: FaultAction::Plant {
                site: FaultSite::Controller,
                transient: true,
            },
        }]),
        ..ChaosConfig::inert()
    });
    let r = run(cfg, 42);
    let led = &r.recovery;
    assert_eq!(led.faults_planted, 1, "the node-2 plant must apply");
    // Node 2 homes one quarter of all pages, so demand reads detect
    // the wipe and the §V-B2 detour repairs it from the survivor.
    assert!(led.detected_reads > 0, "no read ever saw the node-2 fault");
    assert!(led.corrected > 0, "survivor fetch never corrected");
    assert!(led.repaired > 0, "transient wipe was never repaired");
    assert_eq!(led.machine_checks, 0, "replica must cover a single fault");
    assert!(led.consistent(), "ledger partition invariants");
}

#[test]
fn two_tier_far_node_absorbs_replica_writes() {
    let mut cfg = topo_config(Scheme::DveDeny, TopologySpec::TwoTier, 300);
    // Tiny caches so LLC evictions force dirty writebacks — the §V-B1
    // dual-writeback path is what reaches the far tier.
    cfg.engine.l1_bytes = 512;
    cfg.engine.l1_ways = 1;
    cfg.engine.llc_bytes = 1024;
    cfg.engine.llc_ways = 1;
    let mut sys = System::new(cfg, &backprop(), 42);
    sys.warm_up();
    sys.begin_region();
    sys.step_ops(300);
    let r = sys.finish_region();
    assert!(r.cycles > 0);
    assert!(
        r.engine.writebacks > 0,
        "tiny caches must evict dirty lines"
    );
    // The far pool hosts no cores, so no read is ever served
    // replica-locally — the local compressed copies are recovery-only.
    assert_eq!(r.engine.replica_reads, 0);
    let ctrls = sys.fabric().controllers();
    assert_eq!(ctrls.len(), 3, "two sockets + one far-memory pool");
    // Every replica lives on the far node's channel 1; home copies
    // stay on the sockets' channel 0.
    let far_writes = ctrls[2][1].stats().writes;
    assert!(far_writes > 0, "far tier received no replica writes");
    assert_eq!(
        ctrls[2][0].stats().reads + ctrls[2][0].stats().writes,
        0,
        "the far pool's channel 0 holds no home copies"
    );
    for (s, socket) in ctrls.iter().enumerate().take(2) {
        assert_eq!(
            socket[1].stats().writes,
            0,
            "socket {s} channel 1 holds no replicas under two-tier"
        );
    }
}

/// Survivor selection under randomized chaos on a 4-node topology:
/// every detected read either reaches a live copy (corrected /
/// clean-redirect) or escalates to a machine check — the ledger
/// partition proves there is no third, silent outcome.
#[test]
fn random_chaos_on_nway4_keeps_ledger_consistent() {
    for seed in [1u64, 7, 0xDEAD] {
        let mut cfg = topo_config(Scheme::DveDeny, TopologySpec::Nway(4), 200);
        cfg.ecc = EccProfile::tsd();
        cfg.chaos = Some(ChaosConfig::random(
            seed,
            &ChaosParams {
                faults: 6,
                horizon: 60_000,
                transient_fraction: 0.5,
                heal_after: Some(30_000),
                channels_per_socket: 2,
                line_span: 1 << 14,
                nodes: 4,
            },
        ));
        let r = run(cfg, seed);
        assert_eq!(r.mem_ops, 200 * 16, "seed {seed}: run must complete");
        assert!(r.recovery.consistent(), "seed {seed}: ledger partition");
        assert_eq!(
            r.recovery.clean_redirects + r.recovery.corrected + r.recovery.machine_checks,
            r.recovery.detected_reads,
            "seed {seed}: every detection resolves to survivor or MCE"
        );
    }
}

/// Per-edge outage independence at the system level: knocking out a
/// directed edge only perturbs runs whose recovery traffic actually
/// crosses it. Over all 12 directed edges of a 4-node topology, the
/// same faulted run is re-executed with a whole-run outage on exactly
/// one edge: edges the detour uses must surface retries or failed
/// sends, edges it never crosses must leave the run bit-identical —
/// and every perturbed run still resolves each detection to a
/// survivor or a machine check.
#[test]
fn edge_outage_only_perturbs_the_edge_it_names() {
    let base_chaos = |edge: Option<(usize, usize)>| {
        let mut chaos = ChaosConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: 0,
                socket: 2,
                channel: 0,
                action: FaultAction::Plant {
                    site: FaultSite::Controller,
                    transient: false,
                },
            }]),
            ..ChaosConfig::inert()
        };
        if let Some((from, to)) = edge {
            chaos.edge_outages = vec![(from, to, vec![(0, u64::MAX / 2)])];
        }
        chaos
    };
    let run_with = |edge| {
        let mut cfg = topo_config(Scheme::DveDeny, TopologySpec::Nway(4), 200);
        cfg.ecc = EccProfile::tsd();
        cfg.chaos = Some(base_chaos(edge));
        run(cfg, 42)
    };

    let baseline = run_with(None);
    assert!(baseline.recovery.detected_reads > 0, "fault must be seen");
    assert_eq!(baseline.recovery.link_failed_sends, 0);

    let mut perturbed = 0;
    let mut untouched = 0;
    for from in 0..4 {
        for to in 0..4 {
            if from == to {
                continue;
            }
            let r = run_with(Some((from, to)));
            assert!(r.recovery.consistent(), "edge ({from},{to})");
            assert_eq!(
                r.recovery.clean_redirects + r.recovery.corrected + r.recovery.machine_checks,
                r.recovery.detected_reads,
                "edge ({from},{to}): every detection resolves"
            );
            let touched = r.recovery.link_retries > 0 || r.recovery.link_failed_sends > 0;
            if touched {
                perturbed += 1;
            } else {
                untouched += 1;
                assert_eq!(
                    r.cycles, baseline.cycles,
                    "edge ({from},{to}) carries no recovery traffic, so its \
                     outage must be invisible"
                );
                assert_eq!(r.recovery, baseline.recovery, "edge ({from},{to})");
            }
        }
    }
    assert!(perturbed > 0, "some edge must carry the node-2 detours");
    assert!(untouched > 0, "some edge must be outside every detour");
}

/// A chaos schedule drawn for 4 nodes actually uses node ids ≥ 2.
#[test]
fn four_node_schedules_target_upper_nodes() {
    let p = ChaosParams {
        faults: 32,
        nodes: 4,
        ..ChaosParams::default()
    };
    let sched = FaultSchedule::random(9, &p);
    assert!(
        sched.events().iter().any(|e| e.socket >= 2),
        "32 draws over 4 nodes should hit nodes 2..4"
    );
    assert!(sched.events().iter().all(|e| e.socket < 4));
}

/// Each link send is counted once in each of its two projections: the
/// per-edge counts on the link table and the fabric's per-class
/// `TrafficStats`. A chaos run with link outages and in-band recovery
/// legs (Dvé's detour crosses the link, some sends retry or fail;
/// Intel-mirroring++'s detour stays on its socket and is in neither)
/// must leave the two totals equal, on the mirror pair and on four
/// nodes with a per-edge outage.
#[test]
fn link_edges_and_traffic_count_each_send_once() {
    let controller_fault = |socket| FaultEvent {
        at: 0,
        socket,
        channel: 0,
        action: FaultAction::Plant {
            site: FaultSite::Controller,
            transient: false,
        },
    };
    let cases = [
        (Scheme::DveDeny, TopologySpec::Mirror2, 0),
        (Scheme::IntelMirrorPlus, TopologySpec::Mirror2, 0),
        (Scheme::DveDeny, TopologySpec::Nway(4), 2),
    ];
    for (scheme, spec, socket) in cases {
        let mut cfg = topo_config(scheme, spec, 300);
        cfg.ecc = EccProfile::tsd();
        cfg.chaos = Some(ChaosConfig {
            schedule: FaultSchedule::new(vec![controller_fault(socket)]),
            link_outages: vec![(2_000, 12_000), (40_000, 60_000)],
            edge_outages: match spec {
                TopologySpec::Nway(_) => vec![(2, 0, vec![(0, 30_000)])],
                _ => Vec::new(),
            },
            ..ChaosConfig::inert()
        });
        let mut sys = System::new(cfg, &backprop(), 42);
        sys.warm_up();
        sys.begin_region();
        sys.step_ops(300);
        let r = sys.finish_region();
        let l = r.recovery;
        assert!(l.detected_reads > 0, "{scheme:?} {spec}: the fault bites");
        // Dvé's detour legs meet the outages; mirroring's never cross.
        let crosses = scheme.is_dve();
        assert_eq!(l.link_retries > 0, crosses, "{scheme:?} {spec}: {l:?}");
        assert_eq!(l.link_failed_sends > 0, crosses, "{scheme:?} {spec}: {l:?}");
        let fabric = sys.fabric();
        let nodes = sys.config().nodes();
        let on_edges: u64 = (0..nodes)
            .flat_map(|a| (0..nodes).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| fabric.link_table().edge_counts(a, b).messages)
            .sum();
        assert!(on_edges > 0, "{scheme:?} {spec}");
        assert_eq!(
            on_edges,
            fabric.traffic().total_messages(),
            "{scheme:?} {spec}: {l:?}"
        );
    }
}
