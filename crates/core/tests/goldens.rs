//! Pinned-seed golden cycle counts for the timing stack.
//!
//! These pin the **blocking-core regime** (`mshrs = 1`, the Table II
//! default) after the resource-port unification: the link and bank
//! migrations onto shared [`dve_sim::resource::Resource`] ports are
//! timing-neutral by construction, and the one deliberate fidelity
//! change — colocating the LLC home slice with the directory tile so
//! the old `mesh_mean` scalar is retired in favor of real per-core
//! routes — is baked into these numbers.
//!
//! If a refactor moves any of these counts, it changed the model, not
//! just the code: either fix the regression or re-derive the goldens
//! and document why in DESIGN.md §10.

use dve::chaos::{
    AgingParams, ChaosConfig, ChaosParams, CorrelatedConfig, HammerParams, ScrubConfig,
    ThermalParams,
};
use dve::config::{Scheme, SystemConfig, TopologySpec};
use dve::system::{run_workload, ClientOp, RunResult, System};
use dve_dram::controller::EccProfile;
use dve_sim::latency::Component;
use dve_sim::rng::SplitMix64;
use dve_workloads::catalog;
use dve_workloads::op::MemReq;
use dve_workloads::TraceGenerator;
use proptest::prelude::*;

/// (seed, scheme, cycles) for backprop at 500 measured ops/thread
/// (warm-up 50, 8000 measured memory ops total).
const GOLDENS: &[(u64, Scheme, u64)] = &[
    (42, Scheme::BaselineNuma, 92_408),
    (42, Scheme::DveAllow, 77_905),
    (42, Scheme::DveDeny, 54_962),
    (0x2026_0806, Scheme::BaselineNuma, 91_014),
    (0x2026_0806, Scheme::DveAllow, 79_614),
    (0x2026_0806, Scheme::DveDeny, 54_436),
];

#[test]
fn pinned_golden_cycles_mshrs_1() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    for &(seed, scheme, cycles) in GOLDENS {
        let r = run_workload(&p, scheme, 500, seed);
        assert_eq!(r.mem_ops, 8000, "seed={seed:#x} {scheme:?}");
        assert_eq!(
            r.cycles, cycles,
            "seed={seed:#x} {scheme:?}: got {}, golden {cycles}",
            r.cycles
        );
    }
}

/// The sharded trace supply changes only who synthesizes the operation
/// streams: [`GOLDENS`] must hold verbatim at every `pdes_workers` count.
#[test]
fn pinned_goldens_hold_at_every_worker_count() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    for &(seed, scheme, cycles) in GOLDENS {
        for workers in [1, 2, 4, 8] {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 500;
            cfg.warmup_per_thread = 50;
            cfg.pdes_workers = workers;
            let r = System::new(cfg, &p, seed).run();
            assert_eq!(r.mem_ops, 8000, "seed={seed:#x} {scheme:?} w={workers}");
            assert_eq!(
                r.cycles, cycles,
                "seed={seed:#x} {scheme:?} workers={workers}: got {}, golden {cycles}",
                r.cycles
            );
        }
    }
}

/// (topology, seed, scheme, cycles) — same trace/ops regime as
/// [`GOLDENS`], on the non-mirror topologies.
const TOPOLOGY_GOLDENS: &[(TopologySpec, u64, Scheme, u64)] = &[
    (TopologySpec::Nway(4), 42, Scheme::DveAllow, 96_160),
    (TopologySpec::Nway(4), 42, Scheme::DveDeny, 86_172),
    (TopologySpec::Nway(4), 0x2026_0806, Scheme::DveAllow, 96_703),
    (TopologySpec::Nway(4), 0x2026_0806, Scheme::DveDeny, 90_514),
    (TopologySpec::TwoTier, 42, Scheme::DveAllow, 92_408),
    (TopologySpec::TwoTier, 42, Scheme::DveDeny, 93_525),
    (TopologySpec::TwoTier, 0x2026_0806, Scheme::DveAllow, 91_014),
    (TopologySpec::TwoTier, 0x2026_0806, Scheme::DveDeny, 93_151),
];

/// The explicit mirror-2 topology is a representation change only: it
/// must replay [`GOLDENS`] bit-identically, and the N-way / two-tier
/// placements hold their own pinned counts.
#[test]
fn topology_goldens_pin_every_placement() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let run = |spec: TopologySpec, scheme, seed| {
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.set_topology(spec);
        cfg.ops_per_thread = 500;
        cfg.warmup_per_thread = 50;
        System::new(cfg, &p, seed).run()
    };
    for &(seed, scheme, cycles) in GOLDENS {
        let r = run(TopologySpec::Mirror2, scheme, seed);
        assert_eq!(
            r.cycles, cycles,
            "mirror2 topology must be invisible: seed={seed:#x} {scheme:?}"
        );
    }
    for &(spec, seed, scheme, cycles) in TOPOLOGY_GOLDENS {
        let r = run(spec, scheme, seed);
        assert_eq!(r.mem_ops, 8000, "{spec} seed={seed:#x} {scheme:?}");
        assert_eq!(
            r.cycles, cycles,
            "{spec} seed={seed:#x} {scheme:?}: got {}, golden {cycles}",
            r.cycles
        );
    }
}

/// The simulated fields of `BENCH_system.json`: `perf` runs backprop at
/// 300 ops/thread (its `smoke` size) through [`dve_bench::config`], seed
/// 42, at `mshrs = 1` unless the name says otherwise.
const PERF_OPS: u64 = 300;
const PERF_CYCLES: &[(&str, Scheme, usize, u64)] = &[
    ("cycles_baseline_mshrs_1", Scheme::BaselineNuma, 1, 56_563),
    ("cycles_deny_mshrs_1", Scheme::DveDeny, 1, 33_057),
    ("cycles_deny_mshrs_4", Scheme::DveDeny, 4, 19_351),
];
/// `perf`'s topology section: (placement, cycles, replica reads) of the
/// deny scheme at `mshrs = 1`.
const PERF_TOPOLOGY: &[(TopologySpec, u64, u64)] = &[
    (TopologySpec::Mirror2, 33_057, 826),
    (TopologySpec::Nway(4), 53_164, 386),
    (TopologySpec::TwoTier, 57_899, 0),
];

/// Pins what `perf` simulates, so a change that moves `BENCH_system.json`
/// fails here rather than only in a rewritten report; and pins the
/// relation `perf`'s MSHR gate checks (deny at `mshrs = 4` takes no more
/// cycles than at `mshrs = 1`).
#[test]
fn perf_system_fields_are_pinned() {
    let p = dve_bench::profile("backprop");
    let run = |scheme, mshrs, spec| {
        let mut cfg = dve_bench::config(scheme, PERF_OPS);
        cfg.mshrs = mshrs;
        cfg.set_topology(spec);
        System::new(cfg, &p, 42).run()
    };
    let mut deny = [0u64; 2];
    for &(name, scheme, mshrs, cycles) in PERF_CYCLES {
        let r = run(scheme, mshrs, TopologySpec::Mirror2);
        assert_eq!(
            r.cycles, cycles,
            "{name}: got {}, golden {cycles}",
            r.cycles
        );
        if scheme == Scheme::DveDeny {
            deny[usize::from(mshrs == 4)] = r.cycles;
        }
    }
    assert!(
        deny[1] <= deny[0],
        "deny mshrs=4 {} > mshrs=1 {}",
        deny[1],
        deny[0]
    );
    for &(spec, cycles, replica_reads) in PERF_TOPOLOGY {
        let r = run(Scheme::DveDeny, 1, spec);
        assert_eq!(
            (r.cycles, r.engine.replica_reads),
            (cycles, replica_reads),
            "topology_{{cycles,replica_reads}}_deny_{spec}"
        );
    }
}

/// Builds the armed-but-inert chaos envelope: every correlated source
/// present and polling on its grid, none able to emit a fault.
fn inert_armed(source_seed: u64, hammer: bool, thermal: bool, aging: bool) -> ChaosConfig {
    ChaosConfig {
        correlated: Some(CorrelatedConfig {
            seed: source_seed,
            hammer: hammer.then(HammerParams::inert),
            thermal: thermal.then(ThermalParams::inert),
            aging: aging.then(AgingParams::inert),
        }),
        ..ChaosConfig::inert()
    }
}

/// Arming every correlated fault source in its inert configuration
/// must replay *all* pinned goldens bit-identically: the sources poll
/// the live fabric on their grids but never touch timed state, so the
/// cycle counts cannot move. This is the full deterministic matrix —
/// both seeds, all three schemes, and every pinned topology. On the
/// mirror pair the armed run must also match the disarmed run's whole
/// latency breakdown and record no recovery activity at all.
#[test]
fn armed_but_inert_sources_preserve_every_golden() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let run = |spec: TopologySpec, scheme, seed| {
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.set_topology(spec);
        cfg.ops_per_thread = 500;
        cfg.warmup_per_thread = 50;
        cfg.chaos = Some(ChaosConfig {
            correlated: Some(CorrelatedConfig::inert(seed ^ 0xD0E)),
            ..ChaosConfig::inert()
        });
        System::new(cfg, &p, seed).run()
    };
    for &(seed, scheme, cycles) in GOLDENS {
        let r = run(TopologySpec::Mirror2, scheme, seed);
        assert_eq!(
            r.cycles, cycles,
            "inert sources moved mirror2 golden: seed={seed:#x} {scheme:?}"
        );
        let plain = run_workload(&p, scheme, 500, seed);
        assert_eq!(
            r.latency, plain.latency,
            "inert sources moved the breakdown: seed={seed:#x} {scheme:?}"
        );
        assert!(
            !r.recovery.any_activity(),
            "inert sources recorded recovery activity: seed={seed:#x} {scheme:?}"
        );
        assert_eq!(
            r.latency.recovery, 0,
            "inert sources cost recovery cycles: seed={seed:#x} {scheme:?}"
        );
    }
    for &(spec, seed, scheme, cycles) in TOPOLOGY_GOLDENS {
        let r = run(spec, scheme, seed);
        assert_eq!(
            r.cycles, cycles,
            "inert sources moved {spec} golden: seed={seed:#x} {scheme:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any nonempty combination of armed-but-inert sources, with any
    // source seed, replays a sampled golden row bit-identically — the
    // property behind the deterministic matrix above.
    #[test]
    fn any_inert_source_combo_replays_goldens(
        mask in 1u8..8,
        pick in 0usize..6,
        source_seed in any::<u64>(),
    ) {
        let (seed, scheme, cycles) = GOLDENS[pick];
        let p = catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap();
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.ops_per_thread = 500;
        cfg.warmup_per_thread = 50;
        cfg.chaos = Some(inert_armed(
            source_seed,
            mask & 1 != 0,
            mask & 2 != 0,
            mask & 4 != 0,
        ));
        let r = System::new(cfg, &p, seed).run();
        prop_assert_eq!(r.mem_ops, 8000);
        prop_assert_eq!(r.cycles, cycles);
    }
}

#[test]
fn goldens_order_schemes_correctly() {
    // At both pinned seeds: deny < allow < baseline on this read-heavy
    // workload — the paper's Fig. 6 ordering.
    for seed in [42u64, 0x2026_0806] {
        let pick = |s| {
            GOLDENS
                .iter()
                .find(|&&(sd, sc, _)| sd == seed && sc == s)
                .unwrap()
                .2
        };
        assert!(pick(Scheme::DveDeny) < pick(Scheme::DveAllow));
        assert!(pick(Scheme::DveAllow) < pick(Scheme::BaselineNuma));
    }
}

// ----- live-chaos goldens ---------------------------------------------
//
// The goldens above pin fault-free or inert-chaos runs with blocking
// cores. The two below pin runs where the chaos layer really fires and
// cores overlap misses (`mshrs = 4`): the scheduler's core order, the
// row-hammer index behind the hammer source, and the recovery detours
// all shape these numbers, so any change to them shows here.

/// Simulated cycles the write-chaos fault schedule spans (a little over
/// the warm-up plus measured region of [`write_chaos_config`]).
const CHAOS_HORIZON: u64 = 8_000_000;

/// The benchmark's `replay-write-chaos` configuration: `comd` under
/// `dve-allow`, four MSHR ways, TSD detect-only ECC, a random fault
/// schedule over the whole run, two link outages, paced patrol scrub
/// and a transient row-hammer source.
fn write_chaos_config(seed: u64) -> (SystemConfig, dve_workloads::WorkloadProfile) {
    let p = catalog().into_iter().find(|p| p.name == "comd").unwrap();
    let mut cfg = SystemConfig::table_ii(Scheme::DveAllow);
    cfg.ops_per_thread = 40_000;
    cfg.warmup_per_thread = 4_000;
    cfg.mshrs = 4;
    let span = TraceGenerator::new(&p, cfg.engine.cores, seed).span_lines();
    let mut chaos = ChaosConfig::random(
        seed,
        &ChaosParams {
            faults: 16,
            horizon: CHAOS_HORIZON,
            transient_fraction: 0.5,
            heal_after: Some(CHAOS_HORIZON / 4),
            channels_per_socket: cfg.channels_per_socket(),
            line_span: span,
            nodes: cfg.nodes(),
        },
    );
    chaos.link_outages = [CHAOS_HORIZON / 4, CHAOS_HORIZON * 3 / 4]
        .iter()
        .map(|&t| (t, t + 8_000))
        .collect();
    chaos.scrub = Some(ScrubConfig {
        region_bytes: 1 << 16,
        lines_per_slice: 16,
        interval: 20_000,
    });
    chaos.correlated = Some(CorrelatedConfig {
        seed,
        hammer: Some(HammerParams {
            threshold: 40,
            transient: true,
            both_copies: false,
            poll_interval: 5_000,
        }),
        thermal: None,
        aging: None,
    });
    cfg.ecc = EccProfile::tsd();
    cfg.chaos = Some(chaos);
    (cfg, p)
}

/// Measured-region per-op latency histograms: (op count, end-to-end
/// `(p50, p99, p999)`, recovery-component `(p50, p99, p999)`).
type HistGolden = (u64, (u64, u64, u64), (u64, u64, u64));

/// (seed, cycles, `EngineStats`, `RecoveryLedger`, [`HistGolden`]) of
/// the write-chaos run, whole run as `System::run` reports it. The
/// ledgers show the chaos layer firing: detections, repairs,
/// degradations, machine checks, scrub escalations and row-hammer
/// plants.
const WRITE_CHAOS_GOLDENS: &[(u64, u64, &str, &str, HistGolden)] = &[
    (
        301,
        7_267_777,
        "EngineStats { ops: 704000, reads: 566121, writes: 137879, l1_hits: 638955, \
         llc_hits: 3940, replica_reads: 8220, spec_confirmed: 8220, spec_squashed: 27, \
         writebacks: 0, rm_installs: 0, replica_invalidations: 39, forced_downgrades: 0, \
         served: [638955, 13230, 33925, 17557, 0, 333], \
         latency_sum: [638955, 1242544, 9046156, 9625827, 0, 120147], \
         latency_breakdown: LatencyBreakdown { mesh: 97303, link: 8534808, \
         bank_queue: 3919472, bank_service: 4426952, protocol: 3668420, recovery: 26674 }, \
         degraded_transitions: 4 }",
        "RecoveryLedger { detected_reads: 1429, clean_redirects: 0, corrected: 1410, \
         repaired: 386, degraded: 1024, machine_checks: 19, scrub_slices: 1482, \
         scrub_lines: 23712, scrub_corrected: 0, scrub_detected: 1504, \
         scrub_escalations: 1376, link_retries: 1, link_failed_sends: 0, \
         faults_planted: 83, faults_healed: 6, hammer_plants: 67, thermal_plants: 0, \
         aging_plants: 0 }",
        (640_000, (1, 511, 1_279), (0, 0, 0)),
    ),
    (
        302,
        7_265_655,
        "EngineStats { ops: 704000, reads: 566373, writes: 137627, l1_hits: 638557, \
         llc_hits: 3764, replica_reads: 5780, spec_confirmed: 5780, spec_squashed: 11, \
         writebacks: 0, rm_installs: 0, replica_invalidations: 22, forced_downgrades: 0, \
         served: [638557, 13160, 31878, 20097, 0, 308], \
         latency_sum: [638557, 1229557, 7923204, 10727759, 0, 109581], \
         latency_breakdown: LatencyBreakdown { mesh: 98113, link: 8625200, \
         bank_queue: 3481351, bank_service: 4739623, protocol: 3554260, recovery: 130111 }, \
         degraded_transitions: 3 }",
        "RecoveryLedger { detected_reads: 3199, clean_redirects: 0, corrected: 934, \
         repaired: 309, degraded: 625, machine_checks: 2265, scrub_slices: 1449, \
         scrub_lines: 23184, scrub_corrected: 0, scrub_detected: 3552, \
         scrub_escalations: 2960, link_retries: 0, link_failed_sends: 12, \
         faults_planted: 94, faults_healed: 4, hammer_plants: 78, thermal_plants: 0, \
         aging_plants: 0 }",
        (640_000, (1, 511, 1_407), (0, 0, 0)),
    ),
];

#[test]
fn write_chaos_goldens() {
    for &(seed, cycles, engine, ledger, hist) in WRITE_CHAOS_GOLDENS {
        let (cfg, p) = write_chaos_config(seed);
        let r = System::new(cfg, &p, seed).run();
        assert_eq!(r.cycles, cycles, "seed={seed}");
        assert_eq!(format!("{:?}", r.engine), engine, "seed={seed}");
        assert_eq!(format!("{:?}", r.recovery), ledger, "seed={seed}");
        assert!(r.recovery.consistent(), "seed={seed}");
        assert_eq!(hist_golden(&r), hist, "seed={seed}: latency histograms");
    }
}

fn hist_golden(r: &RunResult) -> HistGolden {
    (
        r.latency_hist.count(),
        r.latency_tail(),
        r.component_tail(Component::Recovery),
    )
}

/// A fixed multi-epoch `run_batch` sequence against the live service's
/// system shape: `dve-deny`, `backprop` footprint, four MSHR ways, TSD
/// detect-only ECC and the service's random fault schedule for
/// `chaos_seed = 7`.
#[test]
fn run_batch_chaos_goldens() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.mshrs = 4;
    let span = TraceGenerator::new(&p, cfg.engine.cores, 42).span_lines();
    cfg.ecc = EccProfile::tsd();
    cfg.chaos = Some(ChaosConfig::random(
        7,
        &ChaosParams {
            faults: 8,
            horizon: 200_000,
            transient_fraction: 0.5,
            heal_after: Some(100_000),
            channels_per_socket: cfg.channels_per_socket(),
            line_span: span,
            nodes: cfg.nodes(),
        },
    ));
    let cores = cfg.engine.cores;
    let mut sys = System::new(cfg, &p, 42);
    sys.begin_region();
    let mut rng = SplitMix64::new(0x000B_A7C4);
    let (mut complete_sum, mut detected, mut mces) = (0u64, 0u64, 0u64);
    for _epoch in 0..40 {
        let batch: Vec<ClientOp> = (0..1024)
            .map(|_| ClientOp {
                core: rng.next_below(cores as u64) as usize,
                line: rng.next_below(span),
                req: if rng.next_below(10) < 7 {
                    MemReq::Read
                } else {
                    MemReq::Write
                },
            })
            .collect();
        for c in sys.run_batch(&batch) {
            complete_sum += c.complete_at;
            detected += c.detected_reads;
            mces += c.machine_checks;
        }
    }
    let r = sys.finish_region();
    assert_eq!(r.cycles, 349_812);
    assert_eq!(
        (complete_sum, detected, mces),
        (5_865_510_428, 1_600, 0),
        "per-op completions"
    );
    assert_eq!(
        format!("{:?}", r.engine),
        "EngineStats { ops: 40960, reads: 28524, writes: 12436, l1_hits: 14, llc_hits: 265, \
         replica_reads: 13042, spec_confirmed: 0, spec_squashed: 25, writebacks: 2108, \
         rm_installs: 5696, replica_invalidations: 0, forced_downgrades: 2109, \
         served: [14, 346, 33231, 7273, 0, 96], \
         latency_sum: [14, 32857, 14627659, 6739300, 0, 37820], \
         latency_breakdown: LatencyBreakdown { mesh: 61410, link: 4034228, \
         bank_queue: 9354252, bank_service: 5195226, protocol: 1908160, recovery: 884374 }, \
         degraded_transitions: 2 }"
    );
    assert_eq!(
        format!("{:?}", r.recovery),
        "RecoveryLedger { detected_reads: 1600, clean_redirects: 1, corrected: 1599, \
         repaired: 0, degraded: 1599, machine_checks: 0, scrub_slices: 0, scrub_lines: 0, \
         scrub_corrected: 0, scrub_detected: 0, scrub_escalations: 0, link_retries: 0, \
         link_failed_sends: 0, faults_planted: 8, faults_healed: 8, hammer_plants: 0, \
         thermal_plants: 0, aging_plants: 0 }"
    );
    assert_eq!(
        hist_golden(&r),
        (40_960, (351, 4_607, 10_239), (0, 575, 575)),
        "latency histograms"
    );
}

/// A core that sat idle through one `run_batch` epoch keeps its older
/// clock, so the next epoch issues at a simulated time *before* the
/// one the chaos layer last polled at. Here core 1 runs through the
/// whole `[2 000, 12 000)` link outage in epoch A (enter + leave), and
/// core 0, whose clock stopped inside the outage (at 6 527), issues
/// its first epoch-B read there, re-entering it, then leaves it again
/// with its next read: four §V-E transitions. A chaos poll that only
/// looked forward in time would miss the re-entry.
#[test]
fn lagging_core_reenters_an_outage_the_system_left() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.mshrs = 1;
    cfg.chaos = Some(ChaosConfig {
        link_outages: vec![(2_000, 12_000)],
        ..ChaosConfig::inert()
    });
    let mut sys = System::new(cfg, &p, 42);
    let reads = |core: usize, base: u64, n: u64| {
        (0..n).map(move |i| ClientOp {
            core,
            line: base + 977 * i,
            req: MemReq::Read,
        })
    };
    let epoch_a: Vec<ClientOp> = reads(0, 1_000, 30).chain(reads(1, 500_000, 200)).collect();
    sys.run_batch(&epoch_a);
    let epoch_b: Vec<ClientOp> = reads(0, 900_000, 4).collect();
    let done: Vec<u64> = sys
        .run_batch(&epoch_b)
        .iter()
        .map(|c| c.complete_at)
        .collect();
    assert_eq!(sys.engine_stats().degraded_transitions, 4);
    assert_eq!(done, [36_927, 37_109, 37_291, 37_473]);
}

/// A heal can take away the last hard-degraded copy in the same chaos
/// poll that first sees its degradation (the read that degraded it ran
/// between polls). Here the engine is already in §V-E for an earlier
/// copy, and that poll's heals remove both, so the poll must lift fault
/// degradation rather than hold it for the new copy; held until the
/// next fault event, outage edge or scrub slice falls due, this run
/// takes 46 501 cycles with 60 replica reads.
#[test]
fn degradation_healed_in_its_own_poll_lifts_in_that_poll() {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let seed = 0xDEAD;
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.set_topology(TopologySpec::Nway(4));
    cfg.ops_per_thread = 200;
    cfg.warmup_per_thread = 20;
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
    let r = System::new(cfg, &p, seed).run();
    assert_eq!(
        (
            r.cycles,
            r.engine.replica_reads,
            r.engine.degraded_transitions
        ),
        (45_945, 67, 2)
    );
}
