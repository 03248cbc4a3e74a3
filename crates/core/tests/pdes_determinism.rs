//! Cross-thread determinism of the parallel trace supply.
//!
//! The contract under test: `SystemConfig::pdes_workers` changes *who*
//! synthesizes the operation streams, never *what* the simulation
//! computes. A randomized grid over scheme × seed × MSHR depth ×
//! worker count must produce **bit-identical** `RunResult`s against
//! the sequential reference, and every run's latency breakdown must
//! conserve (components sum to the engine's total) at every worker
//! count.

use dve::config::{Scheme, SystemConfig};
use dve::system::{RunResult, System};
use dve_sim::rng::SplitMix64;
use dve_workloads::{catalog, WorkloadProfile};

const SCHEMES: &[Scheme] = &[
    Scheme::BaselineNuma,
    Scheme::IntelMirrorPlus,
    Scheme::DveAllow,
    Scheme::DveDeny,
    Scheme::DveDynamic,
];

fn run(
    profile: &WorkloadProfile,
    scheme: Scheme,
    seed: u64,
    mshrs: usize,
    workers: usize,
) -> RunResult {
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.ops_per_thread = 400;
    cfg.warmup_per_thread = 40;
    cfg.mshrs = mshrs;
    cfg.pdes_workers = workers;
    System::new(cfg, profile, seed).run()
}

/// Every field that must match bit-for-bit across worker counts.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.ops, b.ops, "{what}: ops");
    assert_eq!(a.mem_ops, b.mem_ops, "{what}: mem_ops");
    assert_eq!(a.engine, b.engine, "{what}: engine stats");
    assert_eq!(a.latency, b.latency, "{what}: latency breakdown");
    assert_eq!(a.traffic, b.traffic, "{what}: traffic");
    assert_eq!(a.class_fractions, b.class_fractions, "{what}: classes");
    assert_eq!(a.dram_rows, b.dram_rows, "{what}: dram rows");
    assert_eq!(a.dram_queue, b.dram_queue, "{what}: dram queue");
    assert_eq!(
        a.max_row_activations, b.max_row_activations,
        "{what}: row activations"
    );
    assert_eq!(a.latency_tail(), b.latency_tail(), "{what}: tail");
}

#[test]
fn random_grid_parallel_matches_sequential() {
    // SplitMix64-driven random draws over the full configuration grid:
    // each draw picks a scheme, seed, MSHR depth and worker count, and
    // the parallel run must reproduce the sequential one exactly.
    let profiles = catalog();
    let mut rng = SplitMix64::new(0x9DE5_2026);
    for draw in 0..10 {
        let scheme = SCHEMES[rng.next_below(SCHEMES.len() as u64) as usize];
        let profile = &profiles[rng.next_below(profiles.len() as u64) as usize];
        let seed = rng.next_u64();
        let mshrs = [1, 4][rng.next_below(2) as usize];
        let workers = [2, 4, 8][rng.next_below(3) as usize];
        let what = format!(
            "draw {draw}: {} {scheme:?} seed={seed:#x} mshrs={mshrs} workers={workers}",
            profile.name
        );
        let sequential = run(profile, scheme, seed, mshrs, 1);
        let parallel = run(profile, scheme, seed, mshrs, workers);
        assert_identical(&sequential, &parallel, &what);
    }
}

#[test]
fn correlated_chaos_is_bit_identical_at_every_worker_count() {
    // Active correlated fault sources (hammer + thermal + aging, all
    // live) on top of a random schedule must not break the worker-count
    // invariance: the sources draw on a fixed sim-time grid and observe
    // deterministic fabric state, so the whole run — ledger included —
    // reproduces bit-for-bit at any `pdes_workers`.
    use dve::chaos::{
        AgingParams, ChaosConfig, ChaosParams, CorrelatedConfig, HammerParams, ThermalParams,
    };
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let run = |workers: usize| {
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.ops_per_thread = 400;
        cfg.warmup_per_thread = 40;
        cfg.pdes_workers = workers;
        cfg.ecc = dve_dram::controller::EccProfile::tsd();
        let mut chaos = ChaosConfig::random(
            0xC0E7,
            &ChaosParams {
                faults: 3,
                horizon: 60_000,
                heal_after: Some(30_000),
                ..ChaosParams::default()
            },
        );
        chaos.correlated = Some(CorrelatedConfig {
            seed: 0xC0E7,
            hammer: Some(HammerParams {
                threshold: 10,
                ..HammerParams::inert()
            }),
            thermal: Some(ThermalParams {
                base_rate: 0.2,
                poll_interval: 7_000,
                ..ThermalParams::inert()
            }),
            aging: Some(AgingParams {
                base_rate: 0.05,
                ramp_per_mcycle: 2.0,
                ..AgingParams::inert()
            }),
        });
        cfg.chaos = Some(chaos);
        System::new(cfg, &p, 42).run()
    };
    let reference = run(1);
    assert!(reference.recovery.consistent(), "{:?}", reference.recovery);
    let sourced = reference.recovery.hammer_plants
        + reference.recovery.thermal_plants
        + reference.recovery.aging_plants;
    assert!(
        sourced > 0,
        "scenario must actually fire correlated sources: {:?}",
        reference.recovery
    );
    for workers in [2, 4, 8] {
        let r = run(workers);
        assert_identical(&reference, &r, &format!("correlated workers={workers}"));
        assert_eq!(reference.recovery, r.recovery, "workers={workers}: ledger");
    }
}

#[test]
fn latency_breakdown_conserves_at_all_worker_counts() {
    // Conservation by construction must survive the parallel supply:
    // the per-component totals sum to the breakdown's total, and the
    // histogram sums match the aggregate at every worker count.
    let profiles = catalog();
    let p = profiles.iter().find(|p| p.name == "canneal").unwrap();
    for workers in [1, 2, 4, 8] {
        let r = run(p, Scheme::DveAllow, 77, 4, workers);
        let b = &r.latency;
        let component_sum: u64 = dve_sim::latency::Component::ALL
            .iter()
            .map(|&c| b.get(c))
            .sum();
        assert_eq!(component_sum, b.total(), "workers={workers}: breakdown");
        for c in dve_sim::latency::Component::ALL {
            assert_eq!(
                r.latency_hist.component(c).sum(),
                u128::from(b.get(c)),
                "workers={workers}: hist sum for {c:?}"
            );
        }
    }
}
