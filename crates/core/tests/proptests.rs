//! Property-based tests over the assembled system.

use dve::chaos::{ChaosConfig, FaultAction, FaultEvent, FaultSite};
use dve::config::{Scheme, SystemConfig};
use dve::fabric_impl::SystemFabric;
use dve::system::System;
use dve_coherence::fabric::Fabric;
use dve_sim::latency::Stamp;
use dve_workloads::catalog;
use proptest::prelude::*;

/// A Dvé fabric with detect-only TSD ECC and the chaos layer armed, so
/// every detected read takes the §V-B2 detour.
fn recovery_fabric() -> SystemFabric {
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.ecc = dve_dram::controller::EccProfile::tsd();
    cfg.chaos = Some(ChaosConfig::inert());
    SystemFabric::new(&cfg)
}

/// Applies `action` to the copy at `(socket, channel)`.
fn act(f: &mut SystemFabric, socket: usize, channel: usize, action: FaultAction) {
    f.apply_fault_event(&FaultEvent {
        at: 0,
        socket,
        channel,
        action,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The full system is deterministic for every scheme and workload.
    #[test]
    fn end_to_end_determinism(
        seed in any::<u64>(),
        profile_idx in 0usize..20,
        scheme_idx in 0usize..5,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let p = &catalog()[profile_idx];
        let run = |s| {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 400;
            cfg.warmup_per_thread = 40;
            System::new(cfg, p, s).run()
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
        prop_assert_eq!(a.mem_energy_joules.to_bits(), b.mem_energy_joules.to_bits());
    }

    // Conservation: every issued memory op is accounted for in the
    // engine's service-level buckets.
    #[test]
    fn service_accounting_conserves_ops(seed in any::<u64>(), scheme_idx in 0usize..5) {
        let scheme = Scheme::ALL[scheme_idx];
        let p = &catalog()[0];
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.ops_per_thread = 500;
        cfg.warmup_per_thread = 50;
        let r = System::new(cfg, p, seed).run();
        let served: u64 = r.engine.served.iter().sum();
        prop_assert_eq!(served, r.engine.ops);
        prop_assert_eq!(r.engine.reads + r.engine.writes, r.engine.ops);
    }

    // Latency conservation at system level: with no warm-up, the
    // measured-region per-component breakdown sums exactly to the
    // engine's total accumulated access latency, for any scheme, seed
    // and MSHR depth.
    #[test]
    fn latency_breakdown_conserves(
        seed in any::<u64>(),
        scheme_idx in 0usize..5,
        mshrs in 1usize..=8,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let p = &catalog()[0];
        let mut cfg = SystemConfig::table_ii(scheme);
        cfg.ops_per_thread = 300;
        cfg.warmup_per_thread = 0;
        cfg.mshrs = mshrs;
        let r = System::new(cfg, p, seed).run();
        // Per-layer attribution must conserve.
        prop_assert_eq!(r.latency.total(), r.engine.latency_sum.iter().sum::<u64>());
        // Class fractions stay a well-formed distribution (exercises
        // the monotone class-delta guard on the way).
        let sum: f64 = r.class_fractions.iter().sum();
        prop_assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
    }

    // Recovery: with only socket 0's home-channel copies faulted, no
    // read ever machine-checks and the ledger stays consistent,
    // whatever the fault site or access pattern (each line is read
    // twice, so degraded copies are redirected too).
    #[test]
    fn single_sided_faults_never_machine_check(
        fault_pick in 0u8..5,
        lines in proptest::collection::vec(0u64..(1u64 << 14), 1..50),
    ) {
        let site = match fault_pick {
            0 => FaultSite::Controller,
            1 => FaultSite::Channel,
            2 => FaultSite::Chip { rank: 0, chip: 3 },
            3 => FaultSite::Row { rank: 0, bank: 0, row: 0 },
            _ => FaultSite::Line { line: lines[0] },
        };
        let mut f = recovery_fabric();
        act(&mut f, 0, 0, FaultAction::Plant { site, transient: false });
        let mut t = 0;
        for &line in lines.iter().chain(&lines) {
            let done = f.mem_read(0, line, Stamp::start(t)).at();
            prop_assert!(done >= t);
            t = done;
            let l = f.ledger();
            prop_assert_eq!(l.machine_checks, 0);
            prop_assert!(l.consistent(), "{:?}", l);
        }
    }

    // The recovery ledger stays consistent (`repaired + degraded ==
    // corrected`, `clean_redirects + corrected + machine_checks ==
    // detected_reads`) after every step of arbitrary interleavings of
    // fault plants, heals and reads; and re-reading a degraded line
    // redirects cleanly, never degrading it again.
    #[test]
    fn recovery_state_machine_invariants(
        ops in proptest::collection::vec((0u64..16, 0u8..5), 1..40),
    ) {
        let mut f = recovery_fabric();
        let place = f.placement();
        let home = |line| (place.home_of(line), 0);
        let replica = |line| (place.replica_node(line), 1);
        // Lines whose home copy the fabric holds degraded, tracked from
        // the degraded-copy count across each step.
        let mut degraded = std::collections::BTreeSet::new();
        let mut now = 0;
        for &(line, kind) in &ops {
            let site = FaultSite::Line { line };
            let before = f.degraded_line_count();
            match kind {
                0 | 1 => {
                    let (s, c) = home(line);
                    act(&mut f, s, c, FaultAction::Plant { site, transient: kind == 1 });
                }
                2 => {
                    let (s, c) = home(line);
                    act(&mut f, s, c, FaultAction::Heal { site });
                }
                3 => {
                    let (s, c) = replica(line);
                    act(&mut f, s, c, FaultAction::Plant { site, transient: false });
                }
                _ => now = f.mem_read(home(line).0, line, Stamp::start(now)).at(),
            }
            let after = f.degraded_line_count();
            if after > before {
                degraded.insert(line);
            } else if after < before {
                degraded.remove(&line);
            }
            prop_assert_eq!(after, degraded.len());
            prop_assert!(f.ledger().consistent(), "{:?}", f.ledger());
        }
        // With every replica healthy again, each degraded line's re-read
        // is a clean redirect and degrades nothing.
        for line in 0..16 {
            let (s, c) = replica(line);
            act(&mut f, s, c, FaultAction::Heal { site: FaultSite::Line { line } });
        }
        for &line in &degraded {
            let before = f.ledger();
            now = f.mem_read(home(line).0, line, Stamp::start(now)).at();
            let after = f.ledger();
            prop_assert_eq!(after.clean_redirects, before.clean_redirects + 1);
            prop_assert_eq!(after.degraded, before.degraded);
            prop_assert_eq!(f.degraded_line_count(), degraded.len());
            prop_assert!(after.consistent(), "{:?}", after);
        }
    }

    // Full-system chaos: a randomized seed-derived fault schedule keeps
    // the recovery ledger consistent, completes all scheduled work, and
    // reproduces bit-for-bit when re-run.
    #[test]
    fn random_chaos_keeps_ledger_consistent(seed in any::<u64>(), scheme_idx in 2usize..5) {
        use dve::chaos::{ChaosConfig, ChaosParams};
        let scheme = Scheme::ALL[scheme_idx];
        let p = &catalog()[0];
        let params = ChaosParams {
            faults: 3,
            horizon: 60_000,
            heal_after: Some(30_000),
            ..ChaosParams::default()
        };
        let run = || {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 300;
            cfg.warmup_per_thread = 30;
            cfg.ecc = dve_dram::controller::EccProfile::tsd();
            cfg.chaos = Some(ChaosConfig::random(seed, &params));
            System::new(cfg, p, seed).run()
        };
        let r = run();
        // All scheduled work completes despite faults.
        prop_assert_eq!(r.mem_ops, 300 * 16);
        prop_assert!(r.recovery.consistent(), "{:?}", r.recovery);
        let again = run();
        prop_assert_eq!(r.cycles, again.cycles);
        prop_assert_eq!(r.recovery, again.recovery);
    }

    // Correlated sources armed *live* on top of a random schedule: the
    // recovery ledger stays consistent (per-source plant counters
    // bounded by the total), all scheduled work completes, and the run
    // reproduces bit-for-bit.
    #[test]
    fn correlated_chaos_keeps_ledger_consistent(
        seed in any::<u64>(),
        scheme_idx in 2usize..5,
        hammer_threshold in 20u64..200,
        thermal_rate in 0.0f64..0.08,
        aging_ramp in 0.0f64..0.8,
    ) {
        use dve::chaos::{
            AgingParams, ChaosConfig, ChaosParams, CorrelatedConfig, HammerParams, ThermalParams,
        };
        let scheme = Scheme::ALL[scheme_idx];
        let p = &catalog()[0];
        let run = || {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 300;
            cfg.warmup_per_thread = 30;
            cfg.ecc = dve_dram::controller::EccProfile::tsd();
            let mut chaos = ChaosConfig::random(seed, &ChaosParams {
                faults: 3,
                horizon: 60_000,
                heal_after: Some(30_000),
                ..ChaosParams::default()
            });
            chaos.correlated = Some(CorrelatedConfig {
                seed,
                hammer: Some(HammerParams { threshold: hammer_threshold, ..HammerParams::inert() }),
                thermal: Some(ThermalParams {
                    base_rate: thermal_rate,
                    poll_interval: 7_000,
                    ..ThermalParams::inert()
                }),
                aging: Some(AgingParams {
                    base_rate: 0.0,
                    ramp_per_mcycle: aging_ramp,
                    poll_interval: 9_000,
                    ..AgingParams::inert()
                }),
            });
            cfg.chaos = Some(chaos);
            System::new(cfg, p, seed).run()
        };
        let r = run();
        prop_assert_eq!(r.mem_ops, 300 * 16);
        prop_assert!(r.recovery.consistent(), "{:?}", r.recovery);
        prop_assert!(
            r.recovery.hammer_plants + r.recovery.thermal_plants + r.recovery.aging_plants
                <= r.recovery.faults_planted
        );
        let again = run();
        prop_assert_eq!(r.cycles, again.cycles);
        prop_assert_eq!(r.recovery, again.recovery);
    }

    // Degraded Dvé tracks baseline NUMA cycle-for-cycle (§V-E).
    #[test]
    fn degraded_equals_baseline(seed in any::<u64>(), profile_idx in 0usize..20) {
        let p = &catalog()[profile_idx];
        let run = |scheme, degraded| {
            let mut cfg = SystemConfig::table_ii(scheme);
            cfg.ops_per_thread = 400;
            cfg.warmup_per_thread = 40;
            cfg.degraded = degraded;
            System::new(cfg, p, seed).run().cycles
        };
        let base = run(Scheme::BaselineNuma, false);
        let degraded = run(Scheme::DveDeny, true);
        // Identical protocol behavior; only the DRAM population differs
        // (2 vs 1 channels/socket keeps bank counts equal per copy), so
        // cycles agree within a small tolerance.
        let ratio = base as f64 / degraded as f64;
        prop_assert!((0.97..=1.03).contains(&ratio), "ratio {ratio}");
    }
}
