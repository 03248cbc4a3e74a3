//! Property-based tests for the DRAM substrate.

use dve_dram::address::{AddressMapper, DramCoord};
use dve_dram::config::DramConfig;
use dve_dram::controller::{AccessKind, MemoryController};
use dve_dram::fault::{FaultDomain, FaultState};
use dve_dram::rowhammer::RowHammerMonitor;
use dve_sim::time::Cycles;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    // Address mapping is a bijection at line granularity.
    #[test]
    fn address_mapping_bijective(addr in 0u64..(8u64 << 30)) {
        let m = AddressMapper::new(DramConfig::ddr4_2400());
        let coord = m.decode(addr);
        prop_assert_eq!(m.encode(coord), addr & !63);
        prop_assert!(coord.bank < 16);
        prop_assert!(coord.column < m.config().lines_per_row());
    }

    // Controller timing invariants: completion after arrival, latency at
    // least the row-hit floor and (uncontended) at most conflict +
    // refresh-window, monotone per bank.
    #[test]
    fn controller_latency_bounds(
        addrs in proptest::collection::vec(0u64..(1u64 << 24), 1..100),
        gap in 0u64..500,
    ) {
        let cfg = DramConfig::ddr4_2400_no_refresh();
        let hit = cfg.hit_latency().raw();
        let mut mc = MemoryController::new(0, cfg);
        let mut t = 0u64;
        for addr in addrs {
            let r = mc.access(addr, AccessKind::Read, Cycles(t));
            prop_assert!(r.complete_at.raw() >= t + hit);
            prop_assert!(r.latency.raw() >= hit);
            t = t + gap + 1;
        }
        let s = mc.stats();
        prop_assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, s.reads);
    }

    // Fault impact is monotone: adding fault domains never un-corrupts a
    // read, and repair restores cleanliness exactly.
    #[test]
    fn fault_state_monotone(
        addr in 0u64..(1u64 << 24),
        chips in proptest::collection::btree_set(0usize..9, 0..5),
    ) {
        let mapper = AddressMapper::new(DramConfig::ddr4_2400());
        let mut f = FaultState::new();
        let mut last = 0usize;
        for &chip in &chips {
            f.fail(FaultDomain::Chip { channel: 0, rank: 0, chip });
            let impact = f.impact(0, addr, &mapper).expect("chip fault must impact rank reads");
            prop_assert!(impact.symbols_corrupted >= last.max(1));
            last = impact.symbols_corrupted;
        }
        prop_assert_eq!(last, chips.len().max(if chips.is_empty() { 0 } else { 1 }));
        for &chip in &chips {
            f.repair(FaultDomain::Chip { channel: 0, rank: 0, chip });
        }
        prop_assert!(f.impact(0, addr, &mapper).is_none());
    }

    // ScrubReport partition invariant under arbitrary fault
    // populations: every patrol-read line is exactly one of
    // clean / corrected / detected, for full passes and for paced
    // slices alike — and the slices of one pass sum to the full pass.
    #[test]
    fn scrub_report_partitions_lines(
        lines in proptest::collection::btree_set(0u64..64, 0..8),
        chips in proptest::collection::btree_set(0usize..4, 0..3),
        slice_lines in 1u64..32,
    ) {
        use dve_dram::scrub::Scrubber;
        let region: u64 = 1 << 12; // 64 lines
        let mk = || {
            let mut mc = MemoryController::new(0, DramConfig::ddr4_2400_no_refresh());
            for &line in &lines {
                mc.faults_mut().fail(FaultDomain::Line { channel: 0, line });
            }
            for &chip in &chips {
                mc.faults_mut().fail(FaultDomain::Chip { channel: 0, rank: 0, chip });
            }
            mc
        };
        // Full pass partitions.
        let mut mc = mk();
        let full = Scrubber::new(region).full_pass(&mut mc, 0);
        prop_assert_eq!(full.lines, full.clean + full.corrected + full.detected);
        prop_assert_eq!(full.lines, region / 64);
        // Paced slices partition individually and sum to one pass.
        // (Corrected lines are rewritten in place by both paths, so we
        // compare against a fresh controller with the same faults.)
        let mut mc = mk();
        let mut s = Scrubber::new(region);
        let mut sum = dve_dram::scrub::ScrubReport::default();
        let mut t = 0u64;
        while s.passes() == 0 {
            let slice = s.slice(&mut mc, t, slice_lines);
            let r = &slice.report;
            prop_assert_eq!(r.lines, r.clean + r.corrected + r.detected);
            prop_assert_eq!(u64::from(slice.wrapped), s.passes());
            sum.lines += r.lines;
            sum.clean += r.clean;
            sum.corrected += r.corrected;
            sum.detected += r.detected;
            t = slice.end;
        }
        prop_assert_eq!(sum.lines, full.lines);
        prop_assert_eq!(sum.clean, full.clean);
        prop_assert_eq!(sum.corrected, full.corrected);
        prop_assert_eq!(sum.detected, full.detected);
    }

    // Scrub duration is monotone in the number of lines patrolled:
    // prefixes of a pass never cost more than the longer run, whatever
    // fault population is present.
    #[test]
    fn scrub_duration_monotone_in_lines(
        lines in proptest::collection::btree_set(0u64..128, 0..10),
        regions in proptest::collection::btree_set(1u64..16, 2..6),
    ) {
        use dve_dram::scrub::Scrubber;
        let mut last = (0u64, 0u64); // (lines, duration)
        for &r in &regions {
            let mut mc = MemoryController::new(0, DramConfig::ddr4_2400_no_refresh());
            for &line in &lines {
                mc.faults_mut().fail(FaultDomain::Line { channel: 0, line });
            }
            let report = Scrubber::new(r * 4096).full_pass(&mut mc, 0);
            prop_assert!(report.lines > last.0);
            prop_assert!(
                report.duration >= last.1,
                "{} lines took {} < {} for {} lines",
                report.lines, report.duration, last.1, last.0
            );
            last = (report.lines, report.duration);
        }
    }

    // Energy priced from controller counts is additive under merge.
    #[test]
    fn energy_additive(
        reads in 0u64..1000,
        writes in 0u64..1000,
        acts in 0u64..1000,
        refreshes in 0u64..100,
    ) {
        use dve_dram::controller::ControllerStats;
        use dve_dram::energy::EnergyParams;
        let zero = ControllerStats::default();
        let mut a = ControllerStats { reads, row_misses: acts, ..zero };
        let b = ControllerStats { writes, row_conflicts: acts, refreshes, ..zero };
        let (ja, jb) = (EnergyParams::dynamic_joules(&a), EnergyParams::dynamic_joules(&b));
        a.merge(&b);
        prop_assert!((EnergyParams::dynamic_joules(&a) - (ja + jb)).abs() < 1e-15);
    }

    // The incremental `rows_over` index answers exactly like a scan of
    // every row's in-window count, and `max_activations` is the largest
    // count any row reached in one window: over random activations on
    // all 16 banks, rows on both sides of the 1024-row page boundaries
    // and sparse rows above 60 000, thresholds queried in any order (a
    // lower one after a higher one forces a rebuild) and window
    // rollovers, including multi-window gaps.
    #[test]
    fn rows_over_matches_brute_force_scan(
        ops in proptest::collection::vec(
            ((0u8..8, 0usize..16), (0u8..4, 0u64..4), 0u64..12, 0u64..8),
            1..600,
        ),
    ) {
        const WINDOW: u64 = 500;
        // Four row groups: the first rows of a bank, two straddling a
        // page boundary, and sparse high rows a page or more apart.
        let row_of = |group: u8, i: u64| match group {
            0 => i,
            1 => 1022 + i,
            2 => 2046 + i,
            _ => 60_000 + 5_000 * i,
        };
        let mut m = RowHammerMonitor::new(WINDOW);
        let mut counts: HashMap<(usize, u64), u64> = HashMap::new();
        let mut max_seen = 0u64;
        let mut window_start = 0u64;
        let mut now = 0u64;
        for ((kind, bank), (group, i), dt, threshold) in ops {
            if kind < 6 {
                // Mostly short steps on three hot banks (several
                // activations per row per window); some on any bank;
                // now and then a gap of several windows.
                now += if kind == 5 { dt * 250 } else { dt };
                let bank = if kind < 3 { bank % 3 } else { bank };
                let row = row_of(group, i);
                m.record_activation(bank, row, now);
                if now >= window_start + WINDOW {
                    counts.clear();
                    window_start += (now - window_start) / WINDOW * WINDOW;
                }
                let c = counts.entry((bank, row)).or_insert(0);
                *c += 1;
                max_seen = max_seen.max(*c);
            } else {
                let mut want: Vec<(usize, u64)> = counts
                    .iter()
                    .filter(|(_, &c)| c > threshold)
                    .map(|(&k, _)| k)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(m.rows_over(threshold), want);
            }
            prop_assert_eq!(m.max_activations(), max_seen);
        }
        // A final sweep over every threshold, high to low and back.
        for threshold in (0u64..12).rev().chain(0..12) {
            let mut want: Vec<(usize, u64)> = counts
                .iter()
                .filter(|(_, &c)| c > threshold)
                .map(|(&k, _)| k)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(m.rows_over(threshold), want);
        }
        prop_assert!(m.rows_over(u64::MAX).is_empty());
    }

    // Shift-and-mask decoding equals the division formula for both
    // geometries in the tree (Table II and the far tier).
    #[test]
    fn address_decode_matches_division_formula(addr in any::<u64>(), far in any::<bool>()) {
        let cfg = if far { DramConfig::far_tier() } else { DramConfig::ddr4_2400() };
        let line = addr / cfg.line_bytes as u64;
        let cols = cfg.lines_per_row() as u64;
        let banks = cfg.banks_per_rank as u64;
        let ranks = cfg.ranks_per_channel as u64;
        let want = DramCoord {
            rank: ((line / (cols * banks)) % ranks) as usize,
            bank: ((line / cols) % banks) as usize,
            row: line / (cols * banks * ranks),
            column: (line % cols) as usize,
        };
        prop_assert_eq!(AddressMapper::new(cfg).decode(addr), want);
    }
}
