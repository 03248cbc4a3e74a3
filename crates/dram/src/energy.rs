//! DRAM energy accounting and the energy-delay product metric (§VII).
//!
//! The paper measures the energy-delay product (EDP) of the DRAM
//! subsystem "using the Micron datasheet" and computes system EDP
//! assuming memory is ~18% of total system power in a 2-socket NUMA box
//! [Barroso et al.]. We use representative per-operation energies derived
//! from Micron 8 Gb DDR4-2400 IDD figures (VDD = 1.2 V); absolute joules
//! are not the point — the *relative* EDP between baseline and replicated
//! configurations is. The operation counts are the memory controller's
//! own [`ControllerStats`]; this module only prices them.

use crate::controller::ControllerStats;

/// The Micron 8 Gb DDR4-2400 energy figures (VDD = 1.2 V): per-operation
/// dynamic energies and the per-rank background power.
#[derive(Debug)]
pub struct EnergyParams;

impl EnergyParams {
    /// Energy of one activate+precharge pair (IDD0-based), nJ.
    pub const ACT_PRE_NJ: f64 = 2.0;
    /// Energy of one 64-byte read burst incl. I/O (IDD4R), nJ.
    pub const READ_NJ: f64 = 3.5;
    /// Energy of one 64-byte write burst (IDD4W), nJ.
    pub const WRITE_NJ: f64 = 3.8;
    /// Energy of one per-rank refresh command (tRFC × IDD5), nJ.
    pub const REFRESH_NJ: f64 = 28.0;
    /// Background (standby + peripheral) power per DRAM rank, in
    /// milliwatts (IDD2N/3N class plus peripheral overheads, ≈150 mW).
    pub const BACKGROUND_MW_PER_RANK: f64 = 150.0;

    /// Dynamic energy of the commands a controller counted, in joules:
    /// one activate+precharge per row miss or conflict, one burst per
    /// read or write, and one per refresh. Summing [`ControllerStats`]
    /// over controllers before pricing gives the system total.
    ///
    /// # Example
    ///
    /// ```
    /// use dve_dram::controller::ControllerStats;
    /// use dve_dram::energy::EnergyParams;
    ///
    /// let stats = ControllerStats { reads: 1, row_misses: 1, ..Default::default() };
    /// let expect = (EnergyParams::ACT_PRE_NJ + EnergyParams::READ_NJ) * 1e-9;
    /// assert!((EnergyParams::dynamic_joules(&stats) - expect).abs() < 1e-18);
    /// ```
    pub fn dynamic_joules(stats: &ControllerStats) -> f64 {
        let activates = stats.row_misses + stats.row_conflicts;
        (activates as f64 * Self::ACT_PRE_NJ
            + stats.reads as f64 * Self::READ_NJ
            + stats.writes as f64 * Self::WRITE_NJ
            + stats.refreshes as f64 * Self::REFRESH_NJ)
            * 1e-9
    }

    /// Background energy of `ranks` ranks held in standby for
    /// `seconds`, in joules. The system's memory energy is
    /// [`EnergyParams::dynamic_joules`] plus this term.
    pub fn background_joules(ranks: usize, seconds: f64) -> f64 {
        Self::BACKGROUND_MW_PER_RANK * 1e-3 * ranks as f64 * seconds
    }
}

/// System-level EDP from memory EDP using the paper's assumption that
/// memory is `memory_fraction` (≈0.18) of total system power: scaling the
/// memory power term and holding the rest constant.
///
/// Given memory energy `e_mem` over time `t`, system energy is
/// `e_mem / memory_fraction` for the *baseline*; for a variant with
/// memory energy `e_mem'` and time `t'`, the non-memory power is the same
/// `P_rest = e_mem * (1 - f) / (f * t)`, so
/// `E_sys' = e_mem' + P_rest * t'` and `EDP_sys' = E_sys' * t'`.
pub fn system_edp(
    baseline_mem_joules: f64,
    baseline_seconds: f64,
    variant_mem_joules: f64,
    variant_seconds: f64,
    memory_fraction: f64,
) -> f64 {
    assert!(
        memory_fraction > 0.0 && memory_fraction < 1.0,
        "memory fraction must be in (0,1)"
    );
    let rest_power =
        baseline_mem_joules * (1.0 - memory_fraction) / (memory_fraction * baseline_seconds);
    let system_energy = variant_mem_joules + rest_power * variant_seconds;
    system_energy * variant_seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::controller::{AccessKind, MemoryController};
    use dve_sim::time::Cycles;

    #[test]
    fn dynamic_energy_adds_up() {
        // Miss, conflict and hit reads to one bank, a write to the open
        // row, then a read past tREFI: the refresh closes the row, so
        // that read activates again.
        let mut mc = MemoryController::new(0, DramConfig::ddr4_2400());
        let same_bank_next_row = 8192u64 * 16;
        let mut now = Cycles(0);
        for (addr, kind) in [
            (0, AccessKind::Read),
            (same_bank_next_row, AccessKind::Read),
            (same_bank_next_row + 64, AccessKind::Read),
            (same_bank_next_row + 128, AccessKind::Write),
        ] {
            now = mc.access(addr, kind, now).complete_at;
        }
        let t_refi = mc.config().t_refi;
        mc.access(0, AccessKind::Read, t_refi + Cycles(1));
        let s = mc.stats();
        assert_eq!((s.row_misses, s.row_conflicts, s.row_hits), (2, 1, 2));
        assert_eq!((s.reads, s.writes, s.refreshes), (4, 1, 1));
        // 3 activates × 2.0 + 4 reads × 3.5 + 1 write × 3.8 + 1 refresh × 28.0 nJ.
        let expected = 51.8e-9;
        assert!((EnergyParams::dynamic_joules(&s) - expected).abs() < 1e-18);
    }

    #[test]
    fn background_constant_is_single_source_of_truth() {
        // The helper is the named constant applied to ranks × seconds,
        // identical to the historical inline `150.0e-3 * ranks * s`.
        assert_eq!(EnergyParams::BACKGROUND_MW_PER_RANK, 150.0);
        let seconds = 0.25;
        let ranks = 4;
        let via_helper = EnergyParams::background_joules(ranks, seconds);
        let via_literal = 150.0e-3 * ranks as f64 * seconds;
        assert_eq!(via_helper, via_literal);
    }

    #[test]
    fn background_scales_with_ranks_and_time() {
        let j1 = EnergyParams::background_joules(1, 1.0);
        let j2 = EnergyParams::background_joules(2, 1.0);
        assert!((j2 / j1 - 2.0).abs() < 1e-9);
        assert!((j1 - 0.150).abs() < 1e-9); // 150 mW for 1 s
        let half = EnergyParams::background_joules(1, 0.5);
        assert!((j1 / half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        // Pricing summed controller counts is pricing their sum.
        let a = ControllerStats {
            reads: 1,
            row_misses: 1,
            ..ControllerStats::default()
        };
        let b = ControllerStats {
            reads: 1,
            writes: 1,
            row_conflicts: 1,
            refreshes: 1,
            ..ControllerStats::default()
        };
        let mut total = a;
        total.merge(&b);
        assert_eq!((total.reads, total.writes), (2, 1));
        let expected = (2.0 * 2.0 + 2.0 * 3.5 + 3.8 + 28.0) * 1e-9;
        assert!((EnergyParams::dynamic_joules(&total) - expected).abs() < 1e-18);
    }

    #[test]
    fn system_edp_baseline_identity() {
        // With identical variant == baseline, system EDP reduces to
        // (e_mem / f) * t.
        let edp = system_edp(1.0, 2.0, 1.0, 2.0, 0.18);
        let expect = (1.0 / 0.18) * 2.0;
        assert!((edp - expect).abs() < 1e-9);
    }

    #[test]
    fn faster_variant_lowers_system_edp_despite_higher_mem_energy() {
        // The paper's §VII result in miniature: +40% memory energy but
        // -15% runtime still lowers system EDP.
        let base = system_edp(1.0, 2.0, 1.0, 2.0, 0.18);
        let variant = system_edp(1.0, 2.0, 1.4, 1.7, 0.18);
        assert!(variant < base);
    }

    #[test]
    #[should_panic(expected = "memory fraction")]
    fn bad_fraction_rejected() {
        system_edp(1.0, 1.0, 1.0, 1.0, 1.5);
    }
}
