//! DRAM energy accounting and the energy-delay product metric (§VII).
//!
//! The paper measures the energy-delay product (EDP) of the DRAM
//! subsystem "using the Micron datasheet" and computes system EDP
//! assuming memory is ~18% of total system power in a 2-socket NUMA box
//! [Barroso et al.]. We use representative per-operation energies derived
//! from Micron 8 Gb DDR4-2400 IDD figures (VDD = 1.2 V); absolute joules
//! are not the point — the *relative* EDP between baseline and replicated
//! configurations is.

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

    /// Background energy of `ranks` ranks held in standby for
    /// `seconds`, in joules. The system's memory energy is
    /// [`EnergyModel::dynamic_joules`] plus this term.
    pub fn background_joules(ranks: usize, seconds: f64) -> f64 {
        Self::BACKGROUND_MW_PER_RANK * 1e-3 * ranks as f64 * seconds
    }
}

/// Counts the DRAM operations that cost dynamic energy.
///
/// # Example
///
/// ```
/// use dve_dram::energy::{EnergyModel, EnergyParams};
///
/// let mut e = EnergyModel::default();
/// e.count_read();
/// e.count_activate();
/// let expect = (EnergyParams::ACT_PRE_NJ + EnergyParams::READ_NJ) * 1e-9;
/// assert!((e.dynamic_joules() - expect).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnergyModel {
    activates: u64,
    reads: u64,
    writes: u64,
    refreshes: u64,
}

impl EnergyModel {
    /// Records one activate+precharge.
    pub fn count_activate(&mut self) {
        self.activates += 1;
    }

    /// Records one read burst.
    pub fn count_read(&mut self) {
        self.reads += 1;
    }

    /// Records one write burst.
    pub fn count_write(&mut self) {
        self.writes += 1;
    }

    /// Records one refresh command.
    pub fn count_refresh(&mut self) {
        self.refreshes += 1;
    }

    /// Merges counts from another model (e.g. per-channel submodels).
    pub fn merge(&mut self, other: &EnergyModel) {
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
    }

    /// Number of read bursts recorded.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write bursts recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of activates recorded.
    pub fn activates(&self) -> u64 {
        self.activates
    }

    /// Dynamic energy only (no background), in joules.
    pub fn dynamic_joules(&self) -> f64 {
        (self.activates as f64 * EnergyParams::ACT_PRE_NJ
            + self.reads as f64 * EnergyParams::READ_NJ
            + self.writes as f64 * EnergyParams::WRITE_NJ
            + self.refreshes as f64 * EnergyParams::REFRESH_NJ)
            * 1e-9
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

    #[test]
    fn dynamic_energy_adds_up() {
        let mut e = EnergyModel::default();
        e.count_activate();
        e.count_read();
        e.count_write();
        e.count_refresh();
        let expected = (2.0 + 3.5 + 3.8 + 28.0) * 1e-9;
        assert!((e.dynamic_joules() - expected).abs() < 1e-18);
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
        let mut a = EnergyModel::default();
        a.count_read();
        let mut b = EnergyModel::default();
        b.count_read();
        b.count_write();
        a.merge(&b);
        assert_eq!(a.reads(), 2);
        assert_eq!(a.writes(), 1);
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
