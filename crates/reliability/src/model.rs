//! The closed-form DUE/SDC model.
//!
//! Conventions (following §IV of the paper):
//!
//! * Rates are *per billion hours of operation* for the whole memory
//!   system.
//! * Each additional simultaneous failure inside one scrub interval
//!   contributes its FIT rate times the scrub-coincidence factor
//!   [`ReliabilityModel::SCRUB`] (10⁻⁹, the paper's constant).
//! * A DSD detection code misses a triple-chip error with probability
//!   6.9% ([`ReliabilityModel::DSD_MISS`], from Yeleswarapu & Somani);
//!   the same escape probability is applied to the first error pattern
//!   beyond any detection code's guarantee.

use crate::fit::{ThermalMapping, BASE_FIT};

/// A (DUE, SDC) rate pair, per billion hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueSdc {
    /// Detected-but-uncorrectable error rate.
    pub due: f64,
    /// Silent data corruption rate.
    pub sdc: f64,
}

/// The analytical reliability model for one memory-system configuration.
///
/// # Example
///
/// ```
/// use dve_reliability::model::ReliabilityModel;
///
/// let m = ReliabilityModel::paper_defaults();
/// let chipkill = m.chipkill();
/// assert!((chipkill.due - 1.0e-2).abs() / 1.0e-2 < 0.02); // ≈ 10⁻²
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityModel {
    /// Chips per DIMM (9 in the paper's single-rank ECC DIMMs).
    pub chips_per_dimm: usize,
    /// DIMMs in the (non-replicated) system: 32.
    pub dimms: usize,
    /// Per-chip FIT rates within a DIMM (uniform or thermal vector).
    pub chip_fit: Vec<f64>,
}

impl ReliabilityModel {
    /// Scrub-interval coincidence factor per extra simultaneous failure.
    pub const SCRUB: f64 = 1e-9;
    /// Probability a DSD code fails to detect a 3-chip error (6.9%).
    pub const DSD_MISS: f64 = 0.069;

    /// The paper's §IV-A configuration: 32 DIMMs × 9 chips, uniform
    /// FIT = 66.1.
    pub fn paper_defaults() -> ReliabilityModel {
        ReliabilityModel {
            chips_per_dimm: 9,
            dimms: 32,
            chip_fit: vec![BASE_FIT; 9],
        }
    }

    /// The thermal variant: same geometry, FIT vector scaled by the fan
    /// gradient.
    pub fn thermal() -> ReliabilityModel {
        ReliabilityModel {
            chips_per_dimm: 9,
            dimms: 32,
            chip_fit: crate::fit::thermal_fit_vector().to_vec(),
        }
    }

    fn sum_fit(&self) -> f64 {
        self.chip_fit.iter().sum()
    }

    fn sum_fit_sq(&self) -> f64 {
        self.chip_fit.iter().map(|f| f * f).sum()
    }

    fn sum_fit_cube(&self) -> f64 {
        self.chip_fit.iter().map(|f| f * f * f).sum()
    }

    /// Ordered k-tuples of *distinct* chips failing together in one DIMM,
    /// weighted by their FITs with the scrub factor applied to all but
    /// the first: Σ_{i≠j} f_i f_j·S for k = 2, etc. For the uniform case
    /// this reduces to the paper's `9f × 8f·S × 7f·S²...` expressions.
    fn simultaneous(&self, k: usize) -> f64 {
        let n = self.chips_per_dimm as f64;
        // Uniform shortcut when all FITs equal (keeps the arithmetic
        // identical to the paper's).
        let f0 = self.chip_fit[0];
        if self.chip_fit.iter().all(|&f| (f - f0).abs() < 1e-12) {
            let mut rate = n * f0;
            for j in 1..k {
                rate *= (n - j as f64) * f0 * Self::SCRUB;
            }
            return rate;
        }
        // Non-uniform: inclusion-exclusion for ordered distinct tuples.
        match k {
            2 => {
                let s1 = self.sum_fit();
                let s2 = self.sum_fit_sq();
                (s1 * s1 - s2) * Self::SCRUB
            }
            3 => {
                let s1 = self.sum_fit();
                let s2 = self.sum_fit_sq();
                let s3 = self.sum_fit_cube();
                (s1.powi(3) - 3.0 * s2 * s1 + 2.0 * s3) * Self::SCRUB * Self::SCRUB
            }
            4 => {
                let s1 = self.sum_fit();
                let s2 = self.sum_fit_sq();
                let s3 = self.sum_fit_cube();
                let s4: f64 = self.chip_fit.iter().map(|f| f.powi(4)).sum();
                (s1.powi(4) - 6.0 * s2 * s1 * s1 + 3.0 * s2 * s2 + 8.0 * s3 * s1 - 6.0 * s4)
                    * Self::SCRUB.powi(3)
            }
            _ => panic!("simultaneous() supports k in 2..=4"),
        }
    }

    // ----- §IV-A: Chipkill vs Dvé ------------------------------------

    /// Chipkill ECC: DUE when 2 chips of one DIMM fail in a scrub
    /// interval; SDC when 3 fail and the DSD code misses (6.9%).
    pub fn chipkill(&self) -> DueSdc {
        let due = self.simultaneous(2) * self.dimms as f64;
        let sdc = self.simultaneous(3) * self.dimms as f64 * Self::DSD_MISS;
        DueSdc { due, sdc }
    }

    /// Dvé DUE: the same-position chip on the replica DIMM fails together
    /// with a data chip — `[n·f × 1·f·S] × dimms × 2` in the uniform
    /// case. `mapping` selects which replica chip pairs with each data
    /// chip (thermal risk-inverse lowers the product).
    pub fn dve_due(&self, mapping: ThermalMapping) -> f64 {
        let n = self.chips_per_dimm;
        let mut pair_sum = 0.0;
        for i in 0..n {
            pair_sum += self.chip_fit[i] * self.chip_fit[mapping.pair(i, n)];
        }
        pair_sum * Self::SCRUB * self.dimms as f64 * 2.0
    }

    /// Dvé+DSD: DUE from replica pairing; SDC doubled versus Chipkill
    /// (twice the DIMM population can corrupt silently).
    pub fn dve_dsd(&self, mapping: ThermalMapping) -> DueSdc {
        DueSdc {
            due: self.dve_due(mapping),
            sdc: self.chipkill().sdc * 2.0,
        }
    }

    /// Dvé+TSD: same DUE; SDC requires ≥4 chips of one DIMM failing
    /// simultaneously *and* escaping the stronger code (same 6.9%
    /// residual escape factor applied to the first uncovered pattern).
    pub fn dve_tsd(&self, mapping: ThermalMapping) -> DueSdc {
        let sdc = self.simultaneous(4) * self.dimms as f64 * 2.0 * Self::DSD_MISS;
        DueSdc {
            due: self.dve_due(mapping),
            sdc,
        }
    }

    /// Intel-mirroring-like scheme with a TSD code: replicas exist but on
    /// the *same* board position (identity thermal mapping) — §IV-C's
    /// comparison point.
    pub fn intel_tsd(&self) -> DueSdc {
        let sdc = self.simultaneous(4) * self.dimms as f64 * 2.0 * Self::DSD_MISS;
        DueSdc {
            due: self.dve_due(ThermalMapping::Identity),
            sdc,
        }
    }

    // ----- §IV-B: IBM RAIM vs Dvé+Chipkill ----------------------------

    /// IBM RAIM: 5 channels × 8 Chipkill DIMMs, RAID-3; DUE when two
    /// corresponding Chipkill DIMMs on 2 of the 5 channels fail together:
    /// `[(DUE_ck × 8) × 4 × (DUE_ck × 1)·S] × 5`.
    pub fn raim(&self) -> DueSdc {
        let per_dimm_due = self.simultaneous(2); // one Chipkill DIMM's DUE
        let due = (per_dimm_due * 8.0) * 4.0 * (per_dimm_due * Self::SCRUB) * 5.0;
        // SDC limited by Chipkill ECC detection over all 40 DIMMs.
        let sdc = self.simultaneous(3) * 40.0 * Self::DSD_MISS;
        DueSdc { due, sdc }
    }

    /// Dvé layered over Chipkill DIMMs (64 DIMMs total): DUE needs 2
    /// pairs of same-position chips on the two replica DIMMs —
    /// `[n·f × (n-1)·f·S × 1·f·S × 1·f·S] × dimms × 2`.
    pub fn dve_chipkill(&self) -> DueSdc {
        let n = self.chips_per_dimm as f64;
        let f = self.chip_fit[0];
        let due = n
            * f
            * (n - 1.0)
            * f
            * Self::SCRUB
            * f
            * Self::SCRUB
            * f
            * Self::SCRUB
            * self.dimms as f64
            * 2.0;
        // SDC over 64 DIMMs of Chipkill detection.
        let sdc = self.simultaneous(3) * 64.0 * Self::DSD_MISS;
        DueSdc { due, sdc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() / expected.abs() < tol,
            "actual {actual:e}, expected {expected:e}"
        );
    }

    #[test]
    fn chipkill_matches_paper() {
        let m = ReliabilityModel::paper_defaults();
        let r = m.chipkill();
        close(r.due, 1.0e-2, 0.02); // paper: ≈10⁻²
        close(r.sdc, 3.1e-10, 0.05); // paper: 3.1×10⁻¹⁰
    }

    #[test]
    fn dve_dsd_matches_paper() {
        let m = ReliabilityModel::paper_defaults();
        let r = m.dve_dsd(ThermalMapping::Identity);
        close(r.due, 2.5e-3, 0.02); // paper: 2.5×10⁻³ (4× better DUE)
        close(r.sdc, 6.3e-10, 0.05); // paper: 6.3×10⁻¹⁰ (0.49×)
        let ck = m.chipkill();
        close(ck.due / r.due, 4.0, 0.01); // the 4× improvement
    }

    #[test]
    fn dve_tsd_matches_paper() {
        let m = ReliabilityModel::paper_defaults();
        let r = m.dve_tsd(ThermalMapping::Identity);
        close(r.due, 2.5e-3, 0.02);
        close(r.sdc, 2.5e-16, 0.05); // paper: 2.5×10⁻¹⁶ (~10⁶× better)
        let ck = m.chipkill();
        assert!(ck.sdc / r.sdc > 1e5, "about six orders of magnitude");
    }

    #[test]
    fn raim_matches_paper() {
        let m = ReliabilityModel::paper_defaults();
        let r = m.raim();
        close(r.due, 1.5e-14, 0.06); // paper: 1.5×10⁻¹⁴
        close(r.sdc, 4.0e-10, 0.05); // paper: 4.0×10⁻¹⁰
    }

    #[test]
    fn dve_chipkill_matches_paper() {
        let m = ReliabilityModel::paper_defaults();
        let r = m.dve_chipkill();
        close(r.due, 8.7e-17, 0.05); // paper: 8.7×10⁻¹⁷
        close(r.sdc, 6.3e-10, 0.05); // paper: 6.3×10⁻¹⁰
        let raim = m.raim();
        close(raim.due / r.due, 172.4, 0.06); // the 172× improvement
    }

    #[test]
    fn thermal_chipkill_matches_paper() {
        let m = ReliabilityModel::thermal();
        let r = m.chipkill();
        close(r.due, 2.2e-2, 0.03); // paper: 2.2×10⁻²
        close(r.sdc, 1.0e-9, 0.07); // paper: 1.0×10⁻⁹
    }

    #[test]
    fn thermal_dve_vs_intel_matches_paper() {
        let m = ReliabilityModel::thermal();
        let dve = m.dve_tsd(ThermalMapping::RiskInverse);
        let intel = m.intel_tsd();
        close(dve.due, 5.3e-3, 0.02); // paper: 5.3×10⁻³
        close(intel.due, 5.9e-3, 0.02); // paper: 5.9×10⁻³
                                        // Dvé's risk-inverse mapping lowers DUE by ≈11% vs Intel.
        let gain = intel.due / dve.due;
        assert!(gain > 1.08 && gain < 1.12, "gain = {gain}");
        // Both reach the ~10⁶× SDC improvement with TSD. (The paper
        // rounds to 1.1×10⁻¹⁵; our exact inclusion-exclusion over
        // ordered distinct 4-tuples gives 1.23×10⁻¹⁵.)
        close(dve.sdc, 1.1e-15, 0.15);
        close(intel.sdc, 1.1e-15, 0.15);
        // 4.15× over the thermal Chipkill baseline.
        let ck = m.chipkill();
        close(ck.due / dve.due, 4.15, 0.02);
        // And Intel's improvement is only ~3.72× (the paper computes it
        // from rounded table entries; the exact ratio is 3.80).
        close(ck.due / intel.due, 3.72, 0.03);
    }

    #[test]
    fn risk_inverse_is_optimal_pairing() {
        // Rearrangement inequality: pairing ascending with descending
        // minimizes the sum of products among all *symmetric* pairings.
        let m = ReliabilityModel::thermal();
        let inv = m.dve_due(ThermalMapping::RiskInverse);
        let ident = m.dve_due(ThermalMapping::Identity);
        assert!(inv < ident);
    }

    #[test]
    fn uniform_and_general_formulas_agree() {
        // The inclusion-exclusion path must reduce to the uniform-FIT
        // shortcut when given an (almost) uniform vector.
        let uniform = ReliabilityModel::paper_defaults();
        let mut nearly = uniform.clone();
        nearly.chip_fit[0] += 1e-6; // force the general path
        for k in 2..=4 {
            let a = uniform.simultaneous(k);
            let b = nearly.simultaneous(k);
            assert!((a - b).abs() / a < 1e-4, "k={k}: {a:e} vs {b:e}");
        }
    }

    #[test]
    #[should_panic(expected = "supports k")]
    fn simultaneous_bounds() {
        ReliabilityModel::thermal().simultaneous(5);
    }
}
