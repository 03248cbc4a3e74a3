//! Accelerated-time fault statistics for Monte Carlo campaigns.
//!
//! Real per-chip failure rates (66.1 FIT ≈ 6.6×10⁻⁸ failures/hour) are
//! far too small to observe in any simulated-trial budget: at real scale
//! a 10⁴-trial campaign would see zero events for every scheme.
//! Campaigns therefore run *time-compressed*: each trial observes one
//! scrub-interval window in which every chip fails independently with an
//! accelerated probability `p = FIT × 10⁻⁹ × window_hours × accel`.
//!
//! The point of this module is that the same closed-form combinatorics
//! the analytical Table I model uses can be evaluated **exactly** at the
//! accelerated `p`, giving per-window outcome probabilities in the *same
//! probability space the sampler draws from*. Empirical frequencies must
//! then agree with these within sampling error — any disagreement is a
//! bug in the campaign machinery, not a modeling gap — while the
//! *ratios* between schemes (the 4× Dvé-vs-Chipkill DUE gap, the ≥40×
//! Dvé+Chipkill gap) carry over to real scale because both are governed
//! by the same leading-order terms.

/// Parameters of one accelerated campaign window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelParams {
    /// Chips per DIMM (9 in the paper's configuration).
    pub chips_per_dimm: usize,
    /// Probability that one chip fails inside the observed window.
    pub chip_fail_prob: f64,
    /// Fraction of chip failures that are transient (clear on the
    /// write-repair of §V-B2) rather than permanent.
    pub transient_frac: f64,
}

impl AccelParams {
    /// Default campaign operating point: paper geometry, a per-window
    /// chip-failure probability of 5% (large enough that even
    /// Dvé+Chipkill's `O(p⁴)` DUE events materialize in 10⁴ trials),
    /// and a 70/30 transient/permanent split (field studies place
    /// transients at the majority; the exact split only moves the
    /// CE-transient vs CE-degraded ratio, not DUE/SDC).
    pub fn paper_accelerated() -> AccelParams {
        AccelParams {
            chips_per_dimm: 9,
            chip_fail_prob: 0.05,
            transient_frac: 0.7,
        }
    }
}

/// Exact binomial tail `P(X ≥ k)` for `X ~ Binomial(n, p)`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binomial_tail_ge(n: usize, p: f64, k: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // Sum the complement head with running binomial terms for stability.
    let mut head = 0.0;
    let mut term = (1.0 - p).powi(n as i32); // P(X = 0)
    for i in 0..k {
        head += term;
        // P(X=i+1) = P(X=i) * (n-i)/(i+1) * p/(1-p); guard p == 1.
        if (1.0 - p).abs() < f64::EPSILON {
            term = 0.0;
        } else {
            term *= (n - i) as f64 / (i + 1) as f64 * (p / (1.0 - p));
        }
    }
    (1.0 - head).max(0.0)
}

/// Probability that a correcting RS(18,16) decoder *miscorrects* a
/// random beyond-guarantee error pattern instead of flagging it: the
/// single-error locator `S₁/S₀` lands on one of the 18 valid positions
/// with probability ≈ `n/q = 18/255` ≈ 7.1% — numerically the paper's
/// 6.9% detection-miss constant for a DSD code facing a triple failure.
pub const RS_SSC_MISCORRECT: f64 = 18.0 / 255.0;

/// Per-window outcome probabilities for one scheme, evaluated in the
/// accelerated probability space (see module docs). `due` is exact up
/// to the (small) miscorrection factors noted per scheme;
/// `sdc_expected` models the real decoders' escape behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowProbs {
    /// Expected detected-but-uncorrectable probability: data lost *and*
    /// a machine check raised.
    pub due: f64,
    /// Expected silent escape probability. For correcting RS codes this
    /// is the [`RS_SSC_MISCORRECT`] share of beyond-guarantee patterns;
    /// for detect-only codes facing random symbol corruption it is the
    /// all-syndromes-zero probability ≈ q⁻ⁿˢʸᵐ, far smaller.
    pub sdc_expected: f64,
}

impl WindowProbs {
    /// Total uncorrectable mass `due + sdc`: every trial whose fault
    /// pattern exceeded the scheme's correction power, however the
    /// decoder reacted. The empirical `DUE + SDC` frequency must match
    /// this within sampling error.
    pub fn uncorrectable(&self) -> f64 {
        self.due + self.sdc_expected
    }
}

/// The accelerated analogue of [`ReliabilityModel`](crate::model::ReliabilityModel): exact per-window
/// combinatorics over one DIMM (Chipkill) or one DIMM pair (Dvé).
///
/// # Example
///
/// ```
/// use dve_reliability::accel::{AccelModel, AccelParams};
///
/// let m = AccelModel::new(AccelParams::paper_accelerated());
/// let ck = m.chipkill();
/// let dve = m.dve_detect_only();
/// // The paper's 4× DUE gap survives acceleration to leading order.
/// let ratio = ck.uncorrectable() / dve.uncorrectable();
/// assert!(ratio > 3.0 && ratio < 4.5, "ratio = {ratio}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelModel {
    params: AccelParams,
}

impl AccelModel {
    /// Builds the model for the given window parameters.
    pub fn new(params: AccelParams) -> AccelModel {
        AccelModel { params }
    }

    /// The window parameters.
    pub fn params(&self) -> AccelParams {
        self.params
    }

    /// Chipkill on a single DIMM: `k ~ Binomial(n, p)` chips fail;
    /// the RS(18,16) code corrects `k = 1` and loses data at `k ≥ 2`,
    /// where the beyond-guarantee mass splits into a miscorrected
    /// (silent) share and a flagged (DUE) share.
    pub fn chipkill(&self) -> WindowProbs {
        let n = self.params.chips_per_dimm;
        let p = self.params.chip_fail_prob;
        let beyond = binomial_tail_ge(n, p, 2);
        let sdc = beyond * RS_SSC_MISCORRECT;
        WindowProbs {
            due: beyond - sdc,
            sdc_expected: sdc,
        }
    }

    /// Dvé with the detect-only DSD code (RS(18,16) over GF(2⁸), two
    /// check symbols, distance 3): data chip `i` is replicated at the
    /// paired chip of the replica DIMM, so a symbol is unrecoverable iff
    /// *both* chips of a pair fail — the pair-overlap count is
    /// `o ~ Binomial(n, p²)` and data is lost at `o ≥ 1`.
    pub fn dve_detect_only(&self) -> WindowProbs {
        let n = self.params.chips_per_dimm;
        let p = self.params.chip_fail_prob;
        let p2 = p * p;
        WindowProbs {
            due: binomial_tail_ge(n, p2, 1),
            sdc_expected: self.detect_only_escape(3, 1.0 / (255.0 * 255.0)),
        }
    }

    /// Dvé with the detect-only TSD code (RS over GF(2¹⁶), three check
    /// symbols, distance 4): identical overlap combinatorics to DSD, but
    /// a silent escape must zero three 16-bit syndromes at once, pushing
    /// the per-pattern escape mass to ≈ q⁻² = 65535⁻² — unobservable at
    /// any realistic trial volume.
    pub fn dve_tsd(&self) -> WindowProbs {
        let n = self.params.chips_per_dimm;
        let p = self.params.chip_fail_prob;
        let p2 = p * p;
        WindowProbs {
            due: binomial_tail_ge(n, p2, 1),
            sdc_expected: self.detect_only_escape(4, 1.0 / (65535.0f64 * 65535.0)),
        }
    }

    /// Silent-escape mass of a distance-`d` detect-only code (`min_err =
    /// d`): the lightest escaping pattern corrupts `d` symbols of one
    /// copy (weight < d never zeroes all syndromes), and each such
    /// pattern escapes with probability ≈ `per_pattern` — the
    /// minimum-weight-codeword density `(q-1)/(q-1)^d` of an MDS code,
    /// exact for whole-chip (uniform-magnitude) faults and an
    /// order-of-magnitude estimate for bit/pin-restricted ones. The
    /// `(1 + P(k≥1))` factor adds the symmetric replica-side escape,
    /// which is only reachable once the primary has flagged.
    fn detect_only_escape(&self, min_err: usize, per_pattern: f64) -> f64 {
        let n = self.params.chips_per_dimm;
        let p = self.params.chip_fail_prob;
        binomial_tail_ge(n, p, min_err) * (1.0 + binomial_tail_ge(n, p, 1)) * per_pattern
    }

    /// Dvé over Chipkill DIMMs: each copy locally corrects one lost
    /// symbol, so a DUE needs pair-overlap `o ≥ 2` *and* both decoders
    /// to flag (rather than miscorrect) their beyond-guarantee pattern.
    pub fn dve_chipkill(&self) -> WindowProbs {
        let n = self.params.chips_per_dimm;
        let p = self.params.chip_fail_prob;
        let p2 = p * p;
        let m = RS_SSC_MISCORRECT;
        let beyond = binomial_tail_ge(n, p, 2); // one copy, k >= 2
                                                // The primary copy still runs a correcting RS(18,16): its ≈7%
                                                // miscorrection of beyond-guarantee patterns is silent *before*
                                                // the replica is ever consulted (and the replica's decoder can
                                                // miscorrect too, once the primary flags), so SDC tracks the
                                                // Chipkill baseline — Table I shows the same effect: Dvé+Chipkill
                                                // improves DUE by orders of magnitude while SDC stays at
                                                // Chipkill scale.
        let sdc = beyond * m * (1.0 + (1.0 - m) * beyond);
        WindowProbs {
            due: binomial_tail_ge(n, p2, 2) * (1.0 - m) * (1.0 - m),
            sdc_expected: sdc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tail_edges() {
        assert_eq!(binomial_tail_ge(9, 0.3, 0), 1.0);
        assert_eq!(binomial_tail_ge(9, 0.3, 10), 0.0);
        assert!((binomial_tail_ge(1, 0.25, 1) - 0.25).abs() < 1e-12);
        assert!((binomial_tail_ge(9, 1.0, 9) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_tail_ge(9, 0.0, 1), 0.0);
    }

    #[test]
    fn binomial_tail_matches_direct_sum() {
        // Direct evaluation via factorials for a small case.
        let n: usize = 9;
        let p: f64 = 0.05;
        let choose = |n: u64, k: u64| -> f64 {
            let mut c = 1.0;
            for i in 0..k {
                c = c * (n - i) as f64 / (i + 1) as f64;
            }
            c
        };
        for k in 0..=9usize {
            let direct: f64 = (k..=n)
                .map(|i| {
                    choose(n as u64, i as u64) * p.powi(i as i32) * (1.0 - p).powi((n - i) as i32)
                })
                .sum();
            let fast = binomial_tail_ge(n, p, k);
            assert!(
                (direct - fast).abs() < 1e-12,
                "k={k}: {direct:e} vs {fast:e}"
            );
        }
    }

    #[test]
    fn accelerated_ratios_track_table1_to_leading_order() {
        // As p → 0 the accelerated ratios converge on the paper's:
        // Chipkill/Dvé DUE → C(9,2)p² / 9p² = 4.
        let m = AccelModel::new(AccelParams {
            chips_per_dimm: 9,
            chip_fail_prob: 1e-4,
            transient_frac: 0.7,
        });
        // Compare the raw beyond-correction masses: Chipkill's DUE+SDC
        // (= P(k >= 2) exactly) against the detect-only DUE (= P(o >= 1)
        // exactly): C(9,2)p² / 9p² = 4.
        let ratio = m.chipkill().uncorrectable() / m.dve_detect_only().due;
        assert!((ratio - 4.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn dve_chipkill_due_is_far_below_chipkill() {
        let m = AccelModel::new(AccelParams::paper_accelerated());
        let ck = m.chipkill().due;
        let dck = m.dve_chipkill().due;
        assert!(ck / dck > 40.0, "improvement = {}", ck / dck);
    }
}
