//! Empirical-vs-analytical cross-validation report.
//!
//! The sampler and the analytical [`AccelModel`] share one probability
//! space — independent per-chip failures at the same accelerated `p` —
//! so for every scheme the empirical uncorrectable mass (DUE + SDC,
//! since both spend the same "beyond the scheme's correction power"
//! budget) must land inside its Wilson interval around the model's
//! exact binomial expectation. Disagreement means the trial executor
//! and the §IV arithmetic have diverged, which is the bug this report
//! exists to catch.

use crate::runner::{
    wilson_interval, CampaignConfig, CampaignResult, OutcomeCounts, StratumResult,
};
use crate::sampler::Stratum;
use crate::trial::CampaignScheme;
use dve_reliability::accel::{AccelModel, WindowProbs};
use dve_reliability::table1_rows;
use std::fmt;

/// Did the empirical estimate agree with the analytical expectation?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The analytical value lies inside the 95% Wilson interval.
    Agree,
    /// It does not.
    Disagree,
}

/// Multiplicative slack granted to the SDC cross-check: the analytical
/// SDC terms are order-of-magnitude constants (the `n/q` miscorrection
/// locator hit-rate; the MDS minimum-weight escape density, which is
/// exact only for uniform-magnitude whole-chip faults), so the verdict
/// asks the model to land within the empirical CI *widened by this
/// factor* rather than inside it exactly. DUE combinatorics are exact
/// and get no such slack — only an additive allowance for the modeled
/// SDC mass, since the DUE/SDC *split* of the beyond-correction budget
/// is what the miscorrection constant approximates.
pub const SDC_MODEL_FIDELITY: f64 = 4.0;

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Agree => write!(f, "agree"),
            Verdict::Disagree => write!(f, "DISAGREE"),
        }
    }
}

/// One scheme's cross-validation row.
#[derive(Debug, Clone)]
pub struct SchemeReport {
    /// Scheme under test.
    pub scheme: CampaignScheme,
    /// Trials run.
    pub trials: u64,
    /// Empirical DUE proportion.
    pub empirical_due: f64,
    /// 95% Wilson interval around [`Self::empirical_due`].
    pub due_ci: (f64, f64),
    /// Analytical DUE expectation from [`AccelModel`].
    pub analytical_due: f64,
    /// Interval-membership verdict for the DUE rate.
    pub due_verdict: Verdict,
    /// Empirical SDC proportion.
    pub empirical_sdc: f64,
    /// 95% Wilson interval around [`Self::empirical_sdc`].
    pub sdc_ci: (f64, f64),
    /// Expected SDC mass (miscorrection / detection-miss model).
    pub analytical_sdc: f64,
    /// Interval-membership verdict for the SDC rate.
    pub sdc_verdict: Verdict,
    /// Per-stratum breakdown (empty for plain campaigns): cell mass,
    /// trial allocation, raw DUE/SDC counts and *conditional* Wilson
    /// intervals within each cell.
    pub strata: Vec<StratumRow>,
}

/// One stratum's row of a stratified scheme report.
#[derive(Debug, Clone)]
pub struct StratumRow {
    /// Which cell.
    pub stratum: Stratum,
    /// Exact cell mass under the plain law.
    pub weight: f64,
    /// Trials run inside the cell.
    pub trials: u64,
    /// DUE outcomes observed in the cell.
    pub due: u64,
    /// SDC outcomes observed in the cell.
    pub sdc: u64,
    /// 95% Wilson interval for the *conditional* DUE rate in the cell.
    pub due_ci: (f64, f64),
    /// 95% Wilson interval for the *conditional* SDC rate in the cell.
    pub sdc_ci: (f64, f64),
}

impl SchemeReport {
    /// Both rates agree with the model.
    pub fn agrees(&self) -> bool {
        self.due_verdict == Verdict::Agree && self.sdc_verdict == Verdict::Agree
    }
}

/// The full campaign report: one row per scheme plus derived ratios.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scheme rows, in [`CampaignScheme::ALL`] order.
    pub rows: Vec<SchemeReport>,
}

fn analytical(model: &AccelModel, scheme: CampaignScheme) -> WindowProbs {
    match scheme {
        CampaignScheme::Chipkill => model.chipkill(),
        CampaignScheme::DveDsd => model.dve_detect_only(),
        CampaignScheme::DveTsd => model.dve_tsd(),
        CampaignScheme::DveChipkill => model.dve_chipkill(),
    }
}

fn verdict(analytical: f64, ci: (f64, f64)) -> Verdict {
    if ci.0 <= analytical && analytical <= ci.1 {
        Verdict::Agree
    } else {
        Verdict::Disagree
    }
}

/// Reported intervals are 95% (`z = 1.96`); pass/fail *verdicts* use
/// the same intervals with their half-widths rescaled to `z = 3.89`
/// (two-sided ~99.99%). Eight verdicts gate every campaign run, and
/// stratification makes the 95% intervals tight *and* exactly
/// calibrated — an unbiased estimator misses a 95% interval 5% of the
/// time by construction, so gating at 95% would fail a clean long run
/// with probability ≈ 1 − 0.95⁸ ≈ 34%. At `z = 3.89` the per-run
/// false-alarm rate drops below 0.1% while any real bias larger than
/// ~2 interval widths still fails deterministically. (Verified
/// empirically: a 10⁷-trial stratified run put the Dvé+DSD DUE point
/// +2.9σ above the exact model value while a 2·10⁸-sample audit of the
/// conditional sampler showed no bias — exactly the fluctuation this
/// margin must absorb.)
const GATE_Z_SCALE: f64 = 3.89 / 1.96;

/// Rescales a 95% interval's half-widths around the point estimate to
/// the gate's `z` (see [`GATE_Z_SCALE`]).
fn gate_widen(point: f64, ci: (f64, f64)) -> (f64, f64) {
    (
        (point - GATE_Z_SCALE * (point - ci.0)).max(0.0),
        (point + GATE_Z_SCALE * (ci.1 - point)).min(1.0),
    )
}

/// Widens a CI additively on both sides (used to absorb the modeled
/// miscorrection mass into the DUE check, since the model's DUE/SDC
/// split of the exact beyond-correction budget is approximate).
fn widen_add(ci: (f64, f64), slack: f64) -> (f64, f64) {
    ((ci.0 - slack).max(0.0), ci.1 + slack)
}

/// Widens a CI multiplicatively by [`SDC_MODEL_FIDELITY`].
fn widen_mul(ci: (f64, f64)) -> (f64, f64) {
    (ci.0 / SDC_MODEL_FIDELITY, ci.1 * SDC_MODEL_FIDELITY)
}

/// Unbiased stratified estimate of an outcome rate with its ~95%
/// normal-approximation CI, from per-stratum counts and exact cell
/// masses: `p = Σ wₛ·p̂ₛ`, `Var = Σ wₛ²·p̃ₛ(1−p̃ₛ)/nₛ` with the
/// Agresti-style smoothed `p̃ₛ = (xₛ+½)/(nₛ+1)` in the variance term so
/// zero-count cells report honest (nonzero) uncertainty instead of a
/// collapsed interval. Cells with zero trials, zero/subnormal mass, or
/// a non-finite mass contribute nothing — in particular they never
/// divide by zero and never fold `inf`/`NaN` into the estimate. (The
/// plan builder already clamps underflowed masses to exactly `0.0` and
/// counts them as skipped; the guard here makes the estimator safe for
/// hand-built stratum results too.)
pub fn stratified_rate(
    strata: &[StratumResult],
    count: impl Fn(&OutcomeCounts) -> u64,
) -> (f64, (f64, f64)) {
    let mut point = 0.0;
    let mut var = 0.0;
    for s in strata {
        if s.trials == 0 || !s.weight.is_finite() || s.weight < f64::MIN_POSITIVE {
            continue;
        }
        let n = s.counts.total() as f64;
        let x = count(&s.counts) as f64;
        point += s.weight * (x / n);
        let smoothed = (x + 0.5) / (n + 1.0);
        var += s.weight * s.weight * smoothed * (1.0 - smoothed) / n;
    }
    let spread = 1.96 * var.sqrt();
    (
        point,
        ((point - spread).max(0.0), (point + spread).min(1.0)),
    )
}

impl CampaignReport {
    /// Cross-validates campaign results against the accelerated model.
    ///
    /// Plain campaigns use the raw outcome counts with Wilson
    /// intervals; stratified campaigns use the reweighted
    /// [`stratified_rate`] estimator (unbiased for the same plain-law
    /// rates) and additionally carry per-stratum rows.
    pub fn build(cfg: &CampaignConfig, results: &[CampaignResult]) -> CampaignReport {
        let model = AccelModel::new(cfg.params);
        let rows = results
            .iter()
            .map(|r| {
                let probs = analytical(&model, r.scheme);
                let n = r.counts.total();
                let (empirical_due, due_ci, empirical_sdc, sdc_ci) = if r.strata.is_empty() {
                    (
                        r.counts.due as f64 / n as f64,
                        wilson_interval(r.counts.due, n),
                        r.counts.sdc as f64 / n as f64,
                        wilson_interval(r.counts.sdc, n),
                    )
                } else {
                    let (due, due_ci) = stratified_rate(&r.strata, |c| c.due);
                    let (sdc, sdc_ci) = stratified_rate(&r.strata, |c| c.sdc);
                    (due, due_ci, sdc, sdc_ci)
                };
                let strata = r
                    .strata
                    .iter()
                    .map(|s| StratumRow {
                        stratum: s.stratum,
                        weight: s.weight,
                        trials: s.counts.total(),
                        due: s.counts.due,
                        sdc: s.counts.sdc,
                        due_ci: wilson_interval(s.counts.due, s.counts.total()),
                        sdc_ci: wilson_interval(s.counts.sdc, s.counts.total()),
                    })
                    .collect();
                SchemeReport {
                    scheme: r.scheme,
                    trials: n,
                    empirical_due,
                    due_ci,
                    analytical_due: probs.due,
                    due_verdict: verdict(
                        probs.due,
                        widen_add(gate_widen(empirical_due, due_ci), probs.sdc_expected),
                    ),
                    empirical_sdc,
                    sdc_ci,
                    analytical_sdc: probs.sdc_expected,
                    sdc_verdict: verdict(
                        probs.sdc_expected,
                        widen_mul(gate_widen(empirical_sdc, sdc_ci)),
                    ),
                    strata,
                }
            })
            .collect();
        CampaignReport { rows }
    }

    /// Every scheme agreed on both rates.
    pub fn all_agree(&self) -> bool {
        self.rows.iter().all(SchemeReport::agrees)
    }

    /// Empirical Chipkill-to-scheme DUE improvement ratio — the axis
    /// Table I quotes (`None` when the scheme observed zero DUE trials,
    /// i.e. the improvement is unbounded at this trial count, or the
    /// baseline row is missing).
    pub fn improvement_over_chipkill(&self, scheme: CampaignScheme) -> Option<f64> {
        let base = self
            .rows
            .iter()
            .find(|r| r.scheme == CampaignScheme::Chipkill)?;
        let row = self.rows.iter().find(|r| r.scheme == scheme)?;
        if row.empirical_due == 0.0 {
            return None;
        }
        Some(base.empirical_due / row.empirical_due)
    }

    /// Renders the full report, including the real-scale Table I rows
    /// the accelerated campaign is standing in for.
    pub fn render(&self, cfg: &CampaignConfig) -> String {
        let mut out = String::new();
        let p = cfg.params;
        out.push_str(&format!(
            "campaign: {} trials/scheme, seed {:#x}, {} workers, p(chip)={} over {} chips\n\n",
            cfg.trials, cfg.master_seed, cfg.workers, p.chip_fail_prob, p.chips_per_dimm
        ));
        out.push_str("scheme                DUE                                          SDC\n");
        out.push_str(&format!(
            "{:<14} {:>10} {:>23} {:>10} {:>8}   {:>10} {:>23} {:>10} {:>8}\n",
            "",
            "empirical",
            "95% CI",
            "analytic",
            "verdict",
            "empirical",
            "95% CI",
            "analytic",
            "verdict"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>10.2e} [{:>9.2e},{:>9.2e}] {:>10.2e} {:>8}   {:>10.2e} [{:>9.2e},{:>9.2e}] {:>10.2e} {:>8}\n",
                r.scheme.label(),
                r.empirical_due,
                r.due_ci.0,
                r.due_ci.1,
                r.analytical_due,
                r.due_verdict,
                r.empirical_sdc,
                r.sdc_ci.0,
                r.sdc_ci.1,
                r.analytical_sdc,
                r.sdc_verdict,
            ));
        }
        out.push('\n');
        for r in &self.rows {
            if r.strata.is_empty() {
                continue;
            }
            out.push_str(&format!("per-stratum breakdown ({}):\n", r.scheme.label()));
            out.push_str(&format!(
                "  {:<18} {:>12} {:>10} {:>6} {:>23} {:>6} {:>23}\n",
                "cell", "weight", "trials", "due", "due 95% CI", "sdc", "sdc 95% CI"
            ));
            for s in &r.strata {
                out.push_str(&format!(
                    "  {:<18} {:>12.4e} {:>10} {:>6} [{:>9.2e},{:>9.2e}] {:>6} [{:>9.2e},{:>9.2e}]\n",
                    s.stratum.label(),
                    s.weight,
                    s.trials,
                    s.due,
                    s.due_ci.0,
                    s.due_ci.1,
                    s.sdc,
                    s.sdc_ci.0,
                    s.sdc_ci.1,
                ));
            }
            out.push('\n');
        }
        for scheme in [CampaignScheme::DveDsd, CampaignScheme::DveChipkill] {
            match self.improvement_over_chipkill(scheme) {
                Some(x) => out.push_str(&format!(
                    "empirical DUE improvement, Chipkill -> {}: {:.1}x\n",
                    scheme.label(),
                    x
                )),
                None => out.push_str(&format!(
                    "empirical DUE improvement, Chipkill -> {}: unbounded (0 DUEs observed)\n",
                    scheme.label()
                )),
            }
        }
        out.push_str(&format!(
            "\noverall: {}\n",
            if self.all_agree() {
                "all schemes agree with the analytical model"
            } else {
                "MISMATCH between empirical and analytical rates"
            }
        ));
        out.push_str("\nreal-scale analytical Table I (per 10^9 hours) for reference:\n");
        for row in table1_rows() {
            out.push_str(&format!("  {row}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_all, run_campaign, SamplingMode};
    use dve_reliability::accel::AccelParams;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            master_seed: 0xCAFE,
            trials: 4000,
            workers: 4,
            params: AccelParams::paper_accelerated(),
            replay_ops: 0,
            sampling: SamplingMode::Plain,
        }
    }

    #[test]
    fn cross_validation_agrees_at_4k_trials() {
        let cfg = cfg();
        let results = run_all(&cfg);
        let report = CampaignReport::build(&cfg, &results);
        for r in &report.rows {
            assert!(
                r.agrees(),
                "{}: due emp {:.3e} CI [{:.3e},{:.3e}] vs {:.3e}; sdc emp {:.3e} CI [{:.3e},{:.3e}] vs {:.3e}",
                r.scheme.label(),
                r.empirical_due,
                r.due_ci.0,
                r.due_ci.1,
                r.analytical_due,
                r.empirical_sdc,
                r.sdc_ci.0,
                r.sdc_ci.1,
                r.analytical_sdc,
            );
        }
        assert!(report.all_agree());
    }

    #[test]
    fn stratified_estimate_matches_plain_within_ci() {
        // The reweighted stratified estimator targets the same plain-law
        // rates: at the seeded high-fault-rate config both estimators
        // must bracket each other's point estimates.
        let mut plain = cfg();
        plain.trials = 20_000;
        let mut strat = plain;
        strat.sampling = SamplingMode::stratified_default();
        for scheme in CampaignScheme::ALL {
            let rp = run_campaign(&plain, scheme);
            let rs = run_campaign(&strat, scheme);
            let rowp = &CampaignReport::build(&plain, &[rp]).rows[0];
            let rows = &CampaignReport::build(&strat, &[rs]).rows[0];
            assert!(rowp.strata.is_empty(), "plain row grew cells");
            assert!(!rows.strata.is_empty(), "stratified row lost its cells");
            // Union of the two CIs must cover both point estimates.
            let lo = rowp.due_ci.0.min(rows.due_ci.0);
            let hi = rowp.due_ci.1.max(rows.due_ci.1);
            assert!(
                lo <= rowp.empirical_due
                    && rowp.empirical_due <= hi
                    && lo <= rows.empirical_due
                    && rows.empirical_due <= hi,
                "{}: plain due {:.4e} [{:.3e},{:.3e}] vs stratified {:.4e} [{:.3e},{:.3e}]",
                scheme.label(),
                rowp.empirical_due,
                rowp.due_ci.0,
                rowp.due_ci.1,
                rows.empirical_due,
                rows.due_ci.0,
                rows.due_ci.1,
            );
        }
    }

    #[test]
    fn zero_probability_strata_produce_finite_estimates() {
        // With p = 0 every stratum except k=0 has zero mass and zero
        // trials; the estimator must skip them without dividing by zero.
        let mut c = cfg();
        c.trials = 500;
        c.params.chip_fail_prob = 0.0;
        c.sampling = SamplingMode::stratified_default();
        let results = run_all(&c);
        let report = CampaignReport::build(&c, &results);
        for r in &report.rows {
            assert!(r.empirical_due.is_finite() && r.empirical_sdc.is_finite());
            assert!(r.due_ci.0.is_finite() && r.due_ci.1.is_finite());
            assert!(r.sdc_ci.0.is_finite() && r.sdc_ci.1.is_finite());
            assert_eq!(r.empirical_due, 0.0);
            assert_eq!(r.empirical_sdc, 0.0);
        }
        // Rendering must not choke on the empty cells either.
        let text = report.render(&c);
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn degenerate_stratum_weights_never_poison_the_estimate() {
        // Hand-built rows with subnormal, zero, and non-finite masses:
        // the estimator must skip all of them and stay finite, keyed
        // only on the one healthy cell.
        use crate::runner::StratumResult;
        use crate::sampler::Stratum;
        let cell = |weight: f64, trials: u64, due: u64| StratumResult {
            stratum: Stratum {
                count: 1,
                tail: false,
                all_chip: false,
            },
            weight,
            trials,
            counts: OutcomeCounts {
                clean: trials - due,
                ce_transient: 0,
                ce_degraded: 0,
                due,
                sdc: 0,
            },
        };
        let strata = vec![
            cell(0.5, 100, 10),            // healthy
            cell(1e-310, 100, 100),        // subnormal mass: skip
            cell(0.0, 100, 100),           // zero mass: skip
            cell(f64::NAN, 100, 100),      // corrupt mass: skip
            cell(f64::INFINITY, 100, 100), // corrupt mass: skip
        ];
        let (point, (lo, hi)) = stratified_rate(&strata, |c| c.due);
        assert!(point.is_finite() && lo.is_finite() && hi.is_finite());
        assert!((point - 0.05).abs() < 1e-12, "point {point}");
        assert!(lo <= point && point <= hi);
    }

    #[test]
    fn stratified_render_includes_per_stratum_table() {
        let mut c = cfg();
        c.trials = 3_000;
        c.sampling = SamplingMode::stratified_default();
        let results = run_all(&c);
        let report = CampaignReport::build(&c, &results);
        let text = report.render(&c);
        assert!(text.contains("per-stratum breakdown"));
        assert!(text.contains("k=0"));
        assert!(text.contains("all-chip"));
    }

    #[test]
    fn dve_chipkill_improvement_exceeds_40x() {
        let mut cfg = cfg();
        cfg.trials = 20_000;
        let results = run_all(&cfg);
        let report = CampaignReport::build(&cfg, &results);
        // `None` means zero observed uncorrectables: even better than 40x.
        if let Some(x) = report.improvement_over_chipkill(CampaignScheme::DveChipkill) {
            assert!(x > 40.0, "improvement only {x:.1}x");
        }
    }

    #[test]
    fn render_mentions_every_scheme_and_verdicts() {
        let cfg = cfg();
        let results = run_all(&cfg);
        let report = CampaignReport::build(&cfg, &results);
        let text = report.render(&cfg);
        for s in CampaignScheme::ALL {
            assert!(text.contains(s.label()), "missing {}", s.label());
        }
        assert!(text.contains("agree"));
        assert!(text.contains("Table I"));
    }
}
