//! Fault-event sampling for accelerated campaign windows.
//!
//! Each trial observes one scrub-interval window over a replicated DIMM
//! pair (or a single DIMM for non-replicated schemes). The sampler draws
//! independent per-chip failures at the accelerated probability from
//! [`AccelParams`], then refines each failure with a granularity (§II's
//! anatomy: single cell upset, pin/lane, whole chip) and a
//! transient/permanent nature. Granularity decides the corruption
//! *pattern* inside the chip's codeword symbol; every granularity
//! corrupts at least one bit of exactly one symbol, so the symbol-level
//! combinatorics of the analytical model are unchanged — which is what
//! makes exact cross-validation possible.
//!
//! Two sampling regimes share one law:
//!
//! * **Plain** ([`FaultSampler::sample_into`], over a replicated pair or
//!   a single DIMM): the per-window fault count is drawn from the exact
//!   `Binomial(slots, p)` via a precomputed inverse CDF, then a uniform
//!   `k`-subset of slots is chosen by partial Fisher–Yates. This is distributionally
//!   identical to the per-chip Bernoulli loop it replaced but costs one
//!   `f64` draw instead of `slots` draws in the overwhelmingly common
//!   fault-free window.
//! * **Stratified** ([`StrataPlan`] + [`FaultSampler::sample_stratum`]):
//!   the same law partitioned by `(fault count, all-chip-granularity)`
//!   strata. Rare tail cells — the ones that decide SDC rates — get a
//!   fixed share of the trial budget, and each stratum's exact
//!   probability mass under the plain law is recorded so the estimator
//!   can reweight without bias (see `report::stratified_rate`).

use dve_reliability::accel::AccelParams;
use dve_sim::rng::SplitMix64;

/// Which copy of the replicated pair a fault lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The socket-local (home) copy.
    Primary,
    /// The remote replica copy.
    Replica,
}

/// Within-chip corruption pattern (Fig. 2's fault anatomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Single cell upset: one bit of the chip's symbol flips.
    Bit,
    /// Pin/lane fault: a short burst of bits inside the symbol.
    Pin,
    /// Whole-device failure: the symbol is fully randomized.
    Chip,
}

/// One sampled chip failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipFault {
    /// Which copy it affects.
    pub side: Side,
    /// Device index within the DIMM (`0..chips_per_dimm`).
    pub chip: usize,
    /// Corruption pattern inside the device's symbol.
    pub granularity: Granularity,
    /// Whether the failure clears on the §V-B2 write-repair (transient)
    /// or persists (permanent).
    pub transient: bool,
}

/// The fault set of one trial window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSample {
    /// All sampled failures, primary side first, ascending chip index.
    pub faults: Vec<ChipFault>,
}

impl FaultSample {
    /// Chip indices failed on one side, ascending.
    pub fn chips(&self, side: Side) -> Vec<usize> {
        self.faults
            .iter()
            .filter(|f| f.side == side)
            .map(|f| f.chip)
            .collect()
    }

    /// Number of *paired* failures: chips `i` failed on the primary
    /// whose partner `pair(i)` also failed on the replica. Under Dvé's
    /// layout a symbol is unrecoverable from either copy exactly when
    /// its pair overlaps, so this count drives DUE classification.
    ///
    /// Chip indices at or above 64 never pair (the samplers draw at most
    /// 32 chips per side).
    pub fn pair_overlap(&self, pair: impl Fn(usize) -> usize) -> usize {
        let bit = |chip: usize| if chip < 64 { 1u64 << chip } else { 0 };
        let replica = self
            .faults
            .iter()
            .filter(|f| f.side == Side::Replica)
            .fold(0, |mask, f| mask | bit(f.chip));
        self.faults
            .iter()
            .filter(|f| f.side == Side::Primary && replica & bit(pair(f.chip)) != 0)
            .count()
    }

    /// Whether every fault on `side` is transient.
    pub fn all_transient(&self, side: Side) -> bool {
        self.faults
            .iter()
            .filter(|f| f.side == side)
            .all(|f| f.transient)
    }

    /// Whether any fault is active at all.
    pub fn any(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Fraction of failures that are single-bit upsets.
const BIT_FRAC: f64 = 0.55;
/// Fraction of failures that are pin/lane bursts (the rest are
/// whole-chip).
const PIN_FRAC: f64 = 0.25;
/// Fraction of failures that randomize the whole device symbol. These
/// are the only faults with uniform error magnitudes, so miscorrection
/// and detection-escape events concentrate in all-chip fault patterns —
/// which is why the strata split on this indicator.
pub const CHIP_FRAC: f64 = 1.0 - BIT_FRAC - PIN_FRAC;

/// Upper bound on slots (`2 * chips_per_dimm`) the samplers support.
const MAX_SLOTS: usize = 64;

/// Draws [`FaultSample`]s from accelerated window parameters.
///
/// # Example
///
/// ```
/// use dve_campaign::sampler::{FaultSample, FaultSampler};
/// use dve_reliability::accel::AccelParams;
/// use dve_sim::rng::SplitMix64;
///
/// let s = FaultSampler::new(AccelParams::paper_accelerated());
/// let mut rng = SplitMix64::new(7);
/// let mut sample = FaultSample::default();
/// s.sample_into(true, &mut rng, &mut sample);
/// for f in &sample.faults {
///     assert!(f.chip < 9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FaultSampler {
    params: AccelParams,
    /// Inverse-CDF table for the per-side fault count:
    /// `side_cum[k] = P(Binomial(chips_per_dimm, p) <= k)`.
    side_cum: Vec<f64>,
}

impl FaultSampler {
    /// Creates a sampler for the given window parameters.
    pub fn new(params: AccelParams) -> FaultSampler {
        assert!(
            params.chips_per_dimm <= MAX_SLOTS / 2,
            "sampler supports at most {} chips per DIMM",
            MAX_SLOTS / 2
        );
        let pmf = binomial_pmf(params.chips_per_dimm, params.chip_fail_prob);
        FaultSampler {
            params,
            side_cum: cumulative(&pmf),
        }
    }

    /// The window parameters.
    pub fn params(&self) -> AccelParams {
        self.params
    }

    /// Samples one window over a replicated DIMM pair (`replicated`) or
    /// a single DIMM into a reused `out`: allocation-free once `out` has
    /// held a full window.
    pub fn sample_into(&self, replicated: bool, rng: &mut SplitMix64, out: &mut FaultSample) {
        out.faults.clear();
        self.sample_side(Side::Primary, rng, &mut out.faults);
        if replicated {
            self.sample_side(Side::Replica, rng, &mut out.faults);
        }
    }

    /// Draws one side's faults: an exact binomial count via inverse CDF,
    /// then a uniform subset of chips, then per-fault refinement in
    /// ascending chip order — the same law as a per-chip Bernoulli scan.
    fn sample_side(&self, side: Side, rng: &mut SplitMix64, out: &mut Vec<ChipFault>) {
        let k = draw_index(&self.side_cum, rng);
        if k == 0 {
            return;
        }
        let n = self.params.chips_per_dimm;
        let (chips, k) = sorted_subset(n, k, rng);
        for &chip in &chips[..k] {
            let granularity = roll_granularity(rng);
            let transient = rng.chance(self.params.transient_frac);
            out.push(ChipFault {
                side,
                chip: chip as usize,
                granularity,
                transient,
            });
        }
    }

    /// Samples one window *conditioned on a stratum* of `plan`: the
    /// fault count (exact, or inverse-CDF within the tail), a uniform
    /// slot subset, and granularities conditioned on the stratum's
    /// all-chip indicator. Combined with the stratum's exact `weight`,
    /// this reproduces the plain law piecewise — the basis of the
    /// unbiased stratified estimator.
    pub fn sample_stratum(
        &self,
        plan: &StrataPlan,
        spec: &StratumSpec,
        rng: &mut SplitMix64,
    ) -> FaultSample {
        let mut out = FaultSample::default();
        self.sample_stratum_into(plan, spec, rng, &mut out);
        out
    }

    /// [`sample_stratum`](Self::sample_stratum) into a reused `out`:
    /// allocation-free once `out` has held a full window.
    pub fn sample_stratum_into(
        &self,
        plan: &StrataPlan,
        spec: &StratumSpec,
        rng: &mut SplitMix64,
        out: &mut FaultSample,
    ) {
        out.faults.clear();
        let k = if spec.stratum.tail {
            spec.stratum.count as usize + draw_index(&spec.tail_cum, rng)
        } else {
            spec.stratum.count as usize
        };
        if k == 0 {
            return;
        }
        let (slots, k) = sorted_subset(plan.slots, k, rng);
        let mut grans = [Granularity::Chip; MAX_SLOTS];
        if spec.stratum.all_chip {
            // Conditioning pins every granularity; no rolls needed.
        } else {
            // Rejection-sample the granularity vector conditioned on
            // "not all whole-chip". Acceptance >= 1 - CHIP_FRAC per
            // round, so the loop terminates almost immediately.
            loop {
                let mut any_partial = false;
                for g in grans.iter_mut().take(k) {
                    *g = roll_granularity(rng);
                    any_partial |= *g != Granularity::Chip;
                }
                if any_partial {
                    break;
                }
            }
        }
        let n = self.params.chips_per_dimm;
        for i in 0..k {
            let slot = slots[i] as usize;
            let (side, chip) = if slot < n {
                (Side::Primary, slot)
            } else {
                (Side::Replica, slot - n)
            };
            let transient = rng.chance(self.params.transient_frac);
            out.faults.push(ChipFault {
                side,
                chip,
                granularity: grans[i],
                transient,
            });
        }
    }
}

/// Rolls one fault's granularity from the paper's anatomy mix.
fn roll_granularity(rng: &mut SplitMix64) -> Granularity {
    let roll = rng.next_f64();
    if roll < BIT_FRAC {
        Granularity::Bit
    } else if roll < BIT_FRAC + PIN_FRAC {
        Granularity::Pin
    } else {
        Granularity::Chip
    }
}

/// Draws an index from a cumulative distribution table:
/// the smallest `k` with `u < cum[k]`.
fn draw_index(cum: &[f64], rng: &mut SplitMix64) -> usize {
    let u = rng.next_f64();
    cum.iter()
        .position(|&c| u < c)
        .unwrap_or(cum.len().saturating_sub(1))
}

/// Chooses a uniform `k`-subset of `0..n` by partial Fisher–Yates and
/// returns it sorted ascending (the sampler's ordering invariant).
fn sorted_subset(n: usize, k: usize, rng: &mut SplitMix64) -> ([u8; MAX_SLOTS], usize) {
    debug_assert!(n <= MAX_SLOTS && k <= n);
    let mut slots = [0u8; MAX_SLOTS];
    for (i, s) in slots.iter_mut().enumerate().take(n) {
        *s = i as u8;
    }
    for i in 0..k {
        let j = i + rng.next_below((n - i) as u64) as usize;
        slots.swap(i, j);
    }
    slots[..k].sort_unstable();
    (slots, k)
}

/// `Binomial(n, p)` probability mass function, `pmf[k] = P(K = k)`,
/// computed by the stable multiplicative recurrence.
///
/// The recurrence is seeded from the mode-side end of the distribution:
/// for `p > 0.5` it runs on the complement and mirrors the result
/// (`Binomial(n, p)[k] == Binomial(n, 1 - p)[n - k]`). Seeding from
/// `q^n` directly would underflow to `0.0` for `p` near 1 (at `n = 36`
/// that happens before `q` itself is anywhere near subnormal), zeroing
/// *every* entry of the table — including the ones carrying essentially
/// all of the probability mass. Individual far-tail entries can still
/// underflow to subnormal/zero at extreme rates; [`StrataPlan::build`]
/// treats those cells as skipped rather than reweighting by them.
fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
    let mut pmf = vec![0.0; n + 1];
    if p <= 0.0 {
        pmf[0] = 1.0;
        return pmf;
    }
    if p >= 1.0 {
        pmf[n] = 1.0;
        return pmf;
    }
    let (p, mirrored) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    let q = 1.0 - p;
    // Here `q >= 0.5`, so the seed `q^n` and the ratio `p / q` are both
    // well inside the normal f64 range for any supported `n`.
    pmf[0] = q.powi(n as i32);
    for k in 0..n {
        pmf[k + 1] = pmf[k] * ((n - k) as f64 / (k + 1) as f64) * (p / q);
    }
    if mirrored {
        pmf.reverse();
    }
    pmf
}

/// Clamps an underflowed stratum mass to exactly zero.
///
/// A subnormal weight is a sign the exact mass fell off the bottom of
/// f64: reweighting by it (dividing conditional tables by it, scaling
/// rates up by its reciprocal) amplifies representation error by up to
/// ~10^308 and can round through `inf`/`NaN` in downstream arithmetic.
/// Such cells carry no statistically usable information anyway, so they
/// are excluded from sampling and counted in [`StrataPlan::skipped`].
fn usable_mass(w: f64) -> f64 {
    debug_assert!(w.is_finite() && w >= 0.0, "stratum mass {w} out of range");
    if w >= f64::MIN_POSITIVE {
        w
    } else {
        0.0
    }
}

/// Running-sum table, clamped so the final entry is exactly 1.
fn cumulative(pmf: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cum: Vec<f64> = pmf
        .iter()
        .map(|&w| {
            acc += w;
            acc.min(1.0)
        })
        .collect();
    if let Some(last) = cum.last_mut() {
        *last = 1.0;
    }
    cum
}

/// One cell of the stratification: windows bucketed by total fault
/// count across all sampled slots and by whether *every* fault is
/// whole-chip granularity.
///
/// The all-chip split matters because whole-chip faults are the only
/// ones with uniform error magnitudes — miscorrections and detection
/// escapes concentrate there, and those cells get the bulk of the
/// oversampling budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stratum {
    /// Exact fault count when `tail` is false; the lower edge of the
    /// open tail (`count..=slots`) when `tail` is true.
    pub count: u8,
    /// Whether this stratum aggregates all counts `>= count`.
    pub tail: bool,
    /// Whether every fault in the window is `Granularity::Chip`.
    /// Always false for the empty stratum (`count == 0`).
    pub all_chip: bool,
}

impl Stratum {
    /// Short human-readable cell name for reports, e.g. `k=2 all-chip`
    /// or `k>=4 mixed`.
    pub fn label(&self) -> String {
        let cmp = if self.tail { ">=" } else { "=" };
        if self.count == 0 && !self.tail {
            return "k=0".to_string();
        }
        let class = if self.all_chip { "all-chip" } else { "mixed" };
        format!("k{cmp}{} {class}", self.count)
    }
}

/// One stratum with its exact probability mass, its slice of the trial
/// budget, and (for tail strata) the conditional count distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSpec {
    /// Which cell this is.
    pub stratum: Stratum,
    /// Exact probability mass of the cell under the plain sampling law.
    pub weight: f64,
    /// Number of trials allocated to the cell.
    pub trials: u64,
    /// First trial index of the cell's contiguous `[start, start+trials)`
    /// range — contiguity keeps trial->stratum assignment a pure
    /// function of the trial index, independent of worker scheduling.
    pub start: u64,
    /// Tail strata only: inverse-CDF table over counts
    /// `count..=slots`, conditioned on this cell.
    tail_cum: Vec<f64>,
}

/// A full-budget stratified sampling plan over one campaign's trials.
///
/// Strata partition the plain law by `(count, all-chip)`; each cell's
/// `weight` is its exact mass, so `sum(weights) == 1` and the
/// reweighted estimator is unbiased. Trial indices are carved into
/// contiguous per-cell ranges, so a trial's stratum — like everything
/// else about it — is a pure function of `(plan, trial index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StrataPlan {
    /// Total Bernoulli slots per window: `chips_per_dimm` for
    /// single-DIMM schemes, `2 * chips_per_dimm` for replicated pairs.
    pub slots: usize,
    /// Lower edge of the aggregated tail cells.
    pub tail_min: u8,
    /// Total trials across all cells.
    pub total_trials: u64,
    /// Number of cells excluded from sampling because their exact
    /// probability mass is zero or underflowed to subnormal. Skipped
    /// cells keep a `weight` of exactly `0.0` and receive no trials,
    /// so the reweighted estimator never divides or scales by an
    /// unrepresentably small mass.
    pub skipped: usize,
    /// The cells, in trial-index order.
    pub strata: Vec<StratumSpec>,
}

/// Default tail edge: counts `0..=3` get exact cells (3 whole-chip
/// faults on one side is the lightest DSD/TSD detection-escape
/// pattern), everything heavier aggregates into the tail.
pub const DEFAULT_TAIL_MIN: u8 = 4;

impl StrataPlan {
    /// Builds the plan for `trials` windows under `params`.
    ///
    /// `replicated` selects pair (2n slots) vs single-DIMM (n slots)
    /// windows. `tail_min` is clamped to `[2, slots]`. Cells whose
    /// probability mass is zero — or so small it underflows to a
    /// subnormal f64 — receive zero trials and are tallied in
    /// [`StrataPlan::skipped`]: sampling a zero-probability condition
    /// is undefined, and reweighting by an underflowed mass would let
    /// `inf`/`NaN` into the estimator.
    pub fn build(params: &AccelParams, replicated: bool, tail_min: u8, trials: u64) -> StrataPlan {
        let n = params.chips_per_dimm;
        let slots = if replicated { 2 * n } else { n };
        assert!(slots <= MAX_SLOTS, "too many slots for the sampler");
        let tail_min = tail_min.clamp(2, slots as u8);
        let pmf = binomial_pmf(slots, params.chip_fail_prob);
        let c = CHIP_FRAC;

        let mut strata = Vec::new();
        let mut push = |stratum: Stratum, weight: f64, tail_cum: Vec<f64>| {
            strata.push(StratumSpec {
                stratum,
                weight: usable_mass(weight),
                trials: 0,
                start: 0,
                tail_cum,
            });
        };

        push(
            Stratum {
                count: 0,
                tail: false,
                all_chip: false,
            },
            pmf[0],
            Vec::new(),
        );
        for (k, &pmf_k) in pmf.iter().enumerate().take(tail_min as usize).skip(1) {
            let all_chip_mass = pmf_k * c.powi(k as i32);
            push(
                Stratum {
                    count: k as u8,
                    tail: false,
                    all_chip: false,
                },
                pmf_k - all_chip_mass,
                Vec::new(),
            );
            push(
                Stratum {
                    count: k as u8,
                    tail: false,
                    all_chip: true,
                },
                all_chip_mass,
                Vec::new(),
            );
        }
        // Tail cells: aggregate mass plus the conditional count law.
        for all_chip in [false, true] {
            let cell_pmf: Vec<f64> = (tail_min as usize..=slots)
                .map(|k| {
                    let ck = c.powi(k as i32);
                    pmf[k] * if all_chip { ck } else { 1.0 - ck }
                })
                .collect();
            let mass = usable_mass(cell_pmf.iter().sum());
            // Normalize the conditional count law only against a mass
            // the FPU can actually divide by; an underflowed cell keeps
            // an empty table (it gets no trials, so it is never drawn).
            let tail_cum = if mass > 0.0 {
                cumulative(&cell_pmf.iter().map(|w| w / mass).collect::<Vec<_>>())
            } else {
                Vec::new()
            };
            push(
                Stratum {
                    count: tail_min,
                    tail: true,
                    all_chip,
                },
                mass,
                tail_cum,
            );
        }

        allocate_trials(&mut strata, trials);
        let mut start = 0;
        for spec in &mut strata {
            spec.start = start;
            start += spec.trials;
        }
        let skipped = strata.iter().filter(|s| s.weight == 0.0).count();
        StrataPlan {
            slots,
            tail_min,
            total_trials: trials,
            skipped,
            strata,
        }
    }

    /// Index of the stratum owning `trial`.
    pub fn stratum_of(&self, trial: u64) -> usize {
        debug_assert!(trial < self.total_trials);
        let idx = self.strata.partition_point(|s| s.start + s.trials <= trial);
        debug_assert!(idx < self.strata.len());
        idx.min(self.strata.len() - 1)
    }
}

/// The oversampling budget, in relative shares, for each cell class.
/// Rare all-chip cells — where miscorrection/escape events live — get
/// the bulk; common cells keep just enough trials to pin their (large,
/// easy) conditional rates.
fn allocation_share(s: &Stratum) -> f64 {
    if s.count == 0 && !s.tail {
        return 1.0;
    }
    match (s.all_chip, s.tail, s.count) {
        (false, false, 1) => 4.0,
        (false, _, _) => 8.0,
        (true, false, 1) => 2.0,
        (true, false, 2) => 15.0,
        (true, _, _) => 27.0,
    }
}

/// Splits `trials` across cells proportionally to [`allocation_share`]
/// (zero-mass cells get nothing) with largest-remainder rounding, so
/// the counts are deterministic and sum exactly to `trials`.
fn allocate_trials(strata: &mut [StratumSpec], trials: u64) {
    let shares: Vec<f64> = strata
        .iter()
        .map(|s| {
            if s.weight > 0.0 {
                allocation_share(&s.stratum)
            } else {
                0.0
            }
        })
        .collect();
    let total: f64 = shares.iter().sum();
    if total <= 0.0 {
        return;
    }
    let exact: Vec<f64> = shares.iter().map(|sh| trials as f64 * sh / total).collect();
    let mut assigned = 0u64;
    for (spec, &e) in strata.iter_mut().zip(&exact) {
        spec.trials = e.floor() as u64;
        assigned += spec.trials;
    }
    let mut order: Vec<usize> = (0..strata.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    let mut leftover = trials - assigned;
    for &i in &order {
        if leftover == 0 {
            break;
        }
        if shares[i] > 0.0 {
            strata[i].trials += 1;
            leftover -= 1;
        }
    }
    // If every share was rounded up already (tiny budgets), dump the
    // rest on the highest-share cell.
    if leftover > 0 {
        if let Some((i, _)) = shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        {
            strata[i].trials += leftover;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> FaultSampler {
        FaultSampler::new(AccelParams::paper_accelerated())
    }

    #[test]
    fn deterministic_given_rng_state() {
        let s = sampler();
        let (mut a, mut b) = (FaultSample::default(), FaultSample::default());
        s.sample_into(true, &mut SplitMix64::new(42), &mut a);
        s.sample_into(true, &mut SplitMix64::new(42), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_rate_tracks_p() {
        let s = sampler();
        let mut rng = SplitMix64::new(1);
        let trials = 20_000;
        let mut failures = 0usize;
        let mut sample = FaultSample::default();
        for _ in 0..trials {
            s.sample_into(true, &mut rng, &mut sample);
            failures += sample.faults.len();
        }
        let per_chip = failures as f64 / (trials * 18) as f64;
        let p = s.params().chip_fail_prob;
        assert!(
            (per_chip - p).abs() / p < 0.05,
            "empirical {per_chip} vs configured {p}"
        );
    }

    #[test]
    fn sample_ordering_invariant_holds() {
        let s = sampler();
        let mut rng = SplitMix64::new(11);
        let mut sample = FaultSample::default();
        for _ in 0..2_000 {
            s.sample_into(true, &mut rng, &mut sample);
            let mut last: Option<(usize, usize)> = None;
            for f in &sample.faults {
                let key = (
                    match f.side {
                        Side::Primary => 0,
                        Side::Replica => 1,
                    },
                    f.chip,
                );
                assert!(last.is_none_or(|l| l < key), "out of order: {sample:?}");
                last = Some(key);
            }
        }
    }

    #[test]
    fn overlap_counts_paired_chips_only() {
        let mk = |side, chip| ChipFault {
            side,
            chip,
            granularity: Granularity::Chip,
            transient: false,
        };
        let sample = FaultSample {
            faults: vec![
                mk(Side::Primary, 2),
                mk(Side::Primary, 5),
                mk(Side::Replica, 2),
                mk(Side::Replica, 7),
            ],
        };
        assert_eq!(sample.pair_overlap(|i| i), 1);
        // A shifted pairing can turn the overlap on or off.
        assert_eq!(sample.pair_overlap(|i| (i + 2) % 9), 1); // 5 -> 7
        assert_eq!(sample.pair_overlap(|i| (i + 1) % 9), 0);
    }

    #[test]
    fn single_side_sampling_never_hits_replica() {
        let s = sampler();
        let mut rng = SplitMix64::new(3);
        let mut sample = FaultSample::default();
        for _ in 0..200 {
            s.sample_into(false, &mut rng, &mut sample);
            assert!(sample.chips(Side::Replica).is_empty());
        }
    }

    #[test]
    fn granularity_mix_materializes() {
        let s = sampler();
        let mut rng = SplitMix64::new(9);
        let mut bits = 0;
        let mut pins = 0;
        let mut chips = 0;
        let mut sample = FaultSample::default();
        for _ in 0..20_000 {
            s.sample_into(true, &mut rng, &mut sample);
            for f in &sample.faults {
                match f.granularity {
                    Granularity::Bit => bits += 1,
                    Granularity::Pin => pins += 1,
                    Granularity::Chip => chips += 1,
                }
            }
        }
        let total = (bits + pins + chips) as f64;
        assert!((bits as f64 / total - BIT_FRAC).abs() < 0.05);
        assert!((pins as f64 / total - PIN_FRAC).abs() < 0.05);
        assert!(chips > 0);
    }

    fn plan(trials: u64) -> StrataPlan {
        StrataPlan::build(
            &AccelParams::paper_accelerated(),
            true,
            DEFAULT_TAIL_MIN,
            trials,
        )
    }

    #[test]
    fn strata_partition_the_plain_law() {
        let p = plan(100_000);
        let mass: f64 = p.strata.iter().map(|s| s.weight).sum();
        assert!((mass - 1.0).abs() < 1e-12, "total mass {mass}");
        let trials: u64 = p.strata.iter().map(|s| s.trials).sum();
        assert_eq!(trials, 100_000);
        // 9 cells at tail_min = 4: k=0, three exact counts x two
        // granularity classes, two tail classes.
        assert_eq!(p.strata.len(), 9);
    }

    #[test]
    fn stratum_of_matches_contiguous_ranges() {
        let p = plan(12_345);
        for (i, spec) in p.strata.iter().enumerate() {
            if spec.trials == 0 {
                continue;
            }
            assert_eq!(p.stratum_of(spec.start), i);
            assert_eq!(p.stratum_of(spec.start + spec.trials - 1), i);
        }
        assert_eq!(
            p.stratum_of(p.total_trials - 1),
            p.strata.len() - 1,
            "last trial must land in the last cell"
        );
    }

    #[test]
    fn rare_cells_get_the_budget() {
        let p = plan(1_000_000);
        let all_chip_heavy: u64 = p
            .strata
            .iter()
            .filter(|s| s.stratum.all_chip && (s.stratum.count >= 3 || s.stratum.tail))
            .map(|s| s.trials)
            .sum();
        assert!(
            all_chip_heavy as f64 > 0.4 * p.total_trials as f64,
            "escape-bearing cells got only {all_chip_heavy} of {}",
            p.total_trials
        );
    }

    #[test]
    fn sample_stratum_respects_conditioning() {
        let s = sampler();
        let p = plan(9_000);
        let mut rng = SplitMix64::new(77);
        for spec in &p.strata {
            for _ in 0..300 {
                let sample = s.sample_stratum(&p, spec, &mut rng);
                let k = sample.faults.len();
                if spec.stratum.tail {
                    assert!(k >= spec.stratum.count as usize, "{:?}: {k}", spec.stratum);
                } else {
                    assert_eq!(k, spec.stratum.count as usize, "{:?}", spec.stratum);
                }
                if spec.stratum.all_chip {
                    assert!(sample
                        .faults
                        .iter()
                        .all(|f| f.granularity == Granularity::Chip));
                } else if k > 0 {
                    assert!(
                        sample
                            .faults
                            .iter()
                            .any(|f| f.granularity != Granularity::Chip),
                        "mixed stratum produced an all-chip sample"
                    );
                }
                for f in &sample.faults {
                    assert!(f.chip < s.params().chips_per_dimm);
                }
            }
        }
    }

    #[test]
    fn stratified_law_matches_plain_frequencies() {
        // Classify plain samples into cells and compare against the
        // plan's exact weights — the unbiasedness precondition.
        let s = sampler();
        let p = plan(1);
        let mut rng = SplitMix64::new(5);
        let trials = 60_000u64;
        let mut counts = vec![0u64; p.strata.len()];
        let mut sample = FaultSample::default();
        for _ in 0..trials {
            s.sample_into(true, &mut rng, &mut sample);
            let k = sample.faults.len();
            let all_chip = k > 0
                && sample
                    .faults
                    .iter()
                    .all(|f| f.granularity == Granularity::Chip);
            let idx = p
                .strata
                .iter()
                .position(|spec| {
                    let st = spec.stratum;
                    if st.tail {
                        k >= st.count as usize && st.all_chip == all_chip
                    } else if st.count == 0 {
                        k == 0
                    } else {
                        k == st.count as usize && st.all_chip == all_chip
                    }
                })
                .expect("every sample lands in a cell");
            counts[idx] += 1;
        }
        for (spec, &c) in p.strata.iter().zip(&counts) {
            if spec.weight < 1e-3 {
                continue; // too rare to verify empirically
            }
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - spec.weight).abs() / spec.weight < 0.15,
                "{}: freq {freq} vs weight {}",
                spec.stratum.label(),
                spec.weight
            );
        }
    }

    #[test]
    fn zero_probability_strata_get_no_trials() {
        let params = AccelParams {
            chip_fail_prob: 0.0,
            ..AccelParams::paper_accelerated()
        };
        let p = StrataPlan::build(&params, true, DEFAULT_TAIL_MIN, 10_000);
        for spec in &p.strata {
            if spec.stratum.count == 0 && !spec.stratum.tail {
                assert_eq!(spec.trials, 10_000);
            } else {
                assert_eq!(spec.weight, 0.0);
                assert_eq!(spec.trials, 0, "{}", spec.stratum.label());
            }
        }
        // Sampling the only populated cell works.
        let s = FaultSampler::new(params);
        let sample = s.sample_stratum(&p, &p.strata[0], &mut SplitMix64::new(1));
        assert!(!sample.any());
    }

    #[test]
    fn near_one_fault_rate_keeps_full_mass() {
        // At p = 1 - 1e-9 over 36 slots the naive recurrence seed
        // q^36 = 1e-324 underflows to exactly 0.0, wiping the whole
        // pmf (and with it every stratum weight). The mirrored
        // recurrence must keep the mass — concentrated at high fault
        // counts — finite and summing to 1.
        let params = AccelParams {
            chip_fail_prob: 1.0 - 1e-9,
            ..AccelParams::paper_accelerated()
        };
        let p = StrataPlan::build(&params, true, DEFAULT_TAIL_MIN, 10_000);
        for spec in &p.strata {
            assert!(
                spec.weight.is_finite() && spec.weight >= 0.0,
                "{}: weight {}",
                spec.stratum.label(),
                spec.weight
            );
        }
        let mass: f64 = p.strata.iter().map(|s| s.weight).sum();
        assert!((mass - 1.0).abs() < 1e-6, "total mass {mass}");
        let trials: u64 = p.strata.iter().map(|s| s.trials).sum();
        assert_eq!(trials, 10_000);
        // Essentially all windows see >= tail_min faults.
        let tail_mass: f64 = p
            .strata
            .iter()
            .filter(|s| s.stratum.tail)
            .map(|s| s.weight)
            .sum();
        assert!(tail_mass > 1.0 - 1e-6, "tail mass {tail_mass}");
        // And the tail cells are actually drawable: conditional count
        // tables present, samples land in-range and deterministic.
        let s = FaultSampler::new(params);
        for spec in p.strata.iter().filter(|s| s.trials > 0) {
            let a = s.sample_stratum(&p, spec, &mut SplitMix64::new(13));
            let b = s.sample_stratum(&p, spec, &mut SplitMix64::new(13));
            assert_eq!(a, b);
            assert!(a.faults.len() <= p.slots);
        }
    }

    #[test]
    fn underflowed_strata_are_skipped_not_nan() {
        // p = 1e-157 puts the exact k=2 mass (~630 * p^2 ~ 6e-312) in
        // the subnormal range and everything heavier at 0.0: those
        // cells must be clamped to weight 0, get no trials, and be
        // reported via the skipped count — never reweighted into
        // inf/NaN.
        for rate in [1e-157_f64, 1e-300] {
            let params = AccelParams {
                chip_fail_prob: rate,
                ..AccelParams::paper_accelerated()
            };
            let p = StrataPlan::build(&params, true, DEFAULT_TAIL_MIN, 10_000);
            for spec in &p.strata {
                assert!(
                    spec.weight == 0.0 || spec.weight >= f64::MIN_POSITIVE,
                    "{}: subnormal weight {} survived",
                    spec.stratum.label(),
                    spec.weight
                );
                if spec.weight == 0.0 {
                    assert_eq!(spec.trials, 0, "{}", spec.stratum.label());
                    if spec.stratum.tail {
                        assert!(spec.tail_cum.is_empty());
                    }
                }
            }
            let zeroed = p.strata.iter().filter(|s| s.weight == 0.0).count();
            assert_eq!(p.skipped, zeroed);
            assert!(
                p.skipped >= 6,
                "rate {rate}: expected the k>=2 cells skipped, got {}",
                p.skipped
            );
            // The surviving cells still absorb the whole budget and
            // essentially the whole mass (what was dropped is below
            // ~1e-300 by construction).
            let trials: u64 = p.strata.iter().map(|s| s.trials).sum();
            assert_eq!(trials, 10_000);
            let mass: f64 = p.strata.iter().map(|s| s.weight).sum();
            assert!((mass - 1.0).abs() < 1e-12, "rate {rate}: mass {mass}");
        }
        // Healthy mid-range rates skip nothing.
        assert_eq!(plan(10_000).skipped, 0);
    }

    #[test]
    fn stratum_labels_are_distinct() {
        let p = plan(100);
        let mut labels: Vec<String> = p.strata.iter().map(|s| s.stratum.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), p.strata.len());
    }
}
