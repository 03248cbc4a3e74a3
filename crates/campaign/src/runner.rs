//! Parallel campaign runner: seeded trials fanned over worker threads.
//!
//! Determinism contract: every trial outcome depends only on
//! `(master_seed, scheme, trial_index)` (see [`TrialExecutor::run`]) —
//! plus the stratification plan, itself a pure function of the config —
//! and aggregation is commutative integer counting plus an
//! order-normalizing sort of the event log. A campaign's
//! [`CampaignResult`] is therefore **bit-identical** for any worker
//! count, including 1, no matter how the scheduler interleaves workers.
//!
//! # Work distribution
//!
//! Workers claim *chunks* of the trial range from a shared atomic
//! cursor (work-stealing), rather than fixed strided slices: a worker
//! that gets descheduled — or draws a run of expensive faulty trials —
//! simply claims fewer chunks, so stragglers no longer bound the
//! wall-clock. Chunks are large enough (64–65536 trials) that cursor
//! traffic is negligible, and each worker accumulates into its own
//! cache-line-padded `Partial` slot, so no two workers ever write the
//! same line (no false sharing on the accumulators).

use crate::sampler::{StrataPlan, Stratum};
use crate::trial::{CampaignScheme, TrialExecutor, TrialOutcome, TrialResult};
use dve_reliability::accel::AccelParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// How trial fault samples are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Every trial draws from the plain per-chip Bernoulli law.
    Plain,
    /// Trials are partitioned into `(fault count, all-chip)` strata with
    /// rare cells oversampled; estimates are reweighted by the exact
    /// cell masses (see [`StrataPlan`]). `tail_min` is the lower edge of
    /// the aggregated tail cells.
    Stratified {
        /// Counts `>= tail_min` share one pair of tail cells.
        tail_min: u8,
    },
}

impl SamplingMode {
    /// The default stratified mode (tail edge at
    /// [`crate::sampler::DEFAULT_TAIL_MIN`]).
    pub fn stratified_default() -> SamplingMode {
        SamplingMode::Stratified {
            tail_min: crate::sampler::DEFAULT_TAIL_MIN,
        }
    }
}

/// Campaign-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed; everything derives from it.
    pub master_seed: u64,
    /// Trials per scheme.
    pub trials: u64,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Accelerated window parameters shared by sampler and the
    /// analytical cross-check.
    pub params: AccelParams,
    /// Memory operations replayed per faulty trial (0 disables the
    /// system replay; adjudication still runs).
    pub replay_ops: u64,
    /// Plain Monte Carlo or stratified rare-event sampling.
    pub sampling: SamplingMode,
}

/// Worker count for tests that must exercise the parallel claim/merge
/// path regardless of the host's core count. Campaign results are
/// bit-identical for any worker count, so tests pin this rather than
/// trusting `available_parallelism` (which reports 1 in small CI
/// containers, where a default of 1 worker would silently skip the
/// merge logic under test).
pub const MERGE_TEST_WORKERS: usize = 2;

impl CampaignConfig {
    /// The paper-accelerated default: 10k plain trials on every
    /// available core (1 worker on a single-core machine — tests that
    /// need the merge path exercised pin [`MERGE_TEST_WORKERS`]
    /// instead of relying on this default).
    pub fn paper_default() -> CampaignConfig {
        CampaignConfig {
            master_seed: 0xD5E_2021,
            trials: 10_000,
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            params: AccelParams::paper_accelerated(),
            replay_ops: 0,
            sampling: SamplingMode::Plain,
        }
    }
}

/// Integer outcome histogram for one scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// No data at risk.
    pub clean: u64,
    /// Corrected, all faults transient.
    pub ce_transient: u64,
    /// Corrected but permanently degraded.
    pub ce_degraded: u64,
    /// Detected uncorrectable.
    pub due: u64,
    /// Silent data corruption.
    pub sdc: u64,
}

impl OutcomeCounts {
    /// Records one outcome.
    pub fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Clean => self.clean += 1,
            TrialOutcome::CeTransient => self.ce_transient += 1,
            TrialOutcome::CeDegraded => self.ce_degraded += 1,
            TrialOutcome::Due => self.due += 1,
            TrialOutcome::Sdc => self.sdc += 1,
        }
    }

    /// Merges another histogram in (order-independent).
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.clean += other.clean;
        self.ce_transient += other.ce_transient;
        self.ce_degraded += other.ce_degraded;
        self.due += other.due;
        self.sdc += other.sdc;
    }

    /// Total trials recorded.
    pub fn total(&self) -> u64 {
        self.clean + self.ce_transient + self.ce_degraded + self.due + self.sdc
    }
}

/// One stratum's share of a stratified campaign: the cell, its exact
/// probability mass under the plain law, its allocated trials and the
/// outcome histogram observed inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumResult {
    /// Which cell.
    pub stratum: Stratum,
    /// Exact cell mass under the plain sampling law.
    pub weight: f64,
    /// Trials allocated to the cell.
    pub trials: u64,
    /// Outcomes observed within the cell.
    pub counts: OutcomeCounts,
}

/// One scheme's campaign output.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The scheme exercised.
    pub scheme: CampaignScheme,
    /// Outcome histogram over all trials.
    pub counts: OutcomeCounts,
    /// Sum of pair-overlap counts across trials (Dvé DUE driver).
    pub overlap_sum: u64,
    /// Sum of sampled fault counts across trials.
    pub fault_sum: u64,
    /// Per-stratum breakdown; empty for plain campaigns.
    pub strata: Vec<StratumResult>,
    /// Recovery events from faulty-trial replays, tagged by trial and
    /// sorted by `(trial, at, addr)` so the log is deterministic for
    /// any worker count.
    pub events: Vec<(u64, dve::RecoveryEvent)>,
}

/// Per-worker accumulator, padded out to its own pair of cache lines so
/// adjacent workers' slots never share one (the false sharing that made
/// the old runner *lose* throughput from 1 to 2 workers).
#[repr(align(128))]
#[derive(Debug, Default)]
struct Partial {
    counts: OutcomeCounts,
    overlap_sum: u64,
    fault_sum: u64,
    strata_counts: Vec<OutcomeCounts>,
    events: Vec<(u64, dve::RecoveryEvent)>,
}

impl Partial {
    fn absorb(&mut self, stratum: Option<usize>, r: TrialResult) {
        self.counts.record(r.outcome);
        if let Some(idx) = stratum {
            self.strata_counts[idx].record(r.outcome);
        }
        self.overlap_sum += r.overlap as u64;
        self.fault_sum += r.fault_count as u64;
        let trial = r.trial;
        self.events.extend(r.events.into_iter().map(|e| (trial, e)));
    }
}

/// Chunk of trials claimed per cursor bump: large enough that the
/// shared cursor sees a few hundred claims per campaign at most, small
/// enough that stealing still load-balances tail stragglers.
fn chunk_size(trials: u64, workers: usize) -> u64 {
    (trials / (workers as u64 * 32)).clamp(64, 65_536)
}

/// Runs one scheme's campaign under `cfg`.
///
/// # Example
///
/// ```
/// use dve_campaign::runner::{run_campaign, CampaignConfig};
/// use dve_campaign::trial::CampaignScheme;
///
/// let mut cfg = CampaignConfig::paper_default();
/// cfg.trials = 200;
/// cfg.workers = 2;
/// let r = run_campaign(&cfg, CampaignScheme::Chipkill);
/// assert_eq!(r.counts.total(), 200);
/// ```
pub fn run_campaign(cfg: &CampaignConfig, scheme: CampaignScheme) -> CampaignResult {
    let workers = cfg.workers.max(1);
    let plan: Option<StrataPlan> = match cfg.sampling {
        SamplingMode::Plain => None,
        SamplingMode::Stratified { tail_min } => Some(
            TrialExecutor::new(scheme, cfg.params, cfg.replay_ops)
                .strata_plan(tail_min, cfg.trials),
        ),
    };
    let n_strata = plan.as_ref().map_or(0, |p| p.strata.len());
    let mut partials: Vec<Partial> = (0..workers)
        .map(|_| Partial {
            strata_counts: vec![OutcomeCounts::default(); n_strata],
            ..Partial::default()
        })
        .collect();

    let cursor = AtomicU64::new(0);
    let chunk = chunk_size(cfg.trials, workers);
    thread::scope(|s| {
        for part in partials.iter_mut() {
            let cfg = *cfg;
            let cursor = &cursor;
            let plan = plan.as_ref();
            s.spawn(move || {
                let exec = TrialExecutor::new(scheme, cfg.params, cfg.replay_ops);
                // One scratch per worker: trial outcomes depend only on
                // `(master_seed, scheme, trial)`, never on buffer reuse,
                // so sharing scratch across a worker's claimed chunks
                // keeps results bit-identical while eliminating the
                // per-trial allocation churn.
                let mut scratch = exec.make_scratch();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= cfg.trials {
                        break;
                    }
                    let end = (start + chunk).min(cfg.trials);
                    // Cells own contiguous ascending ranges: one search
                    // per chunk, then the cursor only steps forward.
                    let mut cell = plan.map_or(0, |p| p.stratum_of(start));
                    for trial in start..end {
                        let r = match plan {
                            None => exec.run_with(cfg.master_seed, trial, &mut scratch),
                            Some(p) => {
                                while p.strata[cell].start + p.strata[cell].trials <= trial {
                                    cell += 1;
                                }
                                let spec = &p.strata[cell];
                                exec.run_in_stratum(cfg.master_seed, trial, p, spec, &mut scratch)
                            }
                        };
                        part.absorb(plan.map(|_| cell), r);
                    }
                }
            });
        }
    });

    let mut counts = OutcomeCounts::default();
    let mut overlap_sum = 0;
    let mut fault_sum = 0;
    let mut strata_counts = vec![OutcomeCounts::default(); n_strata];
    let mut events = Vec::new();
    for p in partials {
        counts.merge(&p.counts);
        overlap_sum += p.overlap_sum;
        fault_sum += p.fault_sum;
        for (acc, c) in strata_counts.iter_mut().zip(&p.strata_counts) {
            acc.merge(c);
        }
        events.extend(p.events);
    }
    // Normalize the merge order away. Every addend above is commutative
    // and this sort key is unique per trial block, so the result cannot
    // depend on which worker claimed which chunk.
    events.sort_by_key(|(trial, e)| (*trial, e.at, e.addr));
    let strata = plan.map_or_else(Vec::new, |p| {
        p.strata
            .iter()
            .zip(strata_counts)
            .map(|(spec, counts)| StratumResult {
                stratum: spec.stratum,
                weight: spec.weight,
                trials: spec.trials,
                counts,
            })
            .collect()
    });
    CampaignResult {
        scheme,
        counts,
        overlap_sum,
        fault_sum,
        strata,
        events,
    }
}

/// Runs all schemes in [`CampaignScheme::ALL`] order.
pub fn run_all(cfg: &CampaignConfig) -> Vec<CampaignResult> {
    CampaignScheme::ALL
        .iter()
        .map(|&s| run_campaign(cfg, s))
        .collect()
}

/// Wilson score interval for a binomial proportion at ~95% confidence
/// (`z = 1.96`). Returns `(low, high)`; well-behaved at `successes = 0`
/// (low = 0 exactly) unlike the normal approximation.
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    let low = ((center - spread) / denom).max(0.0);
    let high = ((center + spread) / denom).min(1.0);
    (low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(workers: usize) -> CampaignConfig {
        CampaignConfig {
            master_seed: 0xBEEF,
            trials: 600,
            workers,
            params: AccelParams::paper_accelerated(),
            replay_ops: 8,
            sampling: SamplingMode::Plain,
        }
    }

    #[test]
    fn identical_across_worker_counts() {
        for scheme in CampaignScheme::ALL {
            let one = run_campaign(&small_cfg(1), scheme);
            let four = run_campaign(&small_cfg(4), scheme);
            let seven = run_campaign(&small_cfg(7), scheme);
            assert_eq!(one, four, "{}", scheme.label());
            assert_eq!(one, seven, "{}", scheme.label());
        }
    }

    #[test]
    fn stratified_identical_across_worker_counts() {
        let stratified = |workers| {
            let mut cfg = small_cfg(workers);
            cfg.sampling = SamplingMode::stratified_default();
            cfg
        };
        for scheme in CampaignScheme::ALL {
            let one = run_campaign(&stratified(1), scheme);
            let many = run_campaign(&stratified(MERGE_TEST_WORKERS), scheme);
            let odd = run_campaign(&stratified(5), scheme);
            assert_eq!(one, many, "{}", scheme.label());
            assert_eq!(one, odd, "{}", scheme.label());
        }
    }

    #[test]
    fn identical_across_runs() {
        let cfg = small_cfg(3);
        let a = run_campaign(&cfg, CampaignScheme::DveChipkill);
        let b = run_campaign(&cfg, CampaignScheme::DveChipkill);
        assert_eq!(a, b);
    }

    #[test]
    fn different_master_seeds_differ() {
        let mut cfg = small_cfg(2);
        let a = run_campaign(&cfg, CampaignScheme::Chipkill);
        cfg.master_seed ^= 1;
        let b = run_campaign(&cfg, CampaignScheme::Chipkill);
        assert_ne!(a.counts, b.counts);
    }

    #[test]
    fn totals_match_trials() {
        let cfg = small_cfg(5);
        for r in run_all(&cfg) {
            assert_eq!(r.counts.total(), cfg.trials, "{}", r.scheme.label());
            assert!(r.strata.is_empty(), "plain campaign grew strata");
        }
    }

    #[test]
    fn stratified_counts_match_the_plan() {
        let mut cfg = small_cfg(MERGE_TEST_WORKERS);
        cfg.trials = 5_000;
        cfg.replay_ops = 0;
        cfg.sampling = SamplingMode::stratified_default();
        let r = run_campaign(&cfg, CampaignScheme::DveDsd);
        assert_eq!(r.counts.total(), cfg.trials);
        let per_cell: u64 = r.strata.iter().map(|s| s.counts.total()).sum();
        assert_eq!(per_cell, cfg.trials, "every trial lands in its cell");
        for s in &r.strata {
            assert_eq!(s.counts.total(), s.trials, "{}", s.stratum.label());
        }
        let mass: f64 = r.strata.iter().map(|s| s.weight).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn events_sorted_and_tagged() {
        let r = run_campaign(&small_cfg(4), CampaignScheme::DveTsd);
        assert!(!r.events.is_empty(), "replay produced no events");
        let keys: Vec<_> = r.events.iter().map(|(t, e)| (*t, e.at, e.addr)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(r.events.iter().all(|(t, _)| *t < 600));
    }

    #[test]
    fn wilson_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(50, 1000);
        assert!(lo < 0.05 && 0.05 < hi);
        assert!(lo > 0.03 && hi < 0.07);
        let (lo, hi) = wilson_interval(0, 1000);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
        let (lo, hi) = wilson_interval(1000, 1000);
        assert!(lo > 0.99 && hi == 1.0);
    }

    #[test]
    fn chipkill_due_rate_is_plausible() {
        // P(k >= 2) with n = 9, p = 0.05 is about 7.1%; 10k trials keep
        // the empirical rate within a generous band.
        let mut cfg = small_cfg(4);
        cfg.trials = 10_000;
        cfg.replay_ops = 0;
        let r = run_campaign(&cfg, CampaignScheme::Chipkill);
        let rate = (r.counts.due + r.counts.sdc) as f64 / cfg.trials as f64;
        assert!((0.05..0.09).contains(&rate), "rate {rate}");
    }
}
