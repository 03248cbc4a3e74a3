//! # dve-campaign — Monte Carlo fault-injection campaigns
//!
//! Empirically cross-validates the analytical reliability model of §IV
//! (`dve-reliability`) by *running* accelerated fault campaigns against
//! the real codecs of `dve-ecc`:
//!
//! * [`sampler`] draws per-chip failures (bit / pin / chip granularity,
//!   transient or permanent) at the accelerated per-window probability
//!   of [`dve_reliability::accel::AccelParams`];
//! * [`trial`] adjudicates each fault set with the *real* codecs
//!   (`Rs::chipkill()`, detect-only DSD/TSD) — so SDCs are genuine
//!   detection misses and RS miscorrections — on the all-zero
//!   codeword, which the codes' linearity makes outcome-identical to
//!   encoding random data (DESIGN.md §7);
//! * [`runner`] fans seeded trials across `std::thread` workers via
//!   chunked work-stealing over a shared atomic cursor, with
//!   cache-line-padded per-worker accumulators and bit-reproducible,
//!   worker-count-independent aggregation plus Wilson confidence
//!   intervals. [`runner::SamplingMode::Stratified`] partitions the
//!   trial budget over `(fault count, all-chip)` strata so rare
//!   miscorrection/escape events get tight nonzero CIs;
//! * [`report`] compares the empirical DUE/SDC mass to the exact
//!   binomial expectations of [`dve_reliability::accel::AccelModel`]
//!   (same probability space, so agreement is exact up to sampling
//!   noise and the documented SDC model fidelity), reweights
//!   stratified campaigns without bias, and prints Table I's real-scale
//!   analytical rows and per-stratum breakdowns alongside.
//!
//! Entry point: `cargo run -p dve-bench --bin campaign --release`.

pub mod report;
pub mod runner;
pub mod sampler;
pub mod trial;

pub use report::{stratified_rate, CampaignReport, SchemeReport, StratumRow, Verdict};
pub use runner::{
    run_all, run_campaign, wilson_interval, CampaignConfig, CampaignResult, OutcomeCounts,
    SamplingMode, StratumResult, MERGE_TEST_WORKERS,
};
pub use sampler::{
    ChipFault, FaultSample, FaultSampler, Granularity, Side, StrataPlan, Stratum, StratumSpec,
    DEFAULT_TAIL_MIN,
};
pub use trial::{CampaignScheme, TrialExecutor, TrialOutcome, TrialResult};
