//! Monte Carlo fault-injection campaign: empirical cross-validation of
//! the analytical Table I reliability model (§IV) using the real codecs
//! and the fault/scrub machinery of the simulator.
//!
//! ```text
//! cargo run -p dve-bench --bin campaign --release
//! ```
//!
//! Environment knobs:
//!
//! * `DVE_CAMPAIGN_TRIALS`  — trials per scheme (default 10 000)
//! * `DVE_CAMPAIGN_SEED`    — master seed (default the harness seed);
//!   two runs with the same seed are bit-identical regardless of the
//!   worker count
//! * `DVE_CAMPAIGN_WORKERS` — worker threads (default: all cores, no
//!   floor — the parallel merge path is covered by the runner's own
//!   `MERGE_TEST_WORKERS` tests, not by inflating production defaults)
//! * `DVE_CAMPAIGN_STRATIFIED` — set to `1`/`true` to stratify the
//!   trial budget over (fault count, all-chip) cells with unbiased
//!   reweighting, concentrating trials on the rare miscorrection /
//!   detection-escape strata
//! * `DVE_CAMPAIGN_OUT`     — output directory (default `results/`);
//!   writes `campaign.txt`, plus `campaign_strata.csv` when stratified
//!
//! The process exits non-zero if any scheme's empirical DUE/SDC rate
//! disagrees with the analytical expectation — this binary doubles as
//! the cross-validation gate. Stratified runs additionally require
//! every positive-mass cell to receive trials and the detect-only DSD
//! escape estimate to carry a nonzero, finite confidence interval. A
//! malformed knob or an output file that cannot be written also fails
//! the run.

use dve_bench::gate::{env_flag, env_u64, write_report, Gate, HarnessError};
use dve_campaign::{run_all, CampaignConfig, CampaignReport, CampaignScheme, SamplingMode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Stratified-specific acceptance: the whole point of stratification is
/// that rare cells stop being empty, so (a) every positive-mass cell
/// must have received trials, and (b) the detect-only DSD escape (SDC)
/// estimate must come with a nonzero, finite Wilson interval.
fn stratified_gate(gate: &mut Gate, report: &CampaignReport) {
    let empty: Vec<String> = report
        .rows
        .iter()
        .flat_map(|row| {
            row.strata
                .iter()
                .filter(|cell| cell.weight > 0.0 && cell.trials == 0)
                .map(move |cell| format!("{} {}", row.scheme.label(), cell.stratum.label()))
        })
        .collect();
    gate.check(
        empty.is_empty(),
        format!("every positive-mass stratum received trials (empty: {empty:?})"),
    );
    if let Some(dsd) = report
        .rows
        .iter()
        .find(|r| r.scheme == CampaignScheme::DveDsd)
    {
        let (lo, hi) = dsd.sdc_ci;
        gate.check(
            lo.is_finite() && hi.is_finite() && hi > 0.0,
            format!("Dve+DSD escape CI [{lo:.3e}, {hi:.3e}] is a nonzero finite interval"),
        );
    }
}

fn strata_csv(report: &CampaignReport) -> String {
    let mut w =
        String::from("scheme,cell,weight,trials,due,sdc,due_ci_lo,due_ci_hi,sdc_ci_lo,sdc_ci_hi\n");
    for row in &report.rows {
        for cell in &row.strata {
            writeln!(
                w,
                "{},{},{:e},{},{},{},{:e},{:e},{:e},{:e}",
                row.scheme.label(),
                cell.stratum.label(),
                cell.weight,
                cell.trials,
                cell.due,
                cell.sdc,
                cell.due_ci.0,
                cell.due_ci.1,
                cell.sdc_ci.0,
                cell.sdc_ci.1,
            )
            .expect("writing to a String cannot fail");
        }
    }
    w
}

fn main() -> Result<ExitCode, HarnessError> {
    let mut cfg = CampaignConfig::paper_default();
    cfg.master_seed = env_u64("DVE_CAMPAIGN_SEED", dve_bench::SEED)?;
    cfg.trials = env_u64("DVE_CAMPAIGN_TRIALS", 10_000)?;
    cfg.workers = env_u64("DVE_CAMPAIGN_WORKERS", cfg.workers as u64)?.max(1) as usize;
    let stratified = env_flag("DVE_CAMPAIGN_STRATIFIED")?;
    if stratified {
        cfg.sampling = SamplingMode::stratified_default();
    }

    let results = run_all(&cfg);
    let report = CampaignReport::build(&cfg, &results);
    let rendered = report.render(&cfg);
    print!("{rendered}");

    let out_dir =
        PathBuf::from(std::env::var("DVE_CAMPAIGN_OUT").unwrap_or_else(|_| "results".to_string()));
    write_report(out_dir.join("campaign.txt"), &rendered)?;
    if stratified {
        write_report(out_dir.join("campaign_strata.csv"), &strata_csv(&report))?;
    }

    let mut gate = Gate::new();
    gate.check(
        report.all_agree(),
        "empirical DUE/SDC rates agree with the analytical model",
    );
    if stratified {
        stratified_gate(&mut gate, &report);
    }
    Ok(gate.finish("campaign"))
}
