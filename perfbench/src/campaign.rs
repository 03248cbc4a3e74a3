//! The `campaign-stratified` workload: `run_campaign` over every scheme
//! with stratified sampling on one worker, and the traced loop that
//! drives `FaultSampler` and `TrialExecutor` directly.

use crate::cputime::Stopwatch;
use crate::outcome::{peak_rss_mib, secs_since, timed, Outcome, Samples};
use crate::reference::HostSpeed;
use crate::stats::median;
use dve_campaign::{
    run_campaign, CampaignConfig, CampaignReport, CampaignResult, CampaignScheme, FaultSampler,
    OutcomeCounts, SamplingMode, TrialExecutor,
};
use dve_ecc::code::DetectionCode;
use dve_ecc::rs::Rs;
use dve_ecc::rs16::Rs16Detect;
use dve_reliability::accel::AccelParams;
use dve_sim::rng::{derive_seed, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

/// Trials per scheme in one measured campaign.
const TRIALS: u64 = 50_000;
/// Trials per scheme in the untimed warm-up pass.
const WARMUP_TRIALS: u64 = 5_000;
/// Seed stream the campaign's master seed is drawn from.
const CAMPAIGN_STREAM: u64 = 0xCA_4B;

fn config(seed: u64, trials: u64) -> CampaignConfig {
    CampaignConfig {
        master_seed: derive_seed(seed, CAMPAIGN_STREAM, 0),
        trials,
        workers: 1,
        params: AccelParams::paper_accelerated(),
        replay_ops: 0,
        sampling: SamplingMode::stratified_default(),
    }
}

fn tail_min(cfg: &CampaignConfig) -> u8 {
    match cfg.sampling {
        SamplingMode::Stratified { tail_min } => tail_min,
        SamplingMode::Plain => unreachable!("the benchmark campaign is stratified"),
    }
}

/// One campaign over every scheme, preceded by its set-up; CPU seconds.
struct Round {
    setup_s: f64,
    campaign_s: f64,
    results: Vec<CampaignResult>,
}

fn run_round(cfg: &CampaignConfig) -> Round {
    let clock = Stopwatch::start();
    for s in CampaignScheme::ALL {
        let exec = TrialExecutor::new(s, cfg.params, cfg.replay_ops);
        black_box(exec.strata_plan(tail_min(cfg), cfg.trials));
    }
    let warm = CampaignConfig {
        trials: WARMUP_TRIALS,
        ..*cfg
    };
    for s in CampaignScheme::ALL {
        black_box(run_campaign(&warm, s));
    }
    let setup_s = clock.cpu_s();
    let clock = Stopwatch::start();
    let results = CampaignScheme::ALL
        .iter()
        .map(|&s| run_campaign(cfg, s))
        .collect();
    Round {
        setup_s,
        campaign_s: clock.cpu_s(),
        results,
    }
}

fn counts(results: &[CampaignResult]) -> Vec<OutcomeCounts> {
    results.iter().map(|r| r.counts).collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = config(seed, TRIALS);
    let mut out = Outcome {
        config: format!(
            "schemes={:?} trials_per_scheme={TRIALS} warmup_trials_per_scheme={WARMUP_TRIALS} \
             workers={} sampling={:?} replay_ops={} master_seed={:#x} params={:?}",
            CampaignScheme::ALL.map(|s| s.label()),
            cfg.workers,
            cfg.sampling,
            cfg.replay_ops,
            cfg.master_seed,
            cfg.params
        ),
        ..Outcome::default()
    };
    let start = Instant::now();
    let mut speed = HostSpeed::default();
    let mut rss_mib = 0.0;
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<TracedCampaign> = Vec::new();
    while rounds.len() < 3 || secs_since(start) < seconds {
        let round = run_round(&cfg);
        if rounds.is_empty() {
            rss_mib = peak_rss_mib();
        }
        speed.sample();
        let report = CampaignReport::build(&cfg, &round.results);
        out.check(report.all_agree(), || {
            format!("campaign disagrees with the analytical model: {report:?}")
        });
        if let Some(first) = rounds.first() {
            out.check(counts(&round.results) == counts(&first.results), || {
                "campaign outcome counts differ between repetitions".to_string()
            });
        }
        if trace {
            let t = TracedCampaign::run(&cfg);
            out.check(t.counts == counts(&round.results), || {
                format!(
                    "traced loop is not the same program: {:?} vs {:?}",
                    t.counts,
                    counts(&round.results)
                )
            });
            traced.push(t);
        }
        rounds.push(round);
    }
    let trials = TRIALS * CampaignScheme::ALL.len() as u64;
    out.attempted = trials * rounds.len() as u64;

    let col = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    out.end_to_end(
        &Samples {
            setup_s: &col(|r| r.setup_s),
            request_s: &col(|r| r.campaign_s),
            work: &vec![trials as f64; rounds.len()],
            peak_rss_mib: rss_mib,
            rate_name: "trials_per_s",
            request_name: "campaign",
        },
        &speed,
    );

    if trace {
        let results = &rounds[0].results;
        let m = &mut out.metrics;
        let t0 = &traced[0];
        m.set("campaign.trials", trials as f64);
        m.set(
            "campaign.sample.s",
            median(&traced.iter().map(|t| t.sample_s).collect::<Vec<_>>()),
        );
        m.set(
            "campaign.trial.s",
            median(
                &traced
                    .iter()
                    .map(|t| t.run_s - t.sample_s)
                    .collect::<Vec<_>>(),
            ),
        );
        m.set(
            "campaign.faulty_trial_ratio",
            t0.faulty as f64 / trials as f64,
        );
        for r in results {
            let [ce, due, sdc] = outcome_names(r.scheme);
            m.set(ce, (r.counts.ce_transient + r.counts.ce_degraded) as f64);
            m.set(due, r.counts.due as f64);
            m.set(sdc, r.counts.sdc as f64);
        }
        ecc_kernels(m);
        let traced_s = median(&traced.iter().map(|t| t.cpu_s).collect::<Vec<_>>());
        let untraced_s = median(&rounds.iter().map(|r| r.campaign_s).collect::<Vec<_>>());
        m.set("trace_overhead_frac", traced_s / untraced_s - 1.0);
    }
    out
}

fn outcome_names(s: CampaignScheme) -> [&'static str; 3] {
    match s {
        CampaignScheme::Chipkill => ["ecc.chipkill.ce", "ecc.chipkill.due", "ecc.chipkill.sdc"],
        CampaignScheme::DveDsd => ["ecc.dve_dsd.ce", "ecc.dve_dsd.due", "ecc.dve_dsd.sdc"],
        CampaignScheme::DveTsd => ["ecc.dve_tsd.ce", "ecc.dve_tsd.due", "ecc.dve_tsd.sdc"],
        CampaignScheme::DveChipkill => [
            "ecc.dve_chipkill.ce",
            "ecc.dve_chipkill.due",
            "ecc.dve_chipkill.sdc",
        ],
    }
}

/// The campaign's trial loop on one thread, with the fault sampler and
/// the trial executor timed apart.
struct TracedCampaign {
    cpu_s: f64,
    /// Host time drawing fault samples (`FaultSampler::sample_stratum`).
    sample_s: f64,
    /// Host time in `TrialExecutor::run_stratified_with`, which draws
    /// the same sample again before adjudicating it.
    run_s: f64,
    faulty: u64,
    counts: Vec<OutcomeCounts>,
}

impl TracedCampaign {
    fn run(cfg: &CampaignConfig) -> TracedCampaign {
        let clock = Stopwatch::start();
        let mut t = TracedCampaign {
            cpu_s: 0.0,
            sample_s: 0.0,
            run_s: 0.0,
            faulty: 0,
            counts: Vec::new(),
        };
        let sampler = FaultSampler::new(cfg.params);
        for s in CampaignScheme::ALL {
            let exec = TrialExecutor::new(s, cfg.params, cfg.replay_ops);
            let plan = exec.strata_plan(tail_min(cfg), cfg.trials);
            let mut scratch = exec.make_scratch();
            let mut counts = OutcomeCounts::default();
            for trial in 0..cfg.trials {
                let mut rng = SplitMix64::new(derive_seed(cfg.master_seed, s.stream(), trial));
                let spec = &plan.strata[plan.stratum_of(trial)];
                black_box(timed(&mut t.sample_s, || {
                    sampler.sample_stratum(&plan, spec, &mut rng)
                }));
                let r = timed(&mut t.run_s, || {
                    exec.run_stratified_with(cfg.master_seed, trial, &plan, &mut scratch)
                });
                counts.record(r.outcome);
                t.faulty += u64::from(r.fault_count > 0);
            }
            t.counts.push(counts);
        }
        t.cpu_s = clock.cpu_s();
        t
    }
}

/// Median nanoseconds per call of `f` over several timed blocks.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 100_000;
    let blocks: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
        })
        .collect();
    median(&blocks)
}

/// Timed calls to the `dve_ecc` decoders the campaign's trials use.
fn ecc_kernels(m: &mut crate::metrics::Metrics) {
    let rs = Rs::chipkill();
    let data: Vec<u8> = (0..16).collect();
    let clean = rs.encode(&data);
    let mut one = clean.clone();
    one[5] ^= 0xA5;
    let mut two = clean.clone();
    two[3] ^= 0x11;
    two[9] ^= 0x77;
    let mut scratch = rs.make_scratch();
    let mut work = clean.clone();
    for (name, cw) in [
        ("ecc.rs_decode_clean_ns", &clean),
        ("ecc.rs_decode_1err_ns", &one),
        ("ecc.rs_decode_2err_ns", &two),
    ] {
        let ns = ns_per_call(|| {
            work.copy_from_slice(cw);
            black_box(rs.decode_in_place(black_box(&mut work), &mut scratch));
        });
        m.set(name, ns);
    }
    let tsd = Rs16Detect::tsd(64);
    let line: Vec<u8> = (0..64).collect();
    let cw = tsd.encode(&line);
    m.set(
        "ecc.tsd_check_ns",
        ns_per_call(|| {
            black_box(tsd.check(black_box(&cw)));
        }),
    );
}
