//! Tracked performance baseline for the ECC decode pipeline, the
//! fault-injection campaign and the timed system simulator.
//!
//! Produces three machine-readable artifacts, in the current directory
//! for a full run and under `target/perf-smoke/` for `smoke`:
//!
//! * `BENCH_ecc.json` — median ns/op for the scalar GF(2^8) and
//!   GF(2^16) multiplies (table-driven vs the shift-and-add reference
//!   oracle), RS(18,16) encode and decode (clean / 1-error / 2-error),
//!   the DSD detect path, and the 3-check TSD (GF(2^16)) encode/detect
//!   path (encode on fixed and on random lines: random data reaches the
//!   cold parts of the GF(2^16) tables);
//! * `BENCH_campaign.json` — end-to-end campaign throughput in
//!   trials/second at 1, 2, 4 and 8 workers (plus N = available
//!   parallelism if distinct), with the parallel efficiency
//!   `tps_w / (w * tps_1)` of each point, and the scaling gate's median
//!   2-worker/1-worker ratio (`scaling_median_workers_2`). Every point
//!   repeats the campaign over at least 100 ms of wall time;
//! * `BENCH_system.json` — the full-system simulator on a pinned
//!   backprop trace: simulated cycles at `mshrs ∈ {1, 4}` (simulation
//!   output, machine-independent), simulator wall-clock throughput in
//!   memory-ops/second, the per-layer latency attribution and tail
//!   latency of the deny run, and the topology sweep.
//!
//! All files record the git revision they were measured at, so the
//! numbers can be tracked across PRs (CI uploads them as artifacts).
//!
//! ```text
//! cargo run -p dve-bench --bin perf --release            # full baseline
//! cargo run -p dve-bench --bin perf --release -- smoke   # CI gate
//! ```
//!
//! `smoke` is the reduced-iteration run for CI: ~1 ms of timed batches
//! per microbench, a small campaign and a short system trace. Its JSON
//! files (tagged `"mode": "smoke"`) go under `target/perf-smoke/`, so a
//! gate run never rewrites the committed baselines.
//!
//! Exit code: non-zero if a built-in relative gate fails; every gate is
//! evaluated and reported either way. Three gates, all *relative* by
//! design (absolute thresholds would flake across CI hardware, while
//! these ratios are machine-independent):
//!
//! 1. a 1-error RS(18,16) correction must cost at most 2× a clean
//!    decode (the closed-form single-error path; routing RS(18,16)
//!    back through Berlekamp–Massey/Chien/Forney costs 5–10×),
//! 2. campaign throughput at 2 workers must be at least 1.5× the
//!    1-worker rate, as the median ratio over five interleaved
//!    1-worker/2-worker pairs, each point timed over at least 100 ms
//!    of repeated campaigns — skipped with a printed notice on
//!    single-core hosts, where the ratio measures time-slicing rather
//!    than scaling,
//! 3. widening the cores from 1 to 4 MSHRs must not increase simulated
//!    cycles on the pinned trace (memory-level parallelism can only
//!    hide latency; simulated cycles are deterministic, so this cannot
//!    flake with runner speed).

use dve::config::Scheme;
use dve::system::System;
use dve_bench::gate::{smoke, write_report, Gate, HarnessError};
use dve_bench::timing::MicroBench;
use dve_bench::{config, profile};
use dve_campaign::runner::{run_campaign, CampaignConfig, SamplingMode};
use dve_campaign::trial::CampaignScheme;
use dve_ecc::code::DetectionCode;
use dve_ecc::gf::{reference, Gf16, Gf256};
use dve_ecc::rs::Rs;
use dve_ecc::rs16::Rs16Detect;
use dve_sim::latency::Component;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// How many scalar GF multiplies each GF routine performs per
/// iteration; reported numbers are divided by this.
const GF_BATCH: f64 = 255.0;

/// Where `smoke` writes its JSON files: inside the build directory, away
/// from the committed full-run baselines.
const SMOKE_DIR: &str = "target/perf-smoke";

/// The gate: a 1-error decode may cost at most this many clean decodes.
const GATE_CORRECTION_COST: f64 = 2.0;

/// Campaign scaling gate: with a second hardware thread available,
/// 2-worker throughput must be at least this multiple of 1-worker
/// throughput. Relative, so it holds on any multi-core runner; skipped
/// (with a printed notice) when the host has a single hardware thread.
const GATE_SCALING_2W: f64 = 1.5;

/// Minimum wall time of one timed campaign point.
const MIN_CAMPAIGN_WINDOW: Duration = Duration::from_millis(100);

/// Interleaved 1-worker/2-worker pairs behind the scaling gate's median.
const SCALING_REPEATS: usize = 5;

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders a flat JSON object with a deterministic key order.
fn render_json(rev: &str, mode: &str, unit: &str, fields: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"git_rev\": \"{rev}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"unit\": \"{unit}\",");
    out.push_str("  \"results\": {\n");
    for (i, (name, value)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{name}\": {value:.3}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// The value of the field `name`.
fn field(fields: &[(String, f64)], name: &str) -> f64 {
    fields
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("gate metric {name} missing"))
}

fn bench_ecc(c: &mut MicroBench) -> Vec<(String, f64)> {
    let chipkill = Rs::chipkill();
    let dsd = Rs::dsd();
    let tsd = Rs16Detect::tsd(64);
    let data16: Vec<u8> = (0..16).collect();
    let line: Vec<u8> = (0..64).collect();
    let clean = chipkill.encode(&data16);
    let mut one_err = clean.clone();
    one_err[5] ^= 0xA5;
    let mut two_err = clean.clone();
    two_err[3] ^= 0x11;
    two_err[9] ^= 0x77;
    let tsd_clean = tsd.encode(&line);
    let mut tsd_err = tsd_clean.clone();
    tsd_err[7] ^= 0x42;
    tsd_err[40] ^= 0x99;

    let mut entries = Vec::new();
    let mut push = |c: &mut MicroBench, name: &str, scale: f64| {
        let m = c.take_measurements().pop().expect("bench recorded nothing");
        entries.push((name.to_string(), m.median_ns_per_iter / scale));
    };

    // --- GF scalar kernels: table-driven vs reference oracle. ---
    c.bench_function("gf256_mul", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for a in 1..=255u8 {
                acc ^= Gf256::mul(black_box(a), black_box(0x53));
            }
            acc
        })
    });
    push(c, "gf256_mul", GF_BATCH);

    c.bench_function("gf256_mul_reference", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for a in 1..=255u8 {
                acc ^= reference::gf256_mul(black_box(a), black_box(0x53));
            }
            acc
        })
    });
    push(c, "gf256_mul_reference", GF_BATCH);

    c.bench_function("gf16_mul", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for a in 1..=255u16 {
                acc ^= Gf16::mul(black_box(a * 131), black_box(0x1537));
            }
            acc
        })
    });
    push(c, "gf16_mul", GF_BATCH);

    c.bench_function("gf16_mul_reference", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for a in 1..=255u16 {
                acc ^= reference::gf16_mul(black_box(a * 131), black_box(0x1537));
            }
            acc
        })
    });
    push(c, "gf16_mul_reference", GF_BATCH);

    // --- RS(18,16) Chipkill: encode + decode hot paths. ---
    let mut cw_buf = vec![0u8; chipkill.codeword_len()];
    c.bench_function("rs_encode_into", |b| {
        b.iter(|| {
            chipkill.encode_into(black_box(&data16), black_box(&mut cw_buf));
        })
    });
    push(c, "rs_encode_into", 1.0);

    let mut scratch = chipkill.make_scratch();
    let mut work = clean.clone();
    c.bench_function("rs_decode_clean", |b| {
        b.iter(|| {
            work.copy_from_slice(&clean);
            black_box(chipkill.decode_in_place(black_box(&mut work), &mut scratch))
        })
    });
    push(c, "rs_decode_clean", 1.0);

    c.bench_function("rs_decode_1err", |b| {
        b.iter(|| {
            work.copy_from_slice(&one_err);
            black_box(chipkill.decode_in_place(black_box(&mut work), &mut scratch))
        })
    });
    push(c, "rs_decode_1err", 1.0);

    c.bench_function("rs_decode_2err", |b| {
        b.iter(|| {
            work.copy_from_slice(&two_err);
            black_box(chipkill.decode_in_place(black_box(&mut work), &mut scratch))
        })
    });
    push(c, "rs_decode_2err", 1.0);

    // --- DSD detect-only check. ---
    c.bench_function("dsd_check_clean", |b| {
        b.iter(|| black_box(dsd.check(black_box(&clean))))
    });
    push(c, "dsd_check_clean", 1.0);

    // --- TSD (GF(2^16)) encode + detect. ---
    let mut tsd_buf = vec![0u8; tsd.codeword_len()];
    c.bench_function("tsd_encode_into", |b| {
        b.iter(|| {
            tsd.encode_into(black_box(&line), black_box(&mut tsd_buf));
        })
    });
    push(c, "tsd_encode_into", 1.0);

    // The fixed line above keeps its few table lines cached; campaign
    // trials encode fresh random lines.
    let mut rng = dve_sim::rng::SplitMix64::new(0x75D);
    let random_lines: Vec<Vec<u8>> = (0..1024)
        .map(|_| (0..64).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let mut next = 0;
    c.bench_function("tsd_encode_into_random", |b| {
        b.iter(|| {
            next = (next + 1) % random_lines.len();
            tsd.encode_into(black_box(&random_lines[next]), black_box(&mut tsd_buf));
        })
    });
    push(c, "tsd_encode_into_random", 1.0);

    c.bench_function("tsd_check_clean", |b| {
        b.iter(|| black_box(tsd.check(black_box(&tsd_clean))))
    });
    push(c, "tsd_check_clean", 1.0);

    c.bench_function("tsd_check_2err", |b| {
        b.iter(|| black_box(tsd.check(black_box(&tsd_err))))
    });
    push(c, "tsd_check_2err", 1.0);

    entries
}

/// Campaign throughput of `workers` workers in trials/second. The
/// timed point repeats the campaign over every scheme until at least
/// [`MIN_CAMPAIGN_WINDOW`] has passed, so a small smoke campaign is
/// timed over many passes instead of one few-millisecond pass.
fn campaign_tps(trials: u64, workers: usize) -> f64 {
    let cfg = CampaignConfig {
        master_seed: 0xD5E_2021,
        trials,
        workers,
        params: dve_reliability::accel::AccelParams::paper_accelerated(),
        replay_ops: 0,
        sampling: SamplingMode::Plain,
    };
    let pass = || {
        for s in CampaignScheme::ALL {
            black_box(run_campaign(&cfg, s));
        }
    };
    // Warm-up pass: the first campaign run pays one-time costs (thread
    // spawn, page faults on the 384 KiB GF tables, branch training)
    // that otherwise roughly halve the measured steady-state
    // throughput.
    pass();
    let start = Instant::now();
    let mut passes = 0u64;
    let secs = loop {
        pass();
        passes += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= MIN_CAMPAIGN_WINDOW.as_secs_f64() {
            break secs;
        }
    };
    (passes * trials * CampaignScheme::ALL.len() as u64) as f64 / secs
}

/// The scaling gate's ratio: the median of [`SCALING_REPEATS`]
/// 2-worker/1-worker throughput ratios, each from a back-to-back pair
/// of timed points whose order alternates, so a burst of host noise
/// spoils one pair rather than the verdict.
fn campaign_scaling(trials: u64) -> f64 {
    let mut ratios: Vec<f64> = (0..SCALING_REPEATS)
        .map(|rep| {
            let (tps1, tps2) = if rep % 2 == 0 {
                let tps1 = campaign_tps(trials, 1);
                (tps1, campaign_tps(trials, 2))
            } else {
                let tps2 = campaign_tps(trials, 2);
                (campaign_tps(trials, 1), tps2)
            };
            println!(
                "  scaling repeat {rep}: workers=2/workers=1 {:.2}x",
                tps2 / tps1
            );
            tps2 / tps1
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn bench_campaign(trials: u64) -> Vec<(String, f64)> {
    let n = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut worker_counts = vec![1usize, 2, 4, 8];
    if !worker_counts.contains(&n) {
        worker_counts.push(n);
    }
    let schemes = CampaignScheme::ALL.len() as u64;
    let mut out = Vec::new();
    out.push(("trials_per_scheme".to_string(), trials as f64));
    out.push(("schemes".to_string(), schemes as f64));
    out.push(("host_parallelism".to_string(), n as f64));
    let mut tps_1 = f64::NAN;
    for workers in worker_counts {
        let tps = campaign_tps(trials, workers);
        if workers == 1 {
            tps_1 = tps;
        }
        // Parallel efficiency = tps_w / (w * tps_1): 1.0 is perfect
        // linear scaling. Only meaningful up to the host's core count —
        // past it the efficiency denominator keeps growing while the
        // hardware cannot.
        let eff = tps / (workers as f64 * tps_1);
        println!("  campaign workers={workers:<2} {tps:>12.0} trials/s  (efficiency {eff:.2})");
        out.push((format!("trials_per_sec_workers_{workers}"), tps));
        out.push((format!("parallel_efficiency_workers_{workers}"), eff));
    }
    out
}

/// Runs the full-system simulator on a pinned backprop trace and
/// returns the JSON fields plus the (mshrs=1, mshrs=4) simulated cycle
/// counts used by the MSHR gate.
fn bench_system(ops: u64) -> (Vec<(String, f64)>, u64, u64) {
    let p = profile("backprop");
    let run = |scheme, mshrs| {
        let mut cfg = config(scheme, ops);
        cfg.mshrs = mshrs;
        System::new(cfg, &p, 42).run()
    };
    let start = Instant::now();
    let base = run(Scheme::BaselineNuma, 1);
    let deny1 = run(Scheme::DveDeny, 1);
    let deny4 = run(Scheme::DveDeny, 4);
    let secs = start.elapsed().as_secs_f64();
    let sim_mem_ops = (base.mem_ops + deny1.mem_ops + deny4.mem_ops) as f64;

    let mut out = vec![
        ("ops_per_thread".to_string(), ops as f64),
        ("cycles_baseline_mshrs_1".to_string(), base.cycles as f64),
        ("cycles_deny_mshrs_1".to_string(), deny1.cycles as f64),
        ("cycles_deny_mshrs_4".to_string(), deny4.cycles as f64),
        ("sim_mem_ops_per_wall_sec".to_string(), sim_mem_ops / secs),
    ];
    // Per-layer attribution of the deny run's measured region: where
    // memory-access time actually goes (conserves to 1.0 by
    // construction).
    for c in Component::ALL {
        out.push((
            format!("latency_frac_{}", c.label()),
            deny1.latency.fraction(c),
        ));
    }
    // Tail latency of the measured region, total and per layer, from
    // the run's log-bucketed per-op histograms.
    let (p50, p99, p999) = deny1.latency_tail();
    out.push(("latency_p50_total".to_string(), p50 as f64));
    out.push(("latency_p99_total".to_string(), p99 as f64));
    out.push(("latency_p999_total".to_string(), p999 as f64));
    for c in Component::ALL {
        let (_, p99, _) = deny1.component_tail(c);
        out.push((format!("latency_p99_{}", c.label()), p99 as f64));
    }
    println!(
        "  cycles baseline/deny(m=1)/deny(m=4): {} / {} / {}  ({:.0} sim mem-ops/s)",
        base.cycles,
        deny1.cycles,
        deny4.cycles,
        sim_mem_ops / secs
    );
    (out, deny1.cycles, deny4.cycles)
}

/// Topology sweep section of `BENCH_system.json`: simulated cycles and
/// replica reads for the deny scheme on each placement.
fn bench_topology(ops: u64) -> Vec<(String, f64)> {
    use dve::config::TopologySpec;
    let p = profile("backprop");
    let mut out = Vec::new();
    for spec in [
        TopologySpec::Mirror2,
        TopologySpec::Nway(4),
        TopologySpec::TwoTier,
    ] {
        let mut cfg = config(Scheme::DveDeny, ops);
        cfg.mshrs = 1;
        cfg.set_topology(spec);
        let r = System::new(cfg, &p, 42).run();
        let key = spec.to_string().replace(':', "_");
        println!(
            "  topology {key:<8} cycles {} (replica reads {})",
            r.cycles, r.engine.replica_reads
        );
        out.push((format!("topology_cycles_deny_{key}"), r.cycles as f64));
        out.push((
            format!("topology_replica_reads_deny_{key}"),
            r.engine.replica_reads as f64,
        ));
    }
    out
}

fn main() -> Result<ExitCode, HarnessError> {
    let smoke = smoke()?;
    let mode = if smoke { "smoke" } else { "full" };
    let rev = git_rev();
    println!("perf baseline @ {rev} ({mode})");
    let out = |name: &str| {
        if smoke {
            Path::new(SMOKE_DIR).join(name)
        } else {
            PathBuf::from(name)
        }
    };

    let mut c = MicroBench::new(if smoke {
        Duration::from_millis(1)
    } else {
        Duration::from_millis(20)
    });

    println!("-- ecc microbenches --");
    let ecc_fields = bench_ecc(&mut c);
    for (name, ns) in &ecc_fields {
        println!("  {name:<28} {ns:>10.2} ns/op");
    }
    write_report(
        out("BENCH_ecc.json"),
        &render_json(&rev, mode, "ns_per_op_median", &ecc_fields),
    )?;

    println!("-- campaign throughput --");
    let trials = if smoke { 20_000 } else { 200_000 };
    let mut campaign_fields = bench_campaign(trials);
    campaign_fields.push((
        "scaling_median_workers_2".to_string(),
        campaign_scaling(trials),
    ));
    write_report(
        out("BENCH_campaign.json"),
        &render_json(&rev, mode, "trials_per_sec", &campaign_fields),
    )?;

    println!("-- system simulator --");
    let sys_ops = if smoke { 300 } else { 2000 };
    let (mut system_fields, deny_m1, deny_m4) = bench_system(sys_ops);

    println!("-- topology sweep --");
    system_fields.extend(bench_topology(sys_ops));
    write_report(
        out("BENCH_system.json"),
        &render_json(&rev, mode, "mixed_cycles_and_fractions", &system_fields),
    )?;

    println!("-- gates --");
    let mut gate = Gate::new();

    // Single-symbol correction stays closed-form.
    let clean = field(&ecc_fields, "rs_decode_clean");
    let one = field(&ecc_fields, "rs_decode_1err");
    let cost = one / clean;
    gate.check(
        cost <= GATE_CORRECTION_COST,
        format!(
            "1-err decode {one:.2} ns vs clean decode {clean:.2} ns \
             ({cost:.2}x, need <= {GATE_CORRECTION_COST:.1}x)"
        ),
    );

    // Campaign scaling: two workers must actually buy throughput.
    // Relative (workers=2 vs workers=1 on the same run) so it is immune
    // to absolute machine speed, but it does need a second hardware
    // thread to mean anything — on a single-core runner both
    // configurations time-slice one CPU and the ratio is ~1.0 by
    // physics, not by regression, so the gate is skipped with a notice.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        let ratio = field(&campaign_fields, "scaling_median_workers_2");
        gate.check(
            ratio >= GATE_SCALING_2W,
            format!(
                "campaign scaling workers=2 vs workers=1, median of \
                 {SCALING_REPEATS} interleaved pairs {ratio:.2}x (need >= {GATE_SCALING_2W:.1}x)"
            ),
        );
    } else {
        println!(
            "  skip campaign scaling (host has {cores} hardware thread(s); \
             the 2-worker/1-worker ratio is meaningless without a second core)"
        );
    }

    // Memory-level parallelism must not hurt. Simulated cycles are
    // deterministic, so this cannot flake with runner speed.
    gate.check(
        deny_m4 <= deny_m1,
        format!(
            "deny cycles mshrs=4 {deny_m4} vs mshrs=1 {deny_m1} ({:.3}x, need <= 1.0x)",
            deny_m4 as f64 / deny_m1 as f64
        ),
    );

    Ok(gate.finish("perf"))
}
