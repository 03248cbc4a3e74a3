//! The repository benchmark: four workloads driven through the crates'
//! public APIs, their output checks, end-to-end metrics with tracing
//! off, and a traced run that splits host time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A run manifest
//! and the named figures precede it, and everything is also written to
//! `.bench_results/`. See `perfbench/README.md`.

mod campaign;
mod cputime;
mod metrics;
mod outcome;
mod reference;
mod replay;
mod serve;
mod stats;

use metrics::{json_number, json_string, render, Verdict, END_TO_END, PER_LAYER, WORKLOADS};
use outcome::{secs_since, Outcome};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: dve-perfbench --workload <name> --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad value {v:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(args: &Args) -> Outcome {
    let secs = args.seconds as f64;
    match args.workload.as_str() {
        "replay-shared-read" => replay::run(&replay::SHARED_READ, args.seed, secs, args.trace),
        "replay-write-chaos" => replay::run(&replay::WRITE_CHAOS, args.seed, secs, args.trace),
        "serve" => serve::run(args.seed, secs, args.trace),
        "campaign-stratified" => campaign::run(args.seed, secs, args.trace),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// The revision of the source tree, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn manifest(args: &Args, out: &Outcome, run_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"run_s\": {}, \"config\": {}}}",
        json_string(&git_rev()),
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_number(run_s),
        json_string(&out.config),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut out = run_workload(&args);
    let run_s = secs_since(start);
    out.check(out.attempted > 0, || "no work was attempted".to_string());
    for d in END_TO_END {
        let v = out.metrics.get(d.name);
        out.check(v.is_some_and(|v| v > 0.0), || {
            format!("end-to-end metric {} reads {v:?}", d.name)
        });
    }
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }

    let mut lines = vec![format!("manifest {}", manifest(&args, &out, run_s))];
    for f in &out.figures {
        let note = if f.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", f.note)
        };
        lines.push(format!(
            "figure {:<22} {:>18} {}{note}",
            f.name,
            json_number(f.value),
            f.unit
        ));
    }
    let result = Verdict {
        correct: out.failures.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    lines.push(render(&result, defs, &out.metrics));

    let text = lines.join("\n") + "\n";
    print!("{text}");
    let dir = std::path::Path::new(".bench_results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &text)) {
        eprintln!("could not write {}: {e}", file.display());
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
