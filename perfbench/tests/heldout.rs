//! The held-out seed: a seed used nowhere while the benchmark was tuned
//! must pass every output check on every workload, traced and untraced,
//! and print exactly the metric names `BENCHMARK.json` lists.
//!
//! Release builds only (`cargo test --release`): each workload runs for
//! several seconds of simulation, which a debug build stretches to
//! minutes.

use std::process::Command;

const HELD_OUT_SEED: &str = "7919";
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let rest = &BENCHMARK_JSON[start..];
    rest[..rest.find(']').expect("array closes")]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// Metric names in the result line, in order.
fn printed(line: &str) -> Vec<String> {
    let chunks: Vec<&str> = line.split(": {\"value\"").collect();
    // Each chunk but the last ends with the quoted name of the metric
    // whose value follows.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the workloads; use --release")]
fn held_out_seed_passes_every_check_and_prints_the_listed_metrics() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("heldout");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for workload in listed("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_dve-perfbench"))
                .args(["--workload", &workload, "--seed", HELD_OUT_SEED])
                .args(["--seconds", "1", "--trace", trace])
                .current_dir(&dir)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("result line");
            assert!(
                last.starts_with("{\"correct\": true,"),
                "{workload}: {last}"
            );
            assert_eq!(printed(last), listed(section), "{workload} trace={trace}");
        }
    }
}
