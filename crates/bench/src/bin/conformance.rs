//! Differential conformance fuzzing of the production coherence engine
//! (see `dve-conformance`): every builtin mode/structure configuration
//! is driven with profile-biased random traces against the golden
//! sequentially-consistent shadow, checking SWMR, inclusion, directory
//! agreement, replica freshness, read-returns-last-write, latency
//! monotonicity and stats conservation after **every** operation.
//!
//! ```text
//! cargo run -p dve-bench --bin conformance --release            # full run
//! cargo run -p dve-bench --bin conformance --release -- smoke   # CI smoke
//! cargo run -p dve-bench --bin conformance --release -- mutation
//! ```
//!
//! Environment knobs:
//!
//! * `DVE_CONFORMANCE_OPS`  — ops per configuration (default 100 000;
//!   smoke mode divides by 10)
//! * `DVE_CONFORMANCE_SEED` — master seed (default the bench seed);
//!   same seed ⇒ bit-identical run
//!
//! Exit status: non-zero if any configuration produces a violation
//! (fuzz modes) or any seeded mutation escapes / fails to shrink to a
//! ≤30-op trace (mutation mode). A violating trace is printed in the
//! exact form used by `crates/conformance/tests/regressions.rs`, ready
//! to commit as a regression test.

use dve_bench::gate::{env_u64, Gate, HarnessError};
use dve_conformance::{builtin_configs, fuzz_config, mutation_check, shrink};
use std::process::ExitCode;

fn run_fuzz(gate: &mut Gate, seed: u64, ops: u64) {
    println!("conformance fuzz: {ops} ops/config, seed {seed:#x}");
    for cfg in builtin_configs() {
        let out = fuzz_config(&cfg, seed, ops, None);
        let verdict = match &out.failure {
            None => "clean".to_string(),
            Some(f) => format!("VIOLATION {}", f.violation),
        };
        gate.check(
            out.failure.is_none(),
            format!("{:<22} {:>8} ops  {verdict}", cfg.name, out.ops_run),
        );
        if let Some(f) = out.failure {
            let (small, v) = shrink(&cfg, &f.trace, None, &f.violation);
            println!("    minimized to {} ops ({}):", small.len(), v.kind);
            println!("{}", dve_conformance::fuzz::format_trace(&small));
        }
    }
}

fn run_mutation(gate: &mut Gate, seed: u64, ops: u64) {
    println!("mutation check: up to {ops} ops/config/bug, seed {seed:#x}");
    for r in &mutation_check(seed, ops) {
        let bug = format!("{:?}", r.bug);
        if !r.caught {
            gate.check(false, format!("{bug:<28} ESCAPED"));
            continue;
        }
        gate.check(
            r.shrunk.len() <= 30,
            format!(
                "{bug:<28} caught by {:<22} in {:>6} ops, class {:<12} shrunk to {:>2} ops (<= 30)",
                r.config,
                r.ops_to_catch,
                r.class,
                r.shrunk.len(),
            ),
        );
    }
}

fn main() -> Result<ExitCode, HarnessError> {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "fuzz".into());
    let seed = env_u64("DVE_CONFORMANCE_SEED", dve_bench::SEED)?;
    let ops = env_u64("DVE_CONFORMANCE_OPS", 100_000)?;
    let mut gate = Gate::new();
    match mode.as_str() {
        "fuzz" => run_fuzz(&mut gate, seed, ops),
        "smoke" => run_fuzz(&mut gate, seed, ops / 10),
        "mutation" => run_mutation(&mut gate, seed, (ops / 10).max(2_000)),
        other => {
            return Err(HarnessError::new(format!(
                "unknown mode {other:?}; use fuzz | smoke | mutation"
            )))
        }
    }
    Ok(gate.finish("conformance"))
}
