//! Randomized trace generation and the fuzz driver.
//!
//! Traces are generated *independently of engine outcomes* — the ops a
//! trace contains never depend on what the engine returned — so any
//! trace replays bit-identically and every subsequence of a trace is
//! itself a valid trace. That property is what makes [`crate::shrink`](mod@crate::shrink)
//! sound.
//!
//! Generation is seeded through [`dve_sim::rng::derive_seed`] (the one
//! sanctioned master-seed → child-seed derivation in this workspace)
//! and biased by the Table III workload profiles from `dve-workloads`:
//! the sharing-class mix picks shared vs. thread-private regions, the
//! profile's write fraction picks loads vs. stores, and its spatial
//! locality drives sequential next-line cursors — so the fuzzer visits
//! the same protocol-state neighborhoods the performance runs do, plus
//! the degraded-mode and protocol-switch transitions they never take.

pub use crate::trace::builtin_configs;

use crate::check::{ConformanceChecker, Violation};
use crate::trace::{FuzzConfig, FuzzOp};
use dve_coherence::engine::SeededBug;
use dve_coherence::types::LineAddr;
use dve_coherence::Mode;
use dve_sim::rng::{derive_seed, SplitMix64};
use dve_workloads::{catalog, WorkloadProfile};

/// Lines per thread-private region.
const PRIVATE_LINES: u64 = 4;
/// Lines in the shared region (spanning pages 0 and 1, so both sockets
/// are home to half of it).
const SHARED_LINES: u64 = 16;
/// Probability of a degraded-mode toggle per op slot (Dvé configs).
const P_DEGRADED: f64 = 0.004;
/// Probability of a dynamic protocol switch per op slot (Dvé configs).
const P_SWITCH: f64 = 0.003;

/// The 32-line pool every fuzz trace draws from: lines 0–15 are the
/// shared region (pages 0–1, homes interleaved), lines 16–31 are four
/// thread-private regions of `PRIVATE_LINES` each (pages 2–3). With
/// the `Pages([0, 1])` replication scope, the shared region is
/// replicated and the private regions take the §V-D single-copy
/// fallback.
pub fn line_pool() -> Vec<LineAddr> {
    (0..SHARED_LINES + 4 * PRIVATE_LINES).collect()
}

/// First line of `core`'s private region.
fn private_base(core: u8) -> LineAddr {
    SHARED_LINES + PRIVATE_LINES * core as u64
}

/// Profile-biased op generator.
struct OpGen {
    rng: SplitMix64,
    profile: WorkloadProfile,
    /// Whether degraded/switch transition ops may be emitted.
    dve: bool,
    cores: u8,
    /// Per-core sequential cursor in the shared region.
    shared_cursor: [u64; 8],
    /// Per-core sequential cursor in its private region.
    private_cursor: [u64; 8],
}

impl OpGen {
    fn new(cfg: &FuzzConfig, profile: WorkloadProfile, seed: u64) -> OpGen {
        OpGen {
            rng: SplitMix64::new(seed),
            profile,
            dve: matches!(cfg.mode, Mode::Dve { .. }),
            cores: cfg.engine.cores as u8,
            shared_cursor: [0; 8],
            private_cursor: [0; 8],
        }
    }

    fn next_op(&mut self) -> FuzzOp {
        if self.dve && self.rng.chance(P_DEGRADED) {
            return FuzzOp::SetDegraded(self.rng.chance(0.5));
        }
        if self.dve && self.rng.chance(P_SWITCH) {
            return FuzzOp::SwitchPolicy {
                deny: self.rng.chance(0.5),
                speculative: self.rng.chance(0.5),
            };
        }
        let core = self.rng.next_below(self.cores as u64) as u8;
        // Sharing class drawn from the profile mix.
        let mix = self.profile.mix;
        let x = self.rng.next_f64();
        let (private, writable_class) = if x < mix.private_read {
            (true, false)
        } else if x < mix.private_read + mix.read_only {
            (false, false)
        } else if x < mix.private_read + mix.read_only + mix.read_write {
            (false, true)
        } else {
            (true, true)
        };
        // Read-only classes still see rare stores (initialization
        // phases), so no line in the pool is unwritable forever.
        let write = if writable_class {
            self.rng.chance(self.profile.write_frac.max(0.15))
        } else {
            self.rng.chance(0.02)
        };
        let ci = core as usize;
        let (base, len, cursor) = if private {
            (
                private_base(core),
                PRIVATE_LINES,
                &mut self.private_cursor[ci],
            )
        } else {
            (0, SHARED_LINES, &mut self.shared_cursor[ci])
        };
        let off = if self.rng.chance(self.profile.spatial) {
            *cursor = (*cursor + 1) % len;
            *cursor
        } else {
            let o = self.rng.next_below(len);
            *cursor = o;
            o
        };
        FuzzOp::Access {
            core,
            line: base + off,
            write,
        }
    }
}

/// Generates a `len`-op trace for `cfg`, biased by `profile`, from a
/// fully derived `seed`.
pub fn gen_trace(
    cfg: &FuzzConfig,
    profile: &WorkloadProfile,
    seed: u64,
    len: usize,
) -> Vec<FuzzOp> {
    let mut g = OpGen::new(cfg, profile.clone(), seed);
    (0..len).map(|_| g.next_op()).collect()
}

/// Replays `ops` through a fresh engine in `cfg` (optionally with a
/// seeded `bug`) and returns the first conformance violation, if any.
pub fn run_trace(cfg: &FuzzConfig, ops: &[FuzzOp], bug: Option<SeededBug>) -> Option<Violation> {
    let mut checker = ConformanceChecker::new(cfg, bug, line_pool());
    for &op in ops {
        if let Err(v) = checker.apply(op) {
            return Some(v);
        }
    }
    None
}

/// A violating trace together with the violation it produced.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The (unshrunk) trace that exposed the violation.
    pub trace: Vec<FuzzOp>,
    /// The violation itself.
    pub violation: Violation,
}

/// Result of fuzzing one configuration.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Name of the configuration fuzzed.
    pub config: String,
    /// Total ops executed before stopping (all of them, if clean).
    pub ops_run: u64,
    /// The first failure, if one occurred.
    pub failure: Option<FuzzFailure>,
}

/// Ops per generated trace chunk. Each chunk starts from a cold engine,
/// so state pathologies must develop within one chunk — 512 ops is
/// dozens of times the tiny caches' capacity, which is plenty (and it
/// keeps violating traces short before shrinking even starts).
const CHUNK_OPS: usize = 512;

/// FNV-1a, used to give every configuration its own seed stream.
fn stream_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fuzzes one configuration for `total_ops` operations (in
/// `CHUNK_OPS`-sized traces, cycling through the Table III workload
/// profiles) and stops at the first violation.
pub fn fuzz_config(
    cfg: &FuzzConfig,
    master_seed: u64,
    total_ops: u64,
    bug: Option<SeededBug>,
) -> FuzzOutcome {
    let profiles = catalog();
    let stream = stream_of(&cfg.name);
    let mut ops_run = 0u64;
    let mut round = 0u64;
    while ops_run < total_ops {
        let len = CHUNK_OPS.min((total_ops - ops_run) as usize);
        let profile = &profiles[(round as usize) % profiles.len()];
        let seed = derive_seed(master_seed, stream, round);
        let trace = gen_trace(cfg, profile, seed, len);
        if let Some(violation) = run_trace(cfg, &trace, bug) {
            ops_run += violation.op_index as u64 + 1;
            return FuzzOutcome {
                config: cfg.name.clone(),
                ops_run,
                failure: Some(FuzzFailure { trace, violation }),
            };
        }
        ops_run += len as u64;
        round += 1;
    }
    FuzzOutcome {
        config: cfg.name.clone(),
        ops_run,
        failure: None,
    }
}

/// Renders a trace as the Rust literal used in committed regression
/// tests (`tests/regressions.rs`).
pub fn format_trace(ops: &[FuzzOp]) -> String {
    let mut s = String::from("&[\n");
    for op in ops {
        match *op {
            FuzzOp::Access { core, line, write } => {
                s.push_str(&format!(
                    "    FuzzOp::Access {{ core: {core}, line: {line}, write: {write} }},\n"
                ));
            }
            FuzzOp::SetDegraded(d) => {
                s.push_str(&format!("    FuzzOp::SetDegraded({d}),\n"));
            }
            FuzzOp::SwitchPolicy { deny, speculative } => {
                s.push_str(&format!(
                    "    FuzzOp::SwitchPolicy {{ deny: {deny}, speculative: {speculative} }},\n"
                ));
            }
        }
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::config_by_name;

    #[test]
    fn traces_are_deterministic() {
        let cfg = config_by_name("dve-allow");
        let p = &catalog()[0];
        let a = gen_trace(&cfg, p, 42, 200);
        let b = gen_trace(&cfg, p, 42, 200);
        assert_eq!(a, b);
        let c = gen_trace(&cfg, p, 43, 200);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_lines_stay_in_pool() {
        let cfg = config_by_name("dve-deny");
        let pool = line_pool();
        for (i, p) in catalog().iter().enumerate() {
            for op in gen_trace(&cfg, p, 1000 + i as u64, 300) {
                if let FuzzOp::Access { line, core, .. } = op {
                    assert!(pool.contains(&line));
                    assert!((core as usize) < cfg.engine.cores);
                }
            }
        }
    }

    #[test]
    fn baseline_traces_have_no_transition_ops() {
        let cfg = config_by_name("baseline");
        let p = &catalog()[3];
        for op in gen_trace(&cfg, p, 7, 2000) {
            assert!(matches!(op, FuzzOp::Access { .. }));
        }
    }

    #[test]
    fn format_trace_round_trip_shape() {
        let ops = [
            FuzzOp::Access {
                core: 1,
                line: 9,
                write: true,
            },
            FuzzOp::SetDegraded(true),
            FuzzOp::SwitchPolicy {
                deny: false,
                speculative: true,
            },
        ];
        let s = format_trace(&ops);
        assert!(s.contains("FuzzOp::Access { core: 1, line: 9, write: true }"));
        assert!(s.contains("FuzzOp::SetDegraded(true)"));
        assert!(s.contains("FuzzOp::SwitchPolicy { deny: false, speculative: true }"));
    }
}
