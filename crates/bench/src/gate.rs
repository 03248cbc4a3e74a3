//! The pass/fail harness every gate binary reports through.
//!
//! A gate bin runs all of its checks, even after one fails, so a single
//! run lists every violated invariant; [`Gate::finish`] then prints the
//! verdict and turns it into the exit code. Bad harness input or output
//! (a malformed environment knob, a report that cannot be written) is a
//! [`HarnessError`], which fails the run instead of warning past it.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// Named checks collected over one gate run.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// An empty gate: no checks run yet.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Records one check, printing an `ok` or `FAIL` line.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            println!("  ok   {what}");
        } else {
            println!("  FAIL {what}");
            self.failures.push(what);
        }
    }

    /// Prints the verdict for the bin `name`: success when every check
    /// held, otherwise a list of the failed checks and `FAILURE`.
    pub fn finish(self, name: &str) -> ExitCode {
        if self.failures.is_empty() {
            println!("{name}: all gates passed");
            ExitCode::SUCCESS
        } else {
            println!("{name}: {} gate(s) FAILED:", self.failures.len());
            for f in &self.failures {
                println!("  - {f}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Bad harness input or output. Its `Debug` form is the plain message,
/// so `main` returning `Err` prints `Error: <message>`.
pub struct HarnessError(String);

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for HarnessError {}

impl HarnessError {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> HarnessError {
        HarnessError(message.into())
    }
}

/// Writes a report file, creating its parent directory first.
pub fn write_report(path: impl AsRef<Path>, text: &str) -> Result<(), HarnessError> {
    let path = path.as_ref();
    let io_err = |e: std::io::Error| HarnessError(format!("cannot write {}: {e}", path.display()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io_err)?;
    }
    std::fs::write(path, text).map_err(io_err)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Reads the environment variable `key` as a decimal or `0x`-prefixed
/// hexadecimal `u64`, or `default` when it is unset. A malformed value
/// is an error naming the variable, never a silent default.
pub fn env_u64(key: &str, default: u64) -> Result<u64, HarnessError> {
    match std::env::var(key) {
        Ok(v) => parse_u64(key, &v),
        Err(_) => Ok(default),
    }
}

fn parse_u64(key: &str, value: &str) -> Result<u64, HarnessError> {
    let v = value.trim();
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
    .ok_or_else(|| {
        HarnessError(format!(
            "{key}={value:?} is not a decimal or 0x-hex unsigned integer"
        ))
    })
}

/// Reads the environment variable `key` as an on/off flag (`1`, `true`,
/// `yes`, `on` or `0`, `false`, `no`, `off`, empty); unset is off.
pub fn env_flag(key: &str) -> Result<bool, HarnessError> {
    match std::env::var(key) {
        Ok(v) => parse_flag(key, &v),
        Err(_) => Ok(false),
    }
}

fn parse_flag(key: &str, value: &str) -> Result<bool, HarnessError> {
    match value.trim() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "" | "0" | "false" | "no" | "off" => Ok(false),
        _ => Err(HarnessError(format!(
            "{key}={value:?} is not an on/off flag"
        ))),
    }
}

/// Whether the bin was invoked as `<bin> smoke` (the reduced CI run)
/// rather than with no argument. Any other argument is an error, so a
/// misspelt mode never silently runs the full-size harness.
pub fn smoke() -> Result<bool, HarnessError> {
    parse_smoke(std::env::args().skip(1).collect())
}

fn parse_smoke(args: Vec<String>) -> Result<bool, HarnessError> {
    match args.as_slice() {
        [] => Ok(false),
        [a] if a == "smoke" => Ok(true),
        _ => Err(HarnessError(format!(
            "unexpected arguments {args:?}; pass `smoke` or nothing"
        ))),
    }
}

/// Fails on any command-line argument: for a bin with one run and one
/// report, a leftover mode such as `smoke` is an error, not ignored.
pub fn no_args() -> Result<(), HarnessError> {
    parse_no_args(std::env::args().skip(1).collect())
}

fn parse_no_args(args: Vec<String>) -> Result<(), HarnessError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(HarnessError(format!(
            "unexpected arguments {args:?}; this bin takes none"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_check_runs_after_a_failure() {
        let mut gate = Gate::new();
        for (i, ok) in [true, false, true, false, true].into_iter().enumerate() {
            gate.check(ok, format!("check {i}"));
        }
        assert_eq!(gate.failures, ["check 1", "check 3"]);
    }

    #[test]
    fn finish_fails_exactly_when_a_check_failed() {
        for outcomes in [
            &[][..],
            &[true],
            &[true, true],
            &[false],
            &[true, false],
            &[false, true, true],
        ] {
            let mut gate = Gate::new();
            for &ok in outcomes {
                gate.check(ok, "c");
            }
            let want = if outcomes.contains(&false) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
            assert_eq!(gate.finish("t"), want, "{outcomes:?}");
        }
    }

    #[test]
    fn malformed_numbers_are_rejected_with_the_variable_name() {
        assert_eq!(parse_u64("K", "10000").unwrap(), 10_000);
        assert_eq!(parse_u64("K", " 0xD0E ").unwrap(), 0xD0E);
        for bad in ["1e5", "", "-1", "0x", "10k", "18446744073709551616"] {
            let e = parse_u64("DVE_CAMPAIGN_TRIALS", bad).unwrap_err();
            assert!(e.to_string().contains("DVE_CAMPAIGN_TRIALS"), "{e}");
        }
    }

    #[test]
    fn env_u64_reads_defaults_and_rejects_garbage() {
        // A variable name no other test or harness uses.
        const KEY: &str = "DVE_BENCH_GATE_TEST_U64";
        std::env::remove_var(KEY);
        assert_eq!(env_u64(KEY, 7).unwrap(), 7);
        std::env::set_var(KEY, "42");
        assert_eq!(env_u64(KEY, 7).unwrap(), 42);
        std::env::set_var(KEY, "1e5");
        assert!(env_u64(KEY, 7).unwrap_err().to_string().contains(KEY));
        std::env::remove_var(KEY);
    }

    #[test]
    fn flags_accept_on_off_spellings_only() {
        for on in ["1", "true", "yes", "on"] {
            assert!(parse_flag("F", on).unwrap());
        }
        for off in ["", "0", "false", "no", "off"] {
            assert!(!parse_flag("F", off).unwrap());
        }
        assert!(parse_flag("DVE_CAMPAIGN_STRATIFIED", "ture")
            .unwrap_err()
            .to_string()
            .contains("DVE_CAMPAIGN_STRATIFIED"));
    }

    #[test]
    fn only_the_bare_smoke_argument_selects_smoke_mode() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect();
        assert!(!parse_smoke(args(&[])).unwrap());
        assert!(parse_smoke(args(&["smoke"])).unwrap());
        assert!(parse_smoke(args(&["--smoke"])).is_err());
        assert!(parse_smoke(args(&["smoke", "x"])).is_err());
    }

    #[test]
    fn a_bin_without_modes_rejects_every_argument() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect();
        assert!(parse_no_args(args(&[])).is_ok());
        assert!(parse_no_args(args(&["smoke"])).is_err());
        assert!(parse_no_args(args(&["x", "y"])).is_err());
    }

    #[test]
    fn reports_create_their_directory_and_surface_errors() {
        let dir = std::env::temp_dir().join(format!("dve-gate-{}", std::process::id()));
        let path = dir.join("nested").join("report.txt");
        write_report(&path, "x\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n");
        // A path under a regular file cannot be created.
        let blocked = path.join("report.txt");
        let e = write_report(&blocked, "x").unwrap_err();
        assert!(e.to_string().contains("report.txt"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
