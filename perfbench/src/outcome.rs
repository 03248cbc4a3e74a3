//! What one workload run hands back to `main`.

use crate::metrics::Metrics;
use crate::reference::HostSpeed;
use crate::stats::{median, spread, tail};

/// One named figure for the human-readable report (`sim_cycles`,
/// `batch_p99_ms`, ...), with its unit and, for tail percentiles, which
/// percentile and how many samples.
#[derive(Debug, Clone)]
pub struct Figure {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// A workload run's results and output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Full configuration text of what ran (for the manifest).
    pub config: String,
    /// Units of work attempted (simulations, ops, trials).
    pub attempted: u64,
    /// Units of work that failed (shed, unanswered or errored).
    pub failed: u64,
    /// Metrics for the JSON result line.
    pub metrics: Metrics,
    /// Figures printed by name in the report.
    pub figures: Vec<Figure>,
    /// Output checks that failed; any entry fails the run.
    pub failures: Vec<String>,
}

/// One run's host-time samples, as measured (before scaling to the
/// nominal host speed), and the names its figures print under.
#[derive(Debug)]
pub struct Samples<'a> {
    /// Seconds per set-up.
    pub setup_s: &'a [f64],
    /// Seconds per request.
    pub request_s: &'a [f64],
    /// Units of work each request completed.
    pub work: &'a [f64],
    pub peak_rss_mib: f64,
    /// Figure name of the throughput (`sim_mem_ops_per_s`, ...).
    pub rate_name: &'static str,
    /// Figure name stem of a request (`simulation`, `batch`, ...).
    pub request_name: &'static str,
}

impl Outcome {
    /// Sets every end-to-end metric from `s`, with host times stated at
    /// the nominal host speed `speed` measured, and prints them (and the
    /// speed) as figures.
    pub fn end_to_end(&mut self, s: &Samples, speed: &HostSpeed) {
        let k = speed.scale();
        let setup: Vec<f64> = s.setup_s.iter().map(|t| t * k).collect();
        let request_ms: Vec<f64> = s.request_s.iter().map(|t| t * k * 1e3).collect();
        let rate: Vec<f64> = s
            .work
            .iter()
            .zip(s.request_s)
            .map(|(w, t)| w / (t * k))
            .collect();
        let m = &mut self.metrics;
        m.set("setup_s", median(&setup));
        m.set("throughput_per_s", median(&rate));
        m.set("request_p50_ms", median(&request_ms));
        m.set("peak_rss_mib", s.peak_rss_mib);

        self.figure_median("setup_s", &setup, "s");
        self.figure_median(s.rate_name, &rate, "1/s");
        let name = |suffix: &str| format!("{}_{suffix}", s.request_name);
        self.figure_median(name("p50_ms"), &request_ms, "ms");
        // Tails are reported, not gated: on a shared two-core host the
        // p90 of `serve` round trips moved by 0.64 of its median
        // (interquartile range over ten runs), beyond any usable bound.
        for target in [90.0, 99.0] {
            if let Some(t) = tail(&request_ms, target) {
                self.figure_noted(
                    name(&format!("p{target:.0}_ms")),
                    t.value,
                    "ms",
                    format!("p{:.2} of {} samples", t.percentile, t.samples),
                );
            }
        }
        self.figure_noted(
            "host_speed",
            k,
            "ratio",
            format!(
                "reference kernel {:.2} ms; host times above are scaled to nominal speed",
                speed.kernel_ms()
            ),
        );
        self.figure("peak_rss_mib", s.peak_rss_mib, "MiB");
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn figure(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.figure_noted(name, value, unit, String::new());
    }

    /// A figure that is the median of `samples`, noting their count and
    /// spread (interquartile range over median).
    pub fn figure_median(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        let note = if samples.len() >= 2 {
            format!(
                "median of {}, IQR/median {:.4}",
                samples.len(),
                spread(samples)
            )
        } else {
            format!("{} sample", samples.len())
        };
        self.figure_noted(name, median(samples), unit, note);
    }

    pub fn figure_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.figures.push(Figure {
            name: name.into(),
            value,
            unit,
            note,
        });
    }
}

/// Runs `f`, adding its wall-clock duration to `acc`.
#[inline]
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = std::time::Instant::now();
    let v = f();
    *acc += t.elapsed().as_secs_f64();
    v
}

/// Wall-clock seconds since `t`.
pub fn secs_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
