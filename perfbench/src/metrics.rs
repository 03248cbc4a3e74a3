//! The benchmark's metric catalog and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; the tests below keep the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's stable name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "replay-shared-read",
    "replay-write-chaos",
    "serve",
    "campaign-stratified",
];

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them; see the README for what a "request" and a
/// unit of throughput are on each workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("request_p50_ms", "ms"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, measured by the traced run. A layer a workload
/// does not use reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.next_op.calls", "count"),
    m("workloads.next_op.s", "s"),
    m("coherence.access.calls", "count"),
    m("coherence.access.self_s", "s"),
    m("coherence.l1_hit_ratio", "ratio"),
    m("coherence.llc_hit_ratio", "ratio"),
    m("coherence.replica_reads", "count"),
    m("coherence.writebacks", "count"),
    m("coherence.spec_squash_ratio", "ratio"),
    m("coherence.latency_frac.protocol", "frac"),
    m("noc.link.calls", "count"),
    m("noc.link.s", "s"),
    m("noc.link_messages", "count"),
    m("noc.latency_frac.mesh", "frac"),
    m("noc.latency_frac.link", "frac"),
    m("dram.access.calls", "count"),
    m("dram.access.s", "s"),
    m("dram.row_hit_ratio", "ratio"),
    m("dram.queue_delay_mean_cycles", "cycles"),
    m("dram.latency_frac.bank_queue", "frac"),
    m("dram.latency_frac.bank_service", "frac"),
    m("core.chaos.s", "s"),
    m("core.recovery.detected_reads", "count"),
    m("core.recovery.repaired", "count"),
    m("core.recovery.degraded", "count"),
    m("core.recovery.machine_checks", "count"),
    m("core.recovery.scrub_slices", "count"),
    m("core.latency_frac.recovery", "frac"),
    m("core.run_batch.calls", "count"),
    m("core.run_batch.s", "s"),
    m("core.sim_cycles", "cycles"),
    m("core.sim_op_p99_cycles", "cycles"),
    m("service.batcher.s", "s"),
    m("service.proto.s", "s"),
    m("service.telemetry.s", "s"),
    m("service.epochs", "count"),
    m("service.ops_per_epoch", "count"),
    m("service.submit_tcp_p50_ms", "ms"),
    m("service.submit_inproc_p50_ms", "ms"),
    m("campaign.trials", "count"),
    m("campaign.sample.s", "s"),
    m("campaign.trial.s", "s"),
    m("campaign.faulty_trial_ratio", "ratio"),
    m("ecc.rs_decode_clean_ns", "ns"),
    m("ecc.rs_decode_1err_ns", "ns"),
    m("ecc.rs_decode_2err_ns", "ns"),
    m("ecc.tsd_check_ns", "ns"),
    m("ecc.chipkill.ce", "count"),
    m("ecc.chipkill.due", "count"),
    m("ecc.chipkill.sdc", "count"),
    m("ecc.dve_dsd.ce", "count"),
    m("ecc.dve_dsd.due", "count"),
    m("ecc.dve_dsd.sdc", "count"),
    m("ecc.dve_tsd.ce", "count"),
    m("ecc.dve_tsd.due", "count"),
    m("ecc.dve_tsd.sdc", "count"),
    m("ecc.dve_chipkill.ce", "count"),
    m("ecc.dve_chipkill.due", "count"),
    m("ecc.dve_chipkill.sdc", "count"),
    m("trace_overhead_frac", "frac"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be in the catalog.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name or a non-finite value: both are bugs
    /// in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The run's verdict and counts, as the last line of standard output.
#[derive(Debug)]
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Renders the last output line: every metric of `defs`, in catalog
/// order. A metric the workload never set reads 0: a per-layer metric
/// of a layer it does not use (a missing end-to-end metric fails the
/// run before this).
pub fn render(result: &Verdict, defs: &[MetricDef], metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let value = metrics.get(d.name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(value),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite float as a JSON number (Rust's shortest round-trip form
/// never uses an exponent, which JSON would also accept).
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal for `s` (escapes quotes, backslashes and
/// control characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The values of `field` in the top-level array `section` of
    /// `BENCHMARK.json`, in order.
    fn listed(section: &str, field: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let rest = &BENCHMARK_JSON[start..];
        rest[..rest.find(']').expect("section array closes")]
            .split(&format!("\"{field}\""))
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted value").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_workloads() {
        assert_eq!(listed("workloads", "name"), WORKLOADS.to_vec());
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_a_run_prints() {
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
            let units: Vec<&str> = defs.iter().map(|d| d.unit).collect();
            assert_eq!(listed(section, "name"), names, "{section} names");
            assert_eq!(listed(section, "unit"), units, "{section} units");
        }
    }

    #[test]
    fn rendered_line_carries_every_metric_of_the_mode() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let r = Verdict {
            correct: true,
            attempted: 3,
            failed: 0,
        };
        let line = render(&r, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for d in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            )));
        }
        // Layers a workload does not use read 0 rather than vanish.
        let line = render(&r, PER_LAYER, &Metrics::default());
        assert_eq!(line.matches("\"value\": 0.0").count(), PER_LAYER.len());
    }

    #[test]
    fn json_helpers_escape_and_format() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
