//! Service harness: boots the always-on replication service, drives it
//! with a concurrent closed-loop fleet (in-process + TCP sessions),
//! flips §V-E degraded mode mid-run, gates on the end-to-end
//! invariants, then compares schemes under the same service stack.
//!
//! ```text
//! cargo run -p dve-bench --bin service --release
//! ```
//!
//! Gates (all must hold for exit 0):
//!
//! * `/health` and `/metrics` answer over the service's own listener.
//! * The closed loop closes: every submitted op is answered, and the
//!   service ledger balances (`submitted == admitted + shed`,
//!   `completed == admitted` — chaos and the mid-run degradation flip
//!   drop no admitted op).
//! * Latency conservation: the per-op histograms (count == completed
//!   ops) sum, per component, to exactly the engine's own cumulative
//!   cycle totals.
//! * The mid-run force-degraded on/off both reach the engine
//!   (`degraded_transitions >= 2`) while chaos faults are live.
//! * Percentiles are ordered (p50 <= p99 <= p999).
//!
//! The measured throughput, per-component percentile table and scheme
//! table land in `results/service_report.txt` (not committed: wall-clock
//! epoch cuts move it run to run; EXPERIMENTS.md §9 quotes one run).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dve_bench::gate::{no_args, write_report, Gate, HarnessError};
use dve_service::{run_loadgen, LoadgenConfig, Service, ServiceConfig, ServiceReport};
use dve_sim::latency::Component;

/// Plain HTTP GET against the service's listener; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut rsp = String::new();
    s.read_to_string(&mut rsp)?;
    if !rsp.starts_with("HTTP/1.0 200") {
        return Err(std::io::Error::other(format!("bad response: {rsp:.60}")));
    }
    Ok(rsp
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default())
}

fn percentile_table(report: &ServiceReport) -> String {
    let mut t = String::new();
    writeln!(
        t,
        "{:<14} {:>10} {:>10} {:>10} {:>14}",
        "component", "p50", "p99", "p999", "cycles"
    )
    .unwrap();
    let (p50, p99, p999) = report.hists.total.tail();
    writeln!(
        t,
        "{:<14} {:>10} {:>10} {:>10} {:>14}",
        "total",
        p50,
        p99,
        p999,
        report.hists.total.sum()
    )
    .unwrap();
    for c in Component::ALL {
        let h = report.hists.component(c);
        let (p50, p99, p999) = h.tail();
        writeln!(
            t,
            "{:<14} {:>10} {:>10} {:>10} {:>14}",
            c.label(),
            p50,
            p99,
            p999,
            h.sum()
        )
        .unwrap();
    }
    t
}

/// The gated run: chaos armed, >=100 sessions, >=100k ops, a
/// mid-run degraded flip, full conservation checks.
fn gated_run(gate: &mut Gate) -> String {
    let svc_cfg: ServiceConfig =
        "scheme=dve-deny workload=backprop mshrs=4 epoch_ops=4096 epoch_wait_ms=2 chaos_seed=13"
            .parse()
            .expect("gated service config");
    let load = LoadgenConfig::default();
    let total_ops = load.sessions as u64 * load.ops_per_session;
    assert!(load.sessions >= 100, "acceptance floor: >=100 sessions");
    assert!(total_ops >= 100_000, "acceptance floor: >=100k ops");

    println!("-- service: {svc_cfg} --");
    println!(
        "   load: {} sessions ({} TCP) x {} ops = {} ops",
        load.sessions, load.tcp_sessions, load.ops_per_session, total_ops
    );
    let service = Service::start(&svc_cfg).expect("service boots");
    let addr = service.addr();

    // Mid-run §V-E flip: degrade at ~1/3 of the ops, restore at ~2/3.
    let telemetry = service.telemetry();
    let flip_done = Arc::new(AtomicBool::new(false));
    let flipper = {
        let flip_done = Arc::clone(&flip_done);
        let svc_telemetry = Arc::clone(&telemetry);
        let on_at = total_ops / 3;
        let off_at = 2 * total_ops / 3;
        let ctl = service.degraded_control();
        std::thread::spawn(move || {
            let mut flipped_on = false;
            let mut flipped_off = false;
            while !(flip_done.load(Ordering::Acquire) || (flipped_on && flipped_off)) {
                let done = svc_telemetry.completed.load(Ordering::Relaxed);
                if !flipped_on && done >= on_at {
                    ctl(true);
                    flipped_on = true;
                    println!("   [flip] degraded=on at {done} completed ops");
                } else if flipped_on && !flipped_off && done >= off_at {
                    ctl(false);
                    flipped_off = true;
                    println!("   [flip] degraded=off at {done} completed ops");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let lg = run_loadgen(&service, &load);
    flip_done.store(true, Ordering::Release);
    flipper.join().expect("flipper thread");

    // Telemetry endpoints answer while the service is still live.
    let health = http_get(addr, "/health");
    gate.check(
        health
            .as_deref()
            .map(|h| h.starts_with("ok"))
            .unwrap_or(false),
        format!("/health answers ok ({health:?})"),
    );
    let metrics = http_get(addr, "/metrics");
    gate.check(
        metrics
            .as_deref()
            .map(|m| m.contains("dve_ops_completed") && m.contains("quantile=\"0.999\""))
            .unwrap_or(false),
        "/metrics serves counters and quantiles",
    );

    let report = service.shutdown();

    gate.check(
        lg.completed == total_ops,
        format!(
            "closed loop answered all {total_ops} ops ({} answered)",
            lg.completed
        ),
    );
    gate.check(
        report.submitted == report.admitted + report.shed,
        format!(
            "admission ledger balances ({} == {} + {})",
            report.submitted, report.admitted, report.shed
        ),
    );
    gate.check(
        report.completed == report.admitted,
        format!(
            "no admitted op dropped across chaos + degraded flip ({} completed of {} admitted)",
            report.completed, report.admitted
        ),
    );
    gate.check(
        report.hists.count() == report.completed,
        "one histogram sample per completed op",
    );
    gate.check(
        report.hists.conserves(&report.engine_latency),
        "per-component histograms sum-conserve against engine totals",
    );
    gate.check(
        report.degraded_transitions >= 2,
        format!(
            "mid-run degraded on+off reached the engine (transitions={})",
            report.degraded_transitions
        ),
    );
    gate.check(
        report.recovery_consistent,
        "recovery ledger self-consistent under live chaos",
    );
    let (p50, p99, p999) = report.hists.total.tail();
    gate.check(
        p50 <= p99 && p99 <= p999,
        format!("percentiles ordered (p50={p50} p99={p99} p999={p999})"),
    );

    let mut out = String::new();
    writeln!(out, "# Service report").unwrap();
    writeln!(out, "config: {svc_cfg}").unwrap();
    writeln!(
        out,
        "load: {} sessions ({} over TCP) x {} ops/session = {} ops",
        load.sessions, load.tcp_sessions, load.ops_per_session, total_ops
    )
    .unwrap();
    writeln!(
        out,
        "sustained: {:.0} ops/s wall ({} epochs, {} sim cycles, {:.1}s wall)",
        lg.ops_per_sec(),
        report.epochs,
        report.cycles,
        lg.wall.as_secs_f64()
    )
    .unwrap();
    writeln!(
        out,
        "admission: submitted={} admitted={} shed={} completed={}",
        report.submitted, report.admitted, report.shed, report.completed
    )
    .unwrap();
    writeln!(
        out,
        "recovery: detected_reads={} degraded_transitions={}",
        report.detected_reads, report.degraded_transitions
    )
    .unwrap();
    writeln!(out, "\n## Per-component latency percentiles (sim cycles)\n").unwrap();
    out.push_str(&percentile_table(&report));
    out
}

/// A quick fault-free scheme comparison under the same service stack
/// (smaller fleet; the point is relative latency).
fn scheme_table(gate: &mut Gate) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n## Scheme comparison (fault-free, 40 sessions x 500 ops)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "scheme", "p50", "p99", "p999", "ops/s"
    )
    .unwrap();
    for scheme in ["baseline-numa", "dve-allow", "dve-deny"] {
        let cfg: ServiceConfig = format!("scheme={scheme} mshrs=4 epoch_ops=2048 epoch_wait_ms=2")
            .parse()
            .expect("scheme config");
        let service = Service::start(&cfg).expect("service boots");
        let load = LoadgenConfig {
            sessions: 40,
            tcp_sessions: 8,
            ops_per_session: 500,
            ..LoadgenConfig::default()
        };
        let lg = run_loadgen(&service, &load);
        let report = service.shutdown();
        gate.check(
            report.conserves(),
            format!("{scheme}: ledger + histograms conserve"),
        );
        let (p50, p99, p999) = report.hists.total.tail();
        writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>12.0}",
            scheme,
            p50,
            p99,
            p999,
            lg.ops_per_sec()
        )
        .unwrap();
    }
    out
}

fn main() -> Result<ExitCode, HarnessError> {
    no_args()?;
    let mut gate = Gate::new();
    let mut report = gated_run(&mut gate);
    report.push_str(&scheme_table(&mut gate));
    write_report("results/service_report.txt", &report)?;
    Ok(gate.finish("service"))
}
