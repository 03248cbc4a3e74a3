//! The `serve` workload: a closed loop of two client sessions (one TCP,
//! one in-process) against a live `Service`, and the traced threadless
//! replay of the same batches through the service's layers.

use crate::cputime::Stopwatch;
use crate::metrics::Metrics;
use crate::outcome::{peak_rss_mib, secs_since, timed, Outcome, Samples};
use crate::reference::HostSpeed;
use crate::replay::sim_layer_counts;
use crate::stats::median;
use dve::chaos::{ChaosConfig, ChaosParams};
use dve::config::SystemConfig;
use dve::system::{ClientOp, System};
use dve_dram::controller::EccProfile;
use dve_service::proto::{decode_batch, decode_ops, encode_batch, encode_ops, TcpClient};
use dve_service::telemetry::TelemetrySnapshot;
use dve_service::{
    Completion, EpochBatcher, Service, ServiceConfig, Session, SubmittedOp, Telemetry,
};
use dve_sim::rng::{derive_seed, SplitMix64};
use dve_sim::stats::LogHistogram;
use dve_workloads::op::MemReq;
use dve_workloads::{catalog, TraceGenerator};
use std::time::Instant;

/// The service under test. Two 1024-op batches fill one 2048-op epoch,
/// so epochs are cut by size; the 100 ms timer cuts one only when a
/// session stalls that long.
const CONFIG: &str = "scheme=dve-deny topology=mirror2 workload=backprop seed=42 mshrs=4 \
                      epoch_ops=2048 epoch_wait_ms=100 queue_cap=65536 port=0 chaos_seed=7 \
                      tenants=none";

/// Ops per submit call.
const BATCH: usize = 1024;
/// Share of client ops that are reads.
const READ_FRACTION: f64 = 0.7;
/// Client lines are drawn from `[0, LINE_SPAN)`; the service folds them
/// into the workload's footprint.
const LINE_SPAN: u64 = 1 << 20;
/// Batches each session submits per round. A round boots a fresh
/// service, so every round simulates the same ops and ends on a full
/// epoch; rounds repeat until the run's time is up.
const ROUND_BATCHES: u64 = 500;
/// Sessions per round; each epoch holds one batch of each.
const SESSIONS: usize = 2;
/// Extra boots (start, connect, shut down) per run that only sample
/// set-up time, which is around a millisecond.
const SETUP_BOOTS: usize = 25;
/// Client id of the TCP session (in-process ids are assigned by the
/// service above the range TCP clients use).
const TCP_CLIENT: u64 = 1;
/// Seed stream for generated client ops.
const OPS_STREAM: u64 = 0x5E_47E;

fn config() -> ServiceConfig {
    CONFIG.parse().expect("benchmark service config parses")
}

/// Batch `index` of session `session` (0 = TCP, 1 = in-process):
/// `(seq, line, req)` triples derived from the workload seed alone.
fn batch_ops(seed: u64, session: u64, index: u64) -> Vec<(u64, u64, MemReq)> {
    let mut rng = SplitMix64::new(derive_seed(seed, OPS_STREAM + session, index));
    (0..BATCH as u64)
        .map(|i| {
            let line = rng.next_below(LINE_SPAN);
            let req = if rng.chance(READ_FRACTION) {
                MemReq::Read
            } else {
                MemReq::Write
            };
            (index * BATCH as u64 + i, line, req)
        })
        .collect()
}

/// What one session saw.
#[derive(Debug, Default)]
struct Tally {
    batches: u64,
    submitted: u64,
    answered: u64,
    shed: u64,
    errors: u64,
    /// Simulated latency of every completed (not shed) op.
    hist: LogHistogram,
    /// Wall seconds of every submit round trip.
    batch_s: Vec<f64>,
}

impl Tally {
    fn record(&mut self, sent: usize, comps: &[Completion], secs: f64) {
        self.batches += 1;
        self.submitted += sent as u64;
        self.answered += comps.len() as u64;
        for c in comps {
            if c.shed {
                self.shed += 1;
            } else {
                self.hist.record(c.complete_at - c.issued_at);
            }
        }
        self.batch_s.push(secs);
    }
}

/// Runs one session's closed loop for [`ROUND_BATCHES`] batches.
fn client_loop(
    seed: u64,
    session: u64,
    mut submit: impl FnMut(&[(u64, u64, MemReq)]) -> Option<Vec<Completion>>,
) -> Tally {
    let mut tally = Tally::default();
    for index in 0..ROUND_BATCHES {
        let ops = batch_ops(seed, session, index);
        let t = Instant::now();
        match submit(&ops) {
            Some(comps) => tally.record(ops.len(), &comps, secs_since(t)),
            None => {
                tally.submitted += ops.len() as u64;
                tally.errors += 1;
                break;
            }
        }
    }
    tally
}

/// One boot of the live service with both sessions running.
struct Round {
    setup_s: f64,
    loop_s: f64,
    tcp: Tally,
    inproc: Tally,
    inproc_client: u64,
    report: dve_service::ServiceReport,
}

/// Boots the service and connects both sessions; returns them with
/// the wall time that took.
fn boot(cfg: &ServiceConfig) -> std::io::Result<(Service, TcpClient, Session, f64)> {
    let t = Instant::now();
    let service = Service::start(cfg)?;
    let tcp = TcpClient::connect(service.addr(), TCP_CLIENT)?;
    let session = service.session();
    Ok((service, tcp, session, secs_since(t)))
}

fn run_round(cfg: &ServiceConfig, seed: u64) -> std::io::Result<Round> {
    let (service, mut tcp, session, setup_s) = boot(cfg)?;
    let t = Instant::now();
    let (tcp_tally, inproc_tally) = std::thread::scope(|s| {
        let tcp_thread = s.spawn(|| client_loop(seed, 0, |ops| tcp.submit(ops).ok()));
        let inproc = client_loop(seed, 1, |ops| session.submit(ops));
        (tcp_thread.join().expect("TCP client thread"), inproc)
    });
    let loop_s = secs_since(t);
    let inproc_client = session.client();
    drop(tcp);
    drop(session);
    Ok(Round {
        setup_s,
        loop_s,
        tcp: tcp_tally,
        inproc: inproc_tally,
        inproc_client,
        report: service.shutdown(),
    })
}

fn check_round(out: &mut Outcome, r: &Round) {
    let rep = &r.report;
    out.check(rep.conserves(), || {
        format!("ServiceReport does not conserve: {rep:?}")
    });
    for (name, t) in [("tcp", &r.tcp), ("in-process", &r.inproc)] {
        out.check(t.answered == t.submitted && t.errors == 0, || {
            format!(
                "{name} session: {} answered of {} submitted, {} errors",
                t.answered, t.submitted, t.errors
            )
        });
    }
    let submitted = r.tcp.submitted + r.inproc.submitted;
    out.check(rep.submitted == submitted, || {
        format!(
            "service saw {} ops, clients sent {submitted}",
            rep.submitted
        )
    });
    let client_completed = r.tcp.hist.count() + r.inproc.hist.count();
    out.check(client_completed == rep.completed, || {
        format!(
            "client histograms count {client_completed}, service completed {}",
            rep.completed
        )
    });
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = config();
    let mut out = Outcome {
        config: format!(
            "{cfg} sessions={SESSIONS}(tcp=1,inproc=1) batch={BATCH} read_fraction={READ_FRACTION} \
             line_span={LINE_SPAN} closed_loop=true"
        ),
        ..Outcome::default()
    };
    // Traced: one live round for the per-path submit times, then the
    // threadless replay of its batches (traced and untraced).
    let start = Instant::now();
    let mut done: Vec<Round> = Vec::new();
    // Peak RSS of one service lifetime: later rounds run on fresh
    // threads whose allocator arenas keep freed memory resident, so the
    // process's high-water mark after several rounds varies from run
    // to run.
    let mut rss_mib = 0.0;
    let mut speed = HostSpeed::default();
    while done.is_empty() || (!trace && (done.len() < 3 || secs_since(start) < seconds)) {
        match run_round(&cfg, seed) {
            Ok(r) => {
                check_round(&mut out, &r);
                if done.is_empty() {
                    rss_mib = peak_rss_mib();
                }
                done.push(r);
                speed.sample();
            }
            Err(e) => {
                out.check(false, || format!("service round failed: {e}"));
                return out;
            }
        }
    }

    let mut setup: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
    for _ in 0..SETUP_BOOTS {
        match boot(&cfg) {
            Ok((service, tcp, session, setup_s)) => {
                setup.push(setup_s);
                drop(tcp);
                drop(session);
                let rep = service.shutdown();
                out.check(rep.conserves() && rep.submitted == 0, || {
                    format!("idle boot did not shut down cleanly: {rep:?}")
                });
            }
            Err(e) => out.check(false, || format!("service boot failed: {e}")),
        }
    }

    let mut batch_s = Vec::new();
    let (mut submitted, mut failed) = (0, 0);
    for r in &done {
        batch_s.extend(&r.tcp.batch_s);
        batch_s.extend(&r.inproc.batch_s);
        for t in [&r.tcp, &r.inproc] {
            submitted += t.submitted;
            failed += t.shed + (t.submitted - t.answered.min(t.submitted));
        }
    }
    out.attempted = submitted;
    out.failed = failed;
    out.check(failed == 0, || {
        format!("{failed} client ops shed, unanswered or errored")
    });

    // Each round trip completes one epoch: one batch from each session.
    out.end_to_end(
        &Samples {
            setup_s: &setup,
            request_s: &batch_s,
            work: &vec![(SESSIONS * BATCH) as f64; batch_s.len()],
            peak_rss_mib: rss_mib,
            rate_name: "epoch_ops_per_s",
            request_name: "batch",
        },
        &speed,
    );
    let rates: Vec<f64> = done
        .iter()
        .map(|r| r.report.completed as f64 / (r.loop_s * speed.scale()))
        .collect();
    out.figure_median("ops_per_s", &rates, "1/s");

    out.figure(
        "failed_frac",
        failed as f64 / submitted.max(1) as f64,
        "frac",
    );

    if trace {
        let round = &done[0];
        let sessions = [(TCP_CLIENT, 0), (round.inproc_client, 1)];
        let batches = round.tcp.batches.min(round.inproc.batches);
        // Untraced and traced replays alternate until the run's time is
        // up; every one must simulate exactly what the first did.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        while traced.is_empty() || secs_since(start) < seconds {
            let mut u = replay(&cfg, seed, &sessions, batches, false);
            u.system = None;
            let mut t = replay(&cfg, seed, &sessions, batches, true);
            if !traced.is_empty() {
                t.system = None;
            }
            untraced.push(u);
            traced.push(t);
        }
        let first = untraced[0].signature.clone();
        for r in untraced.iter().chain(&traced) {
            out.check(r.signature == first, || {
                format!(
                    "replays differ (traced or untraced): {:?} vs {first:?}",
                    r.signature
                )
            });
        }
        // The live service ran the same epochs when every one was cut
        // by size; then its simulated results must match the replay's.
        let rep = &round.report;
        if rep.epochs == batches {
            let live = ReplaySignature {
                cycles: rep.cycles,
                completed: rep.completed,
                engine_latency: rep.engine_latency,
                detected_reads: rep.detected_reads,
                machine_checks: rep.machine_checks,
            };
            out.check(live == first, || {
                format!(
                    "live service diverged from the replay of its batches: {live:?} vs {first:?}"
                )
            });
        } else {
            eprintln!(
                "note: {} of {} live epochs were cut by the timer; live-vs-replay identity \
                 not checked",
                rep.epochs - batches.min(rep.epochs),
                rep.epochs
            );
        }
        let m = &mut out.metrics;
        m.set(
            "service.submit_tcp_p50_ms",
            median(&round.tcp.batch_s) * 1e3,
        );
        m.set(
            "service.submit_inproc_p50_ms",
            median(&round.inproc.batch_s) * 1e3,
        );
        m.set("service.epochs", rep.epochs as f64);
        m.set(
            "service.ops_per_epoch",
            rep.completed as f64 / rep.epochs.max(1) as f64,
        );
        layer_metrics(m, &traced);
        let cpu = |runs: &[ReplayRun]| median(&runs.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
        m.set("trace_overhead_frac", cpu(&traced) / cpu(&untraced) - 1.0);
    }
    out
}

/// The simulated results a replay must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct ReplaySignature {
    cycles: u64,
    completed: u64,
    engine_latency: dve_sim::latency::LatencyBreakdown,
    detected_reads: u64,
    machine_checks: u64,
}

/// Host time per service layer over one threadless replay.
#[derive(Debug, Default)]
struct ServiceTimes {
    batcher_s: f64,
    proto_s: f64,
    telemetry_s: f64,
    run_batch_calls: u64,
    run_batch_s: f64,
}

struct ReplayRun {
    /// CPU seconds of the whole replay.
    cpu_s: f64,
    times: ServiceTimes,
    signature: ReplaySignature,
    /// The replayed system, kept only where its counts are reported.
    system: Option<System>,
}

/// Accumulates `f`'s wall time into `acc` when tracing.
fn lap<T>(on: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if on {
        timed(acc, f)
    } else {
        f()
    }
}

/// The live system `Service::start` builds for `cfg`, built the same
/// way from public items.
fn service_system(cfg: &ServiceConfig) -> (System, u64) {
    let profile = catalog()
        .into_iter()
        .find(|p| p.name == cfg.workload)
        .expect("service workload is in the catalog");
    let mut sys_cfg = SystemConfig::table_ii(cfg.scheme);
    sys_cfg.engine.cores -= sys_cfg.engine.cores % cfg.topology.sockets();
    sys_cfg.set_topology(cfg.topology);
    sys_cfg.mshrs = cfg.mshrs;
    let span = TraceGenerator::new(&profile, sys_cfg.engine.cores, cfg.seed).span_lines();
    if let Some(chaos_seed) = cfg.chaos_seed {
        sys_cfg.ecc = EccProfile::tsd();
        sys_cfg.chaos = Some(ChaosConfig::random(
            chaos_seed,
            &ChaosParams {
                faults: 8,
                horizon: 200_000,
                transient_fraction: 0.5,
                heal_after: Some(100_000),
                channels_per_socket: sys_cfg.channels_per_socket(),
                line_span: span,
                nodes: sys_cfg.nodes(),
            },
        ));
    }
    (System::new(sys_cfg, &profile, cfg.seed), span)
}

/// Replays `batches` rounds of both sessions' batches through the
/// service's layers on one thread: wire encode/decode for the TCP
/// session, the batcher, `System::run_batch` per epoch, completion
/// encoding, and a telemetry publish + `/metrics` render per epoch.
fn replay(
    cfg: &ServiceConfig,
    seed: u64,
    sessions: &[(u64, u64)],
    batches: u64,
    traced: bool,
) -> ReplayRun {
    let (mut system, span) = service_system(cfg);
    let cores = system.cores() as u64;
    let mut batcher = EpochBatcher::new(cfg.queue_cap, cfg.epoch_ops);
    let telemetry = Telemetry::new();
    let mut tm = ServiceTimes::default();
    let mut completed = 0u64;
    let clock = Stopwatch::start();
    for index in 0..batches {
        for &(client, session) in sessions {
            let ops = batch_ops(seed, session, index);
            let submitted: Vec<SubmittedOp> = if client == TCP_CLIENT {
                lap(traced, &mut tm.proto_s, || {
                    decode_ops(&encode_ops(&ops), client).expect("well-formed frame")
                })
            } else {
                ops.iter()
                    .map(|&(seq, line, req)| SubmittedOp {
                        client,
                        seq,
                        line,
                        req,
                        priority: 0,
                    })
                    .collect()
            };
            lap(traced, &mut tm.batcher_s, || {
                for op in submitted {
                    batcher.submit(op);
                }
            });
        }
        while batcher.epoch_ready() {
            let epoch = lap(traced, &mut tm.batcher_s, || batcher.take_epoch());
            let client_ops: Vec<ClientOp> = epoch
                .iter()
                .map(|op| ClientOp {
                    core: (op.client % cores) as usize,
                    line: op.line % span.max(1),
                    req: op.req,
                })
                .collect();
            tm.run_batch_calls += 1;
            let outs = lap(traced, &mut tm.run_batch_s, || {
                system.run_batch(&client_ops)
            });
            let done: Vec<Completion> = epoch
                .iter()
                .zip(outs)
                .map(|(op, o)| Completion {
                    client: op.client,
                    seq: op.seq,
                    shed: false,
                    issued_at: o.issued_at,
                    complete_at: o.complete_at,
                    breakdown: o.breakdown,
                })
                .collect();
            completed += done.len() as u64;
            let tcp_done: Vec<Completion> = done
                .iter()
                .copied()
                .filter(|c| c.client == TCP_CLIENT)
                .collect();
            lap(traced, &mut tm.proto_s, || {
                decode_batch(&encode_batch(&tcp_done), TCP_CLIENT).expect("well-formed frame")
            });
            lap(traced, &mut tm.telemetry_s, || {
                let engine = system.engine_stats();
                let ledger = system.recovery_ledger();
                telemetry.publish(TelemetrySnapshot {
                    hists: system.latency_hists().clone(),
                    engine_latency: engine.latency_breakdown,
                    cycles: system.now(),
                    degraded_transitions: engine.degraded_transitions,
                    recovery_consistent: ledger.consistent(),
                    detected_reads: ledger.detected_reads,
                    machine_checks: ledger.machine_checks,
                    node_replica_entries: system.node_replica_entries(),
                    ..TelemetrySnapshot::default()
                });
                std::hint::black_box(telemetry.render_metrics())
            });
        }
    }
    let cpu_s = clock.cpu_s();
    let ledger = system.recovery_ledger();
    ReplayRun {
        cpu_s,
        times: tm,
        signature: ReplaySignature {
            cycles: system.now(),
            completed,
            engine_latency: system.engine_stats().latency_breakdown,
            detected_reads: ledger.detected_reads,
            machine_checks: ledger.machine_checks,
        },
        system: Some(system),
    }
}

/// Per-layer metrics of the traced replays: host times are medians
/// over the replays, counts come from the first (all are identical).
fn layer_metrics(m: &mut Metrics, traced: &[ReplayRun]) {
    let med = |f: fn(&ServiceTimes) -> f64| {
        median(&traced.iter().map(|r| f(&r.times)).collect::<Vec<_>>())
    };
    m.set(
        "core.run_batch.calls",
        traced[0].times.run_batch_calls as f64,
    );
    m.set("core.run_batch.s", med(|t| t.run_batch_s));
    m.set("service.batcher.s", med(|t| t.batcher_s));
    m.set("service.proto.s", med(|t| t.proto_s));
    m.set("service.telemetry.s", med(|t| t.telemetry_s));
    let system = traced[0]
        .system
        .as_ref()
        .expect("first replay keeps its system");
    let engine = system.engine_stats();
    let mut rows = (0, 0, 0);
    let mut queue = (0, 0);
    for c in system.fabric().controllers().iter().flatten() {
        let s = c.stats();
        rows.0 += s.row_hits;
        rows.1 += s.row_misses;
        rows.2 += s.row_conflicts;
        queue.0 += s.reads + s.writes;
        queue.1 += s.queue_delay_sum;
    }
    sim_layer_counts(
        m,
        &engine,
        &engine.latency_breakdown,
        system.fabric().traffic().total_messages(),
        rows,
        queue,
        &system.recovery_ledger(),
    );
    m.set("core.sim_cycles", system.now() as f64);
    m.set(
        "core.sim_op_p99_cycles",
        system.latency_hists().total.tail().1 as f64,
    );
}
