//! Closed-loop load generator: many concurrent sessions (in-process
//! and TCP) driving a running [`Service`], aggregating what the
//! *clients* observed — which the smoke harness then cross-checks
//! against what the service's own telemetry claims.

use std::time::Instant;

use dve_sim::rng::{derive_seed, SplitMix64};
use dve_sim::stats::LogHistogram;
use dve_workloads::op::MemReq;

use crate::proto::TcpClient;
use crate::{Completion, Service};

/// Stream id for loadgen session seeds in [`derive_seed`].
const LOADGEN_STREAM: u64 = 0x10AD;

/// Load shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total concurrent sessions (threads).
    pub sessions: usize,
    /// How many of those run over TCP (the rest are in-process).
    pub tcp_sessions: usize,
    /// Ops each session submits over its lifetime.
    pub ops_per_session: u64,
    /// Ops per submit call (closed loop: next batch goes out when the
    /// previous one is fully answered).
    pub batch: usize,
    /// Fraction of ops that are reads.
    pub read_fraction: f64,
    /// Lines are drawn uniformly from `[0, line_span)`.
    pub line_span: u64,
    /// Master seed; per-session seeds derive from it.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            sessions: 120,
            tcp_sessions: 20,
            ops_per_session: 900,
            batch: 64,
            read_fraction: 0.7,
            line_span: 1 << 14,
            seed: 0x10AD_2026,
        }
    }
}

/// What the clients collectively observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Ops submitted across all sessions.
    pub submitted: u64,
    /// Completions received (must equal `submitted` — closed loop).
    pub completed: u64,
    /// Completions flagged shed.
    pub shed: u64,
    /// Client-observed end-to-end op latency (simulated cycles),
    /// non-shed ops only.
    pub hist: LogHistogram,
    /// Wall-clock duration of the whole run.
    pub wall: std::time::Duration,
}

impl LoadgenReport {
    /// Sustained wall-clock throughput in ops/second.
    pub fn ops_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn session_ops(cfg: &LoadgenConfig, session: u64, from: u64, n: usize) -> Vec<(u64, u64, MemReq)> {
    let mut rng = SplitMix64::new(derive_seed(cfg.seed, LOADGEN_STREAM, session));
    // Fast-forward the stream so consecutive batches continue the same
    // deterministic op sequence (2 draws per op).
    for _ in 0..from * 2 {
        rng.next_u64();
    }
    (0..n as u64)
        .map(|i| {
            let line = rng.next_below(cfg.line_span.max(1));
            let req = if rng.chance(cfg.read_fraction) {
                MemReq::Read
            } else {
                MemReq::Write
            };
            (from + i, line, req)
        })
        .collect()
}

fn tally(comps: &[Completion], hist: &mut LogHistogram, shed: &mut u64) {
    for c in comps {
        if c.shed {
            *shed += 1;
        } else {
            hist.record(c.complete_at - c.issued_at);
        }
    }
}

/// Runs the configured load against `service` and blocks until every
/// session has been fully answered.
pub fn run_loadgen(service: &Service, cfg: &LoadgenConfig) -> LoadgenReport {
    let start = Instant::now();
    let addr = service.addr();
    let mut handles = Vec::with_capacity(cfg.sessions);
    for s in 0..cfg.sessions {
        let cfg = cfg.clone();
        let over_tcp = s < cfg.tcp_sessions;
        // In-process sessions get service-assigned ids; TCP clients
        // pick their own (small ints, below the in-process id base).
        let session = (!over_tcp).then(|| service.session());
        handles.push(std::thread::spawn(move || {
            let mut hist = LogHistogram::new();
            let mut shed = 0u64;
            let mut done = 0u64;
            let mut tcp =
                over_tcp.then(|| TcpClient::connect(addr, s as u64).expect("loadgen TCP connect"));
            while done < cfg.ops_per_session {
                let n = cfg.batch.min((cfg.ops_per_session - done) as usize);
                let ops = session_ops(&cfg, s as u64, done, n);
                let comps = match (&mut tcp, &session) {
                    (Some(client), _) => client.submit(&ops).expect("loadgen TCP submit"),
                    (None, Some(sess)) => sess.submit(&ops).expect("service alive"),
                    (None, None) => unreachable!(),
                };
                assert_eq!(comps.len(), n, "closed loop: every op answered");
                tally(&comps, &mut hist, &mut shed);
                done += n as u64;
            }
            (done, hist, shed)
        }));
    }

    let mut report = LoadgenReport {
        submitted: 0,
        completed: 0,
        shed: 0,
        hist: LogHistogram::new(),
        wall: Default::default(),
    };
    for h in handles {
        let (done, hist, shed) = h.join().expect("loadgen session panicked");
        report.submitted += done;
        report.completed += done;
        report.shed += shed;
        report.hist.merge(&hist);
    }
    report.wall = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ops_are_deterministic_and_resume_exactly() {
        let cfg = LoadgenConfig::default();
        let whole = session_ops(&cfg, 3, 0, 100);
        let mut split = session_ops(&cfg, 3, 0, 37);
        split.extend(session_ops(&cfg, 3, 37, 63));
        assert_eq!(whole, split, "fast-forward reproduces the stream");
        assert_ne!(
            whole,
            session_ops(&cfg, 4, 0, 100),
            "per-session streams differ"
        );
        let reads = whole.iter().filter(|o| o.2 == MemReq::Read).count();
        assert!(
            reads > 50 && reads < 90,
            "roughly the configured mix: {reads}"
        );
    }

    #[test]
    fn loadgen_drives_a_small_service_end_to_end() {
        let service = crate::Service::start(
            &"epoch_ops=64 epoch_wait_ms=1 queue_cap=8192"
                .parse()
                .unwrap(),
        )
        .unwrap();
        let cfg = LoadgenConfig {
            sessions: 12,
            tcp_sessions: 3,
            ops_per_session: 200,
            batch: 50,
            ..LoadgenConfig::default()
        };
        let lg = run_loadgen(&service, &cfg);
        assert_eq!(lg.submitted, 2400);
        assert_eq!(lg.completed, 2400);
        let report = service.shutdown();
        assert_eq!(report.completed + report.shed, 2400);
        assert_eq!(
            lg.hist.count(),
            report.completed,
            "client view == service view"
        );
        assert!(report.conserves(), "{report:?}");
        let (p50, p99, p999) = lg.hist.tail();
        assert!(p50 <= p99 && p99 <= p999);
        assert!(lg.ops_per_sec() > 0.0);
    }
}
