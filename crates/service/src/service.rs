//! The running service: session registration, the epoch runner that
//! owns the live [`System`], and the TCP front end.
//!
//! Thread layout:
//!
//! * **Runner** (one thread) — owns the `System` and the
//!   [`EpochBatcher`]. Drains the control channel, cuts an epoch when
//!   either `epoch_ops` are pending or `epoch_wait_ms` has elapsed
//!   since the first pending op, executes it via
//!   [`System::run_batch`], routes per-op completions back to
//!   sessions, publishes telemetry. All simulation state is confined
//!   here; no locks on the simulation.
//! * **Listener** (one thread) — non-blocking `accept` loop; spawns a
//!   connection thread per client.
//! * **Connection threads** — sniff HTTP (`GET /metrics`,
//!   `GET /health`) vs the binary frame protocol; binary connections
//!   register a session and relay ops/completions.
//!
//! Shutdown is a drain: the listener stops accepting, sessions'
//! remaining submissions are refused as shed (with completions, so
//! closed-loop clients never hang), the runner executes every already
//! admitted op, and [`Service::shutdown`] returns the final
//! [`ServiceReport`].
//!
//! [`System`]: dve::system::System
//! [`System::run_batch`]: dve::system::System::run_batch

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dve::chaos::{ChaosConfig, ChaosParams};
use dve::config::SystemConfig;
use dve::system::{ClientOp, System};
use dve_dram::controller::EccProfile;
use dve_sim::latency::{LatencyBreakdown, LatencyHists};
use dve_sim::stats::LogHistogram;
use dve_workloads::op::MemReq;
use dve_workloads::tenant::TenantMix;
use dve_workloads::{catalog, TraceGenerator};

use crate::batcher::{EpochBatcher, SubmitOutcome, SubmittedOp};
use crate::config::ServiceConfig;
use crate::proto;
use crate::telemetry::{EdgeOccupancy, Telemetry, TelemetrySnapshot, TenantTelemetry};

/// Per-op completion delivered to the submitting session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Session that submitted the op.
    pub client: u64,
    /// Echo of the client-chosen sequence number.
    pub seq: u64,
    /// The op was refused at admission (queue full or draining); the
    /// timing fields are zero and the op did not touch the system.
    pub shed: bool,
    /// Simulated issue time (core cycles).
    pub issued_at: u64,
    /// Simulated completion time.
    pub complete_at: u64,
    /// Per-layer latency attribution; sums to
    /// `complete_at - issued_at`.
    pub breakdown: LatencyBreakdown,
}

/// Messages into the runner thread.
enum Msg {
    Register {
        client: u64,
        tx: Sender<Vec<Completion>>,
    },
    Deregister {
        client: u64,
    },
    Ops(Vec<SubmittedOp>),
    /// Force §V-E degraded mode on/off on the live system.
    ForceDegraded(bool),
    /// Begin the drain; the runner finishes admitted work and exits.
    Shutdown,
}

/// Final accounting returned by [`Service::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Final simulated clock (core cycles).
    pub cycles: u64,
    /// Admission accounting; `submitted == admitted + shed` always.
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    /// Completions delivered for admitted ops; equals `admitted` after
    /// a clean drain — the no-dropped-ops gate.
    pub completed: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Cumulative per-op latency histograms (whole service lifetime).
    pub hists: LatencyHists,
    /// Engine-side aggregate the histograms must conserve against.
    pub engine_latency: LatencyBreakdown,
    /// §V-E degraded-mode transitions observed by the engine.
    pub degraded_transitions: u64,
    /// Recovery ledger self-consistency at shutdown.
    pub recovery_consistent: bool,
    /// Demand reads that took the §V-B2 recovery path.
    pub detected_reads: u64,
    /// Uncorrectable demand reads raised as machine checks.
    pub machine_checks: u64,
    /// Final per-tenant accounting; empty without a tenant mix.
    pub tenants: Vec<TenantTelemetry>,
}

impl ServiceReport {
    /// The service-level conservation gate: every admitted op
    /// completed, the admission ledger balances, the per-op
    /// histograms sum to the engine's own cycle totals, and (with a
    /// tenant mix) the per-tenant accounting sums back to the global
    /// counters.
    pub fn conserves(&self) -> bool {
        let sum = |get: fn(&TenantTelemetry) -> u64| self.tenants.iter().map(get).sum::<u64>();
        let tenants_ok = self.tenants.is_empty()
            || (sum(|t| t.completed) == self.completed
                && sum(|t| t.shed) == self.shed
                && sum(|t| t.machine_checks) <= self.machine_checks
                && sum(|t| t.detected_reads) <= self.detected_reads);
        self.submitted == self.admitted + self.shed
            && self.completed == self.admitted
            && (self.hists.count() == 0 || self.hists.conserves(&self.engine_latency))
            && tenants_ok
    }
}

/// An in-process session: submit ops, receive completions. Cheap to
/// create (two mpsc channels); thousands can run concurrently.
pub struct Session {
    client: u64,
    cores: usize,
    ctl: Sender<Msg>,
    rx: Receiver<Vec<Completion>>,
}

impl Session {
    /// The session's unique client id.
    pub fn client(&self) -> u64 {
        self.client
    }

    /// Core count of the underlying system (ops are sharded
    /// `client % cores`).
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Submits `(seq, line, req)` ops and blocks until every one has a
    /// completion (shed ones included). Completions are returned in
    /// delivery order; match on `seq`. Returns `None` if the service
    /// went away mid-wait.
    pub fn submit(&self, ops: &[(u64, u64, MemReq)]) -> Option<Vec<Completion>> {
        let batch: Vec<SubmittedOp> = ops
            .iter()
            .map(|&(seq, line, req)| SubmittedOp {
                client: self.client,
                seq,
                line,
                req,
                // Stamped by the runner from the tenant mix; sessions
                // have no say in their own shed priority.
                priority: 0,
            })
            .collect();
        self.ctl.send(Msg::Ops(batch)).ok()?;
        let mut got = Vec::with_capacity(ops.len());
        while got.len() < ops.len() {
            got.extend(self.rx.recv().ok()?);
        }
        Some(got)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.ctl.send(Msg::Deregister {
            client: self.client,
        });
    }
}

/// Handle to a running service.
pub struct Service {
    ctl: Sender<Msg>,
    telemetry: Arc<Telemetry>,
    addr: SocketAddr,
    cores: usize,
    next_client: AtomicU64,
    shutdown: Arc<AtomicBool>,
    runner: Option<JoinHandle<ServiceReport>>,
    listener: Option<JoinHandle<()>>,
}

impl Service {
    /// Boots the service: builds the live [`System`]
    /// for `cfg`, spawns the runner and the TCP listener, and returns
    /// once the listener is bound.
    pub fn start(cfg: &ServiceConfig) -> io::Result<Service> {
        let profile = catalog()
            .into_iter()
            .find(|p| p.name == cfg.workload)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("unknown workload {:?}", cfg.workload),
                )
            })?;

        let mut sys_cfg = SystemConfig::table_ii(cfg.scheme);
        // Shrink the core count to partition over the socket count
        // before applying the topology (nway:3 drops 16 → 15 cores).
        sys_cfg.engine.cores -= sys_cfg.engine.cores % cfg.topology.sockets();
        sys_cfg.set_topology(cfg.topology);
        sys_cfg.mshrs = cfg.mshrs;
        // Client lines are folded into the workload's address span so
        // they hit the same layout (and the same chaos fault sites) as
        // trace traffic would.
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
        let cores = sys_cfg.engine.cores;
        let system = System::new(sys_cfg, &profile, cfg.seed);

        let telemetry = Arc::new(Telemetry::new());
        telemetry.publish(TelemetrySnapshot {
            recovery_consistent: true,
            ..TelemetrySnapshot::default()
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (ctl_tx, ctl_rx) = channel();

        let runner = {
            let telemetry = Arc::clone(&telemetry);
            let epoch_ops = cfg.epoch_ops;
            let queue_cap = cfg.queue_cap;
            let wait = Duration::from_millis(cfg.epoch_wait_ms);
            let tenants = cfg.tenants.clone();
            std::thread::Builder::new()
                .name("dve-epoch-runner".to_string())
                .spawn(move || {
                    run_epochs(
                        system, span, queue_cap, epoch_ops, wait, tenants, ctl_rx, telemetry,
                    )
                })?
        };

        let tcp = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = tcp.local_addr()?;
        let listener = {
            let ctl = ctl_tx.clone();
            let telemetry = Arc::clone(&telemetry);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("dve-listener".to_string())
                .spawn(move || run_listener(tcp, cores, ctl, telemetry, shutdown))?
        };

        Ok(Service {
            ctl: ctl_tx,
            telemetry,
            addr,
            cores,
            next_client: AtomicU64::new(IN_PROC_CLIENT_BASE),
            shutdown,
            runner: Some(runner),
            listener: Some(listener),
        })
    }

    /// The bound TCP address (op protocol + `/metrics` + `/health`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared telemetry handle.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Opens an in-process session with a fresh client id.
    pub fn session(&self) -> Session {
        let client = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        self.telemetry.sessions.fetch_add(1, Ordering::Relaxed);
        // The runner can only be gone after shutdown(), which consumes
        // the Service — so this send cannot race a live handle.
        self.ctl
            .send(Msg::Register { client, tx })
            .expect("runner alive while service handle exists");
        Session {
            client,
            cores: self.cores,
            ctl: self.ctl.clone(),
            rx,
        }
    }

    /// Forces §V-E degraded mode on or off on the live system, as an
    /// operator "take one copy out of service" action.
    pub fn force_degraded(&self, on: bool) {
        let _ = self.ctl.send(Msg::ForceDegraded(on));
    }

    /// A clonable, `'static` handle for flipping degraded mode from
    /// another thread while the `Service` itself is borrowed (e.g. by
    /// a running load generator).
    pub fn degraded_control(&self) -> impl Fn(bool) + Send + 'static {
        let ctl = self.ctl.clone();
        move |on| {
            let _ = ctl.send(Msg::ForceDegraded(on));
        }
    }

    /// Graceful drain: stop accepting, execute every admitted op,
    /// tear down the listener, and return the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.telemetry.stop_accepting();
        self.shutdown.store(true, Ordering::Release);
        let _ = self.ctl.send(Msg::Shutdown);
        let report = self
            .runner
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("runner thread panicked");
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        report
    }
}

/// In-process client ids start here; TCP clients pick their own ids
/// below this (the loadgen uses small integers).
const IN_PROC_CLIENT_BASE: u64 = 1 << 32;

fn shed_completion(op: &SubmittedOp) -> Completion {
    Completion {
        client: op.client,
        seq: op.seq,
        shed: true,
        issued_at: 0,
        complete_at: 0,
        breakdown: LatencyBreakdown::default(),
    }
}

/// Runner-local per-tenant accounting. Lives entirely on the runner
/// thread (no locks); snapshots are published through the telemetry
/// mutex like every other epoch-fresh stat.
struct TenantAcct {
    mix: TenantMix,
    completed: Vec<u64>,
    shed: Vec<u64>,
    machine_checks: Vec<u64>,
    detected_reads: Vec<u64>,
    recovery_cycles: Vec<u64>,
    lat: Vec<LogHistogram>,
}

impl TenantAcct {
    fn new(mix: TenantMix) -> TenantAcct {
        let n = mix.tenants().len();
        TenantAcct {
            mix,
            completed: vec![0; n],
            shed: vec![0; n],
            machine_checks: vec![0; n],
            detected_reads: vec![0; n],
            recovery_cycles: vec![0; n],
            lat: vec![LogHistogram::default(); n],
        }
    }

    /// The shed priority the runner stamps on this client's ops.
    fn priority_for(&self, client: u64) -> u8 {
        self.mix.priority_of(self.mix.tenant_of_client(client))
    }

    /// Folds a client line into its tenant's address partition.
    fn fold(&self, client: u64, line: u64, span: u64) -> u64 {
        self.mix
            .fold_line(self.mix.tenant_of_client(client), line, span)
    }

    fn shed_one(&mut self, client: u64) {
        self.shed[self.mix.tenant_of_client(client)] += 1;
    }

    fn complete_one(&mut self, client: u64, latency: u64, b: &LatencyBreakdown) {
        let t = self.mix.tenant_of_client(client);
        self.completed[t] += 1;
        self.recovery_cycles[t] += b.recovery;
        self.lat[t].record(latency);
    }

    fn attribute_faults(&mut self, client: u64, detected_reads: u64, machine_checks: u64) {
        let t = self.mix.tenant_of_client(client);
        self.detected_reads[t] += detected_reads;
        self.machine_checks[t] += machine_checks;
    }

    fn snapshot(&self) -> Vec<TenantTelemetry> {
        self.mix
            .tenants()
            .iter()
            .enumerate()
            .map(|(t, profile)| {
                let (p50, p99, p999) = self.lat[t].tail();
                TenantTelemetry {
                    name: profile.name.clone(),
                    priority: profile.priority,
                    slo_p99_cycles: profile.slo_p99_cycles,
                    completed: self.completed[t],
                    shed: self.shed[t],
                    machine_checks: self.machine_checks[t],
                    detected_reads: self.detected_reads[t],
                    recovery_cycles: self.recovery_cycles[t],
                    p50,
                    p99,
                    p999,
                }
            })
            .collect()
    }
}

/// The epoch runner: the only thread that touches the `System`.
#[allow(clippy::too_many_arguments)]
fn run_epochs(
    mut system: System,
    line_span: u64,
    queue_cap: usize,
    epoch_ops: usize,
    wait: Duration,
    tenants: Option<TenantMix>,
    rx: Receiver<Msg>,
    telemetry: Arc<Telemetry>,
) -> ServiceReport {
    let cores = system.cores() as u64;
    let mut batcher = EpochBatcher::new(queue_cap, epoch_ops);
    let mut routes: HashMap<u64, Sender<Vec<Completion>>> = HashMap::new();
    let mut first_pending: Option<Instant> = None;
    let mut draining = false;
    let mut completed: u64 = 0;
    let mut acct = tenants.map(TenantAcct::new);

    let handle = |msg: Msg,
                  batcher: &mut EpochBatcher,
                  routes: &mut HashMap<u64, Sender<Vec<Completion>>>,
                  system: &mut System,
                  first_pending: &mut Option<Instant>,
                  draining: &mut bool,
                  acct: &mut Option<TenantAcct>| {
        match msg {
            Msg::Register { client, tx } => {
                routes.insert(client, tx);
            }
            Msg::Deregister { client } => {
                routes.remove(&client);
                telemetry.sessions.fetch_sub(1, Ordering::Relaxed);
            }
            Msg::ForceDegraded(on) => system.set_forced_degraded(on),
            Msg::Shutdown => *draining = true,
            Msg::Ops(ops) => {
                let mut shed: Vec<Completion> = Vec::new();
                for mut op in ops {
                    telemetry.submitted.fetch_add(1, Ordering::Relaxed);
                    if let Some(a) = acct.as_ref() {
                        op.priority = a.priority_for(op.client);
                    }
                    // While draining, refuse new work outright (but
                    // still answer it) so the drain terminates.
                    let outcome = if *draining {
                        SubmitOutcome::Shed
                    } else {
                        batcher.submit(op)
                    };
                    match outcome {
                        SubmitOutcome::Admitted => {
                            telemetry.admitted.fetch_add(1, Ordering::Relaxed);
                            if first_pending.is_none() {
                                *first_pending = Some(Instant::now());
                            }
                        }
                        SubmitOutcome::Shed => {
                            telemetry.shed.fetch_add(1, Ordering::Relaxed);
                            if let Some(a) = acct.as_mut() {
                                a.shed_one(op.client);
                            }
                            shed.push(shed_completion(&op));
                        }
                        SubmitOutcome::AdmittedEvicting(victim) => {
                            // The incoming op took the victim's
                            // admitted slot: net admitted unchanged,
                            // one more shed, and the victim's client
                            // still gets an answer.
                            telemetry.shed.fetch_add(1, Ordering::Relaxed);
                            if let Some(a) = acct.as_mut() {
                                a.shed_one(victim.client);
                            }
                            shed.push(shed_completion(&victim));
                            if first_pending.is_none() {
                                *first_pending = Some(Instant::now());
                            }
                        }
                    }
                }
                for (client, comps) in group_by_client(shed) {
                    if let Some(tx) = routes.get(&client) {
                        let _ = tx.send(comps);
                    }
                }
            }
        }
    };

    loop {
        // Drain whatever is queued without blocking.
        while let Ok(msg) = rx.try_recv() {
            handle(
                msg,
                &mut batcher,
                &mut routes,
                &mut system,
                &mut first_pending,
                &mut draining,
                &mut acct,
            );
        }

        let deadline_hit = first_pending.is_some_and(|t| t.elapsed() >= wait);
        if batcher.epoch_ready() || (batcher.pending_len() > 0 && (deadline_hit || draining)) {
            let epoch = batcher.take_epoch();
            let client_ops: Vec<ClientOp> = epoch
                .iter()
                .map(|op| ClientOp {
                    core: (op.client % cores) as usize,
                    // With a tenant mix, each tenant folds into its
                    // own disjoint stripe of the span; otherwise the
                    // whole span is shared.
                    line: match &acct {
                        Some(a) => a.fold(op.client, op.line, line_span.max(1)),
                        None => op.line % line_span.max(1),
                    },
                    req: op.req,
                })
                .collect();
            let outcomes = system.run_batch(&client_ops);
            debug_assert_eq!(outcomes.len(), epoch.len());
            let done: Vec<Completion> = epoch
                .iter()
                .zip(outcomes)
                .map(|(op, out)| {
                    if let Some(a) = acct.as_mut() {
                        a.complete_one(op.client, out.complete_at - out.issued_at, &out.breakdown);
                        a.attribute_faults(op.client, out.detected_reads, out.machine_checks);
                    }
                    Completion {
                        client: op.client,
                        seq: op.seq,
                        shed: false,
                        issued_at: out.issued_at,
                        complete_at: out.complete_at,
                        breakdown: out.breakdown,
                    }
                })
                .collect();
            completed += done.len() as u64;
            telemetry
                .completed
                .fetch_add(done.len() as u64, Ordering::Relaxed);
            telemetry.epochs.fetch_add(1, Ordering::Relaxed);
            for (client, comps) in group_by_client(done) {
                if let Some(tx) = routes.get(&client) {
                    let _ = tx.send(comps);
                }
            }
            first_pending = (batcher.pending_len() > 0).then(Instant::now);
            publish_snapshot(&system, &telemetry, acct.as_ref());
            continue;
        }

        if draining && batcher.pending_len() == 0 {
            break;
        }

        // Idle: block until the next message (or a deadline tick).
        let timeout = if first_pending.is_some() {
            wait.min(Duration::from_millis(1))
                .max(Duration::from_micros(100))
        } else {
            Duration::from_millis(20)
        };
        match rx.recv_timeout(timeout) {
            Ok(msg) => handle(
                msg,
                &mut batcher,
                &mut routes,
                &mut system,
                &mut first_pending,
                &mut draining,
                &mut acct,
            ),
            Err(RecvTimeoutError::Timeout) => {}
            // Every Service/Session handle is gone; drain and exit.
            Err(RecvTimeoutError::Disconnected) => draining = true,
        }
    }

    publish_snapshot(&system, &telemetry, acct.as_ref());
    let engine = system.engine_stats();
    let ledger = system.recovery_ledger();
    // Drain-time sheds bypass the batcher, so the report reads the
    // telemetry counters (the batcher's ledger is a strict subset and
    // its own `accounted()` invariant still holds).
    ServiceReport {
        cycles: system.now(),
        submitted: telemetry.submitted.load(Ordering::Relaxed),
        admitted: telemetry.admitted.load(Ordering::Relaxed),
        shed: telemetry.shed.load(Ordering::Relaxed),
        completed,
        epochs: batcher.epochs(),
        hists: system.latency_hists().clone(),
        engine_latency: engine.latency_breakdown,
        degraded_transitions: engine.degraded_transitions,
        recovery_consistent: ledger.consistent(),
        detected_reads: ledger.detected_reads,
        machine_checks: ledger.machine_checks,
        tenants: acct.as_ref().map(TenantAcct::snapshot).unwrap_or_default(),
    }
}

fn publish_snapshot(system: &System, telemetry: &Telemetry, acct: Option<&TenantAcct>) {
    let engine = system.engine_stats();
    let ledger = system.recovery_ledger();
    let link = system.fabric().link_table();
    let nodes = system.config().nodes();
    let edge_occupancy = (0..nodes)
        .flat_map(|from| (0..nodes).map(move |to| (from, to)))
        .filter(|&(from, to)| from != to)
        .map(|(from, to)| {
            let s = link.edge_stats(from, to);
            EdgeOccupancy {
                from,
                to,
                messages: s.grants,
                busy_cycles: s.busy_cycles,
            }
        })
        .collect();
    telemetry.publish(TelemetrySnapshot {
        hists: system.latency_hists().clone(),
        engine_latency: engine.latency_breakdown,
        cycles: system.now(),
        degraded_transitions: engine.degraded_transitions,
        recovery_consistent: ledger.consistent(),
        detected_reads: ledger.detected_reads,
        machine_checks: ledger.machine_checks,
        node_replica_entries: system.node_replica_entries(),
        edge_occupancy,
        tenants: acct.map(TenantAcct::snapshot).unwrap_or_default(),
    });
}

fn group_by_client(comps: Vec<Completion>) -> HashMap<u64, Vec<Completion>> {
    let mut by_client: HashMap<u64, Vec<Completion>> = HashMap::new();
    for c in comps {
        by_client.entry(c.client).or_default().push(c);
    }
    by_client
}

/// Accept loop. Non-blocking so shutdown can interrupt it.
fn run_listener(
    tcp: TcpListener,
    cores: usize,
    ctl: Sender<Msg>,
    telemetry: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
) {
    tcp.set_nonblocking(true).expect("set_nonblocking");
    while !shutdown.load(Ordering::Acquire) {
        match tcp.accept() {
            Ok((stream, _)) => {
                let ctl = ctl.clone();
                let telemetry = Arc::clone(&telemetry);
                let shutdown = Arc::clone(&shutdown);
                let _ = std::thread::Builder::new()
                    .name("dve-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(stream, cores, ctl, telemetry, shutdown);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// One connection: HTTP scrape or binary op session.
fn serve_connection(
    mut stream: TcpStream,
    cores: usize,
    ctl: Sender<Msg>,
    telemetry: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    if &head == b"GET " {
        return serve_http(stream, &telemetry);
    }

    // Binary session. `head` is the length prefix of the HELLO frame.
    let len = u32::from_le_bytes(head);
    if len == 0 || len > proto::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad first frame",
        ));
    }
    let mut hello = vec![0u8; len as usize];
    stream.read_exact(&mut hello)?;
    if hello.first() != Some(&proto::TAG_HELLO) || hello.len() != 9 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "expected HELLO"));
    }
    let client = u64::from_le_bytes(hello[1..9].try_into().unwrap());

    let (tx, rx) = channel();
    telemetry.sessions.fetch_add(1, Ordering::Relaxed);
    if ctl.send(Msg::Register { client, tx }).is_err() {
        return Ok(()); // runner already gone
    }
    proto::write_frame(&mut stream, &proto::encode_hello_ok(client, cores as u32))?;

    // A bounded read timeout lets the thread notice shutdown while
    // parked on an idle connection.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let result = serve_session(&mut stream, client, &ctl, &rx, &shutdown);
    let _ = ctl.send(Msg::Deregister { client });
    result
}

fn serve_session(
    stream: &mut TcpStream,
    client: u64,
    ctl: &Sender<Msg>,
    rx: &Receiver<Vec<Completion>>,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let stopping = || shutdown.load(Ordering::Acquire);
    loop {
        let body = match proto::read_frame_after_idle(stream, stopping) {
            Ok(Some(b)) => b,
            // Idle between frames: the read timeout lets shutdown in.
            Ok(None) if stopping() => return Ok(()),
            Ok(None) => continue,
            // Peer closed: normal end of session.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        if body.first() != Some(&proto::TAG_OPS) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "expected OPS"));
        }
        let ops = proto::decode_ops(&body, client)?;
        let expect = ops.len();
        if ctl.send(Msg::Ops(ops)).is_err() {
            return Ok(());
        }
        let mut got = Vec::with_capacity(expect);
        while got.len() < expect {
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(comps) => got.extend(comps),
                Err(_) => return Err(io::Error::new(io::ErrorKind::TimedOut, "completions lost")),
            }
        }
        proto::write_frame(stream, &proto::encode_batch(&got))?;
    }
}

/// Minimal HTTP/1.0 for `GET /metrics` and `GET /health`. The "GET "
/// prefix has already been consumed.
fn serve_http(mut stream: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut req = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !req.ends_with(b"\r\n\r\n") && req.len() < 4096 {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => req.push(byte[0]),
            Err(_) => break,
        }
    }
    let path = std::str::from_utf8(&req)
        .ok()
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or("");
    let (status, body) = match path {
        "/metrics" => ("200 OK", telemetry.render_metrics()),
        "/health" => ("200 OK", telemetry.render_health()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let rsp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(rsp.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_sim::rng::SplitMix64;
    use dve_workloads::op::MemReq;

    fn small_cfg() -> ServiceConfig {
        // Tiny epochs + a short deadline keep the tests fast.
        "epoch_ops=64 epoch_wait_ms=1 queue_cap=4096 mshrs=2"
            .parse()
            .unwrap()
    }

    fn gen_ops(seed: u64, n: u64) -> Vec<(u64, u64, MemReq)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|seq| {
                let line = rng.next_below(1 << 14);
                let req = if rng.chance(0.7) {
                    MemReq::Read
                } else {
                    MemReq::Write
                };
                (seq, line, req)
            })
            .collect()
    }

    #[test]
    fn in_process_sessions_complete_every_op() {
        let service = Service::start(&small_cfg()).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let session = service.session();
            handles.push(std::thread::spawn(move || {
                let ops = gen_ops(0xA0 + t, 200);
                let comps = session.submit(&ops).expect("service alive");
                assert_eq!(comps.len(), ops.len());
                let mut seqs: Vec<u64> = comps.iter().map(|c| c.seq).collect();
                seqs.sort_unstable();
                assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
                for c in &comps {
                    assert!(!c.shed, "queue_cap ample; nothing sheds");
                    assert_eq!(
                        c.breakdown.total(),
                        c.complete_at - c.issued_at,
                        "per-op conservation on the wire"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.submitted, 1600);
        assert_eq!(report.completed, report.admitted);
        assert!(report.conserves(), "{report:?}");
        assert!(report.cycles > 0);
    }

    #[test]
    fn tcp_sessions_and_http_scrapes_share_the_listener() {
        let service = Service::start(&small_cfg()).unwrap();
        let addr = service.addr();

        let mut client = proto::TcpClient::connect(addr, 3).unwrap();
        assert_eq!(client.cores, 16);
        let ops = gen_ops(0x7C9, 100);
        let comps = client.submit(&ops).unwrap();
        assert_eq!(comps.len(), 100);
        assert!(comps.iter().all(|c| !c.shed));

        // HTTP on the same port.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut rsp = String::new();
        s.read_to_string(&mut rsp).unwrap();
        assert!(rsp.starts_with("HTTP/1.0 200 OK"), "{rsp}");
        assert!(rsp.contains("dve_ops_completed 100"), "{rsp}");

        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
        let mut rsp = String::new();
        s.read_to_string(&mut rsp).unwrap();
        assert!(rsp.contains("ok"), "{rsp}");

        let report = service.shutdown();
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn oversized_ops_frames_drop_only_their_connection() {
        let service = Service::start(&small_cfg()).unwrap();
        let addr = service.addr();
        let health = || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
            let mut rsp = String::new();
            s.read_to_string(&mut rsp).unwrap();
            rsp
        };
        // A count the 5-byte body cannot back, and a legal-length frame
        // one op past the largest count whose BATCH reply can be framed.
        let bogus_count = vec![proto::TAG_OPS, 0xff, 0xff, 0xff, 0xff];
        let too_many = proto::encode_ops(&vec![(0, 0, MemReq::Read); proto::MAX_OPS + 1]);
        for (client, body) in [(11u64, bogus_count), (12, too_many)] {
            let mut s = TcpStream::connect(addr).unwrap();
            proto::write_frame(&mut s, &proto::encode_hello(client)).unwrap();
            assert_eq!(proto::read_frame(&mut s).unwrap()[0], proto::TAG_HELLO_OK);
            proto::write_frame(&mut s, &body).unwrap();
            assert!(
                proto::read_frame(&mut s).is_err(),
                "client {client}: server must drop the connection"
            );
            assert!(health().starts_with("HTTP/1.0 200 OK"), "client {client}");
        }

        // The service still serves a well-formed session afterwards.
        let mut client = proto::TcpClient::connect(addr, 13).unwrap();
        assert_eq!(client.submit(&gen_ops(0x51, 50)).unwrap().len(), 50);
        let report = service.shutdown();
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn ops_frame_split_across_the_idle_timeout_is_served() {
        // The session's read timeout is 200 ms; a sender that stalls
        // longer than that inside a frame must still be answered, and
        // the stream must stay in sync for the next frame.
        let service = Service::start(&small_cfg()).unwrap();
        let mut s = TcpStream::connect(service.addr()).unwrap();
        proto::write_frame(&mut s, &proto::encode_hello(21)).unwrap();
        assert_eq!(proto::read_frame(&mut s).unwrap()[0], proto::TAG_HELLO_OK);
        let ops = gen_ops(0x5EA, 40);
        let body = proto::encode_ops(&ops);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        for split in [2, 4 + body.len() / 2] {
            s.write_all(&frame[..split]).unwrap();
            std::thread::sleep(Duration::from_millis(300));
            s.write_all(&frame[split..]).unwrap();
            let rsp = proto::read_frame(&mut s).unwrap();
            assert_eq!(rsp[0], proto::TAG_BATCH, "split at {split}");
            let comps = proto::decode_batch(&rsp, 21).unwrap();
            let mut seqs: Vec<u64> = comps.iter().map(|c| c.seq).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, (0..40).collect::<Vec<u64>>(), "split at {split}");
        }
        drop(s);
        let report = service.shutdown();
        assert_eq!(report.submitted, 80);
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn deepest_accepted_mshr_bank_boots_and_serves() {
        let text = format!(
            "epoch_ops=64 queue_cap=4096 mshrs={}",
            crate::config::MAX_MSHRS
        );
        let service = Service::start(&text.parse().unwrap()).unwrap();
        let comps = service.session().submit(&gen_ops(0x5E, 200)).unwrap();
        assert_eq!(comps.len(), 200);
        let report = service.shutdown();
        assert_eq!(report.completed, 200);
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn overload_sheds_exactly_and_answers_every_op() {
        let cfg: ServiceConfig = "epoch_ops=32 epoch_wait_ms=50 queue_cap=32"
            .parse()
            .unwrap();
        let service = Service::start(&cfg).unwrap();
        let session = service.session();
        // One giant burst against a 32-op queue: most of it sheds, but
        // every op gets an answer.
        let ops = gen_ops(7, 1000);
        let comps = session.submit(&ops).unwrap();
        assert_eq!(comps.len(), 1000);
        let shed = comps.iter().filter(|c| c.shed).count();
        assert!(shed > 0, "burst must overflow the 32-op queue");
        drop(session);
        let report = service.shutdown();
        assert_eq!(report.submitted, 1000);
        assert_eq!(report.shed, shed as u64);
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn nway_topology_surfaces_per_node_and_per_edge_metrics() {
        let cfg: ServiceConfig = "topology=nway:4 epoch_ops=64 epoch_wait_ms=1 scheme=dve-deny"
            .parse()
            .unwrap();
        let service = Service::start(&cfg).unwrap();
        let session = service.session();
        assert!(session.submit(&gen_ops(5, 400)).is_some());
        drop(session);

        let mut s = TcpStream::connect(service.addr()).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut rsp = String::new();
        s.read_to_string(&mut rsp).unwrap();
        // Four nodes' replica gauges, and all 12 directed edges.
        for node in 0..4 {
            assert!(
                rsp.contains(&format!("dve_node_replica_entries{{node=\"{node}\"}}")),
                "{rsp}"
            );
        }
        for (from, to) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
            if from == to {
                continue;
            }
            assert!(
                rsp.contains(&format!("dve_link_messages{{from=\"{from}\",to=\"{to}\"}}")),
                "{rsp}"
            );
        }
        // Replicated traffic must put messages on some edge.
        assert!(rsp.contains("dve_link_busy_cycles"), "{rsp}");
        let report = service.shutdown();
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn tenant_mix_accounts_sheds_and_renders_per_tenant_metrics() {
        let cfg: ServiceConfig = "epoch_ops=32 epoch_wait_ms=50 queue_cap=32 \
             tenants=gold:2:10000000,silver:1:10000000,bronze:0:10000000"
            .parse()
            .unwrap();
        let service = Service::start(&cfg).unwrap();
        // In-proc client ids start at 1<<32 ≡ 1 (mod 3): the first
        // session lands on the middle tenant, silver.
        let session = service.session();
        let ops = gen_ops(7, 800);
        let comps = session.submit(&ops).unwrap();
        assert_eq!(comps.len(), 800);
        let shed = comps.iter().filter(|c| c.shed).count() as u64;
        assert!(shed > 0, "burst must overflow the 32-op queue");

        // The runner publishes the tenant snapshot at the next epoch
        // boundary; wait (bounded) for it to quiesce.
        let telemetry = service.telemetry();
        let deadline = Instant::now() + Duration::from_secs(5);
        let metrics = loop {
            let m = telemetry.render_metrics();
            if m.contains("dve_tenant_conserves 1") || Instant::now() > deadline {
                break m;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        for tenant in ["gold", "silver", "bronze"] {
            for gauge in ["ops_completed", "ops_shed", "machine_checks", "slo_ok"] {
                assert!(
                    metrics.contains(&format!("dve_tenant_{gauge}{{tenant=\"{tenant}\"}}")),
                    "missing dve_tenant_{gauge} for {tenant}: {metrics}"
                );
            }
        }
        assert!(metrics.contains("dve_tenant_conserves 1"), "{metrics}");

        drop(session);
        let report = service.shutdown();
        assert!(report.conserves(), "{report:?}");
        let silver = report.tenants.iter().find(|t| t.name == "silver").unwrap();
        assert_eq!(silver.shed, shed, "every shed belongs to silver");
        assert_eq!(silver.completed, report.completed);
        assert!(silver.p99 > 0, "completed ops have measured latency");
        for t in report.tenants.iter().filter(|t| t.name != "silver") {
            assert_eq!((t.completed, t.shed), (0, 0), "{t:?} saw no traffic");
        }
    }

    #[test]
    fn forced_degradation_flips_live_and_chaos_runs_stay_consistent() {
        let cfg: ServiceConfig = "epoch_ops=64 epoch_wait_ms=1 chaos_seed=11 scheme=dve-deny"
            .parse()
            .unwrap();
        let service = Service::start(&cfg).unwrap();
        let session = service.session();
        assert!(session.submit(&gen_ops(1, 300)).is_some());
        service.force_degraded(true);
        assert!(session.submit(&gen_ops(2, 300)).is_some());
        service.force_degraded(false);
        assert!(session.submit(&gen_ops(3, 300)).is_some());
        drop(session);
        let report = service.shutdown();
        assert!(
            report.degraded_transitions >= 2,
            "on+off must both reach the engine: {report:?}"
        );
        assert!(report.recovery_consistent);
        assert!(report.conserves(), "{report:?}");
    }
}
