//! The running service: session registration, the epoch runner
//! thread, and the TCP front end.
//!
//! Thread layout:
//!
//! * **Runner** (one thread) — owns the [`EpochLoop`] (and through it
//!   the `System`, the batcher and the accounting). Drains the control
//!   channel into the loop, runs an epoch when either `epoch_ops` are
//!   pending or `epoch_wait_ms` has elapsed since the first pending
//!   op, and routes completions back to sessions. All simulation state
//!   is confined here; no locks on the simulation.
//! * **Listener** (one thread) — blocking `accept` loop; spawns a
//!   connection thread per client. Shutdown wakes it with a connection
//!   of its own.
//! * **Connection threads** — sniff HTTP (`GET /metrics`,
//!   `GET /health`) vs the binary frame protocol; binary connections
//!   register a session and relay ops/completions.
//!
//! Shutdown is a drain: the listener stops accepting, sessions'
//! remaining submissions are refused as shed (with completions, so
//! closed-loop clients never hang), the runner executes every already
//! admitted op, and [`Service::shutdown`] returns the final
//! [`ServiceReport`]. If the runner panics, its channels close
//! (sessions get `None`, connections drop), `/health` reports
//! `failed`, and the report does not conserve.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dve_workloads::op::MemReq;

use crate::batcher::SubmittedOp;
use crate::config::ServiceConfig;
use crate::epoch::{Completion, EpochLoop};
use crate::proto;
use crate::telemetry::{ServiceReport, Telemetry};

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
    /// Panics the runner, standing in for a failed engine invariant.
    #[cfg(test)]
    Panic,
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
    /// went away (shut down, or its runner failed) before answering.
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
    runner: Option<JoinHandle<Option<ServiceReport>>>,
    listener: Option<JoinHandle<()>>,
}

impl Service {
    /// Boots the service: builds the live `System` for `cfg`, spawns
    /// the runner and the TCP listener, and returns once the listener
    /// is bound.
    pub fn start(cfg: &ServiceConfig) -> io::Result<Service> {
        let epochs = EpochLoop::from_config(cfg)?;
        let cores = epochs.system().cores();
        let telemetry = Arc::clone(epochs.telemetry());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (ctl_tx, ctl_rx) = channel();

        let runner = {
            let telemetry = Arc::clone(&telemetry);
            let wait = Duration::from_millis(cfg.epoch_wait_ms);
            std::thread::Builder::new()
                .name("dve-epoch-runner".to_string())
                .spawn(move || {
                    let run = AssertUnwindSafe(|| run_epochs(epochs, wait, ctl_rx));
                    panic::catch_unwind(run).map_err(|_| telemetry.fail()).ok()
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

    /// Opens an in-process session with a fresh client id. If the
    /// runner has failed, the session's submits return `None`.
    pub fn session(&self) -> Session {
        let client = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        self.telemetry.sessions.fetch_add(1, Ordering::Relaxed);
        let _ = self.ctl.send(Msg::Register { client, tx });
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
    /// tear down the listener, and return the final report. After a
    /// runner failure the report is the last published one, marked
    /// `failed`.
    pub fn shutdown(mut self) -> ServiceReport {
        self.telemetry.stop_accepting();
        self.shutdown.store(true, Ordering::Release);
        let _ = self.ctl.send(Msg::Shutdown);
        // The listener blocks in `accept`: a connection wakes it to see
        // the flag. If none can be made, it is left blocked rather than
        // joined.
        let woke = TcpStream::connect(self.addr).is_ok();
        let report = self.runner.take().and_then(|r| r.join().ok().flatten());
        if let Some(l) = self.listener.take().filter(|_| woke) {
            let _ = l.join();
        }
        report.unwrap_or_else(|| {
            self.telemetry.fail();
            self.telemetry.report()
        })
    }
}

/// In-process client ids start here; TCP clients pick their own ids
/// below this (the loadgen uses small integers), and a HELLO at or
/// above it is refused.
const IN_PROC_CLIENT_BASE: u64 = 1 << 32;

/// How long a new connection may stall before it has sent its request
/// head and, for a binary session, its whole HELLO: past this the
/// connection is closed instead of parking its thread.
const HELLO_TIMEOUT: Duration = Duration::from_millis(500);

/// The runner thread: feeds the control channel into the loop, runs an
/// epoch when one is full or `wait` has passed since its first pending
/// op, and routes completions to sessions. On shutdown (or once every
/// handle is gone) it closes admission and runs the admitted ops out.
fn run_epochs(mut epochs: EpochLoop, wait: Duration, rx: Receiver<Msg>) -> ServiceReport {
    let mut routes: HashMap<u64, Sender<Vec<Completion>>> = HashMap::new();
    let deliver = |routes: &HashMap<u64, Sender<Vec<Completion>>>, comps: Vec<Completion>| {
        let mut by_client: HashMap<u64, Vec<Completion>> = HashMap::new();
        for c in comps {
            by_client.entry(c.client).or_default().push(c);
        }
        for (client, comps) in by_client {
            if let Some(tx) = routes.get(&client) {
                let _ = tx.send(comps);
            }
        }
    };
    let mut first_pending: Option<Instant> = None;
    let mut received: Option<Msg> = None;

    loop {
        // The message that woke the runner, then whatever else is
        // queued, without blocking.
        for msg in received
            .take()
            .into_iter()
            .chain(std::iter::from_fn(|| rx.try_recv().ok()))
        {
            match msg {
                Msg::Register { client, tx } => {
                    routes.insert(client, tx);
                }
                Msg::Deregister { client } => {
                    routes.remove(&client);
                    epochs.telemetry().sessions.fetch_sub(1, Ordering::Relaxed);
                }
                Msg::ForceDegraded(on) => epochs.force_degraded(on),
                Msg::Shutdown => epochs.close(),
                Msg::Ops(ops) => {
                    let shed = ops.into_iter().filter_map(|op| epochs.submit(op)).collect();
                    deliver(&routes, shed);
                }
                #[cfg(test)]
                Msg::Panic => panic!("injected epoch runner failure"),
            }
        }
        if first_pending.is_none() && epochs.pending() > 0 {
            first_pending = Some(Instant::now());
        }

        let deadline_hit = first_pending.is_some_and(|t| t.elapsed() >= wait);
        if epochs.epoch_ready() || (epochs.pending() > 0 && (deadline_hit || epochs.closed())) {
            deliver(&routes, epochs.run_epoch());
            first_pending = (epochs.pending() > 0).then(Instant::now);
            continue;
        }

        if epochs.closed() && epochs.pending() == 0 {
            return epochs.finish();
        }

        // Idle: block until the next message (or a deadline tick).
        let timeout = if first_pending.is_some() {
            wait.min(Duration::from_millis(1))
                .max(Duration::from_micros(100))
        } else {
            Duration::from_millis(20)
        };
        match rx.recv_timeout(timeout) {
            Ok(msg) => received = Some(msg),
            Err(RecvTimeoutError::Timeout) => {}
            // Every Service/Session handle is gone; drain and exit.
            Err(RecvTimeoutError::Disconnected) => epochs.close(),
        }
    }
}

/// Accept loop. It blocks in `accept`, so a client is served as soon as
/// it connects; [`Service::shutdown`] sets the flag and then connects
/// to wake it.
fn run_listener(
    tcp: TcpListener,
    cores: usize,
    ctl: Sender<Msg>,
    telemetry: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
) {
    // Client ids of the live TCP sessions. In-process ids sit above
    // `IN_PROC_CLIENT_BASE`, so these alone decide whether a HELLO's id
    // is taken.
    let tcp_clients: Arc<Mutex<HashSet<u64>>> = Arc::default();
    loop {
        let accepted = tcp.accept();
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let ctl = ctl.clone();
                let telemetry = Arc::clone(&telemetry);
                let shutdown = Arc::clone(&shutdown);
                let tcp_clients = Arc::clone(&tcp_clients);
                let _ = std::thread::Builder::new()
                    .name("dve-conn".to_string())
                    .spawn(move || {
                        let _ =
                            serve_connection(stream, cores, ctl, telemetry, shutdown, &tcp_clients);
                    });
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
    tcp_clients: &Mutex<HashSet<u64>>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    if &head == b"GET " {
        return serve_http(stream, &telemetry);
    }

    // Binary session. `head` is the length prefix of the HELLO frame.
    let client = proto::read_hello(&mut stream, head)?;
    // An id in the in-process range, or one a live TCP session holds,
    // would share (and on deregistration remove) another session's
    // route: the connection is closed without a HELLO_OK.
    if client >= IN_PROC_CLIENT_BASE || !tcp_clients.lock().unwrap().insert(client) {
        return Ok(());
    }
    let (tx, rx) = channel();
    telemetry.sessions.fetch_add(1, Ordering::Relaxed);
    let result = if ctl.send(Msg::Register { client, tx }).is_ok() {
        let session =
            proto::write_frame(&mut stream, &proto::encode_hello_ok(client, cores as u32))
                .and_then(|()| {
                    // A bounded read timeout lets the thread notice
                    // shutdown while parked on an idle connection.
                    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
                    serve_session(&mut stream, client, &ctl, &rx, &shutdown)
                });
        let _ = ctl.send(Msg::Deregister { client });
        session
    } else {
        Ok(()) // runner already gone
    };
    // Freed only after the Deregister is queued, so a reconnect's
    // Register reaches the runner after it.
    tcp_clients.lock().unwrap().remove(&client);
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
    fn a_hello_for_a_taken_or_in_process_id_is_refused() {
        // Four connections: the first session on id 5, a second HELLO
        // on id 5, one on the first in-process id, and one /health
        // scrape. Both refused HELLOs are closed before HELLO_OK; the
        // first session keeps its route through each of them.
        let service = Service::start(&small_cfg()).unwrap();
        let addr = service.addr();
        let telemetry = service.telemetry();
        let mut first = proto::TcpClient::connect(addr, 5).unwrap();
        assert_eq!(first.submit(&gen_ops(0x5A, 50)).unwrap().len(), 50);
        for (i, taken) in [5, IN_PROC_CLIENT_BASE].into_iter().enumerate() {
            let refused = proto::TcpClient::connect(addr, taken);
            assert!(
                refused.is_err(),
                "HELLO for client {taken:#x} must be refused"
            );
            let comps = first.submit(&gen_ops(0x5B + i as u64, 50)).unwrap();
            assert_eq!(comps.len(), 50, "after refusing {taken:#x}");
            assert!(comps.iter().all(|c| c.client == 5 && !c.shed));
            assert_eq!(
                telemetry.render_health(),
                format!("ok sessions=1 completed={}\n", 100 + 50 * i),
                "after refusing {taken:#x}"
            );
        }
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
        let mut rsp = String::new();
        s.read_to_string(&mut rsp).unwrap();
        assert!(
            rsp.ends_with("\r\n\r\nok sessions=1 completed=150\n"),
            "{rsp}"
        );
        drop(first);
        let report = service.shutdown();
        assert_eq!(report.submitted, 150);
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn a_stalled_oversized_hello_is_dropped_at_once() {
        // Three clients that stall before a complete HELLO: a 16 MiB
        // length prefix and then nothing (refused at once, without
        // allocating the claimed body), a connection that sends
        // nothing, and a valid 9-byte prefix with no body (both closed
        // by the pre-HELLO read timeout). None may park its thread.
        let service = Service::start(&small_cfg()).unwrap();
        let addr = service.addr();
        let stalled: Vec<TcpStream> = [
            &proto::MAX_FRAME.to_le_bytes()[..],
            &[],
            &9u32.to_le_bytes(),
        ]
        .into_iter()
        .map(|sent| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(sent).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            s
        })
        .collect();
        for (i, mut s) in stalled.iter().enumerate() {
            match s.read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                other => panic!("server must close connection {i}: {other:?}"),
            }
        }

        // A well-behaved session and /health still work, and shutdown
        // returns while the refused clients still hold their sockets.
        let mut client = proto::TcpClient::connect(addr, 14).unwrap();
        assert_eq!(client.submit(&gen_ops(0x52, 50)).unwrap().len(), 50);
        drop(client);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
        let mut rsp = String::new();
        s.read_to_string(&mut rsp).unwrap();
        assert!(rsp.starts_with("HTTP/1.0 200 OK"), "{rsp}");
        let report = service.shutdown();
        assert!(report.conserves(), "{report:?}");
        drop(stalled);
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
    fn a_runner_panic_fails_health_and_sessions_instead_of_hanging() {
        let service = Service::start(&small_cfg()).unwrap();
        let session = service.session();
        assert!(session.submit(&gen_ops(0x9A, 100)).is_some());
        service.ctl.send(Msg::Panic).unwrap();
        let telemetry = service.telemetry();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !telemetry.failed() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut s = TcpStream::connect(service.addr()).unwrap();
        s.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
        let mut rsp = String::new();
        s.read_to_string(&mut rsp).unwrap();
        assert!(rsp.contains("\r\n\r\nfailed "), "{rsp}");
        // Old and new sessions get `None`, not a hang or a panic.
        assert!(session.submit(&gen_ops(0x9B, 10)).is_none());
        assert!(service.session().submit(&gen_ops(0x9C, 10)).is_none());
        let report = service.shutdown();
        assert!(report.failed && !report.conserves(), "{report:?}");
        assert_eq!(report.completed, 100, "the last published figures survive");
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
