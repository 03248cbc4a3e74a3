//! The two trace-replay workloads: `System::run` on a synthesized trace,
//! and the traced reproduction of the same loop from the crates' public
//! functions.

use crate::cputime::Stopwatch;
use crate::metrics::Metrics;
use crate::outcome::{peak_rss_mib, secs_since, timed, Outcome, Samples};
use crate::reference::HostSpeed;
use crate::stats::median;
use dve::chaos::{
    ChaosConfig, ChaosParams, CorrelatedConfig, FaultEvent, HammerParams, ScrubConfig,
};
use dve::config::{Scheme, SystemConfig};
use dve::fabric_impl::SystemFabric;
use dve::fault_source::{build_sources, FaultSource};
use dve::pdes::TraceSupply;
use dve::system::{RunResult, System};
use dve_coherence::engine::{EngineStats, ProtocolEngine};
use dve_coherence::fabric::Fabric;
use dve_coherence::types::{LineAddr, ReqType};
use dve_dram::controller::EccProfile;
use dve_noc::traffic::MessageClass;
use dve_sim::event::EventQueue;
use dve_sim::latency::{Component, LatencyBreakdown, LatencyHists, Stamp};
use dve_sim::resource::Resource;
use dve_workloads::op::{MemReq, Op};
use dve_workloads::{catalog, TraceGenerator, WorkloadProfile};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One replay workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    pub profile: &'static str,
    pub scheme: Scheme,
    pub mshrs: usize,
    /// Measured-region memory ops per core; the warm-up is a tenth.
    pub ops_per_thread: u64,
    /// Arm the chaos layer (random schedule, outages, scrub, hammer
    /// source, detect-only TSD ECC).
    pub chaos: bool,
}

/// Read-dominant, shared read-only data, highest MPKI in the catalog,
/// fault-free, blocking cores (the pinned-golden regime).
pub const SHARED_READ: ReplaySpec = ReplaySpec {
    profile: "backprop",
    scheme: Scheme::DveDeny,
    mshrs: 1,
    ops_per_thread: 40_000,
    chaos: false,
};

/// Write-heavy private data under the allow policy with overlapped
/// misses and the chaos layer armed for the whole run.
pub const WRITE_CHAOS: ReplaySpec = ReplaySpec {
    profile: "comd",
    scheme: Scheme::DveAllow,
    mshrs: 4,
    ops_per_thread: 40_000,
    chaos: true,
};

/// Simulated cycles the fault schedule spans: a little over the
/// warm-up plus measured region of `WRITE_CHAOS` (about 7.3M cycles).
const CHAOS_HORIZON: u64 = 8_000_000;

fn chaos_params(cfg: &SystemConfig, span: u64) -> ChaosParams {
    ChaosParams {
        faults: 16,
        horizon: CHAOS_HORIZON,
        transient_fraction: 0.5,
        heal_after: Some(CHAOS_HORIZON / 4),
        channels_per_socket: cfg.channels_per_socket(),
        line_span: span,
        nodes: cfg.nodes(),
    }
}

fn system_config(spec: &ReplaySpec, profile: &WorkloadProfile, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table_ii(spec.scheme);
    cfg.ops_per_thread = spec.ops_per_thread;
    cfg.warmup_per_thread = spec.ops_per_thread / 10;
    cfg.mshrs = spec.mshrs;
    if spec.chaos {
        let span = TraceGenerator::new(profile, cfg.engine.cores, seed).span_lines();
        let mut chaos = ChaosConfig::random(seed, &chaos_params(&cfg, span));
        // Two link-outage windows, a quarter and three quarters in.
        chaos.link_outages = [CHAOS_HORIZON / 4, CHAOS_HORIZON * 3 / 4]
            .iter()
            .map(|&t| (t, t + 8_000))
            .collect();
        chaos.scrub = Some(ScrubConfig {
            region_bytes: 1 << 16,
            lines_per_slice: 16,
            interval: 20_000,
        });
        chaos.correlated = Some(CorrelatedConfig {
            seed,
            hammer: Some(HammerParams {
                threshold: 40,
                transient: true,
                both_copies: false,
                poll_interval: 5_000,
            }),
            thermal: None,
            aging: None,
        });
        cfg.ecc = EccProfile::tsd();
        cfg.chaos = Some(chaos);
    }
    cfg
}

fn config_text(spec: &ReplaySpec, cfg: &SystemConfig, seed: u64) -> String {
    let mut s = format!(
        "workload={} scheme={} topology={} mshrs={} ops_per_thread={} warmup_per_thread={} \
         cores={} ecc={:?} system_seed={seed}",
        spec.profile,
        cfg.scheme,
        cfg.topology,
        cfg.mshrs,
        cfg.ops_per_thread,
        cfg.warmup_per_thread,
        cfg.engine.cores,
        cfg.ecc,
    );
    match &cfg.chaos {
        None => s.push_str(" chaos=none"),
        Some(c) => {
            let span = TraceGenerator::new(&profile(spec), cfg.engine.cores, seed).span_lines();
            s.push_str(&format!(
                " chaos_seed={seed} chaos_params={:?} schedule_events={} link_outages={:?} \
                 scrub={:?} correlated={:?}",
                chaos_params(cfg, span),
                c.schedule.len(),
                c.link_outages,
                c.scrub,
                c.correlated
            ));
        }
    }
    s
}

fn profile(spec: &ReplaySpec) -> WorkloadProfile {
    catalog()
        .into_iter()
        .find(|p| p.name == spec.profile)
        .expect("replay profile is in the catalog")
}

/// One untraced simulation: `System::new` → `warm_up` → measured
/// region, exactly what `System::run` does. Times are CPU seconds of
/// the process (see [`crate::cputime`]).
struct Rep {
    setup_s: f64,
    total_s: f64,
    result: RunResult,
}

fn run_rep(cfg: &SystemConfig, profile: &WorkloadProfile, seed: u64) -> Rep {
    let clock = Stopwatch::start();
    let mut system = System::new(cfg.clone(), profile, seed);
    system.warm_up();
    let setup_s = clock.cpu_s();
    system.begin_region();
    system.step_ops(cfg.ops_per_thread);
    let result = system.finish_region();
    Rep {
        setup_s,
        total_s: clock.cpu_s(),
        result,
    }
}

/// The simulated figures that must repeat exactly for a config and
/// seed.
#[derive(Debug, Clone, PartialEq)]
struct SimSignature {
    cycles: u64,
    mem_ops: u64,
    engine: EngineStats,
    recovery: dve::chaos::RecoveryLedger,
    latency: LatencyBreakdown,
    tail: (u64, u64, u64),
    link_messages: u64,
}

fn signature(r: &RunResult) -> SimSignature {
    SimSignature {
        cycles: r.cycles,
        mem_ops: r.mem_ops,
        engine: r.engine,
        recovery: r.recovery,
        latency: r.latency,
        tail: r.latency_tail(),
        link_messages: r.traffic.total_messages(),
    }
}

fn check_rep(out: &mut Outcome, spec: &ReplaySpec, first: &SimSignature, rep: &Rep) {
    let r = &rep.result;
    let sig = signature(r);
    out.check(sig == *first, || {
        format!("simulated output differs between repetitions: {sig:?} vs {first:?}")
    });
    out.check(r.latency_hist.conserves(&r.latency), || {
        "per-op latency histograms do not sum to RunResult::latency".to_string()
    });
    if spec.chaos {
        let l = &r.recovery;
        out.check(l.consistent(), || {
            format!("recovery ledger inconsistent: {l:?}")
        });
        out.check(l.detected_reads > 0 && l.repaired > 0, || {
            format!(
                "chaos did not fire (detected {}, repaired {})",
                l.detected_reads, l.repaired
            )
        });
    }
}

/// Runs a replay workload for `seconds` of repetitions (or, traced,
/// alternating untraced and traced repetitions).
pub fn run(spec: &ReplaySpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let profile = profile(spec);
    let cfg = system_config(spec, &profile, seed);
    let mut out = Outcome {
        config: config_text(spec, &cfg, seed),
        ..Outcome::default()
    };
    let warm_mem_ops = (cfg.warmup_per_thread * cfg.engine.cores as u64) as f64;

    let start = Instant::now();
    let mut speed = HostSpeed::default();
    let mut rss_mib = 0.0;
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let mut first: Option<SimSignature> = None;
    while reps.len() < 3 || secs_since(start) < seconds {
        let rep = run_rep(&cfg, &profile, seed);
        let first = first.get_or_insert_with(|| signature(&rep.result));
        check_rep(&mut out, spec, first, &rep);
        if reps.is_empty() {
            rss_mib = peak_rss_mib();
        }
        reps.push(rep);
        speed.sample();
        if trace {
            let t = TracedRep::run(&cfg, &profile, seed);
            out.check(t.signature == *first, || {
                format!(
                    "traced loop is not the same program: {:?} vs {:?}",
                    t.signature, first
                )
            });
            traced.push(t);
        }
    }
    out.attempted = reps.len() as u64;

    let r = &reps[0].result;
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    out.end_to_end(
        &Samples {
            setup_s: &col(|p| p.setup_s),
            request_s: &col(|p| p.total_s),
            work: &vec![warm_mem_ops + r.mem_ops as f64; reps.len()],
            peak_rss_mib: rss_mib,
            rate_name: "sim_mem_ops_per_s",
            request_name: "simulation",
        },
        &speed,
    );
    out.figure("sim_cycles", r.cycles as f64, "cycles");
    out.figure_noted(
        "sim_op_p99_cycles",
        r.latency_tail().1 as f64,
        "cycles",
        format!("p99 of {} simulated ops", r.latency_hist.count()),
    );

    if trace {
        layer_metrics(&mut out.metrics, r, &traced, &reps);
    }
    out
}

/// Per-layer metrics: host time from the traced repetitions (median per
/// repetition), counts from the simulated result, which every traced
/// repetition reproduced exactly.
fn layer_metrics(m: &mut Metrics, r: &RunResult, traced: &[TracedRep], reps: &[Rep]) {
    let med =
        |f: fn(&LayerTimes) -> f64| median(&traced.iter().map(|t| f(&t.times)).collect::<Vec<_>>());
    let times = &traced[0].times;
    m.set("workloads.next_op.calls", times.next_op_calls as f64);
    m.set("workloads.next_op.s", med(|t| t.next_op_s));
    m.set("coherence.access.calls", times.access_calls as f64);
    m.set(
        "coherence.access.self_s",
        med(|t| t.access_s - t.link_s.get() - t.dram_s),
    );
    m.set("noc.link.calls", times.link_calls.get() as f64);
    m.set("noc.link.s", med(|t| t.link_s.get()));
    m.set("dram.access.calls", times.dram_calls as f64);
    m.set("dram.access.s", med(|t| t.dram_s));
    m.set("core.chaos.s", med(|t| t.chaos_s));

    sim_layer_counts(
        m,
        &r.engine,
        &r.latency,
        r.traffic.total_messages(),
        r.dram_rows,
        r.dram_queue,
        &r.recovery,
    );
    m.set("core.sim_cycles", r.cycles as f64);
    m.set("core.sim_op_p99_cycles", r.latency_tail().1 as f64);

    let traced_s = median(&traced.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let untraced_s = median(&reps.iter().map(|p| p.total_s).collect::<Vec<_>>());
    m.set("trace_overhead_frac", traced_s / untraced_s - 1.0);
}

/// Simulated counts of the coherence, NoC, DRAM and recovery layers,
/// shared by the replay and serve workloads.
pub fn sim_layer_counts(
    m: &mut Metrics,
    engine: &EngineStats,
    latency: &LatencyBreakdown,
    link_messages: u64,
    dram_rows: (u64, u64, u64),
    dram_queue: (u64, u64),
    ledger: &dve::chaos::RecoveryLedger,
) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set("coherence.l1_hit_ratio", ratio(engine.l1_hits, engine.ops));
    m.set(
        "coherence.llc_hit_ratio",
        ratio(engine.llc_hits, engine.ops - engine.l1_hits),
    );
    m.set("coherence.replica_reads", engine.replica_reads as f64);
    m.set("coherence.writebacks", engine.writebacks as f64);
    m.set(
        "coherence.spec_squash_ratio",
        ratio(
            engine.spec_squashed,
            engine.spec_squashed + engine.spec_confirmed,
        ),
    );
    m.set(
        "coherence.latency_frac.protocol",
        latency.fraction(Component::Protocol),
    );
    m.set("noc.link_messages", link_messages as f64);
    m.set("noc.latency_frac.mesh", latency.fraction(Component::Mesh));
    m.set("noc.latency_frac.link", latency.fraction(Component::Link));
    let (hits, misses, conflicts) = dram_rows;
    m.set("dram.row_hit_ratio", ratio(hits, hits + misses + conflicts));
    m.set(
        "dram.queue_delay_mean_cycles",
        ratio(dram_queue.1, dram_queue.0),
    );
    m.set(
        "dram.latency_frac.bank_queue",
        latency.fraction(Component::BankQueue),
    );
    m.set(
        "dram.latency_frac.bank_service",
        latency.fraction(Component::BankService),
    );
    m.set("core.recovery.detected_reads", ledger.detected_reads as f64);
    m.set("core.recovery.repaired", ledger.repaired as f64);
    m.set("core.recovery.degraded", ledger.degraded as f64);
    m.set("core.recovery.machine_checks", ledger.machine_checks as f64);
    m.set("core.recovery.scrub_slices", ledger.scrub_slices as f64);
    m.set(
        "core.latency_frac.recovery",
        latency.fraction(Component::Recovery),
    );
}

/// Host seconds and call counts per layer over one traced repetition.
#[derive(Debug, Default, Clone)]
struct LayerTimes {
    next_op_calls: u64,
    next_op_s: f64,
    access_calls: u64,
    access_s: f64,
    /// Cells: `Fabric::link_probe` takes `&self`.
    link_calls: Cell<u64>,
    link_s: Cell<f64>,
    dram_calls: u64,
    dram_s: f64,
    chaos_s: f64,
}

impl LayerTimes {
    fn count_link(&self, start: Instant) {
        self.link_calls.set(self.link_calls.get() + 1);
        self.link_s
            .set(self.link_s.get() + start.elapsed().as_secs_f64());
    }
}

/// A [`Fabric`] that forwards to the system's fabric and times the
/// link (NoC) and DRAM services the engine calls.
struct TimedFabric<'a> {
    inner: &'a mut SystemFabric,
    times: &'a mut LayerTimes,
}

impl Fabric for TimedFabric<'_> {
    fn l1_latency(&self) -> u64 {
        self.inner.l1_latency()
    }
    fn llc_latency(&self) -> u64 {
        self.inner.llc_latency()
    }
    fn dir_latency(&self) -> u64 {
        self.inner.dir_latency()
    }
    fn mesh_latency(&self) -> u64 {
        self.inner.mesh_latency()
    }
    fn mesh_latency_core(&self, core: usize) -> u64 {
        self.inner.mesh_latency_core(core)
    }
    fn link_send(&mut self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp {
        let start = Instant::now();
        let arrive = self.inner.link_send(from, to, t, class);
        self.times.count_link(start);
        arrive
    }
    fn link_probe(&self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp {
        let start = Instant::now();
        let arrive = self.inner.link_probe(from, to, t, class);
        self.times.count_link(start);
        arrive
    }
    fn mem_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        self.times.dram_calls += 1;
        let inner = &mut *self.inner;
        timed(&mut self.times.dram_s, || inner.mem_read(socket, line, t))
    }
    fn replica_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        self.times.dram_calls += 1;
        let inner = &mut *self.inner;
        timed(&mut self.times.dram_s, || {
            inner.replica_read(socket, line, t)
        })
    }
    fn mem_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        self.times.dram_calls += 1;
        let inner = &mut *self.inner;
        timed(&mut self.times.dram_s, || inner.mem_write(socket, line, t))
    }
    fn replica_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        self.times.dram_calls += 1;
        let inner = &mut *self.inner;
        timed(&mut self.times.dram_s, || {
            inner.replica_write(socket, line, t)
        })
    }
}

/// The system runner's loop rebuilt from public functions, with a
/// timer around each call into a layer. It must reproduce
/// `System::run` bit for bit; [`TracedRep::signature`] is compared
/// against the untraced run's.
struct Traced {
    cfg: SystemConfig,
    engine: ProtocolEngine,
    fabric: SystemFabric,
    supply: TraceSupply,
    core_time: Vec<u64>,
    mshrs: Vec<Resource>,
    chaos_events: Vec<FaultEvent>,
    chaos_cursor: usize,
    sources: Vec<Box<dyn FaultSource>>,
    scrub_queue: EventQueue<(usize, usize)>,
    scrub: Option<ScrubConfig>,
    outage_degraded: bool,
    fault_degraded: bool,
    hists: LatencyHists,
    times: LayerTimes,
}

struct TracedRep {
    total_s: f64,
    times: LayerTimes,
    signature: SimSignature,
}

impl TracedRep {
    fn run(cfg: &SystemConfig, profile: &WorkloadProfile, seed: u64) -> TracedRep {
        let clock = Stopwatch::start();
        let mut sys = Traced::new(cfg.clone(), profile, seed);
        if cfg.warmup_per_thread > 0 {
            sys.run_ops(cfg.warmup_per_thread);
        }
        // Open the measured region (as `System::begin_region`).
        sys.hists = LatencyHists::new();
        let breakdown0 = sys.engine.stats().latency_breakdown;
        let traffic0 = sys.fabric.traffic().clone();
        let (cycles, _, mem_ops) = sys.run_ops(cfg.ops_per_thread);
        let total_s = clock.cpu_s();
        let engine = sys.engine.stats();
        TracedRep {
            total_s,
            signature: SimSignature {
                cycles,
                mem_ops,
                engine,
                recovery: sys.fabric.ledger(),
                latency: engine.latency_breakdown.delta_since(&breakdown0),
                tail: sys.hists.total.tail(),
                link_messages: sys
                    .fabric
                    .traffic()
                    .saturating_sub(&traffic0)
                    .total_messages(),
            },
            times: sys.times,
        }
    }
}

impl Traced {
    fn new(cfg: SystemConfig, profile: &WorkloadProfile, seed: u64) -> Traced {
        let mut engine = ProtocolEngine::new(cfg.engine_mode(), cfg.engine.clone());
        let mut fabric = SystemFabric::new(&cfg);
        if cfg.degraded {
            engine.set_degraded(true, 0, &mut fabric);
        }
        let supply = TraceSupply::new(profile, cfg.engine.cores, seed, cfg.pdes_workers);
        let cores = cfg.engine.cores;
        let mut chaos_events = Vec::new();
        let mut scrub = None;
        let mut scrub_queue = EventQueue::new();
        let mut sources = Vec::new();
        if let Some(chaos) = &cfg.chaos {
            chaos.validate();
            chaos_events = chaos.schedule.events().to_vec();
            scrub = chaos.scrub;
            if let Some(s) = &chaos.scrub {
                for socket in 0..cfg.nodes() {
                    for ch in 0..cfg.channels_per_socket() {
                        scrub_queue.push(s.interval, (socket, ch));
                    }
                }
            }
            if let Some(correlated) = &chaos.correlated {
                sources = build_sources(correlated, &fabric);
            }
        }
        Traced {
            mshrs: (0..cores).map(|_| Resource::new(cfg.mshrs)).collect(),
            cfg,
            engine,
            fabric,
            supply,
            core_time: vec![0; cores],
            chaos_events,
            chaos_cursor: 0,
            sources,
            scrub_queue,
            scrub,
            outage_degraded: false,
            fault_degraded: false,
            hists: LatencyHists::new(),
            times: LayerTimes::default(),
        }
    }

    /// Fault plants and heals, correlated-source polls, patrol-scrub
    /// slices and §V-E degraded-mode edges due at `now`.
    fn advance_chaos(&mut self, now: u64) {
        while self.chaos_cursor < self.chaos_events.len()
            && self.chaos_events[self.chaos_cursor].at <= now
        {
            let ev = self.chaos_events[self.chaos_cursor];
            self.fabric.apply_fault_event(&ev);
            self.chaos_cursor += 1;
        }
        if !self.sources.is_empty() {
            let mut emitted = Vec::new();
            for src in &mut self.sources {
                if src.next_poll() <= now {
                    let kind = src.kind();
                    emitted.extend(src.poll(now, &self.fabric).into_iter().map(|e| (kind, e)));
                }
            }
            for (kind, ev) in &emitted {
                self.fabric.apply_sourced_event(ev, Some(*kind));
            }
        }
        if let Some(scrub) = self.scrub {
            while self.scrub_queue.peek_time().is_some_and(|t| t <= now) {
                let (at, (s, ch)) = self.scrub_queue.pop().expect("peeked");
                let end = self.fabric.scrub_tick(s, ch, at, scrub.lines_per_slice);
                self.scrub_queue.push(end.max(at) + scrub.interval, (s, ch));
            }
        }
        let in_outage = self.fabric.link_outage_until(now).is_some();
        let mut changed = in_outage != self.outage_degraded;
        self.outage_degraded = in_outage;
        if self.fabric.take_pending_degrade() {
            changed |= !self.fault_degraded;
            self.fault_degraded = true;
        } else if self.fault_degraded && !self.fabric.has_degraded_lines() {
            self.fault_degraded = false;
            changed = true;
        }
        if changed {
            let want = self.cfg.degraded || self.outage_degraded || self.fault_degraded;
            if want != self.engine.is_degraded() {
                self.engine.set_degraded(want, now, &mut self.fabric);
            }
        }
    }

    /// `mem_ops_per_core` memory operations on every core, earliest
    /// core clock first; returns (wall cycles, ops, memory ops).
    fn run_ops(&mut self, mem_ops_per_core: u64) -> (u64, u64, u64) {
        let cores = self.core_time.len();
        let start_max = *self.core_time.iter().max().expect("cores");
        let mut heap: BinaryHeap<(Reverse<u64>, usize)> = (0..cores)
            .map(|c| (Reverse(self.core_time[c]), c))
            .collect();
        let mut remaining = vec![mem_ops_per_core; cores];
        let mut live = cores;
        let (mut ops, mut mems) = (0u64, 0u64);
        let chaos = self.cfg.chaos.is_some();
        while live > 0 {
            let (Reverse(now), core) = heap.pop().expect("live cores remain");
            if chaos {
                let t = Instant::now();
                self.advance_chaos(now);
                self.times.chaos_s += t.elapsed().as_secs_f64();
            }
            self.times.next_op_calls += 1;
            let supply = &mut self.supply;
            let op = timed(&mut self.times.next_op_s, || supply.next_op(core));
            ops += 1;
            let next = match op {
                Op::Compute(c) => now + c as u64,
                Op::Sync => self.mshrs[core].drained_at().max(now) + Op::SYNC_CYCLES as u64,
                Op::Mem { line, req } => {
                    mems += 1;
                    remaining[core] -= 1;
                    let r = match req {
                        MemReq::Read => ReqType::Read,
                        MemReq::Write => ReqType::Write,
                    };
                    self.times.access_calls += 1;
                    let t = Instant::now();
                    let outcome = {
                        let mut fabric = TimedFabric {
                            inner: &mut self.fabric,
                            times: &mut self.times,
                        };
                        self.engine.access(core, line, r, now, &mut fabric)
                    };
                    self.times.access_s += t.elapsed().as_secs_f64();
                    self.hists.record(&outcome.breakdown);
                    let done = outcome.complete_at;
                    self.mshrs[core].acquire(now, done - now);
                    (now + 1).max(self.mshrs[core].earliest_available())
                }
            };
            self.core_time[core] = next;
            if remaining[core] == 0 {
                live -= 1;
            } else {
                heap.push((Reverse(next), core));
            }
        }
        for (t, m) in self.core_time.iter_mut().zip(&self.mshrs) {
            *t = (*t).max(m.drained_at());
        }
        let end_max = *self.core_time.iter().max().expect("cores");
        (end_max - start_max, ops, mems)
    }
}
