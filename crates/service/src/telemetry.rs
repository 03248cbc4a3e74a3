//! Live service telemetry: lock-free counters for the hot path, a
//! mutex-guarded snapshot for the slow (per-epoch) path, and the
//! plaintext renderings served at `GET /metrics` and `GET /health`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dve_sim::latency::{Component, LatencyBreakdown, LatencyHists};

/// Final accounting returned by [`Service::shutdown`] and
/// [`EpochLoop::finish`], built from the last published snapshot and
/// the counters.
///
/// [`Service::shutdown`]: crate::Service::shutdown
/// [`EpochLoop::finish`]: crate::EpochLoop::finish
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
    /// The epoch runner died; the figures above are the last ones it
    /// published, and admitted ops may never have completed.
    pub failed: bool,
}

impl ServiceReport {
    /// The service-level conservation gate: the runner survived, every
    /// admitted op completed, the admission ledger balances, the per-op
    /// histograms sum to the engine's own cycle totals, and the
    /// per-tenant rows sum back to the global counters (the same check
    /// as the `dve_tenant_conserves` gauge).
    pub fn conserves(&self) -> bool {
        !self.failed
            && self.submitted == self.admitted + self.shed
            && self.completed == self.admitted
            && (self.hists.count() == 0 || self.hists.conserves(&self.engine_latency))
            && tenants_conserve(
                &self.tenants,
                self.completed,
                self.shed,
                self.machine_checks,
                self.detected_reads,
            )
    }
}

/// Whether per-tenant rows sum back to the global counters: every
/// completed and every shed op belongs to exactly one tenant, and the
/// detections and machine checks attributed to tenants never exceed
/// the ledger's (scrub-driven detections between ops are deliberately
/// unattributed). True without a tenant mix.
pub(crate) fn tenants_conserve(
    tenants: &[TenantTelemetry],
    completed: u64,
    shed: u64,
    machine_checks: u64,
    detected_reads: u64,
) -> bool {
    let sum = |get: fn(&TenantTelemetry) -> u64| tenants.iter().map(get).sum::<u64>();
    tenants.is_empty()
        || (sum(|t| t.completed) == completed
            && sum(|t| t.shed) == shed
            && sum(|t| t.machine_checks) <= machine_checks
            && sum(|t| t.detected_reads) <= detected_reads)
}

/// Histogram / engine state published by the epoch runner after each
/// epoch. Scrapes read a coherent copy under the mutex; the op hot
/// path never touches it.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Cumulative per-op latency histograms since service start.
    pub hists: LatencyHists,
    /// Engine-side cumulative latency totals (the conservation
    /// reference: `hists` must sum to exactly this).
    pub engine_latency: LatencyBreakdown,
    /// Latest system clock (max per-core time), in core cycles.
    pub cycles: u64,
    /// Engine degraded-mode transitions (§V-E enter/leave events).
    pub degraded_transitions: u64,
    /// Recovery ledger self-consistency (see
    /// `dve::chaos::RecoveryLedger::consistent`).
    pub recovery_consistent: bool,
    /// Demand reads that took the §V-B2 recovery path.
    pub detected_reads: u64,
    /// Uncorrectable demand reads raised as machine checks.
    pub machine_checks: u64,
    /// Live replica-directory entries per node (index = node id).
    pub node_replica_entries: Vec<u64>,
    /// Per-directed-edge inter-node link occupancy.
    pub edge_occupancy: Vec<EdgeOccupancy>,
    /// Per-tenant accounting; empty when the service runs without a
    /// tenant mix.
    pub tenants: Vec<TenantTelemetry>,
}

/// One tenant's slice of the service accounting, published with each
/// snapshot when a tenant mix is configured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantTelemetry {
    /// Tenant name (metrics label).
    pub name: String,
    /// Shed priority (higher survives overload longer).
    pub priority: u8,
    /// Contracted p99 latency budget, simulated cycles.
    pub slo_p99_cycles: u64,
    /// Completions delivered for this tenant's admitted ops.
    pub completed: u64,
    /// This tenant's ops refused or evicted at admission.
    pub shed: u64,
    /// Machine checks raised by this tenant's demand reads.
    pub machine_checks: u64,
    /// This tenant's demand reads that took the recovery detour.
    pub detected_reads: u64,
    /// Recovery-detour cycles absorbed by this tenant's ops.
    pub recovery_cycles: u64,
    /// Measured end-to-end latency quantiles (simulated cycles).
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
}

impl TenantTelemetry {
    /// Whether the measured p99 is within the contracted budget.
    pub fn slo_ok(&self) -> bool {
        self.p99 <= self.slo_p99_cycles
    }
}

/// Occupancy of one directed inter-node link edge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeOccupancy {
    /// Source node id.
    pub from: usize,
    /// Destination node id.
    pub to: usize,
    /// Messages sent over the edge.
    pub messages: u64,
    /// Cycles the edge spent busy serving transfers.
    pub busy_cycles: u64,
}

/// Shared between sessions, the epoch runner, and HTTP scrapes.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Ops offered by sessions (admitted + shed).
    pub submitted: AtomicU64,
    /// Ops accepted into the epoch queue.
    pub admitted: AtomicU64,
    /// Ops refused at admission (queue full).
    pub shed: AtomicU64,
    /// Admitted ops whose completion has been delivered.
    pub completed: AtomicU64,
    /// Epochs executed.
    pub epochs: AtomicU64,
    /// Live session count.
    pub sessions: AtomicU64,
    /// Service accepts work (false once draining).
    accepting: AtomicBool,
    /// The epoch runner panicked.
    failed: AtomicBool,
    snapshot: Mutex<TelemetrySnapshot>,
}

impl Telemetry {
    /// Accepting, with an empty boot snapshot (whose empty recovery
    /// ledger is consistent).
    pub fn new() -> Telemetry {
        let t = Telemetry::default();
        t.accepting.store(true, Ordering::Release);
        t.publish(TelemetrySnapshot {
            recovery_consistent: true,
            ..TelemetrySnapshot::default()
        });
        t
    }

    /// Marks the service as draining; `/health` flips to `draining`.
    pub fn stop_accepting(&self) {
        self.accepting.store(false, Ordering::Release);
    }

    /// Whether the service is accepting new work.
    pub fn accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Marks the epoch runner dead; `/health` flips to `failed`.
    pub(crate) fn fail(&self) {
        self.failed.store(true, Ordering::Release);
    }

    /// Whether the epoch runner died.
    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// The report of the last published snapshot and the counters.
    pub(crate) fn report(&self) -> ServiceReport {
        let snap = self.snapshot();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServiceReport {
            cycles: snap.cycles,
            submitted: count(&self.submitted),
            admitted: count(&self.admitted),
            shed: count(&self.shed),
            completed: count(&self.completed),
            epochs: count(&self.epochs),
            hists: snap.hists,
            engine_latency: snap.engine_latency,
            degraded_transitions: snap.degraded_transitions,
            recovery_consistent: snap.recovery_consistent,
            detected_reads: snap.detected_reads,
            machine_checks: snap.machine_checks,
            tenants: snap.tenants,
            failed: self.failed(),
        }
    }

    /// Publishes a fresh snapshot (epoch runner, once per epoch).
    pub fn publish(&self, snap: TelemetrySnapshot) {
        *self.snapshot.lock().unwrap() = snap;
    }

    /// A coherent copy of the last published snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot.lock().unwrap().clone()
    }

    /// The `/health` body: one line, `ok` while accepting (plus a
    /// conservation check against the last snapshot), `draining`
    /// during shutdown, `failed` once the epoch runner has died.
    pub fn render_health(&self) -> String {
        let snap = self.snapshot();
        let conserves = snap.hists.count() == 0 || snap.hists.conserves(&snap.engine_latency);
        let state = match (self.accepting(), conserves && snap.recovery_consistent) {
            _ if self.failed() => "failed",
            (true, true) => "ok",
            (true, false) => "degraded-accounting",
            (false, _) => "draining",
        };
        format!(
            "{state} sessions={} completed={}\n",
            self.sessions.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
        )
    }

    /// The `/metrics` body: Prometheus-style plaintext. Counters come
    /// from the atomics (exact, racy-fresh); latency quantiles come
    /// from the last published snapshot (coherent, epoch-fresh).
    pub fn render_metrics(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, v: u64| {
            out.push_str(&format!("# TYPE dve_{name} counter\ndve_{name} {v}\n"));
        };
        counter("ops_submitted", self.submitted.load(Ordering::Relaxed));
        counter("ops_admitted", self.admitted.load(Ordering::Relaxed));
        counter("ops_shed", self.shed.load(Ordering::Relaxed));
        counter("ops_completed", self.completed.load(Ordering::Relaxed));
        counter("epochs", self.epochs.load(Ordering::Relaxed));
        counter("sessions", self.sessions.load(Ordering::Relaxed));
        counter("cycles", snap.cycles);
        counter("degraded_transitions", snap.degraded_transitions);
        counter("recovery_detected_reads", snap.detected_reads);
        counter("machine_checks", snap.machine_checks);

        if !snap.node_replica_entries.is_empty() {
            out.push_str("# TYPE dve_node_replica_entries gauge\n");
            for (node, v) in snap.node_replica_entries.iter().enumerate() {
                out.push_str(&format!(
                    "dve_node_replica_entries{{node=\"{node}\"}} {v}\n"
                ));
            }
        }
        if !snap.edge_occupancy.is_empty() {
            out.push_str("# TYPE dve_link_messages counter\n");
            for e in &snap.edge_occupancy {
                out.push_str(&format!(
                    "dve_link_messages{{from=\"{}\",to=\"{}\"}} {}\n",
                    e.from, e.to, e.messages
                ));
            }
            out.push_str("# TYPE dve_link_busy_cycles counter\n");
            for e in &snap.edge_occupancy {
                out.push_str(&format!(
                    "dve_link_busy_cycles{{from=\"{}\",to=\"{}\"}} {}\n",
                    e.from, e.to, e.busy_cycles
                ));
            }
        }

        if !snap.tenants.is_empty() {
            let tenants = &snap.tenants;
            let series =
                |out: &mut String, name: &str, kind: &str, get: fn(&TenantTelemetry) -> u64| {
                    out.push_str(&format!("# TYPE dve_tenant_{name} {kind}\n"));
                    for t in tenants {
                        out.push_str(&format!(
                            "dve_tenant_{name}{{tenant=\"{}\"}} {}\n",
                            t.name,
                            get(t)
                        ));
                    }
                };
            series(&mut out, "ops_completed", "counter", |t| t.completed);
            series(&mut out, "ops_shed", "counter", |t| t.shed);
            series(&mut out, "machine_checks", "counter", |t| t.machine_checks);
            series(&mut out, "detected_reads", "counter", |t| t.detected_reads);
            series(&mut out, "recovery_cycles", "counter", |t| {
                t.recovery_cycles
            });
            out.push_str("# TYPE dve_tenant_latency_cycles summary\n");
            for t in tenants {
                for (q, v) in [("0.5", t.p50), ("0.99", t.p99), ("0.999", t.p999)] {
                    out.push_str(&format!(
                        "dve_tenant_latency_cycles{{tenant=\"{}\",quantile=\"{q}\"}} {v}\n",
                        t.name
                    ));
                }
            }
            series(&mut out, "slo_budget_cycles", "gauge", |t| t.slo_p99_cycles);
            series(&mut out, "slo_ok", "gauge", |t| t.slo_ok() as u64);
            let tenant_conserves = tenants_conserve(
                tenants,
                self.completed.load(Ordering::Relaxed),
                self.shed.load(Ordering::Relaxed),
                snap.machine_checks,
                snap.detected_reads,
            );
            out.push_str(&format!(
                "# TYPE dve_tenant_conserves gauge\ndve_tenant_conserves {}\n",
                tenant_conserves as u8
            ));
        }

        out.push_str("# TYPE dve_latency_cycles summary\n");
        let mut quantiles = |label: &str, (p50, p99, p999): (u64, u64, u64), sum: u128, n: u64| {
            for (q, v) in [("0.5", p50), ("0.99", p99), ("0.999", p999)] {
                out.push_str(&format!(
                    "dve_latency_cycles{{component=\"{label}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "dve_latency_cycles_sum{{component=\"{label}\"}} {sum}\n\
                 dve_latency_cycles_count{{component=\"{label}\"}} {n}\n"
            ));
        };
        quantiles(
            "total",
            snap.hists.total.tail(),
            snap.hists.total.sum(),
            snap.hists.total.count(),
        );
        for c in Component::ALL {
            let h = snap.hists.component(c);
            quantiles(c.label(), h.tail(), h.sum(), h.count());
        }

        let conserves = snap.hists.count() == 0 || snap.hists.conserves(&snap.engine_latency);
        out.push_str(&format!(
            "# TYPE dve_latency_conserves gauge\ndve_latency_conserves {}\n\
             # TYPE dve_recovery_consistent gauge\ndve_recovery_consistent {}\n",
            conserves as u8, snap.recovery_consistent as u8
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_tracks_accepting_state() {
        let t = Telemetry::new();
        let snap = TelemetrySnapshot {
            recovery_consistent: true,
            ..TelemetrySnapshot::default()
        };
        t.publish(snap);
        assert!(t.render_health().starts_with("ok"));
        t.stop_accepting();
        assert!(t.render_health().starts_with("draining"));
        t.fail();
        assert!(t.render_health().starts_with("failed"));
    }

    #[test]
    fn metrics_render_counters_and_quantiles() {
        let t = Telemetry::new();
        t.submitted.store(10, Ordering::Relaxed);
        t.completed.store(9, Ordering::Relaxed);
        let mut snap = TelemetrySnapshot {
            recovery_consistent: true,
            ..TelemetrySnapshot::default()
        };
        let mut b = LatencyBreakdown::default();
        b.add(Component::Mesh, 7);
        b.add(Component::BankService, 35);
        snap.hists.record(&b);
        snap.engine_latency = b;
        t.publish(snap);
        let m = t.render_metrics();
        assert!(m.contains("dve_ops_submitted 10"), "{m}");
        assert!(
            m.contains("component=\"total\",quantile=\"0.99\"} 42"),
            "{m}"
        );
        assert!(m.contains("dve_latency_conserves 1"), "{m}");
        // A mismatched engine aggregate must flip the conservation gauge.
        let mut bad = t.snapshot();
        bad.engine_latency.add(Component::Link, 1);
        t.publish(bad);
        assert!(t.render_metrics().contains("dve_latency_conserves 0"));
    }

    #[test]
    fn tenant_gauges_render_and_sum_conserve() {
        let t = Telemetry::new();
        t.completed.store(30, Ordering::Relaxed);
        t.shed.store(5, Ordering::Relaxed);
        let snap = TelemetrySnapshot {
            recovery_consistent: true,
            machine_checks: 2,
            detected_reads: 9,
            tenants: vec![
                TenantTelemetry {
                    name: "gold".to_string(),
                    priority: 2,
                    slo_p99_cycles: 100,
                    completed: 20,
                    machine_checks: 1,
                    detected_reads: 4,
                    recovery_cycles: 10,
                    p50: 10,
                    p99: 90,
                    p999: 95,
                    ..TenantTelemetry::default()
                },
                TenantTelemetry {
                    name: "bronze".to_string(),
                    slo_p99_cycles: 50,
                    completed: 10,
                    shed: 5,
                    machine_checks: 1,
                    detected_reads: 5,
                    p50: 10,
                    p99: 80,
                    p999: 95,
                    ..TenantTelemetry::default()
                },
            ],
            ..TelemetrySnapshot::default()
        };
        t.publish(snap);
        let m = t.render_metrics();
        assert!(
            m.contains("dve_tenant_ops_completed{tenant=\"gold\"} 20"),
            "{m}"
        );
        assert!(
            m.contains("dve_tenant_ops_shed{tenant=\"bronze\"} 5"),
            "{m}"
        );
        assert!(
            m.contains("dve_tenant_latency_cycles{tenant=\"gold\",quantile=\"0.99\"} 90"),
            "{m}"
        );
        assert!(m.contains("dve_tenant_slo_ok{tenant=\"gold\"} 1"), "{m}");
        assert!(m.contains("dve_tenant_slo_ok{tenant=\"bronze\"} 0"), "{m}");
        assert!(m.contains("dve_tenant_conserves 1"), "{m}");
        // Losing one tenant's completed op must break sum conservation.
        let mut bad = t.snapshot();
        bad.tenants[0].completed -= 1;
        t.publish(bad);
        assert!(t.render_metrics().contains("dve_tenant_conserves 0"));
    }
}
