//! The threadless epoch loop: [`EpochLoop`] owns the live `System`,
//! the [`EpochBatcher`], the line span client addresses fold into, the
//! per-tenant accounting and the [`Telemetry`] it keeps current. The
//! service's runner thread is a shell over it; batch callers drive it
//! directly, so their scenarios are deterministic and replayable.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dve::chaos::{ChaosConfig, ChaosParams};
use dve::config::SystemConfig;
use dve::system::{ClientOp, System};
use dve_dram::controller::EccProfile;
use dve_sim::latency::LatencyBreakdown;
use dve_sim::stats::LogHistogram;
use dve_workloads::tenant::TenantMix;
use dve_workloads::{catalog, TraceGenerator};

use crate::batcher::{EpochBatcher, SubmitOutcome, SubmittedOp};
use crate::config::ServiceConfig;
use crate::telemetry::{
    EdgeOccupancy, ServiceReport, Telemetry, TelemetrySnapshot, TenantTelemetry,
};

/// Per-op completion delivered to the submitting session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Per-tenant accounting: the published rows, less their latency
/// quantiles, which come from the histograms at each snapshot.
struct TenantAcct {
    mix: TenantMix,
    rows: Vec<TenantTelemetry>,
    lat: Vec<LogHistogram>,
}

impl TenantAcct {
    fn new(mix: TenantMix) -> TenantAcct {
        let rows: Vec<TenantTelemetry> = mix
            .tenants()
            .iter()
            .map(|p| TenantTelemetry {
                name: p.name.clone(),
                priority: p.priority,
                slo_p99_cycles: p.slo_p99_cycles,
                ..TenantTelemetry::default()
            })
            .collect();
        let lat = vec![LogHistogram::default(); rows.len()];
        TenantAcct { mix, rows, lat }
    }

    /// The row of `client`'s tenant.
    fn row(&mut self, client: u64) -> (&mut TenantTelemetry, &mut LogHistogram) {
        let t = self.mix.tenant_of_client(client);
        (&mut self.rows[t], &mut self.lat[t])
    }

    fn snapshot(&self) -> Vec<TenantTelemetry> {
        let with_tail = |(row, lat): (&TenantTelemetry, &LogHistogram)| {
            let (p50, p99, p999) = lat.tail();
            TenantTelemetry {
                p50,
                p99,
                p999,
                ..row.clone()
            }
        };
        self.rows.iter().zip(&self.lat).map(with_tail).collect()
    }
}

/// Admission, epochs and accounting over one live `System`, on the
/// caller's thread.
pub struct EpochLoop {
    system: System,
    batcher: EpochBatcher,
    line_span: u64,
    tenants: Option<TenantAcct>,
    telemetry: Arc<Telemetry>,
    closed: bool,
}

impl EpochLoop {
    /// Builds the live system `cfg` describes (workload layout,
    /// topology, MSHRs, and with `chaos_seed` a random fault schedule
    /// under detect-only ECC) and a loop over it.
    pub fn from_config(cfg: &ServiceConfig) -> io::Result<EpochLoop> {
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
        Ok(EpochLoop::new(
            System::new(sys_cfg, &profile, cfg.seed),
            span,
            cfg,
        ))
    }

    /// A loop over `system`, folding client lines into `line_span`
    /// lines, with `cfg`'s `queue_cap`, `epoch_ops` and tenant mix.
    ///
    /// # Panics
    ///
    /// Panics unless `queue_cap >= epoch_ops >= 1`.
    pub fn new(system: System, line_span: u64, cfg: &ServiceConfig) -> EpochLoop {
        EpochLoop {
            system,
            batcher: EpochBatcher::new(cfg.queue_cap, cfg.epoch_ops),
            line_span: line_span.max(1),
            tenants: cfg.tenants.clone().map(TenantAcct::new),
            telemetry: Arc::new(Telemetry::new()),
            closed: false,
        }
    }

    /// The telemetry this loop keeps current: counters on every
    /// submit and epoch, a snapshot after every epoch.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The live system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Forces §V-E degraded mode on or off on the live system.
    pub(crate) fn force_degraded(&mut self, on: bool) {
        self.system.set_forced_degraded(on);
    }

    /// Offers one op for admission, stamped with its tenant's shed
    /// priority. Returns the shed completion admission owes, if any:
    /// the op's own when it is refused (the queue is full, or the loop
    /// is closed for a drain), or the evicted victim's when
    /// the op displaced lower-priority pending work.
    pub fn submit(&mut self, mut op: SubmittedOp) -> Option<Completion> {
        let t = &self.telemetry;
        t.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(a) = &self.tenants {
            op.priority = a.mix.priority_of(a.mix.tenant_of_client(op.client));
        }
        let outcome = if self.closed {
            SubmitOutcome::Shed
        } else {
            self.batcher.submit(op)
        };
        let shed = match outcome {
            SubmitOutcome::Admitted => {
                t.admitted.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            SubmitOutcome::Shed => op,
            // The incoming op took the victim's admitted slot: net
            // admitted unchanged, one more shed, charged to the
            // victim's tenant.
            SubmitOutcome::AdmittedEvicting(victim) => victim,
        };
        t.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(a) = &mut self.tenants {
            a.row(shed.client).0.shed += 1;
        }
        Some(Completion {
            client: shed.client,
            seq: shed.seq,
            shed: true,
            ..Completion::default()
        })
    }

    /// Refuses every later submission (as shed) so a drain ends.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Whether `close` has been called.
    pub(crate) fn closed(&self) -> bool {
        self.closed
    }

    /// Admitted ops waiting for an epoch.
    pub fn pending(&self) -> usize {
        self.batcher.pending_len()
    }

    /// Whether a full epoch is pending.
    pub(crate) fn epoch_ready(&self) -> bool {
        self.batcher.epoch_ready()
    }

    /// Cuts the next epoch (up to `epoch_ops` pending ops, in canonical
    /// order), runs it through [`System::run_batch`], accounts it, and
    /// publishes a snapshot. Returns one completion per executed op;
    /// empty when nothing is pending.
    ///
    /// [`System::run_batch`]: dve::system::System::run_batch
    pub fn run_epoch(&mut self) -> Vec<Completion> {
        let epoch = self.batcher.take_epoch();
        if epoch.is_empty() {
            return Vec::new();
        }
        let cores = self.system.cores() as u64;
        let client_ops: Vec<ClientOp> = epoch
            .iter()
            .map(|op| ClientOp {
                core: (op.client % cores) as usize,
                // With a tenant mix, each tenant folds into its own
                // disjoint stripe of the span; otherwise the whole span
                // is shared.
                line: match &self.tenants {
                    Some(a) => {
                        a.mix
                            .fold_line(a.mix.tenant_of_client(op.client), op.line, self.line_span)
                    }
                    None => op.line % self.line_span,
                },
                req: op.req,
            })
            .collect();
        let outcomes = self.system.run_batch(&client_ops);
        let done: Vec<Completion> = epoch
            .iter()
            .zip(outcomes)
            .map(|(op, out)| {
                if let Some(a) = &mut self.tenants {
                    let (row, lat) = a.row(op.client);
                    row.completed += 1;
                    row.recovery_cycles += out.breakdown.recovery;
                    row.detected_reads += out.detected_reads;
                    row.machine_checks += out.machine_checks;
                    lat.record(out.complete_at - out.issued_at);
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
        let t = &self.telemetry;
        t.completed.fetch_add(done.len() as u64, Ordering::Relaxed);
        t.epochs.fetch_add(1, Ordering::Relaxed);
        self.publish();
        done
    }

    /// Ends the loop: publishes the final snapshot and returns the
    /// report built from it.
    pub fn finish(self) -> ServiceReport {
        self.publish();
        self.telemetry.report()
    }

    fn publish(&self) {
        let system = &self.system;
        let engine = system.engine_stats();
        let ledger = system.recovery_ledger();
        let link = system.fabric().link_table();
        let nodes = system.config().nodes();
        let edge_occupancy = (0..nodes)
            .flat_map(|from| (0..nodes).map(move |to| (from, to)))
            .filter(|&(from, to)| from != to)
            .map(|(from, to)| {
                let c = link.edge_counts(from, to);
                EdgeOccupancy {
                    from,
                    to,
                    messages: c.messages,
                    busy_cycles: c.busy_cycles,
                }
            })
            .collect();
        self.telemetry.publish(TelemetrySnapshot {
            hists: system.latency_hists().clone(),
            engine_latency: engine.latency_breakdown,
            cycles: system.now(),
            degraded_transitions: engine.degraded_transitions,
            recovery_consistent: ledger.consistent(),
            detected_reads: ledger.detected_reads,
            machine_checks: ledger.machine_checks,
            node_replica_entries: system.node_replica_entries(),
            edge_occupancy,
            tenants: self
                .tenants
                .as_ref()
                .map(TenantAcct::snapshot)
                .unwrap_or_default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve::chaos::RecoveryLedger;
    use dve_sim::rng::SplitMix64;
    use dve_workloads::op::MemReq;

    /// Client `c` belongs to tenant `c % 3`: gold, silver, bronze.
    const MIX: &str = "tenants=gold:2:10000000,silver:1:10000000,bronze:0:10000000";

    fn op(client: u64, seq: u64) -> SubmittedOp {
        SubmittedOp {
            client,
            seq,
            line: seq,
            req: MemReq::Read,
            priority: 0,
        }
    }

    /// Twelve bursts from twelve clients (four per tenant), one epoch
    /// after each, then a drain. Most bursts of 96 ops triple a 32-op
    /// queue; every fourth one (16 ops) fits it. Returns every answer
    /// (shed ones included), the report and the ledger.
    fn overload(cfg: &str) -> (Vec<Completion>, ServiceReport, RecoveryLedger) {
        let cfg = format!("{MIX} queue_cap=32 epoch_ops=32 {cfg}");
        let mut epochs = EpochLoop::from_config(&cfg.parse().unwrap()).unwrap();
        let mut rng = SplitMix64::new(0x7E4A);
        let mut answers = Vec::new();
        let mut seq = 0;
        for b in 0..12 {
            for i in 0..if b % 4 == 3 { 16 } else { 96 } {
                let req = if rng.chance(0.7) {
                    MemReq::Read
                } else {
                    MemReq::Write
                };
                let line = rng.next_below(1 << 12);
                answers.extend(epochs.submit(SubmittedOp {
                    line,
                    req,
                    ..op(i % 12, seq)
                }));
                seq += 1;
            }
            answers.extend(epochs.run_epoch());
        }
        while epochs.pending() > 0 {
            answers.extend(epochs.run_epoch());
        }
        let ledger = epochs.system().recovery_ledger();
        (answers, epochs.finish(), ledger)
    }

    #[test]
    fn an_evicted_op_is_shed_to_its_own_tenant() {
        let mut epochs =
            EpochLoop::from_config(&format!("{MIX} queue_cap=2 epoch_ops=2").parse().unwrap())
                .unwrap();
        assert_eq!(epochs.submit(op(2, 0)), None);
        assert_eq!(epochs.submit(op(5, 1)), None);
        // Full of bronze: a gold op evicts the latest bronze op, whose
        // client is answered shed.
        let evicted = epochs
            .submit(op(0, 2))
            .expect("eviction answers the victim");
        assert_eq!((evicted.client, evicted.seq, evicted.shed), (5, 1, true));
        // A bronze op against a queue of peers and gold is refused.
        assert_eq!(epochs.submit(op(8, 3)).map(|c| c.seq), Some(3));
        let done = epochs.run_epoch();
        assert_eq!(done.iter().map(|c| c.seq).collect::<Vec<_>>(), [2, 0]);
        // Once closed, even gold is refused.
        epochs.close();
        assert_eq!(epochs.submit(op(3, 4)).map(|c| c.client), Some(3));
        let report = epochs.finish();
        let shed: Vec<u64> = report.tenants.iter().map(|t| t.shed).collect();
        assert_eq!(shed, [1, 0, 2], "gold, silver, bronze");
        assert_eq!((report.submitted, report.admitted, report.shed), (5, 2, 3));
        assert!(report.conserves(), "{report:?}");
    }

    #[test]
    fn overload_sheds_land_on_the_answered_tenants() {
        let (answers, report, _) = overload("");
        assert!(report.conserves(), "{report:?}");
        // Every op is answered exactly once.
        let mut seqs: Vec<u64> = answers.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..9 * 96 + 3 * 16).collect::<Vec<u64>>());
        // Each tenant's shed count is exactly the shed answers its
        // clients received, evicted ops included.
        for (t, row) in report.tenants.iter().enumerate() {
            let answered = answers
                .iter()
                .filter(|c| c.shed && c.client % 3 == t as u64)
                .count() as u64;
            assert_eq!(row.shed, answered, "{row:?}");
        }
        let (gold, bronze) = (&report.tenants[0], &report.tenants[2]);
        assert_eq!(gold.shed, 0, "gold outranks every pending op");
        assert!(bronze.shed > 0 && bronze.completed > 0, "{bronze:?}");
    }

    #[test]
    fn tenant_rows_and_ledger_replay_bit_identically() {
        let cfg = "chaos_seed=11 scheme=dve-deny";
        let (answers, report, ledger) = overload(cfg);
        let (again, replay, replay_ledger) = overload(cfg);
        assert_eq!(answers, again);
        assert_eq!(report.tenants, replay.tenants);
        assert_eq!(ledger, replay_ledger);
        assert!(ledger.consistent() && report.conserves(), "{report:?}");
    }
}
