//! Chaos harness: in-band fault injection against the running timed
//! system (§V-B2 exercised live, not as out-of-band unit fixtures).
//!
//! ```text
//! cargo run -p dve-bench --bin chaos --release
//! ```
//!
//! Four phases, all gating the exit code (that an armed but inert
//! chaos layer reproduces the pinned goldens is pinned by
//! `crates/core/tests/goldens.rs`, not here):
//!
//! 1. **Directed transitions** — seeded schedules drive the full
//!    `Clean → CorrectedTransient → CorrectedDegraded → MachineCheck`
//!    ladder in-run: a transient fault is repaired in place, a hard
//!    fault degrades the copy and flips the engine into §V-E degraded
//!    state (lifted again by the scheduled heal), and a dual-copy
//!    fault machine-checks without wedging the run.
//! 2. **Randomized matrix** — seed-derived schedules plus a link
//!    outage window and paced patrol scrub, across schemes × MSHR
//!    depths × seeds. Every run checks: all scheduled work completes,
//!    the [`RecoveryLedger`] partition
//!    invariants hold, the latency breakdown conserves end-to-end
//!    (zero warm-up runs pin it to the engine's per-class sums), and
//!    the run reproduces bit-for-bit when repeated.
//! 3. **Hammer severity ladder** — the workload-coupled row-hammer
//!    source alone, at escalating aggression, must walk
//!    `Clean → Corrected → Degraded → MachineCheck` monotonically:
//!    inert never plants, a transient source repairs in place, a hard
//!    source degrades the hammered copy, and a dual-copy source
//!    machine-checks — all without wedging the run.
//! 4. **Per-tenant SLO** — the standard gold/silver/bronze mix under
//!    deliberate admission overload and a degraded (faulty) system:
//!    priority shedding must land on bronze while gold sheds nothing
//!    and holds its p99 inside the contracted budget, with per-tenant
//!    counters conserving against the service's own epoch loop and
//!    reproducing bit-for-bit on replay.
//!
//! The measured tables (fault-rate × scheme latency, hammer ladder,
//! per-tenant SLO) are written to `results/chaos_report.txt` (the
//! EXPERIMENTS.md chaos sections).

use dve::chaos::{
    ChaosConfig, ChaosParams, CorrelatedConfig, FaultAction, FaultEvent, FaultSchedule, FaultSite,
    HammerParams, RecoveryLedger,
};
use dve::config::{Scheme, SystemConfig};
use dve::fabric_impl::SystemFabric;
use dve::system::{RunResult, System};
use dve_bench::gate::{no_args, write_report, Gate, HarnessError};
use dve_bench::profile;
use dve_coherence::fabric::Fabric;
use dve_dram::controller::EccProfile;
use dve_service::{EpochLoop, ServiceConfig, ServiceReport, SubmittedOp};
use dve_sim::latency::{Component, Stamp};
use dve_sim::rng::SplitMix64;
use dve_workloads::op::MemReq;
use dve_workloads::tenant::TenantMix;
use dve_workloads::{TraceGenerator, WorkloadProfile};
use std::fmt::Write as _;
use std::process::ExitCode;

fn directed_cfg(events: Vec<FaultEvent>) -> SystemConfig {
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.ops_per_thread = 500;
    cfg.warmup_per_thread = 0; // pins conservation to the engine sums
    cfg.ecc = EccProfile::tsd(); // detect-only: force the replica detour
    cfg.chaos = Some(ChaosConfig {
        schedule: FaultSchedule::new(events),
        ..ChaosConfig::inert()
    });
    cfg
}

fn directed_run(p: &WorkloadProfile, events: Vec<FaultEvent>) -> RunResult {
    System::new(directed_cfg(events), p, 42).run()
}

fn conserves(r: &RunResult) -> bool {
    r.latency.total() == r.engine.latency_sum.iter().sum::<u64>()
}

/// Phase 1: seeded schedules drive every recovery transition in-run.
fn directed_transitions(gate: &mut Gate, p: &WorkloadProfile) {
    println!("-- directed transitions (dve-deny + TSD detect-only ECC) --");

    // Transient: the §V-B2 repair write clears it — CorrectedTransient.
    let r = directed_run(
        p,
        vec![FaultEvent {
            at: 1_000,
            socket: 0,
            channel: 0,
            action: FaultAction::Plant {
                site: FaultSite::Controller,
                transient: true,
            },
        }],
    );
    gate.check(
        r.recovery.repaired == 1 && r.recovery.degraded == 0,
        format!(
            "transient fault repaired in place (repaired={}, degraded={})",
            r.recovery.repaired, r.recovery.degraded
        ),
    );
    gate.check(
        r.latency.recovery > 0 && conserves(&r),
        format!(
            "detour cost {} recovery cycles and the breakdown conserves",
            r.latency.recovery
        ),
    );
    gate.check(
        r.engine.degraded_transitions == 0,
        "repaired transient never degrades the engine",
    );

    // Hard fault + scheduled heal: CorrectedDegraded, §V-E entered and
    // left in-run.
    let r = directed_run(
        p,
        vec![
            FaultEvent {
                at: 1_000,
                socket: 0,
                channel: 0,
                action: FaultAction::Plant {
                    site: FaultSite::Controller,
                    transient: false,
                },
            },
            FaultEvent {
                at: 25_000,
                socket: 0,
                channel: 0,
                action: FaultAction::Heal {
                    site: FaultSite::Controller,
                },
            },
        ],
    );
    gate.check(
        r.recovery.degraded > 0,
        format!(
            "hard fault degrades copies in-run (degraded={})",
            r.recovery.degraded
        ),
    );
    // The workload's address stream rarely revisits a line inside the
    // measured window, so demonstrate the redirect path (a degraded
    // line's re-read is served by the survivor without re-degrading)
    // on the same timed fabric: one directed hard plant, two reads.
    {
        let mut fabric = SystemFabric::new(&directed_cfg(Vec::new()));
        let line = 7;
        let home = fabric.placement().home_of(line);
        fabric.apply_fault_event(&FaultEvent {
            at: 0,
            socket: home,
            channel: 0,
            action: FaultAction::Plant {
                site: FaultSite::Line { line },
                transient: false,
            },
        });
        let t = fabric.mem_read(home, line, Stamp::start(0));
        let first = fabric.ledger();
        fabric.mem_read(home, line, t);
        let second = fabric.ledger();
        gate.check(
            first.corrected == 1
                && first.degraded == 1
                && second.degraded == 1
                && second.clean_redirects == 1
                && second.machine_checks == 0
                && fabric.degraded_line_count() == 1
                && second.consistent(),
            format!(
                "degraded line re-read redirects cleanly (corrected={}, degraded={} then {}, \
                 clean_redirects={}, machine_checks={}, consistent={}, degraded lines={})",
                first.corrected,
                first.degraded,
                second.degraded,
                second.clean_redirects,
                second.machine_checks,
                second.consistent(),
                fabric.degraded_line_count()
            ),
        );
    }
    gate.check(
        r.engine.degraded_transitions >= 2,
        format!(
            "engine entered and left §V-E degraded state ({} transitions)",
            r.engine.degraded_transitions
        ),
    );
    gate.check(
        r.recovery.faults_healed == 1 && r.recovery.consistent() && conserves(&r),
        format!("heal applied; ledger consistent: {:?}", r.recovery),
    );

    // Both copies dead: MachineCheck, and the run still completes.
    let r = directed_run(
        p,
        vec![
            FaultEvent {
                at: 1_000,
                socket: 0,
                channel: 0,
                action: FaultAction::Plant {
                    site: FaultSite::Controller,
                    transient: false,
                },
            },
            FaultEvent {
                at: 1_000,
                socket: 1,
                channel: 1,
                action: FaultAction::Plant {
                    site: FaultSite::Controller,
                    transient: false,
                },
            },
        ],
    );
    gate.check(
        r.recovery.machine_checks > 0 && r.mem_ops == 500 * 16,
        format!(
            "dual-copy failure machine-checks ({}) without wedging the run",
            r.recovery.machine_checks
        ),
    );
    gate.check(
        r.recovery.consistent() && conserves(&r),
        "ledger and breakdown stay consistent through machine checks",
    );
}

/// One randomized-matrix cell.
fn chaos_cell(p: &WorkloadProfile, scheme: Scheme, mshrs: usize, seed: u64, ops: u64) -> RunResult {
    let params = ChaosParams {
        faults: 5,
        horizon: 60_000,
        transient_fraction: 0.5,
        heal_after: Some(30_000),
        channels_per_socket: 2,
        line_span: 1 << 14,
        nodes: 2,
    };
    let mut chaos = ChaosConfig::random(seed, &params);
    chaos.link_outages = vec![(10_000, 18_000)];
    chaos.scrub = Some(dve::chaos::ScrubConfig {
        region_bytes: 1 << 16,
        lines_per_slice: 16,
        interval: 10_000,
    });
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.ops_per_thread = ops;
    cfg.warmup_per_thread = 0;
    cfg.mshrs = mshrs;
    cfg.ecc = EccProfile::tsd();
    cfg.chaos = Some(chaos);
    System::new(cfg, p, seed).run()
}

/// Phase 2: the randomized matrix, with the per-run invariant gate.
fn randomized_matrix(gate: &mut Gate, p: &WorkloadProfile) -> String {
    println!("-- randomized matrix: schedules + outage + paced scrub --");
    let ops: u64 = 500;
    let seeds: &[u64] = &[0xC0FFEE, 7];
    let mut table = String::from(
        "scheme      mshrs seed      cycles   planted detected corrected repaired degraded mce \
         scrubbed redirects rec_frac rec_p99\n",
    );
    for scheme in [Scheme::DveAllow, Scheme::DveDeny] {
        for &mshrs in &[1usize, 4] {
            for &seed in seeds {
                let r = chaos_cell(p, scheme, mshrs, seed, ops);
                let l = &r.recovery;
                let rec_frac = r.latency.fraction(Component::Recovery);
                let (_, rec_p99, _) = r.component_tail(Component::Recovery);
                writeln!(
                    table,
                    "{:<11} {:<5} {:<9} {:<8} {:<7} {:<8} {:<9} {:<8} {:<8} {:<3} {:<8} {:<9} {:.4}   {:<7}",
                    scheme.label(),
                    mshrs,
                    format!("{seed:#x}"),
                    r.cycles,
                    l.faults_planted,
                    l.detected_reads,
                    l.corrected,
                    l.repaired,
                    l.degraded,
                    l.machine_checks,
                    l.scrub_lines,
                    l.clean_redirects,
                    rec_frac,
                    rec_p99
                )
                .expect("write table row");
                let label = format!("{} mshrs={mshrs} seed={seed:#x}", scheme.label());
                gate.check(
                    r.mem_ops == ops * 16,
                    format!("{label}: all work completes"),
                );
                gate.check(l.consistent(), format!("{label}: ledger consistent {l:?}"));
                gate.check(conserves(&r), format!("{label}: breakdown conserves"));
                gate.check(
                    l.scrub_slices > 0,
                    format!("{label}: paced scrub ran ({} slices)", l.scrub_slices),
                );
                let again = chaos_cell(p, scheme, mshrs, seed, ops);
                gate.check(
                    again.cycles == r.cycles && again.recovery == r.recovery,
                    format!("{label}: bit-identical on replay"),
                );
            }
        }
    }
    table
}

/// Severity rung a run's ledger lands on: the worst outcome observed.
fn severity(l: &RecoveryLedger) -> usize {
    if l.machine_checks > 0 {
        3
    } else if l.degraded > 0 {
        2
    } else if l.repaired > 0 {
        1
    } else {
        0
    }
}

/// Phase 3: the row-hammer source alone, at escalating aggression,
/// walks the severity ladder monotonically.
fn hammer_ladder(gate: &mut Gate, p: &WorkloadProfile) -> String {
    println!("-- hammer severity ladder (dve-deny + TSD detect-only ECC) --");
    // Tuned to the measured regime: backprop at 500 ops/thread peaks
    // around 12–25 activations on its hottest row, so threshold 10
    // trips the monitor while `u64::MAX` never does.
    let rungs: &[(&str, HammerParams)] = &[
        ("clean", HammerParams::inert()),
        (
            "corrected",
            HammerParams {
                threshold: 10,
                transient: true,
                both_copies: false,
                poll_interval: 5_000,
            },
        ),
        (
            "degraded",
            HammerParams {
                threshold: 10,
                transient: false,
                both_copies: false,
                poll_interval: 5_000,
            },
        ),
        (
            "machine-check",
            HammerParams {
                threshold: 10,
                transient: false,
                both_copies: true,
                poll_interval: 5_000,
            },
        ),
    ];
    let mut table =
        String::from("rung          threshold plants repaired degraded mce cycles   rec_frac\n");
    for (rung, (name, hammer)) in rungs.iter().enumerate() {
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.ops_per_thread = 500;
        cfg.warmup_per_thread = 0;
        cfg.ecc = EccProfile::tsd();
        cfg.chaos = Some(ChaosConfig {
            correlated: Some(CorrelatedConfig {
                seed: 0xBADD,
                hammer: Some(*hammer),
                thermal: None,
                aging: None,
            }),
            ..ChaosConfig::inert()
        });
        let r = System::new(cfg, p, 42).run();
        let l = &r.recovery;
        writeln!(
            table,
            "{:<13} {:<9} {:<6} {:<8} {:<8} {:<3} {:<8} {:.4}",
            name,
            if hammer.threshold == u64::MAX {
                "off".to_string()
            } else {
                hammer.threshold.to_string()
            },
            l.hammer_plants,
            l.repaired,
            l.degraded,
            l.machine_checks,
            r.cycles,
            r.latency.fraction(Component::Recovery),
        )
        .expect("write ladder row");
        gate.check(
            r.mem_ops == 500 * 16 && l.consistent() && conserves(&r),
            format!("hammer {name}: run completes, ledger consistent, breakdown conserves"),
        );
        gate.check(
            (l.hammer_plants > 0) == (rung > 0),
            format!(
                "hammer {name}: source {} ({} plants)",
                if rung > 0 { "fires" } else { "stays silent" },
                l.hammer_plants
            ),
        );
        gate.check(
            severity(l) == rung,
            format!(
                "hammer {name}: lands on severity rung {rung} \
                 (repaired={} degraded={} mce={})",
                l.repaired, l.degraded, l.machine_checks
            ),
        );
    }
    table
}

/// Phase 4: the standard tenant mix under admission overload on a
/// degraded (hammered + scheduled-fault) system, driven through the
/// service's own [`EpochLoop`] — threadless, so the whole scenario is
/// deterministic and replayable.
fn tenant_slo_report(gate: &mut Gate, p: &WorkloadProfile) -> String {
    println!("-- per-tenant SLO: overload + degraded chaos, priority shedding --");
    const QUEUE_CAP: usize = 64;
    const BURSTS: usize = 40;
    const BURST_OPS: usize = 150;
    let service = ServiceConfig {
        queue_cap: QUEUE_CAP,
        epoch_ops: QUEUE_CAP,
        tenants: Some(TenantMix::standard()),
        ..ServiceConfig::default()
    };

    // One full scenario: the final report and the recovery ledger.
    let scenario = || -> (ServiceReport, RecoveryLedger) {
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.mshrs = 4;
        cfg.ecc = EccProfile::tsd();
        let span = TraceGenerator::new(p, cfg.engine.cores, 42).span_lines();
        // Degraded scenario: an unhealed hard controller fault takes
        // one copy set out of service for the whole run, and a
        // hard-flipping hammer source rides the tenants' own (hot)
        // access stream on top.
        cfg.chaos = Some(ChaosConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: 2_000,
                socket: 0,
                channel: 0,
                action: FaultAction::Plant {
                    site: FaultSite::Controller,
                    transient: false,
                },
            }]),
            correlated: Some(CorrelatedConfig {
                seed: 0x510,
                hammer: Some(HammerParams {
                    threshold: 12,
                    transient: false,
                    both_copies: false,
                    poll_interval: 5_000,
                }),
                thermal: None,
                aging: None,
            }),
            ..ChaosConfig::inert()
        });
        let mut epochs = EpochLoop::new(System::new(cfg, p, 42), span, &service);
        let mut rng = SplitMix64::new(0x51_0517);
        let mut seq = 0u64;

        // Most bursts more than double the admission queue, so the
        // batcher must shed; gold's share of a burst (BURST_OPS / n)
        // stays under QUEUE_CAP, so with priority eviction doing its
        // job gold never sheds. Every fourth burst fits the queue, so
        // even bronze completes work and reports a real latency tail.
        for b in 0..BURSTS {
            let burst = if b % 4 == 3 { QUEUE_CAP / 2 } else { BURST_OPS };
            for i in 0..burst {
                epochs.submit(SubmittedOp {
                    client: (i % 12) as u64,
                    seq,
                    // A deliberately hot range: each tenant's folded
                    // stripe concentrates on a handful of DRAM rows, so
                    // the workload-coupled hammer source actually trips.
                    line: rng.next_below(256),
                    req: if rng.chance(0.75) {
                        MemReq::Read
                    } else {
                        MemReq::Write
                    },
                    priority: 0,
                });
                seq += 1;
            }
            epochs.run_epoch();
        }
        while epochs.pending() > 0 {
            epochs.run_epoch();
        }
        let ledger = epochs.system().recovery_ledger();
        (epochs.finish(), ledger)
    };

    let (report, ledger) = scenario();
    let mut table = String::from(
        "tenant  prio p99_budget completed shed p50  p99   p999  slo_ok mce detected rec_cycles\n",
    );
    for t in &report.tenants {
        writeln!(
            table,
            "{:<7} {:<4} {:<10} {:<9} {:<4} {:<4} {:<5} {:<5} {:<6} {:<3} {:<8} {}",
            t.name,
            t.priority,
            t.slo_p99_cycles,
            t.completed,
            t.shed,
            t.p50,
            t.p99,
            t.p999,
            t.slo_ok(),
            t.machine_checks,
            t.detected_reads,
            t.recovery_cycles,
        )
        .expect("write tenant row");
    }
    let gold = &report.tenants[0];
    let bronze = &report.tenants[report.tenants.len() - 1];
    gate.check(
        ledger.faults_planted > 0 && ledger.detected_reads > 0,
        format!(
            "scenario is degraded (planted={}, detected={})",
            ledger.faults_planted, ledger.detected_reads
        ),
    );
    gate.check(
        ledger.consistent(),
        format!("recovery ledger consistent: {ledger:?}"),
    );
    gate.check(
        report.conserves(),
        "every admitted op completes, and per-tenant completions, sheds and fault \
         exposure sum to the loop's counters and the ledger",
    );
    gate.check(
        report.tenants.iter().map(|t| t.detected_reads).sum::<u64>() > 0,
        "fault exposure attributes to tenants",
    );
    gate.check(
        bronze.shed > 0,
        format!("bronze absorbs the overload ({} sheds)", bronze.shed),
    );
    gate.check(
        gold.shed == 0,
        format!("gold sheds nothing under overload ({} sheds)", gold.shed),
    );
    gate.check(
        gold.slo_ok(),
        format!(
            "gold holds p99 inside its SLO budget ({} <= {})",
            gold.p99, gold.slo_p99_cycles
        ),
    );
    let (again, again_ledger) = scenario();
    gate.check(
        again.tenants == report.tenants && again_ledger == ledger,
        "per-tenant scenario is bit-identical on replay",
    );
    table
}

fn main() -> Result<ExitCode, HarnessError> {
    no_args()?;
    let p = profile("backprop");
    let mut gate = Gate::new();

    directed_transitions(&mut gate, &p);
    let matrix = randomized_matrix(&mut gate, &p);
    let ladder = hammer_ladder(&mut gate, &p);
    let tenants = tenant_slo_report(&mut gate, &p);

    let report = format!(
        "== fault-rate × scheme latency ==\n{matrix}\n\
         == hammer severity ladder ==\n{ladder}\n\
         == per-tenant SLO (gold/silver/bronze under overload + degraded chaos) ==\n{tenants}"
    );
    println!("-- measured tables --");
    print!("{report}");
    write_report("results/chaos_report.txt", &report)?;
    Ok(gate.finish("chaos"))
}
