//! Directed tests of the §V-B2 recovery flow on the timed fabric.
//!
//! Each test builds a [`SystemFabric`], plants faults with
//! [`SystemFabric::apply_fault_event`], reads through
//! [`Fabric::mem_read`] and asserts on its `RecoveryLedger`: detect at
//! one copy, correct from
//! the other, repair-and-reread, then either carry on (transient) or
//! degrade the line to its one working copy (hard); both copies bad is
//! a machine check.

use crate::chaos::{ChaosConfig, FaultAction, FaultEvent, FaultSite};
use crate::config::{Scheme, SystemConfig};
use crate::fabric_impl::SystemFabric;
use dve_coherence::fabric::Fabric;
use dve_dram::controller::EccProfile;
use dve_sim::latency::Stamp;

/// Dvé-deny with inert chaos and the given ECC. A line's home copy is
/// at `[home][0]`, its replica at `[replica][1]`.
fn dve(ecc: EccProfile) -> SystemFabric {
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.ecc = ecc;
    cfg.chaos = Some(ChaosConfig::inert());
    SystemFabric::new(&cfg)
}

/// Dvé-deny over TSD: every detection at one copy enters the recovery
/// flow (TSD detects, it does not correct).
fn dve_tsd() -> SystemFabric {
    dve(EccProfile::tsd())
}

fn plant(f: &mut SystemFabric, socket: usize, channel: usize, site: FaultSite, transient: bool) {
    f.apply_fault_event(&FaultEvent {
        at: 0,
        socket,
        channel,
        action: FaultAction::Plant { site, transient },
    });
}

/// The first `n` lines whose home copy socket 0's controller holds.
fn held_by_socket0(f: &SystemFabric, n: usize) -> Vec<u64> {
    let held: Vec<u64> = (0..1_000u64)
        .filter(|&line| f.placement().home_of(line) == 0)
        .take(n)
        .collect();
    assert_eq!(held.len(), n);
    held
}

#[test]
fn clean_reads_stay_clean() {
    let mut f = dve_tsd();
    for line in 0..8 {
        let t = f.mem_read(0, line, Stamp::start(line * 1_000));
        assert_eq!(t.breakdown().recovery, 0, "line {line}");
    }
    assert!(!f.ledger().any_activity());
    assert_eq!(f.degraded_line_count(), 0);
}

#[test]
fn chip_fault_with_chipkill_repairs_locally() {
    // One dead chip is one bad symbol: Chipkill corrects it at the
    // controller, so the read never enters the recovery path.
    let mut f = dve(EccProfile::chipkill());
    plant(&mut f, 0, 0, FaultSite::Chip { rank: 0, chip: 4 }, false);
    let t = f.mem_read(0, 3, Stamp::start(0));
    assert_eq!(t.breakdown().recovery, 0);
    assert_eq!(f.controllers()[0][0].stats().corrected_errors, 1);
    assert_eq!(f.ledger().detected_reads, 0);
}

#[test]
fn chip_fault_with_tsd_recovers_from_replica_and_degrades() {
    // Hard chip fault: the replica corrects, the repair re-read still
    // fails, so the line degrades to its one working copy.
    let mut f = dve_tsd();
    plant(&mut f, 0, 0, FaultSite::Chip { rank: 0, chip: 4 }, false);
    f.mem_read(0, 3, Stamp::start(0));
    let l = f.ledger();
    assert_eq!((l.detected_reads, l.corrected, l.degraded), (1, 1, 1));
    assert_eq!(l.machine_checks, 0);
    assert!(l.consistent());
    assert_eq!(f.degraded_line_count(), 1);
}

#[test]
fn transient_fault_repairs_in_place() {
    let mut f = dve_tsd();
    plant(&mut f, 0, 0, FaultSite::Line { line: 1 }, true);
    let t = f.mem_read(0, 1, Stamp::start(0));
    let l = f.ledger();
    assert_eq!((l.corrected, l.repaired, l.degraded), (1, 1, 0));
    assert_eq!(f.degraded_line_count(), 0, "the copy is fixed in place");
    // The repaired home copy serves the next read itself, clean.
    let home_reads = f.controllers()[0][0].stats().reads;
    let t2 = f.mem_read(0, 1, Stamp::start(t.at()));
    assert_eq!(t2.breakdown().recovery, 0);
    assert_eq!(f.controllers()[0][0].stats().reads, home_reads + 1);
    assert_eq!(f.ledger().detected_reads, 1);
    assert!(f.ledger().consistent());
}

#[test]
fn controller_failure_recovers_every_read() {
    let mut f = dve_tsd();
    plant(&mut f, 0, 0, FaultSite::Controller, false);
    let held = held_by_socket0(&f, 10);
    let mut t = Stamp::start(0);
    for (i, &line) in held.iter().enumerate() {
        t = f.mem_read(0, line, Stamp::start(t.at()));
        let l = f.ledger();
        assert_eq!((l.corrected, l.degraded), (i as u64 + 1, i as u64 + 1));
        assert_eq!(l.machine_checks, 0, "read {i}");
    }
    // Later reads of a degraded line go straight to the replica.
    f.mem_read(0, held[0], Stamp::start(t.at()));
    let l = f.ledger();
    assert_eq!(l.clean_redirects, 1);
    assert_eq!((l.corrected, l.degraded, l.machine_checks), (10, 10, 0));
    assert!(l.consistent());
}

#[test]
fn both_copies_failing_is_machine_check() {
    let mut f = dve_tsd();
    plant(&mut f, 0, 0, FaultSite::Controller, false); // home copies
    plant(&mut f, 1, 1, FaultSite::Controller, false); // their replicas
    let line = held_by_socket0(&f, 1)[0];
    f.mem_read(0, line, Stamp::start(0));
    let l = f.ledger();
    assert_eq!(l.machine_checks, 1);
    assert_eq!(l.corrected, 0);
    assert!(l.consistent());
}

#[test]
fn degraded_region_with_failed_replica_is_machine_check() {
    let mut f = dve_tsd();
    plant(&mut f, 0, 0, FaultSite::Controller, false);
    let line = held_by_socket0(&f, 1)[0];
    f.mem_read(0, line, Stamp::start(0)); // degrade
    assert_eq!(f.degraded_line_count(), 1);
    // The survivor dies too: the redirect finds no good copy.
    plant(&mut f, 1, 1, FaultSite::Controller, false);
    f.mem_read(0, line, Stamp::start(100_000));
    let l = f.ledger();
    assert_eq!(l.machine_checks, 1);
    assert_eq!(l.clean_redirects, 0);
    assert!(l.consistent());
}

#[test]
fn recovery_adds_latency() {
    let mut clean = dve_tsd();
    let line = held_by_socket0(&clean, 1)[0];
    let t_clean = clean.mem_read(0, line, Stamp::start(0));
    let mut faulty = dve_tsd();
    plant(&mut faulty, 0, 0, FaultSite::Controller, false);
    let t_recovered = faulty.mem_read(0, line, Stamp::start(0));
    assert!(
        t_recovered.elapsed() > t_clean.elapsed(),
        "recovery path must cost more"
    );
    assert!(t_recovered.breakdown().recovery > 0);
    assert_eq!(t_recovered.at(), t_recovered.breakdown().total());
}
