//! Fault-injection campaign against Dvé's recovery path (§V-B2).
//!
//! Injects every fault class of Fig. 2 — cell clusters, rows, whole
//! chips, channels, and a full memory controller — into the home copy
//! of a replicated line on the timed Dvé fabric, and shows how
//! detection at the controller plus correction from the replica
//! handles each. Also demonstrates a transient fault repaired in place,
//! degraded mode and the machine-check case, and checks the concrete
//! ECC codecs against random corruption.
//!
//! ```text
//! cargo run --release --example fault_injection_recovery
//! ```

use dve::chaos::{ChaosConfig, FaultAction, FaultEvent, FaultSite, RecoveryLedger};
use dve::config::{Scheme, SystemConfig};
use dve::fabric_impl::SystemFabric;
use dve_coherence::fabric::Fabric;
use dve_dram::address::AddressMapper;
use dve_dram::config::DramConfig;
use dve_dram::controller::EccProfile;
use dve_ecc::code::DetectionCode;
use dve_ecc::inject::{FaultInjector, FaultKind};
use dve_ecc::rs::Rs;
use dve_ecc::rs16::Rs16Detect;
use dve_sim::latency::Stamp;

fn main() {
    println!("--- codec-level: empirical detection coverage ---");
    codec_campaign();
    println!();
    println!("--- system-level: recovery via the replica ---");
    system_campaign();
}

fn codec_campaign() {
    let mut inj = FaultInjector::new(2026);
    let chipkill = Rs::chipkill();
    let tsd = Rs16Detect::tsd(64);
    let data16: Vec<u8> = (0..16).collect();
    let line: Vec<u8> = (0..64).collect();

    // Chipkill corrects every whole-chip (single-symbol) error.
    let mut scratch = chipkill.make_scratch();
    let mut corrected = 0;
    for _ in 0..1000 {
        let mut cw = chipkill.encode(&data16);
        inj.inject(&mut cw, FaultKind::ChipSymbol);
        if chipkill.decode_in_place(&mut cw, &mut scratch).is_good()
            && chipkill.extract_data(&cw) == data16
        {
            corrected += 1;
        }
    }
    println!("chipkill RS(18,16): {corrected}/1000 whole-chip errors corrected locally");

    // TSD detects multi-chip and burst errors it cannot correct.
    let mut detected = 0;
    for kind in [
        FaultKind::MultiChip { count: 2 },
        FaultKind::Burst { bits: 24 },
    ] {
        for _ in 0..500 {
            let mut cw = tsd.encode(&line);
            inj.inject(&mut cw, kind);
            if !tsd.check(&cw).is_good() {
                detected += 1;
            }
        }
    }
    println!("Dve+TSD detection:  {detected}/1000 multi-chip/burst errors detected (→ replica)");
}

/// A Dvé fabric with detect-only TSD ECC and the chaos layer armed, so
/// a detected read takes the timed §V-B2 detour to the replica.
fn dve_tsd_fabric() -> SystemFabric {
    let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
    cfg.ecc = EccProfile::tsd();
    cfg.chaos = Some(ChaosConfig::inert());
    SystemFabric::new(&cfg)
}

fn plant(f: &mut SystemFabric, socket: usize, channel: usize, site: FaultSite, transient: bool) {
    f.apply_fault_event(&FaultEvent {
        at: 0,
        socket,
        channel,
        action: FaultAction::Plant { site, transient },
    });
}

/// What the ledger says one read did.
fn verdict(l: &RecoveryLedger) -> &'static str {
    if l.machine_checks > 0 {
        "machine check"
    } else if l.degraded > 0 {
        "corrected from replica, copy degraded"
    } else if l.repaired > 0 {
        "corrected from replica, repaired in place"
    } else {
        "clean"
    }
}

fn system_campaign() {
    // Every fault lands on the home copy of one line; the row case
    // fails the DRAM row that holds it.
    let line = 0x40;
    let at = AddressMapper::new(DramConfig::ddr4_2400()).decode(line * 64);
    let cases = [
        ("cache line (cell cluster)", FaultSite::Line { line }),
        (
            "DRAM row (wordline)",
            FaultSite::Row {
                rank: at.rank,
                bank: at.bank,
                row: at.row,
            },
        ),
        ("whole chip", FaultSite::Chip { rank: 0, chip: 4 }),
        ("whole channel", FaultSite::Channel),
        ("memory controller", FaultSite::Controller),
    ];
    for (name, site) in cases {
        let mut f = dve_tsd_fabric();
        let home = f.placement().home_of(line);
        plant(&mut f, home, 0, site, false);
        let t = f.mem_read(home, line, Stamp::start(0));
        let l = f.ledger();
        println!(
            "{name:<28} -> {} at t={} ({} recovery cycles)",
            verdict(&l),
            t.at(),
            t.breakdown().recovery
        );
        assert_eq!(l.detected_reads, 1, "{name} must be detected");
        assert_eq!(l.machine_checks, 0, "replica must recover {name}");
    }

    // Transient fault: the replica supplies the data and the repair
    // write clears the fault in place.
    let mut f = dve_tsd_fabric();
    plant(&mut f, 0, 0, FaultSite::Line { line: 7 }, true);
    f.mem_read(0, 7, Stamp::start(0));
    println!("transient                    -> {}", verdict(&f.ledger()));
    assert_eq!(f.ledger().repaired, 1);

    // Double failure: both copies' controllers die — a genuine DUE.
    let mut f = dve_tsd_fabric();
    plant(&mut f, 0, 0, FaultSite::Controller, false);
    plant(&mut f, 1, 1, FaultSite::Controller, false);
    f.mem_read(0, line, Stamp::start(0));
    println!(
        "both controllers failed      -> {} (machine-check exception)",
        verdict(&f.ledger())
    );
    assert_eq!(f.ledger().machine_checks, 1);

    // A dead home controller: read every line it holds twice. The first
    // read corrects and degrades the copy; the second is redirected.
    let mut f = dve_tsd_fabric();
    plant(&mut f, 0, 0, FaultSite::Controller, false);
    let place = f.placement();
    let held: Vec<u64> = (0..256).filter(|&l| place.home_of(l) == 0).collect();
    for (i, &l) in held.iter().chain(&held).enumerate() {
        f.mem_read(0, l, Stamp::start(i as u64 * 10_000));
    }
    let l = f.ledger();
    println!();
    println!(
        "controller-failure campaign over {} lines: {} corrected from replica, {} degraded copies, \
         {} clean redirects, {} machine checks",
        held.len(),
        l.corrected,
        l.degraded,
        l.clean_redirects,
        l.machine_checks
    );
}
