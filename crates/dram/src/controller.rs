//! The memory controller: request timing, refresh, statistics, and the
//! ECC check performed at the controller edge.
//!
//! Dvé's end-to-end argument (§III) protects memory "at the highest end
//! point" — the memory controller — so this model is where detection
//! happens: every read consults the [`FaultState`] and the configured
//! [`EccProfile`] to decide whether the data returned is clean, silently
//! repaired (CE), or flagged uncorrectable (which, under Dvé, reroutes
//! the request to the replica's controller on the other socket).

use crate::address::AddressMapper;
use crate::bank::{Bank, RowOutcome};
use crate::config::DramConfig;
use crate::fault::FaultState;
use crate::rowhammer::RowHammerMonitor;
use dve_ecc::code::CheckOutcome;
use dve_sim::time::Cycles;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read burst (fill or fetch).
    Read,
    /// A write burst (writeback).
    Write,
}

/// Timing result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Latency observed by the requester (`complete_at - now`).
    pub latency: Cycles,
    /// Absolute completion time.
    pub complete_at: Cycles,
    /// When the first DRAM command issued: `issued_at - now` is the
    /// bank-queue share of the latency (waiting behind a busy bank,
    /// a tRAS hold, or an in-flight refresh) and
    /// `complete_at - issued_at` is the bank-service share.
    pub issued_at: Cycles,
    /// Row-buffer outcome.
    pub row: RowOutcome,
}

/// Symbolic capability of the ECC code attached to this controller: how
/// many corrupted symbols it can repair locally and how many it is
/// guaranteed to detect. (The concrete codecs live in `dve-ecc`; the
/// controller only needs the capability numbers.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccProfile {
    /// Symbols repairable in place (0 for detect-only DSD/TSD).
    pub correct_symbols: usize,
    /// Symbols whose corruption is guaranteed to be detected.
    pub detect_symbols: usize,
}

impl EccProfile {
    /// Chipkill SSC-DSD: correct 1 symbol, detect 2.
    pub fn chipkill() -> EccProfile {
        EccProfile {
            correct_symbols: 1,
            detect_symbols: 2,
        }
    }

    /// Dvé+DSD: detect 2 symbols, correct none locally.
    pub fn dsd() -> EccProfile {
        EccProfile {
            correct_symbols: 0,
            detect_symbols: 2,
        }
    }

    /// Dvé+TSD: detect 3 symbols, correct none locally.
    pub fn tsd() -> EccProfile {
        EccProfile {
            correct_symbols: 0,
            detect_symbols: 3,
        }
    }
}

/// Aggregated controller statistics: the one count of every DRAM
/// command the controller issues. Memory energy is priced from these
/// counts ([`EnergyParams::dynamic_joules`]).
///
/// [`EnergyParams::dynamic_joules`]: crate::energy::EnergyParams::dynamic_joules
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Total read accesses.
    pub reads: u64,
    /// Total write accesses.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (bank precharged).
    pub row_misses: u64,
    /// Row-buffer conflicts (wrong row open).
    pub row_conflicts: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Reads that returned a corrected error (CE).
    pub corrected_errors: u64,
    /// Reads that returned detected-uncorrectable (DUE before recovery).
    pub detected_errors: u64,
    /// Total cycles requests spent waiting for a busy bank before their
    /// first DRAM command issued (queuing delay).
    pub queue_delay_sum: u64,
}

impl ControllerStats {
    /// Adds another controller's counts into these.
    pub fn merge(&mut self, other: &ControllerStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.refreshes += other.refreshes;
        self.corrected_errors += other.corrected_errors;
        self.detected_errors += other.detected_errors;
        self.queue_delay_sum += other.queue_delay_sum;
    }
}

/// One channel's memory controller.
///
/// # Example
///
/// ```
/// use dve_dram::config::DramConfig;
/// use dve_dram::controller::{AccessKind, MemoryController};
/// use dve_sim::time::Cycles;
///
/// let mut mc = MemoryController::new(0, DramConfig::ddr4_2400_no_refresh());
/// let r = mc.access(0x80, AccessKind::Read, Cycles(0));
/// assert_eq!(r.latency, mc.config().miss_latency());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    channel: usize,
    mapper: AddressMapper,
    banks: Vec<Bank>,
    faults: FaultState,
    stats: ControllerStats,
    ecc: EccProfile,
    /// When the next all-bank auto-refresh is due (every tREFI from
    /// tREFI on); `None` when refresh is disabled.
    next_refresh: Option<u64>,
    hammer: RowHammerMonitor,
}

impl MemoryController {
    /// Creates a controller for channel `channel`.
    pub fn new(channel: usize, cfg: DramConfig) -> MemoryController {
        let banks = vec![Bank::new(); cfg.total_banks()];
        let next_refresh = cfg.refresh_enabled.then_some(cfg.t_refi.raw());
        MemoryController {
            channel,
            mapper: AddressMapper::new(cfg),
            banks,
            faults: FaultState::new(),
            stats: ControllerStats::default(),
            ecc: EccProfile::chipkill(),
            next_refresh,
            hammer: RowHammerMonitor::ddr4_default(),
        }
    }

    /// The row-hammer exposure monitor (activations per row per refresh
    /// window).
    pub fn rowhammer(&self) -> &RowHammerMonitor {
        &self.hammer
    }

    /// Sets the ECC capability at this controller.
    pub fn set_ecc(&mut self, ecc: EccProfile) {
        self.ecc = ecc;
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        self.mapper.config()
    }

    /// The channel index.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Mutable access to the fault state (for fault-injection campaigns).
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// Shared access to the fault state.
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Issues every refresh due at or before `now`: each elapsed tREFI
    /// boundary forces every bank busy through tRFC.
    fn catch_up_refresh(&mut self, now: Cycles) {
        while let Some(at) = self.next_refresh.filter(|&at| at <= now.raw()) {
            let cfg = self.mapper.config();
            let (t_rfc, t_refi) = (cfg.t_rfc, cfg.t_refi);
            let until = Cycles(at) + t_rfc;
            for b in &mut self.banks {
                b.force_busy(until);
            }
            self.stats.refreshes += 1;
            self.next_refresh = Some(at + t_refi.raw());
        }
    }

    /// Performs a timed access. The returned latency includes any queuing
    /// behind a busy bank or an in-progress refresh.
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: Cycles) -> AccessResult {
        self.catch_up_refresh(now);
        let coord = self.mapper.decode(addr);
        let flat = self.mapper.flat_bank(coord);
        let cfg = self.mapper.config();
        let (row, grant) = self.banks[flat].access(
            coord.row,
            now,
            cfg.t_cl,
            cfg.t_rcd,
            cfg.t_rp,
            cfg.t_ras,
            cfg.t_burst,
        );
        self.stats.queue_delay_sum += grant.queued;
        match row {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => {
                self.stats.row_misses += 1;
                self.hammer.record_activation(flat, coord.row, grant.start);
            }
            RowOutcome::Conflict => {
                self.stats.row_conflicts += 1;
                self.hammer.record_activation(flat, coord.row, grant.start);
            }
        }
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        let finish = Cycles(grant.complete_at);
        AccessResult {
            latency: finish.saturating_sub(now),
            complete_at: finish,
            issued_at: Cycles(grant.start),
            row,
        }
    }

    /// Whether a read of `addr` would report detected-uncorrectable
    /// under the current fault state and ECC capability — the pure
    /// predicate behind [`read_with_check`], with no timing or stats
    /// side effects. The recovery layer uses it to re-validate
    /// degraded-line records after heal events.
    ///
    /// [`read_with_check`]: MemoryController::read_with_check
    pub fn would_detect(&self, addr: u64) -> bool {
        match self.faults.impact(self.channel, addr, &self.mapper) {
            None => false,
            Some(i) => i.whole_codeword || i.symbols_corrupted > self.ecc.correct_symbols,
        }
    }

    /// The failed fault domains whose footprint covers `addr` at this
    /// controller (see [`FaultState::domains_hitting`]). The §V-B2
    /// repair step uses this to decide which transient domains a
    /// successful rewrite clears.
    pub fn faulty_domains_at(&self, addr: u64) -> Vec<crate::fault::FaultDomain> {
        self.faults
            .domains_hitting(self.channel, addr, &self.mapper)
    }

    /// Performs a read and runs the controller-edge ECC check against the
    /// active fault state.
    ///
    /// Returns the timing plus the check outcome:
    /// * no active fault → [`CheckOutcome::NoError`];
    /// * corrupted symbols within `correct_symbols` → repaired in place
    ///   ([`CheckOutcome::Corrected`], a CE);
    /// * anything larger (including whole-codeword controller/channel
    ///   faults) → [`CheckOutcome::DetectedUncorrectable`], Dvé's cue to
    ///   read the replica.
    pub fn read_with_check(&mut self, addr: u64, now: Cycles) -> (AccessResult, CheckOutcome) {
        let timing = self.access(addr, AccessKind::Read, now);
        let outcome = match self.faults.impact(self.channel, addr, &self.mapper) {
            None => CheckOutcome::NoError,
            Some(impact) => {
                if !impact.whole_codeword && impact.symbols_corrupted <= self.ecc.correct_symbols {
                    self.stats.corrected_errors += 1;
                    CheckOutcome::Corrected {
                        symbols_fixed: impact.symbols_corrupted,
                    }
                } else {
                    self.stats.detected_errors += 1;
                    CheckOutcome::DetectedUncorrectable {
                        syndrome_weight: impact.symbols_corrupted.min(self.ecc.detect_symbols),
                    }
                }
            }
        };
        (timing, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultDomain;

    fn mc() -> MemoryController {
        MemoryController::new(0, DramConfig::ddr4_2400_no_refresh())
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut m = mc();
        let r1 = m.access(0, AccessKind::Read, Cycles(0));
        assert_eq!(r1.row, RowOutcome::Miss);
        let r2 = m.access(64, AccessKind::Read, r1.complete_at);
        assert_eq!(r2.row, RowOutcome::Hit);
        assert_eq!(m.stats().row_hits, 1);
        assert_eq!(m.stats().row_misses, 1);
        assert_eq!(m.stats().reads, 2);
    }

    #[test]
    fn conflicting_rows_in_same_bank() {
        let mut m = mc();
        // Same bank, different row: advance by rows*banks span.
        let stride = 8192u64 * 16; // one row of each bank → same bank next row
        let r1 = m.access(0, AccessKind::Read, Cycles(0));
        let r2 = m.access(stride, AccessKind::Read, r1.complete_at);
        assert_eq!(r2.row, RowOutcome::Conflict);
        assert_eq!(m.stats().row_conflicts, 1);
    }

    #[test]
    fn parallel_banks_overlap() {
        let mut m = mc();
        // Two requests to different banks at t=0 don't serialize.
        let r1 = m.access(0, AccessKind::Read, Cycles(0));
        let r2 = m.access(8192, AccessKind::Read, Cycles(0)); // next bank
        assert_eq!(r1.latency, r2.latency);
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut m = mc();
        let r1 = m.access(0, AccessKind::Read, Cycles(0));
        let r2 = m.access(64, AccessKind::Read, Cycles(0));
        assert!(r2.complete_at > r1.complete_at);
    }

    #[test]
    fn writes_counted_separately() {
        let mut m = mc();
        m.access(0, AccessKind::Write, Cycles(0));
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().reads, 0);
    }

    #[test]
    fn refresh_fires_on_schedule() {
        let mut m = MemoryController::new(0, DramConfig::ddr4_2400());
        let t_refi = m.config().t_refi;
        // Jump past 3 refresh intervals.
        m.access(0, AccessKind::Read, Cycles(t_refi.raw() * 3 + 1));
        assert_eq!(m.stats().refreshes, 3);
    }

    #[test]
    fn refresh_delays_inflight_access() {
        let mut m = MemoryController::new(0, DramConfig::ddr4_2400());
        let t_refi = m.config().t_refi;
        let t_rfc = m.config().t_rfc;
        // Access lands exactly at the refresh boundary: the bank is busy
        // until the refresh completes.
        let r = m.access(0, AccessKind::Read, Cycles(t_refi.raw()));
        assert!(r.latency >= t_rfc);
    }

    #[test]
    fn clean_read_checks_clean() {
        let mut m = mc();
        let (_, outcome) = m.read_with_check(0x40, Cycles(0));
        assert_eq!(outcome, CheckOutcome::NoError);
    }

    #[test]
    fn chip_fault_corrected_by_chipkill() {
        let mut m = mc();
        m.set_ecc(EccProfile::chipkill());
        m.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 1,
        });
        let (_, outcome) = m.read_with_check(0x40, Cycles(0));
        assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 1 });
        assert_eq!(m.stats().corrected_errors, 1);
    }

    #[test]
    fn chip_fault_detected_not_corrected_by_dsd() {
        let mut m = mc();
        m.set_ecc(EccProfile::dsd());
        m.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 1,
        });
        let (_, outcome) = m.read_with_check(0x40, Cycles(0));
        assert!(matches!(
            outcome,
            CheckOutcome::DetectedUncorrectable { .. }
        ));
        assert_eq!(m.stats().detected_errors, 1);
    }

    #[test]
    fn controller_fault_beyond_any_local_code() {
        let mut m = mc();
        m.set_ecc(EccProfile::chipkill());
        m.faults_mut().fail(FaultDomain::Controller);
        let (_, outcome) = m.read_with_check(0x40, Cycles(0));
        assert!(matches!(
            outcome,
            CheckOutcome::DetectedUncorrectable { .. }
        ));
    }

    #[test]
    fn two_chip_faults_exceed_chipkill() {
        let mut m = mc();
        m.set_ecc(EccProfile::chipkill());
        m.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 1,
        });
        m.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 5,
        });
        let (_, outcome) = m.read_with_check(0x40, Cycles(0));
        assert!(matches!(
            outcome,
            CheckOutcome::DetectedUncorrectable { .. }
        ));
    }
}
