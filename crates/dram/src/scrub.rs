//! Patrol scrubbing.
//!
//! Every DUE/SDC expression in §IV is conditioned on failures
//! coinciding "inside a scrub interval": a background scrubber walks all
//! of memory once per interval, reading each line through the ECC path
//! so that latent single-component faults are found (and repaired or
//! reported) before a *second* fault can align with them. This module
//! implements that patrol scrubber against the memory controller: it
//! issues low-priority reads across the address space, counts
//! clean/corrected/detected lines, and repairs transient faults by
//! rewriting (the §V-B2 fix-up step applied proactively).

use crate::controller::{AccessKind, MemoryController};
use dve_ecc::code::CheckOutcome;
use dve_sim::time::Cycles;

/// Results of one full scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Lines read.
    pub lines: u64,
    /// Lines that read clean.
    pub clean: u64,
    /// Lines whose local ECC corrected an error (CE logged).
    pub corrected: u64,
    /// Lines with detected-uncorrectable errors (replica recovery /
    /// MCE under a detect-only code).
    pub detected: u64,
    /// Cycles the pass consumed (end time − start time).
    pub duration: u64,
}

/// Results of one paced scrub slice ([`Scrubber::slice`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubSlice {
    /// The delta report for just this slice (same invariants as a full
    /// pass: `lines == clean + corrected + detected`).
    pub report: ScrubReport,
    /// Byte addresses of lines with detected-uncorrectable errors —
    /// the caller escalates these to the §V-B2 recovery path.
    pub detected_addrs: Vec<u64>,
    /// Time the slice finished (last read/repair completion).
    pub end: u64,
    /// Whether the cursor wrapped past the end of the region (one
    /// patrol pass completed) during this slice.
    pub wrapped: bool,
}

/// A patrol scrubber over one memory controller.
///
/// Supports both an instantaneous [`full_pass`] (out-of-band, as used
/// by the untimed reliability unit tests) and paced [`slice`]s driven
/// from the simulation's event queue, where each slice's reads occupy
/// banks and therefore contend with demand traffic.
///
/// [`full_pass`]: Scrubber::full_pass
/// [`slice`]: Scrubber::slice
///
/// # Example
///
/// ```
/// use dve_dram::config::DramConfig;
/// use dve_dram::controller::MemoryController;
/// use dve_dram::scrub::Scrubber;
///
/// let mut mc = MemoryController::new(0, DramConfig::ddr4_2400_no_refresh());
/// let mut s = Scrubber::new(1 << 20); // scrub the first MiB
/// let report = s.full_pass(&mut mc, 0);
/// assert_eq!(report.lines, (1 << 20) / 64);
/// assert_eq!(report.clean, report.lines);
/// ```
#[derive(Debug, Clone)]
pub struct Scrubber {
    region_bytes: u64,
    line_bytes: u64,
    /// Patrol cursor for paced slices: the next byte address to scrub.
    cursor: u64,
    /// Completed patrol passes (cursor wraps).
    passes: u64,
}

impl Scrubber {
    /// Creates a scrubber over the first `region_bytes` of the channel.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than one line.
    pub fn new(region_bytes: u64) -> Scrubber {
        assert!(region_bytes >= 64, "region smaller than a line");
        Scrubber {
            region_bytes,
            line_bytes: 64,
            cursor: 0,
            passes: 0,
        }
    }

    /// The patrol cursor (next byte address a [`slice`] will scrub).
    ///
    /// [`slice`]: Scrubber::slice
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Completed patrol passes (cursor wraps) across all slices.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Scrubs one line at `addr`, updating `report` and returning the
    /// time after the read (and any repair write). Pushes
    /// detected-uncorrectable addresses into `detected_addrs` if given.
    fn scrub_line(
        &self,
        mc: &mut MemoryController,
        addr: u64,
        t: u64,
        report: &mut ScrubReport,
        detected_addrs: Option<&mut Vec<u64>>,
    ) -> u64 {
        let (timing, outcome) = mc.read_with_check(addr, Cycles(t));
        let mut t = timing.complete_at.raw();
        report.lines += 1;
        match outcome {
            CheckOutcome::NoError => report.clean += 1,
            CheckOutcome::Corrected { .. } => {
                report.corrected += 1;
                // Write the corrected data back so the latent error
                // does not linger.
                let w = mc.access(addr, AccessKind::Write, Cycles(t));
                t = w.complete_at.raw();
            }
            CheckOutcome::DetectedUncorrectable { .. } => {
                report.detected += 1;
                if let Some(v) = detected_addrs {
                    v.push(addr);
                }
            }
        }
        t
    }

    /// Runs one full pass starting at time `now`, repairing transient
    /// faults in place (write + re-read, §V-B2 applied proactively).
    ///
    /// Out-of-band: walks the whole region in one call and does not
    /// move the paced-slice cursor.
    pub fn full_pass(&mut self, mc: &mut MemoryController, now: u64) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut t = now;
        let mut addr = 0u64;
        while addr < self.region_bytes {
            t = self.scrub_line(mc, addr, t, &mut report, None);
            addr += self.line_bytes;
        }
        report.duration = t.saturating_sub(now);
        report
    }

    /// Runs one paced slice of at most `max_lines` lines starting at
    /// the patrol cursor at time `now`. The reads go through the
    /// controller's normal timed path, so they occupy banks and
    /// contend with demand traffic; the returned [`ScrubSlice`] carries
    /// the delta report, the detected-uncorrectable addresses for
    /// escalation, and the finish time for rescheduling the next slice.
    ///
    /// A slice never crosses a pass boundary: when the cursor reaches
    /// the end of the region the slice ends there (possibly shorter
    /// than `max_lines`) with `wrapped == true`, so slice reports sum
    /// exactly to full-pass reports.
    ///
    /// # Panics
    ///
    /// Panics if `max_lines` is zero.
    pub fn slice(&mut self, mc: &mut MemoryController, now: u64, max_lines: u64) -> ScrubSlice {
        assert!(max_lines > 0, "a scrub slice must cover at least one line");
        let mut out = ScrubSlice {
            end: now,
            ..ScrubSlice::default()
        };
        let mut t = now;
        for _ in 0..max_lines {
            let addr = self.cursor;
            t = self.scrub_line(mc, addr, t, &mut out.report, Some(&mut out.detected_addrs));
            self.cursor += self.line_bytes;
            if self.cursor >= self.region_bytes {
                self.cursor = 0;
                self.passes += 1;
                out.wrapped = true;
                break; // never cross a pass boundary inside one slice
            }
        }
        out.report.duration = t.saturating_sub(now);
        out.end = t;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::controller::EccProfile;
    use crate::fault::FaultDomain;

    fn controller() -> MemoryController {
        MemoryController::new(0, DramConfig::ddr4_2400_no_refresh())
    }

    #[test]
    fn clean_memory_scrubs_clean() {
        let mut mc = controller();
        let mut s = Scrubber::new(64 * 1024);
        let r = s.full_pass(&mut mc, 0);
        assert_eq!(r.lines, 1024);
        assert_eq!(r.clean, 1024);
        assert_eq!(r.corrected + r.detected, 0);
        assert!(r.duration > 0);
    }

    #[test]
    fn scrub_finds_latent_chip_fault_under_chipkill() {
        let mut mc = controller();
        mc.set_ecc(EccProfile::chipkill());
        mc.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 2,
        });
        let mut s = Scrubber::new(16 * 1024);
        let r = s.full_pass(&mut mc, 0);
        // A chip fault corrupts one symbol of every codeword in the rank:
        // every line reports a correction.
        assert_eq!(r.corrected, r.lines);
        assert_eq!(r.detected, 0);
    }

    #[test]
    fn scrub_reports_uncorrectable_under_detect_only() {
        let mut mc = controller();
        mc.set_ecc(EccProfile::tsd());
        mc.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 2,
        });
        let mut s = Scrubber::new(16 * 1024);
        let r = s.full_pass(&mut mc, 0);
        assert_eq!(
            r.detected, r.lines,
            "detect-only code cannot repair locally"
        );
    }

    #[test]
    fn scrub_localizes_row_fault() {
        let mut mc = controller();
        mc.set_ecc(EccProfile::chipkill());
        mc.faults_mut().fail(FaultDomain::Row {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
        });
        // Bank 0 row 0 covers the first 8 KiB of the address space under
        // the row-major mapping.
        let mut s = Scrubber::new(64 * 1024);
        let r = s.full_pass(&mut mc, 0);
        assert_eq!(r.detected, 8192 / 64, "exactly the dead row's lines");
        assert_eq!(r.clean, r.lines - 8192 / 64);
    }

    #[test]
    #[should_panic(expected = "smaller than a line")]
    fn tiny_region_rejected() {
        Scrubber::new(32);
    }

    #[test]
    fn slices_cover_the_region_like_a_full_pass() {
        let mut mc_full = controller();
        let mut mc_sliced = controller();
        for mc in [&mut mc_full, &mut mc_sliced] {
            mc.set_ecc(EccProfile::chipkill());
            mc.faults_mut().fail(FaultDomain::Row {
                channel: 0,
                rank: 0,
                bank: 0,
                row: 0,
            });
        }
        let mut s_full = Scrubber::new(64 * 1024);
        let full = s_full.full_pass(&mut mc_full, 0);

        let mut s = Scrubber::new(64 * 1024);
        let mut sum = ScrubReport::default();
        let mut t = 0u64;
        let mut wraps = 0;
        while wraps == 0 {
            let out = s.slice(&mut mc_sliced, t, 100);
            sum.lines += out.report.lines;
            sum.clean += out.report.clean;
            sum.corrected += out.report.corrected;
            sum.detected += out.report.detected;
            t = out.end;
            if out.wrapped {
                wraps += 1;
            }
        }
        // Slices never cross a pass boundary, so their reports sum
        // exactly to the full pass.
        assert_eq!(sum.lines, full.lines);
        assert_eq!(sum.detected, full.detected, "same dead row found");
        assert_eq!(sum.clean, full.clean);
        assert_eq!(sum.corrected, full.corrected);
        assert_eq!(s.passes(), 1);
        assert_eq!(s.cursor(), 0, "cursor back at the region start");
    }

    #[test]
    fn slice_reports_detected_addresses_for_escalation() {
        let mut mc = controller();
        mc.set_ecc(EccProfile::chipkill());
        mc.faults_mut().fail(FaultDomain::Row {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
        });
        let mut s = Scrubber::new(16 * 1024);
        let out = s.slice(&mut mc, 0, 16);
        assert_eq!(out.report.lines, 16);
        assert_eq!(out.detected_addrs.len() as u64, out.report.detected);
        for a in &out.detected_addrs {
            assert!(*a < 8192, "dead row covers the first 8 KiB");
        }
        assert!(out.end > 0);
        assert!(!out.wrapped);
        assert_eq!(s.cursor(), 16 * 64);
    }

    #[test]
    fn slice_invariant_lines_partition() {
        let mut mc = controller();
        mc.set_ecc(EccProfile::tsd());
        mc.faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 1,
        });
        let mut s = Scrubber::new(8 * 1024);
        let out = s.slice(&mut mc, 100, 32);
        let r = out.report;
        assert_eq!(r.lines, r.clean + r.corrected + r.detected);
        assert_eq!(out.end, 100 + r.duration);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_slice_rejected() {
        let mut mc = controller();
        Scrubber::new(4096).slice(&mut mc, 0, 0);
    }
}
