//! One campaign trial: fault sampling, real-codec adjudication, and a
//! system-level replay with recovery-event logging.
//!
//! A trial observes one accelerated scrub-interval window:
//!
//! 1. [`FaultSampler`] draws per-chip failures for the DIMM (pair).
//! 2. **Codeword adjudication**: each failed chip XORs an error mask
//!    into its symbol of each copy (drawn through `dve-ecc`'s injector),
//!    and the scheme's real code classifies the copy — so detection
//!    misses and RS miscorrections produce *bona fide* SDC outcomes
//!    rather than modeled ones. The codes are linear and the masks are
//!    drawn independently of the data, so every decoder decision depends
//!    on the error pattern alone: the trial adjudicates the pattern on
//!    the all-zero codeword, with no golden data and no encode, and gets
//!    the outcome a random codeword would (DESIGN.md §7 gives the
//!    argument). Chipkill decodes the 18-byte error word with the real
//!    [`Rs::decode_in_place`]; DSD and TSD check only the faulty symbols
//!    ([`Rs::check_sparse`], [`Rs16Detect::check_sparse`]).
//! 3. **System replay**: the same fault set is installed into
//!    `dve-dram` [`FaultState`](dve_dram::fault::FaultState) hooks under a [`RecoverableMemory`]
//!    pair (or a bare controller for Chipkill), a seeded
//!    `dve-workloads` trace is replayed, the patrol [`Scrubber`] runs a
//!    pass, transient faults clear on the §V-B2 write-repair, and the
//!    recovery events are drained into the trial record.
//!
//! The final outcome comes from the codeword layer (which models Dvé's
//! symbol-union reconstruction across copies exactly); the controller
//! layer is coarser — it flags any faulty DIMM read as uncorrectable
//! without attempting cross-copy reconstruction — so its event stream is
//! a conservative overapproximation, logged for inspection rather than
//! classification.
//!
//! # Zero-allocation trials
//!
//! The executor threads a per-worker [`TrialScratch`] (the fault
//! sample, both copies' error patterns, the Chipkill error word and RS
//! decoder scratch, the replay address list and the recovery-event
//! buffer) through every trial. With the system replay off
//! (`replay_ops == 0`, as in stratified campaigns), a trial — faulty or
//! not — touches the heap zero times once the scratch has seen a full
//! window; `tests/alloc_free.rs` counts. The replay builds a fresh
//! memory model per faulty trial and allocates. Results are
//! **bit-identical** for any worker count and to adjudicating encoded
//! random data: the golden-data draws are skipped with
//! [`SplitMix64::skip`] rather than removed, so the mask and replay
//! draws keep their place in the stream, and every buffer is fully
//! overwritten per trial.

use crate::sampler::{
    ChipFault, FaultSample, FaultSampler, Granularity, Side, StrataPlan, StratumSpec,
};
use dve::recovery::{RecoverableMemory, RecoveryEvent};
use dve_dram::config::DramConfig;
use dve_dram::controller::{AccessKind, EccProfile, MemoryController};
use dve_dram::fault::FaultDomain;
use dve_dram::scrub::Scrubber;
use dve_ecc::code::{CheckOutcome, DetectionCode};
use dve_ecc::inject::FaultInjector;
use dve_ecc::rs::{Rs, RsScratch};
use dve_ecc::rs16::Rs16Detect;
use dve_reliability::accel::AccelParams;
use dve_sim::rng::{derive_seed, SplitMix64};
use dve_sim::time::Cycles;
use dve_workloads::{catalog, Op, TraceGenerator};

/// The protection schemes a campaign can exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignScheme {
    /// RS(18,16) correcting Chipkill on a single DIMM (baseline).
    Chipkill,
    /// Dvé replication with a detect-only RS(18,16) DSD code.
    DveDsd,
    /// Dvé replication with a detect-only RS over GF(2¹⁶) TSD code.
    DveTsd,
    /// Dvé replication layered over correcting Chipkill DIMMs.
    DveChipkill,
}

impl CampaignScheme {
    /// All schemes in report order.
    pub const ALL: [CampaignScheme; 4] = [
        CampaignScheme::Chipkill,
        CampaignScheme::DveDsd,
        CampaignScheme::DveTsd,
        CampaignScheme::DveChipkill,
    ];

    /// Human-readable scheme name (matches Table I's).
    pub fn label(&self) -> &'static str {
        match self {
            CampaignScheme::Chipkill => "Chipkill",
            CampaignScheme::DveDsd => "Dve+DSD",
            CampaignScheme::DveTsd => "Dve+TSD",
            CampaignScheme::DveChipkill => "Dve+Chipkill",
        }
    }

    /// Seed-derivation stream id for this scheme's trials.
    pub fn stream(&self) -> u64 {
        0xCA00
            + match self {
                CampaignScheme::Chipkill => 0,
                CampaignScheme::DveDsd => 1,
                CampaignScheme::DveTsd => 2,
                CampaignScheme::DveChipkill => 3,
            }
    }

    /// Whether the scheme keeps a replica copy.
    pub fn is_replicated(&self) -> bool {
        !matches!(self, CampaignScheme::Chipkill)
    }

    /// The controller-level ECC profile used in the system replay.
    pub fn ecc_profile(&self) -> EccProfile {
        match self {
            CampaignScheme::Chipkill | CampaignScheme::DveChipkill => EccProfile::chipkill(),
            CampaignScheme::DveDsd => EccProfile::dsd(),
            CampaignScheme::DveTsd => EccProfile::tsd(),
        }
    }
}

/// Final classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialOutcome {
    /// No data was ever at risk.
    Clean,
    /// An error was corrected (locally or via replica) and the faulty
    /// copy repaired in place: all contributing faults were transient.
    CeTransient,
    /// An error was corrected but a permanent fault remains: the region
    /// continues with one working copy (or a degraded local symbol).
    CeDegraded,
    /// Detected but uncorrectable: data loss with a machine check.
    Due,
    /// Silent data corruption: the decoder returned wrong data while
    /// claiming success (detection miss or RS miscorrection).
    Sdc,
}

/// Everything one trial produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// Trial index within the campaign.
    pub trial: u64,
    /// Final classification.
    pub outcome: TrialOutcome,
    /// Paired-failure count (identity mapping) — drives Dvé DUEs.
    pub overlap: usize,
    /// Total sampled chip failures.
    pub fault_count: usize,
    /// Recovery events drained from the system replay.
    pub events: Vec<RecoveryEvent>,
}

/// Per-worker reusable buffers threaded through [`TrialExecutor::run_with`].
///
/// Build one per worker thread with [`TrialExecutor::make_scratch`]; its
/// buffers are fully overwritten each trial, so reuse cannot leak state
/// between trials and the campaign stays bit-identical for any worker
/// count. Without the system replay, trials complete without any heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct TrialScratch {
    /// The trial's sampled fault window.
    sample: FaultSample,
    /// The primary copy's error pattern: `(symbol, mask)` per fault.
    primary: Vec<(usize, u16)>,
    /// The replica copy's error pattern.
    replica: Vec<(usize, u16)>,
    /// One copy's Chipkill error word, decoded in place.
    word: Vec<u8>,
    /// RS decoder scratch (Berlekamp–Massey / Chien / Forney buffers).
    rs: RsScratch,
    /// Replayed trace addresses.
    addrs: Vec<u64>,
    /// Recovery events accumulated by the system replay, copied into the
    /// [`TrialResult`] at the end of each trial.
    events: Vec<RecoveryEvent>,
}

/// Runs trials for one scheme; cheap to construct, reusable across a
/// worker's whole trial range.
#[derive(Debug)]
pub struct TrialExecutor {
    scheme: CampaignScheme,
    sampler: FaultSampler,
    chipkill: Rs,
    dsd: Rs,
    tsd: Rs16Detect,
    /// Memory operations replayed from the workload trace per trial
    /// (0 disables the system replay for pure-statistics campaigns).
    replay_ops: u64,
}

/// Bytes scrubbed/replayed per trial (64 lines).
const REPLAY_REGION_BYTES: u64 = 4096;

impl TrialExecutor {
    /// Builds an executor for `scheme` under `params`.
    pub fn new(scheme: CampaignScheme, params: AccelParams, replay_ops: u64) -> TrialExecutor {
        TrialExecutor {
            scheme,
            sampler: FaultSampler::new(params),
            chipkill: Rs::chipkill(),
            dsd: Rs::dsd(),
            tsd: Rs16Detect::tsd(64),
            replay_ops,
        }
    }

    /// The scheme this executor exercises.
    pub fn scheme(&self) -> CampaignScheme {
        self.scheme
    }

    /// Builds a scratch sized for a full fault window.
    pub fn make_scratch(&self) -> TrialScratch {
        let chips = self.sampler.params().chips_per_dimm;
        TrialScratch {
            sample: FaultSample {
                faults: Vec::with_capacity(2 * chips),
            },
            primary: Vec::with_capacity(chips),
            replica: Vec::with_capacity(chips),
            word: Vec::with_capacity(self.chipkill.codeword_len()),
            rs: self.chipkill.make_scratch(),
            addrs: Vec::with_capacity(self.replay_ops as usize),
            events: Vec::new(),
        }
    }

    /// Runs trial `trial` of the campaign keyed by `master_seed`,
    /// allocating fresh buffers. Convenience wrapper around
    /// [`TrialExecutor::run_with`] for one-off calls and tests.
    pub fn run(&self, master_seed: u64, trial: u64) -> TrialResult {
        let mut scratch = self.make_scratch();
        self.run_with(master_seed, trial, &mut scratch)
    }

    /// Runs trial `trial` of the campaign keyed by `master_seed`, reusing
    /// the caller's scratch buffers. Fully deterministic: the result
    /// depends only on `(master_seed, scheme, trial)` — never on the
    /// scratch's history.
    pub fn run_with(
        &self,
        master_seed: u64,
        trial: u64,
        scratch: &mut TrialScratch,
    ) -> TrialResult {
        scratch.events.clear();
        let seed = derive_seed(master_seed, self.scheme.stream(), trial);
        let mut rng = SplitMix64::new(seed);
        self.sampler
            .sample_into(self.scheme.is_replicated(), &mut rng, &mut scratch.sample);
        self.finish_trial(trial, &mut rng, scratch)
    }

    /// Builds the stratified sampling plan matching this executor's
    /// scheme (pair vs single-DIMM windows) and window parameters.
    pub fn strata_plan(&self, tail_min: u8, trials: u64) -> StrataPlan {
        StrataPlan::build(
            &self.sampler.params(),
            self.scheme.is_replicated(),
            tail_min,
            trials,
        )
    }

    /// Runs trial `trial` under a stratified `plan`: the trial's index
    /// selects its stratum (contiguous per-cell ranges), the sample is
    /// drawn conditioned on that cell, and adjudication/replay proceed
    /// exactly as in [`TrialExecutor::run_with`]. Deterministic in
    /// `(master_seed, scheme, plan, trial)`.
    pub fn run_stratified_with(
        &self,
        master_seed: u64,
        trial: u64,
        plan: &StrataPlan,
        scratch: &mut TrialScratch,
    ) -> TrialResult {
        let spec = &plan.strata[plan.stratum_of(trial)];
        self.run_in_stratum(master_seed, trial, plan, spec, scratch)
    }

    /// [`TrialExecutor::run_stratified_with`] for a caller that already
    /// knows `spec`, the cell of `plan` owning `trial`.
    pub(crate) fn run_in_stratum(
        &self,
        master_seed: u64,
        trial: u64,
        plan: &StrataPlan,
        spec: &StratumSpec,
        scratch: &mut TrialScratch,
    ) -> TrialResult {
        scratch.events.clear();
        let mut rng = SplitMix64::new(derive_seed(master_seed, self.scheme.stream(), trial));
        self.sampler
            .sample_stratum_into(plan, spec, &mut rng, &mut scratch.sample);
        self.finish_trial(trial, &mut rng, scratch)
    }

    /// Shared trial tail: adjudicate the window in `scratch.sample` and
    /// replay it through the system model. Fault-free windows — the
    /// common case — short-circuit to `Clean`: adjudication maps an
    /// uncorrupted codeword to `Clean` and the replay is a no-op without
    /// faults, so skipping both is outcome-identical and draws nothing.
    fn finish_trial(
        &self,
        trial: u64,
        rng: &mut SplitMix64,
        scratch: &mut TrialScratch,
    ) -> TrialResult {
        // Moved out (and back) so the adjudicators can borrow the rest of
        // the scratch mutably; `take` leaves an unallocated placeholder.
        let sample = std::mem::take(&mut scratch.sample);
        let overlap = sample.pair_overlap(|i| i);
        let outcome = if sample.any() {
            self.adjudicate(&sample, overlap, rng, scratch)
        } else {
            TrialOutcome::Clean
        };
        if self.replay_ops > 0 && sample.any() {
            self.replay(&sample, rng, scratch);
        }
        let fault_count = sample.faults.len();
        scratch.sample = sample;
        TrialResult {
            trial,
            outcome,
            overlap,
            fault_count,
            // Copy out so the accumulation buffer (and its capacity) is
            // reused by the next trial; empty for fault-free trials.
            events: scratch.events.clone(),
        }
    }

    // ---- codeword-level adjudication ---------------------------------

    /// Classifies the faulty window in `sample` on the all-zero codeword
    /// (DESIGN.md §7): the masks are the copies' whole error words, and
    /// "decoded data equals the stored data" means "decoded data is
    /// zero".
    fn adjudicate(
        &self,
        sample: &FaultSample,
        overlap: usize,
        rng: &mut SplitMix64,
        s: &mut TrialScratch,
    ) -> TrialOutcome {
        let wide = self.scheme == CampaignScheme::DveTsd;
        // Skip the golden data a random codeword would draw: one u64 per
        // 8 bytes and one per leftover byte.
        let data_len = if wide {
            self.tsd.data_len()
        } else {
            self.chipkill.data_len()
        } as u64;
        rng.skip(data_len / 8 + data_len % 8);
        let side = |side| sample.faults.iter().filter(move |f| f.side == side);
        draw_errors(wide, side(Side::Primary), rng, &mut s.primary);
        if self.scheme.is_replicated() {
            draw_errors(wide, side(Side::Replica), rng, &mut s.replica);
        }
        let ce = if sample.all_transient(Side::Primary) {
            TrialOutcome::CeTransient
        } else {
            TrialOutcome::CeDegraded
        };
        match self.read(Side::Primary, s) {
            Read::Intact => TrialOutcome::Clean,
            Read::Corrected => ce,
            Read::Wrong => TrialOutcome::Sdc,
            Read::Flagged if !self.scheme.is_replicated() => TrialOutcome::Due,
            Read::Flagged => match self.read(Side::Replica, s) {
                Read::Intact | Read::Corrected => ce,
                Read::Wrong => TrialOutcome::Sdc,
                // Both copies flagged: symbol-union reconstruction takes
                // each symbol from a copy that holds it intact, and over
                // Chipkill each copy also corrects one symbol locally.
                // Data is lost only where pairs failed on both sides.
                Read::Flagged => {
                    let lost_at = if self.scheme == CampaignScheme::DveChipkill {
                        2
                    } else {
                        1
                    };
                    if overlap >= lost_at {
                        TrialOutcome::Due
                    } else {
                        TrialOutcome::CeDegraded
                    }
                }
            },
        }
    }

    /// Reads back the copy on `side`, whose error pattern is in `s`.
    fn read(&self, side: Side, s: &mut TrialScratch) -> Read {
        let errors = match side {
            Side::Primary => &s.primary,
            Side::Replica => &s.replica,
        };
        let outcome = match self.scheme {
            CampaignScheme::DveDsd => self
                .dsd
                .check_sparse(errors.iter().map(|&(p, m)| (p, m as u8))),
            CampaignScheme::DveTsd => self.tsd.check_sparse(errors.iter().copied()),
            CampaignScheme::Chipkill | CampaignScheme::DveChipkill => {
                s.word.clear();
                s.word.resize(self.chipkill.codeword_len(), 0);
                for &(p, m) in errors {
                    s.word[p] ^= m as u8;
                }
                self.chipkill.decode_in_place(&mut s.word, &mut s.rs)
            }
        };
        match outcome {
            // One side's faults sit on distinct chips and every mask is
            // non-zero, so the error word is zero exactly when the copy
            // has no faults.
            CheckOutcome::NoError if errors.is_empty() => Read::Intact,
            CheckOutcome::NoError => Read::Wrong, // detection miss
            // Only Chipkill corrects, in `s.word`.
            CheckOutcome::Corrected { .. }
                if s.word[..self.chipkill.data_len()].iter().all(|&b| b == 0) =>
            {
                Read::Corrected
            }
            CheckOutcome::Corrected { .. } => Read::Wrong, // miscorrection
            CheckOutcome::DetectedUncorrectable { .. } => Read::Flagged,
        }
    }

    // ---- system-level replay -----------------------------------------

    fn replay(&self, sample: &FaultSample, rng: &mut SplitMix64, s: &mut TrialScratch) {
        if self.scheme.is_replicated() {
            self.replay_replicated(sample, rng, s);
        } else {
            self.replay_single(sample, rng, s);
        }
    }

    fn fault_domain(side: Side, chip: usize) -> FaultDomain {
        FaultDomain::Chip {
            channel: match side {
                Side::Primary => 0,
                Side::Replica => 1,
            },
            rank: 0,
            chip,
        }
    }

    /// Fills `addrs` with a slice of a seeded workload trace, folded into
    /// the scrub region.
    fn trace_addrs_into(&self, rng: &mut SplitMix64, addrs: &mut Vec<u64>) {
        let profile = &catalog()[0];
        let mut gen = TraceGenerator::new(profile, 1, rng.next_u64());
        addrs.clear();
        let lines = REPLAY_REGION_BYTES / 64;
        let mut guard = 0u64;
        while addrs.len() < self.replay_ops as usize && guard < self.replay_ops * 16 {
            if let Op::Mem { line, .. } = gen.next_op(0) {
                addrs.push((line % lines) * 64);
            }
            guard += 1;
        }
    }

    fn replay_replicated(&self, sample: &FaultSample, rng: &mut SplitMix64, s: &mut TrialScratch) {
        let mut mem = RecoverableMemory::new(
            DramConfig::ddr4_2400_no_refresh(),
            self.scheme.ecc_profile(),
        );
        mem.set_event_logging(true);
        for f in &sample.faults {
            let side = f.side;
            let mc = match side {
                Side::Primary => mem.primary_mut(),
                Side::Replica => mem.replica_mut(),
            };
            mc.faults_mut().fail(Self::fault_domain(side, f.chip));
        }
        // Workload phase.
        let mut t = 0u64;
        self.trace_addrs_into(rng, &mut s.addrs);
        for &addr in &s.addrs {
            let (_, done) = mem.read(addr, t);
            t = done;
        }
        // Patrol scrub of both copies, then the §V-B2 write-repair
        // clears transient faults.
        let mut scrubber = Scrubber::new(REPLAY_REGION_BYTES);
        let rep = scrubber.full_pass(mem.primary_mut(), t);
        t += rep.duration;
        let rep = scrubber.full_pass(mem.replica_mut(), t);
        t += rep.duration;
        for f in &sample.faults {
            if f.transient {
                let side = f.side;
                let mc = match side {
                    Side::Primary => mem.primary_mut(),
                    Side::Replica => mem.replica_mut(),
                };
                mc.faults_mut().repair(Self::fault_domain(side, f.chip));
            }
        }
        // Post-scrub probe: surviving permanent faults keep firing.
        for i in 0..4u64 {
            let (_, done) = mem.read(i * 64, t);
            t = done;
        }
        s.events.extend(mem.take_events());
    }

    fn replay_single(&self, sample: &FaultSample, rng: &mut SplitMix64, s: &mut TrialScratch) {
        let mut mc = MemoryController::new(0, DramConfig::ddr4_2400_no_refresh());
        mc.set_ecc(self.scheme.ecc_profile());
        for f in &sample.faults {
            mc.faults_mut()
                .fail(Self::fault_domain(Side::Primary, f.chip));
        }
        let mut t = 0u64;
        self.trace_addrs_into(rng, &mut s.addrs);
        for &addr in &s.addrs {
            let (timing, outcome) = mc.read_with_check(addr, Cycles(t));
            t = timing.complete_at.raw();
            if let CheckOutcome::DetectedUncorrectable { .. } = outcome {
                s.events.push(RecoveryEvent {
                    addr,
                    at: t,
                    outcome: dve::recovery::RecoveryOutcome::MachineCheck,
                });
            } else if let CheckOutcome::Corrected { .. } = outcome {
                // Local ECC corrected: write back (scrub-style repair).
                let w = mc.access(addr, AccessKind::Write, Cycles(t));
                t = w.complete_at.raw();
            }
        }
        let mut scrubber = Scrubber::new(REPLAY_REGION_BYTES);
        scrubber.full_pass(&mut mc, t);
        for f in &sample.faults {
            if f.transient {
                mc.faults_mut()
                    .repair(Self::fault_domain(Side::Primary, f.chip));
            }
        }
    }
}

/// How one copy reads back under its code.
enum Read {
    /// No error and nothing wrong.
    Intact,
    /// Corrected back to the stored data.
    Corrected,
    /// Passed as good but wrong: a detection miss or a miscorrection.
    Wrong,
    /// Detected and not corrected.
    Flagged,
}

/// Draws one copy's error pattern into `out` as `(symbol, mask)` pairs.
/// With 8-bit symbols (`wide == false`, RS(18,16)) chip `i` owns symbol
/// `2i`, spreading the chips over data and parity symbols alike; with
/// 16-bit symbols (TSD) chip `i` owns symbol `i`.
fn draw_errors<'a>(
    wide: bool,
    faults: impl Iterator<Item = &'a ChipFault>,
    rng: &mut SplitMix64,
    out: &mut Vec<(usize, u16)>,
) {
    let mut injector = FaultInjector::new(rng.next_u64());
    let bits = if wide { 16 } else { 8 };
    out.clear();
    for f in faults {
        let mask = match f.granularity {
            Granularity::Bit => 1 << rng.next_below(bits),
            Granularity::Pin => {
                let width = 2 + rng.next_below(3); // 2..=4 bits
                (((1u32 << width) - 1) << rng.next_below(bits + 1 - width)) as u16
            }
            Granularity::Chip if wide => injector.nonzero_u16(),
            Granularity::Chip => u16::from(injector.nonzero_byte()),
        };
        out.push((if wide { f.chip } else { 2 * f.chip }, mask));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(scheme: CampaignScheme) -> TrialExecutor {
        TrialExecutor::new(scheme, AccelParams::paper_accelerated(), 32)
    }

    #[test]
    fn trials_are_deterministic() {
        for scheme in CampaignScheme::ALL {
            let a = exec(scheme).run(0xFEED, 17);
            let b = exec(scheme).run(0xFEED, 17);
            assert_eq!(a, b, "{}", scheme.label());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // Reusing one scratch across many trials (in any order) must be
        // bit-identical to a fresh scratch per trial.
        for scheme in CampaignScheme::ALL {
            let e = exec(scheme);
            let mut reused = e.make_scratch();
            for t in [5u64, 0, 99, 3, 42, 3, 7] {
                let a = e.run_with(0xFEED, t, &mut reused);
                let b = e.run(0xFEED, t);
                assert_eq!(a, b, "{} trial {t}", scheme.label());
            }
        }
    }

    #[test]
    fn different_trials_differ() {
        let e = exec(CampaignScheme::Chipkill);
        let mut scratch = e.make_scratch();
        let outcomes: Vec<_> = (0..200)
            .map(|t| e.run_with(1, t, &mut scratch).outcome)
            .collect();
        assert!(
            outcomes.iter().any(|&o| o != outcomes[0]),
            "200 trials all identical"
        );
    }

    #[test]
    fn chipkill_single_fault_is_corrected() {
        // Find trials with exactly one fault and check they never DUE.
        let e = exec(CampaignScheme::Chipkill);
        let mut scratch = e.make_scratch();
        let mut seen = 0;
        for t in 0..2000 {
            let r = e.run_with(2, t, &mut scratch);
            if r.fault_count == 1 {
                seen += 1;
                assert!(
                    matches!(
                        r.outcome,
                        TrialOutcome::CeTransient | TrialOutcome::CeDegraded
                    ),
                    "single-fault trial {t} gave {:?}",
                    r.outcome
                );
            }
        }
        assert!(seen > 100, "only {seen} single-fault trials");
    }

    #[test]
    fn dve_due_requires_pair_overlap() {
        for scheme in [CampaignScheme::DveDsd, CampaignScheme::DveTsd] {
            let e = exec(scheme);
            let mut scratch = e.make_scratch();
            for t in 0..3000 {
                let r = e.run_with(3, t, &mut scratch);
                if r.outcome == TrialOutcome::Due {
                    assert!(r.overlap >= 1, "{} DUE without overlap", scheme.label());
                }
                if r.overlap == 0 {
                    assert_ne!(r.outcome, TrialOutcome::Due);
                }
            }
        }
    }

    #[test]
    fn dve_chipkill_due_requires_double_overlap() {
        let e = exec(CampaignScheme::DveChipkill);
        let mut scratch = e.make_scratch();
        for t in 0..5000 {
            let r = e.run_with(4, t, &mut scratch);
            if r.outcome == TrialOutcome::Due {
                assert!(r.overlap >= 2, "DUE with overlap {}", r.overlap);
            }
        }
    }

    #[test]
    fn fault_free_trials_are_clean_with_no_events() {
        let e = exec(CampaignScheme::DveDsd);
        let mut scratch = e.make_scratch();
        let mut seen = 0;
        for t in 0..500 {
            let r = e.run_with(5, t, &mut scratch);
            if r.fault_count == 0 {
                seen += 1;
                assert_eq!(r.outcome, TrialOutcome::Clean);
                assert!(r.events.is_empty());
            }
        }
        assert!(seen > 50, "only {seen} fault-free trials");
    }

    #[test]
    fn replay_logs_events_when_faults_bite() {
        // A permanent primary fault under a detect-only code must leave
        // recovery events in the replay log.
        let e = exec(CampaignScheme::DveTsd);
        let mut scratch = e.make_scratch();
        let mut with_faults = 0;
        let mut with_events = 0;
        for t in 0..300 {
            let r = e.run_with(6, t, &mut scratch);
            if r.fault_count > 0 {
                with_faults += 1;
                if !r.events.is_empty() {
                    with_events += 1;
                }
            }
        }
        assert!(with_faults > 50);
        assert!(
            with_events * 2 > with_faults,
            "{with_events}/{with_faults} faulty trials produced events"
        );
    }

    #[test]
    fn stratified_trials_are_deterministic() {
        for scheme in CampaignScheme::ALL {
            let e = exec(scheme);
            let plan = e.strata_plan(crate::sampler::DEFAULT_TAIL_MIN, 2_000);
            let mut s1 = e.make_scratch();
            let mut s2 = e.make_scratch();
            for t in [0u64, 1, 999, 1999, 500] {
                let a = e.run_stratified_with(0xFEED, t, &plan, &mut s1);
                let b = e.run_stratified_with(0xFEED, t, &plan, &mut s2);
                assert_eq!(a, b, "{} trial {t}", scheme.label());
            }
        }
    }

    #[test]
    fn stratified_trials_respect_their_cell() {
        let e = exec(CampaignScheme::DveDsd);
        let plan = e.strata_plan(crate::sampler::DEFAULT_TAIL_MIN, 9_000);
        let mut scratch = e.make_scratch();
        for spec in &plan.strata {
            if spec.trials == 0 {
                continue;
            }
            for t in spec.start..(spec.start + spec.trials.min(50)) {
                let r = e.run_stratified_with(0xABCD, t, &plan, &mut scratch);
                if spec.stratum.tail {
                    assert!(r.fault_count >= spec.stratum.count as usize);
                } else {
                    assert_eq!(r.fault_count, spec.stratum.count as usize);
                }
            }
        }
    }

    #[test]
    fn corruption_always_changes_the_codeword() {
        // `read` takes a fault-free copy for an intact one: that holds
        // because every mask is non-zero and fits its symbol.
        let mut rng = SplitMix64::new(11);
        let mut out = Vec::new();
        for granularity in [Granularity::Bit, Granularity::Pin, Granularity::Chip] {
            let fault = ChipFault {
                side: Side::Primary,
                chip: 4,
                granularity,
                transient: false,
            };
            for _ in 0..200 {
                draw_errors(false, std::iter::once(&fault), &mut rng, &mut out);
                assert!(
                    out[0].0 == 8 && out[0].1 != 0 && out[0].1 <= 0xFF,
                    "{out:?}"
                );
                draw_errors(true, std::iter::once(&fault), &mut rng, &mut out);
                assert!(out[0].0 == 4 && out[0].1 != 0, "{out:?}");
            }
        }
    }

    /// Corrupts 8-bit-symbol codewords: chip `i` owns symbol `2i`.
    fn corrupt8<'a>(
        cw: &mut [u8],
        faults: impl Iterator<Item = &'a ChipFault>,
        rng: &mut SplitMix64,
    ) {
        let mut injector = FaultInjector::new(rng.next_u64());
        for f in faults {
            let pos = f.chip * 2;
            match f.granularity {
                Granularity::Bit => cw[pos] ^= 1 << rng.next_below(8),
                Granularity::Pin => {
                    let width = 2 + rng.next_below(3);
                    let mask = ((1u16 << width) - 1) as u8;
                    let shift = rng.next_below(9 - width) as u8;
                    cw[pos] ^= mask << shift;
                }
                Granularity::Chip => cw[pos] ^= injector.nonzero_byte(),
            }
        }
    }

    /// Corrupts 16-bit-symbol codewords (big-endian byte pairs): chip
    /// `i` owns symbol `i`.
    fn corrupt16<'a>(
        cw: &mut [u8],
        faults: impl Iterator<Item = &'a ChipFault>,
        rng: &mut SplitMix64,
    ) {
        let mut injector = FaultInjector::new(rng.next_u64());
        for f in faults {
            let sym = f.chip;
            let mask: u16 = match f.granularity {
                Granularity::Bit => 1 << rng.next_below(16),
                Granularity::Pin => {
                    let width = 2 + rng.next_below(3);
                    let m = (1u32 << width) - 1;
                    (m << rng.next_below(17 - width)) as u16
                }
                Granularity::Chip => injector.nonzero_u16(),
            };
            cw[sym * 2] ^= (mask >> 8) as u8;
            cw[sym * 2 + 1] ^= mask as u8;
        }
    }

    /// The adjudication the executor's zero-codeword shortcut must
    /// reproduce: random golden data drawn from the trial RNG, a real
    /// encode, corruption of the dense codewords, and a dense decode (or
    /// detect-only check) of each copy judged against the golden data.
    fn reference(
        e: &TrialExecutor,
        sample: &FaultSample,
        overlap: usize,
        rng: &mut SplitMix64,
    ) -> TrialOutcome {
        let wide = e.scheme == CampaignScheme::DveTsd;
        let data_len = if wide { e.tsd.data_len() } else { 16 };
        let golden: Vec<u8> = (0..data_len / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        let clean = match e.scheme {
            CampaignScheme::DveDsd => e.dsd.encode(&golden),
            CampaignScheme::DveTsd => e.tsd.encode(&golden),
            _ => e.chipkill.encode(&golden),
        };
        let mut copy = |side| {
            let mut cw = clean.clone();
            let faults = sample.faults.iter().filter(move |f| f.side == side);
            if wide {
                corrupt16(&mut cw, faults, rng);
            } else {
                corrupt8(&mut cw, faults, rng);
            }
            cw
        };
        let primary = copy(Side::Primary);
        let replica = if e.scheme.is_replicated() {
            copy(Side::Replica)
        } else {
            clean.clone()
        };
        // The decoder's verdict on one copy, and whether the data it
        // hands back (unchanged, or corrected) is the golden data.
        let decode = |cw: &[u8]| match e.scheme {
            CampaignScheme::DveDsd => (e.dsd.check(cw), cw == clean),
            CampaignScheme::DveTsd => (e.tsd.check(cw), cw == clean),
            _ => {
                let mut work = cw.to_vec();
                let o = e
                    .chipkill
                    .decode_in_place(&mut work, &mut e.chipkill.make_scratch());
                let right = match o {
                    CheckOutcome::NoError => cw == clean,
                    _ => work[..16] == golden[..],
                };
                (o, right)
            }
        };
        let ce = if sample.all_transient(Side::Primary) {
            TrialOutcome::CeTransient
        } else {
            TrialOutcome::CeDegraded
        };
        match decode(&primary) {
            (CheckOutcome::NoError, true) => TrialOutcome::Clean,
            (CheckOutcome::Corrected { .. }, true) => ce,
            (CheckOutcome::DetectedUncorrectable { .. }, _) if e.scheme.is_replicated() => {
                match decode(&replica) {
                    (CheckOutcome::DetectedUncorrectable { .. }, _) => {
                        let lost_at = if e.scheme == CampaignScheme::DveChipkill {
                            2
                        } else {
                            1
                        };
                        if overlap >= lost_at {
                            TrialOutcome::Due
                        } else {
                            TrialOutcome::CeDegraded
                        }
                    }
                    (_, true) => ce,
                    (_, false) => TrialOutcome::Sdc,
                }
            }
            (CheckOutcome::DetectedUncorrectable { .. }, _) => TrialOutcome::Due,
            (_, false) => TrialOutcome::Sdc,
        }
    }

    #[test]
    fn zero_codeword_adjudication_matches_the_dense_reference() {
        // The committed campaign's seed and 10^5-trial plan: its DSD
        // `k>=4 all-chip` cell holds a detection escape, so every
        // scheme's SDC path is compared, not only its DUE and CE paths.
        const SEED: u64 = 0xD0E5_2021;
        for scheme in CampaignScheme::ALL {
            let e = TrialExecutor::new(scheme, AccelParams::paper_accelerated(), 0);
            let plan = e.strata_plan(crate::sampler::DEFAULT_TAIL_MIN, 100_000);
            let mut scratch = e.make_scratch();
            let mut sample = FaultSample::default();
            let mut escapes = 0;
            for spec in &plan.strata {
                let all = scheme == CampaignScheme::DveDsd && spec.stratum.all_chip;
                let n = if all {
                    spec.trials
                } else {
                    spec.trials.min(1_500)
                };
                for trial in spec.start..spec.start + n {
                    let mut rng = SplitMix64::new(derive_seed(SEED, scheme.stream(), trial));
                    e.sampler
                        .sample_stratum_into(&plan, spec, &mut rng, &mut sample);
                    if !sample.any() {
                        continue;
                    }
                    let overlap = sample.pair_overlap(|i| i);
                    let mut dense_rng = rng.clone();
                    let got = e.adjudicate(&sample, overlap, &mut rng, &mut scratch);
                    let want = reference(&e, &sample, overlap, &mut dense_rng);
                    assert_eq!(got, want, "{} trial {trial}", scheme.label());
                    // The replay draws from where adjudication left off.
                    assert_eq!(rng, dense_rng, "{} trial {trial}", scheme.label());
                    escapes += u64::from(got == TrialOutcome::Sdc);
                }
            }
            // TSD escapes (~10⁻¹³ per window) are out of reach.
            assert!(
                escapes > 0 || scheme == CampaignScheme::DveTsd,
                "no {} SDC to compare",
                scheme.label()
            );
        }
    }
}
