//! One campaign trial: fault sampling, real-codec adjudication, and a
//! system-level replay with recovery-event logging.
//!
//! A trial observes one accelerated scrub-interval window:
//!
//! 1. [`FaultSampler`] draws per-chip failures for the DIMM (pair).
//! 2. **Codeword adjudication**: golden data is encoded with the
//!    scheme's real code, failed chips corrupt their symbol (through
//!    `dve-ecc`'s injector), and the real decoder classifies the result
//!    against the golden data — so detection misses and RS
//!    miscorrections produce *bona fide* SDC outcomes rather than
//!    modeled ones.
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
//! Campaign throughput is decode-pipeline-bound, so the executor threads
//! a per-worker [`TrialScratch`] (the fault sample, golden data, codeword
//! and work buffers, the RS decoder scratch, the replay address list and
//! the recovery-event buffer) through every trial. With the system
//! replay off (`replay_ops == 0`, as in stratified campaigns), a trial —
//! faulty or not — touches the heap zero times once the scratch has
//! seen a full window; `tests/alloc_free.rs` counts. The replay builds a
//! fresh memory model per faulty trial and allocates. Results remain
//! **bit-identical** for any worker count and to the pre-scratch
//! implementation: the RNG draw order is unchanged and every buffer is
//! fully overwritten per trial.

use crate::sampler::{ChipFault, FaultSample, FaultSampler, Granularity, Side, StrataPlan};
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

impl TrialOutcome {
    /// Stable single-byte encoding for the binary event log.
    pub fn code(&self) -> u8 {
        match self {
            TrialOutcome::Clean => 0,
            TrialOutcome::CeTransient => 1,
            TrialOutcome::CeDegraded => 2,
            TrialOutcome::Due => 3,
            TrialOutcome::Sdc => 4,
        }
    }
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
    /// Golden dataword drawn per trial.
    golden: Vec<u8>,
    /// The clean encoded codeword.
    clean_cw: Vec<u8>,
    /// Primary copy after fault corruption.
    primary: Vec<u8>,
    /// Replica copy after fault corruption.
    replica: Vec<u8>,
    /// Decoder working copy (decoded in place).
    work: Vec<u8>,
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

    /// Builds a scratch sized for this executor's largest codeword.
    pub fn make_scratch(&self) -> TrialScratch {
        let max_cw = self.chipkill.codeword_len().max(self.tsd.codeword_len());
        let max_data = self.chipkill.data_len().max(self.tsd.data_len());
        let slots = 2 * self.sampler.params().chips_per_dimm;
        TrialScratch {
            sample: FaultSample {
                faults: Vec::with_capacity(slots),
            },
            golden: Vec::with_capacity(max_data),
            clean_cw: Vec::with_capacity(max_cw),
            primary: Vec::with_capacity(max_cw),
            replica: Vec::with_capacity(max_cw),
            work: Vec::with_capacity(max_cw),
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
        scratch.events.clear();
        let seed = derive_seed(master_seed, self.scheme.stream(), trial);
        let mut rng = SplitMix64::new(seed);
        let spec = &plan.strata[plan.stratum_of(trial)];
        self.sampler
            .sample_stratum_into(plan, spec, &mut rng, &mut scratch.sample);
        self.finish_trial(trial, &mut rng, scratch)
    }

    /// Shared trial tail: adjudicate the window in `scratch.sample` and
    /// replay it through the system model. Fault-free windows — the
    /// common case — short-circuit to `Clean`: every adjudicator maps an
    /// uncorrupted codeword to `Clean` and the replay is a no-op without
    /// faults, so skipping both is outcome-identical and saves the
    /// encode/decode.
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

    fn adjudicate(
        &self,
        sample: &FaultSample,
        overlap: usize,
        rng: &mut SplitMix64,
        s: &mut TrialScratch,
    ) -> TrialOutcome {
        match self.scheme {
            CampaignScheme::Chipkill => self.adjudicate_chipkill(sample, rng, s),
            CampaignScheme::DveDsd => {
                self.adjudicate_detect_only(&self.dsd, sample, overlap, rng, s)
            }
            CampaignScheme::DveTsd => {
                self.adjudicate_detect_only(&self.tsd, sample, overlap, rng, s)
            }
            CampaignScheme::DveChipkill => self.adjudicate_dve_chipkill(sample, overlap, rng, s),
        }
    }

    fn fill_golden(golden: &mut Vec<u8>, len: usize, rng: &mut SplitMix64) {
        golden.clear();
        for _ in 0..len / 8 {
            golden.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        for _ in 0..len % 8 {
            golden.push(rng.next_u64() as u8);
        }
    }

    fn ce(&self, sample: &FaultSample) -> TrialOutcome {
        if sample.all_transient(Side::Primary) {
            TrialOutcome::CeTransient
        } else {
            TrialOutcome::CeDegraded
        }
    }

    /// Chipkill alone: one DIMM, local correction, no replica.
    fn adjudicate_chipkill(
        &self,
        sample: &FaultSample,
        rng: &mut SplitMix64,
        s: &mut TrialScratch,
    ) -> TrialOutcome {
        Self::fill_golden(&mut s.golden, self.chipkill.data_len(), rng);
        s.clean_cw.resize(self.chipkill.codeword_len(), 0);
        self.chipkill.encode_into(&s.golden, &mut s.clean_cw);
        s.primary.clear();
        s.primary.extend_from_slice(&s.clean_cw);
        corrupt8(&mut s.primary, sample.faults.iter(), rng);
        let corrupted = s.primary != s.clean_cw;
        s.work.clear();
        s.work.extend_from_slice(&s.primary);
        match self.chipkill.decode_in_place(&mut s.work, &mut s.rs) {
            CheckOutcome::NoError => {
                if corrupted {
                    TrialOutcome::Sdc
                } else {
                    TrialOutcome::Clean
                }
            }
            CheckOutcome::Corrected { .. } => {
                if s.work[..self.chipkill.data_len()] == s.golden[..] {
                    self.ce(sample)
                } else {
                    TrialOutcome::Sdc // miscorrection
                }
            }
            CheckOutcome::DetectedUncorrectable { .. } => TrialOutcome::Due,
        }
    }

    /// Dvé with a detect-only code: detection local, correction via the
    /// replica; when both copies are flagged, symbol-union
    /// reconstruction succeeds unless a chip pair overlaps.
    fn adjudicate_detect_only<C: DetectionCode>(
        &self,
        code: &C,
        sample: &FaultSample,
        overlap: usize,
        rng: &mut SplitMix64,
        s: &mut TrialScratch,
    ) -> TrialOutcome {
        Self::fill_golden(&mut s.golden, code.data_len(), rng);
        s.clean_cw.resize(code.codeword_len(), 0);
        code.encode_into(&s.golden, &mut s.clean_cw);
        let sixteen_bit = matches!(self.scheme, CampaignScheme::DveTsd);

        s.primary.clear();
        s.primary.extend_from_slice(&s.clean_cw);
        s.replica.clear();
        s.replica.extend_from_slice(&s.clean_cw);
        let prim_faults = sample.faults.iter().filter(|f| f.side == Side::Primary);
        let repl_faults = sample.faults.iter().filter(|f| f.side == Side::Replica);
        if sixteen_bit {
            corrupt16(&mut s.primary, prim_faults, rng);
            corrupt16(&mut s.replica, repl_faults, rng);
        } else {
            corrupt8(&mut s.primary, prim_faults, rng);
            corrupt8(&mut s.replica, repl_faults, rng);
        }

        match code.check(&s.primary) {
            CheckOutcome::NoError => {
                if s.primary != s.clean_cw {
                    TrialOutcome::Sdc // detection miss on the home copy
                } else {
                    TrialOutcome::Clean
                }
            }
            CheckOutcome::Corrected { .. } => unreachable!("detect-only code corrected"),
            CheckOutcome::DetectedUncorrectable { .. } => match code.check(&s.replica) {
                CheckOutcome::NoError => {
                    if s.replica != s.clean_cw {
                        TrialOutcome::Sdc // silent wrong data served by replica
                    } else {
                        self.ce(sample)
                    }
                }
                CheckOutcome::Corrected { .. } => unreachable!("detect-only code corrected"),
                CheckOutcome::DetectedUncorrectable { .. } => {
                    // Both copies flagged: recover symbol-by-symbol from
                    // whichever copy holds each symbol intact. Data is
                    // lost only where the same pair failed on both sides.
                    if overlap >= 1 {
                        TrialOutcome::Due
                    } else {
                        TrialOutcome::CeDegraded
                    }
                }
            },
        }
    }

    /// Dvé over Chipkill: each copy locally corrects one symbol; the
    /// replica (then symbol-union reconstruction) handles the rest.
    fn adjudicate_dve_chipkill(
        &self,
        sample: &FaultSample,
        overlap: usize,
        rng: &mut SplitMix64,
        s: &mut TrialScratch,
    ) -> TrialOutcome {
        Self::fill_golden(&mut s.golden, self.chipkill.data_len(), rng);
        s.clean_cw.resize(self.chipkill.codeword_len(), 0);
        self.chipkill.encode_into(&s.golden, &mut s.clean_cw);
        s.primary.clear();
        s.primary.extend_from_slice(&s.clean_cw);
        s.replica.clear();
        s.replica.extend_from_slice(&s.clean_cw);
        corrupt8(
            &mut s.primary,
            sample.faults.iter().filter(|f| f.side == Side::Primary),
            rng,
        );
        corrupt8(
            &mut s.replica,
            sample.faults.iter().filter(|f| f.side == Side::Replica),
            rng,
        );
        s.work.clear();
        s.work.extend_from_slice(&s.primary);
        match self.chipkill.decode_in_place(&mut s.work, &mut s.rs) {
            CheckOutcome::NoError => {
                if s.primary != s.clean_cw {
                    TrialOutcome::Sdc
                } else {
                    TrialOutcome::Clean
                }
            }
            CheckOutcome::Corrected { .. } => {
                if s.work[..self.chipkill.data_len()] == s.golden[..] {
                    self.ce(sample)
                } else {
                    TrialOutcome::Sdc // local miscorrection, replica never asked
                }
            }
            CheckOutcome::DetectedUncorrectable { .. } => {
                s.work.clear();
                s.work.extend_from_slice(&s.replica);
                match self.chipkill.decode_in_place(&mut s.work, &mut s.rs) {
                    CheckOutcome::NoError => {
                        if s.replica != s.clean_cw {
                            TrialOutcome::Sdc
                        } else {
                            self.ce(sample)
                        }
                    }
                    CheckOutcome::Corrected { .. } => {
                        if s.work[..self.chipkill.data_len()] == s.golden[..] {
                            self.ce(sample)
                        } else {
                            TrialOutcome::Sdc
                        }
                    }
                    CheckOutcome::DetectedUncorrectable { .. } => {
                        // Both beyond local correction: with one symbol
                        // locally reconstructible per copy, data is lost
                        // only at two or more pair overlaps.
                        if overlap >= 2 {
                            TrialOutcome::Due
                        } else {
                            TrialOutcome::CeDegraded
                        }
                    }
                }
            }
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

// ---- symbol corruption helpers -------------------------------------

/// Corrupts 8-bit-symbol codewords: chip `i` owns symbol `2i` (the repo
/// maps one chip to one RS(18,16) symbol; spreading over even positions
/// covers data and parity symbols alike).
fn corrupt8<'a>(cw: &mut [u8], faults: impl Iterator<Item = &'a ChipFault>, rng: &mut SplitMix64) {
    let mut injector = FaultInjector::new(rng.next_u64());
    for f in faults {
        let pos = f.chip * 2;
        assert!(pos < cw.len(), "chip symbol out of codeword");
        match f.granularity {
            Granularity::Bit => {
                cw[pos] ^= 1 << rng.next_below(8);
            }
            Granularity::Pin => {
                let width = 2 + rng.next_below(3); // 2..=4 bits
                let mask = ((1u16 << width) - 1) as u8;
                let shift = rng.next_below(9 - width) as u8;
                cw[pos] ^= mask << shift;
            }
            Granularity::Chip => {
                cw[pos] ^= injector.nonzero_byte();
            }
        }
    }
}

/// Corrupts 16-bit-symbol codewords (big-endian byte pairs): chip `i`
/// owns symbol `i`.
fn corrupt16<'a>(cw: &mut [u8], faults: impl Iterator<Item = &'a ChipFault>, rng: &mut SplitMix64) {
    let mut injector = FaultInjector::new(rng.next_u64());
    for f in faults {
        let sym = f.chip;
        assert!(sym * 2 + 1 < cw.len(), "chip symbol out of codeword");
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
        let mut rng = SplitMix64::new(11);
        let fault = ChipFault {
            side: Side::Primary,
            chip: 4,
            granularity: Granularity::Pin,
            transient: false,
        };
        for _ in 0..200 {
            let mut cw = vec![0u8; 18];
            corrupt8(&mut cw, std::iter::once(&fault), &mut rng);
            assert!(cw.iter().any(|&b| b != 0));
            let mut cw16 = vec![0u8; 70];
            corrupt16(&mut cw16, std::iter::once(&fault), &mut rng);
            assert!(cw16.iter().any(|&b| b != 0));
        }
    }
}
