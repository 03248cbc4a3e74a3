//! In-band fault injection: deterministic fault schedules and the
//! recovery ledger.
//!
//! The paper's §V-B2 claim is *operational*: a detected-uncorrectable
//! DRAM error is corrected **online** from the other socket's replica,
//! and hard failures degrade the region to one copy instead of
//! crashing. Exercising that claim needs faults that arrive while the
//! timed system is running — not out-of-band unit fixtures. This
//! module provides the pieces the [`System`](crate::system::System)
//! runner orchestrates:
//!
//! * [`FaultSchedule`] — a deterministic, seed-derived (via
//!   [`dve_sim::rng::derive_seed`]) sequence of [`FaultEvent`]s that
//!   plant transient or hard faults into specific controllers mid-run
//!   (and optionally heal them later).
//! * [`ChaosConfig`] — the full chaos envelope: the schedule,
//!   inter-socket link outage windows (sends retry through them with
//!   the link's fixed bounded backoff), and paced patrol-scrub
//!   configuration.
//! * [`RecoveryLedger`] — the run-wide accounting of every read that
//!   took the recovery detour, with a [`consistent`] invariant the
//!   chaos harness checks after every run:
//!   `clean_redirects + corrected + machine_checks == detected_reads`
//!   and `repaired + degraded == corrected`.
//!
//! [`consistent`]: RecoveryLedger::consistent
//!
//! Zero-fault discipline: a `ChaosConfig` with an empty schedule, no
//! outages and no scrub leaves every demand access bit-identical to a
//! run without chaos at all — the detection check is timing-neutral,
//! so the pinned cycle-exact goldens must reproduce. The chaos harness
//! (`cargo run -p dve-bench --bin chaos`) gates on exactly that.

use dve_dram::fault::FaultDomain;
use dve_sim::rng::{derive_seed, SplitMix64};

/// RNG stream id for chaos schedules under [`derive_seed`] (one stream
/// per subsystem; campaigns, benches and workloads use their own).
pub const CHAOS_STREAM: u64 = 0xC4A0;

/// RNG stream id for the *correlated* fault sources
/// ([`CorrelatedConfig`]): thermal and aging draws hang off this stream
/// so they never collide with the static schedule sharing the seed.
pub const CORRELATED_STREAM: u64 = 0xC0E7;

/// Where a fault lands, relative to one controller. The fabric
/// materializes this into a [`FaultDomain`] using the controller's
/// *global* channel index (`socket * channels_per_socket + channel`),
/// so schedules stay valid across schemes with different channel
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The whole controller (every read detects; the §V-B2 showcase).
    Controller,
    /// The controller's channel circuitry (same blast radius here —
    /// one controller owns one channel).
    Channel,
    /// One DRAM device: corrupts one symbol of every codeword in the
    /// rank (detected by DSD/TSD, corrected in place by chipkill).
    Chip {
        /// Rank within the channel.
        rank: usize,
        /// Device index within the rank.
        chip: usize,
    },
    /// One row in one bank (wordline / row-hammer class).
    Row {
        /// Rank within the channel.
        rank: usize,
        /// Bank within the rank.
        bank: usize,
        /// Row index.
        row: u64,
    },
    /// A single cache line, by *global* line address (the byte address
    /// is `line * 64` at every controller holding a copy).
    Line {
        /// Global line address.
        line: u64,
    },
}

impl FaultSite {
    /// Materializes the site into a [`FaultDomain`] for a controller
    /// with global channel index `global_channel`.
    pub fn domain(self, global_channel: usize) -> FaultDomain {
        match self {
            FaultSite::Controller => FaultDomain::Controller,
            FaultSite::Channel => FaultDomain::Channel {
                channel: global_channel,
            },
            FaultSite::Chip { rank, chip } => FaultDomain::Chip {
                channel: global_channel,
                rank,
                chip,
            },
            FaultSite::Row { rank, bank, row } => FaultDomain::Row {
                channel: global_channel,
                rank,
                bank,
                row,
            },
            FaultSite::Line { line } => FaultDomain::Line {
                channel: global_channel,
                line,
            },
        }
    }
}

/// What a [`FaultEvent`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Plant a fault. `transient` faults are cleared by the §V-B2
    /// repair write (or a scrub rewrite); hard faults survive repair
    /// and degrade the copy.
    Plant {
        /// Where the fault lands.
        site: FaultSite,
        /// Whether the repair write clears it.
        transient: bool,
    },
    /// Heal a fault (field replacement / retraining): removes the
    /// domain and lets the runner lift any degradation it caused.
    Heal {
        /// Where the fault was.
        site: FaultSite,
    },
}

/// One scheduled fault action against one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated cycle at (or after) which the action applies.
    pub at: u64,
    /// Target node (`0..nodes`; the fabric clamps out-of-range ids so
    /// a schedule drawn for a wide topology stays valid on a narrow
    /// one).
    pub socket: usize,
    /// Target channel *within* the socket.
    pub channel: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic, time-sorted fault schedule.
///
/// # Example
///
/// ```
/// use dve::chaos::{ChaosParams, FaultSchedule};
///
/// let a = FaultSchedule::random(42, &ChaosParams::default());
/// let b = FaultSchedule::random(42, &ChaosParams::default());
/// assert_eq!(a, b, "seed-derived schedules are reproducible");
/// assert!(FaultSchedule::empty().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Parameters for [`FaultSchedule::random`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosParams {
    /// Number of faults to plant.
    pub faults: usize,
    /// Plant times are drawn uniformly from `[0, horizon)` cycles.
    pub horizon: u64,
    /// Fraction of planted faults that are transient (repair-clearable).
    pub transient_fraction: f64,
    /// If set, every *hard* fault is healed this many cycles after it
    /// was planted (bounded damage; lets runs exercise recovery).
    pub heal_after: Option<u64>,
    /// Channels per socket to target (2 for replicated schemes).
    pub channels_per_socket: usize,
    /// Line-site faults are drawn from `[0, line_span)` global lines.
    pub line_span: u64,
    /// Nodes to spread faults over (2 for the classic mirror pair; an
    /// N-node topology passes its node count so faults land on every
    /// node, not just the first two).
    pub nodes: usize,
}

impl Default for ChaosParams {
    fn default() -> ChaosParams {
        ChaosParams {
            faults: 4,
            horizon: 2_000_000,
            transient_fraction: 0.5,
            heal_after: Some(1_000_000),
            channels_per_socket: 2,
            line_span: 1 << 14,
            nodes: 2,
        }
    }
}

impl ChaosParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero horizon, a transient fraction outside `[0, 1]`,
    /// a zero heal delay (a heal scheduled at the plant instant is a
    /// no-op plant, never intended), or zero channel/line/node spans.
    pub fn validate(&self) {
        assert!(self.horizon > 0, "chaos horizon must be non-zero");
        assert!(
            (0.0..=1.0).contains(&self.transient_fraction),
            "transient fraction out of [0, 1]: {}",
            self.transient_fraction
        );
        assert!(
            self.heal_after != Some(0),
            "heal delay must be non-zero (use None for no heals)"
        );
        assert!(self.channels_per_socket > 0, "need at least one channel");
        assert!(self.line_span > 0, "line span must be non-zero");
        assert!(self.nodes > 0, "need at least one node");
    }
}

impl FaultSchedule {
    /// An empty schedule (the zero-fault golden gate).
    pub fn empty() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit events, sorting them by time
    /// (stable, so same-cycle events keep their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultSchedule {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Generates a randomized schedule, fully determined by `seed`:
    /// each event draws its parameters from an independent child
    /// generator obtained through [`derive_seed`]`(seed, CHAOS_STREAM,
    /// i)`, so schedules never correlate with workload or bench
    /// streams sharing the master seed.
    ///
    /// Random sites are drawn from the localized classes (line, row,
    /// chip) — controller/channel wipes are for directed tests, not
    /// background chaos.
    ///
    /// # Panics
    ///
    /// Panics if `p` fails [`ChaosParams::validate`].
    pub fn random(seed: u64, p: &ChaosParams) -> FaultSchedule {
        p.validate();
        let mut events = Vec::with_capacity(p.faults * 2);
        for i in 0..p.faults {
            let mut rng = SplitMix64::new(derive_seed(seed, CHAOS_STREAM, i as u64));
            let at = rng.next_below(p.horizon.max(1));
            let socket = rng.next_below(p.nodes.max(2) as u64) as usize;
            let channel = rng.next_below(p.channels_per_socket.max(1) as u64) as usize;
            let site = match rng.next_below(4) {
                0 | 1 => FaultSite::Line {
                    line: rng.next_below(p.line_span.max(1)),
                },
                2 => FaultSite::Row {
                    rank: rng.next_below(2) as usize,
                    bank: rng.next_below(16) as usize,
                    row: rng.next_below(256),
                },
                _ => FaultSite::Chip {
                    rank: rng.next_below(2) as usize,
                    chip: rng.next_below(16) as usize,
                },
            };
            let transient = rng.chance(p.transient_fraction);
            events.push(FaultEvent {
                at,
                socket,
                channel,
                action: FaultAction::Plant { site, transient },
            });
            if !transient {
                if let Some(heal_after) = p.heal_after {
                    events.push(FaultEvent {
                        at: at.saturating_add(heal_after),
                        socket,
                        channel,
                        action: FaultAction::Heal { site },
                    });
                }
            }
        }
        FaultSchedule::new(events)
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events (plants + heals).
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Paced patrol-scrub configuration: the scrubber walks
/// `lines_per_slice` lines of the first `region_bytes` of every
/// channel each `interval` cycles, through the controllers' normal
/// timed path (scrub reads occupy banks and contend with demand
/// traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Bytes of each channel covered by the patrol.
    pub region_bytes: u64,
    /// Lines read per slice.
    pub lines_per_slice: u64,
    /// Cycles between slice starts (a slice that overruns the interval
    /// delays the next one — the patrol never overlaps itself).
    pub interval: u64,
}

impl Default for ScrubConfig {
    fn default() -> ScrubConfig {
        ScrubConfig {
            region_bytes: 1 << 20,
            lines_per_slice: 32,
            interval: 100_000,
        }
    }
}

impl ScrubConfig {
    /// Validates the patrol parameters.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero (a zero-length patrol region, empty
    /// slice, or zero interval silently degenerates the patrol).
    pub fn validate(&self) {
        assert!(self.region_bytes > 0, "scrub region must be non-zero");
        assert!(self.lines_per_slice > 0, "scrub slice must be non-empty");
        assert!(self.interval > 0, "scrub interval must be non-zero");
    }
}

/// Outage windows scoped to single directed edges of the topology
/// graph: `(from, to, windows)` tuples.
pub type EdgeOutages = Vec<(usize, usize, Vec<(u64, u64)>)>;

/// Validates one outage-window list: every window non-empty half-open
/// `[start, end)`, sorted, non-overlapping.
///
/// # Panics
///
/// Panics with `what` in the message on the first violation.
fn validate_windows(what: &str, windows: &[(u64, u64)]) {
    for &(start, end) in windows {
        assert!(start < end, "{what}: zero-length window [{start}, {end})");
    }
    for w in windows.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "{what}: windows [{}, {}) and [{}, {}) overlap or are unsorted",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }
}

/// Which correlated source planted a fault — the key the
/// [`RecoveryLedger`] per-source counters partition over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSourceKind {
    /// Row-hammer pressure crossing the activation threshold.
    Hammer,
    /// Arrhenius-scaled thermal arrivals.
    Thermal,
    /// Wear-out arrivals ramping over simulated time.
    Aging,
}

/// Row-hammer fault source: watches the controllers' own
/// [`RowHammerMonitor`](dve_dram::rowhammer::RowHammerMonitor)s (fed by
/// real demand activations) and plants bit-flips in the blast radius of
/// any row whose in-window activation count crosses `threshold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerParams {
    /// Activation-count trip point (`rows_over(threshold)`); inert at
    /// `u64::MAX`.
    pub threshold: u64,
    /// Whether the planted flips are transient (repair-clearable) or
    /// hard (the copy degrades).
    pub transient: bool,
    /// Also plant the same rows on the survivor node — both copies bad
    /// is the machine-check rung of the severity ladder.
    pub both_copies: bool,
    /// Cycles between monitor polls.
    pub poll_interval: u64,
}

impl HammerParams {
    /// Armed but inert: polls run, the threshold is never crossed.
    pub fn inert() -> HammerParams {
        HammerParams {
            threshold: u64::MAX,
            transient: true,
            both_copies: false,
            poll_interval: 5_000,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero poll interval or zero threshold (every row
    /// would trip on its first activation — use a directed schedule for
    /// that).
    pub fn validate(&self) {
        assert!(
            self.poll_interval > 0,
            "hammer poll interval must be non-zero"
        );
        assert!(self.threshold > 0, "hammer threshold must be non-zero");
    }
}

/// Thermal fault source: per-rank Bernoulli arrivals whose rates are
/// Arrhenius-scaled from the live
/// [`ThermalProfile`](dve_dram::thermal::ThermalProfile) — hotter ranks
/// fail proportionally more often, referenced to the coolest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Per-poll-interval fault probability at the *coolest* rank; every
    /// other rank scales it up by its Arrhenius risk factor. Inert at
    /// `0.0`.
    pub base_rate: f64,
    /// Arrhenius activation energy in eV (typical DRAM wear-out is
    /// 0.5–1.1 eV).
    pub ea_ev: f64,
    /// Fraction of thermal plants that are transient.
    pub transient_fraction: f64,
    /// Cycles between arrival draws.
    pub poll_interval: u64,
}

impl ThermalParams {
    /// Armed but inert: draws run, the rate is zero.
    pub fn inert() -> ThermalParams {
        ThermalParams {
            base_rate: 0.0,
            ea_ev: 0.6,
            transient_fraction: 0.5,
            poll_interval: 10_000,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a base rate or transient fraction outside `[0, 1]`, a
    /// negative activation energy, or a zero poll interval.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.base_rate),
            "thermal base rate out of [0, 1]: {}",
            self.base_rate
        );
        assert!(self.ea_ev >= 0.0, "activation energy must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.transient_fraction),
            "thermal transient fraction out of [0, 1]: {}",
            self.transient_fraction
        );
        assert!(
            self.poll_interval > 0,
            "thermal poll interval must be non-zero"
        );
    }
}

/// Aging fault source: hard line faults whose per-interval arrival
/// probability ramps linearly with simulated time (FIT grows as the
/// device wears out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingParams {
    /// Per-poll-interval plant probability at `t = 0`. Inert at `0.0`
    /// with a zero ramp.
    pub base_rate: f64,
    /// Probability added per million simulated cycles of age.
    pub ramp_per_mcycle: f64,
    /// Line faults are drawn from `[0, line_span)` global lines.
    pub line_span: u64,
    /// Cycles between arrival draws.
    pub poll_interval: u64,
}

impl AgingParams {
    /// Armed but inert: draws run, the rate stays zero forever.
    pub fn inert() -> AgingParams {
        AgingParams {
            base_rate: 0.0,
            ramp_per_mcycle: 0.0,
            line_span: 1 << 14,
            poll_interval: 10_000,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a base rate outside `[0, 1]`, a negative or
    /// non-finite ramp, or zero line span / poll interval.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.base_rate),
            "aging base rate out of [0, 1]: {}",
            self.base_rate
        );
        assert!(
            self.ramp_per_mcycle.is_finite() && self.ramp_per_mcycle >= 0.0,
            "aging ramp must be finite and non-negative"
        );
        assert!(self.line_span > 0, "aging line span must be non-zero");
        assert!(
            self.poll_interval > 0,
            "aging poll interval must be non-zero"
        );
    }
}

/// The correlated-source arm of the chaos envelope: which workload- and
/// environment-coupled fault sources run alongside the static schedule,
/// and the seed their stochastic draws derive from (via
/// [`CORRELATED_STREAM`], so they never alias the schedule's stream).
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedConfig {
    /// Master seed for the sources' own RNG streams.
    pub seed: u64,
    /// Row-hammer source, if armed.
    pub hammer: Option<HammerParams>,
    /// Thermal source, if armed.
    pub thermal: Option<ThermalParams>,
    /// Aging source, if armed.
    pub aging: Option<AgingParams>,
}

impl CorrelatedConfig {
    /// All three sources armed but inert — the golden-preservation
    /// configuration: polls and draws run on the sim-time grid yet no
    /// fault is ever planted, so pinned cycle counts must reproduce.
    pub fn inert(seed: u64) -> CorrelatedConfig {
        CorrelatedConfig {
            seed,
            hammer: Some(HammerParams::inert()),
            thermal: Some(ThermalParams::inert()),
            aging: Some(AgingParams::inert()),
        }
    }

    /// Validates every armed source.
    ///
    /// # Panics
    ///
    /// Panics if any armed source fails its own validation.
    pub fn validate(&self) {
        if let Some(h) = &self.hammer {
            h.validate();
        }
        if let Some(t) = &self.thermal {
            t.validate();
        }
        if let Some(a) = &self.aging {
            a.validate();
        }
    }
}

/// The full chaos envelope for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// The fault schedule.
    pub schedule: FaultSchedule,
    /// Inter-socket link outage windows, sorted, non-overlapping,
    /// half-open `[start, end)` in cycles. While a window is open the
    /// engine falls back to local-copy-only service (§V-E) and
    /// re-syncs on recovery.
    pub link_outages: Vec<(u64, u64)>,
    /// Per-edge outage windows `(from, to, windows)` — same format as
    /// [`ChaosConfig::link_outages`] but scoped to one directed edge of
    /// the topology graph. Outages on one edge never gate sends on any
    /// other edge (the independence property the topology tests pin).
    pub edge_outages: EdgeOutages,
    /// Paced patrol scrub, if enabled.
    pub scrub: Option<ScrubConfig>,
    /// Correlated fault sources (hammer / thermal / aging), if armed.
    pub correlated: Option<CorrelatedConfig>,
}

impl ChaosConfig {
    /// A chaos layer that is *armed but inert*: no faults, no outages,
    /// no scrub. Runs configured with this must be bit-identical to
    /// runs without any chaos config — the golden gate.
    pub fn inert() -> ChaosConfig {
        ChaosConfig {
            schedule: FaultSchedule::empty(),
            link_outages: Vec::new(),
            edge_outages: Vec::new(),
            scrub: None,
            correlated: None,
        }
    }

    /// Randomized chaos: a seed-derived fault schedule, nothing else
    /// armed.
    pub fn random(seed: u64, params: &ChaosParams) -> ChaosConfig {
        ChaosConfig {
            schedule: FaultSchedule::random(seed, params),
            ..ChaosConfig::inert()
        }
    }

    /// Validates the whole envelope: outage windows (link and per-edge)
    /// must be non-empty, sorted and non-overlapping; scrub and every
    /// armed correlated source must pass their own validation. The
    /// system runner calls this when chaos is armed.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn validate(&self) {
        validate_windows("link outages", &self.link_outages);
        for (from, to, windows) in &self.edge_outages {
            validate_windows(&format!("edge ({from} -> {to}) outages"), windows);
        }
        if let Some(s) = &self.scrub {
            s.validate();
        }
        if let Some(c) = &self.correlated {
            c.validate();
        }
    }
}

/// Run-wide accounting of the in-band recovery machinery. Every
/// counter is cumulative over the run (warm-up included — faults do
/// not respect measurement regions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryLedger {
    /// Demand reads that entered the recovery path: the local read
    /// reported detected-uncorrectable, or the copy was already
    /// degraded and the read was redirected to the survivor.
    pub detected_reads: u64,
    /// Redirected reads of already-degraded copies that the survivor
    /// served cleanly.
    pub clean_redirects: u64,
    /// Detected reads the other copy corrected (CE): the §V-B2 remote
    /// fetch succeeded.
    pub corrected: u64,
    /// Corrected reads whose repair-and-reread succeeded — the fault
    /// was transient (`CorrectedTransient`).
    pub repaired: u64,
    /// Corrected reads whose re-read still failed — the copy is hard
    /// dead and the line degraded to single-copy service
    /// (`CorrectedDegraded`).
    pub degraded: u64,
    /// Reads where every copy failed (DUE → machine-check exception).
    pub machine_checks: u64,
    /// Scrub slices executed.
    pub scrub_slices: u64,
    /// Lines patrol-read by the scrubber.
    pub scrub_lines: u64,
    /// Scrub reads corrected in place by local ECC.
    pub scrub_corrected: u64,
    /// Scrub reads that detected an uncorrectable error.
    pub scrub_detected: u64,
    /// Scrub detections escalated through the §V-B2 remote-correction
    /// path proactively.
    pub scrub_escalations: u64,
    /// Link sends that needed at least one backoff retry.
    pub link_retries: u64,
    /// Link sends that exhausted the retry budget (fell back to
    /// local-copy-only service).
    pub link_failed_sends: u64,
    /// Fault domains actually planted (double-plants not counted).
    pub faults_planted: u64,
    /// Fault domains actually healed (spurious heals not counted).
    pub faults_healed: u64,
    /// Plants attributed to the row-hammer source (subset of
    /// `faults_planted`).
    pub hammer_plants: u64,
    /// Plants attributed to the thermal source (subset of
    /// `faults_planted`).
    pub thermal_plants: u64,
    /// Plants attributed to the aging source (subset of
    /// `faults_planted`).
    pub aging_plants: u64,
}

impl RecoveryLedger {
    /// The ledger-consistency invariant the chaos harness checks after
    /// every run:
    ///
    /// * every detected-path read resolves exactly one way:
    ///   `clean_redirects + corrected + machine_checks ==
    ///   detected_reads`;
    /// * every correction either repaired the copy or degraded it:
    ///   `repaired + degraded == corrected` (which implies the paper's
    ///   weaker `degraded <= corrected`);
    /// * the scrub report partition holds:
    ///   `scrub_escalations <= scrub_detected <= scrub_lines`;
    /// * source-attributed plants partition into the planted total:
    ///   `hammer_plants + thermal_plants + aging_plants <=
    ///   faults_planted` (the remainder came from the static schedule).
    pub fn consistent(&self) -> bool {
        self.clean_redirects + self.corrected + self.machine_checks == self.detected_reads
            && self.repaired + self.degraded == self.corrected
            && self.scrub_escalations <= self.scrub_detected
            && self.scrub_detected <= self.scrub_lines
            && self.hammer_plants + self.thermal_plants + self.aging_plants <= self.faults_planted
    }

    /// Whether any recovery activity happened at all (zero-fault runs
    /// must report `false`).
    pub fn any_activity(&self) -> bool {
        self.detected_reads > 0
            || self.scrub_detected > 0
            || self.scrub_corrected > 0
            || self.link_retries > 0
            || self.link_failed_sends > 0
            || self.faults_planted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic_and_sorted() {
        let p = ChaosParams::default();
        let a = FaultSchedule::random(7, &p);
        let b = FaultSchedule::random(7, &p);
        assert_eq!(a, b);
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        let c = FaultSchedule::random(8, &p);
        assert_ne!(a, c, "different seeds, different schedules");
    }

    #[test]
    fn hard_faults_get_heals_when_requested() {
        let p = ChaosParams {
            faults: 16,
            transient_fraction: 0.0,
            heal_after: Some(500),
            ..ChaosParams::default()
        };
        let s = FaultSchedule::random(3, &p);
        let plants = s
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Plant { .. }))
            .count();
        let heals = s
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Heal { .. }))
            .count();
        assert_eq!(plants, 16);
        assert_eq!(heals, 16, "every hard fault is healed");
        // Each heal matches a plant's site + offset.
        for e in s.events() {
            if let FaultAction::Heal { site } = e.action {
                assert!(s.events().iter().any(|p_ev| matches!(
                    p_ev.action,
                    FaultAction::Plant { site: ps, transient: false } if ps == site
                        && p_ev.at + 500 == e.at
                        && p_ev.socket == e.socket
                        && p_ev.channel == e.channel
                )));
            }
        }
    }

    #[test]
    fn transient_faults_are_never_healed_by_schedule() {
        let p = ChaosParams {
            faults: 16,
            transient_fraction: 1.0,
            heal_after: Some(500),
            ..ChaosParams::default()
        };
        let s = FaultSchedule::random(3, &p);
        assert!(s.events().iter().all(|e| matches!(
            e.action,
            FaultAction::Plant {
                transient: true,
                ..
            }
        )));
    }

    #[test]
    fn site_materializes_with_global_channel() {
        assert_eq!(
            FaultSite::Chip { rank: 1, chip: 3 }.domain(3),
            FaultDomain::Chip {
                channel: 3,
                rank: 1,
                chip: 3
            }
        );
        assert_eq!(
            FaultSite::Line { line: 42 }.domain(1),
            FaultDomain::Line {
                channel: 1,
                line: 42
            }
        );
        assert_eq!(FaultSite::Controller.domain(0), FaultDomain::Controller);
    }

    #[test]
    fn ledger_consistency_invariant() {
        let mut l = RecoveryLedger::default();
        assert!(l.consistent(), "empty ledger is consistent");
        assert!(!l.any_activity());
        l.detected_reads = 10;
        l.clean_redirects = 2;
        l.corrected = 7;
        l.repaired = 4;
        l.degraded = 3;
        l.machine_checks = 1;
        assert!(l.consistent());
        assert!(l.any_activity());
        l.degraded = 4; // repaired + degraded > corrected
        assert!(!l.consistent());
        l.degraded = 3;
        l.machine_checks = 2; // partition broken
        assert!(!l.consistent());
    }

    #[test]
    fn inert_chaos_has_nothing_scheduled() {
        let c = ChaosConfig::inert();
        assert!(c.schedule.is_empty());
        assert!(c.link_outages.is_empty());
        assert!(c.scrub.is_none());
        assert!(c.correlated.is_none());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "horizon must be non-zero")]
    fn zero_horizon_rejected() {
        FaultSchedule::random(
            1,
            &ChaosParams {
                horizon: 0,
                ..ChaosParams::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "transient fraction out of [0, 1]")]
    fn out_of_range_transient_fraction_rejected() {
        ChaosParams {
            transient_fraction: 1.5,
            ..ChaosParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "heal delay must be non-zero")]
    fn zero_heal_delay_rejected() {
        ChaosParams {
            heal_after: Some(0),
            ..ChaosParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "line span must be non-zero")]
    fn zero_line_span_rejected() {
        ChaosParams {
            line_span: 0,
            ..ChaosParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero-length window")]
    fn zero_length_outage_window_rejected() {
        ChaosConfig {
            link_outages: vec![(500, 500)],
            ..ChaosConfig::inert()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "overlap or are unsorted")]
    fn overlapping_edge_outages_rejected() {
        ChaosConfig {
            edge_outages: vec![(0, 1, vec![(100, 300), (200, 400)])],
            ..ChaosConfig::inert()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "scrub interval must be non-zero")]
    fn zero_scrub_interval_rejected() {
        ChaosConfig {
            scrub: Some(ScrubConfig {
                interval: 0,
                ..ScrubConfig::default()
            }),
            ..ChaosConfig::inert()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "thermal base rate out of [0, 1]")]
    fn thermal_rate_above_one_rejected() {
        ThermalParams {
            base_rate: 1.2,
            ..ThermalParams::inert()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "aging base rate out of [0, 1]")]
    fn negative_aging_rate_rejected() {
        AgingParams {
            base_rate: -0.1,
            ..AgingParams::inert()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "hammer poll interval must be non-zero")]
    fn zero_hammer_poll_rejected() {
        HammerParams {
            poll_interval: 0,
            ..HammerParams::inert()
        }
        .validate();
    }

    #[test]
    fn inert_correlated_sources_validate_and_compare() {
        let a = CorrelatedConfig::inert(42);
        let b = CorrelatedConfig::inert(42);
        assert_eq!(a, b);
        a.validate();
        ChaosConfig {
            correlated: Some(a),
            ..ChaosConfig::inert()
        }
        .validate();
    }

    #[test]
    fn per_source_plants_bound_by_total() {
        let mut l = RecoveryLedger {
            faults_planted: 5,
            hammer_plants: 2,
            thermal_plants: 2,
            aging_plants: 1,
            ..RecoveryLedger::default()
        };
        assert!(l.consistent());
        l.aging_plants = 2; // attributed > planted
        assert!(!l.consistent());
    }
}
