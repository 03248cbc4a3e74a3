//! Correlated, workload-coupled fault sources.
//!
//! The static [`FaultSchedule`](crate::chaos::FaultSchedule) injects
//! faults obliviously — useful for directed tests, but real DRAM
//! failures correlate with what the machine is doing. This module
//! supplies the [`FaultSource`] trait and the three correlated sources
//! the [`System`](crate::system::System) runner polls in-band:
//!
//! * [`HammerSource`] — watches the controllers' own
//!   [`RowHammerMonitor`](dve_dram::rowhammer::RowHammerMonitor)s (fed
//!   by real demand activations) and plants bit-flips across the blast
//!   radius of any row whose in-window activation count crosses the
//!   configured threshold. Entirely demand-driven: no RNG at all.
//! * [`ThermalSource`] — per-rank Bernoulli fault arrivals whose rates
//!   are Arrhenius-scaled from the controllers'
//!   [`ThermalProfile`] (hotter
//!   ranks fail proportionally more often).
//! * [`AgingSource`] — hard line faults whose arrival probability ramps
//!   linearly with simulated time (wear-out FIT growth).
//!
//! # Determinism
//!
//! Correlated runs must be bit-reproducible at any
//! [`pdes_workers`](crate::config::SystemConfig::pdes_workers) count.
//! Two properties guarantee it:
//!
//! 1. **Fixed draw grid.** The stochastic sources (thermal, aging)
//!    partition simulated time into fixed `poll_interval` windows and
//!    seed an independent child generator per *interval index* via
//!    [`derive_seed`]`(source_master, CORRELATED_STREAM, k)`. A poll at
//!    time `now` processes every whole interval that elapsed since the
//!    previous poll, so the draw sequence depends only on the sim-time
//!    grid — never on how often the runner happened to poll.
//! 2. **Observation-only coupling.** [`HammerSource`] reads monitor
//!    state the deterministic run already produced; the trace supply is
//!    bit-identical at every worker count (DESIGN.md §14), so the
//!    observed activation counts are too.
//!
//! Armed-but-inert sources (threshold `u64::MAX`, rates `0.0`) poll on
//! the same grid but never emit an event, and polling never touches the
//! timed state — so every pinned golden replays bit-identically, which
//! the goldens suite and the `chaos` harness both gate.

use std::collections::HashSet;

use dve_dram::thermal::ThermalProfile;
use dve_sim::rng::{derive_seed, SplitMix64};

use crate::chaos::{
    AgingParams, CorrelatedConfig, FaultAction, FaultEvent, FaultSite, FaultSourceKind,
    HammerParams, ThermalParams, CORRELATED_STREAM,
};
use crate::fabric_impl::SystemFabric;

/// A correlated fault source the system runner polls in-band.
///
/// Sources observe the fabric (read-only) and emit [`FaultEvent`]s the
/// runner applies through the same path as scheduled chaos, tagged with
/// their [`FaultSourceKind`] so the recovery ledger attributes the
/// plants per source.
pub trait FaultSource: std::fmt::Debug + Send {
    /// Which ledger bucket this source's plants land in.
    fn kind(&self) -> FaultSourceKind;

    /// The next simulated cycle at which the source wants to be polled.
    fn next_poll(&self) -> u64;

    /// Polls the source at `now` (`>= next_poll`), observing the fabric
    /// and returning the fault events to apply. Implementations must
    /// advance [`next_poll`](FaultSource::next_poll) strictly past
    /// `now` and must process *every* grid interval that elapsed, so
    /// the emitted sequence is independent of the poll cadence.
    fn poll(&mut self, now: u64, fabric: &SystemFabric) -> Vec<FaultEvent>;
}

/// Builds the armed sources of a [`CorrelatedConfig`] against the
/// fabric's actual geometry (node count, channels per node, ranks and
/// devices per channel are read from the live controllers).
pub fn build_sources(cc: &CorrelatedConfig, fabric: &SystemFabric) -> Vec<Box<dyn FaultSource>> {
    cc.validate();
    let mut v: Vec<Box<dyn FaultSource>> = Vec::new();
    if let Some(h) = cc.hammer {
        v.push(Box::new(HammerSource::new(h)));
    }
    if let Some(t) = cc.thermal {
        v.push(Box::new(ThermalSource::new(t, cc.seed, fabric)));
    }
    if let Some(a) = cc.aging {
        v.push(Box::new(AgingSource::new(a, cc.seed, fabric)));
    }
    v
}

/// Row-hammer source: plants bit-flips when demand traffic hammers a
/// row past the threshold. See the module docs for the coupling model.
#[derive(Debug)]
pub struct HammerSource {
    params: HammerParams,
    next_poll: u64,
    /// Rows already planted this run (`(node, channel, flat_bank,
    /// row)`), so a row that stays hot does not re-plant every poll.
    planted: HashSet<(usize, usize, usize, u64)>,
}

impl HammerSource {
    /// Creates the source.
    pub fn new(params: HammerParams) -> HammerSource {
        params.validate();
        HammerSource {
            next_poll: params.poll_interval,
            params,
            planted: HashSet::new(),
        }
    }
}

impl FaultSource for HammerSource {
    fn kind(&self) -> FaultSourceKind {
        FaultSourceKind::Hammer
    }

    fn next_poll(&self) -> u64 {
        self.next_poll
    }

    fn poll(&mut self, now: u64, fabric: &SystemFabric) -> Vec<FaultEvent> {
        // Snap the poll grid past `now`. The monitor holds cumulative
        // in-window counts, so evaluating once at `now` is equivalent
        // to evaluating at each elapsed boundary.
        let step = self.params.poll_interval;
        self.next_poll = (now / step + 1) * step;
        let mut events = Vec::new();
        if self.params.threshold == u64::MAX {
            return events; // inert: never read as "over".
        }
        let nodes = fabric.controllers().len();
        for node in 0..nodes {
            for (ch, ctrl) in fabric.controllers()[node].iter().enumerate() {
                let banks_per_rank = ctrl.config().banks_per_rank;
                for (flat, row) in ctrl.rowhammer().rows_over(self.params.threshold) {
                    if !self.planted.insert((node, ch, flat, row)) {
                        continue;
                    }
                    let rank = flat / banks_per_rank;
                    let bank = flat % banks_per_rank;
                    // Blast radius: the victims are the physical
                    // neighbours, and the aggressor row itself is
                    // included so the very traffic that caused the
                    // trip observes the damage.
                    let lo = row.saturating_sub(1);
                    for r in lo..=row + 1 {
                        let site = FaultSite::Row { rank, bank, row: r };
                        // `both_copies` plants the same rows at every
                        // controller — a line's copies live at
                        // *different* channel indices across nodes
                        // (home at channel 0, replica at channel 1),
                        // so hitting every (node, channel) is what
                        // kills the survivor too: the machine-check
                        // rung of the severity ladder. Otherwise only
                        // the hammered controller's copy is hit and
                        // the survivor corrects (§V-B2).
                        if self.params.both_copies {
                            for (socket, ctrls) in fabric.controllers().iter().enumerate() {
                                for channel in 0..ctrls.len() {
                                    events.push(FaultEvent {
                                        at: now,
                                        socket,
                                        channel,
                                        action: FaultAction::Plant {
                                            site,
                                            transient: self.params.transient,
                                        },
                                    });
                                }
                            }
                        } else {
                            events.push(FaultEvent {
                                at: now,
                                socket: node,
                                channel: ch,
                                action: FaultAction::Plant {
                                    site,
                                    transient: self.params.transient,
                                },
                            });
                        }
                    }
                }
            }
        }
        events
    }
}

/// Thermal source: Arrhenius-scaled per-rank arrivals. See the module
/// docs for the determinism argument.
#[derive(Debug)]
pub struct ThermalSource {
    params: ThermalParams,
    /// Per-interval child seeds derive from this.
    master: u64,
    /// First interval index not yet processed.
    interval: u64,
    nodes: usize,
    channels: usize,
    devices: usize,
    /// Per-rank arrival probability per interval (base rate × Arrhenius
    /// risk referenced to the coolest rank), clamped to 1.
    rank_rates: Vec<f64>,
}

impl ThermalSource {
    /// Sub-stream index separating thermal draws from aging draws.
    const SUBSTREAM: u64 = 1;

    /// Creates the source, reading the rank/device geometry from the
    /// fabric's controllers and scaling the per-rank rates from the
    /// paper's thermal profile.
    pub fn new(params: ThermalParams, seed: u64, fabric: &SystemFabric) -> ThermalSource {
        params.validate();
        let ctrl = &fabric.controllers()[0][0];
        let ranks = ctrl.config().ranks_per_channel;
        let profile = ThermalProfile::paper_default(ranks);
        let rank_rates = profile
            .rank_risks(params.ea_ev)
            .iter()
            .map(|risk| (params.base_rate * risk).min(1.0))
            .collect();
        ThermalSource {
            master: derive_seed(seed, CORRELATED_STREAM, Self::SUBSTREAM),
            interval: 0,
            nodes: fabric.controllers().len(),
            channels: fabric.controllers()[0].len(),
            devices: ctrl.config().devices_per_rank,
            params,
            rank_rates,
        }
    }
}

impl FaultSource for ThermalSource {
    fn kind(&self) -> FaultSourceKind {
        FaultSourceKind::Thermal
    }

    fn next_poll(&self) -> u64 {
        (self.interval + 1) * self.params.poll_interval
    }

    fn poll(&mut self, now: u64, _fabric: &SystemFabric) -> Vec<FaultEvent> {
        let step = self.params.poll_interval;
        let mut events = Vec::new();
        // Process every whole interval that elapsed — one child RNG per
        // interval index, so the draw sequence depends only on the
        // sim-time grid.
        while (self.interval + 1) * step <= now {
            let k = self.interval;
            self.interval += 1;
            if self.params.base_rate == 0.0 {
                continue; // inert: the grid advances, no draws needed.
            }
            let mut rng = SplitMix64::new(derive_seed(self.master, CORRELATED_STREAM, k));
            let at = (k + 1) * step;
            for node in 0..self.nodes {
                for ch in 0..self.channels {
                    for (rank, &rate) in self.rank_rates.iter().enumerate() {
                        if rng.chance(rate) {
                            let chip = rng.next_below(self.devices.max(1) as u64) as usize;
                            let transient = rng.chance(self.params.transient_fraction);
                            events.push(FaultEvent {
                                at,
                                socket: node,
                                channel: ch,
                                action: FaultAction::Plant {
                                    site: FaultSite::Chip { rank, chip },
                                    transient,
                                },
                            });
                        }
                    }
                }
            }
        }
        events
    }
}

/// Aging source: wear-out line faults ramping over simulated time. See
/// the module docs for the determinism argument.
#[derive(Debug)]
pub struct AgingSource {
    params: AgingParams,
    master: u64,
    interval: u64,
    nodes: usize,
    channels: usize,
}

impl AgingSource {
    /// Sub-stream index separating aging draws from thermal draws.
    const SUBSTREAM: u64 = 2;

    /// Creates the source.
    pub fn new(params: AgingParams, seed: u64, fabric: &SystemFabric) -> AgingSource {
        params.validate();
        AgingSource {
            master: derive_seed(seed, CORRELATED_STREAM, Self::SUBSTREAM),
            interval: 0,
            nodes: fabric.controllers().len(),
            channels: fabric.controllers()[0].len(),
            params,
        }
    }

    /// The per-interval arrival probability at interval index `k`
    /// (age measured at the interval's start).
    fn rate_at(&self, k: u64) -> f64 {
        let age_mcycles = (k * self.params.poll_interval) as f64 / 1.0e6;
        (self.params.base_rate + self.params.ramp_per_mcycle * age_mcycles).min(1.0)
    }
}

impl FaultSource for AgingSource {
    fn kind(&self) -> FaultSourceKind {
        FaultSourceKind::Aging
    }

    fn next_poll(&self) -> u64 {
        (self.interval + 1) * self.params.poll_interval
    }

    fn poll(&mut self, now: u64, _fabric: &SystemFabric) -> Vec<FaultEvent> {
        let step = self.params.poll_interval;
        let mut events = Vec::new();
        let inert = self.params.base_rate == 0.0 && self.params.ramp_per_mcycle == 0.0;
        while (self.interval + 1) * step <= now {
            let k = self.interval;
            self.interval += 1;
            if inert {
                continue;
            }
            let mut rng = SplitMix64::new(derive_seed(self.master, CORRELATED_STREAM, k));
            if rng.chance(self.rate_at(k)) {
                let socket = rng.next_below(self.nodes as u64) as usize;
                let channel = rng.next_below(self.channels as u64) as usize;
                let line = rng.next_below(self.params.line_span);
                events.push(FaultEvent {
                    at: (k + 1) * step,
                    socket,
                    channel,
                    action: FaultAction::Plant {
                        site: FaultSite::Line { line },
                        // Wear-out is permanent: aging plants are hard.
                        transient: false,
                    },
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SystemConfig};

    fn fabric() -> SystemFabric {
        let mut cfg = SystemConfig::table_ii(Scheme::DveDeny);
        cfg.chaos = Some(crate::chaos::ChaosConfig::inert());
        SystemFabric::new(&cfg)
    }

    #[test]
    fn inert_sources_emit_nothing_on_any_grid() {
        let f = fabric();
        let mut sources = build_sources(&CorrelatedConfig::inert(42), &f);
        assert_eq!(sources.len(), 3);
        for src in &mut sources {
            for now in [5_000u64, 10_000, 123_456, 1_000_000] {
                assert!(src.poll(now, &f).is_empty(), "{:?} emitted", src.kind());
                assert!(src.next_poll() > now);
            }
        }
    }

    #[test]
    fn stochastic_draws_depend_only_on_the_grid() {
        // One poll at t=100k emits the same events as ten polls at 10k
        // steps: the per-interval child RNGs make the draw sequence a
        // function of the sim-time grid alone.
        let f = fabric();
        let params = ThermalParams {
            base_rate: 0.2,
            ..ThermalParams::inert()
        };
        let mut coarse = ThermalSource::new(params, 7, &f);
        let mut fine = ThermalSource::new(params, 7, &f);
        let all = coarse.poll(100_000, &f);
        let mut stepped = Vec::new();
        for t in (10_000..=100_000).step_by(10_000) {
            stepped.extend(fine.poll(t, &f));
        }
        assert_eq!(all, stepped);
        assert!(!all.is_empty(), "rate 0.2 over 10 intervals must fire");
    }

    #[test]
    fn aging_rate_ramps_and_saturates() {
        let f = fabric();
        let src = AgingSource::new(
            AgingParams {
                base_rate: 0.1,
                ramp_per_mcycle: 0.5,
                ..AgingParams::inert()
            },
            1,
            &f,
        );
        assert!(src.rate_at(0) < src.rate_at(100));
        assert_eq!(src.rate_at(1_000_000), 1.0, "clamped at certainty");
    }

    #[test]
    fn thermal_rates_scale_with_rank_temperature() {
        let profile = ThermalProfile::paper_default(4);
        let risks = profile.rank_risks(0.6);
        // Rank 0 sits nearest the processor (hottest): strictly riskier
        // than the coolest, so the source's per-rank rates differ.
        assert!(risks[0] > risks[3]);
    }
}
