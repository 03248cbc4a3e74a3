//! DRAM configuration with the paper's Table II defaults.

use dve_sim::time::{Cycles, CORE_CLOCK};

/// Geometry and timing of one memory channel's DRAM.
///
/// Latencies are stored in *core* cycles (the simulation's single clock
/// domain, [`CORE_CLOCK`]), pre-converted from the nanosecond values
/// the paper quotes.
///
/// # Example
///
/// ```
/// use dve_dram::config::DramConfig;
///
/// let cfg = DramConfig::ddr4_2400();
/// assert_eq!(cfg.banks_per_rank, 16);
/// assert_eq!(cfg.row_buffer_bytes, 8192);
/// // tCL = 14.16 ns at 3 GHz = ceil(42.48) = 43 core cycles
/// assert_eq!(cfg.t_cl.raw(), 43);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// CAS latency.
    pub t_cl: Cycles,
    /// RAS-to-CAS delay.
    pub t_rcd: Cycles,
    /// Row precharge time.
    pub t_rp: Cycles,
    /// Minimum row-active time.
    pub t_ras: Cycles,
    /// Data burst transfer time for one cache line.
    pub t_burst: Cycles,
    /// Average refresh command interval (tREFI).
    pub t_refi: Cycles,
    /// Refresh cycle time (tRFC) during which the rank is unavailable.
    pub t_rfc: Cycles,
    /// Row buffer (page) size in bytes at rank level (Table II's 1 KB
    /// per-chip page × 8 data devices = 8 KB per rank).
    pub row_buffer_bytes: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Data devices (chips) per rank — 8 × 8-bit in the paper.
    pub devices_per_rank: usize,
    /// Channel capacity in bytes (8 GB per DIMM/channel in Table II).
    pub channel_capacity: u64,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Whether periodic refresh is modeled.
    pub refresh_enabled: bool,
}

impl DramConfig {
    /// Table II configuration: 8 GB DDR4-2400, 1 KB per-chip row buffer
    /// (8 KB across the rank's 8 devices), 16 banks/rank,
    /// tCL-tRCD-tRP-tRAS = 14.16-14.16-14.16-32 ns, 3 GHz core clock.
    pub fn ddr4_2400() -> DramConfig {
        let core = CORE_CLOCK;
        DramConfig {
            t_cl: core.cycles_for_ns_f64(14.16),
            t_rcd: core.cycles_for_ns_f64(14.16),
            t_rp: core.cycles_for_ns_f64(14.16),
            t_ras: core.cycles_for_ns_f64(32.0),
            // 64-byte line over a 64-bit channel at DDR4-2400:
            // 8 beats * (1/1200MHz)/2 ≈ 3.33 ns.
            t_burst: core.cycles_for_ns_f64(3.33),
            t_refi: core.cycles_for_ns_f64(7800.0),
            t_rfc: core.cycles_for_ns_f64(350.0),
            row_buffer_bytes: 8192,
            banks_per_rank: 16,
            ranks_per_channel: 1,
            devices_per_rank: 8,
            channel_capacity: 8 << 30,
            line_bytes: 64,
            refresh_enabled: true,
        }
    }

    /// Same device timing but with refresh modeling off (useful for
    /// deterministic latency unit tests).
    pub fn ddr4_2400_no_refresh() -> DramConfig {
        DramConfig {
            refresh_enabled: false,
            ..Self::ddr4_2400()
        }
    }

    /// A CXL-class far-memory pool: DDR4 media behind a serialized
    /// controller hop, so every column access carries an extra ~30 ns
    /// of media/controller latency, in exchange for 4× the capacity per
    /// channel. Used for the far node of a two-tier topology (the
    /// Volos & Sazeides replication-based protection scheme).
    pub fn far_tier() -> DramConfig {
        DramConfig {
            t_cl: CORE_CLOCK.cycles_for_ns_f64(14.16 + 30.0),
            channel_capacity: 32 << 30,
            ..Self::ddr4_2400()
        }
    }

    /// Random-access (row miss, bank precharged) read latency:
    /// tRCD + tCL + burst.
    pub fn miss_latency(&self) -> Cycles {
        self.t_rcd + self.t_cl + self.t_burst
    }

    /// Row-hit read latency: tCL + burst.
    pub fn hit_latency(&self) -> Cycles {
        self.t_cl + self.t_burst
    }

    /// Total banks on the channel.
    pub fn total_banks(&self) -> usize {
        self.banks_per_rank * self.ranks_per_channel
    }

    /// Lines per row buffer.
    pub fn lines_per_row(&self) -> usize {
        self.row_buffer_bytes / self.line_bytes
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_timings() {
        let c = DramConfig::ddr4_2400();
        assert_eq!(c.t_cl, c.t_rcd);
        assert_eq!(c.t_cl, c.t_rp);
        assert_eq!(c.t_ras.raw(), 96); // 32 ns * 3 GHz
        assert_eq!(c.total_banks(), 16);
        assert_eq!(c.lines_per_row(), 128);
    }

    #[test]
    fn latency_ordering() {
        let c = DramConfig::ddr4_2400();
        assert!(c.hit_latency() < c.miss_latency());
    }

    #[test]
    fn default_is_paper_config() {
        assert_eq!(DramConfig::default(), DramConfig::ddr4_2400());
    }

    #[test]
    fn far_tier_is_slower_and_larger() {
        let near = DramConfig::ddr4_2400();
        let far = DramConfig::far_tier();
        assert!(far.hit_latency() > near.hit_latency());
        assert!(far.miss_latency() > near.miss_latency());
        assert!(far.channel_capacity > near.channel_capacity);
        // Bank geometry (and therefore addressing) is unchanged, so a
        // far-node controller decodes the same line layout.
        assert_eq!(far.total_banks(), near.total_banks());
        assert_eq!(far.lines_per_row(), near.lines_per_row());
    }
}
