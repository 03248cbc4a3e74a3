//! Physical-address → DRAM coordinate mapping.
//!
//! The decomposition follows the open-page-friendly row-major
//! interleave: consecutive cache lines fill a row buffer (8 KB at rank
//! level), rows interleave across banks, then ranks. A sequential
//! stream camps on one bank for a whole row (127 row hits after the
//! activation), and independent streams usually occupy different banks.

use crate::config::DramConfig;

/// A decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line offset within the row buffer).
    pub column: usize,
}

/// Maps channel-local byte addresses to DRAM coordinates.
///
/// # Example
///
/// ```
/// use dve_dram::address::AddressMapper;
/// use dve_dram::config::DramConfig;
///
/// let m = AddressMapper::new(DramConfig::ddr4_2400());
/// let a = m.decode(0);
/// let b = m.decode(64); // next line: same open row
/// assert_eq!(a.bank, b.bank);
/// assert_eq!(a.row, b.row);
/// assert_eq!(b.column, a.column + 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    cfg: DramConfig,
    /// log2 of the line size: byte address → line index.
    line_shift: u32,
    /// Bit widths of the column, bank and rank fields of a line index.
    col_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
}

/// log2 of a geometry field that must be a power of two.
fn log2_exact(field: &str, n: usize) -> u32 {
    assert!(
        n.is_power_of_two(),
        "{field} must be a power of two for shift decoding, got {n}"
    );
    n.trailing_zeros()
}

impl AddressMapper {
    /// Creates a mapper for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the line size, lines per row, banks per rank and
    /// ranks per channel are all powers of two (true of every
    /// [`DramConfig`] preset), since [`Self::decode`] splits the
    /// address by shifts and masks.
    pub fn new(cfg: DramConfig) -> AddressMapper {
        AddressMapper {
            line_shift: log2_exact("line_bytes", cfg.line_bytes),
            col_bits: log2_exact("lines per row", cfg.lines_per_row()),
            bank_bits: log2_exact("banks_per_rank", cfg.banks_per_rank),
            rank_bits: log2_exact("ranks_per_channel", cfg.ranks_per_channel),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Decodes a channel-local byte address.
    ///
    /// Layout (low → high bits): line offset | column | bank | rank |
    /// row (row-major, open-page friendly).
    pub fn decode(&self, addr: u64) -> DramCoord {
        let field = |line: u64, bits: u32| (line & ((1 << bits) - 1)) as usize;
        let line = addr >> self.line_shift;
        let column = field(line, self.col_bits);
        let line = line >> self.col_bits;
        let bank = field(line, self.bank_bits);
        let line = line >> self.bank_bits;
        let rank = field(line, self.rank_bits);
        DramCoord {
            rank,
            bank,
            row: line >> self.rank_bits,
            column,
        }
    }

    /// Re-encodes a coordinate to the lowest byte address it covers
    /// (inverse of [`Self::decode`] up to line granularity).
    pub fn encode(&self, coord: DramCoord) -> u64 {
        let cols = self.cfg.lines_per_row() as u64;
        let banks = self.cfg.banks_per_rank as u64;
        let ranks = self.cfg.ranks_per_channel as u64;
        let line = coord.column as u64
            + coord.bank as u64 * cols
            + coord.rank as u64 * cols * banks
            + coord.row * cols * banks * ranks;
        line * self.cfg.line_bytes as u64
    }

    /// Flat bank identifier (rank-major) for indexing bank state arrays.
    pub fn flat_bank(&self, coord: DramCoord) -> usize {
        coord.rank * self.cfg.banks_per_rank + coord.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramConfig::ddr4_2400())
    }

    #[test]
    fn decode_encode_roundtrip() {
        let m = mapper();
        for addr in [0u64, 64, 1024, 65536, 1 << 20, (8u64 << 30) - 64] {
            let coord = m.decode(addr);
            assert_eq!(m.encode(coord), addr & !63, "addr={addr:#x}");
        }
    }

    #[test]
    fn sequential_lines_share_a_row() {
        let m = mapper();
        let base = m.decode(0x10000);
        let lines_per_row = m.config().lines_per_row() as u64;
        for i in 1..lines_per_row {
            let c = m.decode(0x10000 + i * 64);
            assert_eq!(c.row, base.row);
            assert_eq!(c.bank, base.bank);
        }
        // The next line rolls to the next bank.
        let next = m.decode(0x10000 + lines_per_row * 64);
        assert_ne!(next.bank, base.bank);
    }

    #[test]
    fn rows_interleave_across_banks() {
        let m = mapper();
        let row_span = m.config().row_buffer_bytes as u64;
        let mut banks_seen = std::collections::HashSet::new();
        for i in 0..16 {
            banks_seen.insert(m.decode(i * row_span).bank);
        }
        assert_eq!(banks_seen.len(), 16, "16 consecutive rows hit 16 banks");
    }

    #[test]
    #[should_panic(expected = "banks_per_rank must be a power of two")]
    fn non_power_of_two_geometry_rejected() {
        AddressMapper::new(DramConfig {
            banks_per_rank: 12,
            ..DramConfig::ddr4_2400()
        });
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let m = mapper();
        let mut seen = std::collections::HashSet::new();
        for bank in 0..16 {
            let coord = DramCoord {
                rank: 0,
                bank,
                row: 0,
                column: 0,
            };
            assert!(seen.insert(m.flat_bank(coord)));
        }
        assert_eq!(seen.len(), m.config().total_banks());
    }
}
