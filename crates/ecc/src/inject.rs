//! Fault injection on codewords.
//!
//! The paper's motivation (§II) is that real failures span granularities:
//! single cells, pins, whole chips, shared board circuitry, channels and
//! memory controllers. [`FaultInjector`] synthesizes each of those
//! patterns on raw codeword bytes so the detection/correction coverage of
//! every code can be measured empirically (see the `ecc_coverage`
//! integration tests and the recovery path in `dve`).

use crate::gf::Gf256;
use dve_sim::rng::SplitMix64;

/// The granularity of an injected fault, mirroring Fig. 2's anatomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One bit flips (cell upset / cosmic ray).
    SingleBit,
    /// `count` independent random bits flip.
    MultiBit {
        /// Number of independent bit flips.
        count: usize,
    },
    /// All bits of one 8-bit symbol are randomized — a whole-chip error
    /// under the chipkill data layout (one chip contributes one symbol).
    ChipSymbol,
    /// `count` distinct symbols are randomized — multi-chip / shared
    /// board circuitry failure.
    MultiChip {
        /// Number of distinct symbols affected.
        count: usize,
    },
    /// A contiguous burst of `bits` bit-flips — a pin/lane or channel
    /// transmission error.
    Burst {
        /// Burst length in bits.
        bits: usize,
    },
    /// The entire codeword is randomized — memory-controller or channel
    /// hard failure (Dvé's headline recovery case).
    WholeCodeword,
}

/// Deterministic, seedable fault injector.
///
/// # Example
///
/// ```
/// use dve_ecc::inject::{FaultInjector, FaultKind};
///
/// let mut inj = FaultInjector::new(7);
/// let mut cw = vec![0u8; 18];
/// let touched = inj.inject(&mut cw, FaultKind::ChipSymbol);
/// assert_eq!(touched.len(), 1); // exactly one symbol corrupted
/// assert!(cw.iter().any(|&b| b != 0));
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    rng: SplitMix64,
}

impl FaultInjector {
    /// Creates an injector with a fixed seed (deterministic).
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            rng: SplitMix64::new(seed),
        }
    }

    /// Injects `kind` into `codeword`, guaranteeing the codeword actually
    /// changes. Returns the byte indices touched (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `codeword` is empty, or if a multi-bit/multi-chip count
    /// exceeds what the codeword can hold.
    pub fn inject(&mut self, codeword: &mut [u8], kind: FaultKind) -> Vec<usize> {
        assert!(!codeword.is_empty(), "cannot inject into empty codeword");
        let mut touched = Vec::new();
        match kind {
            FaultKind::SingleBit => {
                let bit = self.rng.next_below(codeword.len() as u64 * 8) as usize;
                codeword[bit / 8] ^= 1 << (bit % 8);
                touched.push(bit / 8);
            }
            FaultKind::MultiBit { count } => {
                assert!(
                    count <= codeword.len() * 8,
                    "more bit flips than bits in the codeword"
                );
                let mut bits = std::collections::BTreeSet::new();
                while bits.len() < count {
                    bits.insert(self.rng.next_below(codeword.len() as u64 * 8) as usize);
                }
                for bit in bits {
                    codeword[bit / 8] ^= 1 << (bit % 8);
                    touched.push(bit / 8);
                }
            }
            FaultKind::ChipSymbol => {
                let sym = self.rng.next_below(codeword.len() as u64) as usize;
                codeword[sym] ^= self.nonzero_byte();
                touched.push(sym);
            }
            FaultKind::MultiChip { count } => {
                assert!(count <= codeword.len(), "more chips than symbols");
                let mut syms = std::collections::BTreeSet::new();
                while syms.len() < count {
                    syms.insert(self.rng.next_below(codeword.len() as u64) as usize);
                }
                for sym in syms {
                    codeword[sym] ^= self.nonzero_byte();
                    touched.push(sym);
                }
            }
            FaultKind::Burst { bits } => {
                assert!(
                    bits >= 1 && bits <= codeword.len() * 8,
                    "invalid burst length"
                );
                let start = self.rng.next_below((codeword.len() * 8 - bits + 1) as u64) as usize;
                // First and last bit of a burst flip by definition; the
                // interior flips randomly.
                for (i, bit) in (start..start + bits).enumerate() {
                    let flip = i == 0 || i == bits - 1 || self.rng.chance(0.5);
                    if flip {
                        codeword[bit / 8] ^= 1 << (bit % 8);
                        touched.push(bit / 8);
                    }
                }
            }
            FaultKind::WholeCodeword => {
                for (i, b) in codeword.iter_mut().enumerate() {
                    *b = self.rng.next_u64() as u8;
                    touched.push(i);
                }
                // Guarantee at least one byte differs (whole-codeword
                // randomization could in principle reproduce the input).
                let idx = self.rng.next_below(codeword.len() as u64) as usize;
                codeword[idx] ^= self.nonzero_byte();
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Corrupts exactly the given symbol (byte) positions, each with a
    /// fresh non-zero error value. Positions may repeat; each XOR uses an
    /// independent non-zero value, so a repeated position could in
    /// principle cancel — pass distinct positions for an exact error
    /// weight. Returns the touched indices (sorted, deduplicated).
    ///
    /// This is the deterministic-placement entry point used by fault
    /// campaigns: the *campaign* decides which chips failed, the injector
    /// only supplies error values.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of bounds.
    pub fn inject_symbols_at(&mut self, codeword: &mut [u8], positions: &[usize]) -> Vec<usize> {
        let mut touched = Vec::with_capacity(positions.len());
        for &pos in positions {
            assert!(pos < codeword.len(), "symbol position out of bounds");
            codeword[pos] ^= self.nonzero_byte();
            touched.push(pos);
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Like [`inject_symbols_at`](Self::inject_symbols_at) but for
    /// 16-bit-symbol codewords laid out as big-endian byte pairs (the
    /// `Rs16Detect` layout): symbol `s` occupies bytes `2s..2s+2`.
    ///
    /// # Panics
    ///
    /// Panics if the codeword length is odd or a position is out of range.
    pub fn inject_symbols16_at(&mut self, codeword: &mut [u8], positions: &[usize]) -> Vec<usize> {
        assert!(
            codeword.len().is_multiple_of(2),
            "odd codeword for 16-bit symbols"
        );
        let mut touched = Vec::with_capacity(positions.len());
        for &pos in positions {
            assert!(
                pos * 2 + 1 < codeword.len(),
                "symbol position out of bounds"
            );
            let e = self.nonzero_u16();
            codeword[pos * 2] ^= (e >> 8) as u8;
            codeword[pos * 2 + 1] ^= e as u8;
            touched.push(pos);
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// A uniform non-zero 8-bit error value — the draw
    /// [`inject_symbols_at`](Self::inject_symbols_at) XORs into each
    /// position, without its touched-index list.
    pub fn nonzero_byte(&mut self) -> u8 {
        // A random exponent keeps the distribution uniform over the 255
        // non-zero GF(2^8) elements.
        Gf256::alpha_pow(self.rng.next_below(255) as u32)
    }

    /// A uniform non-zero 16-bit error value, as
    /// [`inject_symbols16_at`](Self::inject_symbols16_at) draws it.
    pub fn nonzero_u16(&mut self) -> u16 {
        // Rejection sampling.
        loop {
            let v = self.rng.next_u64() as u16;
            if v != 0 {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_changes_exactly_one_bit() {
        let mut inj = FaultInjector::new(1);
        for _ in 0..100 {
            let mut cw = vec![0u8; 18];
            inj.inject(&mut cw, FaultKind::SingleBit);
            let ones: u32 = cw.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn multibit_flips_exact_count() {
        let mut inj = FaultInjector::new(2);
        for count in [2usize, 3, 8, 17] {
            let mut cw = vec![0u8; 18];
            inj.inject(&mut cw, FaultKind::MultiBit { count });
            let ones: usize = cw.iter().map(|b| b.count_ones() as usize).sum();
            assert_eq!(ones, count);
        }
    }

    #[test]
    fn chip_symbol_touches_one_byte() {
        let mut inj = FaultInjector::new(3);
        for _ in 0..100 {
            let mut cw = vec![0u8; 18];
            let touched = inj.inject(&mut cw, FaultKind::ChipSymbol);
            assert_eq!(touched.len(), 1);
            assert_ne!(cw[touched[0]], 0);
            assert_eq!(cw.iter().filter(|&&b| b != 0).count(), 1);
        }
    }

    #[test]
    fn multichip_touches_distinct_symbols() {
        let mut inj = FaultInjector::new(4);
        let mut cw = vec![0u8; 18];
        let touched = inj.inject(&mut cw, FaultKind::MultiChip { count: 3 });
        assert_eq!(touched.len(), 3);
        assert_eq!(cw.iter().filter(|&&b| b != 0).count(), 3);
    }

    #[test]
    fn burst_confined_to_window() {
        let mut inj = FaultInjector::new(5);
        for _ in 0..200 {
            let mut cw = vec![0u8; 32];
            let touched = inj.inject(&mut cw, FaultKind::Burst { bits: 16 });
            assert!(!touched.is_empty());
            let lo = *touched.first().unwrap();
            let hi = *touched.last().unwrap();
            assert!(hi - lo <= 2, "burst of 16 bits spans at most 3 bytes");
        }
    }

    #[test]
    fn whole_codeword_always_differs() {
        let mut inj = FaultInjector::new(6);
        for _ in 0..100 {
            let orig = vec![0x42u8; 18];
            let mut cw = orig.clone();
            inj.inject(&mut cw, FaultKind::WholeCodeword);
            assert_ne!(cw, orig);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FaultInjector::new(99);
        let mut b = FaultInjector::new(99);
        let mut cw_a = vec![0u8; 18];
        let mut cw_b = vec![0u8; 18];
        a.inject(&mut cw_a, FaultKind::MultiBit { count: 5 });
        b.inject(&mut cw_b, FaultKind::MultiBit { count: 5 });
        assert_eq!(cw_a, cw_b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_codeword_rejected() {
        FaultInjector::new(0).inject(&mut [], FaultKind::SingleBit);
    }
}
