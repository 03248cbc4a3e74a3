//! Detection-only Reed–Solomon over GF(2^16) — the paper's TSD code.
//!
//! §IV of the paper equips Dvé with a *Triple Symbol Detect* (TSD) code,
//! "provided using 16-bit Reed–Solomon code as in Multi-ECC", using the
//! check-symbol budget freed by relinquishing local correction. With 3
//! check symbols over GF(2^16) the code has minimum distance 4 and
//! guarantees detection of any 3 symbol errors; random larger errors
//! escape with probability ≈ 2^-48.
//!
//! The codeword is byte-oriented at the API boundary (to match
//! [`DetectionCode`]): data bytes are packed into big-endian 16-bit
//! symbols, and the 3 parity symbols are appended as 6 bytes.
//!
//! # Hot-path design
//!
//! This codec sits on the data path of every Dvé+TSD scrub read and
//! campaign trial:
//!
//! * the three syndromes come from one fused, table-free pass over the
//!   codeword with no symbol-vector allocation — `S_0` is a plain XOR
//!   fold, `S_1` and `S_2` Horner loops of shift-reduce α-multiplies;
//! * [`Rs16Detect::encode_into`] runs that same pass over the data and
//!   solves for the parity with a constant 3×3 matrix built in the
//!   constructor, writing straight into the caller's buffer: nine table
//!   multiplies per line instead of an LFSR's four table loads per data
//!   symbol, which on random data miss the 384 KiB GF(2^16) tables.

use crate::code::{CheckOutcome, DetectionCode};
use crate::gf::Gf16;

/// Check symbols of the TSD code.
const CHECK_SYMBOLS: usize = 3;

/// The paper's TSD code: detection-only RS over GF(2^16) with three
/// 16-bit check symbols.
///
/// # Example
///
/// ```
/// use dve_ecc::rs16::Rs16Detect;
/// use dve_ecc::code::{CheckOutcome, DetectionCode};
///
/// let tsd = Rs16Detect::tsd(64); // 64-byte cache line + 3×16-bit checks
/// let data = vec![0x5A; 64];
/// let mut cw = tsd.encode(&data);
/// cw[10] ^= 0x01;
/// cw[20] ^= 0x80;
/// cw[30] ^= 0xFF; // three independent symbol errors
/// assert!(matches!(cw.len(), 70));
/// assert!(!tsd.check(&cw).is_good());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rs16Detect {
    data_bytes: usize,
    /// Parity `p_t = Σ_i solve3[t][i]·S_i` from the data-only syndromes.
    solve3: [[u16; CHECK_SYMBOLS]; CHECK_SYMBOLS],
}

impl Rs16Detect {
    /// The paper's TSD configuration: 3 check symbols (triple symbol
    /// detect) over a `data_bytes` payload. The parity-solve matrix is
    /// precomputed here; encode/check are allocation-free afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero or odd, or if the total symbol
    /// count exceeds the field bound (65535).
    pub fn tsd(data_bytes: usize) -> Rs16Detect {
        assert!(
            data_bytes > 0 && data_bytes.is_multiple_of(2),
            "data must be a whole number of 16-bit symbols"
        );
        assert!(
            data_bytes / 2 + CHECK_SYMBOLS <= 65535,
            "codeword exceeds GF(2^16) length bound"
        );
        // Parity p_t sits at location X_t = α^{2-t} and the three must
        // satisfy Σ_t p_t·X_t^i = α^{3i}·S_i (S_i over the data alone,
        // shifted past the parity). Row t of the inverse Vandermonde
        // matrix is the Lagrange basis Π_{m≠t} (x + X_m)/(X_t + X_m);
        // the α^{3i} shift is folded into column i.
        let x = [Gf16::alpha_pow(2), Gf16::alpha_pow(1), 1];
        let shift = [1, Gf16::alpha_pow(3), Gf16::alpha_pow(6)];
        let solve3 = std::array::from_fn(|t| {
            let (a, b) = (x[(t + 1) % 3], x[(t + 2) % 3]);
            let den = Gf16::inv(Gf16::mul(x[t] ^ a, x[t] ^ b));
            let basis = [Gf16::mul(a, b), a ^ b, 1];
            std::array::from_fn(|i| Gf16::mul(Gf16::mul(basis[i], den), shift[i]))
        });
        Rs16Detect { data_bytes, solve3 }
    }

    /// `[S_0, S_1, S_2]` of big-endian 16-bit `symbols` in one fused,
    /// table-free pass: S_0 is a XOR fold; S_1 and S_2 are Horner walks
    /// with roots α and α² — one and two shift-reduce α-multiplies per
    /// symbol, all in registers.
    fn syndromes(symbols: &[u8]) -> [u16; CHECK_SYMBOLS] {
        let mut s = [0u16; CHECK_SYMBOLS];
        for pair in symbols.chunks_exact(2) {
            let c = u16::from_be_bytes([pair[0], pair[1]]);
            s[0] ^= c;
            s[1] = Gf16::mul_alpha(s[1]) ^ c;
            s[2] = Gf16::mul_alpha(Gf16::mul_alpha(s[2])) ^ c;
        }
        s
    }

    /// [`DetectionCode::check`] of the word that is zero but for
    /// `errors`, given as `(symbol position, value)` pairs over the
    /// codeword's `N = codeword_len / 2` big-endian symbols; values at a
    /// repeated position add. Each pair adds `e·X^i` to syndrome `S_i`,
    /// with location value `X = α^{N−1−p}`, so a word with a few non-zero
    /// symbols costs a few multiplies instead of a pass over all `N`. The
    /// code is linear, so this is also the check of any codeword carrying
    /// that error pattern (DESIGN.md §7). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a position is `>= N`.
    pub fn check_sparse(&self, errors: impl IntoIterator<Item = (usize, u16)>) -> CheckOutcome {
        let symbols = self.codeword_len() / 2;
        let mut syn = [0u16; CHECK_SYMBOLS];
        for (p, e) in errors {
            assert!(p < symbols, "symbol position out of codeword");
            let x = Gf16::alpha_pow((symbols - 1 - p) as u32);
            let mut term = e;
            for s in &mut syn {
                *s ^= term;
                term = Gf16::mul(term, x);
            }
        }
        CheckOutcome::from_syndromes(&syn)
    }
}

impl DetectionCode for Rs16Detect {
    fn data_len(&self) -> usize {
        self.data_bytes
    }

    fn codeword_len(&self) -> usize {
        self.data_bytes + 2 * CHECK_SYMBOLS
    }

    fn encode_into(&self, data: &[u8], codeword: &mut [u8]) {
        assert_eq!(data.len(), self.data_bytes, "dataword length mismatch");
        assert_eq!(
            codeword.len(),
            self.codeword_len(),
            "codeword length mismatch"
        );
        let (out_data, parity) = codeword.split_at_mut(self.data_bytes);
        out_data.copy_from_slice(data);
        let s = Self::syndromes(data);
        for (pair, row) in parity.chunks_exact_mut(2).zip(&self.solve3) {
            let p = Gf16::mul(row[0], s[0]) ^ Gf16::mul(row[1], s[1]) ^ Gf16::mul(row[2], s[2]);
            pair.copy_from_slice(&p.to_be_bytes());
        }
    }

    fn check(&self, codeword: &[u8]) -> CheckOutcome {
        assert_eq!(
            codeword.len(),
            self.codeword_len(),
            "codeword length mismatch"
        );
        CheckOutcome::from_syndromes(&Self::syndromes(codeword))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Vec<u8> {
        (0..64u8)
            .map(|i| i.wrapping_mul(73).wrapping_add(5))
            .collect()
    }

    #[test]
    fn clean_line_passes() {
        let tsd = Rs16Detect::tsd(64);
        let cw = tsd.encode(&line());
        assert_eq!(cw.len(), 70);
        assert_eq!(tsd.check(&cw), CheckOutcome::NoError);
        assert_eq!(tsd.extract_data(&cw), line());
    }

    #[test]
    fn encode_into_matches_encode() {
        for data_bytes in [2usize, 16, 32, 64] {
            let code = Rs16Detect::tsd(data_bytes);
            let data: Vec<u8> = (0..data_bytes as u8)
                .map(|i| i.wrapping_mul(9) ^ 0x5A)
                .collect();
            let mut cw = vec![0xCCu8; data_bytes + 6]; // dirty buffer
            code.encode_into(&data, &mut cw);
            assert_eq!(cw, code.encode(&data), "data_bytes={data_bytes}");
            assert_eq!(code.check(&cw), CheckOutcome::NoError);
        }
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let tsd = Rs16Detect::tsd(64);
        let cw = tsd.encode(&line());
        for byte in 0..cw.len() {
            for bit in 0..8 {
                let mut bad = cw.clone();
                bad[byte] ^= 1 << bit;
                assert!(!tsd.check(&bad).is_good(), "byte {byte} bit {bit} escaped");
            }
        }
    }

    #[test]
    fn detects_three_symbol_errors_exhaustive_sample() {
        let tsd = Rs16Detect::tsd(16); // small payload keeps this cheap
        let data: Vec<u8> = (0..16).collect();
        let cw = tsd.encode(&data);
        let nsyms = cw.len() / 2;
        // All 3-symbol position combinations with a fixed error pattern.
        for a in 0..nsyms {
            for b in (a + 1)..nsyms {
                for c in (b + 1)..nsyms {
                    let mut bad = cw.clone();
                    bad[2 * a] ^= 0x13;
                    bad[2 * b + 1] ^= 0x77;
                    bad[2 * c] ^= 0xE1;
                    assert!(!tsd.check(&bad).is_good(), "positions {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn four_symbol_random_errors_rarely_but_possibly_escape() {
        // With 3 16-bit checks, escape probability is ~2^-48: none of
        // these 2000 random 4-symbol corruptions should pass.
        let tsd = Rs16Detect::tsd(64);
        let cw = tsd.encode(&line());
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let mut bad = cw.clone();
            let mut positions = std::collections::HashSet::new();
            while positions.len() < 4 {
                positions.insert((next() % (bad.len() as u64 / 2)) as usize);
            }
            for p in positions {
                let e = (next() & 0xFFFF) as u16;
                let e = if e == 0 { 1 } else { e };
                let cur = u16::from_be_bytes([bad[2 * p], bad[2 * p + 1]]) ^ e;
                bad[2 * p..2 * p + 2].copy_from_slice(&cur.to_be_bytes());
            }
            assert!(!tsd.check(&bad).is_good());
        }
    }

    #[test]
    fn overhead_is_lower_than_chipkill_for_cache_line() {
        // 6 bytes over 64 = 9.4% < chipkill's 12.5% — this is the "extra
        // code space" argument of §III.
        let tsd = Rs16Detect::tsd(64);
        assert!(tsd.overhead() < 0.125);
        assert_eq!(tsd.codeword_len() - tsd.data_len(), 6);
    }

    #[test]
    #[should_panic(expected = "whole number of 16-bit symbols")]
    fn odd_payload_rejected() {
        Rs16Detect::tsd(63);
    }
}
