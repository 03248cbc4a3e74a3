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
//! campaign trial, so since the decode-pipeline overhaul:
//!
//! * the generator polynomial and syndrome roots are computed **once in
//!   the constructor** (previously the generator was rebuilt per
//!   `encode` call);
//! * [`Rs16Detect::check`] walks the codeword in a single fused pass with
//!   no symbol-vector allocation — the `i = 0` syndrome is a plain XOR
//!   fold, `i = 1` a table-free α-multiply Horner loop, and the rest
//!   table-driven [`Gf16::mul`] Horner steps;
//! * [`Rs16Detect::encode_into`] writes parity straight into the caller's
//!   buffer, allocation-free. The paper's 3-check TSD solves its parity
//!   from the data's three syndromes (the same table-free pass as
//!   `check`) times a constant 3×3 matrix: nine table multiplies per
//!   line instead of four table loads per data symbol, which on random
//!   data miss the 384 KiB GF(2^16) tables. Other check counts run an
//!   LFSR on fixed-size stack registers up to
//!   [`MAX_INLINE_CHECK_SYMBOLS`].

use crate::code::{CheckOutcome, DetectionCode};
use crate::gf::Gf16;

/// Check-symbol count up to which encode/check run entirely on
/// fixed-size stack registers (no heap in any path). The paper's TSD
/// uses 3.
pub const MAX_INLINE_CHECK_SYMBOLS: usize = 8;

/// A detection-only RS code over GF(2^16) with a configurable number of
/// check symbols (3 for the paper's TSD).
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
    check_symbols: usize,
    /// g(x) = Π (x − α^i), i in 0..check_symbols, highest degree first —
    /// built once at construction.
    generator: Vec<u16>,
    /// Syndrome roots `α^i` for i in 0..check_symbols.
    roots: Vec<u16>,
    /// For `check_symbols == 3` (the paper's TSD): parity
    /// `p_t = Σ_i solve3[t][i]·S_i` from the data-only syndromes.
    solve3: Option<[[u16; 3]; 3]>,
}

impl Rs16Detect {
    /// Creates a detection code over `data_bytes` of data with
    /// `check_symbols` 16-bit check symbols. The generator polynomial and
    /// syndrome roots are precomputed here; encode/check are
    /// allocation-free afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero or odd, if `check_symbols` is zero,
    /// or if the total symbol count exceeds the field bound (65535).
    pub fn new(data_bytes: usize, check_symbols: usize) -> Rs16Detect {
        assert!(
            data_bytes > 0 && data_bytes.is_multiple_of(2),
            "data must be a whole number of 16-bit symbols"
        );
        assert!(check_symbols > 0, "need at least one check symbol");
        assert!(
            data_bytes / 2 + check_symbols <= 65535,
            "codeword exceeds GF(2^16) length bound"
        );
        // Parity p_t sits at location X_t = α^{2-t} and the three must
        // satisfy Σ_t p_t·X_t^i = α^{3i}·S_i (S_i over the data alone,
        // shifted past the parity). Row t of the inverse Vandermonde
        // matrix is the Lagrange basis Π_{m≠t} (x + X_m)/(X_t + X_m);
        // the α^{3i} shift is folded into column i.
        let solve3 = (check_symbols == 3).then(|| {
            let x = [Gf16::alpha_pow(2), Gf16::alpha_pow(1), 1];
            let shift = [1, Gf16::alpha_pow(3), Gf16::alpha_pow(6)];
            std::array::from_fn(|t| {
                let (a, b) = (x[(t + 1) % 3], x[(t + 2) % 3]);
                let den = Gf16::inv(Gf16::mul(x[t] ^ a, x[t] ^ b));
                let basis = [Gf16::mul(a, b), a ^ b, 1];
                std::array::from_fn(|i| Gf16::mul(Gf16::mul(basis[i], den), shift[i]))
            })
        });
        Rs16Detect {
            data_bytes,
            check_symbols,
            generator: Self::generator_poly(check_symbols),
            roots: (0..check_symbols)
                .map(|i| Gf16::alpha_pow(i as u32))
                .collect(),
            solve3,
        }
    }

    /// The paper's TSD configuration: 3 check symbols (triple symbol
    /// detect) over a `data_bytes` payload.
    pub fn tsd(data_bytes: usize) -> Rs16Detect {
        Rs16Detect::new(data_bytes, 3)
    }

    /// Number of 16-bit check symbols.
    pub fn check_symbols(&self) -> usize {
        self.check_symbols
    }

    /// g(x) = Π (x − α^i), i in 0..nsym, highest degree first.
    fn generator_poly(nsym: usize) -> Vec<u16> {
        let mut g = vec![1u16];
        for i in 0..nsym {
            let root = Gf16::alpha_pow(i as u32);
            let mut next = vec![0u16; g.len() + 1];
            for (j, &c) in g.iter().enumerate() {
                next[j] ^= c;
                next[j + 1] ^= Gf16::mul(c, root);
            }
            g = next;
        }
        g
    }

    /// Writes the parity of `data` into `rem` (`rem.len() ==
    /// check_symbols`, zeroed by the caller): solved from the data
    /// syndromes for the 3-check TSD, the systematic LFSR otherwise.
    fn parity_into(&self, data: &[u8], rem: &mut [u16]) {
        if let Some(m) = &self.solve3 {
            let s = Self::syndromes012(data);
            for (p, row) in rem.iter_mut().zip(m) {
                *p = Gf16::mul(row[0], s[0]) ^ Gf16::mul(row[1], s[1]) ^ Gf16::mul(row[2], s[2]);
            }
            return;
        }
        let nsym = self.check_symbols;
        for pair in data.chunks_exact(2) {
            let d = u16::from_be_bytes([pair[0], pair[1]]);
            let coef = d ^ rem[0];
            rem.rotate_left(1);
            rem[nsym - 1] = 0;
            if coef != 0 {
                // generator[0] == 1 (monic); skip it.
                Gf16::fma_slice(rem, &self.generator[1..], coef);
            }
        }
    }

    /// `[S_0, S_1, S_2]` of big-endian 16-bit `symbols` in one fused,
    /// table-free pass: S_0 is a XOR fold; S_1 and S_2 are Horner walks
    /// with roots α and α² — one and two shift-reduce α-multiplies per
    /// symbol, all in registers.
    fn syndromes012(symbols: &[u8]) -> [u16; 3] {
        let mut s = [0u16; 3];
        for pair in symbols.chunks_exact(2) {
            let c = u16::from_be_bytes([pair[0], pair[1]]);
            s[0] ^= c;
            s[1] = Gf16::mul_alpha(s[1]) ^ c;
            s[2] = Gf16::mul_alpha(Gf16::mul_alpha(s[2])) ^ c;
        }
        s
    }

    /// Syndrome pass: fills `syn[..check_symbols]` with S_i = C(α^i) in a
    /// single fused walk over the codeword bytes. Returns the number of
    /// non-zero syndromes.
    fn syndromes_into(&self, codeword: &[u8], syn: &mut [u16]) -> usize {
        syn.fill(0);
        let nsym = self.check_symbols;
        if nsym == 3 {
            syn.copy_from_slice(&Self::syndromes012(codeword));
            return syn.iter().filter(|&&s| s != 0).count();
        }
        // General fused Horner pass: S_0 is a plain XOR fold, S_1
        // multiplies by α without touching the tables, the rest use
        // table muls.
        let mut s0 = 0u16;
        let mut s1 = 0u16;
        for pair in codeword.chunks_exact(2) {
            let c = u16::from_be_bytes([pair[0], pair[1]]);
            s0 ^= c;
            s1 = Gf16::mul_alpha(s1) ^ c;
        }
        syn[0] = s0;
        if nsym >= 2 {
            syn[1] = s1;
        }
        for (i, s) in syn.iter_mut().enumerate().take(nsym).skip(2) {
            let root = self.roots[i];
            let mut acc = 0u16;
            for pair in codeword.chunks_exact(2) {
                let c = u16::from_be_bytes([pair[0], pair[1]]);
                acc = Gf16::mul(acc, root) ^ c;
            }
            *s = acc;
        }
        syn[..nsym].iter().filter(|&&s| s != 0).count()
    }

    fn syndrome_weight(&self, codeword: &[u8]) -> usize {
        if self.check_symbols <= MAX_INLINE_CHECK_SYMBOLS {
            let mut syn = [0u16; MAX_INLINE_CHECK_SYMBOLS];
            self.syndromes_into(codeword, &mut syn[..self.check_symbols])
        } else {
            let mut syn = vec![0u16; self.check_symbols];
            self.syndromes_into(codeword, &mut syn)
        }
    }

    /// [`DetectionCode::check`] of the word that is zero but for
    /// `errors`, given as `(symbol position, value)` pairs over the
    /// codeword's `N = codeword_len / 2` big-endian symbols; values at a
    /// repeated position add. Each pair adds `e·X^i` to syndrome `S_i`,
    /// with location value `X = α^{N−1−p}`, so a word with a few non-zero
    /// symbols costs a few multiplies instead of a pass over all `N`. The
    /// code is linear, so this is also the check of any codeword carrying
    /// that error pattern (DESIGN.md §7). Allocation-free up to
    /// [`MAX_INLINE_CHECK_SYMBOLS`] check symbols.
    ///
    /// # Panics
    ///
    /// Panics if a position is `>= N`.
    pub fn check_sparse(&self, errors: impl IntoIterator<Item = (usize, u16)>) -> CheckOutcome {
        let symbols = self.codeword_len() / 2;
        let mut inline = [0u16; MAX_INLINE_CHECK_SYMBOLS];
        let mut wide = Vec::new();
        let syn = if self.check_symbols <= MAX_INLINE_CHECK_SYMBOLS {
            &mut inline[..self.check_symbols]
        } else {
            wide.resize(self.check_symbols, 0);
            &mut wide[..]
        };
        for (p, e) in errors {
            assert!(p < symbols, "symbol position out of codeword");
            let x = Gf16::alpha_pow((symbols - 1 - p) as u32);
            let mut term = e;
            for s in syn.iter_mut() {
                *s ^= term;
                term = Gf16::mul(term, x);
            }
        }
        CheckOutcome::from_syndrome_weight(syn.iter().filter(|&&v| v != 0).count())
    }
}

impl DetectionCode for Rs16Detect {
    fn data_len(&self) -> usize {
        self.data_bytes
    }

    fn codeword_len(&self) -> usize {
        self.data_bytes + 2 * self.check_symbols
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = vec![0u8; self.codeword_len()];
        self.encode_into(data, &mut cw);
        cw
    }

    fn encode_into(&self, data: &[u8], codeword: &mut [u8]) {
        assert_eq!(data.len(), self.data_bytes, "dataword length mismatch");
        assert_eq!(
            codeword.len(),
            self.codeword_len(),
            "codeword length mismatch"
        );
        codeword[..self.data_bytes].copy_from_slice(data);
        let parity_bytes = &mut codeword[self.data_bytes..];
        if self.check_symbols <= MAX_INLINE_CHECK_SYMBOLS {
            let mut rem = [0u16; MAX_INLINE_CHECK_SYMBOLS];
            let rem = &mut rem[..self.check_symbols];
            self.parity_into(data, rem);
            for (pair, p) in parity_bytes.chunks_exact_mut(2).zip(rem.iter()) {
                pair.copy_from_slice(&p.to_be_bytes());
            }
        } else {
            let mut rem = vec![0u16; self.check_symbols];
            self.parity_into(data, &mut rem);
            for (pair, p) in parity_bytes.chunks_exact_mut(2).zip(rem.iter()) {
                pair.copy_from_slice(&p.to_be_bytes());
            }
        }
    }

    fn check(&self, codeword: &[u8]) -> CheckOutcome {
        assert_eq!(
            codeword.len(),
            self.codeword_len(),
            "codeword length mismatch"
        );
        CheckOutcome::from_syndrome_weight(self.syndrome_weight(codeword))
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
        for check_symbols in [1usize, 2, 3, 4, 8, 9, 11] {
            let code = Rs16Detect::new(32, check_symbols);
            let data: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(9) ^ 0x5A).collect();
            let mut cw = vec![0xCCu8; code.codeword_len()]; // dirty buffer
            code.encode_into(&data, &mut cw);
            assert_eq!(cw, code.encode(&data), "check_symbols={check_symbols}");
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
    fn wide_codes_beyond_inline_register_still_roundtrip() {
        // check_symbols > MAX_INLINE_CHECK_SYMBOLS exercises the heap
        // fallback registers.
        let code = Rs16Detect::new(64, MAX_INLINE_CHECK_SYMBOLS + 3);
        let cw = code.encode(&line());
        assert_eq!(code.check(&cw), CheckOutcome::NoError);
        let mut bad = cw.clone();
        bad[1] ^= 0x40;
        assert!(!code.check(&bad).is_good());
    }

    #[test]
    fn overhead_is_lower_than_chipkill_for_cache_line() {
        // 6 bytes over 64 = 9.4% < chipkill's 12.5% — this is the "extra
        // code space" argument of §III.
        let tsd = Rs16Detect::tsd(64);
        assert!(tsd.overhead() < 0.125);
        assert_eq!(tsd.check_symbols(), 3);
    }

    #[test]
    #[should_panic(expected = "whole number of 16-bit symbols")]
    fn odd_payload_rejected() {
        Rs16Detect::tsd(63);
    }
}
