//! Reed–Solomon RS(18,16) over GF(2^8) — the substrate of Chipkill ECC.
//!
//! The paper's baseline (§IV-A) is an "8-bit symbol based RS(18,16,8) code
//! with SSC-DSD", i.e. 16 data symbols + 2 check symbols per codeword with
//! each symbol sourced from a different DRAM chip, so a whole-chip failure
//! manifests as a single-symbol error. [`Rs`] is that systematic code:
//!
//! * encoding by solving for the two parity symbols from the data
//!   syndromes,
//! * syndrome computation,
//! * single-symbol correction in closed form.
//!
//! The [`DecodePolicy`] selects how the code is *used*: `Correct` behaves
//! like Chipkill (repair one symbol, [`Rs::chipkill`]), `DetectOnly`
//! behaves like the paper's DSD configuration ([`Rs::dsd`]: Dvé
//! relinquishes local correction and any non-zero syndrome routes the
//! request to the replica).
//!
//! # Hot-path design
//!
//! Millions of campaign trials and scrub reads funnel through this codec,
//! so the decode pipeline is organised around four invariants:
//!
//! * **Everything position-dependent is precomputed once** in the
//!   constructor: per-position location values `X_j = α^{17-j}` and
//!   their inverses, the `α^i` step factors the Chien search advances
//!   by, and the parity-solve matrix. No `pow` is ever called per
//!   decode.
//! * **Fault-free words exit early**: [`Rs::decode_in_place`] computes the
//!   syndromes in a single fused pass (`S_0` is a plain XOR fold; `S_1`
//!   is a Horner loop of table-free α-multiplies) and returns before any
//!   correction runs when both are zero — the overwhelming majority of
//!   scrub and campaign reads.
//! * **Correction is closed-form.** A single error of magnitude `e` at
//!   location `X` gives `S_0 = e` and `S_1 = e·X`, so correction is two
//!   log lookups: `X = S_1/S_0`. This is exactly what
//!   Berlekamp–Massey/Chien/Forney return for two check symbols; those
//!   run only in [`Rs::decode_general_in_place`], the oracle the closed
//!   form is property-tested against.
//! * **The caller owns the buffers**: [`Rs::encode_into`] writes into
//!   the caller's codeword and [`RsScratch`] carries every buffer the
//!   general decoder needs, so encoding and both decodes are
//!   allocation-free after construction.

use crate::code::{CheckOutcome, DetectionCode};
use crate::gf::Gf256;

/// Codeword length in symbols (bytes).
const N: usize = 18;
/// Dataword length in symbols (bytes).
const K: usize = 16;
/// Check symbols, `N - K`.
const NSYM: usize = N - K;

/// How a Reed–Solomon code reacts to a non-zero syndrome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodePolicy {
    /// Attempt in-place correction of a single symbol (Chipkill SSC).
    Correct,
    /// Never correct locally: report any detected error as uncorrectable
    /// so the caller recovers from the replica (Dvé+DSD).
    DetectOnly,
}

/// Caller-owned scratch buffers for [`Rs::decode_in_place`] and
/// [`Rs::decode_general_in_place`].
///
/// Create one per worker with [`Rs::make_scratch`] and reuse it across
/// decodes; all buffers are `clear()`ed/overwritten per call, never
/// reallocated (capacities are sized for the worst decode up front).
#[derive(Debug, Clone, Default)]
pub struct RsScratch {
    syn: Vec<u8>,
    sigma: Vec<u8>,
    prev: Vec<u8>,
    temp: Vec<u8>,
    omega: Vec<u8>,
    coefs: Vec<u8>,
    positions: Vec<usize>,
    magnitudes: Vec<u8>,
}

/// The systematic RS(18,16) code over GF(2^8).
///
/// # Example
///
/// ```
/// use dve_ecc::rs::Rs;
/// use dve_ecc::code::{CheckOutcome, DetectionCode};
///
/// // Chipkill-style RS(18,16): corrects any single-symbol (chip) error.
/// let chipkill = Rs::chipkill();
/// let data: Vec<u8> = (100..116).collect();
/// let mut cw = chipkill.encode(&data);
/// cw[7] ^= 0xFF; // whole-chip failure on symbol 7
/// let outcome = chipkill.decode_in_place(&mut cw, &mut chipkill.make_scratch());
/// assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 1 });
/// assert_eq!(chipkill.extract_data(&cw), data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rs {
    policy: DecodePolicy,
    /// Location values: `x[j] = α^{N-1-j}` for codeword position `j`.
    x: [u8; N],
    /// Inverse location values: `x_inv[j] = α^{-(N-1-j)}`.
    x_inv: [u8; N],
    /// Chien step factors: `alpha_pows[i] = α^i` for `i <= NSYM`.
    alpha_pows: [u8; NSYM + 1],
    /// Parity `p_t = solve2[t][0]·S_0 + solve2[t][1]·S_1` from the
    /// data-only syndromes (see [`Rs::encode_into`]).
    solve2: [[u8; 2]; 2],
}

impl Rs {
    /// RS(18,16) under `policy`. All position-dependent constants are
    /// precomputed here so the per-decode paths are free of `pow` calls
    /// and allocations.
    fn new(policy: DecodePolicy) -> Rs {
        let x: [u8; N] = std::array::from_fn(|j| Gf256::alpha_pow((N - 1 - j) as u32));
        // Parity symbols p_0, p_1 sit at locations X_0 = α, X_1 = 1 and
        // must satisfy p_0·X_0^i + p_1·X_1^i = α^{2i}·S_i (S_i over the
        // data alone, shifted past the parity). Row t of the inverse
        // Vandermonde matrix is the Lagrange basis (x + X_other)/(X_t +
        // X_other); the α^{2i} shift is folded into column i.
        let (a, a2) = (Gf256::alpha_pow(1), Gf256::alpha_pow(2));
        let d = Gf256::inv(a ^ 1);
        Rs {
            policy,
            x,
            x_inv: x.map(Gf256::inv),
            alpha_pows: std::array::from_fn(|i| Gf256::alpha_pow(i as u32)),
            solve2: [
                [d, Gf256::mul(d, a2)],
                [Gf256::mul(d, a), Gf256::mul(d, a2)],
            ],
        }
    }

    /// The paper's Chipkill configuration: RS(18,16) with correction.
    pub fn chipkill() -> Rs {
        Rs::new(DecodePolicy::Correct)
    }

    /// The paper's DSD configuration: RS(18,16) detect-only (Dvé+DSD).
    pub fn dsd() -> Rs {
        Rs::new(DecodePolicy::DetectOnly)
    }

    /// Builds a scratch sized for the worst-case decode.
    pub fn make_scratch(&self) -> RsScratch {
        RsScratch {
            syn: Vec::with_capacity(NSYM),
            sigma: Vec::with_capacity(2 * NSYM + 2),
            prev: Vec::with_capacity(2 * NSYM + 2),
            temp: Vec::with_capacity(2 * NSYM + 2),
            omega: Vec::with_capacity(NSYM),
            coefs: Vec::with_capacity(NSYM + 1),
            positions: Vec::with_capacity(NSYM),
            magnitudes: Vec::with_capacity(NSYM),
        }
    }

    /// `[S_0, S_1]` of `symbols` read as a polynomial, highest degree
    /// first, in one fused pass: `S_0` is a plain XOR fold (root
    /// α^0 = 1), `S_1` a Horner walk with the generator α itself —
    /// shift/reduce, no tables.
    fn syndromes(symbols: &[u8]) -> [u8; NSYM] {
        let mut s0 = 0u8;
        let mut s1 = 0u8;
        for &c in symbols {
            s0 ^= c;
            s1 = Gf256::mul_alpha(s1) ^ c;
        }
        [s0, s1]
    }

    /// Berlekamp–Massey over `s.syn`, leaving the error locator in
    /// `s.sigma` (lowest-degree first, `sigma[0] == 1`). Allocation-free:
    /// works entirely in the scratch buffers.
    fn berlekamp_massey_into(s: &mut RsScratch) {
        s.sigma.clear();
        s.sigma.push(1);
        s.prev.clear();
        s.prev.push(1);
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u8;
        for n in 0..s.syn.len() {
            // Discrepancy d = S_n + sum sigma[i] * S_{n-i}.
            let mut d = s.syn[n];
            for i in 1..=l {
                if i < s.sigma.len() {
                    d ^= Gf256::mul(s.sigma[i], s.syn[n - i]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                s.temp.clear();
                s.temp.extend_from_slice(&s.sigma);
                let coef = Gf256::div(d, b);
                // sigma = sigma - coef * x^m * prev
                let shift = m;
                if s.sigma.len() < s.prev.len() + shift {
                    s.sigma.resize(s.prev.len() + shift, 0);
                }
                for i in 0..s.prev.len() {
                    s.sigma[i + shift] ^= Gf256::mul(coef, s.prev[i]);
                }
                l = n + 1 - l;
                std::mem::swap(&mut s.prev, &mut s.temp);
                b = d;
                m = 1;
            } else {
                let coef = Gf256::div(d, b);
                let shift = m;
                if s.sigma.len() < s.prev.len() + shift {
                    s.sigma.resize(s.prev.len() + shift, 0);
                }
                for i in 0..s.prev.len() {
                    s.sigma[i + shift] ^= Gf256::mul(coef, s.prev[i]);
                }
                m += 1;
            }
        }
        // Trim trailing zeros.
        while s.sigma.len() > 1 && *s.sigma.last().unwrap() == 0 {
            s.sigma.pop();
        }
    }

    /// Chien search by incremental evaluation: positions (codeword
    /// indices from the left) where the locator evaluates to zero.
    ///
    /// Position `j` corresponds to evaluating σ at `X_j^{-1} = α^{j-(N-1)}`;
    /// stepping `j → j+1` multiplies the evaluation point by α, so the
    /// `i`-th term of σ just picks up a constant factor `α^i` per step —
    /// no `pow` anywhere.
    fn chien_search_into(&self, s: &mut RsScratch) {
        s.positions.clear();
        let deg = s.sigma.len() - 1;
        // Initialise coefs[i] = sigma[i] * (X_0^{-1})^i with a running
        // product.
        s.coefs.clear();
        let x_inv0 = self.x_inv[0];
        let mut xp = 1u8;
        for i in 0..=deg {
            s.coefs.push(Gf256::mul(s.sigma[i], xp));
            xp = Gf256::mul(xp, x_inv0);
        }
        for j in 0..N {
            let mut acc = 0u8;
            for &c in s.coefs.iter() {
                acc ^= c;
            }
            if acc == 0 {
                s.positions.push(j);
            }
            if j + 1 < N {
                for (i, c) in s.coefs.iter_mut().enumerate().skip(1) {
                    *c = Gf256::mul(*c, self.alpha_pows[i]);
                }
            }
        }
    }

    /// Forney's algorithm: error magnitudes at `s.positions`, written to
    /// `s.magnitudes`. Polynomial evaluations use Horner on the
    /// precomputed per-position location values — no `pow` calls.
    fn forney_into(&self, s: &mut RsScratch) {
        // Error evaluator omega(x) = [S(x) * sigma(x)] mod x^NSYM,
        // with S(x) = sum S_i x^i (lowest-degree first).
        s.omega.clear();
        for i in 0..NSYM {
            let mut acc = 0u8;
            for j in 0..=i {
                if j < s.sigma.len() && (i - j) < s.syn.len() {
                    acc ^= Gf256::mul(s.sigma[j], s.syn[i - j]);
                }
            }
            s.omega.push(acc);
        }
        s.magnitudes.clear();
        for p in 0..s.positions.len() {
            let j = s.positions[p];
            let x_inv = self.x_inv[j];
            // omega(x_inv) by Horner (omega is lowest-degree first).
            let mut num = 0u8;
            for &c in s.omega.iter().rev() {
                num = Gf256::mul(num, x_inv) ^ c;
            }
            // sigma'(x_inv): derivative in char 2 keeps odd-power terms,
            // each contributing sigma[i] * x^{i-1}. Evaluate with a
            // running product of x_inv^2.
            let x_inv2 = Gf256::mul(x_inv, x_inv);
            let mut den = 0u8;
            let mut xp = 1u8;
            let mut i = 1;
            while i < s.sigma.len() {
                den ^= Gf256::mul(s.sigma[i], xp);
                xp = Gf256::mul(xp, x_inv2);
                i += 2;
            }
            if den == 0 {
                // Degenerate: signal failure with zero magnitude; caller
                // treats as uncorrectable.
                s.magnitudes.push(0);
            } else {
                // e_j = X_j * omega(X_j^{-1}) / sigma'(X_j^{-1}) with
                // fcr = 0 => multiply by X_j^{1-fcr} = X_j.
                s.magnitudes
                    .push(Gf256::mul(self.x[j], Gf256::div(num, den)));
            }
        }
    }

    /// Checks and (under [`DecodePolicy::Correct`]) repairs `codeword` in
    /// place using caller-owned scratch. Allocation-free; the fast path
    /// for fault-free codewords never runs a corrector, and a single
    /// symbol error is corrected in closed form.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != 18`.
    pub fn decode_in_place(&self, codeword: &mut [u8], s: &mut RsScratch) -> CheckOutcome {
        self.decode_with(codeword, s, true)
    }

    /// [`Rs::decode_in_place`] through Berlekamp–Massey, Chien and Forney
    /// instead of the closed form — the oracle that closed form is tested
    /// against. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != 18`.
    pub fn decode_general_in_place(&self, codeword: &mut [u8], s: &mut RsScratch) -> CheckOutcome {
        self.decode_with(codeword, s, false)
    }

    /// [`DetectionCode::check`] of the word that is zero but for
    /// `errors`, given as `(position, value)` pairs; values at a repeated
    /// position add. Each pair adds `e·X^i` to syndrome `S_i`, with the
    /// location value `X = α^{17−p}` from the constructor's table, so a
    /// word with a few non-zero symbols costs a few multiplies instead of
    /// a pass over all 18. The code is linear, so this is also the check
    /// of any codeword carrying that error pattern (DESIGN.md §7).
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a position is `>= 18`.
    pub fn check_sparse(&self, errors: impl IntoIterator<Item = (usize, u8)>) -> CheckOutcome {
        let mut syn = [0u8; NSYM];
        for (p, e) in errors {
            syn[0] ^= e;
            syn[1] ^= Gf256::mul(e, self.x[p]);
        }
        CheckOutcome::from_syndromes(&syn)
    }

    fn decode_with(
        &self,
        codeword: &mut [u8],
        s: &mut RsScratch,
        closed_form: bool,
    ) -> CheckOutcome {
        assert_eq!(codeword.len(), N, "codeword length mismatch");
        let syn = Self::syndromes(codeword);
        let outcome = CheckOutcome::from_syndromes(&syn);
        // Syndrome-zero early exit: fault-free words never reach a
        // corrector.
        if outcome == CheckOutcome::NoError || self.policy == DecodePolicy::DetectOnly {
            return outcome;
        }
        let fixed = if closed_form {
            self.correct_single(codeword, syn)
        } else {
            s.syn.clear();
            s.syn.extend_from_slice(&syn);
            self.correct_general(codeword, s)
        };
        fixed.map_or(outcome, |symbols_fixed| CheckOutcome::Corrected {
            symbols_fixed,
        })
    }

    /// Closed-form single-symbol correction: the error sits at location
    /// `X = S_1/S_0` with magnitude `S_0`. A zero syndrome (the other
    /// being non-zero) or a location outside the codeword means more
    /// than one symbol is wrong.
    fn correct_single(&self, codeword: &mut [u8], [s0, s1]: [u8; NSYM]) -> Option<usize> {
        if s0 == 0 || s1 == 0 {
            return None;
        }
        let l = (Gf256::log(s1) + 255 - Gf256::log(s0)) as usize % 255;
        if l >= N {
            return None;
        }
        codeword[N - 1 - l] ^= s0;
        Some(1)
    }

    /// Berlekamp–Massey, Chien and Forney over the syndromes in `s.syn`;
    /// the number of symbols repaired, or `None` if uncorrectable.
    fn correct_general(&self, codeword: &mut [u8], s: &mut RsScratch) -> Option<usize> {
        Self::berlekamp_massey_into(s);
        let num_errors = s.sigma.len() - 1;
        if num_errors == 0 || num_errors > NSYM / 2 {
            return None;
        }
        self.chien_search_into(s);
        if s.positions.len() != num_errors {
            // Locator degree and root count disagree: uncorrectable.
            return None;
        }
        self.forney_into(s);
        if s.magnitudes.contains(&0) {
            return None;
        }
        for (&pos, &mag) in s.positions.iter().zip(&s.magnitudes) {
            codeword[pos] ^= mag;
        }
        // Verify the repair really zeroed the syndromes.
        if Self::syndromes(codeword) != [0; NSYM] {
            return None;
        }
        Some(s.positions.len())
    }
}

impl DetectionCode for Rs {
    fn data_len(&self) -> usize {
        K
    }

    fn codeword_len(&self) -> usize {
        N
    }

    /// Encodes `data` systematically into the caller-provided `codeword`
    /// buffer (`data` copied to the front, parity written behind it).
    /// Allocation-free.
    ///
    /// The parity is solved from the data's two syndromes — one
    /// table-free pass plus four multiplies by constructor constants.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 16` or `codeword.len() != 18`.
    fn encode_into(&self, data: &[u8], codeword: &mut [u8]) {
        assert_eq!(data.len(), K, "dataword length mismatch");
        assert_eq!(codeword.len(), N, "codeword length mismatch");
        let (out_data, parity) = codeword.split_at_mut(K);
        out_data.copy_from_slice(data);
        let [s0, s1] = Self::syndromes(data);
        for (p, row) in parity.iter_mut().zip(&self.solve2) {
            *p = Gf256::mul(row[0], s0) ^ Gf256::mul(row[1], s1);
        }
    }

    fn check(&self, codeword: &[u8]) -> CheckOutcome {
        assert_eq!(codeword.len(), N, "codeword length mismatch");
        CheckOutcome::from_syndromes(&Self::syndromes(codeword))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(k: usize) -> Vec<u8> {
        (0..k as u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = Rs::chipkill();
        let d = data(16);
        let cw = rs.encode(&d);
        assert_eq!(cw.len(), 18);
        assert_eq!(&cw[..16], d.as_slice());
    }

    #[test]
    fn encode_into_matches_encode() {
        for rs in [Rs::chipkill(), Rs::dsd()] {
            let d = data(16);
            let mut cw = vec![0xAAu8; 18]; // dirty buffer must be overwritten
            rs.encode_into(&d, &mut cw);
            assert_eq!(cw, rs.encode(&d), "{:?}", rs.policy);
        }
    }

    #[test]
    fn clean_codeword_checks_clean() {
        let rs = Rs::chipkill();
        let cw = rs.encode(&data(16));
        assert_eq!(rs.check(&cw), CheckOutcome::NoError);
    }

    #[test]
    fn corrects_single_symbol_any_position() {
        let rs = Rs::chipkill();
        let d = data(16);
        let mut scratch = rs.make_scratch();
        for pos in 0..18 {
            for pattern in [0x01u8, 0xFF, 0xA5] {
                let mut cw = rs.encode(&d);
                cw[pos] ^= pattern;
                let outcome = rs.decode_in_place(&mut cw, &mut scratch);
                assert_eq!(
                    outcome,
                    CheckOutcome::Corrected { symbols_fixed: 1 },
                    "pos={pos} pattern={pattern:#x}"
                );
                assert_eq!(rs.extract_data(&cw), d);
            }
        }
    }

    #[test]
    fn two_symbol_errors_flagged_uncorrectable_by_rs18_16() {
        let rs = Rs::chipkill();
        let d = data(16);
        let mut cw = rs.encode(&d);
        cw[2] ^= 0x55;
        cw[9] ^= 0x7C;
        let outcome = rs.decode_in_place(&mut cw, &mut rs.make_scratch());
        assert!(
            matches!(outcome, CheckOutcome::DetectedUncorrectable { .. }),
            "got {outcome:?}"
        );
    }

    #[test]
    fn detect_only_policy_never_repairs() {
        let rs = Rs::dsd();
        let d = data(16);
        let mut cw = rs.encode(&d);
        cw[0] ^= 0x01;
        let before = cw.clone();
        let outcome = rs.decode_in_place(&mut cw, &mut rs.make_scratch());
        assert!(matches!(
            outcome,
            CheckOutcome::DetectedUncorrectable { .. }
        ));
        assert_eq!(cw, before, "detect-only must not mutate the codeword");
    }

    #[test]
    fn scratch_reuse_across_mixed_decodes_is_clean() {
        // One scratch must serve interleaved clean/1-err/2-err decodes,
        // closed-form and general, without state leaking between calls.
        let rs = Rs::chipkill();
        let clean = rs.encode(&data(16));
        let mut scratch = rs.make_scratch();
        let decoders = [Rs::decode_in_place, Rs::decode_general_in_place];
        for round in 0..50 {
            for decode in decoders {
                let mut cw = clean.clone();
                assert_eq!(
                    decode(&rs, &mut cw, &mut scratch),
                    CheckOutcome::NoError,
                    "round {round} clean"
                );
                cw[(round * 7) % 18] ^= 0x3C;
                assert_eq!(
                    decode(&rs, &mut cw, &mut scratch),
                    CheckOutcome::Corrected { symbols_fixed: 1 },
                    "round {round} 1-err"
                );
                assert_eq!(&cw, &clean);
                cw[round % 18] ^= 0x11;
                cw[(round + 5) % 18] ^= 0x2F;
                let mut fresh = cw.clone();
                assert_eq!(
                    decode(&rs, &mut cw, &mut scratch),
                    decode(&rs, &mut fresh, &mut rs.make_scratch()),
                    "round {round} 2-err"
                );
                assert_eq!(&cw, &fresh);
            }
        }
    }

    #[test]
    fn overhead_matches_paper_numbers() {
        // RS(18,16): 2/16 = 12.5% ECC overhead.
        let rs = Rs::chipkill();
        assert!((rs.overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dataword length mismatch")]
    fn rejects_wrong_data_len() {
        Rs::chipkill().encode(&[0u8; 15]);
    }

    #[test]
    fn burst_within_one_symbol_is_single_symbol_error() {
        // Chipkill's point: all bits of one chip map to one symbol.
        let rs = Rs::chipkill();
        let d = data(16);
        let mut cw = rs.encode(&d);
        cw[5] = !cw[5]; // all 8 bits of the symbol flip
        assert_eq!(
            rs.decode_in_place(&mut cw, &mut rs.make_scratch()),
            CheckOutcome::Corrected { symbols_fixed: 1 }
        );
        assert_eq!(rs.extract_data(&cw), d);
    }
}
