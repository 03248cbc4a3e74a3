//! Reed–Solomon codes over GF(2^8) — the substrate of Chipkill ECC.
//!
//! The paper's baseline (§IV-A) is an "8-bit symbol based RS(18,16,8) code
//! with SSC-DSD", i.e. 16 data symbols + 2 check symbols per codeword with
//! each symbol sourced from a different DRAM chip, so a whole-chip failure
//! manifests as a single-symbol error. [`Rs`] implements a general
//! systematic RS(n, k) codec:
//!
//! * encoding by polynomial long division (parity = remainder), or for
//!   two check symbols by solving for the parity from the data syndromes,
//! * syndrome computation,
//! * decoding in closed form for two check symbols, and via
//!   Berlekamp–Massey, Chien search and Forney's algorithm otherwise.
//!
//! The [`DecodePolicy`] selects how the code is *used*: `Correct` behaves
//! like Chipkill (repair up to ⌊(n−k)/2⌋ symbols), `DetectOnly` behaves
//! like the paper's DSD configuration (Dvé relinquishes local correction
//! and any non-zero syndrome routes the request to the replica).
//!
//! # Hot-path design
//!
//! Millions of campaign trials and scrub reads funnel through this codec,
//! so the decode pipeline is organised around four invariants:
//!
//! * **Everything position-dependent is precomputed once** in the
//!   constructor: syndrome roots `α^i`, per-position location values
//!   `X_j = α^{n-1-j}` and their inverses, the `α^i` step factors the
//!   Chien search advances by, and the parity-solve matrix. No `pow` is
//!   ever called per decode; Chien/Forney use incremental running
//!   products and Horner evaluation.
//! * **Fault-free words exit early**: [`Rs::decode_in_place`] computes the
//!   syndromes in a single fused pass (the `i = 0` syndrome is a plain
//!   XOR fold; `i = 1` is a Horner loop of table-free α-multiplies) and
//!   returns before any correction runs when they are all zero — the
//!   overwhelming majority of scrub and campaign reads.
//! * **Two check symbols never run the general decoder.** A single error
//!   of magnitude `e` at location `X` gives `S_0 = e` and `S_1 = e·X`, so
//!   RS(18,16) correction is two log lookups: `X = S_1/S_0`.
//!   This is exactly what Berlekamp–Massey/Chien/Forney return for
//!   `n − k = 2` (property-tested against [`Rs::decode_general_in_place`]),
//!   at a fraction of the cost.
//! * **The caller owns the scratch**: [`RsScratch`] carries every buffer
//!   the decoder needs, so [`Rs::encode_into`] and [`Rs::decode_in_place`]
//!   are allocation-free after construction. The legacy allocating
//!   `encode`/`check`/`check_and_repair` APIs remain as thin wrappers.

use crate::code::{CheckOutcome, CorrectionCode, DetectionCode};
use crate::gf::Gf256;

/// How a Reed–Solomon code reacts to a non-zero syndrome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodePolicy {
    /// Attempt in-place correction up to the code's capability
    /// (Chipkill-style SSC with `n - k = 2`).
    Correct,
    /// Never correct locally: report any detected error as uncorrectable
    /// so the caller recovers from the replica (Dvé+DSD).
    DetectOnly,
}

/// Caller-owned scratch buffers for [`Rs::decode_in_place`].
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

/// A systematic Reed–Solomon code over GF(2^8).
///
/// # Example
///
/// ```
/// use dve_ecc::rs::{DecodePolicy, Rs};
/// use dve_ecc::code::{CheckOutcome, CorrectionCode, DetectionCode};
///
/// // Chipkill-style RS(18,16): corrects any single-symbol (chip) error.
/// let chipkill = Rs::new(18, 16, DecodePolicy::Correct);
/// let data: Vec<u8> = (100..116).collect();
/// let mut cw = chipkill.encode(&data);
/// cw[7] ^= 0xFF; // whole-chip failure on symbol 7
/// let outcome = chipkill.check_and_repair(&mut cw);
/// assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 1 });
/// assert_eq!(chipkill.extract_data(&cw), data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rs {
    n: usize,
    k: usize,
    policy: DecodePolicy,
    generator: Vec<u8>,
    /// Syndrome roots: `roots[i] = α^i` for `i < n - k`.
    roots: Vec<u8>,
    /// Location values: `x[j] = α^{n-1-j}` for codeword position `j`.
    x: Vec<u8>,
    /// Inverse location values: `x_inv[j] = α^{-(n-1-j)}`.
    x_inv: Vec<u8>,
    /// Chien step factors: `alpha_pows[i] = α^i` for `i <= n - k`.
    alpha_pows: Vec<u8>,
    /// For `n - k == 2`: parity `p_t = solve2[t][0]·S_0 + solve2[t][1]·S_1`
    /// from the data-only syndromes (see [`Rs::encode_into`]).
    solve2: Option<[[u8; 2]; 2]>,
}

impl Rs {
    /// Creates an RS(n, k) code.
    ///
    /// All position-dependent constants (syndrome roots, Chien/Forney
    /// location tables) are precomputed here so the per-decode paths are
    /// free of `pow` calls and allocations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize, policy: DecodePolicy) -> Rs {
        assert!(
            k > 0 && k < n && n <= 255,
            "invalid RS parameters n={n} k={k}"
        );
        let nsym = n - k;
        let roots: Vec<u8> = (0..nsym).map(|i| Gf256::alpha_pow(i as u32)).collect();
        let x: Vec<u8> = (0..n)
            .map(|j| Gf256::alpha_pow((n - 1 - j) as u32))
            .collect();
        let x_inv: Vec<u8> = x.iter().map(|&v| Gf256::inv(v)).collect();
        let alpha_pows: Vec<u8> = (0..=nsym).map(|i| Gf256::alpha_pow(i as u32)).collect();
        let generator = Self::generator_poly(nsym);
        // Parity symbols p_0, p_1 sit at locations X_0 = α, X_1 = 1 and
        // must satisfy p_0·X_0^i + p_1·X_1^i = α^{2i}·S_i (S_i over the
        // data alone, shifted past the parity). Row t of the inverse
        // Vandermonde matrix is the Lagrange basis (x + X_other)/(X_t +
        // X_other); the α^{2i} shift is folded into column i.
        let solve2 = (nsym == 2).then(|| {
            let (a, a2) = (Gf256::alpha_pow(1), Gf256::alpha_pow(2));
            let d = Gf256::inv(a ^ 1);
            [
                [d, Gf256::mul(d, a2)],
                [Gf256::mul(d, a), Gf256::mul(d, a2)],
            ]
        });
        Rs {
            n,
            k,
            policy,
            generator,
            roots,
            x,
            x_inv,
            alpha_pows,
            solve2,
        }
    }

    /// The paper's Chipkill configuration: RS(18,16) with correction.
    pub fn chipkill() -> Rs {
        Rs::new(18, 16, DecodePolicy::Correct)
    }

    /// The paper's DSD configuration: RS(18,16) detect-only (Dvé+DSD).
    pub fn dsd() -> Rs {
        Rs::new(18, 16, DecodePolicy::DetectOnly)
    }

    /// Number of parity symbols `n - k`.
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// The decode policy in effect.
    pub fn policy(&self) -> DecodePolicy {
        self.policy
    }

    /// Builds a scratch sized for this code's worst-case decode.
    pub fn make_scratch(&self) -> RsScratch {
        let nsym = self.parity_len();
        RsScratch {
            syn: Vec::with_capacity(nsym),
            sigma: Vec::with_capacity(2 * nsym + 2),
            prev: Vec::with_capacity(2 * nsym + 2),
            temp: Vec::with_capacity(2 * nsym + 2),
            omega: Vec::with_capacity(nsym),
            coefs: Vec::with_capacity(nsym + 1),
            positions: Vec::with_capacity(nsym),
            magnitudes: Vec::with_capacity(nsym),
        }
    }

    /// g(x) = Π_{i=0}^{nsym-1} (x − α^i), coefficients highest-degree
    /// first.
    fn generator_poly(nsym: usize) -> Vec<u8> {
        let mut g = vec![1u8];
        for i in 0..nsym {
            // Multiply g by (x - alpha^i) == (x + alpha^i) in GF(2^m).
            let root = Gf256::alpha_pow(i as u32);
            let mut next = vec![0u8; g.len() + 1];
            for (j, &c) in g.iter().enumerate() {
                next[j] ^= c; // times x
                next[j + 1] ^= Gf256::mul(c, root);
            }
            g = next;
        }
        g
    }

    /// `(S_0, S_1)` of `symbols` read as a polynomial, highest degree
    /// first, in one fused pass: `S_0` is a plain XOR fold (root
    /// α^0 = 1), `S_1` a Horner walk with the generator α itself —
    /// shift/reduce, no tables.
    fn syndromes01(symbols: &[u8]) -> (u8, u8) {
        let mut s0 = 0u8;
        let mut s1 = 0u8;
        for &c in symbols {
            s0 ^= c;
            s1 = Gf256::mul_alpha(s1) ^ c;
        }
        (s0, s1)
    }

    /// Syndromes S_i = C(α^i) for i in 0..nsym, written into `syn`
    /// (cleared first). Returns `true` if any syndrome is non-zero.
    ///
    /// RS(18,16) has no syndromes beyond [`Rs::syndromes01`], so its
    /// clean path is a single traversal; higher ones are table Horner
    /// walks with root α^i.
    fn syndromes_into(&self, codeword: &[u8], syn: &mut Vec<u8>) -> bool {
        let nsym = self.parity_len();
        syn.clear();
        syn.resize(nsym, 0);
        let (s0, s1) = Self::syndromes01(codeword);
        syn[0] = s0;
        if nsym >= 2 {
            syn[1] = s1;
        }
        for (i, s) in syn.iter_mut().enumerate().skip(2) {
            let root = self.roots[i];
            let mut acc = 0u8;
            for &c in codeword {
                acc = Gf256::mul(acc, root) ^ c;
            }
            *s = acc;
        }
        syn.iter().any(|&s| s != 0)
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
    /// Position `j` corresponds to evaluating σ at `X_j^{-1} = α^{j-(n-1)}`;
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
        for j in 0..self.n {
            let mut acc = 0u8;
            for &c in s.coefs.iter() {
                acc ^= c;
            }
            if acc == 0 {
                s.positions.push(j);
            }
            if j + 1 < self.n {
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
        // Error evaluator omega(x) = [S(x) * sigma(x)] mod x^nsym,
        // with S(x) = sum S_i x^i (lowest-degree first).
        let nsym = self.parity_len();
        s.omega.clear();
        for i in 0..nsym {
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

    /// Encodes `data` systematically into the caller-provided `codeword`
    /// buffer (`data` copied to the front, parity written behind it).
    /// Allocation-free.
    ///
    /// With two check symbols (RS(18,16)) the parity is solved from the
    /// data's two syndromes — one table-free pass plus four multiplies by
    /// constructor constants — instead of a per-symbol LFSR; other codes
    /// run the generic LFSR.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or `codeword.len() != n`.
    pub fn encode_into(&self, data: &[u8], codeword: &mut [u8]) {
        assert_eq!(data.len(), self.k, "dataword length mismatch");
        assert_eq!(codeword.len(), self.n, "codeword length mismatch");
        let (out_data, remainder) = codeword.split_at_mut(self.k);
        out_data.copy_from_slice(data);
        if let Some(m) = &self.solve2 {
            let (s0, s1) = Self::syndromes01(data);
            for (p, row) in remainder.iter_mut().zip(m) {
                *p = Gf256::mul(row[0], s0) ^ Gf256::mul(row[1], s1);
            }
            return;
        }
        remainder.fill(0);
        let nsym = self.parity_len();
        for &d in data {
            let coef = d ^ remainder[0];
            remainder.rotate_left(1);
            remainder[nsym - 1] = 0;
            if coef != 0 {
                // generator[0] == 1 (monic); skip it.
                Gf256::fma_slice(remainder, &self.generator[1..], coef);
            }
        }
    }

    /// Checks and (under [`DecodePolicy::Correct`]) repairs `codeword` in
    /// place using caller-owned scratch. Allocation-free; the fast path
    /// for fault-free codewords never runs a corrector, and two-check
    /// codes correct in closed form.
    ///
    /// Behaviourally identical to [`CorrectionCode::check_and_repair`]
    /// (which wraps this with a thread-local scratch).
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn decode_in_place(&self, codeword: &mut [u8], s: &mut RsScratch) -> CheckOutcome {
        self.decode_with(codeword, s, self.parity_len() == 2)
    }

    /// [`Rs::decode_in_place`] through Berlekamp–Massey, Chien and Forney
    /// for every code, including the two-check codes `decode_in_place`
    /// corrects in closed form — the oracle that closed form is tested
    /// against. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn decode_general_in_place(&self, codeword: &mut [u8], s: &mut RsScratch) -> CheckOutcome {
        self.decode_with(codeword, s, false)
    }

    /// [`DetectionCode::check`] of the word that is zero but for
    /// `errors`, given as `(position, value)` pairs; values at a repeated
    /// position add. Each pair adds `e·X^i` to syndrome `S_i`, with the
    /// location value `X = α^{n−1−p}` from the constructor's table, so a
    /// word with a few non-zero symbols costs a few multiplies instead of
    /// a pass over all `n`. The code is linear, so this is also the check
    /// of any codeword carrying that error pattern (DESIGN.md §7).
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a position is `>= n`.
    pub fn check_sparse(&self, errors: impl IntoIterator<Item = (usize, u8)>) -> CheckOutcome {
        let mut syn = [0u8; 255];
        let syn = &mut syn[..self.parity_len()];
        for (p, e) in errors {
            let x = self.x[p];
            let mut term = e;
            for s in syn.iter_mut() {
                *s ^= term;
                term = Gf256::mul(term, x);
            }
        }
        CheckOutcome::from_syndrome_weight(syn.iter().filter(|&&v| v != 0).count())
    }

    fn decode_with(
        &self,
        codeword: &mut [u8],
        s: &mut RsScratch,
        closed_form: bool,
    ) -> CheckOutcome {
        assert_eq!(codeword.len(), self.n, "codeword length mismatch");
        // Syndrome-zero early exit: fault-free words never reach a
        // corrector.
        if !self.syndromes_into(codeword, &mut s.syn) {
            return CheckOutcome::NoError;
        }
        let due = CheckOutcome::DetectedUncorrectable {
            syndrome_weight: s.syn.iter().filter(|&&v| v != 0).count(),
        };
        if self.policy == DecodePolicy::DetectOnly {
            return due;
        }
        let fixed = if closed_form {
            self.correct_single(codeword, s.syn[0], s.syn[1])
        } else {
            self.correct_general(codeword, s)
        };
        fixed.map_or(due, |symbols_fixed| CheckOutcome::Corrected {
            symbols_fixed,
        })
    }

    /// Closed-form correction for two check symbols: the error sits at
    /// location `X = S_1/S_0` with magnitude `S_0`. A zero syndrome (the
    /// other being non-zero) or a location outside the codeword means
    /// more than one symbol is wrong.
    fn correct_single(&self, codeword: &mut [u8], s0: u8, s1: u8) -> Option<usize> {
        if s0 == 0 || s1 == 0 {
            return None;
        }
        let l = (Gf256::log(s1) + 255 - Gf256::log(s0)) as usize % 255;
        if l >= self.n {
            return None;
        }
        codeword[self.n - 1 - l] ^= s0;
        Some(1)
    }

    /// Berlekamp–Massey, Chien and Forney over the syndromes in `s.syn`;
    /// the number of symbols repaired, or `None` if uncorrectable.
    fn correct_general(&self, codeword: &mut [u8], s: &mut RsScratch) -> Option<usize> {
        Self::berlekamp_massey_into(s);
        let num_errors = s.sigma.len() - 1;
        if num_errors == 0 || num_errors > self.parity_len() / 2 {
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
        if self.syndromes_into(codeword, &mut s.syn) {
            return None;
        }
        Some(s.positions.len())
    }
}

impl DetectionCode for Rs {
    fn data_len(&self) -> usize {
        self.k
    }

    fn codeword_len(&self) -> usize {
        self.n
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = vec![0u8; self.n];
        self.encode_into(data, &mut cw);
        cw
    }

    fn encode_into(&self, data: &[u8], codeword: &mut [u8]) {
        Rs::encode_into(self, data, codeword);
    }

    fn check(&self, codeword: &[u8]) -> CheckOutcome {
        assert_eq!(codeword.len(), self.n, "codeword length mismatch");
        // Stack-buffered syndrome pass: `check` stays allocation-free
        // even without caller scratch (nsym <= 255 always fits).
        let mut syn = [0u8; 255];
        let nsym = self.parity_len();
        let syn = &mut syn[..nsym];
        let (s0, s1) = Self::syndromes01(codeword);
        syn[0] = s0;
        if nsym >= 2 {
            syn[1] = s1;
        }
        for (i, s) in syn.iter_mut().enumerate().skip(2) {
            let root = self.roots[i];
            let mut acc = 0u8;
            for &c in codeword {
                acc = Gf256::mul(acc, root) ^ c;
            }
            *s = acc;
        }
        CheckOutcome::from_syndrome_weight(syn.iter().filter(|&&v| v != 0).count())
    }
}

impl CorrectionCode for Rs {
    fn check_and_repair(&self, codeword: &mut [u8]) -> CheckOutcome {
        // Compat wrapper over [`Rs::decode_in_place`]: callers that
        // cannot own scratch borrow a thread-local one, so this path
        // allocates only on each thread's first decode (the buffers
        // grow to the largest code ever decoded on the thread).
        thread_local! {
            static SCRATCH: std::cell::RefCell<RsScratch> =
                std::cell::RefCell::new(RsScratch::default());
        }
        SCRATCH.with(|s| self.decode_in_place(codeword, &mut s.borrow_mut()))
    }

    fn correctable_symbols(&self) -> usize {
        match self.policy {
            DecodePolicy::Correct => self.parity_len() / 2,
            DecodePolicy::DetectOnly => 0,
        }
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
        for (n, k) in [(18usize, 16usize), (20, 16), (24, 16), (10, 4)] {
            let rs = Rs::new(n, k, DecodePolicy::Correct);
            let d = data(k);
            let mut cw = vec![0xAAu8; n]; // dirty buffer must be overwritten
            rs.encode_into(&d, &mut cw);
            assert_eq!(cw, rs.encode(&d), "n={n} k={k}");
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
        let outcome = rs.check_and_repair(&mut cw);
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
        let outcome = rs.check_and_repair(&mut cw);
        assert!(matches!(
            outcome,
            CheckOutcome::DetectedUncorrectable { .. }
        ));
        assert_eq!(cw, before, "detect-only must not mutate the codeword");
        assert_eq!(rs.correctable_symbols(), 0);
    }

    #[test]
    fn stronger_code_corrects_two_errors() {
        // RS(20,16): 4 parity symbols -> corrects 2.
        let rs = Rs::new(20, 16, DecodePolicy::Correct);
        let d = data(16);
        let mut cw = rs.encode(&d);
        cw[3] ^= 0xDE;
        cw[17] ^= 0xAD;
        let outcome = rs.check_and_repair(&mut cw);
        assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 2 });
        assert_eq!(rs.extract_data(&cw), d);
        assert_eq!(rs.correctable_symbols(), 2);
    }

    #[test]
    fn three_errors_beyond_capability_of_rs20_16() {
        let rs = Rs::new(20, 16, DecodePolicy::Correct);
        let d = data(16);
        let mut cw = rs.encode(&d);
        cw[0] ^= 0x11;
        cw[7] ^= 0x22;
        cw[15] ^= 0x33;
        // Beyond capability: must *not* report Corrected with wrong data.
        let mut copy = cw.clone();
        let outcome = rs.check_and_repair(&mut copy);
        if let CheckOutcome::Corrected { .. } = outcome {
            // Miscorrection is theoretically possible for >t errors; but
            // then the result must at least be a valid codeword.
            assert_eq!(rs.check(&copy), CheckOutcome::NoError);
        }
    }

    #[test]
    fn scratch_reuse_across_mixed_decodes_is_clean() {
        // One scratch must serve interleaved clean/1-err/2-err decodes
        // without state leaking between calls.
        let rs = Rs::new(20, 16, DecodePolicy::Correct);
        let d = data(16);
        let clean = rs.encode(&d);
        let mut scratch = rs.make_scratch();
        for round in 0..50 {
            let mut cw = clean.clone();
            assert_eq!(
                rs.decode_in_place(&mut cw, &mut scratch),
                CheckOutcome::NoError,
                "round {round} clean"
            );
            let mut cw = clean.clone();
            cw[(round * 7) % 20] ^= 0x3C;
            assert_eq!(
                rs.decode_in_place(&mut cw, &mut scratch),
                CheckOutcome::Corrected { symbols_fixed: 1 },
                "round {round} 1-err"
            );
            assert_eq!(&cw, &clean);
            let mut cw = clean.clone();
            cw[round % 20] ^= 0x11;
            cw[(round + 5) % 20] ^= 0x2F;
            assert_eq!(
                rs.decode_in_place(&mut cw, &mut scratch),
                CheckOutcome::Corrected { symbols_fixed: 2 },
                "round {round} 2-err"
            );
            assert_eq!(&cw, &clean);
        }
    }

    #[test]
    fn overhead_matches_paper_numbers() {
        // RS(18,16): 2/16 = 12.5% ECC overhead.
        let rs = Rs::chipkill();
        assert!((rs.overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn parity_len_accessor() {
        assert_eq!(Rs::chipkill().parity_len(), 2);
        assert_eq!(Rs::new(24, 16, DecodePolicy::Correct).parity_len(), 8);
    }

    #[test]
    #[should_panic(expected = "invalid RS parameters")]
    fn rejects_bad_parameters() {
        Rs::new(16, 16, DecodePolicy::Correct);
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
            rs.check_and_repair(&mut cw),
            CheckOutcome::Corrected { symbols_fixed: 1 }
        );
        assert_eq!(rs.extract_data(&cw), d);
    }
}
