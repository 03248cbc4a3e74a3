//! Finite (Galois) field arithmetic.
//!
//! Two fields are used by the codes in this crate:
//!
//! * [`Gf256`] — GF(2^8) with the primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), the field of 8-bit-symbol
//!   Reed–Solomon "Chipkill" codes.
//! * [`Gf16`] — GF(2^16) with the primitive polynomial
//!   `x^16 + x^12 + x^3 + x + 1` (0x1100B), the field of the paper's TSD
//!   code (16-bit symbols as in Multi-ECC).
//!
//! Both fields are **table-driven**: multiplication, division, inversion
//! and exponentiation go through one-time-initialised log/antilog tables
//! (512 B + 512 B for GF(2^8); 256 KiB + 128 KiB for GF(2^16)). The 384
//! KiB GF(2^16) cost is paid once per process and is irrelevant on a
//! simulation host, while turning every `Gf16::mul` from a 16-iteration
//! carry-less shift-and-add into two loads and an add — the single
//! biggest win for the TSD hot path that every campaign trial and scrub
//! read funnels through.
//!
//! The original bit-serial implementations are retained in [`reference`](mod@reference)
//! as oracles: they are never called on any hot path, but the property
//! tests (`crates/ecc/tests/proptests.rs`) check the tables against them
//! on random operand pairs, and the perf harness (`dve-bench --bin
//! perf`) reports the table-vs-reference speedup.
//!
//! # The `0^0 = 1` convention
//!
//! Both fields define `pow(0, 0) == 1`. This matches the empty-product
//! convention used everywhere polynomials are evaluated in this crate
//! (`x^0` contributes the constant coefficient even at `x = 0`) and is
//! asserted to agree across the two fields by an exhaustive edge-case
//! test. For any `n > 0`, `pow(0, n) == 0`.

use std::sync::OnceLock;

/// GF(2^8) primitive polynomial (with the x^8 term): 0x11D.
const GF256_POLY: u16 = 0x11D;

/// GF(2^16) primitive polynomial (with the x^16 term): 0x1100B.
const GF16_POLY: u32 = 0x1100B;

struct Tables {
    exp: [u8; 512],
    log: [u16; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= GF256_POLY;
            }
        }
        // Duplicate so that exp[i + j] works without a mod for i+j < 510.
        let (head, tail) = exp.split_at_mut(255);
        tail[..255].copy_from_slice(head);
        tail[255] = head[0];
        tail[256] = head[1];
        Tables { exp, log }
    })
}

/// Log/antilog tables for GF(2^16).
///
/// `exp` is doubled (`exp[i] = α^(i mod 65535)` for `i < 131070`) so
/// that `exp[log a + log b]` and `exp[log a + 65535 - log b]` need no
/// modulo on the hot path.
struct Tables16 {
    exp: Box<[u16]>, // 131072 entries = 256 KiB
    log: Box<[u16]>, // 65536 entries = 128 KiB
}

fn tables16() -> &'static Tables16 {
    static TABLES: OnceLock<Tables16> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = vec![0u16; 131072].into_boxed_slice();
        let mut log = vec![0u16; 65536].into_boxed_slice();
        let mut x: u32 = 1;
        for i in 0..65535usize {
            exp[i] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x1_0000 != 0 {
                x ^= GF16_POLY;
            }
        }
        // Duplicate the cycle so indices up to 2·65535 − 1 stay in range.
        let (head, tail) = exp.split_at_mut(65535);
        tail[..65535].copy_from_slice(head);
        tail[65535] = head[0];
        tail[65536] = head[1];
        Tables16 { exp, log }
    })
}

/// Arithmetic in GF(2^8).
///
/// All operations are free functions on `u8` symbols, namespaced by this
/// zero-sized type for clarity at call sites (`Gf256::mul(a, b)`).
///
/// # Example
///
/// ```
/// use dve_ecc::gf::Gf256;
///
/// let a = 0x57;
/// let b = 0x83;
/// let p = Gf256::mul(a, b);
/// assert_eq!(Gf256::div(p, b), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gf256;

impl Gf256 {
    /// Addition in GF(2^8) is XOR.
    #[inline]
    pub fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Multiplication via log/antilog tables.
    #[inline]
    pub fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
    }

    /// Multiplication by the generator α (= `x`), branch-free shift and
    /// conditional reduction — faster than a table round-trip for the
    /// fixed-operand Horner steps in syndrome computation.
    #[inline]
    pub fn mul_alpha(a: u8) -> u8 {
        let wide = (a as u16) << 1;
        (wide ^ (GF256_POLY * ((wide >> 8) & 1))) as u8
    }

    /// Division.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(a: u8, b: u8) -> u8 {
        assert!(b != 0, "division by zero in GF(2^8)");
        if a == 0 {
            return 0;
        }
        let t = tables();
        t.exp[t.log[a as usize] as usize + 255 - t.log[b as usize] as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn inv(a: u8) -> u8 {
        Self::div(1, a)
    }

    /// `a` raised to the power `n`.
    ///
    /// Follows the crate-wide empty-product convention `0^0 = 1` (see the
    /// module docs); `0^n = 0` for `n > 0`. [`Gf16::pow`] uses the same
    /// convention, and an exhaustive cross-field test pins them together.
    #[inline]
    pub fn pow(a: u8, n: u32) -> u8 {
        if a == 0 {
            return if n == 0 { 1 } else { 0 };
        }
        let t = tables();
        let l = t.log[a as usize] as u64 * n as u64 % 255;
        t.exp[l as usize]
    }

    /// The generator element α = 0x02 raised to power `n`.
    #[inline]
    pub fn alpha_pow(n: u32) -> u8 {
        tables().exp[(n % 255) as usize]
    }

    /// Discrete log base α of a non-zero element.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` (zero has no logarithm).
    #[inline]
    pub fn log(a: u8) -> u16 {
        assert!(a != 0, "log of zero in GF(2^8)");
        tables().log[a as usize]
    }

    /// Multiplies every symbol of `dst` by the constant `c` in place.
    ///
    /// The log of `c` is hoisted out of the loop, so each element costs
    /// one load-add-load instead of a full `mul` call.
    #[inline]
    pub fn mul_slice_assign(dst: &mut [u8], c: u8) {
        if c == 0 {
            dst.fill(0);
            return;
        }
        if c == 1 {
            return;
        }
        let t = tables();
        let lc = t.log[c as usize] as usize;
        for d in dst {
            if *d != 0 {
                *d = t.exp[t.log[*d as usize] as usize + lc];
            }
        }
    }

    /// Fused multiply-add over slices: `acc[i] ^= src[i] * c`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn fma_slice(acc: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(acc.len(), src.len(), "fma_slice length mismatch");
        if c == 0 {
            return;
        }
        let t = tables();
        let lc = t.log[c as usize] as usize;
        for (a, &s) in acc.iter_mut().zip(src) {
            if s != 0 {
                *a ^= t.exp[t.log[s as usize] as usize + lc];
            }
        }
    }
}

/// Arithmetic in GF(2^16) (16-bit symbols, used by the TSD code).
///
/// Table-driven since the decode-pipeline overhaul; the bit-serial
/// originals live in [`reference`](mod@reference).
///
/// # Example
///
/// ```
/// use dve_ecc::gf::Gf16;
///
/// let a = 0x1234;
/// let b = 0xABCD;
/// let p = Gf16::mul(a, b);
/// assert_eq!(Gf16::mul(p, Gf16::inv(b)), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gf16;

impl Gf16 {
    /// Addition is XOR.
    #[inline]
    pub fn add(a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// Multiplication via log/antilog tables (two loads and an add).
    #[inline]
    pub fn mul(a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables16();
        t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
    }

    /// Multiplication by the generator α (= `x`), shift and conditional
    /// reduction without touching the tables.
    #[inline]
    pub fn mul_alpha(a: u16) -> u16 {
        let wide = (a as u32) << 1;
        (wide ^ (GF16_POLY * ((wide >> 16) & 1))) as u16
    }

    /// Division.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(a: u16, b: u16) -> u16 {
        assert!(b != 0, "division by zero in GF(2^16)");
        if a == 0 {
            return 0;
        }
        let t = tables16();
        t.exp[t.log[a as usize] as usize + 65535 - t.log[b as usize] as usize]
    }

    /// `a^n` via the log table.
    ///
    /// Follows the crate-wide empty-product convention `0^0 = 1` (see the
    /// module docs); `0^n = 0` for `n > 0`. [`Gf256::pow`] uses the same
    /// convention, and an exhaustive cross-field test pins them together.
    #[inline]
    pub fn pow(a: u16, n: u32) -> u16 {
        if a == 0 {
            return if n == 0 { 1 } else { 0 };
        }
        let t = tables16();
        let l = t.log[a as usize] as u64 * n as u64 % 65535;
        t.exp[l as usize]
    }

    /// Multiplicative inverse via the log table.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn inv(a: u16) -> u16 {
        assert!(a != 0, "inverse of zero in GF(2^16)");
        let t = tables16();
        t.exp[65535 - t.log[a as usize] as usize]
    }

    /// The generator α = 0x0002 raised to power `n`.
    #[inline]
    pub fn alpha_pow(n: u32) -> u16 {
        tables16().exp[(n % 65535) as usize]
    }

    /// Discrete log base α of a non-zero element.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` (zero has no logarithm).
    #[inline]
    pub fn log(a: u16) -> u16 {
        assert!(a != 0, "log of zero in GF(2^16)");
        tables16().log[a as usize]
    }

    /// Multiplies every symbol of `dst` by the constant `c` in place,
    /// with the log of `c` hoisted out of the loop.
    #[inline]
    pub fn mul_slice_assign(dst: &mut [u16], c: u16) {
        if c == 0 {
            dst.fill(0);
            return;
        }
        if c == 1 {
            return;
        }
        let t = tables16();
        let lc = t.log[c as usize] as usize;
        for d in dst {
            if *d != 0 {
                *d = t.exp[t.log[*d as usize] as usize + lc];
            }
        }
    }

    /// Fused multiply-add over slices: `acc[i] ^= src[i] * c`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn fma_slice(acc: &mut [u16], src: &[u16], c: u16) {
        assert_eq!(acc.len(), src.len(), "fma_slice length mismatch");
        if c == 0 {
            return;
        }
        let t = tables16();
        let lc = t.log[c as usize] as usize;
        for (a, &s) in acc.iter_mut().zip(src) {
            if s != 0 {
                *a ^= t.exp[t.log[s as usize] as usize + lc];
            }
        }
    }
}

/// Bit-serial reference implementations — the oracles the tables are
/// validated against.
///
/// These are the pre-overhaul shift-and-add / Fermat-inverse paths. They
/// are deliberately kept out of every hot path (nothing in `rs`, `rs16`
/// or the campaign calls them); their only consumers are the property
/// tests in `crates/ecc/tests/proptests.rs` and the `dve-bench` perf
/// harness, which reports the table-vs-reference speedup.
pub mod reference {
    use super::{GF16_POLY, GF256_POLY};

    /// Carry-less shift-and-add multiplication in GF(2^8).
    pub fn gf256_mul(a: u8, b: u8) -> u8 {
        let mut acc: u16 = 0;
        let mut a = a as u16;
        let mut b = b as u16;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            b >>= 1;
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= GF256_POLY;
            }
        }
        acc as u8
    }

    /// Carry-less shift-and-add multiplication in GF(2^16).
    pub fn gf16_mul(a: u16, b: u16) -> u16 {
        let mut acc: u32 = 0;
        let mut a = a as u32;
        let mut b = b as u32;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            b >>= 1;
            a <<= 1;
            if a & 0x1_0000 != 0 {
                a ^= GF16_POLY;
            }
        }
        acc as u16
    }

    /// `a^n` by square-and-multiply over [`gf16_mul`], with the same
    /// `0^0 = 1` convention as the table path.
    pub fn gf16_pow(mut a: u16, mut n: u32) -> u16 {
        if a == 0 {
            return if n == 0 { 1 } else { 0 };
        }
        n %= 65535;
        let mut result: u16 = 1;
        while n > 0 {
            if n & 1 != 0 {
                result = gf16_mul(result, a);
            }
            a = gf16_mul(a, a);
            n >>= 1;
        }
        result
    }

    /// Multiplicative inverse via Fermat: `a^(2^16 - 2)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    pub fn gf16_inv(a: u16) -> u16 {
        assert!(a != 0, "inverse of zero in GF(2^16)");
        gf16_pow(a, 65534)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf256_known_products() {
        // 0x57 * 0x83 = 0xC1 under poly 0x11D (classic AES-adjacent example
        // recomputed for 0x11D).
        assert_eq!(Gf256::mul(0, 0xFF), 0);
        assert_eq!(Gf256::mul(1, 0xFF), 0xFF);
        assert_eq!(Gf256::mul(2, 0x80), 0x1D); // overflow triggers reduction
    }

    #[test]
    fn gf256_mul_div_roundtrip() {
        for a in 1..=255u8 {
            for b in [1u8, 2, 3, 29, 128, 255] {
                let p = Gf256::mul(a, b);
                assert_eq!(Gf256::div(p, b), a, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn gf256_inverse() {
        for a in 1..=255u8 {
            assert_eq!(Gf256::mul(a, Gf256::inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn gf256_alpha_generates_field() {
        let mut seen = [false; 256];
        for n in 0..255 {
            let v = Gf256::alpha_pow(n);
            assert!(!seen[v as usize], "alpha^{n} repeated");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn gf256_pow_and_log_agree() {
        for n in 0..255u32 {
            let v = Gf256::alpha_pow(n);
            assert_eq!(Gf256::log(v) as u32, n);
        }
        assert_eq!(Gf256::pow(3, 0), 1);
        assert_eq!(Gf256::pow(0, 5), 0);
        assert_eq!(Gf256::pow(0, 0), 1);
    }

    #[test]
    fn gf256_mul_alpha_matches_mul() {
        for a in 0..=255u8 {
            assert_eq!(Gf256::mul_alpha(a), Gf256::mul(a, 2), "a={a}");
        }
    }

    #[test]
    fn gf256_matches_reference_exhaustive() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(Gf256::mul(a, b), reference::gf256_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn gf16_mul_identities() {
        assert_eq!(Gf16::mul(0, 0x1234), 0);
        assert_eq!(Gf16::mul(1, 0x1234), 0x1234);
        assert_eq!(Gf16::add(0xAAAA, 0xAAAA), 0);
    }

    #[test]
    fn gf16_inverse_roundtrip() {
        for a in [1u16, 2, 3, 0xFF, 0x100, 0x1234, 0xFFFF, 0x8000] {
            assert_eq!(Gf16::mul(a, Gf16::inv(a)), 1, "a={a:#x}");
            assert_eq!(Gf16::inv(a), reference::gf16_inv(a), "a={a:#x}");
        }
    }

    #[test]
    fn gf16_mul_commutative_associative_spot() {
        let (a, b, c) = (0x1357u16, 0x2468u16, 0x9ABCu16);
        assert_eq!(Gf16::mul(a, b), Gf16::mul(b, a));
        assert_eq!(Gf16::mul(Gf16::mul(a, b), c), Gf16::mul(a, Gf16::mul(b, c)));
        // Distributivity over addition.
        assert_eq!(
            Gf16::mul(a, Gf16::add(b, c)),
            Gf16::add(Gf16::mul(a, b), Gf16::mul(a, c))
        );
    }

    #[test]
    fn gf16_alpha_has_full_order_spotcheck() {
        // alpha^65535 == 1 and no small order divisors hit 1 early.
        assert_eq!(Gf16::pow(2, 65535), 1);
        for d in [3u32, 5, 17, 257, 641, 6700417 % 65535] {
            if 65535 % d == 0 {
                assert_ne!(Gf16::pow(2, 65535 / d), 1, "order divides 65535/{d}");
            }
        }
    }

    #[test]
    fn gf16_mul_alpha_matches_mul() {
        for a in [0u16, 1, 2, 0x7FFF, 0x8000, 0xFFFF, 0x1234, 0xABCD] {
            assert_eq!(Gf16::mul_alpha(a), Gf16::mul(a, 2), "a={a:#x}");
        }
    }

    #[test]
    fn gf16_div_log_pow_consistency_sample() {
        for a in [1u16, 2, 0x13, 0x800, 0x4321, 0xFFFE, 0xFFFF] {
            for b in [1u16, 3, 0x100, 0x9999, 0xFFFF] {
                let q = Gf16::div(a, b);
                assert_eq!(Gf16::mul(q, b), a, "a={a:#x} b={b:#x}");
            }
            assert_eq!(Gf16::alpha_pow(Gf16::log(a) as u32), a);
            assert_eq!(Gf16::pow(a, 1), a);
            assert_eq!(Gf16::pow(a, 65535), 1);
        }
    }

    /// The satellite edge-case contract: `pow(0, 0) == 1` in *both*
    /// fields, `pow(0, n) == 0` for all n > 0, `pow(a, 0) == 1` for all
    /// non-zero `a` — exhaustively over each field's elements.
    #[test]
    fn pow_zero_convention_agrees_across_fields() {
        // 0^0 = 1 (empty product) in both fields.
        assert_eq!(Gf256::pow(0, 0), 1);
        assert_eq!(Gf16::pow(0, 0), 1);
        assert_eq!(Gf16::pow(0, 0) as u8, Gf256::pow(0, 0));
        assert_eq!(reference::gf16_pow(0, 0), 1);
        // 0^n = 0 for n > 0, including group-order multiples.
        for n in [1u32, 2, 254, 255, 256, 65534, 65535, 65536, u32::MAX] {
            assert_eq!(Gf256::pow(0, n), 0, "GF(2^8) 0^{n}");
            assert_eq!(Gf16::pow(0, n), 0, "GF(2^16) 0^{n}");
            assert_eq!(reference::gf16_pow(0, n), 0, "reference 0^{n}");
        }
        // a^0 = 1 for every element of GF(2^8)...
        for a in 0..=255u8 {
            assert_eq!(Gf256::pow(a, 0), 1, "GF(2^8) {a}^0");
        }
        // ...and every element of GF(2^16).
        for a in 0..=65535u16 {
            assert_eq!(Gf16::pow(a, 0), 1, "GF(2^16) {a}^0");
        }
    }

    #[test]
    fn gf256_slice_kernels_match_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1D, 0x80, 0xFF] {
            let mut dst = src.clone();
            Gf256::mul_slice_assign(&mut dst, c);
            for (i, (&d, &s)) in dst.iter().zip(&src).enumerate() {
                assert_eq!(d, Gf256::mul(s, c), "mul_slice i={i} c={c}");
            }
            let mut acc = src.clone();
            acc.reverse();
            let acc0 = acc.clone();
            Gf256::fma_slice(&mut acc, &src, c);
            for i in 0..src.len() {
                assert_eq!(acc[i], acc0[i] ^ Gf256::mul(src[i], c), "fma i={i} c={c}");
            }
        }
    }

    #[test]
    fn gf16_slice_kernels_match_scalar() {
        let src: Vec<u16> = (0..512u32).map(|i| (i * 257 % 65536) as u16).collect();
        for c in [0u16, 1, 2, 0x100B, 0x8000, 0xFFFF] {
            let mut dst = src.clone();
            Gf16::mul_slice_assign(&mut dst, c);
            for (i, (&d, &s)) in dst.iter().zip(&src).enumerate() {
                assert_eq!(d, Gf16::mul(s, c), "mul_slice i={i} c={c:#x}");
            }
            let mut acc = src.clone();
            acc.reverse();
            let acc0 = acc.clone();
            Gf16::fma_slice(&mut acc, &src, c);
            for i in 0..src.len() {
                assert_eq!(acc[i], acc0[i] ^ Gf16::mul(src[i], c), "fma i={i} c={c:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn gf256_div_by_zero_panics() {
        Gf256::div(1, 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn gf16_div_by_zero_panics() {
        Gf16::div(1, 0);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn gf16_inv_zero_panics() {
        Gf16::inv(0);
    }

    #[test]
    #[should_panic(expected = "log of zero")]
    fn gf16_log_zero_panics() {
        Gf16::log(0);
    }
}
