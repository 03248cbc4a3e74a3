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
//! Both fields are **table-driven**: every operation but `mul_alpha` (a
//! shift and a conditional reduction) goes through one-time-initialised
//! log/antilog tables (512 B + 512 B for GF(2^8); 256 KiB + 128 KiB for
//! GF(2^16)). The 384 KiB GF(2^16) cost is paid once per process and is
//! irrelevant on a simulation host, while turning every `Gf16::mul` from
//! a 16-iteration carry-less shift-and-add into two loads and an add —
//! the single biggest win for the TSD hot path that every campaign
//! trial and scrub read funnels through.
//!
//! The original bit-serial implementations are retained in [`reference`](mod@reference)
//! as oracles: they are never called on any hot path, but the property
//! tests (`crates/ecc/tests/proptests.rs`) check the tables against them
//! on random operand pairs, and the perf harness (`dve-bench --bin
//! perf`) reports the table-vs-reference speedup.

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

    /// `a^n` by square-and-multiply over [`gf16_mul`] (`0^0 = 1`).
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
        assert_eq!(Gf16::mul(a, b ^ c), Gf16::mul(a, b) ^ Gf16::mul(a, c));
    }

    #[test]
    fn gf16_alpha_has_full_order_spotcheck() {
        // alpha^65535 == 1 and no small order divisors hit 1 early.
        assert_eq!(reference::gf16_mul(reference::gf16_pow(2, 65534), 2), 1);
        for d in [3u32, 5, 17, 257, 641, 6700417 % 65535] {
            if 65535 % d == 0 {
                assert_ne!(
                    reference::gf16_pow(2, 65535 / d),
                    1,
                    "order divides 65535/{d}"
                );
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
    #[should_panic(expected = "division by zero")]
    fn gf256_div_by_zero_panics() {
        Gf256::div(1, 0);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn gf16_inv_zero_panics() {
        Gf16::inv(0);
    }
}
