//! A deterministic integer hasher for the simulator's hot maps.
//!
//! The standard library's `HashMap` defaults to SipHash with a random
//! per-process key: flood-resistant, but several times the cost of the
//! lookups it guards, and a different iteration order on every run.
//! The directory maps are keyed by line addresses and region bases, so
//! [`IntHasher`] does one multiply per integer word and folds the high
//! bits of the product into the low bits when finishing.
//!
//! The fold matters: hashbrown picks a bucket from the *low* bits of the
//! hash, and the low bits of a product depend only on the low bits of
//! the key. Keys on a stride — replica regions at multiples of
//! `replica_region_lines`, lines of one page, rows of one bank — would
//! all land in a handful of buckets after a bare multiply.
//!
//! There is no random key, so a caller that controlled the keys could
//! force collisions. The simulator's keys are not attacker-chosen: trace
//! synthesis draws them from the workload's address span, and the live
//! service folds every client-supplied line into that span before it
//! reaches the system.
//!
//! # Example
//!
//! ```
//! use dve_sim::hash::IntMap;
//!
//! let mut m: IntMap<u64, u32> = IntMap::default();
//! m.insert(4096, 1);
//! assert_eq!(m.get(&4096), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the word mix (the 64-bit golden-ratio constant used by
/// FxHash); odd, so the multiply is a bijection on `u64`. The home
/// directory's open-addressed table takes its probe start from the top
/// bits of `line.wrapping_mul(K)`.
pub const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher over integer words with a high-to-low fold
/// in [`Hasher::finish`]. Deterministic across runs and platforms.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher {
    state: u64,
}

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    /// Fallback for keys that are not integer words: little-endian
    /// 8-byte chunks, the last one zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low half, where the
        // table takes its bucket index.
        self.state ^ (self.state >> 32)
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed through [`IntHasher`]. Build with
/// `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildIntHasher::default().hash_one(key)
    }

    /// Distinct values of the low 12 bits over `keys`.
    fn low12_buckets(keys: impl Iterator<Item = u64>) -> usize {
        let mut seen = vec![false; 4096];
        for h in keys {
            seen[(h & 0xFFF) as usize] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// 4096 random keys fill about `4096 * (1 - 1/e)` = 2589 of 4096
    /// buckets; strided keys must do at least nearly as well.
    const MIN_BUCKETS: usize = 2400;

    #[test]
    fn strided_line_keys_spread_over_low_bits() {
        for stride in [1u64, 64, 4096] {
            let n = low12_buckets((0..4096u64).map(|i| hash_of(i * stride)));
            assert!(n >= MIN_BUCKETS, "stride {stride}: {n} of 4096 buckets");
        }
    }

    #[test]
    fn bank_row_keys_spread_over_low_bits() {
        // 16 banks x 256 consecutive rows, and one bank's rows on a
        // stride of 8.
        let n = low12_buckets((0..16usize).flat_map(|b| (0..256u64).map(move |r| hash_of((b, r)))));
        assert!(n >= MIN_BUCKETS, "(bank, row) grid: {n} of 4096 buckets");
        let n = low12_buckets((0..4096u64).map(|r| hash_of((3usize, r * 8))));
        assert!(n >= MIN_BUCKETS, "strided rows: {n} of 4096 buckets");
    }

    #[test]
    fn hashes_are_fixed_across_runs() {
        // Pinned values: no per-process key, so these never change.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), K ^ (K >> 32));
        assert_eq!(hash_of(4096u64), hash_of(4096u64));
        assert_eq!(hash_of((2usize, 7u64)), 0xc90e_1225_a18b_656a);
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = IntHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = IntHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
