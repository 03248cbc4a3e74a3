//! Collection strategies: `vec`, `btree_set`, `hash_map`.

use crate::strategy::Strategy;
use crate::TestRng;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};

/// An inclusive size band for generated collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a length in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec`](fn@vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeSet<S::Value>` with a cardinality in `size`
/// (best-effort when the element domain is smaller than the target).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.pick(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 20 + 100 {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}

/// Strategy for `HashMap<K::Value, V::Value>` with a cardinality in
/// `size` (best-effort when the key domain is small).
pub fn hash_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> HashMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Eq + Hash,
    V: Strategy,
{
    HashMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`hash_map`].
#[derive(Debug, Clone)]
pub struct HashMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for HashMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Eq + Hash,
    V: Strategy,
{
    type Value = HashMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> HashMap<K::Value, V::Value> {
        let target = self.size.pick(rng);
        let mut out = HashMap::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 20 + 100 {
            let k = self.keys.generate(rng);
            let v = self.values.generate(rng);
            out.insert(k, v);
            attempts += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any;

    #[test]
    fn vec_exact_and_banded_sizes() {
        let mut rng = TestRng::new(7);
        let v = vec(any::<u8>(), 16).generate(&mut rng);
        assert_eq!(v.len(), 16);
        for _ in 0..100 {
            let v = vec(any::<u8>(), 1..5).generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn set_capped_by_small_domain() {
        let mut rng = TestRng::new(8);
        // Domain {0,1}: asking for up to 5 members must terminate.
        let s = btree_set(0u8..2, 0..6).generate(&mut rng);
        assert!(s.len() <= 2);
    }

    #[test]
    fn map_sizes_in_band() {
        let mut rng = TestRng::new(9);
        for _ in 0..50 {
            let m = hash_map(0u64..1000, any::<bool>(), 2..10).generate(&mut rng);
            assert!((2..10).contains(&m.len()));
        }
    }
}
