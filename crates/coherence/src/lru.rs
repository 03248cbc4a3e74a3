//! An O(1) true-LRU list keyed by line address, shared by the replica
//! directory and the on-chip directory cache.
//!
//! Entries live in a slab of doubly linked nodes, and an [`IntMap`]
//! maps each key to its node's slot. Touching an entry unlinks it and
//! relinks it at the most-recent end; a removal puts its slot on a free
//! list that the next push reuses. Nothing is stamped or sorted: the
//! list order *is* the recency order, least recent at the head.

use crate::types::LineAddr;
use dve_sim::hash::IntMap;

/// The null link.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    key: LineAddr,
    value: V,
    /// Next less recent node.
    prev: u32,
    /// Next more recent node.
    next: u32,
}

/// A recency-ordered map from line addresses to `V`.
#[derive(Debug, Clone)]
pub(crate) struct LruList<V> {
    slots: IntMap<LineAddr, u32>,
    nodes: Vec<Node<V>>,
    /// Unlinked slots of `nodes`, reused before the slab grows.
    free: Vec<u32>,
    /// Least recent node.
    head: u32,
    /// Most recent node.
    tail: u32,
}

impl<V> Default for LruList<V> {
    fn default() -> Self {
        LruList {
            slots: IntMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<V> LruList<V> {
    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The value of `key`, without touching recency.
    pub(crate) fn get(&self, key: LineAddr) -> Option<&V> {
        self.slots.get(&key).map(|&i| &self.nodes[i as usize].value)
    }

    /// Moves `key` to the most-recent end and returns its value, or
    /// `None` when it is absent.
    pub(crate) fn touch(&mut self, key: LineAddr) -> Option<&mut V> {
        let i = *self.slots.get(&key)?;
        if i != self.tail {
            self.unlink(i);
            self.link_tail(i);
        }
        Some(&mut self.nodes[i as usize].value)
    }

    /// Inserts `key` as the most recent entry.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `key` is already present.
    pub(crate) fn push(&mut self, key: LineAddr, value: V) {
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 entries");
            self.nodes.push(node);
            i
        };
        let old = self.slots.insert(key, i);
        debug_assert!(old.is_none(), "pushed key {key} twice");
        self.link_tail(i);
    }

    /// Removes `key` and returns its value.
    pub(crate) fn remove(&mut self, key: LineAddr) -> Option<V>
    where
        V: Copy,
    {
        let i = self.slots.remove(&key)?;
        self.unlink(i);
        self.free.push(i);
        Some(self.nodes[i as usize].value)
    }

    /// The least recent key, if any.
    pub(crate) fn lru(&self) -> Option<LineAddr> {
        (self.head != NIL).then(|| self.nodes[self.head as usize].key)
    }

    /// Entries from least to most recent.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (LineAddr, &V)> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            // `NIL` is past the slab's end, so the walk stops there.
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some((node.key, &node.value))
        })
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_tail(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }
}

#[cfg(test)]
impl<V> LruList<V> {
    /// Asserts the list's invariants: the forward walk visits `len()`
    /// nodes, the backward walk is its reverse, every map slot is
    /// linked exactly once under its own key, and no free slot is
    /// linked.
    pub(crate) fn assert_consistent(&self) {
        let mut forward = Vec::new();
        let mut at = self.head;
        while at != NIL {
            assert!(forward.len() < self.nodes.len(), "forward walk cycles");
            forward.push(at);
            at = self.nodes[at as usize].next;
        }
        assert_eq!(forward.len(), self.len(), "forward walk length");
        let mut backward = Vec::new();
        let mut at = self.tail;
        while at != NIL {
            assert!(backward.len() < self.nodes.len(), "backward walk cycles");
            backward.push(at);
            at = self.nodes[at as usize].prev;
        }
        backward.reverse();
        assert_eq!(backward, forward, "backward walk is not the reverse");
        let mut linked = vec![0u32; self.nodes.len()];
        for &i in &forward {
            linked[i as usize] += 1;
        }
        for (&key, &i) in &self.slots {
            assert_eq!(linked[i as usize], 1, "slot {i} of key {key} linked");
            assert_eq!(self.nodes[i as usize].key, key, "slot {i} key");
        }
        for &i in &self.free {
            assert_eq!(linked[i as usize], 0, "free slot {i} is linked");
        }
        assert_eq!(
            self.len() + self.free.len(),
            self.nodes.len(),
            "every slot is live or free"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_moves_to_the_recent_end_and_removal_reuses_slots() {
        let mut l = LruList::default();
        for k in 1..=3 {
            l.push(k, k * 10);
        }
        assert_eq!(l.touch(1).copied(), Some(10));
        let order: Vec<_> = l.iter().map(|(k, _)| k).collect();
        assert_eq!(order, [2, 3, 1]);
        assert_eq!(l.lru(), Some(2));
        assert_eq!(l.remove(3), Some(30));
        assert_eq!(l.remove(3), None);
        l.push(4, 40);
        assert_eq!(l.nodes.len(), 3, "the freed slot is reused");
        let order: Vec<_> = l.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(order, [(2, 20), (1, 10), (4, 40)]);
        l.assert_consistent();
        l.clear();
        assert_eq!(l.len(), 0);
        assert_eq!(l.lru(), None);
        l.assert_consistent();
    }
}
