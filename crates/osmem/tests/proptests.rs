//! Property-based tests for the OS memory-replication layer.

use dve_osmem::allocator::ReplicaAllocator;
use dve_osmem::rmt::{ReplicaLoc, ReplicaMapTable, RmtCache, RmtOrganization};
use proptest::prelude::*;
use std::collections::HashMap;

fn loc(node: usize, frame: u64) -> ReplicaLoc {
    ReplicaLoc { node, frame }
}

proptest! {
    // Both RMT organizations implement identical map semantics.
    #[test]
    fn rmt_organizations_agree(
        ops in proptest::collection::vec((0u64..10_000, any::<Option<u64>>()), 1..200)
    ) {
        let mut linear = ReplicaMapTable::new(RmtOrganization::Linear);
        let mut radix = ReplicaMapTable::new(RmtOrganization::Radix2);
        let mut reference: HashMap<u64, ReplicaLoc> = HashMap::new();
        for (page, action) in ops {
            match action {
                Some(frame) => {
                    let replica = loc((frame % 8) as usize, frame);
                    let a = linear.map(page, replica);
                    let b = radix.map(page, replica);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(a, reference.insert(page, replica));
                }
                None => {
                    let a = linear.unmap(page);
                    let b = radix.unmap(page);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(a, reference.remove(&page));
                }
            }
            prop_assert_eq!(linear.len(), reference.len());
            prop_assert_eq!(radix.len(), reference.len());
        }
        for (&page, &replica) in &reference {
            prop_assert_eq!(linear.lookup(page), Some(replica));
            prop_assert_eq!(radix.lookup(page), Some(replica));
        }
    }

    // The RMT cache is a transparent accelerator: translations through
    // the cache always equal direct table lookups.
    #[test]
    fn rmt_cache_is_transparent(
        mappings in proptest::collection::hash_map(0u64..256, 0u64..1_000_000, 1..64),
        queries in proptest::collection::vec(0u64..256, 1..200),
        capacity in 1usize..16,
    ) {
        let mut rmt = ReplicaMapTable::new(RmtOrganization::Radix2);
        for (&p, &r) in &mappings {
            rmt.map(p, loc((r % 4) as usize, r));
        }
        let mut cache = RmtCache::new(capacity);
        for q in queries {
            let (via_cache, _) = cache.translate(q, &rmt);
            prop_assert_eq!(via_cache, rmt.lookup(q));
        }
    }

    // The allocator conserves pages: free + allocated == total, pairs
    // always span sockets, and freeing restores everything.
    #[test]
    fn allocator_conserves_pages(
        pages in 2u64..64,
        n_alloc in 1usize..32,
    ) {
        let mut a = ReplicaAllocator::new(pages, pages);
        let mut live = Vec::new();
        for _ in 0..n_alloc {
            match a.allocate_pair() {
                Ok(p) => {
                    prop_assert_ne!(p.primary_socket, p.replica_socket);
                    live.push(p);
                }
                Err(_) => break,
            }
            let total_free = a.free_pages(0) + a.free_pages(1);
            prop_assert_eq!(total_free + 2 * live.len() as u64, 2 * pages);
        }
        for p in live.drain(..) {
            a.free_pair(p);
        }
        prop_assert_eq!(a.free_pages(0), pages);
        prop_assert_eq!(a.free_pages(1), pages);
        prop_assert_eq!(a.live_pairs(), 0);
    }
}
