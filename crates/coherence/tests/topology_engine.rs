//! Engine behavior on N-node topologies: round-robin 4-way striping,
//! the two-tier far-memory scheme, and the golden-preservation identity
//! (round-robin at two sockets is cycle-exact against the mirror).

use dve_coherence::engine::{AccessOutcome, EngineConfig, Mode, ProtocolEngine};
use dve_coherence::fabric::TestFabric;
use dve_coherence::replica_dir::ReplicaPolicy;
use dve_coherence::types::{ReqType, ServiceLevel};
use dve_noc::topology::PlacementPolicy;

fn deny() -> Mode {
    Mode::Dve {
        policy: ReplicaPolicy::Deny,
        speculative: false,
    }
}

fn allow() -> Mode {
    Mode::Dve {
        policy: ReplicaPolicy::Allow,
        speculative: false,
    }
}

fn nway4() -> EngineConfig {
    EngineConfig {
        cores: 32,
        sockets: 4,
        placement: PlacementPolicy::RoundRobin,
        ..Default::default()
    }
}

fn twotier() -> EngineConfig {
    EngineConfig {
        placement: PlacementPolicy::TwoTier { far: 2 },
        ..Default::default()
    }
}

// Line 0: page 0, home socket 0, round-robin replica (0+1+0)%4 = 1.
const LINE: u64 = 0;

#[test]
fn nway4_replica_colocated_socket_reads_locally() {
    let mut e = ProtocolEngine::new(deny(), nway4());
    let mut f = TestFabric::with_nodes(4);
    assert_eq!(e.home_of(LINE), 0);
    assert_eq!(e.replica_node_of(LINE), 1);
    // A core on socket 1 (the replica node) reads without the link.
    let o = e.access(8, LINE, ReqType::Read, 0, &mut f);
    assert_eq!(o.service, ServiceLevel::LocalDram);
    assert_eq!(f.traffic.total_messages(), 0);
    assert_eq!(f.replica_reads[1], 1);
}

#[test]
fn nway4_third_socket_goes_to_home() {
    let mut e = ProtocolEngine::new(deny(), nway4());
    let mut f = TestFabric::with_nodes(4);
    // Socket 2 is neither home (0) nor replica (1): remote home read.
    let o = e.access(16, LINE, ReqType::Read, 0, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteDram);
    assert!(f.traffic.total_messages() >= 2, "request + data response");
    assert_eq!(f.replica_reads, [0, 0, 0, 0]);
}

#[test]
fn nway4_third_socket_write_pushes_rm_to_the_replica_node() {
    let mut e = ProtocolEngine::new(deny(), nway4());
    let mut f = TestFabric::with_nodes(4);
    // A write from socket 2 (neither home nor replica) must still
    // protect the replica on node 1 before completing.
    e.access(16, LINE, ReqType::Write, 0, &mut f);
    assert_eq!(e.stats().rm_installs, 1);
    assert!(!e.replica_dir(1).replica_readable(LINE));
    // The replica node's read now routes to the owner, not its replica.
    let o = e.access(8, LINE, ReqType::Read, 1_000_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteOwner);
    assert_eq!(e.stats().replica_reads, 0);
}

#[test]
fn nway4_allow_revokes_permission_on_third_socket_write() {
    let mut e = ProtocolEngine::new(allow(), nway4());
    let mut f = TestFabric::with_nodes(4);
    // Socket 1 pulls a read permission for its co-located replica.
    e.access(8, LINE, ReqType::Read, 0, &mut f);
    assert!(e.replica_dir(1).replica_readable(LINE));
    // A socket-2 write revokes it synchronously.
    e.access(16, LINE, ReqType::Write, 1_000_000, &mut f);
    assert_eq!(e.stats().replica_invalidations, 1);
    assert!(!e.replica_dir(1).replica_readable(LINE));
}

#[test]
fn nway4_writeback_updates_the_placed_replica() {
    let cfg = EngineConfig {
        llc_bytes: 1024,
        llc_ways: 1,
        l1_bytes: 512,
        l1_ways: 1,
        ..nway4()
    };
    let mut e = ProtocolEngine::new(deny(), cfg);
    let mut f = TestFabric::with_nodes(4);
    // Dirty LINE (home 0, replica 1) from its home socket, then thrash
    // the 1-way LLC until the writeback fires.
    e.access(0, LINE, ReqType::Write, 0, &mut f);
    let mut t = 1_000_000;
    for i in 1..24u64 {
        // Same LLC set (16 sets at 1 KiB / 1 way), all homed on socket 0
        // (page stride keeps pages ≡ 0 mod 4).
        e.access(0, i * 16 * 64 * 4, ReqType::Read, t, &mut f);
        t += 1_000_000;
    }
    assert!(e.stats().writebacks > 0);
    assert!(f.mem_writes[0] > 0, "home copy written");
    assert!(f.replica_writes[1] > 0, "replica copy written on node 1");
    assert_eq!(f.replica_writes[2], 0);
    assert_eq!(f.replica_writes[3], 0);
}

#[test]
fn twotier_serves_no_replica_reads_but_protects_the_far_copy() {
    let mut e = ProtocolEngine::new(deny(), twotier());
    let mut f = TestFabric::with_nodes(3);
    assert_eq!(e.num_nodes(), 3);
    assert_eq!(e.replica_node_of(LINE), 2);
    // No core is co-located with the far replica: a socket-1 read of a
    // socket-0 line crosses the link to home.
    let o = e.access(8, LINE, ReqType::Read, 0, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteDram);
    assert_eq!(e.stats().replica_reads, 0);
    // A home-side write pushes the RM entry out to the far node.
    e.access(0, LINE + 1, ReqType::Write, 1_000_000, &mut f);
    assert_eq!(e.stats().rm_installs, 1);
    assert!(!e.replica_dir(2).replica_readable(LINE + 1));
}

#[test]
fn twotier_writeback_reaches_the_far_replica() {
    let cfg = EngineConfig {
        llc_bytes: 1024,
        llc_ways: 1,
        l1_bytes: 512,
        l1_ways: 1,
        ..twotier()
    };
    let mut e = ProtocolEngine::new(deny(), cfg);
    let mut f = TestFabric::with_nodes(3);
    e.access(0, LINE, ReqType::Write, 0, &mut f);
    let mut t = 1_000_000;
    for i in 1..24u64 {
        e.access(0, i * 16 * 64 * 2, ReqType::Read, t, &mut f);
        t += 1_000_000;
    }
    assert!(e.stats().writebacks > 0);
    assert!(f.replica_writes[2] > 0, "far node holds the replica");
    assert_eq!(f.replica_writes[0], 0);
    assert_eq!(f.replica_writes[1], 0);
}

#[test]
fn round_robin_at_two_sockets_is_cycle_identical_to_the_mirror() {
    // The golden-preservation argument, exercised at the engine level:
    // RoundRobin degenerates to Mirror2 at N = 2, so every access must
    // produce the same completion time, service level, and stats.
    for mode in [Mode::Baseline, allow(), deny()] {
        let mut mirror = ProtocolEngine::new(
            mode,
            EngineConfig {
                placement: PlacementPolicy::Mirror2,
                ..Default::default()
            },
        );
        let mut rr = ProtocolEngine::new(
            mode,
            EngineConfig {
                placement: PlacementPolicy::RoundRobin,
                ..Default::default()
            },
        );
        let mut fm = TestFabric::default();
        let mut fr = TestFabric::default();
        let mut rng = dve_sim::rng::SplitMix64::new(0xD0E);
        let mut t = 0u64;
        for _ in 0..2000 {
            let core = rng.next_below(16) as usize;
            let line = rng.next_below(256);
            let req = if rng.chance(0.35) {
                ReqType::Write
            } else {
                ReqType::Read
            };
            let om: AccessOutcome = mirror.access(core, line, req, t, &mut fm);
            let or: AccessOutcome = rr.access(core, line, req, t, &mut fr);
            assert_eq!(om, or, "divergence at t={t} core={core} line={line}");
            t = om.complete_at + 10;
        }
        assert_eq!(mirror.stats(), rr.stats());
        assert_eq!(fm.traffic.total_messages(), fr.traffic.total_messages());
    }
}
