//! System configuration — the paper's Table II, parameterized.

use crate::chaos::ChaosConfig;
use dve_coherence::engine::{EngineConfig, Mode};
use dve_coherence::replica_dir::ReplicaPolicy;
use dve_dram::config::DramConfig;
use dve_dram::controller::EccProfile;
use dve_noc::topology::{EdgeParams, PlacementPolicy, Topology};
use dve_sim::time::Nanos;

/// The memory-system scheme under evaluation (the bars of Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Dual-socket NUMA without replication.
    BaselineNuma,
    /// The paper's improved Intel memory mirroring: replicas on a second
    /// channel of the *same* socket, reads load-balanced across the two
    /// channels ("Intel-mirroring++").
    IntelMirrorPlus,
    /// Dvé with the allow-based (lazy pull) replica protocol.
    DveAllow,
    /// Dvé with the deny-based (eager push) replica protocol.
    DveDeny,
    /// Dvé with the sampling-based dynamic protocol (profiles allow vs
    /// deny each epoch and applies the winner, §V-C5).
    DveDynamic,
}

impl Scheme {
    /// All schemes in Fig. 6's presentation order.
    pub const ALL: [Scheme; 5] = [
        Scheme::BaselineNuma,
        Scheme::IntelMirrorPlus,
        Scheme::DveAllow,
        Scheme::DveDeny,
        Scheme::DveDynamic,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::BaselineNuma => "baseline-numa",
            Scheme::IntelMirrorPlus => "intel-mirror++",
            Scheme::DveAllow => "dve-allow",
            Scheme::DveDeny => "dve-deny",
            Scheme::DveDynamic => "dve-dynamic",
        }
    }

    /// Whether this scheme replicates memory across sockets.
    pub fn is_dve(self) -> bool {
        matches!(
            self,
            Scheme::DveAllow | Scheme::DveDeny | Scheme::DveDynamic
        )
    }
}

impl std::fmt::Display for Scheme {
    /// Renders the stable report label ([`Scheme::label`]); the inverse
    /// of the [`FromStr`](std::str::FromStr) impl, so schemes
    /// round-trip through config text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parses a scheme from its report label (`dve-deny`, …), so
    /// service/bench configuration is plain text instead of code.
    fn from_str(s: &str) -> Result<Scheme, String> {
        Scheme::ALL
            .into_iter()
            .find(|sch| sch.label() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = Scheme::ALL.iter().map(|sch| sch.label()).collect();
                format!("unknown scheme {s:?}; one of: {}", known.join(", "))
            })
    }
}

/// The node-level shape of the system: how many nodes there are and
/// where replicas land. The paper's machine is [`TopologySpec::Mirror2`]
/// — the golden-preserving default every Table II configuration starts
/// from; the other variants instantiate the topology-generic placement
/// layer (round-robin N-way striping, or a two-socket system backed by
/// a far-memory pool holding the full replicas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Two sockets, mirrored replicas (`replica = 1 - home`).
    Mirror2,
    /// `n` sockets (2 ≤ n ≤ 8) with round-robin replica striping.
    Nway(usize),
    /// Two sockets plus one far-memory node; the coherent full replica
    /// of every line lives on the far node.
    TwoTier,
}

impl TopologySpec {
    /// Compute sockets (nodes with cores; home candidates).
    pub fn sockets(self) -> usize {
        match self {
            TopologySpec::Mirror2 | TopologySpec::TwoTier => 2,
            TopologySpec::Nway(n) => n,
        }
    }

    /// Total nodes, including far-memory pools.
    pub fn nodes(self) -> usize {
        match self {
            TopologySpec::Mirror2 => 2,
            TopologySpec::Nway(n) => n,
            TopologySpec::TwoTier => 3,
        }
    }

    /// The placement policy this topology implies.
    pub fn placement(self) -> PlacementPolicy {
        match self {
            TopologySpec::Mirror2 => PlacementPolicy::Mirror2,
            TopologySpec::Nway(_) => PlacementPolicy::RoundRobin,
            TopologySpec::TwoTier => PlacementPolicy::TwoTier { far: 2 },
        }
    }
}

impl std::fmt::Display for TopologySpec {
    /// Stable config-text form: `mirror2`, `nway:4`, `twotier` (the
    /// inverse of the [`FromStr`](std::str::FromStr) impl).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Mirror2 => f.write_str("mirror2"),
            TopologySpec::Nway(n) => write!(f, "nway:{n}"),
            TopologySpec::TwoTier => f.write_str("twotier"),
        }
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = String;

    /// Parses `mirror2`, `nway:<n>` (2 ≤ n ≤ 8) or `twotier`.
    fn from_str(s: &str) -> Result<TopologySpec, String> {
        match s {
            "mirror2" => Ok(TopologySpec::Mirror2),
            "twotier" => Ok(TopologySpec::TwoTier),
            _ => {
                let n = s
                    .strip_prefix("nway:")
                    .ok_or_else(|| {
                        format!("unknown topology {s:?}; one of: mirror2, nway:<n>, twotier")
                    })?
                    .parse::<usize>()
                    .map_err(|e| format!("bad nway socket count in {s:?}: {e}"))?;
                if !(2..=8).contains(&n) {
                    return Err(format!(
                        "nway socket count must be in 2..=8 (sharer vectors are 8 bits), got {n}"
                    ));
                }
                Ok(TopologySpec::Nway(n))
            }
        }
    }
}

/// Dynamic protocol: operations per thread in each profiling window
/// (per the paper: 100M instructions of each scheme per 1B-instruction
/// epoch — scaled to our run lengths as a 1:10 ratio).
pub const DYNAMIC_WINDOW: u64 = 5_000;

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Scheme under evaluation.
    pub scheme: Scheme,
    /// Node-level topology. Set it through
    /// [`SystemConfig::set_topology`] so the engine's socket count,
    /// placement policy and core count stay consistent with it.
    pub topology: TopologySpec,
    /// Engine/caches configuration.
    pub engine: EngineConfig,
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// One-way inter-socket link latency (Table II: 50 ns; Fig. 10
    /// sweeps 30–60 ns). The link's serialization bandwidth is
    /// [`EdgeParams::qpi`]'s 16 B/cycle.
    pub link_latency: Nanos,
    /// Speculative replica access enabled (default on, §VI).
    pub speculative: bool,
    /// Memory operations executed per thread (after warm-up).
    pub ops_per_thread: u64,
    /// Warm-up operations per thread (caches/structures, not measured).
    pub warmup_per_thread: u64,
    /// Outstanding misses a core may have in flight (MSHR ways). The
    /// default of 1 reproduces the blocking-core runner cycle-for-cycle
    /// (the pinned-golden regime); larger values let cores overlap
    /// misses and expose memory-level parallelism. Must be ≥ 1.
    pub mshrs: usize,
    /// Trace-supply worker threads (see `dve::pdes`). The default of 1
    /// keeps everything on the coordinator thread; larger values shard
    /// trace synthesis across that many workers over bounded per-core
    /// channels. Results are bit-identical at every setting — the
    /// worker-count golden test in `tests/goldens.rs` pins this.
    pub pdes_workers: usize,
    /// §V-E degraded state: run the Dvé scheme with the replica copies
    /// out of service (single functional copy). Performance should match
    /// baseline NUMA — the `figures` bin gates this claim.
    pub degraded: bool,
    /// ECC capability at every memory controller. The default
    /// (chipkill) matches the controllers' own default, so configuring
    /// it is behavior-neutral for fault-free runs; chaos runs use the
    /// detect-only DSD/TSD profiles to force the §V-B2 replica detour.
    pub ecc: EccProfile,
    /// In-band fault injection (§V-B2 exercised live): `None` leaves
    /// the demand path untouched; `Some` arms the chaos layer — demand
    /// reads run the controller-edge ECC check and detected errors take
    /// the timed recovery detour. An *inert* chaos config (empty
    /// schedule, no outages, no scrub) is bit-identical to `None`.
    pub chaos: Option<ChaosConfig>,
}

impl SystemConfig {
    /// The Table II configuration for a given scheme.
    pub fn table_ii(scheme: Scheme) -> SystemConfig {
        SystemConfig {
            scheme,
            topology: TopologySpec::Mirror2,
            engine: EngineConfig::default(),
            dram: DramConfig::ddr4_2400(),
            link_latency: Nanos(50),
            speculative: true,
            ops_per_thread: 50_000,
            warmup_per_thread: 5_000,
            mshrs: 1,
            pdes_workers: 1,
            degraded: false,
            ecc: EccProfile::chipkill(),
            chaos: None,
        }
    }

    /// The coherence-engine mode for this scheme (dynamic starts in
    /// deny; the runner switches per profiling results).
    pub fn engine_mode(&self) -> Mode {
        match self.scheme {
            Scheme::BaselineNuma => Mode::Baseline,
            Scheme::IntelMirrorPlus => Mode::IntelMirror,
            Scheme::DveAllow => Mode::Dve {
                policy: ReplicaPolicy::Allow,
                speculative: self.speculative,
            },
            Scheme::DveDeny | Scheme::DveDynamic => Mode::Dve {
                policy: ReplicaPolicy::Deny,
                speculative: self.speculative,
            },
        }
    }

    /// Switches the node-level topology, rewiring the engine geometry
    /// that depends on it: socket count, placement policy, and the
    /// core count. Cores must split evenly over the sockets, so the
    /// core count drops to the nearest multiple of the socket count (a
    /// Table II config under `nway:3` runs 15 cores, 5 per socket).
    /// [`TopologySpec::Mirror2`] leaves a Table II
    /// configuration exactly as constructed (the engine defaults
    /// already describe the paper's two-socket machine).
    ///
    /// # Panics
    ///
    /// Panics if there are fewer cores than the topology has sockets.
    pub fn set_topology(&mut self, spec: TopologySpec) {
        assert!(
            self.engine.cores >= spec.sockets(),
            "{} cores cannot populate {} sockets",
            self.engine.cores,
            spec.sockets()
        );
        self.topology = spec;
        self.engine.sockets = spec.sockets();
        self.engine.placement = spec.placement();
        self.engine.cores -= self.engine.cores % spec.sockets();
    }

    /// Total nodes in the topology (sockets plus far-memory pools).
    pub fn nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// The link-level topology graph: every socket-socket edge is the
    /// Table II link ([`EdgeParams::qpi`]) at the configured latency;
    /// edges touching a far-memory node use the CXL-class far-tier
    /// parameters.
    pub fn topology_graph(&self) -> Topology {
        let edge = EdgeParams {
            latency: self.link_latency,
            ..EdgeParams::qpi()
        };
        match self.topology {
            TopologySpec::Mirror2 | TopologySpec::Nway(_) => {
                Topology::symmetric(self.topology.sockets(), edge)
            }
            TopologySpec::TwoTier => Topology::two_tier(edge, EdgeParams::far_tier()),
        }
    }

    /// DRAM channels per socket for this scheme (Table II: baseline 1,
    /// replicated/mirrored 2).
    pub fn channels_per_socket(&self) -> usize {
        match self.scheme {
            Scheme::BaselineNuma => 1,
            _ => 2,
        }
    }

    /// Total DRAM ranks in the system (for energy accounting: baseline
    /// 2× 8 GB DIMMs, replicated 4× — scaled by the topology's node
    /// count beyond the paper's two).
    pub fn total_ranks(&self) -> usize {
        self.nodes() * self.channels_per_socket() * self.dram.ranks_per_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let c = SystemConfig::table_ii(Scheme::BaselineNuma);
        assert_eq!(c.engine.cores, 16);
        assert_eq!(c.engine.cores_per_socket(), 8);
        assert_eq!(c.link_latency, Nanos(50));
        assert_eq!(c.channels_per_socket(), 1);
        assert_eq!(c.total_ranks(), 2);
        assert_eq!(c.mshrs, 1, "blocking cores by default");
        assert_eq!(c.pdes_workers, 1, "sequential trace supply by default");
    }

    #[test]
    fn replicated_memory_doubles_channels() {
        for s in [
            Scheme::DveAllow,
            Scheme::DveDeny,
            Scheme::DveDynamic,
            Scheme::IntelMirrorPlus,
        ] {
            let c = SystemConfig::table_ii(s);
            assert_eq!(c.channels_per_socket(), 2, "{s:?}");
            assert_eq!(c.total_ranks(), 4);
        }
    }

    #[test]
    fn engine_modes() {
        use dve_coherence::engine::Mode;
        assert_eq!(
            SystemConfig::table_ii(Scheme::BaselineNuma).engine_mode(),
            Mode::Baseline
        );
        assert_eq!(
            SystemConfig::table_ii(Scheme::IntelMirrorPlus).engine_mode(),
            Mode::IntelMirror
        );
        assert!(matches!(
            SystemConfig::table_ii(Scheme::DveAllow).engine_mode(),
            Mode::Dve {
                policy: ReplicaPolicy::Allow,
                speculative: true
            }
        ));
    }

    #[test]
    fn scheme_display_from_str_round_trips() {
        for s in Scheme::ALL {
            let text = s.to_string();
            assert_eq!(text, s.label());
            assert_eq!(text.parse::<Scheme>(), Ok(s), "{text}");
        }
        let err = "dve-maybe".parse::<Scheme>().unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
        assert!(err.contains("dve-deny"), "lists the valid labels: {err}");
    }

    #[test]
    fn topology_display_from_str_round_trips() {
        for t in [
            TopologySpec::Mirror2,
            TopologySpec::Nway(2),
            TopologySpec::Nway(4),
            TopologySpec::Nway(8),
            TopologySpec::TwoTier,
        ] {
            let text = t.to_string();
            assert_eq!(text.parse::<TopologySpec>(), Ok(t), "{text}");
        }
        assert!("nway:1".parse::<TopologySpec>().is_err(), "needs a peer");
        assert!("nway:9".parse::<TopologySpec>().is_err(), "sharer bits");
        assert!("nway:x".parse::<TopologySpec>().is_err());
        assert!("ring"
            .parse::<TopologySpec>()
            .unwrap_err()
            .contains("mirror2"));
    }

    #[test]
    fn set_topology_rewires_engine_geometry() {
        let mut c = SystemConfig::table_ii(Scheme::DveDeny);
        let mirror_engine = c.engine.clone();
        // Mirror2 is a no-op on a Table II config.
        c.set_topology(TopologySpec::Mirror2);
        assert_eq!(c.engine, mirror_engine, "golden-preserving default");
        assert_eq!(c.nodes(), 2);
        // N-way re-partitions the 16 cores.
        c.set_topology(TopologySpec::Nway(4));
        assert_eq!(c.engine.sockets, 4);
        assert_eq!(c.engine.cores_per_socket(), 4);
        assert_eq!(c.nodes(), 4);
        assert_eq!(c.total_ranks(), 8);
        // Two-tier keeps two compute sockets but adds the far node.
        c.set_topology(TopologySpec::TwoTier);
        assert_eq!(c.engine.sockets, 2);
        assert_eq!(c.engine.cores_per_socket(), 8);
        assert_eq!(c.nodes(), 3);
        let g = c.topology_graph();
        assert_eq!(g.nodes(), 3);
        assert!(
            g.edge(0, 2).latency > g.edge(0, 1).latency,
            "far hop slower"
        );
    }

    #[test]
    fn set_topology_drops_cores_that_do_not_split_over_sockets() {
        let mut c = SystemConfig::table_ii(Scheme::DveDeny);
        c.set_topology(TopologySpec::Nway(3));
        assert_eq!(c.engine.cores, 15, "16 cores do not split over 3 sockets");
        assert_eq!(c.engine.sockets, 3);
        assert_eq!(c.engine.cores_per_socket(), 5);
    }

    #[test]
    fn scheme_labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in Scheme::ALL {
            assert!(seen.insert(s.label()));
        }
        assert!(Scheme::DveAllow.is_dve());
        assert!(!Scheme::IntelMirrorPlus.is_dve());
    }
}
