//! Service configuration and its plain-text `key=value` form.
//!
//! The service is launched from scripts and CI, so its configuration
//! is a flat, whitespace-separated `key=value` string (e.g.
//! `"scheme=dve-deny epoch_ops=4096 chaos_seed=7"`) rather than a
//! builder chain. Its [`FromStr`](std::str::FromStr) and
//! [`Display`](std::fmt::Display) impls are exact inverses, so a
//! config can be logged, copied out of a report, and replayed.

use dve::config::{Scheme, TopologySpec};
use dve_workloads::tenant::TenantMix;

/// The most MSHR ways per core a config may ask for. Real cores have
/// tens of L1 MSHRs, and the MSHR-depth sweep stops at 8. The live
/// system allocates every core's MSHR bank at boot and scans it on each
/// memory op, so a deeper bank only costs memory and time, and a huge
/// one aborts `Service::start` with a capacity overflow.
pub const MAX_MSHRS: usize = 256;

/// Everything needed to boot a [`Service`](crate::Service).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Memory-system scheme the live system runs under.
    pub scheme: Scheme,
    /// Replication topology (`mirror2`, `nway:<n>`, `twotier`) the
    /// live system is built on.
    pub topology: TopologySpec,
    /// Workload name from the catalog — chooses the sharing layout and
    /// footprint the live system is configured for (client ops address
    /// lines inside that footprint).
    pub workload: String,
    /// Master seed for the system build (placement, workload layout).
    pub seed: u64,
    /// MSHR ways per core, 1..=[`MAX_MSHRS`]; >1 lets the epoch
    /// runner overlap misses.
    pub mshrs: usize,
    /// Epoch is cut as soon as this many ops are pending…
    pub epoch_ops: usize,
    /// …or this many milliseconds after the first pending op arrived,
    /// whichever comes first (bounded latency under trickle load).
    pub epoch_wait_ms: u64,
    /// Admission bound: ops held while waiting for an epoch slot.
    /// Arrivals beyond this are shed (and exactly counted), never
    /// silently dropped.
    pub queue_cap: usize,
    /// TCP port for the op/telemetry listener; 0 picks an ephemeral
    /// port (the bound address is reported by [`Service::addr`]).
    ///
    /// [`Service::addr`]: crate::Service::addr
    pub port: u16,
    /// `Some(seed)` arms the chaos layer (random fault schedule,
    /// detect-only ECC so recovery detours actually fire); `None`
    /// runs fault-free.
    pub chaos_seed: Option<u64>,
    /// Multi-tenant mix (`tenants=gold:2:60000,bronze:0:200000` —
    /// `name:priority:p99_budget` triples). `Some` turns on per-tenant
    /// accounting and priority-aware shedding; `None` treats all
    /// clients as one anonymous tenant.
    pub tenants: Option<TenantMix>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            scheme: Scheme::DveDeny,
            topology: TopologySpec::Mirror2,
            workload: "backprop".to_string(),
            seed: 42,
            mshrs: 4,
            epoch_ops: 4096,
            epoch_wait_ms: 5,
            queue_cap: 65_536,
            port: 0,
            chaos_seed: None,
            tenants: None,
        }
    }
}

impl std::fmt::Display for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheme={} topology={} workload={} seed={} mshrs={} epoch_ops={} \
             epoch_wait_ms={} queue_cap={} port={} chaos_seed={} tenants={}",
            self.scheme,
            self.topology,
            self.workload,
            self.seed,
            self.mshrs,
            self.epoch_ops,
            self.epoch_wait_ms,
            self.queue_cap,
            self.port,
            match self.chaos_seed {
                None => "none".to_string(),
                Some(s) => s.to_string(),
            },
            match &self.tenants {
                None => "none".to_string(),
                Some(mix) => mix.to_string(),
            }
        )
    }
}

impl std::str::FromStr for ServiceConfig {
    type Err = String;

    /// Parses whitespace-separated `key=value` tokens on top of the
    /// defaults. Unknown keys and malformed values are errors (a typo
    /// must not silently fall back to a default); a repeated key takes
    /// its last value, so callers can append overrides to a base
    /// string.
    fn from_str(s: &str) -> Result<ServiceConfig, String> {
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {key}"))
        }

        let mut cfg = ServiceConfig::default();
        for tok in s.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            match key {
                "scheme" => cfg.scheme = val.parse()?,
                "topology" => cfg.topology = val.parse()?,
                "workload" => cfg.workload = val.to_string(),
                "seed" => cfg.seed = num(key, val)?,
                "mshrs" => cfg.mshrs = num(key, val)?,
                "epoch_ops" => cfg.epoch_ops = num(key, val)?,
                "epoch_wait_ms" => cfg.epoch_wait_ms = num(key, val)?,
                "queue_cap" => cfg.queue_cap = num(key, val)?,
                "port" => cfg.port = num(key, val)?,
                "chaos_seed" => {
                    cfg.chaos_seed = if val == "none" {
                        None
                    } else {
                        Some(num(key, val)?)
                    }
                }
                "tenants" => {
                    cfg.tenants = if val == "none" {
                        None
                    } else {
                        Some(val.parse::<TenantMix>()?)
                    }
                }
                _ => return Err(format!("unknown service config key {key:?}")),
            }
        }
        if cfg.mshrs == 0 {
            return Err("mshrs must be >= 1".to_string());
        }
        if cfg.mshrs > MAX_MSHRS {
            return Err(format!("mshrs {} must be <= {MAX_MSHRS}", cfg.mshrs));
        }
        if cfg.epoch_ops == 0 {
            return Err("epoch_ops must be >= 1".to_string());
        }
        if cfg.queue_cap < cfg.epoch_ops {
            return Err(format!(
                "queue_cap {} must be >= epoch_ops {}",
                cfg.queue_cap, cfg.epoch_ops
            ));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_from_str_round_trips() {
        let cases = [
            ServiceConfig::default(),
            ServiceConfig {
                scheme: Scheme::DveAllow,
                topology: TopologySpec::Nway(4),
                workload: "kmeans".to_string(),
                seed: 7,
                mshrs: 1,
                epoch_ops: 128,
                epoch_wait_ms: 0,
                queue_cap: 128,
                port: 4242,
                chaos_seed: Some(0xC0FFEE),
                tenants: None,
            },
            ServiceConfig {
                topology: TopologySpec::TwoTier,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                tenants: Some(TenantMix::standard()),
                ..ServiceConfig::default()
            },
        ];
        for cfg in cases {
            let text = cfg.to_string();
            assert_eq!(text.parse::<ServiceConfig>(), Ok(cfg.clone()), "{text}");
        }
    }

    #[test]
    fn empty_string_is_defaults_and_last_key_wins() {
        assert_eq!("".parse::<ServiceConfig>(), Ok(ServiceConfig::default()));
        let cfg: ServiceConfig = "seed=1 seed=2".parse().unwrap();
        assert_eq!(cfg.seed, 2);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "frobnicate=1",
            "seed",
            "seed=abc",
            "scheme=dve-maybe",
            "topology=nway:1",
            "topology=ring",
            "mshrs=0",
            "epoch_ops=0",
            "epoch_ops=64 queue_cap=32",
            "tenants=gold:2",
            "tenants=gold:2:0",
            "tenants=gold:2:100,gold:0:200",
        ] {
            assert!(bad.parse::<ServiceConfig>().is_err(), "{bad:?}");
        }
        // chaos_seed admits the explicit "none".
        let cfg: ServiceConfig = "chaos_seed=none".parse().unwrap();
        assert_eq!(cfg.chaos_seed, None);
        // tenants admits the explicit "none" and a real mix.
        let cfg: ServiceConfig = "tenants=none".parse().unwrap();
        assert_eq!(cfg.tenants, None);
        let cfg: ServiceConfig = "tenants=gold:2:60000,bronze:0:200000".parse().unwrap();
        assert_eq!(cfg.tenants.unwrap().tenants().len(), 2);
    }

    #[test]
    fn mshrs_above_the_bound_are_rejected() {
        let max = format!("mshrs={MAX_MSHRS}");
        assert_eq!(max.parse::<ServiceConfig>().unwrap().mshrs, MAX_MSHRS);
        for bad in [
            format!("mshrs={}", MAX_MSHRS + 1),
            format!("mshrs={}", usize::MAX),
        ] {
            let err = bad.parse::<ServiceConfig>().unwrap_err();
            assert!(err.contains("mshrs"), "{bad}: {err}");
        }
    }

    #[test]
    fn topology_key_reaches_the_spec() {
        let cfg: ServiceConfig = "topology=nway:3".parse().unwrap();
        assert_eq!(cfg.topology, TopologySpec::Nway(3));
        let cfg: ServiceConfig = "topology=twotier".parse().unwrap();
        assert_eq!(cfg.topology, TopologySpec::TwoTier);
    }
}
