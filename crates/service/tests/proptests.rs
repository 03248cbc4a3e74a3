//! Property-based tests for the epoch batcher — the admission point
//! whose two invariants the whole service leans on:
//!
//! 1. epoch contents are a function of the admitted *set* of ops, not
//!    the arrival interleaving, and
//! 2. every submitted op comes back exactly once — shed, evicted, or
//!    in a cut epoch — or is still pending —
//!
//! and for the wire decoders and config parsers in front of it, which
//! must turn any byte sequence a client or a script sends into a value
//! or an error, never a panic.

use dve::config::TopologySpec;
use dve_service::batcher::{EpochBatcher, SubmitOutcome, SubmittedOp};
use dve_service::proto::{decode_batch, decode_ops, TAG_BATCH, TAG_OPS};
use dve_service::{EpochLoop, ServiceConfig};
use dve_sim::rng::SplitMix64;
use dve_workloads::op::MemReq;
use dve_workloads::tenant::TenantMix;
use proptest::prelude::*;

/// Every key `ServiceConfig` parses, plus near misses.
const KEYS: [&str; 14] = [
    "scheme",
    "topology",
    "workload",
    "seed",
    "mshrs",
    "epoch_ops",
    "epoch_wait_ms",
    "queue_cap",
    "port",
    "chaos_seed",
    "tenants",
    "Scheme",
    "",
    "mshrs ",
];

/// Values well-formed for some key, edge numbers, and malformed ones.
const VALUES: [&str; 36] = [
    "dve-deny",
    "dve-allow",
    "dve-dynamic",
    "baseline-numa",
    "intel-mirror++",
    "mirror2",
    "nway:2",
    "nway:3",
    "nway:8",
    "nway:9",
    "nway:",
    "twotier",
    "backprop",
    "kmeans",
    "no-such-workload",
    "",
    "0",
    "1",
    "4",
    "256",
    "257",
    "65536",
    "+7",
    "-1",
    "1e5",
    "18446744073709551615",
    "18446744073709551616",
    "none",
    "gold:2:60000,bronze:0:200000",
    "gold:2:60000",
    "gold:2",
    "gold:2:0",
    "gold:1:5,gold:0:9",
    ":1:5",
    "a:300:5",
    "=",
];

/// Characters the topology and tenant grammars are made of, so byte
/// strings drawn from them reach past the first parse error.
const GRAMMAR_BYTES: &[u8] = b"0123456789:,nwaytomirgdlbe+- \xff";

/// Values each of the first 11 [`KEYS`] accepts (and, for
/// `workload`, one the catalog lacks), so configs that parse are
/// common and varied.
const WELL_FORMED: [&[&str]; 11] = [
    &[
        "dve-deny",
        "dve-allow",
        "dve-dynamic",
        "baseline-numa",
        "intel-mirror++",
    ],
    &["mirror2", "nway:2", "nway:3", "nway:4", "nway:8", "twotier"],
    &["backprop", "kmeans", "fft", "stencil", "no-such-workload"],
    &["0", "7", "18446744073709551615"],
    &["1", "4", "256"],
    &["1", "64", "4096"],
    &["0", "5", "18446744073709551615"],
    &["4096", "65536", "18446744073709551615"],
    &["0", "65535"],
    &["none", "0", "13"],
    &["none", "gold:2:60000,bronze:0:200000", "a:0:1"],
];

/// One config token from a key choice, a value choice, a shape and raw
/// bytes: `key=value` with a value from [`VALUES`] or one the key
/// accepts, a bare key, `key=<raw bytes>` or `=value`.
fn token(key: usize, value: usize, shape: u8, raw: &[u8]) -> String {
    let name = KEYS[key % KEYS.len()];
    let any_value = VALUES[value % VALUES.len()];
    match shape % 5 {
        0 => format!("{name}={any_value}"),
        1 => name.to_string(),
        2 => format!("{name}={}", String::from_utf8_lossy(raw)),
        3 => format!("={any_value}"),
        _ => match WELL_FORMED.get(key % KEYS.len()) {
            Some(values) => format!("{name}={}", values[value % values.len()]),
            None => format!("{name}={any_value}"),
        },
    }
}

/// A config string of `tokens`, separated by single spaces.
fn config_text(tokens: &[(usize, usize, u8, Vec<u8>)]) -> String {
    tokens
        .iter()
        .map(|(k, v, shape, raw)| token(*k, *v, *shape, raw))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Bytes drawn from [`GRAMMAR_BYTES`] by index.
fn grammar_string(picks: &[u8]) -> String {
    let bytes: Vec<u8> = picks
        .iter()
        .map(|&i| GRAMMAR_BYTES[i as usize % GRAMMAR_BYTES.len()])
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Builds a per-client op population from a compact spec: client `c`
/// submits `counts[c]` ops with seqs `0..counts[c]`.
fn population(counts: &[u8]) -> Vec<SubmittedOp> {
    let mut ops = Vec::new();
    for (client, &n) in counts.iter().enumerate() {
        for seq in 0..n as u64 {
            ops.push(SubmittedOp {
                client: client as u64,
                seq,
                line: (client as u64) << 32 | seq,
                req: if (client + seq as usize).is_multiple_of(3) {
                    MemReq::Write
                } else {
                    MemReq::Read
                },
                priority: 0,
            });
        }
    }
    ops
}

/// Deterministic Fisher–Yates driven by `seed` — models one arrival
/// interleaving of the same op population.
fn shuffled(ops: &[SubmittedOp], seed: u64) -> Vec<SubmittedOp> {
    let mut v = ops.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// The op `submit` handed back as shed, if any: the refused op itself
/// or the evicted victim.
fn shed_op(op: SubmittedOp, outcome: SubmitOutcome) -> Option<SubmittedOp> {
    match outcome {
        SubmitOutcome::Admitted => None,
        SubmitOutcome::Shed => Some(op),
        SubmitOutcome::AdmittedEvicting(victim) => Some(victim),
    }
}

/// Feeds ops through a fresh batcher in arrival bursts of `burst`
/// ops, cutting at most one epoch between bursts (as the runner does),
/// then drains. Bursts larger than the spare capacity force sheds.
/// Returns the epochs cut and the ops shed, in order.
fn run_feed(
    ops: &[SubmittedOp],
    queue_cap: usize,
    epoch_ops: usize,
    burst: usize,
) -> (Vec<Vec<SubmittedOp>>, Vec<SubmittedOp>) {
    let mut b = EpochBatcher::new(queue_cap, epoch_ops);
    let mut epochs = Vec::new();
    let mut shed = Vec::new();
    for chunk in ops.chunks(burst.max(1)) {
        for &op in chunk {
            shed.extend(shed_op(op, b.submit(op)));
        }
        if b.epoch_ready() {
            epochs.push(b.take_epoch());
        }
    }
    while b.pending_len() > 0 {
        epochs.push(b.take_epoch());
    }
    (epochs, shed)
}

/// `(client, seq)` keys, sorted.
fn sorted_keys<'a>(ops: impl IntoIterator<Item = &'a SubmittedOp>) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = ops.into_iter().map(|o| (o.client, o.seq)).collect();
    keys.sort_unstable();
    keys
}

proptest! {
    // With capacity for the whole population, the batcher canonicalizes
    // racy ingress: when every op has arrived before the cuts happen,
    // the epoch *partition* is identical across arrival interleavings —
    // and even with incremental cuts (where partition boundaries track
    // arrival timing) the completed *set* is exactly the population,
    // independent of interleaving.
    #[test]
    fn epochs_independent_of_arrival_interleaving(
        counts in proptest::collection::vec(0u8..12, 1..10),
        epoch_ops in 1usize..40,
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
    ) {
        let ops = population(&counts);
        prop_assume!(!ops.is_empty());
        let cap = ops.len().max(epoch_ops);
        let burst = ops.len();
        let (ea, shed_a) = run_feed(&shuffled(&ops, seed_a), cap, epoch_ops, burst);
        let (eb, _) = run_feed(&shuffled(&ops, seed_b), cap, epoch_ops, burst);
        prop_assert_eq!(ea, eb);
        prop_assert!(shed_a.is_empty(), "capacity for the whole population");
        // Incremental cuts: the partition may differ, the set may not.
        let (inc, ..) = run_feed(&shuffled(&ops, seed_a ^ seed_b), cap, epoch_ops, 1);
        let mut done: Vec<SubmittedOp> = inc.into_iter().flatten().collect();
        done.sort_by_key(|o| (o.client, o.seq));
        let mut want = ops.clone();
        want.sort_by_key(|o| (o.client, o.seq));
        prop_assert_eq!(done, want);
    }

    // Under any capacity, every submitted op comes back exactly once,
    // shed or in one epoch, and every epoch is bounded and canonical.
    #[test]
    fn shed_accounting_is_exact_under_pressure(
        counts in proptest::collection::vec(0u8..20, 1..8),
        epoch_ops in 1usize..16,
        extra_cap in 0usize..16,
        burst in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let ops = population(&counts);
        prop_assume!(!ops.is_empty());
        let cap = epoch_ops + extra_cap;
        let (epochs, shed) = run_feed(&shuffled(&ops, seed), cap, epoch_ops, burst);
        prop_assert_eq!(
            sorted_keys(epochs.iter().flatten().chain(&shed)),
            sorted_keys(&ops)
        );
        for e in &epochs {
            prop_assert!(e.len() <= epoch_ops, "epoch size bound");
            prop_assert!(e.windows(2).all(|w| (w[0].client, w[0].seq) < (w[1].client, w[1].seq)),
                "canonical order inside each epoch");
        }
    }

    // A drained batcher is indistinguishable from a fresh one: feeding
    // a second population after fully draining the first yields the
    // same epochs the second population yields alone.
    #[test]
    fn drained_batcher_has_no_memory(
        counts_a in proptest::collection::vec(0u8..8, 1..6),
        counts_b in proptest::collection::vec(1u8..8, 1..6),
        epoch_ops in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let a = population(&counts_a);
        let b = population(&counts_b);
        let cap = (a.len() + b.len()).max(epoch_ops);
        let mut batcher = EpochBatcher::new(cap, epoch_ops);
        for &op in &shuffled(&a, seed) {
            batcher.submit(op);
        }
        while batcher.pending_len() > 0 {
            batcher.take_epoch();
        }
        let mut after: Vec<Vec<SubmittedOp>> = Vec::new();
        for &op in &shuffled(&b, seed ^ 1) {
            batcher.submit(op);
            if batcher.epoch_ready() {
                after.push(batcher.take_epoch());
            }
        }
        while batcher.pending_len() > 0 {
            after.push(batcher.take_epoch());
        }
        // Same arrival order as `after` — any difference would be
        // leftover state, not interleaving.
        let (fresh, _) = run_feed(&shuffled(&b, seed ^ 1), cap, epoch_ops, 1);
        prop_assert_eq!(after, fresh);
    }

    // Priority-aware eviction under random priorities only ever evicts
    // a strictly weaker op, and every submitted op is answered exactly
    // once (epoch slot or shed).
    #[test]
    fn priority_eviction_keeps_accounting_and_ordering(
        priorities in proptest::collection::vec(0u8..4, 1..64),
        queue_cap in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut b = EpochBatcher::new(queue_cap, queue_cap);
        let mut shed_keys: Vec<(u64, u64)> = Vec::new();
        let mut submitted_keys: Vec<(u64, u64)> = Vec::new();
        for (i, &priority) in priorities.iter().enumerate() {
            let op = SubmittedOp {
                client: rng.next_below(5),
                seq: i as u64,
                line: i as u64,
                req: MemReq::Read,
                priority,
            };
            submitted_keys.push((op.client, op.seq));
            match b.submit(op) {
                SubmitOutcome::Admitted => {}
                SubmitOutcome::Shed => shed_keys.push((op.client, op.seq)),
                SubmitOutcome::AdmittedEvicting(victim) => {
                    prop_assert!(victim.priority < op.priority,
                        "eviction must strictly upgrade priority");
                    shed_keys.push((victim.client, victim.seq));
                }
            }
        }
        // The whole buffer drains in one epoch (cap == epoch size).
        let survivors = b.take_epoch();
        prop_assert_eq!(b.pending_len(), 0);
        // Exactly-once answering: shed keys and admitted keys
        // partition the submitted population.
        let mut answered: Vec<(u64, u64)> = survivors
            .iter()
            .map(|o| (o.client, o.seq))
            .collect();
        answered.extend(&shed_keys);
        answered.sort_unstable();
        submitted_keys.sort_unstable();
        prop_assert_eq!(answered, submitted_keys);
    }

    // Under any interleaving of submits (random clients and priorities)
    // and epoch cuts, every submitted op comes back exactly once — as
    // `Shed`, as an evicted victim, or in a cut epoch — or is still
    // pending: after every step the returned ops are distinct submitted
    // ops, and returned + pending == submitted. Draining returns the
    // rest.
    #[test]
    fn every_submitted_op_comes_back_exactly_once(
        steps in proptest::collection::vec((0u8..8, 0u64..4, 0u8..4), 1..200),
        queue_cap in 1usize..16,
        epoch_ops in 1usize..16,
    ) {
        let epoch_ops = epoch_ops.min(queue_cap);
        let mut b = EpochBatcher::new(queue_cap, epoch_ops);
        let mut submitted: Vec<SubmittedOp> = Vec::new();
        let mut returned: Vec<SubmittedOp> = Vec::new();
        for (i, &(action, client, priority)) in steps.iter().enumerate() {
            if action == 0 {
                returned.extend(b.take_epoch());
            } else {
                let op = SubmittedOp {
                    client,
                    seq: i as u64,
                    line: i as u64,
                    req: MemReq::Read,
                    priority,
                };
                submitted.push(op);
                returned.extend(shed_op(op, b.submit(op)));
            }
            let mut back = sorted_keys(&returned);
            back.dedup();
            prop_assert!(back.len() == returned.len(), "an op came back twice");
            let sent = sorted_keys(&submitted);
            prop_assert!(back.iter().all(|k| sent.binary_search(k).is_ok()));
            prop_assert_eq!(returned.len() + b.pending_len(), submitted.len());
        }
        while b.pending_len() > 0 {
            returned.extend(b.take_epoch());
        }
        prop_assert_eq!(sorted_keys(&returned), sorted_keys(&submitted));
    }

    // Arbitrary client bytes, raw and behind a well-formed tag + count
    // header, must decode or error without panicking; a decode that
    // succeeds returns exactly the count the header claimed.
    #[test]
    fn wire_decoders_never_panic_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..160),
        huge in any::<u32>(),
        small in 0u32..12,
    ) {
        let _ = decode_ops(&raw, 1);
        let _ = decode_batch(&raw, 1);
        for (tag, count) in [TAG_OPS, TAG_BATCH].into_iter().flat_map(|t| [(t, huge), (t, small)]) {
            let mut body = vec![tag];
            body.extend_from_slice(&count.to_le_bytes());
            body.extend_from_slice(&raw);
            if let Ok(ops) = decode_ops(&body, 1) {
                prop_assert_eq!(ops.len() as u64, u64::from(count));
            }
            if let Ok(comps) = decode_batch(&body, 1) {
                prop_assert_eq!(comps.len() as u64, u64::from(count));
            }
        }
    }

    // Config text over the real keys, with well-formed, edge and
    // malformed values and raw bytes, parses or errors; whatever parses
    // survives a trip through `Display`.
    #[test]
    fn service_config_text_parses_or_errs(
        tokens in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>(), proptest::collection::vec(any::<u8>(), 0..12)),
            0..8,
        ),
    ) {
        let text = config_text(&tokens);
        if let Ok(cfg) = text.parse::<ServiceConfig>() {
            let again = cfg.to_string().parse::<ServiceConfig>();
            prop_assert!(again.as_ref() == Ok(&cfg), "{text:?} -> {cfg} -> {again:?}");
        }
    }

    // Raw bytes, and bytes over the grammar's own alphabet, given to the
    // `topology=` and `tenants=` parsers parse or error; whatever
    // parses survives a trip through `Display`.
    #[test]
    fn topology_and_tenant_text_parses_or_errs(
        raw in proptest::collection::vec(any::<u8>(), 0..40),
        picks in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), grammar_string(&picks)] {
            if let Ok(t) = text.parse::<TopologySpec>() {
                let again = t.to_string().parse::<TopologySpec>();
                prop_assert!(again == Ok(t), "{text:?} -> {t} -> {again:?}");
            }
            if let Ok(mix) = text.parse::<TenantMix>() {
                let again = mix.to_string().parse::<TenantMix>();
                prop_assert!(again.as_ref() == Ok(&mix), "{text:?} -> {mix} -> {again:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Up to 32 configs that parse (built from tokens every key
    // accepts) boot the threadless epoch loop to `Ok` or an `Err`,
    // never a panic. No thread or socket is started.
    #[test]
    fn parsed_configs_build_an_epoch_loop_or_err(
        tokens in proptest::collection::vec(
            (0usize..11, 0usize..64, 4u8..5, proptest::collection::vec(any::<u8>(), 0..1)),
            1..8,
        ),
    ) {
        let text = config_text(&tokens);
        let Ok(cfg) = text.parse::<ServiceConfig>() else {
            return Err(TestCaseError::Reject);
        };
        let _ = EpochLoop::from_config(&cfg);
    }
}
