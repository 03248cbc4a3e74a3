//! Parallel trace supply for the system runner.
//!
//! The sequential runner's one serializing input is
//! [`dve_workloads::TraceGenerator::next_op`]: every operation of every
//! core funnels through one generator on the coordinator thread. The
//! per-core streams are **timing-independent** — a core's operation
//! sequence is a pure function of `(profile, seed, core)`, never of
//! simulated time — so trace synthesis is exactly the part of the
//! pipeline that shards perfectly.
//!
//! [`ShardedSupply`] exploits that: worker threads own contiguous
//! (socket-major) core ranges, run one [`CoreTraceStream`] per owned
//! core, and push pre-generated chunks of operations through bounded
//! per-core channels. The coordinator keeps the exact global commit
//! order (its earliest-core heap is untouched), so results are
//! **bit-identical** to the inline generator at every MSHR depth and
//! worker count — the channels only change *who* computes the next
//! operation, never *which* operation comes next.
//!
//! The timing-critical simulation itself (coherence engine, DRAM,
//! link) still executes on the coordinator: the engine mutates
//! remote-socket state instantaneously, so its commit order is a
//! sequential dependency. Trace synthesis is about 8% of runtime, and
//! the measured supply is slower at 2 workers than inline; see
//! `DESIGN.md` §14 for the Amdahl accounting and the numbers.

use dve_workloads::{CoreTraceStream, Op, TraceGenerator, WorkloadProfile};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

/// Operations per channel message. Large enough to amortize channel
/// overhead (a send per 512 ops), small enough that the bounded
/// run-ahead (`CHUNK * BOUND` ops per core) stays cache-friendly.
const CHUNK: usize = 512;

/// Channel capacity in chunks: each core may be pre-generated at most
/// `BOUND * CHUNK` operations ahead of the coordinator.
const BOUND: usize = 4;

/// Where the runner's operations come from: the classic inline
/// generator, or the sharded multi-threaded supply.
#[derive(Debug)]
pub enum TraceSupply {
    /// Single-threaded reference path: one [`TraceGenerator`] advanced
    /// on the coordinator.
    Inline(TraceGenerator),
    /// Worker threads pre-generate per-core streams in parallel.
    Sharded(ShardedSupply),
}

impl TraceSupply {
    /// Builds the supply for `workers` trace threads (`<= 1` selects
    /// the inline path).
    pub fn new(profile: &WorkloadProfile, cores: usize, seed: u64, workers: usize) -> TraceSupply {
        if workers <= 1 {
            TraceSupply::Inline(TraceGenerator::new(profile, cores, seed))
        } else {
            TraceSupply::Sharded(ShardedSupply::new(profile, cores, seed, workers))
        }
    }

    /// The next operation of `core` — identical across both variants
    /// for the same `(profile, cores, seed)`.
    pub fn next_op(&mut self, core: usize) -> Op {
        match self {
            TraceSupply::Inline(g) => g.next_op(core),
            TraceSupply::Sharded(s) => s.next_op(core),
        }
    }
}

/// One core's receive side: the open chunk being consumed plus the
/// channel refilling it.
struct CoreFeed {
    rx: Receiver<Vec<Op>>,
    buf: Vec<Op>,
    cursor: usize,
}

/// The sharded trace supply: trace-synthesis workers feeding the
/// coordinator through bounded per-core channels.
pub struct ShardedSupply {
    feeds: Vec<CoreFeed>,
    /// Joined on drop, after the receivers hang up.
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardedSupply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSupply")
            .field("cores", &self.feeds.len())
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl ShardedSupply {
    /// Spawns `workers` trace threads over `cores` cores, partitioned
    /// contiguously (socket-major core numbering keeps a socket's
    /// cores on one worker).
    pub fn new(
        profile: &WorkloadProfile,
        cores: usize,
        seed: u64,
        workers: usize,
    ) -> ShardedSupply {
        let workers = workers.min(cores).max(1);
        let per = cores.div_ceil(workers);
        let mut txs: Vec<Option<SyncSender<Vec<Op>>>> = Vec::with_capacity(cores);
        let mut feeds = Vec::with_capacity(cores);
        for _ in 0..cores {
            let (tx, rx) = std::sync::mpsc::sync_channel(BOUND);
            txs.push(Some(tx));
            feeds.push(CoreFeed {
                rx,
                buf: Vec::new(),
                cursor: 0,
            });
        }
        let mut handles = Vec::new();
        for w in 0..workers {
            let lo = w * per;
            let hi = cores.min(lo + per);
            if lo >= hi {
                break;
            }
            let mut lanes: Vec<(CoreTraceStream, SyncSender<Vec<Op>>)> = (lo..hi)
                .map(|core| {
                    let stream = CoreTraceStream::new(profile, cores, seed, core);
                    (stream, txs[core].take().expect("core owned once"))
                })
                .collect();
            handles.push(std::thread::spawn(move || {
                // Round-robin over owned cores with non-blocking sends.
                // Never block on one core's full channel: a core the
                // coordinator has finished with keeps a full channel
                // forever, and a blocking send there would starve its
                // sibling cores on this worker. When every owned
                // channel is full the coordinator is behind — back off
                // briefly instead of spinning.
                let mut pending: Vec<Option<Vec<Op>>> = vec![None; lanes.len()];
                loop {
                    let mut sent_any = false;
                    let mut all_dead = true;
                    for (i, (stream, tx)) in lanes.iter_mut().enumerate() {
                        let chunk = pending[i]
                            .take()
                            .unwrap_or_else(|| (0..CHUNK).map(|_| stream.next_op()).collect());
                        match tx.try_send(chunk) {
                            Ok(()) => {
                                sent_any = true;
                                all_dead = false;
                            }
                            Err(TrySendError::Full(chunk)) => {
                                pending[i] = Some(chunk);
                                all_dead = false;
                            }
                            // The coordinator dropped this core's
                            // receiver: the run is over (or the core
                            // retired); stop producing for it.
                            Err(TrySendError::Disconnected(_)) => {}
                        }
                    }
                    if all_dead {
                        return;
                    }
                    if !sent_any {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                }
            }));
        }
        ShardedSupply { feeds, handles }
    }

    /// The next operation of `core`, blocking (briefly) if its worker
    /// has not produced the next chunk yet.
    pub fn next_op(&mut self, core: usize) -> Op {
        let feed = &mut self.feeds[core];
        if feed.cursor == feed.buf.len() {
            feed.buf = feed
                .rx
                .recv()
                .expect("trace worker died before its core retired");
            feed.cursor = 0;
        }
        let op = feed.buf[feed.cursor];
        feed.cursor += 1;
        op
    }
}

impl Drop for ShardedSupply {
    fn drop(&mut self) {
        // Hang up every channel first so workers observe Disconnected
        // on their next try_send, then reap them.
        self.feeds.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_sim::rng::SplitMix64;
    use dve_workloads::catalog;

    #[test]
    fn sharded_supply_matches_inline_generator() {
        let profiles = catalog();
        let profile = profiles.iter().find(|p| p.name == "backprop").unwrap();
        let cores = 16;
        for workers in [2, 4, 8] {
            let mut inline = TraceSupply::new(profile, cores, 42, 1);
            let mut sharded = TraceSupply::new(profile, cores, 42, workers);
            assert!(matches!(sharded, TraceSupply::Sharded(_)));
            // Interleave cores pseudo-randomly — the coordinator's
            // commit order is timing-dependent, so the supply must
            // serve any interleaving identically.
            let mut rng = SplitMix64::new(7);
            for i in 0..40_000 {
                let core = rng.next_below(cores as u64) as usize;
                assert_eq!(
                    inline.next_op(core),
                    sharded.next_op(core),
                    "op {i} core {core} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn sharded_supply_survives_early_drop() {
        // Dropping the supply mid-stream (channels full of unread
        // chunks) must not deadlock or leak the workers.
        let profiles = catalog();
        let profile = profiles.iter().find(|p| p.name == "streamcluster").unwrap();
        for _ in 0..3 {
            let mut s = ShardedSupply::new(profile, 8, 9, 4);
            for core in 0..4 {
                let _ = s.next_op(core);
            }
            drop(s);
        }
    }

    #[test]
    fn worker_count_clamps_to_cores() {
        let profiles = catalog();
        let profile = &profiles[0];
        let mut s = ShardedSupply::new(profile, 2, 1, 16);
        let mut inline = TraceGenerator::new(profile, 2, 1);
        for _ in 0..2_000 {
            assert_eq!(s.next_op(0), inline.next_op(0));
            assert_eq!(s.next_op(1), inline.next_op(1));
        }
    }
}
