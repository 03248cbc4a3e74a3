//! Deterministic trace synthesis from a workload profile.
//!
//! Each thread draws from four region types laid out in one flat
//! line-address space (pages of which the system interleaves across
//! sockets, per the paper's allocation policy):
//!
//! * a globally shared **read-only** pool (lookup tables),
//! * a globally shared **read-write** pool (frontiers, reductions),
//! * a per-thread **private read** pool (streamed input partitions),
//! * a per-thread **private read-write** pool (scratch/output).
//!
//! Spatial locality is modeled as sequential runs within the current
//! region; temporal locality as re-touches of a small recent-line ring.
//! All randomness comes from a per-thread [`SplitMix64`] whose seed is
//! [`derive_seed`]`(experiment seed, WORKLOAD_STREAM, thread id)` —
//! identical streams on every run.

use crate::op::{MemReq, Op};
use crate::profile::WorkloadProfile;
use dve_sim::rng::{derive_seed, SplitMix64};

/// Stream id reserved for workload trace synthesis in [`derive_seed`].
pub const WORKLOAD_STREAM: u64 = 0x574B;

/// Length of the long-range history ring per thread.
const HISTORY_LINES: usize = 4_096;
/// Probability that a fresh access revisits the distant history
/// (loop-level reuse: the line has left the caches by then).
const REVISIT_PROB: f64 = 0.10;
/// Revisits draw from at least this far back in the history.
const REVISIT_MIN_DISTANCE: usize = 2_048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    SharedRo,
    SharedRw,
    PrivateRo,
    PrivateRw,
}

#[derive(Debug)]
struct ThreadState {
    rng: SplitMix64,
    /// Sequential cursor per region.
    cursors: [u64; 4],
    /// Recently touched lines for temporal reuse, with whether the
    /// line lives in a writable region.
    recent: Vec<(u64, bool)>,
    recent_pos: usize,
    /// Long-range access history for loop-level revisits (lines come
    /// back after falling out of the LLC — the reuse that a large
    /// replica directory converts into local replica hits, Fig. 9).
    history: Vec<u64>,
    history_pos: usize,
    /// Whether the next emitted op should be the pending memory op.
    pending_mem: bool,
}

/// Layout of the synthesized address space, in line addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Shared read-only pool `[0, shared_ro)`.
    pub shared_ro: u64,
    /// Shared read-write pool `[shared_ro, shared_ro + shared_rw)`.
    pub shared_rw: u64,
    /// Lines of private read pool per thread.
    pub private_ro_per_thread: u64,
    /// Lines of private read-write pool per thread.
    pub private_rw_per_thread: u64,
}

/// The immutable part of trace synthesis: profile parameters, address
/// layout and derived locality knobs, shared by every thread's stream.
///
/// All per-thread mutable state lives in `ThreadState`, and the op
/// synthesis itself (`TraceShape::step`) only ever touches the shape
/// plus *one* thread's state. That separation is what lets
/// [`CoreTraceStream`] hand a single core's stream to a worker thread
/// (the PDES trace-sharding path) while guaranteeing — structurally,
/// not just by test — that the sequence cannot depend on any other
/// core's progress.
#[derive(Debug, Clone)]
pub struct TraceShape {
    profile: WorkloadProfile,
    threads: usize,
    layout: Layout,
    /// Probability of re-touching a recent line (temporal locality),
    /// derived from the profile's MPKI.
    reuse: f64,
}

impl TraceShape {
    /// Derives the shape for `threads` threads of `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(profile: &WorkloadProfile, threads: usize) -> TraceShape {
        assert!(threads > 0, "need at least one thread");
        profile.validate();
        let ws = profile.working_set_lines;
        let mix = profile.mix;
        // Partition the working set proportionally to the issue mix.
        // Shared pools are capped: lookup tables and shared frontiers
        // are compact structures that get *re-read* (that re-reading,
        // after LLC eviction under stream pressure, is what produces the
        // read-only GETS class of Fig. 7); the bulky streamed data lives
        // in the private pools.
        let shared_ro = ((ws as f64 * mix.read_only) as u64).clamp(1024, 12_288);
        let shared_rw = ((ws as f64 * mix.read_write) as u64).clamp(256, 16_384);
        let private_ro_per_thread =
            (((ws as f64 * mix.private_read) as u64) / threads as u64).max(512);
        let private_rw_per_thread =
            (((ws as f64 * mix.private_read_write) as u64) / threads as u64).max(512);
        let layout = Layout {
            shared_ro,
            shared_rw,
            private_ro_per_thread,
            private_rw_per_thread,
        };
        // Higher MPKI → less temporal reuse; clamp to a sane band.
        let reuse = (1.0 - profile.l2_mpki / 150.0).clamp(0.50, 0.96);
        TraceShape {
            profile: profile.clone(),
            threads,
            layout,
            reuse,
        }
    }

    /// Thread count this shape was derived for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The synthesized address-space layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The seeded initial state of `thread`'s stream.
    fn thread_state(&self, seed: u64, thread: usize) -> ThreadState {
        let mut rng = SplitMix64::new(derive_seed(seed, WORKLOAD_STREAM, thread as u64));
        let cursors = [
            rng.next_below(self.layout.shared_ro),
            rng.next_below(self.layout.shared_rw),
            rng.next_below(self.layout.private_ro_per_thread),
            rng.next_below(self.layout.private_rw_per_thread),
        ];
        ThreadState {
            rng,
            cursors,
            recent: Vec::with_capacity(16),
            recent_pos: 0,
            history: Vec::with_capacity(HISTORY_LINES),
            history_pos: 0,
            pending_mem: false,
        }
    }

    fn region_base(&self, region: Region, thread: usize) -> u64 {
        let l = self.layout;
        match region {
            Region::SharedRo => 0,
            Region::SharedRw => l.shared_ro,
            Region::PrivateRo => {
                l.shared_ro + l.shared_rw + thread as u64 * l.private_ro_per_thread
            }
            Region::PrivateRw => {
                l.shared_ro
                    + l.shared_rw
                    + self.threads as u64 * l.private_ro_per_thread
                    + thread as u64 * l.private_rw_per_thread
            }
        }
    }

    fn region_len(&self, region: Region) -> u64 {
        let l = self.layout;
        match region {
            Region::SharedRo => l.shared_ro,
            Region::SharedRw => l.shared_rw,
            Region::PrivateRo => l.private_ro_per_thread,
            Region::PrivateRw => l.private_rw_per_thread,
        }
    }

    /// Advances `thread`'s stream by one operation.
    fn step(&self, st: &mut ThreadState, thread: usize) -> Op {
        let mix = self.profile.mix;
        let write_frac = self.profile.write_frac;
        let spatial = self.profile.spatial;
        let sync_frac = self.profile.sync_frac;
        let compute = self.profile.compute_per_mem;
        let reuse = self.reuse;

        // Alternate compute and memory; occasionally emit a sync event.
        if !st.pending_mem {
            st.pending_mem = true;
            if st.rng.chance(sync_frac) {
                return Op::Sync;
            }
            if compute > 0 {
                let span = compute.max(1) as u64 * 2;
                let c = 1 + st.rng.next_below(span) as u32;
                return Op::Compute(c);
            }
        }
        st.pending_mem = false;

        // Temporal reuse of a recently touched line.
        if !st.recent.is_empty() && st.rng.chance(reuse) {
            let recent_len = st.recent.len();
            let idx = st.rng.next_below(recent_len as u64) as usize;
            let (line, writable) = st.recent[idx];
            let req = if writable && st.rng.chance(write_frac * 0.3) {
                MemReq::Write
            } else {
                MemReq::Read
            };
            return Op::Mem { line, req };
        }

        // Loop-level revisit of a long-evicted line (read-only: the
        // iteration re-reads last sweep's data).
        if st.history.len() > REVISIT_MIN_DISTANCE && st.rng.chance(REVISIT_PROB) {
            let len = st.history.len();
            let back = REVISIT_MIN_DISTANCE
                + st.rng.next_below((len - REVISIT_MIN_DISTANCE) as u64) as usize;
            let idx = (st.history_pos + len - back) % len;
            let line = st.history[idx];
            return Op::Mem {
                line,
                req: MemReq::Read,
            };
        }

        // Pick a region by the profile's mix.
        let roll: f64 = st.rng.next_f64();
        let (region, region_idx) = if roll < mix.private_read {
            (Region::PrivateRo, 2)
        } else if roll < mix.private_read + mix.read_only {
            (Region::SharedRo, 0)
        } else if roll < mix.private_read + mix.read_only + mix.read_write {
            (Region::SharedRw, 1)
        } else {
            (Region::PrivateRw, 3)
        };
        let len = self.region_len(region);
        let pos = if st.rng.chance(spatial) {
            let c = (st.cursors[region_idx] + 1) % len;
            st.cursors[region_idx] = c;
            c
        } else {
            let c = st.rng.next_below(len);
            st.cursors[region_idx] = c;
            c
        };
        let line = self.region_base(region, thread) + pos;

        let req = match region {
            Region::SharedRo | Region::PrivateRo => MemReq::Read,
            Region::SharedRw | Region::PrivateRw => {
                if st.rng.chance(write_frac) {
                    MemReq::Write
                } else {
                    MemReq::Read
                }
            }
        };

        // Remember for temporal reuse and long-range revisits.
        let writable = matches!(region, Region::SharedRw | Region::PrivateRw);
        if st.recent.len() < 16 {
            st.recent.push((line, writable));
        } else {
            st.recent[st.recent_pos] = (line, writable);
            st.recent_pos = (st.recent_pos + 1) % 16;
        }
        if st.history.len() < HISTORY_LINES {
            st.history.push(line);
        } else {
            st.history[st.history_pos] = line;
        }
        st.history_pos = (st.history_pos + 1) % HISTORY_LINES;
        Op::Mem { line, req }
    }
}

/// A deterministic multi-threaded trace generator.
///
/// # Example
///
/// ```
/// use dve_workloads::{catalog, TraceGenerator};
///
/// let profiles = catalog();
/// let mut a = TraceGenerator::new(&profiles[0], 16, 1);
/// let mut b = TraceGenerator::new(&profiles[0], 16, 1);
/// for t in 0..16 {
///     for _ in 0..100 {
///         assert_eq!(a.next_op(t), b.next_op(t)); // reproducible
///     }
/// }
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    shape: TraceShape,
    states: Vec<ThreadState>,
}

impl TraceGenerator {
    /// Builds a generator for `threads` threads with experiment `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(profile: &WorkloadProfile, threads: usize, seed: u64) -> TraceGenerator {
        let shape = TraceShape::new(profile, threads);
        let states = (0..threads).map(|t| shape.thread_state(seed, t)).collect();
        TraceGenerator { shape, states }
    }

    /// The synthesized address-space layout.
    pub fn layout(&self) -> Layout {
        self.shape.layout
    }

    /// Total span of the address space in lines.
    pub fn span_lines(&self) -> u64 {
        let l = self.shape.layout;
        l.shared_ro
            + l.shared_rw
            + self.shape.threads as u64 * (l.private_ro_per_thread + l.private_rw_per_thread)
    }

    /// Produces the next operation for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn next_op(&mut self, thread: usize) -> Op {
        assert!(thread < self.shape.threads, "thread out of range");
        self.shape.step(&mut self.states[thread], thread)
    }
}

/// One core's trace stream, detached from the other cores.
///
/// Produces exactly the op sequence [`TraceGenerator::next_op`] would
/// produce for `thread` under the same `(profile, threads, seed)`, but
/// owns only that thread's mutable state — so it is `Send`, cheap to
/// construct, and safe to drive from a PDES trace-sharding worker
/// while sibling cores' streams advance on other threads. Timing
/// cannot leak between streams because `TraceShape::step` reads
/// nothing mutable but this one state.
///
/// # Example
///
/// ```
/// use dve_workloads::{catalog, CoreTraceStream, TraceGenerator};
///
/// let p = &catalog()[0];
/// let mut whole = TraceGenerator::new(p, 16, 42);
/// let mut solo = CoreTraceStream::new(p, 16, 42, 5);
/// for _ in 0..100 {
///     assert_eq!(solo.next_op(), whole.next_op(5));
/// }
/// ```
#[derive(Debug)]
pub struct CoreTraceStream {
    shape: TraceShape,
    state: ThreadState,
    thread: usize,
}

impl CoreTraceStream {
    /// Builds the stream of `thread` out of a `threads`-wide trace with
    /// experiment `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `thread >= threads`.
    pub fn new(
        profile: &WorkloadProfile,
        threads: usize,
        seed: u64,
        thread: usize,
    ) -> CoreTraceStream {
        assert!(thread < threads, "thread out of range");
        let shape = TraceShape::new(profile, threads);
        let state = shape.thread_state(seed, thread);
        CoreTraceStream {
            shape,
            state,
            thread,
        }
    }

    /// Which core this stream belongs to.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Produces the core's next operation.
    pub fn next_op(&mut self) -> Op {
        self.shape.step(&mut self.state, self.thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::catalog;

    fn backprop() -> WorkloadProfile {
        catalog()
            .into_iter()
            .find(|p| p.name == "backprop")
            .unwrap()
    }

    fn lbm() -> WorkloadProfile {
        catalog().into_iter().find(|p| p.name == "lbm").unwrap()
    }

    #[test]
    fn deterministic_across_instances() {
        let p = backprop();
        let mut a = TraceGenerator::new(&p, 4, 7);
        let mut b = TraceGenerator::new(&p, 4, 7);
        for t in 0..4 {
            for _ in 0..1000 {
                assert_eq!(a.next_op(t), b.next_op(t));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = backprop();
        let mut a = TraceGenerator::new(&p, 1, 1);
        let mut b = TraceGenerator::new(&p, 1, 2);
        let same = (0..1000).filter(|_| a.next_op(0) == b.next_op(0)).count();
        assert!(same < 900, "streams should diverge, {same}/1000 equal");
    }

    #[test]
    fn private_regions_are_disjoint_across_threads() {
        let p = lbm();
        let threads = 8;
        let mut g = TraceGenerator::new(&p, threads, 3);
        let shared_top = g.layout().shared_ro + g.layout().shared_rw;
        let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for t in 0..threads {
            for _ in 0..5000 {
                if let Op::Mem { line, .. } = g.next_op(t) {
                    if line >= shared_top {
                        if let Some(&prev) = owner.get(&line) {
                            assert_eq!(prev, t, "private line {line} touched by two threads");
                        }
                        owner.insert(line, t);
                    }
                }
            }
        }
    }

    #[test]
    fn read_only_regions_never_written() {
        let p = backprop();
        let mut g = TraceGenerator::new(&p, 4, 9);
        let l = g.layout();
        let priv_ro_base = l.shared_ro + l.shared_rw;
        let priv_rw_base = priv_ro_base + 4 * l.private_ro_per_thread;
        for t in 0..4 {
            for _ in 0..20_000 {
                if let Op::Mem { line, req } = g.next_op(t) {
                    let in_ro = line < l.shared_ro || (line >= priv_ro_base && line < priv_rw_base);
                    if in_ro && req == MemReq::Write {
                        // Temporal-reuse writes can only come from lines
                        // first touched in RW regions; RO lines must stay
                        // read-only. The reuse path writes with
                        // probability write_frac*0.3 regardless of
                        // region, so tolerate zero-region writes only.
                        panic!("write to read-only region at line {line}");
                    }
                }
            }
        }
    }

    #[test]
    fn write_fraction_materializes() {
        let p = lbm(); // write-heavy private scratch
        let mut g = TraceGenerator::new(&p, 2, 11);
        let mut reads = 0u64;
        let mut writes = 0u64;
        for t in 0..2 {
            for _ in 0..50_000 {
                if let Op::Mem { req, .. } = g.next_op(t) {
                    match req {
                        MemReq::Read => reads += 1,
                        MemReq::Write => writes += 1,
                    }
                }
            }
        }
        let frac = writes as f64 / (reads + writes) as f64;
        assert!(frac > 0.08 && frac < 0.70, "write fraction {frac}");
    }

    #[test]
    fn compute_ops_interleave() {
        let p = backprop();
        let mut g = TraceGenerator::new(&p, 1, 5);
        let mut mem = 0;
        let mut comp = 0;
        for _ in 0..10_000 {
            match g.next_op(0) {
                Op::Mem { .. } => mem += 1,
                Op::Compute(_) => comp += 1,
                Op::Sync => {}
            }
        }
        assert!(mem > 4000 && comp > 4000, "mem={mem} comp={comp}");
    }

    #[test]
    fn span_covers_all_regions() {
        let p = backprop();
        let g = TraceGenerator::new(&p, 16, 1);
        let l = g.layout();
        assert_eq!(
            g.span_lines(),
            l.shared_ro + l.shared_rw + 16 * (l.private_ro_per_thread + l.private_rw_per_thread)
        );
    }

    #[test]
    fn all_catalog_profiles_generate() {
        for p in catalog() {
            let mut g = TraceGenerator::new(&p, 16, 42);
            let mut mems = 0;
            for t in 0..16 {
                for _ in 0..200 {
                    if matches!(g.next_op(t), Op::Mem { .. }) {
                        mems += 1;
                    }
                }
            }
            assert!(mems > 0, "{} produced no memory ops", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "thread out of range")]
    fn thread_bounds_checked() {
        let p = backprop();
        let mut g = TraceGenerator::new(&p, 2, 0);
        g.next_op(2);
    }

    #[test]
    fn core_stream_matches_full_generator() {
        // The detached per-core stream must replay exactly what the
        // full generator hands that core — including when the full
        // generator's cores advance interleaved (the sharded trace
        // supply depends on this being true op-for-op).
        let p = lbm();
        let threads = 8;
        let mut whole = TraceGenerator::new(&p, threads, 1234);
        let mut solos: Vec<CoreTraceStream> = (0..threads)
            .map(|t| CoreTraceStream::new(&p, threads, 1234, t))
            .collect();
        let mut rng = SplitMix64::new(99);
        for _ in 0..20_000 {
            let t = rng.next_below(threads as u64) as usize;
            assert_eq!(solos[t].next_op(), whole.next_op(t), "core {t}");
        }
        assert_eq!(solos[3].thread(), 3);
    }

    #[test]
    #[should_panic(expected = "thread out of range")]
    fn core_stream_bounds_checked() {
        CoreTraceStream::new(&backprop(), 4, 0, 4);
    }
}
