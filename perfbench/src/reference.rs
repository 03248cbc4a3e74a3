//! Host speed, measured with a fixed reference kernel so that host-time
//! metrics can be stated at a nominal host speed.
//!
//! On a shared virtual machine the speed of a CPU second drifts by tens
//! of percent over minutes, as other tenants load the same cores,
//! caches and memory, and that drift moves every host-time metric
//! together. The benchmark times this kernel between repetitions and
//! scales host times by `NOMINAL_S / median kernel time`. A change to
//! the program moves the scaled figures; a change in host speed moves
//! them much less. The kernel is benchmark code, so no change to the
//! program can move it.
//!
//! The kernel has a memory-bound half (random read-modify-writes over a
//! table larger than the private caches, like the simulator's working
//! set) and a compute-bound half (a dependent integer chain over an
//! L1-resident table, like the campaign's codeword arithmetic): host
//! drift slows the two by different amounts, and the workloads sit in
//! between.

use crate::cputime::Stopwatch;
use std::hint::black_box;

/// Kernel CPU time on the host the bounds were set on (two vCPUs of a
/// 2.1 GHz Xeon under a hypervisor); scaled figures read as if measured
/// at that speed.
pub const NOMINAL_S: f64 = 0.045;

/// The memory half's table: 16 MiB. A power of two, so indexing is a
/// mask and the time goes to memory, not to division.
const TABLE_WORDS: usize = 1 << 21;
/// Random read-modify-writes of the memory half.
const MEMORY_STEPS: u32 = 1_500_000;
/// The compute half's table: 32 KiB, resident in L1.
const SMALL_WORDS: usize = 1 << 12;
/// Iterations of the compute half.
const COMPUTE_STEPS: u64 = 2_500_000;

/// Reference-kernel timings taken during one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// Allocated on the first sample, so a peak RSS read before it
    /// does not include the table.
    table: Vec<u64>,
    samples: Vec<f64>,
}

/// xorshift64: a fixed pseudo-random walk.
fn step(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl HostSpeed {
    /// Times one pass of the kernel (both halves).
    pub fn sample(&mut self) {
        if self.table.is_empty() {
            self.table = vec![1; TABLE_WORDS];
        }
        let clock = Stopwatch::start();
        let mask = TABLE_WORDS as u64 - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..MEMORY_STEPS {
            let i = (step(&mut x) & mask) as usize;
            self.table[i] = self.table[i].wrapping_add(x);
            acc = acc.wrapping_add(self.table[(acc & mask) as usize]);
        }
        let mut small = [0u64; SMALL_WORDS];
        let small_mask = SMALL_WORDS as u64 - 1;
        for i in 0..COMPUTE_STEPS {
            let j = (step(&mut x) & small_mask) as usize;
            small[j] = small[j].wrapping_mul(3).wrapping_add(i);
            if small[j] & 1 == 0 {
                x = x.wrapping_add(small[j]);
            }
        }
        black_box((acc, small));
        self.samples.push(clock.cpu_s());
    }

    /// Factor that states host seconds measured in this run at the
    /// nominal speed (multiply times, divide rates).
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / crate::stats::median(&self.samples)
    }

    /// Median kernel time, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        crate::stats::median(&self.samples) * 1e3
    }
}
