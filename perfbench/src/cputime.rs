//! Host time as the process's CPU time.
//!
//! The workloads that do their work on one thread at a time (the trace
//! replays, and the campaign on one worker) report CPU time. On a
//! shared or virtualised host the wall clock also counts time the
//! thread was not running (preempted, or its virtual CPU stolen by the
//! hypervisor), which is noise that says nothing about the program.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Seconds of CPU time (user + system, all threads) this process has
/// used.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time since a starting point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(f64);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(process_cpu_s())
    }

    /// CPU seconds the process used since [`Stopwatch::start`].
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.0
    }
}
