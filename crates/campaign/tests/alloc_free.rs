//! Trials without the system replay must not touch the heap once the
//! scratch is built: a counting global allocator watches every trial of
//! a stratified (99% faulty) and a plain campaign for each scheme.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use dve_campaign::{CampaignScheme, TrialExecutor, DEFAULT_TAIL_MIN};
use dve_reliability::accel::AccelParams;

/// Forwards to the system allocator, counting allocations made by the
/// current thread (so the test harness's own threads never interfere).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const TRIALS: u64 = 12_000;
const WARMUP: u64 = 500;

#[test]
fn trials_without_replay_never_allocate() {
    for scheme in CampaignScheme::ALL {
        let exec = TrialExecutor::new(scheme, AccelParams::paper_accelerated(), 0);
        let plan = exec.strata_plan(DEFAULT_TAIL_MIN, TRIALS);
        let mut scratch = exec.make_scratch();
        for trial in 0..WARMUP {
            black_box(exec.run_stratified_with(0xA110C, trial, &plan, &mut scratch));
            black_box(exec.run_with(0xA110C, trial, &mut scratch));
        }

        let before = allocs();
        let mut faulty = 0u64;
        for trial in 0..TRIALS {
            let r = exec.run_stratified_with(0xF4EE, trial, &plan, &mut scratch);
            faulty += u64::from(r.fault_count > 0);
            black_box(r);
        }
        let stratified = allocs() - before;
        assert_eq!(
            stratified,
            0,
            "{}: {stratified} allocations in {TRIALS} stratified trials",
            scheme.label()
        );
        assert!(
            faulty * 10 > TRIALS * 9,
            "{}: only {faulty} of {TRIALS} stratified trials were faulty",
            scheme.label()
        );

        let before = allocs();
        for trial in 0..TRIALS {
            black_box(exec.run_with(0xF4EE, trial, &mut scratch));
        }
        let plain = allocs() - before;
        assert_eq!(
            plain,
            0,
            "{}: {plain} allocations in {TRIALS} plain trials",
            scheme.label()
        );
    }
}
