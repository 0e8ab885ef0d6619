//! A contended consolidation cell allocates nothing per transaction:
//! after setup, every scheduling step, SGI and wake runs on storage the
//! cell reserved up front. The proof is a count: run the same cell for
//! T and for 2T transactions per VM and it must allocate exactly as
//! many times.
//!
//! The counting allocator keeps a per-thread tally, so tests running
//! in parallel on other threads do not disturb each other's counts.

use hvx::core::{HvKind, SchedPolicy};
use hvx::suite::consolidation::run_cell;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves thread teardown, after the
    // tally is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) made on this thread by
/// one interpreted cell run.
fn allocations(kind: HvKind, ratio: u32, policy: SchedPolicy, txns_per_vm: u32) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let cell = run_cell(kind, ratio, policy, txns_per_vm, false).expect("cell runs");
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(cell.transactions, u64::from(ratio) * u64::from(txns_per_vm));
    after - before
}

#[test]
fn contended_cells_allocate_nothing_per_transaction() {
    const T: u32 = 24;
    for ratio in [16, 64] {
        for policy in SchedPolicy::ALL {
            let once = allocations(HvKind::KvmArm, ratio, policy, T);
            let twice = allocations(HvKind::KvmArm, ratio, policy, 2 * T);
            assert_eq!(
                once,
                twice,
                "{policy:?} {ratio}:1: {once} allocations at {T} transactions per VM, \
                 {twice} at {}",
                2 * T
            );
        }
    }
}
