//! Steady states that allocate nothing per step, each proved by a
//! count: run the same work at two lengths and compare the
//! allocations.
//!
//! - A contended consolidation cell allocates nothing per transaction:
//!   after setup, every scheduling step, SGI and wake runs on storage
//!   the cell reserved up front. T and 2T transactions per VM allocate
//!   exactly as often.
//! - A rack cell allocates nothing per shard window, serial or with
//!   two workers: R and 2R rounds allocate exactly as often.
//! - A loop session records into one flat op log, one iteration table
//!   and one snapshot arena, so recording 2k iterations allocates at
//!   most one growth step per vector more than recording k.
//!
//! The counting allocator keeps a per-thread tally, so tests running
//! in parallel on other threads do not disturb each other's counts. A
//! parallel rack cell's tally is its calling thread's: the cell's set-up
//! and the participant loop over the caller's own chunk of hosts.

use hvx::core::{HvKind, SchedPolicy};
use hvx::engine::{CoreId, Cycles, Machine, Topology, TraceKind};
use hvx::suite::consolidation::run_cell;
use hvx::suite::rack::{self, CellConfig, Composition};
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

/// Heap allocations (including reallocations) `f` makes on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Heap allocations made on this thread by one interpreted cell run.
fn allocations(kind: HvKind, ratio: u32, policy: SchedPolicy, txns_per_vm: u32) -> u64 {
    let (cell, n) =
        counted(|| run_cell(kind, ratio, policy, txns_per_vm, false).expect("cell runs"));
    assert_eq!(cell.transactions, u64::from(ratio) * u64::from(txns_per_vm));
    n
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

/// Allocations on this thread by an 8-host, 16-VM mixed rack cell of
/// `rounds` laps on `jobs` threads, and the shard windows it ran.
fn rack_allocations(rounds: u32, jobs: usize) -> (u64, u64) {
    let cfg = CellConfig {
        composition: Composition::Mixed,
        hosts: 8,
        vms_per_host: 16,
        rounds,
        jobs,
        fault: None,
    };
    let (cell, n) = counted(|| rack::run_cell_with(&cfg).expect("rack cell"));
    (n, cell.windows)
}

#[test]
fn rack_cells_allocate_nothing_per_shard_window() {
    const R: u32 = 4;
    for jobs in [1, 2] {
        let (once, windows) = rack_allocations(R, jobs);
        let (twice, more_windows) = rack_allocations(2 * R, jobs);
        assert!(more_windows > windows);
        assert_eq!(
            once, twice,
            "jobs = {jobs}: {once} allocations over {windows} windows, \
             {twice} over {more_windows}"
        );
    }
}

/// Allocations on this thread by a loop session that records `iters`
/// iterations of a loop that never settles (each iteration's first
/// charge costs a cycle more): charges, a signal, a wait and a loop
/// register per iteration, every one recorded.
fn recording_allocations(iters: u64) -> u64 {
    let (c0, c1) = (CoreId::new(0), CoreId::new(1));
    let mut m = Machine::without_tracing(Topology::split(4, 2));
    let ((), n) = counted(|| {
        m.loop_begin().expect("eligible");
        for i in 0..iters {
            assert_eq!(
                m.loop_replay(iters - i),
                0,
                "an aperiodic loop never replays"
            );
            m.loop_iter_begin();
            m.charge(c0, "work", TraceKind::Guest, Cycles::new(1_000 + i));
            let arrival = m.signal(c0, c1, Cycles::new(400));
            m.wait_until(c1, arrival);
            let done = m.charge(c1, "reply", TraceKind::Io, Cycles::new(300));
            m.loop_set_reg(0, done);
        }
        m.loop_end();
    });
    assert_eq!(
        m.iters_recorded(),
        iters - 1,
        "the last iteration is never closed"
    );
    n
}

#[test]
fn loop_recording_allocates_only_when_its_vectors_grow() {
    // Below the detector's give-up point (64 iterations), so both
    // sessions record throughout.
    const K: u64 = 24;
    let once = recording_allocations(K);
    let twice = recording_allocations(2 * K);
    // The op log, the iteration table and the snapshot arena each grow
    // by doubling: twice the iterations is one more step each.
    assert!(
        twice <= once + 3,
        "{once} allocations recording {K} iterations, {twice} recording {}",
        2 * K
    );
}
