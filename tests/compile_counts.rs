//! The count gate for compiled replay, the twin of
//! `scripts/perf_smoke.sh`'s wall-clock gate (interpretation at least
//! 100× compiled replay per transition). Counts do not depend on the
//! host, so this gate holds on any machine: every Figure 4 cell at the
//! benchmark's scale must
//!
//! - replay every whole block after the iterations it recorded to
//!   prove its period;
//! - step exactly two blocks op by op (one observed regime) and jump
//!   over all the others;
//! - reach the detector's exact op-by-op congruence check only for the
//!   candidate period it compiles: the hash screen and the clock-delta
//!   check turn every other candidate away in a few integer operations.
//!
//! A synthetic loop whose wrong candidates have steady clocks pins the
//! hash screen on its own.

use hvx::core::{HvKind, HvType, SimBuilder, VirqPolicy};
use hvx::engine::{CoreId, Cycles, Machine, Topology, TraceKind};
use hvx::suite::bench_grid::DEFAULT_SCALE;
use hvx::suite::paper::COLUMNS;
use hvx::suite::workloads::{self, Mix};

/// The loop compiler's longest period, in iterations.
const MAX_PERIOD: u64 = 8;

/// Iterations `mix`'s steady loop runs on `kind`: Xen's TSO cap splits
/// each transmit burst into smaller ones.
fn loop_iterations(mix: Mix, kind: HvKind) -> u64 {
    let n = match mix {
        Mix::StreamTx {
            chunks,
            bursts,
            tso_capped_chunks,
            ..
        } if kind.hv_type() == Some(HvType::Type1) => bursts * (chunks / tso_capped_chunks.max(1)),
        Mix::CpuBound { units, .. } | Mix::IpiBound { units, .. } => units,
        Mix::NetRr { transactions } => transactions,
        Mix::StreamRx { bursts, .. } | Mix::StreamTx { bursts, .. } => bursts,
        Mix::DiskIo { requests, .. } | Mix::RequestServer { requests, .. } => requests,
    };
    u64::from(n)
}

#[test]
fn figure4_cells_enter_replay_with_one_exact_check_and_two_stepped_blocks() {
    let mut cells = 0;
    for entry in workloads::catalog() {
        for kind in COLUMNS {
            let mix = entry.mix.scaled(DEFAULT_SCALE);
            let mut hv = SimBuilder::new(kind)
                .build()
                .expect("paper-default build")
                .into_inner();
            workloads::run_with(hv.as_mut(), mix, VirqPolicy::Vcpu0, true).expect("cell runs");
            let m = hv.machine();
            let cell = format!("{} on {kind}", entry.name);
            let recorded = m.iters_recorded();
            assert!(recorded > 0, "{cell}: recorded nothing");
            // Replay skips whole blocks, so a tail shorter than one block
            // is left to interpret.
            let tail = loop_iterations(mix, kind) - recorded - m.iters_replayed();
            assert!(
                tail < MAX_PERIOD,
                "{cell}: {tail} iterations after the {recorded} recorded ones were not replayed"
            );
            assert_eq!(m.blocks_stepped(), 2, "{cell}: stepped blocks");
            assert_eq!(
                m.congruence_checks(),
                1,
                "{cell}: candidate periods that reached the exact check"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 36);
}

#[test]
fn candidates_with_steady_clocks_but_other_ops_never_reach_the_exact_check() {
    // Two iteration bodies that charge core 0 the same 1,000 cycles in
    // opposite order: every 1-iteration candidate has steady clock
    // deltas but differs op by op, so only the hash screen turns it
    // away. The period-2 candidate that compiles is the one exact
    // check.
    let (c0, c1) = (CoreId::new(0), CoreId::new(1));
    let mut m = Machine::without_tracing(Topology::split(2, 1));
    m.loop_begin().expect("eligible");
    let iters = 1_000;
    let mut i = 0;
    while i < iters {
        let skipped = m.loop_replay(iters - i);
        if skipped > 0 {
            i += skipped;
            continue;
        }
        m.loop_iter_begin();
        let costs = if i % 2 == 0 { [600, 400] } else { [400, 600] };
        for cost in costs {
            m.charge(c0, "work", TraceKind::Guest, Cycles::new(cost));
        }
        let there = m.signal(c0, c1, Cycles::new(400));
        m.wait_until(c1, there);
        m.charge(c1, "handle", TraceKind::Emulation, Cycles::new(300));
        let back = m.signal(c1, c0, Cycles::new(400));
        m.wait_until(c0, back);
        i += 1;
    }
    m.loop_end();
    assert!(m.iters_replayed() > 900, "the loop compiled");
    assert_eq!(m.congruence_checks(), 1);
}
