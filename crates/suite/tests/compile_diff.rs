//! Differential coverage for the steady-state loop compiler: compiled
//! replay must be **byte-identical** to plain interpretation across the
//! full workload catalog, and every ineligible configuration must fall
//! back to the interpreter with identical results.

use hvx_core::{Error, HvKind, Hypervisor, SchedPolicy, SimBuilder, VirqPolicy};
use hvx_engine::{Cycles, FaultPlan, FaultPoint};
use hvx_suite::consolidation;
use hvx_suite::workloads::{self, catalog, DiskDevice, Mix};
use proptest::prelude::*;

/// Every configuration the compiler must match bit-for-bit: the four
/// measured hypervisors, the VHE projection, and the native baseline.
const KINDS: [HvKind; 6] = [
    HvKind::KvmArm,
    HvKind::XenArm,
    HvKind::KvmX86,
    HvKind::XenX86,
    HvKind::KvmArmVhe,
    HvKind::Native,
];

fn build(kind: HvKind) -> Box<dyn Hypervisor> {
    SimBuilder::new(kind)
        .build()
        .expect("paper-default build")
        .into_inner()
}

/// Runs `mix` twice on fresh machines — compiled and interpreted — and
/// returns `(compiled makespan, interpreted makespan, iters replayed)`.
/// Both runs must count the same transitions, and the interpreted one
/// must count none as replayed.
fn run_both(kind: HvKind, mix: Mix, policy: VirqPolicy) -> Result<(Cycles, Cycles, u64), Error> {
    let counted = || {
        (
            hvx_engine::thread_transitions(),
            hvx_engine::thread_replayed_transitions(),
        )
    };
    let mut compiled = build(kind);
    let before = counted();
    let c = workloads::run_with(compiled.as_mut(), mix, policy, true)?;
    let compiled_transitions = counted().0.wrapping_sub(before.0);
    let replayed = compiled.machine().iters_replayed();
    let mut interpreted = build(kind);
    let before = counted();
    let i = workloads::run_with(interpreted.as_mut(), mix, policy, false)?;
    let after = counted();
    assert_eq!(interpreted.machine().iters_replayed(), 0);
    assert_eq!(
        after.0.wrapping_sub(before.0),
        compiled_transitions,
        "compiled and interpreted runs counted different transitions"
    );
    assert_eq!(
        after.1, before.1,
        "an interpreted run counted replayed transitions"
    );
    Ok((c, i, replayed))
}

#[test]
fn catalog_compiled_equals_interpreted_on_every_configuration() {
    let mut cells = 0u32;
    let mut replayed_cells = 0u32;
    for w in catalog() {
        for kind in KINDS {
            let Ok((c, i, replayed)) = run_both(kind, w.mix, VirqPolicy::Vcpu0) else {
                // n/a cells (the hardened runner marks these) must be
                // n/a identically on both paths.
                let mut hv = build(kind);
                assert!(workloads::run_with(hv.as_mut(), w.mix, VirqPolicy::Vcpu0, false).is_err());
                continue;
            };
            assert_eq!(c, i, "{} on {kind:?}: compiled != interpreted", w.name);
            cells += 1;
            if replayed > 0 {
                replayed_cells += 1;
            }
        }
    }
    assert!(cells >= 45, "catalog shrank to {cells} runnable cells");
    // The whole point: the compiler must actually engage on the bulk of
    // the steady-state catalog, not silently interpret everything.
    assert!(
        replayed_cells * 10 >= cells * 8,
        "compiler engaged on only {replayed_cells}/{cells} cells"
    );
}

#[test]
fn scaled_mixes_and_round_robin_stay_identical() {
    for w in catalog() {
        let mix = w.mix.scaled(3);
        let (c, i, replayed) =
            run_both(HvKind::KvmArm, mix, VirqPolicy::RoundRobin).expect("runnable");
        assert_eq!(c, i, "{} scaled(3)/RoundRobin", w.name);
        assert!(replayed > 0, "{} scaled(3) never replayed", w.name);
    }
}

#[test]
fn disk_io_compiled_equals_interpreted() {
    for device in [DiskDevice::Ssd, DiskDevice::Raid5] {
        for kind in [HvKind::KvmArm, HvKind::XenArm, HvKind::Native] {
            let mix = Mix::DiskIo {
                requests: 64,
                sectors: 64,
                device,
            };
            let (c, i, _) = run_both(kind, mix, VirqPolicy::Vcpu0).expect("runnable");
            assert_eq!(c, i, "DiskIo {device:?} on {kind:?}");
        }
    }
}

#[test]
fn fault_plans_force_interpretation_with_identical_results() {
    let mix = catalog()[0].mix;
    let mut results = Vec::new();
    for _ in 0..2 {
        let mut hv = build(HvKind::KvmArm);
        hv.machine_mut()
            .set_fault_plan(FaultPlan::new(7).with_occurrence(FaultPoint::VirqDrop, 3));
        let span = workloads::run_with(hv.as_mut(), mix, VirqPolicy::Vcpu0, true).expect("runs");
        // An armed fault plan makes the machine ineligible: loop_begin
        // declines and nothing replays.
        assert_eq!(hv.machine().iters_replayed(), 0);
        results.push(span);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn profiled_machines_interpret_under_plain_run() {
    // workloads::run uses loop_begin(), which refuses profiled
    // machines; results must match an unprofiled interpreted run in
    // makespan (profiling must never shift time).
    let mix = catalog()[2].mix;
    let mut profiled = build(HvKind::XenArm);
    profiled.machine_mut().enable_profiling();
    let p = workloads::run_with(profiled.as_mut(), mix, VirqPolicy::Vcpu0, true).expect("runs");
    assert_eq!(profiled.machine().iters_replayed(), 0);
    let mut plain = build(HvKind::XenArm);
    let q = workloads::run_with(plain.as_mut(), mix, VirqPolicy::Vcpu0, false).expect("runs");
    assert_eq!(p, q);
}

/// Runs one consolidation cell compiled and interpreted and returns
/// both results plus the iterations the compiled run replayed.
fn run_cell_both(
    kind: HvKind,
    ratio: u32,
    policy: SchedPolicy,
    txns: u32,
) -> (consolidation::CellResult, consolidation::CellResult, u64) {
    let run = |compile| {
        let (r, m) = consolidation::run_cell_machine(consolidation::CellConfig {
            kind,
            ratio,
            policy,
            txns_per_vm: txns,
            compile,
            profiling: false,
            fault: None,
        })
        .expect("consolidation cell");
        (r, m.iters_replayed())
    };
    let (c, replayed) = run(true);
    let (i, interpreted_replays) = run(false);
    assert_eq!(interpreted_replays, 0, "interpreter must never replay");
    (c, i, replayed)
}

proptest! {
    /// Scheduler determinism across the compile boundary: every
    /// (hypervisor, scheduler, ratio, transaction-count) consolidation
    /// cell must be identical compiled and interpreted. At 1:1 the
    /// compiler may engage (and must not change a single counter); at
    /// any contended ratio it must decline and both runs interpret.
    #[test]
    fn consolidation_cells_identical_across_compile_boundary(
        kind_idx in 0usize..4,
        sched_idx in 0usize..2,
        ratio_idx in 0usize..consolidation::RATIOS.len(),
        txns in 8u32..96,
    ) {
        let kind = hvx_suite::paper::COLUMNS[kind_idx];
        let policy = SchedPolicy::ALL[sched_idx];
        let ratio = consolidation::RATIOS[ratio_idx];
        let (c, i, replayed) = run_cell_both(kind, ratio, policy, txns);
        if ratio > 1 {
            prop_assert_eq!(replayed, 0, "contended cells must interpret");
        }
        prop_assert_eq!(c, i);
    }

    /// Long uncontended cells must actually exercise the compiled
    /// path, not silently fall back.
    #[test]
    fn long_uncontended_cells_replay(txns in 64u32..128) {
        let (c, i, replayed) = run_cell_both(HvKind::KvmArm, 1, SchedPolicy::Credit, txns);
        prop_assert!(replayed > 0, "compiler never engaged at {} txns", txns);
        prop_assert_eq!(c, i);
    }

    /// Random loop lengths around the compiler's confirm/give-up
    /// boundaries: identity must hold whether the loop compiles, is
    /// still recording at exit, or gave up.
    #[test]
    fn rr_transactions_identity(transactions in 1u32..96) {
        let mix = Mix::NetRr { transactions };
        let (c, i, _) = run_both(HvKind::KvmArm, mix, VirqPolicy::Vcpu0).expect("runnable");
        prop_assert_eq!(c, i);
    }

    #[test]
    fn request_server_identity(requests in 1u32..80, events_x2 in 1u32..6) {
        let mix = Mix::RequestServer {
            app_work: 30_000,
            request_bytes: 512,
            response_chunks: 2,
            events_x2,
            stack_scale_pct: 60,
            type1_extra_events_x2: 1,
            requests,
        };
        let (c, i, _) = run_both(HvKind::XenArm, mix, VirqPolicy::RoundRobin).expect("runnable");
        prop_assert_eq!(c, i);
    }

    #[test]
    fn stream_rx_identity(bursts in 1u32..48, chunks in 1u32..8) {
        let mix = Mix::StreamRx {
            chunks,
            chunk_len: 1500,
            bursts,
            link_mbit: 10_000,
        };
        let (c, i, _) = run_both(HvKind::KvmX86, mix, VirqPolicy::Vcpu0).expect("runnable");
        prop_assert_eq!(c, i);
    }
}
