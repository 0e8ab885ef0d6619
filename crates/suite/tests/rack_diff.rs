//! Differential coverage for the sharded rack executor: parallel
//! window execution must be **byte-identical** to the serial reference
//! across compositions, host counts (including the degenerate
//! one-host ring), fault plans, and worker counts. Identity is
//! compared on the serialized JSON, so field order, every counter, and
//! the per-host clock vector all participate. The calling thread's
//! transition count (`hvx_engine::thread_transitions`) must advance by
//! the same amount in both modes: a sharded run credits its workers'
//! transitions to the thread that asked for it.

use hvx_engine::{FaultPlan, FaultPoint};
use hvx_suite::rack::{self, CellConfig, Composition};
use proptest::prelude::*;

/// One run of a cell: its serialized JSON and the transitions the
/// calling thread's counter advanced by.
type Run = (String, u64);

/// Runs `cfg` serially and with `jobs` workers and returns both runs.
fn run_both(mut cfg: CellConfig, jobs: usize) -> (Run, Run) {
    let run = |cfg: &CellConfig| {
        let before = hvx_engine::thread_transitions();
        let cell = rack::run_cell_with(cfg).expect("rack cell");
        let transitions = hvx_engine::thread_transitions().wrapping_sub(before);
        let json = serde_json::to_string(&cell).expect("serializes");
        (json, transitions)
    };
    cfg.jobs = 1;
    let serial = run(&cfg);
    cfg.jobs = jobs;
    (serial, run(&cfg))
}

#[test]
fn artifact_grid_is_identical_serial_and_parallel() {
    for hosts in rack::HOST_COUNTS {
        for composition in Composition::ALL {
            let (serial, parallel) = run_both(CellConfig::artifact(composition, hosts), 4);
            assert_eq!(
                serial,
                parallel,
                "rack[{hosts}h/{}] diverged under 4 workers",
                composition.name()
            );
        }
    }
}

#[test]
fn one_host_ring_is_identical_and_self_sends_work() {
    // hosts = 1 makes every wire hop a self-send at the lookahead
    // bound — the degenerate ring the windowing logic must not
    // special-case incorrectly.
    let cfg = CellConfig {
        composition: Composition::AllKvm,
        hosts: 1,
        vms_per_host: 3,
        rounds: 4,
        jobs: 1,
        fault: None,
    };
    let (serial, parallel) = run_both(cfg, 3);
    assert_eq!(serial, parallel);
    let cell: rack::CellResult = serde_json::from_str(&serial.0).expect("round-trips");
    // 3 tokens, each served rounds * hosts + 1 = 5 times.
    assert_eq!(cell.requests, 15);
    assert_eq!(cell.wire_hops, 12);
}

#[test]
fn oversubscribed_worker_counts_change_nothing() {
    // More workers than hosts: the extra threads idle, the bytes hold.
    let cfg = CellConfig::artifact(Composition::Mixed, 2);
    let (serial, parallel) = run_both(cfg, 8);
    assert_eq!(serial, parallel);
}

proptest! {
    /// The tentpole invariant, fuzzed: any (composition, hosts, vms,
    /// rounds, fault plan, worker count) cell produces the same bytes
    /// serially and sharded, and charges the calling thread the same
    /// transitions. Wire drops make this sharp — a fault consultation
    /// happening in a different order on a worker thread would flip
    /// which tokens die.
    #[test]
    fn rack_cells_identical_across_the_shard_boundary(
        comp_idx in 0usize..3,
        hosts in 1u32..9,
        vms_per_host in 1u32..5,
        rounds in 1u32..6,
        jobs in 2usize..7,
        seed in 0u64..1000,
        drop_pct in 0u32..31,
    ) {
        let fault = (drop_pct > 0).then(|| {
            FaultPlan::new(seed).with_rate(FaultPoint::WireDrop, f64::from(drop_pct) / 100.0)
        });
        let cfg = CellConfig {
            composition: Composition::ALL[comp_idx],
            hosts,
            vms_per_host,
            rounds,
            jobs: 1,
            fault,
        };
        let ((serial, serial_transitions), (parallel, parallel_transitions)) =
            run_both(cfg, jobs);
        prop_assert_eq!(serial, parallel);
        prop_assert!(serial_transitions > 0, "the cell charged no transitions");
        prop_assert_eq!(serial_transitions, parallel_transitions);
    }

    /// Serial reruns of the same cell are byte-stable — the baseline
    /// the parallel identity is anchored to must itself be a fixed
    /// point.
    #[test]
    fn serial_rack_cells_are_deterministic(
        comp_idx in 0usize..3,
        hosts in 1u32..7,
        seed in 0u64..1000,
    ) {
        let cfg = CellConfig {
            composition: Composition::ALL[comp_idx],
            hosts,
            vms_per_host: 2,
            rounds: 3,
            jobs: 1,
            fault: Some(FaultPlan::new(seed).with_rate(FaultPoint::WireDrop, 0.15)),
        };
        let a = rack::run_cell_with(&cfg).expect("runs");
        let b = rack::run_cell_with(&cfg).expect("runs");
        prop_assert_eq!(a, b);
    }
}
