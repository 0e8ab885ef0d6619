//! Integration tests for the seeded fault-injection plan.
//!
//! Three properties anchor the robustness layer:
//!
//! 1. A fixed `(plan, seed)` replays bit-identically — faults are
//!    drawn from per-machine consult counters, never host state.
//! 2. `--jobs 1` and `--jobs 8` produce byte-identical artifacts under
//!    a fault plan, because those counters are per-machine and the
//!    runner's schedule never feeds back into the simulation.
//! 3. An *empty* plan (armed but with every rate at zero) leaves the
//!    pinned artifacts byte-identical to an unarmed run: the fault
//!    layer costs nothing until a rate is set.

use hvx_core::{HvKind, SimBuilder, Workload};
use hvx_engine::{FaultPlan, FaultPoint, Frequency, Watchdog};
use hvx_suite::netperf;
use hvx_suite::runner::{self, ArtifactId, RunnerConfig};
use proptest::prelude::*;

fn lossy_plan(seed: u64, permille: u64) -> FaultPlan {
    let loss = permille as f64 / 1000.0;
    FaultPlan::new(seed)
        .with_rate(FaultPoint::WireDrop, loss)
        .with_rate(FaultPoint::WireCorrupt, loss / 2.0)
        .with_rate(FaultPoint::GrantCopyFail, loss / 2.0)
        .with_rate(FaultPoint::VirqDrop, loss / 4.0)
}

/// Runs one lossy TCP_RR column on Xen ARM (the hypervisor that
/// exercises the most fault points: grant copies, event channels, and
/// the wire) and fingerprints everything nondeterminism could touch.
fn rr_fingerprint(plan: &FaultPlan) -> (u64, u64, u64, u64, u64) {
    let mut sim = SimBuilder::new(HvKind::XenArm)
        .workload(Workload::Netperf)
        .profiling(true)
        .fault_plan(plan.clone())
        .build()
        .expect("paper configuration is valid");
    let (col, stats) = netperf::run_rr_lossy(sim.as_dyn_mut(), 30, Frequency::ARM_M400);
    (
        col.time_per_trans.to_bits(),
        stats.retransmits,
        stats.recovery_busy_cycles,
        stats.rto_idle_cycles,
        sim.machine().total_faults_injected(),
    )
}

proptest! {
    #[test]
    fn a_fixed_plan_and_seed_replay_bit_identically(
        seed in 0u64..1_000_000,
        permille in 0u64..300,
    ) {
        let plan = lossy_plan(seed, permille);
        prop_assert_eq!(rr_fingerprint(&plan), rr_fingerprint(&plan));
    }

    #[test]
    fn job_count_never_changes_faulted_artifacts(seed in 0u64..1_000_000) {
        let cfg = RunnerConfig {
            fault_plan: Some(lossy_plan(seed, 50)),
            watchdog: Watchdog::UNLIMITED,
            ..RunnerConfig::default()
        };
        let artifacts = [ArtifactId::Table2, ArtifactId::Fig4, ArtifactId::FaultRec];
        let serial = runner::run_artifacts_with(&artifacts, 1, &cfg).unwrap();
        let parallel = runner::run_artifacts_with(&artifacts, 8, &cfg).unwrap();
        for (s, p) in serial.reports.iter().zip(&parallel.reports) {
            prop_assert_eq!(&s.text, &p.text, "{} text diverged", s.id.cli_name());
            prop_assert_eq!(&s.json, &p.json, "{} JSON diverged", s.id.cli_name());
        }
    }
}

#[test]
fn an_empty_plan_leaves_pinned_artifacts_byte_identical() {
    let artifacts = [ArtifactId::Table2, ArtifactId::Table3];
    let plain = runner::run_artifacts(&artifacts, 1).unwrap();
    let cfg = RunnerConfig {
        fault_plan: Some(FaultPlan::new(123)),
        ..RunnerConfig::default()
    };
    let armed = runner::run_artifacts_with(&artifacts, 1, &cfg).unwrap();
    assert!(armed.chaos_failures.is_empty());
    for (a, b) in plain.iter().zip(&armed.reports) {
        assert_eq!(
            a.text,
            b.text,
            "{} text diverged under an empty plan",
            a.id.cli_name()
        );
        assert_eq!(
            a.json,
            b.json,
            "{} JSON diverged under an empty plan",
            a.id.cli_name()
        );
    }
}

#[test]
fn a_heavy_plan_still_conserves_cycles_in_profiles() {
    let plan = lossy_plan(7, 150);
    let mut specs = hvx_suite::profile::default_set();
    for spec in &mut specs {
        spec.set_fault_plan(&plan);
    }
    // run_profiles asserts conservation internally per spec; reaching
    // Ok proves every faulted profile still attributes every busy
    // cycle.
    let reports = hvx_suite::profile::run_profiles(&specs, 4).unwrap();
    assert!(reports
        .iter()
        .all(|r| { r.snapshot.accounted_cycles() == r.snapshot.total_cycles }));
}
