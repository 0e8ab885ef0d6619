//! The parallel scenario runner's hard guarantee: fanning the artifact
//! matrix across worker threads produces byte-for-byte the same text and
//! JSON as a serial run.

use hvx::engine::thread_transitions;
use hvx::suite::runner::{self, ArtifactId};

/// Full Figure 4 matrix (36 cell scenarios) plus every table and
/// ablation: `--jobs 4` fans out to worker threads, and its output is
/// byte-identical to `--jobs 1`.
#[test]
fn parallel_artifacts_are_byte_identical_to_serial() {
    let artifacts = ArtifactId::ALL;
    let plan = runner::plan(&artifacts);
    // Fig4 alone contributes 36 independent cell scenarios.
    assert!(plan.len() >= 36 + artifacts.len() - 1);

    let serial = runner::assemble(&artifacts, &runner::run_scenarios(&plan, 1).unwrap()).unwrap();
    // Every scenario runs on a worker: the calling thread charges
    // nothing while the workers' results carry the simulation.
    let before = thread_transitions();
    let results = runner::run_scenarios(&plan, 4).unwrap();
    assert_eq!(thread_transitions() - before, 0, "a scenario ran inline");
    assert!(results.iter().map(|r| r.transitions).sum::<u64>() > 0);
    let parallel = runner::assemble(&artifacts, &results).unwrap();

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id);
        assert_eq!(
            s.text.as_bytes(),
            p.text.as_bytes(),
            "{} rendered text diverged between serial and parallel",
            s.id.cli_name()
        );
        assert_eq!(
            s.json.as_bytes(),
            p.json.as_bytes(),
            "{} JSON diverged between serial and parallel",
            s.id.cli_name()
        );
    }
}

/// Thread-count sweep on a cheaper subset: every jobs level agrees.
#[test]
fn any_job_count_agrees() {
    let artifacts = [
        ArtifactId::Table3,
        ArtifactId::Vhe,
        ArtifactId::Link,
        ArtifactId::Vapic,
        ArtifactId::Storage,
    ];
    let plan = runner::plan(&artifacts);
    let reference =
        runner::assemble(&artifacts, &runner::run_scenarios(&plan, 1).unwrap()).unwrap();
    for jobs in [2, 3, 8, 16] {
        let run =
            runner::assemble(&artifacts, &runner::run_scenarios(&plan, jobs).unwrap()).unwrap();
        for (a, b) in reference.iter().zip(&run) {
            assert_eq!(
                a.json,
                b.json,
                "jobs={jobs} diverged on {}",
                a.id.cli_name()
            );
        }
    }
}

/// The aggregate-trace fast path feeds the same numbers into Table II as
/// the full trace: the runner's Table2 scenario output is identical to a
/// fresh full-trace measurement.
#[test]
fn runner_table2_matches_full_trace_measurement() {
    let reports = runner::run_artifacts(&[ArtifactId::Table2], 1).unwrap();
    let fresh = hvx::suite::micro::Table2::measure(runner::TABLE2_ITERS).unwrap();
    let direct = serde_json::to_string_pretty(&fresh).unwrap();
    assert_eq!(reports[0].json, direct);
}
