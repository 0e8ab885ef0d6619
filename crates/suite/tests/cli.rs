//! End-to-end checks of the `hvx-repro` command-line surface.

use std::process::Command;

fn hvx_repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hvx-repro"))
}

/// `--help` and `-h` are successful invocations: usage on stdout, exit 0.
#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for flag in ["--help", "-h"] {
        let out = hvx_repro().arg(flag).output().expect("run hvx-repro");
        assert!(
            out.status.success(),
            "{flag} exited {:?}",
            out.status.code()
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: hvx-repro"), "stdout: {stdout}");
        assert!(stdout.contains("--jobs"));
        assert!(stdout.contains("table2"));
    }
}

/// Unknown artifacts are still a usage error: message on stderr, exit 2.
/// So are `bench`, `run --bench` and `serve bench`: benchmarking lives
/// in `perfbench/`, and these reach the ordinary parse errors. So is
/// `serve --retries`: no job is retried, because a failed run is the
/// job's result (the trailing `--help` keeps a reinstated flag from
/// starting a server). So is `run --wall-timeout`: the cycle budget is
/// what bounds a run.
#[test]
fn unknown_artifact_exits_two() {
    for (args, message) in [
        (
            &["run", "not-a-thing"][..],
            "unknown artifact 'not-a-thing'",
        ),
        (&["run", "--bench", "b.json"], "unknown artifact '--bench'"),
        (&["bench", "--out", "b.json"], "no-subcommand interface"),
        (&["serve", "bench"], "unexpected argument 'bench'"),
        (
            &["serve", "--retries", "2", "--help"],
            "unexpected argument '--retries'",
        ),
        (
            &["run", "--wall-timeout", "1", "table3"],
            "unknown artifact '--wall-timeout'",
        ),
    ] {
        let out = hvx_repro().args(args).output().expect("run hvx-repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// Bad `--jobs` values are rejected up front.
#[test]
fn invalid_jobs_exits_two() {
    for bad in ["0", "-1", "many"] {
        let out = hvx_repro()
            .args(["run", "--jobs", bad, "table3"])
            .output()
            .expect("run hvx-repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--jobs {bad} should be rejected"
        );
    }
}

/// A parallel run of a cheap artifact prints the same stdout as serial,
/// and `--timing` lines go to stderr only. Each artifact's line reads a
/// positive figure in microseconds: whole seconds rounded the cheap
/// artifacts to zero.
#[test]
fn jobs_and_timing_leave_stdout_byte_identical() {
    let serial = hvx_repro()
        .args(["run", "--jobs", "1", "table3", "vhe"])
        .output()
        .expect("run hvx-repro");
    let parallel = hvx_repro()
        .args(["run", "--jobs", "4", "--timing", "table3", "vhe"])
        .output()
        .expect("run hvx-repro");
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must not depend on --jobs/--timing"
    );
    let stderr = String::from_utf8(parallel.stderr).unwrap();
    for artifact in ["table3", "vhe", "total"] {
        let line = stderr
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(artifact))
            .unwrap_or_else(|| panic!("no [timing] line for {artifact}: {stderr}"));
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[0], "[timing]", "{line}");
        assert_eq!(fields[3], "us", "{line}");
        let micros: f64 = fields[2].parse().expect(line);
        assert!(micros > 0.0, "{line}");
    }
}

/// The pre-subcommand interface is retired: a first token that is not a
/// subcommand exits 2 and points at the equivalent `run` invocation.
#[test]
fn legacy_invocation_exits_two_with_run_pointer() {
    for first in ["table3", "--jobs"] {
        let out = hvx_repro()
            .args([first, "1"])
            .output()
            .expect("run hvx-repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "legacy '{first}' should be rejected"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!(
                "the no-subcommand interface has been retired; \
                 use 'hvx-repro run {first} ...' instead (try --help)"
            )),
            "stderr: {stderr}"
        );
    }
}

/// A bare invocation (no arguments at all) is still `run all`.
#[test]
fn bare_invocation_still_runs() {
    let out = hvx_repro().output().expect("run hvx-repro");
    assert!(out.status.success(), "exited {:?}", out.status.code());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ARM Virtualization"), "stdout: {stdout}");
}

/// `run --spec FILE` runs the scenario the file describes, and the
/// output is stable across invocations (byte-identity with the builder
/// path is pinned by the `spec_run` unit tests).
#[test]
fn run_spec_runs_a_consolidation_scenario() {
    let dir = std::env::temp_dir().join(format!("hvx-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("consolidation.json");
    let spec = hvx_core::ScenarioSpec::consolidation(
        hvx_core::HvKind::KvmArm,
        4,
        hvx_core::SchedPolicy::Credit,
    );
    std::fs::write(&path, hvx_suite::spec_run::to_json(&spec)).unwrap();
    let a = hvx_repro()
        .args(["run", "--spec", path.to_str().unwrap()])
        .output()
        .expect("run hvx-repro");
    let b = hvx_repro()
        .args(["run", "--spec", path.to_str().unwrap()])
        .output()
        .expect("run hvx-repro");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        a.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert_eq!(a.stdout, b.stdout, "spec runs must be deterministic");
    let stdout = String::from_utf8(a.stdout).unwrap();
    assert!(
        stdout.contains("== scenario spec run =="),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("scheduler:    credit"), "stdout: {stdout}");
}

/// `run --spec` answers a spec that trips its watchdog the way the
/// sweep server does: every shape exits 3 (a scenario failure) with
/// the kind and detail `SuiteExecutor::run` gives for the same body,
/// in text and in `--out json` mode.
#[test]
fn run_spec_reports_a_watchdog_trip_as_the_server_does() {
    use hvx_serve::JobExecutor;
    let dir = std::env::temp_dir().join(format!("hvx-spec-trip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let exec = hvx_suite::service::SuiteExecutor::new(None);
    for name in ["consolidation-8to1", "rack-8x4", "paper-kvm"] {
        let shipped = format!("{}/../../specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let mut spec = hvx_suite::spec_run::load(std::path::Path::new(&shipped)).unwrap();
        spec.watchdog.cycle_budget = Some(1000);
        let body = hvx_suite::spec_run::to_json(&spec);
        let failure = exec.run(&exec.prepare(&body).unwrap()).unwrap_err();
        assert_eq!(failure.kind.to_string(), "timed out", "{name}: {failure:?}");

        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, &body).unwrap();
        for extra in [&[][..], &["--out", "json"][..]] {
            let out = hvx_repro()
                .args(["run", "--spec", path.to_str().unwrap()])
                .args(extra)
                .output()
                .expect("run hvx-repro");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(3), "{name} {extra:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {extra:?}: no report");
            assert!(
                stderr.contains(&format!("timed out: {}", failure.detail)),
                "{name} {extra:?}: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A watchdog trip the runner catches prints only its typed line; any
/// other panic inside a scenario still gets the full panic report.
#[test]
fn a_caught_watchdog_trip_prints_only_its_typed_line() {
    let out = hvx_repro()
        .args(["run", "--cycle-budget", "1000", "table2"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("run hvx-repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("scenario 'table2' timed out: simulated-cycle budget exceeded"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(!stderr.contains("stack backtrace"), "{stderr}");

    let out = hvx_repro()
        .args(["run", "table2", "--chaos", "panic", "--keep-going"])
        .output()
        .expect("run hvx-repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("panicked at"), "{stderr}");
}

/// `--spec` refuses to combine with other run knobs and a missing file
/// is a runtime error, not a crash.
#[test]
fn run_spec_rejects_conflicts_and_missing_files() {
    let out = hvx_repro()
        .args(["run", "--spec", "x.json", "table2"])
        .output()
        .expect("run hvx-repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--spec runs exactly"), "stderr: {stderr}");

    let missing = hvx_repro()
        .args(["run", "--spec", "/nonexistent/spec.json"])
        .output()
        .expect("run hvx-repro");
    assert_eq!(missing.status.code(), Some(1));
}

/// `list-scenarios` names every artifact and the default profile set.
#[test]
fn list_scenarios_exits_zero_and_is_complete() {
    let out = hvx_repro().arg("list-scenarios").output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "table2",
        "fig4",
        "oversub",
        "netperf-kvm-arm",
        "netperf-xen-x86",
    ] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
}

/// `profile` prints a conservation-checked breakdown for all four
/// measured hypervisors, byte-identical across `--jobs 1` and
/// `--jobs 8` (the ISSUE's acceptance criterion).
#[test]
fn profile_is_conserved_and_jobs_invariant() {
    let serial = hvx_repro()
        .args(["profile", "--jobs", "1"])
        .output()
        .expect("run hvx-repro");
    let parallel = hvx_repro()
        .args(["profile", "--jobs", "8"])
        .output()
        .expect("run hvx-repro");
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "profile stdout must not depend on --jobs"
    );
    let stdout = String::from_utf8(serial.stdout).unwrap();
    for scenario in [
        "netperf-kvm-arm",
        "netperf-xen-arm",
        "netperf-kvm-x86",
        "netperf-xen-x86",
    ] {
        assert!(
            stdout.contains(&format!("== Profile: {scenario}")),
            "missing {scenario} in: {stdout}"
        );
    }
    assert!(stdout.contains("conservation exact"));
}

/// Unknown profile scenarios are a usage error like unknown artifacts.
#[test]
fn unknown_profile_scenario_exits_two() {
    let out = hvx_repro()
        .args(["profile", "--scenario", "not-a-thing"])
        .output()
        .expect("run hvx-repro");
    assert_eq!(out.status.code(), Some(2));
}

/// A cost perturbation touching ARM and x86 fields reaches every
/// artifact: each one's `run` output moves. The variable is set on the
/// child process only, so sibling tests never see it.
#[test]
fn cost_perturbation_reaches_every_artifact() {
    let run = |artifact: &str, perturb: Option<&str>| {
        let mut cmd = hvx_repro();
        cmd.args(["run", "--jobs", "2", artifact]);
        match perturb {
            Some(spec) => cmd.env("HVX_COST_PERTURB", spec),
            None => cmd.env_remove("HVX_COST_PERTURB"),
        };
        let out = cmd.output().expect("run hvx-repro");
        assert!(
            out.status.success(),
            "{artifact}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let perturb = "hw_trap=+50,vmexit=+50,xen_grant_copy=+2000";
    let artifacts = hvx_suite::runner::ArtifactId::ALL;
    assert_eq!(artifacts.len(), 13);
    for artifact in artifacts.map(|a| a.cli_name()) {
        assert_ne!(
            run(artifact, None),
            run(artifact, Some(perturb)),
            "{artifact} ignores {perturb}"
        );
    }
}
