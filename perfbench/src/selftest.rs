//! `--selftest`: runs every workload once at tiny scale, traced and
//! untraced, and checks that the result line names exactly the metrics
//! `BENCHMARK.json` declares, that the clean runs pass their checks, and
//! that a run under `HVX_COST_PERTURB` fails them.

use std::process::Command;

use crate::{declared, WORKLOADS};

/// Runs this binary on one workload and returns the parsed last line.
fn run_once(workload: &str, trace: bool, perturb: bool) -> Result<serde::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if perturb {
        cmd.env("HVX_COST_PERTURB", "hw_trap=+100");
    } else {
        cmd.env_remove("HVX_COST_PERTURB");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::parse_value(last).map_err(|e| format!("{workload}: bad result line ({e}): {last}"))
}

pub fn run() -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let v = run_once(workload, trace, false)?;
            let section = if trace { "per_layer" } else { "end_to_end" };
            let mut want: Vec<String> = declared(section)?.into_iter().map(|(n, _)| n).collect();
            let mut got: Vec<String> = v
                .get("metrics")
                .and_then(|m| m.as_object())
                .ok_or(format!("{workload}: no metrics object"))?
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            want.sort();
            got.sort();
            if want != got {
                return Err(format!(
                    "{workload} ({section}): names {got:?} != declared {want:?}"
                ));
            }
            if v.get("correct") != Some(&serde::Value::Bool(true)) {
                return Err(format!("{workload} (trace {trace}): clean run not correct"));
            }
            eprintln!("selftest: {workload} trace={} ok", u8::from(trace));
        }
        let v = run_once(workload, false, true)?;
        if v.get("correct") != Some(&serde::Value::Bool(false)) {
            return Err(format!(
                "{workload}: HVX_COST_PERTURB run passed its checks"
            ));
        }
        eprintln!("selftest: {workload} perturbed run caught");
    }
    eprintln!("selftest: ok");
    Ok(())
}
