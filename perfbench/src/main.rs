//! hvx benchmark: two workloads, untraced end-to-end metrics and a
//! traced per-layer ledger.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scaled-grid --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! Run from the repository root: the benchmark reads `BENCHMARK.json`
//! (metric names and units), `baselines/` (reference artifact text) and
//! `perfbench/golden.txt` (reference simulated results), and keeps its
//! temporary caches and journals under `perfbench/.work/`.
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports every `end_to_end` metric of `BENCHMARK.json`;
//! `--trace 1` reports every `per_layer` metric: the workload's own
//! layers, its unattributed share and tracing overhead, plus the layers
//! of a short traced probe of the other workload.
//!
//! Every layer is timed from outside, by wrapping the benchmark's own
//! calls into the program's public functions; nothing inside the crates
//! is instrumented.

mod grid;
mod ledger;
mod selftest;
mod serve;
mod suite;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use ledger::Outcome;

/// Parsed command line of one measured run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test scale: tiny inputs so every workload finishes in a
    /// couple of seconds even with the interpreter forced on.
    pub tiny: bool,
}

impl RunArgs {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["scaled-grid", "serve-mix"];

/// Scratch space for caches and journals, inside the checkout.
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new("perfbench")
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create perfbench/.work scratch directory");
    dir
}

/// Available hardware threads: the worker, shard and client count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `(name, unit)` of every metric a section of `BENCHMARK.json` declares.
pub fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get(section)
        .and_then(|s| s.as_array())
        .ok_or_else(|| format!("BENCHMARK.json: no '{section}' list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str());
            let unit = m.get("unit").and_then(|u| u.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed '{section}' entry")),
            }
        })
        .collect()
}

/// Window of the other workload's probe in a traced run, seconds.
const PROBE_SECONDS: f64 = 4.0;

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (mut out, other) = match args.workload.as_str() {
        "scaled-grid" => (grid::run(args)?, "serve-mix"),
        "serve-mix" => (serve::run(args)?, "scaled-grid"),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if args.trace {
        // A traced run reports the whole ledger: a short traced run of
        // the other workload measures the layers this one never enters.
        let probe = RunArgs {
            workload: other.to_string(),
            seconds: PROBE_SECONDS,
            ..args.clone()
        };
        let probed = match other {
            "scaled-grid" => grid::run(&probe)?,
            _ => serve::run(&probe)?,
        };
        out.absorb(probed);
    }
    Ok(out)
}

/// Renders the result line: exactly the declared metrics of the
/// section, with their declared units.
fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = declared(section)?;
    for key in outcome.metrics.keys() {
        if !names.iter().any(|(n, _)| n == key) {
            return Err(format!(
                "measured metric '{key}' is not declared in '{section}'"
            ));
        }
    }
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed = outcome.failed;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        metrics.join(", ")
    ))
}

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--selftest") => selftest::run().map(|()| None),
        Some("--write-golden") => ledger::Golden::write().map(|()| None),
        _ => parse_args(&argv)
            .and_then(|args| run(&args).and_then(|o| render(&o, args.trace)))
            .map(Some),
    };
    // Scratch caches and journals never outlive the run.
    let _ = std::fs::remove_dir_all(Path::new("perfbench").join(".work"));
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metric map helper shared by the workloads.
pub type Metrics = BTreeMap<String, f64>;
