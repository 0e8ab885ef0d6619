//! `hvx-repro` — one-command reproduction of every artifact in the
//! paper, with optional JSON export, a parallel scenario runner, and an
//! instrumentation-driven profiler. `hvx-repro --help` prints every
//! subcommand's synopsis and options; this text describes what they do.
//!
//! `--fault-plan` installs a seeded deterministic fault plan (wire
//! drops, vIRQ loss, grant-copy failures, ...) that every scenario
//! consults; recovery costs are charged through the normal transition
//! accounting so profiles stay conservative. Scenario failures are
//! isolated: a panicking, timed-out, or livelocked scenario degrades to
//! a marked gap in its artifact and the process exits 3 (0 with
//! `--keep-going`, which demotes failures to stderr warnings).
//!
//! Invoking the binary with no arguments at all behaves like `run`
//! with every artifact. The historical pre-subcommand spelling
//! (`hvx-repro table2 --jobs 2` and friends) is retired: any first
//! token that is not a subcommand exits 2 with a pointer to the
//! equivalent `run` invocation. `run --spec FILE` runs the single
//! scenario a JSON [`ScenarioSpec`] file
//! describes instead of an artifact matrix. `--jobs N` fans
//! independent scenarios across N OS threads; output is byte-identical
//! to `--jobs 1`.
//! `--timing` reports each artifact's summed scenario time on stderr,
//! in microseconds. Throughput and per-layer timing are measured by the
//! benchmark package in `perfbench/` (`BENCHMARK.json` declares its
//! workloads and metrics), not by this binary.
//!
//! `profile` runs paper-shape scenarios, named `<workload>-<hypervisor>`,
//! with the observability layer enabled and prints a Table-3-style
//! cycle-attribution breakdown per scenario; the per-transition
//! exclusive cycles sum exactly to the run's total busy cycles
//! (conservation), and output is byte-identical across `--jobs`. Its
//! `--fault-plan` rides in each scenario's spec.
//!
//! `trace` runs one paper-shape scenario with the causal event tracer on
//! and writes Chrome trace-event JSON (open it in
//! <https://ui.perfetto.dev> or `chrome://tracing`); `trace query`
//! filters an exported trace, ranks
//! critical chains, and (with `--validate`) gates on its structural
//! invariants; `trace bench` measures tracing overhead over the Fig. 4
//! sweep.
//!
//! `baseline write` snapshots every artifact (bytes + input
//! fingerprints + Figure 4 span profiles) under `baselines/`;
//! `check` re-runs and classifies divergences: an expected schema bump
//! (fingerprints moved) exits 0, silent drift (same fingerprints,
//! different bytes) exits 4 with a per-cell span-delta report.
//! `--cache DIR` on `run`/`baseline write`/`check` consults a
//! content-addressed result cache so warm reruns skip unchanged cells.
//!
//! `serve` starts the crash-safe sweep server (`hvx-serve`): clients
//! POST spec bodies and poll results over HTTP/JSON while the server
//! sheds overload, runs a failing fingerprint once and answers its
//! re-submissions from that failure, and journals
//! every acceptance for exactly-once crash recovery. The `serve
//! submit/sweep/poll/stats/drain` subcommands are a built-in client
//! (responses print as JSON envelopes carrying the HTTP `status`).
//! `run --out json` switches stdout to the structured
//! [`RunReport`](hvx_core::report::RunReport) (one record per scenario:
//! typed failure kind, retry count, content fingerprint) instead of
//! rendered artifact text.

use hvx_core::{Error, HvKind, ScenarioSpec, Workload};
use hvx_engine::{FaultPlan, Watchdog};
use hvx_serve::{client as serve_client, Server, ServerConfig};
use hvx_suite::cache::ResultCache;
use hvx_suite::diff;
use hvx_suite::profile;
use hvx_suite::runner::{self, ArtifactId, ChaosKind, RunnerConfig};
use hvx_suite::service::SuiteExecutor;
use hvx_suite::spec_run;
use hvx_suite::trace;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct RunArgs {
    json_dir: Option<PathBuf>,
    jobs: usize,
    timing: bool,
    artifacts: Vec<ArtifactId>,
    cfg: RunnerConfig,
    keep_going: bool,
    cache_dir: Option<PathBuf>,
    out_json: bool,
}

struct ServeArgs {
    cfg: ServerConfig,
    cache_dir: Option<PathBuf>,
}

struct BaselineArgs {
    dir: PathBuf,
    artifacts: Vec<ArtifactId>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
}

struct ProfileArgs {
    specs: Vec<ScenarioSpec>,
    jobs: usize,
    json_dir: Option<PathBuf>,
}

struct TraceRunArgs {
    spec: ScenarioSpec,
    ring: Option<usize>,
    out: Option<PathBuf>,
}

struct TraceQueryArgs {
    file: PathBuf,
    query: trace::Query,
    validate: bool,
}

fn usage() -> String {
    let names: Vec<&str> = ArtifactId::ALL.iter().map(|a| a.cli_name()).collect();
    format!(
        "usage: hvx-repro run [--json DIR] [--jobs N] [--timing]\n\
         \x20               [--cache DIR] [--spec FILE] [ARTIFACT...]\n\
         \x20               (no arguments at all: same as 'run all')\n\
         \x20      hvx-repro profile [--scenario NAME]... [--jobs N] [--json DIR]\n\
         \x20      hvx-repro trace SCENARIO [--hypervisor HV] [--out FILE] [--ring N]\n\
         \x20      hvx-repro trace query FILE [--transition NAME] [--track pcpuN]\n\
         \x20                [--from CYC] [--to CYC] [--top K] [--validate]\n\
         \x20      hvx-repro trace bench [--out FILE] [--ring N]\n\
         \x20      hvx-repro baseline write [--dir DIR] [--jobs N] [--cache DIR] [ARTIFACT...]\n\
         \x20      hvx-repro check [--baseline DIR] [--jobs N] [--cache DIR] [ARTIFACT...]\n\
         \x20      hvx-repro serve [--addr HOST:PORT] [--workers N] [--cache DIR]\n\
         \x20                [--journal FILE | --no-journal] [--max-queue-weight N]\n\
         \x20                [--client-cap N] [--max-results N]\n\
         \x20      hvx-repro serve submit --addr A (--spec FILE | --chaos KIND)\n\
         \x20                [--client NAME] [--wait SECS]\n\
         \x20      hvx-repro serve sweep --addr A --template FILE [--client NAME]\n\
         \x20      hvx-repro serve poll --addr A JOBID\n\
         \x20      hvx-repro serve stats --addr A | serve drain --addr A\n\
         \x20      hvx-repro serve metrics --addr A\n\
         \x20      hvx-repro serve trace --addr A FINGERPRINT [--top K]\n\
         \x20      hvx-repro list-scenarios\n\
         run/profile fault options:\n\
         \x20 --fault-plan SPEC    inject faults, e.g. 'wire_drop=0.02,grant_copy_fail=0.01'\n\
         \x20 --fault-seed N       seed for the fault plan's deterministic RNG (default 42)\n\
         run spec option:\n\
         \x20 --spec FILE          run the one scenario a JSON ScenarioSpec file\n\
         \x20                      describes (paper, consolidation or rack shape) and print\n\
         \x20                      its report; combines with no other run options\n\
         run output option:\n\
         \x20 --out json|text      'json' prints the structured RunReport (one record per\n\
         \x20                      scenario: label, fingerprint, retries, cached, failure)\n\
         \x20                      instead of rendered artifact text (default 'text')\n\
         run robustness options:\n\
         \x20 --keep-going         report failed scenarios on stderr but exit 0\n\
         \x20 --cycle-budget N     abort any scenario past N simulated cycles (timed out)\n\
         \x20 --livelock-limit N   abort after N consecutive zero-progress charges\n\
         \x20 --chaos KIND         append a chaos scenario: panic, spin, or livelock\n\
         observability:\n\
         \x20 --log-level LEVEL    structured JSON logs on stderr: off, error, info,\n\
         \x20                      debug (default off; HVX_LOG=LEVEL sets the same knob;\n\
         \x20                      accepted before or after any subcommand)\n\
         \x20 GET /metrics         a running 'serve' exports Prometheus text; /trace/FP\n\
         \x20                      serves ranked critical chains from the warm cache\n\
         performance: cargo run --release --manifest-path perfbench/Cargo.toml --\n\
         \x20            --workload scaled-grid|serve-mix --seed N --seconds S --trace 0|1\n\
         \x20            (workloads and metrics are declared in BENCHMARK.json)\n\
         caching / baselines:\n\
         \x20 --cache DIR          content-addressed result cache; warm reruns skip\n\
         \x20                      unchanged scenarios (bypassed when HVX_COST_PERTURB is set)\n\
         \x20 baseline write       snapshot artifacts + fingerprints under --dir (default\n\
         \x20                      '{base}')\n\
         \x20 check                re-run and diff against the baseline; schema bumps are\n\
         \x20                      expected, silent drift exits 4 with a span-delta report\n\
         exit codes: 0 ok, 1 runtime error (incl. invalid trace), 2 usage error,\n\
         \x20           3 scenario failure, 4 drift\n\
         artifacts: {} all\n\
         profile/trace scenarios: <workload>-<hypervisor>, e.g. netperf-kvm-arm \
         (see list-scenarios)",
        names.join(" "),
        base = diff::DEFAULT_DIR,
    )
}

enum SubmitSource {
    Spec(PathBuf),
    Chaos(String),
}

enum ServeCmd {
    Run(ServeArgs),
    Submit {
        addr: String,
        client: String,
        source: SubmitSource,
        wait_secs: Option<f64>,
    },
    Sweep {
        addr: String,
        client: String,
        template: PathBuf,
    },
    Poll {
        addr: String,
        job: u64,
    },
    Stats {
        addr: String,
    },
    Metrics {
        addr: String,
    },
    TraceQuery {
        addr: String,
        fingerprint: String,
        top: usize,
    },
    Drain {
        addr: String,
    },
}

enum Parsed {
    Run(Box<RunArgs>),
    SpecRun { path: PathBuf, out_json: bool },
    Serve(ServeCmd),
    Profile(ProfileArgs),
    TraceRun(TraceRunArgs),
    TraceQuery(TraceQueryArgs),
    TraceBench { out: PathBuf, ring: usize },
    BaselineWrite(BaselineArgs),
    Check(BaselineArgs),
    ListScenarios,
    Help,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_jobs(it: &mut impl Iterator<Item = String>) -> Result<usize, String> {
    let n = it.next().ok_or("--jobs requires a count")?;
    n.parse::<usize>()
        .ok()
        .filter(|n| *n >= 1)
        .ok_or_else(|| format!("--jobs needs a positive integer, got '{n}'"))
}

fn parse_u64(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<u64, String> {
    let n = it
        .next()
        .ok_or_else(|| format!("{flag} requires a count"))?;
    n.parse::<u64>()
        .map_err(|_| format!("{flag} needs a non-negative integer, got '{n}'"))
}

fn build_fault_plan(spec: Option<&str>, seed: u64) -> Result<Option<FaultPlan>, String> {
    spec.map(|s| FaultPlan::parse(s, seed).map_err(|e| format!("--fault-plan: {e}")))
        .transpose()
}

/// Parses the `run` subcommand's flags (also what a bare `hvx-repro`
/// invocation gets: run everything with the defaults).
fn parse_run(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut json_dir = None;
    let mut spec = None;
    let mut jobs = default_jobs();
    let mut timing = false;
    let mut requested = Vec::new();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 42u64;
    let mut keep_going = false;
    let mut cycle_budget = None;
    let mut livelock_limit = None;
    let mut chaos = Vec::new();
    let mut cache_dir = None;
    let mut out_json = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let mode = it.next().ok_or("--out requires 'json' or 'text'")?;
                out_json = match mode.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("--out needs 'json' or 'text', got '{other}'")),
                };
            }
            "--json" => {
                let dir = it.next().ok_or("--json requires a directory")?;
                json_dir = Some(PathBuf::from(dir));
            }
            "--cache" => {
                let dir = it.next().ok_or("--cache requires a directory")?;
                cache_dir = Some(PathBuf::from(dir));
            }
            "--spec" => {
                let file = it.next().ok_or("--spec requires a spec file")?;
                spec = Some(PathBuf::from(file));
            }
            "--jobs" => jobs = parse_jobs(it)?,
            "--timing" => timing = true,
            "--fault-plan" => {
                let spec = it.next().ok_or("--fault-plan requires a spec")?;
                fault_spec = Some(spec);
            }
            "--fault-seed" => fault_seed = parse_u64("--fault-seed", it)?,
            "--keep-going" => keep_going = true,
            "--cycle-budget" => cycle_budget = Some(parse_u64("--cycle-budget", it)?),
            "--livelock-limit" => livelock_limit = Some(parse_u64("--livelock-limit", it)?),
            "--chaos" => {
                let kind = it.next().ok_or("--chaos requires a kind")?;
                chaos.push(ChaosKind::parse(&kind).ok_or_else(|| {
                    format!("--chaos needs panic, spin, or livelock, got '{kind}'")
                })?);
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            "all" => requested.extend(ArtifactId::ALL),
            other => match ArtifactId::parse(other) {
                Some(a) => requested.push(a),
                None => return Err(format!("unknown artifact '{other}'; try --help")),
            },
        }
    }
    if let Some(path) = spec {
        // A spec file is the single source of truth for its scenario;
        // conflicting knobs are rejected, never silently dropped.
        let mut extra = Vec::new();
        if json_dir.is_some() {
            extra.push("--json");
        }
        if timing {
            extra.push("--timing");
        }
        if fault_spec.is_some() {
            extra.push("--fault-plan");
        }
        if keep_going {
            extra.push("--keep-going");
        }
        if cycle_budget.is_some() {
            extra.push("--cycle-budget");
        }
        if livelock_limit.is_some() {
            extra.push("--livelock-limit");
        }
        if !chaos.is_empty() {
            extra.push("--chaos");
        }
        if cache_dir.is_some() {
            extra.push("--cache");
        }
        if !requested.is_empty() {
            extra.push("artifact names");
        }
        if !extra.is_empty() {
            return Err(format!(
                "--spec runs exactly the scenario the file describes; drop {}",
                extra.join(", ")
            ));
        }
        return Ok(Parsed::SpecRun { path, out_json });
    }
    if requested.is_empty() {
        requested.extend(ArtifactId::ALL);
    }
    // Print order is fixed (the ALL order); requests only select.
    let artifacts: Vec<ArtifactId> = ArtifactId::ALL
        .into_iter()
        .filter(|a| requested.contains(a))
        .collect();
    let cfg = RunnerConfig {
        fault_plan: build_fault_plan(fault_spec.as_deref(), fault_seed)?,
        watchdog: Watchdog {
            cycle_budget,
            livelock_threshold: livelock_limit,
        },
        chaos,
        cache: None,
    };
    Ok(Parsed::Run(Box::new(RunArgs {
        json_dir,
        jobs,
        timing,
        artifacts,
        cfg,
        keep_going,
        cache_dir,
        out_json,
    })))
}

/// Parses the `serve` subcommand family: bare `serve` starts the
/// server; `serve submit|sweep|poll|stats|metrics|trace|drain` are
/// clients.
fn parse_serve(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut it = it.peekable();
    match it.peek().map(String::as_str) {
        Some("submit") => {
            it.next();
            parse_serve_submit(&mut it)
        }
        Some("sweep") => {
            it.next();
            parse_serve_sweep(&mut it)
        }
        Some("poll") => {
            it.next();
            parse_serve_poll(&mut it)
        }
        Some("stats") => {
            it.next();
            Ok(Parsed::Serve(ServeCmd::Stats {
                addr: parse_addr_only(&mut it, "serve stats")?,
            }))
        }
        Some("metrics") => {
            it.next();
            Ok(Parsed::Serve(ServeCmd::Metrics {
                addr: parse_addr_only(&mut it, "serve metrics")?,
            }))
        }
        Some("trace") => {
            it.next();
            parse_serve_trace(&mut it)
        }
        Some("drain") => {
            it.next();
            Ok(Parsed::Serve(ServeCmd::Drain {
                addr: parse_addr_only(&mut it, "serve drain")?,
            }))
        }
        _ => parse_serve_run(&mut it),
    }
}

/// Parses `serve` flags straight into a [`ServerConfig`], so every
/// default lives in `ServerConfig::default()`; only the journal path
/// defaults here, because the server itself runs journal-less unless
/// given one.
fn parse_serve_run(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut args = ServeArgs {
        cfg: ServerConfig {
            journal: Some(PathBuf::from("hvx-serve.journal.jsonl")),
            ..ServerConfig::default()
        },
        cache_dir: None,
    };
    let cfg = &mut args.cfg;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr requires HOST:PORT")?,
            "--workers" => cfg.workers = parse_jobs(it)?,
            "--cache" => {
                let dir = it.next().ok_or("--cache requires a directory")?;
                args.cache_dir = Some(PathBuf::from(dir));
            }
            "--journal" => {
                let file = it.next().ok_or("--journal requires a file")?;
                cfg.journal = Some(PathBuf::from(file));
            }
            "--no-journal" => cfg.journal = None,
            "--max-queue-weight" => {
                cfg.max_queue_weight = parse_u64("--max-queue-weight", it)?;
            }
            "--client-cap" => {
                cfg.client_inflight_cap = usize::try_from(parse_u64("--client-cap", it)?)
                    .map_err(|_| "--client-cap out of range".to_string())?;
            }
            "--max-results" => {
                cfg.max_results = usize::try_from(parse_u64("--max-results", it)?)
                    .map_err(|_| "--max-results out of range".to_string())?;
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("serve: unexpected argument '{other}'; try --help")),
        }
    }
    Ok(Parsed::Serve(ServeCmd::Run(args)))
}

fn parse_addr_only(it: &mut impl Iterator<Item = String>, what: &str) -> Result<String, String> {
    let mut addr = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr requires HOST:PORT")?),
            other => return Err(format!("{what}: unexpected argument '{other}'; try --help")),
        }
    }
    addr.ok_or_else(|| format!("{what} requires --addr HOST:PORT"))
}

fn parse_serve_submit(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut addr = None;
    let mut client = "cli".to_string();
    let mut source = None;
    let mut wait_secs = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr requires HOST:PORT")?),
            "--client" => client = it.next().ok_or("--client requires a name")?,
            "--spec" => {
                let file = it.next().ok_or("--spec requires a spec file")?;
                source = Some(SubmitSource::Spec(PathBuf::from(file)));
            }
            "--chaos" => {
                let kind = it.next().ok_or("--chaos requires a kind")?;
                source = Some(SubmitSource::Chaos(kind));
            }
            "--wait" => {
                let secs = it.next().ok_or("--wait requires seconds")?;
                wait_secs = Some(
                    secs.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("--wait needs positive seconds, got '{secs}'"))?,
                );
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other => {
                return Err(format!(
                    "serve submit: unexpected argument '{other}'; try --help"
                ))
            }
        }
    }
    Ok(Parsed::Serve(ServeCmd::Submit {
        addr: addr.ok_or("serve submit requires --addr HOST:PORT")?,
        client,
        source: source.ok_or("serve submit requires --spec FILE or --chaos KIND")?,
        wait_secs,
    }))
}

fn parse_serve_sweep(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut addr = None;
    let mut client = "cli".to_string();
    let mut template = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr requires HOST:PORT")?),
            "--client" => client = it.next().ok_or("--client requires a name")?,
            "--template" => {
                let file = it.next().ok_or("--template requires a file")?;
                template = Some(PathBuf::from(file));
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other => {
                return Err(format!(
                    "serve sweep: unexpected argument '{other}'; try --help"
                ))
            }
        }
    }
    Ok(Parsed::Serve(ServeCmd::Sweep {
        addr: addr.ok_or("serve sweep requires --addr HOST:PORT")?,
        client,
        template: template.ok_or("serve sweep requires --template FILE")?,
    }))
}

fn parse_serve_poll(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut addr = None;
    let mut job = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr requires HOST:PORT")?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => match other.parse::<u64>() {
                Ok(id) => job = Some(id),
                Err(_) => {
                    return Err(format!(
                        "serve poll: expected a job id, got '{other}'; try --help"
                    ))
                }
            },
        }
    }
    Ok(Parsed::Serve(ServeCmd::Poll {
        addr: addr.ok_or("serve poll requires --addr HOST:PORT")?,
        job: job.ok_or("serve poll requires a job id")?,
    }))
}

fn parse_serve_trace(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut addr = None;
    let mut fingerprint = None;
    let mut top = 5usize;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr requires HOST:PORT")?),
            "--top" => {
                let n = it.next().ok_or("--top requires a count")?;
                top = n
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or(format!("--top expects a positive integer, got '{n}'"))?;
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other if !other.starts_with('-') && fingerprint.is_none() => {
                fingerprint = Some(other.to_string());
            }
            other => {
                return Err(format!(
                    "serve trace: unexpected argument '{other}'; try --help"
                ))
            }
        }
    }
    Ok(Parsed::Serve(ServeCmd::TraceQuery {
        addr: addr.ok_or("serve trace requires --addr HOST:PORT")?,
        fingerprint: fingerprint.ok_or("serve trace requires a scenario fingerprint")?,
        top,
    }))
}

/// Parses `baseline write` / `check` arguments. `dir_flag` is the flag
/// that names the baseline directory (`--dir` resp. `--baseline`).
fn parse_baseline(
    it: &mut impl Iterator<Item = String>,
    dir_flag: &str,
    wrap: fn(BaselineArgs) -> Parsed,
) -> Result<Parsed, String> {
    let mut dir = PathBuf::from(diff::DEFAULT_DIR);
    let mut jobs = default_jobs();
    let mut cache_dir = None;
    let mut requested = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag if flag == dir_flag => {
                let d = it
                    .next()
                    .ok_or_else(|| format!("{dir_flag} requires a directory"))?;
                dir = PathBuf::from(d);
            }
            "--jobs" => jobs = parse_jobs(it)?,
            "--cache" => {
                let d = it.next().ok_or("--cache requires a directory")?;
                cache_dir = Some(PathBuf::from(d));
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            "all" => requested.extend(ArtifactId::ALL),
            other => match ArtifactId::parse(other) {
                Some(a) => requested.push(a),
                None => return Err(format!("unknown artifact '{other}'; try --help")),
            },
        }
    }
    let artifacts: Vec<ArtifactId> = ArtifactId::ALL
        .into_iter()
        .filter(|a| requested.contains(a))
        .collect();
    Ok(wrap(BaselineArgs {
        dir,
        artifacts,
        jobs,
        cache_dir,
    }))
}

fn parse_profile(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut specs = Vec::new();
    let mut jobs = default_jobs();
    let mut json_dir = None;
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 42u64;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => {
                let name = it.next().ok_or("--scenario requires a name")?;
                specs.push(spec_run::parse_paper_name(&name).map_err(|e| e.to_string())?);
            }
            "--jobs" => jobs = parse_jobs(it)?,
            "--json" => {
                let dir = it.next().ok_or("--json requires a directory")?;
                json_dir = Some(PathBuf::from(dir));
            }
            "--fault-plan" => {
                let spec = it.next().ok_or("--fault-plan requires a spec")?;
                fault_spec = Some(spec);
            }
            "--fault-seed" => fault_seed = parse_u64("--fault-seed", it)?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => {
                return Err(format!(
                    "profile: unexpected argument '{other}'; try --help"
                ))
            }
        }
    }
    if specs.is_empty() {
        specs = profile::default_set();
    }
    if let Some(plan) = build_fault_plan(fault_spec.as_deref(), fault_seed)? {
        for spec in &mut specs {
            spec.set_fault_plan(&plan);
        }
    }
    Ok(Parsed::Profile(ProfileArgs {
        specs,
        jobs,
        json_dir,
    }))
}

/// Parses the `trace` subcommand family: `trace <scenario> ...`,
/// `trace query FILE ...`, `trace bench ...`.
fn parse_trace(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let Some(first) = it.next() else {
        return Ok(Parsed::Help);
    };
    match first.as_str() {
        "query" => parse_trace_query(it),
        "bench" => parse_trace_bench(it),
        "--help" | "-h" => Ok(Parsed::Help),
        _ => parse_trace_run(first, it),
    }
}

fn parse_ring(it: &mut impl Iterator<Item = String>) -> Result<usize, String> {
    let n = parse_u64("--ring", it)?;
    usize::try_from(n)
        .ok()
        .filter(|n| *n >= 1)
        .ok_or_else(|| format!("--ring needs a positive slot count, got '{n}'"))
}

fn parse_trace_run(
    scenario: String,
    it: &mut impl Iterator<Item = String>,
) -> Result<Parsed, String> {
    let mut hypervisor = None;
    let mut out = None;
    let mut ring = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--hypervisor" => {
                hypervisor = Some(it.next().ok_or("--hypervisor requires a name")?);
            }
            "--out" => {
                let file = it.next().ok_or("--out requires an output file")?;
                out = Some(PathBuf::from(file));
            }
            "--ring" => ring = Some(parse_ring(it)?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("trace: unexpected argument '{other}'; try --help")),
        }
    }
    let spec = trace_spec(&scenario, hypervisor).map_err(|e| format!("trace: {e}"))?;
    Ok(Parsed::TraceRun(TraceRunArgs { spec, ring, out }))
}

/// Resolves `trace`'s two forms: `<workload> --hypervisor <hv>`, or the
/// combined `<workload>-<hypervisor>` name `profile` takes.
fn trace_spec(scenario: &str, hypervisor: Option<String>) -> Result<ScenarioSpec, Error> {
    let Some(slug) = hypervisor else {
        return spec_run::parse_paper_name(scenario);
    };
    let kind = HvKind::from_slug(&slug).ok_or(Error::UnknownScenario { name: slug })?;
    Ok(ScenarioSpec::paper(kind).with_workload(Workload::parse(scenario)?))
}

fn parse_trace_query(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut file = None;
    let mut query = trace::Query::default();
    let mut validate = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--transition" => {
                query.transition = Some(it.next().ok_or("--transition requires a name")?);
            }
            "--track" => query.track = Some(it.next().ok_or("--track requires a track name")?),
            "--from" => query.from = Some(parse_u64("--from", it)?),
            "--to" => query.to = Some(parse_u64("--to", it)?),
            "--top" => {
                let n = parse_u64("--top", it)?;
                query.top = usize::try_from(n)
                    .ok()
                    .filter(|n| *n >= 1)
                    .map(Some)
                    .ok_or_else(|| format!("--top needs a positive count, got '{n}'"))?;
            }
            "--validate" => validate = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            other => {
                return Err(format!(
                    "trace query: unexpected argument '{other}'; try --help"
                ))
            }
        }
    }
    let file = file.ok_or("trace query requires a trace file")?;
    Ok(Parsed::TraceQuery(TraceQueryArgs {
        file,
        query,
        validate,
    }))
}

fn parse_trace_bench(it: &mut impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut out = PathBuf::from("BENCH_trace.json");
    let mut ring = 4096usize;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let file = it.next().ok_or("--out requires an output file")?;
                out = PathBuf::from(file);
            }
            "--ring" => ring = parse_ring(it)?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => {
                return Err(format!(
                    "trace bench: unexpected argument '{other}'; try --help"
                ))
            }
        }
    }
    Ok(Parsed::TraceBench { out, ring })
}

fn parse_args() -> Result<Parsed, String> {
    // Structured logging is off unless HVX_LOG or --log-level turns it
    // on; either way the setting only ever writes to stderr, so
    // artifact stdout stays byte-identical.
    hvx_obs::log::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    while let Some(pos) = args.iter().position(|a| a == "--log-level") {
        let Some(level) = args.get(pos + 1).cloned() else {
            return Err("--log-level requires a level (off, error, info, debug)".into());
        };
        let Some(lv) = hvx_obs::LogLevel::parse(&level) else {
            return Err(format!(
                "unknown log level '{level}' (off, error, info, debug)"
            ));
        };
        hvx_obs::log::set_level(lv);
        args.drain(pos..pos + 2);
    }
    let mut it = args.into_iter().peekable();
    match it.peek().map(String::as_str) {
        Some("run") => {
            it.next();
            parse_run(&mut it)
        }
        Some("profile") => {
            it.next();
            parse_profile(&mut it)
        }
        Some("trace") => {
            it.next();
            parse_trace(&mut it)
        }
        Some("serve") => {
            it.next();
            parse_serve(&mut it)
        }
        Some("baseline") => {
            it.next();
            match it.next().as_deref() {
                Some("write") => parse_baseline(&mut it, "--dir", Parsed::BaselineWrite),
                Some("--help" | "-h") | None => Ok(Parsed::Help),
                Some(other) => Err(format!(
                    "baseline: unknown subcommand '{other}' (expected 'write'); try --help"
                )),
            }
        }
        Some("check") => {
            it.next();
            parse_baseline(&mut it, "--baseline", Parsed::Check)
        }
        Some("list-scenarios") => {
            it.next();
            match it.next() {
                None => Ok(Parsed::ListScenarios),
                Some(other) => Err(format!(
                    "list-scenarios: unexpected argument '{other}'; try --help"
                )),
            }
        }
        Some("--help" | "-h") => Ok(Parsed::Help),
        // Bare `hvx-repro` still reproduces everything; the historical
        // pre-subcommand spelling (artifact names or flags as the first
        // token) is retired and points at the `run` equivalent.
        None => parse_run(&mut it),
        Some(other) => Err(format!(
            "the no-subcommand interface has been retired; \
             use 'hvx-repro run {other} ...' instead (try --help)"
        )),
    }
}

/// Opens the result cache named by `--cache`, or bypasses it (with a
/// warning) when `HVX_COST_PERTURB` is set: perturbed charging costs
/// are deliberately *not* part of the fingerprint — that is the drift
/// drill — so serving cached unperturbed results would mask exactly
/// the divergence the perturbation exists to demonstrate.
fn open_cache(dir: Option<&PathBuf>) -> Result<Option<Arc<ResultCache>>, Error> {
    let Some(dir) = dir else { return Ok(None) };
    if std::env::var("HVX_COST_PERTURB").is_ok_and(|s| !s.trim().is_empty()) {
        eprintln!(
            "hvx-repro: warning: HVX_COST_PERTURB is set; bypassing the result cache \
             so perturbed runs are never served from (or stored into) it"
        );
        return Ok(None);
    }
    Ok(Some(Arc::new(ResultCache::open(dir)?)))
}

fn report_cache_stats(cache: &Option<Arc<ResultCache>>) {
    if let Some(cache) = cache {
        eprintln!("hvx-repro: {}", cache.stats());
    }
}

fn baseline_write(args: &BaselineArgs) -> Result<(), Error> {
    let artifacts: Vec<ArtifactId> = if args.artifacts.is_empty() {
        ArtifactId::ALL.to_vec()
    } else {
        args.artifacts.clone()
    };
    let cache = open_cache(args.cache_dir.as_ref())?;
    let report = diff::write_baseline(&args.dir, &artifacts, args.jobs, cache.clone())?;
    report_cache_stats(&cache);
    println!(
        "baseline: wrote {} artifact(s) and {} span profile(s) to {}",
        report.artifacts.len(),
        report.span_profiles,
        report.dir.display()
    );
    Ok(())
}

fn check(args: &BaselineArgs) -> Result<(), Error> {
    let cache = open_cache(args.cache_dir.as_ref())?;
    let report = diff::check_baseline(&args.dir, &args.artifacts, args.jobs, cache.clone())?;
    report_cache_stats(&cache);
    print!("{}", report.rendered);
    let report = report.into_result()?;
    println!(
        "check: {} artifact(s) {}",
        report.verdicts.len(),
        if report.schema_bump {
            "checked; divergences are an expected schema bump"
        } else {
            "byte-identical to the baseline"
        }
    );
    Ok(())
}

fn run(args: &RunArgs) -> Result<(), Error> {
    if !args.out_json {
        println!("hvx — reproducing \"ARM Virtualization: Performance and Architectural");
        println!("Implications\" (ISCA 2016) on the simulator. Paper values in parentheses.\n");
    }

    let cache = open_cache(args.cache_dir.as_ref())?;
    let cfg = RunnerConfig {
        cache: cache.clone(),
        ..args.cfg.clone()
    };
    let started = Instant::now();
    let outcome = runner::run_artifacts_with(&args.artifacts, args.jobs, &cfg)?;
    let elapsed = started.elapsed().as_secs_f64();
    let reports = &outcome.reports;
    for r in reports {
        if !args.out_json {
            print!("{}", r.text);
        }
        if let Some(dir) = &args.json_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}.json", r.id.json_name()));
            std::fs::write(&path, &r.json)?;
            eprintln!("wrote {}", path.display());
        }
        if args.timing {
            eprintln!(
                "[timing] {:<10} {:>12.1} us",
                r.id.cli_name(),
                r.wall.as_secs_f64() * 1e6
            );
        }
    }
    if args.timing {
        let total: f64 = reports.iter().map(|r| r.wall.as_secs_f64()).sum();
        eprintln!(
            "[timing] {:<10} {:>12.1} us (sum over scenarios, --jobs {})",
            "total",
            total * 1e6,
            args.jobs
        );
        // Self-telemetry: worker utilization distinguishes a warm run
        // (cache hits, workers mostly idle) from a cold one. stderr
        // only — artifact stdout/JSON must stay byte-identical.
        let capacity = args.jobs as f64 * elapsed;
        let utilization = if capacity > 0.0 {
            100.0 * total / capacity
        } else {
            0.0
        };
        eprintln!(
            "[timing] {:<10} {:>12.1} us wall, worker utilization {utilization:.1}%",
            "run",
            elapsed * 1e6
        );
        if let Some(cache) = &cache {
            let s = cache.stats();
            let temperature = match (s.hits, s.misses) {
                (0, _) => "cold",
                (_, 0) => "warm",
                _ => "mixed",
            };
            eprintln!(
                "[timing] {:<10} {} hits, {} misses ({temperature})",
                "cache", s.hits, s.misses
            );
        }
    }

    if args.out_json {
        // The structured report replaces the rendered artifact text on
        // stdout: one record per scenario (chaos last), carrying the
        // typed failure kind, retry count, and content fingerprint.
        let report = hvx_core::report::RunReport {
            cells: outcome.cells.clone(),
        };
        println!("{}", pretty(&Serialize::serialize(&report))?);
    }

    report_cache_stats(&cache);
    let failures = outcome.failures();
    for (label, f) in &failures {
        eprintln!("hvx-repro: warning: scenario '{label}' {f}");
    }
    match failures.into_iter().next() {
        None => Ok(()),
        Some((scenario, f)) if args.keep_going => {
            eprintln!(
                "hvx-repro: warning: continuing despite failures \
                 (--keep-going); first was '{scenario}' ({})",
                f.kind
            );
            Ok(())
        }
        Some((scenario, f)) => Err(Error::Scenario {
            scenario,
            kind: f.kind,
            detail: f.detail,
        }),
    }
}

/// `run --spec FILE`: load the scenario spec, run the one scenario it
/// describes, print its report — as text, or (`--out json`) as the
/// structured `{report, cell}` record. The spec runs as the sweep
/// server runs it: a spec the server refuses at admission exits 1, and
/// a failed run exits 3 with the failure kind and detail the server
/// answers with.
fn run_spec_file(path: &Path, out_json: bool) -> Result<(), Error> {
    let spec = spec_run::load(path)?;
    spec_run::validate(&spec)?;
    let run = spec_run::run_isolated(&spec).map_err(|f| Error::Scenario {
        scenario: spec_run::label(&spec),
        kind: f.kind,
        detail: f.detail,
    })?;
    if out_json {
        let v = Value::Object(vec![
            ("report".into(), Value::Str(run.report)),
            ("cell".into(), Serialize::serialize(&run.cell)),
        ]);
        println!("{}", pretty(&v)?);
    } else {
        print!("{}", run.report);
    }
    Ok(())
}

fn pretty(v: &Value) -> Result<String, Error> {
    serde_json::to_string_pretty(v).map_err(|e| Error::Serialize {
        what: "JSON output",
        detail: e.to_string(),
    })
}

/// Prints an HTTP client response as a JSON envelope: the response
/// body's fields with a `status` field prepended. The process exits 0
/// whenever the round trip succeeded — error *statuses* (shed, client
/// cap, draining) and failed jobs are data for the caller to inspect,
/// exactly like `curl`.
fn print_envelope(status: u16, body: Value) -> Result<(), Error> {
    let mut pairs = vec![("status".to_string(), Value::U64(u64::from(status)))];
    match body {
        Value::Object(fields) => pairs.extend(fields),
        other => pairs.push(("body".to_string(), other)),
    }
    println!("{}", pretty(&Value::Object(pairs))?);
    Ok(())
}

fn serve_err(detail: String) -> Error {
    Error::Serve { detail }
}

/// `serve` with no client subcommand: bind, announce, serve until a
/// drain completes.
fn serve_run(args: &ServeArgs) -> Result<(), Error> {
    let cache = open_cache(args.cache_dir.as_ref())?;
    let server = Server::bind(args.cfg.clone(), Arc::new(SuiteExecutor::new(cache)))?;
    // The resolved address goes to stdout (scripts capture it to learn
    // an ephemeral port); progress chatter stays on stderr.
    println!("hvx-serve: listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "hvx-serve: journal {}, cache {}",
        args.cfg
            .journal
            .as_ref()
            .map_or("disabled".to_string(), |p| p.display().to_string()),
        args.cache_dir
            .as_ref()
            .map_or("disabled".to_string(), |p| p.display().to_string()),
    );
    server.run()
}

fn serve_cmd(cmd: &ServeCmd) -> Result<(), Error> {
    match cmd {
        ServeCmd::Run(args) => serve_run(args),
        ServeCmd::Submit {
            addr,
            client,
            source,
            wait_secs,
        } => {
            let body = match source {
                SubmitSource::Spec(path) => std::fs::read_to_string(path)?,
                SubmitSource::Chaos(kind) => format!("{{\"chaos\": \"{kind}\"}}"),
            };
            let (status, v) = serve_client::submit(addr, client, &body).map_err(serve_err)?;
            if let (Some(secs), Some(id)) = (wait_secs, v.get("job").and_then(Value::as_u64)) {
                if status == 200 || status == 202 {
                    let v = serve_client::wait(addr, id, Duration::from_secs_f64(*secs))
                        .map_err(serve_err)?;
                    return print_envelope(200, v);
                }
            }
            print_envelope(status, v)
        }
        ServeCmd::Sweep {
            addr,
            client,
            template,
        } => {
            let body = std::fs::read_to_string(template)?;
            let (status, v) = serve_client::sweep(addr, client, &body).map_err(serve_err)?;
            print_envelope(status, v)
        }
        ServeCmd::Poll { addr, job } => {
            let (status, v) = serve_client::poll(addr, *job).map_err(serve_err)?;
            print_envelope(status, v)
        }
        ServeCmd::Stats { addr } => {
            let v = serve_client::stats(addr).map_err(serve_err)?;
            print_envelope(200, v)
        }
        ServeCmd::Metrics { addr } => {
            let text = serve_client::metrics(addr).map_err(serve_err)?;
            print!("{text}");
            Ok(())
        }
        ServeCmd::TraceQuery {
            addr,
            fingerprint,
            top,
        } => {
            let (status, v) = serve_client::trace(addr, fingerprint, *top).map_err(serve_err)?;
            print_envelope(status, v)
        }
        ServeCmd::Drain { addr } => {
            serve_client::drain(addr).map_err(serve_err)?;
            print_envelope(
                200,
                Value::Object(vec![("draining".into(), Value::Bool(true))]),
            )
        }
    }
}

fn run_profile(args: &ProfileArgs) -> Result<(), Error> {
    let reports = profile::run_profiles(&args.specs, args.jobs)?;
    print!("{}", profile::render_profiles(&reports));
    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir)?;
        for r in &reports {
            let data = serde_json::to_string_pretty(r).map_err(|e| Error::Serialize {
                what: "profile report",
                detail: e.to_string(),
            })?;
            let path = dir.join(format!("profile-{}.json", r.scenario));
            std::fs::write(&path, data)?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

fn trace_run(args: &TraceRunArgs) -> Result<(), Error> {
    let report = trace::run_trace(&args.spec, args.ring)?;
    print!("{}", report.render());
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("trace-{}.json", report.scenario)));
    std::fs::write(&path, &report.json)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn trace_query(args: &TraceQueryArgs) -> Result<(), Error> {
    let text = std::fs::read_to_string(&args.file)?;
    let parsed = trace::ParsedTrace::parse(&text)?;
    if args.validate {
        print!("{}", trace::validate(&parsed)?);
        return Ok(());
    }
    print!(
        "{}",
        trace::render_query(&parsed, &args.query, &args.file.display().to_string())
    );
    Ok(())
}

fn trace_bench(out: &PathBuf, ring: usize) -> Result<(), Error> {
    eprintln!("trace bench: running the Fig. 4 sweep tracing-off, tracing-on, ring({ring}) ...");
    let report = trace::run_trace_bench(ring)?;
    let data = serde_json::to_string_pretty(&report).map_err(|e| Error::Serialize {
        what: "trace bench report",
        detail: e.to_string(),
    })?;
    std::fs::write(out, data)?;
    eprintln!(
        "trace bench: off {:.3}s, on {:.3}s ({:.2}x), ring {:.3}s ({:.2}x), wrote {}",
        report.off_seconds,
        report.on_seconds,
        report.on_overhead,
        report.ring_seconds,
        report.ring_overhead,
        out.display()
    );
    Ok(())
}

fn list_scenarios() {
    println!("artifacts (run):");
    for a in ArtifactId::ALL {
        println!("  {}", a.cli_name());
    }
    println!("\nprofile scenarios (profile --scenario NAME):");
    println!("  default set:");
    for spec in profile::default_set() {
        println!("    {}", spec_run::paper_name(&spec));
    }
    println!("  (trace SCENARIO accepts the same names, or <workload> --hypervisor <hv>)");
    println!("  any <workload>-<hypervisor> combination, e.g. mysql-xen-arm;");
    // `netperf` names TCP_RR too; it is listed just before `tcp_rr`.
    let workloads: Vec<&str> = Workload::ALL
        .into_iter()
        .flat_map(|w| {
            (w == Workload::TcpRr)
                .then_some(Workload::Netperf)
                .into_iter()
                .chain([w])
        })
        .map(Workload::slug)
        .collect();
    let (first, rest) = workloads.split_at(5);
    println!("  workloads: {}", first.join(" "));
    println!("             {}", rest.join(" "));
    let kinds: Vec<&str> = HvKind::ALL.into_iter().map(HvKind::slug).collect();
    println!("  hypervisors: {}", kinds.join(" "));
}

fn main() {
    let parsed = match parse_args() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let result = match &parsed {
        Parsed::Help => {
            println!("{}", usage());
            return;
        }
        Parsed::ListScenarios => {
            list_scenarios();
            return;
        }
        Parsed::Run(args) => run(args),
        Parsed::SpecRun { path, out_json } => run_spec_file(path, *out_json),
        Parsed::Serve(cmd) => serve_cmd(cmd),
        Parsed::Profile(args) => run_profile(args),
        Parsed::TraceRun(args) => trace_run(args),
        Parsed::TraceQuery(args) => trace_query(args),
        Parsed::TraceBench { out, ring } => trace_bench(out, *ring),
        Parsed::BaselineWrite(args) => baseline_write(args),
        Parsed::Check(args) => check(args),
    };
    if let Err(e) = result {
        eprintln!("hvx-repro: {e}");
        let code = match e {
            Error::Scenario { .. } => 3,
            Error::BaselineDrift { .. } => 4,
            _ => 1,
        };
        std::process::exit(code);
    }
}
