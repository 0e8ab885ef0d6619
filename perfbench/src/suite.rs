//! The paper-suite probe: regenerate all 13 artifacts at `jobs = nproc`,
//! cold into a fresh result cache and then warm from it.
//!
//! The paper-default iteration counts are tiny, so the harness layers
//! (plan, per-scenario setup, assemble, cache I/O) dominate and compiled
//! replay barely runs. The benchmark performs the runner's own steps
//! through its public functions — `plan`, a cache lookup per scenario,
//! `run_scenarios_with` for the misses, a cache store per result,
//! `assemble` — so each step can be timed from outside.
//!
//! This is a probe of the traced `scaled-grid` run, not a workload of
//! its own: a cold pass creates, renames and deletes ~100 small files,
//! and file-system metadata time on a shared disk varied twofold from
//! one run to the next, too much for a bounded end-to-end metric.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hvx_suite::cache::{self, ResultCache};
use hvx_suite::runner::{self, ArtifactId, ArtifactReport, RunnerConfig, ScenarioResult};

use crate::ledger::{median, Ledger, Outcome, Rng};
use crate::{nproc, work_dir};

/// The inputs of one run: the artifact order (seeded) and the reference
/// text and JSON of each artifact.
struct Inputs {
    artifacts: Vec<ArtifactId>,
    baselines: Vec<(String, String)>,
}

fn load_inputs(rng: &mut Rng) -> Result<Inputs, String> {
    let mut artifacts = ArtifactId::ALL.to_vec();
    rng.shuffle(&mut artifacts);
    let baselines = artifacts
        .iter()
        .map(|a| {
            let read = |ext: &str| {
                let path = format!("baselines/{}.{ext}", a.json_name());
                std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
            };
            Ok((read("txt")?, read("json")?))
        })
        .collect::<Result<_, String>>()?;
    Ok(Inputs {
        artifacts,
        baselines,
    })
}

/// One cold + warm regenerate and what it measured.
struct Pair {
    cold_s: f64,
    warm_s: f64,
    /// Layer seconds charged during the pair (0 when untraced).
    attributed_s: f64,
    transitions: u64,
    /// Summed scenario wall per artifact on the cold pass, seconds.
    artifact_wall: BTreeMap<&'static str, f64>,
    /// Cold-pass execute wall and summed scenario walls, seconds.
    execute_s: f64,
    scenario_wall_s: f64,
    cold_stats: cache::CacheStats,
    warm_stats: cache::CacheStats,
    /// Mismatches and failed scenarios found by the checks.
    errors: Vec<String>,
}

fn layer_total(ledger: &Ledger) -> f64 {
    [
        "plan",
        "lookup_miss",
        "execute",
        "store",
        "assemble",
        "lookup",
    ]
    .iter()
    .map(|l| ledger.total(l))
    .sum()
}

fn pair(inputs: &Inputs, jobs: usize, pass: u64, ledger: &mut Ledger) -> Result<Pair, String> {
    let dir = work_dir(&format!("suite-cache-{pass}"));
    let cache = Arc::new(ResultCache::open(&dir).map_err(|e| e.to_string())?);
    let cfg = RunnerConfig::default();
    let artifacts = &inputs.artifacts;
    let mut errors = Vec::new();
    let attributed_before = layer_total(ledger);

    // Cold: every lookup misses, every scenario runs, every result is
    // stored — the work `hvx-repro run --cache` does on an empty cache.
    let start = Instant::now();
    let plan = ledger.time("plan", || runner::plan(artifacts));
    let misses = ledger.time("lookup_miss", || {
        plan.iter()
            .filter(|s| cache.lookup(**s, &cfg).is_none())
            .count()
    });
    let t0 = Instant::now();
    let results = ledger
        .time("execute", || runner::run_scenarios_with(&plan, jobs, &cfg))
        .map_err(|e| e.to_string())?;
    let execute_s = t0.elapsed().as_secs_f64();
    ledger.time("store", || {
        for r in &results {
            if let Ok(output) = &r.outcome {
                cache.store(r.scenario, &cfg, output);
            }
        }
    });
    let cold = ledger
        .time("assemble", || runner::assemble(artifacts, &results))
        .map_err(|e| e.to_string())?;
    let cold_s = start.elapsed().as_secs_f64();
    if misses != plan.len() {
        errors.push(format!(
            "fresh cache answered {} lookups",
            plan.len() - misses
        ));
    }
    let cold_stats = cache.stats();

    // Warm: the same plan answered entirely from the cache.
    let start = Instant::now();
    let plan = ledger.time("plan", || runner::plan(artifacts));
    let warm_results: Vec<ScenarioResult> = ledger.time("lookup", || {
        plan.iter()
            .map(|&scenario| {
                let t0 = Instant::now();
                let output = cache.lookup(scenario, &cfg);
                let output = output.ok_or_else(|| runner::ScenarioFailure {
                    kind: hvx_core::ScenarioFailureKind::Failed,
                    detail: "warm cache missed".into(),
                });
                ScenarioResult {
                    scenario,
                    outcome: output,
                    wall: t0.elapsed(),
                    transitions: 0,
                    retries: 0,
                    fingerprint: cache::scenario_fingerprint(scenario, &cfg),
                    cached: true,
                }
            })
            .collect()
    });
    let warm = ledger
        .time("assemble", || runner::assemble(artifacts, &warm_results))
        .map_err(|e| e.to_string())?;
    let warm_s = start.elapsed().as_secs_f64();
    let attributed_s = layer_total(ledger) - attributed_before;
    let warm_stats = cache.stats();

    check(inputs, &cold, &warm, &results, &warm_results, &mut errors);
    let mut artifact_wall = BTreeMap::new();
    let mut offset = 0;
    for a in artifacts {
        let n = runner::plan(&[*a]).len();
        let wall: f64 = results[offset..offset + n]
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .sum();
        artifact_wall.insert(a.json_name(), wall);
        offset += n;
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pair {
        cold_s,
        warm_s,
        attributed_s,
        transitions: results.iter().map(|r| r.transitions).sum(),
        execute_s,
        scenario_wall_s: results.iter().map(|r| r.wall.as_secs_f64()).sum(),
        artifact_wall,
        cold_stats,
        warm_stats: cache::CacheStats {
            hits: warm_stats.hits - cold_stats.hits,
            misses: warm_stats.misses - cold_stats.misses,
            stores: warm_stats.stores - cold_stats.stores,
        },
        errors,
    })
}

/// Cold text and JSON must equal the committed baselines; warm output
/// must equal cold output; no scenario may fail.
fn check(
    inputs: &Inputs,
    cold: &[ArtifactReport],
    warm: &[ArtifactReport],
    cold_results: &[ScenarioResult],
    warm_results: &[ScenarioResult],
    errors: &mut Vec<String>,
) {
    for r in cold_results.iter().chain(warm_results) {
        if let Err(f) = &r.outcome {
            errors.push(format!("{}: {f}", r.scenario.label()));
        }
    }
    for ((c, w), (text, json)) in cold.iter().zip(warm).zip(&inputs.baselines) {
        let name = c.id.json_name();
        if &c.text != text || &c.json != json {
            errors.push(format!("{name}: output differs from baselines/{name}"));
        }
        if c.text != w.text || c.json != w.json {
            errors.push(format!("{name}: warm output differs from cold output"));
        }
    }
}

/// The paper-suite regenerate as a probe of the traced run: pairs
/// alternate untraced and traced, so the ledger's own cost shows too.
pub struct Probe {
    inputs: Inputs,
    jobs: usize,
    pass: u64,
    ledger: Ledger,
    untraced: Vec<Pair>,
    traced: Vec<Pair>,
}

impl Probe {
    /// Reads the inputs (artifact order seeded) and runs one discarded
    /// pair so lazy initialisation settles.
    pub fn new(seed: u64) -> Result<Probe, String> {
        let mut probe = Probe {
            inputs: load_inputs(&mut Rng::new(seed))?,
            jobs: nproc(),
            pass: 0,
            ledger: Ledger::new(false),
            untraced: Vec::new(),
            traced: Vec::new(),
        };
        probe.pair(false)?;
        Ok(probe)
    }

    fn pair(&mut self, on: bool) -> Result<Pair, String> {
        self.ledger.set_on(on);
        let p = pair(&self.inputs, self.jobs, self.pass, &mut self.ledger);
        self.pass += 1;
        p
    }

    /// One untraced and one traced pair, each checked.
    pub fn step(&mut self, out: &mut Outcome) -> Result<(), String> {
        for on in [false, true] {
            let p = self.pair(on)?;
            if p.errors.is_empty() {
                out.op(true);
            } else {
                out.fail(p.errors.join("; "));
            }
            if on {
                self.traced.push(p);
            } else {
                self.untraced.push(p);
            }
        }
        Ok(())
    }

    pub fn report(&self, out: &mut Outcome) {
        let (ledger, untraced, traced) = (&self.ledger, &self.untraced, &self.traced);
        let med = |f: &dyn Fn(&Pair) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let cold: Vec<f64> = untraced.iter().map(|p| p.cold_s).collect();
        let warm: Vec<f64> = untraced.iter().map(|p| p.warm_s).collect();
        out.set("suite_cold_s", median(&cold));
        out.set("suite_warm_s", median(&warm));
        out.set("runner.plan_us", 1e6 * median(ledger.samples("plan")));
        out.set(
            "runner.assemble_ms",
            1e3 * median(ledger.samples("assemble")),
        );
        out.set("runner.execute_ms", 1e3 * median(ledger.samples("execute")));
        for a in ArtifactId::ALL {
            let name = a.json_name();
            let v = med(&|p: &Pair| p.artifact_wall.get(name).copied().unwrap_or(0.0));
            out.set(&format!("runner.execute.{name}_ms"), 1e3 * v);
        }
        let jobs = self.jobs as f64;
        out.set(
            "runner.worker_busy_pct",
            med(&|p: &Pair| 100.0 * p.scenario_wall_s / (p.execute_s * jobs).max(1e-12)),
        );
        out.set("runner.transitions", med(&|p: &Pair| p.transitions as f64));
        out.set("cache.store_us", 1e6 * median(ledger.samples("store")));
        out.set("cache.lookup_us", 1e6 * median(ledger.samples("lookup")));
        out.set("cache.hits", med(&|p: &Pair| p.warm_stats.hits as f64));
        out.set("cache.misses", med(&|p: &Pair| p.cold_stats.misses as f64));
        out.set("cache.stores", med(&|p: &Pair| p.cold_stats.stores as f64));
        let wall: f64 = traced.iter().map(|p| p.cold_s + p.warm_s).sum();
        let attributed: f64 = traced.iter().map(|p| p.attributed_s).sum();
        out.set(
            "suite.unattributed_pct",
            100.0 * (wall - attributed).max(0.0) / wall.max(1e-12),
        );
        let op = |ps: &[Pair]| median(&ps.iter().map(|p| p.cold_s + p.warm_s).collect::<Vec<_>>());
        let (plain, timed) = (op(untraced), op(traced));
        out.set(
            "suite.trace_overhead_pct",
            100.0 * (timed - plain) / plain.max(1e-12),
        );
    }
}
