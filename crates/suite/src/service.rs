//! The suite side of the sweep server: a [`JobExecutor`] over the spec
//! runner and the content-addressed cache.
//!
//! `hvx-serve` is domain-agnostic — it admits, queues, retries, and
//! journals opaque job bodies. [`SuiteExecutor`] supplies the domain:
//!
//! * **prepare** parses a body as either a [`ScenarioSpec`] or a chaos
//!   probe (`{"chaos": "panic"}`), validates it, and derives the
//!   admission metadata (label, content fingerprint, weight);
//! * **lookup** consults the [`ResultCache`] by spec fingerprint, so
//!   warm submissions are answered at admission time without touching
//!   the worker pool;
//! * **run** executes one attempt through the runner's isolation guard
//!   (`runner::isolate`: ambient watchdog plus `catch_unwind`), so a
//!   poisoned spec becomes a typed [`JobFailure`] instead of a dead
//!   worker;
//! * **expand** turns a sweep template into individual spec bodies for
//!   all-or-nothing batched admission.
//!
//! [`ScenarioSpec`]: hvx_core::ScenarioSpec

use crate::cache::{self, ResultCache};
use crate::runner::{self, ChaosKind, RunnerConfig, Scenario, ScenarioFailure};
use crate::spec_run;
use hvx_core::report::CellReport;
use hvx_core::{ScenarioFailureKind, ScenarioSpec, SchedPolicy, SpecShape, TopologySpec};
use hvx_engine::{Fingerprint, FlowChain, FlowPoint, Watchdog};
use hvx_serve::{JobExecutor, JobFailure, JobOutput, PreparedJob};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Cache entry tag for spec-run results (`{"report", "cell"}` payloads).
const SPEC_RESULT_KIND: &str = "spec-result";

/// Cache entry tag for stored trace queries (ranked critical chains).
const TRACE_RESULT_KIND: &str = "trace-query";

/// Ranked chains kept per stored trace. Bounds the cache entry; the
/// server truncates further per request (`?top=K`).
const MAX_STORED_CHAINS: usize = 64;

/// Derived cache key for a fingerprint's stored trace: the spec result
/// lives at `<fp>.json`, its trace at `<fp>-trace.json`.
fn trace_key(fingerprint: &str) -> String {
    format!("{fingerprint}-trace")
}

/// Admission weight of a paper-shape spec (a full Figure-4-style
/// workload run), on the same scale as the runner's scenario weights.
const PAPER_WEIGHT: u64 = 25;

/// Watchdog for chaos probes: spin/livelock probes must trip a limit
/// instead of wedging a worker, whatever the probe body says.
const CHAOS_WATCHDOG: Watchdog = Watchdog {
    cycle_budget: Some(200_000_000),
    livelock_threshold: Some(10_000),
};

/// The production [`JobExecutor`]: spec runner + result cache.
#[derive(Debug, Default)]
pub struct SuiteExecutor {
    cache: Option<Arc<ResultCache>>,
}

impl SuiteExecutor {
    /// An executor serving warm results from (and storing clean runs
    /// to) `cache`; `None` disables caching entirely.
    pub fn new(cache: Option<Arc<ResultCache>>) -> SuiteExecutor {
        SuiteExecutor { cache }
    }

    /// Stores ranked critical chains for a just-completed cold
    /// paper-shape run, so `GET /trace/<fp>` answers from the warm
    /// cache without re-running anything. The chains come from a
    /// separate traced run of the served spec — its fault plan,
    /// interrupt policy and watchdog included — straight from that
    /// run's flow tracer, ranked as `trace query` ranks an exported
    /// file's. Best-effort: a trace that fails to run simply leaves no
    /// stored trace (the endpoint 404s), never failing the job itself.
    fn store_trace(&self, fingerprint: &str, spec: &ScenarioSpec) {
        let Some(cache) = &self.cache else { return };
        if spec.shape().ok() != Some(SpecShape::Paper) {
            return;
        }
        // The served run passed the spec's watchdog, and tracing adds no
        // charges; should the traced run trip it anyway, the guard keeps
        // the panic from escaping to the worker.
        let Ok(chains) = runner::isolate(None, spec.watchdog, || crate::trace::traced_chains(spec))
        else {
            return;
        };
        cache.store_raw(
            &trace_key(fingerprint),
            TRACE_RESULT_KIND,
            Value::Object(vec![
                ("scenario".into(), Value::Str(spec_run::paper_name(spec))),
                ("fingerprint".into(), Value::Str(fingerprint.to_string())),
                ("chains".into(), ranked_chains(chains)),
            ]),
        );
    }
}

/// The stored form of a run's chains: the query ranking (longest
/// end-to-end latency first, chain id as the deterministic tiebreak),
/// cut to [`MAX_STORED_CHAINS`].
fn ranked_chains(mut chains: Vec<FlowChain>) -> Value {
    chains.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.id.cmp(&b.id)));
    chains.truncate(MAX_STORED_CHAINS);
    let hop = |p: &FlowPoint| {
        Value::Object(vec![
            ("ph".into(), Value::Str(p.phase.chrome_ph().into())),
            ("ts".into(), Value::U64(p.ts)),
            ("tid".into(), Value::U64(u64::from(p.track))),
            ("hop".into(), Value::Str(p.label.into())),
        ])
    };
    Value::Array(
        chains
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("kind".into(), Value::Str(c.kind.name().into())),
                    ("id".into(), Value::U64(c.id.raw())),
                    ("complete".into(), Value::Bool(c.complete)),
                    ("latency_cycles".into(), Value::U64(c.latency)),
                    (
                        "hops".into(),
                        Value::Array(c.points.iter().map(hop).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

/// Parses a chaos probe body (`{"chaos": "panic" | "spin" |
/// "livelock"}`), or `None` when the body is not a chaos object.
fn parse_chaos(body: &str) -> Option<Result<ChaosKind, String>> {
    let v = serde_json::parse_value(body.trim()).ok()?;
    let name = v.get("chaos")?;
    let Some(name) = name.as_str() else {
        return Some(Err("\"chaos\" must be a string".into()));
    };
    Some(
        ChaosKind::parse(name)
            .ok_or_else(|| format!("unknown chaos kind '{name}' (panic, spin, livelock)")),
    )
}

fn spec_weight(shape: SpecShape) -> u64 {
    match shape {
        SpecShape::Paper => PAPER_WEIGHT,
        SpecShape::Consolidation { ratio } => 5 + u64::from(ratio) / 2,
        SpecShape::Rack {
            hosts,
            vms_per_host,
        } => 5 + u64::from(hosts) * u64::from(vms_per_host),
    }
}

impl JobExecutor for SuiteExecutor {
    fn prepare(&self, body: &str) -> Result<PreparedJob, String> {
        if let Some(chaos) = parse_chaos(body) {
            let kind = chaos?;
            return Ok(PreparedJob {
                label: format!("chaos-{}", kind.name()),
                // A synthetic stable fingerprint: chaos probes are
                // uncacheable but the circuit breaker still groups
                // their failures by kind.
                fingerprint: format!("chaos-{}", kind.name()),
                cacheable: false,
                weight: 1,
                body: body.to_string(),
            });
        }
        let spec = spec_run::parse(body).map_err(|e| e.to_string())?;
        let shape = spec.shape().map_err(|e| e.to_string())?;
        // Reject malformed fault plans at admission, not on a worker.
        spec.fault_plan().map_err(|e| e.to_string())?;
        Ok(PreparedJob {
            label: spec_run::label(&spec),
            fingerprint: cache::spec_fingerprint(&spec).to_hex(),
            cacheable: true,
            weight: spec_weight(shape),
            body: body.to_string(),
        })
    }

    fn lookup(&self, job: &PreparedJob) -> Option<JobOutput> {
        if !job.cacheable {
            return None;
        }
        let cache = self.cache.as_ref()?;
        let payload = cache.lookup_raw(&job.fingerprint, SPEC_RESULT_KIND)?;
        let report = payload.get("report")?.as_str()?.to_string();
        let mut cell: CellReport = Deserialize::deserialize(payload.get("cell")?).ok()?;
        cell.cached = true;
        Some(JobOutput { report, cell })
    }

    fn run(&self, job: &PreparedJob) -> Result<JobOutput, JobFailure> {
        if let Some(chaos) = parse_chaos(&job.body) {
            return run_chaos(chaos.map_err(|detail| JobFailure {
                kind: ScenarioFailureKind::Failed,
                detail,
                transient: false,
            })?);
        }
        let spec = spec_run::parse(&job.body).map_err(|e| JobFailure {
            kind: ScenarioFailureKind::Failed,
            detail: e.to_string(),
            transient: false,
        })?;
        // The spec's own watchdog guards the run; the ambient fault plan
        // stays empty because spec faults are applied by the engine the
        // spec dispatches to (run_consolidation installs them on the
        // cell machine directly).
        let run = runner::isolate(None, spec.watchdog, || spec_run::run_spec_report(&spec))
            .map_err(job_failure)?;
        if job.cacheable {
            if let Some(cache) = &self.cache {
                cache.store_raw(
                    &job.fingerprint,
                    SPEC_RESULT_KIND,
                    Value::Object(vec![
                        ("report".into(), Value::Str(run.report.clone())),
                        ("cell".into(), Serialize::serialize(&run.cell)),
                    ]),
                );
            }
            self.store_trace(&job.fingerprint, &spec);
        }
        Ok(JobOutput {
            report: run.report,
            cell: run.cell,
        })
    }

    fn trace(&self, fingerprint: &str) -> Option<String> {
        // Only a canonical fingerprint names a cache entry: the cache
        // joins the key onto its directory, so an absolute or `../`
        // path would reach files outside it.
        if Fingerprint::parse_hex(fingerprint)?.to_hex() != fingerprint {
            return None;
        }
        let cache = self.cache.as_ref()?;
        let payload = cache.lookup_raw(&trace_key(fingerprint), TRACE_RESULT_KIND)?;
        serde_json::to_string(&payload).ok()
    }

    fn cache_store_errors(&self) -> u64 {
        self.cache.as_ref().map_or(0, |cache| cache.store_errors())
    }

    fn expand(&self, body: &str) -> Result<Vec<String>, String> {
        let v = serde_json::parse_value(body.trim()).map_err(|e| format!("sweep: {e}"))?;
        let Some(sweep) = v.get("sweep") else {
            return Err("sweep template must carry a \"sweep\" key".into());
        };
        // Explicit form: {"sweep": [body, body, ...]}.
        if let Some(items) = sweep.as_array() {
            return items
                .iter()
                .map(|item| serde_json::to_string(item).map_err(|e| format!("sweep item: {e}")))
                .collect();
        }
        // Template form: {"sweep": {"base": SPEC, "ratios": [..],
        // "schedulers": [..]}} — the cross product over a consolidation
        // base spec.
        let Some(base) = sweep.get("base") else {
            return Err("sweep template needs \"base\" (a spec) or an array of bodies".into());
        };
        let base: ScenarioSpec =
            Deserialize::deserialize(base).map_err(|e| format!("sweep base: {e}"))?;
        let ratios: Vec<u32> = match sweep.get("ratios") {
            None => vec![base.topology.vms],
            Some(r) => r
                .as_array()
                .ok_or("\"ratios\" must be an array")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as u32)
                        .ok_or("ratios must be integers")
                })
                .collect::<Result<_, _>>()?,
        };
        let scheds: Vec<SchedPolicy> = match sweep.get("schedulers") {
            None => vec![base.scheduler],
            Some(s) => s
                .as_array()
                .ok_or("\"schedulers\" must be an array")?
                .iter()
                .map(|v| {
                    let name = v.as_str().ok_or("schedulers must be strings")?;
                    SchedPolicy::parse(name).map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?,
        };
        let mut out = Vec::with_capacity(ratios.len() * scheds.len());
        for &sched in &scheds {
            for &ratio in &ratios {
                let mut spec = base.clone();
                spec.topology = TopologySpec::consolidation(ratio);
                spec.scheduler = sched;
                spec.shape().map_err(|e| format!("sweep cell: {e}"))?;
                out.push(
                    serde_json::to_string(Serialize::serialize(&spec))
                        .map_err(|e| format!("sweep cell: {e}"))?,
                );
            }
        }
        Ok(out)
    }
}

/// A failed attempt as the server classifies it: never transient. A
/// spec run is a pure function of its spec (a chaos probe of its kind),
/// so a retry would fail the same way; panics, watchdog trips and typed
/// errors alike fail fast and feed the circuit breaker.
fn job_failure(f: ScenarioFailure) -> JobFailure {
    JobFailure {
        kind: f.kind,
        detail: f.detail,
        transient: false,
    }
}

/// Runs one chaos probe as a runner scenario and maps the classified
/// outcome to a job result.
fn run_chaos(kind: ChaosKind) -> Result<JobOutput, JobFailure> {
    let cfg = RunnerConfig {
        watchdog: CHAOS_WATCHDOG,
        ..RunnerConfig::default()
    };
    let mut results = runner::run_scenarios_with(&[Scenario::Chaos(kind)], 1, &cfg)
        .expect("one job is a valid job count");
    let result = results.remove(0);
    let cell = result.cell_report();
    result.outcome.map_err(job_failure).map(|_| JobOutput {
        report: format!("chaos-{} survived its run\n", kind.name()),
        cell,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{run_trace, traced_chains, ParsedTrace};
    use hvx_core::{HvKind, Workload};
    use hvx_engine::{FaultPlan, FaultPoint};

    fn scratch_dir(tag: u32) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hvx-service-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stored_trace_matches_the_exported_trace_derivation() {
        // The stored chains come from the in-memory flow tracer; they
        // must equal what `trace query` derives from the exported file.
        let dir = scratch_dir(line!());
        let exec = SuiteExecutor::new(Some(Arc::new(ResultCache::open(&dir).unwrap())));
        for (kind, total) in [(HvKind::KvmArm, 80), (HvKind::XenArm, 160)] {
            let mut spec = ScenarioSpec::paper(kind);
            spec.workload = Some(Workload::TcpRr);
            let fp = cache::spec_fingerprint(&spec).to_hex();
            exec.store_trace(&fp, &spec);
            let stored = serde_json::parse_value(&exec.trace(&fp).expect("stored")).unwrap();

            let parsed = ParsedTrace::parse(&run_trace(&spec, None).unwrap().json).unwrap();
            let mut chains = parsed.chains();
            assert_eq!(chains.len(), total, "{kind}");
            chains.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.id.cmp(&b.id)));
            chains.truncate(MAX_STORED_CHAINS);
            let hop = |h: &crate::trace::QFlowPoint| {
                Value::Object(vec![
                    ("ph".into(), Value::Str(h.ph.clone())),
                    ("ts".into(), Value::U64(h.ts)),
                    ("tid".into(), Value::U64(h.tid)),
                    ("hop".into(), Value::Str(h.hop.clone())),
                ])
            };
            let expected: Vec<Value> = chains
                .iter()
                .map(|c| {
                    Value::Object(vec![
                        ("kind".into(), Value::Str(c.kind.clone())),
                        ("id".into(), Value::U64(c.id)),
                        ("complete".into(), Value::Bool(c.complete)),
                        ("latency_cycles".into(), Value::U64(c.latency)),
                        (
                            "hops".into(),
                            Value::Array(c.hops.iter().map(hop).collect()),
                        ),
                    ])
                })
                .collect();
            assert_eq!(stored["chains"], Value::Array(expected), "{kind}");
            assert_eq!(stored["scenario"], spec_run::paper_name(&spec).as_str());
            assert_eq!(stored["fingerprint"], fp.as_str());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_trace_runs_the_served_spec() {
        // A fault-armed spec served through the executor stores the
        // chains of a traced run of that spec, wire drops included.
        let dir = scratch_dir(line!());
        let exec = SuiteExecutor::new(Some(Arc::new(ResultCache::open(&dir).unwrap())));
        let clean = ScenarioSpec::paper(HvKind::KvmArm).with_workload(Workload::TcpRr);
        let mut spec = clean.clone();
        spec.set_fault_plan(&FaultPlan::new(7).with_rate(FaultPoint::WireDrop, 0.2));
        let job = exec
            .prepare(&serde_json::to_string(Serialize::serialize(&spec)).unwrap())
            .unwrap();
        exec.run(&job).unwrap();
        let stored =
            serde_json::parse_value(&exec.trace(&job.fingerprint).expect("stored")).unwrap();
        let faulted = ranked_chains(traced_chains(&spec).unwrap());
        assert_eq!(stored["chains"], faulted);
        assert_ne!(
            faulted,
            ranked_chains(traced_chains(&clean).unwrap()),
            "wire drops must show in the chains"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_lookup_refuses_keys_that_leave_the_cache() {
        let root = scratch_dir(line!());
        let outside = root.join("outside");
        std::fs::create_dir_all(&outside).unwrap();
        let cache = Arc::new(ResultCache::open(&root.join("cache")).unwrap());
        let exec = SuiteExecutor::new(Some(Arc::clone(&cache)));
        // Valid-looking stored traces planted beside, not inside, the
        // cache directory: one reached by an absolute path, one by `..`.
        let absolute = outside.join("evil").to_string_lossy().into_owned();
        for (key, file) in [
            (absolute.as_str(), "evil-trace.json"),
            ("../outside/rel", "rel-trace.json"),
        ] {
            let entry = Value::Object(vec![
                (
                    "schema".into(),
                    Value::U64(u64::from(cache::SCHEMA_VERSION)),
                ),
                ("fingerprint".into(), Value::Str(trace_key(key))),
                ("kind".into(), Value::Str(TRACE_RESULT_KIND.into())),
                (
                    "payload".into(),
                    Value::Object(vec![("chains".into(), Value::Array(vec![]))]),
                ),
            ]);
            std::fs::write(outside.join(file), serde_json::to_string(&entry).unwrap()).unwrap();
            assert!(exec.trace(key).is_none(), "{key} escaped the cache");
        }
        // A canonical fingerprint inside the cache still answers; a
        // non-canonical spelling of it does not.
        let fp = "0123456789abcdef0123456789abcdef";
        cache.store_raw(
            &trace_key(fp),
            TRACE_RESULT_KIND,
            Value::Object(vec![("chains".into(), Value::Array(vec![]))]),
        );
        assert!(exec.trace(fp).is_some());
        assert!(exec.trace(&fp.to_uppercase()).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    fn spec_body(ratio: u32, txns: u32) -> String {
        let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, ratio, SchedPolicy::Credit);
        spec.transactions = Some(txns);
        serde_json::to_string(Serialize::serialize(&spec)).unwrap()
    }

    #[test]
    fn prepare_classifies_specs_and_chaos_and_rejects_garbage() {
        let exec = SuiteExecutor::new(None);
        let spec = exec.prepare(&spec_body(8, 8)).unwrap();
        assert_eq!(spec.label, "KVM ARM consolidation 8:1");
        assert_eq!(spec.weight, 9);
        assert!(spec.cacheable);
        assert_eq!(spec.fingerprint.len(), 32);

        let chaos = exec.prepare("{\"chaos\": \"panic\"}").unwrap();
        assert_eq!(chaos.label, "chaos-panic");
        assert!(!chaos.cacheable);
        assert_eq!(chaos.weight, 1);

        assert!(exec.prepare("{\"chaos\": \"explode\"}").is_err());
        assert!(exec.prepare("not json").is_err());
        // A structurally valid spec with an impossible topology.
        let mut bad = ScenarioSpec::paper(HvKind::KvmArm);
        bad.topology.vcpus_per_vm = 3;
        let body = serde_json::to_string(Serialize::serialize(&bad)).unwrap();
        assert!(exec.prepare(&body).is_err());
    }

    #[test]
    fn run_matches_direct_spec_run_and_caches() {
        let dir = std::env::temp_dir().join(format!(
            "hvx-service-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        let exec = SuiteExecutor::new(Some(Arc::clone(&cache)));

        let body = spec_body(4, 8);
        let job = exec.prepare(&body).unwrap();
        assert!(exec.lookup(&job).is_none(), "cold cache");
        let out = exec.run(&job).unwrap();
        let direct = spec_run::run_spec(&spec_run::parse(&body).unwrap()).unwrap();
        assert_eq!(out.report, direct, "server path is byte-identical");
        assert!(!out.cell.cached);

        // The run stored the result: lookup now serves it, marked
        // cached, with the identical report bytes.
        let warm = exec.lookup(&job).expect("stored after run");
        assert_eq!(warm.report, direct);
        assert!(warm.cell.cached);
        assert_eq!(
            warm.cell.fingerprint.as_deref(),
            Some(job.fingerprint.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_probes_fail_typed_without_killing_the_caller() {
        let exec = SuiteExecutor::new(None);
        let job = exec.prepare("{\"chaos\": \"panic\"}").unwrap();
        let failure = exec.run(&job).unwrap_err();
        assert_eq!(failure.kind, ScenarioFailureKind::Panicked);
        assert!(!failure.transient, "a deterministic panic fails fast");
        assert!(exec.lookup(&job).is_none(), "chaos is never cached");
    }

    #[test]
    fn sweeps_expand_both_forms_and_validate_cells() {
        let exec = SuiteExecutor::new(None);
        // Explicit list form.
        let body = format!(
            "{{\"sweep\": [{}, {}]}}",
            spec_body(2, 4),
            "{\"chaos\": \"panic\"}"
        );
        let items = exec.expand(&body).unwrap();
        assert_eq!(items.len(), 2);
        assert!(exec.prepare(&items[0]).unwrap().cacheable);
        assert!(!exec.prepare(&items[1]).unwrap().cacheable);

        // Cross-product template form.
        let body = format!(
            "{{\"sweep\": {{\"base\": {}, \"ratios\": [2, 4, 8], \
             \"schedulers\": [\"credit\", \"cfs\"]}}}}",
            spec_body(2, 4)
        );
        let items = exec.expand(&body).unwrap();
        assert_eq!(items.len(), 6);
        let labels: Vec<String> = items
            .iter()
            .map(|b| exec.prepare(b).unwrap().label)
            .collect();
        assert!(labels.contains(&"KVM ARM consolidation 8:1".to_string()));
        // All six cells are distinct fingerprints (no accidental dupes).
        let mut fps: Vec<String> = items
            .iter()
            .map(|b| exec.prepare(b).unwrap().fingerprint)
            .collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), 6);

        assert!(exec.expand("{\"nope\": 1}").is_err());
        assert!(exec
            .expand("{\"sweep\": {\"base\": {\"hypervisor\": \"KvmArm\"}}}")
            .is_err());
    }
}
