//! Parallel scenario runner for the full artifact matrix.
//!
//! Every artifact `hvx-repro` regenerates decomposes into independent
//! **scenarios**: each Figure 4 workload×hypervisor cell is one scenario
//! (36 of them), and each table/ablation is one more. Scenarios share no
//! state — every one constructs its own hypervisor models and machine —
//! so they can fan out across OS threads, and because each scenario is
//! individually deterministic, the assembled artifacts are **byte-for-
//! byte identical** no matter how many workers ran them. The runner
//! guarantees this structurally: results land in per-scenario slots
//! indexed by plan position, and assembly reads the slots in plan order.
//!
//! Three mechanisms live here once for the whole harness:
//! * `isolate`, the guard every scenario (and every sweep-server job)
//!   runs under: ambient fault plan and watchdog, `catch_unwind`, and a
//!   typed [`ScenarioFailure`] for panics, watchdog trips and errors;
//! * the worker pool, heaviest first with results in input order, that
//!   fans out runner scenarios and `hvx-repro profile` runs alike;
//! * the fold [`assemble`] applies to each artifact's slice of results.
//!   It sums wall time and transitions, and degrades a failed scenario
//!   to an n/a gap (or an unavailable artifact) plus `!!` warning lines
//!   instead of aborting the artifact.
//!
//! ```
//! use hvx_suite::runner::{self, ArtifactId};
//!
//! let plan = runner::plan(&[ArtifactId::Table3]);
//! let serial = runner::assemble(&[ArtifactId::Table3], &runner::run_scenarios(&plan, 1)?)?;
//! let parallel = runner::assemble(&[ArtifactId::Table3], &runner::run_scenarios(&plan, 4)?)?;
//! assert_eq!(serial[0].json, parallel[0].json);
//! # Ok::<(), hvx_core::Error>(())
//! ```

use crate::{ablations, consolidation, fig4, micro, netperf, paper, rack, table3, workloads};
use hvx_core::{
    Error, HvKind, Hypervisor, KvmArm, ScenarioFailureKind, SchedPolicy, VirqPolicy, Workload,
};
use hvx_engine::{fault, Cycles, EventQueue, FaultPlan, TraceKind, Watchdog};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Iterations used for the Table II microbenchmark sweep.
pub const TABLE2_ITERS: usize = 10;
/// Transactions used for the Table V netperf decomposition.
pub const TABLE5_TRANSACTIONS: usize = 50;

/// One reproducible artifact of the paper, in `hvx-repro` output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactId {
    /// Table II: microbenchmark cycle counts.
    Table2,
    /// Table III: KVM ARM hypercall breakdown.
    Table3,
    /// Table V: netperf TCP_RR decomposition.
    Table5,
    /// Figure 4: application benchmark overheads.
    Fig4,
    /// §V interrupt-distribution ablation.
    Irq,
    /// §VI VHE projection.
    Vhe,
    /// §V zero-copy trade.
    ZeroCopy,
    /// §III link-speed observation.
    Link,
    /// §IV vAPIC note.
    Vapic,
    /// §III devices: storage ablation.
    Storage,
    /// Table I motivation: oversubscription sweep.
    Oversub,
    /// Fault-injection & recovery loss sweep.
    FaultRec,
    /// Rack-scale TCP_RR over the sharded multi-host engine.
    Rack,
}

impl ArtifactId {
    /// Every artifact, in the order `hvx-repro` prints them.
    pub const ALL: [ArtifactId; 13] = [
        ArtifactId::Table2,
        ArtifactId::Table3,
        ArtifactId::Table5,
        ArtifactId::Fig4,
        ArtifactId::Irq,
        ArtifactId::Vhe,
        ArtifactId::ZeroCopy,
        ArtifactId::Link,
        ArtifactId::Vapic,
        ArtifactId::Storage,
        ArtifactId::Oversub,
        ArtifactId::FaultRec,
        ArtifactId::Rack,
    ];

    /// The CLI name (`hvx-repro [ARTIFACT...]`).
    pub fn cli_name(self) -> &'static str {
        NAMES[self as usize][0]
    }

    /// The JSON export file stem (`<stem>.json`).
    pub fn json_name(self) -> &'static str {
        NAMES[self as usize][1]
    }

    /// Parses a CLI artifact name.
    pub fn parse(s: &str) -> Option<ArtifactId> {
        ArtifactId::ALL.into_iter().find(|a| a.cli_name() == s)
    }

    /// The artifact's text section: banner, blank line, `body`, blank
    /// line.
    fn section(self, body: &str) -> String {
        format!("{}\n\n{body}\n", NAMES[self as usize][2])
    }
}

/// Each artifact's names, in declaration (= [`ArtifactId::ALL`]) order:
/// its CLI token, its JSON export stem, and the `== ... ==` banner its
/// text section opens with.
#[rustfmt::skip]
const NAMES: [[&str; 3]; 13] = [
    ["table2",   "table2",           "== Table II: microbenchmark cycle counts =="],
    ["table3",   "table3",           "== Table III: KVM ARM hypercall breakdown =="],
    ["table5",   "table5",           "== Table V: netperf TCP_RR decomposition =="],
    ["fig4",     "fig4",             "== Figure 4: application benchmarks =="],
    ["irq",      "irq_distribution", "== Section V: interrupt-distribution ablation =="],
    ["vhe",      "vhe",              "== Section VI: VHE projection =="],
    ["zerocopy", "zero_copy",        "== Section V: zero-copy trade =="],
    ["link",     "link_speed",       "== Section III: link-speed observation =="],
    ["vapic",    "vapic",            "== Section IV: vAPIC note =="],
    ["storage",  "storage",          "== Section III devices: storage ablation =="],
    ["oversub",  "oversubscription", "== Table I motivation: oversubscription sweep =="],
    ["faultrec", "fault_recovery",   "== Ablation: fault injection & recovery =="],
    ["rack",     "rack",             "== Rack: multi-host TCP_RR on the sharded engine =="],
];

/// One independent unit of measurement work. A cell is named as a spec
/// names it: by its workload and its hypervisor kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A single-scenario artifact: a table or an ablation (for
    /// [`ArtifactId::Oversub`], its analytic sweep; the simulated grid
    /// is one [`Scenario::ConsolidationCell`] per cell). Tables run at
    /// [`TABLE2_ITERS`] and [`TABLE5_TRANSACTIONS`].
    Artifact(ArtifactId),
    /// One Figure 4 cell: `workload` on `kind`.
    Fig4Cell {
        /// The workload.
        workload: Workload,
        /// The hypervisor configuration.
        kind: HvKind,
    },
    /// One consolidation-sweep cell: `kind` at `ratio`:1 vCPU:pCPU
    /// oversubscription under `sched`.
    ConsolidationCell {
        /// The hypervisor configuration.
        kind: HvKind,
        /// vCPU:pCPU ratio (= VMs sharing the pCPU pair).
        ratio: u32,
        /// The hypervisor vCPU scheduler.
        sched: SchedPolicy,
    },
    /// One rack cell: `hosts` servers in a TCP_RR ring under the given
    /// per-host hypervisor composition, run on the sharded engine.
    RackCell {
        /// Hosts in the ring.
        hosts: u32,
        /// Per-host hypervisor assignment.
        composition: rack::Composition,
    },
    /// A deliberately misbehaving scenario for exercising the runner's
    /// isolation machinery. Never emitted by [`plan`]; injected only via
    /// [`RunnerConfig::chaos`] (the CLI's `--chaos`) and tests.
    Chaos(ChaosKind),
}

/// How a [`Scenario::Chaos`] scenario misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Panics outright.
    Panic,
    /// Charges ~2×10¹² simulated cycles while burning ~0.1 s of wall
    /// clock — trips cycle budgets and wall-clock timeouts.
    Spin,
    /// Issues a long run of zero-cost charges that advance no clock —
    /// trips the livelock detector.
    Livelock,
}

impl ChaosKind {
    /// The CLI name (`--chaos NAME`).
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::Panic => "panic",
            ChaosKind::Spin => "spin",
            ChaosKind::Livelock => "livelock",
        }
    }

    /// Parses a `--chaos` argument.
    pub fn parse(s: &str) -> Option<ChaosKind> {
        [ChaosKind::Panic, ChaosKind::Spin, ChaosKind::Livelock]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

impl Scenario {
    /// Rough relative cost, used to schedule heavier scenarios first so
    /// stragglers don't serialize the tail of a parallel run.
    fn weight(self) -> u64 {
        match self {
            Scenario::Artifact(ArtifactId::Table2) => 40 + TABLE2_ITERS as u64,
            Scenario::Artifact(ArtifactId::Table5) => 10 + TABLE5_TRANSACTIONS as u64 / 5,
            Scenario::Artifact(ArtifactId::Oversub) => 15,
            Scenario::Artifact(ArtifactId::FaultRec) => 20,
            Scenario::Artifact(_) => 5,
            Scenario::Fig4Cell { .. } => 25,
            // Contended cells interpret 2×ratio vCPUs; cost scales
            // roughly with the ratio.
            Scenario::ConsolidationCell { ratio, .. } => 5 + u64::from(ratio) / 2,
            // Work grows with hosts² (each of H×N tokens laps H hosts).
            Scenario::RackCell { hosts, .. } => 10 + u64::from(hosts) * u64::from(hosts),
            Scenario::Chaos(_) => 1,
        }
    }

    /// A short human-readable name for failure reports.
    pub fn label(self) -> String {
        match self {
            Scenario::Artifact(a) => a.cli_name().to_string(),
            Scenario::Fig4Cell { workload, kind } => format!("fig4[{workload}/{kind}]"),
            Scenario::ConsolidationCell { kind, ratio, sched } => {
                format!("oversub[{kind}/{ratio}:1/{sched}]")
            }
            Scenario::RackCell { hosts, composition } => {
                format!("rack[{hosts}h/{}]", composition.name())
            }
            Scenario::Chaos(k) => format!("chaos-{}", k.name()),
        }
    }

    /// Executes the scenario. Self-contained and deterministic: all
    /// state is constructed here, so concurrent executions cannot
    /// interact.
    ///
    /// # Errors
    ///
    /// A malformed configuration or workload surfaces as a typed
    /// [`Error`] instead of a panic ([`Error::UnknownScenario`] for
    /// `Artifact(Fig4)` and `Artifact(Rack)`, which are cells, not one
    /// scenario); [`run_scenarios`] degrades it to a marked failed
    /// cell.
    pub fn execute(self) -> Result<Output, Error> {
        Ok(match self {
            Scenario::Artifact(id) => match id {
                ArtifactId::Table2 => Output::Table2(micro::Table2::measure(TABLE2_ITERS)?),
                ArtifactId::Table3 => Output::Table3(table3::Table3::measure()?),
                ArtifactId::Table5 => {
                    Output::Table5(Box::new(netperf::Table5::measure(TABLE5_TRANSACTIONS)?))
                }
                ArtifactId::Irq => Output::Irq(ablations::irq_distribution()?),
                ArtifactId::Vhe => Output::Vhe(ablations::vhe()?),
                ArtifactId::ZeroCopy => Output::ZeroCopy(ablations::zero_copy()?),
                ArtifactId::Link => Output::Link(ablations::link_speed()?),
                ArtifactId::Vapic => Output::Vapic(ablations::vapic()?),
                ArtifactId::Storage => Output::Storage(ablations::storage()?),
                ArtifactId::Oversub => Output::Oversub(ablations::oversubscription()),
                ArtifactId::FaultRec => Output::FaultRec(ablations::fault_recovery()?),
                ArtifactId::Fig4 | ArtifactId::Rack => {
                    return Err(Error::UnknownScenario {
                        name: id.cli_name().to_string(),
                    })
                }
            },
            Scenario::Fig4Cell { workload, kind } => {
                Output::Fig4Cell(fig4::measure_bar(workload, kind, VirqPolicy::Vcpu0)?)
            }
            Scenario::ConsolidationCell { kind, ratio, sched } => {
                Output::Consolidation(consolidation::run_cell(
                    kind,
                    ratio,
                    sched,
                    consolidation::TRANSACTIONS_PER_VM,
                    workloads::compile_enabled(),
                )?)
            }
            Scenario::RackCell { hosts, composition } => {
                Output::Rack(rack::run_cell(composition, hosts)?)
            }
            Scenario::Chaos(ChaosKind::Panic) => {
                panic!("chaos: deliberate panic for isolation testing")
            }
            Scenario::Chaos(ChaosKind::Spin) => {
                let mut hv = KvmArm::new();
                for _ in 0..200 {
                    hv.guest_compute(0, Cycles::new(10_000_000_000));
                    std::thread::sleep(Duration::from_micros(500));
                }
                Output::Chaos
            }
            Scenario::Chaos(ChaosKind::Livelock) => {
                let mut hv = KvmArm::new();
                let core = hv.machine().topology().guest_core(0);
                for _ in 0..200_000 {
                    hv.machine_mut()
                        .charge(core, "chaos:livelock", TraceKind::Guest, Cycles::ZERO);
                }
                Output::Chaos
            }
        })
    }
}

/// What a [`Scenario`] produced.
#[derive(Debug, Clone)]
pub enum Output {
    /// Table II result.
    Table2(micro::Table2),
    /// Table III result.
    Table3(table3::Table3),
    /// Table V result (boxed: by far the largest payload).
    Table5(Box<netperf::Table5>),
    /// One Figure 4 cell (`None` = unrunnable combination).
    Fig4Cell(Option<f64>),
    /// Interrupt-distribution rows.
    Irq(Vec<ablations::IrqDistributionRow>),
    /// VHE projection.
    Vhe(ablations::VheProjection),
    /// Zero-copy analysis.
    ZeroCopy(ablations::ZeroCopyAnalysis),
    /// Link-speed ablation.
    Link(ablations::LinkSpeedAblation),
    /// vAPIC ablation.
    Vapic(ablations::VapicAblation),
    /// Storage ablation.
    Storage(ablations::StorageAblation),
    /// Oversubscription sweep (the analytic credit-scheduler model).
    Oversub(ablations::OversubscriptionAblation),
    /// One simulated consolidation cell.
    Consolidation(consolidation::CellResult),
    /// One simulated rack cell.
    Rack(rack::CellResult),
    /// Fault-recovery sweep.
    FaultRec(ablations::FaultRecoveryAblation),
    /// A chaos scenario that (unexpectedly) survived.
    Chaos,
}

/// Why a scenario failed instead of producing an [`Output`]: the same
/// typed record a [`CellReport`](hvx_core::report::CellReport) carries
/// on the wire.
pub use hvx_core::report::FailureReport as ScenarioFailure;

/// A completed scenario with its wall-clock cost.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// What ran.
    pub scenario: Scenario,
    /// What it produced — or why it failed. A failed scenario never
    /// poisons the run: its siblings complete and the artifact renders
    /// with the failed cell marked.
    pub outcome: Result<Output, ScenarioFailure>,
    /// How long it took on the host.
    pub wall: Duration,
    /// Simulated transitions this scenario charged (every
    /// [`Machine::charge`] call, whether interpreted or bulk-replayed
    /// by the loop compiler). Zero for cache hits — nothing simulated.
    ///
    /// [`Machine::charge`]: hvx_engine::Machine::charge
    pub transitions: u64,
    /// Always 0: the runner runs each scenario once (the sweep server
    /// retries jobs itself and reports its own count). The field stays
    /// only because the benchmark in `perfbench/` builds this literal; it
    /// goes with the next change to that benchmark.
    pub retries: u32,
    /// Content fingerprint of the scenario's full input closure, or
    /// `None` for uncacheable scenarios (chaos injections).
    pub fingerprint: Option<hvx_engine::Fingerprint>,
    /// Whether the outcome was served from the content-addressed cache
    /// instead of being simulated.
    pub cached: bool,
}

impl ScenarioResult {
    /// The structured per-cell record for this result — what the sweep
    /// server and `hvx-repro run --out json` put on the wire.
    pub fn cell_report(&self) -> hvx_core::report::CellReport {
        hvx_core::report::CellReport {
            scenario: self.scenario.label(),
            fingerprint: self.fingerprint.map(hvx_engine::Fingerprint::to_hex),
            retries: self.retries,
            cached: self.cached,
            failure: self.outcome.as_ref().err().cloned(),
        }
    }
}

/// Shared configuration for one runner invocation: the fault plan and
/// watchdog installed around every scenario, an optional wall-clock
/// budget, and any chaos scenarios to inject. The default is inert —
/// no faults, no limits — and leaves every artifact byte-identical.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Deterministic fault plan ambient during every scenario.
    pub fault_plan: Option<FaultPlan>,
    /// Simulated-cycle budget and livelock detector.
    pub watchdog: Watchdog,
    /// Host wall-clock budget per scenario. The simulation itself is
    /// aborted by the (in-band) cycle budget; this classifies scenarios
    /// that exceeded the wall allowance as timed out after the fact.
    pub wall_timeout: Option<Duration>,
    /// Chaos scenarios appended to the plan (isolation smoke tests).
    pub chaos: Vec<ChaosKind>,
    /// Content-addressed result cache. When set, every cacheable
    /// scenario is looked up by its input [`Fingerprint`] before
    /// running and stored after a clean run, so warm reruns skip
    /// unchanged cells entirely (see [`crate::cache`]).
    ///
    /// [`Fingerprint`]: hvx_engine::Fingerprint
    pub cache: Option<std::sync::Arc<crate::cache::ResultCache>>,
}

/// Expands the requested artifacts (in the given order) into the flat
/// scenario plan: tables and ablations are one scenario each, Figure 4
/// fans out into one scenario per cell.
pub fn plan(artifacts: &[ArtifactId]) -> Vec<Scenario> {
    let mut out = Vec::new();
    for &a in artifacts {
        match a {
            ArtifactId::Fig4 => {
                for workload in Workload::ALL {
                    for kind in paper::COLUMNS {
                        out.push(Scenario::Fig4Cell { workload, kind });
                    }
                }
            }
            ArtifactId::Oversub => {
                // The analytic sweep first, then the simulated
                // consolidation grid: scheduler × hypervisor × ratio,
                // in render order.
                out.push(Scenario::Artifact(a));
                for sched in SchedPolicy::ALL {
                    for kind in paper::COLUMNS {
                        for ratio in consolidation::RATIOS {
                            out.push(Scenario::ConsolidationCell { kind, ratio, sched });
                        }
                    }
                }
            }
            ArtifactId::Rack => {
                // Hosts × composition, in render order.
                for hosts in rack::HOST_COUNTS {
                    for composition in rack::Composition::ALL {
                        out.push(Scenario::RackCell { hosts, composition });
                    }
                }
            }
            single => out.push(Scenario::Artifact(single)),
        }
    }
    out
}

/// Maps a caught panic payload to a typed failure: the watchdog's
/// typed payloads classify as timeouts/livelocks, everything else as a
/// panic with its message.
fn classify_panic(payload: &(dyn std::any::Any + Send)) -> ScenarioFailure {
    let (kind, detail) = if let Some(e) = payload.downcast_ref::<fault::CycleBudgetExceeded>() {
        (ScenarioFailureKind::TimedOut, e.to_string())
    } else if let Some(e) = payload.downcast_ref::<fault::Livelocked>() {
        (ScenarioFailureKind::Livelocked, e.to_string())
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (ScenarioFailureKind::Panicked, (*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (ScenarioFailureKind::Panicked, s.clone())
    } else {
        (
            ScenarioFailureKind::Panicked,
            "non-string panic payload".to_string(),
        )
    };
    ScenarioFailure { kind, detail }
}

/// The harness's one isolation guard. Runs `f` with `fault_plan` and
/// `watchdog` ambient, so machines built anywhere inside it pick them
/// up, and under `catch_unwind`. A panic comes back classified (a
/// watchdog trip as timed out or livelocked, anything else as
/// panicked) and a typed error as [`ScenarioFailureKind::Failed`]. The
/// ambient guard restores on unwind, so a tripped run cannot leak its
/// plan into the next one on the same thread. Every runner scenario and
/// every sweep-server job ([`crate::service`]) runs through it.
pub(crate) fn isolate<T>(
    fault_plan: Option<FaultPlan>,
    watchdog: Watchdog,
    f: impl FnOnce() -> Result<T, Error>,
) -> Result<T, ScenarioFailure> {
    let _ambient = fault::install_ambient(fault_plan, watchdog);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(ScenarioFailure {
            kind: ScenarioFailureKind::Failed,
            detail: e.to_string(),
        }),
        Err(payload) => Err(classify_panic(payload.as_ref())),
    }
}

fn run_one(scenario: Scenario, cfg: &RunnerConfig) -> ScenarioResult {
    let start = Instant::now();
    let fingerprint = crate::cache::scenario_fingerprint(scenario, cfg);
    if let Some(output) = cfg.cache.as_ref().and_then(|c| c.lookup(scenario, cfg)) {
        return ScenarioResult {
            scenario,
            outcome: Ok(output),
            wall: start.elapsed(),
            transitions: 0,
            retries: 0,
            fingerprint,
            cached: true,
        };
    }
    let before = hvx_engine::thread_transitions();
    let outcome = isolate(cfg.fault_plan.clone(), cfg.watchdog, || scenario.execute());
    let wall = start.elapsed();
    let transitions = hvx_engine::thread_transitions() - before;
    // A scenario that returned (a value or a typed error) rather than
    // unwound, but past the wall budget, is classified as timed out
    // after the fact.
    let unwound = matches!(&outcome, Err(f) if f.kind != ScenarioFailureKind::Failed);
    let outcome = match cfg.wall_timeout {
        Some(limit) if !unwound && wall > limit => Err(ScenarioFailure {
            kind: ScenarioFailureKind::TimedOut,
            detail: format!(
                "wall clock {:.3}s exceeded the {:.3}s budget",
                wall.as_secs_f64(),
                limit.as_secs_f64()
            ),
        }),
        _ => outcome,
    };
    if let Err(failure) = &outcome {
        if matches!(
            failure.kind,
            ScenarioFailureKind::TimedOut | ScenarioFailureKind::Livelocked
        ) {
            // Watchdog trips are deterministic under a fixed config:
            // worth a structured record.
            hvx_obs::log::error(
                "runner",
                "watchdog_tripped",
                &[
                    ("scenario", hvx_obs::LogValue::from(scenario.label())),
                    ("kind", hvx_obs::LogValue::from(failure.kind.to_string())),
                    ("detail", hvx_obs::LogValue::from(failure.detail.as_str())),
                ],
            );
        }
    }
    if let (Some(cache), Ok(output)) = (&cfg.cache, &outcome) {
        cache.store(scenario, cfg, output);
    }
    ScenarioResult {
        scenario,
        outcome,
        wall,
        transitions,
        retries: 0,
        fingerprint,
        cached: false,
    }
}

/// Runs every scenario in `plan` on up to `jobs` OS threads and returns
/// the results **in plan order**, with the default (inert) config.
///
/// Scenarios fan out through the harness's one worker pool, which
/// writes each result into the slot of its plan index, so the returned
/// vector — and everything assembled from it — is identical to a serial
/// run regardless of completion order.
///
/// # Errors
///
/// [`Error::InvalidJobs`] if `jobs == 0`. A panicking, over-budget, or
/// livelocked scenario is **not** an error here: it lands in its slot
/// as a failed [`ScenarioResult`] and every other scenario completes.
pub fn run_scenarios(plan: &[Scenario], jobs: usize) -> Result<Vec<ScenarioResult>, Error> {
    run_scenarios_with(plan, jobs, &RunnerConfig::default())
}

/// [`run_scenarios`] with an explicit [`RunnerConfig`]. Each scenario
/// runs under the runner's isolation guard, with the config's fault
/// plan and watchdog ambient.
///
/// # Errors
///
/// [`Error::InvalidJobs`] if `jobs == 0`.
pub fn run_scenarios_with(
    plan: &[Scenario],
    jobs: usize,
    cfg: &RunnerConfig,
) -> Result<Vec<ScenarioResult>, Error> {
    pool(plan, jobs, |s| s.weight(), |s| run_one(*s, cfg))
}

/// The harness's one worker pool: runs `run` on every item on up to
/// `jobs` OS threads and returns the results **in item order**.
///
/// `jobs == 1` (or a single item) runs inline on the caller's thread:
/// no threads, no locks. Otherwise workers pull from a shared queue,
/// heaviest `weight` first and FIFO among equals, so stragglers don't
/// serialize the tail, and write into the slot matching the item's
/// index. The result is therefore the same whatever order the workers
/// finish in. The pool isolates nothing: a panic in `run` propagates to
/// the caller (the runner isolates each scenario inside `run`).
///
/// # Errors
///
/// [`Error::InvalidJobs`] if `jobs == 0`.
pub(crate) fn pool<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    weight: impl Fn(&T) -> u64,
    run: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, Error> {
    if jobs == 0 {
        return Err(Error::InvalidJobs { jobs });
    }
    if jobs == 1 || items.len() <= 1 {
        return Ok(items.iter().map(run).collect());
    }
    // The work queue is the engine's own EventQueue: it pops the smallest
    // (when, seq) key, so scheduling at `MAX - weight` makes heavier
    // items come out first, FIFO among equals.
    let mut queue = EventQueue::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        queue.schedule(Cycles::new(u64::MAX - weight(item)), idx);
    }
    let queue = Mutex::new(queue);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                // The queue and slots hold plain data that is valid at
                // every instant, so a poisoned lock is recovered rather
                // than cascaded.
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
                let Some((_, idx)) = next else { break };
                let result = run(&items[idx]);
                *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    // The scope joined every worker, and re-raised the panic of any
    // worker that died, so every slot is filled here.
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every queued item ran")
        })
        .collect())
}

/// One assembled artifact: the exact text `hvx-repro` prints and the
/// exact JSON it exports, plus the summed wall-clock of its scenarios.
#[derive(Debug, Clone)]
pub struct ArtifactReport {
    /// Which artifact this is.
    pub id: ArtifactId,
    /// The full stdout block for this artifact (header included),
    /// byte-identical to what the pre-runner `hvx-repro` printed. When
    /// scenarios failed, the affected cells are marked and `!!` warning
    /// lines are appended — a fault-free run never carries them.
    pub text: String,
    /// Pretty-printed JSON export.
    pub json: String,
    /// Sum of the artifact's scenario wall-clocks.
    pub wall: Duration,
    /// Sum of the artifact's simulated transitions (zero when every
    /// scenario was a cache hit).
    pub transitions: u64,
    /// Scenarios of this artifact that failed: `(label, failure)`.
    /// Empty on a clean run.
    pub failures: Vec<(String, ScenarioFailure)>,
}

fn to_json<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    serde_json::to_string_pretty(value).map_err(|e| Error::Serialize {
        what: "artifact report",
        detail: e.to_string(),
    })
}

/// JSON shape exported for an artifact whose only scenario failed.
#[derive(Debug, serde::Serialize)]
struct FailedArtifact {
    scenario: String,
    failed: String,
    error: String,
}

/// JSON shape of the assembled rack artifact (`None` entries are
/// degraded cells).
#[derive(Debug, serde::Serialize)]
struct RackArtifact {
    cells: Vec<Option<rack::CellResult>>,
}

/// JSON shape of the assembled oversubscription artifact: the analytic
/// credit-scheduler model plus the simulated consolidation grid
/// (`None` entries are degraded cells).
#[derive(Debug, serde::Serialize)]
struct OversubArtifact {
    analytic: Option<ablations::OversubscriptionAblation>,
    cells: Vec<Option<consolidation::CellResult>>,
}

/// One artifact's slice of scenario results, folded once: each
/// scenario's output (`None` where it failed), the summed wall time and
/// transitions, and the failures with their labels.
struct Folded<'a> {
    outputs: Vec<Option<&'a Output>>,
    wall: Duration,
    transitions: u64,
    failures: Vec<(String, ScenarioFailure)>,
}

impl<'a> Folded<'a> {
    fn new(results: &'a [ScenarioResult]) -> Folded<'a> {
        let mut folded = Folded {
            outputs: Vec::with_capacity(results.len()),
            wall: Duration::ZERO,
            transitions: 0,
            failures: Vec::new(),
        };
        for r in results {
            folded.outputs.push(r.outcome.as_ref().ok());
            folded.wall += r.wall;
            folded.transitions += r.transitions;
            if let Err(f) = &r.outcome {
                folded.failures.push((r.scenario.label(), f.clone()));
            }
        }
        folded
    }

    /// Each output as the payload `want` accepts (`None` where the
    /// scenario failed). An output `want` rejects means the results do
    /// not follow the plan.
    fn cells<T>(
        outputs: &[Option<&'a Output>],
        want: impl Fn(&'a Output) -> Option<T>,
    ) -> Result<Vec<Option<T>>, Error> {
        outputs
            .iter()
            .enumerate()
            .map(|(got, o)| {
                o.map(|o| {
                    want(o).ok_or(Error::PlanMismatch {
                        expected: outputs.len(),
                        got,
                    })
                })
                .transpose()
            })
            .collect()
    }

    /// The `!!` lines that close a degraded multi-scenario artifact: the
    /// failed count in the artifact's own `wording`, then one line per
    /// failure. Empty when nothing failed.
    fn warnings(&self, wording: &str) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "!! {} of {} {wording}:\n",
            self.failures.len(),
            self.outputs.len()
        );
        for (label, failure) in &self.failures {
            out.push_str(&format!("!!   {label}: {failure}\n"));
        }
        out.push('\n');
        out
    }
}

/// Renders one artifact from its folded results as `(text, json)`. A
/// failed Figure 4, consolidation or rack cell degrades to a gap and a
/// `!!` line; a failed single-scenario artifact renders as unavailable.
fn render(id: ArtifactId, folded: &Folded) -> Result<(String, String), Error> {
    let outputs = folded.outputs.as_slice();
    Ok(match id {
        ArtifactId::Fig4 => {
            // A failed cell renders as the same n/a marker the paper's
            // missing Apache/Xen-x86 bar uses.
            let cells: Vec<Option<f64>> = Folded::cells(outputs, |o| match o {
                Output::Fig4Cell(c) => Some(*c),
                _ => None,
            })?
            .into_iter()
            .map(Option::flatten)
            .collect();
            let f = fig4::Figure4::from_cells(&cells);
            let text = format!(
                "{}\n{}{}",
                workloads::render_table4(),
                id.section(&f.render()),
                folded.warnings("cells failed and render as n/a")
            );
            (text, to_json(&f)?)
        }
        ArtifactId::Oversub => {
            // The analytic sweep, then the simulated consolidation grid:
            // scheduler × hypervisor × ratio, in plan order.
            let (analytic, grid) = outputs.split_at(1);
            let analytic = Folded::cells(analytic, |o| match o {
                Output::Oversub(a) => Some(a.clone()),
                _ => None,
            })?
            .remove(0);
            let cells = Folded::cells(grid, |o| match o {
                Output::Consolidation(c) => Some(c.clone()),
                _ => None,
            })?;
            let mut body = match &analytic {
                Some(a) => format!("{}\n", ablations::render_oversubscription(a)),
                None => "!! analytic sweep unavailable this run\n\n".to_string(),
            };
            body.push_str(&format!(
                "-- simulated consolidation: 2 pCPUs, N two-vCPU VMs, TCP_RR \
                 ({} txns/VM) --\n\n",
                consolidation::TRANSACTIONS_PER_VM
            ));
            let per_sched = cells.len() / SchedPolicy::ALL.len();
            let sweeps: Vec<String> = SchedPolicy::ALL
                .iter()
                .zip(cells.chunks(per_sched))
                .map(|(sched, slice)| consolidation::render_sweep(sched.name(), slice))
                .collect();
            body.push_str(&sweeps.join("\n"));
            let text = id.section(&body) + &folded.warnings("scenarios failed and render as n/a");
            (text, to_json(&OversubArtifact { analytic, cells })?)
        }
        ArtifactId::Rack => {
            let cells = Folded::cells(outputs, |o| match o {
                Output::Rack(c) => Some(c.clone()),
                _ => None,
            })?;
            let ok: Vec<rack::CellResult> = cells.iter().flatten().cloned().collect();
            let text = id.section(&rack::render_sweep(&ok))
                + &folded.warnings("cells failed and are omitted");
            (text, to_json(&RackArtifact { cells })?)
        }
        _ => match (outputs, folded.failures.first()) {
            ([Some(output)], _) => {
                let (body, json) = match output {
                    Output::Table2(t) => (
                        format!(
                            "{}\nworst residual: {:.1}%\n",
                            t.render(),
                            t.worst_error() * 100.0
                        ),
                        to_json(t)?,
                    ),
                    Output::Table3(t) => (t.render(), to_json(t)?),
                    Output::Table5(t) => (t.render(), to_json(t.as_ref())?),
                    Output::Irq(rows) => (ablations::render_irq_distribution(rows), to_json(rows)?),
                    Output::Vhe(p) => (ablations::render_vhe(p), to_json(p)?),
                    Output::ZeroCopy(z) => (ablations::render_zero_copy(z), to_json(z)?),
                    Output::Link(l) => (ablations::render_link_speed(l), to_json(l)?),
                    Output::Vapic(v) => (ablations::render_vapic(v), to_json(v)?),
                    Output::Storage(s) => (ablations::render_storage(s), to_json(s)?),
                    Output::FaultRec(f) => (ablations::render_fault_recovery(f), to_json(f)?),
                    Output::Fig4Cell(_)
                    | Output::Oversub(_)
                    | Output::Consolidation(_)
                    | Output::Rack(_)
                    | Output::Chaos => {
                        return Err(Error::PlanMismatch {
                            expected: 1,
                            got: 0,
                        })
                    }
                };
                (id.section(&body), json)
            }
            ([None], Some((label, f))) => (
                id.section(&format!(
                    "!! scenario '{label}' {f}\n!! artifact unavailable this run\n"
                )),
                to_json(&FailedArtifact {
                    scenario: label.clone(),
                    failed: f.kind.to_string(),
                    error: f.detail.clone(),
                })?,
            ),
            _ => {
                return Err(Error::PlanMismatch {
                    expected: 1,
                    got: outputs.len(),
                })
            }
        },
    })
}

/// Folds scenario results back into per-artifact reports. `artifacts`
/// must be the same list (same order) that produced the plan; results
/// must be in plan order, as returned by [`run_scenarios`]. Each
/// artifact's slice of the results is folded once, by one helper, into
/// its outputs, summed costs and `!!` failure lines.
///
/// # Errors
///
/// [`Error::PlanMismatch`] if `results` does not line up with the plan
/// of `artifacts`; [`Error::Serialize`] if a report fails to export.
pub fn assemble(
    artifacts: &[ArtifactId],
    results: &[ScenarioResult],
) -> Result<Vec<ArtifactReport>, Error> {
    let sizes: Vec<usize> = artifacts.iter().map(|a| plan(&[*a]).len()).collect();
    let expected = sizes.iter().sum();
    if results.len() != expected {
        return Err(Error::PlanMismatch {
            expected,
            got: results.len(),
        });
    }
    let mut rest = results;
    artifacts
        .iter()
        .zip(sizes)
        .map(|(&id, n)| {
            let (slice, tail) = rest.split_at(n);
            rest = tail;
            let folded = Folded::new(slice);
            let (text, json) = render(id, &folded)?;
            Ok(ArtifactReport {
                id,
                text,
                json,
                wall: folded.wall,
                transitions: folded.transitions,
                failures: folded.failures,
            })
        })
        .collect()
}

/// Convenience wrapper: plan, run with `jobs` workers, assemble.
///
/// # Errors
///
/// As for [`run_scenarios`] and [`assemble`].
pub fn run_artifacts(artifacts: &[ArtifactId], jobs: usize) -> Result<Vec<ArtifactReport>, Error> {
    run_artifacts_with(artifacts, jobs, &RunnerConfig::default()).map(|o| o.reports)
}

/// Everything one configured run produced: the assembled artifacts and
/// the outcomes of any injected chaos scenarios.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-artifact reports, in request order.
    pub reports: Vec<ArtifactReport>,
    /// Failures from [`RunnerConfig::chaos`] scenarios (which belong to
    /// no artifact). A chaos scenario that survives its run reports
    /// nothing.
    pub chaos_failures: Vec<(String, ScenarioFailure)>,
    /// One structured record per scenario, in plan order with chaos
    /// injections last — the machine-readable counterpart of the
    /// rendered artifact text (`hvx-repro run --out json`).
    pub cells: Vec<hvx_core::report::CellReport>,
}

impl RunOutcome {
    /// Every failure in the run — artifact scenarios first (request
    /// order), then chaos scenarios.
    pub fn failures(&self) -> Vec<(String, ScenarioFailure)> {
        let mut all: Vec<(String, ScenarioFailure)> = self
            .reports
            .iter()
            .flat_map(|r| r.failures.iter().cloned())
            .collect();
        all.extend(self.chaos_failures.iter().cloned());
        all
    }
}

/// [`run_artifacts`] with an explicit [`RunnerConfig`]: appends any
/// chaos scenarios to the plan, fans the whole thing out, assembles
/// the artifacts (degrading failed cells), and reports chaos outcomes
/// separately.
///
/// # Errors
///
/// As for [`run_scenarios_with`] and [`assemble`].
pub fn run_artifacts_with(
    artifacts: &[ArtifactId],
    jobs: usize,
    cfg: &RunnerConfig,
) -> Result<RunOutcome, Error> {
    let mut full_plan = plan(artifacts);
    let base = full_plan.len();
    full_plan.extend(cfg.chaos.iter().map(|k| Scenario::Chaos(*k)));
    let results = run_scenarios_with(&full_plan, jobs, cfg)?;
    let cells = results.iter().map(ScenarioResult::cell_report).collect();
    let reports = assemble(artifacts, &results[..base])?;
    let chaos_failures = results[base..]
        .iter()
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .err()
                .map(|f| (r.scenario.label(), f.clone()))
        })
        .collect();
    Ok(RunOutcome {
        reports,
        chaos_failures,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fans_fig4_into_cells() {
        let p = plan(&[ArtifactId::Fig4]);
        assert_eq!(p.len(), 36);
        assert_eq!(
            p[0],
            Scenario::Fig4Cell {
                workload: Workload::Kernbench,
                kind: HvKind::KvmArm
            }
        );
        assert_eq!(p[0].label(), "fig4[Kernbench/KVM ARM]");
        let p = plan(&[ArtifactId::Table2, ArtifactId::Vhe]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn artifact_names_round_trip() {
        for (i, a) in ArtifactId::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "NAMES is indexed in declaration order");
            assert_eq!(ArtifactId::parse(a.cli_name()), Some(a));
            assert!(!a.json_name().is_empty());
        }
        assert_eq!(ArtifactId::parse("nope"), None);
    }

    #[test]
    fn parallel_ablations_match_serial() {
        let artifacts = [ArtifactId::Table3, ArtifactId::Vhe, ArtifactId::Link];
        let p = plan(&artifacts);
        let serial = assemble(&artifacts, &run_scenarios(&p, 1).unwrap()).unwrap();
        let pooled = assemble(&artifacts, &run_scenarios(&p, 3).unwrap()).unwrap();
        for (s, q) in serial.iter().zip(&pooled) {
            assert_eq!(s.json, q.json, "{:?} diverged", s.id);
            assert_eq!(s.text, q.text, "{:?} text diverged", s.id);
            assert_eq!(s.transitions, q.transitions, "{:?} transitions", s.id);
            assert!(s.transitions > 0, "{:?} simulated nothing", s.id);
        }
    }

    #[test]
    fn cell_artifacts_are_not_one_scenario() {
        for id in [ArtifactId::Fig4, ArtifactId::Rack] {
            let err = Scenario::Artifact(id).execute().unwrap_err();
            assert!(matches!(err, Error::UnknownScenario { .. }), "{err}");
        }
    }

    #[test]
    fn fig4_cells_assemble_to_measure() {
        let artifacts = [ArtifactId::Fig4];
        let p = plan(&artifacts);
        let reports = assemble(&artifacts, &run_scenarios(&p, 4).unwrap()).unwrap();
        let direct = fig4::Figure4::measure().unwrap();
        assert_eq!(reports[0].json, super::to_json(&direct).unwrap());
    }

    #[test]
    fn zero_jobs_is_an_error_not_a_panic() {
        assert!(matches!(
            run_scenarios(&[], 0),
            Err(Error::InvalidJobs { jobs: 0 })
        ));
    }

    #[test]
    fn short_results_are_a_plan_mismatch() {
        let artifacts = [ArtifactId::Fig4];
        let err = assemble(&artifacts, &[]).unwrap_err();
        assert!(matches!(
            err,
            Error::PlanMismatch {
                expected: 36,
                got: 0
            }
        ));
    }

    #[test]
    fn a_panicking_scenario_does_not_prevent_its_siblings() {
        let p = [
            Scenario::Artifact(ArtifactId::Table3),
            Scenario::Chaos(ChaosKind::Panic),
            Scenario::Artifact(ArtifactId::Vhe),
        ];
        for jobs in [1, 3] {
            let results = run_scenarios(&p, jobs).unwrap();
            assert_eq!(results.len(), 3);
            assert!(results[0].outcome.is_ok(), "jobs={jobs}: table3 completed");
            assert!(results[2].outcome.is_ok(), "jobs={jobs}: vhe completed");
            let failure = results[1].outcome.as_ref().unwrap_err();
            assert_eq!(failure.kind, ScenarioFailureKind::Panicked);
            assert!(failure.detail.contains("deliberate panic"));
        }
    }

    #[test]
    fn cycle_budget_classifies_as_timed_out() {
        let cfg = RunnerConfig {
            watchdog: Watchdog {
                cycle_budget: Some(1_000_000),
                livelock_threshold: None,
            },
            ..RunnerConfig::default()
        };
        let results = run_scenarios_with(&[Scenario::Chaos(ChaosKind::Spin)], 1, &cfg).unwrap();
        let failure = results[0].outcome.as_ref().unwrap_err();
        assert_eq!(failure.kind, ScenarioFailureKind::TimedOut);
        assert!(
            failure.detail.contains("cycle budget"),
            "{}",
            failure.detail
        );
    }

    #[test]
    fn zero_progress_spin_classifies_as_livelocked() {
        let cfg = RunnerConfig {
            watchdog: Watchdog {
                cycle_budget: None,
                livelock_threshold: Some(10_000),
            },
            ..RunnerConfig::default()
        };
        let results = run_scenarios_with(&[Scenario::Chaos(ChaosKind::Livelock)], 1, &cfg).unwrap();
        let failure = results[0].outcome.as_ref().unwrap_err();
        assert_eq!(failure.kind, ScenarioFailureKind::Livelocked);
    }

    #[test]
    fn wall_timeout_classifies_after_the_fact() {
        let cfg = RunnerConfig {
            wall_timeout: Some(Duration::ZERO),
            ..RunnerConfig::default()
        };
        let results =
            run_scenarios_with(&[Scenario::Artifact(ArtifactId::Table3)], 1, &cfg).unwrap();
        let failure = results[0].outcome.as_ref().unwrap_err();
        assert_eq!(failure.kind, ScenarioFailureKind::TimedOut);
        assert!(failure.detail.contains("wall clock"));
    }

    #[test]
    fn failed_fig4_cell_degrades_to_marked_gap() {
        let artifacts = [ArtifactId::Fig4];
        let p = plan(&artifacts);
        let mut results = run_scenarios(&p, 4).unwrap();
        results[5].outcome = Err(ScenarioFailure {
            kind: ScenarioFailureKind::Panicked,
            detail: "induced for the test".to_string(),
        });
        let reports = assemble(&artifacts, &results).unwrap();
        assert_eq!(reports[0].failures.len(), 1);
        assert!(reports[0].text.contains("!! 1 of 36 cells failed"));
        assert!(reports[0].text.contains("induced for the test"));
        // The JSON keeps the Figure4 shape; the failed cell is null.
        assert!(reports[0].json.contains("\"measured\": null"));
    }

    #[test]
    fn failed_single_scenario_artifact_reports_but_does_not_abort() {
        let artifacts = [ArtifactId::Table3, ArtifactId::Vhe];
        let p = plan(&artifacts);
        let mut results = run_scenarios(&p, 1).unwrap();
        results[0].outcome = Err(ScenarioFailure {
            kind: ScenarioFailureKind::Livelocked,
            detail: "induced".to_string(),
        });
        let reports = assemble(&artifacts, &results).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].text.contains("== Table III"));
        assert!(reports[0].text.contains("!! scenario 'table3' livelocked"));
        assert!(reports[0].json.contains("\"failed\": \"livelocked\""));
        assert!(reports[1].failures.is_empty());
        assert!(reports[1].text.contains("VHE"));
    }

    #[test]
    fn chaos_failures_surface_without_touching_artifacts() {
        let cfg = RunnerConfig {
            chaos: vec![ChaosKind::Panic],
            ..RunnerConfig::default()
        };
        let outcome = run_artifacts_with(&[ArtifactId::Table3], 2, &cfg).unwrap();
        assert_eq!(outcome.reports.len(), 1);
        assert!(outcome.reports[0].failures.is_empty());
        assert_eq!(outcome.chaos_failures.len(), 1);
        assert_eq!(outcome.chaos_failures[0].0, "chaos-panic");
        assert_eq!(outcome.failures().len(), 1);
    }

    #[test]
    fn run_outcome_carries_structured_cells_for_every_scenario() {
        let cfg = RunnerConfig {
            chaos: vec![ChaosKind::Panic],
            ..RunnerConfig::default()
        };
        let outcome = run_artifacts_with(&[ArtifactId::Table3], 1, &cfg).unwrap();
        // One artifact scenario plus the chaos injection, plan order.
        assert_eq!(outcome.cells.len(), 2);
        let table3 = &outcome.cells[0];
        assert_eq!(table3.scenario, "table3");
        assert!(table3.ok());
        assert!(!table3.cached);
        assert_eq!(table3.retries, 0);
        // Cacheable scenarios carry their input fingerprint even when
        // no cache is configured — it names the cell's content.
        assert_eq!(
            table3.fingerprint.as_deref().map(str::len),
            Some(32),
            "{:?}",
            table3.fingerprint
        );
        let chaos = &outcome.cells[1];
        assert_eq!(chaos.scenario, "chaos-panic");
        assert!(chaos.fingerprint.is_none(), "chaos is uncacheable");
        assert_eq!(
            chaos.failure.as_ref().map(|f| f.kind),
            Some(ScenarioFailureKind::Panicked)
        );
    }

    #[test]
    fn chaos_kinds_parse_and_label() {
        for k in [ChaosKind::Panic, ChaosKind::Spin, ChaosKind::Livelock] {
            assert_eq!(ChaosKind::parse(k.name()), Some(k));
            assert!(Scenario::Chaos(k).label().starts_with("chaos-"));
        }
        assert_eq!(ChaosKind::parse("explode"), None);
    }

    #[test]
    fn default_config_matches_legacy_run_byte_for_byte() {
        let artifacts = [ArtifactId::Table2, ArtifactId::Table3];
        let legacy = run_artifacts(&artifacts, 2).unwrap();
        let configured = run_artifacts_with(&artifacts, 2, &RunnerConfig::default()).unwrap();
        for (a, b) in legacy.iter().zip(&configured.reports) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.json, b.json);
        }
        assert!(configured.chaos_failures.is_empty());
    }
}
