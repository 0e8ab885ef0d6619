//! `scaled-grid`: the Figure 4 matrix and a credit consolidation sweep
//! with iteration counts scaled by `DEFAULT_SCALE`, serial and then at
//! `nproc` workers, plus one 8-host rack cell serial and on the sharded
//! executor at `nproc` shard workers.
//!
//! Set-up cost disappears at this scale, and each simulator tier
//! dominates one segment: compiled replay the Figure 4 cells, the
//! interpreter plus the vCPU schedulers the contended consolidation
//! cells (which never compile), and the shard barrier the rack cell.
//! The item set mirrors `hvx-repro bench`'s grid; it is rebuilt here
//! from public functions so every segment can be timed from outside.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hvx_core::{HvKind, SchedPolicy, SimBuilder, VirqPolicy};
use hvx_suite::bench_grid::DEFAULT_SCALE;
use hvx_suite::{consolidation, paper, rack, workloads};

use crate::ledger::{mean, median, Golden, Ledger, Outcome, Rng};
use crate::{nproc, RunArgs};

/// Consolidation ratios sampled: the endpoints and the knee.
const RATIOS: [u32; 3] = [1, 4, 16];
/// Rack cell: wide enough that every shard worker owns several hosts.
const RACK_HOSTS: u32 = 8;
const RACK_VMS: u32 = 192;
/// Self-test scale: every loop still compiles, and the interpreter
/// (forced on by `HVX_COST_PERTURB`) finishes in well under a second.
const TINY_SCALE: u32 = 20;
const TINY_RACK_VMS: u32 = 8;
/// Set-up warm-up scale: large enough (~50 ms a pass) that the set-up
/// time is not dominated by first-touch page faults and file reads.
const SETUP_SCALE: u32 = 100;
/// Paper-suite probe steps (one untraced and one traced regenerate pair
/// each) after every traced repetition.
const SUITE_STEPS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Fig4 { workload: usize, column: usize },
    Consol { column: usize, ratio: u32 },
}

impl Item {
    fn label(self) -> String {
        match self {
            Item::Fig4 { workload, column } => format!(
                "fig4/{}/{}",
                workloads::catalog()[workload].name,
                kind_tag(paper::COLUMNS[column])
            ),
            Item::Consol { column, ratio } => {
                format!("consol/{}/{ratio}", kind_tag(paper::COLUMNS[column]))
            }
        }
    }
}

fn kind_tag(kind: HvKind) -> String {
    kind.to_string().replace(' ', "-")
}

fn items() -> Vec<Item> {
    let mut items = Vec::new();
    for workload in 0..workloads::catalog().len() {
        for column in 0..paper::COLUMNS.len() {
            items.push(Item::Fig4 { workload, column });
        }
    }
    for column in 0..paper::COLUMNS.len() {
        for ratio in RATIOS {
            items.push(Item::Consol { column, ratio });
        }
    }
    items
}

/// One cell's simulated result: makespan (`None` if the model rejected
/// the mix) and transitions charged.
type Cell = (Option<u64>, u64);

fn scale(tiny: bool) -> u32 {
    if tiny {
        TINY_SCALE
    } else {
        DEFAULT_SCALE
    }
}

/// Runs one cell on the calling thread, charging build and run time to
/// their layers.
fn run_cell(item: Item, scale: u32, ledger: &mut Ledger, compile: bool) -> Cell {
    let before = hvx_engine::thread_transitions();
    let makespan = match item {
        Item::Fig4 { workload, column } => {
            let mix = workloads::catalog()[workload].mix.scaled(scale);
            let built = ledger.time("build", || SimBuilder::new(paper::COLUMNS[column]).build());
            built.ok().and_then(|sim| {
                let mut hv = sim.into_inner();
                ledger
                    .time("replay", || {
                        workloads::run_with(hv.as_mut(), mix, VirqPolicy::Vcpu0, compile)
                    })
                    .ok()
                    .map(|c| c.as_u64())
            })
        }
        Item::Consol { column, ratio } => ledger
            .time("consolidation", || {
                consolidation::run_cell(
                    paper::COLUMNS[column],
                    ratio,
                    SchedPolicy::Credit,
                    (scale * 2).max(consolidation::TRANSACTIONS_PER_VM),
                    compile,
                )
            })
            .ok()
            .map(|c| c.makespan_cycles),
    };
    (makespan, hvx_engine::thread_transitions() - before)
}

fn rack_config(tiny: bool, jobs: usize) -> rack::CellConfig {
    rack::CellConfig {
        composition: rack::Composition::Mixed,
        hosts: RACK_HOSTS,
        vms_per_host: if tiny { TINY_RACK_VMS } else { RACK_VMS },
        rounds: (scale(tiny) / 40).max(4),
        jobs,
        fault: None,
    }
}

fn rack_golden(r: &rack::CellResult, transitions: u64) -> String {
    format!(
        "{} {} {} {transitions}",
        r.makespan_cycles, r.requests, r.windows
    )
}

fn cell_golden(c: Cell) -> String {
    match c.0 {
        Some(m) => format!("{m} {}", c.1),
        None => format!("none {}", c.1),
    }
}

/// Reference results of the serial pass, for `--write-golden`.
pub fn golden_entries(tiny: bool) -> Result<Vec<(String, String)>, String> {
    let s = scale(tiny);
    let compile = workloads::compile_enabled();
    let mut ledger = Ledger::new(false);
    let mut out: Vec<(String, String)> = items()
        .into_iter()
        .map(|item| {
            let cell = run_cell(item, s, &mut ledger, compile);
            (format!("grid.{s}.{}", item.label()), cell_golden(cell))
        })
        .collect();
    let before = hvx_engine::thread_transitions();
    let r = rack::run_cell_with(&rack_config(tiny, 1)).map_err(|e| e.to_string())?;
    let t = hvx_engine::thread_transitions() - before;
    out.push((format!("grid.{s}.rack"), rack_golden(&r, t)));
    Ok(out)
}

/// What one repetition of the grid measured.
#[derive(Debug, Default)]
struct Rep {
    wall_s: f64,
    attributed_s: f64,
    fig4_s: f64,
    fig4_transitions: u64,
    consol_s: f64,
    consol_transitions: u64,
    rack_serial_s: f64,
    rack_sharded_s: f64,
    rack_transitions: u64,
    rack_windows: u64,
    rack_stalls: u64,
    rack_imbalance_p95: u64,
    parallel_s: f64,
    parallel_busy_s: f64,
    workers: usize,
    rack_jobs: usize,
    /// Host seconds of every serial cell execution, the rack cell's
    /// included. Parallel-pass cells share the cores with each other, so
    /// their times measure contention; they count in the throughput
    /// metrics instead.
    op_s: Vec<f64>,
}

const LAYERS: [&str; 6] = [
    "build",
    "replay",
    "consolidation",
    "rack_serial",
    "parallel",
    "rack_sharded",
];

fn rep(
    order: &[Item],
    tiny: bool,
    golden: &Golden,
    ledger: &mut Ledger,
    out: &mut Outcome,
) -> Result<Rep, String> {
    let s = scale(tiny);
    let compile = workloads::compile_enabled();
    let hw = nproc();
    let attributed_before: f64 = LAYERS.iter().map(|l| ledger.total(l)).sum();
    let mut r = Rep::default();
    let start = Instant::now();

    // Serial pass: Figure 4 cells, then consolidation cells.
    let mut serial: Vec<(Item, Cell)> = Vec::with_capacity(order.len());
    for fig4 in [true, false] {
        let seg = Instant::now();
        for &item in order
            .iter()
            .filter(|i| matches!(i, Item::Fig4 { .. }) == fig4)
        {
            let t0 = Instant::now();
            let cell = run_cell(item, s, ledger, compile);
            r.op_s.push(t0.elapsed().as_secs_f64());
            if fig4 {
                r.fig4_transitions += cell.1;
            } else {
                r.consol_transitions += cell.1;
            }
            serial.push((item, cell));
        }
        if fig4 {
            r.fig4_s = seg.elapsed().as_secs_f64();
        } else {
            r.consol_s = seg.elapsed().as_secs_f64();
        }
    }

    // Rack cell on the serial reference executor.
    let t0 = Instant::now();
    let before = hvx_engine::thread_transitions();
    let rack_serial = ledger.time("rack_serial", || rack::run_cell_with(&rack_config(tiny, 1)));
    r.rack_transitions = hvx_engine::thread_transitions() - before;
    r.rack_serial_s = t0.elapsed().as_secs_f64();
    r.op_s.push(r.rack_serial_s);

    // Parallel pass: a work-stealing pool of `nproc` workers.
    r.workers = hw.min(order.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(Cell, f64)>>> = order.iter().map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    ledger.time("parallel", || {
        std::thread::scope(|scope| {
            for _ in 0..r.workers {
                scope.spawn(|| {
                    let mut quiet = Ledger::new(false);
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&item) = order.get(idx) else { break };
                        let c0 = Instant::now();
                        let cell = run_cell(item, s, &mut quiet, compile);
                        let secs = c0.elapsed().as_secs_f64();
                        *slots[idx].lock().expect("grid slot lock") = Some((cell, secs));
                    }
                });
            }
        });
    });
    r.parallel_s = t0.elapsed().as_secs_f64();

    // Rack cell on the sharded executor.
    r.rack_jobs = hw.min(RACK_HOSTS as usize);
    let t0 = Instant::now();
    let rack_sharded = ledger.time("rack_sharded", || {
        rack::run_cell_with(&rack_config(tiny, r.rack_jobs))
    });
    r.rack_sharded_s = t0.elapsed().as_secs_f64();
    r.wall_s = start.elapsed().as_secs_f64();
    r.attributed_s = LAYERS.iter().map(|l| ledger.total(l)).sum::<f64>() - attributed_before;

    // Checks: parallel == serial per cell, sharded == serial, and the
    // serial results equal the golden reference.
    let parallel: Vec<Option<(Cell, f64)>> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("grid slot lock"))
        .collect();
    for (idx, &item) in order.iter().enumerate() {
        let want = serial
            .iter()
            .find(|(i, _)| *i == item)
            .map(|(_, c)| *c)
            .expect("serial pass ran every item");
        let label = item.label();
        match parallel[idx] {
            Some((cell, secs)) => {
                r.parallel_busy_s += secs;
                if cell != want {
                    out.fail(format!("{label}: parallel {cell:?} != serial {want:?}"));
                } else {
                    out.op(true);
                }
            }
            None => out.fail(format!("{label}: parallel pass produced no result")),
        }
        let key = format!("grid.{s}.{label}");
        if want.0.is_none() || !golden.matches(&key, &cell_golden(want)) {
            out.fail(format!("{label}: serial {want:?} differs from golden"));
        } else {
            out.op(true);
        }
    }
    match (rack_serial, rack_sharded) {
        (Ok(a), Ok(b)) => {
            r.rack_windows = a.windows;
            r.rack_stalls = a.lookahead_stalls;
            r.rack_imbalance_p95 = a.imbalance_p95;
            if a != b {
                out.fail("rack: sharded result differs from serial");
            } else if !golden.matches(
                &format!("grid.{s}.rack"),
                &rack_golden(&a, r.rack_transitions),
            ) {
                out.fail("rack: serial result differs from golden");
            } else {
                out.op(true);
            }
        }
        (a, b) => out.fail(format!("rack: {:?} / {:?}", a.err(), b.err())),
    }
    Ok(r)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed);
    let mut out = Outcome::default();
    let mut ledger = Ledger::new(false);

    // Set-up: load the reference results, order the items (seeded), and
    // run every cell at `SETUP_SCALE` and the self-test rack cell once so
    // lazy initialisation settles.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..7 {
        let start = Instant::now();
        let golden = Golden::load()?;
        let mut order = items();
        rng.clone().shuffle(&mut order);
        let mut quiet = Ledger::new(false);
        for &item in &order {
            let warm_up = if args.tiny { TINY_SCALE } else { SETUP_SCALE };
            run_cell(item, warm_up, &mut quiet, workloads::compile_enabled());
        }
        rack::run_cell_with(&rack_config(true, 1)).map_err(|e| e.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((golden, order));
    }
    let (golden, order) = prepared.expect("set-up ran");

    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut interp: Vec<(f64, u64)> = Vec::new();
    let mut suite = if args.trace {
        Some(crate::suite::Probe::new(args.seed)?)
    } else {
        None
    };
    let window = Instant::now();
    let mut n = 0u64;
    while window.elapsed() < args.window()
        || untraced.is_empty()
        || (args.trace && traced.is_empty())
    {
        let on = args.trace && n % 2 == 1;
        ledger.set_on(on);
        let r = rep(&order, args.tiny, &golden, &mut ledger, &mut out)?;
        if on {
            traced.push(r);
            // Interpreter probe, outside the timed repetition: one
            // Figure 4 cell (seeded) with compilation forced off.
            let fig4: Vec<Item> = order
                .iter()
                .copied()
                .filter(|i| matches!(i, Item::Fig4 { .. }))
                .collect();
            let item = fig4[rng.below(fig4.len() as u64) as usize];
            let mut probe = Ledger::new(true);
            let (_, transitions) = run_cell(item, scale(args.tiny), &mut probe, false);
            interp.push((probe.total("replay"), transitions));
            // Paper-suite probe, also outside the repetition.
            if let Some(suite) = suite.as_mut() {
                for _ in 0..SUITE_STEPS {
                    suite.step(&mut out)?;
                }
            }
        } else {
            untraced.push(r);
        }
        n += 1;
    }

    if let Some(suite) = &suite {
        suite.report(&mut out);
        report_layers(&mut out, &ledger, &untraced, &traced, &interp);
    } else {
        // Each figure is the best repetition of the run (each a whole
        // pass: serial, parallel and sharded). The simulator is CPU-bound
        // and the host is shared: its speed swung by up to a third
        // between 15-second phases, which a median carries straight into
        // the result while the best of ~20 repetitions does not.
        let best = |f: &dyn Fn(&Rep) -> f64| untraced.iter().map(f).fold(f64::INFINITY, f64::min);
        out.set("setup_s", median(&setups));
        out.set("op_p50_ms", 1e3 * best(&|r| median(&r.op_s)));
        out.set("op_mean_ms", 1e3 * best(&|r| mean(&r.op_s)));
        out.set("ops_per_s", 1.0 / best(&|r| r.wall_s / r.op_s.len() as f64));
        // Serial and parallel passes simulate the same cells, and the
        // rack cell runs twice.
        let transitions =
            |r: &Rep| 2 * (r.fig4_transitions + r.consol_transitions + r.rack_transitions);
        out.set(
            "sim_mtps",
            1.0 / best(&|r| r.wall_s / transitions(r) as f64) / 1e6,
        );
        out.finish(false, 0.0, 0.0, 0.0);
    }
    Ok(out)
}

fn report_layers(
    out: &mut Outcome,
    ledger: &Ledger,
    untraced: &[Rep],
    traced: &[Rep],
    interp: &[(f64, u64)],
) {
    let med =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per_transition = |secs: f64, n: u64| 1e9 * secs / n.max(1) as f64;
    let fig4_t: u64 = traced.iter().map(|r| r.fig4_transitions).sum();
    let consol_t: u64 = traced.iter().map(|r| r.consol_transitions).sum();
    let rack_t: u64 = traced.iter().map(|r| r.rack_transitions).sum();
    out.set(
        "grid_tps",
        med(untraced, &|r| r.fig4_transitions as f64 / r.fig4_s),
    );
    out.set(
        "sweep_tps",
        med(untraced, &|r| r.consol_transitions as f64 / r.consol_s),
    );
    out.set(
        "rack_tps",
        med(untraced, &|r| r.rack_transitions as f64 / r.rack_serial_s),
    );
    out.set(
        "rack_sharded_tps",
        med(untraced, &|r| r.rack_transitions as f64 / r.rack_sharded_s),
    );
    out.set(
        "rack_sharded_ratio",
        med(untraced, &|r| r.rack_serial_s / r.rack_sharded_s),
    );
    out.set("grid_wall_s", med(untraced, &|r| r.parallel_s));
    out.set("grid.workers", med(untraced, &|r| r.workers as f64));
    out.set("shard.workers", med(untraced, &|r| r.rack_jobs as f64));
    out.set("core.build_us", 1e6 * median(ledger.samples("build")));
    out.set(
        "workloads.replay_ns_per_transition",
        per_transition(ledger.total("replay"), fig4_t),
    );
    let (interp_s, interp_t) = interp
        .iter()
        .fold((0.0, 0), |(s, t), &(ds, dt)| (s + ds, t + dt));
    out.set(
        "workloads.interp_ns_per_transition",
        per_transition(interp_s, interp_t),
    );
    out.set(
        "consolidation.ns_per_transition",
        per_transition(ledger.total("consolidation"), consol_t),
    );
    out.set(
        "rack.serial_ns_per_transition",
        per_transition(ledger.total("rack_serial"), rack_t),
    );
    out.set(
        "shard.overhead_us_per_window",
        med(traced, &|r| {
            1e6 * (r.rack_sharded_s - r.rack_serial_s) / r.rack_windows.max(1) as f64
        }),
    );
    out.set("shard.windows", med(traced, &|r| r.rack_windows as f64));
    out.set(
        "shard.lookahead_stalls",
        med(traced, &|r| r.rack_stalls as f64),
    );
    out.set(
        "shard.imbalance_p95",
        med(traced, &|r| r.rack_imbalance_p95 as f64),
    );
    out.set(
        "grid.worker_busy_pct",
        med(traced, &|r| {
            100.0 * r.parallel_busy_s / (r.parallel_s * r.workers as f64)
        }),
    );
    out.set(
        "grid.fig4_transitions",
        med(traced, &|r| r.fig4_transitions as f64),
    );
    out.set(
        "grid.consolidation_transitions",
        med(traced, &|r| r.consol_transitions as f64),
    );
    out.set(
        "grid.rack_transitions",
        med(traced, &|r| r.rack_transitions as f64),
    );
    let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let attributed: f64 = traced.iter().map(|r| r.attributed_s).sum();
    out.finish(
        true,
        (wall - attributed).max(0.0) / wall.max(1e-12),
        med(untraced, &|r| r.wall_s),
        med(traced, &|r| r.wall_s),
    );
}
