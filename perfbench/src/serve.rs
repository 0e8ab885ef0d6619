//! `serve-mix`: an in-process `hvx-serve` on loopback (temporary cache,
//! fsynced journal, `workers = nproc`) driven closed-loop by `nproc`
//! clients, each sending its next request only after the previous one
//! finished.
//!
//! Four requests in five re-submit specs that already finished (warm
//! hits: accept, parse, admission, cache read and encode, no simulation);
//! the fifth is a distinct cold consolidation cell (mostly a worker's
//! simulation, queue wait and journal fsync). The finished specs include
//! a paper-shape cell, run cold during set-up. A transport change should
//! move warm latency and not cold; a simulator change the reverse.
//!
//! Server layers are timed by a [`JobExecutor`] wrapper around
//! `SuiteExecutor` (prepare and lookup on the handler thread, run on the
//! worker) plus `/metrics` scrapes for queue wait and journal writes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hvx_core::{HvKind, ScenarioSpec, SchedPolicy, Workload};
use hvx_serve::{client, JobExecutor, JobFailure, JobOutput, PreparedJob, Server, ServerConfig};
use hvx_suite::cache::{self, ResultCache};
use hvx_suite::service::SuiteExecutor;
use hvx_suite::{consolidation, paper, spec_run};
use serde::{Serialize, Value};

use crate::ledger::{digest, mean, median, quantile, Golden, Outcome, Rng};
use crate::{nproc, work_dir, RunArgs};

/// One request in this many is a cold cell; the rest re-submit finished
/// specs. The cold slot's phase is seeded per client, and spacing the
/// cold requests evenly keeps the work of a run independent of the seed.
const COLD_EVERY: u64 = 5;
/// Specs finished during set-up, which warm requests draw from. A cold
/// paper-shape cell costs seconds (the server also stores an event-traced
/// re-run for `/trace`), so the pool holds few of them, and the timed
/// window's cold cells are all consolidation cells.
const WARM_PAPER: usize = 1;
const WARM_CONSOL: usize = 10;
/// Warm requests made and discarded before timing starts.
const WARM_UP: usize = 24;
/// Every this many requests, the client making it also scrapes `/metrics`.
const SCRAPE_EVERY: u64 = 25;
/// A cold job not done by then counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// Cold consolidation cells run this many transactions per VM plus a
/// seeded base plus the number of completed laps through the cell
/// shapes, so no cold cell repeats and every cell costs about the same.
const COLD_TXNS: u32 = 600;

/// Candidate specs for the warm pool, paper-shape and consolidation,
/// all recorded in the golden file.
fn warm_candidates() -> (Vec<ScenarioSpec>, Vec<ScenarioSpec>) {
    let mut papers = Vec::new();
    for kind in paper::COLUMNS {
        for w in Workload::ALL {
            papers.push(ScenarioSpec::paper(kind).with_workload(w));
        }
    }
    let mut consols = Vec::new();
    for kind in paper::COLUMNS {
        for sched in SchedPolicy::ALL {
            for ratio in [1, 2, 4, 8] {
                let mut spec = ScenarioSpec::consolidation(kind, ratio, sched);
                spec.transactions = Some(consolidation::TRANSACTIONS_PER_VM);
                consols.push(spec);
            }
        }
    }
    (papers, consols)
}

fn body(spec: &ScenarioSpec) -> String {
    serde_json::to_string(Serialize::serialize(spec)).expect("a spec serializes")
}

fn fingerprint(spec: &ScenarioSpec) -> String {
    cache::spec_fingerprint(spec).to_hex()
}

/// Reference report digests of every warm candidate, for `--write-golden`.
pub fn golden_entries() -> Result<Vec<(String, String)>, String> {
    let (papers, consols) = warm_candidates();
    papers
        .iter()
        .chain(&consols)
        .map(|spec| {
            let report = spec_run::run_spec(spec).map_err(|e| e.to_string())?;
            Ok((format!("serve.{}", fingerprint(spec)), digest(&report)))
        })
        .collect()
}

/// Per-call host time of the executor hooks, recorded when tracing.
#[derive(Debug, Default)]
struct Samples {
    prepare_s: Vec<f64>,
    lookup_s: Vec<f64>,
    run_s: Vec<f64>,
    run_transitions: u64,
    /// Simulated transitions of every run, traced or not.
    transitions: u64,
}

/// The timing wrapper handed to `Server::bind`.
#[derive(Debug)]
struct Timed {
    inner: SuiteExecutor,
    on: AtomicBool,
    samples: Mutex<Samples>,
}

impl Timed {
    fn samples(&self) -> std::sync::MutexGuard<'_, Samples> {
        self.samples.lock().expect("sample lock")
    }

    fn timed<T>(&self, f: impl FnOnce() -> T, pick: fn(&mut Samples) -> &mut Vec<f64>) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        pick(&mut self.samples()).push(secs);
        out
    }
}

impl JobExecutor for Timed {
    fn prepare(&self, body: &str) -> Result<PreparedJob, String> {
        self.timed(|| self.inner.prepare(body), |s| &mut s.prepare_s)
    }

    fn lookup(&self, job: &PreparedJob) -> Option<JobOutput> {
        self.timed(|| self.inner.lookup(job), |s| &mut s.lookup_s)
    }

    fn run(&self, job: &PreparedJob) -> Result<JobOutput, JobFailure> {
        let before = hvx_engine::thread_transitions();
        let t0 = Instant::now();
        let out = self.inner.run(job);
        let secs = t0.elapsed().as_secs_f64();
        let transitions = hvx_engine::thread_transitions() - before;
        let traced = self.on.load(Ordering::Relaxed);
        let mut s = self.samples();
        s.transitions += transitions;
        if traced {
            s.run_s.push(secs);
            s.run_transitions += transitions;
        }
        out
    }

    fn expand(&self, body: &str) -> Result<Vec<String>, String> {
        self.inner.expand(body)
    }

    fn trace(&self, fingerprint: &str) -> Option<String> {
        self.inner.trace(fingerprint)
    }
}

/// A running server and what it needs to be stopped.
struct Running {
    addr: String,
    exec: Arc<Timed>,
    thread: JoinHandle<Result<(), hvx_core::Error>>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        client::drain(&self.addr)?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

fn start(tag: &str) -> Result<Running, String> {
    let dir = work_dir(tag);
    let cache = ResultCache::open(&dir.join("cache")).map_err(|e| e.to_string())?;
    let exec = Arc::new(Timed {
        inner: SuiteExecutor::new(Some(Arc::new(cache))),
        on: AtomicBool::new(false),
        samples: Mutex::new(Samples::default()),
    });
    let cfg = ServerConfig {
        workers: nproc(),
        client_inflight_cap: 64,
        journal: Some(dir.join("journal.jsonl")),
        ..ServerConfig::default()
    };
    let server =
        Server::bind(cfg, Arc::clone(&exec) as Arc<dyn JobExecutor>).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, exec, thread })
}

/// One request's result.
#[derive(Debug)]
struct Request {
    warm: bool,
    /// Submit round trip (warm) or submit until done (cold), seconds.
    latency_s: f64,
    /// Submit round trip alone, seconds.
    submit_s: f64,
    /// Index into the run's spec table.
    spec: usize,
    report: Option<String>,
    error: Option<String>,
    traced: bool,
}

/// Submits one spec and, for a cold job, polls tightly until it is done.
/// `client::wait` sleeps 10 ms between polls, which would round cold
/// latencies to 10 ms steps, so the benchmark polls on its own.
fn submit(
    addr: &str,
    client_name: &str,
    spec: usize,
    body: &str,
    warm: bool,
    traced: bool,
) -> Request {
    let mut req = Request {
        warm,
        latency_s: 0.0,
        submit_s: 0.0,
        spec,
        report: None,
        error: None,
        traced,
    };
    let t0 = Instant::now();
    let (status, v) = match client::submit(addr, client_name, body) {
        Ok(r) => r,
        Err(e) => {
            req.error = Some(e);
            return req;
        }
    };
    req.submit_s = t0.elapsed().as_secs_f64();
    let id = v.get("job").and_then(Value::as_u64);
    let expected = if warm { 200 } else { 202 };
    let (Some(id), true) = (id, status == expected) else {
        req.error = Some(format!("submit: status {status} (want {expected}): {v:?}"));
        return req;
    };
    if warm {
        // The timed part is the submit; the poll below only fetches the
        // served report for checking.
        req.latency_s = req.submit_s;
    }
    loop {
        match client::poll(addr, id) {
            Ok((200, v)) => match v.get("state").and_then(Value::as_str) {
                Some("done") => {
                    if !warm {
                        req.latency_s = t0.elapsed().as_secs_f64();
                    }
                    req.report = v.get("report").and_then(Value::as_str).map(str::to_string);
                    return req;
                }
                Some("failed") => {
                    req.error = Some(format!("job {id} failed: {v:?}"));
                    return req;
                }
                _ if warm => {
                    req.error = Some(format!("warm job {id} not done: {v:?}"));
                    return req;
                }
                _ => {}
            },
            Ok((status, v)) => {
                req.error = Some(format!("poll {id}: status {status}: {v:?}"));
                return req;
            }
            Err(e) => {
                req.error = Some(e);
                return req;
            }
        }
        if t0.elapsed() > JOB_DEADLINE {
            req.error = Some(format!("job {id} not done after {JOB_DEADLINE:?}"));
            return req;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The seeded request mix shared by the clients.
struct Mix {
    /// Every spec the run submits: the warm pool first, then cold cells
    /// appended as clients draw them.
    specs: Mutex<Vec<(ScenarioSpec, String)>>,
    warm: usize,
    /// Cold consolidation cells drawn so far.
    next_txns: AtomicU64,
    txns_base: u32,
    /// Cold cell shapes, in seeded order.
    shapes: Vec<(HvKind, SchedPolicy, u32)>,
}

impl Mix {
    /// A warm pool of `paper` TCP_RR paper-shape cells (the cheapest to
    /// run cold) and `consol` consolidation cells chosen by the seed.
    fn new(rng: &mut Rng, paper: usize, consol: usize) -> Mix {
        // Paper-shape cells differ a hundredfold in cold cost, so the
        // seed picks only among the consolidation cells and set-up costs
        // the same whatever the seed.
        let (papers, mut consols) = warm_candidates();
        rng.shuffle(&mut consols);
        let warm: Vec<ScenarioSpec> = papers
            .into_iter()
            .filter(|s| s.workload == Some(Workload::TcpRr))
            .take(paper)
            .chain(consols.into_iter().take(consol))
            .collect();
        let mut shapes = Vec::new();
        for kind in paper::COLUMNS {
            for sched in SchedPolicy::ALL {
                for ratio in [1, 2, 4, 8] {
                    shapes.push((kind, sched, ratio));
                }
            }
        }
        rng.shuffle(&mut shapes);
        Mix {
            specs: Mutex::new(warm.iter().map(|s| (s.clone(), body(s))).collect()),
            warm: warm.len(),
            next_txns: AtomicU64::new(0),
            txns_base: rng.below(10) as u32,
            shapes,
        }
    }

    fn spec(&self, idx: usize) -> (ScenarioSpec, String) {
        self.specs.lock().expect("spec lock")[idx].clone()
    }

    /// Draws the next distinct cold consolidation cell. Cells cycle
    /// through every (hypervisor, scheduler, ratio) in a seeded order, so
    /// each run simulates nearly the same amount of work.
    fn cold(&self) -> usize {
        let step = self.next_txns.fetch_add(1, Ordering::Relaxed) as usize;
        let (kind, sched, ratio) = self.shapes[step % self.shapes.len()];
        let mut spec = ScenarioSpec::consolidation(kind, ratio, sched);
        let lap = (step / self.shapes.len()) as u32;
        spec.transactions = Some(COLD_TXNS + self.txns_base + lap);
        let mut specs = self.specs.lock().expect("spec lock");
        let b = body(&spec);
        specs.push((spec, b));
        specs.len() - 1
    }
}

/// Value of an unlabelled sample in a Prometheus exposition.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs the clients against `server` for `window`.
fn drive(
    server: &Running,
    mix: &Mix,
    seed: u64,
    window: Duration,
    traced: bool,
    scrapes: &AtomicU64,
) -> Vec<Request> {
    let clients = nproc();
    let deadline = Instant::now() + window;
    let issued = AtomicU64::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (issued, results) = (&issued, &results);
            scope.spawn(move || {
                let mut rng = Rng::new(seed ^ (0x5151 + c as u64) ^ u64::from(traced));
                let name = format!("c{c}");
                let mut mine = Vec::new();
                let phase = rng.below(COLD_EVERY);
                let mut n = 0u64;
                while Instant::now() < deadline {
                    let warm = !(n + phase).is_multiple_of(COLD_EVERY);
                    n += 1;
                    let idx = if warm {
                        rng.below(mix.warm as u64) as usize
                    } else {
                        mix.cold()
                    };
                    let (_, b) = mix.spec(idx);
                    mine.push(submit(&server.addr, &name, idx, &b, warm, traced));
                    let scrape_due =
                        issued.fetch_add(1, Ordering::Relaxed) % SCRAPE_EVERY == SCRAPE_EVERY - 1;
                    if scrape_due && client::metrics(&server.addr).is_ok() {
                        scrapes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                results.lock().expect("result lock").extend(mine);
            });
        }
    });
    results.into_inner().expect("result lock")
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let golden = Golden::load()?;
    let (paper, consol) = if args.tiny {
        (1, 3)
    } else {
        (WARM_PAPER, WARM_CONSOL)
    };

    // Set-up, three times: bind a fresh server, finish the warm pool
    // through it, and make discarded warm requests so the cache, the
    // page cache and lazy initialisation settle. The last one stays up.
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..3 {
        let start_t = Instant::now();
        let server = start(&format!("serve-{i}"))?;
        let mix = Mix::new(&mut Rng::new(args.seed), paper, consol);
        // `nproc` set-up clients, one job in flight each, so admission
        // never sheds the pool.
        let errors: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nproc())
                .map(|c| {
                    let (server, mix) = (&server, &mix);
                    scope.spawn(move || {
                        (c..mix.warm)
                            .step_by(nproc())
                            .filter_map(|idx| {
                                let (_, b) = mix.spec(idx);
                                submit(&server.addr, &format!("setup{c}"), idx, &b, false, false)
                                    .error
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("set-up client panicked"))
                .collect()
        });
        if let Some(e) = errors.first() {
            return Err(format!("set-up: warm pool job failed: {e}"));
        }
        let mut rng = Rng::new(args.seed ^ 0xabcd);
        for _ in 0..WARM_UP {
            let idx = rng.below(mix.warm as u64) as usize;
            let (_, b) = mix.spec(idx);
            if let Some(e) = submit(&server.addr, "setup", idx, &b, true, false).error {
                return Err(format!("set-up: warm-up request failed: {e}"));
            }
        }
        setups.push(start_t.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((server, mix)) {
            Running::stop(old)?;
        }
    }
    let (server, mix) = kept.expect("set-up ran");

    let scrapes = AtomicU64::new(0);
    let before = client::metrics(&server.addr)?;
    let transitions_before = server.exec.samples().transitions;
    let window = Instant::now();
    let mut requests;
    let mut traced_metrics = None;
    if args.trace {
        // Untraced first half, traced second half, on the same server.
        let half = args.window() / 2;
        requests = drive(&server, &mix, args.seed, half, false, &scrapes);
        let mid = client::metrics(&server.addr)?;
        server.exec.on.store(true, Ordering::Relaxed);
        requests.extend(drive(&server, &mix, args.seed, half, true, &scrapes));
        server.exec.on.store(false, Ordering::Relaxed);
        traced_metrics = Some(mid);
    } else {
        requests = drive(&server, &mix, args.seed, args.window(), false, &scrapes);
    }
    let elapsed = window.elapsed().as_secs_f64();
    let after = client::metrics(&server.addr)?;
    let transitions = server.exec.samples().transitions - transitions_before;
    let samples = std::mem::take(&mut *server.exec.samples());
    server.stop()?;

    check(&mut out, &requests, &mix, &golden);

    if let Some(mid) = traced_metrics {
        report_layers(
            &mut out, &requests, &samples, &before, &mid, &after, elapsed,
        );
    } else {
        let ops: Vec<f64> = requests.iter().map(|r| r.latency_s).collect();
        out.set("setup_s", median(&setups));
        out.set("op_p50_ms", 1e3 * median(&ops));
        out.set("op_mean_ms", 1e3 * mean(&ops));
        out.set("ops_per_s", ops.len() as f64 / elapsed);
        out.set("sim_mtps", transitions as f64 / elapsed / 1e6);
        out.finish(false, 0.0, 0.0, 0.0);
    }
    eprintln!(
        "perfbench: serve-mix {} requests ({} warm), {} scrapes",
        requests.len(),
        requests.iter().filter(|r| r.warm).count(),
        scrapes.load(Ordering::Relaxed)
    );
    Ok(out)
}

/// Every served report must equal a direct `spec_run::run_spec` of the
/// same spec, and warm-pool reports must also match the golden digests.
fn check(out: &mut Outcome, requests: &[Request], mix: &Mix, golden: &Golden) {
    let mut expected: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    for r in requests {
        if let Some(e) = &r.error {
            out.fail(e);
            continue;
        }
        let want = expected.entry(r.spec).or_insert_with(|| {
            let (spec, _) = mix.spec(r.spec);
            let report = spec_run::run_spec(&spec).map_err(|e| e.to_string())?;
            if r.spec < mix.warm
                && !golden.matches(&format!("serve.{}", fingerprint(&spec)), &digest(&report))
            {
                return Err(format!(
                    "{}: report differs from golden",
                    spec_run::label(&spec)
                ));
            }
            Ok(report)
        });
        match (want, &r.report) {
            (Ok(w), Some(got)) if w == got => out.op(true),
            (Err(e), _) => out.fail(e.clone()),
            _ => out.fail(format!(
                "spec {}: served report differs from run_spec",
                r.spec
            )),
        }
    }
}

fn report_layers(
    out: &mut Outcome,
    requests: &[Request],
    samples: &Samples,
    before: &str,
    mid: &str,
    after: &str,
    elapsed: f64,
) {
    let lat = |warm: bool, traced: bool| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| r.warm == warm && r.traced == traced && r.error.is_none())
            .map(|r| r.latency_s)
            .collect()
    };
    let untraced_n = requests.iter().filter(|r| !r.traced).count();
    let (warm, cold) = (lat(true, false), lat(false, false));
    out.set("warm_p50_ms", 1e3 * median(&warm));
    out.set("warm_p99_ms", 1e3 * quantile(&warm, 0.99));
    out.set("cold_p50_ms", 1e3 * median(&cold));
    out.set("cold_p95_ms", 1e3 * quantile(&cold, 0.95));
    out.set("serve_rps", untraced_n as f64 / (elapsed / 2.0));
    out.set(
        "serve.warm_share",
        requests.iter().filter(|r| r.warm).count() as f64 / requests.len().max(1) as f64,
    );

    let prepare_p50 = median(&samples.prepare_s);
    let lookup_p50 = median(&samples.lookup_s);
    out.set("serve.prepare_us_p50", 1e6 * prepare_p50);
    out.set(
        "serve.prepare_us_p99",
        1e6 * quantile(&samples.prepare_s, 0.99),
    );
    out.set("serve.lookup_us_p50", 1e6 * lookup_p50);
    out.set(
        "serve.lookup_us_p99",
        1e6 * quantile(&samples.lookup_s, 0.99),
    );
    let warm_traced = lat(true, true);
    out.set(
        "serve.transport_us",
        1e6 * (median(&warm_traced) - prepare_p50 - lookup_p50),
    );
    out.set("serve.run_ms_p50", 1e3 * median(&samples.run_s));
    out.set("serve.run_ms_p95", 1e3 * quantile(&samples.run_s, 0.95));
    let run_total: f64 = samples.run_s.iter().sum();
    out.set(
        "serve.run_ns_per_transition",
        1e9 * run_total / samples.run_transitions.max(1) as f64,
    );

    // Histogram sums and counters over the traced half only.
    let delta = |name: &str| prom(after, name) - prom(mid, name);
    let mean =
        |hist: &str| delta(&format!("{hist}_sum")) / delta(&format!("{hist}_count")).max(1.0);
    out.set("serve.queue_wait_ms", mean("hvx_serve_queue_wait_us") / 1e3);
    out.set("serve.journal_write_us", mean("hvx_serve_journal_write_us"));
    let total = |name: &str| prom(after, name) - prom(before, name);
    for (metric, family) in [
        ("serve.accepted", "hvx_serve_accepted_total"),
        ("serve.warm_hits", "hvx_serve_warm_hits_total"),
        ("serve.shed", "hvx_serve_shed_total"),
        ("serve.retries", "hvx_serve_retries_total"),
        ("serve.journal_errors", "hvx_serve_journal_errors_total"),
    ] {
        out.set(metric, total(family));
    }

    // Ledger of the traced half: warm round trips are prepare + lookup +
    // transport by definition; a cold request adds queue wait, run and
    // journal writes to its submit round trip. What is left is poll lag.
    let traced: Vec<&Request> = requests
        .iter()
        .filter(|r| r.traced && r.error.is_none())
        .collect();
    let wall: f64 = traced.iter().map(|r| r.latency_s).sum();
    let submits: f64 = traced.iter().map(|r| r.submit_s).sum();
    let attributed = submits
        + delta("hvx_serve_queue_wait_us_sum") / 1e6
        + run_total
        + delta("hvx_serve_journal_write_us_sum") / 1e6;
    let op = |traced: bool| {
        median(
            &requests
                .iter()
                .filter(|r| r.traced == traced && r.error.is_none())
                .map(|r| r.latency_s)
                .collect::<Vec<_>>(),
        )
    };
    out.finish(
        true,
        (wall - attributed).max(0.0) / wall.max(1e-12),
        op(false),
        op(true),
    );
}
