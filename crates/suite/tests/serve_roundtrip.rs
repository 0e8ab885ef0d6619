//! End-to-end sweep-server tests: a real `hvx-serve` server over
//! loopback, backed by the real [`SuiteExecutor`] (spec runner +
//! content-addressed cache). Pins the ISSUE-level guarantees:
//!
//! * a served spec result is **byte-identical** to a direct
//!   `spec_run::run_spec` of the same body;
//! * a warm resubmission is answered from the cache at admission time
//!   (the job is born `done`, no worker runs);
//! * a failing spec or chaos probe runs once: its typed failure is
//!   recorded under its fingerprint and answers every re-submission,
//!   while the server keeps answering;
//! * a result the cache fails to store is counted in `/stats` and
//!   `/metrics` while its job still succeeds.

use hvx_core::{HvKind, ScenarioSpec, SchedPolicy};
use hvx_serve::{client, Server, ServerConfig};
use hvx_suite::cache::ResultCache;
use hvx_suite::service::SuiteExecutor;
use hvx_suite::spec_run;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvx-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Running {
    addr: String,
    handle: std::thread::JoinHandle<Result<(), hvx_core::Error>>,
}

fn start(cfg: ServerConfig, cache: Option<Arc<ResultCache>>) -> Running {
    let server = Server::bind(cfg, Arc::new(SuiteExecutor::new(cache))).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

fn stop(r: Running) {
    client::drain(&r.addr).unwrap();
    r.handle.join().unwrap().unwrap();
}

fn spec_body(ratio: u32, txns: u32) -> String {
    let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, ratio, SchedPolicy::Credit);
    spec.transactions = Some(txns);
    serde_json::to_string(Serialize::serialize(&spec)).unwrap()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap()
}

#[test]
fn served_reports_are_byte_identical_to_direct_runs_and_dedupe_warm() {
    let dir = temp_dir("roundtrip");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    let r = start(
        ServerConfig {
            journal: Some(dir.join("journal.jsonl")),
            ..ServerConfig::default()
        },
        Some(Arc::clone(&cache)),
    );

    let body = spec_body(8, 12);
    let direct = spec_run::run_spec(&spec_run::parse(&body).unwrap()).unwrap();

    // Cold: admitted, runs on a worker, terminal state carries the
    // report byte-identical to the direct run.
    let (status, v) = client::submit(&r.addr, "it", &body).unwrap();
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("job").and_then(Value::as_u64).unwrap();
    let done = client::wait(&r.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    assert_eq!(str_of(&done, "report"), direct, "server == direct bytes");
    assert_eq!(done.get("cached").unwrap(), &Value::Bool(false));

    // Warm: same spec (even as byte-different JSON — reserialized) is
    // answered `done` at admission; the job id advances but no worker
    // ran (stats: one more warm hit, accepted grows, running drains).
    let reserialized =
        serde_json::to_string(Serialize::serialize(&spec_run::parse(&body).unwrap())).unwrap();
    let (status, v) = client::submit(&r.addr, "it", &reserialized).unwrap();
    assert_eq!(status, 200, "warm submissions answer immediately: {v:?}");
    assert_eq!(str_of(&v, "state"), "done");
    assert_eq!(v.get("cached").unwrap(), &Value::Bool(true));
    let warm_id = v.get("job").and_then(Value::as_u64).unwrap();
    let (_, warm) = client::poll(&r.addr, warm_id).unwrap();
    assert_eq!(str_of(&warm, "report"), direct, "warm == direct bytes");

    let stats = client::stats(&r.addr).unwrap();
    assert_eq!(stats.get("warm_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("accepted_total").and_then(Value::as_u64), Some(2));

    stop(r);
}

#[test]
fn sweep_admits_all_or_nothing_and_serves_every_cell() {
    let dir = temp_dir("sweep");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    let r = start(
        ServerConfig {
            journal: Some(dir.join("journal.jsonl")),
            client_inflight_cap: 16,
            ..ServerConfig::default()
        },
        Some(cache),
    );

    let template = format!(
        "{{\"sweep\": {{\"base\": {}, \"ratios\": [2, 4], \"schedulers\": [\"credit\", \"cfs\"]}}}}",
        spec_body(2, 6)
    );
    let (status, v) = client::sweep(&r.addr, "it", &template).unwrap();
    assert_eq!(status, 202, "{v:?}");
    let jobs = v.get("jobs").and_then(Value::as_array).unwrap().to_vec();
    assert_eq!(jobs.len(), 4);
    for id in &jobs {
        let done = client::wait(&r.addr, id.as_u64().unwrap(), Duration::from_secs(60)).unwrap();
        assert_eq!(str_of(&done, "state"), "done", "{done:?}");
        // Every cell's report went through the real spec runner.
        assert!(str_of(&done, "report").contains("== scenario spec run =="));
    }

    stop(r);
}

/// Completed runs so far, read from `/metrics`: one per worker run,
/// none for a submission answered at admission.
fn runs(addr: &str) -> f64 {
    client::metrics(addr)
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("hvx_serve_run_us_count "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap()
}

/// Submits `body` and waits for its terminal status.
fn finish(addr: &str, body: &str) -> (u16, Value) {
    let (status, v) = client::submit(addr, "it", body).unwrap();
    let id = v.get("job").and_then(Value::as_u64).unwrap();
    (
        status,
        client::wait(addr, id, Duration::from_secs(60)).unwrap(),
    )
}

#[test]
fn a_spec_that_trips_its_watchdog_runs_once_and_answers_from_its_record() {
    let dir = temp_dir("tripped");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    let r = start(ServerConfig::default(), Some(cache));

    let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, 8, SchedPolicy::Credit);
    spec.watchdog.cycle_budget = Some(1000);
    let body = serde_json::to_string(Serialize::serialize(&spec)).unwrap();
    let mut details = Vec::new();
    for (round, expect_status) in [(0, 202), (1, 200), (2, 200)] {
        let (status, done) = finish(&r.addr, &body);
        assert_eq!(status, expect_status, "round {round}: {done:?}");
        assert_eq!(str_of(&done, "state"), "failed");
        assert_eq!(
            done.get("cached").unwrap(),
            &Value::Bool(round > 0),
            "round {round}"
        );
        let failure = done.get("failure").unwrap();
        assert_eq!(str_of(failure, "kind"), "timed out");
        details.push(str_of(failure, "detail").to_string());
    }
    assert_eq!(runs(&r.addr), 1.0, "three submissions, one run");
    assert!(details.iter().all(|d| *d == details[0]), "{details:?}");

    // The watchdog is part of the fingerprint: without the budget the
    // same cell is another key, and it runs to `done`.
    spec.watchdog.cycle_budget = None;
    let body = serde_json::to_string(Serialize::serialize(&spec)).unwrap();
    let (status, done) = finish(&r.addr, &body);
    assert_eq!(status, 202, "{done:?}");
    assert_eq!(str_of(&done, "state"), "done");
    assert_eq!(runs(&r.addr), 2.0);

    stop(r);
}

#[test]
fn chaos_probes_are_typed_recorded_per_kind_and_leave_the_server_alive() {
    let dir = temp_dir("chaos");
    let r = start(
        ServerConfig {
            journal: Some(dir.join("journal.jsonl")),
            ..ServerConfig::default()
        },
        None,
    );

    let panic = "{\"chaos\": \"panic\"}";
    let (status, done) = finish(&r.addr, panic);
    assert_eq!(status, 202, "{done:?}");
    assert_eq!(str_of(&done, "state"), "failed");
    assert_eq!(str_of(done.get("failure").unwrap(), "kind"), "panicked");
    assert_eq!(done.get("cached").unwrap(), &Value::Bool(false));

    // A probe's outcome depends only on its kind: a re-submission is
    // answered from the record without a run...
    let (status, again) = finish(&r.addr, panic);
    assert_eq!(status, 200, "{again:?}");
    assert_eq!(again.get("cached").unwrap(), &Value::Bool(true));
    assert_eq!(again.get("failure"), done.get("failure"));
    assert_eq!(runs(&r.addr), 1.0);

    // ...and each kind is its own key: a spin probe still runs, and
    // then its own failure is recorded.
    let spin = "{\"chaos\": \"spin\"}";
    let (status, spun) = finish(&r.addr, spin);
    assert_eq!(status, 202, "{spun:?}");
    assert_eq!(str_of(spun.get("failure").unwrap(), "kind"), "timed out");
    let (status, again) = finish(&r.addr, spin);
    assert_eq!(status, 200, "{again:?}");
    assert_eq!(again.get("failure"), spun.get("failure"));
    assert_eq!(runs(&r.addr), 2.0);

    // And the server is fully alive: a real spec still round-trips.
    let (status, done) = finish(&r.addr, &spec_body(2, 4));
    assert_eq!(status, 202, "{done:?}");
    assert_eq!(str_of(&done, "state"), "done");

    stop(r);
}

#[test]
fn cache_store_failures_are_counted_in_stats_and_metrics() {
    let dir = temp_dir("store-errors");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    let r = start(ServerConfig::default(), Some(cache));

    // Pull the cache directory out from under the running server: the
    // cold cell below still runs, but its result cannot be stored.
    std::fs::remove_dir_all(dir.join("cache")).unwrap();
    let (status, v) = client::submit(&r.addr, "it", &spec_body(2, 6)).unwrap();
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("job").and_then(Value::as_u64).unwrap();
    let done = client::wait(&r.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(str_of(&done, "state"), "done", "a lost write fails no job");

    let stats = client::stats(&r.addr).unwrap();
    let in_stats = stats.get("cache_store_errors").and_then(Value::as_u64);
    assert!(in_stats >= Some(1), "stats: {stats:?}");
    let metrics = client::metrics(&r.addr).unwrap();
    let in_metrics = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hvx_serve_cache_store_errors_total "))
        .and_then(|n| n.trim().parse::<f64>().ok());
    assert!(in_metrics >= Some(1.0), "metrics:\n{metrics}");

    stop(r);
}
