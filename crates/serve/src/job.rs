//! The job model: what the server admits, runs, and reports.
//!
//! `hvx-serve` is deliberately ignorant of scenario semantics — it
//! never parses a `ScenarioSpec` or touches the runner. Everything
//! domain-specific is behind [`JobExecutor`], which the suite crate
//! implements by wiring the spec runner, the content-addressed cache,
//! and the `catch_unwind` isolation path together. That inversion
//! keeps the dependency graph acyclic (`serve` → `core`, `suite` →
//! `serve`) and makes the server testable with a mock executor.

use hvx_core::report::CellReport;
use hvx_core::ScenarioFailureKind;
use serde::{Deserialize, Serialize};

/// A submission after validation, ready for admission control.
///
/// Produced by [`JobExecutor::prepare`] before the server decides
/// whether to admit, dedupe, or shed — so a malformed body is rejected
/// with a 400 before it can occupy queue weight, and the fingerprint
/// is available at admission time to answer a re-submission from the
/// warm cache or from the server's record of failed runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreparedJob {
    /// Display name for logs, `/stats`, and status responses.
    pub label: String,
    /// Content fingerprint: everything that decides the job's outcome.
    /// For cacheable jobs this is the cache key (hex of the spec
    /// fingerprint); for uncacheable jobs (chaos probes) a stable
    /// synthetic key like `chaos-panic`, so the server still records
    /// their failures by kind.
    pub fingerprint: String,
    /// Whether results may be served from / stored to the cache.
    pub cacheable: bool,
    /// Admission weight, same scale as the runner's scenario weights
    /// (a paper artifact ~25, a consolidation cell 5 + ratio/2).
    pub weight: u64,
    /// The original request body, kept verbatim so the journal can
    /// re-prepare the job after a crash.
    pub body: String,
}

/// A finished job's payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobOutput {
    /// The rendered human-readable report, byte-identical to what a
    /// direct `hvx-repro run --spec` of the same body prints.
    pub report: String,
    /// The machine-readable per-cell report.
    pub cell: CellReport,
}

/// Why a job's run failed. A run is deterministic, so this is the
/// job's result: the server records it under the job's fingerprint
/// and answers every re-submission with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The classified failure.
    pub kind: ScenarioFailureKind,
    /// Human-readable detail (panic message, budget numbers, ...).
    pub detail: String,
}

/// Lifecycle of an admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; output is available.
    Done,
    /// Its run failed, or a run of the same fingerprint already had;
    /// the failure is available.
    Failed,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    /// Lower-case wire name (`"queued"`, `"running"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// What actually executes jobs. Implemented by the suite crate over
/// the real runner, and by mock executors in tests.
///
/// Implementations must be safe to call from multiple worker threads
/// concurrently. `run` is expected to contain its own panic isolation
/// (`catch_unwind`); a panic that escapes `run` kills a worker thread.
pub trait JobExecutor: Send + Sync {
    /// Validates a request body and derives its admission metadata.
    ///
    /// # Errors
    ///
    /// A human-readable message describing why the body is not a
    /// runnable job (returned to the client as a 400).
    fn prepare(&self, body: &str) -> Result<PreparedJob, String>;

    /// Consults the content-addressed cache for an already-computed
    /// result. Called at admission time so warm submissions are
    /// answered without ever entering the worker pool.
    fn lookup(&self, job: &PreparedJob) -> Option<JobOutput>;

    /// Executes the job, storing the result in the cache on success
    /// when the job is cacheable.
    ///
    /// A run must be a pure function of the job's fingerprint: the
    /// server runs a fingerprint that fails once, records the failure,
    /// and serves it to every re-submission of that fingerprint for as
    /// long as it retains the failed job.
    ///
    /// # Errors
    ///
    /// A classified [`JobFailure`]; it is the job's result, never
    /// retried.
    fn run(&self, job: &PreparedJob) -> Result<JobOutput, JobFailure>;

    /// Expands a sweep template body into individual job bodies, for
    /// batched (all-or-nothing) admission.
    ///
    /// # Errors
    ///
    /// A human-readable message when the template is malformed.
    fn expand(&self, body: &str) -> Result<Vec<String>, String>;

    /// Returns stored trace-query data (ranked critical chains as a
    /// JSON string) for a fingerprint, serving `GET /trace/<fp>` from
    /// the warm cache **without running anything**. `None` means no
    /// trace is stored for that fingerprint; the default
    /// implementation stores no traces.
    fn trace(&self, _fingerprint: &str) -> Option<String> {
        None
    }

    /// Result-cache writes that failed since the executor was built,
    /// exported as `cache_store_errors` in `/stats` and
    /// `hvx_serve_cache_store_errors_total` in `/metrics`. A failed
    /// write never fails its job, so this count is how a cache that
    /// has stopped persisting shows up. The default implementation
    /// has no cache and reports 0.
    fn cache_store_errors(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_states_know_their_terminality_and_names() {
        assert!(!JobState::Queued.terminal());
        assert!(!JobState::Running.terminal());
        assert!(JobState::Done.terminal());
        assert!(JobState::Failed.terminal());
        assert_eq!(JobState::Queued.as_str(), "queued");
        assert_eq!(JobState::Failed.as_str(), "failed");
    }

    #[test]
    fn prepared_jobs_round_trip_through_serde() {
        let job = PreparedJob {
            label: "consolidation 8:1".into(),
            fingerprint: "deadbeef".into(),
            cacheable: true,
            weight: 9,
            body: "{\"hypervisor\":\"kvm-arm\"}".into(),
        };
        let json = serde_json::to_string(&job).unwrap();
        let back: PreparedJob = serde_json::from_str(&json).unwrap();
        assert_eq!(back, job);
    }
}
