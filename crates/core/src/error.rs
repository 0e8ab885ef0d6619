//! The repo-wide error type.
//!
//! Every fallible public operation in the workspace — building a
//! simulation, parsing a scenario name, running the artifact matrix,
//! serializing a report — funnels into [`Error`], so callers of the
//! `hvx` facade match on one `#[non_exhaustive]` enum instead of
//! string-typed panics scattered across crates.

use core::fmt;
use hvx_vio::VioError;

/// The unified error type of the hvx workspace.
///
/// `#[non_exhaustive]`: downstream matches must keep a wildcard arm so
/// new failure modes can be added without a breaking release.
///
/// # Examples
///
/// ```
/// use hvx_core::{Error, HvKind, ScenarioSpec, SimBuilder};
///
/// let mut spec = ScenarioSpec::paper(HvKind::KvmArm);
/// spec.topology.vcpus_per_vm = 64;
/// let err = SimBuilder::from_spec(spec).build().unwrap_err();
/// assert!(matches!(err, Error::InvalidCpus { requested: 64, .. }));
/// assert!(err.to_string().contains("64"));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The requested VCPU count is not supported by the paper's pinned
    /// 4-VCPU / 8-PCPU configuration (§III).
    InvalidCpus {
        /// The rejected VCPU count.
        requested: usize,
        /// What the models support.
        supported: usize,
    },
    /// A scenario name did not parse (e.g. `hvx-repro profile
    /// --scenario no-such-thing`).
    UnknownScenario {
        /// The unrecognized name.
        name: String,
    },
    /// An artifact name passed to the runner is not in the matrix.
    UnknownArtifact {
        /// The unrecognized name.
        name: String,
    },
    /// A workload name did not match the Figure 4 catalog.
    UnknownWorkload {
        /// The unrecognized name.
        name: String,
    },
    /// A vCPU scheduler name matched neither `credit` nor `cfs`.
    UnknownScheduler {
        /// The unrecognized name.
        name: String,
    },
    /// A [`ScenarioSpec`](crate::ScenarioSpec) failed validation or did
    /// not deserialize.
    InvalidSpec {
        /// What was wrong with it.
        detail: String,
    },
    /// The parallel runner was asked to run with zero worker threads.
    InvalidJobs {
        /// The rejected job count.
        jobs: usize,
    },
    /// A pre-measured cell set does not match the plan it claims to
    /// fill (internal consistency failure of the parallel runner).
    PlanMismatch {
        /// Cells the plan calls for.
        expected: usize,
        /// Cells supplied.
        got: usize,
    },
    /// Cycle-attribution conservation was violated: the per-transition
    /// exclusive spans plus the unattributed bucket do not sum to the
    /// machine's total busy cycles.
    Conservation {
        /// Σ exclusive + unattributed, in cycles.
        attributed: u64,
        /// Machine total busy cycles.
        total: u64,
    },
    /// A report could not be serialized.
    Serialize {
        /// What was being serialized.
        what: &'static str,
        /// The serializer's message.
        detail: String,
    },
    /// A paravirtual-I/O operation failed.
    Vio(VioError),
    /// An OS-level I/O operation (writing a report file) failed.
    Io(std::io::Error),
    /// A scenario failed inside the hardened runner (isolated by
    /// `catch_unwind`; other scenarios in the same run completed).
    Scenario {
        /// The failing scenario's display name.
        scenario: String,
        /// How it failed.
        kind: ScenarioFailureKind,
        /// Human-readable failure detail (panic message, budget
        /// numbers, livelock streak).
        detail: String,
    },
    /// A workload was asked to do something the modelled hardware
    /// cannot (e.g. a disk request larger than the device).
    Workload {
        /// The workload's catalog name.
        workload: &'static str,
        /// What was wrong with the request.
        detail: String,
    },
    /// A cost-model perturbation spec (`HVX_COST_PERTURB`) did not
    /// parse or named an unknown field.
    Perturbation {
        /// The parser's message.
        detail: String,
    },
    /// A baseline to read back (manifest or artifact snapshot) was
    /// missing or malformed.
    Baseline {
        /// The offending path or entry.
        what: String,
        /// What was wrong with it.
        detail: String,
    },
    /// `hvx-repro check` found artifacts whose bytes diverged from the
    /// golden baseline while their input fingerprints were unchanged —
    /// silent behavioural drift. Mapped to exit code 4 by the CLI.
    BaselineDrift {
        /// How many artifacts drifted.
        drifted: usize,
    },
    /// The sweep server refused or failed an operation (a malformed
    /// request, a shed submission, a quarantined fingerprint, or an
    /// I/O failure on the journal). Carried back to clients as the
    /// structured error body of the HTTP response.
    Serve {
        /// What went wrong, human-readable.
        detail: String,
    },
    /// `hvx-repro trace query --validate` found structural violations
    /// in an exported Chrome trace (malformed events, non-monotone
    /// per-track timestamps, or missing kick→delivery flow chains).
    TraceInvalid {
        /// The violations, one human-readable line each.
        problems: Vec<String>,
    },
}

/// How an isolated scenario failed (see [`Error::Scenario`]).
///
/// Serializes as its variant name — the machine-readable form the
/// structured reports (`crate::report`) and the sweep server put on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScenarioFailureKind {
    /// The scenario panicked (a model invariant or `expect` tripped).
    Panicked,
    /// The scenario exceeded its simulated-cycle budget or wall-clock
    /// timeout.
    TimedOut,
    /// The scenario's watchdog detected zero simulated progress.
    Livelocked,
    /// The scenario returned a typed error (no unwinding involved) —
    /// a malformed request degraded gracefully instead of panicking.
    Failed,
}

impl fmt::Display for ScenarioFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScenarioFailureKind::Panicked => "panicked",
            ScenarioFailureKind::TimedOut => "timed out",
            ScenarioFailureKind::Livelocked => "livelocked",
            ScenarioFailureKind::Failed => "failed",
        })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidCpus {
                requested,
                supported,
            } => write!(
                f,
                "invalid VCPU count {requested}: the paper's pinned configuration \
                 has exactly {supported} VCPUs"
            ),
            Error::UnknownScenario { name } => write!(f, "unknown scenario '{name}'"),
            Error::UnknownArtifact { name } => write!(f, "unknown artifact '{name}'"),
            Error::UnknownWorkload { name } => write!(f, "unknown workload '{name}'"),
            Error::UnknownScheduler { name } => {
                write!(f, "unknown scheduler '{name}' (expected 'credit' or 'cfs')")
            }
            Error::InvalidSpec { detail } => write!(f, "invalid scenario spec: {detail}"),
            Error::InvalidJobs { jobs } => {
                write!(f, "invalid job count {jobs}: need at least one job")
            }
            Error::PlanMismatch { expected, got } => {
                write!(f, "plan mismatch: expected {expected} cells, got {got}")
            }
            Error::Conservation { attributed, total } => write!(
                f,
                "cycle attribution broken: {attributed} attributed vs {total} total busy cycles"
            ),
            Error::Serialize { what, detail } => {
                write!(f, "failed to serialize {what}: {detail}")
            }
            Error::Vio(e) => write!(f, "paravirtual I/O failed: {e}"),
            Error::Io(e) => write!(f, "I/O failed: {e}"),
            Error::Scenario {
                scenario,
                kind,
                detail,
            } => write!(f, "scenario '{scenario}' {kind}: {detail}"),
            Error::Workload { workload, detail } => {
                write!(f, "workload '{workload}' rejected: {detail}")
            }
            Error::Perturbation { detail } => {
                write!(f, "bad HVX_COST_PERTURB spec: {detail}")
            }
            Error::Baseline { what, detail } => {
                write!(f, "bad baseline {what}: {detail}")
            }
            Error::Serve { detail } => write!(f, "serve: {detail}"),
            Error::TraceInvalid { problems } => {
                write!(f, "invalid trace: {} violation(s)", problems.len())?;
                for p in problems {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
            Error::BaselineDrift { drifted } => write!(
                f,
                "baseline drift: {drifted} artifact(s) changed bytes with unchanged \
                 input fingerprints"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Vio(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VioError> for Error {
    fn from(e: VioError) -> Self {
        Error::Vio(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = Error::InvalidCpus {
            requested: 7,
            supported: 4,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));
        assert!(Error::UnknownScenario {
            name: "bogus".into()
        }
        .to_string()
        .contains("bogus"));
        assert!(Error::InvalidJobs { jobs: 0 }
            .to_string()
            .contains("at least one job"));
        assert!(Error::Conservation {
            attributed: 99,
            total: 100
        }
        .to_string()
        .contains("99"));
    }

    #[test]
    fn source_chains_to_wrapped_errors() {
        use std::error::Error as _;
        let e = Error::from(VioError::QueueFull);
        assert!(e.source().is_some());
        assert!(Error::InvalidJobs { jobs: 0 }.source().is_none());
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        assert!(io.source().is_some());
    }
}
