//! Machine-readable result forms shared by the CLI and the sweep
//! server.
//!
//! A degraded cell used to be visible only as an `n/a` gap in a
//! rendered table. [`CellReport`] is the structured counterpart: one
//! record per scenario carrying the typed failure kind, whether the
//! cache answered it, and the cell's content fingerprint —
//! exactly what a client polling `hvx-serve` (or a script parsing
//! `hvx-repro run --out json`) needs to triage a sweep without
//! scraping table text. The JSON encoding is the workspace serde
//! shim's deterministic writer, so two identical runs emit identical
//! report bytes.

use crate::error::ScenarioFailureKind;
use serde::{Deserialize, Serialize};

/// The structured outcome of one scenario (one sweep cell, one spec
/// run, or one chaos injection).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellReport {
    /// The scenario's display label (`oversub[KVM ARM/8:1/credit]`,
    /// `spec[consolidation-8to1]`, ...).
    pub scenario: String,
    /// Hex content fingerprint of the cell's full input closure, or
    /// `None` for uncacheable scenarios (chaos injections).
    pub fingerprint: Option<String>,
    /// Always 0: neither the runner nor the sweep server retries a run.
    /// The field goes with the next change to the benchmark in
    /// `perfbench/`, whose expected records carry it.
    pub retries: u32,
    /// Whether the result was served from the content-addressed cache
    /// instead of being simulated.
    pub cached: bool,
    /// Why the cell degraded; `None` on success.
    pub failure: Option<FailureReport>,
}

impl CellReport {
    /// True when the cell produced a result.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// The typed failure half of a degraded [`CellReport`]. Displays as
/// `kind: detail`, the form the `!!` lines of a degraded artifact print.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureReport {
    /// The failure class.
    pub kind: ScenarioFailureKind,
    /// Human-readable detail (panic message, tripped budget, ...).
    pub detail: String,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// A whole run's structured report: one [`CellReport`] per scenario,
/// in plan order (chaos injections last).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-scenario outcomes.
    pub cells: Vec<CellReport>,
}

impl RunReport {
    /// The degraded cells, in plan order.
    pub fn failed(&self) -> impl Iterator<Item = &CellReport> {
        self.cells.iter().filter(|c| !c.ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_the_serde_model() {
        let report = RunReport {
            cells: vec![
                CellReport {
                    scenario: "table3".into(),
                    fingerprint: Some("00112233445566778899aabbccddeeff".into()),
                    retries: 0,
                    cached: true,
                    failure: None,
                },
                CellReport {
                    scenario: "chaos-panic".into(),
                    fingerprint: None,
                    retries: 2,
                    cached: false,
                    failure: Some(FailureReport {
                        kind: ScenarioFailureKind::Panicked,
                        detail: "deliberate".into(),
                    }),
                },
            ],
        };
        let v = Serialize::serialize(&report);
        let back: RunReport = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, report);
        assert!(back.cells[0].ok());
        assert_eq!(back.failed().count(), 1);
    }
}
