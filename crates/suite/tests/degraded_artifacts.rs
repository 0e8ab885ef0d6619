//! Degraded artifacts are pinned byte for byte, not only by their
//! warning lines. A real `fig4 oversub rack table3` run, with chosen
//! scenarios replaced by failures, must assemble to the text and JSON
//! committed under `fixtures/degraded/`. That covers each way an
//! artifact degrades: a Figure 4 cell rendered as n/a, oversub's
//! analytic sweep and one consolidation cell, a rack cell omitted from
//! its table, and a single-scenario artifact reported unavailable.

use hvx_core::ScenarioFailureKind;
use hvx_suite::runner::{self, ArtifactId, ScenarioFailure};

/// The scenarios replaced by failures: label, failure kind, detail.
const FAILURES: [(&str, ScenarioFailureKind, &str); 5] = [
    (
        "fig4[Memcached/Xen ARM]",
        ScenarioFailureKind::Panicked,
        "induced panic",
    ),
    ("oversub", ScenarioFailureKind::TimedOut, "induced timeout"),
    (
        "oversub[KVM x86/4:1/cfs]",
        ScenarioFailureKind::Livelocked,
        "induced livelock",
    ),
    (
        "rack[4h/mixed]",
        ScenarioFailureKind::Failed,
        "induced error",
    ),
    (
        "table3",
        ScenarioFailureKind::Livelocked,
        "induced livelock",
    ),
];

/// Expected `(text, json)` per artifact, in assembly order.
const EXPECTED: [(ArtifactId, &str, &str); 4] = [
    (
        ArtifactId::Table3,
        include_str!("fixtures/degraded/table3.txt"),
        include_str!("fixtures/degraded/table3.json"),
    ),
    (
        ArtifactId::Fig4,
        include_str!("fixtures/degraded/fig4.txt"),
        include_str!("fixtures/degraded/fig4.json"),
    ),
    (
        ArtifactId::Oversub,
        include_str!("fixtures/degraded/oversubscription.txt"),
        include_str!("fixtures/degraded/oversubscription.json"),
    ),
    (
        ArtifactId::Rack,
        include_str!("fixtures/degraded/rack.txt"),
        include_str!("fixtures/degraded/rack.json"),
    ),
];

#[test]
fn degraded_artifacts_render_byte_for_byte() {
    let artifacts = EXPECTED.map(|(id, _, _)| id);
    let plan = runner::plan(&artifacts);
    let mut results = runner::run_scenarios(&plan, 2).unwrap();
    for (label, kind, detail) in FAILURES {
        let r = results
            .iter_mut()
            .find(|r| r.scenario.label() == label)
            .unwrap_or_else(|| panic!("no scenario labelled {label}"));
        r.outcome = Err(ScenarioFailure {
            kind,
            detail: detail.to_string(),
        });
    }
    let reports = runner::assemble(&artifacts, &results).unwrap();
    assert_eq!(reports.len(), EXPECTED.len());
    for (report, (id, text, json)) in reports.iter().zip(EXPECTED) {
        assert_eq!(report.id, id);
        assert_eq!(report.text, text, "{} text", id.cli_name());
        assert_eq!(report.json, json, "{} JSON", id.cli_name());
    }
    let failed: Vec<String> = reports
        .iter()
        .flat_map(|r| &r.failures)
        .map(|(label, f)| format!("{label}: {f}"))
        .collect();
    assert_eq!(
        failed,
        [
            "table3: livelocked: induced livelock",
            "fig4[Memcached/Xen ARM]: panicked: induced panic",
            "oversub: timed out: induced timeout",
            "oversub[KVM x86/4:1/cfs]: livelocked: induced livelock",
            "rack[4h/mixed]: failed: induced error",
        ]
    );
}
