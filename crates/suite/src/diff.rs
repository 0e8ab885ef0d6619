//! Golden-baseline snapshots and the regression gate.
//!
//! `hvx-repro baseline write` snapshots every requested artifact's
//! exact text and JSON bytes under a baseline directory, together with
//! the input [`Fingerprint`] of every scenario that produced them and
//! per-cell span profiles for the Figure 4 matrix. `hvx-repro check`
//! re-runs the same artifacts (cache-accelerated when a [`ResultCache`]
//! is supplied), byte-compares against the snapshot — Figure 4's span
//! profiles included, re-profiled every time — and classifies every
//! divergence:
//!
//! * **schema-bump** — the stored fingerprints no longer match the
//!   current input closure (a cost table, topology, workload mix, or
//!   [`SCHEMA_VERSION`] changed). The divergence is *expected*; the fix
//!   is to review it and rewrite the baseline.
//! * **drift** — fingerprints are unchanged but bytes differ: charging
//!   behaviour moved without its declared inputs moving. The check
//!   fails with [`Error::BaselineDrift`] (CLI exit code 4) and, for
//!   Figure 4, a per-cell span-delta report naming every cell whose
//!   overhead or span profile moved and the transitions that absorbed
//!   the change.
//!
//! [`Fingerprint`]: hvx_engine::Fingerprint
//! [`ResultCache`]: crate::cache::ResultCache
//! [`SCHEMA_VERSION`]: crate::cache::SCHEMA_VERSION

use crate::cache::{scenario_fingerprint, ResultCache, SCHEMA_VERSION};
use crate::runner::{self, ArtifactId, RunnerConfig};
use crate::spec_run::{paper_name, paper_workload};
use crate::{fig4, paper, profile};
use hvx_core::{Error, HvKind, ScenarioSpec};
use hvx_engine::ProfileSnapshot;
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The conventional in-repo baseline directory.
pub const DEFAULT_DIR: &str = "baselines";

fn baseline_err(what: impl Into<String>, detail: impl Into<String>) -> Error {
    Error::Baseline {
        what: what.into(),
        detail: detail.into(),
    }
}

fn runner_config(cache: Option<Arc<ResultCache>>) -> RunnerConfig {
    // Baselines are always written and checked under the inert
    // configuration: no faults, no budgets. A faulted or truncated run
    // must never become (or be compared against) the golden record.
    RunnerConfig {
        cache,
        ..RunnerConfig::default()
    }
}

/// The Figure 4 cells that get a span profile in the baseline: every
/// (workload, measured column) pair the paper can run, as paper-shape
/// specs.
fn span_profile_cells() -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for workload in hvx_core::Workload::ALL {
        for kind in paper::COLUMNS {
            if fig4::runs(workload.catalog_name(), kind) {
                out.push(ScenarioSpec::paper(kind).with_workload(workload));
            }
        }
    }
    out
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

fn artifact_paths(dir: &Path, id: ArtifactId) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("{}.json", id.json_name())),
        dir.join(format!("{}.txt", id.json_name())),
    )
}

fn span_path(dir: &Path, spec: &ScenarioSpec) -> PathBuf {
    dir.join("spans").join(format!("{}.json", paper_name(spec)))
}

/// Profiles every Figure 4 cell, in [`span_profile_cells`] order, as
/// the stored span-profile bytes.
fn profile_span_cells(jobs: usize) -> Result<Vec<(ScenarioSpec, ProfileSnapshot, String)>, Error> {
    let cells = span_profile_cells();
    let reports = profile::run_profiles(&cells, jobs)?;
    cells
        .into_iter()
        .zip(reports)
        .map(|(cell, report)| {
            let json =
                serde_json::to_string_pretty(&report.snapshot).map_err(|e| Error::Serialize {
                    what: "span profile",
                    detail: e.to_string(),
                })?;
            Ok((cell, report.snapshot, json))
        })
        .collect()
}

/// The parsed `manifest.json` of a baseline directory.
#[derive(Debug, Clone)]
pub struct BaselineManifest {
    /// Schema version the baseline was written under.
    pub schema: u32,
    /// Artifacts the baseline covers, in `ArtifactId::ALL` order.
    pub artifacts: Vec<ArtifactId>,
    /// `(scenario label, fingerprint hex)` for every scenario of the
    /// covered artifacts, in plan order.
    pub fingerprints: Vec<(String, String)>,
}

impl BaselineManifest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::U64(u64::from(self.schema))),
            (
                "artifacts".to_string(),
                Value::Array(
                    self.artifacts
                        .iter()
                        .map(|a| Value::Str(a.cli_name().to_string()))
                        .collect(),
                ),
            ),
            (
                "fingerprints".to_string(),
                Value::Object(
                    self.fingerprints
                        .iter()
                        .map(|(label, hex)| (label.clone(), Value::Str(hex.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<BaselineManifest> {
        let schema = u32::try_from(v.get("schema")?.as_u64()?).ok()?;
        let artifacts = v
            .get("artifacts")?
            .as_array()?
            .iter()
            .map(|a| ArtifactId::parse(a.as_str()?))
            .collect::<Option<Vec<_>>>()?;
        let fingerprints = v
            .get("fingerprints")?
            .as_object()?
            .iter()
            .map(|(label, hex)| Some((label.clone(), hex.as_str()?.to_string())))
            .collect::<Option<Vec<_>>>()?;
        Some(BaselineManifest {
            schema,
            artifacts,
            fingerprints,
        })
    }

    /// Loads and validates a baseline directory's manifest.
    ///
    /// # Errors
    ///
    /// [`Error::Baseline`] when the manifest is missing or malformed.
    pub fn load(dir: &Path) -> Result<BaselineManifest, Error> {
        let path = manifest_path(dir);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| baseline_err(format!("manifest {}", path.display()), e.to_string()))?;
        let value = serde_json::parse_value(&text)
            .map_err(|e| baseline_err(format!("manifest {}", path.display()), e.to_string()))?;
        BaselineManifest::from_value(&value).ok_or_else(|| {
            baseline_err(
                format!("manifest {}", path.display()),
                "missing or ill-typed manifest fields",
            )
        })
    }
}

fn current_fingerprints(artifacts: &[ArtifactId], cfg: &RunnerConfig) -> Vec<(String, String)> {
    runner::plan(artifacts)
        .into_iter()
        .map(|s| {
            (
                s.label(),
                scenario_fingerprint(s, cfg)
                    .map_or_else(|| "uncacheable".to_string(), |f| f.to_hex()),
            )
        })
        .collect()
}

/// What `baseline write` produced.
#[derive(Debug)]
pub struct WriteReport {
    /// Where the baseline was written.
    pub dir: PathBuf,
    /// The artifacts snapshotted.
    pub artifacts: Vec<ArtifactId>,
    /// How many per-cell span profiles were captured.
    pub span_profiles: usize,
}

/// Snapshots `artifacts` (text, JSON, fingerprints, and — when Figure 4
/// is included — per-cell span profiles) into `dir`, overwriting any
/// previous baseline there.
///
/// # Errors
///
/// [`Error::Baseline`] if any scenario fails (a failing run must not
/// become the golden record) or the directory cannot be written;
/// otherwise as for [`runner::run_artifacts_with`].
pub fn write_baseline(
    dir: &Path,
    artifacts: &[ArtifactId],
    jobs: usize,
    cache: Option<Arc<ResultCache>>,
) -> Result<WriteReport, Error> {
    let cfg = runner_config(cache);
    let outcome = runner::run_artifacts_with(artifacts, jobs, &cfg)?;
    let failures = outcome.failures();
    if let Some((label, failure)) = failures.first() {
        return Err(baseline_err(
            "write",
            format!(
                "{} scenario(s) failed (first: '{label}' {failure}); \
                 refusing to snapshot a failing run",
                failures.len()
            ),
        ));
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| baseline_err(format!("directory {}", dir.display()), e.to_string()))?;
    for report in &outcome.reports {
        let (json_path, text_path) = artifact_paths(dir, report.id);
        std::fs::write(&json_path, &report.json)
            .map_err(|e| baseline_err(json_path.display().to_string(), e.to_string()))?;
        std::fs::write(&text_path, &report.text)
            .map_err(|e| baseline_err(text_path.display().to_string(), e.to_string()))?;
    }

    let mut span_profiles = 0;
    if artifacts.contains(&ArtifactId::Fig4) {
        let spans_dir = dir.join("spans");
        std::fs::create_dir_all(&spans_dir).map_err(|e| {
            baseline_err(format!("directory {}", spans_dir.display()), e.to_string())
        })?;
        for (cell, _, json) in profile_span_cells(jobs)? {
            let path = span_path(dir, &cell);
            std::fs::write(&path, json)
                .map_err(|e| baseline_err(path.display().to_string(), e.to_string()))?;
            span_profiles += 1;
        }
    }

    let manifest = BaselineManifest {
        schema: SCHEMA_VERSION,
        artifacts: artifacts.to_vec(),
        fingerprints: current_fingerprints(artifacts, &cfg),
    };
    let data = serde_json::to_string_pretty(manifest.to_value()).map_err(|e| Error::Serialize {
        what: "baseline manifest",
        detail: e.to_string(),
    })?;
    let path = manifest_path(dir);
    std::fs::write(&path, data)
        .map_err(|e| baseline_err(path.display().to_string(), e.to_string()))?;
    Ok(WriteReport {
        dir: dir.to_path_buf(),
        artifacts: artifacts.to_vec(),
        span_profiles,
    })
}

/// How one checked artifact compared against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactVerdict {
    /// Byte-identical to the snapshot.
    Clean,
    /// Bytes differ and the input fingerprints also changed: expected.
    SchemaBump,
    /// Bytes differ under unchanged fingerprints: silent drift.
    Drift,
}

/// The outcome of `hvx-repro check`.
#[derive(Debug)]
pub struct CheckReport {
    /// Per-artifact verdicts, in check order.
    pub verdicts: Vec<(ArtifactId, ArtifactVerdict)>,
    /// Whether the run's input closure differs from the baseline's
    /// (fingerprints or schema version changed).
    pub schema_bump: bool,
    /// The rendered human report (verdict table plus any span deltas).
    pub rendered: String,
}

impl CheckReport {
    /// Artifacts that drifted.
    pub fn drifted(&self) -> Vec<ArtifactId> {
        self.verdicts
            .iter()
            .filter(|(_, v)| *v == ArtifactVerdict::Drift)
            .map(|(id, _)| *id)
            .collect()
    }

    /// `Ok(())` when the tree is clean (or divergence is an expected
    /// schema bump); [`Error::BaselineDrift`] when anything drifted.
    ///
    /// # Errors
    ///
    /// [`Error::BaselineDrift`] — the CLI maps it to exit code 4.
    pub fn into_result(self) -> Result<CheckReport, Error> {
        let drifted = self.drifted().len();
        if drifted == 0 {
            Ok(self)
        } else {
            Err(Error::BaselineDrift { drifted })
        }
    }
}

/// Re-profiles every Figure 4 cell and returns those whose span
/// profile no longer matches its stored bytes, each with its rendered
/// span deltas.
fn span_changes(dir: &Path, jobs: usize) -> Result<Vec<(ScenarioSpec, String)>, Error> {
    let mut changes = Vec::new();
    for (scenario, current, json) in profile_span_cells(jobs)? {
        let stored = std::fs::read_to_string(span_path(dir, &scenario)).ok();
        if stored.as_deref() == Some(json.as_str()) {
            continue;
        }
        let stored: Option<ProfileSnapshot> = stored.and_then(|t| serde_json::from_str(&t).ok());
        let rendered = match stored.map(|s| hvx_engine::span_deltas(&s, &current)) {
            None => "    (no stored span profile for this cell)\n".to_string(),
            Some(d) if d.is_empty() => {
                "    (exclusive cycles unchanged; other profile fields differ)\n".to_string()
            }
            Some(d) => hvx_engine::render_span_deltas(&d),
        };
        changes.push((scenario, rendered));
    }
    Ok(changes)
}

/// Builds the per-cell span-delta section for a drifted Figure 4
/// artifact: every cell whose measured overhead moved (parsed from both
/// JSON snapshots), then every other cell whose span profile changed,
/// each with its per-transition span deltas.
fn fig4_drilldown(
    baseline_json: &str,
    current_json: &str,
    spans: &[(ScenarioSpec, String)],
) -> String {
    let parse = |text: &str| -> Option<fig4::Figure4> {
        fig4::Figure4::deserialize(&serde_json::parse_value(text).ok()?).ok()
    };
    let mut out = String::new();
    let mut moved = Vec::new();
    if let (Some(base), Some(cur)) = (parse(baseline_json), parse(current_json)) {
        for (bg, cg) in base.groups.iter().zip(&cur.groups) {
            for (bb, cb) in bg.bars.iter().zip(&cg.bars) {
                if bb.measured != cb.measured {
                    moved.push((bg.workload.name, bb.hv, bb.measured, cb.measured));
                }
            }
        }
    } else {
        out.push_str("    (fig4 JSON unparsable; no per-cell overhead comparison)\n");
    }
    let fmt = |v: &Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.4}"));
    let is_cell = |spec: &ScenarioSpec, workload: &str, kind: HvKind| {
        paper_workload(spec).catalog_name() == workload && spec.hypervisor == kind
    };
    for (workload, kind, was, now) in &moved {
        out.push_str(&format!(
            "  fig4[{workload}/{kind}]: overhead {} -> {}\n",
            fmt(was),
            fmt(now)
        ));
        match spans.iter().find(|(sc, _)| is_cell(sc, workload, *kind)) {
            Some((_, deltas)) => out.push_str(deltas),
            None => out.push_str("    (span breakdown unchanged)\n"),
        }
    }
    for (spec, deltas) in spans {
        if !moved.iter().any(|(w, k, ..)| is_cell(spec, w, *k)) {
            out.push_str(&format!(
                "  fig4[{}/{}]: overhead unchanged, span profile changed\n{deltas}",
                paper_workload(spec).catalog_name(),
                spec.hypervisor
            ));
        }
    }
    if out.is_empty() {
        out.push_str("    (no per-cell overhead change; divergence is outside the cell values)\n");
    }
    out
}

/// Re-runs the baselined artifacts and classifies every divergence.
///
/// `filter` restricts the check to a subset of the baselined artifacts
/// (empty = all of them). The returned report is informational; call
/// [`CheckReport::into_result`] to turn drift into the CLI's exit-4
/// error.
///
/// # Errors
///
/// [`Error::Baseline`] for a missing/malformed baseline or a filter
/// naming an artifact the baseline does not cover; otherwise as for
/// [`runner::run_artifacts_with`].
pub fn check_baseline(
    dir: &Path,
    filter: &[ArtifactId],
    jobs: usize,
    cache: Option<Arc<ResultCache>>,
) -> Result<CheckReport, Error> {
    let manifest = BaselineManifest::load(dir)?;
    let artifacts: Vec<ArtifactId> = if filter.is_empty() {
        manifest.artifacts.clone()
    } else {
        for id in filter {
            if !manifest.artifacts.contains(id) {
                return Err(baseline_err(
                    "check",
                    format!("artifact '{}' is not in the baseline", id.cli_name()),
                ));
            }
        }
        manifest
            .artifacts
            .iter()
            .copied()
            .filter(|a| filter.contains(a))
            .collect()
    };

    let cfg = runner_config(cache);
    // Schema bump: the declared input closure changed, so every byte
    // divergence below is expected rather than drift.
    let current = current_fingerprints(&manifest.artifacts, &cfg);
    let stored: std::collections::BTreeMap<&str, &str> = manifest
        .fingerprints
        .iter()
        .map(|(l, h)| (l.as_str(), h.as_str()))
        .collect();
    let fingerprints_moved = current
        .iter()
        .any(|(label, hex)| stored.get(label.as_str()).copied() != Some(hex.as_str()));
    let schema_bump = manifest.schema != SCHEMA_VERSION || fingerprints_moved;

    let outcome = runner::run_artifacts_with(&artifacts, jobs, &cfg)?;
    // Figure 4's span profiles are part of its artifact, so a changed
    // attribution diverges even when every rendered byte stays.
    let changed_spans = if artifacts.contains(&ArtifactId::Fig4) {
        span_changes(dir, jobs)?
    } else {
        Vec::new()
    };
    let mut verdicts = Vec::new();
    let mut rendered = String::new();
    let mut drill = String::new();
    for report in &outcome.reports {
        let (json_path, text_path) = artifact_paths(dir, report.id);
        let stored_json = std::fs::read_to_string(&json_path)
            .map_err(|e| baseline_err(json_path.display().to_string(), e.to_string()))?;
        let stored_text = std::fs::read_to_string(&text_path)
            .map_err(|e| baseline_err(text_path.display().to_string(), e.to_string()))?;
        let identical = stored_json == report.json
            && stored_text == report.text
            && (report.id != ArtifactId::Fig4 || changed_spans.is_empty());
        let verdict = if identical {
            ArtifactVerdict::Clean
        } else if schema_bump {
            ArtifactVerdict::SchemaBump
        } else {
            ArtifactVerdict::Drift
        };
        rendered.push_str(&format!(
            "{:<10} {}\n",
            report.id.cli_name(),
            match verdict {
                ArtifactVerdict::Clean => "clean (byte-identical to baseline)",
                ArtifactVerdict::SchemaBump =>
                    "changed (expected: input fingerprints moved — schema bump)",
                ArtifactVerdict::Drift => "DRIFT (bytes changed, input fingerprints unchanged)",
            }
        ));
        if verdict == ArtifactVerdict::Drift && report.id == ArtifactId::Fig4 {
            drill.push_str(&fig4_drilldown(&stored_json, &report.json, &changed_spans));
        }
        verdicts.push((report.id, verdict));
    }
    if !drill.is_empty() {
        rendered.push_str("\nper-cell span deltas (current vs baseline):\n");
        rendered.push_str(&drill);
    }
    if schema_bump {
        rendered.push_str(
            "\nschema bump detected: review the changes, then refresh with \
             `hvx-repro baseline write`.\n",
        );
    }
    Ok(CheckReport {
        verdicts,
        schema_bump,
        rendered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hvx-baseline-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    // Table3 + an ablation keeps the write/check cycle fast while still
    // exercising both the single-scenario and manifest paths. Fig4's
    // end-to-end gate (including the drift drill) runs in the CLI
    // integration tests and scripts/baseline_check.sh.
    const QUICK: [ArtifactId; 2] = [ArtifactId::Table3, ArtifactId::Vhe];

    #[test]
    fn write_then_check_is_clean() {
        let dir = tmpdir("clean");
        let report = write_baseline(&dir, &QUICK, 1, None).unwrap();
        assert_eq!(report.artifacts, QUICK);
        assert_eq!(report.span_profiles, 0, "no fig4, no span profiles");
        let check = check_baseline(&dir, &[], 1, None).unwrap();
        assert!(!check.schema_bump);
        assert!(check
            .verdicts
            .iter()
            .all(|(_, v)| *v == ArtifactVerdict::Clean));
        assert!(check.drifted().is_empty());
        check.into_result().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_change_under_same_fingerprints_is_drift() {
        let dir = tmpdir("drift");
        write_baseline(&dir, &QUICK, 1, None).unwrap();
        // Corrupt the stored snapshot: same manifest fingerprints, so
        // the re-run (whose inputs did not move) must classify as drift.
        let (json_path, _) = artifact_paths(&dir, ArtifactId::Vhe);
        let mut text = std::fs::read_to_string(&json_path).unwrap();
        text.push('\n');
        std::fs::write(&json_path, text).unwrap();
        let check = check_baseline(&dir, &[], 1, None).unwrap();
        assert!(!check.schema_bump);
        assert_eq!(check.drifted(), vec![ArtifactId::Vhe]);
        assert!(check.rendered.contains("DRIFT"));
        assert!(matches!(
            check.into_result(),
            Err(Error::BaselineDrift { drifted: 1 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn moved_fingerprints_classify_as_schema_bump() {
        let dir = tmpdir("bump");
        write_baseline(&dir, &QUICK, 1, None).unwrap();
        // Rewrite the manifest with a bogus fingerprint for table3 and
        // perturb its stored bytes: the divergence must read as an
        // expected schema bump, not drift.
        let path = manifest_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let fp = scenario_fingerprint(runner::plan(&QUICK)[0], &RunnerConfig::default()).unwrap();
        let text = text.replace(&fp.to_hex(), &"0".repeat(32));
        std::fs::write(&path, text).unwrap();
        let (json_path, _) = artifact_paths(&dir, ArtifactId::Table3);
        let mut stored = std::fs::read_to_string(&json_path).unwrap();
        stored.push('\n');
        std::fs::write(&json_path, stored).unwrap();
        let check = check_baseline(&dir, &[], 1, None).unwrap();
        assert!(check.schema_bump);
        assert!(check.drifted().is_empty());
        assert!(check
            .verdicts
            .iter()
            .any(|(id, v)| *id == ArtifactId::Table3 && *v == ArtifactVerdict::SchemaBump));
        check.into_result().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filter_must_name_baselined_artifacts() {
        let dir = tmpdir("filter");
        write_baseline(&dir, &QUICK, 1, None).unwrap();
        let err = check_baseline(&dir, &[ArtifactId::Fig4], 1, None).unwrap_err();
        assert!(matches!(err, Error::Baseline { .. }));
        let check = check_baseline(&dir, &[ArtifactId::Vhe], 1, None).unwrap();
        assert_eq!(check.verdicts.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = tmpdir("missing");
        assert!(matches!(
            check_baseline(&dir, &[], 1, None),
            Err(Error::Baseline { .. })
        ));
    }
}
