//! End-to-end behaviour of the content-addressed result cache and the
//! golden-baseline gate, through the same library entry points the
//! `hvx-repro` binary uses.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hvx::suite::cache::{self, ResultCache};
use hvx::suite::diff;
use hvx::suite::runner::{self, ArtifactId, RunnerConfig};

/// A unique scratch directory per test, safe under parallel test runs.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvx-it-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A cold run populates the cache; a warm rerun serves every cell from
/// it and renders byte-identical artifacts.
#[test]
fn warm_rerun_is_byte_identical_and_fully_cached() {
    let dir = tmpdir("warm");
    let artifacts = [ArtifactId::Table3, ArtifactId::Vhe, ArtifactId::Fig4];

    let cold_cache = Arc::new(ResultCache::open(&dir).unwrap());
    let cfg = RunnerConfig {
        cache: Some(cold_cache.clone()),
        ..Default::default()
    };
    let cold = runner::run_artifacts_with(&artifacts, 2, &cfg).unwrap();
    assert!(cold.failures().is_empty(), "{:?}", cold.failures());
    let cold_stats = cold_cache.stats();
    assert_eq!(cold_stats.hits, 0, "nothing to hit on a cold cache");
    assert!(cold_stats.stores > 0);
    assert_eq!(
        cold_stats.stores, cold_stats.misses,
        "every cacheable miss must be stored"
    );

    let warm_cache = Arc::new(ResultCache::open(&dir).unwrap());
    let cfg = RunnerConfig {
        cache: Some(warm_cache.clone()),
        ..Default::default()
    };
    let warm = runner::run_artifacts_with(&artifacts, 2, &cfg).unwrap();
    let warm_stats = warm_cache.stats();
    assert_eq!(warm_stats.misses, 0, "warm run must hit on every cell");
    assert_eq!(warm_stats.hits, cold_stats.stores);

    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(c.text, w.text, "{:?} text diverged on the warm run", c.id);
        assert_eq!(c.json, w.json, "{:?} json diverged on the warm run", c.id);
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Cache hits are indifferent to the job count: a serial cold run and a
/// parallel warm run render the same bytes.
#[test]
fn cache_is_jobs_invariant() {
    let dir = tmpdir("jobs");
    let artifacts = [ArtifactId::Table2, ArtifactId::Irq];

    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let cfg = RunnerConfig {
        cache: Some(cache),
        ..Default::default()
    };
    let serial = runner::run_artifacts_with(&artifacts, 1, &cfg).unwrap();

    let cache = Arc::new(ResultCache::open(&dir).unwrap());
    let cfg = RunnerConfig {
        cache: Some(cache.clone()),
        ..Default::default()
    };
    let parallel = runner::run_artifacts_with(&artifacts, 4, &cfg).unwrap();
    assert_eq!(cache.stats().misses, 0);
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(s.text, p.text);
        assert_eq!(s.json, p.json);
    }

    let _ = fs::remove_dir_all(&dir);
}

/// The full gate round trip: `baseline write` then `check` is clean,
/// and the check can run entirely from the cache the write populated.
#[test]
fn baseline_write_then_cached_check_is_clean() {
    let baseline_dir = tmpdir("gate-baseline");
    let cache_dir = tmpdir("gate-cache");
    let artifacts = vec![ArtifactId::Table3, ArtifactId::ZeroCopy];

    let cache = Arc::new(ResultCache::open(&cache_dir).unwrap());
    let report = diff::write_baseline(&baseline_dir, &artifacts, 2, Some(cache)).unwrap();
    assert_eq!(report.artifacts, artifacts);

    let cache = Arc::new(ResultCache::open(&cache_dir).unwrap());
    let check = diff::check_baseline(&baseline_dir, &[], 2, Some(cache.clone())).unwrap();
    assert!(check.drifted().is_empty(), "{}", check.rendered);
    assert!(!check.schema_bump);
    assert_eq!(
        cache.stats().misses,
        0,
        "check must run entirely from the cache the write populated"
    );

    let _ = fs::remove_dir_all(&baseline_dir);
    let _ = fs::remove_dir_all(&cache_dir);
}

/// The committed manifest records today's fingerprints: every scenario
/// of the baselined artifacts hashes to the bytes `baselines/` holds, so
/// a change that moves a fingerprint without rewriting the baseline
/// fails here instead of checking clean as a schema bump.
#[test]
fn committed_fingerprints_are_current() {
    let manifest = diff::BaselineManifest::load(Path::new(diff::DEFAULT_DIR)).unwrap();
    assert_eq!(manifest.schema, cache::SCHEMA_VERSION);
    let cfg = RunnerConfig::default();
    let current: Vec<(String, String)> = runner::plan(&manifest.artifacts)
        .into_iter()
        .map(|s| {
            let fingerprint = cache::scenario_fingerprint(s, &cfg).expect("cacheable");
            (s.label(), fingerprint.to_hex())
        })
        .collect();
    assert_eq!(current.len(), manifest.fingerprints.len());
    let moved: Vec<_> = current
        .iter()
        .zip(&manifest.fingerprints)
        .filter(|(now, committed)| now != committed)
        .collect();
    assert!(moved.is_empty(), "(current, committed): {moved:?}");
}

/// Tampering with committed baseline bytes while fingerprints stay put
/// is exactly what the gate calls drift, and it is a typed error.
#[test]
fn tampered_baseline_bytes_are_drift() {
    let baseline_dir = tmpdir("gate-drift");
    let artifacts = vec![ArtifactId::Vhe];
    diff::write_baseline(&baseline_dir, &artifacts, 1, None).unwrap();

    let path = baseline_dir.join("vhe.txt");
    let mut text = fs::read_to_string(&path).unwrap();
    text.push_str("tampered\n");
    fs::write(&path, text).unwrap();

    let check = diff::check_baseline(&baseline_dir, &[], 1, None).unwrap();
    assert_eq!(check.drifted(), vec![ArtifactId::Vhe]);
    let err = check.into_result().unwrap_err();
    assert!(
        matches!(err, hvx::Error::BaselineDrift { drifted: 1 }),
        "unexpected error: {err}"
    );

    let _ = fs::remove_dir_all(&baseline_dir);
}

/// Figure 4's span profiles are part of its artifact: editing one
/// stored profile while every rendered byte stays is drift, and the
/// report names the cell and the transition whose cycles moved.
#[test]
fn tampered_span_profile_is_drift() {
    let baseline_dir = tmpdir("gate-span-drift");
    let artifacts = vec![ArtifactId::Fig4];
    let report = diff::write_baseline(&baseline_dir, &artifacts, 2, None).unwrap();
    assert_eq!(report.span_profiles, 35);

    let path = baseline_dir.join("spans").join("tcp_rr-xen-arm.json");
    let text = fs::read_to_string(&path).unwrap();
    let tampered = text.replacen(
        "\"exclusive_cycles\": 48000,",
        "\"exclusive_cycles\": 48001,",
        1,
    );
    assert_ne!(tampered, text, "the stored profile has the edited row");
    fs::write(&path, tampered).unwrap();

    let check = diff::check_baseline(&baseline_dir, &[], 2, None).unwrap();
    assert_eq!(
        check.drifted(),
        vec![ArtifactId::Fig4],
        "{}",
        check.rendered
    );
    assert!(
        check
            .rendered
            .contains("fig4[TCP_RR/Xen ARM]: overhead unchanged, span profile changed"),
        "{}",
        check.rendered
    );
    assert!(check.rendered.contains("guest_run"), "{}", check.rendered);
    let err = check.into_result().unwrap_err();
    assert!(
        matches!(err, hvx::Error::BaselineDrift { drifted: 1 }),
        "unexpected error: {err}"
    );

    let _ = fs::remove_dir_all(&baseline_dir);
}
