//! Content-addressed scenario result cache.
//!
//! Every cacheable [`Scenario`] has a stable [`Fingerprint`] over its
//! **full input closure**: the simulator schema version, both pinned
//! cost tables, the paper topology, the ambient fault plan and
//! watchdog, and the scenario's own parameters (workload definition,
//! hypervisor kind, iteration counts). Two runs with identical inputs
//! therefore share a fingerprint, and a warm rerun can serve the stored
//! [`Output`] instead of re-simulating — byte-identical by
//! construction, because artifacts are assembled from the decoded
//! `Output` through the exact same rendering path a live run uses.
//!
//! The on-disk layout is `DIR/v<SCHEMA_VERSION>/<fingerprint>.json`.
//! Entries are written to a unique temp file and renamed into place, so
//! concurrent `--jobs N` workers (or concurrent processes) populate the
//! cache race-free: a rename either installs a complete entry or loses
//! to an identical one. A write that fails is logged
//! (`cache_store_failed`) and counted ([`ResultCache::store_errors`]);
//! the run carries on and the next one re-simulates the cell.
//!
//! Bump [`SCHEMA_VERSION`] whenever charging logic, trace labels, or
//! the serialized payload shapes change meaning without changing the
//! hashed inputs. The version is part of both the fingerprint and the
//! directory name, so stale entries are never consulted.
//!
//! ```no_run
//! use hvx_suite::cache::ResultCache;
//! use hvx_suite::runner::{self, ArtifactId, RunnerConfig};
//! use std::sync::Arc;
//!
//! let cfg = RunnerConfig {
//!     cache: Some(Arc::new(ResultCache::open("cache-dir".as_ref())?)),
//!     ..RunnerConfig::default()
//! };
//! let warm = runner::run_artifacts_with(&[ArtifactId::Table3], 1, &cfg)?;
//! # Ok::<(), hvx_core::Error>(())
//! ```

use crate::runner::{Output, RunnerConfig, Scenario};
use crate::{paper, workloads};
use hvx_core::{CostModel, Error};
use hvx_engine::{Fingerprint, FingerprintHasher, Topology};
use hvx_obs::LogValue;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the simulator's charging semantics and payload shapes.
///
/// Part of every fingerprint **and** the cache/baseline directory
/// layout: bumping it invalidates all cached entries and turns every
/// baseline divergence into an expected `schema-bump` instead of drift.
pub const SCHEMA_VERSION: u32 = 5;

/// Computes the content fingerprint of one scenario under one runner
/// configuration, or `None` for scenarios that must never be cached
/// (chaos injections and out-of-catalog indices).
pub fn scenario_fingerprint(scenario: Scenario, cfg: &RunnerConfig) -> Option<Fingerprint> {
    let mut h = FingerprintHasher::new();
    h.write_str("hvx-scenario");
    h.write_u32(SCHEMA_VERSION);
    // The pinned charging constants for both platforms: editing any
    // cost table changes every scenario's fingerprint, which the
    // baseline gate classifies as a schema bump rather than drift.
    CostModel::arm().fingerprint_into(&mut h);
    CostModel::x86().fingerprint_into(&mut h);
    h.write_serialize(&Topology::paper_default());
    // Host-level topology of the multi-host executor: every host in a
    // rack runs the per-host topology above, and the inter-host wire
    // latency doubles as the PDES lookahead bound, so changing it
    // re-times every rack cell.
    h.write_str("host-topology");
    h.write_u64(crate::rack::RACK_WIRE);
    match &cfg.fault_plan {
        Some(plan) => plan.fingerprint_into(&mut h),
        None => h.write_str("no_faults"),
    }
    cfg.watchdog.fingerprint_into(&mut h);
    match scenario {
        Scenario::Table2 { iters } => {
            h.write_str("table2");
            h.write_u64(iters as u64);
        }
        Scenario::Table3 => h.write_str("table3"),
        Scenario::Table5 { transactions } => {
            h.write_str("table5");
            h.write_u64(transactions as u64);
        }
        Scenario::Fig4Cell { workload, column } => {
            h.write_str("fig4-cell");
            // The whole workload definition (name, request mix, sector
            // counts), not just its name: growing a mix must miss.
            h.write_serialize(workloads::catalog().get(workload)?);
            h.write_str(&paper::COLUMNS.get(column)?.to_string());
        }
        Scenario::ConsolidationCell {
            column,
            ratio,
            sched,
        } => {
            h.write_str("consolidation-cell");
            h.write_str(&crate::paper::COLUMNS.get(column)?.to_string());
            h.write_u64(u64::from(ratio));
            h.write_str(sched.name());
            h.write_u64(u64::from(crate::consolidation::TRANSACTIONS_PER_VM));
        }
        Scenario::RackCell { hosts, composition } => {
            h.write_str("rack-cell");
            h.write_u64(u64::from(hosts));
            h.write_str(composition.name());
            h.write_u64(u64::from(crate::rack::VMS_PER_HOST));
            h.write_u64(u64::from(crate::rack::ROUNDS));
        }
        Scenario::Ablation(a) => {
            h.write_str("ablation");
            h.write_str(a.cli_name());
        }
        Scenario::Chaos(_) => return None,
    }
    Some(h.finish())
}

/// Computes the content fingerprint of a full
/// [`ScenarioSpec`](hvx_core::ScenarioSpec): the
/// schema version, both pinned cost tables, and every field of the
/// spec itself (hypervisor, topology, scheduler, workload, virq
/// policy, transaction count, fault plan, watchdog — all captured by
/// the spec's canonical serialization).
///
/// This is the dedupe key of the sweep server: two clients submitting
/// byte-different JSON that parses to the same spec share a
/// fingerprint, and a warm submission is answered from the cache
/// without re-running. Distinct from [`scenario_fingerprint`] by the
/// domain tag, so spec entries and scenario entries never collide.
pub fn spec_fingerprint(spec: &hvx_core::ScenarioSpec) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("hvx-spec");
    h.write_u32(SCHEMA_VERSION);
    CostModel::arm().fingerprint_into(&mut h);
    CostModel::x86().fingerprint_into(&mut h);
    h.write_serialize(spec);
    h.finish()
}

/// Encodes an [`Output`] as a `(tag, payload)` pair, or `None` for the
/// uncacheable chaos sentinel.
fn encode_output(output: &Output) -> Option<(&'static str, Value)> {
    Some(match output {
        Output::Table2(t) => ("table2", t.serialize()),
        Output::Table3(t) => ("table3", t.serialize()),
        Output::Table5(t) => ("table5", t.as_ref().serialize()),
        Output::Fig4Cell(c) => ("fig4-cell", c.serialize()),
        Output::Irq(r) => ("irq", r.serialize()),
        Output::Vhe(v) => ("vhe", v.serialize()),
        Output::ZeroCopy(z) => ("zerocopy", z.serialize()),
        Output::Link(l) => ("link", l.serialize()),
        Output::Vapic(v) => ("vapic", v.serialize()),
        Output::Storage(s) => ("storage", s.serialize()),
        Output::Oversub(o) => ("oversub", o.serialize()),
        Output::Consolidation(c) => ("consolidation-cell", c.serialize()),
        Output::Rack(c) => ("rack-cell", c.serialize()),
        Output::FaultRec(f) => ("faultrec", f.serialize()),
        Output::Chaos => return None,
    })
}

/// Rebuilds an [`Output`] from its stored `(tag, payload)` pair.
fn decode_output(tag: &str, payload: &Value) -> Option<Output> {
    Some(match tag {
        "table2" => Output::Table2(Deserialize::deserialize(payload).ok()?),
        "table3" => Output::Table3(Deserialize::deserialize(payload).ok()?),
        "table5" => Output::Table5(Box::new(Deserialize::deserialize(payload).ok()?)),
        "fig4-cell" => Output::Fig4Cell(Deserialize::deserialize(payload).ok()?),
        "irq" => Output::Irq(Deserialize::deserialize(payload).ok()?),
        "vhe" => Output::Vhe(Deserialize::deserialize(payload).ok()?),
        "zerocopy" => Output::ZeroCopy(Deserialize::deserialize(payload).ok()?),
        "link" => Output::Link(Deserialize::deserialize(payload).ok()?),
        "vapic" => Output::Vapic(Deserialize::deserialize(payload).ok()?),
        "storage" => Output::Storage(Deserialize::deserialize(payload).ok()?),
        "oversub" => Output::Oversub(Deserialize::deserialize(payload).ok()?),
        "consolidation-cell" => Output::Consolidation(Deserialize::deserialize(payload).ok()?),
        "rack-cell" => Output::Rack(Deserialize::deserialize(payload).ok()?),
        "faultrec" => Output::FaultRec(Deserialize::deserialize(payload).ok()?),
        _ => return None,
    })
}

/// Hit/miss/store counters of one [`ResultCache`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Cacheable lookups that had to run live.
    pub misses: u64,
    /// Entries written this run.
    pub stores: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache: {} hits, {} misses, {} stores",
            self.hits, self.misses, self.stores
        )
    }
}

/// A persistent, content-addressed store of scenario results.
///
/// Handles are cheap to share behind an `Arc`; all methods take `&self`
/// and are safe to call from the runner's worker threads.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
    tmp_seq: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache rooted at `dir`. Entries
    /// live under a schema-versioned subdirectory, so a schema bump
    /// abandons old entries without touching them.
    ///
    /// # Errors
    ///
    /// [`Error::Baseline`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<ResultCache, Error> {
        let dir = dir.join(format!("v{SCHEMA_VERSION}"));
        std::fs::create_dir_all(&dir).map_err(|e| Error::Baseline {
            what: format!("cache directory {}", dir.display()),
            detail: e.to_string(),
        })?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The versioned directory entries are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up the stored result for `scenario` under `cfg`. Counts a
    /// hit or miss; returns `None` for uncacheable scenarios, absent
    /// entries, and entries that fail validation (wrong schema, wrong
    /// fingerprint, undecodable payload — all treated as misses).
    pub fn lookup(&self, scenario: Scenario, cfg: &RunnerConfig) -> Option<Output> {
        let fp = scenario_fingerprint(scenario, cfg)?;
        self.counted(
            self.read_entry(&fp.to_hex())
                .and_then(|(kind, payload)| decode_output(&kind, &payload)),
        )
    }

    /// Looks up a raw entry by hex fingerprint and kind tag — the
    /// server-facing face of the cache, where keys are spec
    /// fingerprints ([`spec_fingerprint`]) rather than [`Scenario`]s.
    /// Returns the stored payload, validated the same way as scenario
    /// entries, with the kind required to match too; anything else is a
    /// miss.
    pub fn lookup_raw(&self, fp_hex: &str, kind: &str) -> Option<Value> {
        self.counted(
            self.read_entry(fp_hex)
                .filter(|(stored, _)| stored == kind)
                .map(|(_, payload)| payload),
        )
    }

    /// Counts a lookup's outcome as a hit or a miss.
    fn counted<T>(&self, found: Option<T>) -> Option<T> {
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The one entry reader: the `(kind, payload)` stored under `key`,
    /// or `None` unless the file parses, carries this
    /// [`SCHEMA_VERSION`], and names `key` as its fingerprint.
    fn read_entry(&self, key: &str) -> Option<(String, Value)> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let entry = serde_json::parse_value(&text).ok()?;
        if entry.get("schema")?.as_u64()? != u64::from(SCHEMA_VERSION)
            || entry.get("fingerprint")?.as_str()? != key
        {
            return None;
        }
        let kind = entry.get("kind")?.as_str()?.to_string();
        let Value::Object(fields) = entry else {
            return None;
        };
        let (_, payload) = fields.into_iter().find(|(k, _)| k == "payload")?;
        Some((kind, payload))
    }

    /// Stores a clean result. Best-effort: an I/O failure is logged and
    /// counted ([`ResultCache::store_errors`]) but never fails the run
    /// (the next run simply re-simulates). Chaos scenarios and failed
    /// outcomes are never stored.
    pub fn store(&self, scenario: Scenario, cfg: &RunnerConfig, output: &Output) {
        let Some(fp) = scenario_fingerprint(scenario, cfg) else {
            return;
        };
        let Some((kind, payload)) = encode_output(output) else {
            return;
        };
        self.write_entry(&fp.to_hex(), Some(scenario.label()), kind, payload);
    }

    /// Stores a raw entry under a hex fingerprint. Same atomicity and
    /// best-effort semantics as [`ResultCache::store`].
    pub fn store_raw(&self, fp_hex: &str, kind: &str, payload: Value) {
        self.write_entry(fp_hex, None, kind, payload);
    }

    /// The one entry writer: installs `<key>.json` carrying the schema
    /// version, `key` as its fingerprint, the scenario label of a typed
    /// entry, the kind tag and the payload. Unique temp name per
    /// (process, handle, write): concurrent workers never collide, and
    /// rename-into-place means readers only ever see complete entries.
    /// Content addressing makes the race benign — both writers install
    /// identical bytes.
    fn write_entry(&self, key: &str, scenario: Option<String>, kind: &str, payload: Value) {
        let mut fields = vec![
            ("schema".to_string(), Value::U64(u64::from(SCHEMA_VERSION))),
            ("fingerprint".to_string(), Value::Str(key.to_string())),
        ];
        fields.extend(scenario.map(|label| ("scenario".to_string(), Value::Str(label))));
        fields.push(("kind".to_string(), Value::Str(kind.to_string())));
        fields.push(("payload".to_string(), payload));
        let dst = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{key}.{}.{}.tmp",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let written = serde_json::to_string_pretty(Value::Object(fields))
            .map_err(|e| e.to_string())
            .and_then(|text| {
                std::fs::write(&tmp, text)
                    .and_then(|()| std::fs::rename(&tmp, &dst))
                    .map_err(|e| e.to_string())
            });
        match written {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(detail) => {
                let _ = std::fs::remove_file(&tmp);
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                hvx_obs::log::error(
                    "cache",
                    "cache_store_failed",
                    &[
                        ("path", LogValue::from(dst.display().to_string())),
                        ("detail", LogValue::from(detail)),
                    ],
                );
            }
        }
    }

    /// Entries this handle failed to write (each one logged as
    /// `cache_store_failed`) since [`ResultCache::open`].
    pub fn store_errors(&self) -> u64 {
        self.store_errors.load(Ordering::Relaxed)
    }

    /// Counters accumulated by this handle since [`ResultCache::open`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ChaosKind;
    use hvx_engine::{FaultPlan, FaultPoint, Watchdog};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hvx-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprints_are_stable_and_scenario_specific() {
        let cfg = RunnerConfig::default();
        let a = scenario_fingerprint(Scenario::Table3, &cfg).unwrap();
        let b = scenario_fingerprint(Scenario::Table3, &cfg).unwrap();
        assert_eq!(a, b, "same inputs, same fingerprint");
        let c = scenario_fingerprint(Scenario::Table2 { iters: 10 }, &cfg).unwrap();
        assert_ne!(a, c);
        let d = scenario_fingerprint(Scenario::Table2 { iters: 11 }, &cfg).unwrap();
        assert_ne!(c, d, "iteration count is part of the closure");
    }

    #[test]
    fn fingerprint_tracks_every_input_dimension() {
        let base = RunnerConfig::default();
        let cell = Scenario::Fig4Cell {
            workload: 0,
            column: 0,
        };
        let fp = scenario_fingerprint(cell, &base).unwrap();
        // Different column → different fingerprint.
        let other = Scenario::Fig4Cell {
            workload: 0,
            column: 1,
        };
        assert_ne!(fp, scenario_fingerprint(other, &base).unwrap());
        // A fault plan changes the closure.
        let faulted = RunnerConfig {
            fault_plan: Some(FaultPlan::new(7).with_rate(FaultPoint::WireDrop, 0.05)),
            ..RunnerConfig::default()
        };
        assert_ne!(fp, scenario_fingerprint(cell, &faulted).unwrap());
        // So does the seed alone.
        let reseeded = RunnerConfig {
            fault_plan: Some(FaultPlan::new(8).with_rate(FaultPoint::WireDrop, 0.05)),
            ..RunnerConfig::default()
        };
        assert_ne!(
            scenario_fingerprint(cell, &faulted).unwrap(),
            scenario_fingerprint(cell, &reseeded).unwrap()
        );
        // And the watchdog budgets.
        let budgeted = RunnerConfig {
            watchdog: Watchdog {
                cycle_budget: Some(1_000_000),
                livelock_threshold: None,
            },
            ..RunnerConfig::default()
        };
        assert_ne!(fp, scenario_fingerprint(cell, &budgeted).unwrap());
    }

    #[test]
    fn chaos_and_out_of_range_scenarios_are_uncacheable() {
        let cfg = RunnerConfig::default();
        assert!(scenario_fingerprint(Scenario::Chaos(ChaosKind::Panic), &cfg).is_none());
        let bogus = Scenario::Fig4Cell {
            workload: 999,
            column: 0,
        };
        assert!(scenario_fingerprint(bogus, &cfg).is_none());
    }

    #[test]
    fn store_then_lookup_round_trips_every_output_kind() {
        let dir = tmpdir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let cfg = RunnerConfig::default();
        // A cheap scalar payload and a structurally rich one.
        let cell = Scenario::Fig4Cell {
            workload: 0,
            column: 0,
        };
        cache.store(cell, &cfg, &Output::Fig4Cell(Some(1.25)));
        let t3 = crate::table3::Table3::measure().unwrap();
        cache.store(Scenario::Table3, &cfg, &Output::Table3(t3.clone()));

        match cache.lookup(cell, &cfg) {
            Some(Output::Fig4Cell(Some(v))) => assert_eq!(v, 1.25),
            other => panic!("unexpected cache payload: {other:?}"),
        }
        match cache.lookup(Scenario::Table3, &cfg) {
            Some(Output::Table3(got)) => {
                assert_eq!(
                    serde_json::to_string_pretty(&got).unwrap(),
                    serde_json::to_string_pretty(&t3).unwrap(),
                    "decoded payload must serialize byte-identically"
                );
            }
            other => panic!("unexpected cache payload: {other:?}"),
        }
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().stores, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_entries_round_trip_and_validate_kind_and_fingerprint() {
        let dir = tmpdir("raw");
        let cache = ResultCache::open(&dir).unwrap();
        let payload = Value::Object(vec![
            ("report".to_string(), Value::Str("text".into())),
            ("cells".to_string(), Value::Array(vec![])),
        ]);
        cache.store_raw("abc123", "spec-result", payload.clone());
        assert_eq!(cache.lookup_raw("abc123", "spec-result"), Some(payload));
        // Wrong kind and unknown fingerprints are misses, not errors.
        assert!(cache.lookup_raw("abc123", "other-kind").is_none());
        assert!(cache.lookup_raw("def456", "spec-result").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writes_are_counted_not_dropped() {
        let dir = tmpdir("store-errors");
        let cache = ResultCache::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let cell = Scenario::Fig4Cell {
            workload: 0,
            column: 0,
        };
        cache.store(
            cell,
            &RunnerConfig::default(),
            &Output::Fig4Cell(Some(1.25)),
        );
        cache.store_raw("abc123", "spec-result", Value::Null);
        assert_eq!(cache.store_errors(), 2);
        assert_eq!(cache.stats().stores, 0);
    }

    #[test]
    fn spec_fingerprints_track_every_spec_field() {
        let spec: hvx_core::ScenarioSpec =
            serde_json::from_str(include_str!("../../../specs/consolidation-8to1.json")).unwrap();
        let a = spec_fingerprint(&spec);
        assert_eq!(a, spec_fingerprint(&spec), "deterministic");
        let mut more_txns = spec.clone();
        more_txns.transactions = Some(more_txns.transactions.unwrap_or(48) + 1);
        assert_ne!(a, spec_fingerprint(&more_txns));
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let dir = tmpdir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let cfg = RunnerConfig::default();
        let fp = scenario_fingerprint(Scenario::Table3, &cfg).unwrap();
        std::fs::write(cache.entry_path(&fp.to_hex()), "{ not json").unwrap();
        assert!(cache.lookup(Scenario::Table3, &cfg).is_none());
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
