//! Shared measurement plumbing: the seeded generator, quantiles, the
//! per-layer ledger, the result being built, and the golden reference
//! file.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::Metrics;

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The `q` quantile (0..=1) of `values`, interpolating between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Seconds spent per named layer. When off, [`Ledger::time`] is a plain
/// call, so an untraced run pays nothing for the ledger.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            layers: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, charging its wall time to `layer` when tracing.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(layer, start.elapsed().as_secs_f64());
        out
    }

    /// Records one sample of `secs` against `layer` when tracing.
    pub fn record(&mut self, layer: &'static str, secs: f64) {
        if self.on {
            self.layers.entry(layer).or_default().push(secs);
        }
    }

    pub fn samples(&self, layer: &str) -> &[f64] {
        self.layers.get(layer).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, layer: &str) -> f64 {
        self.samples(layer).iter().sum()
    }
}

/// What one run measured and how many of its operations went wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one operation that failed, explaining why on stderr.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: check failed: {why}");
        self.op(false);
    }

    /// Adds a probe's checks and the metrics this outcome lacks, and
    /// recomputes the error rate over both.
    pub fn absorb(&mut self, probe: Outcome) {
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        for (name, value) in probe.metrics {
            self.metrics.entry(name).or_insert(value);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("error_rate", rate);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Fills in the metrics every workload reports: peak memory, error
    /// rate, and (traced) the unattributed share and trace overhead.
    pub fn finish(&mut self, trace: bool, unattributed: f64, untraced_op: f64, traced_op: f64) {
        if trace {
            let rate = self.failed as f64 / self.attempted.max(1) as f64;
            self.set("error_rate", rate);
            self.set("unattributed_pct", 100.0 * unattributed);
            let overhead = if untraced_op > 0.0 {
                100.0 * (traced_op - untraced_op) / untraced_op
            } else {
                0.0
            };
            self.set("trace_overhead_pct", overhead);
            if unattributed > 0.10 {
                eprintln!(
                    "perfbench: warning: {:.1}% of end-to-end time is unattributed (over 10%)",
                    100.0 * unattributed
                );
            }
        } else {
            self.set("peak_rss_mb", peak_rss_mb());
        }
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, for compact golden digests of report text.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reference simulated results (`perfbench/golden.txt`, one `key value`
/// per line), written by an unperturbed build with `--write-golden`.
/// Comparing against them is what catches a cost-model change that
/// every in-process cross-check would miss.
#[derive(Debug)]
pub struct Golden(BTreeMap<String, String>);

const GOLDEN_PATH: &str = "perfbench/golden.txt";

impl Golden {
    pub fn load() -> Result<Golden, String> {
        let text =
            std::fs::read_to_string(GOLDEN_PATH).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
        let map = text
            .lines()
            .filter(|l| !l.is_empty())
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Ok(Golden(map))
    }

    /// Whether `key` is recorded with exactly `value`.
    pub fn matches(&self, key: &str, value: &str) -> bool {
        self.0.get(key).is_some_and(|v| v == value)
    }

    pub fn write() -> Result<(), String> {
        if std::env::var("HVX_COST_PERTURB").is_ok_and(|s| !s.trim().is_empty()) {
            return Err("refusing to write golden results under HVX_COST_PERTURB".into());
        }
        let mut entries = Vec::new();
        for tiny in [false, true] {
            entries.extend(crate::grid::golden_entries(tiny)?);
        }
        entries.extend(crate::serve::golden_entries()?);
        let mut out = String::new();
        for (k, v) in entries {
            out.push_str(&format!("{k} {v}\n"));
        }
        std::fs::write(Path::new(GOLDEN_PATH), out).map_err(|e| format!("{GOLDEN_PATH}: {e}"))
    }
}
