//! Measurement statistics.
//!
//! Microbenchmarks in the paper run many iterations and report a
//! representative cycle count; the engine collects iteration samples into
//! [`Samples`] and summarizes them as a [`Summary`] (min / mean / median /
//! p95 / max / standard deviation). Because the simulator is deterministic,
//! most microbenchmark distributions are degenerate — the summary machinery
//! earns its keep in the application workloads, where queueing introduces
//! genuine per-request variance.

use crate::Cycles;
use core::fmt;

/// A collection of cycle-count samples.
///
/// # Examples
///
/// ```
/// use hvx_engine::{Cycles, Samples};
///
/// let mut s = Samples::new();
/// for v in [10, 20, 30] {
///     s.push(Cycles::new(v));
/// }
/// let sum = s.summary();
/// assert_eq!(sum.mean, 20.0);
/// assert_eq!(sum.min, Cycles::new(10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<Cycles>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples { values: Vec::new() }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: Cycles) {
        self.values.push(v);
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw samples in collection order.
    pub fn values(&self) -> &[Cycles] {
        &self.values
    }

    /// Summarizes the samples.
    ///
    /// # Panics
    ///
    /// Panics if the sample set is empty.
    pub fn summary(&self) -> Summary {
        assert!(!self.values.is_empty(), "cannot summarize zero samples");
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let total: Cycles = sorted.iter().copied().sum();
        let mean = total.as_f64() / n as f64;
        let var = sorted
            .iter()
            .map(|v| {
                let d = v.as_f64() - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        Summary {
            count: n,
            min: sorted[0],
            max: sorted[n - 1],
            mean,
            median: percentile_of(&sorted, 50.0),
            p95: percentile_of(&sorted, 95.0),
            std_dev: var.sqrt(),
        }
    }
}

impl FromIterator<Cycles> for Samples {
    fn from_iter<I: IntoIterator<Item = Cycles>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<Cycles> for Samples {
    fn extend<I: IntoIterator<Item = Cycles>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

/// Nearest-rank percentile over a pre-sorted slice.
fn percentile_of(sorted: &[Cycles], pct: f64) -> Cycles {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Descriptive statistics over a [`Samples`] set.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: Cycles,
    /// Largest sample.
    pub max: Cycles,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile (nearest rank).
    pub median: Cycles,
    /// 95th percentile (nearest rank).
    pub p95: Cycles,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// The mean rounded to the nearest whole cycle — the form the paper's
    /// tables use.
    pub fn mean_cycles(&self) -> Cycles {
        Cycles::new(self.mean.round() as u64)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={} median={} p95={} max={} sd={:.1}",
            self.count,
            self.min,
            self.mean_cycles(),
            self.median,
            self.p95,
            self.max,
            self.std_dev
        )
    }
}

/// Constant-space streaming statistics: the hot-path replacement for
/// [`Samples`] when only the summary matters.
///
/// Where [`Samples`] stores every value (an allocation per batch and a
/// sort per summary), `Streaming` folds each sample into O(1) state:
/// exact integer total (so the mean is **bit-identical** to
/// [`Samples::summary`]'s), exact min/max/count, Welford's recurrence for
/// the standard deviation, and a power-of-two [`Histogram`] giving
/// bucket-resolution median and p95. The deterministic microbenchmarks
/// have degenerate distributions (all iterations equal), for which every
/// field — including the percentiles — is exact.
///
/// # Examples
///
/// ```
/// use hvx_engine::{Cycles, Streaming};
///
/// let mut s = Streaming::new();
/// for v in [10, 20, 30] {
///     s.record(Cycles::new(v));
/// }
/// let sum = s.summary();
/// assert_eq!(sum.mean, 20.0);
/// assert_eq!(sum.min, Cycles::new(10));
/// ```
#[derive(Debug, Clone)]
pub struct Streaming {
    count: u64,
    total: u128,
    min: Cycles,
    max: Cycles,
    /// Welford running mean and sum of squared deviations.
    welford_mean: f64,
    welford_m2: f64,
    hist: Histogram,
}

impl Default for Streaming {
    fn default() -> Self {
        Streaming::new()
    }
}

impl Streaming {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Streaming {
            count: 0,
            total: 0,
            min: Cycles::MAX,
            max: Cycles::ZERO,
            welford_mean: 0.0,
            welford_m2: 0.0,
            hist: Histogram::new(),
        }
    }

    /// Folds in one sample.
    pub fn record(&mut self, v: Cycles) {
        self.count += 1;
        self.total += u128::from(v.as_u64());
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let x = v.as_f64();
        let delta = x - self.welford_mean;
        self.welford_mean += delta / self.count as f64;
        self.welford_m2 += delta * (x - self.welford_mean);
        self.hist.record(v);
    }

    /// Number of samples folded in.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if no samples were folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The underlying latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Summarizes the stream. Mean, min, max and count are exact;
    /// median/p95 are bucket-resolution approximations unless the
    /// distribution is degenerate (all samples equal), in which case they
    /// are exact too.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn summary(&self) -> Summary {
        assert!(self.count > 0, "cannot summarize zero samples");
        let (median, p95) = if self.min == self.max {
            // Degenerate distribution: every percentile is the value.
            (self.min, self.min)
        } else {
            (
                self.hist.approx_percentile(50.0),
                self.hist.approx_percentile(95.0),
            )
        };
        Summary {
            count: self.count as usize,
            min: self.min,
            max: self.max,
            mean: self.total as f64 / self.count as f64,
            median,
            p95,
            std_dev: (self.welford_m2 / self.count as f64).sqrt(),
        }
    }
}

impl FromIterator<Cycles> for Streaming {
    fn from_iter<I: IntoIterator<Item = Cycles>>(iter: I) -> Self {
        let mut s = Streaming::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<Cycles> for Streaming {
    fn extend<I: IntoIterator<Item = Cycles>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// A power-of-two-bucketed latency histogram, for workload latency
/// distributions (the paper reports means; the simulator can also show
/// the queueing tail that saturation produces).
///
/// # Examples
///
/// ```
/// use hvx_engine::{Cycles, Histogram};
///
/// let mut h = Histogram::new();
/// for v in [100u64, 120, 900, 5_000] {
///     h.record(Cycles::new(v));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.render().contains("64")); // the 100 and 120 samples share the [64,128) bucket
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds zero.
    buckets: [u64; 64],
    count: u64,
    total: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: Cycles) {
        let idx = 63u32.saturating_sub(v.as_u64().leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += u128::from(v.as_u64());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total as f64 / self.count as f64
    }

    /// The smallest value `v` such that at least `pct` percent of samples
    /// are `<= 2^(bucket(v)+1)` — a bucket-resolution percentile.
    pub fn approx_percentile(&self, pct: f64) -> Cycles {
        if self.count == 0 {
            return Cycles::ZERO;
        }
        let threshold = (pct / 100.0 * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= threshold {
                return Cycles::new(1u64 << (i + 1).min(63));
            }
        }
        Cycles::MAX
    }

    /// Renders the occupied buckets as an ASCII bar chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, b) in self.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            let bar = (b * 40 / max) as usize;
            out.push_str(&format!(
                "{:>12} |{:<40}| {}\n",
                1u64 << i,
                "#".repeat(bar.max(1)),
                b
            ));
        }
        if out.is_empty() {
            out.push_str("(no samples)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(vals: &[u64]) -> Samples {
        vals.iter().copied().map(Cycles::new).collect()
    }

    #[test]
    fn summary_of_constant_samples_is_degenerate() {
        let s = samples(&[6500; 50]);
        let sum = s.summary();
        assert_eq!(sum.count, 50);
        assert_eq!(sum.min, Cycles::new(6500));
        assert_eq!(sum.max, Cycles::new(6500));
        assert_eq!(sum.mean, 6500.0);
        assert_eq!(sum.median, Cycles::new(6500));
        assert_eq!(sum.std_dev, 0.0);
    }

    #[test]
    fn summary_basic_statistics() {
        let s = samples(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let sum = s.summary();
        assert_eq!(sum.min, Cycles::new(1));
        assert_eq!(sum.max, Cycles::new(10));
        assert_eq!(sum.mean, 5.5);
        assert_eq!(sum.median, Cycles::new(5));
        assert_eq!(sum.p95, Cycles::new(10));
        assert!((sum.std_dev - 2.8722813).abs() < 1e-6);
    }

    #[test]
    fn percentile_nearest_rank_edges() {
        let sorted: Vec<Cycles> = [10u64, 20, 30, 40].into_iter().map(Cycles::new).collect();
        assert_eq!(percentile_of(&sorted, 0.0), Cycles::new(10));
        assert_eq!(percentile_of(&sorted, 25.0), Cycles::new(10));
        assert_eq!(percentile_of(&sorted, 26.0), Cycles::new(20));
        assert_eq!(percentile_of(&sorted, 100.0), Cycles::new(40));
    }

    #[test]
    fn mean_cycles_rounds() {
        let s = samples(&[1, 2]);
        assert_eq!(s.summary().mean_cycles(), Cycles::new(2)); // 1.5 rounds up
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_summary_panics() {
        let _ = Samples::new().summary();
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut s: Samples = [Cycles::new(1)].into_iter().collect();
        s.extend([Cycles::new(2), Cycles::new(3)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.values()[2], Cycles::new(3));
        assert!(!s.is_empty());
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 1000, 1023, 1024] {
            h.record(Cycles::new(v));
        }
        assert_eq!(h.count(), 7);
        assert!((h.mean() - (1.0 + 2.0 + 3.0 + 4.0 + 1000.0 + 1023.0 + 1024.0) / 7.0).abs() < 1e-9);
        let art = h.render();
        assert!(art.contains("1024"), "{art}");
        // p50 lands in a small bucket, p100 in the large one.
        assert!(h.approx_percentile(50.0) <= Cycles::new(8));
        assert!(h.approx_percentile(100.0) >= Cycles::new(1024));
    }

    #[test]
    fn histogram_empty_cases() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.approx_percentile(99.0), Cycles::ZERO);
        assert!(h.render().contains("no samples"));
    }

    #[test]
    fn streaming_mean_min_max_match_samples_exactly() {
        let vals = [6500u64, 120, 981, 44, 6500, 3250, 7, 999_983];
        let stored = samples(&vals);
        let streamed: Streaming = vals.iter().copied().map(Cycles::new).collect();
        let (a, b) = (stored.summary(), streamed.summary());
        assert_eq!(a.count, b.count);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert_eq!(
            a.mean.to_bits(),
            b.mean.to_bits(),
            "streaming mean must be bit-identical to the stored mean"
        );
        assert!((a.std_dev - b.std_dev).abs() < 1e-6 * a.std_dev.max(1.0));
    }

    #[test]
    fn streaming_is_exact_for_degenerate_distributions() {
        let streamed: Streaming = std::iter::repeat_n(Cycles::new(6500), 50).collect();
        let sum = streamed.summary();
        assert_eq!(sum.median, Cycles::new(6500));
        assert_eq!(sum.p95, Cycles::new(6500));
        assert_eq!(sum.mean, 6500.0);
        assert_eq!(sum.std_dev, 0.0);
    }

    #[test]
    fn streaming_percentiles_are_bucket_bounded() {
        let mut s = Streaming::new();
        for v in 1..=1000u64 {
            s.record(Cycles::new(v));
        }
        let sum = s.summary();
        // Nearest-rank p50 of 1..=1000 is 500; the bucket bound is the
        // next power of two above it.
        assert!(sum.median >= Cycles::new(500) && sum.median <= Cycles::new(1024));
        assert!(sum.p95 >= Cycles::new(950));
        assert_eq!(s.len(), 1000);
        assert!(!s.is_empty());
        assert_eq!(s.histogram().count(), 1000);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn streaming_empty_summary_panics() {
        let _ = Streaming::new().summary();
    }

    #[test]
    fn display_is_nonempty() {
        let s = samples(&[5, 5, 5]);
        let txt = s.summary().to_string();
        assert!(txt.contains("n=3"));
        assert!(txt.contains("mean=5"));
    }
}
