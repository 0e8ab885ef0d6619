//! A registry of named counters and histograms.
//!
//! Metrics complement spans: a span says *where cycles went*, a metric
//! says *how often something happened* (traps, exits, IRQ injections,
//! ring notifications) or *how a quantity distributed* (burst sizes,
//! per-transaction latencies).
//!
//! The registry is **lock-free in steady state**: names are `&'static
//! str`, lookup is a pointer-equality scan first (string comparison only
//! on first sight of a name), and after every metric has been touched
//! once no path allocates or synchronizes. Each scenario owns a private
//! registry, so the parallel profile runner shares nothing between
//! threads and its output is identical no matter how many ran.

/// Power-of-two bucketed histogram: bucket `b` holds values whose
/// `ilog2` is `b - 1` (bucket 0 holds zeros). Covers the full `u64`
/// range in 65 buckets — enough resolution for latency/size
/// distributions without per-sample storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSketch {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSketch {
    fn default() -> Self {
        HistogramSketch::new()
    }
}

fn bucket_of(value: u64) -> usize {
    match value {
        0 => 0,
        v => 64 - v.leading_zeros() as usize,
    }
}

impl HistogramSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        HistogramSketch {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Upper bound of the bucket containing the `q` quantile
    /// (`0.0 ..= 1.0`); `None` if empty. Exact to within one
    /// power-of-two bucket.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if b == 0 {
                    0
                } else {
                    (1u64 << (b - 1)).saturating_mul(2) - 1
                });
            }
        }
        Some(self.max)
    }

    /// The populated buckets as `(upper bound, count)` pairs, lowest
    /// bound first, up to and including the highest non-empty bucket.
    /// Upper bounds are inclusive (`0, 1, 3, 7, 15, ...`); exporters
    /// turn these into cumulative `le` series.
    pub fn bucket_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        self.buckets[..last].iter().enumerate().map(|(b, &n)| {
            let bound = if b == 0 {
                0
            } else {
                (1u64 << (b - 1)).saturating_mul(2) - 1
            };
            (bound, n)
        })
    }
}

/// The metrics registry: named counters plus named histograms.
///
/// # Examples
///
/// ```
/// use hvx_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.bump("kvm.traps", 1);
/// m.bump("kvm.traps", 2);
/// m.observe("rr.latency_cycles", 180);
/// assert_eq!(m.counter("kvm.traps"), 3);
/// assert_eq!(m.histogram("rr.latency_cycles").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, HistogramSketch)>,
}

/// Pointer-equality-first slot lookup: after a name's first appearance
/// its `&'static str` pointer is cached in the slot, so steady-state
/// lookup never compares string contents.
fn find<T>(slots: &[(&'static str, T)], name: &'static str) -> Option<usize> {
    slots
        .iter()
        .position(|(n, _)| std::ptr::eq(n.as_ptr(), name.as_ptr()) || *n == name)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `name`, registering it on first use.
    pub fn bump(&mut self, name: &'static str, n: u64) {
        match find(&self.counters, name) {
            Some(i) => self.counters[i].1 += n,
            None => self.counters.push((name, n)),
        }
    }

    /// Records `value` into the histogram `name`, registering it on
    /// first use.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        match find(&self.histograms, name) {
            Some(i) => self.histograms[i].1.record(value),
            None => {
                let mut h = HistogramSketch::new();
                h.record(value);
                self.histograms.push((name, h));
            }
        }
    }

    /// Current value of counter `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram `name`, if any value was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSketch> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// All counters, sorted by name (a stable presentation order
    /// independent of registration order).
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.counters.clone();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// All histograms, sorted by name.
    pub fn histograms_sorted(&self) -> Vec<(&'static str, &HistogramSketch)> {
        let mut out: Vec<_> = self.histograms.iter().map(|(n, h)| (*n, h)).collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.bump("x", 2);
        m.bump("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert!(!m.is_empty());
    }

    #[test]
    fn histogram_tracks_distribution() {
        let mut h = HistogramSketch::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!(h.approx_quantile(0.5).unwrap() >= 2);
        assert!(h.approx_quantile(1.0).unwrap() >= 1000);
    }

    #[test]
    fn sorted_views_are_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.bump("z", 1);
        m.bump("a", 1);
        m.observe("q", 1);
        m.observe("b", 1);
        let names: Vec<_> = m.counters_sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a", "z"]);
        let hnames: Vec<_> = m.histograms_sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(hnames, ["b", "q"]);
    }
}
