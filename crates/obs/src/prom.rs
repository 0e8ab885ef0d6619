//! Prometheus text-exposition rendering.
//!
//! [`PromText`] renders counters, gauges, and [`HistogramSketch`]s in
//! the Prometheus exposition format (version 0.0.4): `# HELP` / `#
//! TYPE` headers followed by sample lines. Histograms render as
//! cumulative `_bucket{le=...}` series (one per power-of-two bucket up
//! to the largest populated one, plus `+Inf`) with `_sum` and `_count`,
//! followed by `_p50` / `_p95` / `_p99` gauges so dashboards get
//! quantiles without running histogram_quantile.
//!
//! Metric names are sanitized to `[a-zA-Z0-9_:]` (dots in
//! [`MetricsRegistry`](crate::MetricsRegistry) names become
//! underscores).
//!
//! ```
//! use hvx_obs::PromText;
//!
//! let mut t = PromText::new();
//! t.counter("hvx_serve_accepted_total", "Jobs admitted", 3);
//! t.gauge("hvx_serve_queue_depth", "Jobs waiting", 2.0);
//! let text = t.finish();
//! assert!(text.contains("# TYPE hvx_serve_accepted_total counter"));
//! ```

use crate::metrics::HistogramSketch;
use std::fmt::Write as _;

/// Incremental Prometheus text-exposition builder.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

/// Rewrites a metric name into the Prometheus alphabet: every
/// character outside `[a-zA-Z0-9_:]` becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("NaN");
    }
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Appends one counter family with a single sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let name = sanitize_metric_name(name);
        self.header(&name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends one gauge family with a single sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        let name = sanitize_metric_name(name);
        self.header(&name, help, "gauge");
        let mut line = name;
        line.push(' ');
        write_f64(&mut line, value);
        self.out.push_str(&line);
        self.out.push('\n');
    }

    /// Appends one gauge family with one sample per `(labels, value)`
    /// pair. `labels` is raw label text (`client="alice"`); callers
    /// are responsible for escaping label values.
    pub fn labeled_gauge(&mut self, name: &str, help: &str, samples: &[(String, f64)]) {
        let name = sanitize_metric_name(name);
        self.header(&name, help, "gauge");
        for (labels, value) in samples {
            let mut line = format!("{name}{{{labels}}} ");
            write_f64(&mut line, *value);
            self.out.push_str(&line);
            self.out.push('\n');
        }
    }

    /// Appends one histogram family: cumulative `le` buckets (upper
    /// bounds from the sketch's power-of-two buckets), `_sum`,
    /// `_count`, and `_p50`/`_p95`/`_p99` quantile gauges.
    pub fn histogram(&mut self, name: &str, help: &str, h: &HistogramSketch) {
        let name = sanitize_metric_name(name);
        self.header(&name, help, "histogram");
        let mut cumulative = 0u64;
        for (le, n) in h.bucket_counts() {
            cumulative += n;
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(self.out, "{name}_sum {}", h.sum());
        let _ = writeln!(self.out, "{name}_count {}", h.count());
        for (q, suffix) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let qname = format!("{name}_{suffix}");
            self.header(
                &qname,
                "Bucket upper bound of the quantile (power-of-two resolution)",
                "gauge",
            );
            let _ = writeln!(self.out, "{qname} {}", h.approx_quantile(q).unwrap_or(0));
        }
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line from an exposition: name, labels (raw text
/// between braces, empty if none), and value. Used by scrape tests to
/// round-trip the format.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Raw label text (`le="3"`), empty when the sample has no labels.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

/// Parses exposition text back into samples, skipping comment lines.
/// Returns `None` if any non-comment line fails to parse — a scrape
/// round-trip gate for tests.
pub fn parse_exposition(text: &str) -> Option<Vec<PromSample>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let (name, labels) = match head.split_once('{') {
            Some((n, rest)) => (n.to_string(), rest.strip_suffix('}')?.to_string()),
            None => (head.to_string(), String::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return None;
        }
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let mut t = PromText::new();
        t.counter("hvx_x_total", "things", 7);
        t.gauge("hvx_depth", "depth", 2.5);
        let text = t.finish();
        assert!(
            text.contains("# HELP hvx_x_total things\n# TYPE hvx_x_total counter\nhvx_x_total 7\n")
        );
        assert!(text.contains("# TYPE hvx_depth gauge\nhvx_depth 2.5\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let mut h = HistogramSketch::new();
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        let mut t = PromText::new();
        t.histogram("hvx.lat.us", "latency", &h);
        let text = t.finish();
        assert!(text.contains("# TYPE hvx_lat_us histogram"));
        assert!(text.contains("hvx_lat_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("hvx_lat_us_sum 106"));
        assert!(text.contains("hvx_lat_us_count 4"));
        assert!(text.contains("hvx_lat_us_p50"));
        assert!(text.contains("hvx_lat_us_p95"));
        assert!(text.contains("hvx_lat_us_p99"));
        // Cumulative counts never decrease.
        let samples = parse_exposition(&text).unwrap();
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "hvx_lat_us_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_exposition("good_name 1\n# comment\n").is_some());
        assert!(parse_exposition("bad name 1\n").is_none());
        assert!(parse_exposition("name notanumber\n").is_none());
        let s = parse_exposition("x_bucket{le=\"3\"} 4\n").unwrap();
        assert_eq!(s[0].labels, "le=\"3\"");
        assert_eq!(s[0].value, 4.0);
    }
}
