//! # hvx-obs — observability primitives for the hvx simulator
//!
//! The paper's core contribution is *attributing* cycles to individual
//! architectural transitions (Table III's hypercall breakdown, Figure
//! 4's per-workload overheads). This crate provides the machinery to do
//! the same from instrumentation instead of from summed cost constants:
//!
//! * [`TransitionId`] / [`SpanTracer`] — nested spans keyed by static
//!   transition identities, kept as one tree of call paths; each cycle
//!   is charged to the node of the open stack, so exclusive totals and
//!   the unattributed remainder sum to the run total by construction
//!   (conservation);
//! * [`MetricsRegistry`] / [`HistogramSketch`] — named counters and
//!   power-of-two histograms, lock-free in steady state, one registry
//!   per scenario;
//! * [`EventTracer`] — causal flow tracing: [`FlowKind`] chains of flow
//!   points stitching causally-linked work across machines, with a
//!   derivation pass folding end-to-end latencies into the registry
//!   (the per-charge slices of a trace are the engine's trace-log
//!   records, not kept here);
//! * [`ProfileSnapshot`] and [`SpanTracer::folded`] — exporters: JSON
//!   (via the in-tree serde shim) and folded-stack flamegraph text;
//! * [`log`] — a leveled JSON-lines logger (off by default, `HVX_LOG`
//!   controlled) for the serving and runner paths;
//! * [`PromText`] — a Prometheus text-exposition renderer over
//!   registry counters, gauges, and histogram sketches.
//!
//! The crate is deliberately substrate-free: it counts raw `u64`
//! cycles and knows nothing about machines, cores, or hypervisors, so
//! every layer of the workspace (engine, models, suite) can depend on
//! it without cycles in the crate graph.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
pub mod log;
mod metrics;
mod prom;
mod span;
mod tracing;

pub use export::{
    render_histogram_summary, render_span_deltas, span_deltas, transition_names, CounterSnapshot,
    HistogramSnapshot, ProfileSnapshot, SpanDelta, SpanSnapshotRow,
};
pub use log::{LogLevel, LogValue};
pub use metrics::{HistogramSketch, MetricsRegistry};
pub use prom::{parse_exposition, sanitize_metric_name, PromSample, PromText};
pub use span::{SpanRow, SpanTracer, TransitionId};
pub use tracing::{EventTracer, FlowChain, FlowId, FlowKind, FlowPhase, FlowPoint};
