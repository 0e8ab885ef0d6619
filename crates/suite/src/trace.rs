//! Causal-trace scenarios: traced workload runs exported as Chrome
//! trace-event JSON, a query/validation pass over exported traces, and
//! the tracing-overhead benchmark.
//!
//! Where [`crate::profile`] aggregates *where cycles went*, a traced
//! run keeps *what happened, when, and what caused it*: every charge's
//! trace-log record becomes a slice on a per-core track and the
//! cross-machine causal chains (guest kick → vhost/Dom0 handling → vIRQ
//! delivery) are stitched with Chrome flow events. The export loads
//! directly in Perfetto or `chrome://tracing`; the derivation pass
//! folds each chain's end-to-end latency into the machine's
//! [`MetricsRegistry`] so the Fig. 4 asymmetry quantities are queryable
//! without a viewer. A traced run is a paper-shape [`ScenarioSpec`] run
//! through [`spec_run::run_paper_sim`], so it runs the spec's fault
//! plan, interrupt policy and watchdog too.
//!
//! ```
//! use hvx_suite::{spec_run, trace};
//!
//! let spec = spec_run::parse_paper_name("tcp_rr-kvm-arm").unwrap();
//! let report = trace::run_trace(&spec, None).unwrap();
//! let parsed = trace::ParsedTrace::parse(&report.json).unwrap();
//! assert!(trace::validate(&parsed).is_ok());
//! ```
//!
//! [`MetricsRegistry`]: hvx_engine::MetricsRegistry

use crate::spec_run;
use hvx_core::{Error, HvKind, ScenarioSpec, Sim, SimBuilder, Workload};
use hvx_engine::{Cycles, EventTracer, FlowChain};
use serde::{Serialize, Value};
use std::time::Instant;

/// One traced run: the Chrome trace-event JSON plus the headline
/// numbers the CLI prints.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The scenario's `<workload>-<hypervisor>` name.
    pub scenario: String,
    /// Ring capacity the run used (`None` = unbounded).
    pub ring: Option<usize>,
    /// The run's makespan in cycles.
    pub makespan_cycles: u64,
    /// Charges ever recorded (including ring casualties).
    pub events_recorded: u64,
    /// Charge records lost to ring overwrites.
    pub events_dropped: u64,
    /// Complete flow chains (begin and end both survived).
    pub flows_complete: u64,
    /// Chains missing their begin or end (ring overwrites).
    pub flows_incomplete: u64,
    /// Mean end-to-end interrupt-delivery latency, cycles (the Fig. 4
    /// asymmetry quantity), 0.0 when no chain completed.
    pub irq_delivery_mean: f64,
    /// Mean end-to-end I/O-kick latency, cycles.
    pub io_kick_mean: f64,
    /// Pretty-printed Chrome trace-event JSON.
    pub json: String,
}

/// Event tracing, unbounded (`None`) or in rings of `slots` records.
fn event_tracing(builder: SimBuilder, ring: Option<usize>) -> SimBuilder {
    match ring {
        Some(slots) => builder.event_ring(slots),
        None => builder.event_tracing(true),
    }
}

/// A finished event-traced run: the simulation, whose trace log holds
/// the charge records, and the flow tracer taken out of it.
struct TracedRun {
    sim: Sim,
    tracer: EventTracer,
    makespan: Cycles,
}

/// Runs `spec` with event tracing and profiling on, then derives the
/// chain latencies into the machine's metrics registry.
fn traced_run(spec: &ScenarioSpec, ring: Option<usize>) -> Result<TracedRun, Error> {
    let (mut sim, makespan) =
        spec_run::run_paper_sim(spec, |builder| event_tracing(builder.profiling(true), ring))?;
    sim.sample_metrics();
    let tracer = sim
        .machine_mut()
        .take_event_tracer()
        .expect("event tracing was enabled by the builder");
    if let Some(metrics) = sim.machine_mut().metrics_mut() {
        tracer.derive_metrics(metrics);
    }
    Ok(TracedRun {
        sim,
        tracer,
        makespan,
    })
}

/// The causal chains of one unbounded traced run of `spec`, straight
/// from the in-memory flow tracer (no export round trip).
///
/// # Errors
///
/// As for [`run_trace`].
pub(crate) fn traced_chains(spec: &ScenarioSpec) -> Result<Vec<FlowChain>, Error> {
    Ok(traced_run(spec, None)?.tracer.chains())
}

/// Runs one paper-shape spec with event tracing enabled (in rings of
/// `ring` records, or unbounded) and exports the trace.
///
/// The derivation pass runs before export: the chain latencies land in
/// the machine's metrics registry, so the report's means come from the
/// same [`hvx_engine::HistogramSketch`]s a profile would read.
///
/// # Errors
///
/// [`Error::InvalidSpec`] for a spec that is not paper-shape; build/run
/// errors from the simulation; [`Error::Serialize`] if the trace JSON
/// fails to render.
pub fn run_trace(spec: &ScenarioSpec, ring: Option<usize>) -> Result<TraceReport, Error> {
    let TracedRun {
        sim,
        tracer,
        makespan,
    } = traced_run(spec, ring)?;
    let machine = sim.machine();
    let tracks: Vec<String> = machine
        .topology()
        .all_cores()
        .map(|c| c.to_string())
        .collect();
    let name = spec_run::paper_name(spec);
    let log = machine.trace();
    let trace = log.chrome_trace(&name, &tracks, &tracer);
    let json = serde_json::to_string_pretty(&trace).map_err(|e| Error::Serialize {
        what: "chrome trace",
        detail: e.to_string(),
    })?;

    let chains = tracer.chains();
    let complete = chains.iter().filter(|c| c.complete).count() as u64;
    let metrics = machine
        .metrics()
        .expect("profiling was enabled by the builder");
    let mean = |h: &str| metrics.histogram(h).map_or(0.0, |h| h.mean());
    Ok(TraceReport {
        scenario: name,
        ring,
        makespan_cycles: makespan.as_u64(),
        events_recorded: log.recorded(),
        events_dropped: log.dropped(),
        flows_complete: complete,
        flows_incomplete: chains.len() as u64 - complete,
        irq_delivery_mean: mean("trace.latency.irq_delivery"),
        io_kick_mean: mean("trace.latency.io_kick"),
        json,
    })
}

impl TraceReport {
    /// Renders the headline summary `hvx-repro trace` prints (the JSON
    /// itself goes to `--out`).
    pub fn render(&self) -> String {
        let mode = match self.ring {
            Some(n) => format!("ring, {n} slots"),
            None => "unbounded".to_string(),
        };
        format!(
            "== Trace: {} ==\n\n\
             events:   {} recorded, {} dropped ({mode})\n\
             flows:    {} chains complete, {} incomplete\n\
             derived:  irq_delivery mean {:.1} cycles, io_kick mean {:.1} cycles\n\
             makespan: {} cycles\n",
            self.scenario,
            self.events_recorded,
            self.events_dropped,
            self.flows_complete,
            self.flows_incomplete,
            self.irq_delivery_mean,
            self.io_kick_mean,
            self.makespan_cycles,
        )
    }
}

// ---------------------------------------------------------------------------
// Query / validation over exported traces
// ---------------------------------------------------------------------------

/// One `ph:"X"` complete event read back from a trace file.
#[derive(Debug, Clone)]
pub struct QSlice {
    /// The charge label.
    pub name: String,
    /// Start instant (cycles).
    pub ts: u64,
    /// Duration (cycles).
    pub dur: u64,
    /// Track id.
    pub tid: u64,
    /// `args.transition`, when the slice was charged through a span.
    pub transition: Option<String>,
    /// `args.fault` — the slice opens a charged recovery path.
    pub fault: bool,
}

/// One flow point (`ph:"s"/"t"/"f"`) read back from a trace file.
#[derive(Debug, Clone)]
pub struct QFlowPoint {
    /// The flow kind name (`virtio_kick`, `irq_delivery`, ...).
    pub kind: String,
    /// The Chrome phase letter.
    pub ph: String,
    /// The chain id.
    pub id: u64,
    /// Instant (cycles).
    pub ts: u64,
    /// Track id.
    pub tid: u64,
    /// The hop label (`args.hop`).
    pub hop: String,
}

/// One causal chain reassembled from a trace file's flow points.
#[derive(Debug, Clone)]
pub struct QChain {
    /// The flow kind name.
    pub kind: String,
    /// The chain id.
    pub id: u64,
    /// The chain's points, in file order.
    pub hops: Vec<QFlowPoint>,
    /// Both the begin (`s`) and end (`f`) point are present.
    pub complete: bool,
    /// End-to-end latency in cycles (0 unless complete).
    pub latency: u64,
}

/// A Chrome trace-event file decoded back into typed events.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    /// `(tid, thread name)` from the metadata events, in file order.
    pub thread_names: Vec<(u64, String)>,
    /// The `ph:"X"` slices, in file order.
    pub slices: Vec<QSlice>,
    /// The flow points, in file order.
    pub flows: Vec<QFlowPoint>,
    /// Structural problems found while decoding (missing fields,
    /// unknown phases). Empty for a well-formed export.
    pub problems: Vec<String>,
}

fn field_u64(ev: &Value, key: &str) -> Option<u64> {
    ev.get(key).and_then(Value::as_u64)
}

fn field_str<'a>(ev: &'a Value, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(Value::as_str)
}

impl ParsedTrace {
    /// Parses exported Chrome trace-event JSON back into typed events.
    ///
    /// # Errors
    ///
    /// [`Error::Serialize`] when the text is not valid JSON or has no
    /// `traceEvents` array (per-event shape problems are collected in
    /// [`ParsedTrace::problems`] instead, so `--validate` can report
    /// them all at once).
    pub fn parse(json: &str) -> Result<ParsedTrace, Error> {
        let root = serde_json::parse_value(json).map_err(|e| Error::Serialize {
            what: "trace JSON",
            detail: e.to_string(),
        })?;
        let events = root
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or(Error::Serialize {
                what: "trace JSON",
                detail: "no traceEvents array".to_string(),
            })?;
        let mut out = ParsedTrace {
            thread_names: Vec::new(),
            slices: Vec::new(),
            flows: Vec::new(),
            problems: Vec::new(),
        };
        for (i, ev) in events.iter().enumerate() {
            let Some(ph) = field_str(ev, "ph") else {
                out.problems.push(format!("event {i}: missing ph"));
                continue;
            };
            match ph {
                "M" => {
                    if field_str(ev, "name") == Some("thread_name") {
                        let tid = field_u64(ev, "tid").unwrap_or(0);
                        let name = ev
                            .get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string();
                        out.thread_names.push((tid, name));
                    }
                }
                "X" => {
                    let (Some(ts), Some(dur), Some(tid)) = (
                        field_u64(ev, "ts"),
                        field_u64(ev, "dur"),
                        field_u64(ev, "tid"),
                    ) else {
                        out.problems
                            .push(format!("event {i}: X event missing ts/dur/tid"));
                        continue;
                    };
                    let args = &ev["args"];
                    out.slices.push(QSlice {
                        name: field_str(ev, "name").unwrap_or("").to_string(),
                        ts,
                        dur,
                        tid,
                        transition: args
                            .get("transition")
                            .and_then(Value::as_str)
                            .map(str::to_string),
                        fault: args.get("fault").is_some(),
                    });
                }
                "s" | "t" | "f" => {
                    let (Some(ts), Some(tid), Some(id)) = (
                        field_u64(ev, "ts"),
                        field_u64(ev, "tid"),
                        field_u64(ev, "id"),
                    ) else {
                        out.problems
                            .push(format!("event {i}: flow event missing ts/tid/id"));
                        continue;
                    };
                    out.flows.push(QFlowPoint {
                        kind: field_str(ev, "name").unwrap_or("").to_string(),
                        ph: ph.to_string(),
                        id,
                        ts,
                        tid,
                        hop: ev
                            .get("args")
                            .and_then(|a| a.get("hop"))
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    });
                }
                other => out
                    .problems
                    .push(format!("event {i}: unknown phase '{other}'")),
            }
        }
        Ok(out)
    }

    /// The thread name for a track id, `track<N>` when unnamed.
    pub fn track_name(&self, tid: u64) -> String {
        self.thread_names
            .iter()
            .find(|(t, _)| *t == tid)
            .map_or_else(|| format!("track{tid}"), |(_, n)| n.clone())
    }

    /// Reassembles the flow points into chains, in order of each
    /// chain's first point in the file.
    pub fn chains(&self) -> Vec<QChain> {
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut chains: Vec<QChain> = Vec::new();
        for p in &self.flows {
            let slot = *index.entry(p.id).or_insert_with(|| {
                chains.push(QChain {
                    kind: p.kind.clone(),
                    id: p.id,
                    hops: Vec::new(),
                    complete: false,
                    latency: 0,
                });
                chains.len() - 1
            });
            chains[slot].hops.push(p.clone());
        }
        for c in &mut chains {
            let begin = c.hops.iter().find(|p| p.ph == "s");
            let end = c.hops.iter().rfind(|p| p.ph == "f");
            if let (Some(b), Some(e)) = (begin, end) {
                c.complete = true;
                c.latency = e.ts.saturating_sub(b.ts);
            }
        }
        chains
    }
}

/// Filters for `hvx-repro trace query`.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Keep only slices attributed to this transition name.
    pub transition: Option<String>,
    /// Keep only events on this track (thread name, e.g. `pcpu4`).
    pub track: Option<String>,
    /// Keep only events with `ts >= from`.
    pub from: Option<u64>,
    /// Keep only events with `ts < to`.
    pub to: Option<u64>,
    /// Chains to show in the critical-chain ranking (default 5).
    pub top: Option<usize>,
}

impl Query {
    fn keeps_slice(&self, s: &QSlice, trace: &ParsedTrace) -> bool {
        if let Some(t) = &self.transition {
            if s.transition.as_deref() != Some(t.as_str()) {
                return false;
            }
        }
        if let Some(track) = &self.track {
            if &trace.track_name(s.tid) != track {
                return false;
            }
        }
        self.from.is_none_or(|f| s.ts >= f) && self.to.is_none_or(|t| s.ts < t)
    }

    fn keeps_chain(&self, c: &QChain, trace: &ParsedTrace) -> bool {
        if self.transition.is_some() {
            // Transition is a slice attribute; chains pass untouched
            // only when no slice filter is active.
            return false;
        }
        if let Some(track) = &self.track {
            if !c.hops.iter().any(|p| &trace.track_name(p.tid) == track) {
                return false;
            }
        }
        let first = c.hops.first().map_or(0, |p| p.ts);
        self.from.is_none_or(|f| first >= f) && self.to.is_none_or(|t| first < t)
    }
}

/// Runs a query over a parsed trace and renders the report: filtered
/// event totals, the top-K critical chains by end-to-end latency, and
/// per-kind chain-length statistics.
pub fn render_query(trace: &ParsedTrace, q: &Query, source: &str) -> String {
    let mut out = format!("== Trace query: {source} ==\n\n");
    let mut tracks: Vec<u64> = trace.slices.iter().map(|s| s.tid).collect();
    tracks.sort_unstable();
    tracks.dedup();
    out.push_str(&format!(
        "events: {} slices on {} tracks, {} flow points\n",
        trace.slices.len(),
        tracks.len(),
        trace.flows.len()
    ));

    let mut filters = Vec::new();
    if let Some(t) = &q.transition {
        filters.push(format!("transition={t}"));
    }
    if let Some(t) = &q.track {
        filters.push(format!("track={t}"));
    }
    if q.from.is_some() || q.to.is_some() {
        filters.push(format!(
            "window=[{}, {})",
            q.from.map_or_else(|| "start".into(), |f| f.to_string()),
            q.to.map_or_else(|| "end".into(), |t| t.to_string()),
        ));
    }
    let kept: Vec<&QSlice> = trace
        .slices
        .iter()
        .filter(|s| q.keeps_slice(s, trace))
        .collect();
    let cycles: u64 = kept.iter().map(|s| s.dur).sum();
    if filters.is_empty() {
        out.push_str(&format!(
            "matched: all {} slices, {cycles} cycles\n",
            kept.len()
        ));
    } else {
        out.push_str(&format!(
            "filters: {} -> {} slices, {cycles} cycles\n",
            filters.join(" "),
            kept.len()
        ));
    }

    let mut chains: Vec<QChain> = trace
        .chains()
        .into_iter()
        .filter(|c| c.complete && q.keeps_chain(c, trace))
        .collect();
    chains.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.id.cmp(&b.id)));
    let top = q.top.unwrap_or(5);
    out.push_str(&format!(
        "\ntop {} of {} complete chains by latency:\n",
        top.min(chains.len()),
        chains.len()
    ));
    for (rank, c) in chains.iter().take(top).enumerate() {
        let first = c.hops.first().expect("complete chain has hops");
        let last = c.hops.last().expect("complete chain has hops");
        out.push_str(&format!(
            "  {}. {:<14} id={:<4} {} hops {:>8} cycles  {} -> {}  ({} -> {})\n",
            rank + 1,
            c.kind,
            c.id,
            c.hops.len(),
            c.latency,
            trace.track_name(first.tid),
            trace.track_name(last.tid),
            first.hop,
            last.hop,
        ));
    }

    out.push_str("\nchain stats (complete chains, unfiltered):\n");
    out.push_str(&format!(
        "  {:<16}{:>7}{:>12}{:>12}{:>16}\n",
        "kind", "count", "incomplete", "mean hops", "mean latency"
    ));
    let all = trace.chains();
    let mut kinds: Vec<&str> = all.iter().map(|c| c.kind.as_str()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let complete: Vec<&QChain> = all
            .iter()
            .filter(|c| c.kind == kind && c.complete)
            .collect();
        let incomplete = all.iter().filter(|c| c.kind == kind && !c.complete).count();
        let n = complete.len().max(1) as f64;
        let hops: usize = complete.iter().map(|c| c.hops.len()).sum();
        let latency: u64 = complete.iter().map(|c| c.latency).sum();
        out.push_str(&format!(
            "  {:<16}{:>7}{:>12}{:>12.1}{:>16.1}\n",
            kind,
            complete.len(),
            incomplete,
            hops as f64 / n,
            latency as f64 / n,
        ));
    }
    out
}

/// Validates the structural invariants `scripts/trace_smoke.sh` gates
/// on: every event decoded cleanly, per-track slice timestamps are
/// monotone, and at least one complete kick chain (virtio kick or
/// event-channel signal) *and* one complete interrupt-delivery chain
/// ending at the guest acknowledge are present.
///
/// # Errors
///
/// [`Error::TraceInvalid`] listing every violation.
pub fn validate(trace: &ParsedTrace) -> Result<String, Error> {
    let mut problems = trace.problems.clone();
    if trace.slices.is_empty() {
        problems.push("trace has no slices".to_string());
    }
    let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in &trace.slices {
        let prev = last.entry(s.tid).or_insert(0);
        if s.ts < *prev {
            problems.push(format!(
                "track {} time went backwards: {} after {}",
                trace.track_name(s.tid),
                s.ts,
                *prev
            ));
        }
        *prev = (*prev).max(s.ts + s.dur);
    }
    let chains = trace.chains();
    let kick = chains
        .iter()
        .find(|c| c.complete && (c.kind == "virtio_kick" || c.kind == "evtchn_signal"));
    if kick.is_none() {
        problems.push("no complete kick chain (virtio_kick/evtchn_signal)".to_string());
    }
    let delivery = chains
        .iter()
        .find(|c| c.complete && c.kind == "irq_delivery");
    match delivery {
        None => problems.push("no complete irq_delivery chain".to_string()),
        Some(c) => {
            if c.hops.last().map(|p| p.hop.as_str()) != Some("guest:ack") {
                problems.push("irq_delivery chain does not end at guest:ack".to_string());
            }
            if let (Some(k), 1..) = (kick, c.hops.len()) {
                // Both chains present: the kick must cross cores too.
                let span = |c: &QChain| {
                    let mut t: Vec<u64> = c.hops.iter().map(|p| p.tid).collect();
                    t.sort_unstable();
                    t.dedup();
                    t.len()
                };
                if span(k) < 2 {
                    problems.push("kick chain never crosses cores".to_string());
                }
                if span(c) < 2 {
                    problems.push("irq_delivery chain never crosses cores".to_string());
                }
            }
        }
    }
    if problems.is_empty() {
        let complete = chains.iter().filter(|c| c.complete).count();
        Ok(format!(
            "trace OK: {} slices, {} flow points, {} complete chains \
             (kick -> delivery present), per-track timestamps monotone\n",
            trace.slices.len(),
            trace.flows.len(),
            complete
        ))
    } else {
        Err(Error::TraceInvalid { problems })
    }
}

// ---------------------------------------------------------------------------
// Tracing-overhead benchmark (BENCH_trace.json)
// ---------------------------------------------------------------------------

/// Wall time of one Fig. 4 cell under one tracing mode.
#[derive(Debug, Clone, Serialize)]
pub struct TraceBenchCell {
    /// The cell's `<workload>-<kind>` name.
    pub scenario: String,
    /// Tracing disabled.
    pub off_seconds: f64,
    /// Unbounded tracing.
    pub on_seconds: f64,
    /// Ring-buffer tracing.
    pub ring_seconds: f64,
}

/// The tracing-overhead benchmark over the full Fig. 4 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct TraceBench {
    /// Ring capacity used for the ring mode.
    pub ring_slots: usize,
    /// Total wall seconds, tracing off.
    pub off_seconds: f64,
    /// Total wall seconds, unbounded tracing.
    pub on_seconds: f64,
    /// Total wall seconds, ring-buffer tracing.
    pub ring_seconds: f64,
    /// `on_seconds / off_seconds`.
    pub on_overhead: f64,
    /// `ring_seconds / off_seconds`.
    pub ring_overhead: f64,
    /// Per-cell wall times.
    pub cells: Vec<TraceBenchCell>,
}

/// Wall seconds to build and run `spec`: untraced (`tracing: None`),
/// or event-traced unbounded (`Some(None)`) or in rings
/// (`Some(Some(slots))`).
fn bench_cell(spec: &ScenarioSpec, tracing: Option<Option<usize>>) -> Result<f64, Error> {
    let start = Instant::now();
    spec_run::run_paper_sim(spec, |builder| match tracing {
        None => builder,
        Some(ring) => event_tracing(builder, ring),
    })?;
    Ok(start.elapsed().as_secs_f64())
}

/// Runs the Fig. 4 sweep (nine workloads × the four measured
/// configurations) three times — tracing off, unbounded, and ring —
/// and reports the wall-clock comparison. Off-mode runs are exactly
/// the builder configuration the Figure 4 artifact uses, so the
/// off-mode total is the untraced cost of Figure 4's cells.
///
/// # Errors
///
/// Build/run errors from any cell.
pub fn run_trace_bench(ring_slots: usize) -> Result<TraceBench, Error> {
    let mut cells = Vec::new();
    let (mut off, mut on, mut ring) = (0.0, 0.0, 0.0);
    for workload in Workload::ALL {
        for kind in HvKind::MEASURED {
            let spec = ScenarioSpec::paper(kind).with_workload(workload);
            let off_s = bench_cell(&spec, None)?;
            let on_s = bench_cell(&spec, Some(None))?;
            let ring_s = bench_cell(&spec, Some(Some(ring_slots)))?;
            off += off_s;
            on += on_s;
            ring += ring_s;
            cells.push(TraceBenchCell {
                scenario: spec_run::paper_name(&spec),
                off_seconds: off_s,
                on_seconds: on_s,
                ring_seconds: ring_s,
            });
        }
    }
    Ok(TraceBench {
        ring_slots,
        off_seconds: off,
        on_seconds: on,
        ring_seconds: ring,
        on_overhead: if off > 0.0 { on / off } else { 0.0 },
        ring_overhead: if off > 0.0 { ring / off } else { 0.0 },
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_rr(kind: HvKind) -> ScenarioSpec {
        ScenarioSpec::paper(kind).with_workload(Workload::TcpRr)
    }

    #[test]
    fn only_paper_shape_specs_trace() {
        let mut spec = tcp_rr(HvKind::KvmArm);
        spec.topology = hvx_core::TopologySpec::rack(2, 1);
        assert!(matches!(
            run_trace(&spec, None),
            Err(Error::InvalidSpec { .. })
        ));
    }

    #[test]
    fn traced_tcp_rr_round_trips_and_validates_on_both_arms() {
        for kind in [HvKind::KvmArm, HvKind::XenArm] {
            let hv = kind.slug();
            let report = run_trace(&tcp_rr(kind), None).unwrap();
            assert!(report.events_recorded > 0, "{hv} recorded nothing");
            assert_eq!(report.events_dropped, 0, "{hv} dropped unbounded events");
            assert!(report.flows_complete > 0, "{hv} completed no chains");
            assert!(report.irq_delivery_mean > 0.0, "{hv} derived no latency");
            let parsed = ParsedTrace::parse(&report.json).unwrap();
            assert!(parsed.problems.is_empty(), "{hv}: {:?}", parsed.problems);
            let verdict = validate(&parsed).unwrap();
            assert!(verdict.contains("trace OK"), "{hv}: {verdict}");
            assert!(report.render().contains(&format!("tcp_rr-{hv}")));
        }
    }

    #[test]
    fn xen_delivery_latency_exceeds_kvm_in_the_export() {
        // The Fig. 4 direction must survive the full export → parse →
        // reassemble round trip, not just the in-memory tracer.
        let mean = |kind| run_trace(&tcp_rr(kind), None).unwrap().irq_delivery_mean;
        assert!(mean(HvKind::XenArm) > mean(HvKind::KvmArm));
    }

    #[test]
    fn ring_mode_caps_events_and_surfaces_drops() {
        let report = run_trace(&tcp_rr(HvKind::KvmArm), Some(32)).unwrap();
        assert!(report.events_dropped > 0, "a 32-slot ring must overwrite");
        assert!(report.events_recorded > report.events_dropped);
        let parsed = ParsedTrace::parse(&report.json).unwrap();
        assert!(parsed.slices.len() <= 32);
    }

    #[test]
    fn query_filters_and_ranks_chains() {
        let report = run_trace(&tcp_rr(HvKind::KvmArm), None).unwrap();
        let parsed = ParsedTrace::parse(&report.json).unwrap();
        let all = render_query(&parsed, &Query::default(), "t.json");
        assert!(all.contains("complete chains by latency"));
        assert!(all.contains("irq_delivery"));
        let q = Query {
            track: Some("pcpu4".to_string()),
            top: Some(1),
            ..Query::default()
        };
        let filtered = render_query(&parsed, &q, "t.json");
        assert!(filtered.contains("track=pcpu4"));
        // A time window past the end matches nothing.
        let none = render_query(
            &parsed,
            &Query {
                from: Some(u64::MAX),
                ..Query::default()
            },
            "t.json",
        );
        assert!(none.contains("-> 0 slices, 0 cycles"));
    }

    #[test]
    fn validation_rejects_broken_traces() {
        assert!(ParsedTrace::parse("not json").is_err());
        assert!(ParsedTrace::parse("{\"noTraceEvents\": []}").is_err());
        // Well-formed JSON with no chains fails the chain gates.
        let empty = ParsedTrace::parse(
            "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 5, \
             \"dur\": 1, \"pid\": 0, \"tid\": 0, \"args\": {}}]}",
        )
        .unwrap();
        let err = validate(&empty).unwrap_err();
        assert!(err.to_string().contains("no complete kick chain"));
        // Backwards time on a track is caught.
        let backwards = ParsedTrace {
            thread_names: vec![],
            slices: vec![
                QSlice {
                    name: "a".into(),
                    ts: 100,
                    dur: 10,
                    tid: 0,
                    transition: None,
                    fault: false,
                },
                QSlice {
                    name: "b".into(),
                    ts: 50,
                    dur: 1,
                    tid: 0,
                    transition: None,
                    fault: false,
                },
            ],
            flows: vec![],
            problems: vec![],
        };
        let err = validate(&backwards).unwrap_err();
        assert!(err.to_string().contains("time went backwards"));
    }
}
