//! Transition tracing.
//!
//! The paper's methodology instruments every VM↔hypervisor transition with
//! cycle counters and explains composite costs by decomposing them into
//! primitive steps (Table III decomposes the KVM ARM hypercall into
//! per-register-class save/restore costs; Table V decomposes a netperf
//! transaction into five segments). The engine makes the same decomposition
//! a first-class artifact: every cost a hypervisor model charges becomes
//! one [`TraceEvent`] — core, start, cost, label, kind, the
//! [`TransitionId`] it was charged as, and a fault mark — offered to a
//! single [`TraceLog`]. The log's [`TraceMode`] decides what is kept:
//! nothing, every record, or a ring of the newest records. Tests assert
//! *which* steps executed in *which order* on *which core*, harnesses
//! sum per-label totals to regenerate the paper's breakdown tables, and
//! [`TraceLog::chrome_trace`] exports the
//! kept records with an [`EventTracer`]'s flow points as a Chrome
//! trace-event timeline.

use crate::{CoreId, Cycles};
use hvx_obs::{EventTracer, FlowPhase, TransitionId};
use serde::Value;
use std::fmt;

/// Label of the in-flight marker [`crate::Machine::signal`] records for
/// every cross-core signal. The `signal:` namespace is reserved for it:
/// a marker is kept beside the charges in [`TraceMode::Full`], but it is
/// not a charge — it takes no fault mark, no sequence number, and no
/// ring slot.
pub const SIGNAL_LABEL: &str = "signal:in-flight";

/// Broad classification of a traced step, used for coarse aggregation
/// (e.g. "how much of this hypercall was context switching?").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum TraceKind {
    /// Hardware trap entry (EL1→EL2, VM exit, interrupt entry).
    Trap,
    /// Return from the hypervisor to a lower level (ERET, VM entry).
    Return,
    /// Saving register state to memory.
    ContextSave,
    /// Restoring register state from memory.
    ContextRestore,
    /// Software emulation work in the hypervisor (GIC distributor access,
    /// instruction decode, hypercall handling).
    Emulation,
    /// Physical inter-processor interrupt in flight.
    Ipi,
    /// I/O backend work (vhost handler, netback, device driver).
    Io,
    /// Data copy (grant copy, bounce buffer).
    Copy,
    /// Work executing inside a guest (or native application) context.
    Guest,
    /// Work executing in host OS / Dom0 context other than I/O backends.
    Host,
    /// Scheduler activity (VM switch, idle-domain wake).
    Sched,
    /// Time on the physical wire between machines.
    Wire,
    /// Anything else.
    Other,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Trap => "trap",
            TraceKind::Return => "return",
            TraceKind::ContextSave => "save",
            TraceKind::ContextRestore => "restore",
            TraceKind::Emulation => "emulation",
            TraceKind::Ipi => "ipi",
            TraceKind::Io => "io",
            TraceKind::Copy => "copy",
            TraceKind::Guest => "guest",
            TraceKind::Host => "host",
            TraceKind::Sched => "sched",
            TraceKind::Wire => "wire",
            TraceKind::Other => "other",
        };
        f.pad(s)
    }
}

/// One traced step: a labelled, cycle-stamped interval on a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Core the step executed on.
    pub core: CoreId,
    /// Instant the step began.
    pub start: Cycles,
    /// Duration of the step.
    pub duration: Cycles,
    /// Step classification.
    pub kind: TraceKind,
    /// Stable, machine-readable step label, e.g. `"save:vgic"` or
    /// `"xen:signal-dom0"`. Labels are namespaced with `:`.
    pub label: &'static str,
    /// The transition the step was charged as
    /// ([`crate::Machine::charge_as`]), if any.
    pub transition: Option<TransitionId>,
    /// Whether a fault-plan injection fired immediately before this
    /// step (the step heads a charged recovery path). Set by the log
    /// when it keeps the record.
    pub fault: bool,
}

impl TraceEvent {
    /// Instant the step ended.
    #[inline]
    pub fn end(&self) -> Cycles {
        self.start + self.duration
    }
}

/// What a [`TraceLog`] keeps of the records it is offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Nothing: recording is a single branch (bulk workload runs, and
    /// the precondition for loop compilation).
    Off,
    /// Every record is stored in order (assertable sequences, timeline
    /// rendering, instant extraction, trace export).
    #[default]
    Full,
    /// The newest `n` charge records are kept, oldest overwritten first
    /// (flight-recorder mode); [`TraceLog::dropped`] counts the
    /// casualties. Signal markers are not kept.
    Ring(usize),
}

/// The log every charge is offered to: one [`TraceEvent`] per charge,
/// kept according to its [`TraceMode`].
///
/// # Examples
///
/// ```
/// use hvx_engine::{TraceLog, TraceEvent, TraceKind, CoreId, Cycles};
///
/// let mut log = TraceLog::new();
/// log.record(TraceEvent {
///     core: CoreId::new(0),
///     start: Cycles::ZERO,
///     duration: Cycles::new(152),
///     kind: TraceKind::ContextSave,
///     label: "save:gp",
///     transition: None,
///     fault: false,
/// });
/// assert_eq!(log.total_by_label("save:gp"), Cycles::new(152));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Stored records. In ring mode up to `2n` are held and the newest
    /// `n` are visible (see [`TraceLog::events`]): trimming the oldest
    /// half at once keeps every push amortized O(1) and the visible
    /// window one contiguous, ordered slice.
    events: Vec<TraceEvent>,
    mode: TraceMode,
    /// Charge records offered in full or ring mode (ring overwrites do
    /// not rewind this).
    recorded: u64,
    /// Set by [`TraceLog::note_fault`]; consumed by the next charge.
    pending_fault: bool,
}

impl TraceLog {
    /// Creates an empty log storing every record ([`TraceMode::Full`]).
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Creates an empty log in `mode`.
    pub fn with_mode(mode: TraceMode) -> Self {
        TraceLog {
            mode,
            ..TraceLog::default()
        }
    }

    /// The storage mode.
    #[inline]
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Switches storage mode. Already-kept records stay; only future
    /// records are affected.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
    }

    /// Offers one charge record: dropped ([`TraceMode::Off`]) or kept,
    /// taking the fault mark a just-injected fault left pending.
    #[inline]
    pub fn record(&mut self, mut ev: TraceEvent) {
        match self.mode {
            TraceMode::Off => return,
            TraceMode::Full => {}
            TraceMode::Ring(cap) => {
                if self.events.len() >= 2 * cap.max(1) {
                    self.events.drain(..self.events.len() - cap);
                }
            }
        }
        ev.fault |= std::mem::take(&mut self.pending_fault);
        self.recorded += 1;
        self.events.push(ev);
    }

    /// Offers one in-flight marker (label [`SIGNAL_LABEL`]): kept in
    /// full mode, but never counted as a charge, never fault-marked, and
    /// not kept by a ring.
    #[inline]
    pub(crate) fn record_signal(&mut self, ev: TraceEvent) {
        if self.mode == TraceMode::Full {
            self.events.push(ev);
        }
    }

    /// Marks that a fault was just injected: the next charge record is
    /// flagged as the head of its recovery path. A no-op unless the log
    /// keeps records (full or ring mode).
    #[inline]
    pub(crate) fn note_fault(&mut self) {
        if matches!(self.mode, TraceMode::Full | TraceMode::Ring(_)) {
            self.pending_fault = true;
        }
    }

    /// The kept records in recording order (in ring mode, the newest
    /// `n` charges).
    #[inline]
    pub fn events(&self) -> &[TraceEvent] {
        match self.mode {
            TraceMode::Ring(cap) => &self.events[self.events.len().saturating_sub(cap)..],
            _ => &self.events,
        }
    }

    /// The kept charge records (signal markers skipped), oldest first,
    /// each paired with its sequence number: its index among every
    /// charge this log was offered, so numbering survives ring
    /// overwrites.
    pub(crate) fn charges(&self) -> impl Iterator<Item = (u64, &TraceEvent)> {
        (self.dropped()..).zip(self.events().iter().filter(|e| e.label != SIGNAL_LABEL))
    }

    /// Charge records offered in full or ring mode, including any a
    /// ring overwrote.
    #[inline]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Charge records lost to ring overwrites (0 outside ring mode).
    pub fn dropped(&self) -> u64 {
        match self.mode {
            TraceMode::Ring(_) => self.recorded.saturating_sub(self.events().len() as u64),
            _ => 0,
        }
    }

    /// Number of **kept** records.
    #[inline]
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// Returns `true` if no records are kept.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Discards all kept records and counts, keeping the mode and
    /// allocations.
    pub fn clear(&mut self) {
        self.events.clear();
        self.recorded = 0;
        self.pending_fault = false;
    }

    /// The labels of all kept records, in order — convenient for
    /// asserting the exact step sequence of a code path.
    pub fn labels(&self) -> Vec<&'static str> {
        self.events().iter().map(|e| e.label).collect()
    }

    /// Sum of durations of all kept records with the given label.
    pub fn total_by_label(&self, label: &str) -> Cycles {
        self.events()
            .iter()
            .filter(|e| e.label == label)
            .map(|e| e.duration)
            .sum()
    }

    /// Returns the kept records that executed on `core`, in order.
    pub fn events_on(&self, core: CoreId) -> impl Iterator<Item = &TraceEvent> {
        self.events().iter().filter(move |e| e.core == core)
    }

    /// Returns `true` if `needle` occurs as a (not necessarily contiguous)
    /// subsequence of the recorded label sequence. Useful for asserting
    /// that a path passed through required steps in order without pinning
    /// every intermediate step.
    pub fn contains_label_subsequence(&self, needle: &[&str]) -> bool {
        let mut it = needle.iter();
        let mut want = match it.next() {
            Some(w) => *w,
            None => return true,
        };
        for e in self.events() {
            if e.label == want {
                match it.next() {
                    Some(w) => want = *w,
                    None => return true,
                }
            }
        }
        false
    }

    /// Exports the kept charges plus `flows`' flow points as a Chrome
    /// trace-event JSON value (`{"traceEvents": [...], ...}`), loadable
    /// in Perfetto and `chrome://tracing`.
    ///
    /// Every charge becomes a complete event (`ph:"X"`) whose args carry
    /// its cost, sequence number, transition, and fault mark; flow
    /// points become flow events (`ph:"s"/"t"/"f"`). Timestamps are raw
    /// simulated cycles presented as microseconds (the viewers require
    /// *some* time unit; relative magnitudes are what matter for a
    /// simulation). Tracks are core indices under a single process;
    /// `track_names[track]` supplies the thread names, with `track<N>`
    /// as the fallback.
    pub fn chrome_trace(
        &self,
        process_name: &str,
        track_names: &[String],
        flows: &EventTracer,
    ) -> Value {
        let mut events: Vec<Value> = Vec::new();
        events.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(0)),
            (
                "args",
                obj(vec![("name", Value::Str(process_name.to_string()))]),
            ),
        ]));
        let points = flows.flow_points();
        let mut tracks: Vec<u64> = self
            .charges()
            .map(|(_, e)| e.core.index() as u64)
            .chain(points.iter().map(|p| u64::from(p.track)))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            let name = track_names
                .get(t as usize)
                .cloned()
                .unwrap_or_else(|| format!("track{t}"));
            events.push(obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(t)),
                ("args", obj(vec![("name", Value::Str(name))])),
            ]));
        }
        for (seq, e) in self.charges() {
            let mut args = vec![
                ("cycles", Value::U64(e.duration.as_u64())),
                ("seq", Value::U64(seq)),
            ];
            if let Some(id) = e.transition {
                args.push(("transition", Value::Str(id.name().to_string())));
            }
            if e.fault {
                args.push(("fault", Value::Bool(true)));
            }
            events.push(obj(vec![
                ("name", Value::Str(e.label.to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::U64(e.start.as_u64())),
                ("dur", Value::U64(e.duration.as_u64())),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(e.core.index() as u64)),
                ("args", obj(args)),
            ]));
        }
        for p in &points {
            let mut fields = vec![
                ("name", Value::Str(p.kind.name().to_string())),
                ("cat", Value::Str("flow".into())),
                ("ph", Value::Str(p.phase.chrome_ph().to_string())),
                ("id", Value::U64(p.id.raw())),
                ("ts", Value::U64(p.ts)),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(u64::from(p.track))),
                ("args", obj(vec![("hop", Value::Str(p.label.to_string()))])),
            ];
            if p.phase == FlowPhase::End {
                // Bind the arrow head to the enclosing slice.
                fields.push(("bp", Value::Str("e".into())));
            }
            events.push(obj(fields));
        }
        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ns".into())),
            (
                "otherData",
                obj(vec![
                    ("events_recorded", Value::U64(self.recorded)),
                    ("events_dropped", Value::U64(self.dropped())),
                    ("flow_points", Value::U64(points.len() as u64)),
                ]),
            ),
        ])
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &'static str, kind: TraceKind, dur: u64) -> TraceEvent {
        TraceEvent {
            core: CoreId::new(0),
            start: Cycles::ZERO,
            duration: Cycles::new(dur),
            kind,
            label,
            transition: None,
            fault: false,
        }
    }

    #[test]
    fn record_and_aggregate_by_label() {
        let mut log = TraceLog::new();
        log.record(ev("save:gp", TraceKind::ContextSave, 152));
        log.record(ev("save:vgic", TraceKind::ContextSave, 3250));
        log.record(ev("save:gp", TraceKind::ContextSave, 152));
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_by_label("save:gp"), Cycles::new(304));
        assert_eq!(log.total_by_label("save:vgic"), Cycles::new(3250));
        assert_eq!(log.total_by_label("missing"), Cycles::ZERO);
    }

    #[test]
    fn disabled_log_drops_events() {
        let mut log = TraceLog::with_mode(TraceMode::Off);
        log.record(ev("x", TraceKind::Other, 1));
        log.note_fault();
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 0);
        log.set_mode(TraceMode::Full);
        log.record(ev("x", TraceKind::Other, 1));
        assert_eq!(log.len(), 1);
        assert!(!log.events()[0].fault, "an off log notes no fault");
    }

    #[test]
    fn label_subsequence_matching() {
        let mut log = TraceLog::new();
        for l in ["trap:el2", "save:gp", "save:vgic", "restore:gp", "eret"] {
            log.record(ev(l, TraceKind::Other, 1));
        }
        assert!(log.contains_label_subsequence(&["trap:el2", "save:vgic", "eret"]));
        assert!(log.contains_label_subsequence(&[]));
        assert!(!log.contains_label_subsequence(&["eret", "trap:el2"]));
        assert!(!log.contains_label_subsequence(&["nope"]));
    }

    #[test]
    fn events_on_core_filters() {
        let mut log = TraceLog::new();
        log.record(TraceEvent {
            core: CoreId::new(1),
            ..ev("a", TraceKind::Other, 5)
        });
        log.record(ev("b", TraceKind::Other, 5));
        assert_eq!(log.events_on(CoreId::new(1)).count(), 1);
        assert_eq!(log.events_on(CoreId::new(0)).count(), 1);
        assert_eq!(log.events_on(CoreId::new(9)).count(), 0);
    }

    #[test]
    fn event_end_is_start_plus_duration() {
        let e = TraceEvent {
            core: CoreId::new(0),
            start: Cycles::new(100),
            duration: Cycles::new(50),
            kind: TraceKind::Guest,
            label: "guest:run",
            transition: None,
            fault: false,
        };
        assert_eq!(e.end(), Cycles::new(150));
    }

    #[test]
    fn clear_empties_log() {
        let mut log = TraceLog::new();
        log.record(ev("a", TraceKind::Other, 1));
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 0);
        assert_eq!(log.mode(), TraceMode::Full);
    }

    #[test]
    fn fault_mark_attaches_to_the_next_charge_only() {
        let mut log = TraceLog::new();
        log.record(ev("a", TraceKind::Guest, 10));
        log.note_fault();
        log.record_signal(ev(SIGNAL_LABEL, TraceKind::Ipi, 5));
        log.record(ev("b", TraceKind::Host, 20));
        log.record(ev("c", TraceKind::Host, 5));
        let faults: Vec<bool> = log.events().iter().map(|e| e.fault).collect();
        assert_eq!(faults, [false, false, true, false], "signals skip the mark");
    }

    #[test]
    fn charges_skip_signal_markers_and_number_from_zero() {
        let mut log = TraceLog::new();
        log.record(ev("a", TraceKind::Guest, 10));
        log.record_signal(ev(SIGNAL_LABEL, TraceKind::Ipi, 400));
        log.record(ev("b", TraceKind::Host, 20));
        assert_eq!(log.labels(), ["a", SIGNAL_LABEL, "b"]);
        let charges: Vec<(u64, &str)> = log.charges().map(|(seq, e)| (seq, e.label)).collect();
        assert_eq!(charges, [(0, "a"), (1, "b")]);
        assert_eq!(log.recorded(), 2);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_newest_charges_and_counts_drops() {
        let mut log = TraceLog::with_mode(TraceMode::Ring(2));
        for i in 0..5u64 {
            log.record(TraceEvent {
                start: Cycles::new(i * 10),
                ..ev("s", TraceKind::Guest, 1)
            });
            log.record_signal(ev(SIGNAL_LABEL, TraceKind::Ipi, 1));
        }
        let starts: Vec<u64> = log.events().iter().map(|e| e.start.as_u64()).collect();
        assert_eq!(starts, [30, 40], "oldest surviving first, no markers");
        let seqs: Vec<u64> = log.charges().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, [3, 4], "numbering survives the wrap");
        assert_eq!(log.recorded(), 5);
        assert_eq!(log.dropped(), 3);
        let mut empty = TraceLog::with_mode(TraceMode::Ring(0));
        empty.record(ev("s", TraceKind::Guest, 1));
        empty.record(ev("s", TraceKind::Guest, 1));
        empty.record(ev("s", TraceKind::Guest, 1));
        assert!(empty.is_empty());
        assert_eq!(empty.dropped(), 3);
    }

    #[test]
    fn chrome_trace_shape_is_valid() {
        let mut log = TraceLog::new();
        log.record(TraceEvent {
            transition: Some(TransitionId::VhostKick),
            ..ev("guest:kick", TraceKind::Emulation, 100)
        });
        log.record_signal(ev(SIGNAL_LABEL, TraceKind::Ipi, 400));
        let mut flows = EventTracer::new();
        let f = flows.flow_begin(hvx_obs::FlowKind::VirtioKick, 0, 100, "kick");
        flows.flow_end(f, 4, 900, "dma");
        let v = log.chrome_trace("hvx kvm-arm", &["pcpu0".to_string()], &flows);
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // process_name + 2 thread_names + 1 slice + 2 flow points: the
        // signal marker is not a slice.
        assert_eq!(events.len(), 6);
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        assert_eq!(events[1]["args"]["name"].as_str(), Some("pcpu0"));
        assert_eq!(events[2]["args"]["name"].as_str(), Some("track4"));
        let slice = &events[3];
        assert_eq!(slice["ph"].as_str(), Some("X"));
        assert_eq!(slice["dur"].as_u64(), Some(100));
        assert_eq!(slice["args"]["seq"].as_u64(), Some(0));
        assert_eq!(slice["args"]["transition"].as_str(), Some("vhost_kick"));
        let begin = &events[4];
        assert_eq!(begin["ph"].as_str(), Some("s"));
        assert_eq!(begin["id"].as_u64(), Some(0));
        let end = &events[5];
        assert_eq!(end["ph"].as_str(), Some("f"));
        assert_eq!(end["bp"].as_str(), Some("e"));
        assert_eq!(v["otherData"]["events_recorded"].as_u64(), Some(1));
    }
}
