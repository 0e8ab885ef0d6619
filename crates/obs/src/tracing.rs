//! Causal flow tracing: cross-machine chains stitched from flow points.
//!
//! Where spans ([`crate::SpanTracer`]) answer *where did cycles go in
//! aggregate*, flows answer *what caused what*: causally-linked work on
//! different cores is stitched together by **flow points** that share
//! one [`FlowId`] (the paper's guest kick → vhost/Dom0 handling → vIRQ
//! delivery chains). The per-charge timeline is not kept here: the
//! engine's trace log holds one record per charge, and its Chrome
//! trace-event export pairs those records with this tracer's flow
//! points.
//!
//! The tracer is substrate-free: tracks are plain `u8` ids and
//! timestamps are raw cycle counts. The engine maps cores to tracks and
//! clock instants to timestamps; this module never advances time, so
//! enabling it cannot perturb a simulation.
//!
//! # Ring-buffer mode
//!
//! With a capacity installed ([`EventTracer::with_capacity`]) the flow
//! store becomes a fixed-size ring: the newest points overwrite the
//! oldest and [`EventTracer::dropped_flow_points`] counts the
//! casualties. Chains whose beginnings were overwritten simply surface
//! as incomplete.

use crate::MetricsRegistry;

/// Identity of one causal flow: every point of a chain carries the same
/// id, which becomes the Chrome trace-event `id` binding the arrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

impl FlowId {
    /// The raw flow identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What kind of causal chain a flow traces. Each kind derives into its
/// own end-to-end latency histogram (see
/// [`EventTracer::derive_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// Guest virtio doorbell → vhost worker → wire departure (KVM's
    /// transmit kick path).
    VirtioKick,
    /// Guest event-channel signal → Dom0 wakeup → wire departure (Xen's
    /// transmit path).
    EvtchnSignal,
    /// Physical device IRQ on the host/Dom0 → backend processing →
    /// vIRQ injection → guest acknowledge (the paper's interrupt
    /// delivery asymmetry, Fig. 4 / Table V).
    IrqDelivery,
    /// One grant copy (including its bounded retries under fault
    /// injection).
    GrantCopy,
    /// An injected fault's charged recovery path (rekick, redeliver,
    /// retry, retransmit).
    FaultRecovery,
}

impl FlowKind {
    /// Every flow kind.
    pub const ALL: [FlowKind; 5] = [
        FlowKind::VirtioKick,
        FlowKind::EvtchnSignal,
        FlowKind::IrqDelivery,
        FlowKind::GrantCopy,
        FlowKind::FaultRecovery,
    ];

    /// Stable snake_case name, used as the Chrome flow-event name.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::VirtioKick => "virtio_kick",
            FlowKind::EvtchnSignal => "evtchn_signal",
            FlowKind::IrqDelivery => "irq_delivery",
            FlowKind::GrantCopy => "grant_copy",
            FlowKind::FaultRecovery => "fault_recovery",
        }
    }

    /// The latency histogram this kind's complete chains derive into.
    /// Virtio kicks and event-channel signals share the I/O-kick
    /// histogram so KVM and Xen are directly comparable.
    pub fn latency_metric(self) -> &'static str {
        match self {
            FlowKind::VirtioKick | FlowKind::EvtchnSignal => "trace.latency.io_kick",
            FlowKind::IrqDelivery => "trace.latency.irq_delivery",
            FlowKind::GrantCopy => "trace.latency.grant_copy",
            FlowKind::FaultRecovery => "trace.latency.fault_recovery",
        }
    }
}

/// Position of a flow point within its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Chain start (Chrome `ph:"s"`).
    Begin,
    /// Intermediate hop (Chrome `ph:"t"`).
    Step,
    /// Chain end (Chrome `ph:"f"`, binding enclosing).
    End,
}

impl FlowPhase {
    /// The Chrome trace-event phase letter.
    pub fn chrome_ph(self) -> &'static str {
        match self {
            FlowPhase::Begin => "s",
            FlowPhase::Step => "t",
            FlowPhase::End => "f",
        }
    }
}

/// One point of a causal flow chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPoint {
    /// The chain this point belongs to.
    pub id: FlowId,
    /// The chain's kind.
    pub kind: FlowKind,
    /// Begin/step/end.
    pub phase: FlowPhase,
    /// Track the point was recorded on.
    pub track: u8,
    /// Instant in cycles.
    pub ts: u64,
    /// A short hop label (e.g. `vhost:wake`).
    pub label: &'static str,
}

/// One reassembled causal chain (see [`EventTracer::chains`]).
#[derive(Debug, Clone)]
pub struct FlowChain {
    /// The chain id.
    pub id: FlowId,
    /// The chain kind.
    pub kind: FlowKind,
    /// The chain's points, in recording order.
    pub points: Vec<FlowPoint>,
    /// `true` when the chain has both its begin and end point (ring
    /// mode can drop either).
    pub complete: bool,
    /// End-to-end latency in cycles (0 unless complete).
    pub latency: u64,
}

impl FlowChain {
    /// Distinct tracks this chain touched.
    pub fn track_span(&self) -> usize {
        let mut tracks: Vec<u8> = self.points.iter().map(|p| p.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        tracks.len()
    }
}

/// Fixed-capacity ring over a `Vec`: pushes overwrite the oldest entry
/// once `cap` is reached.
#[derive(Debug, Clone)]
struct Ring<T> {
    items: Vec<T>,
    /// `None` = unbounded.
    cap: Option<usize>,
    /// Next overwrite position once full.
    head: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    fn new(cap: Option<usize>) -> Self {
        let reserve = cap.unwrap_or(0).min(4096);
        Ring {
            items: Vec::with_capacity(reserve),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, item: T) {
        match self.cap {
            Some(cap) if self.items.len() >= cap => {
                if cap == 0 {
                    self.dropped += 1;
                    return;
                }
                self.items[self.head] = item;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.items.push(item),
        }
    }

    /// Entries in recording order (oldest surviving first).
    fn in_order(&self) -> Vec<T> {
        if self.dropped == 0 || self.head == 0 {
            self.items.clone()
        } else {
            let mut out = Vec::with_capacity(self.items.len());
            out.extend_from_slice(&self.items[self.head..]);
            out.extend_from_slice(&self.items[..self.head]);
            out
        }
    }
}

/// The flow tracer: causal chains of flow points, with an optional
/// ring bound.
///
/// # Examples
///
/// ```
/// use hvx_obs::{EventTracer, FlowKind};
///
/// let mut t = EventTracer::new();
/// let flow = t.flow_begin(FlowKind::VirtioKick, 0, 100, "virtio:kick");
/// t.flow_step(flow, 4, 700, "vhost:wake");
/// t.flow_end(flow, 4, 2_700, "nic:dma");
/// let chains = t.chains();
/// assert_eq!(chains.len(), 1);
/// assert!(chains[0].complete);
/// assert_eq!(chains[0].latency, 2_600);
/// ```
#[derive(Debug, Clone)]
pub struct EventTracer {
    flows: Ring<FlowPoint>,
    next_flow: u64,
}

impl Default for EventTracer {
    fn default() -> Self {
        EventTracer::new()
    }
}

impl EventTracer {
    /// An unbounded tracer: every flow point is kept.
    pub fn new() -> Self {
        EventTracer::build(None)
    }

    /// A ring-buffered tracer keeping at most `capacity` flow points.
    pub fn with_capacity(capacity: usize) -> Self {
        EventTracer::build(Some(capacity))
    }

    fn build(cap: Option<usize>) -> Self {
        EventTracer {
            flows: Ring::new(cap),
            next_flow: 0,
        }
    }

    /// The installed ring capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.flows.cap
    }

    /// Opens a new causal chain at `(track, ts)` and returns its id.
    pub fn flow_begin(
        &mut self,
        kind: FlowKind,
        track: u8,
        ts: u64,
        label: &'static str,
    ) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.flows.push(FlowPoint {
            id,
            kind,
            phase: FlowPhase::Begin,
            track,
            ts,
            label,
        });
        id
    }

    /// Records an intermediate hop of chain `id`.
    pub fn flow_step(&mut self, id: FlowId, track: u8, ts: u64, label: &'static str) {
        self.push_point(id, FlowPhase::Step, track, ts, label);
    }

    /// Closes chain `id` at `(track, ts)`.
    pub fn flow_end(&mut self, id: FlowId, track: u8, ts: u64, label: &'static str) {
        self.push_point(id, FlowPhase::End, track, ts, label);
    }

    fn push_point(
        &mut self,
        id: FlowId,
        phase: FlowPhase,
        track: u8,
        ts: u64,
        label: &'static str,
    ) {
        let kind = self
            .flows
            .items
            .iter()
            .rev()
            .find(|p| p.id == id)
            .map(|p| p.kind);
        // A chain whose earlier points were all overwritten by the ring
        // cannot name its kind; drop the orphan point rather than guess.
        let Some(kind) = kind else { return };
        self.flows.push(FlowPoint {
            id,
            kind,
            phase,
            track,
            ts,
            label,
        });
    }

    /// Surviving flow points, oldest first.
    pub fn flow_points(&self) -> Vec<FlowPoint> {
        self.flows.in_order()
    }

    /// Flow points lost to ring overwrites.
    pub fn dropped_flow_points(&self) -> u64 {
        self.flows.dropped
    }

    /// Reassembles the surviving flow points into chains, in order of
    /// each chain's first surviving point. A chain is complete when both
    /// its begin and end survived; only complete chains carry a latency.
    pub fn chains(&self) -> Vec<FlowChain> {
        let points = self.flows.in_order();
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by_key(|&i| (points[i].id, i));
        let mut chains: Vec<FlowChain> = Vec::new();
        for i in order {
            let p = points[i];
            match chains.last_mut() {
                Some(c) if c.id == p.id => c.points.push(p),
                _ => chains.push(FlowChain {
                    id: p.id,
                    kind: p.kind,
                    points: vec![p],
                    complete: false,
                    latency: 0,
                }),
            }
        }
        for c in &mut chains {
            let begin = c.points.iter().find(|p| p.phase == FlowPhase::Begin);
            let end = c.points.iter().rfind(|p| p.phase == FlowPhase::End);
            if let (Some(b), Some(e)) = (begin, end) {
                c.complete = true;
                c.latency = e.ts.saturating_sub(b.ts);
            }
        }
        // Present chains in the order they began.
        chains.sort_by_key(|c| {
            c.points
                .first()
                .map_or((u64::MAX, u64::MAX), |p| (p.ts, c.id.0))
        });
        chains
    }

    /// The derivation pass: walks the reassembled chains and folds
    /// end-to-end latencies, chain lengths, and completeness counters
    /// into `metrics`:
    ///
    /// * `trace.latency.io_kick` — virtio-kick / event-channel chains;
    /// * `trace.latency.irq_delivery` — interrupt-delivery chains (the
    ///   Fig. 4 asymmetry quantity);
    /// * `trace.latency.grant_copy`, `trace.latency.fault_recovery`;
    /// * `trace.chain_len` — points per complete chain;
    /// * `trace.flows_complete`, `trace.flows_incomplete` counters.
    pub fn derive_metrics(&self, metrics: &mut MetricsRegistry) {
        for c in self.chains() {
            if c.complete {
                metrics.bump("trace.flows_complete", 1);
                metrics.observe(c.kind.latency_metric(), c.latency);
                metrics.observe("trace.chain_len", c.points.len() as u64);
            } else {
                metrics.bump("trace.flows_incomplete", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_reassemble_interleaved_flows() {
        let mut t = EventTracer::new();
        let a = t.flow_begin(FlowKind::VirtioKick, 0, 100, "kick");
        let b = t.flow_begin(FlowKind::IrqDelivery, 4, 150, "irq");
        t.flow_step(a, 4, 300, "wake");
        t.flow_end(b, 1, 900, "ack");
        t.flow_end(a, 5, 600, "dma");
        let chains = t.chains();
        assert_eq!(chains.len(), 2);
        // Presented in begin order.
        assert_eq!(chains[0].kind, FlowKind::VirtioKick);
        assert_eq!(chains[0].points.len(), 3);
        assert!(chains[0].complete);
        assert_eq!(chains[0].latency, 500);
        assert_eq!(chains[1].kind, FlowKind::IrqDelivery);
        assert_eq!(chains[1].latency, 750);
        assert_eq!(chains[1].track_span(), 2);
    }

    #[test]
    fn ring_truncated_chain_is_incomplete_not_wrong() {
        let mut t = EventTracer::with_capacity(2);
        let a = t.flow_begin(FlowKind::EvtchnSignal, 0, 10, "send");
        t.flow_step(a, 5, 50, "wake");
        t.flow_end(a, 5, 90, "wire"); // overwrites the begin
        assert_eq!(t.flow_points().len(), 2, "the ring keeps the newest points");
        assert_eq!(t.dropped_flow_points(), 1);
        let chains = t.chains();
        assert_eq!(chains.len(), 1);
        assert!(!chains[0].complete);
        assert_eq!(chains[0].latency, 0);
    }

    #[test]
    fn orphan_flow_point_after_full_overwrite_is_dropped() {
        let mut t = EventTracer::with_capacity(1);
        let a = t.flow_begin(FlowKind::GrantCopy, 0, 10, "copy");
        let b = t.flow_begin(FlowKind::GrantCopy, 0, 20, "copy");
        t.flow_end(a, 0, 30, "done"); // a's begin was overwritten by b's
        let chains = t.chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].id, b);
    }

    #[test]
    fn derive_metrics_builds_latency_histograms() {
        let mut t = EventTracer::new();
        let a = t.flow_begin(FlowKind::IrqDelivery, 4, 0, "irq");
        t.flow_end(a, 1, 7_000, "ack");
        let b = t.flow_begin(FlowKind::VirtioKick, 0, 100, "kick");
        t.flow_end(b, 5, 2_100, "dma");
        let _c = t.flow_begin(FlowKind::GrantCopy, 5, 50, "copy"); // never ends
        let mut m = MetricsRegistry::new();
        t.derive_metrics(&mut m);
        assert_eq!(m.counter("trace.flows_complete"), 2);
        assert_eq!(m.counter("trace.flows_incomplete"), 1);
        let irq = m.histogram("trace.latency.irq_delivery").unwrap();
        assert_eq!(irq.count(), 1);
        assert_eq!(irq.sum(), 7_000);
        let kick = m.histogram("trace.latency.io_kick").unwrap();
        assert_eq!(kick.sum(), 2_000);
        assert_eq!(m.histogram("trace.chain_len").unwrap().count(), 2);
    }

    #[test]
    fn flow_kind_names_and_metrics_are_stable() {
        let mut names: Vec<_> = FlowKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FlowKind::ALL.len());
        assert_eq!(
            FlowKind::VirtioKick.latency_metric(),
            FlowKind::EvtchnSignal.latency_metric(),
            "KVM and Xen kick chains must land in the same histogram"
        );
    }
}
