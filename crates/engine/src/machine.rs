//! The simulated multi-core machine: per-core cycle clocks plus the trace.
//!
//! hvx models time the way the paper measures it: with per-physical-core
//! cycle counters ("measurements were obtained using cycle counters ... to
//! ensure consistency across multiple CPUs", §IV). Each core owns a
//! monotonically advancing clock. Sequential work on a core advances that
//! core's clock; cross-core interactions (physical IPIs, wire deliveries)
//! produce an *arrival instant* which the receiving core synchronizes to
//! with [`Machine::wait_until`] — if the receiver was busy past the arrival,
//! the signal simply finds it later, which is precisely how queueing delay
//! emerges in the application-level simulations.

use crate::compile::{LoopState, Program, RawOp, Recorder, GIVE_UP_ITERS};
use crate::fault::{
    self, CycleBudgetExceeded, FaultPlan, FaultPoint, FaultState, Livelocked, Watchdog,
};
use crate::{CoreId, Cycles, Topology, TraceEvent, TraceKind, TraceLog, TraceMode, SIGNAL_LABEL};
use hvx_obs::{EventTracer, FlowId, FlowKind, MetricsRegistry, SpanTracer, TransitionId};
use std::cell::Cell;

thread_local! {
    /// Simulated transitions (cost charges) executed on this thread,
    /// interpreted and replayed alike. Thread-local so the counter
    /// needs no atomics on the charge hot path and parallel runner
    /// workers count independently.
    static TRANSITIONS: Cell<u64> = const { Cell::new(0) };
    /// The part of `TRANSITIONS` compiled replay applied.
    static REPLAYED: Cell<u64> = const { Cell::new(0) };
}

/// Total simulated transitions executed by the calling thread since it
/// started (wrapping). The runner samples this around each scenario to
/// report per-artifact transition counts and throughput.
pub fn thread_transitions() -> u64 {
    TRANSITIONS.with(Cell::get)
}

/// The part of [`thread_transitions`] that compiled loop replay applied
/// rather than the interpreter (wrapping). Sampled around a run, the
/// two counters split its transitions between the tiers. A sharded run
/// credits its workers' transitions to the caller but not this split,
/// which holds while shard hosts never open a loop session.
pub fn thread_replayed_transitions() -> u64 {
    REPLAYED.with(Cell::get)
}

/// Adds `transitions` executed on another thread to the calling
/// thread's count: a sharded run credits its workers' transitions to
/// the thread that asked for the run.
pub(crate) fn credit_thread_transitions(transitions: u64) {
    TRANSITIONS.with(|t| t.set(t.get().wrapping_add(transitions)));
}

/// The machine's optional observability state: a span tracer fed by
/// every [`Machine::charge`] plus a metrics registry. Boxed so a
/// non-profiling machine pays one pointer of space and a single branch
/// per charge.
#[derive(Debug, Clone, Default)]
struct Profiler {
    spans: SpanTracer,
    metrics: MetricsRegistry,
}

/// Why [`Machine::loop_begin`] refused to open a loop session. Each
/// reason names machinery that observes every transition, which a bulk
/// replay would skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopRefusal {
    /// The trace log is not [`TraceMode::Off`].
    TraceLog,
    /// Span profiling is enabled.
    Profiling,
    /// Causal event tracing is on (its trace log is on too).
    EventTracing,
    /// A fault plan is installed.
    FaultPlan,
    /// A finite watchdog (cycle budget or livelock limit) is set.
    Watchdog,
    /// The machine has more than 256 cores, more than a recorded op can
    /// name.
    TooManyCores,
    /// A session was already open. Nested sessions are unsupported, so
    /// the open one is dropped too.
    Nested,
}

/// A simulated multi-core machine.
///
/// # Examples
///
/// Two cores exchanging a signal:
///
/// ```
/// use hvx_engine::{Machine, Topology, TraceKind, CoreId, Cycles};
///
/// let mut m = Machine::new(Topology::split(2, 1));
/// let a = CoreId::new(0);
/// let b = CoreId::new(1);
/// m.charge(a, "guest:work", TraceKind::Guest, Cycles::new(1000));
/// // Core a sends an IPI costing 400 cycles of wire latency.
/// let arrival = m.signal(a, b, Cycles::new(400));
/// m.wait_until(b, arrival);
/// assert_eq!(m.now(b), Cycles::new(1400));
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    topology: Topology,
    clocks: Vec<Cycles>,
    /// Cycles each core spent doing charged work (clock time minus time
    /// skipped by [`Machine::wait_until`] — i.e. minus idle waiting).
    busy: Vec<Cycles>,
    /// The one per-charge record store (see [`TraceMode`]).
    trace: TraceLog,
    /// `Some` once profiling is enabled; `None` keeps the charge hot
    /// path identical to the pre-observability engine.
    profiler: Option<Box<Profiler>>,
    /// `Some` once a non-empty [`FaultPlan`] is installed; `None`
    /// keeps every fault consult a single branch.
    faults: Option<Box<FaultState>>,
    /// `Some` once causal event tracing is enabled; `None` keeps every
    /// flow hook a single branch, so an untraced run is byte-identical
    /// to the pre-tracing engine.
    events: Option<Box<EventTracer>>,
    /// Cycle-budget ceiling enforced in [`Machine::charge`]
    /// (`u64::MAX` = unlimited, so the hot-path check is one compare).
    cycle_budget: u64,
    /// Livelock threshold (`u64::MAX` = unlimited).
    livelock_limit: u64,
    /// Running total of charged cycles (watchdog bookkeeping).
    total_charged: u64,
    /// Consecutive zero-cost charges (watchdog bookkeeping).
    zero_streak: u64,
    /// `Some` while a loop session (see [`Machine::loop_begin`]) is
    /// recording or replaying; `None` keeps every hot-path hook a
    /// single branch.
    loop_state: Option<Box<LoopState>>,
    /// Iterations skipped by compiled replay since construction.
    iters_replayed: u64,
    /// Of those, the blocks replay stepped op by op instead of jumping.
    blocks_stepped: u64,
    /// Iterations loop sessions recorded (interpreted while hunting for
    /// a period) since construction.
    iters_recorded: u64,
    /// Candidate periods that reached the detector's exact op-by-op
    /// congruence check since construction.
    congruence_checks: u64,
    /// The clocks as plain words, for the loop compiler: one buffer,
    /// reused by every [`Machine::loop_replay`].
    loop_clocks: Vec<u64>,
}

impl Machine {
    /// Creates a machine with all core clocks at zero and tracing
    /// enabled. Picks up the thread's ambient fault configuration (see
    /// [`fault::install_ambient`]); with none installed — the default —
    /// the machine carries no fault state and no watchdog.
    pub fn new(topology: Topology) -> Self {
        let clocks = vec![Cycles::ZERO; topology.num_cores()];
        let busy = clocks.clone();
        let (plan, watchdog) = fault::ambient();
        let mut m = Machine {
            topology,
            clocks,
            busy,
            trace: TraceLog::new(),
            profiler: None,
            faults: None,
            events: None,
            cycle_budget: u64::MAX,
            livelock_limit: u64::MAX,
            total_charged: 0,
            zero_streak: 0,
            loop_state: None,
            iters_replayed: 0,
            blocks_stepped: 0,
            iters_recorded: 0,
            congruence_checks: 0,
            loop_clocks: Vec::new(),
        };
        if let Some(plan) = plan {
            m.set_fault_plan(plan);
        }
        m.set_watchdog(watchdog);
        m
    }

    /// Creates a machine with tracing disabled (bulk workload runs).
    pub fn without_tracing(topology: Topology) -> Self {
        let mut m = Machine::new(topology);
        m.trace.set_mode(TraceMode::Off);
        m
    }

    /// The machine's core topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Content fingerprint of the machine's input configuration:
    /// topology, installed fault plan (if any), and watchdog limits.
    ///
    /// Clocks, traces, and other *derived* state are deliberately
    /// excluded — two machines with the same fingerprint started from
    /// the same closure, whatever they have executed since.
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        let mut h = crate::fingerprint::FingerprintHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Absorbs the machine's input configuration into `h` (see
    /// [`Machine::fingerprint`]).
    pub fn fingerprint_into(&self, h: &mut crate::fingerprint::FingerprintHasher) {
        h.write_str("machine");
        h.write_serialize(&self.topology);
        match &self.faults {
            Some(state) => state.plan().fingerprint_into(h),
            None => h.write_str("no_faults"),
        }
        h.write_u64(self.cycle_budget);
        h.write_u64(self.livelock_limit);
    }

    /// The current instant on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not part of the topology.
    #[inline]
    pub fn now(&self, core: CoreId) -> Cycles {
        self.clocks[core.index()]
    }

    /// The latest instant across all cores.
    pub fn global_now(&self) -> Cycles {
        self.clocks.iter().copied().fold(Cycles::ZERO, Cycles::max)
    }

    /// Spends `cost` cycles of labelled work on `core`, advancing its clock
    /// and offering one [`TraceEvent`] to the trace log.
    ///
    /// Zero-cost charges still record an event (they mark a causal step,
    /// e.g. a register write that is free but architecturally significant).
    ///
    /// Returns the instant the work completed.
    #[inline]
    pub fn charge(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
    ) -> Cycles {
        self.charge_inner(core, label, kind, cost, None)
    }

    #[inline]
    fn charge_inner(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
        transition: Option<TransitionId>,
    ) -> Cycles {
        let start = self.clocks[core.index()];
        self.trace.record(TraceEvent {
            core,
            start,
            duration: cost,
            kind,
            label,
            transition,
            fault: false,
        });
        if let Some(p) = &mut self.profiler {
            p.spans.charge(cost.as_u64());
        }
        let end = start + cost;
        self.clocks[core.index()] = end;
        self.busy[core.index()] += cost;
        TRANSITIONS.with(|t| t.set(t.get().wrapping_add(1)));
        if self.loop_state.is_some() {
            self.loop_record(RawOp::Charge {
                core: core.index() as u8,
                kind,
                cost: cost.as_u64(),
            });
        }
        self.watchdog_tick(cost);
        end
    }

    /// Watchdog bookkeeping for one charge; trips raise typed panic
    /// payloads a harness can downcast after `catch_unwind`.
    #[inline]
    fn watchdog_tick(&mut self, cost: Cycles) {
        self.total_charged = self.total_charged.saturating_add(cost.as_u64());
        if self.total_charged > self.cycle_budget {
            std::panic::panic_any(CycleBudgetExceeded {
                budget: self.cycle_budget,
                reached: self.total_charged,
            });
        }
        if cost.is_zero() {
            self.zero_streak += 1;
            if self.zero_streak > self.livelock_limit {
                std::panic::panic_any(Livelocked {
                    streak: self.zero_streak,
                });
            }
        } else {
            self.zero_streak = 0;
        }
    }

    /// Spends `cost` cycles attributed to transition `id`: shorthand
    /// for a single-charge span (`span_enter(id)`, [`Machine::charge`],
    /// `span_exit(id)`).
    #[inline]
    pub fn charge_as(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
        id: TransitionId,
    ) -> Cycles {
        self.span_enter(id);
        let end = self.charge_inner(core, label, kind, cost, Some(id));
        self.span_exit(id);
        end
    }

    /// Advances `core`'s clock to `instant` if it is currently earlier;
    /// does nothing if the core is already past `instant`. Returns the
    /// core's (possibly unchanged) clock.
    ///
    /// This models a core blocking until a cross-core signal arrives — or
    /// discovering, when it next looks, that the signal already arrived.
    #[inline]
    pub fn wait_until(&mut self, core: CoreId, instant: Cycles) -> Cycles {
        if self.loop_recording() {
            self.loop_record_snapshot(|snap| RawOp::Wait {
                core: core.index() as u8,
                target: instant.as_u64(),
                snap,
            });
        }
        let clock = &mut self.clocks[core.index()];
        *clock = (*clock).max(instant);
        *clock
    }

    /// Sends a point-to-point signal (physical IPI, doorbell, wire packet)
    /// from `from` to `to`, taking `latency` cycles in flight. The send
    /// itself is free on the sending core (charge any send-side cost
    /// separately); the returned instant is when the signal becomes visible
    /// at `to`. The receiving core's clock is *not* advanced — pair with
    /// [`Machine::wait_until`] on the receive path.
    #[inline]
    pub fn signal(&mut self, from: CoreId, to: CoreId, latency: Cycles) -> Cycles {
        let depart = self.now(from);
        let arrival = depart + latency;
        if self.loop_recording() {
            self.loop_record(RawOp::Signal {
                from: from.index() as u8,
                to: to.index() as u8,
                latency: latency.as_u64(),
                arrival: arrival.as_u64(),
            });
        }
        self.trace.record_signal(TraceEvent {
            core: to,
            start: depart,
            duration: latency,
            kind: TraceKind::Ipi,
            label: SIGNAL_LABEL,
            transition: None,
            fault: false,
        });
        arrival
    }

    /// Synchronizes every core's clock to the global maximum. Used between
    /// benchmark iterations so each iteration starts from a common instant,
    /// mirroring the paper's barriers between measurements.
    pub fn barrier(&mut self) -> Cycles {
        // A barrier mid-loop means the loop body is not self-contained;
        // drop any compile session rather than skip over it.
        self.loop_state = None;
        let now = self.global_now();
        for c in &mut self.clocks {
            *c = now;
        }
        now
    }

    /// Cycles `core` spent on charged work (its clock minus idle time
    /// skipped by [`Machine::wait_until`]).
    #[inline]
    pub fn busy(&self, core: CoreId) -> Cycles {
        self.busy[core.index()]
    }

    /// The fraction of the interval `[0, global_now]` that `core` spent
    /// busy — the quantity behind §V's bottleneck analysis ("fully
    /// utilizes the underlying PCPU").
    pub fn utilization(&self, core: CoreId) -> f64 {
        let total = self.global_now().as_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.busy[core.index()].as_f64() / total
    }

    /// Shared access to the trace log.
    #[inline]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the trace log (e.g. to clear between phases).
    #[inline]
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    // --- fault injection & watchdog ------------------------------------

    /// Installs `plan` as this machine's fault plan, resetting all
    /// occurrence counters. An empty plan clears fault state entirely,
    /// restoring the zero-cost default.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.loop_state = None;
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(Box::new(FaultState::new(plan)))
        };
    }

    /// Applies watchdog limits (enforced from the next charge on).
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.loop_state = None;
        self.cycle_budget = watchdog.cycle_budget.unwrap_or(u64::MAX);
        self.livelock_limit = watchdog.livelock_threshold.unwrap_or(u64::MAX);
    }

    /// Whether a non-empty fault plan is installed.
    #[inline]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Consults the fault plan at `point`. Returns `false` (one
    /// branch, no other work) when no plan is installed; otherwise
    /// advances the point's occurrence counter, bumps the
    /// `fault.<point>` metric on injection, marks the next kept charge
    /// record as a recovery head, and returns the decision.
    #[inline]
    pub fn fault(&mut self, point: FaultPoint) -> bool {
        let Some(f) = &mut self.faults else {
            return false;
        };
        let hit = f.should_fault(point);
        if hit {
            if let Some(p) = &mut self.profiler {
                p.metrics.bump(point.metric(), 1);
            }
            self.trace.note_fault();
        }
        hit
    }

    /// Faults injected at `point` so far (0 with no plan installed).
    pub fn faults_injected(&self, point: FaultPoint) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected(point))
    }

    /// Total faults injected across all points.
    pub fn total_faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.total_injected())
    }

    /// Total cycles charged since construction (watchdog's measure —
    /// equals [`Machine::total_busy`]).
    #[inline]
    pub fn total_charged(&self) -> u64 {
        self.total_charged
    }

    // --- observability -------------------------------------------------

    /// Turns on span attribution and metrics collection. Call before
    /// any work is charged so the span totals cover the whole run
    /// (conservation: `spans().total() == Σ busy(core)`). Idempotent.
    pub fn enable_profiling(&mut self) {
        self.loop_state = None;
        if self.profiler.is_none() {
            self.profiler = Some(Box::default());
        }
    }

    /// Whether profiling is enabled.
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Opens a span: until the matching [`Machine::span_exit`], every
    /// charge on this machine is attributed to `id` (unless an inner
    /// span opens). No-op while profiling is disabled, so models can
    /// instrument unconditionally.
    #[inline]
    pub fn span_enter(&mut self, id: TransitionId) {
        let Some(p) = &mut self.profiler else { return };
        p.spans.enter(id);
    }

    /// Closes the innermost span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics (with profiling enabled) if `id` is not the innermost
    /// open span — unbalanced instrumentation is a bug.
    #[inline]
    pub fn span_exit(&mut self, id: TransitionId) {
        let Some(p) = &mut self.profiler else { return };
        p.spans.exit(id);
    }

    /// Adds `n` to the named counter. No-op while profiling is
    /// disabled.
    #[inline]
    pub fn bump(&mut self, name: &'static str, n: u64) {
        let Some(p) = &mut self.profiler else { return };
        p.metrics.bump(name, n);
    }

    /// Records one histogram observation. No-op while profiling is
    /// disabled.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        let Some(p) = &mut self.profiler else { return };
        p.metrics.observe(name, value);
    }

    /// The span tracer, if profiling is enabled.
    pub fn spans(&self) -> Option<&SpanTracer> {
        self.profiler.as_ref().map(|p| &p.spans)
    }

    /// The metrics registry, if profiling is enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.profiler.as_ref().map(|p| &p.metrics)
    }

    /// Mutable metrics registry access (suite-level sampling), if
    /// profiling is enabled.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.profiler.as_mut().map(|p| &mut p.metrics)
    }

    // --- steady-state loop compilation ----------------------------------

    /// Opens a loop compile session: until [`Machine::loop_end`], the
    /// machine records each iteration (delimited by
    /// [`Machine::loop_iter_begin`] / [`Machine::loop_replay`]) and —
    /// once a steady-state period is confirmed — replays the compiled
    /// block in bulk, skipping iterations wholesale.
    ///
    /// # Errors
    ///
    /// Records nothing and returns why when the machine is not
    /// eligible (see [`LoopRefusal`]): in every such case the
    /// per-transition machinery observes state a bulk replay cannot
    /// reproduce, so the loop stays interpreted. All other `loop_*`
    /// calls are cheap no-ops after a refusal, so drivers need no
    /// separate code path.
    pub fn loop_begin(&mut self) -> Result<(), LoopRefusal> {
        if self.loop_state.is_some() {
            // Nested sessions are unsupported; drop the outer one
            // rather than corrupt its iteration structure.
            self.loop_state = None;
            return Err(LoopRefusal::Nested);
        }
        // Event tracing first: it turns the trace log on too.
        if self.events.is_some() {
            return Err(LoopRefusal::EventTracing);
        }
        if self.trace.mode() != TraceMode::Off {
            return Err(LoopRefusal::TraceLog);
        }
        if self.profiler.is_some() {
            return Err(LoopRefusal::Profiling);
        }
        if self.faults.is_some() {
            return Err(LoopRefusal::FaultPlan);
        }
        if self.cycle_budget != u64::MAX || self.livelock_limit != u64::MAX {
            return Err(LoopRefusal::Watchdog);
        }
        if self.clocks.len() > usize::from(u8::MAX) + 1 {
            return Err(LoopRefusal::TooManyCores);
        }
        let recorder = Recorder::new(self.clocks.len());
        self.loop_state = Some(Box::new(LoopState::Recording(recorder)));
        Ok(())
    }

    /// Marks the start of one loop iteration (clock snapshot while
    /// recording; no-op otherwise).
    pub fn loop_iter_begin(&mut self) {
        if let Some(LoopState::Recording(rec)) = self.loop_state.as_deref_mut() {
            if rec.begin_iter(self.clocks.iter().map(|c| c.as_u64())) {
                self.iters_recorded += 1;
            }
        }
    }

    /// Closes the current iteration and, once the loop has compiled,
    /// replays as many whole blocks as fit in `remaining` iterations.
    /// Returns the number of iterations skipped (0 while recording,
    /// after give-up, or when `remaining` is below one period). The
    /// driver must advance its induction variable by the return value
    /// and refresh loop-carried values from [`Machine::loop_reg`].
    pub fn loop_replay(&mut self, remaining: u64) -> u64 {
        let Some(mut state) = self.loop_state.take() else {
            return 0;
        };
        self.loop_clocks.clear();
        self.loop_clocks
            .extend(self.clocks.iter().map(|c| c.as_u64()));
        match &mut *state {
            LoopState::Recording(rec) => {
                if rec.close_iter() {
                    self.iters_recorded += 1;
                }
                if let Some(mut program) =
                    rec.try_compile(&self.loop_clocks, &mut self.congruence_checks)
                {
                    let skipped = self.replay(&mut program, remaining);
                    *state = LoopState::Ready(program);
                    self.loop_state = Some(state);
                    skipped
                } else if rec.recorded_iters() >= GIVE_UP_ITERS {
                    // No steady period: stop paying recording costs.
                    0
                } else {
                    self.loop_state = Some(state);
                    0
                }
            }
            LoopState::Ready(program) => {
                let skipped = self.replay(program, remaining);
                self.loop_state = Some(state);
                skipped
            }
        }
    }

    /// Publishes a loop-carried suite value (e.g. TCP_RR's next send
    /// instant) so compiled replay can reconstruct it across skipped
    /// iterations. No-op unless recording.
    pub fn loop_set_reg(&mut self, idx: usize, value: Cycles) {
        if !self.loop_recording() {
            return;
        }
        if idx > usize::from(u8::MAX) {
            self.loop_state = None;
            return;
        }
        self.loop_record_snapshot(|snap| RawOp::Reg {
            idx: idx as u8,
            value: value.as_u64(),
            snap,
        });
    }

    /// The current value of loop register `idx` after a replay
    /// (`None` while interpreting — the driver's own value is then
    /// already current).
    pub fn loop_reg(&self, idx: usize) -> Option<Cycles> {
        match self.loop_state.as_deref() {
            Some(LoopState::Ready(p)) => p.live.regs.get(idx).copied().map(Cycles::new),
            _ => None,
        }
    }

    /// Ends the loop session, dropping any recording or compiled
    /// program.
    pub fn loop_end(&mut self) {
        self.loop_state = None;
    }

    /// Whether the active loop session has compiled to a program.
    pub fn loop_compiled(&self) -> bool {
        matches!(self.loop_state.as_deref(), Some(LoopState::Ready(_)))
    }

    /// Iterations skipped by compiled replay since construction.
    pub fn iters_replayed(&self) -> u64 {
        self.iters_replayed
    }

    /// Of [`Machine::iters_replayed`]'s blocks, those replay stepped op
    /// by op rather than jumped over in closed form.
    pub fn blocks_stepped(&self) -> u64 {
        self.blocks_stepped
    }

    /// Iterations loop sessions recorded and closed since construction:
    /// those a compiled loop interpreted before its period was proved,
    /// and those of sessions that gave up or ended uncompiled.
    pub fn iters_recorded(&self) -> u64 {
        self.iters_recorded
    }

    /// Candidate periods that passed the detector's hash screen and
    /// clock-delta check and so reached its exact op-by-op congruence
    /// check, since construction.
    pub fn congruence_checks(&self) -> u64 {
        self.congruence_checks
    }

    #[inline]
    fn loop_recording(&self) -> bool {
        matches!(self.loop_state.as_deref(), Some(LoopState::Recording(_)))
    }

    /// Feeds one recorded op to the session; aborts the session when
    /// the op falls outside an open iteration (the loop body is then
    /// not the only thing charging the machine).
    fn loop_record(&mut self, op: RawOp) {
        if let Some(LoopState::Recording(rec)) = self.loop_state.as_deref_mut() {
            if !rec.record(op) {
                self.loop_state = None;
            }
        }
    }

    /// [`Machine::loop_record`] for an op that carries a snapshot of
    /// the clocks: `op` gets the snapshot's offset.
    fn loop_record_snapshot(&mut self, op: impl FnOnce(usize) -> RawOp) {
        if let Some(LoopState::Recording(rec)) = self.loop_state.as_deref_mut() {
            let snap = rec.snapshot(self.clocks.iter().map(|c| c.as_u64()));
            if !rec.record(op(snap)) {
                self.loop_state = None;
            }
        }
    }

    /// Applies `blocks × program` to the machine's aggregate state,
    /// starting from the clocks in `loop_clocks`.
    fn replay(&mut self, program: &mut Program, remaining: u64) -> u64 {
        let blocks = remaining / program.period;
        if blocks == 0 {
            return 0;
        }
        self.blocks_stepped += program.run_blocks(&mut self.loop_clocks, blocks);
        for (c, v) in self.clocks.iter_mut().zip(&self.loop_clocks) {
            *c = Cycles::new(*v);
        }
        for (b, d) in self.busy.iter_mut().zip(&program.busy_delta) {
            *b += Cycles::new(d * blocks);
        }
        self.total_charged = self
            .total_charged
            .saturating_add(program.charged_delta.saturating_mul(blocks));
        let charges = program.charges_per_block * blocks;
        if program.charges_per_block > 0 {
            if program.all_zero {
                self.zero_streak += charges;
            } else {
                self.zero_streak = program.tail_zero_run;
            }
        }
        TRANSITIONS.with(|t| t.set(t.get().wrapping_add(charges)));
        REPLAYED.with(|t| t.set(t.get().wrapping_add(charges)));
        let skipped = blocks * program.period;
        self.iters_replayed += skipped;
        skipped
    }

    // --- causal event tracing -------------------------------------------

    /// Turns on causal event tracing: the flow hooks below start
    /// stitching cross-core chains, and the trace log keeps a record of
    /// every charge — the slices of the exported timeline
    /// ([`TraceLog::chrome_trace`]). A log in [`TraceMode::Ring`] keeps
    /// its ring, and the flow points get a ring of the same size; any
    /// other mode switches to [`TraceMode::Full`]. Tracing reads clocks
    /// but never advances them, so an identical run with tracing off
    /// charges identical cycles.
    pub fn enable_event_tracing(&mut self) {
        self.loop_state = None;
        let tracer = match self.trace.mode() {
            TraceMode::Ring(n) => EventTracer::with_capacity(n),
            _ => {
                self.trace.set_mode(TraceMode::Full);
                EventTracer::new()
            }
        };
        self.events = Some(Box::new(tracer));
    }

    /// Whether causal event tracing is enabled.
    #[inline]
    pub fn event_tracing(&self) -> bool {
        self.events.is_some()
    }

    /// The event tracer, if tracing is enabled.
    pub fn event_tracer(&self) -> Option<&EventTracer> {
        self.events.as_deref()
    }

    /// Takes the event tracer out of the machine (export/derivation
    /// time), disabling further flow recording; the trace log keeps its
    /// mode and records.
    pub fn take_event_tracer(&mut self) -> Option<EventTracer> {
        self.events.take().map(|b| *b)
    }

    /// Opens a causal chain anchored at `core`'s current instant.
    /// Returns `None` (one branch, no other work) while tracing is
    /// disabled, so models can instrument unconditionally and thread
    /// the `Option` through [`Machine::flow_step`]/[`Machine::flow_end`].
    #[inline]
    pub fn flow_begin(
        &mut self,
        kind: FlowKind,
        core: CoreId,
        label: &'static str,
    ) -> Option<FlowId> {
        let ts = self.now(core).as_u64();
        self.events
            .as_mut()
            .map(|ev| ev.flow_begin(kind, core.index() as u8, ts, label))
    }

    /// Records an intermediate hop of chain `id` at `core`'s current
    /// instant. No-op for `None` (tracing disabled at begin time).
    #[inline]
    pub fn flow_step(&mut self, id: Option<FlowId>, core: CoreId, label: &'static str) {
        let Some(id) = id else { return };
        let ts = self.now(core).as_u64();
        if let Some(ev) = &mut self.events {
            ev.flow_step(id, core.index() as u8, ts, label);
        }
    }

    /// Ends chain `id` at `core`'s current instant. No-op for `None`.
    #[inline]
    pub fn flow_end(&mut self, id: Option<FlowId>, core: CoreId, label: &'static str) {
        let Some(id) = id else { return };
        let ts = self.now(core).as_u64();
        if let Some(ev) = &mut self.events {
            ev.flow_end(id, core.index() as u8, ts, label);
        }
    }

    /// Sum of every core's charged work — the run total that the span
    /// breakdown must account for.
    pub fn total_busy(&self) -> Cycles {
        self.busy.iter().copied().sum()
    }

    /// Asserts span/charge conservation: with profiling enabled, the
    /// span tracer's total (which equals its exclusive totals plus the
    /// unattributed remainder by construction) must equal the machine's
    /// summed busy time. Returns the verified total.
    ///
    /// # Panics
    ///
    /// Panics if profiling is disabled or the identity does not hold.
    pub fn assert_conservation(&self) -> Cycles {
        let spans = self
            .spans()
            .expect("assert_conservation requires profiling to be enabled");
        assert_eq!(
            spans.total(),
            self.total_busy().as_u64(),
            "span totals diverge from the machine's busy cycles"
        );
        self.total_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core_machine() -> Machine {
        Machine::new(Topology::split(2, 1))
    }

    #[test]
    fn charge_advances_only_target_core() {
        let mut m = two_core_machine();
        let end = m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(100));
        assert_eq!(end, Cycles::new(100));
        assert_eq!(m.now(CoreId::new(0)), Cycles::new(100));
        assert_eq!(m.now(CoreId::new(1)), Cycles::ZERO);
        assert_eq!(m.global_now(), Cycles::new(100));
    }

    #[test]
    fn zero_cost_charge_still_traces() {
        let mut m = two_core_machine();
        m.charge(CoreId::new(0), "mark", TraceKind::Other, Cycles::ZERO);
        assert_eq!(m.trace().len(), 1);
        assert_eq!(m.now(CoreId::new(0)), Cycles::ZERO);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut m = two_core_machine();
        m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(500));
        // Waiting for an instant in the past leaves the clock alone.
        let t = m.wait_until(CoreId::new(0), Cycles::new(100));
        assert_eq!(t, Cycles::new(500));
        // Waiting for the future advances.
        let t = m.wait_until(CoreId::new(0), Cycles::new(900));
        assert_eq!(t, Cycles::new(900));
    }

    #[test]
    fn signal_latency_composes_with_receiver_clock() {
        let mut m = two_core_machine();
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        m.charge(a, "w", TraceKind::Guest, Cycles::new(1000));
        let arrival = m.signal(a, b, Cycles::new(250));
        assert_eq!(arrival, Cycles::new(1250));
        // Busy receiver: signal waits for the receiver, not vice versa.
        m.charge(b, "busy", TraceKind::Host, Cycles::new(2000));
        let t = m.wait_until(b, arrival);
        assert_eq!(t, Cycles::new(2000));
    }

    #[test]
    fn barrier_aligns_all_clocks() {
        let mut m = two_core_machine();
        m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(77));
        let t = m.barrier();
        assert_eq!(t, Cycles::new(77));
        assert_eq!(m.now(CoreId::new(1)), Cycles::new(77));
    }

    #[test]
    fn without_tracing_drops_events_but_keeps_time() {
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(10));
        assert!(m.trace().is_empty());
        assert_eq!(m.now(CoreId::new(0)), Cycles::new(10));
    }

    #[test]
    fn busy_time_excludes_idle_waits() {
        let mut m = two_core_machine();
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        m.charge(a, "w", TraceKind::Guest, Cycles::new(1_000));
        let arrival = m.signal(a, b, Cycles::new(500));
        m.wait_until(b, arrival); // b idled for 1,500 cycles
        m.charge(b, "h", TraceKind::Host, Cycles::new(500));
        assert_eq!(m.busy(a), Cycles::new(1_000));
        assert_eq!(m.busy(b), Cycles::new(500));
        assert_eq!(m.now(b), Cycles::new(2_000));
        assert!((m.utilization(a) - 0.5).abs() < 1e-9);
        assert!((m.utilization(b) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn utilization_of_fresh_machine_is_zero() {
        let m = two_core_machine();
        assert_eq!(m.utilization(CoreId::new(0)), 0.0);
    }

    #[test]
    fn profiling_attributes_charges_to_innermost_span() {
        let mut m = two_core_machine();
        m.enable_profiling();
        let c0 = CoreId::new(0);
        m.charge(c0, "boot", TraceKind::Other, Cycles::new(10)); // unattributed
        m.span_enter(TransitionId::ContextSave);
        m.charge(c0, "save:gp", TraceKind::ContextSave, Cycles::new(152));
        m.charge_as(
            c0,
            "save:vgic",
            TraceKind::ContextSave,
            Cycles::new(500),
            TransitionId::VgicLrSave,
        );
        m.span_exit(TransitionId::ContextSave);
        m.bump("traps", 2);
        m.observe("lat", 662);
        let spans = m.spans().unwrap();
        assert_eq!(spans.exclusive(TransitionId::ContextSave), 152);
        assert_eq!(spans.exclusive(TransitionId::VgicLrSave), 500);
        assert_eq!(spans.inclusive(TransitionId::ContextSave), 652);
        assert_eq!(spans.unattributed(), 10);
        assert_eq!(m.metrics().unwrap().counter("traps"), 2);
        assert_eq!(m.assert_conservation(), Cycles::new(662));
    }

    #[test]
    fn profiling_disabled_makes_spans_free_noops() {
        let mut m = two_core_machine();
        m.span_enter(TransitionId::TrapToEl2);
        m.charge(CoreId::new(0), "t", TraceKind::Trap, Cycles::new(40));
        m.span_exit(TransitionId::TrapToEl2);
        m.bump("traps", 1);
        assert!(m.spans().is_none());
        assert!(m.metrics().is_none());
        assert!(!m.profiling());
    }

    #[test]
    fn conservation_spans_multiple_cores() {
        let mut m = two_core_machine();
        m.enable_profiling();
        m.charge_as(
            CoreId::new(0),
            "g",
            TraceKind::Guest,
            Cycles::new(100),
            TransitionId::GuestRun,
        );
        m.charge_as(
            CoreId::new(1),
            "h",
            TraceKind::Host,
            Cycles::new(300),
            TransitionId::HostDispatch,
        );
        assert_eq!(m.total_busy(), Cycles::new(400));
        assert_eq!(m.assert_conservation(), Cycles::new(400));
    }

    #[test]
    fn fault_consult_without_plan_is_false_and_free() {
        let mut m = two_core_machine();
        assert!(!m.faults_enabled());
        for p in FaultPoint::ALL {
            assert!(!m.fault(p));
            assert_eq!(m.faults_injected(p), 0);
        }
    }

    #[test]
    fn fault_plan_decisions_bump_metrics_when_profiling() {
        use crate::FaultPlan;
        let mut m = two_core_machine();
        m.enable_profiling();
        m.set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::VirqDrop, 1.0));
        assert!(m.faults_enabled());
        assert!(m.fault(FaultPoint::VirqDrop));
        assert!(!m.fault(FaultPoint::NicStall));
        assert_eq!(m.faults_injected(FaultPoint::VirqDrop), 1);
        assert_eq!(m.total_faults_injected(), 1);
        assert_eq!(m.metrics().unwrap().counter("fault.virq_drop"), 1);
    }

    #[test]
    fn empty_fault_plan_clears_state() {
        use crate::FaultPlan;
        let mut m = two_core_machine();
        m.set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::WireDrop, 1.0));
        assert!(m.faults_enabled());
        m.set_fault_plan(FaultPlan::new(1));
        assert!(!m.faults_enabled());
    }

    #[test]
    fn cycle_budget_watchdog_trips_with_typed_payload() {
        use crate::fault::CycleBudgetExceeded;
        use crate::Watchdog;
        let payload = std::panic::catch_unwind(|| {
            let mut m = two_core_machine();
            m.set_watchdog(Watchdog {
                cycle_budget: Some(1_000),
                livelock_threshold: None,
            });
            for _ in 0..100 {
                m.charge(CoreId::new(0), "w", TraceKind::Guest, Cycles::new(100));
            }
        })
        .expect_err("budget must trip");
        let trip = payload
            .downcast_ref::<CycleBudgetExceeded>()
            .expect("typed payload");
        assert_eq!(trip.budget, 1_000);
        assert!(trip.reached > 1_000);
    }

    #[test]
    fn livelock_watchdog_trips_on_zero_progress() {
        use crate::fault::Livelocked;
        use crate::Watchdog;
        let payload = std::panic::catch_unwind(|| {
            let mut m = two_core_machine();
            m.set_watchdog(Watchdog {
                cycle_budget: None,
                livelock_threshold: Some(10),
            });
            loop {
                m.charge(CoreId::new(0), "spin", TraceKind::Other, Cycles::ZERO);
            }
        })
        .expect_err("livelock must trip");
        assert!(payload.downcast_ref::<Livelocked>().is_some());
    }

    #[test]
    fn nonzero_charges_reset_livelock_streak() {
        use crate::Watchdog;
        let mut m = two_core_machine();
        m.set_watchdog(Watchdog {
            cycle_budget: None,
            livelock_threshold: Some(5),
        });
        for _ in 0..10 {
            for _ in 0..5 {
                m.charge(CoreId::new(0), "z", TraceKind::Other, Cycles::ZERO);
            }
            m.charge(CoreId::new(0), "w", TraceKind::Guest, Cycles::new(1));
        }
        assert_eq!(m.total_charged(), 10);
    }

    #[test]
    fn machine_new_picks_up_ambient_plan() {
        use crate::fault::install_ambient;
        use crate::{FaultPlan, Watchdog};
        let plan = FaultPlan::new(12).with_rate(FaultPoint::WireDrop, 1.0);
        let _g = install_ambient(Some(plan), Watchdog::UNLIMITED);
        let mut m = two_core_machine();
        assert!(m.faults_enabled());
        assert!(m.fault(FaultPoint::WireDrop));
        drop(_g);
        let m2 = two_core_machine();
        assert!(!m2.faults_enabled());
    }

    #[test]
    fn event_tracing_records_slices_and_flows_without_advancing_time() {
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        m.enable_event_tracing();
        assert_eq!(m.trace().mode(), TraceMode::Full, "traced charges are kept");
        assert!(m.event_tracing());
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        m.charge_as(
            a,
            "guest:kick",
            TraceKind::Emulation,
            Cycles::new(100),
            TransitionId::VhostKick,
        );
        let flow = m.flow_begin(FlowKind::VirtioKick, a, "virtio:kick");
        assert!(flow.is_some());
        let arrival = m.signal(a, b, Cycles::new(400));
        m.wait_until(b, arrival);
        m.flow_step(flow, b, "vhost:wake");
        m.charge(b, "vhost:tx", TraceKind::Host, Cycles::new(1_000));
        m.flow_end(flow, b, "nic:dma");

        // Tracing is read-only on time: clocks match an untraced twin.
        let mut twin = two_core_machine();
        twin.charge_as(
            a,
            "guest:kick",
            TraceKind::Emulation,
            Cycles::new(100),
            TransitionId::VhostKick,
        );
        let arr = twin.signal(a, b, Cycles::new(400));
        twin.wait_until(b, arr);
        twin.charge(b, "vhost:tx", TraceKind::Host, Cycles::new(1_000));
        assert_eq!(m.now(a), twin.now(a));
        assert_eq!(m.now(b), twin.now(b));

        let tracer = m.take_event_tracer().unwrap();
        assert!(!m.event_tracing(), "taking the tracer disables tracing");
        let slices: Vec<(u64, &TraceEvent)> = m.trace().charges().collect();
        assert_eq!(slices.len(), 2, "the signal marker is not a charge");
        assert_eq!(slices[0].1.transition, Some(TransitionId::VhostKick));
        assert_eq!(slices[1].0, 1);
        assert_eq!(slices[1].1.core, b);
        assert_eq!(slices[1].1.start, Cycles::new(500));
        let chains = tracer.chains();
        assert_eq!(chains.len(), 1);
        assert!(chains[0].complete);
        assert_eq!(chains[0].latency, 1_400, "kick at 100, dma at 1,500");
        assert_eq!(chains[0].track_span(), 2);
    }

    #[test]
    fn flow_hooks_are_noops_while_tracing_is_disabled() {
        let mut m = two_core_machine();
        let flow = m.flow_begin(FlowKind::IrqDelivery, CoreId::new(0), "irq");
        assert!(flow.is_none());
        m.flow_step(flow, CoreId::new(1), "hop");
        m.flow_end(flow, CoreId::new(1), "done");
        assert!(m.event_tracer().is_none());
        assert!(m.take_event_tracer().is_none());
    }

    #[test]
    fn fault_injection_marks_the_next_traced_slice() {
        use crate::FaultPlan;
        let mut m = two_core_machine();
        m.enable_event_tracing();
        m.set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::VirqDrop, 1.0));
        m.charge(CoreId::new(0), "ok", TraceKind::Guest, Cycles::new(10));
        assert!(m.fault(FaultPoint::VirqDrop));
        m.signal(CoreId::new(0), CoreId::new(1), Cycles::new(5));
        m.charge(CoreId::new(0), "recover", TraceKind::Host, Cycles::new(20));
        let faults: Vec<bool> = m.trace().charges().map(|(_, e)| e.fault).collect();
        assert_eq!(faults, [false, true]);
    }

    #[test]
    fn ring_mode_caps_kept_slices() {
        let mut m = two_core_machine();
        m.trace_mut().set_mode(TraceMode::Ring(3));
        m.enable_event_tracing();
        assert_eq!(m.trace().mode(), TraceMode::Ring(3), "the ring survives");
        for _ in 0..10 {
            m.charge(CoreId::new(0), "w", TraceKind::Guest, Cycles::new(5));
        }
        assert_eq!(m.trace().len(), 3);
        assert_eq!(m.trace().recorded(), 10);
        assert_eq!(m.trace().dropped(), 7);
        assert_eq!(m.event_tracer().unwrap().capacity(), Some(3));
    }

    #[test]
    fn trace_records_interval_and_order() {
        let mut m = two_core_machine();
        m.charge(CoreId::new(0), "first", TraceKind::Trap, Cycles::new(160));
        m.charge(
            CoreId::new(0),
            "second",
            TraceKind::Return,
            Cycles::new(120),
        );
        let evs = m.trace().events();
        assert_eq!(evs[0].label, "first");
        assert_eq!(evs[0].start, Cycles::ZERO);
        assert_eq!(evs[0].end(), Cycles::new(160));
        assert_eq!(evs[1].start, Cycles::new(160));
        assert_eq!(evs[1].end(), Cycles::new(280));
    }

    // --- steady-state loop compilation ---------------------------------

    /// Runs `iters` iterations of `body` under a loop session, the way
    /// suite drivers do.
    fn drive(m: &mut Machine, iters: u64, mut body: impl FnMut(&mut Machine, u64)) {
        // A refused session leaves every loop_* call a no-op.
        let _ = m.loop_begin();
        let mut i = 0;
        while i < iters {
            let skipped = m.loop_replay(iters - i);
            if skipped > 0 {
                i += skipped;
                continue;
            }
            m.loop_iter_begin();
            body(m, i);
            i += 1;
        }
        m.loop_end();
    }

    fn assert_replay_matches(compiled: &Machine, interpreted: &Machine) {
        assert_eq!(compiled.clocks, interpreted.clocks, "clocks diverged");
        assert_eq!(compiled.busy, interpreted.busy, "busy diverged");
        assert_eq!(
            compiled.total_charged, interpreted.total_charged,
            "total_charged diverged"
        );
        assert_eq!(
            compiled.zero_streak, interpreted.zero_streak,
            "zero_streak diverged"
        );
    }

    /// A ping-pong body: compute on core 0, IPI to core 1, handle,
    /// reply. Exercises Charge, Signal, and slot-classified waits.
    fn ping_pong(m: &mut Machine, _i: u64) {
        let c0 = CoreId::new(0);
        let c1 = CoreId::new(1);
        m.charge(c0, "guest:work", TraceKind::Guest, Cycles::new(1000));
        let there = m.signal(c0, c1, Cycles::new(400));
        m.wait_until(c1, there);
        m.charge(c1, "hyp:handle", TraceKind::Emulation, Cycles::new(300));
        let back = m.signal(c1, c0, Cycles::new(400));
        m.wait_until(c0, back);
    }

    #[test]
    fn loop_replay_is_identical_to_interpretation() {
        let mut compiled = Machine::without_tracing(Topology::split(2, 1));
        let mut interpreted = Machine::without_tracing(Topology::split(2, 1));
        drive(&mut compiled, 500, ping_pong);
        for i in 0..500 {
            ping_pong(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 400, "loop should have compiled");
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn loop_replay_handles_period_two() {
        let body = |m: &mut Machine, i: u64| {
            let cost = if i.is_multiple_of(2) { 700 } else { 900 };
            m.charge(CoreId::new(0), "alt", TraceKind::Guest, Cycles::new(cost));
            ping_pong(m, i);
        };
        let mut compiled = Machine::without_tracing(Topology::split(2, 1));
        let mut interpreted = Machine::without_tracing(Topology::split(2, 1));
        drive(&mut compiled, 501, body);
        for i in 0..501 {
            body(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 400);
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn loop_replay_handles_linear_wait_targets() {
        // A paced receive loop: arrivals stride by a constant spacing
        // larger than the per-iteration work, so the wait is binding
        // and classifies as linear.
        let body = |m: &mut Machine, i: u64| {
            let arrival = Cycles::new(5_000 + i * 2_500);
            m.wait_until(CoreId::new(1), arrival);
            m.charge(CoreId::new(1), "rx", TraceKind::Io, Cycles::new(600));
        };
        let mut compiled = Machine::without_tracing(Topology::split(2, 1));
        let mut interpreted = Machine::without_tracing(Topology::split(2, 1));
        drive(&mut compiled, 400, body);
        for i in 0..400 {
            body(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 300);
        assert_replay_matches(&compiled, &interpreted);
    }

    /// Runs `body` for `iters` iterations on two fresh machines of
    /// `cores` cores, after `setup` — compiled on one, interpreted on
    /// the other — asserts they match, and returns the compiled one.
    fn replay_vs_interpretation(
        cores: u16,
        setup: impl Fn(&mut Machine),
        iters: u64,
        mut body: impl FnMut(&mut Machine, u64),
        mut reference: impl FnMut(&mut Machine, u64),
    ) -> Machine {
        let fresh = || {
            let mut m = Machine::without_tracing(Topology::split(cores, 1));
            setup(&mut m);
            m
        };
        let mut compiled = fresh();
        drive(&mut compiled, iters, &mut body);
        let mut interpreted = fresh();
        for i in 0..iters {
            reference(&mut interpreted, i);
        }
        assert_replay_matches(&compiled, &interpreted);
        compiled
    }

    /// Core 1 starts `head` cycles ahead of a paced receive loop whose
    /// arrivals start at `lead` and stride by `stride`; each receive
    /// costs `work`.
    fn paced_receive(head: u64, lead: u64, stride: u64, work: u64, iters: u64) -> Machine {
        let body = move |m: &mut Machine, i: u64| {
            m.wait_until(CoreId::new(1), Cycles::new(lead + i * stride));
            m.charge(CoreId::new(1), "rx", TraceKind::Io, Cycles::new(work));
        };
        let setup = move |m: &mut Machine| {
            m.charge(CoreId::new(1), "head", TraceKind::Guest, Cycles::new(head));
        };
        replay_vs_interpretation(2, setup, iters, body, body)
    }

    #[test]
    fn loop_replay_jumps_across_a_linear_target_overtaking_a_head_start() {
        // The arrivals gain 1 cycle per iteration on a core 300,000
        // cycles ahead: the wait starts binding after ~300k iterations,
        // mid-replay.
        let m = paced_receive(300_000, 1_000, 2_501, 2_500, 1_000_000);
        assert!(m.iters_replayed() > 999_000);
        assert!(m.blocks_stepped < 20, "stepped {}", m.blocks_stepped);
    }

    /// Core 2 waits on arrivals from cores 0 and 1. Core 0 starts
    /// `head` cycles ahead, so its arrival binds until core 1's, which
    /// gains 3 cycles per iteration, overtakes it.
    fn overtaken_arrival(head: u64, iters: u64) -> Machine {
        let (c0, c1, c2) = (CoreId::new(0), CoreId::new(1), CoreId::new(2));
        let body = move |m: &mut Machine, _i: u64| {
            m.charge(c0, "tx", TraceKind::Guest, Cycles::new(2_000));
            let a = m.signal(c0, c2, Cycles::new(400));
            m.charge(c1, "tx", TraceKind::Guest, Cycles::new(2_003));
            let b = m.signal(c1, c2, Cycles::new(400));
            m.wait_until(c2, a);
            m.wait_until(c2, b);
            m.charge(c2, "rx", TraceKind::Io, Cycles::new(500));
        };
        let setup = move |m: &mut Machine| {
            m.charge(c0, "head", TraceKind::Guest, Cycles::new(head));
        };
        replay_vs_interpretation(3, setup, iters, body, body)
    }

    #[test]
    fn loop_replay_jumps_across_a_binding_wait_that_stops_binding() {
        let m = overtaken_arrival(300_000, 400_000);
        assert!(m.iters_replayed() > 399_000);
        assert!(m.blocks_stepped < 20, "stepped {}", m.blocks_stepped);
    }

    #[test]
    fn loop_replay_lands_a_jump_on_a_zero_margin() {
        // Each margin starts at a multiple of its slope and reaches 0
        // around iteration 40,000, so the first jump ends exactly on
        // the tie. Ending the loop on either side of it leaves no later
        // block to hide a jump that overshoots the tie.
        for iters in 39_999..40_004 {
            // A paced target gains 7 cycles per iteration on core 1.
            let m = paced_receive(7 * 40_000 + 1_000, 1_000, 2_507, 2_500, iters);
            assert!(m.blocks_stepped < 20, "stepped {}", m.blocks_stepped);
            // Core 1's arrival gains 3 cycles per iteration on core 0's.
            let m = overtaken_arrival(3 * 40_000, iters);
            assert!(m.blocks_stepped < 20, "stepped {}", m.blocks_stepped);
        }
    }

    proptest::proptest! {
        #[test]
        fn closed_form_replay_matches_interpretation(
            head in 0u64..400_000,
            lead in 0u64..400_000,
            stride in 1u64..5_000,
            work in 1u64..5_000,
            iters in 1u64..1_000_001,
        ) {
            let m = paced_receive(head, lead, stride, work, iters);
            proptest::prop_assert!(m.blocks_stepped <= 40, "stepped {}", m.blocks_stepped);
        }
    }

    /// Two cores that each wait on the other's arrival from the
    /// previous iteration, then on a paced target that always wins.
    /// The arrivals trade places every iteration, so their deltas
    /// alternate while both clocks advance by the pace: the loop
    /// compiles at period 1, but no two consecutive blocks ever prove
    /// a regime.
    fn trading_arrivals() -> impl FnMut(&mut Machine, u64) {
        const PACE: u64 = 10_000;
        let (c0, c1) = (CoreId::new(0), CoreId::new(1));
        let mut at0 = Cycles::new(3_000);
        let mut at1 = Cycles::new(5_000);
        move |m, i| {
            m.wait_until(c0, at0);
            m.wait_until(c1, at1);
            at1 = m.signal(c0, c1, Cycles::new(PACE));
            at0 = m.signal(c1, c0, Cycles::new(PACE));
            let paced = Cycles::new(PACE * (i + 1));
            m.wait_until(c0, paced);
            m.charge(c0, "work", TraceKind::Guest, Cycles::new(1_000));
            m.wait_until(c1, paced);
            m.charge(c1, "work", TraceKind::Guest, Cycles::new(1_000));
        }
    }

    #[test]
    fn loop_replay_that_never_proves_a_regime_stays_exact() {
        let m = replay_vs_interpretation(2, |_| {}, 20_000, trading_arrivals(), trading_arrivals());
        assert!(m.iters_replayed() > 19_000);
        assert_eq!(m.blocks_stepped, m.iters_replayed(), "every block steps");
    }

    #[test]
    fn a_million_iteration_loop_steps_a_handful_of_blocks() {
        let m = replay_vs_interpretation(2, |_| {}, 1_000_000, ping_pong, ping_pong);
        assert!(m.iters_replayed() > 999_000);
        assert!(m.blocks_stepped <= 4, "stepped {}", m.blocks_stepped);
    }

    #[test]
    fn loop_registers_reconstruct_loop_carried_values() {
        // A TCP_RR-style loop carrying the next send instant.
        let run = |use_loop: bool| -> (Machine, Cycles) {
            let mut m = Machine::without_tracing(Topology::split(2, 1));
            let mut t_send = Cycles::ZERO;
            if use_loop {
                m.loop_begin().expect("eligible");
            }
            let iters = 600u64;
            let mut i = 0;
            while i < iters {
                if use_loop {
                    let skipped = m.loop_replay(iters - i);
                    if skipped > 0 {
                        i += skipped;
                        t_send = m.loop_reg(0).expect("reg after replay");
                        continue;
                    }
                    m.loop_iter_begin();
                }
                let arrival = t_send + Cycles::new(2_000);
                m.wait_until(CoreId::new(0), arrival);
                t_send = m.charge(CoreId::new(0), "rr", TraceKind::Guest, Cycles::new(1_234));
                if use_loop {
                    m.loop_set_reg(0, t_send);
                }
                i += 1;
            }
            m.loop_end();
            (m, t_send)
        };
        let (compiled, t_compiled) = run(true);
        let (interpreted, t_interpreted) = run(false);
        assert!(compiled.iters_replayed() > 500);
        assert_eq!(t_compiled, t_interpreted);
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn loop_begin_refuses_profiled_machines() {
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        m.enable_profiling();
        assert_eq!(m.loop_begin(), Err(LoopRefusal::Profiling));
        drive(&mut m, 100, ping_pong);
        assert_eq!(m.iters_replayed(), 0);
    }

    #[test]
    fn ineligible_machines_stay_interpreted() {
        // Tracing on.
        let mut m = Machine::new(Topology::split(2, 1));
        assert_eq!(m.loop_begin(), Err(LoopRefusal::TraceLog));
        // Fault plan installed.
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        m.set_fault_plan(FaultPlan::new(7).with_occurrence(FaultPoint::VirqDrop, 3));
        assert_eq!(m.loop_begin(), Err(LoopRefusal::FaultPlan));
        // Finite watchdog, either limit.
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        m.set_watchdog(Watchdog {
            cycle_budget: Some(u64::MAX - 1),
            livelock_threshold: None,
        });
        assert_eq!(m.loop_begin(), Err(LoopRefusal::Watchdog));
        m.set_watchdog(Watchdog {
            cycle_budget: None,
            livelock_threshold: Some(1 << 20),
        });
        assert_eq!(m.loop_begin(), Err(LoopRefusal::Watchdog));
        // Event tracing on (which turns the trace log on as well).
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        m.enable_event_tracing();
        assert_eq!(m.loop_begin(), Err(LoopRefusal::EventTracing));
        // More cores than a recorded op can name.
        let mut m = Machine::without_tracing(Topology::split(257, 1));
        assert_eq!(m.loop_begin(), Err(LoopRefusal::TooManyCores));
        // A nested session drops the open one.
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        assert_eq!(m.loop_begin(), Ok(()));
        assert_eq!(m.loop_begin(), Err(LoopRefusal::Nested));
        assert!(m.loop_state.is_none());
        assert_eq!(m.loop_begin(), Ok(()));
        // Even with a session refused, the loop still runs correctly.
        let mut refused = Machine::without_tracing(Topology::split(2, 1));
        refused.enable_event_tracing();
        drive(&mut refused, 50, ping_pong);
        assert_eq!(refused.iters_replayed(), 0);
        let mut interpreted = Machine::without_tracing(Topology::split(2, 1));
        interpreted.enable_event_tracing();
        for i in 0..50 {
            ping_pong(&mut interpreted, i);
        }
        assert_eq!(refused.clocks, interpreted.clocks);
    }

    #[test]
    fn config_changes_abort_an_open_session() {
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        assert_eq!(m.loop_begin(), Ok(()));
        m.loop_iter_begin();
        ping_pong(&mut m, 0);
        m.set_watchdog(Watchdog {
            cycle_budget: Some(1 << 60),
            livelock_threshold: None,
        });
        assert!(m.loop_state.is_none());
        // Aborted sessions no-op from then on.
        assert_eq!(m.loop_replay(100), 0);
    }

    #[test]
    fn aperiodic_loops_give_up_and_stay_correct() {
        // Cost grows every iteration: no steady period exists.
        let body = |m: &mut Machine, i: u64| {
            m.charge(
                CoreId::new(0),
                "grow",
                TraceKind::Guest,
                Cycles::new(100 + i),
            );
        };
        let mut compiled = Machine::without_tracing(Topology::split(2, 1));
        let mut interpreted = Machine::without_tracing(Topology::split(2, 1));
        drive(&mut compiled, 200, body);
        for i in 0..200 {
            body(&mut interpreted, i);
        }
        assert_eq!(compiled.iters_replayed(), 0);
        assert!(!compiled.loop_compiled());
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn thread_transitions_counts_interpreted_and_replayed_alike() {
        let before = thread_transitions();
        let replayed_before = thread_replayed_transitions();
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        drive(&mut m, 500, ping_pong);
        let counted = thread_transitions().wrapping_sub(before);
        // Two charges per iteration, whether interpreted or replayed.
        assert_eq!(counted, 1000);
        assert!(m.iters_replayed() > 400);
        // The replayed share is exactly the skipped iterations' charges.
        let replayed = thread_replayed_transitions().wrapping_sub(replayed_before);
        assert_eq!(replayed, 2 * m.iters_replayed());
        // An interpreted run adds to the total only.
        let before = thread_transitions();
        let replayed_before = thread_replayed_transitions();
        let mut m = Machine::without_tracing(Topology::split(2, 1));
        for i in 0..500 {
            ping_pong(&mut m, i);
        }
        assert_eq!(thread_transitions().wrapping_sub(before), 1000);
        assert_eq!(thread_replayed_transitions(), replayed_before);
    }
}
