//! Conservative parallel discrete-event sharding across hosts.
//!
//! A multi-host simulation (a rack of servers exchanging packets) does
//! not need one global [`EventQueue`]: hosts only interact through
//! **wire messages** whose modelled latency is bounded below by the
//! physical link. That bound is exploitable *lookahead* in the
//! classical conservative-PDES sense (Chandy/Misra/Bryant): a host may
//! safely simulate ahead of its neighbors by up to the minimum wire
//! latency, because nothing a neighbor does *now* can affect it sooner
//! than one wire flight from now.
//!
//! [`ShardSim`] implements the bulk-synchronous variant of that
//! algorithm. Each host owns a **shard**: its own model state and its
//! own [`EventQueue`]. Execution proceeds in windows:
//!
//! 1. `window_start` = the minimum next-event instant across all
//!    shards (the global virtual-time floor);
//! 2. `horizon` = `window_start + lookahead` (exclusive);
//! 3. every shard independently drains its local events with
//!    `when < horizon` — including local follow-ups they schedule —
//!    collecting cross-host sends into a per-shard outbox;
//! 4. a single-threaded barrier delivers every outbox in (sender
//!    index, emission order), then the next window begins.
//!
//! Step 3 is safe to run on parallel OS threads because a send's
//! arrival is `depart + latency ≥ window_start + lookahead = horizon`
//! ([`HostCtx::send`] enforces both bounds), so no message can land
//! inside the window that produced it. Step 4 is what makes the
//! parallel execution **byte-identical** to the serial one: delivery
//! order into each destination queue — and therefore the FIFO sequence
//! numbers that break timestamp ties — is a pure function of (sender
//! index, emission order), never of thread completion order. The
//! window statistics are built from the canonical per-host event
//! counts, so they match too. [`ShardSim::run`] and
//! [`ShardSim::run_parallel`] share one function per step; they differ
//! only in whether step 3's loop runs on one thread or many.
//!
//! # Parallel execution
//!
//! [`ShardSim::run_parallel`] opens one [`std::thread::scope`] for the
//! whole run. The shards are split into fixed, contiguous chunks, one
//! per participant: the calling thread owns the first chunk and
//! `workers - 1` spawned threads own the rest until the run ends. No
//! thread is spawned or joined per window. A reusable barrier separates
//! the phases of each window:
//!
//! * the caller closes the previous window (step 4) and opens the next
//!   (steps 1–2) while every worker waits at the barrier;
//! * every participant, the caller included, drains its own chunk
//!   (step 3) and waits until the last one arrives.
//!
//! A window holds microseconds of work, so a waiter first spins for a
//! bounded number of iterations; only a longer wait falls back to
//! yielding the CPU, which lets a straggler run on a host with fewer
//! cores than participants.
//!
//! A panic in a host model on any thread, the caller's included,
//! unwinds out of `run_parallel` with the model's own payload. The
//! unwinding participant poisons the barrier on its way out, so its
//! peers stop waiting for an arrival that will never come instead of
//! hanging.
//!
//! Each worker counts simulated transitions in its own thread-local
//! counter. At the end of the run their counts are credited to the
//! calling thread, so [`thread_transitions`] advances by the same
//! amount as after [`ShardSim::run`].
//!
//! # Example
//!
//! A two-host ping-pong where each hop charges local work:
//!
//! ```
//! use hvx_engine::shard::{HostCtx, HostModel, ShardSim};
//! use hvx_engine::Cycles;
//!
//! struct Host {
//!     clock: Cycles,
//!     served: u64,
//! }
//! impl HostModel for Host {
//!     type Event = u32; // remaining hops
//!     fn handle(&mut self, when: Cycles, hops: u32, ctx: &mut HostCtx<'_, u32>) {
//!         self.clock = self.clock.max(when) + Cycles::new(500); // local work
//!         self.served += 1;
//!         if hops > 0 {
//!             let to = (ctx.host() + 1) % ctx.hosts();
//!             ctx.send(to, self.clock, ctx.lookahead(), hops - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = ShardSim::new(Cycles::new(1_000));
//! sim.add_host(Host { clock: Cycles::ZERO, served: 0 });
//! sim.add_host(Host { clock: Cycles::ZERO, served: 0 });
//! sim.schedule(0, Cycles::ZERO, 3);
//! let stats = sim.run();
//! assert_eq!(stats.events, 4);
//! assert_eq!(sim.host(0).served + sim.host(1).served, 4);
//! ```

use crate::machine::{credit_thread_transitions, thread_transitions};
use crate::{Cycles, EventQueue};
use hvx_obs::HistogramSketch;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Per-host behaviour plugged into a [`ShardSim`].
///
/// The model owns all host-local state (clocks, counters, a whole
/// [`Machine`](crate::Machine)); the executor owns the calendar. One
/// event is handled at a time per host, in nondecreasing timestamp
/// order, FIFO among equal instants.
pub trait HostModel {
    /// The event payload exchanged on this host's calendar and wires.
    type Event;

    /// Handles one due event. `when` is the event's scheduled instant
    /// (the host's local virtual time never runs backwards across
    /// calls). Local follow-ups and cross-host sends go through `ctx`.
    fn handle(&mut self, when: Cycles, event: Self::Event, ctx: &mut HostCtx<'_, Self::Event>);
}

/// A cross-host message with its precomputed arrival instant.
#[derive(Debug)]
struct Outgoing<E> {
    to: usize,
    arrival: Cycles,
    payload: E,
}

/// The scheduling surface a [`HostModel`] sees while handling an event.
#[derive(Debug)]
pub struct HostCtx<'a, E> {
    now: Cycles,
    host: usize,
    hosts: usize,
    lookahead: Cycles,
    local: &'a mut Vec<(Cycles, E)>,
    sends: &'a mut Vec<Outgoing<E>>,
}

impl<E> HostCtx<'_, E> {
    /// The instant of the event being handled.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// This host's index.
    #[inline]
    pub fn host(&self) -> usize {
        self.host
    }

    /// Total hosts in the simulation.
    #[inline]
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The executor's lookahead bound — the minimum legal wire latency.
    #[inline]
    pub fn lookahead(&self) -> Cycles {
        self.lookahead
    }

    /// Schedules a host-local follow-up at `when`.
    ///
    /// # Panics
    ///
    /// Panics if `when` precedes the event being handled — a local
    /// event in the past would have to run in an already-closed window.
    pub fn schedule_local(&mut self, when: Cycles, event: E) {
        assert!(
            when >= self.now,
            "local event at {when} precedes the current instant {}",
            self.now
        );
        self.local.push((when, event));
    }

    /// Sends a wire message to host `to`, departing at `depart` (the
    /// sender-side instant the packet leaves, typically the sending
    /// core's clock) and arriving `latency` later.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range, if `depart` precedes the event
    /// being handled, or if `latency < lookahead` — a wire faster than
    /// the lookahead bound would break the conservatism argument (its
    /// arrival could land inside the current window on another thread).
    pub fn send(&mut self, to: usize, depart: Cycles, latency: Cycles, payload: E) {
        assert!(to < self.hosts, "host {to} out of range ({})", self.hosts);
        assert!(
            depart >= self.now,
            "departure {depart} precedes the current instant {}",
            self.now
        );
        assert!(
            latency >= self.lookahead,
            "wire latency {latency} below the lookahead bound {}",
            self.lookahead
        );
        self.sends.push(Outgoing {
            to,
            arrival: depart + latency,
            payload,
        });
    }
}

/// One host's shard: its model, its private calendar, and the buffers
/// a window's drain fills, kept and reused from window to window.
struct Shard<M: HostModel> {
    model: M,
    queue: EventQueue<M::Event>,
    /// Cross-host sends of the window being drained, in emission order.
    outbox: Vec<Outgoing<M::Event>>,
    /// Local follow-ups of the event being handled, in emission order.
    local: Vec<(Cycles, M::Event)>,
    /// Events handled in the window last drained.
    drained: u64,
}

impl<M: HostModel> std::fmt::Debug for Shard<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("pending", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// Execution counters and per-window telemetry of one [`ShardSim`]
/// run.
///
/// The histograms make `run_parallel` speedup regressions diagnosable:
/// small [`ShardStats::window_events`] values mean windows are too
/// narrow to amortize the barrier, and a wide
/// [`ShardStats::host_imbalance`] spread means one host serializes each
/// window while the others idle. Both are computed from the canonical
/// per-window per-host event counts, so serial and parallel runs
/// produce byte-identical stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Events handled across all hosts.
    pub events: u64,
    /// Cross-host wire messages delivered at window barriers.
    pub wires: u64,
    /// Host-windows in which a shard held pending events but none below
    /// the horizon: the host woke at the barrier only to find its next
    /// event beyond the lookahead bound.
    pub lookahead_stalls: u64,
    /// Distribution of events handled per window (all hosts summed).
    pub window_events: HistogramSketch,
    /// Distribution of the per-window event spread across hosts
    /// (`max(per-host events) - min(per-host events)`).
    pub host_imbalance: HistogramSketch,
}

impl ShardStats {
    /// Folds one completed window into the stats: `per_host` yields
    /// the events each host drained this window, in host-index order.
    /// Both executors call this with identical inputs — the counts are
    /// a pure function of the window, never of thread scheduling.
    fn record_window(&mut self, per_host: impl Iterator<Item = u64>) {
        let (mut total, mut max, mut min) = (0, 0, u64::MAX);
        for events in per_host {
            total += events;
            max = max.max(events);
            min = min.min(events);
        }
        self.windows += 1;
        self.events += total;
        self.window_events.record(total);
        self.host_imbalance.record(max.saturating_sub(min));
    }
}

/// A conservative, windowed multi-host discrete-event executor. See
/// the [module docs](self) for the algorithm and determinism argument.
pub struct ShardSim<M: HostModel> {
    shards: Vec<Shard<M>>,
    lookahead: Cycles,
}

impl<M: HostModel> std::fmt::Debug for ShardSim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSim")
            .field("hosts", &self.shards.len())
            .field("lookahead", &self.lookahead)
            .finish_non_exhaustive()
    }
}

impl<M: HostModel> ShardSim<M> {
    /// Creates an executor with the given lookahead bound: the minimum
    /// wire latency any host may use, and therefore how far a host may
    /// run ahead of the global virtual-time floor.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero — windows would never admit any
    /// event and the simulation could not advance.
    pub fn new(lookahead: Cycles) -> Self {
        assert!(!lookahead.is_zero(), "lookahead must be positive");
        ShardSim {
            shards: Vec::new(),
            lookahead,
        }
    }

    /// Adds a host and returns its index.
    pub fn add_host(&mut self, model: M) -> usize {
        self.shards.push(Shard {
            model,
            queue: EventQueue::new(),
            outbox: Vec::new(),
            local: Vec::new(),
            drained: 0,
        });
        self.shards.len() - 1
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.shards.len()
    }

    /// The lookahead bound this executor was built with.
    pub fn lookahead(&self) -> Cycles {
        self.lookahead
    }

    /// Seeds an event on `host`'s calendar before (or between) runs.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn schedule(&mut self, host: usize, when: Cycles, event: M::Event) {
        self.shards[host].queue.schedule(when, event);
    }

    /// Shared access to a host's model.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn host(&self, host: usize) -> &M {
        &self.shards[host].model
    }

    /// Consumes the executor, returning every host model in index
    /// order.
    pub fn into_models(self) -> Vec<M> {
        self.shards.into_iter().map(|s| s.model).collect()
    }

    /// Runs to completion on the calling thread — the serial reference
    /// execution. Uses the exact window/delivery steps of
    /// [`ShardSim::run_parallel`], so both produce identical state.
    pub fn run(&mut self) -> ShardStats {
        let (hosts, lookahead) = (self.shards.len(), self.lookahead);
        let mut chunk = Chunk {
            first: 0,
            shards: &mut self.shards,
            horizon: None,
        };
        let mut all = [&mut chunk];
        let mut stats = ShardStats::default();
        while let Some(horizon) = open_window(&all, lookahead, &mut stats) {
            for (host, shard) in all[0].shards.iter_mut().enumerate() {
                drain_window(shard, host, hosts, horizon, lookahead);
            }
            close_window(&mut all, &mut stats);
        }
        stats
    }

    /// Runs to completion on up to `jobs` threads: the calling thread
    /// plus `workers - 1` spawned ones, each owning a fixed chunk of
    /// shards for the whole run (see the [module docs](self)). Every
    /// shard is drained by exactly one thread, and delivery runs on the
    /// calling thread in sender order, so the final state and stats are
    /// byte-identical to [`ShardSim::run`]. The workers' simulated
    /// transitions are credited to the calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of a host model, whichever thread it
    /// happened on, after every worker has stopped.
    pub fn run_parallel(&mut self, jobs: usize) -> ShardStats
    where
        M: Send,
        M::Event: Send,
    {
        let (hosts, lookahead) = (self.shards.len(), self.lookahead);
        let workers = jobs.min(hosts).max(1);
        if workers <= 1 {
            return self.run();
        }
        let size = hosts.div_ceil(workers);
        let chunks: Vec<Mutex<Chunk<'_, M>>> = self
            .shards
            .chunks_mut(size)
            .enumerate()
            .map(|(i, shards)| {
                Mutex::new(Chunk {
                    first: i * size,
                    shards,
                    horizon: None,
                })
            })
            .collect();
        let barrier = WindowBarrier::new(chunks.len());
        let mut stats = ShardStats::default();
        std::thread::scope(|scope| {
            // Armed before the first spawn, so a failed spawn releases
            // the workers already waiting, too.
            let _poison = PoisonOnUnwind(&barrier);
            let crew: Vec<_> = chunks[1..]
                .iter()
                .map(|chunk| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let _poison = PoisonOnUnwind(barrier);
                        let before = thread_transitions();
                        while let Ok(true) = take_turn(chunk, barrier, hosts, lookahead) {}
                        thread_transitions().wrapping_sub(before)
                    })
                })
                .collect();
            let led = lead(&chunks, &barrier, hosts, lookahead, &mut stats);
            let mut panicked = None;
            for worker in crew {
                match worker.join() {
                    Ok(transitions) => credit_thread_transitions(transitions),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            led.expect("only an unwinding thread poisons the barrier");
        });
        stats
    }
}

/// Steps 1–2 over every shard, in host order: returns the next
/// window's horizon, or `None` once every calendar is empty. Also
/// counts the hosts that stall in it — calendar non-empty but nothing
/// below the horizon. Evaluated before any drain, so both executors
/// count identically. `chunks` hold every shard, in host order: the
/// serial executor's one chunk or the parallel one's locked chunks.
fn open_window<'a, M: HostModel + 'a, C: Deref<Target = Chunk<'a, M>>>(
    chunks: &[C],
    lookahead: Cycles,
    stats: &mut ShardStats,
) -> Option<Cycles> {
    let shards = || chunks.iter().flat_map(|c| c.shards.iter());
    let start = shards().filter_map(|s| s.queue.peek_when()).min()?;
    let horizon = start + lookahead;
    stats.lookahead_stalls += shards()
        .filter(|s| s.queue.peek_when().is_some_and(|w| w >= horizon))
        .count() as u64;
    Some(horizon)
}

/// Step 3 for one shard: drain every local event below `horizon`
/// (follow-ups included) into the shard's outbox. Shared by the serial
/// and parallel executors — this function *is* the semantics.
fn drain_window<M: HostModel>(
    shard: &mut Shard<M>,
    host: usize,
    hosts: usize,
    horizon: Cycles,
    lookahead: Cycles,
) {
    let Shard {
        model,
        queue,
        outbox,
        local,
        drained,
    } = shard;
    let mut events = 0;
    while queue.peek_when().is_some_and(|when| when < horizon) {
        let (when, event) = queue.pop().expect("peeked event exists");
        events += 1;
        let mut ctx = HostCtx {
            now: when,
            host,
            hosts,
            lookahead,
            local,
            sends: outbox,
        };
        model.handle(when, event, &mut ctx);
        // Emission order feeds the queue's FIFO sequence numbers, so
        // follow-ups among equal instants replay in the order the
        // model produced them.
        for (at, ev) in local.drain(..) {
            queue.schedule(at, ev);
        }
    }
    *drained = events;
}

/// Step 4, on one thread: records the window just drained, then
/// delivers every outbox in sender-index order, each in emission
/// order, so the insertion sequence into every destination queue — and
/// with it the FIFO tie-break among equal arrival instants — is
/// canonical. `chunks` are as for [`open_window`].
fn close_window<'a, M: HostModel + 'a, C: DerefMut<Target = Chunk<'a, M>>>(
    chunks: &mut [C],
    stats: &mut ShardStats,
) {
    stats.record_window(
        chunks
            .iter()
            .flat_map(|c| c.shards.iter())
            .map(|s| s.drained),
    );
    let hosts = chunks.iter().map(|c| c.shards.len()).sum();
    for from in 0..hosts {
        let mut outbox = std::mem::take(&mut shard_mut(chunks, from).outbox);
        stats.wires += outbox.len() as u64;
        for wire in outbox.drain(..) {
            shard_mut(chunks, wire.to)
                .queue
                .schedule(wire.arrival, wire.payload);
        }
        shard_mut(chunks, from).outbox = outbox;
    }
}

/// Host `host`'s shard among `chunks`, which all hold as many shards as
/// the first except perhaps the last.
fn shard_mut<'s, 'a: 's, M: HostModel + 'a, C: DerefMut<Target = Chunk<'a, M>>>(
    chunks: &'s mut [C],
    host: usize,
) -> &'s mut Shard<M> {
    let size = chunks[0].shards.len();
    &mut chunks[host / size].shards[host % size]
}

/// One participant's fixed share of a parallel run: a contiguous run
/// of shards starting at host `first`, and the horizon of the window
/// to drain next (`None` once the run is over). It sits behind a mutex
/// only so the caller can reach every shard between windows; the
/// barrier orders every lock, so none is ever contended. The serial
/// executor runs all shards as one chunk.
struct Chunk<'a, M: HostModel> {
    first: usize,
    shards: &'a mut [Shard<M>],
    horizon: Option<Cycles>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock means its holder panicked mid-drain; that panic
    // is re-raised by `run_parallel`, and the barrier keeps everyone
    // else from touching the chunk again.
    mutex.lock().expect("shard chunk lock poisoned")
}

/// The calling thread's part in a parallel run: the serial steps
/// between windows, and its own chunk's turn in each.
fn lead<M: HostModel>(
    chunks: &[Mutex<Chunk<'_, M>>],
    barrier: &WindowBarrier,
    hosts: usize,
    lookahead: Cycles,
    stats: &mut ShardStats,
) -> Result<(), Poisoned> {
    // Every chunk's lock, held between windows: one buffer for the run.
    let mut guards = Vec::with_capacity(chunks.len());
    between_windows(chunks, &mut guards, lookahead, stats, false);
    while take_turn(&chunks[0], barrier, hosts, lookahead)? {
        between_windows(chunks, &mut guards, lookahead, stats, true);
    }
    Ok(())
}

/// The serial section between windows, run by the caller while every
/// worker waits at the barrier: locks every chunk into `guards`, closes
/// the window just drained (step 4, when `close`), opens the next one
/// (steps 1–2) on every chunk, and unlocks them all again.
fn between_windows<'c, 'a, M: HostModel>(
    chunks: &'c [Mutex<Chunk<'a, M>>],
    guards: &mut Vec<MutexGuard<'c, Chunk<'a, M>>>,
    lookahead: Cycles,
    stats: &mut ShardStats,
    close: bool,
) {
    guards.extend(chunks.iter().map(lock));
    if close {
        close_window(guards, stats);
    }
    let horizon = open_window(guards, lookahead, stats);
    for chunk in guards.iter_mut() {
        chunk.horizon = horizon;
    }
    guards.clear();
}

/// One participant's turn in a window: wait for the caller to open it,
/// drain the chunk (step 3), and wait for every other chunk to finish.
/// Returns `Ok(false)` once the run is over.
fn take_turn<M: HostModel>(
    chunk: &Mutex<Chunk<'_, M>>,
    barrier: &WindowBarrier,
    hosts: usize,
    lookahead: Cycles,
) -> Result<bool, Poisoned> {
    barrier.wait()?;
    {
        let mut chunk = lock(chunk);
        let Some(horizon) = chunk.horizon else {
            return Ok(false);
        };
        let first = chunk.first;
        for (i, shard) in chunk.shards.iter_mut().enumerate() {
            drain_window(shard, first + i, hosts, horizon, lookahead);
        }
    }
    barrier.wait()?;
    Ok(true)
}

/// Iterations a waiter spins at the barrier before it starts yielding
/// the CPU. A window's work is a few microseconds, so most waits end
/// inside the spin; on a host with fewer cores than participants the
/// yield lets the straggler run.
const SPIN_LIMIT: u32 = 1 << 10;

/// A peer unwound while this participant waited: the run is over, and
/// the peer's panic is the one to report.
#[derive(Debug)]
struct Poisoned;

/// The reusable barrier between window phases: the last of `parties`
/// arrivals resets the count and bumps the generation every waiter
/// watches. Waiters spin up to [`SPIN_LIMIT`] times, then yield.
struct WindowBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl WindowBarrier {
    fn new(parties: usize) -> WindowBarrier {
        WindowBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until every party has arrived, or fails once a party has
    /// unwound instead of arriving.
    ///
    /// Ordering: each arrival's `AcqRel` add releases its writes, and
    /// the last arrival's add acquires them all; its `Release` store
    /// of the new generation then publishes them, and the count reset,
    /// to every waiter's `Acquire` load.
    fn wait(&self) -> Result<(), Poisoned> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return Ok(());
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(Poisoned);
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Ok(())
    }
}

/// Poisons the barrier if its holder unwinds, so no peer waits for a
/// participant that will never arrive.
struct PoisonOnUnwind<'a>(&'a WindowBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host that logs every event it sees and forwards tokens around
    /// the ring with per-host work.
    struct Ring {
        work: Cycles,
        log: Vec<(u64, u32)>,
        clock: Cycles,
    }

    impl HostModel for Ring {
        type Event = u32; // remaining hops

        fn handle(&mut self, when: Cycles, hops: u32, ctx: &mut HostCtx<'_, u32>) {
            self.clock = self.clock.max(when) + self.work;
            self.log.push((when.as_u64(), hops));
            if hops > 0 {
                let to = (ctx.host() + 1) % ctx.hosts();
                ctx.send(to, self.clock, ctx.lookahead(), hops - 1);
            }
        }
    }

    fn ring_sim(hosts: usize, work: u64) -> ShardSim<Ring> {
        let mut sim = ShardSim::new(Cycles::new(1_000));
        for _ in 0..hosts {
            sim.add_host(Ring {
                work: Cycles::new(work),
                log: Vec::new(),
                clock: Cycles::ZERO,
            });
        }
        sim
    }

    fn seed(sim: &mut ShardSim<Ring>, tokens: u32, hops: u32) {
        for t in 0..tokens {
            sim.schedule(
                t as usize % sim.hosts(),
                Cycles::new(u64::from(t) * 10),
                hops,
            );
        }
    }

    fn final_state(sim: ShardSim<Ring>) -> Vec<(u64, Vec<(u64, u32)>)> {
        sim.into_models()
            .into_iter()
            .map(|h| (h.clock.as_u64(), h.log))
            .collect()
    }

    #[test]
    fn serial_and_parallel_runs_are_identical() {
        for hosts in [1, 2, 3, 8] {
            for jobs in [2, 4, 16] {
                let mut a = ring_sim(hosts, 700);
                seed(&mut a, 6, 9);
                let sa = a.run();

                let mut b = ring_sim(hosts, 700);
                seed(&mut b, 6, 9);
                let sb = b.run_parallel(jobs);

                assert_eq!(sa, sb, "stats diverged at hosts={hosts} jobs={jobs}");
                assert_eq!(
                    final_state(a),
                    final_state(b),
                    "state diverged at hosts={hosts} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn ring_token_visits_every_host_in_order() {
        let mut sim = ring_sim(3, 500);
        sim.schedule(0, Cycles::ZERO, 5);
        let stats = sim.run();
        assert_eq!(stats.events, 6);
        assert_eq!(stats.wires, 5);
        let models = sim.into_models();
        // 6 hops over 3 hosts: hosts 0,1,2 each see 2 events.
        assert_eq!(models.iter().map(|m| m.log.len()).sum::<usize>(), 6);
        for m in &models {
            assert_eq!(m.log.len(), 2);
        }
    }

    #[test]
    fn equal_instant_wires_deliver_in_sender_order() {
        /// Every host sends to host 0 at the same departure instant;
        /// host 0 records arrival order.
        struct Fanin {
            received: Vec<u32>,
        }
        impl HostModel for Fanin {
            type Event = u32;
            fn handle(&mut self, _when: Cycles, ev: u32, ctx: &mut HostCtx<'_, u32>) {
                if ev == 0 {
                    // Kick event: send tagged messages to host 0.
                    let tag = ctx.host() as u32 + 100;
                    ctx.send(0, ctx.now(), ctx.lookahead(), tag);
                } else {
                    self.received.push(ev);
                }
            }
        }
        let run = |parallel: bool| {
            let mut sim = ShardSim::new(Cycles::new(1_000));
            for _ in 0..4 {
                sim.add_host(Fanin {
                    received: Vec::new(),
                });
            }
            for h in 0..4 {
                sim.schedule(h, Cycles::new(50), 0);
            }
            if parallel {
                sim.run_parallel(4);
            } else {
                sim.run();
            }
            sim.into_models().remove(0).received
        };
        // Identical departure + identical latency → identical arrival;
        // the FIFO tie-break must be sender order in both modes.
        assert_eq!(run(false), vec![100, 101, 102, 103]);
        assert_eq!(run(true), vec![100, 101, 102, 103]);
    }

    #[test]
    fn hosts_one_degenerates_to_a_plain_event_loop() {
        let mut sim = ring_sim(1, 300);
        sim.schedule(0, Cycles::ZERO, 4);
        let stats = sim.run();
        assert_eq!(stats.events, 5);
        // Self-sends still ride the barrier.
        assert_eq!(stats.wires, 4);
    }

    #[test]
    #[should_panic(expected = "below the lookahead bound")]
    fn undercutting_the_lookahead_panics() {
        struct Fast;
        impl HostModel for Fast {
            type Event = ();
            fn handle(&mut self, _: Cycles, (): (), ctx: &mut HostCtx<'_, ()>) {
                ctx.send(0, ctx.now(), Cycles::new(1), ());
            }
        }
        let mut sim = ShardSim::new(Cycles::new(1_000));
        sim.add_host(Fast);
        sim.schedule(0, Cycles::ZERO, ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardSim::<Ring>::new(Cycles::ZERO);
    }

    #[test]
    fn local_followups_run_inside_the_window() {
        /// Each event schedules a local follow-up just after itself;
        /// the chain must drain without extra windows.
        struct Chain {
            seen: u64,
        }
        impl HostModel for Chain {
            type Event = u32;
            fn handle(&mut self, when: Cycles, left: u32, ctx: &mut HostCtx<'_, u32>) {
                self.seen += 1;
                if left > 0 {
                    ctx.schedule_local(when + Cycles::new(1), left - 1);
                }
            }
        }
        let mut sim = ShardSim::new(Cycles::new(1_000_000));
        sim.add_host(Chain { seen: 0 });
        sim.schedule(0, Cycles::ZERO, 9);
        let stats = sim.run();
        assert_eq!(stats.windows, 1, "a wide window drains the whole chain");
        assert_eq!(sim.host(0).seen, 10);
    }

    #[test]
    fn window_telemetry_counts_stalls_and_imbalance() {
        // A 3-host ring passing one token: every window drains exactly
        // one event on one host while the other two hosts stall (their
        // calendars hold nothing, so they are idle, not stalled — a
        // stall requires a *pending* event beyond the horizon).
        let mut sim = ring_sim(3, 500);
        sim.schedule(0, Cycles::ZERO, 5);
        let stats = sim.run();
        assert_eq!(stats.window_events.count(), stats.windows);
        assert_eq!(stats.window_events.sum(), stats.events);
        // One event per window, on exactly one host: spread is 1.
        assert_eq!(stats.host_imbalance.max(), Some(1));
        assert_eq!(stats.lookahead_stalls, 0, "empty calendars never stall");

        // Two tokens far apart in time on one host: the second token
        // is pending-but-beyond-horizon while the first drains.
        let mut sim = ring_sim(2, 500);
        sim.schedule(0, Cycles::ZERO, 1);
        sim.schedule(0, Cycles::new(1_000_000), 1);
        let stats = sim.run();
        assert!(stats.lookahead_stalls > 0, "distant event must stall");

        // The telemetry is byte-identical across executors.
        let mut a = ring_sim(8, 700);
        seed(&mut a, 6, 9);
        let mut b = ring_sim(8, 700);
        seed(&mut b, 6, 9);
        assert_eq!(a.run(), b.run_parallel(4));
    }

    /// A ring host that fails, mid-run, on the tenth hop it handles
    /// when it is host `failing`.
    struct Failing {
        failing: usize,
    }

    impl HostModel for Failing {
        type Event = u32; // remaining hops

        fn handle(&mut self, when: Cycles, hops: u32, ctx: &mut HostCtx<'_, u32>) {
            assert!(
                ctx.host() != self.failing || hops > 10,
                "host {} failed",
                ctx.host()
            );
            if hops > 0 {
                let to = (ctx.host() + 1) % ctx.hosts();
                ctx.send(to, when, ctx.lookahead(), hops - 1);
            }
        }
    }

    /// Eight hosts over four participants: chunks of two, so host 0
    /// belongs to the calling thread and host 7 to the last spawned
    /// worker.
    fn run_failing(failing: usize) {
        let mut sim = ShardSim::new(Cycles::new(1_000));
        for _ in 0..8 {
            sim.add_host(Failing { failing });
        }
        for host in 0..8 {
            sim.schedule(host, Cycles::ZERO, 20);
        }
        sim.run_parallel(4);
    }

    #[test]
    #[should_panic(expected = "host 7 failed")]
    fn a_panic_in_a_workers_chunk_surfaces_instead_of_hanging() {
        run_failing(7);
    }

    #[test]
    #[should_panic(expected = "host 0 failed")]
    fn a_panic_in_the_callers_chunk_surfaces_instead_of_hanging() {
        run_failing(0);
    }
}
