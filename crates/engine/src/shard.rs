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
//!    shards and all wires in flight (the global virtual-time floor);
//! 2. `horizon` = `window_start + lookahead` (exclusive);
//! 3. every shard independently drains its local events with
//!    `when < horizon` — including local follow-ups they schedule —
//!    collecting its cross-host sends in emission order;
//! 4. every destination calendar receives the window's wires in
//!    (sender index, emission order), then the next window begins.
//!
//! Step 3 is safe to run on parallel OS threads because a send's
//! arrival is `depart + latency ≥ window_start + lookahead = horizon`
//! ([`HostCtx::send`] enforces both bounds), so no message can land
//! inside the window that produced it. Step 4 is what makes the
//! parallel execution **byte-identical** to the serial one: delivery
//! order into each destination queue — and therefore the FIFO sequence
//! numbers that break timestamp ties — is a pure function of (sender
//! index, emission order), never of thread completion order. Each
//! calendar is fed by the one participant that owns it, which takes
//! its mail from every sender participant in participant order; chunks
//! are contiguous and ascending, so that is sender host order. The
//! window statistics are folded from sums, maxima and minima of the
//! per-host event counts, so how the hosts are split cannot show in
//! them either.
//!
//! # Parallel execution
//!
//! [`ShardSim::run`] and [`ShardSim::run_parallel`] run one participant
//! loop: `run` with one participant that owns every shard,
//! `run_parallel` with `min(jobs, hosts)` of them. The shards are split
//! into fixed, contiguous chunks whose lengths differ by at most one;
//! each participant owns its chunk by `&mut` until the run ends. The
//! calling thread is participant 0, and `run_parallel` opens one
//! [`std::thread::scope`] and spawns the others once, so no thread is
//! spawned or joined per window. In each window, every participant:
//!
//! * drains its own chunk (step 3);
//! * routes the chunk's wires into a mailbox per receiving
//!   participant, in host order, then emission order;
//! * publishes its floor — the earliest of its shards' next events and
//!   of the arrivals it sent — and the window's per-host event sum,
//!   maximum and minimum;
//! * crosses the window's one barrier;
//! * computes the next horizon from every floor, as every peer does,
//!   delivers its own inbound mail in sender order (step 4), and counts
//!   its own lookahead stalls.
//!
//! Participant 0 also folds every summary into the [`ShardStats`].
//! Floors, summaries and mailboxes are kept twice and indexed by the
//! window's parity, so a participant can fill the next window's while
//! a slower peer still reads the last one's; the one barrier in between
//! keeps them two windows apart. No step runs on one thread while the
//! others wait, and a run allocates nothing per window once its buffers
//! have grown.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// One host's shard: its model and its private calendar.
struct Shard<M: HostModel> {
    model: M,
    queue: EventQueue<M::Event>,
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
    /// Folds one completed window into the stats from every
    /// participant's summary of it. The summaries are sums, maxima and
    /// minima of per-host counts, so how the hosts were split between
    /// participants cannot show in the result.
    fn record_window(&mut self, summaries: &[Slot]) {
        let (mut total, mut max, mut min) = (0, 0, u64::MAX);
        for slot in summaries {
            total += slot.events.load(Ordering::Relaxed);
            max = max.max(slot.max.load(Ordering::Relaxed));
            min = min.min(slot.min.load(Ordering::Relaxed));
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
    /// execution: the participant loop of [`ShardSim::run_parallel`]
    /// with one participant owning every shard.
    pub fn run(&mut self) -> ShardStats {
        let exchange = Exchange::new(self.shards.len(), 1, self.lookahead);
        let horizon = first_horizon(&self.shards, self.lookahead);
        let mut stats = ShardStats::default();
        let mut lone = Participant::new(0, 0, &mut self.shards);
        lone.run(&exchange, horizon, Some(&mut stats))
            .expect("a lone participant has no peer to poison the barrier");
        lone.tally(&mut stats);
        stats
    }

    /// Runs to completion on `min(jobs, hosts)` threads: the calling
    /// thread plus spawned ones, each owning a fixed, contiguous chunk
    /// of shards for the whole run (see the [module docs](self)). Every
    /// shard is drained by exactly one thread, and every calendar
    /// receives its wires in sender order, so the final state and stats
    /// are byte-identical to [`ShardSim::run`]. The workers' simulated
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
        let hosts = self.shards.len();
        let parties = jobs.min(hosts);
        if parties <= 1 {
            return self.run();
        }
        let exchange = Exchange::new(hosts, parties, self.lookahead);
        let horizon = first_horizon(&self.shards, self.lookahead);
        let mut stats = ShardStats::default();
        let mut participants = Vec::with_capacity(parties);
        let mut rest = &mut self.shards[..];
        for me in 0..parties {
            let first = hosts - rest.len();
            let (chunk, tail) = rest.split_at_mut(exchange.chunk_len(me));
            participants.push(Participant::new(me, first, chunk));
            rest = tail;
        }
        let mut participants = participants.into_iter();
        let mut lead = participants.next().expect("parties >= 2");
        std::thread::scope(|scope| {
            // Armed before the first spawn, so a failed spawn releases
            // the workers already waiting, too.
            let _poison = PoisonOnUnwind(&exchange.barrier);
            let workers: Vec<_> = participants
                .map(|mut part| {
                    let exchange = &exchange;
                    scope.spawn(move || {
                        let _poison = PoisonOnUnwind(&exchange.barrier);
                        let before = thread_transitions();
                        part.run(exchange, horizon, None).ok()?;
                        Some((part, thread_transitions().wrapping_sub(before)))
                    })
                })
                .collect();
            let led = lead.run(&exchange, horizon, Some(&mut stats));
            let mut panicked = None;
            for worker in workers {
                match worker.join() {
                    Ok(Some((part, transitions))) => {
                        credit_thread_transitions(transitions);
                        part.tally(&mut stats);
                    }
                    Ok(None) => {}
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
        lead.tally(&mut stats);
        stats
    }
}

/// The first window's horizon: the earliest seeded event across every
/// shard plus the lookahead, or `None` when every calendar is empty.
fn first_horizon<M: HostModel>(shards: &[Shard<M>], lookahead: Cycles) -> Option<Cycles> {
    let start = shards.iter().filter_map(|s| s.queue.peek_when()).min()?;
    Some(start + lookahead)
}

/// Floor value of a participant with nothing pending anywhere. An
/// event at `Cycles::MAX` could open no window anyway: its horizon
/// would overflow.
const IDLE: u64 = u64::MAX;

/// One participant's report of a window, published before the barrier
/// into the slot of that window's parity: its floor (the earliest of
/// its shards' next events and of the arrivals it sent, [`IDLE`] if
/// none) and the sum, maximum and minimum of its hosts' event counts.
/// The barrier orders the relaxed stores before every peer's relaxed
/// loads; the next store into the same slot comes two windows later,
/// after every peer has crossed the barrier in between.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    floor: AtomicU64,
    events: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

/// What the participants of one run share: the barrier, two windows'
/// worth of [`Slot`]s, and two windows' worth of mailboxes, all indexed
/// by window parity so that a participant can fill the next window's
/// while a slower peer still reads the last one's.
struct Exchange<E> {
    barrier: WindowBarrier,
    parties: usize,
    lookahead: Cycles,
    hosts: usize,
    /// The participant owning each host.
    owner: Vec<usize>,
    /// `[parity][participant]`.
    slots: Vec<Slot>,
    /// `[parity][from][to]`: the wires participant `from` sent in a
    /// window of that parity to hosts that participant `to` owns, in
    /// sender host order, then emission order. Each is written by its
    /// sender before the barrier and emptied by its receiver after it,
    /// so its lock is never contended.
    mail: Vec<Mutex<Vec<Outgoing<E>>>>,
}

impl<E> Exchange<E> {
    /// The exchange of a run splitting `hosts` into `parties` contiguous
    /// chunks whose lengths differ by at most one, longer chunks first.
    fn new(hosts: usize, parties: usize, lookahead: Cycles) -> Exchange<E> {
        let mut exchange = Exchange {
            barrier: WindowBarrier::new(parties),
            parties,
            lookahead,
            hosts,
            owner: Vec::with_capacity(hosts),
            slots: (0..2 * parties).map(|_| Slot::default()).collect(),
            mail: (0..2 * parties * parties)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        };
        for me in 0..parties {
            let len = exchange.chunk_len(me);
            exchange.owner.extend(std::iter::repeat_n(me, len));
        }
        exchange
    }

    /// Hosts owned by participant `me`.
    fn chunk_len(&self, me: usize) -> usize {
        self.hosts / self.parties + usize::from(me < self.hosts % self.parties)
    }

    /// Every participant's slot for windows of `parity`.
    fn slots(&self, parity: usize) -> &[Slot] {
        &self.slots[parity * self.parties..][..self.parties]
    }

    /// Participant `from`'s mailboxes for windows of `parity`, one per
    /// receiving participant.
    fn outgoing(&self, parity: usize, from: usize) -> &[Mutex<Vec<Outgoing<E>>>] {
        &self.mail[(parity * self.parties + from) * self.parties..][..self.parties]
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned mailbox means its holder panicked while routing; that
    // panic is re-raised by `run_parallel`, and the poisoned barrier
    // keeps everyone else from reaching the mailbox again.
    mutex.lock().expect("shard mailbox lock poisoned")
}

/// One participant of a run: a contiguous chunk of shards starting at
/// host `first`, owned by `&mut` until the run ends, and the buffers
/// its drains share.
struct Participant<'a, M: HostModel> {
    me: usize,
    first: usize,
    shards: &'a mut [Shard<M>],
    /// The chunk's wires of the window being drained, in host order,
    /// then emission order.
    outbox: Vec<Outgoing<M::Event>>,
    /// Local follow-ups of the event being handled, in emission order.
    local: Vec<(Cycles, M::Event)>,
    /// Stalls counted on this chunk's shards (see
    /// [`ShardStats::lookahead_stalls`]).
    stalls: u64,
    /// Wires this chunk sent.
    wires: u64,
}

impl<'a, M: HostModel> Participant<'a, M> {
    fn new(me: usize, first: usize, shards: &'a mut [Shard<M>]) -> Self {
        Participant {
            me,
            first,
            shards,
            outbox: Vec::new(),
            local: Vec::new(),
            stalls: 0,
            wires: 0,
        }
    }

    /// The participant loop, from the window `horizon` opens until no
    /// event is left anywhere. Each window it counts its own stalls,
    /// drains its chunk, routes the chunk's wires into mailboxes,
    /// publishes its floor and summary, and crosses the barrier once;
    /// then it derives the next horizon from every floor, as every peer
    /// does, and delivers its own inbound mail in sender order. `stats`
    /// is participant 0's: it folds every summary into the run's
    /// window telemetry.
    fn run(
        &mut self,
        exchange: &Exchange<M::Event>,
        mut horizon: Option<Cycles>,
        mut stats: Option<&mut ShardStats>,
    ) -> Result<(), Poisoned> {
        let mut routes = Vec::with_capacity(exchange.parties);
        let mut parity = 0;
        while let Some(end) = horizon {
            self.stalls += self
                .shards
                .iter()
                .filter(|s| s.queue.peek_when().is_some_and(|w| w >= end))
                .count() as u64;
            let slot = &exchange.slots(parity)[self.me];
            self.drain(exchange, end, slot);

            let mut floor = self.floor();
            self.wires += self.outbox.len() as u64;
            routes.extend(exchange.outgoing(parity, self.me).iter().map(lock));
            for wire in self.outbox.drain(..) {
                floor = floor.min(wire.arrival.as_u64());
                routes[exchange.owner[wire.to]].push(wire);
            }
            routes.clear();
            slot.floor.store(floor, Ordering::Relaxed);

            exchange.barrier.wait()?;

            let slots = exchange.slots(parity);
            let start = slots.iter().map(|s| s.floor.load(Ordering::Relaxed)).min();
            horizon = start
                .filter(|&start| start != IDLE)
                .map(|start| Cycles::new(start) + exchange.lookahead);
            if let Some(stats) = stats.as_deref_mut() {
                stats.record_window(slots);
            }
            for from in 0..exchange.parties {
                let mut mail = lock(&exchange.outgoing(parity, from)[self.me]);
                for wire in mail.drain(..) {
                    self.shards[wire.to - self.first]
                        .queue
                        .schedule(wire.arrival, wire.payload);
                }
            }
            parity ^= 1;
        }
        Ok(())
    }

    /// Drains every local event below `horizon` (follow-ups included)
    /// on each of the chunk's shards, in host order, collecting their
    /// wires in the outbox, and writes the window's event summary into
    /// `slot`. This function *is* the semantics of a window.
    fn drain(&mut self, exchange: &Exchange<M::Event>, horizon: Cycles, slot: &Slot) {
        let (mut total, mut max, mut min) = (0, 0, u64::MAX);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let Shard { model, queue } = shard;
            let mut events = 0;
            while queue.peek_when().is_some_and(|when| when < horizon) {
                let (when, event) = queue.pop().expect("peeked event exists");
                events += 1;
                let mut ctx = HostCtx {
                    now: when,
                    host: self.first + i,
                    hosts: exchange.hosts,
                    lookahead: exchange.lookahead,
                    local: &mut self.local,
                    sends: &mut self.outbox,
                };
                model.handle(when, event, &mut ctx);
                // Emission order feeds the queue's FIFO sequence
                // numbers, so follow-ups among equal instants replay in
                // the order the model produced them.
                for (at, ev) in self.local.drain(..) {
                    queue.schedule(at, ev);
                }
            }
            total += events;
            max = max.max(events);
            min = min.min(events);
        }
        slot.events.store(total, Ordering::Relaxed);
        slot.max.store(max, Ordering::Relaxed);
        slot.min.store(min, Ordering::Relaxed);
    }

    /// The earliest pending event on the chunk's calendars ([`IDLE`] if
    /// none).
    fn floor(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.queue.peek_when())
            .min()
            .map_or(IDLE, Cycles::as_u64)
    }

    /// Adds this participant's counters into the run's stats.
    fn tally(&self, stats: &mut ShardStats) {
        stats.lookahead_stalls += self.stalls;
        stats.wires += self.wires;
    }
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

/// The reusable barrier every participant crosses once per window: the
/// last of `parties` arrivals resets the count and bumps the generation
/// every waiter watches. Waiters spin up to [`SPIN_LIMIT`] times, then
/// yield.
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
