//! A credit scheduler — Xen's VCPU scheduler, modelled for the
//! oversubscription analysis.
//!
//! The paper measures VM Switch because it is "a central cost when
//! oversubscribing physical CPUs" (Table I), and its I/O results hinge
//! on Xen's scheduler behaviour: Dom0 blocking into the idle domain,
//! `vcpu_wake` + credit accounting on every event. This module
//! implements the credit algorithm the measured Xen 4.5 shipped —
//! weights, periodic credit refill, UNDER/OVER priorities, boost on
//! wake — so the oversubscription ablation can derive VM-switch *rates*
//! from real scheduling rather than an assumed constant.
//!
//! (The calibrated `xen_sched` cycle cost in [`crate::CostModel`] prices
//! one scheduling decision; this module decides *which* and *how many*
//! decisions happen.)
//!
//! Both schedulers keep their runnable vCPUs in an indexed binary heap,
//! so a decision costs O(log n) host time in the n vCPUs of a pCPU and
//! a consolidation cell's host cost per transaction hardly grows with
//! the ratio it simulates. Nothing allocates after registration. A sift
//! moves a hole, not the entry: each level costs one entry write and
//! one slot write. The consolidation cell is generic over its
//! scheduler, and the operations it calls per step carry `#[inline]`,
//! so they inline into its step loop across the crate boundary (no
//! build of this workspace enables cross-crate LTO).

use crate::Error;
use core::fmt;
use hvx_engine::Cycles;

/// Which hypervisor vCPU scheduler multiplexes vCPUs onto a physical
/// CPU in the consolidation scenarios.
///
/// Both algorithms are deterministic: every decision is a pure function
/// of integer scheduler state, so a consolidation cell simulates
/// byte-identically regardless of host thread count or cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedPolicy {
    /// Xen's credit1: weighted credit refill, UNDER/OVER classes, boost
    /// on I/O wake ([`CreditScheduler`]).
    Credit,
    /// KVM's CFS-style fair scheduler: integer virtual runtime,
    /// lowest-vruntime-first, wake placement against min_vruntime
    /// ([`CfsScheduler`]).
    Cfs,
}

impl SchedPolicy {
    /// Both policies, in CLI/report order.
    pub const ALL: [SchedPolicy; 2] = [SchedPolicy::Credit, SchedPolicy::Cfs];

    /// Stable lowercase name (CLI, specs, fingerprints).
    pub const fn name(self) -> &'static str {
        match self {
            SchedPolicy::Credit => "credit",
            SchedPolicy::Cfs => "cfs",
        }
    }

    /// Parses a policy name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownScheduler`] when the name matches neither policy.
    pub fn parse(s: &str) -> Result<SchedPolicy, Error> {
        SchedPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| Error::UnknownScheduler { name: s.into() })
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// A pluggable per-pCPU hypervisor vCPU scheduler.
///
/// The consolidation simulator drives one instance per physical CPU:
/// it registers the vCPUs pinned there, then interleaves [`pick`],
/// cycle charges, blocks (WFI), wakes, and periodic [`tick`]s exactly
/// as the modelled hypervisor's scheduler would see them. All state is
/// integer and every tie breaks on a unique key (credit: queue
/// position; CFS: vCPU id), so the same call sequence always yields the
/// same decisions.
///
/// [`pick`]: VcpuScheduler::pick
/// [`tick`]: VcpuScheduler::tick
pub trait VcpuScheduler: fmt::Debug {
    /// Registers a schedulable vCPU under a scheduling weight.
    fn add_vcpu(&mut self, id: usize, weight: u32);
    /// The vCPU currently on the CPU, if any.
    fn current(&self) -> Option<usize>;
    /// Picks the next vCPU to run (`None` = idle). Counts a context
    /// switch when the decision changes the running vCPU.
    fn pick(&mut self) -> Option<usize>;
    /// Charges `cycles` of runtime against a vCPU's scheduling account.
    fn charge_cycles(&mut self, id: usize, cycles: u64);
    /// The vCPU blocks (WFI / waiting for an event).
    fn block(&mut self, id: usize);
    /// Wakes a blocked vCPU; returns `true` if it should preempt the
    /// currently running one.
    fn wake(&mut self, id: usize) -> bool;
    /// The current vCPU is descheduled (end of timeslice or voluntary
    /// yield): it goes back among the runnable.
    fn yield_current(&mut self);
    /// Periodic accounting tick (credit refill; a no-op for CFS, whose
    /// accounting is continuous).
    fn tick(&mut self);
    /// Context switches performed so far.
    fn switch_count(&self) -> u64;
}

/// Cycles of runtime that consume one credit: one accounting period's
/// worth of CPU spread over [`CREDITS_PER_PERIOD`] credits.
pub const CYCLES_PER_CREDIT: u64 = ACCT_PERIOD.as_u64() / CREDITS_PER_PERIOD as u64;

/// [`CreditScheduler`] behind the [`VcpuScheduler`] interface:
/// accumulates cycle charges into whole credits (remainders carry, so
/// many small charges cost exactly what one big charge does).
#[derive(Debug, Clone, Default)]
pub struct CreditVcpuSched {
    inner: CreditScheduler,
    /// Sub-credit cycle remainders, indexed by vCPU id.
    acc: Vec<u64>,
}

impl CreditVcpuSched {
    /// Creates an empty runqueue and runs the first accounting pass on
    /// registration, as Xen does when a domain starts.
    pub fn new() -> Self {
        CreditVcpuSched::default()
    }

    /// The wrapped credit scheduler (tests, reports).
    pub fn inner(&self) -> &CreditScheduler {
        &self.inner
    }
}

impl VcpuScheduler for CreditVcpuSched {
    #[inline]
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        self.inner.add_vcpu(id, weight);
        if self.acc.len() <= id {
            self.acc.resize(id + 1, 0);
        }
        // Fresh vCPUs start with a period's share of credit, as after
        // Xen's first accounting pass; without it everyone is OVER and
        // boost-on-wake (which needs credit) never engages.
        self.inner.account();
    }
    #[inline]
    fn current(&self) -> Option<usize> {
        self.inner.current()
    }
    #[inline]
    fn pick(&mut self) -> Option<usize> {
        self.inner.pick()
    }
    #[inline]
    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let total = self.acc[id] + cycles;
        self.acc[id] = total % CYCLES_PER_CREDIT;
        let credits = (total / CYCLES_PER_CREDIT) as i64;
        if credits > 0 {
            self.inner.charge(id, credits);
        }
    }
    #[inline]
    fn block(&mut self, id: usize) {
        self.inner.block(id);
    }
    #[inline]
    fn wake(&mut self, id: usize) -> bool {
        self.inner.wake(id)
    }
    #[inline]
    fn yield_current(&mut self) {
        self.inner.yield_current();
    }
    #[inline]
    fn tick(&mut self) {
        self.inner.account();
    }
    #[inline]
    fn switch_count(&self) -> u64 {
        self.inner.switch_count()
    }
}

/// The weight of a nice-0 task in CFS's fixed-point weight table; the
/// vruntime of a nice-0 vCPU advances one cycle per cycle run.
pub const NICE0_WEIGHT: u64 = 1024;

/// Wake-placement credit: a woken vCPU's vruntime is pulled up to no
/// less than `min_vruntime - WAKEUP_BONUS`, so sleepers get a bounded
/// latency advantage without starving the runnable (CFS's
/// `sched_latency/2` placement rule, in cycles).
pub const WAKEUP_BONUS: u64 = 3_000_000;

/// A woken vCPU preempts only if it undercuts the running vCPU's
/// vruntime by at least this much (CFS's wakeup granularity, in
/// cycles) — the anti-thrash hysteresis.
pub const PREEMPT_GRANULARITY: u64 = 500_000;

/// Heap slot of an id that is not in an [`IndexedHeap`].
const ABSENT: u32 = u32::MAX;

/// Packs `(major, minor)` into one key that orders as the pair does, so
/// each heap comparison is a single branch-free integer compare.
fn pack(major: u64, minor: u64) -> u128 {
    (u128::from(major) << 64) | u128::from(minor)
}

/// An indexed binary min-heap of ids under `u128` keys.
///
/// Each id knows its heap slot, so removing an id or changing its key
/// costs O(log n) and never scans. Capacity is reserved as ids
/// register, so no operation after registration allocates. Keys must be
/// unique per id: then the minimum is one id, whatever order the ids
/// entered in.
#[derive(Debug, Clone, Default)]
struct IndexedHeap {
    /// `(key, id)` pairs in heap order.
    heap: Vec<(u128, u32)>,
    /// Heap slot of each id, [`ABSENT`] when not in the heap.
    slot: Vec<u32>,
}

impl IndexedHeap {
    /// Makes room for `id`, and for `len` ids in the heap at once.
    fn reserve(&mut self, id: usize, len: usize) {
        if self.slot.len() <= id {
            self.slot.resize(id + 1, ABSENT);
        }
        self.heap.reserve_exact(len.saturating_sub(self.heap.len()));
    }

    /// The smallest key and its id.
    fn min(&self) -> Option<(u128, usize)> {
        self.heap.first().map(|&(key, id)| (key, id as usize))
    }

    fn contains(&self, id: usize) -> bool {
        self.slot[id] != ABSENT
    }

    /// The key `id` is queued under, if it is in the heap.
    fn key(&self, id: usize) -> Option<u128> {
        match self.slot[id] {
            ABSENT => None,
            i => Some(self.heap[i as usize].0),
        }
    }

    /// Inserts `id` under `key`, or moves it there if present.
    fn set(&mut self, id: usize, key: u128) {
        match self.slot[id] {
            ABSENT => {
                let i = self.heap.len();
                self.heap.push((key, id as u32));
                self.sift_up(i);
            }
            i => {
                self.heap[i as usize].0 = key;
                self.restore(i as usize);
            }
        }
    }

    /// Takes `id` out of the heap, if it is there.
    fn remove(&mut self, id: usize) {
        let i = self.slot[id];
        if i == ABSENT {
            return;
        }
        self.slot[id] = ABSENT;
        let last = self.heap.pop().expect("a present id is in the heap");
        let i = i as usize;
        if i < self.heap.len() {
            self.heap[i] = last;
            self.restore(i);
        }
    }

    fn restore(&mut self, i: usize) {
        if i > 0 && self.heap[i].0 < self.heap[(i - 1) / 2].0 {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` up to its place. The entries it passes
    /// each move down one level into the hole it leaves, so every level
    /// costs one entry write and one slot write.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.fill(i, self.heap[parent]);
            i = parent;
        }
        self.fill(i, entry);
    }

    /// Moves the entry at `i` down to its place, as [`Self::sift_up`]
    /// moves one up.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        loop {
            let left = 2 * i + 1;
            let Some(&(left_key, _)) = self.heap.get(left) else {
                break;
            };
            let child = match self.heap.get(left + 1) {
                Some(&(right_key, _)) if right_key < left_key => left + 1,
                _ => left,
            };
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.fill(i, self.heap[child]);
            i = child;
        }
        self.fill(i, entry);
    }

    /// Writes `entry` into slot `i` and points its id there.
    fn fill(&mut self, i: usize, entry: (u128, u32)) {
        self.heap[i] = entry;
        self.slot[entry.1 as usize] = i as u32;
    }
}

/// Per-vCPU scheduler state that a [`RunQueue`] orders.
trait Queued {
    /// This vCPU's current key (see [`pack`]): the runnable vCPU with
    /// the smallest key runs next.
    fn key(&self, id: usize) -> u128;
}

/// One physical CPU's vCPUs, indexed by id, and its runqueue.
///
/// The runnable vCPUs other than the one on the CPU wait in an
/// [`IndexedHeap`], so a pick, block, wake, yield or re-key costs
/// O(log n). The running vCPU is held outside the heap, as Linux's CFS
/// holds its `curr`, so charging it costs O(1).
#[derive(Debug, Clone)]
struct RunQueue<E> {
    /// Entries by vCPU id (`None`: an id that was never registered).
    entries: Vec<Option<E>>,
    /// Runnable vCPUs other than `current`.
    queued: IndexedHeap,
    /// The vCPU on the CPU. It is runnable, but not queued.
    current: Option<usize>,
    switches: u64,
}

impl<E> Default for RunQueue<E> {
    fn default() -> Self {
        RunQueue {
            entries: Vec::new(),
            queued: IndexedHeap::default(),
            current: None,
            switches: 0,
        }
    }
}

impl<E: Queued> RunQueue<E> {
    /// Registers a runnable vCPU.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    fn add(&mut self, id: usize, entry: E) {
        if self.entries.len() <= id {
            self.entries.resize_with(id + 1, || None);
        }
        assert!(self.entries[id].is_none(), "vcpu {id} already registered");
        self.entries[id] = Some(entry);
        self.queued.reserve(id, self.len());
        self.push(id);
    }

    /// Registered vCPUs.
    fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    fn entry(&self, id: usize) -> &E {
        self.entries
            .get(id)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("vcpu {id} not registered"))
    }

    fn entry_mut(&mut self, id: usize) -> &mut E {
        self.entries
            .get_mut(id)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("vcpu {id} not registered"))
    }

    fn is_runnable(&self, id: usize) -> bool {
        self.entry(id); // panics on an unregistered id
        self.current == Some(id) || self.queued.contains(id)
    }

    /// Puts the runnable vCPU with the smallest key on the CPU and
    /// returns it (`None`: nothing is runnable). Counts a switch when
    /// that changes the running vCPU.
    fn pick(&mut self) -> Option<usize> {
        if let Some((key, id)) = self.queued.min() {
            if self.current.is_none_or(|c| key < self.entry(c).key(c)) {
                self.queued.remove(id);
                if let Some(previous) = self.current.replace(id) {
                    self.push(previous);
                }
                self.switches += 1;
            }
        }
        self.current
    }

    /// The vCPU stops being runnable. If it was current, the CPU idles.
    fn block(&mut self, id: usize) {
        self.entry(id); // panics on an unregistered id
        if self.current == Some(id) {
            self.current = None;
        } else {
            self.queued.remove(id);
        }
    }

    /// The current vCPU goes back among the runnable under its key.
    fn yield_current(&mut self) {
        if let Some(id) = self.current.take() {
            self.push(id);
        }
    }

    /// Queues a runnable vCPU that is not current under its key.
    fn push(&mut self, id: usize) {
        debug_assert!(!self.queued.contains(id) && self.current != Some(id));
        self.queued.set(id, self.entry(id).key(id));
    }

    /// Restores queue order after `id`'s key changed. The running vCPU
    /// and blocked ones are not queued, so this is a no-op for them.
    fn requeue(&mut self, id: usize) {
        if self.queued.contains(id) {
            self.queued.set(id, self.entry(id).key(id));
        }
    }
}

#[derive(Debug, Clone)]
struct CfsEntry {
    weight: u32,
    vruntime: u64,
}

impl Queued for CfsEntry {
    fn key(&self, id: usize) -> u128 {
        pack(self.vruntime, id as u64)
    }
}

/// A KVM-style completely-fair scheduler over one physical CPU.
///
/// Integer virtual runtime only: `vruntime += cycles × NICE0 / weight`,
/// the runnable vCPU with the smallest `(vruntime, id)` runs next, and
/// wake placement clamps sleepers to just below the queue's minimum
/// vruntime. No floats, no randomness — decisions replay exactly. The
/// runnable vCPUs wait in a heap ordered by `(vruntime, id)`, with the
/// running one held outside it, so charging the running vCPU is O(1)
/// and every other operation O(log n).
///
/// # Examples
///
/// ```
/// use hvx_core::sched::{CfsScheduler, VcpuScheduler};
///
/// let mut s = CfsScheduler::new();
/// s.add_vcpu(0, 1024);
/// s.add_vcpu(1, 1024);
/// assert_eq!(s.pick(), Some(0)); // equal vruntime: lowest id
/// s.charge_cycles(0, 1_000_000);
/// s.yield_current();
/// assert_eq!(s.pick(), Some(1)); // 0 has run; 1 is now behind
/// ```
#[derive(Debug, Clone, Default)]
pub struct CfsScheduler {
    rq: RunQueue<CfsEntry>,
    /// Monotonic floor used for wake placement.
    min_vruntime: u64,
}

impl CfsScheduler {
    /// Creates an empty runqueue.
    pub fn new() -> Self {
        CfsScheduler::default()
    }
}

impl VcpuScheduler for CfsScheduler {
    #[inline]
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        let vruntime = self.min_vruntime;
        self.rq.add(id, CfsEntry { weight, vruntime });
    }

    #[inline]
    fn current(&self) -> Option<usize> {
        self.rq.current
    }

    #[inline]
    fn pick(&mut self) -> Option<usize> {
        let picked = self.rq.pick();
        if let Some(id) = picked {
            let v = self.rq.entry(id).vruntime;
            self.min_vruntime = self.min_vruntime.max(v);
        }
        picked
    }

    #[inline]
    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let e = self.rq.entry_mut(id);
        e.vruntime += cycles * NICE0_WEIGHT / u64::from(e.weight);
        self.rq.requeue(id);
    }

    #[inline]
    fn block(&mut self, id: usize) {
        self.rq.block(id);
    }

    #[inline]
    fn wake(&mut self, id: usize) -> bool {
        if self.rq.is_runnable(id) {
            return false;
        }
        let floor = self.min_vruntime.saturating_sub(WAKEUP_BONUS);
        let current_v = self.rq.current.map(|c| self.rq.entry(c).vruntime);
        let e = self.rq.entry_mut(id);
        // Long sleepers re-enter near the front of the queue but never
        // with unbounded banked runtime.
        e.vruntime = e.vruntime.max(floor);
        let woken_v = e.vruntime;
        self.rq.push(id);
        match current_v {
            None => true,
            Some(cv) => woken_v + PREEMPT_GRANULARITY < cv,
        }
    }

    #[inline]
    fn yield_current(&mut self) {
        self.rq.yield_current();
    }

    #[inline]
    fn tick(&mut self) {
        // CFS accounts continuously in charge_cycles; the periodic tick
        // has no batch refill to perform.
    }

    #[inline]
    fn switch_count(&self) -> u64 {
        self.rq.switches
    }
}

/// Scheduling priority, as in Xen's credit1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CreditPriority {
    /// Woken with credit — runs ahead of everyone (BOOST).
    Boost,
    /// Has remaining credit.
    Under,
    /// Credit exhausted; runs only when no UNDER VCPU exists.
    Over,
}

impl CreditPriority {
    /// The class that a balance of `credit` earns, outside BOOST.
    fn of_credit(credit: i64) -> CreditPriority {
        if credit > 0 {
            CreditPriority::Under
        } else {
            CreditPriority::Over
        }
    }
}

/// One schedulable VCPU.
#[derive(Debug, Clone)]
struct Entry {
    weight: u32,
    /// Credits each accounting pass grants: the weight's share of
    /// [`CREDITS_PER_PERIOD`], re-derived whenever a VCPU registers.
    share: i64,
    /// The balance as of accounting pass `settled` (see
    /// [`Entry::credit_at`]).
    credit: i64,
    settled: u64,
    priority: CreditPriority,
    /// Queue position: FIFO order within a priority class. A yield
    /// restamps the VCPU behind every other; a block keeps its stamp.
    stamp: u64,
}

impl Entry {
    /// The balance after accounting pass `pass`. Each pass since
    /// `settled` adds `share` and caps the balance at one period's
    /// worth. For a share ≥ 0, capped additions compose, `min(min(c + s,
    /// cap) + s, cap) = min(c + 2s, cap)`, so any number of passes
    /// settles in one step.
    fn credit_at(&self, pass: u64) -> i64 {
        let passes = i64::try_from(pass - self.settled).unwrap_or(i64::MAX);
        let credit = self
            .credit
            .saturating_add(passes.saturating_mul(self.share));
        if passes == 0 {
            credit
        } else {
            credit.min(CREDITS_PER_PERIOD)
        }
    }

    fn settle(&mut self, pass: u64) {
        self.credit = self.credit_at(pass);
        self.settled = pass;
    }

    /// The accounting pass at which accounting alone will change this
    /// VCPU's class, if any. Accounting leaves BOOST alone and never
    /// lowers a balance, so it moves OVER to UNDER at the first pass
    /// that makes the balance positive, and UNDER to OVER only at the
    /// next pass, if that pass leaves the balance at or below zero (a
    /// freshly registered VCPU with a zero share).
    fn flip_pass(&self) -> Option<u64> {
        let passes = match self.priority {
            CreditPriority::Boost => None,
            CreditPriority::Under => (self.credit.saturating_add(self.share) <= 0).then_some(1),
            CreditPriority::Over if self.credit > 0 => Some(1),
            CreditPriority::Over if self.share == 0 => None,
            CreditPriority::Over => Some(self.credit.unsigned_abs() / self.share as u64 + 1),
        };
        passes.map(|n| self.settled + n)
    }
}

impl Queued for Entry {
    fn key(&self, _id: usize) -> u128 {
        pack(self.priority as u64, self.stamp)
    }
}

/// The 30 ms credit-refill period (in cycles at the ARM platform's
/// 2.4 GHz), as in Xen's `CSCHED_ACCT_PERIOD`.
pub const ACCT_PERIOD: Cycles = Cycles::new(72_000_000);

/// The 30 ms worth of credit distributed per accounting period.
pub const CREDITS_PER_PERIOD: i64 = 300;

/// A single physical CPU's credit-scheduler runqueue.
///
/// The runnable VCPUs wait in a heap ordered by (priority, queue
/// stamp), with the running one held outside it: a pick, charge, block,
/// wake or yield is O(log n). An accounting pass is O(1) plus O(log n)
/// per VCPU whose class it changes: balances settle lazily, and the
/// passes at which classes will change wait in a second heap.
///
/// # Examples
///
/// ```
/// use hvx_core::sched::CreditScheduler;
///
/// let mut s = CreditScheduler::new();
/// s.add_vcpu(0, 256);
/// s.add_vcpu(1, 256);
/// let first = s.pick().unwrap();
/// s.charge(first, 100);
/// // Round-robin among equal-priority VCPUs on yield:
/// s.yield_current();
/// assert_ne!(s.pick().unwrap(), first);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CreditScheduler {
    rq: RunQueue<Entry>,
    /// Accounting passes so far.
    passes: u64,
    /// Every VCPU whose class a future accounting pass will change,
    /// keyed by (that pass, id).
    flips: IndexedHeap,
    /// The stamp the next VCPU to join the back of the queue takes.
    next_stamp: u64,
}

impl CreditScheduler {
    /// Creates an empty runqueue.
    pub fn new() -> Self {
        CreditScheduler::default()
    }

    /// Registers a VCPU with a credit weight (Xen default 256).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered or `weight` is zero.
    pub fn add_vcpu(&mut self, id: usize, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        let entry = Entry {
            weight,
            share: 0,
            credit: 0,
            settled: self.passes,
            priority: CreditPriority::Under,
            stamp: self.next_stamp,
        };
        self.rq.add(id, entry);
        self.next_stamp += 1;
        self.flips.reserve(id, self.rq.len());
        // Shares follow the total weight: settle every balance under
        // the old shares, then re-derive them and each pending flip.
        let total_weight: i64 = self
            .rq
            .entries
            .iter()
            .flatten()
            .map(|e| i64::from(e.weight))
            .sum();
        for e in self.rq.entries.iter_mut().flatten() {
            e.settle(self.passes);
            e.share = CREDITS_PER_PERIOD * i64::from(e.weight) / total_weight;
        }
        for id in 0..self.rq.entries.len() {
            if self.rq.entries[id].is_some() {
                self.schedule_flip(id);
            }
        }
    }

    /// Files (or withdraws) the accounting pass at which `id`'s class
    /// will change. A pass that is already filed leaves the heap alone.
    fn schedule_flip(&mut self, id: usize) {
        let key = self
            .rq
            .entry(id)
            .flip_pass()
            .map(|pass| pack(pass, id as u64));
        if key == self.flips.key(id) {
            return;
        }
        match key {
            Some(key) => self.flips.set(id, key),
            None => self.flips.remove(id),
        }
    }

    /// The VCPU currently on the CPU, if any.
    pub fn current(&self) -> Option<usize> {
        self.rq.current
    }

    /// Number of context switches performed so far.
    pub fn switch_count(&self) -> u64 {
        self.rq.switches
    }

    /// Picks the next VCPU to run: highest priority class first, FIFO
    /// within a class; `None` means the idle domain runs.
    #[inline]
    pub fn pick(&mut self) -> Option<usize> {
        self.rq.pick()
    }

    /// Charges `credits` of runtime to a VCPU; it drops to OVER when its
    /// credit is exhausted (and loses any boost the moment it runs).
    #[inline]
    pub fn charge(&mut self, id: usize, credits: i64) {
        let pass = self.passes;
        let e = self.rq.entry_mut(id);
        e.settle(pass);
        e.credit -= credits;
        let priority = CreditPriority::of_credit(e.credit);
        if priority != e.priority {
            e.priority = priority;
            self.rq.requeue(id);
        }
        self.schedule_flip(id);
    }

    /// The VCPU blocks (WFI / waiting for I/O): it leaves the runqueue
    /// until woken. If it was current, the CPU goes idle.
    #[inline]
    pub fn block(&mut self, id: usize) {
        self.rq.block(id);
    }

    /// Wakes a blocked VCPU. A wake with credit grants BOOST — the
    /// latency hack that lets I/O domains preempt batch work, central to
    /// Dom0's behaviour in the paper's I/O paths. Returns `true` if the
    /// woken VCPU should preempt the current one.
    #[inline]
    pub fn wake(&mut self, id: usize) -> bool {
        if self.rq.is_runnable(id) {
            return false;
        }
        let current_prio = self.rq.current.map(|c| self.rq.entry(c).priority);
        let pass = self.passes;
        let e = self.rq.entry_mut(id);
        e.settle(pass);
        if e.credit > 0 {
            e.priority = CreditPriority::Boost;
        }
        let woken_prio = e.priority;
        self.rq.push(id);
        self.schedule_flip(id);
        match current_prio {
            None => true,
            Some(cp) => woken_prio < cp,
        }
    }

    /// The current VCPU voluntarily yields: it moves to the back of the
    /// queue.
    #[inline]
    pub fn yield_current(&mut self) {
        if let Some(id) = self.rq.current {
            self.rq.entry_mut(id).stamp = self.next_stamp;
            self.next_stamp += 1;
            self.rq.yield_current();
        }
    }

    /// The periodic accounting tick: distributes [`CREDITS_PER_PERIOD`]
    /// in proportion to weight, capping hoarded credit (Xen caps at one
    /// period's worth) and restoring UNDER to everyone with positive
    /// credit. Balances settle lazily; only the VCPUs whose class this
    /// pass changes are touched.
    #[inline]
    pub fn account(&mut self) {
        self.passes += 1;
        while let Some((key, id)) = self.flips.min() {
            let flip_pass = key >> 64;
            if flip_pass > u128::from(self.passes) {
                break;
            }
            let pass = self.passes;
            let e = self.rq.entry_mut(id);
            e.settle(pass);
            e.priority = CreditPriority::of_credit(e.credit);
            self.rq.requeue(id);
            self.schedule_flip(id);
        }
    }

    /// Current credit of a VCPU (for tests and the ablation report).
    pub fn credit_of(&self, id: usize) -> i64 {
        self.rq.entry(id).credit_at(self.passes)
    }

    /// Current priority class of a VCPU.
    pub fn priority_of(&self, id: usize) -> CreditPriority {
        self.rq.entry(id).priority
    }
}

/// Result of the oversubscription analysis: what fraction of each core's
/// time goes to VM switching when `vms_per_core` VMs time-share it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OversubscriptionPoint {
    /// VMs sharing each physical core.
    pub vms_per_core: u32,
    /// Timeslice length in cycles.
    pub timeslice: Cycles,
    /// VM switches per accounting period (simulated with the credit
    /// scheduler).
    pub switches_per_period: u64,
    /// Fraction of CPU time lost to VM switching for the given
    /// per-switch cost.
    pub switch_overhead: f64,
}

/// Simulates `vms_per_core` CPU-bound VCPUs time-sharing one core under
/// the credit scheduler for one accounting period, then prices the
/// switches at `switch_cost` (a Table II VM Switch value).
pub fn oversubscription_point(
    vms_per_core: u32,
    timeslice: Cycles,
    switch_cost: Cycles,
) -> OversubscriptionPoint {
    assert!(vms_per_core > 0);
    let mut sched = CreditScheduler::new();
    for id in 0..vms_per_core as usize {
        sched.add_vcpu(id, 256);
    }
    sched.account();
    let mut elapsed = Cycles::ZERO;
    while elapsed < ACCT_PERIOD {
        let Some(id) = sched.pick() else { break };
        // CPU-bound VCPU runs its full timeslice.
        let slice_credits =
            (CREDITS_PER_PERIOD as u64 * timeslice.as_u64() / ACCT_PERIOD.as_u64()) as i64;
        sched.charge(id, slice_credits.max(1));
        sched.yield_current();
        elapsed += timeslice;
    }
    // Subtract the initial placement, which is not a switch between VMs.
    let switches = sched.switch_count().saturating_sub(1);
    let total = ACCT_PERIOD.as_f64();
    OversubscriptionPoint {
        vms_per_core,
        timeslice,
        switches_per_period: switches,
        switch_overhead: switches as f64 * switch_cost.as_f64() / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_round_robin() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(1, 256);
        s.add_vcpu(2, 256);
        s.account();
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = s.pick().unwrap();
            order.push(id);
            s.charge(id, 10);
            s.yield_current();
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn exhausted_credit_drops_to_over() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(1, 256);
        s.account();
        let c0 = s.credit_of(0);
        s.charge(0, c0 + 1);
        assert_eq!(s.priority_of(0), CreditPriority::Over);
        // VCPU 1 (UNDER) now runs even though 0 is ahead in the queue.
        assert_eq!(s.pick(), Some(1));
        // Accounting restores UNDER.
        s.account();
        assert_eq!(s.priority_of(0), CreditPriority::Under);
    }

    #[test]
    fn io_wake_boosts_and_preempts() {
        // Dom0's behaviour: blocked waiting for I/O, woken by an event,
        // preempts the batch VCPU immediately — the paper's I/O latency
        // paths depend on this.
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256); // batch DomU
        s.add_vcpu(1, 256); // Dom0
        s.account();
        s.block(1);
        assert_eq!(s.pick(), Some(0));
        let preempt = s.wake(1);
        assert!(preempt, "boosted wake preempts");
        assert_eq!(s.priority_of(1), CreditPriority::Boost);
        assert_eq!(s.pick(), Some(1));
    }

    #[test]
    fn wake_without_credit_does_not_boost() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(1, 256);
        s.account();
        let c1 = s.credit_of(1);
        s.charge(1, c1 + 5);
        s.block(1);
        assert_eq!(s.pick(), Some(0), "batch VCPU occupies the core");
        let preempt = s.wake(1);
        assert!(!preempt, "OVER VCPU cannot preempt an UNDER one");
        assert_eq!(s.priority_of(1), CreditPriority::Over);
    }

    #[test]
    fn weights_bias_credit_distribution() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 512);
        s.add_vcpu(1, 256);
        s.account();
        assert_eq!(s.credit_of(0), 2 * s.credit_of(1));
    }

    #[test]
    fn credit_is_capped_at_one_period() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        for _ in 0..10 {
            s.account();
        }
        assert!(s.credit_of(0) <= CREDITS_PER_PERIOD);
    }

    #[test]
    fn all_blocked_means_idle_domain() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.block(0);
        assert_eq!(s.pick(), None, "idle domain runs");
        s.wake(0);
        assert_eq!(s.pick(), Some(0));
    }

    #[test]
    fn oversubscription_overhead_scales_with_switch_cost() {
        // Table II: Xen ARM switches at 8,799 cycles, KVM ARM at 10,387.
        // With a 30 ms period and 1 ms timeslices the overhead is small;
        // shrinking the timeslice grows it proportionally.
        let ts = Cycles::new(2_400_000); // 1 ms at 2.4 GHz
        let xen = oversubscription_point(2, ts, Cycles::new(8_799));
        let kvm = oversubscription_point(2, ts, Cycles::new(10_387));
        assert_eq!(xen.switches_per_period, kvm.switches_per_period);
        assert!(kvm.switch_overhead > xen.switch_overhead);
        assert!(xen.switch_overhead < 0.01, "{}", xen.switch_overhead);
        let fine = oversubscription_point(2, ts / 10, Cycles::new(8_799));
        assert!(
            fine.switch_overhead > 9.0 * xen.switch_overhead
                && fine.switch_overhead < 11.0 * xen.switch_overhead
        );
    }

    #[test]
    fn more_vms_do_not_change_per_slice_switch_rate() {
        let ts = Cycles::new(2_400_000);
        let two = oversubscription_point(2, ts, Cycles::new(8_799));
        let four = oversubscription_point(4, ts, Cycles::new(8_799));
        // Every slice boundary is a switch in both cases.
        assert_eq!(two.switches_per_period, four.switches_per_period);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_vcpu_rejected() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(0, 256);
    }
}
