//! The consolidation sweep: SMP guests sharing physical CPUs under a
//! hypervisor vCPU scheduler.
//!
//! The paper's measurements pin one vCPU per pCPU; real deployments
//! oversubscribe. Each cell here simulates `ratio` two-vCPU VMs sharing
//! two pCPUs (a `ratio`:1 vCPU:pCPU ratio) running a closed-loop
//! TCP_RR-style transaction per VM:
//!
//! * vCPU **A** (pinned to pCPU0) wakes on each request arrival, takes
//!   a guest kernel lock, does the RR work, kicks its sibling with a
//!   **virtual IPI routed through the modelled GIC distributor as an
//!   SGI** (`GICD_SGIR` write → [`Distributor::mmio_write`] fan-out →
//!   [`VgicCpuInterface::inject`]), and completes the transaction.
//! * vCPU **B** (pinned to pCPU1) wakes on the SGI, acks it, runs a
//!   locked critical section (softirq under the same kernel lock), a
//!   tail, and EOIs. Coalesced SGIs ([`VgicError::AlreadyListed`]) are
//!   counted — at high ratios the guest is too slow to drain them.
//!
//! Each pCPU multiplexes its `ratio` pinned vCPUs through a pluggable
//! [`VcpuScheduler`] (Xen-credit or KVM/CFS, per [`SchedPolicy`]) with
//! preemptive timer slicing and wake preemption. Every scheduling
//! action is charged through real modelled paths on the machine — VM
//! switches at the hypervisor's measured world-switch cost, timer
//! interrupts as [`TransitionId::SchedTimer`], and guest spinning on a
//! preempted lock holder as [`TransitionId::LockHolderSpin`] — so span
//! conservation stays exact. **Steal time** (runnable-but-not-running)
//! is an observation derived from the same clocks, never a charge.
//!
//! ## Compile eligibility
//!
//! At ratio 1:1 the cell is periodic: every transaction replays the
//! same op stream, so the driver opens a loop-compiler session and the
//! machine replays the steady state in closed form, at a cost set by
//! its regimes rather than its transaction count. Under contention
//! (ratio > 1) the interleaving of `2×ratio` vCPUs across two shared
//! clocks is aperiodic at the transaction level, so the driver runs
//! fully interpreted — the transparent fallback the differential tests
//! in `tests/compile_diff.rs` pin down byte-for-byte.
//!
//! ## Per-step host cost
//!
//! One step of the event loop costs the host the same at any ratio, or
//! O(log ratio). Each pCPU keeps a count of its ready vCPUs and a FIFO
//! of undelivered wakes, `(instant, vm)`: request arrivals on pCPU0,
//! SGI wire arrivals on pCPU1. Both streams are stamped from pCPU0's
//! monotone clock, so push order is time order and the next wake is
//! the FIFO's front. The schedulers keep indexed runqueues
//! ([`hvx_core::sched`]), and only the credit scheduler's accounting
//! tick visits every vCPU of its pCPU. Once the queues have reached
//! their working size, a step allocates nothing: the SGI fan-out of a
//! `GICD_SGIR` write is a `Copy` value (`tests/alloc_steady_state.rs`
//! counts).
//!
//! The cell is generic over its scheduler, and [`run_cell_machine`]
//! matches [`SchedPolicy`] once, so every scheduler call in a step is
//! a direct call rather than a virtual one. Together with the
//! `#[inline]` on the engine's charge path, the schedulers, [`VCpu`]
//! and the vGIC interface, the whole step compiles into one loop: no
//! build of this workspace enables cross-crate LTO, so a non-generic
//! function of another crate inlines only when it says so.
//!
//! [`VcpuScheduler`]: hvx_core::VcpuScheduler
//! [`SchedPolicy`]: hvx_core::SchedPolicy
//! [`Distributor::mmio_write`]: hvx_gic::Distributor::mmio_write
//! [`VgicCpuInterface::inject`]: hvx_gic::VgicCpuInterface::inject
//! [`VgicError::AlreadyListed`]: hvx_gic::VgicError::AlreadyListed
//! [`TransitionId::SchedTimer`]: hvx_engine::TransitionId::SchedTimer
//! [`TransitionId::LockHolderSpin`]: hvx_engine::TransitionId::LockHolderSpin

use std::collections::VecDeque;

use hvx_core::sched::{CfsScheduler, CreditVcpuSched};
use hvx_core::{Error, HvKind, Hypervisor, SchedPolicy, SimBuilder, VCpu, VcpuScheduler};
use hvx_engine::{CoreId, Cycles, FaultPlan, FaultPoint, Machine, TraceKind, TransitionId};
use hvx_gic::{dist_reg, Distributor, VgicCpuInterface, VgicError};

use serde::{Deserialize, Serialize};

/// vCPU:pCPU ratios the sweep visits (1:1 .. 16:1). A `--spec` run
/// accepts any ratio up to 64:1.
pub const RATIOS: [u32; 5] = [1, 2, 4, 8, 16];

/// Default transactions per VM for artifact cells: enough steady-state
/// iterations past the loop compiler's confirm window that 1:1 cells
/// actually replay.
pub const TRANSACTIONS_PER_VM: u32 = 48;

/// Scheduler timeslice, in cycles (~12 µs at 2.4 GHz): shorter than a
/// full RR transaction, so a busy vCPU takes at least one timer
/// interrupt per activation and queued vCPUs rotate mid-transaction.
const QUANTUM: u64 = 30_000;
/// Cost of one scheduler-timer interrupt (trap, accounting, ERET).
const TIMER_COST: u64 = 800;
/// Guest cycles to take the uncontended kernel lock.
const LOCK_ACQ: u64 = 300;
/// Lock-spin probe granularity while the holder is preempted.
const SPIN_SLICE: u64 = 1_000;
/// Sibling's critical section under the kernel lock.
const LOCKED_WORK: u64 = 6_000;
/// Sibling's post-unlock softirq tail.
const TAIL_WORK: u64 = 8_000;
/// Primary vCPU's per-transaction request processing.
const RR_WORK: u64 = 40_000;
/// Primary vCPU's transaction completion (response post-processing).
const TX_FINISH: u64 = 2_000;
/// Client think time between a completion and the next arrival.
const THINK: u64 = 12_000;
/// Physical IPI wire latency between the two pCPUs.
const IPI_WIRE: u64 = 600;
/// SGI number the guest uses for its cross-vCPU kick.
const SGI: u32 = 4;
/// Guest cycles for the primary vCPU to notice its kick never landed
/// (a softirq watchdog / completion-timeout check at the top of the
/// next transaction) before it re-sends the SGI. Dominates the
/// latency penalty a dropped cross-vCPU IPI inflicts on the *next*
/// transaction — the TCP_RR stall the fault sweep measures.
const KICK_TIMEOUT: u64 = 20_000;

/// One consolidation cell's results. All fields are integers so cached
/// JSON is byte-stable; derived rates are computed at render time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellResult {
    /// Hypervisor column, as printed in Figure 4.
    pub column: String,
    /// vCPU:pCPU ratio (= VMs sharing the pCPU pair).
    pub ratio: u32,
    /// Scheduler policy name (`credit` / `cfs`).
    pub sched: String,
    /// Transactions each VM was asked to run.
    pub txns_per_vm: u32,
    /// Transactions completed across all VMs.
    pub transactions: u64,
    /// Σ per-transaction latency (arrival → completion), cycles.
    pub sum_latency_cycles: u64,
    /// Σ cycles vCPUs spent runnable-but-not-running.
    pub steal_cycles: u64,
    /// Σ cycles guests burnt spinning on a preempted lock holder.
    pub lock_spin_cycles: u64,
    /// Hypervisor world switches charged.
    pub vm_switches: u64,
    /// Involuntary deschedules (timer or wake preemption).
    pub preemptions: u64,
    /// Scheduler-timer interrupts charged.
    pub timer_fires: u64,
    /// SGIs sent through the distributor.
    pub ipis_sent: u64,
    /// SGI injections coalesced onto an already-pending vIRQ.
    pub ipis_coalesced: u64,
    /// Cross-vCPU kicks the fault plan dropped on the delivery path.
    pub ipis_dropped: u64,
    /// Kicks the guest re-sent after its completion timeout noticed a
    /// drop (each charged `KICK_TIMEOUT` + a second SGIR emulation).
    pub ipis_resent: u64,
    /// Global makespan of the cell, cycles.
    pub makespan_cycles: u64,
}

impl CellResult {
    /// Mean transaction latency in microseconds (2.4 GHz clock).
    pub fn mean_latency_us(&self) -> f64 {
        if self.transactions == 0 {
            return 0.0;
        }
        self.sum_latency_cycles as f64 / self.transactions as f64 / 2_400.0
    }

    /// Every vCPU's steal, summed, as a percentage of the two pCPUs'
    /// time (`steal_cycles / (2 × makespan)`). Each queued vCPU adds its
    /// own wait, so this is the mean number of vCPUs waiting per pCPU,
    /// times 100, not a share of time: it passes 100% as soon as more
    /// than one vCPU waits per pCPU (a contended 16:1 cell reads several
    /// hundred percent, a 64:1 cell thousands).
    pub fn steal_pct(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        100.0 * self.steal_cycles as f64 / (2.0 * self.makespan_cycles as f64)
    }
}

/// Full cell configuration (the artifact path uses [`run_cell`]).
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Hypervisor under test.
    pub kind: HvKind,
    /// vCPU:pCPU ratio (number of VMs on the pCPU pair).
    pub ratio: u32,
    /// vCPU scheduler policy.
    pub policy: SchedPolicy,
    /// Transactions per VM.
    pub txns_per_vm: u32,
    /// Attempt loop compilation (only engaged at ratio 1).
    pub compile: bool,
    /// Enable span profiling + the metrics registry (forces the
    /// interpreter; used by conservation and metrics tests).
    pub profiling: bool,
    /// Fault plan armed on the cell machine. [`FaultPoint::VirqDrop`]
    /// is consulted on the emulated `GICD_SGIR` delivery path, so
    /// dropped cross-vCPU kicks surface as TCP_RR stalls with the
    /// recovery (timeout + resend) charged through spans. A fault-armed
    /// machine always interprets: `loop_begin` declines it.
    pub fault: Option<FaultPlan>,
}

/// Per-hypervisor costs, probed once per cell from the real model so
/// they track the calibrated cost model (including `HVX_COST_PERTURB`).
struct Costs {
    switch: u64,
    ipi_send: u64,
    virq_recv: u64,
    eoi: u64,
}

/// Reads the cell's costs by charging them on `hv`'s own machine.
fn probe_costs(hv: &mut dyn Hypervisor) -> Costs {
    Costs {
        switch: hv.vm_switch().as_u64(),
        ipi_send: hv.virtual_ipi(0, 1).as_u64(),
        virq_recv: hv.deliver_virq(1).as_u64(),
        eoi: hv.virq_complete(1).as_u64(),
    }
}

/// What a vCPU is doing, guest-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Blocked in WFI.
    Idle,
    // Primary (A, pCPU0):
    /// Trying to take the VM's kernel lock.
    Lock,
    /// Request processing, `0` cycles remaining → send.
    Work(u64),
    /// SGI kick to the sibling.
    Send,
    /// Transaction completion bookkeeping, then WFI.
    Finish,
    // Sibling (B, pCPU1):
    /// Acking the SGI.
    Ack,
    /// Critical section under the kernel lock.
    Locked(u64),
    /// Post-unlock softirq tail.
    Tail(u64),
    /// EOI, then drain or WFI.
    Eoi,
}

/// One VM: its emulated interrupt hardware and transaction state.
struct VmState {
    dist: Distributor,
    vgic_b: VgicCpuInterface,
    /// The sibling holds the guest kernel lock.
    lock_held: bool,
    /// Arrival instant of the in-flight transaction (latency base).
    txn_started: u64,
    /// Transactions completed.
    done: u32,
    /// The last kick was dropped by the fault plan; the primary vCPU
    /// notices via its completion timeout at the top of the next
    /// transaction and re-sends.
    kick_lost: bool,
}

/// A vCPU with its guest phase.
struct Side {
    vcpu: VCpu,
    phase: Phase,
}

/// One physical CPU: the vCPUs pinned to it, its scheduler, and its
/// dispatch state.
struct Pcpu<S> {
    core: CoreId,
    sched: S,
    /// Every VM's vCPU on this pCPU, by VM index: the primaries (A) on
    /// pCPU0, the siblings (B) on pCPU1.
    sides: Vec<Side>,
    /// How many of `sides` are runnable but not running.
    ready: usize,
    /// Undelivered wakes as `(instant, vm)`, in time order: request
    /// arrivals on pCPU0, SGI wire arrivals on pCPU1. Both are stamped
    /// from pCPU0's monotone clock, so push order is time order.
    wakes: VecDeque<(u64, usize)>,
    running: Option<usize>,
    /// Last vCPU (by VM index) that held the pCPU; `None` after idle,
    /// so a dispatch out of idle charges a world switch.
    last_ran: Option<usize>,
    quantum_left: u64,
}

impl<S: VcpuScheduler> Pcpu<S> {
    /// Earliest undelivered wake (`u64::MAX`: none).
    fn next_wake(&self) -> u64 {
        self.wakes.front().map_or(u64::MAX, |&(at, _)| at)
    }

    fn push_wake(&mut self, at: u64, vm: usize) {
        debug_assert!(
            self.wakes.back().is_none_or(|&(last, _)| last <= at),
            "wake at {at} queued behind a later one"
        );
        self.wakes.push_back((at, vm));
    }

    /// Wakes VM `v`'s vCPU here at `at`. Returns `true` if the
    /// scheduler wants it to preempt the running vCPU.
    fn wake(&mut self, v: usize, at: u64) -> bool {
        self.sides[v].vcpu.wake(at);
        self.ready += 1;
        self.sched.wake(v)
    }

    /// Takes the pCPU from its running vCPU at `now`, which stays
    /// runnable. Returns `false` if nothing was running.
    fn preempt(&mut self, now: u64) -> bool {
        let Some(cur) = self.running.take() else {
            return false;
        };
        self.sides[cur].vcpu.preempt(now);
        self.ready += 1;
        true
    }

    /// The running vCPU `v` executes WFI at `end`.
    fn block_running(&mut self, v: usize, end: u64) {
        self.sides[v].vcpu.block(end);
        self.sides[v].phase = Phase::Idle;
        self.sched.block(v);
        self.running = None;
    }
}

/// Mutable counters a cell accumulates (live + replayed).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    transactions: u64,
    sum_latency: u64,
    steal_replayed: u64,
    lock_spin: u64,
    vm_switches: u64,
    preemptions: u64,
    timer_fires: u64,
    ipis_sent: u64,
    ipis_coalesced: u64,
    ipis_dropped: u64,
    ipis_resent: u64,
}

impl Counters {
    /// Extends the counters by `k` more copies of the last iteration's
    /// delta (current values minus the `snap` taken when that iteration
    /// began). In steady state every replayed iteration contributes the
    /// same delta, so this is exact.
    fn extend_scaled(&mut self, snap: &Counters, k: u64) {
        self.transactions += (self.transactions - snap.transactions) * k;
        self.sum_latency += (self.sum_latency - snap.sum_latency) * k;
        self.steal_replayed += (self.steal_replayed - snap.steal_replayed) * k;
        self.lock_spin += (self.lock_spin - snap.lock_spin) * k;
        self.vm_switches += (self.vm_switches - snap.vm_switches) * k;
        self.preemptions += (self.preemptions - snap.preemptions) * k;
        self.timer_fires += (self.timer_fires - snap.timer_fires) * k;
        self.ipis_sent += (self.ipis_sent - snap.ipis_sent) * k;
        self.ipis_coalesced += (self.ipis_coalesced - snap.ipis_coalesced) * k;
        // Fault counters are structurally zero here — a fault-armed
        // machine never compiles — but scaling them keeps the delta
        // arithmetic total.
        self.ipis_dropped += (self.ipis_dropped - snap.ipis_dropped) * k;
        self.ipis_resent += (self.ipis_resent - snap.ipis_resent) * k;
    }
}

/// A cell whose two pCPUs each run an `S` scheduler.
struct Cell<S> {
    vms: Vec<VmState>,
    p: [Pcpu<S>; 2],
    costs: Costs,
    txns_per_vm: u32,
    n: Counters,
}

impl<S: VcpuScheduler + Default> Cell<S> {
    fn new(kind_costs: Costs, ratio: u32, txns: u32, topo: [CoreId; 2]) -> Cell<S> {
        let r = ratio as usize;
        let mut vms = Vec::with_capacity(r);
        for _ in 0..r {
            let mut dist = Distributor::new(2, 32);
            // The guest enables its kick SGI on the sibling through the
            // normal set-enable register before first use.
            dist.mmio_write(dist_reg::GICD_ISENABLER, 1 << SGI, 1)
                .expect("SGI enable");
            vms.push(VmState {
                dist,
                vgic_b: VgicCpuInterface::new(),
                lock_held: false,
                txn_started: 0,
                done: 0,
                kick_lost: false,
            });
        }
        let mk_pcpu = |p: usize| {
            let mut sched = S::default();
            for v in 0..r {
                sched.add_vcpu(v, 256);
                // Guests boot into WFI; the first request wakes them.
                sched.block(v);
            }
            let side = || Side {
                vcpu: VCpu::new(p, p),
                phase: Phase::Idle,
            };
            Pcpu {
                core: topo[p],
                sched,
                sides: (0..r).map(|_| side()).collect(),
                ready: 0,
                wakes: VecDeque::with_capacity(r),
                running: None,
                last_ran: None,
                quantum_left: QUANTUM,
            }
        };
        let mut p = [mk_pcpu(0), mk_pcpu(1)];
        for v in 0..r {
            // Every VM's first request arrives at t=0.
            p[0].push_wake(0, v);
        }
        Cell {
            vms,
            p,
            costs: kind_costs,
            txns_per_vm: txns,
            n: Counters::default(),
        }
    }

    /// When pCPU `p` can next do something (`u64::MAX` = never).
    fn actionable(&self, m: &Machine, p: usize) -> u64 {
        let pcpu = &self.p[p];
        let now = m.now(pcpu.core).as_u64();
        if pcpu.running.is_some() || pcpu.ready > 0 {
            return now;
        }
        match pcpu.next_wake() {
            u64::MAX => u64::MAX,
            w => w.max(now),
        }
    }

    /// Delivers due wake events on `p`, in time order: request
    /// arrivals (pCPU0) or SGI wire arrivals → vGIC injection (pCPU1).
    /// Any order of the due wakes decides the same: each touches only
    /// its own VM and vCPU, the scheduler state a wake consults besides
    /// the woken vCPU (the current vCPU, CFS's `min_vruntime`) changes
    /// only on a pick, and whichever wake preempts first takes the
    /// running vCPU off the pCPU for all of them.
    fn deliver_wakes(&mut self, m: &mut Machine, p: usize) {
        let now = m.now(self.p[p].core).as_u64();
        while let Some(&(at, v)) = self.p[p].wakes.front() {
            if at > now {
                break;
            }
            self.p[p].wakes.pop_front();
            if p == 0 {
                self.vms[v].txn_started = at;
                self.p[0].sides[v].phase = Phase::Lock;
            } else {
                match self.vms[v].vgic_b.inject(SGI, 0x80) {
                    Ok(_) => {}
                    Err(VgicError::AlreadyListed { .. }) => self.n.ipis_coalesced += 1,
                    Err(e) => panic!("SGI injection failed: {e}"),
                }
                if self.p[1].sides[v].phase != Phase::Idle {
                    continue;
                }
                self.p[1].sides[v].phase = Phase::Ack;
            }
            if self.p[p].wake(v, at) && self.p[p].preempt(now) {
                self.n.preemptions += 1;
            }
        }
    }

    /// Timer interrupt on `p`: charge, account, involuntarily
    /// deschedule the running vCPU.
    fn fire_timer(&mut self, m: &mut Machine, p: usize) {
        let core = self.p[p].core;
        let end = m
            .charge_as(
                core,
                "sched:timer",
                TraceKind::Sched,
                Cycles::new(TIMER_COST),
                TransitionId::SchedTimer,
            )
            .as_u64();
        self.n.timer_fires += 1;
        self.p[p].sched.tick();
        if self.p[p].preempt(end) {
            self.n.preemptions += 1;
            self.p[p].sched.yield_current();
        }
        self.p[p].quantum_left = QUANTUM;
    }

    /// Dispatches the scheduler's pick on `p`, charging a world switch
    /// when the pCPU changes vCPU (or comes out of idle). Returns
    /// `false` if the pCPU went idle instead.
    fn dispatch(&mut self, m: &mut Machine, p: usize) -> bool {
        let core = self.p[p].core;
        match self.p[p].sched.pick() {
            None => {
                self.p[p].last_ran = None; // idle: next dispatch switches in
                let w = self.p[p].next_wake();
                let now = m.now(core).as_u64();
                if w != u64::MAX && w > now {
                    m.wait_until(core, Cycles::new(w));
                }
                false
            }
            Some(v) => {
                // Steal counts time queued behind other vCPUs, not the
                // world switch this dispatch itself costs — sample the
                // clock before charging it.
                let now = m.now(core).as_u64();
                if self.p[p].last_ran != Some(v) {
                    m.charge_as(
                        core,
                        "sched:vm-switch",
                        TraceKind::Sched,
                        Cycles::new(self.costs.switch),
                        TransitionId::Sched,
                    );
                    self.n.vm_switches += 1;
                }
                let pcpu = &mut self.p[p];
                pcpu.sides[v].vcpu.schedule_in(now);
                pcpu.ready -= 1;
                pcpu.running = Some(v);
                pcpu.last_ran = Some(v);
                pcpu.quantum_left = QUANTUM;
                true
            }
        }
    }

    /// Charges `cost` guest cycles for vCPU `v` on `p` and burns
    /// timeslice. Returns the completion instant.
    fn charge_guest(
        &mut self,
        m: &mut Machine,
        p: usize,
        v: usize,
        label: &'static str,
        cost: u64,
        id: TransitionId,
    ) -> u64 {
        let kind = if id == TransitionId::LockHolderSpin {
            TraceKind::Guest
        } else if id == TransitionId::GicdEmulate
            || id == TransitionId::VirqInject
            || id == TransitionId::GicAccess
        {
            TraceKind::Emulation
        } else {
            TraceKind::Guest
        };
        let end = m
            .charge_as(self.p[p].core, label, kind, Cycles::new(cost), id)
            .as_u64();
        self.p[p].sched.charge_cycles(v, cost);
        self.p[p].quantum_left = self.p[p].quantum_left.saturating_sub(cost);
        end
    }

    /// Executes one slice of the running vCPU on `p`.
    fn exec_slice(&mut self, m: &mut Machine, recording: bool, p: usize) {
        let v = self.p[p].running.expect("exec_slice needs a running vcpu");
        if self.p[p].quantum_left == 0 {
            self.fire_timer(m, p);
            return;
        }
        let quantum = self.p[p].quantum_left;
        match self.p[p].sides[v].phase {
            Phase::Idle => unreachable!("idle vcpu dispatched"),
            Phase::Lock => {
                if self.vms[v].kick_lost {
                    // The previous transaction's kick was dropped: the
                    // guest's completion timeout fires at the top of
                    // this transaction, and it re-sends the SGI through
                    // the same emulated GICD_SGIR path. Both halves of
                    // the recovery are charged, so the stall shows up
                    // in this transaction's latency *and* in spans.
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "guest:kick-timeout",
                        KICK_TIMEOUT,
                        TransitionId::GuestRun,
                    );
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "gicd:sgir-resend",
                        self.costs.ipi_send,
                        TransitionId::GicdEmulate,
                    );
                    let sgir = (u64::from(SGI) << 24) | (0b10 << 16);
                    let effect = self.vms[v]
                        .dist
                        .mmio_write(dist_reg::GICD_SGIR, sgir, 0)
                        .expect("SGIR resend");
                    debug_assert_eq!(effect.sgi_targets.len(), 1);
                    let arrival = m.signal(self.p[0].core, self.p[1].core, Cycles::new(IPI_WIRE));
                    self.p[1].push_wake(arrival.as_u64(), v);
                    self.vms[v].kick_lost = false;
                    self.n.ipis_resent += 1;
                } else if self.vms[v].lock_held {
                    // The sibling holds the kernel lock; if it has been
                    // descheduled this is lock-holder preemption and the
                    // spin lasts until the scheduler runs it again.
                    let chunk = SPIN_SLICE.min(quantum);
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "guest:lock-spin",
                        chunk,
                        TransitionId::LockHolderSpin,
                    );
                    self.n.lock_spin += chunk;
                } else {
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "guest:lock-acquire",
                        LOCK_ACQ,
                        TransitionId::GuestRun,
                    );
                    self.p[p].sides[v].phase = Phase::Work(RR_WORK);
                }
            }
            Phase::Work(left) => {
                let chunk = left.min(quantum);
                self.charge_guest(m, p, v, "guest:rr-work", chunk, TransitionId::GuestRun);
                let left = left - chunk;
                self.p[p].sides[v].phase = if left == 0 {
                    Phase::Send
                } else {
                    Phase::Work(left)
                };
            }
            Phase::Send => {
                self.charge_guest(
                    m,
                    p,
                    v,
                    "gicd:sgir",
                    self.costs.ipi_send,
                    TransitionId::GicdEmulate,
                );
                // GICD_SGIR, model encoding: SGI id at [27:24], filter
                // TargetList at [29:28], CPU mask at [23:16] → cpu 1.
                let sgir = (u64::from(SGI) << 24) | (0b10 << 16);
                let effect = self.vms[v]
                    .dist
                    .mmio_write(dist_reg::GICD_SGIR, sgir, 0)
                    .expect("SGIR write");
                debug_assert_eq!(effect.sgi_targets.len(), 1);
                self.n.ipis_sent += 1;
                if m.fault(FaultPoint::VirqDrop) {
                    // The distributor accepted the guest's write, but
                    // the virtual-IRQ delivery to the sibling is lost:
                    // no wire signal, no wake. The guest only finds out
                    // through its completion timeout next transaction.
                    self.n.ipis_dropped += 1;
                    self.vms[v].kick_lost = true;
                } else {
                    let arrival = m.signal(self.p[0].core, self.p[1].core, Cycles::new(IPI_WIRE));
                    self.p[1].push_wake(arrival.as_u64(), v);
                    if recording {
                        m.loop_set_reg(1, arrival);
                    }
                }
                self.p[p].sides[v].phase = Phase::Finish;
            }
            Phase::Finish => {
                let end = self.charge_guest(
                    m,
                    p,
                    v,
                    "guest:tx-finish",
                    TX_FINISH,
                    TransitionId::GuestRun,
                );
                let vm = &mut self.vms[v];
                vm.done += 1;
                let latency = end - vm.txn_started;
                self.n.transactions += 1;
                self.n.sum_latency += latency;
                if vm.done < self.txns_per_vm {
                    let arrival = end + THINK;
                    self.p[0].push_wake(arrival, v);
                    if recording {
                        m.loop_set_reg(0, Cycles::new(arrival));
                    }
                }
                self.p[p].block_running(v, end);
            }
            Phase::Ack => {
                self.charge_guest(
                    m,
                    p,
                    v,
                    "virq:ack",
                    self.costs.virq_recv,
                    TransitionId::VirqInject,
                );
                let acked = self.vms[v].vgic_b.guest_ack();
                debug_assert_eq!(acked, Some(SGI));
                self.vms[v].lock_held = true;
                self.p[p].sides[v].phase = Phase::Locked(LOCKED_WORK);
            }
            Phase::Locked(left) => {
                let chunk = left.min(quantum);
                self.charge_guest(
                    m,
                    p,
                    v,
                    "guest:locked-section",
                    chunk,
                    TransitionId::GuestRun,
                );
                let left = left - chunk;
                self.p[p].sides[v].phase = if left == 0 {
                    self.vms[v].lock_held = false;
                    Phase::Tail(TAIL_WORK)
                } else {
                    Phase::Locked(left)
                };
            }
            Phase::Tail(left) => {
                let chunk = left.min(quantum);
                self.charge_guest(m, p, v, "guest:softirq-tail", chunk, TransitionId::GuestRun);
                let left = left - chunk;
                self.p[p].sides[v].phase = if left == 0 {
                    Phase::Eoi
                } else {
                    Phase::Tail(left)
                };
            }
            Phase::Eoi => {
                let end =
                    self.charge_guest(m, p, v, "virq:eoi", self.costs.eoi, TransitionId::GicAccess);
                self.vms[v].vgic_b.guest_eoi(SGI).expect("EOI of acked SGI");
                if self.vms[v].vgic_b.pending_virq().is_some() {
                    // A coalesced kick is already pending: service it
                    // without returning to WFI.
                    self.p[p].sides[v].phase = Phase::Ack;
                } else {
                    self.p[p].block_running(v, end);
                }
            }
        }
    }

    /// One event-loop step: advance the pCPU that can act earliest.
    /// Returns `false` when neither pCPU will ever act again.
    fn step(&mut self, m: &mut Machine, recording: bool) -> bool {
        let t0 = self.actionable(m, 0);
        let t1 = self.actionable(m, 1);
        if t0 == u64::MAX && t1 == u64::MAX {
            return false;
        }
        let p = if t0 <= t1 { 0 } else { 1 };
        self.deliver_wakes(m, p);
        if self.p[p].running.is_none() && !self.dispatch(m, p) {
            return true; // went idle; the other pCPU (or a wake) is next
        }
        self.exec_slice(m, recording, p);
        true
    }

    /// Total vCPU steal, live bookkeeping plus replayed iterations.
    fn steal_total(&self) -> u64 {
        self.sides().map(|s| s.vcpu.steal_cycles()).sum::<u64>() + self.n.steal_replayed
    }

    /// Every vCPU: pCPU0's primaries, then pCPU1's siblings.
    fn sides(&self) -> impl Iterator<Item = &Side> {
        self.p.iter().flat_map(|pcpu| &pcpu.sides)
    }
}

/// Runs one consolidation cell (artifact path: ambient compile toggle,
/// no profiling).
///
/// # Errors
///
/// Propagates [`Error`] from building the probe model (e.g. a bad
/// `HVX_COST_PERTURB` spec).
pub fn run_cell(
    kind: HvKind,
    ratio: u32,
    policy: SchedPolicy,
    txns_per_vm: u32,
    compile: bool,
) -> Result<CellResult, Error> {
    run_cell_with(CellConfig {
        kind,
        ratio,
        policy,
        txns_per_vm,
        compile,
        profiling: false,
        fault: None,
    })
}

/// Runs one consolidation cell with full knob control. With
/// `cfg.profiling` the machine records span attribution and per-vCPU
/// metrics, and the caller can assert conservation on the returned
/// machine via [`run_cell_machine`].
pub fn run_cell_with(cfg: CellConfig) -> Result<CellResult, Error> {
    run_cell_machine(cfg).map(|(r, _)| r)
}

/// [`run_cell_with`], also returning the machine the cell ran on (for
/// conservation and metrics assertions).
pub fn run_cell_machine(cfg: CellConfig) -> Result<(CellResult, Machine), Error> {
    assert!(cfg.ratio >= 1, "ratio must be at least 1:1");
    let mut sim = SimBuilder::new(cfg.kind).without_tracing().build()?;
    // One model serves both the probe and the cell: the cell runs on a
    // copy of the model's machine as built (topology, tracing off, the
    // thread's ambient fault plan and watchdog), taken before the
    // probe's charges advance the original's clocks.
    let mut m = sim.machine().clone();
    let costs = probe_costs(sim.as_dyn_mut());
    if cfg.profiling {
        m.enable_profiling();
    }
    if let Some(plan) = cfg.fault.clone() {
        // Arming the plan clears loop-compiler state, so a fault-armed
        // cell structurally cannot compile: loop_begin() below sees
        // faults installed and declines (fault sweeps must really
        // execute every consult, never replay around it).
        m.set_fault_plan(plan);
    }
    let topo = [m.topology().guest_core(0), m.topology().guest_core(1)];
    let result = match cfg.policy {
        SchedPolicy::Credit => simulate::<CreditVcpuSched>(&cfg, costs, topo, &mut m),
        SchedPolicy::Cfs => simulate::<CfsScheduler>(&cfg, costs, topo, &mut m),
    };
    Ok((result, m))
}

/// Runs `cfg`'s cell on `m` under scheduler `S`.
fn simulate<S: VcpuScheduler + Default>(
    cfg: &CellConfig,
    costs: Costs,
    topo: [CoreId; 2],
    m: &mut Machine,
) -> CellResult {
    let mut cell = Cell::<S>::new(costs, cfg.ratio, cfg.txns_per_vm, topo);
    // Compile eligibility: only the uncontended 1:1 cell is provably
    // periodic per-pCPU (one transaction = one machine-level iteration,
    // with the two loop-carried instants — next arrival and the
    // in-flight SGI — in loop registers). loop_begin() itself declines
    // profiled or fault-armed machines; everything else interprets.
    let session = cfg.compile && cfg.ratio == 1 && m.loop_begin().is_ok();
    if session {
        let total = u64::from(cfg.txns_per_vm);
        // Counter snapshot at the start of the most recent live
        // iteration; `current - snapshot` is one steady iteration's
        // delta once the loop has settled.
        let mut snap = cell.n;
        let mut steal_snap = cell.steal_total();
        while cell.vms[0].done < cfg.txns_per_vm {
            let done = u64::from(cell.vms[0].done);
            let skipped = m.loop_replay(total - done);
            if skipped > 0 {
                // Fast-forward host state across the replayed blocks:
                // per-iteration counter deltas are loop-invariant in
                // steady state (one transaction each), and the two
                // loop-carried instants — the next request arrival and
                // the in-flight SGI — come back through the registers.
                let steal_delta = cell.steal_total() - steal_snap;
                cell.n.extend_scaled(&snap, skipped);
                cell.n.steal_replayed += steal_delta * skipped;
                cell.vms[0].done += skipped as u32;
                cell.p[0].wakes.clear();
                if cell.vms[0].done < cfg.txns_per_vm {
                    if let Some(arrival) = m.loop_reg(0) {
                        cell.p[0].push_wake(arrival.as_u64(), 0);
                    }
                }
                cell.p[1].wakes.clear();
                if let Some(ipi) = m.loop_reg(1) {
                    cell.p[1].push_wake(ipi.as_u64(), 0);
                }
                continue;
            }
            m.loop_iter_begin();
            snap = cell.n;
            steal_snap = cell.steal_total();
            let target = cell.vms[0].done + 1;
            while cell.vms[0].done < target && cell.step(m, true) {}
        }
        m.loop_end();
        // Drain the sibling's final transaction outside the session.
        while cell.step(m, false) {}
    } else {
        while cell.step(m, false) {}
    }

    let steal = cell.steal_total();
    if m.profiling() {
        m.bump("consolidation.steal_cycles", steal);
        m.bump("consolidation.lock_spin_cycles", cell.n.lock_spin);
        m.bump("consolidation.vm_switches", cell.n.vm_switches);
        m.bump("consolidation.ipis_coalesced", cell.n.ipis_coalesced);
        for side in cell.sides() {
            m.observe("consolidation.vcpu_steal", side.vcpu.steal_cycles());
            m.observe("consolidation.vcpu_ran", side.vcpu.ran_cycles());
        }
    }
    CellResult {
        column: cfg.kind.to_string(),
        ratio: cfg.ratio,
        sched: cfg.policy.name().to_string(),
        txns_per_vm: cfg.txns_per_vm,
        transactions: cell.n.transactions,
        sum_latency_cycles: cell.n.sum_latency,
        steal_cycles: steal,
        lock_spin_cycles: cell.n.lock_spin,
        vm_switches: cell.n.vm_switches,
        preemptions: cell.n.preemptions,
        timer_fires: cell.n.timer_fires,
        ipis_sent: cell.n.ipis_sent,
        ipis_coalesced: cell.n.ipis_coalesced,
        ipis_dropped: cell.n.ipis_dropped,
        ipis_resent: cell.n.ipis_resent,
        makespan_cycles: m.global_now().as_u64(),
    }
}

/// Renders consolidation cells as the oversubscription sweep table.
/// `cells` must be grouped per hypervisor in [`RATIOS`] order (the
/// runner's plan order); missing cells were degraded by the hardened
/// runner and render as `n/a`.
pub fn render_sweep(sched: &str, cells: &[Option<CellResult>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("-- scheduler: {sched} --\n"));
    out.push_str(&format!(
        "{:<12}{:>6}{:>14}{:>12}{:>12}{:>10}{:>10}\n",
        "hypervisor", "ratio", "mean RR (us)", "steal %", "spin kcyc", "switches", "coalesced"
    ));
    for cell in cells {
        match cell {
            Some(c) => out.push_str(&format!(
                "{:<12}{:>4}:1{:>14.2}{:>12.2}{:>12}{:>10}{:>10}\n",
                c.column,
                c.ratio,
                c.mean_latency_us(),
                c.steal_pct(),
                c.lock_spin_cycles / 1_000,
                c.vm_switches,
                c.ipis_coalesced
            )),
            None => out.push_str(&format!("{:<12}{:>6}{:>14}\n", "?", "?", "n/a")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_core::SchedPolicy;

    const T: u32 = 12;

    /// Runs a clean cell and returns its result together with the
    /// iterations the loop compiler replayed on its machine.
    fn run_replayed(kind: HvKind, ratio: u32, policy: SchedPolicy, txns: u32) -> (CellResult, u64) {
        let (r, m) = run_cell_machine(CellConfig {
            kind,
            ratio,
            policy,
            txns_per_vm: txns,
            compile: true,
            profiling: false,
            fault: None,
        })
        .unwrap();
        (r, m.iters_replayed())
    }

    #[test]
    fn cells_are_deterministic() {
        for policy in SchedPolicy::ALL {
            for ratio in [1, 4] {
                let a = run_cell(HvKind::KvmArm, ratio, policy, T, false).unwrap();
                let b = run_cell(HvKind::KvmArm, ratio, policy, T, false).unwrap();
                assert_eq!(a, b, "{policy:?} {ratio}:1");
                assert_eq!(a.transactions, u64::from(ratio) * u64::from(T));
            }
        }
    }

    #[test]
    fn steal_and_latency_grow_with_the_ratio() {
        for kind in HvKind::MEASURED {
            for policy in SchedPolicy::ALL {
                let mut prev: Option<CellResult> = None;
                for ratio in RATIOS {
                    let c = run_cell(kind, ratio, policy, T, false).unwrap();
                    if let Some(p) = &prev {
                        assert!(
                            c.steal_cycles > p.steal_cycles,
                            "{kind:?}/{policy:?}: steal not monotone at {ratio}:1 \
                             ({} <= {})",
                            c.steal_cycles,
                            p.steal_cycles
                        );
                        assert!(
                            c.mean_latency_us() > p.mean_latency_us(),
                            "{kind:?}/{policy:?}: latency not monotone at {ratio}:1"
                        );
                    }
                    prev = Some(c);
                }
            }
        }
    }

    #[test]
    fn uncontended_cells_have_no_steal() {
        let c = run_cell(HvKind::XenArm, 1, SchedPolicy::Credit, T, false).unwrap();
        // With a pCPU to itself a vCPU dispatches the instant it wakes:
        // zero steal, and no SGI ever finds a previous one pending.
        assert_eq!(c.steal_cycles, 0);
        assert_eq!(c.ipis_coalesced, 0);
        assert_eq!(c.transactions, u64::from(T));
        // One switch-in per transaction per pCPU.
        assert_eq!(c.vm_switches, 2 * u64::from(T));
        // The slice timer still runs (RR_WORK exceeds one quantum), but
        // re-dispatching the sole vCPU costs no world switch.
        assert!(c.timer_fires >= u64::from(T));
    }

    #[test]
    fn compiled_one_to_one_cell_replays_and_matches_interpretation() {
        for kind in [HvKind::KvmArm, HvKind::XenX86] {
            let (compiled, replayed) = run_replayed(kind, 1, SchedPolicy::Credit, 64);
            let interpreted = run_cell(kind, 1, SchedPolicy::Credit, 64, false).unwrap();
            assert!(
                replayed > 0,
                "{kind:?}: 1:1 cell never engaged the compiler"
            );
            assert_eq!(compiled, interpreted, "{kind:?}");
        }
    }

    #[test]
    fn contended_cells_fall_back_to_interpretation() {
        let (c, replayed) = run_replayed(HvKind::KvmArm, 2, SchedPolicy::Cfs, T);
        assert_eq!(replayed, 0);
        let i = run_cell(HvKind::KvmArm, 2, SchedPolicy::Cfs, T, false).unwrap();
        assert_eq!(c, i);
    }

    #[test]
    fn profiled_cells_conserve_spans_and_surface_metrics() {
        let (r, m) = run_cell_machine(CellConfig {
            kind: HvKind::KvmArm,
            ratio: 8,
            policy: SchedPolicy::Credit,
            txns_per_vm: T,
            compile: true, // profiling forces loop_begin to decline
            profiling: true,
            fault: None,
        })
        .unwrap();
        assert_eq!(m.iters_replayed(), 0);
        m.assert_conservation();
        let spans = m.spans().expect("profiled");
        assert!(spans.exclusive(TransitionId::SchedTimer) > 0);
        assert!(spans.exclusive(TransitionId::LockHolderSpin) > 0);
        assert!(spans.exclusive(TransitionId::Sched) > 0);
        // Unprofiled, identical timing (observation never shifts time).
        let plain = run_cell(HvKind::KvmArm, 8, SchedPolicy::Credit, T, false).unwrap();
        assert_eq!(plain.makespan_cycles, r.makespan_cycles);
    }

    #[test]
    fn schedulers_differ_under_contention() {
        let credit = run_cell(HvKind::KvmArm, 8, SchedPolicy::Credit, T, false).unwrap();
        let cfs = run_cell(HvKind::KvmArm, 8, SchedPolicy::Cfs, T, false).unwrap();
        // Different algorithms must produce genuinely different
        // interleavings, not just a relabelled copy.
        assert_ne!(credit.makespan_cycles, cfs.makespan_cycles);
    }

    fn faulted_cfg(ratio: u32, rate: f64, compile: bool) -> CellConfig {
        CellConfig {
            kind: HvKind::KvmArm,
            ratio,
            policy: SchedPolicy::Credit,
            txns_per_vm: T,
            compile,
            profiling: false,
            fault: Some(FaultPlan::new(11).with_rate(FaultPoint::VirqDrop, rate)),
        }
    }

    #[test]
    fn dropped_kicks_are_deterministic_and_surface_as_rr_stalls() {
        let clean = run_cell(HvKind::KvmArm, 4, SchedPolicy::Credit, T, false).unwrap();
        let a = run_cell_with(faulted_cfg(4, 0.3, false)).unwrap();
        let b = run_cell_with(faulted_cfg(4, 0.3, false)).unwrap();
        assert_eq!(a, b, "fault injection must be deterministic");
        assert!(a.ipis_dropped > 0, "a 30% drop rate must drop kicks");
        assert_eq!(clean.ipis_dropped, 0);
        // Every drop except a VM's final transaction is recovered by a
        // timeout + resend; resends can never exceed drops.
        assert!(a.ipis_resent <= a.ipis_dropped);
        assert!(a.ipis_resent > 0, "recovery path must engage");
        // The same transactions complete on the primary side, but the
        // stalled kicks inflate latency and stretch the makespan.
        assert_eq!(a.transactions, clean.transactions);
        assert!(
            a.sum_latency_cycles > clean.sum_latency_cycles,
            "dropped kicks must stall TCP_RR transactions \
             ({} <= {})",
            a.sum_latency_cycles,
            clean.sum_latency_cycles
        );
        assert!(a.makespan_cycles > clean.makespan_cycles);
    }

    #[test]
    fn fault_armed_cells_interpret_never_compile() {
        let (c, m) = run_cell_machine(faulted_cfg(1, 0.2, true)).unwrap();
        assert_eq!(
            m.iters_replayed(),
            0,
            "a fault-armed 1:1 cell must decline the loop compiler"
        );
        // And it is the same result the interpreter produces directly.
        let i = run_cell_with(faulted_cfg(1, 0.2, false)).unwrap();
        assert_eq!(c, i);
    }

    #[test]
    fn fault_seed_changes_the_drop_pattern() {
        let a = run_cell_with(faulted_cfg(4, 0.3, false)).unwrap();
        let mut cfg = faulted_cfg(4, 0.3, false);
        cfg.fault = Some(FaultPlan::new(12).with_rate(FaultPoint::VirqDrop, 0.3));
        let b = run_cell_with(cfg).unwrap();
        assert_ne!(
            (a.ipis_dropped, a.makespan_cycles),
            (b.ipis_dropped, b.makespan_cycles),
            "different seeds must produce different fault schedules"
        );
    }

    #[test]
    fn render_marks_failed_cells() {
        let c = run_cell(HvKind::KvmArm, 1, SchedPolicy::Credit, 4, false).unwrap();
        let s = render_sweep("credit", &[Some(c), None]);
        assert!(s.contains("KVM ARM"));
        assert!(s.contains("n/a"));
    }
}
