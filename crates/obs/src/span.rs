//! Span-based cycle attribution.
//!
//! Every architecturally interesting hypervisor transition opens a
//! **span** keyed by a static [`TransitionId`]. Spans nest; the engine
//! charges every cycle to the *innermost* open span, so per-transition
//! exclusive totals are exact and — together with the
//! [`SpanTracer::unattributed`] remainder — sum to the run total. That
//! conservation property is what lets the profile table reproduce the
//! paper's Table III breakdown from instrumentation instead of from
//! summed cost constants.

use std::fmt;

/// Statically-known identity of one hypervisor transition class.
///
/// The set covers the transitions the paper attributes cycles to:
/// hardware mode switches (`trap_to_el2`, `eret`, `vmcs_world_switch`),
/// the context save/restore classes of Table III (with the VGIC
/// list-register window split out), interrupt virtualization, and the
/// paravirtual I/O signalling paths of §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TransitionId {
    /// Guest vCPU executing its own instructions.
    GuestRun,
    /// Guest application/OS network stack processing.
    GuestStack,
    /// Hardware trap from the VM into EL2 (or an x86 `#VMEXIT` reaching
    /// the hypervisor entry stub).
    TrapToEl2,
    /// Exception return from hypervisor back into the VM.
    Eret,
    /// x86 VMCS-backed world switch (`vmexit`/`vmresume` microcode).
    VmcsWorldSwitch,
    /// Saving a VM's register state (Table III's save classes).
    ContextSave,
    /// Restoring a VM's register state.
    ContextRestore,
    /// Saving the VGIC virtual-interface state, list registers included.
    VgicLrSave,
    /// Restoring the VGIC virtual-interface state.
    VgicLrRestore,
    /// Enabling/disabling EL2 virtualization features (split-mode KVM's
    /// per-transition reconfiguration).
    VirtToggle,
    /// Reads/writes of the physical or virtual GIC CPU interface
    /// (acks, EOIs, deactivations).
    GicAccess,
    /// Emulating a guest access to the virtual distributor.
    GicdEmulate,
    /// Hypervisor/host exit reason decode and routing.
    HostDispatch,
    /// Decoding and emulating a trapped MMIO access.
    MmioDecode,
    /// Injecting a virtual interrupt (list-register programming and the
    /// bookkeeping around it).
    VirqInject,
    /// Sending a Xen event-channel notification.
    EventChannelSignal,
    /// Delivering an event upcall into a guest.
    EventUpcall,
    /// Guest→host doorbell for a virtio queue (ioeventfd/irqfd edge).
    VhostKick,
    /// vhost worker processing virtio descriptors.
    VhostBackend,
    /// Copying a grant-mapped buffer between domains.
    GrantCopy,
    /// Xen netback/blkback request processing in Dom0.
    Netback,
    /// Host/Dom0 kernel network stack processing.
    HostStack,
    /// Host-side interrupt handling for a physical device.
    HostIrq,
    /// Hypervisor scheduler work (domain/VM switches, wakeups).
    Sched,
    /// NIC DMA engine moving a frame.
    NicDma,
    /// Device service time (disk, emulated I/O port).
    DeviceService,
    // Recovery transitions (fault injection). New ids append here so
    // earlier indices — and every pinned profile artifact — are stable.
    /// Virtio driver re-kicking a queue after a lost doorbell or a TX
    /// completion timeout.
    VirtioRekick,
    /// Re-sending a Xen event-channel notification after a dropped
    /// upcall.
    EvtchnRedeliver,
    /// Retrying a transiently-failed grant copy (bounded exponential
    /// backoff in netfront/netback).
    GrantRetry,
    /// Guest TCP retransmit-timer processing (timeout detection plus
    /// the retransmitted segment's stack work).
    TcpRetransmit,
    /// Hypervisor scheduler-timer interrupt: timeslice expiry handling
    /// on an oversubscribed pCPU (consolidation scenarios).
    SchedTimer,
    /// Guest cycles burnt spinning on a lock whose holder vCPU was
    /// preempted by the hypervisor scheduler (lock-holder preemption).
    LockHolderSpin,
}

impl TransitionId {
    /// Every transition, in breakdown-table row order.
    pub const ALL: [TransitionId; 32] = [
        TransitionId::GuestRun,
        TransitionId::GuestStack,
        TransitionId::TrapToEl2,
        TransitionId::Eret,
        TransitionId::VmcsWorldSwitch,
        TransitionId::ContextSave,
        TransitionId::ContextRestore,
        TransitionId::VgicLrSave,
        TransitionId::VgicLrRestore,
        TransitionId::VirtToggle,
        TransitionId::GicAccess,
        TransitionId::GicdEmulate,
        TransitionId::HostDispatch,
        TransitionId::MmioDecode,
        TransitionId::VirqInject,
        TransitionId::EventChannelSignal,
        TransitionId::EventUpcall,
        TransitionId::VhostKick,
        TransitionId::VhostBackend,
        TransitionId::GrantCopy,
        TransitionId::Netback,
        TransitionId::HostStack,
        TransitionId::HostIrq,
        TransitionId::Sched,
        TransitionId::NicDma,
        TransitionId::DeviceService,
        TransitionId::VirtioRekick,
        TransitionId::EvtchnRedeliver,
        TransitionId::GrantRetry,
        TransitionId::TcpRetransmit,
        TransitionId::SchedTimer,
        TransitionId::LockHolderSpin,
    ];

    /// Number of transition classes.
    pub const COUNT: usize = TransitionId::ALL.len();

    /// The stable snake_case name used in folded stacks and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TransitionId::GuestRun => "guest_run",
            TransitionId::GuestStack => "guest_stack",
            TransitionId::TrapToEl2 => "trap_to_el2",
            TransitionId::Eret => "eret",
            TransitionId::VmcsWorldSwitch => "vmcs_world_switch",
            TransitionId::ContextSave => "context_save",
            TransitionId::ContextRestore => "context_restore",
            TransitionId::VgicLrSave => "vgic_lr_save",
            TransitionId::VgicLrRestore => "vgic_lr_restore",
            TransitionId::VirtToggle => "virt_toggle",
            TransitionId::GicAccess => "gic_access",
            TransitionId::GicdEmulate => "gicd_emulate",
            TransitionId::HostDispatch => "host_dispatch",
            TransitionId::MmioDecode => "mmio_decode",
            TransitionId::VirqInject => "virq_inject",
            TransitionId::EventChannelSignal => "event_channel_signal",
            TransitionId::EventUpcall => "event_upcall",
            TransitionId::VhostKick => "vhost_kick",
            TransitionId::VhostBackend => "vhost_backend",
            TransitionId::GrantCopy => "grant_copy",
            TransitionId::Netback => "netback",
            TransitionId::HostStack => "host_stack",
            TransitionId::HostIrq => "host_irq",
            TransitionId::Sched => "sched",
            TransitionId::NicDma => "nic_dma",
            TransitionId::DeviceService => "device_service",
            TransitionId::VirtioRekick => "virtio_rekick",
            TransitionId::EvtchnRedeliver => "evtchn_redeliver",
            TransitionId::GrantRetry => "grant_retry",
            TransitionId::TcpRetransmit => "tcp_retransmit",
            TransitionId::SchedTimer => "sched_timer",
            TransitionId::LockHolderSpin => "lock_holder_spin",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// One row of a span breakdown (see [`SpanTracer::rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRow {
    /// Which transition.
    pub id: TransitionId,
    /// Times the span was entered.
    pub count: u64,
    /// Cycles charged while this span was innermost.
    pub exclusive: u64,
    /// Cycles charged while this span was open anywhere on the stack
    /// (self plus children; recursive re-entries counted once).
    pub inclusive: u64,
}

/// Sentinel for "no folded-path slot cached" (empty span stack).
const NO_SLOT: usize = usize::MAX;

/// The span tracer: a stack of open transitions plus per-transition
/// exclusive/inclusive totals and folded-stack path accumulation.
///
/// The charge hot path is allocation-free: folded-path slots are
/// resolved once per [`SpanTracer::enter`]/[`SpanTracer::exit`] and
/// cached, so [`SpanTracer::charge`] is a few array additions.
///
/// # Conservation
///
/// For any sequence of balanced `enter`/`exit` pairs interleaved with
/// `charge` calls:
///
/// ```text
/// Σ exclusive(id) + unattributed() == total()
/// ```
///
/// holds exactly — the engine asserts the same identity against the
/// machine's per-core busy totals.
///
/// # Examples
///
/// ```
/// use hvx_obs::{SpanTracer, TransitionId};
///
/// let mut t = SpanTracer::new();
/// t.enter(TransitionId::ContextSave);
/// t.charge(100);
/// t.enter(TransitionId::VgicLrSave); // nested: innermost gets charged
/// t.charge(40);
/// t.exit(TransitionId::VgicLrSave);
/// t.charge(10);
/// t.exit(TransitionId::ContextSave);
/// assert_eq!(t.exclusive(TransitionId::ContextSave), 110);
/// assert_eq!(t.exclusive(TransitionId::VgicLrSave), 40);
/// assert_eq!(t.inclusive(TransitionId::ContextSave), 150);
/// assert_eq!(t.total(), 150);
/// ```
#[derive(Debug, Clone)]
pub struct SpanTracer {
    /// Open spans, innermost last: `(id index, inclusive accumulator)`.
    stack: Vec<(u8, u64)>,
    /// How many times each id is currently on the stack (recursion guard
    /// for inclusive totals).
    on_stack: [u32; TransitionId::COUNT],
    excl: [u64; TransitionId::COUNT],
    incl: [u64; TransitionId::COUNT],
    counts: [u64; TransitionId::COUNT],
    unattributed: u64,
    total: u64,
    /// Folded call paths (outermost first) and their exclusive cycles.
    folded: Vec<(Vec<u8>, u64)>,
    /// Cached index into `folded` for the current stack.
    cur_slot: usize,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer::new()
    }
}

impl SpanTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        SpanTracer {
            stack: Vec::with_capacity(8),
            on_stack: [0; TransitionId::COUNT],
            excl: [0; TransitionId::COUNT],
            incl: [0; TransitionId::COUNT],
            counts: [0; TransitionId::COUNT],
            unattributed: 0,
            total: 0,
            folded: Vec::new(),
            cur_slot: NO_SLOT,
        }
    }

    /// Opens a span. Spans nest; close with a matching
    /// [`SpanTracer::exit`].
    pub fn enter(&mut self, id: TransitionId) {
        let i = id.index();
        self.counts[i] += 1;
        self.on_stack[i] += 1;
        self.stack.push((i as u8, 0));
        self.cur_slot = self.slot_for_current_path();
    }

    /// Closes the innermost span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (unbalanced
    /// instrumentation is a bug, not a runtime condition).
    pub fn exit(&mut self, id: TransitionId) {
        let (top, acc) = self
            .stack
            .pop()
            .unwrap_or_else(|| panic!("span_exit({}) with no open span", id.name()));
        assert_eq!(
            top as usize,
            id.index(),
            "span_exit({}) but innermost open span is {}",
            id.name(),
            TransitionId::ALL[top as usize].name()
        );
        let i = id.index();
        self.on_stack[i] -= 1;
        // Inclusive: count each cycle once per id even under recursion.
        if self.on_stack[i] == 0 {
            self.incl[i] += acc;
        }
        if let Some((_, parent_acc)) = self.stack.last_mut() {
            *parent_acc += acc;
            self.cur_slot = self.slot_for_current_path();
        } else {
            self.cur_slot = NO_SLOT;
        }
    }

    /// Attributes `cycles` to the innermost open span (or to the
    /// unattributed bucket if none is open). Allocation-free.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.total += cycles;
        match self.stack.last_mut() {
            Some((i, acc)) => {
                self.excl[*i as usize] += cycles;
                *acc += cycles;
                self.folded[self.cur_slot].1 += cycles;
            }
            None => self.unattributed += cycles,
        }
    }

    fn slot_for_current_path(&mut self) -> usize {
        let path: Vec<u8> = self.stack.iter().map(|(i, _)| *i).collect();
        if let Some(pos) = self.folded.iter().position(|(p, _)| *p == path) {
            return pos;
        }
        self.folded.push((path, 0));
        self.folded.len() - 1
    }

    /// Cycles charged while `id` was the innermost open span.
    pub fn exclusive(&self, id: TransitionId) -> u64 {
        self.excl[id.index()]
    }

    /// Cycles charged while `id` was open anywhere on the stack.
    /// Only complete (exited) spans contribute.
    pub fn inclusive(&self, id: TransitionId) -> u64 {
        self.incl[id.index()]
    }

    /// Times `id` was entered.
    pub fn count(&self, id: TransitionId) -> u64 {
        self.counts[id.index()]
    }

    /// Cycles charged with no span open.
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }

    /// Every cycle ever charged through this tracer.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current nesting depth (0 = no open span).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The active breakdown rows, in [`TransitionId::ALL`] order,
    /// skipping transitions that never ran.
    pub fn rows(&self) -> Vec<SpanRow> {
        TransitionId::ALL
            .into_iter()
            .filter(|id| self.counts[id.index()] > 0 || self.excl[id.index()] > 0)
            .map(|id| SpanRow {
                id,
                count: self.counts[id.index()],
                exclusive: self.excl[id.index()],
                inclusive: self.incl[id.index()],
            })
            .collect()
    }

    /// Folds `other` into `self` (cross-thread scenario merge). Both
    /// tracers must have no open spans.
    ///
    /// # Panics
    ///
    /// Panics if either tracer still has open spans.
    pub fn merge(&mut self, other: &SpanTracer) {
        assert!(
            self.stack.is_empty() && other.stack.is_empty(),
            "merging tracers with open spans"
        );
        for i in 0..TransitionId::COUNT {
            self.excl[i] += other.excl[i];
            self.incl[i] += other.incl[i];
            self.counts[i] += other.counts[i];
        }
        self.unattributed += other.unattributed;
        self.total += other.total;
        for (path, cycles) in &other.folded {
            if let Some(pos) = self.folded.iter().position(|(p, _)| p == path) {
                self.folded[pos].1 += cycles;
            } else {
                self.folded.push((path.clone(), *cycles));
            }
        }
        self.cur_slot = NO_SLOT;
    }

    /// Renders the folded-stack flamegraph text: one line per unique
    /// span path, `root;outer;inner <exclusive cycles>`, with
    /// zero-cycle frames dropped deterministically and parents emitted
    /// before children. Siblings order by (subtree cycles descending,
    /// name ascending), so the heaviest call path reads top-down and
    /// the bytes are stable regardless of discovery order or worker
    /// count. Unattributed cycles fold into the bare `root` frame,
    /// which — when present — always leads.
    pub fn folded(&self, root: &str) -> String {
        /// One frame of the reassembled call tree.
        struct Node {
            name: &'static str,
            exclusive: u64,
            subtree: u64,
            children: Vec<Node>,
        }
        fn insert(node: &mut Node, path: &[u8], cycles: u64) {
            node.subtree += cycles;
            let Some((head, rest)) = path.split_first() else {
                node.exclusive += cycles;
                return;
            };
            let name = TransitionId::ALL[*head as usize].name();
            let child = match node.children.iter_mut().position(|c| c.name == name) {
                Some(i) => &mut node.children[i],
                None => {
                    node.children.push(Node {
                        name,
                        exclusive: 0,
                        subtree: 0,
                        children: Vec::new(),
                    });
                    node.children.last_mut().expect("just pushed")
                }
            };
            insert(child, rest, cycles);
        }
        fn emit(node: &Node, prefix: &str, out: &mut String) {
            if node.exclusive > 0 {
                out.push_str(prefix);
                out.push(' ');
                out.push_str(&node.exclusive.to_string());
                out.push('\n');
            }
            let mut order: Vec<&Node> = node.children.iter().collect();
            order.sort_by(|a, b| b.subtree.cmp(&a.subtree).then_with(|| a.name.cmp(b.name)));
            for child in order {
                emit(child, &format!("{prefix};{}", child.name), out);
            }
        }
        let mut tree = Node {
            name: "",
            exclusive: self.unattributed,
            subtree: self.unattributed,
            children: Vec::new(),
        };
        for (path, cycles) in &self.folded {
            if *cycles > 0 {
                insert(&mut tree, path, *cycles);
            }
        }
        let mut out = String::new();
        emit(&tree, root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_are_unique_and_indexed() {
        for (i, id) in TransitionId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
            assert!(!id.name().is_empty());
        }
        let mut names: Vec<_> = TransitionId::ALL.iter().map(|i| i.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), TransitionId::COUNT);
    }

    #[test]
    fn unattributed_catches_bare_charges() {
        let mut t = SpanTracer::new();
        t.charge(7);
        t.enter(TransitionId::TrapToEl2);
        t.charge(20);
        t.exit(TransitionId::TrapToEl2);
        t.charge(3);
        assert_eq!(t.unattributed(), 10);
        assert_eq!(t.exclusive(TransitionId::TrapToEl2), 20);
        assert_eq!(t.total(), 30);
    }

    #[test]
    fn conservation_holds_under_nesting() {
        let mut t = SpanTracer::new();
        t.charge(1);
        for _ in 0..3 {
            t.enter(TransitionId::ContextSave);
            t.charge(100);
            t.enter(TransitionId::VgicLrSave);
            t.charge(40);
            t.exit(TransitionId::VgicLrSave);
            t.exit(TransitionId::ContextSave);
        }
        let excl_sum: u64 = TransitionId::ALL.into_iter().map(|i| t.exclusive(i)).sum();
        assert_eq!(excl_sum + t.unattributed(), t.total());
        assert_eq!(t.total(), 1 + 3 * 140);
        assert_eq!(t.inclusive(TransitionId::ContextSave), 3 * 140);
        assert_eq!(t.count(TransitionId::VgicLrSave), 3);
    }

    #[test]
    fn recursive_spans_count_inclusive_once() {
        let mut t = SpanTracer::new();
        t.enter(TransitionId::Sched);
        t.charge(10);
        t.enter(TransitionId::Sched);
        t.charge(5);
        t.exit(TransitionId::Sched);
        t.exit(TransitionId::Sched);
        assert_eq!(t.exclusive(TransitionId::Sched), 15);
        assert_eq!(t.inclusive(TransitionId::Sched), 15);
    }

    #[test]
    #[should_panic(expected = "innermost open span")]
    fn mismatched_exit_panics() {
        let mut t = SpanTracer::new();
        t.enter(TransitionId::TrapToEl2);
        t.exit(TransitionId::Eret);
    }

    #[test]
    fn folded_output_is_sorted_and_complete() {
        let mut t = SpanTracer::new();
        t.charge(5);
        t.enter(TransitionId::TrapToEl2);
        t.charge(20);
        t.exit(TransitionId::TrapToEl2);
        t.enter(TransitionId::ContextSave);
        t.enter(TransitionId::VgicLrSave);
        t.charge(40);
        t.exit(TransitionId::VgicLrSave);
        t.exit(TransitionId::ContextSave);
        let s = t.folded("kvm_arm");
        assert_eq!(
            s,
            "kvm_arm 5\nkvm_arm;context_save;vgic_lr_save 40\nkvm_arm;trap_to_el2 20\n"
        );
    }

    #[test]
    fn folded_orders_siblings_by_cycles_then_name_and_drops_zero_frames() {
        let mut t = SpanTracer::new();
        // Two siblings with equal subtree weight: name breaks the tie.
        t.enter(TransitionId::Eret);
        t.charge(30);
        t.exit(TransitionId::Eret);
        t.enter(TransitionId::ContextSave);
        t.charge(30);
        t.exit(TransitionId::ContextSave);
        // A heavier subtree whose own frame is zero-cost: the parent
        // frame gets no line, but its child sorts by the subtree sum.
        t.enter(TransitionId::HostDispatch);
        t.enter(TransitionId::MmioDecode);
        t.charge(100);
        t.exit(TransitionId::MmioDecode);
        t.exit(TransitionId::HostDispatch);
        // A zero-cycle leaf path: deterministically dropped.
        t.enter(TransitionId::Sched);
        t.charge(0);
        t.exit(TransitionId::Sched);
        assert_eq!(
            t.folded("r"),
            "r;host_dispatch;mmio_decode 100\nr;context_save 30\nr;eret 30\n"
        );
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = SpanTracer::new();
        a.enter(TransitionId::Eret);
        a.charge(10);
        a.exit(TransitionId::Eret);
        let mut b = SpanTracer::new();
        b.enter(TransitionId::Eret);
        b.charge(32);
        b.exit(TransitionId::Eret);
        b.charge(8);
        a.merge(&b);
        assert_eq!(a.exclusive(TransitionId::Eret), 42);
        assert_eq!(a.count(TransitionId::Eret), 2);
        assert_eq!(a.unattributed(), 8);
        assert_eq!(a.total(), 50);
        assert_eq!(a.folded("r"), "r 8\nr;eret 42\n");
    }

    #[test]
    fn rows_skip_idle_transitions() {
        let mut t = SpanTracer::new();
        t.enter(TransitionId::GrantCopy);
        t.charge(9);
        t.exit(TransitionId::GrantCopy);
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, TransitionId::GrantCopy);
        assert_eq!(rows[0].exclusive, 9);
    }
}
