//! Span-based cycle attribution.
//!
//! Every architecturally interesting hypervisor transition opens a
//! **span** keyed by a static [`TransitionId`]. Spans nest, and the
//! tracer keeps one tree of call paths: every charged cycle lands on
//! the node of the stack open at the time. Exclusive, inclusive and
//! folded-stack totals are all read off that tree, so the exclusive
//! totals and the [`SpanTracer::unattributed`] remainder sum to the run
//! total by construction. That conservation property is what lets the
//! profile table reproduce the paper's Table III breakdown from
//! instrumentation instead of from summed cost constants.

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

/// Index of the root node: the empty stack, whose cycles are the
/// unattributed remainder. No node has the root as a child, so a zero
/// child slot means "that path has not appeared yet".
const ROOT: usize = 0;

// `SpanTracer::per_transition` keeps each path's open set in a `u64`.
const _: () = assert!(TransitionId::COUNT <= u64::BITS as usize);

/// One call path: the stack of spans open while its cycles were
/// charged.
#[derive(Debug, Clone)]
struct Node {
    /// The path's innermost transition (unused on the root).
    id: TransitionId,
    /// The path one span shorter (the root is its own parent).
    parent: u32,
    /// Cycles charged while this path was the open stack.
    cycles: u64,
    /// The path one span longer, per transition; [`ROOT`] if unseen.
    children: [u32; TransitionId::COUNT],
}

impl Node {
    /// A childless node under `parent`, which is below `u32::MAX` like
    /// every index already in the table.
    fn new(id: TransitionId, parent: usize) -> Node {
        Node {
            id,
            parent: parent as u32,
            cycles: 0,
            children: [ROOT as u32; TransitionId::COUNT],
        }
    }
}

/// The span tracer: one tree of call paths, a cursor on the node of
/// the open stack, and per-transition enter counts.
///
/// [`SpanTracer::enter`] moves the cursor to a child node and
/// [`SpanTracer::exit`] back to its parent; a path allocates only the
/// first time it appears. [`SpanTracer::charge`] is one addition on the
/// cursor's node. Every total is derived from the tree when read.
///
/// # Conservation
///
/// For any sequence of `enter`/`exit`/`charge` calls:
///
/// ```text
/// Σ exclusive(id) + unattributed() == total()
/// ```
///
/// holds by construction: every cycle lands on exactly one node, and
/// the root plus the nodes of each transition partition the tree. The
/// engine checks [`SpanTracer::total`] against the machine's per-core
/// busy totals.
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
    /// Every call path seen, each after its parent; [`ROOT`] first.
    nodes: Vec<Node>,
    /// The node of the open stack.
    cursor: usize,
    /// Times each transition was entered.
    counts: [u64; TransitionId::COUNT],
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
            nodes: vec![Node::new(TransitionId::GuestRun, ROOT)],
            cursor: ROOT,
            counts: [0; TransitionId::COUNT],
        }
    }

    /// Opens a span. Spans nest; close with a matching
    /// [`SpanTracer::exit`].
    pub fn enter(&mut self, id: TransitionId) {
        let i = id.index();
        self.counts[i] += 1;
        let child = self.nodes[self.cursor].children[i] as usize;
        self.cursor = if child == ROOT {
            let new = self.nodes.len();
            let slot = u32::try_from(new).expect("fewer than 2^32 call paths");
            self.nodes.push(Node::new(id, self.cursor));
            self.nodes[self.cursor].children[i] = slot;
            new
        } else {
            child
        };
    }

    /// Closes the innermost span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (unbalanced
    /// instrumentation is a bug, not a runtime condition).
    pub fn exit(&mut self, id: TransitionId) {
        assert!(
            self.cursor != ROOT,
            "span_exit({}) with no open span",
            id.name()
        );
        let node = &self.nodes[self.cursor];
        assert_eq!(
            node.id.index(),
            id.index(),
            "span_exit({}) but innermost open span is {}",
            id.name(),
            node.id.name()
        );
        self.cursor = node.parent as usize;
    }

    /// Attributes `cycles` to the innermost open span (or to the
    /// unattributed bucket if none is open). Allocation-free.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.nodes[self.cursor].cycles += cycles;
    }

    /// Per-transition `(exclusive, inclusive)` cycles. Each node is
    /// visited once with the set of transitions open on its path;
    /// parents precede children, so that set is the parent's plus the
    /// node's own, and a recursive span's cycles count once.
    fn per_transition(&self) -> ([u64; TransitionId::COUNT], [u64; TransitionId::COUNT]) {
        let mut excl = [0; TransitionId::COUNT];
        let mut incl = [0; TransitionId::COUNT];
        let mut open = vec![0u64; self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate().skip(1) {
            let i = node.id.index();
            open[n] = open[node.parent as usize] | 1 << i;
            excl[i] += node.cycles;
            let mut bits = open[n];
            while bits != 0 {
                incl[bits.trailing_zeros() as usize] += node.cycles;
                bits &= bits - 1;
            }
        }
        (excl, incl)
    }

    /// Cycles charged while `id` was the innermost open span.
    pub fn exclusive(&self, id: TransitionId) -> u64 {
        self.per_transition().0[id.index()]
    }

    /// Cycles charged while `id` was open anywhere on the stack,
    /// including a span still open now; read it after the run.
    pub fn inclusive(&self, id: TransitionId) -> u64 {
        self.per_transition().1[id.index()]
    }

    /// Times `id` was entered.
    pub fn count(&self, id: TransitionId) -> u64 {
        self.counts[id.index()]
    }

    /// Cycles charged with no span open.
    pub fn unattributed(&self) -> u64 {
        self.nodes[ROOT].cycles
    }

    /// Every cycle ever charged through this tracer.
    pub fn total(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles).sum()
    }

    /// The active breakdown rows, in [`TransitionId::ALL`] order,
    /// skipping transitions that never ran.
    pub fn rows(&self) -> Vec<SpanRow> {
        let (excl, incl) = self.per_transition();
        TransitionId::ALL
            .into_iter()
            .filter(|id| self.counts[id.index()] > 0 || excl[id.index()] > 0)
            .map(|id| SpanRow {
                id,
                count: self.counts[id.index()],
                exclusive: excl[id.index()],
                inclusive: incl[id.index()],
            })
            .collect()
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
        // Children follow their parents, so one backward pass folds
        // every subtree total into its parent.
        let mut subtree: Vec<u64> = self.nodes.iter().map(|n| n.cycles).collect();
        for n in (1..self.nodes.len()).rev() {
            subtree[self.nodes[n].parent as usize] += subtree[n];
        }
        let mut out = String::new();
        self.emit_folded(ROOT, root, &subtree, &mut out);
        out
    }

    fn emit_folded(&self, n: usize, prefix: &str, subtree: &[u64], out: &mut String) {
        let node = &self.nodes[n];
        if node.cycles > 0 {
            out.push_str(&format!("{prefix} {}\n", node.cycles));
        }
        let name = |c: usize| self.nodes[c].id.name();
        let mut children: Vec<usize> = node
            .children
            .iter()
            .map(|&c| c as usize)
            .filter(|&c| c != ROOT && subtree[c] > 0)
            .collect();
        children.sort_by_key(|&c| (std::cmp::Reverse(subtree[c]), name(c)));
        for c in children {
            self.emit_folded(c, &format!("{prefix};{}", name(c)), subtree, out);
        }
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

    #[test]
    fn repeated_paths_reuse_their_node() {
        let mut t = SpanTracer::new();
        let round = |t: &mut SpanTracer| {
            t.enter(TransitionId::TrapToEl2);
            t.enter(TransitionId::ContextSave);
            t.charge(3);
            t.exit(TransitionId::ContextSave);
            t.exit(TransitionId::TrapToEl2);
        };
        round(&mut t);
        let nodes = t.nodes.len();
        for _ in 0..100 {
            round(&mut t);
        }
        assert_eq!(t.nodes.len(), nodes, "a seen path allocates nothing");
        assert_eq!(t.exclusive(TransitionId::ContextSave), 303);
        assert_eq!(t.count(TransitionId::TrapToEl2), 101);
    }

    #[test]
    fn inclusive_counts_an_open_span() {
        let mut t = SpanTracer::new();
        t.enter(TransitionId::Sched);
        t.charge(4);
        assert_eq!(t.inclusive(TransitionId::Sched), 4);
        assert_eq!(t.exclusive(TransitionId::Sched), 4);
    }

    #[test]
    #[should_panic(expected = "with no open span")]
    fn exit_with_nothing_open_panics() {
        SpanTracer::new().exit(TransitionId::Eret);
    }
}
