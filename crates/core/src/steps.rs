//! The steps several hypervisor paths charge identically, declared once.
//!
//! A host interrupt, a NIC DMA, a vhost or netback packet, a grant copy
//! or an event-channel send costs the same wherever it happens: the
//! KVM paths on both architectures share vhost's steps, the Xen paths
//! share netback's, and every model shares the host's. [`Step`] maps
//! each such label to its one trace kind, cost field and transition,
//! and [`charge_step`] charges it. A step whose cost depends on the
//! architecture is a [`Recovery`]: its label, kind and transition are
//! declared here and the caller passes the cost. Which steps a path
//! takes, and in what order, stays with the path.

use crate::{CostModel, HvKind, HvType, VirqPolicy};
use hvx_engine::{CoreId, Cycles, FaultPoint, FlowId, FlowKind, Machine, TraceKind, TransitionId};
use hvx_vio::Nic;

/// A step that more than one path charges with the same kind, cost
/// field and transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The host (or Dom0, or native) kernel's physical IRQ entry.
    HostIrq,
    /// An IAR read or EOIR write on the physical GIC CPU interface.
    GicPhysAck,
    /// The NIC's DMA setup and descriptor processing for one packet.
    NicDma,
    /// The host or Dom0 network stack on a received packet.
    HostStackRx,
    /// The host or Dom0 network stack on a transmitted packet.
    HostStackTx,
    /// x86's VM exit through the VMCS.
    VmExit,
    /// x86's VM entry through the VMCS.
    VmEntry,
    /// vhost's worker waking on its core.
    VhostWake,
    /// vhost moving one transmitted packet.
    VhostTx,
    /// vhost moving one received packet.
    VhostRx,
    /// vhost-blk moving one block request (half a packet's work).
    VhostBlk,
    /// KVM x86 signalling vhost's ioeventfd.
    X86Ioeventfd,
    /// KVM x86's exit-handler dispatch.
    KvmX86Dispatch,
    /// KVM x86 injecting a virtual interrupt.
    KvmX86Inject,
    /// netback moving one transmitted packet.
    NetbackTx,
    /// netback moving one received packet.
    NetbackRx,
    /// blkback moving one block request (half a packet's work).
    Blkback,
    /// The host or Dom0 stack receiving a served request, at the given
    /// percentage of a packet's stack cost.
    HostRequestRx(u32),
    /// The host or Dom0 stack sending a served response, at the given
    /// percentage of a packet's stack cost.
    HostRequestTx(u32),
    /// The disk servicing one request, for the device's service time.
    DiskService(Cycles),
    /// One page copied through the grant table.
    GrantCopy,
    /// `EVTCHNOP_send`.
    EvtchnSend,
    /// The event upcall into a domain.
    EventUpcall,
    /// Xen ARM's credit-scheduler pick.
    XenSched,
    /// Xen ARM waking a blocked domain out of the idle domain.
    XenWakeBlocked,
    /// Xen ARM's vGIC injection bookkeeping.
    XenVgicInject,
    /// Xen x86's exit-handler dispatch.
    XenX86Dispatch,
    /// Xen x86 injecting a virtual interrupt.
    XenX86Inject,
    /// Xen x86 waking the receiving DomU.
    X86WakeDomu,
}

impl Step {
    /// The step's label, trace kind, cost under `c` and transition.
    fn spec(self, c: &CostModel) -> (&'static str, TraceKind, Cycles, TransitionId) {
        use TraceKind as K;
        use TransitionId as T;
        match self {
            Step::HostIrq => ("host:irq", K::Host, c.native_irq, T::HostIrq),
            Step::GicPhysAck => ("gic:phys-ack", K::Host, c.gic_phys_access, T::GicAccess),
            Step::NicDma => ("nic:dma", K::Io, c.nic_dma, T::NicDma),
            Step::HostStackRx => ("host:net-stack-rx", K::Host, c.host_net_rx, T::HostStack),
            Step::HostStackTx => ("host:net-stack-tx", K::Host, c.host_net_tx, T::HostStack),
            Step::VmExit => ("hw:vmexit", K::Trap, c.vmexit, T::VmcsWorldSwitch),
            Step::VmEntry => ("hw:vmentry", K::Return, c.vmentry, T::VmcsWorldSwitch),
            Step::VhostWake => ("kvm:vhost-wake", K::Io, c.kvm_vhost_wake, T::VhostBackend),
            Step::VhostTx => (
                "kvm:vhost-tx",
                K::Io,
                c.kvm_vhost_per_packet,
                T::VhostBackend,
            ),
            Step::VhostRx => (
                "kvm:vhost-rx",
                K::Io,
                c.kvm_vhost_per_packet,
                T::VhostBackend,
            ),
            Step::VhostBlk => (
                "kvm:vhost-blk",
                K::Io,
                c.kvm_vhost_per_packet / 2,
                T::VhostBackend,
            ),
            Step::X86Ioeventfd => (
                "kvm:x86-ioeventfd",
                K::Io,
                c.kvm_x86_ioeventfd,
                T::VhostKick,
            ),
            Step::KvmX86Dispatch => (
                "kvm:x86-dispatch",
                K::Host,
                c.kvm_x86_dispatch,
                T::HostDispatch,
            ),
            Step::KvmX86Inject => ("kvm:x86-inject", K::Emulation, c.x86_inject, T::VirqInject),
            Step::NetbackTx => ("xen:netback-tx", K::Io, c.xen_net_per_packet, T::Netback),
            Step::NetbackRx => ("xen:netback-rx", K::Io, c.xen_net_per_packet, T::Netback),
            Step::Blkback => ("xen:blkback", K::Io, c.xen_net_per_packet / 2, T::Netback),
            Step::HostRequestRx(pct) => (
                "host:request-rx",
                K::Host,
                percent(c.host_net_rx, pct),
                T::HostStack,
            ),
            Step::HostRequestTx(pct) => (
                "host:request-tx",
                K::Host,
                percent(c.host_net_tx, pct),
                T::HostStack,
            ),
            Step::DiskService(service) => ("disk:service", K::Io, service, T::DeviceService),
            Step::GrantCopy => ("xen:grant-copy", K::Copy, c.xen_grant_copy, T::GrantCopy),
            Step::EvtchnSend => (
                "xen:evtchn-send",
                K::Emulation,
                c.xen_evtchn_send,
                T::EventChannelSignal,
            ),
            Step::EventUpcall => (
                "xen:event-upcall",
                K::Host,
                c.xen_event_upcall,
                T::EventUpcall,
            ),
            Step::XenSched => ("xen:sched", K::Sched, c.xen_sched, T::Sched),
            Step::XenWakeBlocked => ("xen:wake-blocked", K::Sched, c.xen_wake_blocked, T::Sched),
            Step::XenVgicInject => (
                "xen:vgic-inject",
                K::Emulation,
                c.xen_vgic_inject,
                T::VirqInject,
            ),
            Step::XenX86Dispatch => (
                "xen:x86-dispatch",
                K::Host,
                c.xen_x86_dispatch,
                T::HostDispatch,
            ),
            Step::XenX86Inject => (
                "xen:x86-inject",
                K::Emulation,
                c.xen_x86_inject,
                T::VirqInject,
            ),
            Step::X86WakeDomu => ("xen:x86-wake-domu", K::Sched, c.xen_x86_wake_domu, T::Sched),
        }
    }
}

/// `pct` percent of `x`, rounded down.
pub(crate) fn percent(x: Cycles, pct: u32) -> Cycles {
    Cycles::new(x.as_u64() * u64::from(pct) / 100)
}

/// The guest's paravirtual driver cost under `kind`'s design: virtio's
/// under KVM, netfront's under Xen, nothing natively. Each path charges
/// its direction's share of it.
pub(crate) fn pv_driver(kind: HvKind, c: &CostModel) -> Cycles {
    match kind.hv_type() {
        Some(HvType::Type2) => c.kvm_guest_virtio,
        Some(HvType::Type1) => c.xen_guest_pv,
        None => Cycles::ZERO,
    }
}

/// Charges `step` on `core` at its cost under `cost`.
pub(crate) fn charge_step(m: &mut Machine, cost: &CostModel, core: CoreId, step: Step) {
    let (label, kind, cycles, id) = step.spec(cost);
    m.charge_as(core, label, kind, cycles, id);
}

/// The NIC's interrupt on the I/O core `io`: opens the IRQ-delivery
/// chain there and charges the host's IRQ entry.
pub(crate) fn nic_irq(m: &mut Machine, c: &CostModel, io: CoreId) -> Option<FlowId> {
    let flow = m.flow_begin(FlowKind::IrqDelivery, io, "host:irq");
    charge_step(m, c, io, Step::HostIrq);
    flow
}

/// The NIC's DMA of a transmitted frame on `core`, which ends the
/// transmit chain `flow`.
pub(crate) fn nic_dma(m: &mut Machine, c: &CostModel, core: CoreId, flow: Option<FlowId>) {
    charge_step(m, c, core, Step::NicDma);
    m.flow_end(flow, core, "nic:dma");
}

/// A fault-recovery step whose cost depends on the architecture, so
/// the caller passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recovery {
    /// vhost's worker preempted before it serviced a kick.
    VhostDelay,
    /// The virtio driver's TX watchdog re-kicking the queue.
    TxRekick,
    /// vhost re-signalling the irqfd after a lost interrupt.
    IrqfdResignal,
    /// Xen re-sending an event whose upcall was lost.
    EvtchnRedeliver,
}

/// Charges recovery step `r` on `core` at `cost`, then ends `chain` (a
/// fault-recovery flow the caller opened, or `None`) at the step.
pub(crate) fn recover(
    m: &mut Machine,
    core: CoreId,
    r: Recovery,
    cost: Cycles,
    chain: Option<FlowId>,
) {
    let (label, kind, id) = match r {
        Recovery::VhostDelay => ("kvm:vhost-delay", TraceKind::Sched, TransitionId::Sched),
        Recovery::TxRekick => (
            "virtio:tx-rekick",
            TraceKind::Io,
            TransitionId::VirtioRekick,
        ),
        Recovery::IrqfdResignal => (
            "kvm:irqfd-resignal",
            TraceKind::Io,
            TransitionId::VirtioRekick,
        ),
        Recovery::EvtchnRedeliver => (
            "xen:evtchn-redeliver",
            TraceKind::Emulation,
            TransitionId::EvtchnRedeliver,
        ),
    };
    m.charge_as(core, label, kind, cost, id);
    m.flow_end(chain, core, label);
}

/// Consults the [`FaultPoint::NicStall`] plan before a transmit DMA on
/// `core`: a NIC that missed the tail-pointer update stalls, and its
/// driver times out and re-kicks the ring at `rekick`.
pub(crate) fn nic_stall(m: &mut Machine, nic: &mut Nic, core: CoreId, rekick: Cycles) {
    if m.fault(FaultPoint::NicStall) {
        nic.record_stall_and_rekick();
        m.charge_as(
            core,
            "nic:stall-rekick",
            TraceKind::Io,
            rekick,
            TransitionId::VirtioRekick,
        );
    }
}

/// Charges one grant copy, then consults the [`FaultPoint::GrantCopyFail`]
/// plan: each transient failure charges a retry — backoff plus a fresh
/// copy — with the backoff doubling, bounded at three retries (netback's
/// real recovery shape). With no fault plan installed this is exactly
/// one charge and one branch.
pub(crate) fn grant_copy_with_retry(m: &mut Machine, cost: &CostModel, core: CoreId) {
    let flow = m.flow_begin(FlowKind::GrantCopy, core, "grant:copy");
    charge_step(m, cost, core, Step::GrantCopy);
    let copy = cost.xen_grant_copy;
    let mut backoff = copy / 2;
    for _ in 0..3 {
        if !m.fault(FaultPoint::GrantCopyFail) {
            break;
        }
        m.flow_step(flow, core, "grant:retry");
        m.charge_as(
            core,
            "xen:grant-retry",
            TraceKind::Copy,
            backoff + copy,
            TransitionId::GrantRetry,
        );
        backoff = backoff * 2;
    }
    m.flow_end(flow, core, "grant:done");
}

/// The guest's network stack and paravirtual driver sending `bytes`;
/// `driver` is the driver's per-packet share.
pub(crate) fn guest_stack_tx(
    m: &mut Machine,
    c: &CostModel,
    core: CoreId,
    bytes: usize,
    driver: Cycles,
) {
    let cost = c.stack_tx_per_packet + c.stack_bytes(bytes) + driver;
    m.charge_as(
        core,
        "guest:net-stack-tx",
        TraceKind::Guest,
        cost,
        TransitionId::GuestStack,
    );
}

/// The guest's network stack and paravirtual driver receiving `bytes`;
/// `driver` is the driver's per-packet share.
pub(crate) fn guest_stack_rx(
    m: &mut Machine,
    c: &CostModel,
    core: CoreId,
    bytes: usize,
    driver: Cycles,
) {
    let cost = c.stack_rx_per_packet + c.stack_bytes(bytes) + driver;
    m.charge_as(
        core,
        "guest:net-stack-rx",
        TraceKind::Guest,
        cost,
        TransitionId::GuestStack,
    );
}

/// `work` cycles of guest computation on `vcpu`'s core.
pub(crate) fn guest_compute(m: &mut Machine, vcpu: usize, work: Cycles) {
    let core = m.topology().guest_core(vcpu);
    m.charge_as(
        core,
        "guest:compute",
        TraceKind::Guest,
        work,
        TransitionId::GuestRun,
    );
}

/// Which VCPU the next device interrupt targets: the [`VirqPolicy`]
/// and its round-robin cursor.
#[derive(Debug, Default)]
pub(crate) struct IrqTarget {
    /// The policy in effect.
    pub(crate) policy: VirqPolicy,
    next: usize,
}

impl IrqTarget {
    /// The next target among `vcpus` VCPUs, advancing the cursor under
    /// [`VirqPolicy::RoundRobin`].
    pub(crate) fn pick(&mut self, vcpus: usize) -> usize {
        match self.policy {
            VirqPolicy::Vcpu0 => 0,
            VirqPolicy::RoundRobin => {
                let v = self.next % vcpus;
                self.next += 1;
                v
            }
        }
    }
}
