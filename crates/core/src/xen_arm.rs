//! Xen ARM: a Type 1 hypervisor resident in EL2, with Dom0 I/O.
//!
//! "Xen as a Type 1 hypervisor design maps easily to the ARM
//! architecture, running the entire hypervisor in EL2 and running VM
//! userspace and VM kernel in EL0 and EL1" (§II). Consequences the model
//! executes mechanically:
//!
//! * A hypercall is **cheap**: the trap lands in Xen's own register
//!   context, so only a GP trap frame moves — Table II's 376 cycles,
//!   17× less than split-mode KVM.
//! * The GIC distributor is emulated **in EL2**, so interrupt-controller
//!   traps and virtual IPIs stay fast.
//! * But all device I/O lives in **Dom0**: a DomU kick must cross an
//!   event channel, a physical IPI, the credit scheduler, and an
//!   idle-domain→Dom0 VM switch before netback even runs — which is why
//!   Xen ARM *loses* both I/O-latency microbenchmarks (Table II) and the
//!   I/O-heavy application benchmarks (Figure 4) despite its fast
//!   transitions. Every packet also pays a grant copy (§V): Dom0 cannot
//!   DMA into DomU memory it cannot see.
//!
//! The hardware steps (the trap, the ERET, the register classes, the
//! vGIC accesses and the kick SGI) are the ARM layer's, shared with
//! KVM ARM; the netback, grant-copy and event-channel steps Xen x86
//! also takes come from the shared step table. This file is the
//! software: Xen's trap frame and dispatch, the domains and the idle
//! domain, and the Dom0 I/O paths.

use crate::arm::{ArmHw, Motion, RegClass, GICD_IPA, GUEST_IPI_SGI, GUEST_RAM_IPA};
use crate::arm::{GUEST_RAM_PAGES, NIC_SPI};
use crate::context::ArmGuestContext;
use crate::steps::{grant_copy_with_retry, guest_compute, guest_stack_rx, guest_stack_tx};
use crate::steps::{nic_stall, recover, Recovery, Step};
use crate::{CostModel, HvKind, Hypervisor, VirqPolicy};
use hvx_arch::{ArchVersion, Syndrome, TrapCause};
use hvx_engine::{CoreId, Cycles, FaultPoint, FlowId, FlowKind, Machine, TraceKind, TransitionId};
use hvx_gic::{dist_reg, Distributor, IntId};
use hvx_mem::{DomId, GrantTable, Ipa, Pa, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx_vio::{EventChannels, NetBack, NetFront, Port, XenNetRing};

/// The event-channel virtual interrupt presented to domains.
pub const EVTCHN_VIRQ: IntId = IntId::ppi(0);
/// DomU's domain id.
pub const DOMU: DomId = DomId(1);
/// Base machine address of DomU's RAM.
const DOMU_RAM_PA: u64 = 0x0100_0000;
/// Base machine address of Dom0's RAM (netback DMA buffers live here).
const DOM0_RAM_PA: u64 = 0x0400_0000;
/// Base machine address of the alternate DomU (VM Switch benchmark).
const ALT_RAM_PA: u64 = 0x0700_0000;
/// The physical SGI Xen pokes a running DomU VCPU with.
const POKE_SGI: IntId = IntId::sgi(2);
/// Xen's trap counter.
const TRAPS: &str = "xen.traps";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Running {
    DomU(usize),
    Dom0(usize),
    Idle,
}

#[derive(Debug)]
struct Domain {
    s2: Stage2Tables,
    dist: Distributor,
    ctxs: Vec<ArmGuestContext>,
}

impl Domain {
    fn new(num_vcpus: usize, ram_base_pa: u64, seed: u64) -> Self {
        let mut s2 = Stage2Tables::new();
        s2.map_range(
            Ipa::new(GUEST_RAM_IPA),
            Pa::new(ram_base_pa),
            GUEST_RAM_PAGES,
            S2Perms::RWX,
        )
        .expect("fresh stage-2 accepts the RAM range");
        let mut dist = Distributor::new(num_vcpus, 64);
        for v in 0..num_vcpus {
            dist.enable(GUEST_IPI_SGI, v).expect("vcpu in range");
            dist.enable(EVTCHN_VIRQ, v).expect("vcpu in range");
        }
        let mut ctxs = Vec::new();
        for v in 0..num_vcpus {
            let mut ctx = ArmGuestContext::pattern(seed + v as u64);
            ctx.vttbr = (v as u64) << 48 | ram_base_pa;
            ctx.vgic.hcr = hvx_gic::GICH_HCR_EN;
            ctxs.push(ctx);
        }
        Domain { s2, dist, ctxs }
    }
}

/// The Xen ARM hypervisor model: Xen in EL2, DomU on the guest cores,
/// Dom0 on the host cores, and the idle domain wherever nobody is
/// runnable.
#[derive(Debug)]
pub struct XenArm {
    hw: ArmHw,
    domu: Domain,
    dom0: Domain,
    alt_ctx: ArmGuestContext,
    alt_loaded: bool,
    grants: GrantTable,
    evtchn: EventChannels,
    ring: XenNetRing,
    front: NetFront,
    back: NetBack,
    running: Vec<Running>,
    io_port: Port,
    next_rx_buf: usize,
}

impl XenArm {
    /// Builds the paper's Xen ARM configuration: DomU with 4 VCPUs pinned
    /// to PCPUs 0–3, Dom0 with 4 VCPUs pinned to PCPUs 4–7 (§III).
    pub fn new() -> Self {
        Self::with_cost(CostModel::arm())
    }

    /// Builds with an explicit cost model.
    pub fn with_cost(cost: CostModel) -> Self {
        let mut hw = ArmHw::new(cost, ArchVersion::V8_0, POKE_SGI, 256 << 20);
        let num_vcpus = hw.machine.topology().guest_cores().len();
        let domu = Domain::new(num_vcpus, DOMU_RAM_PA, 0x2000);
        let num_dom0_vcpus = hw.machine.topology().host_cores().len();
        let dom0 = Domain::new(num_dom0_vcpus, DOM0_RAM_PA, 0x3000);
        let mut alt_ctx = ArmGuestContext::pattern(0x4000);
        alt_ctx.vttbr = ALT_RAM_PA;
        alt_ctx.vgic.hcr = hvx_gic::GICH_HCR_EN;

        let mut evtchn = EventChannels::new();
        let io_port = evtchn
            .bind_interdomain(DOMU, DomId::DOM0)
            .expect("binding the vif channel");
        let tx_bufs = (0..8)
            .map(|i| Ipa::new(GUEST_RAM_IPA + i * PAGE_SIZE))
            .collect();

        let mut running = vec![Running::Idle; hw.cpus.len()];
        // Install DomU VCPUs on guest cores; Dom0 starts idle (it blocks
        // waiting for I/O, as in the paper's I/O-latency analysis).
        for (v, ctx) in domu.ctxs.iter().enumerate() {
            let core = hw.machine.topology().guest_core(v);
            hw.install(core, ctx);
            running[core.index()] = Running::DomU(v);
        }

        XenArm {
            hw,
            domu,
            dom0,
            alt_ctx,
            alt_loaded: false,
            grants: GrantTable::new(128),
            evtchn,
            ring: XenNetRing::new(),
            front: NetFront::new(DOMU, tx_bufs),
            back: NetBack::new(Pa::new(DOM0_RAM_PA + 0x10_0000), 16),
            running,
            io_port,
            next_rx_buf: 0,
        }
    }

    /// Trap into Xen (EL2) and push the GP trap frame.
    fn xen_trap(&mut self, core: CoreId, cause: TrapCause) {
        self.hw.trap(core, cause, TRAPS);
        self.hw.machine.charge_as(
            core,
            "xen:frame-save",
            TraceKind::ContextSave,
            self.hw.cost.xen_frame.save,
            TransitionId::ContextSave,
        );
    }

    /// Traps into Xen and enters its handler dispatch: the head of the
    /// hypercall, the trapped GICD access, the Stage-2 fault and every
    /// event-channel send.
    fn trap_to_dispatch(&mut self, core: CoreId, cause: TrapCause) {
        self.xen_trap(core, cause);
        self.hw.machine.charge_as(
            core,
            "xen:dispatch",
            TraceKind::Emulation,
            self.hw.cost.xen_dispatch,
            TransitionId::HostDispatch,
        );
    }

    /// Pop the frame and return to the interrupted guest.
    fn xen_return(&mut self, core: CoreId) {
        self.hw.machine.charge_as(
            core,
            "xen:frame-restore",
            TraceKind::ContextRestore,
            self.hw.cost.xen_frame.restore,
            TransitionId::ContextRestore,
        );
        self.hw.eret(core);
    }

    /// The saved context of domain VCPU `r` on core `idx`: the alternate
    /// DomU's while a `vm_switch` has it on PCPU0.
    fn ctx_slot(&mut self, idx: usize, r: Running) -> &mut ArmGuestContext {
        match r {
            Running::DomU(_) if self.alt_loaded && idx == 0 => &mut self.alt_ctx,
            Running::DomU(v) => &mut self.domu.ctxs[v],
            Running::Dom0(v) => &mut self.dom0.ctxs[v],
            Running::Idle => unreachable!("the idle domain carries no guest state"),
        }
    }

    /// Full EL1 context switch on `core` between domains, charging
    /// Table III save+restore (both Type 1 and Type 2 pay this for VM
    /// switches, §IV). Switching away from idle saves nothing, and
    /// switching to idle restores nothing (the idle domain carries no
    /// guest state).
    fn domain_switch(&mut self, core: CoreId, to: Running) {
        let idx = core.index();
        let from = self.running[idx];
        if from != Running::Idle {
            self.hw.move_classes(core, Motion::Save, false);
            let ctx = self.hw.capture(core);
            *self.ctx_slot(idx, from) = ctx;
        }
        if to != Running::Idle {
            self.hw.move_classes(core, Motion::Restore, false);
            let ctx = *self.ctx_slot(idx, to);
            self.hw.load_for_eret(core, &ctx);
        }
        self.running[idx] = to;
    }

    /// Domain switch without cost charges — benchmark scaffolding that
    /// returns cores to their resting state between iterations (the real
    /// benchmark's inter-iteration idle time, which the measurement
    /// window excludes).
    fn domain_switch_silent(&mut self, core: CoreId, to: Running) {
        let idx = core.index();
        let from = self.running[idx];
        if from == to {
            return;
        }
        if from != Running::Idle {
            let ctx = self.hw.capture(core);
            *self.ctx_slot(idx, from) = ctx;
        }
        if to != Running::Idle {
            let ctx = *self.ctx_slot(idx, to);
            self.hw.install(core, &ctx);
        }
        self.running[idx] = to;
    }

    /// Wakes a blocked domain VCPU on `core` out of the idle domain:
    /// credit-scheduler pick, context restore, event-interrupt injection,
    /// ERET into the domain. Charges the §IV idle-domain-switch path.
    fn wake_into(&mut self, core: CoreId, target: Running, extra_wake: bool, charge_upcall: bool) {
        self.hw.phys_ack(core, None);
        self.hw.step(core, Step::XenSched);
        self.domain_switch(core, target);
        self.hw.machine.bump("xen.virq_injections", 1);
        self.hw.step(core, Step::XenVgicInject);
        let idx = core.index();
        let _ = self.hw.vgics[idx].inject(EVTCHN_VIRQ.raw(), 0x40);
        self.hw.eret(core);
        if charge_upcall {
            self.hw.step(core, Step::EventUpcall);
        }
        let _ = self.hw.vgics[idx].guest_ack();
        let _ = self.hw.vgics[idx].guest_eoi(EVTCHN_VIRQ.raw());
        if extra_wake {
            self.hw.step(core, Step::XenWakeBlocked);
        }
    }

    /// Injects a virtual interrupt into a DomU VCPU that is running in
    /// guest mode: physical poke SGI, trap, list-register sync (Xen
    /// reads the VGIC state back to merge the new interrupt), return,
    /// guest acknowledge and EOI. Returns the instant after the guest
    /// ack. `flow` (when tracing) links the injection into the causal
    /// chain that produced it — e.g. the IRQ-delivery chain opened when
    /// the physical NIC interrupt landed on the I/O core.
    fn inject_virq_running(
        &mut self,
        from: CoreId,
        vcpu: usize,
        virq: IntId,
        flow: Option<FlowId>,
    ) -> Cycles {
        let c = self.hw.cost;
        let m = &mut self.hw.machine;
        if m.fault(FaultPoint::VirqDrop) {
            // Fault: the upcall is lost before DomU observes it. Xen's
            // event-channel pending bit survives, so the next scan
            // re-notifies — charged as recovery before the injection
            // that actually lands.
            let rec = m.flow_begin(FlowKind::FaultRecovery, from, "fault:upcall-lost");
            let redeliver = c.xen_evtchn_send + c.xen_event_upcall;
            recover(m, from, Recovery::EvtchnRedeliver, redeliver, rec);
        }
        let core = m.topology().guest_core(vcpu);
        let idx = core.index();
        self.hw.kick(from, core);
        self.xen_trap(core, TrapCause::Irq);
        self.hw.phys_ack(core, Some(POKE_SGI));
        // Xen syncs the LR state from the hardware before merging the new
        // virtual interrupt, then writes it back.
        self.hw.move_class(core, RegClass::Vgic, Motion::Save);
        self.hw.machine.bump("xen.virq_injections", 1);
        self.hw.machine.flow_step(flow, core, "virq:inject");
        self.hw.step(core, Step::XenVgicInject);
        let _ = self.hw.vgics[idx].inject(virq.raw(), 0x80);
        debug_assert_eq!(self.hw.vgics[idx].last_injected(), Some(virq.raw()));
        self.hw.move_class(core, RegClass::Vgic, Motion::Restore);
        self.xen_return(core);
        let acked = self.hw.vif_ack(core);
        debug_assert_eq!(acked, Some(virq.raw()));
        self.hw.machine.flow_end(flow, core, "guest:ack");
        let t_ack = self.hw.machine.now(core);
        let _ = self.hw.vif_eoi(core, virq);
        t_ack
    }

    /// Extension benchmark: a demand Stage-2 fault handled entirely in
    /// EL2 — Xen's p2m code allocates and maps a page without leaving
    /// the hypervisor, so the fault is far cheaper than split-mode
    /// KVM's.
    pub fn stage2_fault(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let ipa = Ipa::new(GUEST_RAM_IPA + self.domu.s2.mapped_pages() * PAGE_SIZE);
        let t0 = self.hw.machine.now(core);
        self.trap_to_dispatch(
            core,
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: ipa.value(),
                write: true,
            }),
        );
        self.hw.machine.charge_as(
            core,
            "xen:page-alloc",
            TraceKind::Host,
            self.hw.cost.page_alloc,
            TransitionId::HostDispatch,
        );
        let pa = Pa::new(DOMU_RAM_PA + self.domu.s2.mapped_pages() * PAGE_SIZE);
        self.domu
            .s2
            .map_page(ipa, pa, S2Perms::RWX)
            .expect("fresh page maps");
        self.xen_return(core);
        self.hw.machine.now(core) - t0
    }

    /// Restores DomU VCPU0 onto PCPU0 if a `vm_switch` left the
    /// alternate domain loaded (uncharged scaffolding).
    fn ensure_primary(&mut self) {
        if self.alt_loaded {
            let core = self.hw.machine.topology().guest_core(0);
            self.alt_ctx = self.hw.capture(core);
            self.alt_loaded = false;
            let ctx = self.domu.ctxs[0];
            self.hw.install(core, &ctx);
            self.running[core.index()] = Running::DomU(0);
        }
    }

    /// The Dom0 VCPU (and its core) that runs the netback backend.
    fn backend(&self) -> (CoreId, usize) {
        let topo = self.hw.machine.topology();
        let core = topo.backend_core();
        (core, core.index() - topo.guest_cores().len())
    }

    /// The guest's event-channel doorbell: DomU's `EVTCHNOP_send`
    /// hypercall notifies Dom0, and the physical IPI wakes Dom0 out of
    /// the idle domain on the backend core unless it is already running
    /// there. Returns the kick's flow chain, which the caller continues
    /// (or, for I/O Latency Out, ends) at Dom0's wake. I/O Latency Out
    /// is exactly this.
    fn kick_dom0(&mut self, core: CoreId) -> Option<FlowId> {
        let (backend_core, b) = self.backend();
        self.trap_to_dispatch(core, TrapCause::HYPERCALL);
        let flow = self
            .hw
            .machine
            .flow_begin(FlowKind::EvtchnSignal, core, "evtchn:send");
        self.hw.step(core, Step::EvtchnSend);
        let peer = self.evtchn.notify(self.io_port, DOMU).expect("bound port");
        debug_assert_eq!(peer, DomId::DOM0);
        let wire = self.hw.cost.ipi_wire;
        let arrival = self.hw.machine.signal(core, backend_core, wire);
        self.xen_return(core);
        self.hw.machine.wait_until(backend_core, arrival);
        if self.running[backend_core.index()] != Running::Dom0(b) {
            self.wake_into(backend_core, Running::Dom0(b), true, true);
        }
        self.evtchn.clear_pending(DomId::DOM0, self.io_port);
        flow
    }

    /// Dom0's `EVTCHNOP_send` hypercall to DomU on `core`, continuing
    /// chain `flow`. Xen is left in EL2: the caller delivers the event
    /// and returns to Dom0.
    fn dom0_send(&mut self, core: CoreId, flow: Option<FlowId>) {
        self.trap_to_dispatch(core, TrapCause::HYPERCALL);
        self.hw.machine.flow_step(flow, core, "evtchn:send");
        self.hw.step(core, Step::EvtchnSend);
        self.evtchn
            .notify(self.io_port, DomId::DOM0)
            .expect("bound port");
    }

    /// Dom0's notification of DomU on the I/O core once netback has
    /// filled the frame: `EVTCHNOP_send`, the event-channel injection
    /// into the running DomU VCPU (continuing the IRQ-delivery chain
    /// `flow`), and Dom0's return to idle.
    fn notify_domu(&mut self, io: CoreId, vcpu: usize, flow: Option<FlowId>) {
        self.dom0_send(io, flow);
        self.inject_virq_running(io, vcpu, EVTCHN_VIRQ, flow);
        self.xen_return(io);
        self.evtchn.clear_pending(DOMU, self.io_port);
        self.domain_switch_silent(io, Running::Idle);
    }

    /// Wakes DomU VCPU `vcpu`, blocked in WFI, on its own core: Xen had
    /// switched the core to the idle domain, so the event goes through
    /// the credit scheduler and a full idle→DomU switch (the
    /// I/O-Latency-In receiver path of §IV).
    fn wake_blocked_domu(&mut self, core: CoreId, vcpu: usize) {
        self.domain_switch_silent(core, Running::Idle);
        self.hw.step(core, Step::XenWakeBlocked);
        self.wake_into(core, Running::DomU(vcpu), false, false);
    }

    /// The physical NIC interrupt on the I/O core, where Dom0 holds the
    /// NIC driver: Xen wakes Dom0 there unless it is already running
    /// (IRQ-driven: no event-channel kthread wake on this side).
    fn wake_dom0_for_irq(&mut self, io: CoreId) {
        let dom0_vcpu = Running::Dom0(io.index() - self.num_vcpus());
        if self.running[io.index()] != dom0_vcpu {
            self.wake_into(io, dom0_vcpu, false, true);
        }
    }

    /// A trapped access to the emulated GIC distributor register `reg`:
    /// the Stage-2 abort lands in EL2, where Xen decodes and emulates it
    /// without leaving the hypervisor. The caller returns to the guest.
    fn gicd_access(&mut self, core: CoreId, reg: u64, write: bool) {
        self.trap_to_dispatch(
            core,
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: GICD_IPA + reg,
                write,
            }),
        );
        self.hw.machine.charge_as(
            core,
            "xen:mmio-decode",
            TraceKind::Emulation,
            self.hw.cost.xen_mmio_decode,
            TransitionId::MmioDecode,
        );
        self.hw.machine.charge_as(
            core,
            "xen:gicd-emulate",
            TraceKind::Emulation,
            self.hw.cost.xen_gicd_emulate,
            TransitionId::GicdEmulate,
        );
    }
}

impl Default for XenArm {
    fn default() -> Self {
        XenArm::new()
    }
}

impl Hypervisor for XenArm {
    fn kind(&self) -> HvKind {
        HvKind::XenArm
    }

    fn machine(&self) -> &Machine {
        &self.hw.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.hw.machine
    }

    fn cost(&self) -> &CostModel {
        &self.hw.cost
    }

    fn num_vcpus(&self) -> usize {
        self.hw.machine.topology().guest_cores().len()
    }

    fn set_virq_policy(&mut self, policy: VirqPolicy) {
        self.hw.irq.policy = policy;
    }

    fn sample_metrics(&mut self) {
        let m = &mut self.hw.machine;
        m.bump("vio.evtchn_notifications", self.evtchn.notification_count());
        m.bump("vio.grant_copies", self.grants.copy_count());
        // Device-side flow correlators register only under event tracing
        // so the committed baseline profiles stay byte-identical.
        if m.event_tracing() {
            let port = self.evtchn.last_signal().map_or(0, |p| u64::from(p.0) + 1);
            m.bump("vio.evtchn_last_port", port);
        }
        self.hw.sample_metrics();
    }

    fn hypercall(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let t0 = self.hw.machine.now(core);
        self.trap_to_dispatch(core, TrapCause::HYPERCALL);
        self.xen_return(core);
        self.hw.machine.now(core) - t0
    }

    fn gicd_trap(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let t0 = self.hw.machine.now(core);
        self.gicd_access(core, dist_reg::GICD_ISENABLER, false);
        let _ = self
            .domu
            .dist
            .mmio_read(dist_reg::GICD_ISENABLER, vcpu)
            .expect("register modelled");
        self.xen_return(core);
        self.hw.machine.now(core) - t0
    }

    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles {
        self.ensure_primary();
        assert_ne!(from, to, "virtual IPI requires two VCPUs");
        let from_core = self.hw.machine.topology().guest_core(from);
        let t0 = self.hw.machine.now(from_core);
        self.gicd_access(from_core, dist_reg::GICD_SGIR, true);
        let effect = self
            .domu
            .dist
            .mmio_write(
                dist_reg::GICD_SGIR,
                ((GUEST_IPI_SGI.raw() as u64) << 24) | (1 << (16 + to)),
                from,
            )
            .expect("SGIR modelled");
        debug_assert_eq!(effect.sgi_targets.len(), 1);
        let t_ack = self.inject_virq_running(from_core, to, GUEST_IPI_SGI, None);
        self.xen_return(from_core);
        t_ack - t0
    }

    fn virq_complete(&mut self, vcpu: usize) -> Cycles {
        let core = self.hw.machine.topology().guest_core(vcpu);
        self.hw.virq_complete(core, GUEST_IPI_SGI)
    }

    fn vm_switch(&mut self) -> Cycles {
        let core = self.hw.machine.topology().guest_core(0);
        let t0 = self.hw.machine.now(core);
        self.xen_trap(core, TrapCause::HYPERCALL);
        self.hw.step(core, Step::XenSched);
        // Unlike the hypercall path, switching VMs forces Xen to move the
        // full EL1 state (§IV: "in this case both KVM and Xen ARM need to
        // do this").
        self.alt_loaded = !self.alt_loaded;
        self.domain_switch(core, Running::DomU(0));
        self.hw.eret(core);
        self.hw.machine.now(core) - t0
    }

    fn io_latency_out(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let (backend_core, _) = self.backend();
        let t0 = self.hw.machine.now(core);
        let flow = self.kick_dom0(core);
        self.hw.machine.flow_end(flow, backend_core, "dom0:wake");
        // Dom0 now returns to idle so the next iteration starts cold, as
        // in the benchmark (uncharged bookkeeping).
        let t1 = self.hw.machine.now(backend_core);
        self.domain_switch_silent(backend_core, Running::Idle);
        t1 - t0
    }

    fn io_latency_in(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let (backend_core, b) = self.backend();
        let core = self.hw.machine.topology().guest_core(vcpu);
        // Dom0 runs the backend for this measurement.
        self.domain_switch_silent(backend_core, Running::Dom0(b));
        let t0 = self.hw.machine.now(backend_core);
        self.dom0_send(backend_core, None);
        let wire = self.hw.cost.ipi_wire;
        let arrival = self.hw.machine.signal(backend_core, core, wire);
        self.xen_return(backend_core);
        // The receiving DomU VCPU blocked in WFI; Xen switched its core
        // to the idle domain ("switching from the idle domain to the
        // receiving VM in EL1", §IV).
        self.hw.machine.wait_until(core, arrival);
        self.wake_blocked_domu(core, vcpu);
        self.evtchn.clear_pending(DOMU, self.io_port);
        self.hw.machine.now(core) - t0
    }

    fn guest_compute(&mut self, vcpu: usize, work: Cycles) {
        guest_compute(&mut self.hw.machine, vcpu, work);
    }

    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.hw.cost;
        let core = self.hw.machine.topology().guest_core(vcpu);
        let (backend_core, _) = self.backend();
        // Guest stack + netfront (grant issue) — §V guest-side PV cost.
        guest_stack_tx(&mut self.hw.machine, &c, core, len, c.xen_guest_pv / 2);
        let payload = vec![0xABu8; len.min(PAGE_SIZE as usize)];
        self.front
            .post_tx(
                &mut self.ring,
                &mut self.grants,
                &self.domu.s2,
                &mut self.hw.mem,
                &payload,
            )
            .expect("TX pool has room");
        // Kick Dom0 through the event channel; netback grant-copies and
        // transmits.
        let flow = self.kick_dom0(core);
        self.hw.machine.flow_step(flow, backend_core, "dom0:wake");
        self.hw.step(backend_core, Step::NetbackTx);
        grant_copy_with_retry(&mut self.hw.machine, &c, backend_core);
        let pkts = self
            .back
            .process_tx(&mut self.ring, &mut self.grants, &mut self.hw.mem)
            .expect("granted TX frame");
        debug_assert_eq!(pkts.len(), 1);
        self.hw.step(backend_core, Step::HostStackTx);
        // A NIC stall costs KVM's recovery minus the ioeventfd: Dom0's
        // doorbell is a plain MMIO write.
        nic_stall(
            &mut self.hw.machine,
            &mut self.hw.nic,
            backend_core,
            c.nic_dma * 4,
        );
        self.hw.nic_dma(backend_core, flow);
        for p in pkts {
            self.hw.nic.transmit(p);
        }
        self.front
            .reap_tx(&mut self.ring, &mut self.grants)
            .expect("grants end cleanly");
        // Dom0 blocks again awaiting the next event.
        self.domain_switch_silent(backend_core, Running::Idle);
        self.hw.machine.now(backend_core)
    }

    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.hw.cost;
        let vcpu = self.next_irq_vcpu();
        let io = self.hw.machine.topology().io_core();
        // DomU must have posted an RX grant (netfront keeps the ring
        // stocked; the guest-side cost is folded into stack-rx below).
        let rx_buf = Ipa::new(GUEST_RAM_IPA + (16 + (self.next_rx_buf % 8) as u64) * PAGE_SIZE);
        self.next_rx_buf += 1;
        self.front
            .post_rx(&mut self.ring, &mut self.grants, &self.domu.s2, rx_buf)
            .expect("RX grant issued");
        self.hw
            .nic
            .receive_from_wire(hvx_vio::Packet::new(0, vec![0xCDu8; len]));
        self.hw.phys_gic.raise(NIC_SPI, io.index()).expect("spi");
        self.hw.nic.note_irq();
        self.hw.machine.wait_until(io, arrival);
        let flow = self.hw.nic_irq(io);
        self.hw.phys_gic.acknowledge(io.index()).expect("core");
        self.hw
            .phys_gic
            .complete(io.index(), NIC_SPI)
            .expect("active");
        self.wake_dom0_for_irq(io);
        // Dom0's Linux stack up to netback, then the grant copy into the
        // DomU frame.
        self.hw.step(io, Step::HostStackRx);
        self.hw.step(io, Step::NetbackRx);
        grant_copy_with_retry(&mut self.hw.machine, &c, io);
        let pkt = self.hw.nic.take_rx().expect("packet queued");
        self.back
            .deliver_rx(&mut self.ring, &mut self.grants, &mut self.hw.mem, &pkt)
            .expect("RX grant posted");
        // Signal DomU; Dom0 returns to idle.
        self.notify_domu(io, vcpu, flow);
        // DomU: netfront reaps the filled frame; guest stack.
        let core = self.hw.machine.topology().guest_core(vcpu);
        let got = self
            .front
            .reap_rx(
                &mut self.ring,
                &mut self.grants,
                &self.domu.s2,
                &mut self.hw.mem,
            )
            .expect("response ring valid");
        debug_assert_eq!(got.len(), 1);
        debug_assert_eq!(got[0].len(), len);
        if self.hw.machine.fault(FaultPoint::VirqSpurious) {
            // Fault: a spurious event upcall — DomU scans the pending
            // bitmap, finds nothing, and returns.
            self.hw.machine.charge_as(
                core,
                "guest:spurious-upcall",
                TraceKind::Guest,
                c.xen_event_upcall,
                TransitionId::EventUpcall,
            );
        }
        guest_stack_rx(&mut self.hw.machine, &c, core, len, c.xen_guest_pv / 2);
        (self.hw.machine.now(core), vcpu)
    }

    fn deliver_virq(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let t0 = self.hw.machine.now(core);
        self.inject_virq_running(core, vcpu, IntId::VTIMER, None);
        self.hw.machine.now(core) - t0
    }

    fn next_irq_vcpu(&mut self) -> usize {
        let vcpus = self.num_vcpus();
        self.hw.irq.pick(vcpus)
    }

    fn deliver_virq_blocked(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let t0 = self.hw.machine.now(core);
        self.wake_blocked_domu(core, vcpu);
        self.hw.machine.now(core) - t0
    }

    fn receive_burst(
        &mut self,
        chunks: usize,
        chunk_len: usize,
        arrival: Cycles,
    ) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.hw.cost;
        let vcpu = self.next_irq_vcpu();
        let io = self.hw.machine.topology().io_core();
        self.hw.nic.note_irq();
        self.hw.machine.wait_until(io, arrival);
        let flow = self.hw.nic_irq(io);
        self.wake_dom0_for_irq(io);
        self.hw.step(io, Step::HostStackRx);
        self.hw.step(io, Step::NetbackRx);
        // THE Xen cost: one grant copy per page of the burst — "Dom0
        // cannot configure the network device to DMA the data directly
        // into guest buffers, because Dom0 does not have access to the
        // VM's memory" (§V).
        for _ in 0..chunks {
            self.hw.step(io, Step::GrantCopy);
        }
        self.notify_domu(io, vcpu, flow);
        let core = self.hw.machine.topology().guest_core(vcpu);
        let total = chunks * chunk_len;
        guest_stack_rx(&mut self.hw.machine, &c, core, total, c.xen_guest_pv / 2);
        (self.hw.machine.now(core), vcpu)
    }

    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.hw.cost;
        let core = self.hw.machine.topology().guest_core(vcpu);
        let (backend_core, _) = self.backend();
        let total = chunks * chunk_len;
        guest_stack_tx(&mut self.hw.machine, &c, core, total, c.xen_guest_pv / 2);
        // One kick for the burst.
        let flow = self.kick_dom0(core);
        self.hw.machine.flow_step(flow, backend_core, "dom0:wake");
        self.hw.step(backend_core, Step::NetbackTx);
        for _ in 0..chunks {
            self.hw.step(backend_core, Step::GrantCopy);
        }
        self.hw.step(backend_core, Step::HostStackTx);
        self.hw.nic_dma(backend_core, flow);
        self.domain_switch_silent(backend_core, Running::Idle);
        self.hw.machine.now(backend_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercall_is_376_cycles() {
        let mut xen = XenArm::new();
        assert_eq!(xen.hypercall(0), Cycles::new(376), "Table II: Xen ARM");
    }

    #[test]
    fn hypercall_moves_no_el1_state() {
        let mut xen = XenArm::new();
        xen.hypercall(0);
        let trace = xen.machine().trace();
        assert_eq!(trace.total_by_label("save:el1-sys"), Cycles::ZERO);
        assert_eq!(trace.total_by_label("save:vgic"), Cycles::ZERO);
        assert!(trace.contains_label_subsequence(&[
            "hw:trap-el2",
            "xen:frame-save",
            "xen:dispatch",
            "xen:frame-restore",
            "hw:eret",
        ]));
    }

    #[test]
    fn gicd_trap_is_1356_cycles() {
        let mut xen = XenArm::new();
        assert_eq!(xen.gicd_trap(0), Cycles::new(1356), "Table II: Xen ARM ICT");
    }

    #[test]
    fn vm_switch_pays_full_context_switch() {
        let mut xen = XenArm::new();
        let cost = xen.vm_switch();
        assert_eq!(cost, Cycles::new(8799), "Table II: Xen ARM VM switch");
        // Unlike the hypercall, the full register classes move.
        assert_eq!(
            xen.machine().trace().total_by_label("save:vgic"),
            Cycles::new(3250)
        );
        // And back again.
        assert_eq!(xen.vm_switch(), Cycles::new(8799));
        assert!(!xen.alt_loaded);
    }

    #[test]
    fn virtual_ipi_beats_kvm_by_about_2x() {
        let mut xen = XenArm::new();
        let mut kvm = crate::KvmArm::new();
        let x = xen.virtual_ipi(0, 1);
        let k = kvm.virtual_ipi(0, 1);
        let ratio = k.as_f64() / x.as_f64();
        assert!(
            (1.6..=2.4).contains(&ratio),
            "§V: Xen performs virtual IPIs roughly a factor of two faster: {k} vs {x}"
        );
    }

    #[test]
    fn io_latency_out_is_worse_than_kvm_despite_fast_hypercall() {
        let mut xen = XenArm::new();
        let mut kvm = crate::KvmArm::new();
        let x = xen.io_latency_out(0);
        let k = kvm.io_latency_out(0);
        assert!(
            x > k * 2,
            "Table II: Xen ARM I/O Out (16,491) dwarfs KVM's (6,024): {x} vs {k}"
        );
    }

    #[test]
    fn io_latency_in_and_out_are_similar_on_xen() {
        // §IV: "Xen has similar performance on both Latency I/O In and
        // Latency I/O Out because it performs similar low-level
        // operations for both".
        let mut xen = XenArm::new();
        let out = xen.io_latency_out(0);
        xen.machine_mut().barrier();
        let inl = xen.io_latency_in(0);
        let ratio = out.as_f64() / inl.as_f64();
        assert!((0.85..=1.2).contains(&ratio), "out {out} vs in {inl}");
    }

    #[test]
    fn transmit_pays_exactly_one_grant_copy_per_packet() {
        let mut xen = XenArm::new();
        xen.transmit(0, 1200);
        assert_eq!(xen.grants.copy_count(), 1);
        assert_eq!(xen.hw.nic.tx_count(), 1);
        xen.transmit(0, 1200);
        assert_eq!(xen.grants.copy_count(), 2);
        assert_eq!(xen.grants.live_entries(), 0, "grants retired");
    }

    #[test]
    fn receive_round_trips_real_bytes_through_grant_copy() {
        let mut xen = XenArm::new();
        let copies_before = xen.grants.copy_count();
        let (_, vcpu) = xen.receive(900, Cycles::ZERO);
        assert_eq!(vcpu, 0);
        assert_eq!(xen.grants.copy_count(), copies_before + 1);
    }

    #[test]
    fn guest_context_survives_dom0_occupancy_of_core() {
        // io_latency_in switches the DomU core idle->DomU; the DomU
        // context must be preserved exactly.
        let mut xen = XenArm::new();
        let before = xen.domu.ctxs[0].el1;
        xen.io_latency_in(0);
        let core = xen.hw.machine.topology().guest_core(0);
        assert_eq!(xen.running[core.index()], Running::DomU(0));
        assert_eq!(xen.hw.cpus[core.index()].el1, before);
    }

    #[test]
    fn stage2_fault_is_handled_without_leaving_el2() {
        let mut xen = XenArm::new();
        let mut kvm = crate::KvmArm::new();
        let x = xen.stage2_fault(0);
        let k = kvm.stage2_fault(0);
        assert!(
            x.as_u64() * 3 < k.as_u64(),
            "Type 1 fault handling avoids the world switch: {x} vs {k}"
        );
        // No EL1 state moved.
        assert_eq!(
            xen.machine().trace().total_by_label("save:el1-sys"),
            Cycles::ZERO
        );
    }

    #[test]
    fn evtchn_notifications_flow_through_real_table() {
        let mut xen = XenArm::new();
        let n0 = xen.evtchn.notification_count();
        xen.io_latency_out(0);
        xen.machine_mut().barrier();
        xen.io_latency_in(0);
        assert_eq!(xen.evtchn.notification_count(), n0 + 2);
    }
}
