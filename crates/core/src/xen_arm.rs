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

use crate::context::ArmGuestContext;
use crate::{CostModel, HvKind, Hypervisor, VirqPolicy};
use hvx_arch::{ArchVersion, ArmCpu, ExceptionLevel, Syndrome, TrapCause};
use hvx_engine::{
    CoreId, Cycles, FaultPoint, FlowId, FlowKind, Machine, Topology, TraceKind, TransitionId,
};
use hvx_gic::{dist_reg, Distributor, IntId, VgicCpuInterface};
use hvx_mem::{DomId, GrantTable, Ipa, Pa, PhysMemory, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx_vio::{EventChannels, NetBack, NetFront, Nic, Port, XenNetRing};

use crate::kvm_arm::{GUEST_IPI_SGI, GUEST_RAM_IPA, GUEST_RAM_PAGES, NIC_SPI};

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
    machine: Machine,
    cost: CostModel,
    cpus: Vec<ArmCpu>,
    vgics: Vec<VgicCpuInterface>,
    phys_gic: Distributor,
    mem: PhysMemory,
    domu: Domain,
    dom0: Domain,
    alt_ctx: ArmGuestContext,
    alt_loaded: bool,
    grants: GrantTable,
    evtchn: EventChannels,
    ring: XenNetRing,
    front: NetFront,
    back: NetBack,
    nic: Nic,
    running: Vec<Running>,
    io_port: Port,
    policy: VirqPolicy,
    rr_next: usize,
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
        let topo = Topology::paper_default();
        let num_cores = topo.num_cores();
        let num_vcpus = topo.guest_cores().len();
        let mut cpus: Vec<ArmCpu> = (0..num_cores)
            .map(|_| ArmCpu::new(ArchVersion::V8_0))
            .collect();
        let mut phys_gic = Distributor::new(num_cores, 64);
        for c in 0..num_cores {
            phys_gic.enable(GUEST_IPI_SGI, c).expect("core in range");
            phys_gic.enable(IntId::sgi(2), c).expect("core in range");
        }
        phys_gic.enable(NIC_SPI, 0).expect("spi in range");
        phys_gic
            .set_target(NIC_SPI, topo.io_core().index())
            .expect("io core");

        let domu = Domain::new(num_vcpus, DOMU_RAM_PA, 0x2000);
        let dom0 = Domain::new(topo.host_cores().len(), DOM0_RAM_PA, 0x3000);
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
        let front = NetFront::new(DOMU, tx_bufs);
        let back = NetBack::new(Pa::new(DOM0_RAM_PA + 0x10_0000), 16);

        let mut running = vec![Running::Idle; num_cores];
        let mut vgics: Vec<VgicCpuInterface> =
            (0..num_cores).map(|_| VgicCpuInterface::new()).collect();
        // Install DomU VCPUs on guest cores; Dom0 starts idle (it blocks
        // waiting for I/O, as in the paper's I/O-latency analysis).
        for v in 0..num_vcpus {
            let core = topo.guest_core(v);
            let idx = core.index();
            domu.ctxs[v].install(&mut cpus[idx], &mut vgics[idx]);
            cpus[idx].start_at(ExceptionLevel::El1);
            running[idx] = Running::DomU(v);
        }

        XenArm {
            machine: Machine::new(topo),
            cost,
            cpus,
            vgics,
            phys_gic,
            mem: PhysMemory::new(256 << 20),
            domu,
            dom0,
            alt_ctx,
            alt_loaded: false,
            grants: GrantTable::new(128),
            evtchn,
            ring: XenNetRing::new(),
            front,
            back,
            nic: Nic::new(NIC_SPI),
            running,
            io_port,
            policy: VirqPolicy::Vcpu0,
            rr_next: 0,
            next_rx_buf: 0,
        }
    }

    /// Trap into Xen (EL2) and push the GP trap frame.
    fn xen_trap(&mut self, core: CoreId, cause: TrapCause) {
        self.machine.bump("xen.traps", 1);
        self.machine.charge_as(
            core,
            "hw:trap-el2",
            TraceKind::Trap,
            self.cost.hw_trap,
            TransitionId::TrapToEl2,
        );
        let to = self.cpus[core.index()].take_exception(cause);
        debug_assert_eq!(to, ExceptionLevel::El2);
        self.machine.charge_as(
            core,
            "xen:frame-save",
            TraceKind::ContextSave,
            self.cost.xen_frame.save,
            TransitionId::ContextSave,
        );
    }

    /// Traps into Xen and enters its handler dispatch: the head of the
    /// hypercall, the trapped GICD access, the Stage-2 fault and every
    /// event-channel send.
    fn trap_to_dispatch(&mut self, core: CoreId, cause: TrapCause) {
        self.xen_trap(core, cause);
        self.machine.charge_as(
            core,
            "xen:dispatch",
            TraceKind::Emulation,
            self.cost.xen_dispatch,
            TransitionId::HostDispatch,
        );
    }

    /// Pop the frame and return to the interrupted guest.
    fn xen_return(&mut self, core: CoreId) {
        self.machine.charge_as(
            core,
            "xen:frame-restore",
            TraceKind::ContextRestore,
            self.cost.xen_frame.restore,
            TransitionId::ContextRestore,
        );
        self.machine.charge_as(
            core,
            "hw:eret",
            TraceKind::Return,
            self.cost.hw_eret,
            TransitionId::Eret,
        );
        self.cpus[core.index()].eret().expect("return to guest");
    }

    /// Full EL1 context switch on `core` between domains, charging
    /// Table III save+restore (both Type 1 and Type 2 pay this for VM
    /// switches, §IV). Saves into `save_into` unless switching away from
    /// idle (the idle domain carries no guest state).
    fn domain_switch(&mut self, core: CoreId, to: Running) {
        let idx = core.index();
        let from = self.running[idx];
        let c = self.cost;
        // Save the outgoing domain's full context.
        if from != Running::Idle {
            self.machine.span_enter(TransitionId::ContextSave);
            self.machine
                .charge(core, "save:gp", TraceKind::ContextSave, c.gp.save);
            self.machine
                .charge(core, "save:fp", TraceKind::ContextSave, c.fp.save);
            self.machine
                .charge(core, "save:el1-sys", TraceKind::ContextSave, c.el1_sys.save);
            self.machine.charge_as(
                core,
                "save:vgic",
                TraceKind::ContextSave,
                c.vgic.save,
                TransitionId::VgicLrSave,
            );
            self.machine
                .charge(core, "save:timer", TraceKind::ContextSave, c.timer.save);
            self.machine.charge(
                core,
                "save:el2-config",
                TraceKind::ContextSave,
                c.el2_config.save,
            );
            self.machine
                .charge(core, "save:el2-vm", TraceKind::ContextSave, c.el2_vm.save);
            self.machine.span_exit(TransitionId::ContextSave);
            let ctx = ArmGuestContext::capture(&self.cpus[idx], &self.vgics[idx]);
            match from {
                Running::DomU(v) => {
                    if self.alt_loaded && idx == 0 {
                        self.alt_ctx = ctx;
                    } else {
                        self.domu.ctxs[v] = ctx;
                    }
                }
                Running::Dom0(v) => self.dom0.ctxs[v] = ctx,
                Running::Idle => unreachable!(),
            }
        }
        // Restore the incoming domain's context.
        if to != Running::Idle {
            self.machine.span_enter(TransitionId::ContextRestore);
            self.machine
                .charge(core, "restore:gp", TraceKind::ContextRestore, c.gp.restore);
            self.machine
                .charge(core, "restore:fp", TraceKind::ContextRestore, c.fp.restore);
            self.machine.charge(
                core,
                "restore:el1-sys",
                TraceKind::ContextRestore,
                c.el1_sys.restore,
            );
            self.machine.charge_as(
                core,
                "restore:vgic",
                TraceKind::ContextRestore,
                c.vgic.restore,
                TransitionId::VgicLrRestore,
            );
            self.machine.charge(
                core,
                "restore:timer",
                TraceKind::ContextRestore,
                c.timer.restore,
            );
            self.machine.charge(
                core,
                "restore:el2-config",
                TraceKind::ContextRestore,
                c.el2_config.restore,
            );
            self.machine.charge(
                core,
                "restore:el2-vm",
                TraceKind::ContextRestore,
                c.el2_vm.restore,
            );
            self.machine.span_exit(TransitionId::ContextRestore);
            let ctx = match to {
                Running::DomU(v) => {
                    if self.alt_loaded && idx == 0 {
                        self.alt_ctx
                    } else {
                        self.domu.ctxs[v]
                    }
                }
                Running::Dom0(v) => self.dom0.ctxs[v],
                Running::Idle => unreachable!(),
            };
            ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
            let cpu = &mut self.cpus[idx];
            cpu.start_at(ExceptionLevel::El2);
            cpu.el2.spsr_el2 = 0b0101;
            cpu.el2.elr_el2 = ctx.gp.pc;
        }
        self.running[idx] = to;
    }

    /// Wakes a blocked domain VCPU on `core` out of the idle domain:
    /// credit-scheduler pick, context restore, event-interrupt injection,
    /// ERET into the domain. Charges the §IV idle-domain-switch path.
    fn wake_into(&mut self, core: CoreId, target: Running, extra_wake: bool, charge_upcall: bool) {
        let c = self.cost;
        self.machine.charge_as(
            core,
            "gic:phys-ack",
            TraceKind::Host,
            c.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.machine.charge_as(
            core,
            "xen:sched",
            TraceKind::Sched,
            c.xen_sched,
            TransitionId::Sched,
        );
        self.domain_switch(core, target);
        self.machine.bump("xen.virq_injections", 1);
        self.machine.charge_as(
            core,
            "xen:vgic-inject",
            TraceKind::Emulation,
            c.xen_vgic_inject,
            TransitionId::VirqInject,
        );
        let idx = core.index();
        let _ = self.vgics[idx].inject(EVTCHN_VIRQ.raw(), 0x40);
        self.machine.charge_as(
            core,
            "hw:eret",
            TraceKind::Return,
            c.hw_eret,
            TransitionId::Eret,
        );
        self.cpus[idx].eret().expect("enter domain");
        if charge_upcall {
            self.machine.charge_as(
                core,
                "xen:event-upcall",
                TraceKind::Host,
                c.xen_event_upcall,
                TransitionId::EventUpcall,
            );
        }
        let _ = self.vgics[idx].guest_ack();
        let _ = self.vgics[idx].guest_eoi(EVTCHN_VIRQ.raw());
        if extra_wake {
            self.machine.charge_as(
                core,
                "xen:wake-blocked",
                TraceKind::Sched,
                c.xen_wake_blocked,
                TransitionId::Sched,
            );
        }
    }

    /// Injects a virtual interrupt into a DomU VCPU that is running in
    /// guest mode: physical poke SGI, trap, list-register sync (Xen
    /// reads the VGIC state back to merge the new interrupt), return,
    /// guest acknowledge. Returns the instant after the guest ack.
    fn inject_virq_running(
        &mut self,
        from: CoreId,
        vcpu: usize,
        virq: IntId,
        flow: Option<FlowId>,
    ) -> Cycles {
        if self.machine.fault(FaultPoint::VirqDrop) {
            // Fault: the upcall is lost before DomU observes it. Xen's
            // event-channel pending bit survives, so the next scan
            // re-notifies — charged as recovery before the injection
            // that actually lands.
            let c = self.cost;
            let rec = self
                .machine
                .flow_begin(FlowKind::FaultRecovery, from, "fault:upcall-lost");
            self.machine.charge_as(
                from,
                "xen:evtchn-redeliver",
                TraceKind::Emulation,
                c.xen_evtchn_send + c.xen_event_upcall,
                TransitionId::EvtchnRedeliver,
            );
            self.machine.flow_end(rec, from, "xen:evtchn-redeliver");
        }
        self.inject_virq_running_reliable(from, vcpu, virq, flow)
    }

    /// The always-delivered tail of [`Self::inject_virq_running`].
    /// `flow` (when tracing) links the injection into the causal chain
    /// that produced it — e.g. the IRQ-delivery chain opened when the
    /// physical NIC interrupt landed on the I/O core.
    fn inject_virq_running_reliable(
        &mut self,
        from: CoreId,
        vcpu: usize,
        virq: IntId,
        flow: Option<FlowId>,
    ) -> Cycles {
        let c = self.cost;
        let core = self.machine.topology().guest_core(vcpu);
        self.phys_gic
            .raise(IntId::sgi(2), core.index())
            .expect("core in range");
        let arrival = self.machine.signal(from, core, c.ipi_wire);
        self.machine.wait_until(core, arrival);
        self.xen_trap(core, TrapCause::Irq);
        self.machine.charge_as(
            core,
            "gic:phys-ack",
            TraceKind::Host,
            c.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.phys_gic.acknowledge(core.index()).expect("core");
        self.phys_gic
            .complete(core.index(), IntId::sgi(2))
            .expect("active");
        // Xen syncs the LR state from the hardware before merging the new
        // virtual interrupt, then writes it back.
        self.machine.charge_as(
            core,
            "save:vgic",
            TraceKind::ContextSave,
            c.vgic.save,
            TransitionId::VgicLrSave,
        );
        self.machine.bump("xen.virq_injections", 1);
        self.machine.flow_step(flow, core, "virq:inject");
        self.machine.charge_as(
            core,
            "xen:vgic-inject",
            TraceKind::Emulation,
            c.xen_vgic_inject,
            TransitionId::VirqInject,
        );
        let _ = self.vgics[core.index()].inject(virq.raw(), 0x80);
        debug_assert_eq!(self.vgics[core.index()].last_injected(), Some(virq.raw()));
        self.machine.charge_as(
            core,
            "restore:vgic",
            TraceKind::ContextRestore,
            c.vgic.restore,
            TransitionId::VgicLrRestore,
        );
        self.xen_return(core);
        self.machine.charge_as(
            core,
            "gic:vif-ack",
            TraceKind::Guest,
            c.gic_vif_access,
            TransitionId::GicAccess,
        );
        let acked = self.vgics[core.index()].guest_ack();
        debug_assert_eq!(acked, Some(virq.raw()));
        self.machine.flow_end(flow, core, "guest:ack");
        let t_ack = self.machine.now(core);
        self.machine.charge_as(
            core,
            "gic:vif-eoi",
            TraceKind::Guest,
            c.gic_vif_access,
            TransitionId::GicAccess,
        );
        let _ = self.vgics[core.index()].guest_eoi(virq.raw());
        t_ack
    }

    /// Extension benchmark: a demand Stage-2 fault handled entirely in
    /// EL2 — Xen's p2m code allocates and maps a page without leaving
    /// the hypervisor, so the fault is far cheaper than split-mode
    /// KVM's.
    pub fn stage2_fault(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let ipa = Ipa::new(GUEST_RAM_IPA + self.domu.s2.mapped_pages() * PAGE_SIZE);
        let t0 = self.machine.now(core);
        self.trap_to_dispatch(
            core,
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: ipa.value(),
                write: true,
            }),
        );
        self.machine.charge_as(
            core,
            "xen:page-alloc",
            TraceKind::Host,
            self.cost.page_alloc,
            TransitionId::HostDispatch,
        );
        let pa = Pa::new(DOMU_RAM_PA + self.domu.s2.mapped_pages() * PAGE_SIZE);
        self.domu
            .s2
            .map_page(ipa, pa, S2Perms::RWX)
            .expect("fresh page maps");
        self.xen_return(core);
        self.machine.now(core) - t0
    }

    /// Restores DomU VCPU0 onto PCPU0 if a `vm_switch` left the
    /// alternate domain loaded (uncharged scaffolding).
    fn ensure_primary(&mut self) {
        if self.alt_loaded {
            let core = self.machine.topology().guest_core(0);
            let idx = core.index();
            self.alt_ctx = ArmGuestContext::capture(&self.cpus[idx], &self.vgics[idx]);
            self.alt_loaded = false;
            let ctx = self.domu.ctxs[0];
            ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
            self.cpus[idx].start_at(ExceptionLevel::El1);
            self.running[idx] = Running::DomU(0);
        }
    }

    fn pick_irq_vcpu(&mut self) -> usize {
        match self.policy {
            VirqPolicy::Vcpu0 => 0,
            VirqPolicy::RoundRobin => {
                let v = self.rr_next % self.num_vcpus();
                self.rr_next += 1;
                v
            }
        }
    }

    /// The Dom0 VCPU (and its core) that runs the netback backend.
    fn backend(&self) -> (CoreId, usize) {
        let core = self.machine.topology().backend_core();
        let vcpu = core.index() - self.machine.topology().guest_cores().len();
        (core, vcpu)
    }

    /// The guest's event-channel doorbell: DomU's `EVTCHNOP_send`
    /// hypercall notifies Dom0, and the physical IPI wakes Dom0 out of
    /// the idle domain on the backend core unless it is already running
    /// there. Returns the kick's flow chain, which the caller continues
    /// (or, for I/O Latency Out, ends) at Dom0's wake. I/O Latency Out
    /// is exactly this.
    fn kick_dom0(&mut self, core: CoreId) -> Option<FlowId> {
        let c = self.cost;
        let (backend_core, b) = self.backend();
        self.trap_to_dispatch(core, TrapCause::HYPERCALL);
        let flow = self
            .machine
            .flow_begin(FlowKind::EvtchnSignal, core, "evtchn:send");
        self.machine.charge_as(
            core,
            "xen:evtchn-send",
            TraceKind::Emulation,
            c.xen_evtchn_send,
            TransitionId::EventChannelSignal,
        );
        let peer = self.evtchn.notify(self.io_port, DOMU).expect("bound port");
        debug_assert_eq!(peer, DomId::DOM0);
        let arrival = self.machine.signal(core, backend_core, c.ipi_wire);
        self.xen_return(core);
        self.machine.wait_until(backend_core, arrival);
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
        self.machine.flow_step(flow, core, "evtchn:send");
        self.machine.charge_as(
            core,
            "xen:evtchn-send",
            TraceKind::Emulation,
            self.cost.xen_evtchn_send,
            TransitionId::EventChannelSignal,
        );
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
        self.machine.charge_as(
            core,
            "xen:wake-blocked",
            TraceKind::Sched,
            self.cost.xen_wake_blocked,
            TransitionId::Sched,
        );
        self.wake_into(core, Running::DomU(vcpu), false, false);
    }

    /// A trapped access to the emulated GIC distributor register `reg`:
    /// the Stage-2 abort lands in EL2, where Xen decodes and emulates it
    /// without leaving the hypervisor. The caller returns to the guest.
    fn gicd_access(&mut self, core: CoreId, reg: u64, write: bool) {
        self.trap_to_dispatch(
            core,
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: crate::GICD_IPA + reg,
                write,
            }),
        );
        self.machine.charge_as(
            core,
            "xen:mmio-decode",
            TraceKind::Emulation,
            self.cost.xen_mmio_decode,
            TransitionId::MmioDecode,
        );
        self.machine.charge_as(
            core,
            "xen:gicd-emulate",
            TraceKind::Emulation,
            self.cost.xen_gicd_emulate,
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
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn num_vcpus(&self) -> usize {
        self.machine.topology().guest_cores().len()
    }

    fn set_virq_policy(&mut self, policy: VirqPolicy) {
        self.policy = policy;
    }

    fn sample_metrics(&mut self) {
        let notifications = self.evtchn.notification_count();
        let copies = self.grants.copy_count();
        let injected: u64 = self.vgics.iter().map(|v| v.injected_count()).sum();
        let completed: u64 = self.vgics.iter().map(|v| v.completed_count()).sum();
        self.machine.bump("vio.evtchn_notifications", notifications);
        self.machine.bump("vio.grant_copies", copies);
        self.machine.bump("gic.virq_injected", injected);
        self.machine.bump("gic.virq_completed", completed);
        // Fault-recovery counters register only when faults actually
        // fired, keeping the fault-free profile output unchanged.
        let stalls = self.nic.stall_count();
        if stalls > 0 {
            self.machine.bump("vio.nic_stalls", stalls);
            self.machine
                .bump("vio.nic_rekicks", self.nic.rekick_count());
        }
        // Device-side flow correlators register only under event tracing
        // so the committed baseline profiles stay byte-identical.
        if self.machine.event_tracing() {
            let port = self.evtchn.last_signal().map_or(0, |p| u64::from(p.0) + 1);
            self.machine.bump("vio.evtchn_last_port", port);
            self.machine.bump("vio.nic_irq_seq", self.nic.irq_count());
            let cores: Vec<CoreId> = self.machine.topology().all_cores().collect();
            for core in cores {
                let permille = (self.machine.utilization(core) * 1000.0).round() as u64;
                self.machine.observe("machine.util_permille", permille);
            }
        }
    }

    fn hypercall(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.trap_to_dispatch(core, TrapCause::HYPERCALL);
        self.xen_return(core);
        self.machine.now(core) - t0
    }

    fn gicd_trap(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.gicd_access(core, dist_reg::GICD_ISENABLER, false);
        let _ = self
            .domu
            .dist
            .mmio_read(dist_reg::GICD_ISENABLER, vcpu)
            .expect("register modelled");
        self.xen_return(core);
        self.machine.now(core) - t0
    }

    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles {
        self.ensure_primary();
        assert_ne!(from, to, "virtual IPI requires two VCPUs");
        let from_core = self.machine.topology().guest_core(from);
        let t0 = self.machine.now(from_core);
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
        let core = self.machine.topology().guest_core(vcpu);
        let vgic = &mut self.vgics[core.index()];
        vgic.inject(GUEST_IPI_SGI.raw(), 0x80)
            .expect("LR available");
        vgic.guest_ack().expect("pending virq");
        let t0 = self.machine.now(core);
        self.machine.charge_as(
            core,
            "gic:vif-eoi",
            TraceKind::Guest,
            self.cost.gic_vif_access,
            TransitionId::GicAccess,
        );
        self.vgics[core.index()]
            .guest_eoi(GUEST_IPI_SGI.raw())
            .expect("active virq");
        self.machine.now(core) - t0
    }

    fn vm_switch(&mut self) -> Cycles {
        let core = self.machine.topology().guest_core(0);
        let t0 = self.machine.now(core);
        self.xen_trap(core, TrapCause::HYPERCALL);
        self.machine.charge_as(
            core,
            "xen:sched",
            TraceKind::Sched,
            self.cost.xen_sched,
            TransitionId::Sched,
        );
        // Unlike the hypercall path, switching VMs forces Xen to move the
        // full EL1 state (§IV: "in this case both KVM and Xen ARM need to
        // do this").
        let to = Running::DomU(0);
        self.alt_loaded = !self.alt_loaded;
        self.domain_switch(core, to);
        self.machine.charge_as(
            core,
            "hw:eret",
            TraceKind::Return,
            self.cost.hw_eret,
            TransitionId::Eret,
        );
        self.cpus[core.index()].eret().expect("enter domain");
        self.machine.now(core) - t0
    }

    fn io_latency_out(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let (backend_core, _) = self.backend();
        let t0 = self.machine.now(core);
        let flow = self.kick_dom0(core);
        self.machine.flow_end(flow, backend_core, "dom0:wake");
        // Dom0 now returns to idle so the next iteration starts cold, as
        // in the benchmark (uncharged bookkeeping).
        let t1 = self.machine.now(backend_core);
        self.domain_switch_silent(backend_core, Running::Idle);
        t1 - t0
    }

    fn io_latency_in(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let (backend_core, b) = self.backend();
        let core = self.machine.topology().guest_core(vcpu);
        // Dom0 runs the backend for this measurement.
        self.domain_switch_silent(backend_core, Running::Dom0(b));
        let t0 = self.machine.now(backend_core);
        self.dom0_send(backend_core, None);
        let arrival = self.machine.signal(backend_core, core, self.cost.ipi_wire);
        self.xen_return(backend_core);
        // The receiving DomU VCPU blocked in WFI; Xen switched its core
        // to the idle domain ("switching from the idle domain to the
        // receiving VM in EL1", §IV).
        self.machine.wait_until(core, arrival);
        self.wake_blocked_domu(core, vcpu);
        self.evtchn.clear_pending(DOMU, self.io_port);
        self.machine.now(core) - t0
    }

    fn guest_compute(&mut self, vcpu: usize, work: Cycles) {
        let core = self.machine.topology().guest_core(vcpu);
        self.machine.charge_as(
            core,
            "guest:compute",
            TraceKind::Guest,
            work,
            TransitionId::GuestRun,
        );
    }

    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.cost;
        let core = self.machine.topology().guest_core(vcpu);
        let (backend_core, _) = self.backend();
        // Guest stack + netfront (grant issue) — §V guest-side PV cost.
        self.machine.charge_as(
            core,
            "guest:net-stack-tx",
            TraceKind::Guest,
            c.stack_tx_per_packet + c.stack_bytes(len) + c.xen_guest_pv / 2,
            TransitionId::GuestStack,
        );
        let payload = vec![0xABu8; len.min(PAGE_SIZE as usize)];
        self.front
            .post_tx(
                &mut self.ring,
                &mut self.grants,
                &self.domu.s2,
                &mut self.mem,
                &payload,
            )
            .expect("TX pool has room");
        // Kick Dom0 through the event channel; netback grant-copies and
        // transmits.
        let flow = self.kick_dom0(core);
        self.machine.flow_step(flow, backend_core, "dom0:wake");
        self.machine.charge_as(
            backend_core,
            "xen:netback-tx",
            TraceKind::Io,
            c.xen_net_per_packet,
            TransitionId::Netback,
        );
        grant_copy_with_retry(&mut self.machine, backend_core, c.xen_grant_copy);
        let pkts = self
            .back
            .process_tx(&mut self.ring, &mut self.grants, &mut self.mem)
            .expect("granted TX frame");
        debug_assert_eq!(pkts.len(), 1);
        self.machine.charge_as(
            backend_core,
            "host:net-stack-tx",
            TraceKind::Host,
            c.host_net_tx,
            TransitionId::HostStack,
        );
        if self.machine.fault(FaultPoint::NicStall) {
            self.nic.record_stall_and_rekick();
            // Fault: NIC stall before DMA — Dom0's driver times out and
            // re-kicks the ring (same recovery shape as KVM's, minus
            // the ioeventfd; the doorbell is a plain MMIO write).
            self.machine.charge_as(
                backend_core,
                "nic:stall-rekick",
                TraceKind::Io,
                c.nic_dma * 4,
                TransitionId::VirtioRekick,
            );
        }
        self.machine.charge_as(
            backend_core,
            "nic:dma",
            TraceKind::Io,
            c.nic_dma,
            TransitionId::NicDma,
        );
        for p in pkts {
            self.nic.transmit(p);
        }
        self.machine.flow_end(flow, backend_core, "nic:dma");
        self.front
            .reap_tx(&mut self.ring, &mut self.grants)
            .expect("grants end cleanly");
        // Dom0 blocks again awaiting the next event.
        self.domain_switch_silent(backend_core, Running::Idle);
        self.machine.now(backend_core)
    }

    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.cost;
        let vcpu = self.pick_irq_vcpu();
        let io = self.machine.topology().io_core();
        let (_, io_dom0_vcpu) = (io, io.index() - self.num_vcpus());
        // DomU must have posted an RX grant (netfront keeps the ring
        // stocked; the guest-side cost is folded into stack-rx below).
        let rx_buf = Ipa::new(GUEST_RAM_IPA + (16 + (self.next_rx_buf % 8) as u64) * PAGE_SIZE);
        self.next_rx_buf += 1;
        self.front
            .post_rx(&mut self.ring, &mut self.grants, &self.domu.s2, rx_buf)
            .expect("RX grant issued");
        self.nic
            .receive_from_wire(hvx_vio::Packet::new(0, vec![0xCDu8; len]));
        self.phys_gic.raise(NIC_SPI, io.index()).expect("spi");
        self.nic.note_irq();
        self.machine.wait_until(io, arrival);
        // Physical IRQ lands in Xen; Dom0 holds the NIC driver, so Xen
        // wakes Dom0 on the I/O core (IRQ-driven: no event-channel
        // kthread wake on this side).
        let flow = self
            .machine
            .flow_begin(FlowKind::IrqDelivery, io, "host:irq");
        self.machine.charge_as(
            io,
            "host:irq",
            TraceKind::Host,
            c.native_irq,
            TransitionId::HostIrq,
        );
        self.phys_gic.acknowledge(io.index()).expect("core");
        self.phys_gic.complete(io.index(), NIC_SPI).expect("active");
        if self.running[io.index()] != Running::Dom0(io_dom0_vcpu) {
            self.wake_into(io, Running::Dom0(io_dom0_vcpu), false, true);
        }
        // Dom0's Linux stack up to netback, then the grant copy into the
        // DomU frame.
        self.machine.charge_as(
            io,
            "host:net-stack-rx",
            TraceKind::Host,
            c.host_net_rx,
            TransitionId::HostStack,
        );
        self.machine.charge_as(
            io,
            "xen:netback-rx",
            TraceKind::Io,
            c.xen_net_per_packet,
            TransitionId::Netback,
        );
        grant_copy_with_retry(&mut self.machine, io, c.xen_grant_copy);
        let pkt = self.nic.take_rx().expect("packet queued");
        self.back
            .deliver_rx(&mut self.ring, &mut self.grants, &mut self.mem, &pkt)
            .expect("RX grant posted");
        // Signal DomU; Dom0 returns to idle.
        self.notify_domu(io, vcpu, flow);
        // DomU: netfront reaps the filled frame; guest stack.
        let core = self.machine.topology().guest_core(vcpu);
        let got = self
            .front
            .reap_rx(
                &mut self.ring,
                &mut self.grants,
                &self.domu.s2,
                &mut self.mem,
            )
            .expect("response ring valid");
        debug_assert_eq!(got.len(), 1);
        debug_assert_eq!(got[0].len(), len);
        if self.machine.fault(FaultPoint::VirqSpurious) {
            // Fault: a spurious event upcall — DomU scans the pending
            // bitmap, finds nothing, and returns.
            self.machine.charge_as(
                core,
                "guest:spurious-upcall",
                TraceKind::Guest,
                c.xen_event_upcall,
                TransitionId::EventUpcall,
            );
        }
        self.machine.charge_as(
            core,
            "guest:net-stack-rx",
            TraceKind::Guest,
            c.stack_rx_per_packet + c.stack_bytes(len) + c.xen_guest_pv / 2,
            TransitionId::GuestStack,
        );
        (self.machine.now(core), vcpu)
    }

    fn deliver_virq(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.inject_virq_running(core, vcpu, IntId::VTIMER, None);
        self.machine.now(core) - t0
    }

    fn next_irq_vcpu(&mut self) -> usize {
        self.pick_irq_vcpu()
    }

    fn deliver_virq_blocked(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.wake_blocked_domu(core, vcpu);
        self.machine.now(core) - t0
    }

    fn receive_burst(
        &mut self,
        chunks: usize,
        chunk_len: usize,
        arrival: Cycles,
    ) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.cost;
        let total = chunks * chunk_len;
        let vcpu = self.pick_irq_vcpu();
        let io = self.machine.topology().io_core();
        let io_dom0_vcpu = io.index() - self.num_vcpus();
        self.nic.note_irq();
        self.machine.wait_until(io, arrival);
        let flow = self
            .machine
            .flow_begin(FlowKind::IrqDelivery, io, "host:irq");
        self.machine.charge_as(
            io,
            "host:irq",
            TraceKind::Host,
            c.native_irq,
            TransitionId::HostIrq,
        );
        if self.running[io.index()] != Running::Dom0(io_dom0_vcpu) {
            self.wake_into(io, Running::Dom0(io_dom0_vcpu), false, true);
        }
        self.machine.charge_as(
            io,
            "host:net-stack-rx",
            TraceKind::Host,
            c.host_net_rx,
            TransitionId::HostStack,
        );
        self.machine.charge_as(
            io,
            "xen:netback-rx",
            TraceKind::Io,
            c.xen_net_per_packet,
            TransitionId::Netback,
        );
        // THE Xen cost: one grant copy per page of the burst — "Dom0
        // cannot configure the network device to DMA the data directly
        // into guest buffers, because Dom0 does not have access to the
        // VM's memory" (§V).
        for _ in 0..chunks {
            self.machine.charge_as(
                io,
                "xen:grant-copy",
                TraceKind::Copy,
                c.xen_grant_copy,
                TransitionId::GrantCopy,
            );
        }
        self.notify_domu(io, vcpu, flow);
        let core = self.machine.topology().guest_core(vcpu);
        self.machine.charge_as(
            core,
            "guest:net-stack-rx",
            TraceKind::Guest,
            c.stack_rx_per_packet + c.stack_bytes(total) + c.xen_guest_pv / 2,
            TransitionId::GuestStack,
        );
        (self.machine.now(core), vcpu)
    }

    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.cost;
        let total = chunks * chunk_len;
        let core = self.machine.topology().guest_core(vcpu);
        let (backend_core, _) = self.backend();
        self.machine.charge_as(
            core,
            "guest:net-stack-tx",
            TraceKind::Guest,
            c.stack_tx_per_packet + c.stack_bytes(total) + c.xen_guest_pv / 2,
            TransitionId::GuestStack,
        );
        // One kick for the burst.
        let flow = self.kick_dom0(core);
        self.machine.flow_step(flow, backend_core, "dom0:wake");
        self.machine.charge_as(
            backend_core,
            "xen:netback-tx",
            TraceKind::Io,
            c.xen_net_per_packet,
            TransitionId::Netback,
        );
        for _ in 0..chunks {
            self.machine.charge_as(
                backend_core,
                "xen:grant-copy",
                TraceKind::Copy,
                c.xen_grant_copy,
                TransitionId::GrantCopy,
            );
        }
        self.machine.charge_as(
            backend_core,
            "host:net-stack-tx",
            TraceKind::Host,
            c.host_net_tx,
            TransitionId::HostStack,
        );
        self.machine.charge_as(
            backend_core,
            "nic:dma",
            TraceKind::Io,
            c.nic_dma,
            TransitionId::NicDma,
        );
        self.machine.flow_end(flow, backend_core, "nic:dma");
        self.domain_switch_silent(backend_core, Running::Idle);
        self.machine.now(backend_core)
    }
}

impl XenArm {
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
            let ctx = ArmGuestContext::capture(&self.cpus[idx], &self.vgics[idx]);
            match from {
                Running::DomU(v) => {
                    if self.alt_loaded && idx == 0 {
                        self.alt_ctx = ctx;
                    } else {
                        self.domu.ctxs[v] = ctx;
                    }
                }
                Running::Dom0(v) => self.dom0.ctxs[v] = ctx,
                Running::Idle => unreachable!(),
            }
        }
        if to != Running::Idle {
            let ctx = match to {
                Running::DomU(v) => {
                    if self.alt_loaded && idx == 0 {
                        self.alt_ctx
                    } else {
                        self.domu.ctxs[v]
                    }
                }
                Running::Dom0(v) => self.dom0.ctxs[v],
                Running::Idle => unreachable!(),
            };
            ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
            self.cpus[idx].start_at(ExceptionLevel::El1);
        }
        self.running[idx] = to;
    }
}

/// Charges one grant copy, then consults the [`FaultPoint::GrantCopyFail`]
/// plan: each transient failure charges a retry — backoff plus a fresh
/// copy — with the backoff doubling, bounded at three retries (netback's
/// real recovery shape). With no fault plan installed this is exactly
/// one charge and one branch.
pub(crate) fn grant_copy_with_retry(machine: &mut Machine, core: CoreId, copy: Cycles) {
    let flow = machine.flow_begin(FlowKind::GrantCopy, core, "grant:copy");
    machine.charge_as(
        core,
        "xen:grant-copy",
        TraceKind::Copy,
        copy,
        TransitionId::GrantCopy,
    );
    let mut backoff = copy / 2;
    for _ in 0..3 {
        if !machine.fault(FaultPoint::GrantCopyFail) {
            break;
        }
        machine.flow_step(flow, core, "grant:retry");
        machine.charge_as(
            core,
            "xen:grant-retry",
            TraceKind::Copy,
            backoff + copy,
            TransitionId::GrantRetry,
        );
        backoff = backoff * 2;
    }
    machine.flow_end(flow, core, "grant:done");
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
        assert_eq!(xen.nic.tx_count(), 1);
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
        let core = xen.machine.topology().guest_core(0);
        assert_eq!(xen.running[core.index()], Running::DomU(0));
        assert_eq!(xen.cpus[core.index()].el1, before);
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
