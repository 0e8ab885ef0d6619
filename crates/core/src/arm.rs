//! The ARM hardware layer under both ARM hypervisors.
//!
//! The paper explains every result along two axes: the hardware (ARM's
//! EL2 against x86's root mode) and the hypervisor software (Type 1
//! with I/O through Dom0, against Type 2 with I/O in the host kernel).
//! [`ArmHw`] is the hardware half on ARM. It owns what an ARMv8 server
//! gives either hypervisor — the machine and its cost model, the CPUs,
//! the GIC's physical distributor and per-core virtual CPU interfaces,
//! memory, the NIC and the interrupt-target policy — and charges the
//! steps that cost the same whichever hypervisor takes them: the trap
//! to EL2, the ERET, Table III's register classes ([`RegClass`]), the
//! guest's ack and EOI on its virtual CPU interface, the physical ack
//! and the kick SGI. Which of these steps a path takes stays with
//! [`crate::KvmArm`] and [`crate::XenArm`]: the paper explains the
//! Table II hypercall gap by exactly that choice (split-mode KVM moves
//! every class on every exit, Xen only on a VM switch).

use crate::steps::{charge_step, IrqTarget, Step};
use crate::{ArmGuestContext, ClassCosts, CostModel};
use hvx_arch::{ArchVersion, ArmCpu, ExceptionLevel, TrapCause};
use hvx_engine::{CoreId, Cycles, FlowId, FlowKind, Machine, Topology, TraceKind, TransitionId};
use hvx_gic::{Distributor, IntId, VgicCpuInterface, VgicError};
use hvx_mem::PhysMemory;
use hvx_vio::Nic;

/// Guest-physical base of the VM's RAM.
pub const GUEST_RAM_IPA: u64 = 0x8000_0000;
/// Pages of guest RAM in the model (enough for ring buffers; capacity is
/// not the subject of study).
pub const GUEST_RAM_PAGES: u64 = 512;
/// Guest-physical base of the emulated GIC distributor (unmapped in
/// Stage-2, so every access traps).
pub const GICD_IPA: u64 = 0x0800_0000;
/// The SGI used for guest IPIs.
pub const GUEST_IPI_SGI: IntId = IntId::sgi(5);
/// Physical NIC interrupt.
pub const NIC_SPI: IntId = IntId::spi(43);

/// One row of Table III: a class of register state that a world switch
/// saves and restores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// General-purpose registers.
    Gp,
    /// SIMD/FP registers.
    Fp,
    /// EL1 system registers.
    El1Sys,
    /// The VGIC control interface, list registers included.
    Vgic,
    /// Virtual timer registers.
    Timer,
    /// Per-VM EL2 configuration registers.
    El2Config,
    /// Per-VM EL2 virtual-memory registers.
    El2Vm,
}

impl RegClass {
    /// Table III's rows, in the paper's order.
    pub const ALL: [RegClass; 7] = [
        RegClass::Gp,
        RegClass::Fp,
        RegClass::El1Sys,
        RegClass::Vgic,
        RegClass::Timer,
        RegClass::El2Config,
        RegClass::El2Vm,
    ];

    /// The trace labels of this class's save and restore steps.
    pub const fn labels(self) -> (&'static str, &'static str) {
        match self {
            RegClass::Gp => ("save:gp", "restore:gp"),
            RegClass::Fp => ("save:fp", "restore:fp"),
            RegClass::El1Sys => ("save:el1-sys", "restore:el1-sys"),
            RegClass::Vgic => ("save:vgic", "restore:vgic"),
            RegClass::Timer => ("save:timer", "restore:timer"),
            RegClass::El2Config => ("save:el2-config", "restore:el2-config"),
            RegClass::El2Vm => ("save:el2-vm", "restore:el2-vm"),
        }
    }

    /// This class's save and restore costs in `cost`.
    pub const fn costs(self, cost: &CostModel) -> ClassCosts {
        match self {
            RegClass::Gp => cost.gp,
            RegClass::Fp => cost.fp,
            RegClass::El1Sys => cost.el1_sys,
            RegClass::Vgic => cost.vgic,
            RegClass::Timer => cost.timer,
            RegClass::El2Config => cost.el2_config,
            RegClass::El2Vm => cost.el2_vm,
        }
    }
}

/// Which way a register class moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Motion {
    /// From the registers to memory.
    Save,
    /// From memory to the registers.
    Restore,
}

/// The ARMv8 server under a hypervisor; see the module docs.
#[derive(Debug)]
pub(crate) struct ArmHw {
    pub(crate) machine: Machine,
    pub(crate) cost: CostModel,
    pub(crate) cpus: Vec<ArmCpu>,
    pub(crate) vgics: Vec<VgicCpuInterface>,
    pub(crate) phys_gic: Distributor,
    pub(crate) mem: PhysMemory,
    pub(crate) nic: Nic,
    pub(crate) irq: IrqTarget,
    /// The physical SGI the hypervisor kicks a guest core with.
    kick_sgi: IntId,
}

impl ArmHw {
    /// The paper's 8-core server at `version`, with `mem_bytes` of RAM.
    /// Every core takes guest IPIs and `kick_sgi`; the NIC interrupts
    /// the I/O core.
    pub(crate) fn new(
        cost: CostModel,
        version: ArchVersion,
        kick_sgi: IntId,
        mem_bytes: u64,
    ) -> Self {
        let topo = Topology::paper_default();
        let num_cores = topo.num_cores();
        let mut phys_gic = Distributor::new(num_cores, 64);
        for c in 0..num_cores {
            phys_gic.enable(kick_sgi, c).expect("core in range");
            phys_gic.enable(GUEST_IPI_SGI, c).expect("core in range");
        }
        phys_gic.enable(NIC_SPI, 0).expect("spi in range");
        phys_gic
            .set_target(NIC_SPI, topo.io_core().index())
            .expect("io core in range");
        ArmHw {
            machine: Machine::new(topo),
            cost,
            cpus: (0..num_cores).map(|_| ArmCpu::new(version)).collect(),
            vgics: (0..num_cores).map(|_| VgicCpuInterface::new()).collect(),
            phys_gic,
            mem: PhysMemory::new(mem_bytes),
            nic: Nic::new(NIC_SPI),
            irq: IrqTarget::default(),
            kick_sgi,
        }
    }

    /// Charges `step` on `core`.
    pub(crate) fn step(&mut self, core: CoreId, step: Step) {
        charge_step(&mut self.machine, &self.cost, core, step);
    }

    /// The NIC's interrupt on the I/O core `io`: opens the IRQ-delivery
    /// chain there and charges the host's IRQ entry.
    pub(crate) fn nic_irq(&mut self, io: CoreId) -> Option<FlowId> {
        let flow = self
            .machine
            .flow_begin(FlowKind::IrqDelivery, io, "host:irq");
        self.step(io, Step::HostIrq);
        flow
    }

    /// The NIC's DMA of a transmitted frame on `core`, which ends the
    /// transmit chain `flow`.
    pub(crate) fn nic_dma(&mut self, core: CoreId, flow: Option<FlowId>) {
        self.step(core, Step::NicDma);
        self.machine.flow_end(flow, core, "nic:dma");
    }

    /// The trap to EL2 on `core`, counted under the hypervisor's
    /// `counter`.
    pub(crate) fn trap(&mut self, core: CoreId, cause: TrapCause, counter: &'static str) {
        self.machine.bump(counter, 1);
        self.machine.charge_as(
            core,
            "hw:trap-el2",
            TraceKind::Trap,
            self.cost.hw_trap,
            TransitionId::TrapToEl2,
        );
        let to = self.cpus[core.index()].take_exception(cause);
        debug_assert_eq!(to, ExceptionLevel::El2, "traps land in EL2");
    }

    /// The ERET out of EL2 on `core`, into the context the caller set
    /// up.
    pub(crate) fn eret(&mut self, core: CoreId) {
        self.machine.charge_as(
            core,
            "hw:eret",
            TraceKind::Return,
            self.cost.hw_eret,
            TransitionId::Eret,
        );
        self.cpus[core.index()]
            .eret()
            .expect("EL2 returns to a lower level");
    }

    /// Saves or restores every register class on `core` in one
    /// context-save or context-restore span: all but FP when `lazy_fp`
    /// (lazy FPSIMD switching).
    pub(crate) fn move_classes(&mut self, core: CoreId, motion: Motion, lazy_fp: bool) {
        let span = match motion {
            Motion::Save => TransitionId::ContextSave,
            Motion::Restore => TransitionId::ContextRestore,
        };
        self.machine.span_enter(span);
        for class in RegClass::ALL {
            if !(lazy_fp && class == RegClass::Fp) {
                self.move_class(core, class, motion);
            }
        }
        self.machine.span_exit(span);
    }

    /// Moves one register class on `core`. The VGIC class dominates
    /// Table III, so it charges under its own list-register span: a
    /// profile can answer "how much of context save is VGIC?".
    pub(crate) fn move_class(&mut self, core: CoreId, class: RegClass, motion: Motion) {
        let (save, restore) = class.labels();
        let costs = class.costs(&self.cost);
        let (label, kind, cost, lr) = match motion {
            Motion::Save => (
                save,
                TraceKind::ContextSave,
                costs.save,
                TransitionId::VgicLrSave,
            ),
            Motion::Restore => (
                restore,
                TraceKind::ContextRestore,
                costs.restore,
                TransitionId::VgicLrRestore,
            ),
        };
        if class == RegClass::Vgic {
            self.machine.charge_as(core, label, kind, cost, lr);
        } else {
            self.machine.charge(core, label, kind, cost);
        }
    }

    /// The guest live on `core`.
    pub(crate) fn capture(&self, core: CoreId) -> ArmGuestContext {
        ArmGuestContext::capture(&self.cpus[core.index()], &self.vgics[core.index()])
    }

    /// Installs `ctx` on `core`, running at EL1 (uncharged).
    pub(crate) fn install(&mut self, core: CoreId, ctx: &ArmGuestContext) {
        let idx = core.index();
        ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
        self.cpus[idx].start_at(ExceptionLevel::El1);
    }

    /// Installs `ctx` on `core` behind EL2, so the next ERET enters it
    /// at its PC in EL1.
    pub(crate) fn load_for_eret(&mut self, core: CoreId, ctx: &ArmGuestContext) {
        let idx = core.index();
        ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
        let cpu = &mut self.cpus[idx];
        cpu.start_at(ExceptionLevel::El2);
        cpu.el2.spsr_el2 = 0b0101; // EL1h
        cpu.el2.elr_el2 = ctx.gp.pc;
    }

    /// The kick SGI from `from` to `to`: raised at the GIC, then `to`
    /// waits out the wire.
    pub(crate) fn kick(&mut self, from: CoreId, to: CoreId) {
        self.phys_gic
            .raise(self.kick_sgi, to.index())
            .expect("core in range");
        let arrival = self.machine.signal(from, to, self.cost.ipi_wire);
        self.machine.wait_until(to, arrival);
    }

    /// The hypervisor's access to the physical GIC CPU interface on
    /// `core`; with `irq`, the access acknowledges and completes it.
    pub(crate) fn phys_ack(&mut self, core: CoreId, irq: Option<IntId>) {
        self.step(core, Step::GicPhysAck);
        if let Some(irq) = irq {
            self.phys_gic.acknowledge(core.index()).expect("core");
            self.phys_gic.complete(core.index(), irq).expect("active");
        }
    }

    /// The guest's ack on its virtual CPU interface on `core` — no trap.
    /// Returns the acknowledged interrupt.
    pub(crate) fn vif_ack(&mut self, core: CoreId) -> Option<u32> {
        self.machine.charge_as(
            core,
            "gic:vif-ack",
            TraceKind::Guest,
            self.cost.gic_vif_access,
            TransitionId::GicAccess,
        );
        self.vgics[core.index()].guest_ack()
    }

    /// The guest's EOI of `virq` on its virtual CPU interface on `core`
    /// — no trap.
    pub(crate) fn vif_eoi(&mut self, core: CoreId, virq: IntId) -> Result<Option<u32>, VgicError> {
        self.machine.charge_as(
            core,
            "gic:vif-eoi",
            TraceKind::Guest,
            self.cost.gic_vif_access,
            TransitionId::GicAccess,
        );
        self.vgics[core.index()].guest_eoi(virq.raw())
    }

    /// Virtual IRQ Completion on `core`: `virq` is staged active in the
    /// live virtual CPU interface (uncharged), then the guest EOIs it.
    pub(crate) fn virq_complete(&mut self, core: CoreId, virq: IntId) -> Cycles {
        let vgic = &mut self.vgics[core.index()];
        vgic.inject(virq.raw(), 0x80).expect("LR available");
        vgic.guest_ack().expect("pending virq");
        let t0 = self.machine.now(core);
        self.vif_eoi(core, virq).expect("active virq");
        self.machine.now(core) - t0
    }

    /// Samples the vGIC's and the NIC's lifetime counters. The NIC's
    /// recovery counters register only when faults fired, and its IRQ
    /// sequence and the per-core utilization only under event tracing,
    /// so fault-free profiles keep their committed bytes.
    pub(crate) fn sample_metrics(&mut self) {
        let injected: u64 = self.vgics.iter().map(|v| v.injected_count()).sum();
        let completed: u64 = self.vgics.iter().map(|v| v.completed_count()).sum();
        self.machine.bump("gic.virq_injected", injected);
        self.machine.bump("gic.virq_completed", completed);
        let stalls = self.nic.stall_count();
        if stalls > 0 {
            self.machine.bump("vio.nic_stalls", stalls);
            self.machine
                .bump("vio.nic_rekicks", self.nic.rekick_count());
        }
        if self.machine.event_tracing() {
            self.machine.bump("vio.nic_irq_seq", self.nic.irq_count());
            let cores: Vec<CoreId> = self.machine.topology().all_cores().collect();
            for core in cores {
                let permille = (self.machine.utilization(core) * 1000.0).round() as u64;
                self.machine.observe("machine.util_permille", permille);
            }
        }
    }
}
