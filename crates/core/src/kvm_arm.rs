//! KVM ARM: split-mode virtualization (§II), with and without VHE (§VI).
//!
//! "KVM instead runs across both EL2 and EL1 using split-mode
//! virtualization, sharing EL1 between the host OS and VMs and running a
//! minimal set of hypervisor functionality in EL2." Every VM↔hypervisor
//! transition therefore pays the four overheads §IV enumerates, all of
//! which this model executes mechanically:
//!
//! 1. the **double trap** — EL1→EL2 (lowvisor) and EL2→EL1 (host),
//! 2. **context switching all EL1 system-register state** between guest
//!    and host (Table III's register classes, really copied here),
//! 3. **disabling/enabling the virtualization features** (HCR/VTTBR
//!    toggles) on every transition,
//! 4. **reading/writing VM control state** (the VGIC interface) from EL2,
//!    which dominates the cost ("reading back the VGIC state is
//!    expensive").
//!
//! The hardware steps (the trap, the ERET, the register classes, the
//! vGIC accesses and the kick SGI) are the ARM layer's, shared with
//! Xen ARM; the steps vhost shares with KVM x86 come from the shared
//! step table. This file is the software: the world switch through the
//! host, the `vcpu_run` loop, and the virtio/vhost I/O paths.
//!
//! [`KvmArm::new_vhe`] builds the ARMv8.1 variant: the host kernel runs in
//! EL2 (`E2H` set), so a trap lands *in* the hypervisor-cum-host with the
//! guest's EL1 state still live — no class save/restore, no toggles, no
//! double trap. The >10× transition-cost collapse of §VI falls out of the
//! removed steps, not a different constant. The paper's Figure 5:
//!
//! ```text
//!    Type 1: E2H clear              Type 2: E2H set
//!  EL0 |  VM   |  VM  |          | VM  | Apps ----,        |
//!  EL1 |  (EL1/EL0)   |          |(EL1)|          | syscalls & traps
//!  EL2 | Xen hypervisor|         | Host kernel + KVM <-'   |
//! ```

use crate::arm::{ArmHw, Motion, GICD_IPA, GUEST_IPI_SGI, GUEST_RAM_IPA, GUEST_RAM_PAGES, NIC_SPI};
use crate::context::{ArmGuestContext, ArmHostContext};
use crate::steps::{guest_compute, guest_stack_rx, guest_stack_tx, nic_dma, nic_irq, nic_stall};
use crate::steps::{recover, Recovery, Step};
use crate::{CostModel, HvKind, Hypervisor, VirqPolicy};
use hvx_arch::{ArchVersion, ExceptionLevel, HcrEl2, Syndrome, TrapCause};
use hvx_engine::{CoreId, Cycles, FaultPoint, FlowId, FlowKind, Machine, TraceKind, TransitionId};
use hvx_gic::{dist_reg, Distributor, IntId, VgicCpuInterface};
use hvx_mem::{Ipa, Pa, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx_vio::{Descriptor, VhostNet, Virtqueue};

/// Guest-physical base of the virtio-mmio transport.
pub const VIRTIO_IPA: u64 = 0x0A00_0000;
/// Offset of the virtio queue-notify ("kick") register.
pub const VIRTIO_QUEUE_NOTIFY: u64 = 0x50;
/// The virtio-net virtual interrupt (SPI) presented to the guest.
pub const VIRTIO_NET_VIRQ: IntId = IntId::spi(1);
/// The physical SGI KVM uses to kick a VCPU out of guest mode.
pub const HOST_KICK_SGI: IntId = IntId::sgi(1);

/// KVM's trap counter.
const TRAPS: &str = "kvm.traps";

/// Per-VM state: Stage-2 tables, emulated distributor, saved VCPU
/// contexts, and the virtio device pair.
#[derive(Debug)]
struct VmState {
    s2: Stage2Tables,
    dist: Distributor,
    ctxs: Vec<ArmGuestContext>,
    tx_vq: Virtqueue,
    rx_vq: Virtqueue,
    vhost: VhostNet,
    /// Rotating guest TX buffer pages (IPA).
    tx_bufs: Vec<Ipa>,
    next_tx_buf: usize,
    /// Rotating guest RX buffer pages (IPA), reposted after use.
    rx_bufs: Vec<Ipa>,
}

impl VmState {
    fn new(num_vcpus: usize, ram_base_pa: u64) -> Self {
        let mut s2 = Stage2Tables::new();
        s2.map_range(
            Ipa::new(GUEST_RAM_IPA),
            Pa::new(ram_base_pa),
            GUEST_RAM_PAGES,
            S2Perms::RWX,
        )
        .expect("fresh stage-2 accepts the RAM range");
        let mut dist = Distributor::new(num_vcpus.max(1), 64);
        for v in 0..num_vcpus.max(1) {
            dist.enable(GUEST_IPI_SGI, v).expect("vcpu in range");
            dist.enable(VIRTIO_NET_VIRQ, v).expect("vcpu in range");
        }
        let mut ctxs = Vec::new();
        for v in 0..num_vcpus.max(1) {
            let mut ctx = ArmGuestContext::pattern(0x1000 + v as u64);
            ctx.vttbr = (v as u64) << 48 | ram_base_pa;
            // The guest's virtual CPU interface is live while it runs.
            ctx.vgic.hcr = hvx_gic::GICH_HCR_EN;
            ctxs.push(ctx);
        }
        let mut rx_vq = Virtqueue::new(256).expect("256 is a power of two");
        let tx_bufs: Vec<Ipa> = (0..8)
            .map(|i| Ipa::new(GUEST_RAM_IPA + i * PAGE_SIZE))
            .collect();
        let rx_bufs: Vec<Ipa> = (8..16)
            .map(|i| Ipa::new(GUEST_RAM_IPA + i * PAGE_SIZE))
            .collect();
        for b in &rx_bufs {
            rx_vq
                .add_chain(&[Descriptor {
                    addr: *b,
                    len: PAGE_SIZE as u32,
                    device_writes: true,
                }])
                .expect("fresh queue has room");
        }
        VmState {
            s2,
            dist,
            ctxs,
            tx_vq: Virtqueue::new(256).expect("256 is a power of two"),
            rx_vq,
            vhost: VhostNet::new(),
            tx_bufs,
            next_tx_buf: 0,
            rx_bufs,
        }
    }
}

/// The KVM ARM hypervisor model.
#[derive(Debug)]
pub struct KvmArm {
    hw: ArmHw,
    vhe: bool,
    vm: VmState,
    /// Second single-VCPU VM for the VM Switch microbenchmark, pinned to
    /// PCPU0 alongside the primary VM's VCPU0.
    alt_vm: VmState,
    alt_loaded: bool,
    host_ctxs: Vec<ArmHostContext>,
    /// Which VM VCPU is installed on each PCPU (`None` = host context).
    guest_loaded: Vec<Option<usize>>,
}

impl KvmArm {
    /// Builds the classic (ARMv8.0, non-VHE) configuration on the paper's
    /// 8-core topology with a 4-VCPU VM.
    pub fn new() -> Self {
        Self::build(CostModel::arm(), false)
    }

    /// Builds the ARMv8.1 VHE configuration of §VI: the host kernel runs
    /// entirely in EL2.
    pub fn new_vhe() -> Self {
        Self::build(CostModel::arm(), true)
    }

    /// Builds with an explicit cost model (ablations, mechanism tests).
    pub fn with_cost(cost: CostModel, vhe: bool) -> Self {
        Self::build(cost, vhe)
    }

    fn build(cost: CostModel, vhe: bool) -> Self {
        let version = if vhe {
            ArchVersion::V8_1
        } else {
            ArchVersion::V8_0
        };
        let mut hw = ArmHw::new(cost, version, HOST_KICK_SGI, 64 << 20);
        let mut host_ctxs = Vec::new();
        for (i, cpu) in hw.cpus.iter_mut().enumerate() {
            if vhe {
                cpu.enable_vhe().expect("v8.1 at EL2");
                cpu.el2.hcr_el2.insert(HcrEl2::TGE);
            } else {
                // Host OS runs in EL1.
                cpu.start_at(ExceptionLevel::El1);
            }
            host_ctxs.push(ArmHostContext::pattern(0x9000 + i as u64));
        }
        let num_vcpus = hw.machine.topology().guest_cores().len();
        let mut kvm = KvmArm {
            guest_loaded: vec![None; hw.cpus.len()],
            hw,
            vhe,
            vm: VmState::new(num_vcpus, 0x0100_0000),
            alt_vm: VmState::new(1, 0x0400_0000),
            alt_loaded: false,
            host_ctxs,
        };
        // Install each VCPU on its pinned core, running in the VM.
        for vcpu in 0..num_vcpus {
            let core = kvm.hw.machine.topology().guest_core(vcpu);
            let ctx = kvm.vm.ctxs[vcpu];
            kvm.hw.install(core, &ctx);
            if vhe {
                // The VHE host keeps E2H; guest trap routing needs IMO etc.
                let hcr = &mut kvm.hw.cpus[core.index()].el2.hcr_el2;
                *hcr = HcrEl2::guest_running();
                hcr.insert(HcrEl2::E2H);
            }
            kvm.guest_loaded[core.index()] = Some(vcpu);
        }
        kvm
    }

    /// World-switch out: lowvisor saves the guest context, installs the
    /// host context, disables the virtualization features, and ERETs to
    /// the host in EL1. `lazy_fp` models KVM's lazy FPSIMD switching on
    /// interrupt fast paths.
    ///
    /// On VHE there is nothing to do beyond a trap-frame push: the host
    /// lives in EL2 and the guest's EL1 state can stay in the registers.
    fn switch_out(&mut self, core: CoreId, vcpu: usize, lazy_fp: bool) {
        let c = self.hw.cost;
        let idx = core.index();
        self.guest_loaded[idx] = None;
        if self.vhe {
            // Host == hypervisor: already running in EL2; nothing else.
            self.hw.machine.charge_as(
                core,
                "vhe:frame-save",
                TraceKind::ContextSave,
                c.xen_frame.save,
                TransitionId::ContextSave,
            );
            return;
        }
        self.hw.move_classes(core, Motion::Save, lazy_fp);
        // Capture the real context. The guest PC was banked into ELR_EL2
        // by the trap.
        let mut ctx = self.hw.capture(core);
        ctx.gp.pc = self.hw.cpus[idx].el2.elr_el2;
        *self.vm_ctx(idx, vcpu) = ctx;

        // Disable Stage-2 and traps so the host owns the hardware (§IV
        // overhead #3), then install the host and return to EL1.
        self.hw.machine.charge_as(
            core,
            "kvm:disable-virt",
            TraceKind::Emulation,
            c.kvm_toggle_traps,
            TransitionId::VirtToggle,
        );
        let cpu = &mut self.hw.cpus[idx];
        self.host_ctxs[idx].install(cpu);
        cpu.el2.spsr_el2 = 0b0101; // EL1h: return into the host kernel
        cpu.el2.elr_el2 = 0xFFFF_0000_0000_0000 + idx as u64; // host resume point
        self.hw.eret(core);
    }

    /// The saved context of `vcpu` on core `core_idx`: the alternate VM's
    /// while a `vm_switch` has it on PCPU0.
    fn vm_ctx(&mut self, core_idx: usize, vcpu: usize) -> &mut ArmGuestContext {
        if self.alt_loaded && core_idx == 0 {
            &mut self.alt_vm.ctxs[0]
        } else {
            &mut self.vm.ctxs[vcpu]
        }
    }

    /// World-switch in: the host issues HVC to reach the lowvisor, which
    /// restores the guest context, re-enables the virtualization
    /// features, and ERETs into the VM.
    fn switch_in(&mut self, core: CoreId, vcpu: usize, lazy_fp: bool) {
        let c = self.hw.cost;
        let idx = core.index();
        if self.vhe {
            self.hw.machine.charge_as(
                core,
                "vhe:frame-restore",
                TraceKind::ContextRestore,
                c.xen_frame.restore,
                TransitionId::ContextRestore,
            );
            let cpu = &mut self.hw.cpus[idx];
            cpu.el2.spsr_el2 = 0b0101;
            cpu.el2.elr_el2 = self.vm.ctxs[vcpu].gp.pc;
        } else {
            self.hw.trap(core, TrapCause::HYPERCALL, TRAPS); // host -> lowvisor
            self.hw.move_classes(core, Motion::Restore, lazy_fp);
            self.hw.machine.charge_as(
                core,
                "kvm:enable-virt",
                TraceKind::Emulation,
                c.kvm_toggle_traps,
                TransitionId::VirtToggle,
            );
            let ctx = *self.vm_ctx(idx, vcpu);
            self.hw.load_for_eret(core, &ctx);
        }
        self.hw.eret(core);
        self.guest_loaded[idx] = Some(vcpu);
    }

    /// A guest exit into the host: the trap to EL2, the world switch
    /// out (`lazy_fp` on the interrupt and I/O fast paths) and the
    /// `vcpu_run` dispatch loop every exit passes through.
    fn exit_to_host(&mut self, core: CoreId, vcpu: usize, cause: TrapCause, lazy_fp: bool) {
        self.hw.trap(core, cause, TRAPS);
        self.switch_out(core, vcpu, lazy_fp);
        self.hw.machine.charge_as(
            core,
            "kvm:host-dispatch",
            TraceKind::Host,
            self.hw.cost.kvm_host_dispatch,
            TransitionId::HostDispatch,
        );
    }

    /// The full guest-MMIO-trap prologue: Stage-2 abort, exit to the
    /// host, host-side MMIO decode. Returns after the host has
    /// identified the device.
    fn mmio_trap(&mut self, core: CoreId, vcpu: usize, ipa: u64, write: bool, lazy_fp: bool) {
        // The access really has no Stage-2 mapping:
        debug_assert!(self
            .vm
            .s2
            .translate(Ipa::new(ipa), hvx_mem::Access::Read)
            .is_err());
        let cause = TrapCause::Sync(Syndrome::DataAbort { ipa, write });
        self.exit_to_host(core, vcpu, cause, lazy_fp);
        self.hw.machine.charge_as(
            core,
            "kvm:mmio-decode",
            TraceKind::Emulation,
            self.hw.cost.kvm_mmio_decode,
            TransitionId::MmioDecode,
        );
    }

    /// A trapped access to the emulated GIC distributor register `reg`:
    /// the MMIO trap, then the host's distributor emulation. The caller
    /// performs the access and resumes the guest.
    fn gicd_access(&mut self, core: CoreId, vcpu: usize, reg: u64, write: bool, lazy_fp: bool) {
        self.mmio_trap(core, vcpu, GICD_IPA + reg, write, lazy_fp);
        self.hw.machine.charge_as(
            core,
            "kvm:gicd-emulate",
            TraceKind::Emulation,
            self.hw.cost.kvm_gicd_emulate,
            TransitionId::GicdEmulate,
        );
    }

    /// Extension benchmark: a demand Stage-2 fault — the guest touches
    /// an unmapped page of its RAM, traps to EL2, and the host allocates
    /// and maps a fresh page before resuming (§V sets these "one-time
    /// page fault costs at start up" aside; this quantifies one).
    ///
    /// Returns the fault-handling cost; the page is really mapped, so a
    /// second touch of the same page takes no fault.
    pub fn stage2_fault(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        // Pick the next unmapped page past the initial RAM allocation.
        let ipa = Ipa::new(GUEST_RAM_IPA + self.vm.s2.mapped_pages() * PAGE_SIZE);
        debug_assert!(self.vm.s2.translate(ipa, hvx_mem::Access::Write).is_err());
        let t0 = self.hw.machine.now(core);
        let cause = TrapCause::Sync(Syndrome::DataAbort {
            ipa: ipa.value(),
            write: true,
        });
        self.exit_to_host(core, vcpu, cause, true);
        self.hw.machine.charge_as(
            core,
            "kvm:page-alloc",
            TraceKind::Host,
            self.hw.cost.page_alloc,
            TransitionId::HostDispatch,
        );
        let pa = Pa::new(0x0100_0000 + self.vm.s2.mapped_pages() * PAGE_SIZE);
        self.vm
            .s2
            .map_page(ipa, pa, S2Perms::RWX)
            .expect("fresh page maps");
        self.switch_in(core, vcpu, true);
        debug_assert!(self.vm.s2.translate(ipa, hvx_mem::Access::Write).is_ok());
        self.hw.machine.now(core) - t0
    }

    /// Restores the primary VM onto PCPU0 if a `vm_switch` left the
    /// alternate VM loaded (uncharged benchmark scaffolding between
    /// operations).
    fn ensure_primary(&mut self) {
        if self.alt_loaded {
            self.alt_loaded = false;
            let core = self.hw.machine.topology().guest_core(0);
            self.alt_vm.ctxs[0] = self.hw.capture(core);
            let ctx = self.vm.ctxs[0];
            self.hw.install(core, &ctx);
            self.guest_loaded[core.index()] = Some(0);
        }
    }

    /// Injects a virtual interrupt into a VCPU currently running in guest
    /// mode on its core and completes it: [`KvmArm::inject_to_ack`], then
    /// the guest's EOI. Returns the completion instant on the target core.
    fn inject_virq_running(
        &mut self,
        from: CoreId,
        target_vcpu: usize,
        virq: IntId,
        flow: Option<FlowId>,
    ) -> Cycles {
        let target_core = self.inject_to_ack(from, target_vcpu, virq, flow);
        // Completion happens in the guest later; keep the LR active until
        // `virq_complete`-style EOI. For workload paths we complete
        // immediately at vIF cost.
        let _ = self.hw.vif_eoi(target_core, virq);
        self.hw.machine.now(target_core)
    }

    /// The injection path up to the guest's acknowledge: physical kick
    /// IPI from `from`, world switch out, LR programming, world switch
    /// in, guest ack. Leaves the interrupt active in the guest's vIF and
    /// returns the target core.
    /// `flow` (when tracing) links this injection into the causal chain
    /// that triggered it — e.g. the IRQ-delivery chain opened by
    /// [`KvmArm::receive`] when the physical NIC interrupt lands.
    fn inject_to_ack(
        &mut self,
        from: CoreId,
        target_vcpu: usize,
        virq: IntId,
        flow: Option<FlowId>,
    ) -> CoreId {
        let target_core = self.hw.machine.topology().guest_core(target_vcpu);
        let idx = target_core.index();
        // Kick: physical SGI to the target PCPU. The physical IRQ while
        // the VM runs traps to EL2 (IMO).
        self.hw.kick(from, target_core);
        self.hw.trap(target_core, TrapCause::Irq, TRAPS);
        self.switch_out(target_core, target_vcpu, true);
        // Host acks the SGI and programs a list register.
        self.hw.phys_ack(target_core, Some(HOST_KICK_SGI));
        self.hw.machine.bump("kvm.virq_injections", 1);
        self.hw.machine.flow_step(flow, target_core, "virq:inject");
        self.hw.machine.charge_as(
            target_core,
            "kvm:vgic-inject",
            TraceKind::Emulation,
            self.hw.cost.kvm_vgic_inject,
            TransitionId::VirqInject,
        );
        if self.vhe {
            // The VHE host runs in EL2 and programs the list register
            // directly — no memory image round trip (§VI).
            let _ = self.hw.vgics[idx].inject(virq.raw(), 0x80);
        } else {
            // Program the LR through the saved context (the hypervisor
            // writes the memory image it will restore from).
            let mut vgic_tmp = VgicCpuInterface::new();
            vgic_tmp.restore(self.vm.ctxs[target_vcpu].vgic);
            let _ = vgic_tmp.inject(virq.raw(), 0x80);
            self.vm.ctxs[target_vcpu].vgic = vgic_tmp.save();
            self.hw.vgics[idx].absorb_counters(&vgic_tmp);
        }
        self.switch_in(target_core, target_vcpu, true);
        // Guest sees and acknowledges the virtual interrupt — no trap.
        let acked = self.hw.vif_ack(target_core);
        debug_assert_eq!(acked, Some(virq.raw()));
        debug_assert_eq!(self.hw.vgics[idx].last_injected(), Some(virq.raw()));
        self.hw.machine.flow_end(flow, target_core, "guest:ack");
        target_core
    }

    /// The guest's virtio doorbell: the queue-notify write traps as MMIO,
    /// the host signals vhost's ioeventfd and resumes the guest, and the
    /// kick reaches the backend core. Returns the kick's flow chain,
    /// which the caller continues (or, for I/O Latency Out, ends) at
    /// vhost's wake. I/O Latency Out is this plus vhost's wake.
    fn kick_vhost(&mut self, core: CoreId, vcpu: usize, backend: CoreId) -> Option<FlowId> {
        self.mmio_trap(core, vcpu, VIRTIO_IPA + VIRTIO_QUEUE_NOTIFY, true, true);
        self.vm.vhost.note_kick();
        let m = &mut self.hw.machine;
        m.bump("kvm.vhost_kicks", 1);
        let flow = m.flow_begin(FlowKind::VirtioKick, core, "virtio:kick");
        m.charge_as(
            core,
            "kvm:ioeventfd",
            TraceKind::Io,
            self.hw.cost.kvm_ioeventfd,
            TransitionId::VhostKick,
        );
        let arrival = m.signal(core, backend, self.hw.cost.ipi_wire);
        // Sender resumes, off the critical path.
        self.switch_in(core, vcpu, true);
        self.hw.machine.wait_until(backend, arrival);
        flow
    }
}

impl Default for KvmArm {
    fn default() -> Self {
        KvmArm::new()
    }
}

impl Hypervisor for KvmArm {
    fn kind(&self) -> HvKind {
        if self.vhe {
            HvKind::KvmArmVhe
        } else {
            HvKind::KvmArm
        }
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
        let vhost = &self.vm.vhost;
        let m = &mut self.hw.machine;
        m.bump("vio.vhost_tx_packets", vhost.tx_packets());
        m.bump("vio.vhost_rx_packets", vhost.rx_packets());
        // Device-side flow correlators register only under event tracing
        // so the committed baseline profiles stay byte-identical.
        if m.event_tracing() {
            m.bump("vio.vhost_kick_seq", vhost.kick_count());
        }
        self.hw.sample_metrics();
    }

    fn hypercall(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let t0 = self.hw.machine.now(core);
        self.exit_to_host(core, vcpu, TrapCause::HYPERCALL, false);
        self.switch_in(core, vcpu, false);
        self.hw.machine.now(core) - t0
    }

    fn gicd_trap(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let t0 = self.hw.machine.now(core);
        // A read that moves FP like the hypercall: Table II's ICT is the
        // hypercall plus decode and emulation.
        self.gicd_access(core, vcpu, dist_reg::GICD_ISENABLER, false, false);
        let _ = self
            .vm
            .dist
            .mmio_read(dist_reg::GICD_ISENABLER, vcpu)
            .expect("register modelled");
        self.switch_in(core, vcpu, false);
        self.hw.machine.now(core) - t0
    }

    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles {
        self.ensure_primary();
        assert_ne!(from, to, "virtual IPI requires two VCPUs");
        let from_core = self.hw.machine.topology().guest_core(from);
        let t0 = self.hw.machine.now(from_core);
        // Sender: GICD_SGIR write traps (MMIO), host emulates the
        // distributor and discovers the SGI fan-out.
        self.gicd_access(from_core, from, dist_reg::GICD_SGIR, true, true);
        let effect = self
            .vm
            .dist
            .mmio_write(
                dist_reg::GICD_SGIR,
                ((GUEST_IPI_SGI.raw() as u64) << 24) | (1 << (16 + to)),
                from,
            )
            .expect("SGIR modelled");
        debug_assert_eq!(effect.sgi_targets.len(), 1);
        // Kick the target and inject; the receive side completes there.
        let done = self.inject_virq_running(from_core, to, GUEST_IPI_SGI, None);
        // Sender resumes (off the critical path).
        self.switch_in(from_core, from, true);
        done - t0
    }

    fn virq_complete(&mut self, vcpu: usize) -> Cycles {
        let core = self.hw.machine.topology().guest_core(vcpu);
        self.hw.virq_complete(core, VIRTIO_NET_VIRQ)
    }

    fn vm_switch(&mut self) -> Cycles {
        let core = self.hw.machine.topology().guest_core(0);
        let t0 = self.hw.machine.now(core);
        // Both VMs pin their single benchmark VCPU to PCPU0; the
        // context selection happens inside switch_out/in via alt_loaded.
        let (out_vcpu, in_vcpu) = (0, 0);
        self.hw.trap(core, TrapCause::HYPERCALL, TRAPS); // yield
        self.switch_out(core, out_vcpu, false);
        self.hw.machine.charge_as(
            core,
            "kvm:sched",
            TraceKind::Sched,
            self.hw.cost.kvm_sched,
            TransitionId::Sched,
        );
        self.alt_loaded = !self.alt_loaded;
        self.switch_in(core, in_vcpu, false);
        self.hw.machine.now(core) - t0
    }

    fn io_latency_out(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.hw.machine.topology().guest_core(vcpu);
        let backend = self.hw.machine.topology().backend_core();
        let t0 = self.hw.machine.now(core);
        let flow = self.kick_vhost(core, vcpu, backend);
        self.hw.machine.flow_end(flow, backend, "vhost:wake");
        self.hw.step(backend, Step::VhostWake);
        self.hw.machine.now(backend) - t0
    }

    fn io_latency_in(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let backend = self.hw.machine.topology().backend_core();
        let t0 = self.hw.machine.now(backend);
        // vhost signals the irqfd and must wake/kick the VCPU thread —
        // the heavyweight host-side path §IV attributes the asymmetry to.
        self.hw.machine.charge_as(
            backend,
            "kvm:irqfd-signal",
            TraceKind::Io,
            self.hw.cost.kvm_ioeventfd,
            TransitionId::VhostKick,
        );
        self.hw.machine.charge_as(
            backend,
            "kvm:io-in-host",
            TraceKind::Host,
            self.hw.cost.kvm_io_in_host,
            TransitionId::HostDispatch,
        );
        let core = self.inject_to_ack(backend, vcpu, VIRTIO_NET_VIRQ, None);
        let t1 = self.hw.machine.now(core);
        // Clean up the LR so repeated runs start fresh.
        let _ = self.hw.vgics[core.index()].guest_eoi(VIRTIO_NET_VIRQ.raw());
        t1 - t0
    }

    fn guest_compute(&mut self, vcpu: usize, work: Cycles) {
        guest_compute(&mut self.hw.machine, vcpu, work);
    }

    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.hw.cost;
        let core = self.hw.machine.topology().guest_core(vcpu);
        let backend = self.hw.machine.topology().backend_core();
        // Guest stack + driver: build the frame in a guest buffer.
        guest_stack_tx(&mut self.hw.machine, &c, core, len, c.kvm_guest_virtio / 2);
        let buf = self.vm.tx_bufs[self.vm.next_tx_buf % self.vm.tx_bufs.len()];
        self.vm.next_tx_buf += 1;
        let pa = self
            .vm
            .s2
            .translate(buf, hvx_mem::Access::Write)
            .expect("TX buffer mapped")
            .pa;
        let payload = vec![0xABu8; len.min(PAGE_SIZE as usize)];
        self.hw.mem.write(pa, &payload).expect("guest RAM in range");
        self.vm
            .tx_vq
            .add_chain(&[Descriptor {
                addr: buf,
                len: payload.len() as u32,
                device_writes: false,
            }])
            .expect("TX queue has room");
        let flow = self.kick_vhost(core, vcpu, backend);
        // vhost drains the ring with direct guest-memory access.
        let m = &mut self.hw.machine;
        if m.fault(FaultPoint::VhostDelay) {
            // Fault: the vhost worker is preempted before servicing the
            // kick. The virtio driver's TX watchdog fires and re-kicks
            // the queue — a second doorbell charged as recovery.
            let rec = m.flow_begin(FlowKind::FaultRecovery, backend, "fault:vhost-delay");
            recover(m, backend, Recovery::VhostDelay, c.kvm_sched * 2, None);
            let rekick = c.kvm_ioeventfd + c.kvm_mmio_decode;
            recover(m, core, Recovery::TxRekick, rekick, rec);
        }
        m.flow_step(flow, backend, "vhost:wake");
        self.hw.step(backend, Step::VhostWake);
        self.hw.step(backend, Step::VhostTx);
        let pkts = self
            .vm
            .vhost
            .process_tx(&mut self.vm.tx_vq, &self.vm.s2, &mut self.hw.mem)
            .expect("mapped TX chain");
        debug_assert_eq!(pkts.len(), 1);
        self.hw.step(backend, Step::HostStackTx);
        let rekick = c.nic_dma * 4 + c.kvm_ioeventfd;
        nic_stall(&mut self.hw.machine, &mut self.hw.nic, backend, rekick);
        nic_dma(&mut self.hw.machine, &c, backend, flow);
        for p in pkts {
            self.hw.nic.transmit(p);
        }
        let _ = self.vm.tx_vq.take_used();
        self.hw.machine.now(backend)
    }

    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.hw.cost;
        let vcpu = self.next_irq_vcpu();
        let io = self.hw.machine.topology().io_core();
        // NIC interrupt lands on the host's IRQ core.
        self.hw
            .nic
            .receive_from_wire(hvx_vio::Packet::new(0, vec![0xCDu8; len]));
        self.hw.phys_gic.raise(NIC_SPI, io.index()).expect("spi");
        self.hw.nic.note_irq();
        self.hw.machine.wait_until(io, arrival);
        let flow = nic_irq(&mut self.hw.machine, &c, io);
        self.hw.phys_ack(io, Some(NIC_SPI));
        // Host stack up to the TAP device, then vhost writes straight
        // into the guest RX buffer (zero copy).
        self.hw.step(io, Step::HostStackRx);
        self.hw.machine.flow_step(flow, io, "vhost:rx");
        self.hw.step(io, Step::VhostRx);
        let pkt = self.hw.nic.take_rx().expect("packet queued");
        self.vm
            .vhost
            .deliver_rx(&mut self.vm.rx_vq, &self.vm.s2, &mut self.hw.mem, &pkt)
            .expect("RX buffer posted");
        // Repost the consumed buffer (guest-side cost inside stack-rx).
        if let Ok(Some((_, _))) = self.vm.rx_vq.take_used() {
            let buf = self.vm.rx_bufs[0];
            self.vm.rx_bufs.rotate_left(1);
            let _ = self.vm.rx_vq.add_chain(&[Descriptor {
                addr: buf,
                len: PAGE_SIZE as u32,
                device_writes: true,
            }]);
        }
        let m = &mut self.hw.machine;
        if m.fault(FaultPoint::VirqDrop) {
            // Fault: the virtio interrupt is lost before the guest sees
            // it. vhost's resample path notices the unhandled ring and
            // re-signals the irqfd — recovery charged before the real
            // injection below, ending the chain the lost interrupt
            // opened.
            let rec = m.flow_begin(FlowKind::FaultRecovery, io, "fault:irq-lost");
            let resignal = c.kvm_ioeventfd + c.kvm_vgic_inject;
            recover(m, io, Recovery::IrqfdResignal, resignal, rec);
        }
        // Inject the virtio interrupt into the running VCPU.
        self.inject_virq_running(io, vcpu, VIRTIO_NET_VIRQ, flow);
        let core = self.hw.machine.topology().guest_core(vcpu);
        if self.hw.machine.fault(FaultPoint::VirqSpurious) {
            // Fault: a spurious virtio interrupt — the guest traps to
            // its handler, finds no work, acks and EOIs for nothing.
            self.hw.machine.charge_as(
                core,
                "guest:spurious-virq",
                TraceKind::Guest,
                c.gic_vif_access * 2,
                TransitionId::GicAccess,
            );
        }
        guest_stack_rx(&mut self.hw.machine, &c, core, len, c.kvm_guest_virtio / 2);
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
        // KVM's wake path (irqfd, scheduler) runs in the host on the
        // signalling core; the VCPU core pays only the inject round
        // trip — same as delivering to a running VCPU.
        self.deliver_virq(vcpu)
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
        self.hw.machine.wait_until(io, arrival);
        // One coalesced interrupt; GRO folds the chunks through the host
        // stack once; vhost writes every chunk straight into guest
        // buffers (zero copy — no per-chunk charge beyond the byte cost
        // already in the guest stack term).
        self.hw.nic.note_irq();
        let flow = nic_irq(&mut self.hw.machine, &c, io);
        self.hw.phys_ack(io, None);
        self.hw.step(io, Step::HostStackRx);
        self.hw.machine.flow_step(flow, io, "vhost:rx");
        self.hw.step(io, Step::VhostRx);
        self.inject_virq_running(io, vcpu, VIRTIO_NET_VIRQ, flow);
        let core = self.hw.machine.topology().guest_core(vcpu);
        let total = chunks * chunk_len;
        guest_stack_rx(
            &mut self.hw.machine,
            &c,
            core,
            total,
            c.kvm_guest_virtio / 2,
        );
        (self.hw.machine.now(core), vcpu)
    }

    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.hw.cost;
        let core = self.hw.machine.topology().guest_core(vcpu);
        let backend = self.hw.machine.topology().backend_core();
        let total = chunks * chunk_len;
        guest_stack_tx(
            &mut self.hw.machine,
            &c,
            core,
            total,
            c.kvm_guest_virtio / 2,
        );
        // One kick for the whole burst.
        let flow = self.kick_vhost(core, vcpu, backend);
        self.hw.machine.flow_step(flow, backend, "vhost:wake");
        self.hw.step(backend, Step::VhostWake);
        self.hw.step(backend, Step::VhostTx);
        self.hw.step(backend, Step::HostStackTx);
        nic_dma(&mut self.hw.machine, &c, backend, flow);
        self.hw.machine.now(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercall_composes_to_table_ii() {
        let mut kvm = KvmArm::new();
        let cycles = kvm.hypercall(0);
        assert_eq!(cycles, Cycles::new(6500), "Table II: KVM ARM hypercall");
    }

    #[test]
    fn hypercall_trace_shows_split_mode_structure() {
        let mut kvm = KvmArm::new();
        kvm.hypercall(0);
        let trace = kvm.machine().trace();
        // The double trap and the full save/restore must appear in order.
        assert!(trace.contains_label_subsequence(&[
            "hw:trap-el2",
            "save:gp",
            "save:vgic",
            "kvm:disable-virt",
            "hw:eret",
            "kvm:host-dispatch",
            "hw:trap-el2",
            "restore:vgic",
            "kvm:enable-virt",
            "hw:eret",
        ]));
        // Table III verbatim: the VGIC save dominates.
        assert_eq!(trace.total_by_label("save:vgic"), Cycles::new(3250));
        assert_eq!(trace.total_by_label("restore:vgic"), Cycles::new(181));
    }

    #[test]
    fn hypercall_preserves_guest_context_bit_exactly() {
        let mut kvm = KvmArm::new();
        let before = kvm.vm.ctxs[1];
        kvm.hypercall(1);
        // After the round trip the VCPU is back in guest mode with its
        // context re-installed; the saved copy equals the original
        // (modulo the PC, which the trap banked — same value here).
        let core = kvm.hw.machine.topology().guest_core(1);
        assert_eq!(kvm.guest_loaded[core.index()], Some(1));
        let after =
            ArmGuestContext::capture(&kvm.hw.cpus[core.index()], &kvm.hw.vgics[core.index()]);
        assert_eq!(after.el1, before.el1);
        assert_eq!(after.fp, before.fp);
        assert_eq!(after.timer, before.timer);
        assert_eq!(after.vttbr, before.vttbr);
    }

    #[test]
    fn gicd_trap_costs_more_than_hypercall() {
        let mut kvm = KvmArm::new();
        let hc = kvm.hypercall(0);
        let ict = kvm.gicd_trap(0);
        assert_eq!(ict, Cycles::new(7370), "Table II: KVM ARM ICT");
        assert!(ict > hc);
    }

    #[test]
    fn virq_completion_is_71_cycles_no_trap() {
        let mut kvm = KvmArm::new();
        let traps = |kvm: &KvmArm| {
            let trace = kvm.machine().trace();
            trace
                .events()
                .iter()
                .filter(|e| e.kind == TraceKind::Trap)
                .count()
        };
        let before_traps = traps(&kvm);
        let c = kvm.virq_complete(0);
        assert_eq!(c, Cycles::new(71), "Table II: Virtual IRQ Completion");
        let after_traps = traps(&kvm);
        assert_eq!(before_traps, after_traps, "no trap occurred");
    }

    #[test]
    fn vm_switch_charges_double_el1_switch() {
        let mut kvm = KvmArm::new();
        let cost = kvm.vm_switch();
        // Table II target 10,387; exact composition checked here.
        let expected = Cycles::new(76) // trap
            + kvm.hw.cost.full_save()
            + Cycles::new(86) // disable
            + Cycles::new(64) // eret to host
            + kvm.hw.cost.kvm_sched
            + Cycles::new(76) // hvc
            + kvm.hw.cost.full_restore()
            + Cycles::new(86)
            + Cycles::new(64);
        assert_eq!(cost, expected);
        // And back:
        let back = kvm.vm_switch();
        assert_eq!(back, expected);
        assert!(!kvm.alt_loaded);
    }

    #[test]
    fn virtual_ipi_crosses_cores() {
        let mut kvm = KvmArm::new();
        let lat = kvm.virtual_ipi(0, 1);
        assert!(
            lat > Cycles::new(8000),
            "cross-core path is expensive: {lat}"
        );
        // The physical kick must appear in the trace.
        assert!(kvm.machine().trace().labels().contains(&"signal:in-flight"));
    }

    #[test]
    fn io_latencies_are_asymmetric_in_favour_of_out() {
        let mut kvm = KvmArm::new();
        let out = kvm.io_latency_out(0);
        kvm.machine_mut().barrier();
        let inl = kvm.io_latency_in(0);
        assert!(
            inl > out,
            "Table II: KVM ARM In (13,872) > Out (6,024); got {inl} vs {out}"
        );
    }

    #[test]
    fn vhe_hypercall_is_order_of_magnitude_cheaper() {
        let mut classic = KvmArm::new();
        let mut vhe = KvmArm::new_vhe();
        let a = classic.hypercall(0);
        let b = vhe.hypercall(0);
        assert!(
            b.as_u64() * 9 < a.as_u64(),
            "§VI: VHE removes the split-mode cost: {a} vs {b}"
        );
        // And no EL1 state motion appears in the VHE trace.
        assert_eq!(
            vhe.machine().trace().total_by_label("save:vgic"),
            Cycles::ZERO
        );
        assert_eq!(
            vhe.machine().trace().total_by_label("save:el1-sys"),
            Cycles::ZERO
        );
    }

    #[test]
    fn transmit_moves_real_bytes_zero_copy() {
        let mut kvm = KvmArm::new();
        let before = kvm.vm.vhost.tx_packets();
        kvm.transmit(0, 1400);
        assert_eq!(kvm.vm.vhost.tx_packets(), before + 1);
        assert_eq!(kvm.hw.nic.tx_count(), 1);
        assert_eq!(kvm.vm.vhost.tx_bytes(), 1400);
    }

    #[test]
    fn receive_targets_vcpu0_by_default_and_round_robins_on_request() {
        let mut kvm = KvmArm::new();
        let (_, v1) = kvm.receive(64, Cycles::ZERO);
        let (_, v2) = kvm.receive(64, Cycles::ZERO);
        assert_eq!((v1, v2), (0, 0), "default: all interrupts to VCPU0");
        kvm.set_virq_policy(VirqPolicy::RoundRobin);
        let vs: Vec<usize> = (0..4).map(|_| kvm.receive(64, Cycles::ZERO).1).collect();
        assert_eq!(vs, vec![0, 1, 2, 3], "round-robin spreads over all VCPUs");
    }

    #[test]
    fn stage2_fault_costs_a_world_switch_plus_allocation() {
        let mut kvm = KvmArm::new();
        let pages_before = kvm.vm.s2.mapped_pages();
        let cost = kvm.stage2_fault(0);
        assert_eq!(kvm.vm.s2.mapped_pages(), pages_before + 1);
        // The fault pays the lazy-FP world switch + dispatch + alloc.
        assert!(cost > Cycles::new(6_000), "{cost}");
        // A VHE host handles the same fault an order of magnitude
        // cheaper — the §VI claim extends to fault handling.
        let mut vhe = KvmArm::new_vhe();
        let vhe_cost = vhe.stage2_fault(0);
        assert!(
            vhe_cost.as_u64() * 3 < cost.as_u64(),
            "{cost} vs {vhe_cost}"
        );
    }
}
