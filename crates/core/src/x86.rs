//! The x86 baseline hypervisors: KVM and Xen over VMX.
//!
//! "Since both KVM and Xen leverage the same x86 hardware mechanism for
//! transitioning between the VM and the hypervisor, they have similar
//! performance" (§IV) — both run in root mode, both pay the same
//! VMCS-mediated exit/entry on every transition. The *software* above
//! that mechanism still differs: Xen x86 keeps the Dom0 I/O architecture
//! (event channels, idle-domain wakes, grant copies) while KVM x86 keeps
//! the in-kernel vhost path, which is why their I/O rows in Table II
//! diverge sharply even though their Hypercall rows are 6% apart.
//!
//! One model implements both; construction selects the software-path
//! constants. The VMX mechanics ([`hvx_arch::X86Cpu`], [`hvx_arch::Vmcs`])
//! and the interrupt controller ([`hvx_gic::Lapic`]) are real state.
//! The VM exit and entry, and the back-end steps KVM x86 shares with
//! KVM ARM (vhost) and Xen x86 with Xen ARM (netback, grant copy,
//! event channels), come from the shared step table.

use crate::steps::{charge_step, grant_copy_with_retry, guest_compute, guest_stack_rx};
use crate::steps::{guest_stack_tx, nic_dma, nic_irq, nic_stall, pv_driver, recover, IrqTarget};
use crate::steps::{Recovery, Step};
use crate::{CostModel, HvKind, Hypervisor, VirqPolicy};
use hvx_arch::{ExitReason, Vmcs, X86Cpu, X86State};
use hvx_engine::{CoreId, Cycles, FaultPoint, FlowId, FlowKind, Machine, Topology};
use hvx_engine::{TraceKind, TransitionId};
use hvx_gic::Lapic;
use hvx_vio::Nic;

/// The IPI vector guests use for rescheduling interrupts.
pub const RESCHED_VECTOR: u8 = 0xFD;
/// The vector of the paravirtual I/O completion interrupt.
pub const VIRTIO_VECTOR: u8 = 0x60;

/// KVM x86 or Xen x86 over the same VMX substrate.
#[derive(Debug)]
pub struct X86Hv {
    kind: HvKind,
    machine: Machine,
    cost: CostModel,
    cpus: Vec<X86Cpu>,
    /// One VMCS per guest VCPU.
    vmcss: Vec<Vmcs>,
    /// One virtual LAPIC per guest VCPU.
    lapics: Vec<Lapic>,
    /// Second VM's VMCS for the VM Switch microbenchmark.
    alt_vmcs: Vmcs,
    alt_loaded: bool,
    nic: Nic,
    irq: IrqTarget,
}

/// Builds KVM x86 on the paper's topology.
#[derive(Debug, Clone, Copy)]
pub struct KvmX86;

/// Builds Xen x86 (HVM domains) on the paper's topology.
#[derive(Debug, Clone, Copy)]
pub struct XenX86;

impl KvmX86 {
    /// Creates the KVM x86 configuration.
    #[allow(clippy::new_ret_no_self)] // KvmX86/XenX86 are constructors-as-types
    pub fn new() -> X86Hv {
        Self::with_cost(CostModel::x86())
    }

    /// Creates KVM x86 with an explicit cost model (ablations, what-if
    /// studies); [`KvmX86::new`] uses [`CostModel::x86`].
    pub fn with_cost(cost: CostModel) -> X86Hv {
        X86Hv::build(HvKind::KvmX86, cost, false)
    }

    /// Creates KVM x86 with hardware vAPIC (the §IV "newer x86 hardware"
    /// ablation: no EOI exits) and an explicit cost model. The
    /// configuration has no [`HvKind`] of its own, so callers pass the
    /// cost model `SimBuilder` resolves for [`HvKind::KvmX86`].
    pub fn with_vapic(cost: CostModel) -> X86Hv {
        X86Hv::build(HvKind::KvmX86, cost, true)
    }
}

impl XenX86 {
    /// Creates the Xen x86 configuration.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> X86Hv {
        Self::with_cost(CostModel::x86())
    }

    /// Creates Xen x86 with an explicit cost model (ablations, what-if
    /// studies); [`XenX86::new`] uses [`CostModel::x86`].
    pub fn with_cost(cost: CostModel) -> X86Hv {
        X86Hv::build(HvKind::XenX86, cost, false)
    }
}

impl X86Hv {
    fn build(kind: HvKind, cost: CostModel, vapic: bool) -> Self {
        let topo = Topology::paper_default();
        let num_cores = topo.num_cores();
        let num_vcpus = topo.guest_cores().len();
        let mut cpus: Vec<X86Cpu> = (0..num_cores).map(|_| X86Cpu::new()).collect();
        let mut vmcss = Vec::new();
        for v in 0..num_vcpus {
            let mut vmcs = Vmcs {
                guest: X86State::fill_pattern(0x5000 + v as u64),
                host: X86State::fill_pattern(0x6000 + v as u64),
                ..Vmcs::default()
            };
            vmcs.controls.ept = true;
            vmcs.controls.vapic = vapic;
            vmcss.push(vmcs);
        }
        let mut alt_vmcs = Vmcs {
            guest: X86State::fill_pattern(0x7000),
            host: X86State::fill_pattern(0x7100),
            ..Vmcs::default()
        };
        alt_vmcs.controls.ept = true;
        // Enter each guest on its pinned core.
        for (v, vmcs) in vmcss.iter_mut().enumerate() {
            let core = topo.guest_core(v);
            cpus[core.index()]
                .vmentry(vmcs)
                .expect("initial entry from root mode");
        }
        X86Hv {
            kind,
            machine: Machine::new(topo),
            cost,
            cpus,
            vmcss,
            lapics: (0..num_vcpus).map(|_| Lapic::new(vapic)).collect(),
            alt_vmcs,
            alt_loaded: false,
            nic: Nic::new(hvx_gic::IntId::spi(43)),
            irq: IrqTarget::default(),
        }
    }

    /// Charges `step` on `core`.
    fn step(&mut self, core: CoreId, step: Step) {
        charge_step(&mut self.machine, &self.cost, core, step);
    }

    /// Xen x86 waking Dom0 out of the idle domain on `core`, at `cost`.
    fn wake_dom0(&mut self, core: CoreId, cost: Cycles) {
        self.machine.charge_as(
            core,
            "xen:x86-wake-blocked",
            TraceKind::Sched,
            cost,
            TransitionId::Sched,
        );
    }

    fn is_kvm(&self) -> bool {
        self.kind == HvKind::KvmX86
    }

    fn apic_emulate_cost(&self) -> Cycles {
        if self.is_kvm() {
            self.cost.kvm_x86_apic_emulate
        } else {
            self.cost.xen_x86_apic_emulate
        }
    }

    /// VM exit on `core` for VCPU `vcpu`: the hardware bulk-moves the
    /// live state into the VMCS ("switching a substantial portion of the
    /// CPU register state to the VMCS in memory", §IV) and loads host
    /// state.
    fn exit(&mut self, core: CoreId, vcpu: usize, reason: ExitReason) {
        self.machine.bump("x86.vmexits", 1);
        self.step(core, Step::VmExit);
        let vmcs = if self.alt_loaded && vcpu == 0 {
            &mut self.alt_vmcs
        } else {
            &mut self.vmcss[vcpu]
        };
        self.cpus[core.index()]
            .vmexit(vmcs, reason)
            .expect("guest was in non-root mode");
    }

    /// VM entry on `core` for VCPU `vcpu`.
    fn enter(&mut self, core: CoreId, vcpu: usize) {
        self.step(core, Step::VmEntry);
        let vmcs = if self.alt_loaded && vcpu == 0 {
            &mut self.alt_vmcs
        } else {
            &mut self.vmcss[vcpu]
        };
        self.cpus[core.index()]
            .vmentry(vmcs)
            .expect("host was in root mode");
    }

    /// A VM exit for `reason` followed by the hypervisor's exit-handler
    /// dispatch: the head of the hypercall, the trapped APIC accesses,
    /// the EPT fault and Xen's I/O Latency Out.
    fn exit_to_dispatch(&mut self, core: CoreId, vcpu: usize, reason: ExitReason) {
        self.exit(core, vcpu, reason);
        let dispatch = if self.is_kvm() {
            Step::KvmX86Dispatch
        } else {
            Step::XenX86Dispatch
        };
        self.step(core, dispatch);
    }

    /// The guest's port-I/O doorbell on the transmit path: the `OUT`
    /// exits, KVM signals vhost's ioeventfd or Xen sends on the event
    /// channel, the guest re-enters, and the kick reaches `backend`.
    /// Returns the kick's flow chain, which the caller steps at the
    /// backend's wake and ends at the NIC's DMA.
    fn kick_backend(&mut self, core: CoreId, vcpu: usize, backend: CoreId) -> Option<FlowId> {
        self.exit(core, vcpu, ExitReason::IoInstruction);
        let (chain, label, signal) = if self.is_kvm() {
            (FlowKind::VirtioKick, "virtio:kick", Step::X86Ioeventfd)
        } else {
            (FlowKind::EvtchnSignal, "evtchn:send", Step::EvtchnSend)
        };
        let flow = self.machine.flow_begin(chain, core, label);
        self.step(core, signal);
        let arrival = self
            .machine
            .signal(core, backend, self.cost.x86_doorbell_wire);
        self.enter(core, vcpu);
        self.machine.wait_until(backend, arrival);
        flow
    }

    /// Extension benchmark: an EPT violation (the x86 analog of a
    /// Stage-2 demand fault). The VMCS-mediated exit/entry makes it
    /// cheaper than split-mode KVM ARM's fault but dearer than Xen
    /// ARM's EL2-local handling.
    pub fn ept_fault(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.exit_to_dispatch(core, vcpu, ExitReason::EptViolation { gpa: 0x8000_0000 });
        self.machine.charge_as(
            core,
            "x86:page-alloc",
            TraceKind::Host,
            self.cost.page_alloc,
            TransitionId::HostDispatch,
        );
        self.enter(core, vcpu);
        self.machine.now(core) - t0
    }

    /// Swaps the primary VM back in after an odd number of `vm_switch`
    /// calls (uncharged scaffolding).
    fn ensure_primary(&mut self) {
        if self.alt_loaded {
            let core = self.machine.topology().guest_core(0);
            self.cpus[core.index()]
                .vmexit(&mut self.alt_vmcs, ExitReason::Hlt)
                .expect("alt VM was running");
            self.alt_loaded = false;
            self.cpus[core.index()]
                .vmentry(&mut self.vmcss[0])
                .expect("root mode");
        }
    }

    /// Delivers `vector` to a running VCPU: doorbell/IPI, external-
    /// interrupt exit, LAPIC injection, entry. Returns the instant the
    /// guest holds the interrupt (post-ack), where it ends the
    /// IRQ-delivery chain `flow` (when tracing) that produced it.
    fn inject_running(
        &mut self,
        from: CoreId,
        vcpu: usize,
        vector: u8,
        wire: Cycles,
        flow: Option<FlowId>,
    ) -> Cycles {
        let core = self.machine.topology().guest_core(vcpu);
        let arrival = self.machine.signal(from, core, wire);
        self.machine.wait_until(core, arrival);
        self.exit(core, vcpu, ExitReason::ExternalInterrupt);
        self.machine.bump("x86.virq_injections", 1);
        self.machine.flow_step(flow, core, "virq:inject");
        let inject = if self.is_kvm() {
            Step::KvmX86Inject
        } else {
            Step::XenX86Inject
        };
        self.step(core, inject);
        self.lapics[vcpu].set_irr(vector).expect("valid vector");
        self.enter(core, vcpu);
        // Hardware injects on entry; the guest's interrupt ack is
        // implicit (no exit).
        let got = self.lapics[vcpu].ack();
        debug_assert_eq!(got, Some(vector));
        let t_ack = self.machine.now(core);
        self.machine.flow_end(flow, core, "guest:ack");
        // EOI later: traps unless vAPIC (charged where the workload path
        // needs it, via `virq_complete`-equivalent costs).
        t_ack
    }

    /// The guest completes the in-service interrupt — trapping per EOI
    /// on pre-vAPIC hardware (Table II: ~1.5k cycles vs ARM's 71).
    fn guest_eoi(&mut self, vcpu: usize) {
        let core = self.machine.topology().guest_core(vcpu);
        if self.lapics[vcpu].eoi_traps() {
            self.exit(
                core,
                vcpu,
                ExitReason::ApicAccess {
                    offset: 0xB0,
                    write: true,
                },
            );
            self.machine.charge_as(
                core,
                "x86:apic-eoi-emulate",
                TraceKind::Emulation,
                self.apic_emulate_cost(),
                TransitionId::GicdEmulate,
            );
            self.lapics[vcpu].eoi().expect("in service");
            self.enter(core, vcpu);
        } else {
            self.machine.charge_as(
                core,
                "x86:vapic-eoi",
                TraceKind::Guest,
                Cycles::new(100),
                TransitionId::GicAccess,
            );
            self.lapics[vcpu].eoi().expect("in service");
        }
    }
}

impl Hypervisor for X86Hv {
    fn kind(&self) -> HvKind {
        self.kind
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
        self.irq.policy = policy;
    }

    fn hypercall(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.exit_to_dispatch(core, vcpu, ExitReason::Vmcall);
        self.enter(core, vcpu);
        self.machine.now(core) - t0
    }

    fn gicd_trap(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        // The x86 analog: a trapped APIC-page access.
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.exit_to_dispatch(
            core,
            vcpu,
            ExitReason::ApicAccess {
                offset: 0x20,
                write: false,
            },
        );
        self.machine.charge_as(
            core,
            "x86:mmio-decode",
            TraceKind::Emulation,
            if self.is_kvm() {
                self.cost.kvm_x86_mmio_decode
            } else {
                self.cost.xen_x86_mmio_decode
            },
            TransitionId::MmioDecode,
        );
        self.machine.charge_as(
            core,
            "x86:apic-emulate",
            TraceKind::Emulation,
            self.apic_emulate_cost(),
            TransitionId::GicdEmulate,
        );
        self.enter(core, vcpu);
        self.machine.now(core) - t0
    }

    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles {
        self.ensure_primary();
        assert_ne!(from, to, "virtual IPI requires two VCPUs");
        let from_core = self.machine.topology().guest_core(from);
        let t0 = self.machine.now(from_core);
        // Sender: trapped ICR write.
        self.exit_to_dispatch(from_core, from, ExitReason::MsrWrite { msr: 0x830 });
        self.machine.charge_as(
            from_core,
            "x86:apic-icr-emulate",
            TraceKind::Emulation,
            self.apic_emulate_cost(),
            TransitionId::GicdEmulate,
        );
        let effect = self.lapics[from]
            .icr_write(to, RESCHED_VECTOR)
            .expect("valid vector");
        debug_assert_eq!(effect.ipis, vec![(to, RESCHED_VECTOR)]);
        let wire = self.cost.x86_ipi_wire;
        let t_ack = self.inject_running(from_core, to, RESCHED_VECTOR, wire, None);
        self.enter(from_core, from);
        // Receiver's EOI happens after the measured handling point.
        self.guest_eoi(to);
        t_ack - t0
    }

    fn virq_complete(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        // Stage an in-service interrupt without charging.
        self.lapics[vcpu].set_irr(VIRTIO_VECTOR).expect("vector");
        self.lapics[vcpu].ack().expect("pending");
        let t0 = self.machine.now(core);
        self.guest_eoi(vcpu);
        self.machine.now(core) - t0
    }

    fn vm_switch(&mut self) -> Cycles {
        let core = self.machine.topology().guest_core(0);
        let t0 = self.machine.now(core);
        self.exit(core, 0, ExitReason::Hlt);
        self.machine.charge_as(
            core,
            if self.is_kvm() {
                "kvm:x86-sched"
            } else {
                "xen:x86-sched"
            },
            TraceKind::Sched,
            if self.is_kvm() {
                self.cost.kvm_x86_sched
            } else {
                self.cost.xen_x86_sched
            },
            TransitionId::Sched,
        );
        self.alt_loaded = !self.alt_loaded;
        self.enter(core, 0);
        self.machine.now(core) - t0
    }

    fn io_latency_out(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        if self.is_kvm() {
            // The ioeventfd is signalled right in the exit handler — the
            // 560-cycle row of Table II.
            self.exit(core, vcpu, ExitReason::IoInstruction);
            self.step(core, Step::X86Ioeventfd);
            let t1 = self.machine.now(core);
            self.enter(core, vcpu);
            t1 - t0
        } else {
            // Xen: evtchn to Dom0 + idle-domain wake on the backend core.
            let backend = self.machine.topology().backend_core();
            self.exit_to_dispatch(core, vcpu, ExitReason::IoInstruction);
            self.step(core, Step::EvtchnSend);
            let arrival = self
                .machine
                .signal(core, backend, self.cost.x86_doorbell_wire);
            self.enter(core, vcpu);
            self.machine.wait_until(backend, arrival);
            self.wake_dom0(backend, self.cost.xen_x86_wake_blocked);
            self.step(backend, Step::VmEntry);
            self.step(backend, Step::EventUpcall);
            self.machine.now(backend) - t0
        }
    }

    fn io_latency_in(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let backend = self.machine.topology().backend_core();
        let t0 = self.machine.now(backend);
        if self.is_kvm() {
            self.machine.charge_as(
                backend,
                "kvm:x86-irqfd",
                TraceKind::Io,
                self.cost.kvm_x86_ioeventfd,
                TransitionId::VhostKick,
            );
            self.machine.charge_as(
                backend,
                "kvm:x86-io-in-host",
                TraceKind::Host,
                self.cost.kvm_x86_io_in_host,
                TransitionId::HostDispatch,
            );
            let wire = self.cost.x86_doorbell_wire;
            let t_ack = self.inject_running(backend, vcpu, VIRTIO_VECTOR, wire, None);
            self.guest_eoi(vcpu);
            t_ack - t0
        } else {
            self.machine.bump("x86.vmexits", 1);
            self.step(backend, Step::VmExit);
            self.step(backend, Step::XenX86Dispatch);
            self.step(backend, Step::EvtchnSend);
            let core = self.machine.topology().guest_core(vcpu);
            let arrival = self
                .machine
                .signal(backend, core, self.cost.x86_doorbell_wire);
            self.machine.wait_until(core, arrival);
            self.step(core, Step::X86WakeDomu);
            self.machine.bump("x86.virq_injections", 1);
            self.step(core, Step::XenX86Inject);
            self.lapics[vcpu].set_irr(VIRTIO_VECTOR).expect("vector");
            self.step(core, Step::VmEntry);
            let got = self.lapics[vcpu].ack();
            debug_assert_eq!(got, Some(VIRTIO_VECTOR));
            let t1 = self.machine.now(core);
            self.guest_eoi(vcpu);
            t1 - t0
        }
    }

    fn guest_compute(&mut self, vcpu: usize, work: Cycles) {
        guest_compute(&mut self.machine, vcpu, work);
    }

    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.cost;
        let core = self.machine.topology().guest_core(vcpu);
        let backend = self.machine.topology().backend_core();
        let driver = pv_driver(self.kind, &c) / 2;
        guest_stack_tx(&mut self.machine, &c, core, len, driver);
        let flow = self.kick_backend(core, vcpu, backend);
        if self.is_kvm() {
            let m = &mut self.machine;
            if m.fault(FaultPoint::VhostDelay) {
                // Fault: vhost worker preempted before the kick is
                // serviced; the driver's TX watchdog re-kicks.
                let rec = m.flow_begin(FlowKind::FaultRecovery, backend, "fault:vhost-delay");
                recover(m, backend, Recovery::VhostDelay, c.kvm_x86_sched * 2, None);
                let rekick = c.kvm_x86_ioeventfd + c.kvm_x86_mmio_decode;
                recover(m, core, Recovery::TxRekick, rekick, rec);
            }
            m.flow_step(flow, backend, "vhost:wake");
            self.step(backend, Step::VhostWake);
            self.step(backend, Step::VhostTx);
        } else {
            self.wake_dom0(backend, c.xen_x86_wake_blocked);
            self.machine.flow_step(flow, backend, "dom0:wake");
            self.step(backend, Step::NetbackTx);
            grant_copy_with_retry(&mut self.machine, &c, backend);
        }
        self.step(backend, Step::HostStackTx);
        nic_stall(&mut self.machine, &mut self.nic, backend, c.nic_dma * 4);
        nic_dma(&mut self.machine, &c, backend, flow);
        self.nic.transmit(hvx_vio::Packet::new(0, vec![0u8; len]));
        self.machine.now(backend)
    }

    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.cost;
        let vcpu = self.next_irq_vcpu();
        let io = self.machine.topology().io_core();
        self.machine.wait_until(io, arrival);
        let flow = nic_irq(&mut self.machine, &c, io);
        if self.is_kvm() {
            self.step(io, Step::HostStackRx);
            self.machine.flow_step(flow, io, "vhost:rx");
            self.step(io, Step::VhostRx);
        } else {
            self.wake_dom0(io, c.xen_x86_wake_blocked / 2);
            self.step(io, Step::HostStackRx);
            self.step(io, Step::NetbackRx);
            grant_copy_with_retry(&mut self.machine, &c, io);
            self.machine.flow_step(flow, io, "evtchn:send");
            self.step(io, Step::EvtchnSend);
        }
        let kvm = self.is_kvm();
        let m = &mut self.machine;
        if m.fault(FaultPoint::VirqDrop) {
            // Fault: the interrupt is lost before the guest observes
            // it; the backend notices the unhandled ring and re-raises
            // the notification. KVM re-signals the irqfd (opening no
            // chain, as on ARM), Xen re-sends the event channel,
            // ending the chain the lost upcall opened — each charged
            // as its own recovery.
            let (recovery, cost, rec) = if kvm {
                let cost = c.kvm_x86_ioeventfd + c.x86_inject;
                (Recovery::IrqfdResignal, cost, None)
            } else {
                let rec = m.flow_begin(FlowKind::FaultRecovery, io, "fault:upcall-lost");
                let cost = c.xen_evtchn_send + c.xen_x86_inject;
                (Recovery::EvtchnRedeliver, cost, rec)
            };
            recover(m, io, recovery, cost, rec);
        }
        self.inject_running(io, vcpu, VIRTIO_VECTOR, c.x86_doorbell_wire, flow);
        self.guest_eoi(vcpu);
        let core = self.machine.topology().guest_core(vcpu);
        if self.machine.fault(FaultPoint::VirqSpurious) {
            // Fault: a spurious interrupt — ack, find nothing, EOI.
            self.machine.charge_as(
                core,
                "guest:spurious-virq",
                TraceKind::Guest,
                c.x86_inject / 2,
                TransitionId::VirqInject,
            );
        }
        let driver = pv_driver(self.kind, &c) / 2;
        guest_stack_rx(&mut self.machine, &c, core, len, driver);
        (self.machine.now(core), vcpu)
    }

    fn deliver_virq(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.inject_running(core, vcpu, RESCHED_VECTOR, Cycles::ZERO, None);
        self.guest_eoi(vcpu);
        self.machine.now(core) - t0
    }

    fn next_irq_vcpu(&mut self) -> usize {
        let vcpus = self.num_vcpus();
        self.irq.pick(vcpus)
    }

    fn deliver_virq_blocked(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        if !self.is_kvm() {
            // Xen x86 wakes the blocked DomU on its own core.
            self.step(core, Step::X86WakeDomu);
        }
        self.inject_running(core, vcpu, VIRTIO_VECTOR, Cycles::ZERO, None);
        self.guest_eoi(vcpu);
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
        let vcpu = self.next_irq_vcpu();
        let io = self.machine.topology().io_core();
        self.machine.wait_until(io, arrival);
        let flow = nic_irq(&mut self.machine, &c, io);
        self.step(io, Step::HostStackRx);
        if self.is_kvm() {
            self.machine.flow_step(flow, io, "vhost:rx");
            self.step(io, Step::VhostRx);
        } else {
            self.step(io, Step::NetbackRx);
            for _ in 0..chunks {
                self.step(io, Step::GrantCopy);
            }
            self.machine.flow_step(flow, io, "evtchn:send");
            self.step(io, Step::EvtchnSend);
        }
        self.inject_running(io, vcpu, VIRTIO_VECTOR, c.x86_doorbell_wire, flow);
        self.guest_eoi(vcpu);
        let core = self.machine.topology().guest_core(vcpu);
        let driver = pv_driver(self.kind, &c) / 2;
        guest_stack_rx(&mut self.machine, &c, core, total, driver);
        (self.machine.now(core), vcpu)
    }

    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.cost;
        let total = chunks * chunk_len;
        let core = self.machine.topology().guest_core(vcpu);
        let backend = self.machine.topology().backend_core();
        let driver = pv_driver(self.kind, &c) / 2;
        guest_stack_tx(&mut self.machine, &c, core, total, driver);
        let flow = self.kick_backend(core, vcpu, backend);
        if self.is_kvm() {
            self.machine.flow_step(flow, backend, "vhost:wake");
            self.step(backend, Step::VhostWake);
            self.step(backend, Step::VhostTx);
        } else {
            self.wake_dom0(backend, c.xen_x86_wake_blocked);
            self.machine.flow_step(flow, backend, "dom0:wake");
            self.step(backend, Step::NetbackTx);
            for _ in 0..chunks {
                self.step(backend, Step::GrantCopy);
            }
        }
        self.step(backend, Step::HostStackTx);
        nic_dma(&mut self.machine, &c, backend, flow);
        self.machine.now(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercalls_match_table_ii() {
        assert_eq!(KvmX86::new().hypercall(0), Cycles::new(1300));
        assert_eq!(XenX86::new().hypercall(0), Cycles::new(1228));
    }

    #[test]
    fn kvm_and_xen_share_the_hardware_mechanism() {
        // §IV: "both x86 hypervisors spend a similar amount of time
        // transitioning" — the difference is software dispatch only.
        let k = KvmX86::new().hypercall(0);
        let x = XenX86::new().hypercall(0);
        let diff = k.as_u64().abs_diff(x.as_u64());
        assert!(diff * 10 < k.as_u64(), "within 10%: {k} vs {x}");
    }

    #[test]
    fn interrupt_controller_traps_match_table_ii() {
        assert_eq!(KvmX86::new().gicd_trap(0), Cycles::new(2384));
        assert_eq!(XenX86::new().gicd_trap(0), Cycles::new(1734));
    }

    #[test]
    fn virq_completion_traps_unlike_arm() {
        assert_eq!(KvmX86::new().virq_complete(0), Cycles::new(1556));
        assert_eq!(XenX86::new().virq_complete(0), Cycles::new(1464));
    }

    #[test]
    fn vapic_removes_the_eoi_exit() {
        let mut vapic = KvmX86::with_vapic(CostModel::x86());
        let c = vapic.virq_complete(0);
        assert!(
            c < Cycles::new(200),
            "§IV: vAPIC hardware 'should perform more comparably to ARM': {c}"
        );
    }

    #[test]
    fn virtual_ipis_match_table_ii() {
        assert_eq!(KvmX86::new().virtual_ipi(0, 1), Cycles::new(5230));
        assert_eq!(XenX86::new().virtual_ipi(0, 1), Cycles::new(5562));
    }

    #[test]
    fn vm_switch_matches_table_ii() {
        assert_eq!(KvmX86::new().vm_switch(), Cycles::new(4812));
        assert_eq!(XenX86::new().vm_switch(), Cycles::new(10534));
    }

    #[test]
    fn io_latencies_match_table_ii() {
        assert_eq!(KvmX86::new().io_latency_out(0), Cycles::new(560));
        assert_eq!(XenX86::new().io_latency_out(0), Cycles::new(11262));
        assert_eq!(KvmX86::new().io_latency_in(0), Cycles::new(18923));
        assert_eq!(XenX86::new().io_latency_in(0), Cycles::new(10050));
    }

    #[test]
    fn exit_round_trip_preserves_guest_progress() {
        let mut kvm = KvmX86::new();
        let core = kvm.machine.topology().guest_core(0);
        // Mutate live guest state, hypercall, check it survived.
        kvm.cpus[core.index()].live.gp[3] = 0x1234_5678;
        kvm.hypercall(0);
        assert_eq!(kvm.cpus[core.index()].live.gp[3], 0x1234_5678);
        assert_eq!(kvm.cpus[core.index()].mode(), hvx_arch::VmxMode::NonRoot);
    }

    #[test]
    fn ept_fault_sits_between_the_arm_designs() {
        let mut kvm_x86 = KvmX86::new();
        let x86 = kvm_x86.ept_fault(0);
        let arm_kvm = crate::KvmArm::new().stage2_fault(0);
        let arm_xen = crate::XenArm::new().stage2_fault(0);
        assert!(arm_xen < x86, "{arm_xen} vs {x86}");
        assert!(x86 < arm_kvm, "{x86} vs {arm_kvm}");
    }

    #[test]
    fn workload_paths_run() {
        let mut kvm = KvmX86::new();
        let t = kvm.transmit(0, 1400);
        assert!(t > Cycles::ZERO);
        let (r, v) = kvm.receive(1400, Cycles::ZERO);
        assert!(r > Cycles::ZERO);
        assert_eq!(v, 0);
        let mut xen = XenX86::new();
        let tx = xen.transmit(0, 1400);
        assert!(tx > t, "Xen x86 TX pays the grant copy + Dom0 wake");
    }
}
