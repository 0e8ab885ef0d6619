//! The native (bare-metal Linux) baseline.
//!
//! Figure 4 normalizes every virtualized result to native execution on
//! the same platform; Table V's first column is native netperf. This
//! model runs the same workload primitives with no hypervisor in the
//! loop: physical interrupts go straight to the kernel, the network
//! stack runs once (no host/Dom0 second stack), and there are no
//! VM transitions at all. Its host interrupt, physical GIC ack and NIC
//! DMA are the shared step table's, the same steps the hypervisors'
//! hosts and Dom0 charge.

use crate::steps::{charge_step, IrqTarget, Step};
use crate::{CostModel, HvKind, Hypervisor, VirqPolicy};
use hvx_engine::{CoreId, Cycles, Machine, Topology, TraceKind, TransitionId};

/// Bare-metal Linux on the paper's server topology (capped at 4 cores +
/// 12 GB like every configuration, §III).
#[derive(Debug)]
pub struct Native {
    machine: Machine,
    cost: CostModel,
    irq: IrqTarget,
}

impl Native {
    /// Creates the native ARM baseline.
    pub fn new() -> Self {
        Native::with_cost(CostModel::arm())
    }

    /// Creates a native baseline with an explicit cost model (e.g.
    /// [`CostModel::x86`] for the x86 normalization).
    pub fn with_cost(cost: CostModel) -> Self {
        Native {
            machine: Machine::new(Topology::paper_default()),
            cost,
            irq: IrqTarget::default(),
        }
    }

    /// Charges `step` on `core`.
    fn step(&mut self, core: CoreId, step: Step) {
        charge_step(&mut self.machine, &self.cost, core, step);
    }

    /// A physical interrupt taken on `core`: the kernel's IRQ entry and
    /// the GIC acknowledge.
    fn physical_irq(&mut self, core: CoreId) {
        self.step(core, Step::HostIrq);
        self.step(core, Step::GicPhysAck);
    }
}

impl Default for Native {
    fn default() -> Self {
        Native::new()
    }
}

impl Hypervisor for Native {
    fn kind(&self) -> HvKind {
        HvKind::Native
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

    /// Natively there is no hypervisor to call; the operation is free.
    /// The microbenchmark suite never reports native rows for Table II.
    fn hypercall(&mut self, _vcpu: usize) -> Cycles {
        Cycles::ZERO
    }

    /// Natively the interrupt controller is real hardware: a plain
    /// device-register access.
    fn gicd_trap(&mut self, vcpu: usize) -> Cycles {
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.machine.charge_as(
            core,
            "gic:phys-access",
            TraceKind::Host,
            self.cost.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.machine.now(core) - t0
    }

    /// A native rescheduling IPI: doorbell, wire, receiver IRQ entry and
    /// acknowledge — the baseline the paper's virtual IPI numbers sit on
    /// top of.
    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles {
        assert_ne!(from, to);
        let from_core = self.machine.topology().guest_core(from);
        let to_core = self.machine.topology().guest_core(to);
        let t0 = self.machine.now(from_core);
        self.machine.charge_as(
            from_core,
            "gic:sgi-send",
            TraceKind::Host,
            self.cost.gic_phys_access,
            TransitionId::GicAccess,
        );
        let arrival = self.machine.signal(from_core, to_core, self.cost.ipi_wire);
        self.machine.wait_until(to_core, arrival);
        self.physical_irq(to_core);
        self.machine.now(to_core) - t0
    }

    /// Completing a physical interrupt: one EOI register write.
    fn virq_complete(&mut self, vcpu: usize) -> Cycles {
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.machine.charge_as(
            core,
            "gic:phys-eoi",
            TraceKind::Host,
            self.cost.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.machine.now(core) - t0
    }

    /// There are no VMs to switch natively.
    fn vm_switch(&mut self) -> Cycles {
        Cycles::ZERO
    }

    /// No virtual I/O devices exist natively.
    fn io_latency_out(&mut self, _vcpu: usize) -> Cycles {
        Cycles::ZERO
    }

    /// No virtual I/O devices exist natively.
    fn io_latency_in(&mut self, _vcpu: usize) -> Cycles {
        Cycles::ZERO
    }

    fn guest_compute(&mut self, vcpu: usize, work: Cycles) {
        let core = self.machine.topology().guest_core(vcpu);
        self.machine.charge_as(
            core,
            "native:compute",
            TraceKind::Guest,
            work,
            TransitionId::GuestRun,
        );
    }

    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles {
        let c = self.cost;
        let core = self.machine.topology().guest_core(vcpu);
        self.machine.charge_as(
            core,
            "native:net-stack-tx",
            TraceKind::Guest,
            c.stack_tx_per_packet + c.stack_bytes(len),
            TransitionId::HostStack,
        );
        self.step(core, Step::NicDma);
        self.machine.now(core)
    }

    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize) {
        let c = self.cost;
        let target = self.next_irq_vcpu();
        let core = self.machine.topology().guest_core(target);
        self.machine.wait_until(core, arrival);
        self.physical_irq(core);
        self.machine.charge_as(
            core,
            "native:net-stack-rx",
            TraceKind::Guest,
            c.stack_rx_per_packet + c.stack_bytes(len),
            TransitionId::HostStack,
        );
        (self.machine.now(core), target)
    }

    /// A native timer interrupt.
    fn deliver_virq(&mut self, vcpu: usize) -> Cycles {
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.physical_irq(core);
        self.machine.now(core) - t0
    }

    fn next_irq_vcpu(&mut self) -> usize {
        let cores = self.num_vcpus();
        self.irq.pick(cores)
    }

    fn deliver_virq_blocked(&mut self, vcpu: usize) -> Cycles {
        // Natively a physical interrupt wakes an idle core directly.
        self.deliver_virq(vcpu)
    }

    /// One coalesced interrupt and one pass of the stack over the whole
    /// burst (GRO; the NIC DMAs straight to kernel buffers): the receive
    /// path at the burst's total length.
    fn receive_burst(
        &mut self,
        chunks: usize,
        chunk_len: usize,
        arrival: Cycles,
    ) -> (Cycles, usize) {
        self.receive(chunks * chunk_len, arrival)
    }

    /// One stack pass (TSO) and one doorbell for the whole burst: the
    /// transmit path at the burst's total length.
    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles {
        self.transmit(vcpu, chunks * chunk_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_has_no_vm_transitions() {
        let mut n = Native::new();
        assert_eq!(n.hypercall(0), Cycles::ZERO);
        assert_eq!(n.vm_switch(), Cycles::ZERO);
        assert_eq!(n.io_latency_out(0), Cycles::ZERO);
    }

    #[test]
    fn physical_irq_completion_is_cheap_but_not_free() {
        let mut n = Native::new();
        let c = n.virq_complete(0);
        assert!(c > Cycles::ZERO && c < Cycles::new(500));
    }

    #[test]
    fn native_ipi_is_much_cheaper_than_virtual() {
        let mut n = Native::new();
        let mut kvm = crate::KvmArm::new();
        let native = n.virtual_ipi(0, 1);
        let virt = kvm.virtual_ipi(0, 1);
        assert!(
            virt.as_u64() > 5 * native.as_u64(),
            "virtual IPI {virt} should dwarf native {native}"
        );
    }

    #[test]
    fn native_rx_path_is_single_stack() {
        let mut n = Native::new();
        let (done, core) = n.receive(1, Cycles::ZERO);
        assert_eq!(core, 0);
        // irq 600 + ack 130 + stack 19000 + ~0 bytes.
        assert_eq!(done, Cycles::new(600 + 130 + 19000));
    }

    #[test]
    fn deliver_virq_is_native_interrupt_cost() {
        let mut n = Native::new();
        assert_eq!(n.deliver_virq(0), Cycles::new(730));
    }
}
