//! The common surface of all hypervisor models.
//!
//! The seven microbenchmark operations are Table I verbatim; the workload
//! operations are the primitives the application models of `hvx-suite`
//! compose (§V). Each operation executes the hypervisor's *actual*
//! modelled path on the shared [`Machine`] — mutating architectural
//! state, charging calibrated costs per step — and returns the elapsed
//! cycles or completion instant. The two application back ends (a served
//! request, a block request) are provided once here, on the shared step
//! table, for every model: the suite's drivers say what runs, the models
//! say what it costs.

use crate::steps::{charge_step, percent, pv_driver, Step};
use crate::{CostModel, HvKind, HvType, VirqPolicy};
use hvx_engine::{Cycles, Machine};

/// A simulated hypervisor (or the native baseline) driving one modelled
/// server machine.
///
/// All six implementations ([`crate::KvmArm`], [`crate::XenArm`],
/// [`crate::KvmX86`], [`crate::XenX86`], KVM ARM + VHE via
/// [`crate::KvmArm::new_vhe`], and [`crate::Native`]) share this trait so
/// the benchmark suite is generic over the configuration under test.
/// Each implements the Table I microbenchmarks and the packet-level
/// workload primitives; the application back ends
/// ([`Hypervisor::serve_request`], [`Hypervisor::block_request`]) are
/// provided once, from the design ([`HvKind::hv_type`]) and the shared
/// steps, and no model overrides them.
pub trait Hypervisor {
    /// Which configuration this is.
    fn kind(&self) -> HvKind;

    /// The simulated machine (per-core clocks + trace).
    fn machine(&self) -> &Machine;

    /// Mutable access to the machine.
    fn machine_mut(&mut self) -> &mut Machine;

    /// The cost model in effect.
    fn cost(&self) -> &CostModel;

    /// Number of VCPUs of the primary VM (or cores usable by the native
    /// workload).
    fn num_vcpus(&self) -> usize;

    /// Sets how device virtual interrupts are distributed over VCPUs
    /// (the §V ablation).
    fn set_virq_policy(&mut self, policy: VirqPolicy);

    /// Samples the model's device/substrate lifetime counters (vGIC
    /// injections, vhost packets, event-channel notifications, grant
    /// copies, ...) into the machine's metrics registry. No-op by
    /// default and while profiling is disabled; the profiling harness
    /// calls it once after a run, so counter values are end-of-run
    /// totals.
    fn sample_metrics(&mut self) {}

    // ------------------------------------------------------------------
    // Table I microbenchmarks
    // ------------------------------------------------------------------

    /// *Hypercall*: transition from the VM to the hypervisor and return
    /// without doing any work. Returns the round-trip cost on the VCPU's
    /// core.
    fn hypercall(&mut self, vcpu: usize) -> Cycles;

    /// *Interrupt Controller Trap*: read of an emulated GIC distributor
    /// register (`GICD_ISENABLER`) from the VM, and return.
    fn gicd_trap(&mut self, vcpu: usize) -> Cycles;

    /// *Virtual IPI*: VCPU `from` issues an IPI to VCPU `to` (different
    /// PCPUs, both running VM code). Returns send-to-handled latency.
    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles;

    /// *Virtual IRQ Completion*: the VM acknowledging and completing one
    /// injected virtual interrupt.
    fn virq_complete(&mut self, vcpu: usize) -> Cycles;

    /// *VM Switch*: switch from the primary VM to a second VM on the same
    /// physical core.
    fn vm_switch(&mut self) -> Cycles;

    /// *I/O Latency Out*: VM driver signals the virtual I/O device;
    /// returns latency until the backend receives the signal.
    fn io_latency_out(&mut self, vcpu: usize) -> Cycles;

    /// *I/O Latency In*: virtual I/O device signals the VM; returns
    /// latency until the VM receives the corresponding virtual interrupt.
    fn io_latency_in(&mut self, vcpu: usize) -> Cycles;

    // ------------------------------------------------------------------
    // Workload primitives (§V application models)
    // ------------------------------------------------------------------

    /// Runs `work` cycles of guest (or native) computation on `vcpu`.
    fn guest_compute(&mut self, vcpu: usize, work: Cycles);

    /// Full transmit path for `len` payload bytes initiated by `vcpu`:
    /// guest stack + driver, kick, backend processing, NIC hand-off.
    /// Returns the wire-departure instant.
    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles;

    /// Full receive path for `len` payload bytes arriving at the NIC at
    /// `arrival`: host/Dom0 IRQ + backend, virtual-interrupt injection,
    /// guest stack. Returns the instant the guest application has the
    /// data (and the VCPU that received it).
    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize);

    /// Delivers one non-I/O virtual interrupt (e.g. virtual timer) to
    /// `vcpu`; returns its cost on that VCPU's core.
    fn deliver_virq(&mut self, vcpu: usize) -> Cycles;

    /// The VCPU the next device interrupt will target under the current
    /// [`VirqPolicy`], advancing round-robin state.
    fn next_irq_vcpu(&mut self) -> usize;

    /// Delivers a device virtual interrupt to a VCPU that was *blocked*
    /// waiting for it (WFI/halt). For a Type 1 hypervisor the wake
    /// executes on the **target core**: credit-scheduler pick,
    /// idle-domain→domain switch, event upcall (the §IV I/O-Latency-In
    /// receiver path). For a Type 2 hypervisor the scheduler work runs
    /// host-side and the target core only pays the inject. This
    /// asymmetry is what makes interrupt concentration so much more
    /// expensive on Xen in §V's Apache/Memcached analysis. Returns the
    /// cost on the target VCPU's core.
    fn deliver_virq_blocked(&mut self, vcpu: usize) -> Cycles;

    /// Receives a TSO/GRO-style burst: `chunks` × `chunk_len` bytes
    /// arriving back-to-back at `arrival`, processed with **one** device
    /// interrupt (NAPI coalescing) but per-chunk data-path costs where
    /// the design imposes them — most importantly Xen's page-granular
    /// grant copies (§V: the TCP_STREAM root cause). Returns the instant
    /// the guest has the data and the receiving VCPU.
    fn receive_burst(
        &mut self,
        chunks: usize,
        chunk_len: usize,
        arrival: Cycles,
    ) -> (Cycles, usize);

    /// Transmits a TSO-style burst of `chunks` × `chunk_len` bytes with
    /// one kick and one completion. Returns the wire-departure instant of
    /// the last byte.
    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles;

    // ------------------------------------------------------------------
    // Application back ends (§V request servers, the storage ablation)
    // ------------------------------------------------------------------

    /// Serves one request whose application runs on `vcpu` (Apache,
    /// Memcached, MySQL). Virtualized, the host or Dom0 stack takes
    /// `stack_pct` percent of a packet's stack cost on the request
    /// (I/O core) and on the response (backend core), around the back
    /// end: vhost moves one packet each way under KVM; under Xen,
    /// netback does, with a grant copy for the request and one per
    /// 4 KiB page of the `response_chunks`-page response. The NIC then
    /// DMAs the response. The application runs `app_work` plus the
    /// response's guest stack and half the paravirtual driver; natively
    /// only that runs, and the NIC DMAs from its core. The request's
    /// device interrupts are the caller's.
    fn serve_request(
        &mut self,
        vcpu: usize,
        app_work: Cycles,
        stack_pct: u32,
        response_chunks: u32,
    ) {
        let c = *self.cost();
        let kind = self.kind();
        let m = self.machine_mut();
        let (io, backend) = (m.topology().io_core(), m.topology().backend_core());
        if let Some(design) = kind.hv_type() {
            charge_step(m, &c, io, Step::HostRequestRx(stack_pct));
            if design == HvType::Type1 {
                charge_step(m, &c, io, Step::NetbackRx);
                charge_step(m, &c, io, Step::GrantCopy);
                for _ in 0..response_chunks {
                    charge_step(m, &c, backend, Step::GrantCopy);
                }
                charge_step(m, &c, backend, Step::NetbackTx);
            } else {
                charge_step(m, &c, io, Step::VhostRx);
                charge_step(m, &c, backend, Step::VhostTx);
            }
            charge_step(m, &c, backend, Step::HostRequestTx(stack_pct));
            charge_step(m, &c, backend, Step::NicDma);
        }
        let response = percent(c.stack_tx_per_packet, stack_pct)
            + c.stack_bytes(response_chunks as usize * 4_096);
        self.guest_compute(vcpu, app_work + response + pv_driver(kind, &c) / 2);
        if kind.hv_type().is_none() {
            let m = self.machine_mut();
            let core = m.topology().guest_core(vcpu);
            charge_step(m, &c, core, Step::NicDma);
        }
    }

    /// One block request from `vcpu`, which blocks until it completes
    /// (a closed-loop random read): the guest block layer's `block_work`
    /// plus a quarter of the paravirtual driver, then the device's
    /// `service` time. Virtualized, the guest kicks its back end (one
    /// VM-to-hypervisor round trip), which starts on the I/O core once
    /// the submission reaches it — vhost-blk under KVM, blkback and a
    /// grant copy under Xen — and the disk's completion wakes the
    /// blocked VCPU with a virtual interrupt. Natively the disk serves
    /// the issuing core, which takes the completion interrupt.
    fn block_request(&mut self, vcpu: usize, block_work: Cycles, service: Cycles) {
        let c = *self.cost();
        let kind = self.kind();
        self.guest_compute(vcpu, block_work + pv_driver(kind, &c) / 4);
        let guest = self.machine().topology().guest_core(vcpu);
        let Some(design) = kind.hv_type() else {
            charge_step(self.machine_mut(), &c, guest, Step::DiskService(service));
            self.deliver_virq(vcpu);
            return;
        };
        self.hypercall(vcpu);
        let m = self.machine_mut();
        let io = m.topology().io_core();
        // The back end cannot start before the submission reaches it.
        let submitted = m.now(guest);
        m.wait_until(io, submitted);
        if design == HvType::Type1 {
            charge_step(m, &c, io, Step::Blkback);
            charge_step(m, &c, io, Step::GrantCopy);
        } else {
            charge_step(m, &c, io, Step::VhostBlk);
        }
        charge_step(m, &c, io, Step::DiskService(service));
        // The completion interrupt reaches the VCPU blocked on the
        // request.
        let done = m.now(io);
        m.wait_until(guest, done);
        self.deliver_virq_blocked(vcpu);
    }
}
