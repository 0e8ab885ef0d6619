//! The common surface of all hypervisor models.
//!
//! The seven microbenchmark operations are Table I verbatim; the workload
//! operations are the primitives the application models of `hvx-suite`
//! compose (§V). Each operation executes the hypervisor's *actual*
//! modelled path on the shared [`Machine`] — mutating architectural
//! state, charging calibrated costs per step — and returns the elapsed
//! cycles or completion instant.

use crate::{CostModel, HvKind, VirqPolicy};
use hvx_engine::{Cycles, Machine};

/// A simulated hypervisor (or the native baseline) driving one modelled
/// server machine.
///
/// All six implementations ([`crate::KvmArm`], [`crate::XenArm`],
/// [`crate::KvmX86`], [`crate::XenX86`], KVM ARM + VHE via
/// [`crate::KvmArm::new_vhe`], and [`crate::Native`]) share this trait so
/// the benchmark suite is generic over the configuration under test.
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
}
