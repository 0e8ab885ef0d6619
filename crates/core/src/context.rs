//! Guest execution contexts — the state a world switch moves.
//!
//! A split-mode hypervisor "must context switch all register state when
//! switching between host and VM execution context, similar to a regular
//! process context switch" (§II). [`ArmGuestContext`] is that state as
//! one value: tests can fill a context with a pattern, run it through an
//! exit/entry cycle with arbitrary host activity in between, and assert
//! bit-identity.

use hvx_arch::{ArmCpu, El1SysRegs, FpRegs, GpRegs, HcrEl2, TimerRegs};
use hvx_gic::{VgicCpuInterface, VgicSnapshot};

/// Everything KVM ARM's world switch saves and restores per VCPU —
/// exactly the register classes of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArmGuestContext {
    /// General-purpose registers.
    pub gp: GpRegs,
    /// SIMD/FP registers.
    pub fp: FpRegs,
    /// EL1 system registers.
    pub el1: El1SysRegs,
    /// Virtual timer registers.
    pub timer: TimerRegs,
    /// VGIC control-interface state (list registers etc.).
    pub vgic: VgicSnapshot,
    /// Per-VM EL2 configuration (HCR with guest trap bits). Its `E2H`
    /// bit is not the guest's: [`ArmGuestContext::install`] keeps the
    /// CPU's.
    pub hcr: HcrEl2,
    /// Per-VM EL2 virtual-memory state (VTTBR: Stage-2 root + VMID).
    pub vttbr: u64,
}

impl ArmGuestContext {
    /// Captures a context from live CPU and VGIC-interface state.
    pub fn capture(cpu: &ArmCpu, vgic: &VgicCpuInterface) -> Self {
        ArmGuestContext {
            gp: cpu.gp,
            fp: cpu.fp,
            el1: cpu.el1,
            timer: cpu.timer,
            vgic: vgic.save(),
            hcr: cpu.el2.hcr_el2,
            vttbr: cpu.el2.vttbr_el2,
        }
    }

    /// Installs this context into live CPU and VGIC-interface state.
    pub fn install(&self, cpu: &mut ArmCpu, vgic: &mut VgicCpuInterface) {
        cpu.gp = self.gp;
        cpu.fp = self.fp;
        cpu.el1 = self.el1;
        cpu.timer = self.timer;
        cpu.el2.hcr_el2 = keep_e2h(self.hcr, cpu.el2.hcr_el2);
        cpu.el2.vttbr_el2 = self.vttbr;
        vgic.restore(self.vgic);
    }

    /// A context filled with a distinct per-seed pattern, for round-trip
    /// tests.
    pub fn pattern(seed: u64) -> Self {
        ArmGuestContext {
            gp: GpRegs::fill_pattern(seed),
            fp: FpRegs::fill_pattern(seed),
            el1: El1SysRegs::fill_pattern(seed),
            timer: TimerRegs::fill_pattern(seed),
            vgic: VgicSnapshot::default(),
            hcr: HcrEl2::guest_running(),
            vttbr: seed << 48 | 0x4000_0000,
        }
    }
}

/// `hcr` with `live`'s `E2H` bit. E2H is host configuration, set once
/// at boot on a VHE host (§VI), so no context install changes it — as
/// KVM's VHE world switch keeps it on hardware.
fn keep_e2h(hcr: HcrEl2, live: HcrEl2) -> HcrEl2 {
    let e2h = HcrEl2::E2H.bits();
    HcrEl2::from_bits(hcr.bits() & !e2h | live.bits() & e2h)
}

/// The host's EL1 execution context (for split-mode KVM, what must be
/// restored to run the host OS after a VM exit). The host has no VGIC or
/// per-VM EL2 state of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArmHostContext {
    /// General-purpose registers.
    pub gp: GpRegs,
    /// SIMD/FP registers (lazily switched in real KVM; modelled eagerly,
    /// cost carried by Table III's FP row either way).
    pub fp: FpRegs,
    /// EL1 system registers.
    pub el1: El1SysRegs,
}

impl ArmHostContext {
    /// Captures the host context from a live CPU.
    pub fn capture(cpu: &ArmCpu) -> Self {
        ArmHostContext {
            gp: cpu.gp,
            fp: cpu.fp,
            el1: cpu.el1,
        }
    }

    /// Installs the host context and disables guest virtualization
    /// features (the host needs "full access to the hardware from EL1",
    /// §II); `E2H` stays as it was.
    pub fn install(&self, cpu: &mut ArmCpu) {
        cpu.gp = self.gp;
        cpu.fp = self.fp;
        cpu.el1 = self.el1;
        cpu.el2.hcr_el2 = keep_e2h(HcrEl2::new(), cpu.el2.hcr_el2);
        cpu.el2.vttbr_el2 = 0;
    }

    /// A patterned host context for tests.
    pub fn pattern(seed: u64) -> Self {
        ArmHostContext {
            gp: GpRegs::fill_pattern(seed),
            fp: FpRegs::fill_pattern(seed),
            el1: El1SysRegs::fill_pattern(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_arch::ArchVersion;

    #[test]
    fn capture_install_round_trip_is_bit_identical() {
        let ctx = ArmGuestContext::pattern(99);
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        let mut vgic = VgicCpuInterface::new();
        ctx.install(&mut cpu, &mut vgic);
        // Perturb nothing; capture must reproduce the context.
        let captured = ArmGuestContext::capture(&cpu, &vgic);
        assert_eq!(captured, ctx);
    }

    #[test]
    fn guest_state_survives_host_occupancy() {
        // The core invariant of split-mode virtualization: running the
        // host on the same CPU must not leak into the guest's context.
        let guest = ArmGuestContext::pattern(1);
        let host = ArmHostContext::pattern(2);
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        let mut vgic = VgicCpuInterface::new();

        guest.install(&mut cpu, &mut vgic);
        let saved = ArmGuestContext::capture(&cpu, &vgic); // switch out
        host.install(&mut cpu);
        // Host does arbitrary work:
        cpu.gp = GpRegs::fill_pattern(777);
        cpu.el1 = El1SysRegs::fill_pattern(888);
        // Switch back in:
        saved.install(&mut cpu, &mut vgic);
        assert_eq!(ArmGuestContext::capture(&cpu, &vgic), guest);
    }

    #[test]
    fn host_install_disables_stage2_and_traps() {
        let guest = ArmGuestContext::pattern(1);
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        let mut vgic = VgicCpuInterface::new();
        guest.install(&mut cpu, &mut vgic);
        assert!(cpu.el2.hcr_el2.stage2_enabled());
        ArmHostContext::pattern(2).install(&mut cpu);
        assert!(!cpu.el2.hcr_el2.stage2_enabled());
        assert_eq!(cpu.el2.vttbr_el2, 0);
    }

    #[test]
    fn installs_keep_the_cpus_e2h() {
        let mut cpu = ArmCpu::new(ArchVersion::V8_1);
        cpu.enable_vhe().unwrap();
        let mut vgic = VgicCpuInterface::new();
        ArmGuestContext::pattern(1).install(&mut cpu, &mut vgic);
        assert!(cpu.e2h() && cpu.el2.hcr_el2.stage2_enabled());
        ArmHostContext::pattern(2).install(&mut cpu);
        assert!(cpu.e2h() && !cpu.el2.hcr_el2.stage2_enabled());
        // A context captured on a VHE host carries E2H; a v8.0 part
        // does not take it.
        let captured = ArmGuestContext::capture(&cpu, &vgic);
        let mut classic = ArmCpu::new(ArchVersion::V8_0);
        captured.install(&mut classic, &mut vgic);
        assert!(!classic.e2h());
    }

    #[test]
    fn patterns_differ_by_seed() {
        assert_ne!(ArmGuestContext::pattern(1), ArmGuestContext::pattern(2));
        assert_ne!(ArmHostContext::pattern(1), ArmHostContext::pattern(2));
    }
}
