//! EL2 control state: the hypervisor configuration registers.
//!
//! `HCR_EL2` is where a hypervisor "enables the virtualization features in
//! EL2 before switching to a VM" (§II). KVM ARM toggles these bits on
//! *every* transition (disable traps and Stage-2 translation when running
//! the host, enable them when running the VM) — overhead source #3 in the
//! paper's hypercall analysis — while Xen ARM leaves them on permanently.

use core::fmt;

/// The Hypervisor Configuration Register, `HCR_EL2`.
///
/// Only the bits the paper's analysis depends on are modelled; they use
/// their architected positions so the value reads like the real register.
///
/// # Examples
///
/// ```
/// use hvx_arch::HcrEl2;
/// let mut hcr = HcrEl2::new();
/// hcr.insert(HcrEl2::VM | HcrEl2::IMO | HcrEl2::FMO | HcrEl2::AMO);
/// assert!(hcr.contains(HcrEl2::VM));
/// assert!(!hcr.contains(HcrEl2::E2H));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct HcrEl2(u64);

impl HcrEl2 {
    /// Virtualization enable: Stage-2 translation for EL1/EL0.
    pub const VM: HcrEl2 = HcrEl2(1 << 0);
    /// Set/Way invalidation override.
    pub const SWIO: HcrEl2 = HcrEl2(1 << 1);
    /// Physical FIQ routing to EL2.
    pub const FMO: HcrEl2 = HcrEl2(1 << 3);
    /// Physical IRQ routing to EL2 ("all physical interrupts are taken to
    /// EL2 when running in a VM", §II).
    pub const IMO: HcrEl2 = HcrEl2(1 << 4);
    /// Physical SError routing to EL2.
    pub const AMO: HcrEl2 = HcrEl2(1 << 5);
    /// Virtual IRQ pending (legacy signalling; the GIC list registers are
    /// the mechanism actually modelled).
    pub const VI: HcrEl2 = HcrEl2(1 << 7);
    /// Trap WFI instructions to EL2.
    pub const TWI: HcrEl2 = HcrEl2(1 << 13);
    /// Trap WFE instructions to EL2.
    pub const TWE: HcrEl2 = HcrEl2(1 << 14);
    /// Trap general exceptions: EL0 exceptions route to EL2 (used with
    /// VHE so host userspace syscalls land in the EL2 host kernel, §VI).
    pub const TGE: HcrEl2 = HcrEl2(1 << 27);
    /// EL2 Host: the ARMv8.1 VHE bit. "VHE is provided through the
    /// addition of a new control bit, the E2H bit, which is set at system
    /// boot when installing a Type 2 hypervisor that uses VHE" (§VI).
    pub const E2H: HcrEl2 = HcrEl2(1 << 34);

    /// An all-clear HCR: virtualization disabled, "software running in EL1
    /// and EL0 works just like on a system without the virtualization
    /// extensions" (§II).
    pub const fn new() -> Self {
        HcrEl2(0)
    }

    /// The bit set a hypervisor programs while a VM runs: Stage-2 enabled,
    /// physical interrupts routed to EL2, WFI trapping on.
    pub const fn guest_running() -> Self {
        HcrEl2(Self::VM.0 | Self::SWIO.0 | Self::FMO.0 | Self::IMO.0 | Self::AMO.0 | Self::TWI.0)
    }

    /// Raw register value.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Builds from a raw value (unknown bits are preserved, as hardware
    /// would RES0/RES1 them; the model keeps them verbatim).
    pub const fn from_bits(bits: u64) -> Self {
        HcrEl2(bits)
    }

    /// Returns `true` if every bit of `flags` is set.
    pub const fn contains(self, flags: HcrEl2) -> bool {
        self.0 & flags.0 == flags.0
    }

    /// Sets the bits of `flags`.
    pub fn insert(&mut self, flags: HcrEl2) {
        self.0 |= flags.0;
    }

    /// Clears the bits of `flags`.
    pub fn remove(&mut self, flags: HcrEl2) {
        self.0 &= !flags.0;
    }

    /// Returns `true` if Stage-2 translation is enabled for EL1/EL0.
    pub const fn stage2_enabled(self) -> bool {
        self.contains(HcrEl2::VM)
    }

    /// Returns `true` if the host kernel runs in EL2 (VHE).
    pub const fn vhe_enabled(self) -> bool {
        self.contains(HcrEl2::E2H)
    }
}

impl core::ops::BitOr for HcrEl2 {
    type Output = HcrEl2;
    fn bitor(self, rhs: HcrEl2) -> HcrEl2 {
        HcrEl2(self.0 | rhs.0)
    }
}

impl fmt::Display for HcrEl2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HCR_EL2({:#x})", self.0)
    }
}

/// The remaining EL2 state the KVM ARM world switch moves: Table III's
/// "EL2 Config Regs" and "EL2 Virtual Memory Regs" rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct El2Regs {
    /// Hypervisor configuration (trap enables, Stage-2 enable, E2H).
    pub hcr_el2: HcrEl2,
    /// Trap control for coprocessor/FP accesses from lower ELs.
    pub cptr_el2: u64,
    /// Trap control for system register accesses from lower ELs.
    pub hstr_el2: u64,
    /// Counter-timer hypervisor control.
    pub cnthctl_el2: u64,
    /// Exception syndrome for exceptions taken to EL2.
    pub esr_el2: u64,
    /// Exception link register for EL2 (return address of a trap).
    pub elr_el2: u64,
    /// Saved program status for EL2 (pre-trap PSTATE + source EL).
    pub spsr_el2: u64,
    /// Fault address register for EL2.
    pub far_el2: u64,
    /// Hypervisor IPA fault address register (Stage-2 faults).
    pub hpfar_el2: u64,
    /// EL2 software thread ID.
    pub tpidr_el2: u64,
    /// EL2 stack pointer.
    pub sp_el2: u64,
    /// Vector base for EL2.
    pub vbar_el2: u64,
    /// Stage-2 translation table base (+ VMID in the top bits).
    pub vttbr_el2: u64,
    /// Stage-2 translation control.
    pub vtcr_el2: u64,
    /// EL2 stage-1 translation table base (lower range).
    pub ttbr0_el2: u64,
    /// EL2 stage-1 translation table base, upper range. **ARMv8.1 VHE
    /// only** — "with VHE, EL2 gets a second page table base register,
    /// TTBR1_EL2, making it possible to support split VA space in EL2"
    /// (§VI).
    pub ttbr1_el2: u64,
    /// EL2 stage-1 translation control.
    pub tcr_el2: u64,
    /// EL2 system control register.
    pub sctlr_el2: u64,
    /// EL2 memory attribute indirection.
    pub mair_el2: u64,
    /// EL2 vector/FP access control (VHE alias of CPACR).
    pub cpacr_el2: u64,
}

impl El2Regs {
    /// Fills every register with a value derived from `seed`.
    pub fn fill_pattern(seed: u64) -> Self {
        use crate::regs::mix;
        El2Regs {
            hcr_el2: HcrEl2::from_bits(mix(seed, 700)),
            cptr_el2: mix(seed, 701),
            hstr_el2: mix(seed, 702),
            cnthctl_el2: mix(seed, 703),
            esr_el2: mix(seed, 704),
            elr_el2: mix(seed, 705),
            spsr_el2: mix(seed, 706),
            far_el2: mix(seed, 707),
            hpfar_el2: mix(seed, 708),
            tpidr_el2: mix(seed, 709),
            sp_el2: mix(seed, 710),
            vbar_el2: mix(seed, 711),
            vttbr_el2: mix(seed, 712),
            vtcr_el2: mix(seed, 713),
            ttbr0_el2: mix(seed, 714),
            ttbr1_el2: mix(seed, 715),
            tcr_el2: mix(seed, 716),
            sctlr_el2: mix(seed, 717),
            mair_el2: mix(seed, 718),
            cpacr_el2: mix(seed, 719),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hcr_bit_positions_are_architected() {
        assert_eq!(HcrEl2::VM.bits(), 1);
        assert_eq!(HcrEl2::IMO.bits(), 1 << 4);
        assert_eq!(HcrEl2::TGE.bits(), 1 << 27);
        assert_eq!(HcrEl2::E2H.bits(), 1 << 34);
    }

    #[test]
    fn guest_running_enables_stage2_and_irq_routing() {
        let hcr = HcrEl2::guest_running();
        assert!(hcr.stage2_enabled());
        assert!(hcr.contains(HcrEl2::IMO));
        assert!(hcr.contains(HcrEl2::FMO));
        assert!(hcr.contains(HcrEl2::TWI));
        assert!(!hcr.vhe_enabled());
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut hcr = HcrEl2::new();
        hcr.insert(HcrEl2::VM | HcrEl2::E2H);
        assert!(hcr.contains(HcrEl2::VM));
        assert!(hcr.vhe_enabled());
        hcr.remove(HcrEl2::VM);
        assert!(!hcr.stage2_enabled());
        assert!(hcr.vhe_enabled());
    }

    #[test]
    fn contains_requires_all_bits() {
        let hcr = HcrEl2::VM;
        assert!(!hcr.contains(HcrEl2::VM | HcrEl2::IMO));
    }

    #[test]
    fn display_shows_hex() {
        assert_eq!(HcrEl2::VM.to_string(), "HCR_EL2(0x1)");
    }

    #[test]
    fn el2_pattern_differs_by_seed() {
        assert_ne!(El2Regs::fill_pattern(1), El2Regs::fill_pattern(2));
    }
}
