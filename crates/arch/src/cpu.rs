//! The ARMv8 CPU model: exception entry and return.
//!
//! [`ArmCpu`] is a *functional* model — it owns the register files of
//! [`crate::regs`]/[`crate::el2`] and implements the transition semantics
//! the paper's analysis is built on (trap to EL2, ERET, exception routing,
//! the VHE host's `E2H` bit). It deliberately charges no cycles: timing
//! lives in `hvx-core`'s cost model, so that correctness of the mechanism
//! and calibration of its cost are independently testable.

use crate::{
    El1SysRegs, El2Regs, ExceptionLevel, FpRegs, GpRegs, HcrEl2, Syndrome, TimerRegs, TrapCause,
};
use core::fmt;

/// Architecture revision of the modelled part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ArchVersion {
    /// ARMv8.0 — the paper's Applied Micro Atlas class hardware.
    V8_0,
    /// ARMv8.1 — adds the Virtualization Host Extensions (§VI).
    V8_1,
}

impl ArchVersion {
    /// Returns `true` if this revision implements VHE.
    pub fn has_vhe(self) -> bool {
        matches!(self, ArchVersion::V8_1)
    }
}

/// Error returned by [`ArmCpu::eret`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EretError {
    /// ERET executed at EL0, which has no exception-return state.
    EretFromEl0,
    /// The SPSR names a target at or above the current level — an illegal
    /// exception return.
    IllegalReturn {
        /// Level the ERET executed at.
        from: ExceptionLevel,
        /// Level the SPSR named.
        to: ExceptionLevel,
    },
}

impl fmt::Display for EretError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EretError::EretFromEl0 => write!(f, "ERET executed at EL0"),
            EretError::IllegalReturn { from, to } => {
                write!(f, "illegal exception return from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for EretError {}

/// Error returned by [`ArmCpu::enable_vhe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VheError {
    /// The part is ARMv8.0 and has no E2H bit.
    NotSupported,
    /// E2H may only be programmed from EL2.
    NotAtEl2,
}

impl fmt::Display for VheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VheError::NotSupported => write!(f, "VHE requires ARMv8.1"),
            VheError::NotAtEl2 => write!(f, "E2H can only be set from EL2"),
        }
    }
}

impl std::error::Error for VheError {}

/// PSTATE.I — the IRQ mask bit.
pub const PSTATE_I: u64 = 1 << 7;

/// PSTATE `M[3:0]` mode encoding for an exception level (handler-SP forms).
fn mode_bits(el: ExceptionLevel) -> u64 {
    match el {
        ExceptionLevel::El0 => 0b0000, // EL0t
        ExceptionLevel::El1 => 0b0101, // EL1h
        ExceptionLevel::El2 => 0b1001, // EL2h
    }
}

/// Decodes the target EL from SPSR `M[3:0]`.
fn el_of_mode(m: u64) -> ExceptionLevel {
    match m & 0b1100 {
        0b0000 => ExceptionLevel::El0,
        0b0100 => ExceptionLevel::El1,
        _ => ExceptionLevel::El2,
    }
}

/// Vector-table offset for a synchronous exception from a lower EL.
pub const VECTOR_LOWER_SYNC: u64 = 0x400;
/// Vector-table offset for an IRQ from a lower EL.
pub const VECTOR_LOWER_IRQ: u64 = 0x480;
/// Vector-table offset for a synchronous exception from the current EL.
pub const VECTOR_CURRENT_SYNC: u64 = 0x200;
/// Vector-table offset for an IRQ from the current EL.
pub const VECTOR_CURRENT_IRQ: u64 = 0x280;

/// A functional ARMv8-A CPU with virtualization extensions.
///
/// # Examples
///
/// A hypercall round trip:
///
/// ```
/// use hvx_arch::{ArchVersion, ArmCpu, ExceptionLevel, TrapCause};
///
/// let mut cpu = ArmCpu::new(ArchVersion::V8_0);
/// cpu.start_at(ExceptionLevel::El1); // guest kernel running
/// let taken_to = cpu.take_exception(TrapCause::HYPERCALL);
/// assert_eq!(taken_to, ExceptionLevel::El2);
/// assert_eq!(cpu.current_el(), ExceptionLevel::El2);
/// let back = cpu.eret().unwrap();
/// assert_eq!(back, ExceptionLevel::El1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmCpu {
    /// General-purpose registers.
    pub gp: GpRegs,
    /// SIMD/FP registers.
    pub fp: FpRegs,
    /// EL1 system registers.
    pub el1: El1SysRegs,
    /// EL2 system and control registers.
    pub el2: El2Regs,
    /// Virtual timer registers.
    pub timer: TimerRegs,
    current_el: ExceptionLevel,
    version: ArchVersion,
}

impl ArmCpu {
    /// Creates a CPU booted at EL2 (where ARMv8 server firmware hands off)
    /// with all registers zeroed and virtualization features disabled.
    pub fn new(version: ArchVersion) -> Self {
        let mut cpu = ArmCpu {
            gp: GpRegs::default(),
            fp: FpRegs::default(),
            el1: El1SysRegs::default(),
            el2: El2Regs::default(),
            timer: TimerRegs::default(),
            current_el: ExceptionLevel::El2,
            version,
        };
        cpu.gp.pstate = mode_bits(ExceptionLevel::El2);
        cpu
    }

    /// The architecture revision.
    pub fn version(&self) -> ArchVersion {
        self.version
    }

    /// The exception level currently executing.
    pub fn current_el(&self) -> ExceptionLevel {
        self.current_el
    }

    /// Returns `true` if `HCR_EL2.E2H` is set.
    pub fn e2h(&self) -> bool {
        self.el2.hcr_el2.vhe_enabled()
    }

    /// Places execution at `el`, modelling boot-time hand-off (firmware
    /// dropping into a kernel, or a hypervisor model installing a guest
    /// context). PSTATE mode bits are kept consistent.
    pub fn start_at(&mut self, el: ExceptionLevel) {
        self.current_el = el;
        self.gp.pstate = (self.gp.pstate & !0xF) | mode_bits(el);
    }

    /// Sets `HCR_EL2.E2H`, turning the part into a VHE host (§VI).
    ///
    /// # Errors
    ///
    /// [`VheError::NotSupported`] on ARMv8.0; [`VheError::NotAtEl2`] if not
    /// executing at EL2.
    pub fn enable_vhe(&mut self) -> Result<(), VheError> {
        if !self.version.has_vhe() {
            return Err(VheError::NotSupported);
        }
        if self.current_el != ExceptionLevel::El2 {
            return Err(VheError::NotAtEl2);
        }
        self.el2.hcr_el2.insert(HcrEl2::E2H);
        Ok(())
    }

    /// Computes where an exception raised at the current level routes,
    /// without taking it.
    ///
    /// Routing rules modelled (ARM ARM D1.13, restricted to the causes the
    /// models raise):
    ///
    /// * `HVC` and Stage-2 data aborts always target EL2.
    /// * A physical IRQ targets EL2 iff `HCR_EL2.IMO` is set and execution
    ///   is below EL2 (or at EL2 already — then handled there); otherwise
    ///   EL1.
    pub fn route_exception(&self, cause: TrapCause) -> ExceptionLevel {
        match cause {
            TrapCause::Sync(_) => ExceptionLevel::El2,
            TrapCause::Irq => {
                if self.el2.hcr_el2.contains(HcrEl2::IMO) || self.current_el == ExceptionLevel::El2
                {
                    ExceptionLevel::El2
                } else {
                    ExceptionLevel::El1
                }
            }
        }
    }

    /// Takes an exception: saves return state into the target level's
    /// `ELR`/`SPSR`/`ESR`/`FAR`, switches to the target level, and vectors
    /// the PC. Returns the level the exception was taken to.
    ///
    /// # Panics
    ///
    /// Panics if the exception would route to a level below the current
    /// one (architecturally impossible).
    pub fn take_exception(&mut self, cause: TrapCause) -> ExceptionLevel {
        let target = self.route_exception(cause);
        assert!(
            target.is_at_least(self.current_el),
            "exception cannot route downward ({} -> {})",
            self.current_el,
            target
        );
        let ret_pc = self.gp.pc;
        let ret_pstate = self.gp.pstate;
        let from_lower = target > self.current_el;
        let sync = matches!(cause, TrapCause::Sync(_));
        let offset = match (from_lower, sync) {
            (true, true) => VECTOR_LOWER_SYNC,
            (true, false) => VECTOR_LOWER_IRQ,
            (false, true) => VECTOR_CURRENT_SYNC,
            (false, false) => VECTOR_CURRENT_IRQ,
        };
        match target {
            ExceptionLevel::El2 => {
                self.el2.elr_el2 = ret_pc;
                self.el2.spsr_el2 = ret_pstate;
                if let TrapCause::Sync(s) = cause {
                    self.el2.esr_el2 = s.encode();
                    self.el2.far_el2 = 0;
                    if let Syndrome::DataAbort { ipa, .. } = s {
                        self.el2.far_el2 = ipa;
                        self.el2.hpfar_el2 = ipa >> 8; // architected: IPA[47:12] in HPFAR[39:4]
                    }
                }
                self.gp.pc = self.el2.vbar_el2.wrapping_add(offset);
            }
            ExceptionLevel::El1 => {
                // Only an IRQ with `HCR_EL2.IMO` clear lands here, and an
                // IRQ carries no syndrome.
                self.el1.elr_el1 = ret_pc;
                self.el1.spsr_el1 = ret_pstate;
                self.gp.pc = self.el1.vbar_el1.wrapping_add(offset);
            }
            ExceptionLevel::El0 => unreachable!("exceptions never target EL0"),
        }
        self.current_el = target;
        // Hardware masks IRQs and switches the mode bits on entry; the
        // pre-exception PSTATE (with its own I bit) sits in the SPSR.
        self.gp.pstate = (self.gp.pstate & !0xF) | mode_bits(target) | PSTATE_I;
        target
    }

    /// Executes `ERET`: restores PC and PSTATE from the current level's
    /// `ELR`/`SPSR` and drops to the level the SPSR names.
    ///
    /// # Errors
    ///
    /// [`EretError`] if executed at EL0 or if the SPSR names a level at or
    /// above the current one.
    pub fn eret(&mut self) -> Result<ExceptionLevel, EretError> {
        let (elr, spsr) = match self.current_el {
            ExceptionLevel::El2 => (self.el2.elr_el2, self.el2.spsr_el2),
            ExceptionLevel::El1 => (self.el1.elr_el1, self.el1.spsr_el1),
            ExceptionLevel::El0 => return Err(EretError::EretFromEl0),
        };
        let target = el_of_mode(spsr & 0xF);
        if target >= self.current_el {
            return Err(EretError::IllegalReturn {
                from: self.current_el,
                to: target,
            });
        }
        self.gp.pc = elr;
        self.gp.pstate = spsr;
        self.current_el = target;
        Ok(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExceptionLevel::*;

    fn guest_cpu() -> ArmCpu {
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        cpu.el2.hcr_el2 = HcrEl2::guest_running();
        cpu.el2.vbar_el2 = 0x8000_0000;
        cpu.el1.vbar_el1 = 0x4000_0000;
        cpu.start_at(El1);
        cpu
    }

    #[test]
    fn boots_at_el2() {
        let cpu = ArmCpu::new(ArchVersion::V8_0);
        assert_eq!(cpu.current_el(), El2);
        assert!(!cpu.e2h());
    }

    #[test]
    fn hypercall_traps_to_el2_and_saves_return_state() {
        let mut cpu = guest_cpu();
        cpu.gp.pc = 0x1234;
        let target = cpu.take_exception(TrapCause::HYPERCALL);
        assert_eq!(target, El2);
        assert_eq!(cpu.el2.elr_el2, 0x1234);
        assert_eq!(Syndrome::class_of(cpu.el2.esr_el2), 0x16);
        assert_eq!(cpu.gp.pc, 0x8000_0000 + VECTOR_LOWER_SYNC);
        // SPSR remembers the interrupted mode (EL1h).
        assert_eq!(cpu.el2.spsr_el2 & 0xF, 0b0101);
    }

    #[test]
    fn eret_returns_to_interrupted_context() {
        let mut cpu = guest_cpu();
        cpu.gp.pc = 0xCAFE;
        cpu.take_exception(TrapCause::HYPERCALL);
        let back = cpu.eret().unwrap();
        assert_eq!(back, El1);
        assert_eq!(cpu.current_el(), El1);
        assert_eq!(cpu.gp.pc, 0xCAFE);
    }

    #[test]
    fn irq_routes_to_el2_when_imo_set() {
        let mut cpu = guest_cpu();
        assert_eq!(cpu.route_exception(TrapCause::Irq), El2);
        let t = cpu.take_exception(TrapCause::Irq);
        assert_eq!(t, El2);
        assert_eq!(cpu.gp.pc, 0x8000_0000 + VECTOR_LOWER_IRQ);
    }

    #[test]
    fn irq_routes_to_el1_when_virtualization_disabled() {
        let mut cpu = guest_cpu();
        cpu.el2.hcr_el2 = HcrEl2::new(); // host running, traps disabled
        assert_eq!(cpu.route_exception(TrapCause::Irq), El1);
        cpu.take_exception(TrapCause::Irq);
        assert_eq!(cpu.current_el(), El1);
        assert_eq!(cpu.gp.pc, 0x4000_0000 + VECTOR_CURRENT_IRQ);
    }

    #[test]
    fn stage2_abort_records_ipa_in_hpfar() {
        let mut cpu = guest_cpu();
        cpu.take_exception(TrapCause::Sync(Syndrome::DataAbort {
            ipa: 0x0800_1000,
            write: true,
        }));
        assert_eq!(cpu.el2.far_el2, 0x0800_1000);
        assert_eq!(cpu.el2.hpfar_el2, 0x0800_1000 >> 8);
    }

    #[test]
    fn eret_from_el0_is_an_error() {
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        cpu.start_at(El0);
        assert_eq!(cpu.eret(), Err(EretError::EretFromEl0));
    }

    #[test]
    fn illegal_return_to_same_or_higher_level() {
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        cpu.el2.spsr_el2 = 0b1001; // names EL2h
        assert_eq!(
            cpu.eret(),
            Err(EretError::IllegalReturn { from: El2, to: El2 })
        );
    }

    #[test]
    fn enable_vhe_requires_v8_1_and_el2() {
        let mut v80 = ArmCpu::new(ArchVersion::V8_0);
        assert_eq!(v80.enable_vhe(), Err(VheError::NotSupported));
        let mut v81 = ArmCpu::new(ArchVersion::V8_1);
        v81.start_at(El1);
        assert_eq!(v81.enable_vhe(), Err(VheError::NotAtEl2));
        v81.start_at(El2);
        assert!(v81.enable_vhe().is_ok());
        assert!(v81.e2h());
    }

    #[test]
    fn nested_trap_and_return_preserves_pstate_mode() {
        let mut cpu = guest_cpu();
        cpu.start_at(El0);
        assert_eq!(cpu.gp.pstate & 0xF, 0b0000);
        cpu.el2.hcr_el2 = HcrEl2::new(); // IRQs handled by the kernel
        cpu.take_exception(TrapCause::Irq);
        assert_eq!(cpu.current_el(), El1);
        assert_eq!(cpu.gp.pstate & 0xF, 0b0101);
        cpu.eret().unwrap();
        assert_eq!(cpu.current_el(), El0);
        assert_eq!(cpu.gp.pstate & 0xF, 0b0000);
    }

    #[test]
    fn exception_entry_masks_irqs_and_eret_restores_the_mask() {
        let mut cpu = guest_cpu();
        assert_eq!(cpu.gp.pstate & PSTATE_I, 0);
        cpu.take_exception(TrapCause::HYPERCALL);
        assert_ne!(
            cpu.gp.pstate & PSTATE_I,
            0,
            "hardware sets PSTATE.I on entry"
        );
        cpu.eret().unwrap();
        assert_eq!(cpu.gp.pstate & PSTATE_I, 0, "SPSR restore clears it");
    }

    #[test]
    fn exception_from_el2_to_el2_uses_current_vectors() {
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        cpu.el2.vbar_el2 = 0x9000_0000;
        cpu.take_exception(TrapCause::Irq);
        assert_eq!(cpu.current_el(), El2);
        assert_eq!(cpu.gp.pc, 0x9000_0000 + VECTOR_CURRENT_IRQ);
    }
}
