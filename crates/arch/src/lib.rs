//! # hvx-arch — architectural CPU models for the hvx simulator
//!
//! Functional (cost-free) models of the two hardware-virtualization
//! architectures compared by *"ARM Virtualization: Performance and
//! Architectural Implications"* (ISCA 2016):
//!
//! * **ARMv8** ([`ArmCpu`]): exception levels EL0/EL1/EL2, the register
//!   classes of the paper's Table III ([`GpRegs`], [`FpRegs`],
//!   [`El1SysRegs`], [`TimerRegs`], [`El2Regs`]), trap and ERET semantics
//!   ([`TrapCause`], [`Syndrome`]), and the ARMv8.1 **VHE** extension's
//!   `E2H` bit ([`HcrEl2::E2H`], [`ArmCpu::enable_vhe`]), which KVM reads
//!   to know whether its host kernel runs in EL2.
//! * **x86 VMX** ([`X86Cpu`]): root/non-root modes orthogonal to the
//!   privilege rings, with every transition bulk-moving state through an
//!   in-memory [`Vmcs`].
//!
//! The asymmetry between these two models — ARM banks hypervisor state in
//! hardware and lets software choose what else to switch, x86 switches
//! everything through memory on every transition — is the architectural
//! root of every result in the paper.
//!
//! Timing is deliberately absent here: `hvx-core` charges calibrated
//! cycle costs for these operations through `hvx-engine`.
//!
//! # Example
//!
//! ```
//! use hvx_arch::{ArchVersion, ArmCpu, ExceptionLevel, TrapCause, HcrEl2};
//!
//! // A guest kernel runs at EL1 with virtualization enabled ...
//! let mut cpu = ArmCpu::new(ArchVersion::V8_0);
//! cpu.el2.hcr_el2 = HcrEl2::guest_running();
//! cpu.start_at(ExceptionLevel::El1);
//!
//! // ... and a hypercall traps to EL2.
//! assert_eq!(cpu.take_exception(TrapCause::HYPERCALL), ExceptionLevel::El2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cpu;
mod el;
mod el2;
pub(crate) mod regs;
mod trap;
mod x86;

pub use cpu::{
    ArchVersion, ArmCpu, EretError, VheError, PSTATE_I, VECTOR_CURRENT_IRQ, VECTOR_CURRENT_SYNC,
    VECTOR_LOWER_IRQ, VECTOR_LOWER_SYNC,
};
pub use el::ExceptionLevel;
pub use el2::{El2Regs, HcrEl2};
pub use regs::{El1SysRegs, FpRegs, GpRegs, TimerRegs};
pub use trap::{Syndrome, TrapCause};
pub use x86::{ExitReason, Ring, Vmcs, VmcsControls, VmxError, VmxMode, X86Cpu, X86State};
