//! # hvx-gic — interrupt-controller models for the hvx simulator
//!
//! The ARM Generic Interrupt Controller with its virtualization
//! extensions, and the x86 local-APIC analog, as required by the
//! interrupt-centric results of *"ARM Virtualization: Performance and
//! Architectural Implications"* (ISCA 2016):
//!
//! * [`Distributor`] — a GICv2 distributor with banked private interrupts,
//!   priority-ordered acknowledge/complete, SPI targeting (single-CPU by
//!   default, as in the paper's Apache/Memcached bottleneck analysis), and
//!   the MMIO register interface hypervisors emulate;
//! * [`VgicCpuInterface`] — per-VCPU list registers: hypervisor-side
//!   injection, guest-side acknowledge/complete **without trapping**
//!   (Table II's 71-cycle Virtual IRQ Completion), and the
//!   [`VgicSnapshot`] save/restore that dominates KVM ARM's transition
//!   cost (Table III's 3,250-cycle VGIC save);
//! * [`Lapic`] — request/in-service vector tracking with trapping EOI
//!   (pre-vAPIC x86) or hardware vAPIC.
//!
//! Like `hvx-arch`, this crate is purely functional; cycle costs are
//! charged by `hvx-core`'s calibrated cost model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod distributor;
mod irq;
mod lapic;
mod vgic;

pub use distributor::{dist_reg, Distributor, GicError, MmioEffect, SgiFilter, SgiTargets};
pub use irq::IntId;
pub use lapic::{Lapic, LapicEffect, LapicError};
pub use vgic::{
    ListRegister, LrState, VgicCpuInterface, VgicError, VgicSnapshot, GICH_HCR_EN, NUM_LRS,
};
