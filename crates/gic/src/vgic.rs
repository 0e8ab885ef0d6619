//! The GIC virtual CPU interface: list registers and no-trap completion.
//!
//! ARM's interrupt-virtualization extensions "allow a hypervisor to
//! program the GIC to inject virtual interrupts to VMs, which VMs can
//! acknowledge and complete without trapping to the hypervisor" (§II).
//! The mechanism is a small set of per-VCPU **list registers** plus
//! control state (`GICH_HCR`, `GICH_VMCR`, `GICH_APR`) that the
//! hypervisor programs from EL2.
//!
//! Two of the paper's headline numbers live here:
//!
//! * **Virtual IRQ Completion = 71 cycles on ARM, ~1,500 on x86**
//!   (Table II): [`VgicCpuInterface::guest_eoi`] works entirely in guest
//!   context, while the pre-vAPIC x86 path must trap for every EOI.
//! * **VGIC save = 3,250 cycles** (Table III): because the virtual
//!   interface is accessible only from EL2, KVM ARM reads all of it back
//!   to memory on *every* VM→hypervisor transition; [`VgicCpuInterface::save`]
//!   produces exactly the [`VgicSnapshot`] that world switch moves.

use core::fmt;

/// Number of list registers per virtual CPU interface (GIC-400 has 4).
pub const NUM_LRS: usize = 4;

/// State of one list register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum LrState {
    /// Empty / available for injection.
    #[default]
    Invalid,
    /// A virtual interrupt is pending delivery to the guest.
    Pending,
    /// The guest acknowledged it and is handling it.
    Active,
    /// Re-raised while still being handled.
    PendingActive,
}

/// One list register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ListRegister {
    /// The virtual INTID presented to the guest.
    pub virq: u32,
    /// Occupancy state.
    pub state: LrState,
    /// Virtual priority.
    pub priority: u8,
}

/// The register state of one virtual CPU interface — the "VGIC Regs" row
/// of Table III. KVM ARM copies this to/from memory on every transition;
/// Xen ARM only on VM switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct VgicSnapshot {
    /// `GICH_HCR` — virtual interface control (global enable).
    pub hcr: u32,
    /// `GICH_VMCR` — the guest's view of its CPU-interface controls
    /// (priority mask, binary point, group enables).
    pub vmcr: u32,
    /// `GICH_APR` — active priorities.
    pub apr: u32,
    /// The list registers.
    pub lrs: [ListRegister; NUM_LRS],
}

/// Errors from virtual-interface operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VgicError {
    /// All list registers are occupied; nothing was injected.
    NoFreeLr {
        /// The virtual INTID that could not be injected.
        virq: u32,
    },
    /// The guest completed an interrupt no list register holds active.
    NotActive {
        /// The offending virtual INTID.
        virq: u32,
    },
    /// The same virtual INTID is already in a list register (the GIC
    /// forbids double-listing; re-raise flips Active → PendingActive via
    /// [`VgicCpuInterface::inject`]).
    AlreadyListed {
        /// The duplicated INTID.
        virq: u32,
    },
}

impl fmt::Display for VgicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VgicError::NoFreeLr { virq } => write!(f, "no free list register for vIRQ {virq}"),
            VgicError::NotActive { virq } => write!(f, "vIRQ {virq} is not active"),
            VgicError::AlreadyListed { virq } => {
                write!(f, "vIRQ {virq} already in a list register")
            }
        }
    }
}

impl std::error::Error for VgicError {}

/// `GICH_HCR` global-enable bit.
pub const GICH_HCR_EN: u32 = 1 << 0;

/// One VCPU's virtual CPU interface.
///
/// # Examples
///
/// Inject → guest acknowledge → guest complete, with no hypervisor
/// involvement after injection:
///
/// ```
/// use hvx_gic::VgicCpuInterface;
///
/// let mut vgic = VgicCpuInterface::new();
/// vgic.inject(27, 0x80).unwrap(); // virtual timer
/// assert_eq!(vgic.guest_ack(), Some(27));
/// vgic.guest_eoi(27).unwrap(); // completes WITHOUT trapping
/// assert!(vgic.is_idle());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VgicCpuInterface {
    regs: VgicSnapshot,
    /// Lifetime count of successful injections.
    injected: u64,
    /// Lifetime count of guest completions ([`VgicCpuInterface::guest_eoi`]).
    completed: u64,
    /// Most recently injected vIRQ — the correlation point the causal
    /// event tracer links a flow's `virq:inject` hop against.
    last_injected: Option<u32>,
}

impl VgicCpuInterface {
    /// Creates an enabled virtual interface with empty list registers.
    pub fn new() -> Self {
        VgicCpuInterface {
            regs: VgicSnapshot {
                hcr: GICH_HCR_EN,
                ..VgicSnapshot::default()
            },
            injected: 0,
            completed: 0,
            last_injected: None,
        }
    }

    /// The vIRQ most recently passed to [`VgicCpuInterface::inject`]
    /// (directly or absorbed from a scratch interface), if any. Event
    /// tracers use this to confirm a flow's injection hop refers to the
    /// interrupt the chain was opened for.
    pub fn last_injected(&self) -> Option<u32> {
        self.last_injected
    }

    /// Lifetime number of virtual interrupts injected through this
    /// interface. Sampled by the observability layer's metrics registry.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// Lifetime number of trap-free guest completions — the events whose
    /// 71-cycle cost (Table II) motivates the paper's vGIC analysis.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Folds another interface's lifetime counters into this one.
    ///
    /// Split-mode KVM injects into a *scratch* interface holding a
    /// switched-out VCPU's saved memory image ([`Self::restore`] /
    /// [`Self::save`] round trip); the scratch's counters must be
    /// absorbed by the VCPU's live interface or the injection would be
    /// invisible to the metrics registry.
    pub fn absorb_counters(&mut self, scratch: &VgicCpuInterface) {
        self.injected += scratch.injected;
        self.completed += scratch.completed;
        if scratch.last_injected.is_some() {
            self.last_injected = scratch.last_injected;
        }
    }

    /// Hypervisor-side: injects virtual interrupt `virq` with `priority`.
    /// Finds a free list register; if the interrupt is already listed
    /// Active it becomes PendingActive.
    ///
    /// # Errors
    ///
    /// [`VgicError::NoFreeLr`] when all list registers are occupied (the
    /// interrupt is not injected);
    /// [`VgicError::AlreadyListed`] when `virq` is already Pending.
    #[inline]
    pub fn inject(&mut self, virq: u32, priority: u8) -> Result<usize, VgicError> {
        // Re-raise of an interrupt the guest is handling.
        for (i, lr) in self.regs.lrs.iter_mut().enumerate() {
            if lr.virq == virq && lr.state != LrState::Invalid {
                return match lr.state {
                    LrState::Active => {
                        lr.state = LrState::PendingActive;
                        self.injected += 1;
                        self.last_injected = Some(virq);
                        Ok(i)
                    }
                    _ => Err(VgicError::AlreadyListed { virq }),
                };
            }
        }
        for (i, lr) in self.regs.lrs.iter_mut().enumerate() {
            if lr.state == LrState::Invalid {
                *lr = ListRegister {
                    virq,
                    state: LrState::Pending,
                    priority,
                };
                self.injected += 1;
                self.last_injected = Some(virq);
                return Ok(i);
            }
        }
        Err(VgicError::NoFreeLr { virq })
    }

    /// Guest-side: highest-priority pending virtual interrupt, if any —
    /// what the VCPU sees asserted.
    #[inline]
    pub fn pending_virq(&self) -> Option<u32> {
        if self.regs.hcr & GICH_HCR_EN == 0 {
            return None;
        }
        self.regs
            .lrs
            .iter()
            .filter(|lr| matches!(lr.state, LrState::Pending | LrState::PendingActive))
            .min_by_key(|lr| (lr.priority, lr.virq))
            .map(|lr| lr.virq)
    }

    /// Guest-side acknowledge (read of virtual `GICC_IAR`): takes the
    /// highest pending virtual interrupt, marking it active. **No trap.**
    #[inline]
    pub fn guest_ack(&mut self) -> Option<u32> {
        let virq = self.pending_virq()?;
        let lr = self
            .regs
            .lrs
            .iter_mut()
            .find(|lr| {
                lr.virq == virq && matches!(lr.state, LrState::Pending | LrState::PendingActive)
            })
            .expect("pending_virq returned a listed interrupt");
        lr.state = match lr.state {
            LrState::Pending => LrState::Active,
            LrState::PendingActive => LrState::Active, // ack consumes the pend
            s => s,
        };
        Some(virq)
    }

    /// Guest-side completion (write of virtual `GICC_EOIR`): deactivates
    /// an acknowledged virtual interrupt. **No trap** — this is the
    /// 71-cycle row of Table II. An interrupt re-raised while the guest
    /// handled it (PendingActive) deactivates to Pending, as GICv2 does,
    /// and the guest's next ack takes it again.
    ///
    /// # Errors
    ///
    /// [`VgicError::NotActive`] if `virq` is not active in any LR.
    #[inline]
    pub fn guest_eoi(&mut self, virq: u32) -> Result<(), VgicError> {
        let lr = self
            .regs
            .lrs
            .iter_mut()
            .find(|lr| {
                lr.virq == virq && matches!(lr.state, LrState::Active | LrState::PendingActive)
            })
            .ok_or(VgicError::NotActive { virq })?;
        if lr.state == LrState::PendingActive {
            lr.state = LrState::Pending;
        } else {
            *lr = ListRegister::default();
        }
        self.completed += 1;
        Ok(())
    }

    /// Number of occupied list registers.
    pub fn occupied(&self) -> usize {
        self.regs
            .lrs
            .iter()
            .filter(|lr| lr.state != LrState::Invalid)
            .count()
    }

    /// `GICH_ELRSR`: bitmask of *empty* list registers.
    pub fn elrsr(&self) -> u32 {
        let mut v = 0;
        for (i, lr) in self.regs.lrs.iter().enumerate() {
            if lr.state == LrState::Invalid {
                v |= 1 << i;
            }
        }
        v
    }

    /// Returns `true` if no virtual interrupts are listed.
    pub fn is_idle(&self) -> bool {
        self.occupied() == 0
    }

    /// Hypervisor-side (EL2 only on real hardware): reads the full
    /// register state out — the expensive operation KVM ARM performs on
    /// every VM→hypervisor transition (Table III: 3,250 cycles).
    pub fn save(&self) -> VgicSnapshot {
        self.regs
    }

    /// Hypervisor-side: writes register state back (Table III: 181
    /// cycles — much cheaper than the save, which is why the paper notes
    /// saving "is much more expensive than restoring").
    pub fn restore(&mut self, snapshot: VgicSnapshot) {
        self.regs = snapshot;
    }

    /// Direct access to the registers, for assertions and emulation.
    pub fn regs(&self) -> &VgicSnapshot {
        &self.regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_ack_eoi_without_hypervisor() {
        let mut v = VgicCpuInterface::new();
        let lr = v.inject(crate::IntId::spi(43).raw(), 0x80).unwrap();
        assert_eq!(lr, 0);
        assert_eq!(v.pending_virq(), Some(75));
        assert_eq!(v.guest_ack(), Some(75));
        assert_eq!(v.pending_virq(), None, "active, not pending");
        v.guest_eoi(75).unwrap();
        assert!(v.is_idle());
    }

    #[test]
    fn priority_selects_among_pending() {
        let mut v = VgicCpuInterface::new();
        v.inject(100, 0xA0).unwrap();
        v.inject(101, 0x10).unwrap();
        v.inject(102, 0x10).unwrap();
        assert_eq!(v.guest_ack(), Some(101), "priority then INTID");
        assert_eq!(v.guest_ack(), Some(102));
        assert_eq!(v.guest_ack(), Some(100));
    }

    #[test]
    fn lr_exhaustion_refuses_the_injection() {
        let mut v = VgicCpuInterface::new();
        for i in 0..NUM_LRS as u32 {
            v.inject(100 + i, 0x80).unwrap();
        }
        let err = v.inject(200, 0x80).unwrap_err();
        assert_eq!(err, VgicError::NoFreeLr { virq: 200 });
        assert_eq!(v.occupied(), NUM_LRS);
        assert_eq!(
            v.injected_count(),
            NUM_LRS as u64,
            "a refusal is not counted"
        );
        // Once the guest completes one, the LR is free again.
        v.guest_ack().unwrap();
        v.guest_eoi(100).unwrap();
        assert_eq!(v.inject(200, 0x80), Ok(0));
    }

    #[test]
    fn reraise_while_active_becomes_pending_active() {
        let mut v = VgicCpuInterface::new();
        v.inject(27, 0x80).unwrap();
        v.guest_ack().unwrap();
        v.inject(27, 0x80).unwrap(); // timer fires again mid-handler
        assert_eq!(v.regs().lrs[0].state, LrState::PendingActive);
        // Ack the new pend, then both EOIs.
        assert_eq!(v.guest_ack(), Some(27));
        v.guest_eoi(27).unwrap();
        assert!(v.is_idle());
    }

    #[test]
    fn double_pending_injection_rejected() {
        let mut v = VgicCpuInterface::new();
        v.inject(27, 0x80).unwrap();
        assert_eq!(
            v.inject(27, 0x80),
            Err(VgicError::AlreadyListed { virq: 27 })
        );
    }

    #[test]
    fn eoi_of_unacked_irq_is_error() {
        let mut v = VgicCpuInterface::new();
        v.inject(27, 0x80).unwrap();
        assert_eq!(v.guest_eoi(27), Err(VgicError::NotActive { virq: 27 }));
    }

    #[test]
    fn eoi_of_a_reraised_virq_leaves_it_pending() {
        let mut v = VgicCpuInterface::new();
        v.inject(27, 0x80).unwrap();
        v.guest_ack().unwrap();
        v.inject(27, 0x80).unwrap(); // re-raised before the guest's EOI
        v.guest_eoi(27).unwrap();
        assert_eq!(v.regs().lrs[0].state, LrState::Pending);
        assert_eq!(v.pending_virq(), Some(27));
        assert_eq!(v.guest_ack(), Some(27));
        v.guest_eoi(27).unwrap();
        assert!(v.is_idle());
        assert_eq!(v.completed_count(), 2);
    }

    #[test]
    fn save_restore_round_trips_bit_identically() {
        let mut v = VgicCpuInterface::new();
        v.inject(27, 0x10).unwrap();
        v.inject(75, 0x80).unwrap();
        v.guest_ack().unwrap();
        let snap = v.save();
        let mut other = VgicCpuInterface::new();
        other.restore(snap);
        assert_eq!(other.regs(), v.regs());
        assert_eq!(other.save(), snap);
    }

    #[test]
    fn lifetime_counters_track_inject_and_eoi() {
        let mut v = VgicCpuInterface::new();
        for i in 0..NUM_LRS as u32 {
            v.inject(100 + i, 0x80).unwrap();
        }
        assert_eq!(v.injected_count(), NUM_LRS as u64);
        v.guest_ack().unwrap();
        v.guest_eoi(100).unwrap();
        assert_eq!(v.completed_count(), 1);
        assert_eq!(v.guest_eoi(100), Err(VgicError::NotActive { virq: 100 }));
        assert_eq!(v.completed_count(), 1, "failed EOI is not counted");
    }

    #[test]
    fn elrsr_tracks_free_lrs() {
        let mut v = VgicCpuInterface::new();
        assert_eq!(v.elrsr(), 0b1111);
        v.inject(1, 0).unwrap();
        v.inject(2, 0).unwrap();
        assert_eq!(v.elrsr(), 0b1100);
    }

    #[test]
    fn disabled_interface_presents_nothing() {
        let mut v = VgicCpuInterface::new();
        v.inject(27, 0x80).unwrap();
        let mut snap = v.save();
        snap.hcr &= !GICH_HCR_EN;
        v.restore(snap);
        assert_eq!(v.pending_virq(), None);
        assert_eq!(v.guest_ack(), None);
    }
}
