//! The GICv2 distributor and (physical) CPU interface.
//!
//! One [`Distributor`] instance plays two roles in hvx, exactly as one
//! hardware block design does in the real systems:
//!
//! * the machine's *physical* GIC, operated by the hypervisor; and
//! * each VM's *emulated* distributor — "Xen ARM emulates the ARM GIC
//!   interrupt controller directly in the hypervisor running in EL2 ...
//!   KVM ARM emulates the GIC in the part of the hypervisor running in
//!   EL1" (§IV). Guest MMIO accesses arrive via Stage-2 aborts and are
//!   fed to [`Distributor::mmio_write`] / [`Distributor::mmio_read`].
//!
//! The per-CPU acknowledge/complete flow (GICC_IAR / GICC_EOIR) is folded
//! into the distributor as [`Distributor::acknowledge`] and
//! [`Distributor::complete`]; the *virtual* CPU interface with its list
//! registers lives in [`crate::VgicCpuInterface`].

use crate::IntId;
use core::fmt;

/// Per-interrupt bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
struct IrqState {
    enabled: bool,
    pending: bool,
    active: bool,
    priority: u8,
}

/// Result of a guest (or host) write to the distributor's MMIO space:
/// side effects the caller — a hypervisor — must carry out on the
/// simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmioEffect {
    /// SGIs that became pending on other CPUs and require a physical IPI
    /// (or, for an emulated distributor, a virtual-IPI injection) to each
    /// listed `(cpu, sgi)` pair.
    pub sgi_targets: SgiTargets,
}

/// The `(cpu, sgi)` pairs one `GICD_SGIR` write made pending: a single
/// SGI id and a mask of its target CPUs. GICv2 caps a distributor at
/// eight CPUs, so the fan-out fits in a byte and sending an SGI
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SgiTargets {
    sgi: u8,
    cpus: u8,
}

impl SgiTargets {
    /// Number of target CPUs.
    pub fn len(self) -> usize {
        self.cpus.count_ones() as usize
    }

    /// `true` when the write made nothing pending.
    pub fn is_empty(self) -> bool {
        self.cpus == 0
    }

    /// The `(cpu, sgi)` pairs in ascending CPU order.
    pub fn iter(self) -> impl Iterator<Item = (usize, IntId)> {
        let sgi = IntId::sgi(u32::from(self.sgi));
        (0..8)
            .filter(move |cpu| self.cpus & (1 << cpu) != 0)
            .map(move |cpu| (cpu, sgi))
    }

    fn add(&mut self, cpu: usize, sgi: IntId) {
        self.sgi = sgi.raw() as u8;
        self.cpus |= 1 << cpu;
    }
}

/// Errors from distributor operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GicError {
    /// CPU index out of range for this distributor.
    BadCpu {
        /// The offending index.
        cpu: usize,
    },
    /// INTID beyond the configured SPI count.
    BadIntId {
        /// The offending INTID.
        intid: IntId,
    },
    /// Completion of an interrupt that was not active on that CPU.
    NotActive {
        /// The offending INTID.
        intid: IntId,
    },
}

impl fmt::Display for GicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GicError::BadCpu { cpu } => write!(f, "cpu index {cpu} out of range"),
            GicError::BadIntId { intid } => write!(f, "{intid} out of range"),
            GicError::NotActive { intid } => write!(f, "{intid} is not active"),
        }
    }
}

impl std::error::Error for GicError {}

/// `GICD_SGIR` target-list filter (GICv2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgiFilter {
    /// Deliver to the CPUs named in the target-list mask.
    TargetList,
    /// Deliver to every CPU except the requester (Linux's
    /// `smp_cross_call` broadcast).
    AllOthers,
    /// Deliver to the requesting CPU only.
    SelfOnly,
}

impl SgiFilter {
    /// Encodes the filter into the model's `GICD_SGIR` layout
    /// (bits \[29:28\]).
    pub fn encode(self) -> u64 {
        match self {
            SgiFilter::TargetList => 0,
            SgiFilter::AllOthers => 1 << 28,
            SgiFilter::SelfOnly => 2 << 28,
        }
    }
}

/// MMIO register offsets (GICv2 memory map, word-granular subset).
pub mod dist_reg {
    /// Distributor control register.
    pub const GICD_CTLR: u64 = 0x000;
    /// Interrupt set-enable registers (1 bit per INTID).
    pub const GICD_ISENABLER: u64 = 0x100;
    /// Interrupt clear-enable registers.
    pub const GICD_ICENABLER: u64 = 0x180;
    /// Interrupt set-pending registers.
    pub const GICD_ISPENDR: u64 = 0x200;
    /// Interrupt priority registers (1 byte per INTID).
    pub const GICD_IPRIORITYR: u64 = 0x400;
    /// Interrupt target registers (1 byte per INTID, SPIs only).
    pub const GICD_ITARGETSR: u64 = 0x800;
    /// Software-generated interrupt register: writing sends IPIs.
    pub const GICD_SGIR: u64 = 0xF00;
}

/// A GICv2 distributor with banked private interrupts, plus the per-CPU
/// acknowledge/complete interface.
///
/// # Examples
///
/// ```
/// use hvx_gic::{Distributor, IntId};
///
/// let mut gic = Distributor::new(4, 64);
/// let nic = IntId::spi(43);
/// gic.enable(nic, 0).unwrap();
/// gic.set_target(nic, 0).unwrap();
/// gic.raise(nic, 0).unwrap();
/// assert_eq!(gic.acknowledge(0).unwrap(), Some(nic));
/// gic.complete(0, nic).unwrap();
/// assert_eq!(gic.acknowledge(0).unwrap(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Distributor {
    /// Global distributor enable (GICD_CTLR bit 0).
    enabled: bool,
    /// Banked SGI+PPI state, one bank of 32 per CPU.
    private: Vec<[IrqState; 32]>,
    /// Shared SPI state.
    spis: Vec<IrqState>,
    /// Target CPU for each SPI (single-target model: the paper pins each
    /// IRQ to one CPU; the IRQ-distribution ablation retargets them).
    spi_target: Vec<usize>,
}

impl Distributor {
    /// Creates a distributor serving `num_cpus` CPU interfaces and
    /// `num_spis` shared peripheral interrupts. All interrupts start
    /// disabled with priority 0xA0 and SPIs target CPU 0 — the
    /// single-CPU-interrupt default whose cost §V quantifies.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is 0 or greater than 8 (GICv2 limit).
    pub fn new(num_cpus: usize, num_spis: usize) -> Self {
        assert!(num_cpus > 0 && num_cpus <= 8, "GICv2 supports 1-8 CPUs");
        let default = IrqState {
            priority: 0xA0,
            ..IrqState::default()
        };
        Distributor {
            enabled: true,
            private: vec![[default; 32]; num_cpus],
            spis: vec![default; num_spis],
            spi_target: vec![0; num_spis],
        }
    }

    /// Number of CPU interfaces.
    pub fn num_cpus(&self) -> usize {
        self.private.len()
    }

    /// Number of configured SPIs.
    pub fn num_spis(&self) -> usize {
        self.spis.len()
    }

    /// Returns `true` if the distributor is globally enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn state_mut(&mut self, intid: IntId, cpu: usize) -> Result<&mut IrqState, GicError> {
        if cpu >= self.private.len() {
            return Err(GicError::BadCpu { cpu });
        }
        if intid.is_private() {
            Ok(&mut self.private[cpu][intid.raw() as usize])
        } else {
            let idx = intid.raw() as usize - 32;
            self.spis.get_mut(idx).ok_or(GicError::BadIntId { intid })
        }
    }

    fn state(&self, intid: IntId, cpu: usize) -> Result<&IrqState, GicError> {
        if cpu >= self.private.len() {
            return Err(GicError::BadCpu { cpu });
        }
        if intid.is_private() {
            Ok(&self.private[cpu][intid.raw() as usize])
        } else {
            let idx = intid.raw() as usize - 32;
            self.spis.get(idx).ok_or(GicError::BadIntId { intid })
        }
    }

    /// Enables forwarding of `intid` (banked per `cpu` for privates).
    ///
    /// # Errors
    ///
    /// [`GicError`] for out-of-range CPU or INTID.
    pub fn enable(&mut self, intid: IntId, cpu: usize) -> Result<(), GicError> {
        self.state_mut(intid, cpu)?.enabled = true;
        Ok(())
    }

    /// Disables forwarding of `intid`.
    ///
    /// # Errors
    ///
    /// [`GicError`] for out-of-range CPU or INTID.
    pub fn disable(&mut self, intid: IntId, cpu: usize) -> Result<(), GicError> {
        self.state_mut(intid, cpu)?.enabled = false;
        Ok(())
    }

    /// Returns `true` if `intid` is enabled (banked per `cpu` for
    /// privates).
    pub fn is_irq_enabled(&self, intid: IntId, cpu: usize) -> bool {
        self.state(intid, cpu).map(|s| s.enabled).unwrap_or(false)
    }

    /// Sets the priority of `intid` (lower value = higher priority).
    ///
    /// # Errors
    ///
    /// [`GicError`] for out-of-range CPU or INTID.
    pub fn set_priority(&mut self, intid: IntId, cpu: usize, prio: u8) -> Result<(), GicError> {
        self.state_mut(intid, cpu)?.priority = prio;
        Ok(())
    }

    /// Routes SPI `intid` to `target` CPU.
    ///
    /// # Errors
    ///
    /// [`GicError::BadIntId`] if `intid` is not an SPI in range;
    /// [`GicError::BadCpu`] if `target` is out of range.
    pub fn set_target(&mut self, intid: IntId, target: usize) -> Result<(), GicError> {
        if !intid.is_spi() {
            return Err(GicError::BadIntId { intid });
        }
        if target >= self.private.len() {
            return Err(GicError::BadCpu { cpu: target });
        }
        let idx = intid.raw() as usize - 32;
        if idx >= self.spi_target.len() {
            return Err(GicError::BadIntId { intid });
        }
        self.spi_target[idx] = target;
        Ok(())
    }

    /// The CPU an SPI currently targets.
    pub fn target_of(&self, intid: IntId) -> Option<usize> {
        if !intid.is_spi() {
            return None;
        }
        self.spi_target.get(intid.raw() as usize - 32).copied()
    }

    /// Makes `intid` pending, as a device (or SGI sender) would. For
    /// private interrupts `cpu` selects the bank; for SPIs it is ignored
    /// (the configured target receives it).
    ///
    /// # Errors
    ///
    /// [`GicError`] for out-of-range CPU or INTID.
    pub fn raise(&mut self, intid: IntId, cpu: usize) -> Result<(), GicError> {
        self.state_mut(intid, cpu)?.pending = true;
        Ok(())
    }

    /// The CPU that should see `intid` asserted: its bank CPU for
    /// privates, the configured target for SPIs.
    pub fn destination(&self, intid: IntId, bank_cpu: usize) -> usize {
        if intid.is_private() {
            bank_cpu
        } else {
            self.spi_target[intid.raw() as usize - 32]
        }
    }

    /// Highest-priority pending, enabled, non-active interrupt visible to
    /// `cpu`, without acknowledging it.
    ///
    /// # Errors
    ///
    /// [`GicError::BadCpu`] if `cpu` is out of range.
    pub fn highest_pending(&self, cpu: usize) -> Result<Option<IntId>, GicError> {
        if cpu >= self.private.len() {
            return Err(GicError::BadCpu { cpu });
        }
        if !self.enabled {
            return Ok(None);
        }
        let mut best: Option<(u8, IntId)> = None;
        let mut consider = |prio: u8, intid: IntId| match best {
            Some((bp, bi)) if (bp, bi.raw()) <= (prio, intid.raw()) => {}
            _ => best = Some((prio, intid)),
        };
        for (i, s) in self.private[cpu].iter().enumerate() {
            if s.enabled && s.pending && !s.active {
                consider(s.priority, IntId::from_raw(i as u32));
            }
        }
        for (i, s) in self.spis.iter().enumerate() {
            if s.enabled && s.pending && !s.active && self.spi_target[i] == cpu {
                consider(s.priority, IntId::from_raw(i as u32 + 32));
            }
        }
        Ok(best.map(|(_, i)| i))
    }

    /// Acknowledges (GICC_IAR): takes the highest pending interrupt for
    /// `cpu`, marking it active and no longer pending. Returns `None`
    /// (a read of the spurious INTID 1023) when nothing is pending.
    ///
    /// # Errors
    ///
    /// [`GicError::BadCpu`] if `cpu` is out of range.
    pub fn acknowledge(&mut self, cpu: usize) -> Result<Option<IntId>, GicError> {
        let Some(intid) = self.highest_pending(cpu)? else {
            return Ok(None);
        };
        let s = self.state_mut(intid, cpu)?;
        s.pending = false;
        s.active = true;
        Ok(Some(intid))
    }

    /// Completes (GICC_EOIR): deactivates an interrupt previously
    /// acknowledged by `cpu`.
    ///
    /// # Errors
    ///
    /// [`GicError::NotActive`] if `intid` is not active.
    pub fn complete(&mut self, cpu: usize, intid: IntId) -> Result<(), GicError> {
        let s = self.state_mut(intid, cpu)?;
        if !s.active {
            return Err(GicError::NotActive { intid });
        }
        s.active = false;
        Ok(())
    }

    /// Emulated-register write, as performed by a trapped guest MMIO
    /// access. Returns the side effects the emulating hypervisor must
    /// enact (most importantly SGI fan-out from a `GICD_SGIR` write).
    ///
    /// # Errors
    ///
    /// [`GicError`] when the encoded INTID/CPU is out of range.
    pub fn mmio_write(
        &mut self,
        offset: u64,
        value: u64,
        from_cpu: usize,
    ) -> Result<MmioEffect, GicError> {
        use dist_reg::*;
        let mut effect = MmioEffect::default();
        match offset {
            GICD_CTLR => {
                self.enabled = value & 1 != 0;
            }
            o if (GICD_ISENABLER..GICD_ISENABLER + 0x80).contains(&o) => {
                let base = ((o - GICD_ISENABLER) / 4) as u32 * 32;
                for bit in 0..32 {
                    if value & (1 << bit) != 0 {
                        self.enable(IntId::from_raw(base + bit), from_cpu)?;
                    }
                }
            }
            o if (GICD_ICENABLER..GICD_ICENABLER + 0x80).contains(&o) => {
                let base = ((o - GICD_ICENABLER) / 4) as u32 * 32;
                for bit in 0..32 {
                    if value & (1 << bit) != 0 {
                        self.disable(IntId::from_raw(base + bit), from_cpu)?;
                    }
                }
            }
            o if (GICD_ISPENDR..GICD_ISPENDR + 0x80).contains(&o) => {
                let base = ((o - GICD_ISPENDR) / 4) as u32 * 32;
                for bit in 0..32 {
                    if value & (1 << bit) != 0 {
                        self.raise(IntId::from_raw(base + bit), from_cpu)?;
                    }
                }
            }
            o if (GICD_IPRIORITYR..GICD_IPRIORITYR + 0x400).contains(&o) => {
                let intid = (o - GICD_IPRIORITYR) as u32;
                self.set_priority(IntId::from_raw(intid), from_cpu, (value & 0xFF) as u8)?;
            }
            o if (GICD_ITARGETSR..GICD_ITARGETSR + 0x400).contains(&o) => {
                let intid = (o - GICD_ITARGETSR) as u32;
                if intid >= 32 {
                    // Byte value is a CPU mask; single-target model takes
                    // the lowest set bit.
                    let mask = (value & 0xFF) as u8;
                    if mask != 0 {
                        self.set_target(IntId::from_raw(intid), mask.trailing_zeros() as usize)?;
                    }
                }
            }
            GICD_SGIR => {
                // GICv2 GICD_SGIR: value[3:0] or [27:24] = SGI id (we use
                // [27:24]), value[23:16] = CPU target list,
                // value[25:24] = target list filter.
                // Note: real hardware packs the filter at [25:24] and the
                // SGI id at [3:0]; the model keeps the id at [27:24] for
                // readability and takes the filter from bits [29:28].
                let sgi = IntId::sgi(((value >> 24) & 0xF) as u32);
                let filter = match (value >> 28) & 0x3 {
                    0 => SgiFilter::TargetList,
                    1 => SgiFilter::AllOthers,
                    _ => SgiFilter::SelfOnly,
                };
                let mask = ((value >> 16) & 0xFF) as u8;
                for cpu in 0..self.num_cpus() {
                    let hit = match filter {
                        SgiFilter::TargetList => mask & (1 << cpu) != 0,
                        SgiFilter::AllOthers => cpu != from_cpu,
                        SgiFilter::SelfOnly => cpu == from_cpu,
                    };
                    if hit {
                        self.raise(sgi, cpu)?;
                        effect.sgi_targets.add(cpu, sgi);
                    }
                }
            }
            _ => { /* unmodelled register: write ignored, as RAZ/WI */ }
        }
        Ok(effect)
    }

    /// Emulated-register read for the modelled subset.
    ///
    /// # Errors
    ///
    /// [`GicError::BadCpu`] if `from_cpu` is out of range.
    pub fn mmio_read(&self, offset: u64, from_cpu: usize) -> Result<u64, GicError> {
        use dist_reg::*;
        if from_cpu >= self.private.len() {
            return Err(GicError::BadCpu { cpu: from_cpu });
        }
        Ok(match offset {
            GICD_CTLR => self.enabled as u64,
            o if (GICD_ISENABLER..GICD_ISENABLER + 0x80).contains(&o) => {
                let base = ((o - GICD_ISENABLER) / 4) as u32 * 32;
                let mut v = 0u64;
                for bit in 0..32u32 {
                    let intid = IntId::from_raw(base + bit);
                    if self.is_irq_enabled(intid, from_cpu) {
                        v |= 1 << bit;
                    }
                }
                v
            }
            o if (GICD_IPRIORITYR..GICD_IPRIORITYR + 0x400).contains(&o) => {
                let intid = IntId::from_raw((o - GICD_IPRIORITYR) as u32);
                self.state(intid, from_cpu).map(|s| s.priority as u64)?
            }
            _ => 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gic() -> Distributor {
        Distributor::new(4, 64)
    }

    #[test]
    fn disabled_irq_is_not_delivered() {
        let mut g = gic();
        let nic = IntId::spi(43);
        g.raise(nic, 0).unwrap();
        assert_eq!(g.highest_pending(0).unwrap(), None, "disabled -> invisible");
        g.enable(nic, 0).unwrap();
        assert_eq!(g.highest_pending(0).unwrap(), Some(nic));
    }

    #[test]
    fn ack_complete_lifecycle() {
        let mut g = gic();
        let irq = IntId::spi(1);
        g.enable(irq, 0).unwrap();
        g.raise(irq, 0).unwrap();
        let got = g.acknowledge(0).unwrap().unwrap();
        assert_eq!(got, irq);
        // Active interrupts are not re-delivered.
        assert_eq!(g.highest_pending(0).unwrap(), None);
        g.complete(0, irq).unwrap();
        // Re-raising after completion delivers again.
        g.raise(irq, 0).unwrap();
        assert_eq!(g.acknowledge(0).unwrap(), Some(irq));
    }

    #[test]
    fn complete_of_inactive_irq_is_error() {
        let mut g = gic();
        assert_eq!(
            g.complete(0, IntId::spi(1)),
            Err(GicError::NotActive {
                intid: IntId::spi(1)
            })
        );
    }

    #[test]
    fn priority_orders_delivery_then_intid_breaks_ties() {
        let mut g = gic();
        let (a, b, c) = (IntId::spi(1), IntId::spi(2), IntId::spi(3));
        for i in [a, b, c] {
            g.enable(i, 0).unwrap();
            g.raise(i, 0).unwrap();
        }
        g.set_priority(b, 0, 0x10).unwrap(); // highest priority
        g.set_priority(c, 0, 0x10).unwrap();
        assert_eq!(g.acknowledge(0).unwrap(), Some(b), "lower INTID wins ties");
        assert_eq!(g.acknowledge(0).unwrap(), Some(c));
        assert_eq!(g.acknowledge(0).unwrap(), Some(a));
    }

    #[test]
    fn spis_follow_their_target() {
        let mut g = gic();
        let nic = IntId::spi(43);
        g.enable(nic, 0).unwrap();
        g.set_target(nic, 2).unwrap();
        g.raise(nic, 0).unwrap();
        assert_eq!(g.highest_pending(0).unwrap(), None);
        assert_eq!(g.highest_pending(2).unwrap(), Some(nic));
        assert_eq!(g.destination(nic, 0), 2);
        assert_eq!(g.target_of(nic), Some(2));
    }

    #[test]
    fn private_interrupts_are_banked_per_cpu() {
        let mut g = gic();
        g.enable(IntId::VTIMER, 1).unwrap();
        g.raise(IntId::VTIMER, 1).unwrap();
        assert_eq!(g.highest_pending(1).unwrap(), Some(IntId::VTIMER));
        assert_eq!(g.highest_pending(0).unwrap(), None, "other bank unaffected");
        assert!(!g.is_irq_enabled(IntId::VTIMER, 0));
    }

    #[test]
    fn sgir_write_fans_out_to_target_mask() {
        let mut g = gic();
        for cpu in 0..4 {
            g.enable(IntId::sgi(5), cpu).unwrap();
        }
        // SGI 5 to CPUs 1 and 3.
        let effect = g
            .mmio_write(dist_reg::GICD_SGIR, (5 << 24) | (0b1010 << 16), 0)
            .unwrap();
        assert_eq!(
            effect.sgi_targets.iter().collect::<Vec<_>>(),
            vec![(1, IntId::sgi(5)), (3, IntId::sgi(5))]
        );
        assert_eq!(g.highest_pending(1).unwrap(), Some(IntId::sgi(5)));
        assert_eq!(g.highest_pending(3).unwrap(), Some(IntId::sgi(5)));
        assert_eq!(g.highest_pending(0).unwrap(), None);
    }

    #[test]
    fn sgir_all_others_filter_broadcasts_except_self() {
        let mut g = gic();
        for cpu in 0..4 {
            g.enable(IntId::sgi(1), cpu).unwrap();
        }
        let effect = g
            .mmio_write(
                dist_reg::GICD_SGIR,
                (1 << 24) | SgiFilter::AllOthers.encode(),
                2,
            )
            .unwrap();
        let targets: Vec<usize> = effect.sgi_targets.iter().map(|(c, _)| c).collect();
        assert_eq!(targets, vec![0, 1, 3], "everyone but the sender");
    }

    #[test]
    fn sgir_self_filter_hits_only_the_sender() {
        let mut g = gic();
        g.enable(IntId::sgi(2), 1).unwrap();
        let effect = g
            .mmio_write(
                dist_reg::GICD_SGIR,
                (2 << 24) | SgiFilter::SelfOnly.encode(),
                1,
            )
            .unwrap();
        assert_eq!(
            effect.sgi_targets.iter().collect::<Vec<_>>(),
            vec![(1, IntId::sgi(2))]
        );
        assert_eq!(g.highest_pending(1).unwrap(), Some(IntId::sgi(2)));
    }

    #[test]
    fn mmio_enable_disable_round_trip() {
        let mut g = gic();
        // Enable INTIDs 32..64 via ISENABLER word 1.
        g.mmio_write(dist_reg::GICD_ISENABLER + 4, u32::MAX as u64, 0)
            .unwrap();
        assert!(g.is_irq_enabled(IntId::spi(0), 0));
        assert!(g.is_irq_enabled(IntId::spi(31), 0));
        assert_eq!(
            g.mmio_read(dist_reg::GICD_ISENABLER + 4, 0).unwrap(),
            u32::MAX as u64
        );
        g.mmio_write(dist_reg::GICD_ICENABLER + 4, 1, 0).unwrap();
        assert!(!g.is_irq_enabled(IntId::spi(0), 0));
    }

    #[test]
    fn mmio_priority_and_target() {
        let mut g = gic();
        let irq = IntId::spi(2); // INTID 34
        g.mmio_write(dist_reg::GICD_IPRIORITYR + 34, 0x20, 0)
            .unwrap();
        assert_eq!(
            g.mmio_read(dist_reg::GICD_IPRIORITYR + 34, 0).unwrap(),
            0x20
        );
        g.mmio_write(dist_reg::GICD_ITARGETSR + 34, 0b0100, 0)
            .unwrap();
        assert_eq!(g.target_of(irq), Some(2));
    }

    #[test]
    fn ctlr_gates_all_delivery() {
        let mut g = gic();
        let irq = IntId::spi(0);
        g.enable(irq, 0).unwrap();
        g.raise(irq, 0).unwrap();
        g.mmio_write(dist_reg::GICD_CTLR, 0, 0).unwrap();
        assert!(!g.is_enabled());
        assert_eq!(g.highest_pending(0).unwrap(), None);
        g.mmio_write(dist_reg::GICD_CTLR, 1, 0).unwrap();
        assert_eq!(g.highest_pending(0).unwrap(), Some(irq));
    }

    #[test]
    fn bad_cpu_and_intid_are_errors() {
        let mut g = gic();
        assert!(matches!(
            g.enable(IntId::spi(0), 9),
            Err(GicError::BadCpu { cpu: 9 })
        ));
        assert!(g.enable(IntId::spi(63), 0).is_ok(), "last configured SPI");
        assert!(matches!(
            g.enable(IntId::spi(64), 0),
            Err(GicError::BadIntId { .. })
        ));
        assert!(g.highest_pending(4).is_err());
        assert!(g.set_target(IntId::VTIMER, 0).is_err());
    }
}
