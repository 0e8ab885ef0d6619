//! Xen grant tables: cross-domain memory sharing under strict isolation.
//!
//! Xen "provides stronger isolation between the virtual device
//! implementation and the VM" (§II): Dom0 cannot see DomU memory unless
//! DomU *grants* access to specific frames. Every Xen PV I/O operation
//! therefore goes through this table, and §V measures the consequence:
//! "each data copy incurs more than 3 µs of additional latency because of
//! the complexities of establishing and utilizing the shared page via the
//! grant mechanism". The table models the copy path netback uses; mapping
//! a grant instead (zero copy, abandoned on Xen x86 for its TLB-shootdown
//! cost and never built for ARM) is priced, not executed, by the zero-copy
//! ablation.

use crate::{MemError, Pa, PhysMemory};
use core::fmt;

/// A domain identifier (Dom0 is domain 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct DomId(pub u16);

impl DomId {
    /// The privileged control domain.
    pub const DOM0: DomId = DomId(0);
}

impl fmt::Display for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dom{}", self.0)
    }
}

/// A reference into a domain's grant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[serde(transparent)]
pub struct GrantRef(pub u32);

/// One grant-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GrantEntry {
    /// Domain allowed to use this grant.
    grantee: DomId,
    /// The granted frame (machine page base).
    frame: Pa,
    /// Grantee may only read.
    readonly: bool,
    /// Entry is live.
    in_use: bool,
}

/// Errors from grant operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantError {
    /// Unknown or retired grant reference.
    BadRef {
        /// The offending reference.
        gref: GrantRef,
    },
    /// The requesting domain is not the grantee.
    NotGrantee {
        /// The requesting domain.
        dom: DomId,
    },
    /// Write access requested on a read-only grant.
    ReadOnly,
    /// Underlying memory error during a grant copy.
    Mem(MemError),
    /// The grant table is full.
    TableFull,
}

impl fmt::Display for GrantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrantError::BadRef { gref } => write!(f, "bad grant reference {}", gref.0),
            GrantError::NotGrantee { dom } => write!(f, "{dom} is not the grantee"),
            GrantError::ReadOnly => write!(f, "grant is read-only"),
            GrantError::Mem(e) => write!(f, "grant copy failed: {e}"),
            GrantError::TableFull => write!(f, "grant table full"),
        }
    }
}

impl std::error::Error for GrantError {}

impl From<MemError> for GrantError {
    fn from(e: MemError) -> Self {
        GrantError::Mem(e)
    }
}

/// A domain's grant table.
///
/// # Examples
///
/// The netfront TX flow: DomU grants a frame read-only, Dom0 copies out
/// of it, and DomU ends the grant:
///
/// ```
/// use hvx_mem::{DomId, GrantTable, Pa, PhysMemory};
///
/// let mut mem = PhysMemory::new(1 << 20);
/// let mut gt = GrantTable::new(32);
/// let gref = gt.grant_access(DomId::DOM0, Pa::new(0x4000), true)?;
/// gt.grant_copy(&mut mem, gref, DomId::DOM0, 0, Pa::new(0x9000), 64, false)?;
/// gt.end_access(gref)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GrantTable {
    entries: Vec<GrantEntry>,
    /// Cumulative count of grant-copy operations (per-op cost ≈ 3 µs, §V).
    copies: u64,
}

impl GrantTable {
    /// Creates a table with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        GrantTable {
            entries: vec![
                GrantEntry {
                    grantee: DomId(0),
                    frame: Pa::new(0),
                    readonly: false,
                    in_use: false,
                };
                capacity
            ],
            copies: 0,
        }
    }

    fn entry_mut(&mut self, gref: GrantRef) -> Result<&mut GrantEntry, GrantError> {
        let e = self
            .entries
            .get_mut(gref.0 as usize)
            .ok_or(GrantError::BadRef { gref })?;
        if !e.in_use {
            return Err(GrantError::BadRef { gref });
        }
        Ok(e)
    }

    /// Grants `grantee` access to `frame`. Returns a fresh grant
    /// reference.
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] when no entry is free.
    pub fn grant_access(
        &mut self,
        grantee: DomId,
        frame: Pa,
        readonly: bool,
    ) -> Result<GrantRef, GrantError> {
        let idx = self
            .entries
            .iter()
            .position(|e| !e.in_use)
            .ok_or(GrantError::TableFull)?;
        self.entries[idx] = GrantEntry {
            grantee,
            frame: frame.page_base(),
            readonly,
            in_use: true,
        };
        Ok(GrantRef(idx as u32))
    }

    /// Hypervisor-mediated copy between a granted frame and another
    /// machine address (`GNTTABOP_copy`) — Xen's alternative to mapping,
    /// and what netback uses on both paths.
    ///
    /// # Errors
    ///
    /// [`GrantError`] on a bad reference, a write to a read-only grant,
    /// or an out-of-range copy.
    #[allow(clippy::too_many_arguments)]
    pub fn grant_copy(
        &mut self,
        mem: &mut PhysMemory,
        gref: GrantRef,
        dom: DomId,
        offset_in_frame: u64,
        other: Pa,
        len: usize,
        to_grant: bool,
    ) -> Result<(), GrantError> {
        let e = self.entry_mut(gref)?;
        if e.grantee != dom {
            return Err(GrantError::NotGrantee { dom });
        }
        if to_grant && e.readonly {
            return Err(GrantError::ReadOnly);
        }
        let frame_addr = Pa::new(e.frame.value() + offset_in_frame);
        if to_grant {
            mem.copy_within(other, frame_addr, len)?;
        } else {
            mem.copy_within(frame_addr, other, len)?;
        }
        self.copies += 1;
        Ok(())
    }

    /// Revokes a grant; its reference is free for reuse.
    ///
    /// # Errors
    ///
    /// [`GrantError::BadRef`] on an unknown or already revoked reference.
    pub fn end_access(&mut self, gref: GrantRef) -> Result<(), GrantError> {
        self.entry_mut(gref)?.in_use = false;
        Ok(())
    }

    /// Cumulative grant-copy operations (the §V ≈3 µs-each cost driver).
    pub fn copy_count(&self) -> u64 {
        self.copies
    }

    /// Number of live entries.
    pub fn live_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.in_use).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_copy_end_lifecycle() {
        let mut gt = GrantTable::new(4);
        let mut mem = PhysMemory::new(1 << 20);
        mem.write(Pa::new(0x5010), b"frame").unwrap();
        let gref = gt
            .grant_access(DomId::DOM0, Pa::new(0x5123), false)
            .unwrap();
        // Grants are frame-granular: offset 0x10 of the frame at 0x5000.
        gt.grant_copy(&mut mem, gref, DomId::DOM0, 0x10, Pa::new(0x9000), 5, false)
            .unwrap();
        let mut buf = [0u8; 5];
        mem.read(Pa::new(0x9000), &mut buf).unwrap();
        assert_eq!(&buf, b"frame");
        gt.end_access(gref).unwrap();
        assert_eq!(gt.live_entries(), 0);
        assert_eq!(gt.end_access(gref), Err(GrantError::BadRef { gref }));
    }

    #[test]
    fn only_grantee_may_copy() {
        let mut gt = GrantTable::new(4);
        let mut mem = PhysMemory::new(1 << 20);
        let gref = gt.grant_access(DomId(3), Pa::new(0x1000), false).unwrap();
        assert_eq!(
            gt.grant_copy(&mut mem, gref, DomId::DOM0, 0, Pa::new(0x9000), 8, false),
            Err(GrantError::NotGrantee { dom: DomId::DOM0 })
        );
        assert!(gt
            .grant_copy(&mut mem, gref, DomId(3), 0, Pa::new(0x9000), 8, false)
            .is_ok());
    }

    #[test]
    fn grant_copy_moves_data_and_counts() {
        let mut gt = GrantTable::new(4);
        let mut mem = PhysMemory::new(1 << 20);
        mem.write(Pa::new(0x9000), b"from-dom0-dma-buffer").unwrap();
        let gref = gt
            .grant_access(DomId::DOM0, Pa::new(0x3000), false)
            .unwrap();
        // Netback RX: copy from Dom0 buffer into the granted DomU frame.
        gt.grant_copy(&mut mem, gref, DomId::DOM0, 0x10, Pa::new(0x9000), 20, true)
            .unwrap();
        let mut buf = [0u8; 20];
        mem.read(Pa::new(0x3010), &mut buf).unwrap();
        assert_eq!(&buf, b"from-dom0-dma-buffer");
        assert_eq!(gt.copy_count(), 1);
        // TX direction: copy out of the granted frame.
        gt.grant_copy(
            &mut mem,
            gref,
            DomId::DOM0,
            0x10,
            Pa::new(0xA000),
            20,
            false,
        )
        .unwrap();
        assert_eq!(gt.copy_count(), 2);
    }

    #[test]
    fn readonly_grant_rejects_writes() {
        let mut gt = GrantTable::new(4);
        let mut mem = PhysMemory::new(1 << 20);
        let gref = gt.grant_access(DomId::DOM0, Pa::new(0x3000), true).unwrap();
        assert_eq!(
            gt.grant_copy(&mut mem, gref, DomId::DOM0, 0, Pa::new(0x9000), 8, true),
            Err(GrantError::ReadOnly)
        );
        // Reading out of a read-only grant is fine.
        assert!(gt
            .grant_copy(&mut mem, gref, DomId::DOM0, 0, Pa::new(0x9000), 8, false)
            .is_ok());
    }

    #[test]
    fn table_exhaustion() {
        let mut gt = GrantTable::new(2);
        gt.grant_access(DomId::DOM0, Pa::new(0x1000), false)
            .unwrap();
        gt.grant_access(DomId::DOM0, Pa::new(0x2000), false)
            .unwrap();
        assert_eq!(
            gt.grant_access(DomId::DOM0, Pa::new(0x3000), false),
            Err(GrantError::TableFull)
        );
    }

    #[test]
    fn refs_are_recycled_after_end_access() {
        let mut gt = GrantTable::new(1);
        let g1 = gt
            .grant_access(DomId::DOM0, Pa::new(0x1000), false)
            .unwrap();
        gt.end_access(g1).unwrap();
        let g2 = gt
            .grant_access(DomId::DOM0, Pa::new(0x2000), false)
            .unwrap();
        assert_eq!(g1, g2, "single-entry table recycles the ref");
    }
}
