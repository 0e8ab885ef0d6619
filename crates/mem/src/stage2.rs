//! Stage-2 page tables: the IPA→PA translation a hypervisor controls.
//!
//! "ARM provides memory virtualization by allowing software in EL2 to
//! point to a set of page tables, Stage-2 page tables, used to translate
//! the VM's view of physical addresses to machine addresses" (§II). The
//! model implements a real 4-level, 4 KiB-granule radix tree with 2 MiB
//! block support and a software walker, so translation faults, permission
//! faults, and walk depth (the cost driver for TLB misses) all fall out of
//! actual mechanism.

use crate::{Ipa, Pa, PAGE_SHIFT, PAGE_SIZE};
use core::fmt;

/// Access permissions of a Stage-2 mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct S2Perms {
    /// Readable by the guest.
    pub read: bool,
    /// Writable by the guest.
    pub write: bool,
    /// Executable by the guest.
    pub exec: bool,
}

impl S2Perms {
    /// Read/write/execute — ordinary guest RAM.
    pub const RWX: S2Perms = S2Perms {
        read: true,
        write: true,
        exec: true,
    };
    /// Read-only data.
    pub const RO: S2Perms = S2Perms {
        read: true,
        write: false,
        exec: false,
    };
    /// Read/write, non-executable — device or shared memory.
    pub const RW: S2Perms = S2Perms {
        read: true,
        write: true,
        exec: false,
    };

    /// Returns `true` if an access of kind `access` is permitted.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Exec => self.exec,
        }
    }
}

/// Kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// A Stage-2 translation fault — delivered to the hypervisor as a
/// stage-2 data/instruction abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Stage2Fault {
    /// No mapping exists at this IPA (MMIO emulation and demand paging
    /// arrive this way).
    Translation {
        /// The faulting IPA.
        ipa: Ipa,
        /// The table level the walk failed at (0–3).
        level: u8,
    },
    /// A mapping exists but forbids the access.
    Permission {
        /// The faulting IPA.
        ipa: Ipa,
        /// The access that was attempted.
        access: Access,
    },
}

impl fmt::Display for Stage2Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage2Fault::Translation { ipa, level } => {
                write!(f, "stage-2 translation fault at {ipa} (level {level})")
            }
            Stage2Fault::Permission { ipa, access } => {
                write!(f, "stage-2 permission fault at {ipa} ({access:?})")
            }
        }
    }
}

impl std::error::Error for Stage2Fault {}

/// Error from mapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Address not aligned to the mapping granule.
    Unaligned {
        /// The offending IPA.
        ipa: Ipa,
    },
    /// A mapping already exists in the requested range.
    AlreadyMapped {
        /// The conflicting IPA.
        ipa: Ipa,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unaligned { ipa } => write!(f, "{ipa} is not granule-aligned"),
            MapError::AlreadyMapped { ipa } => write!(f, "{ipa} is already mapped"),
        }
    }
}

impl std::error::Error for MapError {}

const ENTRIES: usize = 512;
/// Size covered by a level-2 block entry (2 MiB).
pub const BLOCK_SIZE: u64 = PAGE_SIZE * ENTRIES as u64;

#[derive(Debug, Clone)]
enum Entry {
    Invalid,
    Table(Box<Table>),
    /// A leaf: at level 3 a 4 KiB page, at level 2 a 2 MiB block.
    Leaf {
        pa: Pa,
        perms: S2Perms,
    },
}

#[derive(Debug, Clone)]
struct Table {
    entries: Vec<Entry>,
}

impl Table {
    fn new() -> Self {
        Table {
            entries: (0..ENTRIES).map(|_| Entry::Invalid).collect(),
        }
    }
}

/// Index into the level-`level` table for `ipa` (level 0 is the root).
fn index(ipa: Ipa, level: u8) -> usize {
    let shift = PAGE_SHIFT + 9 * (3 - level as u32);
    ((ipa.value() >> shift) & 0x1FF) as usize
}

/// The result of a successful walk: the PA plus walk metadata the cost
/// model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The machine address.
    pub pa: Pa,
    /// Table levels visited (1–4); each visit is one memory access on a
    /// TLB miss.
    pub levels_walked: u8,
    /// Whether the leaf was a 2 MiB block.
    pub block: bool,
}

/// A VM's Stage-2 page-table tree, owned by the hypervisor.
///
/// # Examples
///
/// ```
/// use hvx_mem::{Access, Ipa, Pa, S2Perms, Stage2Tables};
///
/// let mut s2 = Stage2Tables::new();
/// s2.map_page(Ipa::new(0x8000_0000), Pa::new(0x4000_0000), S2Perms::RWX)?;
/// let t = s2.translate(Ipa::new(0x8000_0123), Access::Read)?;
/// assert_eq!(t.pa, Pa::new(0x4000_0123));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Stage2Tables {
    root: Table,
    mapped_pages: u64,
}

impl Stage2Tables {
    /// Creates an empty tree (every access faults).
    pub fn new() -> Self {
        Stage2Tables {
            root: Table::new(),
            mapped_pages: 0,
        }
    }

    /// Number of 4 KiB pages currently mapped (blocks count as 512).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Maps one 4 KiB page.
    ///
    /// # Errors
    ///
    /// [`MapError::Unaligned`] if `ipa` or `pa` is not page-aligned;
    /// [`MapError::AlreadyMapped`] if a mapping exists.
    pub fn map_page(&mut self, ipa: Ipa, pa: Pa, perms: S2Perms) -> Result<(), MapError> {
        if !ipa.is_page_aligned() || !pa.is_page_aligned() {
            return Err(MapError::Unaligned { ipa });
        }
        let mut table = &mut self.root;
        for level in 0..3u8 {
            let idx = index(ipa, level);
            let entry = &mut table.entries[idx];
            match entry {
                Entry::Invalid => {
                    *entry = Entry::Table(Box::new(Table::new()));
                }
                Entry::Leaf { .. } => return Err(MapError::AlreadyMapped { ipa }),
                Entry::Table(_) => {}
            }
            table = match entry {
                Entry::Table(t) => t,
                _ => unreachable!(),
            };
        }
        let leaf = &mut table.entries[index(ipa, 3)];
        if !matches!(leaf, Entry::Invalid) {
            return Err(MapError::AlreadyMapped { ipa });
        }
        *leaf = Entry::Leaf { pa, perms };
        self.mapped_pages += 1;
        Ok(())
    }

    /// Maps a 2 MiB block at level 2 — what KVM and Xen use for bulk
    /// guest RAM (fewer walk levels, fewer faults).
    ///
    /// # Errors
    ///
    /// [`MapError::Unaligned`] if `ipa`/`pa` are not 2 MiB-aligned;
    /// [`MapError::AlreadyMapped`] if anything exists in the range.
    pub fn map_block(&mut self, ipa: Ipa, pa: Pa, perms: S2Perms) -> Result<(), MapError> {
        if !ipa.value().is_multiple_of(BLOCK_SIZE) || !pa.value().is_multiple_of(BLOCK_SIZE) {
            return Err(MapError::Unaligned { ipa });
        }
        let mut table = &mut self.root;
        for level in 0..2u8 {
            let idx = index(ipa, level);
            let entry = &mut table.entries[idx];
            match entry {
                Entry::Invalid => *entry = Entry::Table(Box::new(Table::new())),
                Entry::Leaf { .. } => return Err(MapError::AlreadyMapped { ipa }),
                Entry::Table(_) => {}
            }
            table = match entry {
                Entry::Table(t) => t,
                _ => unreachable!(),
            };
        }
        let slot = &mut table.entries[index(ipa, 2)];
        if !matches!(slot, Entry::Invalid) {
            return Err(MapError::AlreadyMapped { ipa });
        }
        *slot = Entry::Leaf { pa, perms };
        self.mapped_pages += ENTRIES as u64;
        Ok(())
    }

    /// Maps `pages` consecutive 4 KiB pages starting at `ipa`→`pa`, using
    /// 2 MiB blocks where alignment permits.
    ///
    /// # Errors
    ///
    /// As for [`Stage2Tables::map_page`] / [`Stage2Tables::map_block`].
    pub fn map_range(
        &mut self,
        ipa: Ipa,
        pa: Pa,
        pages: u64,
        perms: S2Perms,
    ) -> Result<(), MapError> {
        let mut done = 0;
        while done < pages {
            let cur_ipa = Ipa::new(ipa.value() + done * PAGE_SIZE);
            let cur_pa = Pa::new(pa.value() + done * PAGE_SIZE);
            let remaining = pages - done;
            if cur_ipa.value().is_multiple_of(BLOCK_SIZE)
                && cur_pa.value().is_multiple_of(BLOCK_SIZE)
                && remaining >= ENTRIES as u64
            {
                self.map_block(cur_ipa, cur_pa, perms)?;
                done += ENTRIES as u64;
            } else {
                self.map_page(cur_ipa, cur_pa, perms)?;
                done += 1;
            }
        }
        Ok(())
    }

    /// Walks the tree, translating `ipa` for an access of kind `access`.
    ///
    /// # Errors
    ///
    /// [`Stage2Fault`] on a hole or a permission violation — the model's
    /// analog of the hardware raising a stage-2 abort to EL2.
    pub fn translate(&self, ipa: Ipa, access: Access) -> Result<Translation, Stage2Fault> {
        let mut table = &self.root;
        for level in 0..4u8 {
            match &table.entries[index(ipa, level)] {
                Entry::Invalid => return Err(Stage2Fault::Translation { ipa, level }),
                Entry::Leaf { pa, perms } => {
                    if !perms.allows(access) {
                        return Err(Stage2Fault::Permission { ipa, access });
                    }
                    let block = level == 2;
                    let offset_mask = if block { BLOCK_SIZE - 1 } else { PAGE_SIZE - 1 };
                    return Ok(Translation {
                        pa: Pa::new(pa.value() | (ipa.value() & offset_mask)),
                        levels_walked: level + 1,
                        block,
                    });
                }
                Entry::Table(t) => table = t,
            }
        }
        unreachable!("level-3 entries are leaves or invalid")
    }
}

impl Default for Stage2Tables {
    fn default() -> Self {
        Stage2Tables::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_mapping_translates_with_offset() {
        let mut s2 = Stage2Tables::new();
        s2.map_page(Ipa::new(0x8000_0000), Pa::new(0x4000_0000), S2Perms::RWX)
            .unwrap();
        let t = s2.translate(Ipa::new(0x8000_0ABC), Access::Write).unwrap();
        assert_eq!(t.pa, Pa::new(0x4000_0ABC));
        assert_eq!(t.levels_walked, 4);
        assert!(!t.block);
    }

    #[test]
    fn unmapped_ipa_faults_with_level() {
        let s2 = Stage2Tables::new();
        assert_eq!(
            s2.translate(Ipa::new(0x1000), Access::Read),
            Err(Stage2Fault::Translation {
                ipa: Ipa::new(0x1000),
                level: 0
            })
        );
        let mut s2 = Stage2Tables::new();
        s2.map_page(Ipa::new(0), Pa::new(0), S2Perms::RWX).unwrap();
        // Sibling page in the same leaf table: walk reaches level 3.
        assert_eq!(
            s2.translate(Ipa::new(0x1000), Access::Read),
            Err(Stage2Fault::Translation {
                ipa: Ipa::new(0x1000),
                level: 3
            })
        );
    }

    #[test]
    fn permission_fault_on_forbidden_access() {
        let mut s2 = Stage2Tables::new();
        s2.map_page(Ipa::new(0x2000), Pa::new(0x5000), S2Perms::RO)
            .unwrap();
        assert!(s2.translate(Ipa::new(0x2000), Access::Read).is_ok());
        assert_eq!(
            s2.translate(Ipa::new(0x2000), Access::Write),
            Err(Stage2Fault::Permission {
                ipa: Ipa::new(0x2000),
                access: Access::Write
            })
        );
        assert!(s2.translate(Ipa::new(0x2000), Access::Exec).is_err());
    }

    #[test]
    fn block_mapping_covers_two_mib() {
        let mut s2 = Stage2Tables::new();
        s2.map_block(Ipa::new(0x4000_0000), Pa::new(0x8000_0000), S2Perms::RWX)
            .unwrap();
        let t = s2
            .translate(Ipa::new(0x4000_0000 + 0x12_3456), Access::Read)
            .unwrap();
        assert_eq!(t.pa, Pa::new(0x8000_0000 + 0x12_3456));
        assert_eq!(t.levels_walked, 3, "block walk is one level shorter");
        assert!(t.block);
        assert_eq!(s2.mapped_pages(), 512);
    }

    #[test]
    fn map_range_uses_blocks_where_aligned() {
        let mut s2 = Stage2Tables::new();
        // 4 MiB starting 2 MiB-aligned: 2 blocks.
        s2.map_range(
            Ipa::new(0x4000_0000),
            Pa::new(0x8000_0000),
            1024,
            S2Perms::RWX,
        )
        .unwrap();
        assert!(
            s2.translate(Ipa::new(0x4000_0000), Access::Read)
                .unwrap()
                .block
        );
        assert!(
            s2.translate(Ipa::new(0x4020_0000), Access::Read)
                .unwrap()
                .block
        );
        assert_eq!(s2.mapped_pages(), 1024);
        // Unaligned start: pages until a block boundary.
        let mut s2 = Stage2Tables::new();
        s2.map_range(Ipa::new(0x1000), Pa::new(0x1000), 3, S2Perms::RWX)
            .unwrap();
        assert_eq!(s2.mapped_pages(), 3);
        assert!(!s2.translate(Ipa::new(0x2000), Access::Read).unwrap().block);
    }

    #[test]
    fn double_map_rejected() {
        let mut s2 = Stage2Tables::new();
        s2.map_page(Ipa::new(0x1000), Pa::new(0x1000), S2Perms::RWX)
            .unwrap();
        assert_eq!(
            s2.map_page(Ipa::new(0x1000), Pa::new(0x9000), S2Perms::RWX),
            Err(MapError::AlreadyMapped {
                ipa: Ipa::new(0x1000)
            })
        );
        // Can't lay a block over existing pages either.
        let mut s2 = Stage2Tables::new();
        s2.map_page(Ipa::new(0x4000_0000), Pa::new(0x1000), S2Perms::RWX)
            .unwrap();
        assert!(s2
            .map_block(Ipa::new(0x4000_0000), Pa::new(0), S2Perms::RWX)
            .is_err());
    }

    #[test]
    fn unaligned_mappings_rejected() {
        let mut s2 = Stage2Tables::new();
        assert!(matches!(
            s2.map_page(Ipa::new(0x1001), Pa::new(0x1000), S2Perms::RWX),
            Err(MapError::Unaligned { .. })
        ));
        assert!(matches!(
            s2.map_block(Ipa::new(0x1000), Pa::new(0), S2Perms::RWX),
            Err(MapError::Unaligned { .. })
        ));
    }

    #[test]
    fn perms_allow_matrix() {
        assert!(S2Perms::RWX.allows(Access::Exec));
        assert!(S2Perms::RW.allows(Access::Write));
        assert!(!S2Perms::RW.allows(Access::Exec));
        assert!(S2Perms::RO.allows(Access::Read));
        assert!(!S2Perms::RO.allows(Access::Write));
    }
}
