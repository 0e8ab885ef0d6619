//! # hvx-mem — memory-virtualization substrate for the hvx simulator
//!
//! Models of the memory mechanisms whose costs drive the I/O results of
//! *"ARM Virtualization: Performance and Architectural Implications"*
//! (ISCA 2016):
//!
//! * [`Va`] / [`Ipa`] / [`Pa`] — the three address spaces of Stage-2
//!   translation (§II), kept apart by the type system;
//! * [`Stage2Tables`] — a real 4-level IPA→PA radix tree with 2 MiB block
//!   support, a software walker, and translation/permission faults;
//! * [`PhysMemory`] — sparse byte-addressable machine memory, so the
//!   zero-copy-vs-grant-copy distinction is observable on actual bytes;
//! * [`GrantTable`] — Xen's isolation-preserving sharing mechanism, with
//!   grantee checks and hypervisor-mediated `grant_copy`;
//! * [`TlbModel`] — the two shootdown disciplines the paper contrasts:
//!   ARM broadcast `TLBI` vs x86 IPI flushes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod grant;
mod memory;
mod stage2;
mod tlb;

pub use addr::{Ipa, Pa, Va, PAGE_SHIFT, PAGE_SIZE};
pub use grant::{DomId, GrantError, GrantRef, GrantTable};
pub use memory::{MemError, PhysMemory};
pub use stage2::{Access, MapError, S2Perms, Stage2Fault, Stage2Tables, Translation, BLOCK_SIZE};
pub use tlb::{ShootdownMethod, ShootdownPlan, TlbModel};
