//! # hvx-vio — paravirtual I/O substrate for the hvx simulator
//!
//! The two virtual I/O stacks whose contrast drives the application
//! results of *"ARM Virtualization: Performance and Architectural
//! Implications"* (ISCA 2016):
//!
//! * **Virtio/VHOST** (KVM): [`Virtqueue`] descriptor rings carrying IPA
//!   pointers, consumed by the in-kernel [`VhostNet`] backend which has
//!   the machine's full Stage-2 view of guest memory — the zero-copy
//!   path.
//! * **Xen PV**: [`EventChannels`] for notification, plus
//!   [`NetFront`]/[`NetBack`] shared-ring networking over grant tables —
//!   one mandatory data copy per packet in each direction.
//!
//! Plus the hardware at the edges: [`Nic`], the 10 GbE [`Wire`] and the
//! storage ablation's [`Disk`].
//! All state is functional; costs are charged by `hvx-core`.
//!
//! ## Observability
//!
//! Every substrate keeps lifetime counters — [`VhostNet::tx_packets`],
//! [`VhostNet::rx_packets`], [`EventChannels::notification_count`],
//! [`Disk::read_count`]/[`Disk::write_count`], [`Nic::tx_count`]/
//! [`Nic::rx_count`] — which the hypervisor models sample into the
//! metrics registry after a profiled run (as `vio.vhost_tx_packets`,
//! `vio.evtchn_notifications`, …), so `hvx-repro profile` reports the
//! I/O traffic alongside the cycle breakdown. Failures are typed
//! ([`VioError`], with `source()` chaining to the memory layer) and are
//! wrapped by `hvx_core::Error::Vio` at the public API boundary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blk;
mod error;
mod event_channel;
mod nic;
mod packet;
mod vhost;
mod virtqueue;
mod xen_net;

pub use blk::{Disk, SECTOR_SIZE};
pub use error::VioError;
pub use event_channel::{EventChannels, Port};
pub use nic::Nic;
pub use packet::{Packet, Wire};
pub use vhost::VhostNet;
pub use virtqueue::{DescChain, Descriptor, Virtqueue};
pub use xen_net::{NetBack, NetFront, RxRequest, RxResponse, TxRequest, TxResponse, XenNetRing};
