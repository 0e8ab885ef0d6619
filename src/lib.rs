//! # hvx — a mechanistic reproduction of "ARM Virtualization: Performance
//! # and Architectural Implications" (ISCA 2016)
//!
//! hvx is a discrete-event architectural simulator of ARM and x86
//! hardware virtualization, plus faithful software models of the four
//! hypervisor configurations the paper measures (split-mode KVM ARM,
//! Xen ARM with Dom0 I/O, KVM x86, Xen x86), the ARMv8.1 VHE projection,
//! and a native baseline — together with the paper's complete benchmark
//! suite.
//!
//! The facade re-exports every crate of the workspace:
//!
//! * [`engine`] — cycles, per-core clocks, traces, event queues;
//! * [`arch`] — ARMv8 exception levels / registers / traps / the VHE
//!   host's `E2H` bit and the x86 VMX model;
//! * [`gic`] — GICv2 with virtualization extensions, plus a LAPIC;
//! * [`mem`] — Stage-2 tables, physical memory, grant copies, TLB
//!   shootdown plans;
//! * [`vio`] — virtio/vhost and Xen PV I/O;
//! * [`core`] — the hypervisor models and the calibrated cost model;
//! * [`suite`] — microbenchmarks, workloads, and every table/figure
//!   harness.
//!
//! # Quickstart
//!
//! [`SimBuilder`] is the single documented entry point: name a
//! configuration, set the knobs of the paper's experimental design, and
//! run microbenchmarks or workloads on the returned [`Sim`]:
//!
//! ```
//! use hvx::{HvKind, SimBuilder, Workload};
//! use hvx::engine::TraceMode;
//!
//! let mut kvm = SimBuilder::new(HvKind::KvmArm)
//!     .workload(Workload::Netperf)
//!     .tracing(TraceMode::Off)
//!     .build()?;
//! let mut xen = SimBuilder::new(HvKind::XenArm).build()?;
//! // Table II's first row, mechanistically: 6,500 vs 376 cycles.
//! assert_eq!(kvm.hypercall(0).as_u64(), 6_500);
//! assert_eq!(xen.hypercall(0).as_u64(), 376);
//! # Ok::<(), hvx::Error>(())
//! ```
//!
//! Enable `.profiling(true)` and every cycle the machine charges is
//! attributed to the innermost open transition span; see
//! [`engine::ProfileSnapshot`] and `hvx-repro profile`.

#![warn(missing_docs)]

pub use hvx_arch as arch;
pub use hvx_core as core;
pub use hvx_engine as engine;
pub use hvx_gic as gic;
pub use hvx_mem as mem;
pub use hvx_suite as suite;
pub use hvx_vio as vio;

pub use hvx_core::{Error, HvKind, Sim, SimBuilder, Workload};
