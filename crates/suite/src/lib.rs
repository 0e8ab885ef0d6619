//! # hvx-suite — the paper's benchmark suite over the hvx models
//!
//! Reproduces every quantitative artifact of *"ARM Virtualization:
//! Performance and Architectural Implications"* (ISCA 2016):
//!
//! * [`micro`] — the seven Table I microbenchmarks and the Table II
//!   runner ([`micro::Table2`]);
//! * [`table3`] — the KVM ARM hypercall save/restore breakdown,
//!   regenerated from the transition trace;
//! * [`netperf`] — netperf TCP_RR with the Table V latency
//!   decomposition extracted from trace instants;
//! * [`workloads`] / [`fig4`] — the nine Figure 4 application workloads
//!   as operation mixes with emergent overheads;
//! * [`ablations`] — the §V interrupt-distribution ablation, the §V
//!   zero-copy analysis, and the §VI VHE projection;
//! * [`rack`] — the rack sweep: H hosts × N VMs serving TCP_RR traffic
//!   over the engine's sharded conservative-PDES executor, with per-host
//!   Xen-vs-KVM composition as the sweep axis;
//! * [`runner`] — the parallel scenario runner fanning the full artifact
//!   matrix across OS threads with byte-identical output to a serial run;
//! * [`service`] — the sweep-server executor: `hvx-serve`'s domain hooks
//!   wired to the spec runner and the content-addressed result cache;
//! * [`spec_run`] — runs a JSON `ScenarioSpec`; its paper-shape path
//!   ([`spec_run::run_paper_sim`]) and `<workload>-<hypervisor>` name
//!   codec serve `profile`, `trace` and the server's stored traces too;
//! * [`profile`] — workload profiling via the observability layer's span
//!   tracer: conservation-checked Table-3-style breakdowns per scenario;
//! * [`trace`] — causal event tracing: Chrome-trace/Perfetto exports of
//!   traced runs, a trace query/validation pass, and the tracing-overhead
//!   benchmark;
//! * [`paper`] — the published numbers every report compares against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod bench_grid;
pub mod cache;
pub mod consolidation;
pub mod diff;
pub mod fig4;
pub mod micro;
pub mod netperf;
pub mod paper;
pub mod profile;
pub mod rack;
pub mod runner;
pub mod service;
pub mod spec_run;
pub mod table3;
pub mod trace;
pub mod workloads;
