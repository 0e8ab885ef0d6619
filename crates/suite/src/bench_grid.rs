//! The iteration scale of the benchmark grid.
//!
//! The paper-default suite is deliberately small (it reproduces tables,
//! not load): `run --jobs N` fans its scenarios out, but per-scenario
//! setup dominates each one and compiled replay has little to chew on.
//! The benchmark in `perfbench/` therefore runs the Figure 4 matrix
//! (plus consolidation and rack cells) with every mix's iteration count
//! multiplied by [`DEFAULT_SCALE`] ([`Mix::scaled`]), fans that grid out
//! itself, and keys its golden results on that scale.
//!
//! A Figure 4 cell replays in closed form, so scaling its iterations
//! adds almost no host time: what the median cell costs is entering the
//! compile tier (building the models, then interpreting and recording
//! the 5–19 iterations that prove its period), not simulating.
//!
//! [`Mix::scaled`]: crate::workloads::Mix::scaled

/// Default iteration multiplier. The serial pass simulates about
/// 1.9×10^8 transitions in about 0.25 s of host time on a shared 2-vCPU
/// VM, nearly all of it in the interpreted consolidation cells.
pub const DEFAULT_SCALE: u32 = 2_000;
