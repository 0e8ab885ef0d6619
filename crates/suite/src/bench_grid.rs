//! The iteration scale of the benchmark grid.
//!
//! The paper-default suite is deliberately small (it reproduces tables,
//! not load), so per-scenario setup dominates and neither compiled
//! replay nor worker fan-out has anything to chew on. The benchmark in
//! `perfbench/` therefore runs the Figure 4 matrix (plus consolidation
//! and rack cells) with every mix's iteration count multiplied by
//! [`DEFAULT_SCALE`] ([`Mix::scaled`]), and keys its golden results on
//! that scale.
//!
//! [`Mix::scaled`]: crate::workloads::Mix::scaled

/// Default iteration multiplier. Chosen so the serial pass simulates
/// well past 10^8 transitions in roughly a second of host time: small
/// enough for CI, large enough that setup cost vanishes and the
/// parallel pass has real work per cell.
pub const DEFAULT_SCALE: u32 = 2_000;
