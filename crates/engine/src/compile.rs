//! Steady-state loop compilation: record → detect → replay.
//!
//! Every scenario in the suite spends almost all of its time in one
//! iteration loop whose per-iteration transition sequence is *steady*:
//! the same charges with the same costs, the same signal/wait pairs,
//! block after block. Interpreting that loop pays per-transition
//! dispatch (cost-model lookup, tracer branching, enum matching)
//! millions of times for work that is fully determined after a handful
//! of iterations.
//!
//! This module compiles such loops. While a loop session is open
//! ([`crate::Machine::loop_begin`]), the machine records each
//! transition as a [`RawOp`]. After every recorded iteration the
//! recorder looks for a period `p ≤ MAX_PERIOD` such that the last
//! [`CONFIRM_BLOCKS`] blocks of `p` iterations are *congruent*:
//! identical op streams (ignoring variable fields such as wait targets
//! and signal arrivals) with identical per-core block-start clock
//! deltas.
//!
//! # Recording and detection
//!
//! The recorder keeps one flat op log, a table of iteration bounds and
//! one arena of clock snapshots (taken at every iteration start, wait
//! and register update); ops and iterations refer to snapshots by
//! offset. A session therefore allocates only when one of those three
//! vectors grows. Closing an iteration folds the congruence key of each
//! of its ops (exactly the fields congruence compares) into a
//! polynomial hash and keeps it with `B^len`, so the hash of `p`
//! consecutive iterations is a fold of `p` pairs. After every
//! iteration each candidate period is *screened* first: its blocks must
//! have equal lengths and equal hashes, which costs
//! `O(CONFIRM_BLOCKS · p)` integer operations. Congruent blocks always
//! hash equally, so the screen never rejects a period the exact test
//! would accept. A candidate that passes has its clock deltas checked,
//! then is compared op by op, then built. Every check must pass, so
//! their order decides nothing: the smallest period wins, exactly as
//! without the screen.
//!
//! Once confirmed, the variable fields are classified:
//!
//! - a wait target that always equals a signal arrival held in a
//!   *slot* (covering both same-block signal→wait and cross-block
//!   pipelining) becomes [`Op::WaitSlot`];
//! - a target at a constant offset from some core's clock at the wait
//!   becomes [`Op::WaitNow`];
//! - a target advancing by a constant stride per block becomes
//!   [`Op::WaitLin`] (a constant target is the stride-0 case).
//!
//! Loop registers (suite-side loop-carried values such as TCP_RR's
//! next send instant) classify the same way. Anything unclassifiable
//! fails the compile and the loop stays interpreted — falling back is
//! always correct, compiling is only ever an optimization.
//!
//! The compiled [`Program`] is a flat op array. Busy, charged and
//! transition totals are applied as `delta × blocks`, and the clocks
//! and the program's live state advance in closed form (below), so a
//! replay costs in proportion to the steady regimes a loop passes
//! through, not to its iteration count. Machines whose charges feed
//! anything else (a trace log, spans, flows) never open a session.
//! Before a program is accepted, the compiler steps the final recorded
//! block from its recorded start clocks and requires the result to
//! equal the machine's current clocks exactly — a self-check that
//! catches any misclassification before a single iteration is skipped.
//!
//! # Closed-form replay
//!
//! Every op is `v := u + c` (charges, signals, registers, linear
//! accumulators) or `v := max(v, u + c)` (the three waits). One block
//! is therefore a max-plus affine map of the state: the clocks, the
//! signal slots, the linear accumulators and the registers. Replay
//! steps two blocks op by op, recording both operands of every wait.
//! Suppose both blocks pick the same winner at every wait (a tie counts
//! for either side) and move every state value by the same `Δ`. With
//! the winners fixed, the block is `x ↦ x∘π + b`, so `Δ₂ = Δ₁∘π`, and
//! equal observed deltas give `Δ∘π = Δ`: each later block moves the
//! state by exactly `Δ`, for as long as every wait keeps its winner. A
//! wait's margin (target minus clock) changes by a constant slope per
//! block, so a shrinking margin keeps its sign for another
//! `⌊|margin| / |slope|⌋` blocks. Replay jumps `J` blocks at once: the
//! least of those bounds, the blocks remaining, and the blocks before
//! any value (or wait operand) would leave `u64`. All arithmetic is
//! exact, so every simulated cycle is the interpreter's.
//!
//! After a jump, replay steps again where the next regime begins. When
//! the two blocks disagree, it steps on and tries again later; each
//! attempt that jumps fewer blocks than it stepped doubles the number
//! of plain steps before the next one, so a loop that never settles
//! pays next to nothing for the attempts. Fewer than three remaining
//! blocks are always stepped.

use crate::fault::splitmix64;
use crate::TraceKind;
use std::cmp::Ordering;

/// Longest iteration period (in iterations) the detector considers.
/// Covers per-iteration round-robin vCPU rotation (period = #vCPUs)
/// composed with event-coalescing parity (period 2) on 4-vCPU guests.
pub const MAX_PERIOD: usize = 8;

/// Consecutive congruent blocks required before a loop compiles.
pub const CONFIRM_BLOCKS: usize = 4;

/// Recorded iterations after which detection gives up and the session
/// reverts to plain interpretation (bounds recording memory).
pub const GIVE_UP_ITERS: usize = MAX_PERIOD * CONFIRM_BLOCKS * 2;

/// One machine-level operation captured while recording a loop.
/// Variable fields (arrivals, targets, clock snapshots, register
/// values) are excluded from congruence and classified separately.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RawOp {
    /// A cost charge on one core (one simulated transition).
    Charge {
        core: u8,
        kind: TraceKind,
        cost: u64,
    },
    /// A cross-core signal; `arrival` is the computed arrival instant.
    Signal {
        from: u8,
        to: u8,
        latency: u64,
        arrival: u64,
    },
    /// A wait; `snap` is the offset of the snapshot of every core clock
    /// taken *before* the max (see [`Recorder::snapshot`]).
    Wait { core: u8, target: u64, snap: usize },
    /// Suite-side loop register update, with a clock snapshot.
    Reg { idx: u8, value: u64, snap: usize },
}

impl RawOp {
    /// A digest of exactly the fields [`congruent`] compares, so
    /// congruent ops always share a key.
    fn key(&self) -> u64 {
        let (tag, fields, wide) = match *self {
            RawOp::Charge { core, kind, cost } => (0, u64::from(core) | ((kind as u64) << 8), cost),
            RawOp::Signal {
                from, to, latency, ..
            } => (1, u64::from(from) | (u64::from(to) << 8), latency),
            RawOp::Wait { core, .. } => (2, u64::from(core), 0),
            RawOp::Reg { idx, .. } => (3, u64::from(idx), 0),
        };
        splitmix64(splitmix64((fields << 2) | tag) ^ wide)
    }
}

/// Whether the blocks are op-for-op congruent: equal lengths and
/// structurally equal ops.
fn congruent_blocks(blocks: &[&[RawOp]; CONFIRM_BLOCKS]) -> bool {
    let first = blocks[0];
    blocks[1..]
        .iter()
        .all(|b| b.len() == first.len() && first.iter().zip(b.iter()).all(|(x, y)| congruent(x, y)))
}

/// Structural equality ignoring variable fields.
fn congruent(a: &RawOp, b: &RawOp) -> bool {
    use RawOp::*;
    match (a, b) {
        (
            Charge {
                core: c1,
                kind: k1,
                cost: x1,
            },
            Charge {
                core: c2,
                kind: k2,
                cost: x2,
            },
        ) => c1 == c2 && k1 == k2 && x1 == x2,
        (
            Signal {
                from: f1,
                to: t1,
                latency: l1,
                ..
            },
            Signal {
                from: f2,
                to: t2,
                latency: l2,
                ..
            },
        ) => f1 == f2 && t1 == t2 && l1 == l2,
        (Wait { core: c1, .. }, Wait { core: c2, .. }) => c1 == c2,
        (Reg { idx: i1, .. }, Reg { idx: i2, .. }) => i1 == i2,
        _ => false,
    }
}

/// A pre-resolved compiled operation. No HashMap lookups, no cost
/// model, no tracer branches — just index arithmetic over `clocks`,
/// `slots`, and `lin` arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `clocks[core] += cost`.
    Charge { core: u8, cost: u64 },
    /// `slots[slot] = clocks[from] + latency`.
    Signal { slot: u16, from: u8, latency: u64 },
    /// `clocks[core] = max(clocks[core], slots[slot])`.
    WaitSlot { core: u8, slot: u16 },
    /// `clocks[core] = max(clocks[core], clocks[src] ⊞ offset)`
    /// (`⊞` = wrapping add; `offset` is two's-complement).
    WaitNow { core: u8, src: u8, offset: u64 },
    /// `lin[lin] ⊞= step; clocks[core] = max(clocks[core], lin[lin])`.
    WaitLin { core: u8, lin: u16, step: u64 },
    /// `regs[idx] = clocks[src] ⊞ offset`.
    RegNow { idx: u8, src: u8, offset: u64 },
    /// `lin[lin] ⊞= step; regs[idx] = lin[lin]`.
    RegLin { idx: u8, lin: u16, step: u64 },
}

/// A compiled steady-state loop: the flat op array, its live state,
/// and the per-block aggregates replay charges in bulk.
///
/// [`Program::run_blocks`] replays in closed form (see the module
/// doc). It steps a block op by op only to observe a regime (two
/// blocks per attempt), while fewer than three blocks remain, or
/// while backing off after an attempt that jumped fewer blocks than it
/// stepped. A jump covers every other block.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// Iterations per block.
    pub(crate) period: u64,
    ops: Vec<Op>,
    /// The state besides the clocks.
    pub(crate) live: Live,
    /// Per-core busy-cycle delta per block.
    pub(crate) busy_delta: Vec<u64>,
    /// Total charged cycles per block.
    pub(crate) charged_delta: u64,
    /// Charges (simulated transitions) per block.
    pub(crate) charges_per_block: u64,
    /// Zero-cost charges trailing the last nonzero charge in a block.
    pub(crate) tail_zero_run: u64,
    /// True when the block has charges and all of them are zero-cost.
    pub(crate) all_zero: bool,
    /// What the last jump attempt saw; sized at build, so replay
    /// allocates nothing.
    seen: Observed,
    /// Blocks to step before the next jump attempt.
    backoff: u64,
    /// `backoff` after the next attempt that does not pay: it doubles
    /// on every such attempt and resets on one that does.
    next_backoff: u64,
}

/// A program's live state besides the clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Live {
    /// Signal-arrival slots (cross-block pipelining state).
    slots: Vec<u64>,
    /// Linear accumulators (one per `WaitLin`/`RegLin` op).
    lin: Vec<u64>,
    /// Loop-register values, readable via `Machine::loop_reg`.
    pub(crate) regs: Vec<u64>,
}

impl Live {
    fn values(&self) -> impl Iterator<Item = &u64> {
        self.slots.iter().chain(&self.lin).chain(&self.regs)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.slots
            .iter_mut()
            .chain(&mut self.lin)
            .chain(&mut self.regs)
    }
}

/// Two consecutive blocks as a jump attempt saw them. A state is the
/// clocks followed by [`Live::values`].
#[derive(Debug, Clone)]
struct Observed {
    /// The state before the first block.
    start: Vec<u64>,
    /// The state between the two blocks.
    mid: Vec<u64>,
    /// `(clock, target)` at every wait: the first block's, then the
    /// second's.
    waits: Vec<(u64, u64)>,
}

/// Steps `blocks` blocks op by op, passing each wait's operands (the
/// waiting clock, then the target) to `observe`.
#[inline]
fn step_blocks(
    ops: &[Op],
    live: &mut Live,
    clocks: &mut [u64],
    blocks: u64,
    mut observe: impl FnMut(u64, u64),
) {
    for _ in 0..blocks {
        for op in ops {
            match *op {
                Op::Charge { core, cost } => clocks[core as usize] += cost,
                Op::Signal {
                    slot,
                    from,
                    latency,
                } => live.slots[slot as usize] = clocks[from as usize] + latency,
                Op::WaitSlot { core, slot } => {
                    let t = live.slots[slot as usize];
                    let c = &mut clocks[core as usize];
                    observe(*c, t);
                    if t > *c {
                        *c = t;
                    }
                }
                Op::WaitNow { core, src, offset } => {
                    let t = clocks[src as usize].wrapping_add(offset);
                    let c = &mut clocks[core as usize];
                    observe(*c, t);
                    if t > *c {
                        *c = t;
                    }
                }
                Op::WaitLin { core, lin, step } => {
                    let t = live.lin[lin as usize].wrapping_add(step);
                    live.lin[lin as usize] = t;
                    let c = &mut clocks[core as usize];
                    observe(*c, t);
                    if t > *c {
                        *c = t;
                    }
                }
                Op::RegNow { idx, src, offset } => {
                    live.regs[idx as usize] = clocks[src as usize].wrapping_add(offset);
                }
                Op::RegLin { idx, lin, step } => {
                    let v = live.lin[lin as usize].wrapping_add(step);
                    live.lin[lin as usize] = v;
                    live.regs[idx as usize] = v;
                }
            }
        }
    }
}

/// Blocks a value that moved from `prev` to `cur` in one block can keep
/// moving at that rate without leaving `u64`.
fn headroom(prev: u64, cur: u64) -> u64 {
    match cur.cmp(&prev) {
        Ordering::Greater => (u64::MAX - cur) / (cur - prev),
        Ordering::Less => cur / (prev - cur),
        Ordering::Equal => u64::MAX,
    }
}

impl Program {
    /// Replays `blocks` blocks in place over `clocks`, advancing the
    /// live state. Returns how many of them were stepped op by op; a
    /// jump covered the rest.
    pub(crate) fn run_blocks(&mut self, clocks: &mut [u64], blocks: u64) -> u64 {
        let mut left = blocks;
        let mut stepped = 0;
        while left > 0 {
            if left < 3 || self.backoff > 0 {
                let n = if left < 3 {
                    left
                } else {
                    self.backoff.min(left)
                };
                step_blocks(&self.ops, &mut self.live, clocks, n, |_, _| {});
                self.backoff = self.backoff.saturating_sub(n);
                left -= n;
                stepped += n;
                continue;
            }
            self.observe_two(clocks);
            left -= 2;
            stepped += 2;
            let jump = self.jump_len(clocks, left);
            self.jump(clocks, jump);
            left -= jump;
            if jump >= 2 {
                self.next_backoff = 1;
            } else {
                self.backoff = self.next_backoff;
                self.next_backoff = self.next_backoff.saturating_mul(2);
            }
        }
        stepped
    }

    /// Steps two blocks, recording the state before, between and
    /// (left in place) after them, and the operands of every wait.
    fn observe_two(&mut self, clocks: &mut [u64]) {
        let seen = &mut self.seen;
        seen.waits.clear();
        seen.start.clear();
        seen.start.extend(clocks.iter().chain(self.live.values()));
        step_blocks(&self.ops, &mut self.live, clocks, 1, |c, t| {
            seen.waits.push((c, t));
        });
        seen.mid.clear();
        seen.mid.extend(clocks.iter().chain(self.live.values()));
        step_blocks(&self.ops, &mut self.live, clocks, 1, |c, t| {
            seen.waits.push((c, t));
        });
    }

    /// How many more blocks the regime the last two blocks observed
    /// provably lasts, at most `left`: 0 unless both blocks chose the
    /// same winner at every wait (a tie counts for either side) and
    /// moved every state value by the same delta. Then every wait's
    /// margin (target minus clock) moves by a constant slope per block,
    /// and the winners hold for `⌊|margin| / |slope|⌋` more blocks of a
    /// shrinking margin. The result also keeps every value, and every
    /// wait operand, within `u64`.
    fn jump_len(&self, clocks: &[u64], left: u64) -> u64 {
        let seen = &self.seen;
        let (first, second) = seen.waits.split_at(seen.waits.len() / 2);
        let mut jump = left;
        for (&(c1, t1), &(c2, t2)) in first.iter().zip(second) {
            let m1 = i128::from(t1) - i128::from(c1);
            let m2 = i128::from(t2) - i128::from(c2);
            if m1.signum() * m2.signum() < 0 {
                return 0;
            }
            let slope = m2 - m1;
            if slope != 0 && slope.signum() != m2.signum() {
                let blocks = m2.unsigned_abs() / slope.unsigned_abs();
                jump = jump.min(u64::try_from(blocks).unwrap_or(u64::MAX));
            }
            jump = jump.min(headroom(c1, c2)).min(headroom(t1, t2));
        }
        let now = clocks.iter().chain(self.live.values());
        for ((&x0, &x1), &x2) in seen.start.iter().zip(&seen.mid).zip(now) {
            if i128::from(x1) - i128::from(x0) != i128::from(x2) - i128::from(x1) {
                return 0;
            }
            jump = jump.min(headroom(x1, x2));
        }
        jump
    }

    /// Advances the state by `blocks` blocks of the regime the last two
    /// blocks observed: every value moves by `blocks` times its delta
    /// over the second block. `blocks` comes from
    /// [`Program::jump_len`], so no value leaves `u64`.
    fn jump(&mut self, clocks: &mut [u64], blocks: u64) {
        if blocks == 0 {
            return;
        }
        let now = clocks.iter_mut().chain(self.live.values_mut());
        for (x, &prev) in now.zip(&self.seen.mid) {
            *x = if *x >= prev {
                *x + blocks * (*x - prev)
            } else {
                *x - blocks * (prev - *x)
            };
        }
    }
}

/// Multiplier of the per-iteration polynomial hash (odd, so every
/// power of it is odd and no key is ever multiplied away).
const HASH_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One closed iteration: its ops in the flat log, its start-clock
/// snapshot, and the congruence hash of its ops.
#[derive(Debug, Clone, Copy)]
struct Iter {
    /// Offset of the iteration's first op in [`Recorder::ops`].
    start: usize,
    /// One past the offset of its last op.
    end: usize,
    /// Offset of the iteration-start snapshot in [`Recorder::snaps`].
    snap: usize,
    /// `Σ key(op_i) · B^(len-1-i)` over the iteration's ops.
    hash: u64,
    /// `B^len`.
    pow: u64,
}

/// A recording loop session: one flat op log with iteration bounds,
/// and one arena of clock snapshots (see the module doc).
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    /// Clock words per snapshot.
    cores: usize,
    /// Every op recorded in the session, iteration after iteration.
    ops: Vec<RawOp>,
    /// The closed iterations, in order.
    iters: Vec<Iter>,
    /// Clock snapshots, `cores` words each.
    snaps: Vec<u64>,
    /// The open iteration's first op and start snapshot.
    open: Option<(usize, usize)>,
}

impl Recorder {
    /// An empty recording for a machine with `cores` cores.
    pub(crate) fn new(cores: usize) -> Recorder {
        Recorder {
            cores,
            ops: Vec::new(),
            iters: Vec::new(),
            snaps: Vec::new(),
            open: None,
        }
    }

    /// Records one op. Returns `false` (→ abort the session) when an
    /// op arrives outside an open iteration: the loop body is then not
    /// the only thing charging the machine and skipping is unsound.
    pub(crate) fn record(&mut self, op: RawOp) -> bool {
        if self.open.is_none() {
            return false;
        }
        self.ops.push(op);
        true
    }

    /// Appends a snapshot of the clocks and returns its offset, for a
    /// [`RawOp::Wait`] or [`RawOp::Reg`] to refer to.
    pub(crate) fn snapshot(&mut self, clocks: impl IntoIterator<Item = u64>) -> usize {
        let at = self.snaps.len();
        self.snaps.extend(clocks);
        at
    }

    /// The snapshot at `offset`.
    fn snap(&self, offset: usize) -> &[u64] {
        &self.snaps[offset..offset + self.cores]
    }

    /// Opens the next iteration with the machine's current clocks,
    /// closing the open one first. Returns whether one was open.
    pub(crate) fn begin_iter(&mut self, clocks: impl IntoIterator<Item = u64>) -> bool {
        let closed = self.close_iter();
        let snap = self.snapshot(clocks);
        self.open = Some((self.ops.len(), snap));
        closed
    }

    /// Closes the current iteration, if one is open, and hashes its
    /// ops. Returns whether one was open.
    pub(crate) fn close_iter(&mut self) -> bool {
        let Some((start, snap)) = self.open.take() else {
            return false;
        };
        let (hash, pow) = self.ops[start..].iter().fold((0u64, 1u64), |(h, pow), op| {
            (
                h.wrapping_mul(HASH_BASE).wrapping_add(op.key()),
                pow.wrapping_mul(HASH_BASE),
            )
        });
        self.iters.push(Iter {
            start,
            end: self.ops.len(),
            snap,
            hash,
            pow,
        });
        true
    }

    pub(crate) fn recorded_iters(&self) -> usize {
        self.iters.len()
    }

    /// Attempts to compile: smallest period wins. `current` must be
    /// the machine's clocks at the end of the last closed iteration.
    /// A candidate period runs the checks from the cheapest up: the
    /// hash screen, the per-core clock deltas, the exact op-by-op
    /// congruence check (each one reached adds to `checks`), then the
    /// build and its self-check. All four must pass, so their order
    /// decides nothing.
    pub(crate) fn try_compile(&self, current: &[u64], checks: &mut u64) -> Option<Program> {
        for p in 1..=MAX_PERIOD {
            if CONFIRM_BLOCKS * p > self.iters.len() {
                break;
            }
            let base = self.iters.len() - CONFIRM_BLOCKS * p;
            if !self.screen(base, p) || !self.steady_clocks(base, p, current) {
                continue;
            }
            *checks += 1;
            let blocks = self.blocks(base, p);
            if congruent_blocks(&blocks) {
                if let Some(prog) = self.build(&blocks, p, base, current) {
                    return Some(prog);
                }
            }
        }
        None
    }

    /// The iterations of block `b` of the `p`-blocks starting at
    /// iteration `base`.
    fn block_iters(&self, base: usize, p: usize, b: usize) -> &[Iter] {
        &self.iters[base + b * p..base + (b + 1) * p]
    }

    /// The ops of each `p`-block starting at iteration `base`: each
    /// block is one contiguous run of the log.
    fn blocks(&self, base: usize, p: usize) -> [&[RawOp]; CONFIRM_BLOCKS] {
        std::array::from_fn(|b| {
            let iters = self.block_iters(base, p, b);
            &self.ops[iters[0].start..iters[p - 1].end]
        })
    }

    /// The hash screen: whether every `p`-block has block 0's length
    /// and concatenation hash. Congruent blocks always pass.
    fn screen(&self, base: usize, p: usize) -> bool {
        let digest = |b: usize| {
            let iters = self.block_iters(base, p, b);
            let hash = iters
                .iter()
                .fold(0u64, |h, it| h.wrapping_mul(it.pow).wrapping_add(it.hash));
            (iters[p - 1].end - iters[0].start, hash)
        };
        let first = digest(0);
        (1..CONFIRM_BLOCKS).all(|b| digest(b) == first)
    }

    /// Whether the block-start clock deltas are identical between every
    /// consecutive block pair, per core, with the current clocks acting
    /// as the final block's end.
    fn steady_clocks(&self, base: usize, p: usize, current: &[u64]) -> bool {
        let w = CONFIRM_BLOCKS;
        let start = |b: usize| self.snap(self.iters[base + b * p].snap);
        current.iter().enumerate().all(|(c, &cur)| {
            let d0 = start(1)[c].wrapping_sub(start(0)[c]);
            (1..w - 1).all(|b| start(b + 1)[c].wrapping_sub(start(b)[c]) == d0)
                && cur.wrapping_sub(start(w - 1)[c]) == d0
        })
    }

    /// Classifies variable fields and assembles the program, then
    /// self-checks by replaying the final recorded block.
    #[allow(clippy::too_many_lines)]
    fn build(
        &self,
        block: &[&[RawOp]; CONFIRM_BLOCKS],
        p: usize,
        base: usize,
        current: &[u64],
    ) -> Option<Program> {
        let w = CONFIRM_BLOCKS;
        let len = block[0].len();
        // Slot table: one per signal op position in the block.
        let sig_pos: Vec<usize> = (0..len)
            .filter(|&k| matches!(block[0][k], RawOp::Signal { .. }))
            .collect();
        if sig_pos.len() > u16::MAX as usize {
            return None;
        }
        let arrival = |b: usize, k: usize| match block[b][k] {
            RawOp::Signal { arrival, .. } => arrival,
            _ => unreachable!("slot positions are signals"),
        };
        // For each variable value (wait target / reg value), pick a
        // classification that holds on every recorded instance.
        let cores = current.len();
        let classify = |k: usize,
                        allow_slot: bool,
                        targets: &dyn Fn(usize) -> u64,
                        snaps: &dyn Fn(usize, usize) -> u64,
                        lin_seed: &mut Vec<(u64, u64)>|
         -> Option<Classified> {
            // Slot: target equals the value a slot holds at this point
            // of the block — the arrival from this block for signals
            // earlier in the block, the previous block's arrival for
            // signals at or after this position (cross-block
            // pipelining). Prefer the most recent qualifying signal.
            let slot_value = |slot: usize, b: usize| -> Option<u64> {
                let spos = sig_pos[slot];
                if spos < k {
                    Some(arrival(b, spos))
                } else if b > 0 {
                    Some(arrival(b - 1, spos))
                } else {
                    None // unverifiable on the first block; allowed
                }
            };
            if allow_slot {
                for slot in (0..sig_pos.len()).rev() {
                    if (0..w).all(|b| slot_value(slot, b).is_none_or(|v| v == targets(b))) {
                        return Some(Classified::Slot(slot as u16));
                    }
                }
            }
            // Now: constant offset from some core's clock at this op.
            for src in 0..cores {
                let d0 = targets(0).wrapping_sub(snaps(0, src));
                if (1..w).all(|b| targets(b).wrapping_sub(snaps(b, src)) == d0) {
                    return Some(Classified::Now {
                        src: src as u8,
                        offset: d0,
                    });
                }
            }
            // Linear: constant stride per block (0 = constant value).
            let step = targets(1).wrapping_sub(targets(0));
            if (1..w - 1).all(|b| targets(b + 1).wrapping_sub(targets(b)) == step) {
                let idx = lin_seed.len() as u16;
                if idx == u16::MAX {
                    return None;
                }
                // Seed with the value observed in the second-to-last
                // block (the self-check block steps it to the last).
                lin_seed.push((targets(w - 2), step));
                return Some(Classified::Lin { idx, step });
            }
            None
        };

        let mut ops = Vec::with_capacity(len);
        let mut lin_seed: Vec<(u64, u64)> = Vec::new();
        let mut max_reg = 0usize;
        let mut has_reg = false;
        let mut busy_delta = vec![0u64; current.len()];
        let mut charged_delta = 0u64;
        let mut charges = 0u64;
        let mut tail_zero = 0u64;
        let mut any_nonzero = false;
        let mut next_slot = 0u16;
        for (k, &op0) in block[0].iter().enumerate() {
            match op0 {
                RawOp::Charge {
                    core,
                    kind: _,
                    cost,
                } => {
                    ops.push(Op::Charge { core, cost });
                    busy_delta[core as usize] += cost;
                    charged_delta += cost;
                    charges += 1;
                    if cost == 0 {
                        tail_zero += 1;
                    } else {
                        tail_zero = 0;
                        any_nonzero = true;
                    }
                }
                RawOp::Signal { from, latency, .. } => {
                    ops.push(Op::Signal {
                        slot: next_slot,
                        from,
                        latency,
                    });
                    next_slot += 1;
                }
                RawOp::Wait { core, .. } => {
                    let targets = |b: usize| match block[b][k] {
                        RawOp::Wait { target, .. } => target,
                        _ => unreachable!(),
                    };
                    let snaps = |b: usize, src: usize| -> u64 {
                        match block[b][k] {
                            RawOp::Wait { snap, .. } => self.snaps[snap + src],
                            _ => unreachable!(),
                        }
                    };
                    match classify(k, true, &targets, &snaps, &mut lin_seed)? {
                        Classified::Slot(slot) => ops.push(Op::WaitSlot { core, slot }),
                        Classified::Now { src, offset } => {
                            ops.push(Op::WaitNow { core, src, offset });
                        }
                        Classified::Lin { idx, step } => ops.push(Op::WaitLin {
                            core,
                            lin: idx,
                            step,
                        }),
                    }
                }
                RawOp::Reg { idx, .. } => {
                    let targets = |b: usize| match block[b][k] {
                        RawOp::Reg { value, .. } => value,
                        _ => unreachable!(),
                    };
                    let snaps = |b: usize, src: usize| -> u64 {
                        match block[b][k] {
                            RawOp::Reg { snap, .. } => self.snaps[snap + src],
                            _ => unreachable!(),
                        }
                    };
                    max_reg = max_reg.max(idx as usize);
                    has_reg = true;
                    match classify(k, false, &targets, &snaps, &mut lin_seed)? {
                        Classified::Slot(_) => unreachable!("regs never classify as slots"),
                        Classified::Now { src, offset } => {
                            ops.push(Op::RegNow { idx, src, offset });
                        }
                        Classified::Lin { idx: lin, step } => {
                            ops.push(Op::RegLin { idx, lin, step });
                        }
                    }
                }
            }
        }
        // Live state seeded from the *second-to-last* block so the
        // self-check replay of the last block starts from truth.
        let start = |b: usize| self.snap(self.iters[base + b * p].snap);
        let slots_at = |b: usize| -> Vec<u64> { sig_pos.iter().map(|&s| arrival(b, s)).collect() };
        let regs_at = |b: usize| -> Vec<u64> {
            let mut regs = vec![0u64; if has_reg { max_reg + 1 } else { 0 }];
            for op in block[b] {
                if let RawOp::Reg { idx, value, .. } = *op {
                    regs[idx as usize] = value;
                }
            }
            regs
        };
        let live = Live {
            slots: slots_at(w - 2),
            lin: lin_seed.iter().map(|&(v, _)| v).collect(),
            regs: regs_at(w - 2),
        };
        let state_len = cores + live.values().count();
        let waits = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::WaitSlot { .. } | Op::WaitNow { .. } | Op::WaitLin { .. }
                )
            })
            .count();
        let mut check = Program {
            period: p as u64,
            ops,
            live,
            busy_delta,
            charged_delta,
            charges_per_block: charges,
            tail_zero_run: tail_zero,
            all_zero: charges > 0 && !any_nonzero,
            seen: Observed {
                start: Vec::with_capacity(state_len),
                mid: Vec::with_capacity(state_len),
                waits: Vec::with_capacity(2 * waits),
            },
            backoff: 0,
            next_backoff: 1,
        };
        // Self-check: step the last recorded block (a single block is
        // always stepped) and require exact clock agreement with the
        // machine.
        let mut clocks: Vec<u64> = start(w - 1).to_vec();
        check.run_blocks(&mut clocks, 1);
        if clocks != current {
            return None;
        }
        // The check stepped lin/slots/regs to the last block's values,
        // which is exactly the live state replay must resume from — but
        // recompute from the record to stay obviously correct even if
        // the stepper drifts.
        check.live.slots = slots_at(w - 1);
        check.live.regs = regs_at(w - 1);
        check.live.lin = lin_seed
            .iter()
            .map(|&(v, step)| v.wrapping_add(step))
            .collect();
        Some(check)
    }
}

/// Result of classifying one variable field.
enum Classified {
    Slot(u16),
    Now { src: u8, offset: u64 },
    Lin { idx: u16, step: u64 },
}

/// The state a loop session carries on the machine.
#[derive(Debug, Clone)]
pub(crate) enum LoopState {
    /// Recording iterations, hunting for a steady period.
    Recording(Recorder),
    /// Compiled; iterations replay in bulk.
    Ready(Program),
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Recorder {
        /// The detector without its hash screen, its checks in their
        /// original order: equal block lengths, op-by-op congruence,
        /// clock deltas, build. The reference the screened
        /// [`Recorder::try_compile`] must match.
        fn try_compile_unscreened(&self, current: &[u64]) -> Option<Program> {
            for p in 1..=MAX_PERIOD {
                if CONFIRM_BLOCKS * p > self.iters.len() {
                    break;
                }
                let base = self.iters.len() - CONFIRM_BLOCKS * p;
                let blocks = self.blocks(base, p);
                if congruent_blocks(&blocks) && self.steady_clocks(base, p, current) {
                    if let Some(prog) = self.build(&blocks, p, base, current) {
                        return Some(prog);
                    }
                }
            }
            None
        }
    }

    /// One step of a generated loop body.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Charge {
            core: u8,
            kind: TraceKind,
            cost: u64,
        },
        /// A signal whose arrival lands in mailbox `slot`.
        Send {
            from: u8,
            to: u8,
            latency: u64,
            slot: usize,
        },
        /// A wait for mailbox `slot`'s latest arrival.
        Recv { core: u8, slot: usize },
        /// A wait for `lead + iteration · stride`.
        Paced { core: u8, lead: u64, stride: u64 },
        /// A loop register set to a core's clock plus `offset`.
        Reg { idx: u8, core: u8, offset: u64 },
    }

    /// Deterministic generator (counter-based splitmix64).
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            splitmix64(self.0) % n
        }
    }

    const KINDS: [TraceKind; 3] = [TraceKind::Guest, TraceKind::Trap, TraceKind::Io];

    fn body(g: &mut Gen, cores: u64) -> Vec<Step> {
        let core = |g: &mut Gen| g.below(cores) as u8;
        (0..2 + g.below(7))
            .map(|_| match g.below(6) {
                0 | 1 => Step::Charge {
                    core: core(g),
                    kind: KINDS[g.below(3) as usize],
                    cost: 1 + g.below(4) * 500,
                },
                2 => Step::Send {
                    from: core(g),
                    to: core(g),
                    latency: 100 + g.below(3) * 300,
                    slot: g.below(2) as usize,
                },
                3 => Step::Recv {
                    core: core(g),
                    slot: g.below(2) as usize,
                },
                4 => Step::Paced {
                    core: core(g),
                    lead: g.below(5_000),
                    stride: 500 + g.below(4) * 1_000,
                },
                _ => Step::Reg {
                    idx: g.below(2) as u8,
                    core: core(g),
                    offset: g.below(1_000),
                },
            })
            .collect()
    }

    /// The machine semantics of each op, recorded as the machine
    /// records them.
    struct Rig {
        clocks: Vec<u64>,
        mail: [u64; 2],
        rec: Recorder,
    }

    impl Rig {
        fn step(&mut self, step: Step, iteration: u64) {
            let op = match step {
                Step::Charge { core, kind, cost } => {
                    self.clocks[core as usize] += cost;
                    RawOp::Charge { core, kind, cost }
                }
                Step::Send {
                    from,
                    to,
                    latency,
                    slot,
                } => {
                    let arrival = self.clocks[from as usize] + latency;
                    self.mail[slot] = arrival;
                    RawOp::Signal {
                        from,
                        to,
                        latency,
                        arrival,
                    }
                }
                Step::Recv { core, slot } => self.wait(core, self.mail[slot]),
                Step::Paced { core, lead, stride } => self.wait(core, lead + iteration * stride),
                Step::Reg { idx, core, offset } => {
                    let snap = self.rec.snapshot(self.clocks.iter().copied());
                    RawOp::Reg {
                        idx,
                        value: self.clocks[core as usize] + offset,
                        snap,
                    }
                }
            };
            assert!(self.rec.record(op));
        }

        fn wait(&mut self, core: u8, target: u64) -> RawOp {
            let snap = self.rec.snapshot(self.clocks.iter().copied());
            let clock = &mut self.clocks[core as usize];
            *clock = (*clock).max(target);
            RawOp::Wait { core, target, snap }
        }
    }

    /// What both detectors must agree on.
    fn outcome(program: Option<Program>) -> Option<(u64, Vec<Op>, Live)> {
        program.map(|p| (p.period, p.ops, p.live))
    }

    /// How a generated case departs from a clean periodic loop.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Twist {
        None,
        /// One op of one iteration has its cost moved by a cycle.
        NearMissCost,
        /// One paced wait of one iteration has its target moved.
        NearMissTarget,
        /// One iteration boundary moves by one op.
        ShiftedBoundary,
    }

    /// Runs one generated case through both detectors after every
    /// iteration. Returns the twist and whether the loop compiled.
    fn run_case(seed: u64) -> (Twist, bool) {
        let mut g = Gen(seed << 20);
        let cores = 2 + g.below(3);
        let period = 1 + g.below(4) as usize;
        let bodies: Vec<Vec<Step>> = (0..period).map(|_| body(&mut g, cores)).collect();
        let warm = g.below(6) as usize;
        let warm_body = body(&mut g, cores);
        let mut iters: Vec<Vec<(Step, u64)>> = (0..GIVE_UP_ITERS)
            .map(|i| {
                let steps = if i < warm {
                    &warm_body
                } else {
                    &bodies[i % period]
                };
                steps.iter().map(|&s| (s, i as u64)).collect()
            })
            .collect();
        let twist = [
            Twist::None,
            Twist::NearMissCost,
            Twist::NearMissTarget,
            Twist::ShiftedBoundary,
        ][g.below(4) as usize];
        let at = warm + g.below(12) as usize;
        match twist {
            Twist::None => {}
            Twist::NearMissCost | Twist::NearMissTarget => {
                for (step, _) in &mut iters[at] {
                    match step {
                        Step::Charge { cost, .. } if twist == Twist::NearMissCost => {
                            *cost += 1;
                            break;
                        }
                        Step::Paced { lead, .. } if twist == Twist::NearMissTarget => {
                            *lead += 1 + g.below(3_000);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            Twist::ShiftedBoundary => {
                // Iteration `at` ends one op early or one op late.
                if g.below(2) == 0 {
                    if let Some(last) = iters[at].pop() {
                        iters[at + 1].insert(0, last);
                    }
                } else if !iters[at + 1].is_empty() {
                    let first = iters[at + 1].remove(0);
                    iters[at].push(first);
                }
            }
        }
        let mut rig = Rig {
            clocks: (0..cores).map(|c| c * 7_000).collect(),
            mail: [0; 2],
            rec: Recorder::new(cores as usize),
        };
        for steps in &iters {
            rig.rec.begin_iter(rig.clocks.iter().copied());
            for &(step, i) in steps {
                rig.step(step, i);
            }
            assert!(rig.rec.close_iter());
            let mut checks = 0;
            let screened = outcome(rig.rec.try_compile(&rig.clocks, &mut checks));
            let reference = outcome(rig.rec.try_compile_unscreened(&rig.clocks));
            assert_eq!(
                screened,
                reference,
                "seed {seed} ({twist:?}) after {} iterations",
                rig.rec.recorded_iters()
            );
            if screened.is_some() {
                assert!(checks >= 1, "seed {seed}: compiled without an exact check");
                return (twist, true);
            }
        }
        (twist, false)
    }

    #[test]
    fn screened_detection_matches_the_unscreened_detector() {
        let mut compiled = std::collections::HashMap::new();
        for seed in 0..600 {
            let (twist, ok) = run_case(seed);
            let entry = compiled.entry(twist).or_insert((0, 0));
            entry.0 += u32::from(ok);
            entry.1 += 1;
        }
        // Every kind of case compiles often enough to compare programs,
        // not only refusals.
        for (twist, (ok, all)) in compiled {
            assert!(
                ok * 3 >= all,
                "{twist:?}: only {ok} of {all} cases compiled"
            );
        }
    }
}
