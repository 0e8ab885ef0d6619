//! Differential tests for the vCPU schedulers: the indexed runqueues in
//! `hvx_core::sched` against the linear-scan schedulers they replaced,
//! which live on here, unchanged, as reference models.
//!
//! Each case draws a random operation sequence (registrations under
//! sparse ids below 64 with varied weights, picks, charges, blocks,
//! wakes, yields and accounting ticks) and drives a reference and a
//! scheduler under test with it. After every operation the two must
//! agree on the operation's return value, `current()`,
//! `switch_count()` and, for credit, every registered vCPU's
//! `credit_of()` and `priority_of()`.

use hvx::core::sched::{
    CfsScheduler, CreditPriority, CreditScheduler, CreditVcpuSched, VcpuScheduler,
    CREDITS_PER_PERIOD, CYCLES_PER_CREDIT, NICE0_WEIGHT, PREEMPT_GRANULARITY, WAKEUP_BONUS,
};
use proptest::prelude::*;
use std::collections::VecDeque;

// ----------------------------------------------------------------------
// Reference models: the linear-scan schedulers, verbatim but for names.
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefCfsEntry {
    id: usize,
    weight: u32,
    vruntime: u64,
    runnable: bool,
}

#[derive(Debug, Clone, Default)]
struct RefCfs {
    entries: Vec<RefCfsEntry>,
    current: Option<usize>,
    switches: u64,
    min_vruntime: u64,
}

impl RefCfs {
    fn entry_mut(&mut self, id: usize) -> &mut RefCfsEntry {
        self.entries
            .iter_mut()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("vcpu {id} not registered"))
    }

    fn entry(&self, id: usize) -> &RefCfsEntry {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("vcpu {id} not registered"))
    }
}

impl VcpuScheduler for RefCfs {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        assert!(
            self.entries.iter().all(|e| e.id != id),
            "vcpu {id} already registered"
        );
        self.entries.push(RefCfsEntry {
            id,
            weight,
            vruntime: self.min_vruntime,
            runnable: true,
        });
    }

    fn current(&self) -> Option<usize> {
        self.current
    }

    fn pick(&mut self) -> Option<usize> {
        let picked = self
            .entries
            .iter()
            .filter(|e| e.runnable)
            .min_by_key(|e| (e.vruntime, e.id))
            .map(|e| e.id);
        if let Some(id) = picked {
            let v = self.entry(id).vruntime;
            self.min_vruntime = self.min_vruntime.max(v);
        }
        if picked != self.current {
            self.switches += 1;
        }
        self.current = picked;
        picked
    }

    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let e = self.entry_mut(id);
        e.vruntime += cycles * NICE0_WEIGHT / u64::from(e.weight);
    }

    fn block(&mut self, id: usize) {
        self.entry_mut(id).runnable = false;
        if self.current == Some(id) {
            self.current = None;
        }
    }

    fn wake(&mut self, id: usize) -> bool {
        let floor = self.min_vruntime.saturating_sub(WAKEUP_BONUS);
        let current_v = self.current.map(|c| self.entry(c).vruntime);
        let e = self.entry_mut(id);
        if e.runnable {
            return false;
        }
        e.runnable = true;
        e.vruntime = e.vruntime.max(floor);
        let woken_v = e.vruntime;
        match current_v {
            None => true,
            Some(cv) => woken_v + PREEMPT_GRANULARITY < cv,
        }
    }

    fn yield_current(&mut self) {
        self.current = None;
    }

    fn tick(&mut self) {}

    fn switch_count(&self) -> u64 {
        self.switches
    }
}

#[derive(Debug, Clone)]
struct RefEntry {
    id: usize,
    weight: u32,
    credit: i64,
    priority: CreditPriority,
    runnable: bool,
}

#[derive(Debug, Clone, Default)]
struct RefCredit {
    entries: Vec<RefEntry>,
    queue: VecDeque<usize>,
    current: Option<usize>,
    switches: u64,
}

impl RefCredit {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        assert!(
            self.entries.iter().all(|e| e.id != id),
            "vcpu {id} already registered"
        );
        self.entries.push(RefEntry {
            id,
            weight,
            credit: 0,
            priority: CreditPriority::Under,
            runnable: true,
        });
        self.queue.push_back(id);
    }

    fn entry_mut(&mut self, id: usize) -> &mut RefEntry {
        self.entries
            .iter_mut()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("vcpu {id} not registered"))
    }

    fn entry(&self, id: usize) -> &RefEntry {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("vcpu {id} not registered"))
    }

    fn current(&self) -> Option<usize> {
        self.current
    }

    fn switch_count(&self) -> u64 {
        self.switches
    }

    fn pick(&mut self) -> Option<usize> {
        let mut best: Option<(CreditPriority, usize, usize)> = None; // (prio, queue pos, id)
        for (pos, id) in self.queue.iter().enumerate() {
            let e = self.entry(*id);
            if !e.runnable {
                continue;
            }
            let key = (e.priority, pos);
            match best {
                Some((bp, bpos, _)) if (bp, bpos) <= key => {}
                _ => best = Some((e.priority, pos, *id)),
            }
        }
        let picked = best.map(|(_, _, id)| id);
        if picked != self.current {
            self.switches += 1;
        }
        self.current = picked;
        picked
    }

    fn charge(&mut self, id: usize, credits: i64) {
        let e = self.entry_mut(id);
        e.credit -= credits;
        e.priority = if e.credit > 0 {
            CreditPriority::Under
        } else {
            CreditPriority::Over
        };
    }

    fn block(&mut self, id: usize) {
        self.entry_mut(id).runnable = false;
        if self.current == Some(id) {
            self.current = None;
        }
    }

    fn wake(&mut self, id: usize) -> bool {
        let current_prio = self.current.map(|c| self.entry(c).priority);
        let e = self.entry_mut(id);
        if e.runnable {
            return false;
        }
        e.runnable = true;
        if e.credit > 0 {
            e.priority = CreditPriority::Boost;
        }
        let woken_prio = e.priority;
        match current_prio {
            None => true,
            Some(cp) => woken_prio < cp,
        }
    }

    fn yield_current(&mut self) {
        if let Some(id) = self.current.take() {
            if let Some(pos) = self.queue.iter().position(|q| *q == id) {
                self.queue.remove(pos);
                self.queue.push_back(id);
            }
        }
    }

    fn account(&mut self) {
        let total_weight: u64 = self.entries.iter().map(|e| u64::from(e.weight)).sum();
        if total_weight == 0 {
            return;
        }
        for e in &mut self.entries {
            let share = CREDITS_PER_PERIOD * i64::from(e.weight) / total_weight as i64;
            e.credit = (e.credit + share).min(CREDITS_PER_PERIOD);
            if e.priority != CreditPriority::Boost {
                e.priority = if e.credit > 0 {
                    CreditPriority::Under
                } else {
                    CreditPriority::Over
                };
            }
        }
    }

    fn credit_of(&self, id: usize) -> i64 {
        self.entry(id).credit
    }

    fn priority_of(&self, id: usize) -> CreditPriority {
        self.entry(id).priority
    }
}

#[derive(Debug, Clone, Default)]
struct RefCreditVcpu {
    inner: RefCredit,
    acc: Vec<u64>,
}

impl VcpuScheduler for RefCreditVcpu {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        self.inner.add_vcpu(id, weight);
        if self.acc.len() <= id {
            self.acc.resize(id + 1, 0);
        }
        self.inner.account();
    }
    fn current(&self) -> Option<usize> {
        self.inner.current()
    }
    fn pick(&mut self) -> Option<usize> {
        self.inner.pick()
    }
    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let total = self.acc[id] + cycles;
        self.acc[id] = total % CYCLES_PER_CREDIT;
        let credits = (total / CYCLES_PER_CREDIT) as i64;
        if credits > 0 {
            self.inner.charge(id, credits);
        }
    }
    fn block(&mut self, id: usize) {
        self.inner.block(id);
    }
    fn wake(&mut self, id: usize) -> bool {
        self.inner.wake(id)
    }
    fn yield_current(&mut self) {
        self.inner.yield_current();
    }
    fn tick(&mut self) {
        self.inner.account();
    }
    fn switch_count(&self) -> u64 {
        self.inner.switch_count()
    }
}

// ----------------------------------------------------------------------
// Operation sequences.
// ----------------------------------------------------------------------

/// Weights a registration draws from: Xen's default, CFS's nice-0, and
/// extremes that round some credit shares down to zero.
const WEIGHTS: [u32; 8] = [1, 3, 64, 256, 256, 512, 1024, 65_535];

/// One scheduler operation, decoded from a raw `(op, id, amount)` draw.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(usize, u32),
    Pick,
    /// Cycles for the `VcpuScheduler` drive, credits for the raw one.
    Charge(usize, u64),
    Block(usize),
    Wake(usize),
    Yield,
    Tick,
}

/// Raw draws: an op selector, an id below 64 and an amount.
fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    prop::collection::vec((0u8..32, 0usize..64, any::<u64>()), 1..700)
}

/// Decodes raw draws against the ids registered so far. Registrations
/// thin out once a few vCPUs exist, so most of a sequence exercises a
/// populated runqueue; operations on vCPUs target registered ids only.
/// `credits` selects the raw credit drive's amounts instead of cycles.
fn decode(raw: &[(u8, usize, u64)], credits: bool) -> Vec<Op> {
    let mut ids: Vec<usize> = Vec::new();
    let mut ops = Vec::with_capacity(raw.len());
    for &(sel, id, amount) in raw {
        if ids.is_empty() || sel == 0 || (sel == 1 && ids.len() < 4) {
            if ids.contains(&id) {
                continue;
            }
            ids.push(id);
            ops.push(Op::Add(id, WEIGHTS[(amount % 8) as usize]));
            continue;
        }
        let target = ids[id % ids.len()];
        ops.push(match sel {
            2..=7 => Op::Pick,
            8..=14 => {
                let n = if credits {
                    // Mostly small debits, sometimes a whole period's.
                    [amount % 8, amount % 40, amount % 400][(amount >> 32) as usize % 3]
                } else {
                    // Guest slices, timeslices, and long runs that
                    // exhaust a period's credit.
                    [amount % 50_000, amount % 2_000_000, amount % 200_000_000]
                        [(amount >> 32) as usize % 3]
                };
                Op::Charge(target, n)
            }
            15..=19 => Op::Block(target),
            20..=25 => Op::Wake(target),
            26..=28 => Op::Yield,
            _ => Op::Tick,
        });
    }
    ops
}

/// What an operation returned.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Nothing,
    Picked(Option<usize>),
    Preempts(bool),
}

/// Applies one op through the `VcpuScheduler` interface.
fn apply(s: &mut dyn VcpuScheduler, op: Op) -> Outcome {
    match op {
        Op::Add(id, w) => s.add_vcpu(id, w),
        Op::Pick => return Outcome::Picked(s.pick()),
        Op::Charge(id, cycles) => s.charge_cycles(id, cycles),
        Op::Block(id) => s.block(id),
        Op::Wake(id) => return Outcome::Preempts(s.wake(id)),
        Op::Yield => s.yield_current(),
        Op::Tick => s.tick(),
    }
    Outcome::Nothing
}

fn registered(ops: &[Op], upto: usize) -> Vec<usize> {
    ops[..=upto]
        .iter()
        .filter_map(|op| match op {
            Op::Add(id, _) => Some(*id),
            _ => None,
        })
        .collect()
}

proptest! {
    /// `CreditVcpuSched` (cycle charges, ticks) decides exactly as the
    /// linear-scan credit scheduler did.
    #[test]
    fn credit_vcpu_sched_matches_the_reference(raw in raw_ops()) {
        let ops = decode(&raw, false);
        let mut reference = RefCreditVcpu::default();
        let mut indexed = CreditVcpuSched::new();
        for (i, &op) in ops.iter().enumerate() {
            let want = apply(&mut reference, op);
            let got = apply(&mut indexed, op);
            prop_assert_eq!(got, want, "op {} {:?}", i, op);
            prop_assert_eq!(indexed.current(), reference.current(), "op {} {:?}", i, op);
            prop_assert_eq!(indexed.switch_count(), reference.switch_count(), "op {}", i);
            for id in registered(&ops, i) {
                prop_assert_eq!(
                    indexed.inner().credit_of(id),
                    reference.inner.credit_of(id),
                    "op {} vcpu {}", i, id
                );
                prop_assert_eq!(
                    indexed.inner().priority_of(id),
                    reference.inner.priority_of(id),
                    "op {} vcpu {}", i, id
                );
            }
        }
    }

    /// The raw `CreditScheduler` (whole-credit charges, explicit
    /// accounting, no accounting pass at registration) matches too.
    #[test]
    fn credit_scheduler_matches_the_reference(raw in raw_ops()) {
        let ops = decode(&raw, true);
        let mut reference = RefCredit::default();
        let mut indexed = CreditScheduler::new();
        for (i, &op) in ops.iter().enumerate() {
            let (got, want) = match op {
                Op::Pick => (Outcome::Picked(indexed.pick()), Outcome::Picked(reference.pick())),
                Op::Wake(id) => (
                    Outcome::Preempts(indexed.wake(id)),
                    Outcome::Preempts(reference.wake(id)),
                ),
                Op::Add(id, w) => {
                    reference.add_vcpu(id, w);
                    indexed.add_vcpu(id, w);
                    (Outcome::Nothing, Outcome::Nothing)
                }
                Op::Charge(id, credits) => {
                    reference.charge(id, credits as i64);
                    indexed.charge(id, credits as i64);
                    (Outcome::Nothing, Outcome::Nothing)
                }
                Op::Block(id) => {
                    reference.block(id);
                    indexed.block(id);
                    (Outcome::Nothing, Outcome::Nothing)
                }
                Op::Yield => {
                    reference.yield_current();
                    indexed.yield_current();
                    (Outcome::Nothing, Outcome::Nothing)
                }
                Op::Tick => {
                    reference.account();
                    indexed.account();
                    (Outcome::Nothing, Outcome::Nothing)
                }
            };
            prop_assert_eq!(got, want, "op {} {:?}", i, op);
            prop_assert_eq!(indexed.current(), reference.current(), "op {} {:?}", i, op);
            prop_assert_eq!(indexed.switch_count(), reference.switch_count(), "op {}", i);
            for id in registered(&ops, i) {
                prop_assert_eq!(indexed.credit_of(id), reference.credit_of(id), "op {} vcpu {}", i, id);
                prop_assert_eq!(
                    indexed.priority_of(id),
                    reference.priority_of(id),
                    "op {} vcpu {}", i, id
                );
            }
        }
    }

    /// CFS decides exactly as the linear-scan CFS did.
    #[test]
    fn cfs_matches_the_reference(raw in raw_ops()) {
        let ops = decode(&raw, false);
        let mut reference = RefCfs::default();
        let mut indexed = CfsScheduler::new();
        for (i, &op) in ops.iter().enumerate() {
            let want = apply(&mut reference, op);
            let got = apply(&mut indexed, op);
            prop_assert_eq!(got, want, "op {} {:?}", i, op);
            prop_assert_eq!(indexed.current(), reference.current(), "op {} {:?}", i, op);
            prop_assert_eq!(indexed.switch_count(), reference.switch_count(), "op {}", i);
        }
    }
}

/// The generated sequences reach every decision the schedulers make:
/// switches, idle picks, preempting and non-preempting wakes, and every
/// credit class on both sides of a pick.
#[test]
fn sequences_cover_every_decision() {
    let mut idle_picks = 0;
    let mut preempting = 0;
    let mut non_preempting = 0;
    let mut classes = [0u32; 3];
    for case in 0..proptest::CASES {
        let mut rng = proptest::TestRng::for_case("credit_vcpu_sched_matches_the_reference", case);
        let ops = decode(&raw_ops().generate(&mut rng), false);
        let mut s = CreditVcpuSched::new();
        for &op in &ops {
            match apply(&mut s, op) {
                Outcome::Picked(None) => idle_picks += 1,
                Outcome::Picked(Some(id)) => classes[s.inner().priority_of(id) as usize] += 1,
                Outcome::Preempts(true) => preempting += 1,
                Outcome::Preempts(false) => non_preempting += 1,
                Outcome::Nothing => {}
            }
        }
    }
    assert!(idle_picks > 0 && preempting > 0 && non_preempting > 0);
    assert!(
        classes.iter().all(|&n| n > 0),
        "picks per class: {classes:?}"
    );
}

/// The raw credit drive reaches both class changes an accounting pass
/// makes: OVER back to UNDER, including after several passes without a
/// charge, and a fresh zero-share VCPU from UNDER to OVER.
#[test]
fn accounting_passes_change_classes_both_ways() {
    let (mut promotions, mut late_promotions, mut demotions) = (0, 0, 0);
    for case in 0..proptest::CASES {
        let mut rng = proptest::TestRng::for_case("credit_scheduler_matches_the_reference", case);
        let ops = decode(&raw_ops().generate(&mut rng), true);
        let mut s = RefCredit::default();
        let mut quiet_passes = std::collections::HashMap::new();
        for &op in &ops {
            match op {
                Op::Add(id, w) => s.add_vcpu(id, w),
                Op::Charge(id, c) => {
                    s.charge(id, c as i64);
                    quiet_passes.insert(id, 0);
                }
                Op::Tick => {
                    let before: Vec<_> = s.entries.iter().map(|e| (e.id, e.priority)).collect();
                    s.account();
                    for (e, (id, was)) in s.entries.iter().zip(before) {
                        let quiet = quiet_passes.entry(id).or_insert(0);
                        *quiet += 1;
                        match (was, e.priority) {
                            (CreditPriority::Over, CreditPriority::Under) => {
                                promotions += 1;
                                if *quiet > 1 {
                                    late_promotions += 1;
                                }
                            }
                            (CreditPriority::Under, CreditPriority::Over) => demotions += 1,
                            _ => {}
                        }
                    }
                }
                Op::Pick => {
                    s.pick();
                }
                Op::Block(id) => s.block(id),
                Op::Wake(id) => {
                    s.wake(id);
                }
                Op::Yield => s.yield_current(),
            }
        }
    }
    assert!(
        promotions > 0 && late_promotions > 0 && demotions > 0,
        "promotions {promotions} (late {late_promotions}), demotions {demotions}"
    );
}
