//! Property-based tests on the core data structures and invariants,
//! exercised through the public API.

use hvx::arch::{ArchVersion, ArmCpu, ExceptionLevel, TrapCause};
use hvx::core::sched::CreditScheduler;
use hvx::engine::{timeline, Cycles, EventQueue, SpanRow, SpanTracer, TransitionId};
use hvx::gic::{Distributor, IntId, VgicCpuInterface, VgicError, NUM_LRS};
use hvx::mem::{Access, Ipa, Pa, PhysMemory, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx::vio::{Descriptor, Virtqueue};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    // ------------------------------------------------------------------
    // Engine
    // ------------------------------------------------------------------

    /// The event queue pops in nondecreasing time order regardless of
    /// insertion order, and FIFO among equal instants.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(Cycles::new(*t), i);
        }
        let mut last: Option<(Cycles, usize)> = None;
        while let Some((when, idx)) = q.pop() {
            if let Some((lw, li)) = last {
                prop_assert!(when >= lw);
                if when == lw {
                    prop_assert!(idx > li, "FIFO among equal instants");
                }
            }
            prop_assert_eq!(Cycles::new(times[idx]), when);
            last = Some((when, idx));
        }
    }

    /// The flat four-ary heap stays a stable priority queue at scale:
    /// 10,000 schedules over a narrow time range (forcing heavy instant
    /// collisions) pop in nondecreasing time order and FIFO among equals.
    #[test]
    fn flat_heap_is_fifo_for_ten_thousand_schedules(
        times in prop::collection::vec(0u64..64, 10_000..10_001),
    ) {
        let mut q = EventQueue::with_capacity(times.len());
        for (i, t) in times.iter().enumerate() {
            q.schedule(Cycles::new(*t), i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut popped = 0usize;
        let mut last: Option<(Cycles, usize)> = None;
        while let Some((when, idx)) = q.pop() {
            if let Some((lw, li)) = last {
                prop_assert!(when >= lw, "time order violated");
                if when == lw {
                    prop_assert!(idx > li, "FIFO among equal instants");
                }
            }
            prop_assert_eq!(Cycles::new(times[idx]), when);
            last = Some((when, idx));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The calendar's packed `(when, seq)` key orders the whole `u64`
    /// range of instants: interleaved schedules and pops, with instants
    /// near zero, at and above 2^63, near `u64::MAX` (where the runner's
    /// pool schedules, at `u64::MAX - weight`) and anywhere, pop exactly
    /// as a `BTreeMap` keyed by `(when, seq)` does, FIFO among equal
    /// instants.
    #[test]
    fn event_queue_orders_the_full_instant_range(
        ops in prop::collection::vec((0u8..3, 0u8..4, 0u64..4, any::<u64>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut reference = BTreeMap::new();
        let mut seq = 0u64;
        let reference_pop = |reference: &mut BTreeMap<(u64, u64), u64>| {
            reference
                .pop_first()
                .map(|((when, _), payload)| (Cycles::new(when), payload))
        };
        for (op, band, near, anywhere) in ops {
            if op == 0 {
                prop_assert_eq!(q.pop(), reference_pop(&mut reference));
                continue;
            }
            let when = match band {
                0 => near,
                1 => (1 << 63) + near,
                2 => u64::MAX - near,
                _ => anywhere,
            };
            q.schedule(Cycles::new(when), seq);
            reference.insert((when, seq), seq);
            seq += 1;
        }
        while !reference.is_empty() {
            prop_assert_eq!(q.pop(), reference_pop(&mut reference));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// The span tracer's call-path tree agrees with a naive reference
    /// that keeps an explicit stack and credits every open span on each
    /// charge: random balanced programs (depth <= 6, four transitions,
    /// so recursion and repeated paths occur) yield the same exclusive,
    /// inclusive, count, unattributed, total, rows and folded stacks.
    #[test]
    fn span_tracer_matches_a_naive_stack(
        ops in prop::collection::vec((0u8..3, 0usize..4, 0u64..8), 0..300),
    ) {
        const IDS: [TransitionId; 4] = [
            TransitionId::TrapToEl2,
            TransitionId::ContextSave,
            TransitionId::VgicLrSave,
            TransitionId::Eret,
        ];
        const N: usize = TransitionId::COUNT;
        let mut tracer = SpanTracer::new();
        let mut stack: Vec<TransitionId> = Vec::new();
        let (mut excl, mut incl, mut count) = ([0u64; N], [0u64; N], [0u64; N]);
        let (mut unattributed, mut total) = (0u64, 0u64);
        let mut paths = BTreeMap::<Vec<TransitionId>, u64>::new();
        for (op, which, cycles) in ops {
            let id = IDS[which];
            match op {
                0 if stack.len() < 6 => {
                    tracer.enter(id);
                    count[id as usize] += 1;
                    stack.push(id);
                }
                1 if !stack.is_empty() => tracer.exit(stack.pop().unwrap()),
                _ => {
                    let cycles = cycles * 10;
                    tracer.charge(cycles);
                    total += cycles;
                    *paths.entry(stack.clone()).or_default() += cycles;
                    let Some(&top) = stack.last() else {
                        unattributed += cycles;
                        continue;
                    };
                    excl[top as usize] += cycles;
                    for id in TransitionId::ALL.into_iter().filter(|id| stack.contains(id)) {
                        incl[id as usize] += cycles;
                    }
                }
            }
        }
        while let Some(top) = stack.pop() {
            tracer.exit(top);
        }
        let rows: Vec<SpanRow> = TransitionId::ALL
            .into_iter()
            .filter(|&id| count[id as usize] > 0 || excl[id as usize] > 0)
            .map(|id| SpanRow {
                id,
                count: count[id as usize],
                exclusive: excl[id as usize],
                inclusive: incl[id as usize],
            })
            .collect();
        for id in TransitionId::ALL {
            prop_assert_eq!(tracer.exclusive(id), excl[id as usize], "exclusive {}", id);
            prop_assert_eq!(tracer.inclusive(id), incl[id as usize], "inclusive {}", id);
            prop_assert_eq!(tracer.count(id), count[id as usize], "count {}", id);
        }
        prop_assert_eq!(tracer.unattributed(), unattributed);
        prop_assert_eq!(tracer.total(), total);
        prop_assert_eq!(tracer.rows(), rows);
        prop_assert_eq!(tracer.folded("r"), naive_folded("r", &[], &paths));
    }

    // ------------------------------------------------------------------
    // Stage-2 translation
    // ------------------------------------------------------------------

    /// Any mapped page translates to the mapped frame with the offset
    /// preserved, and any unmapped page faults.
    #[test]
    fn stage2_map_translate_unmap(
        pages in prop::collection::btree_set(0u64..1u64 << 24, 1..40),
        offset in 0u64..PAGE_SIZE,
    ) {
        let mut s2 = Stage2Tables::new();
        let pages: Vec<u64> = pages.into_iter().collect();
        for (i, p) in pages.iter().enumerate() {
            let ipa = Ipa::new(p * PAGE_SIZE);
            let pa = Pa::new((0x10_0000 + i as u64) * PAGE_SIZE);
            s2.map_page(ipa, pa, S2Perms::RW).unwrap();
        }
        prop_assert_eq!(s2.mapped_pages(), pages.len() as u64);
        for (i, p) in pages.iter().enumerate() {
            let ipa = Ipa::new(p * PAGE_SIZE + offset);
            let t = s2.translate(ipa, Access::Read).unwrap();
            prop_assert_eq!(t.pa.value(), (0x10_0000 + i as u64) * PAGE_SIZE + offset);
            prop_assert!(s2.translate(ipa, Access::Exec).is_err(), "RW forbids exec");
        }
        for p in &pages {
            if !pages.contains(&(p + 1)) {
                let hole = Ipa::new((p + 1) * PAGE_SIZE + offset);
                prop_assert!(s2.translate(hole, Access::Read).is_err());
            }
        }
    }

    /// Physical memory read-back equals what was written, for arbitrary
    /// (address, bytes) writes within bounds.
    #[test]
    fn phys_memory_write_read_round_trip(
        writes in prop::collection::vec((0u64..1 << 20, prop::collection::vec(any::<u8>(), 1..300)), 1..20)
    ) {
        let mut mem = PhysMemory::new(2 << 20);
        // Apply in order; later writes may overlap earlier ones, so
        // replay expectations on a mirror buffer.
        let mut mirror = vec![0u8; 2 << 20];
        for (addr, data) in &writes {
            mem.write(Pa::new(*addr), data).unwrap();
            mirror[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        for (addr, data) in &writes {
            let mut buf = vec![0u8; data.len()];
            mem.read(Pa::new(*addr), &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &mirror[*addr as usize..*addr as usize + data.len()]);
        }
    }

    // ------------------------------------------------------------------
    // GIC
    // ------------------------------------------------------------------

    /// The distributor never delivers a disabled or inactive interrupt,
    /// and every acknowledged interrupt was raised and enabled.
    #[test]
    fn distributor_only_delivers_enabled_pending(
        raised in prop::collection::btree_set(0u32..32, 0..20),
        enabled in prop::collection::btree_set(0u32..32, 0..20),
    ) {
        let mut gic = Distributor::new(4, 64);
        for spi in &enabled {
            gic.enable(IntId::spi(*spi), 0).unwrap();
        }
        for spi in &raised {
            gic.raise(IntId::spi(*spi), 0).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some(intid) = gic.acknowledge(0).unwrap() {
            let spi = intid.raw() - 32;
            prop_assert!(raised.contains(&spi) && enabled.contains(&spi));
            prop_assert!(seen.insert(spi), "no double delivery");
            gic.complete(0, intid).unwrap();
        }
        let expected: std::collections::BTreeSet<u32> =
            raised.intersection(&enabled).copied().collect();
        prop_assert_eq!(seen, expected, "everything eligible was delivered");
    }

    /// The virtual interface conserves interrupts: the first
    /// `NUM_LRS` distinct vIRQs are listed, every later one is refused
    /// with `NoFreeLr` and listed nowhere, and ack/EOI pairs drain the
    /// listed ones to idle.
    #[test]
    fn vgic_conserves_interrupts(virqs in prop::collection::btree_set(32u32..200, 1..12)) {
        let mut vgic = VgicCpuInterface::new();
        let mut listed = std::collections::BTreeSet::new();
        for (i, v) in virqs.iter().enumerate() {
            match vgic.inject(*v, 0x80) {
                Ok(_) => {
                    prop_assert!(i < NUM_LRS);
                    listed.insert(*v);
                }
                Err(e) => {
                    prop_assert!(i >= NUM_LRS);
                    prop_assert_eq!(e, VgicError::NoFreeLr { virq: *v });
                }
            }
        }
        prop_assert_eq!(vgic.occupied(), virqs.len().min(NUM_LRS));
        prop_assert_eq!(vgic.injected_count(), listed.len() as u64);
        // Drain: ack+eoi everything listed.
        let mut completed = std::collections::BTreeSet::new();
        while let Some(v) = vgic.guest_ack() {
            vgic.guest_eoi(v).unwrap();
            prop_assert!(completed.insert(v));
        }
        prop_assert!(vgic.is_idle());
        prop_assert_eq!(completed, listed);
    }

    // ------------------------------------------------------------------
    // Virtqueue
    // ------------------------------------------------------------------

    /// Descriptors are conserved: free + in-flight + completed always
    /// equals the queue size, across arbitrary add/consume interleavings.
    #[test]
    fn virtqueue_conserves_descriptors(ops in prop::collection::vec(any::<bool>(), 1..100)) {
        let mut vq = Virtqueue::new(16).unwrap();
        let mut in_flight = Vec::new();
        for add in ops {
            if add {
                let _ = vq.add_chain(&[Descriptor {
                    addr: Ipa::new(0x1000),
                    len: 64,
                    device_writes: false,
                }]);
            } else if let Some(chain) = vq.pop_avail() {
                in_flight.push(chain);
            } else if let Some(chain) = in_flight.pop() {
                vq.push_used(chain, 0).unwrap();
                let _ = vq.take_used().unwrap();
            }
            let held: usize = in_flight.iter().map(|c| c.buffers.len()).sum();
            prop_assert_eq!(
                vq.free_descriptors() + vq.avail_len() + vq.used_len() + held,
                16
            );
        }
    }

    /// Differential test: the radix-tree Stage-2 walker agrees with a
    /// flat reference model across random page maps, block maps and
    /// translations.
    #[test]
    fn stage2_walker_matches_reference_model(
        ops in prop::collection::vec((0u8..3, 0u64..256), 1..120)
    ) {
        use hvx::mem::BLOCK_SIZE;
        let mut s2 = Stage2Tables::new();
        // Reference: page-number -> frame base.
        let mut reference: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for (op, n) in ops {
            match op {
                0 => {
                    // Map a page at page-number n.
                    let ipa = Ipa::new(n * PAGE_SIZE);
                    let pa = Pa::new((0x9_0000 + n) * PAGE_SIZE);
                    let ours = s2.map_page(ipa, pa, S2Perms::RWX).is_ok();
                    let theirs = !reference.contains_key(&n);
                    prop_assert_eq!(ours, theirs, "map_page divergence at {}", n);
                    if ours {
                        reference.insert(n, pa.value());
                    }
                }
                1 => {
                    // Map a block at a block-aligned page number.
                    let block_page = (n / 512) * 512;
                    let ipa = Ipa::new(block_page * PAGE_SIZE);
                    let pa = Pa::new(((n / 512) + 1) * BLOCK_SIZE);
                    let theirs = (block_page..block_page + 512)
                        .all(|p| !reference.contains_key(&p));
                    let ours = s2.map_block(ipa, pa, S2Perms::RWX).is_ok();
                    prop_assert_eq!(ours, theirs, "map_block divergence at {}", block_page);
                    if ours {
                        for (i, p) in (block_page..block_page + 512).enumerate() {
                            reference.insert(p, pa.value() + i as u64 * PAGE_SIZE);
                        }
                    }
                }
                _ => {
                    // Translate page n.
                    let ipa = Ipa::new(n * PAGE_SIZE + 0x123);
                    match (s2.translate(ipa, Access::Read), reference.get(&n)) {
                        (Ok(t), Some(base)) => {
                            prop_assert_eq!(t.pa.value(), base + 0x123);
                        }
                        (Err(_), None) => {}
                        (ours, theirs) => {
                            prop_assert!(false, "translate divergence at {}: {:?} vs {:?}", n, ours, theirs);
                        }
                    }
                }
            }
            prop_assert_eq!(s2.mapped_pages(), reference.len() as u64);
        }
    }

    /// Timeline rendering never panics and always emits one lane per
    /// active core, for arbitrary traces.
    #[test]
    fn timeline_renders_arbitrary_traces(
        events in prop::collection::vec((0u16..8, 0u64..10_000), 1..60),
        width in 8usize..120,
    ) {
        use hvx::engine::{Machine, Topology, TraceKind};
        let mut m = Machine::new(Topology::paper_default());
        for (core, dur) in &events {
            m.charge(
                hvx::engine::CoreId::new(*core),
                "work",
                TraceKind::Guest,
                Cycles::new(*dur),
            );
        }
        let art = timeline::render(
            m.trace(),
            timeline::TimelineOptions { width, min_duration: Cycles::ZERO },
        );
        let cores: std::collections::BTreeSet<u16> =
            events.iter().map(|(c, _)| *c).collect();
        for c in cores {
            prop_assert!(art.contains(&format!("pcpu{c}")), "{art}");
        }
    }

    /// Equal-weight CPU-bound VCPUs get equal schedule shares under the
    /// credit scheduler (fairness property).
    #[test]
    fn credit_scheduler_is_fair_for_equal_weights(n in 2usize..6, rounds in 10u32..200) {
        let mut s = CreditScheduler::new();
        for id in 0..n {
            s.add_vcpu(id, 256);
        }
        s.account();
        let mut runs = vec![0u32; n];
        for i in 0..rounds {
            if i % 30 == 0 {
                s.account();
            }
            let id = s.pick().expect("someone is runnable");
            runs[id] += 1;
            s.charge(id, 5);
            s.yield_current();
        }
        let max = *runs.iter().max().unwrap();
        let min = *runs.iter().min().unwrap();
        prop_assert!(max - min <= 1, "fair to within one slice: {runs:?}");
    }

    /// Exception entry and return restore PC and PSTATE exactly, from
    /// any starting PC/PSTATE NZCV bits.
    #[test]
    fn trap_eret_round_trip(pc in any::<u64>(), nzcv in 0u64..16) {
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        cpu.el2.hcr_el2 = hvx::arch::HcrEl2::guest_running();
        cpu.start_at(ExceptionLevel::El1);
        cpu.gp.pc = pc;
        cpu.gp.pstate |= nzcv << 28;
        let pstate_before = cpu.gp.pstate;
        cpu.take_exception(TrapCause::HYPERCALL);
        prop_assert_eq!(cpu.current_el(), ExceptionLevel::El2);
        cpu.eret().unwrap();
        prop_assert_eq!(cpu.current_el(), ExceptionLevel::El1);
        prop_assert_eq!(cpu.gp.pc, pc);
        prop_assert_eq!(cpu.gp.pstate, pstate_before);
    }
}

/// Folded stacks from a map of call paths (the empty path holds the
/// unattributed cycles): `path`'s own line, then each child path by
/// (subtree cycles descending, name ascending), skipping empty subtrees.
fn naive_folded(
    line: &str,
    path: &[TransitionId],
    paths: &BTreeMap<Vec<TransitionId>, u64>,
) -> String {
    let own = paths.get(path).copied().unwrap_or(0);
    let mut out = if own > 0 {
        format!("{line} {own}\n")
    } else {
        String::new()
    };
    let subtree = |p: &[TransitionId]| -> u64 {
        paths
            .iter()
            .filter(|(q, _)| q.starts_with(p))
            .map(|(_, c)| c)
            .sum()
    };
    let mut children: Vec<(u64, TransitionId)> = TransitionId::ALL
        .into_iter()
        .map(|id| (subtree(&[path, &[id]].concat()), id))
        .filter(|(cycles, _)| *cycles > 0)
        .collect();
    children.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.name().cmp(b.1.name())));
    for (_, id) in children {
        out += &naive_folded(
            &format!("{line};{}", id.name()),
            &[path, &[id]].concat(),
            paths,
        );
    }
    out
}
