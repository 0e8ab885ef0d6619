//! GIC conformance battery: systematic coverage of the distributor and
//! virtual-interface state machines the interrupt results rest on.

use hvx::gic::{dist_reg, Distributor, IntId, LrState, SgiFilter, VgicCpuInterface};

#[test]
fn spi_lifecycle_matrix() {
    // enabled × pending × active → visibility, across all 8 states.
    let mut g = Distributor::new(2, 8);
    let irq = IntId::spi(0);
    // disabled + pending: invisible.
    g.raise(irq, 0).unwrap();
    assert_eq!(g.highest_pending(0).unwrap(), None);
    // enabled + pending: visible.
    g.enable(irq, 0).unwrap();
    assert_eq!(g.highest_pending(0).unwrap(), Some(irq));
    // active (after ack): invisible even if re-raised... until complete.
    g.acknowledge(0).unwrap();
    g.raise(irq, 0).unwrap();
    assert_eq!(
        g.highest_pending(0).unwrap(),
        None,
        "active interrupts are not re-delivered"
    );
    g.complete(0, irq).unwrap();
    assert_eq!(g.highest_pending(0).unwrap(), Some(irq), "pend survived");
    // disable while pending: hidden again.
    g.disable(irq, 0).unwrap();
    assert_eq!(g.highest_pending(0).unwrap(), None);
}

#[test]
fn sgi_banking_is_per_cpu_all_the_way_down() {
    let mut g = Distributor::new(4, 8);
    for cpu in 0..4 {
        g.enable(IntId::sgi(3), cpu).unwrap();
    }
    // The same SGI pending on two CPUs acks independently.
    g.raise(IntId::sgi(3), 0).unwrap();
    g.raise(IntId::sgi(3), 2).unwrap();
    assert_eq!(g.acknowledge(0).unwrap(), Some(IntId::sgi(3)));
    assert_eq!(g.highest_pending(2).unwrap(), Some(IntId::sgi(3)));
    // Completing on CPU0 doesn't disturb CPU2's pend.
    g.complete(0, IntId::sgi(3)).unwrap();
    assert_eq!(g.acknowledge(2).unwrap(), Some(IntId::sgi(3)));
}

#[test]
fn sgir_filters_against_every_sender() {
    for sender in 0..4usize {
        let mut g = Distributor::new(4, 8);
        for cpu in 0..4 {
            g.enable(IntId::sgi(7), cpu).unwrap();
        }
        let eff = g
            .mmio_write(
                dist_reg::GICD_SGIR,
                (7 << 24) | SgiFilter::AllOthers.encode(),
                sender,
            )
            .unwrap();
        assert_eq!(eff.sgi_targets.len(), 3);
        assert!(eff.sgi_targets.iter().all(|(c, _)| c != sender));
        let mut g2 = Distributor::new(4, 8);
        g2.enable(IntId::sgi(7), sender).unwrap();
        let eff = g2
            .mmio_write(
                dist_reg::GICD_SGIR,
                (7 << 24) | SgiFilter::SelfOnly.encode(),
                sender,
            )
            .unwrap();
        assert_eq!(
            eff.sgi_targets.iter().collect::<Vec<_>>(),
            vec![(sender, IntId::sgi(7))]
        );
    }
}

#[test]
fn vgic_lr_state_machine_full_walk() {
    // Invalid -> Pending -> Active -> PendingActive -> Active -> Invalid.
    let mut v = VgicCpuInterface::new();
    assert_eq!(v.regs().lrs[0].state, LrState::Invalid);
    v.inject(40, 0x80).unwrap();
    assert_eq!(v.regs().lrs[0].state, LrState::Pending);
    assert_eq!(v.guest_ack(), Some(40));
    assert_eq!(v.regs().lrs[0].state, LrState::Active);
    v.inject(40, 0x80).unwrap(); // re-raise mid-handler
    assert_eq!(v.regs().lrs[0].state, LrState::PendingActive);
    assert_eq!(v.guest_ack(), Some(40));
    assert_eq!(v.regs().lrs[0].state, LrState::Active);
    v.guest_eoi(40).unwrap();
    assert_eq!(v.regs().lrs[0].state, LrState::Invalid);
}

#[test]
fn vgic_priority_inversion_never_happens() {
    // Lower priority value always wins the ack, whatever the injection
    // order.
    let orders: [[(u32, u8); 3]; 3] = [
        [(10, 0x30), (11, 0x20), (12, 0x10)],
        [(12, 0x10), (11, 0x20), (10, 0x30)],
        [(11, 0x20), (12, 0x10), (10, 0x30)],
    ];
    for order in orders {
        let mut v = VgicCpuInterface::new();
        for (virq, prio) in order {
            v.inject(virq, prio).unwrap();
        }
        assert_eq!(v.guest_ack(), Some(12), "highest priority first");
        assert_eq!(v.guest_ack(), Some(11));
        assert_eq!(v.guest_ack(), Some(10));
    }
}

#[test]
fn vgic_eoi_of_a_reraised_virq_leaves_it_pending() {
    // A vCPU descheduled between its ack and its EOI can see its vIRQ
    // re-raised in that gap; GICv2 deactivates an active-and-pending
    // interrupt to pending, and the next ack takes it again.
    let mut v = VgicCpuInterface::new();
    v.inject(4, 0x80).unwrap();
    assert_eq!(v.guest_ack(), Some(4));
    v.inject(4, 0x80).unwrap();
    assert_eq!(v.regs().lrs[0].state, LrState::PendingActive);
    v.guest_eoi(4).unwrap();
    assert_eq!(v.regs().lrs[0].state, LrState::Pending);
    assert_eq!(v.pending_virq(), Some(4));
    assert_eq!(v.guest_ack(), Some(4));
    v.guest_eoi(4).unwrap();
    assert!(v.is_idle());
}

#[test]
fn a_consolidated_vcpu_completes_an_sgi_reraised_before_its_eoi() {
    // At 64:1 under credit, a Xen ARM vCPU is descheduled between its
    // ack and its EOI while its sibling's next kick lands; the cell
    // must still run every transaction.
    use hvx::core::{HvKind, SchedPolicy};
    use hvx::suite::consolidation::{run_cell_with, CellConfig};
    let cell = run_cell_with(CellConfig {
        kind: HvKind::XenArm,
        ratio: 64,
        policy: SchedPolicy::Credit,
        txns_per_vm: 400,
        compile: true,
        profiling: false,
        fault: None,
    })
    .expect("the 64:1 cell runs");
    assert_eq!(cell.transactions, 64 * 400);
    assert_eq!(cell.makespan_cycles, 1_724_750_802);
}

#[test]
fn distributor_and_vgic_compose_like_a_hypervisor_uses_them() {
    // The physical distributor routes a device interrupt to the host;
    // the hypervisor completes it and injects the virtual equivalent —
    // the paper's "translated into a virtual interrupt" flow (§II).
    let mut phys = Distributor::new(8, 64);
    let mut vgic = VgicCpuInterface::new();
    let nic = IntId::spi(43);
    phys.enable(nic, 4).unwrap();
    phys.set_target(nic, 4).unwrap();
    phys.raise(nic, 4).unwrap();
    // Hypervisor on PCPU4 acks the physical interrupt...
    let taken = phys.acknowledge(4).unwrap().unwrap();
    assert_eq!(taken, nic);
    // ...completes it, and injects the virtual equivalent, which the
    // guest acknowledges and completes without trapping.
    phys.complete(4, nic).unwrap();
    vgic.inject(nic.raw(), 0x80).unwrap();
    assert_eq!(vgic.guest_ack(), Some(nic.raw()));
    vgic.guest_eoi(nic.raw()).unwrap();
    // Everything is quiescent.
    assert_eq!(phys.highest_pending(4).unwrap(), None);
    assert!(vgic.is_idle());
}
