//! Calibration-identity tests: every Table II number must equal the
//! documented composition of its path's primitive costs. These guard the
//! cost model against silent drift — if a constant or a path changes,
//! the identity that justified it fails by name.

use hvx::core::{
    CostModel, HvKind, HvType, Hypervisor, KvmArm, KvmX86, SimBuilder, XenArm, XenX86,
};
use hvx::engine::{CoreId, Cycles, TraceEvent, TraceKind, TraceMode, TransitionId};

fn c() -> CostModel {
    CostModel::arm()
}

#[test]
fn kvm_arm_hypercall_identity() {
    // trap + save_all + toggle + eret   (VM -> lowvisor -> host)
    // + dispatch                         (host handles the noop)
    // + trap + restore_all + toggle + eret (host -> lowvisor -> VM)
    let m = c();
    let expected = m.hw_trap
        + m.full_save()
        + m.kvm_toggle_traps
        + m.hw_eret
        + m.kvm_host_dispatch
        + m.hw_trap
        + m.full_restore()
        + m.kvm_toggle_traps
        + m.hw_eret;
    assert_eq!(expected, Cycles::new(6_500));
    assert_eq!(KvmArm::new().hypercall(0), expected);
}

#[test]
fn xen_arm_hypercall_identity() {
    let m = c();
    let expected = m.hw_trap + m.xen_frame.save + m.xen_dispatch + m.xen_frame.restore + m.hw_eret;
    assert_eq!(expected, Cycles::new(376));
    assert_eq!(XenArm::new().hypercall(0), expected);
}

#[test]
fn x86_hypercall_identities() {
    let m = CostModel::x86();
    assert_eq!(
        m.vmexit + m.kvm_x86_dispatch + m.vmentry,
        Cycles::new(1_300)
    );
    assert_eq!(
        m.vmexit + m.xen_x86_dispatch + m.vmentry,
        Cycles::new(1_228)
    );
    assert_eq!(KvmX86::new().hypercall(0), Cycles::new(1_300));
    assert_eq!(XenX86::new().hypercall(0), Cycles::new(1_228));
}

#[test]
fn interrupt_controller_trap_is_hypercall_plus_emulation() {
    let m = c();
    let kvm_extra = m.kvm_mmio_decode + m.kvm_gicd_emulate;
    assert_eq!(
        KvmArm::new().gicd_trap(0),
        Cycles::new(6_500) + kvm_extra,
        "KVM ARM: ICT = hypercall + MMIO decode + GICD emulation"
    );
    let xen_extra = m.xen_mmio_decode + m.xen_gicd_emulate;
    assert_eq!(XenArm::new().gicd_trap(0), Cycles::new(376) + xen_extra);
}

#[test]
fn vm_switch_identities() {
    let m = c();
    // KVM: like a hypercall but with the scheduler pick instead of the
    // noop dispatch.
    assert_eq!(
        KvmArm::new().vm_switch(),
        Cycles::new(6_500) - m.kvm_host_dispatch + m.kvm_sched
    );
    // Xen: one trap (with its frame push), one full EL1 context switch,
    // one scheduler pick.
    assert_eq!(
        XenArm::new().vm_switch(),
        m.hw_trap + m.xen_frame.save + m.xen_sched + m.full_save() + m.full_restore() + m.hw_eret
    );
}

#[test]
fn lazy_fp_is_skipped_on_interrupt_paths_but_not_hypercalls() {
    // The hypercall path moves FP (Table III includes it); the I/O and
    // IPI fast paths use lazy FPSIMD switching. Verify via traces.
    let mut kvm = KvmArm::new();
    kvm.machine_mut().trace_mut().clear();
    kvm.hypercall(0);
    assert_eq!(kvm.machine().trace().total_by_label("save:fp"), c().fp.save);
    kvm.machine_mut().trace_mut().clear();
    kvm.io_latency_in(0);
    assert_eq!(
        kvm.machine().trace().total_by_label("save:fp"),
        Cycles::ZERO,
        "interrupt path skips FP"
    );
}

#[test]
fn io_latency_out_identity_kvm_arm() {
    let m = c();
    // One-way: trap + lazy save + toggle + eret + dispatch + decode +
    // eventfd, then the wire and the vhost wake on the backend core.
    let lazy_save = m.full_save() - m.fp.save;
    let expected = m.hw_trap
        + lazy_save
        + m.kvm_toggle_traps
        + m.hw_eret
        + m.kvm_host_dispatch
        + m.kvm_mmio_decode
        + m.kvm_ioeventfd
        + m.ipi_wire
        + m.kvm_vhost_wake;
    assert_eq!(expected, Cycles::new(6_024));
    assert_eq!(KvmArm::new().io_latency_out(0), expected);
}

#[test]
fn table_iii_columns_are_the_calibration_inputs() {
    let m = c();
    assert_eq!(m.gp.save, Cycles::new(152));
    assert_eq!(m.vgic.save, Cycles::new(3_250));
    assert_eq!(m.vgic.restore, Cycles::new(181));
    assert_eq!(m.full_save(), Cycles::new(4_202));
    assert_eq!(m.full_restore(), Cycles::new(1_506));
}

#[test]
fn grant_copy_is_the_three_microsecond_quote() {
    // §V: "each data copy incurs more than 3 µs of additional latency".
    let us = c()
        .xen_grant_copy
        .to_micros(hvx::engine::Frequency::ARM_M400);
    assert_eq!(us, 3.0);
}

#[test]
fn x86_exit_is_about_forty_percent_of_the_hypercall() {
    // §IV: "transitioning from the VM to the hypervisor accounts for
    // only about 40% of the Hypercall cost" on KVM x86.
    let m = CostModel::x86();
    let ratio = m.vmexit.as_f64() / 1_300.0;
    assert!((0.35..=0.45).contains(&ratio), "{ratio}");
    // And I/O Latency Out = exit + ioeventfd (the 560-cycle row).
    assert_eq!(m.vmexit + m.kvm_x86_ioeventfd, Cycles::new(560));
}

#[test]
fn demand_fault_costs_are_the_section_v_figures() {
    // The §V "one-time page fault" aside, one demand Stage-2/EPT fault
    // per design: split-mode KVM ARM pays a lazy-FP world switch plus
    // the allocation, Xen ARM stays in EL2, x86 pays one VMCS round
    // trip, and VHE collapses the KVM ARM switch.
    assert_eq!(KvmArm::new().stage2_fault(0), Cycles::new(7_408));
    assert_eq!(XenArm::new().stage2_fault(0), Cycles::new(1_876));
    assert_eq!(KvmX86::new().ept_fault(0), Cycles::new(2_800));
    assert_eq!(XenX86::new().ept_fault(0), Cycles::new(2_728));
    assert_eq!(KvmArm::new_vhe().stage2_fault(0), Cycles::new(2_156));
}

#[test]
fn uncalibrated_model_still_drives_every_path() {
    // The mechanism works with any constants — run the full suite on the
    // round-number model and check structural relations only.
    let mut kvm = KvmArm::with_cost(CostModel::uncalibrated(), false);
    let hc = kvm.hypercall(0);
    let ict = kvm.gicd_trap(0);
    assert!(ict > hc, "emulation always costs extra");
    let mut xen = XenArm::with_cost(CostModel::uncalibrated());
    assert!(xen.hypercall(0) < kvm.hypercall(0), "frame < full save");
    assert!(xen.io_latency_out(0) > xen.hypercall(0));
}

/// One trace record as the shared-sequence tests compare it.
type Record = (&'static str, CoreId, Cycles, TraceKind);

/// Runs `op` on a fresh `kind` machine with the log in full mode and
/// returns every record it left, in order.
fn events(kind: HvKind, op: impl FnOnce(&mut dyn Hypervisor)) -> Vec<TraceEvent> {
    let mut sim = SimBuilder::new(kind)
        .tracing(TraceMode::Full)
        .build()
        .expect("the paper configuration builds");
    op(sim.as_dyn_mut());
    sim.machine().trace().events().to_vec()
}

/// [`events`] as (label, core, cost, kind) records.
fn records(kind: HvKind, op: impl FnOnce(&mut dyn Hypervisor)) -> Vec<Record> {
    events(kind, op)
        .iter()
        .map(|e| (e.label, e.core, e.duration, e.kind))
        .collect()
}

/// The resolved cost model and the (I/O, backend, VCPU `vcpu`) cores
/// of a fresh `kind` machine.
fn cost_and_cores(kind: HvKind, vcpu: usize) -> (CostModel, CoreId, CoreId, CoreId) {
    let sim = SimBuilder::new(kind)
        .build()
        .expect("the paper configuration builds");
    let topo = sim.machine().topology();
    let cores = (topo.io_core(), topo.backend_core(), topo.guest_core(vcpu));
    (*sim.cost(), cores.0, cores.1, cores.2)
}

/// The paravirtual driver cost of `kind`'s design.
fn driver(kind: HvKind, m: &CostModel) -> Cycles {
    match kind.hv_type() {
        Some(HvType::Type2) => m.kvm_guest_virtio,
        Some(HvType::Type1) => m.xen_guest_pv,
        None => Cycles::ZERO,
    }
}

#[test]
fn a_served_request_charges_its_back_end_steps_in_order() {
    // Apache/Memcached/MySQL's host side: the host stack's share of
    // the request, the back end's packet each way (Xen: a grant copy
    // for the request and one per response page), the host stack's
    // share of the response and the NIC's DMA; then the application
    // with the response stack and half the driver.
    let (work, pct, pages) = (Cycles::new(10_000), 50, 3);
    let share = |x: Cycles| Cycles::new(x.as_u64() * u64::from(pct) / 100);
    for kind in HvKind::ALL {
        let (m, io, backend, guest) = cost_and_cores(kind, 1);
        let app = work + share(m.stack_tx_per_packet) + m.stack_bytes(pages as usize * 4_096);
        let mut want = Vec::new();
        match kind.hv_type() {
            None => {
                want.push(("native:compute", guest, app, TraceKind::Guest));
                want.push(("nic:dma", guest, m.nic_dma, TraceKind::Io));
            }
            Some(design) => {
                want.push(("host:request-rx", io, share(m.host_net_rx), TraceKind::Host));
                if design == HvType::Type1 {
                    let (net, copy) = (m.xen_net_per_packet, m.xen_grant_copy);
                    want.push(("xen:netback-rx", io, net, TraceKind::Io));
                    want.push(("xen:grant-copy", io, copy, TraceKind::Copy));
                    for _ in 0..pages {
                        want.push(("xen:grant-copy", backend, copy, TraceKind::Copy));
                    }
                    want.push(("xen:netback-tx", backend, net, TraceKind::Io));
                } else {
                    let vhost = m.kvm_vhost_per_packet;
                    want.push(("kvm:vhost-rx", io, vhost, TraceKind::Io));
                    want.push(("kvm:vhost-tx", backend, vhost, TraceKind::Io));
                }
                let tx = share(m.host_net_tx);
                want.push(("host:request-tx", backend, tx, TraceKind::Host));
                want.push(("nic:dma", backend, m.nic_dma, TraceKind::Io));
                let app = app + driver(kind, &m) / 2;
                want.push(("guest:compute", guest, app, TraceKind::Guest));
            }
        }
        let got = records(kind, |hv| hv.serve_request(1, work, pct, pages));
        assert_eq!(got, want, "{kind}");
    }
}

#[test]
fn a_block_request_is_the_kick_the_back_end_and_the_blocked_wake() {
    // The storage ablation's request: the guest block layer plus a
    // quarter of the driver; virtualized, a hypercall's round trip, the
    // back end on the I/O core (vhost-blk, or blkback and a grant copy),
    // the disk, and the wake every blocked VCPU takes; natively the
    // disk serves the issuing core and a plain interrupt completes it.
    let (work, service) = (Cycles::new(2_500), Cycles::new(40_000));
    for kind in HvKind::ALL {
        let (m, io, _, guest) = cost_and_cores(kind, 0);
        let mut want = Vec::new();
        match kind.hv_type() {
            None => {
                want.push(("native:compute", guest, work, TraceKind::Guest));
                want.push(("disk:service", guest, service, TraceKind::Io));
                want.extend(records(kind, |hv| {
                    hv.deliver_virq(0);
                }));
            }
            Some(design) => {
                let work = work + driver(kind, &m) / 4;
                want.push(("guest:compute", guest, work, TraceKind::Guest));
                want.extend(records(kind, |hv| {
                    hv.hypercall(0);
                }));
                if design == HvType::Type1 {
                    want.push(("xen:blkback", io, m.xen_net_per_packet / 2, TraceKind::Io));
                    want.push(("xen:grant-copy", io, m.xen_grant_copy, TraceKind::Copy));
                } else {
                    let blk = m.kvm_vhost_per_packet / 2;
                    want.push(("kvm:vhost-blk", io, blk, TraceKind::Io));
                }
                want.push(("disk:service", io, service, TraceKind::Io));
                want.extend(records(kind, |hv| {
                    hv.deliver_virq_blocked(0);
                }));
            }
        }
        let got = records(kind, |hv| hv.block_request(0, work, service));
        assert_eq!(got, want, "{kind}");
    }
}

#[test]
fn the_block_back_ends_charge_their_own_transitions() {
    // No span profile covers the storage ablation (`check` re-profiles
    // only Figure 4's cells), so a block back end charged as another
    // transition would move no committed byte. Pin each back-end
    // record's order, label, kind and transition here.
    const BACK_END: [&str; 4] = [
        "kvm:vhost-blk",
        "xen:blkback",
        "xen:grant-copy",
        "disk:service",
    ];
    let disk = (
        "disk:service",
        TraceKind::Io,
        Some(TransitionId::DeviceService),
    );
    for kind in HvKind::ALL {
        let want = match kind.hv_type() {
            None => vec![disk],
            Some(HvType::Type2) => vec![
                (
                    "kvm:vhost-blk",
                    TraceKind::Io,
                    Some(TransitionId::VhostBackend),
                ),
                disk,
            ],
            Some(HvType::Type1) => vec![
                ("xen:blkback", TraceKind::Io, Some(TransitionId::Netback)),
                (
                    "xen:grant-copy",
                    TraceKind::Copy,
                    Some(TransitionId::GrantCopy),
                ),
                disk,
            ],
        };
        let got: Vec<_> = events(kind, |hv| {
            hv.block_request(0, Cycles::new(2_500), Cycles::new(40_000));
        })
        .into_iter()
        .filter(|e| BACK_END.contains(&e.label))
        .map(|e| (e.label, e.kind, e.transition))
        .collect();
        assert_eq!(got, want, "{kind}");
    }
}

#[test]
fn io_latency_out_is_the_doorbell_half_of_transmit() {
    // Table I: I/O Latency Out is the guest signalling its backend. On
    // the ARM designs that is exactly the kick inside the transmit path,
    // from the doorbell's first charge through the backend's wake.
    for (kind, wake) in [
        (HvKind::KvmArm, "kvm:vhost-wake"),
        (HvKind::KvmArmVhe, "kvm:vhost-wake"),
        (HvKind::XenArm, "xen:wake-blocked"),
    ] {
        let out = records(kind, |hv| {
            hv.io_latency_out(0);
        });
        let tx = records(kind, |hv| {
            hv.transmit(0, 64);
        });
        assert_eq!(out.first().map(|r| r.0), Some("hw:trap-el2"), "{kind}");
        assert_eq!(out.last().map(|r| r.0), Some(wake), "{kind}");
        assert!(
            tx.windows(out.len()).any(|run| run == out),
            "{kind}: I/O Latency Out's {} records are not one run of transmit's {}",
            out.len(),
            tx.len()
        );
    }
}

#[test]
fn kvm_arm_io_latency_in_is_the_backend_signal_plus_an_injection() {
    // After vhost's two host-side charges, I/O Latency In is the same
    // injection every other virtual interrupt takes, up to the guest's
    // ack (the microbenchmark stops its clock there; no EOI is charged).
    for kind in [HvKind::KvmArm, HvKind::KvmArmVhe] {
        let io_in = records(kind, |hv| {
            hv.io_latency_in(0);
        });
        let virq = records(kind, |hv| {
            hv.deliver_virq(0);
        });
        let backend: Vec<&str> = io_in.iter().take(2).map(|r| r.0).collect();
        assert_eq!(backend, ["kvm:irqfd-signal", "kvm:io-in-host"], "{kind}");
        assert_eq!(virq.last().map(|r| r.0), Some("gic:vif-eoi"), "{kind}");
        assert_eq!(io_in[2..], virq[..virq.len() - 1], "{kind}");
    }
}

#[test]
fn xen_arm_io_latency_in_ends_in_the_blocked_domu_wake() {
    // §IV: the receiving DomU VCPU is blocked, so after Dom0's event
    // send I/O Latency In pays exactly the wake that delivering any
    // interrupt to a blocked VCPU pays.
    let io_in = records(HvKind::XenArm, |hv| {
        hv.io_latency_in(0);
    });
    let wake = records(HvKind::XenArm, |hv| {
        hv.deliver_virq_blocked(0);
    });
    assert_eq!(wake.first().map(|r| r.0), Some("xen:wake-blocked"));
    assert!(io_in.ends_with(&wake), "{io_in:?}");
}

#[test]
fn native_bursts_charge_their_per_packet_paths() {
    // Natively a burst is one interrupt (or one doorbell) and one pass
    // of the stack over the whole burst: the per-packet path at the
    // burst's total length.
    let t = Cycles::new(1_000);
    let (mut burst, mut single) = (None, None);
    let burst_rx = records(HvKind::Native, |hv| {
        burst = Some(hv.receive_burst(4, 1024, t))
    });
    let rx = records(HvKind::Native, |hv| single = Some(hv.receive(4096, t)));
    assert_eq!((burst_rx, burst), (rx, single));
    let (mut burst, mut single) = (None, None);
    let burst_tx = records(HvKind::Native, |hv| {
        burst = Some(hv.transmit_burst(0, 4, 1024))
    });
    let tx = records(HvKind::Native, |hv| single = Some(hv.transmit(0, 4096)));
    assert_eq!((burst_tx, burst), (tx, single));
}

/// Runs every `Hypervisor` operation once on `hv`.
fn drive_every_operation(hv: &mut dyn Hypervisor) {
    hv.hypercall(0);
    hv.gicd_trap(0);
    hv.virtual_ipi(0, 1);
    hv.virq_complete(0);
    hv.vm_switch();
    hv.vm_switch();
    hv.io_latency_out(0);
    hv.io_latency_in(0);
    hv.guest_compute(0, Cycles::new(1_000));
    hv.transmit(0, 1_400);
    hv.receive(1_400, Cycles::ZERO);
    hv.deliver_virq(1);
    let vcpu = hv.next_irq_vcpu();
    hv.deliver_virq_blocked(vcpu);
    hv.receive_burst(4, 1_024, Cycles::ZERO);
    hv.transmit_burst(0, 4, 1_024);
}

/// A hardware step's trace label and the `CostModel` field it costs.
type HardwareField = (&'static str, fn(&CostModel) -> Cycles);

/// Checks every record of `hv` whose label `fields` names against the
/// cost that label's field has in `hv`'s own cost model, and returns
/// the labels it saw.
fn check_hardware_records(hv: &dyn Hypervisor, fields: &[HardwareField]) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for e in hv.machine().trace().events() {
        if let Some((label, field)) = fields.iter().find(|(l, _)| *l == e.label) {
            assert_eq!(e.duration, field(hv.cost()), "{}: {label}", hv.kind());
            if !seen.contains(label) {
                seen.push(*label);
            }
        }
    }
    seen
}

#[test]
fn hardware_steps_cost_the_same_under_every_hypervisor_on_an_architecture() {
    // The paper's 2×2: a hardware transition costs its architecture's
    // figure whichever hypervisor takes it. Only which steps a path
    // takes may differ (VHE moves no register class; Xen moves them
    // only on a VM switch).
    let arm: [HardwareField; 19] = [
        ("hw:trap-el2", |m| m.hw_trap),
        ("hw:eret", |m| m.hw_eret),
        ("save:gp", |m| m.gp.save),
        ("restore:gp", |m| m.gp.restore),
        ("save:fp", |m| m.fp.save),
        ("restore:fp", |m| m.fp.restore),
        ("save:el1-sys", |m| m.el1_sys.save),
        ("restore:el1-sys", |m| m.el1_sys.restore),
        ("save:vgic", |m| m.vgic.save),
        ("restore:vgic", |m| m.vgic.restore),
        ("save:timer", |m| m.timer.save),
        ("restore:timer", |m| m.timer.restore),
        ("save:el2-config", |m| m.el2_config.save),
        ("restore:el2-config", |m| m.el2_config.restore),
        ("save:el2-vm", |m| m.el2_vm.save),
        ("restore:el2-vm", |m| m.el2_vm.restore),
        ("gic:vif-ack", |m| m.gic_vif_access),
        ("gic:vif-eoi", |m| m.gic_vif_access),
        ("gic:phys-ack", |m| m.gic_phys_access),
    ];
    let mut kvm = KvmArm::new();
    drive_every_operation(&mut kvm);
    kvm.stage2_fault(0);
    let mut vhe = KvmArm::new_vhe();
    drive_every_operation(&mut vhe);
    vhe.stage2_fault(0);
    let mut xen = XenArm::new();
    drive_every_operation(&mut xen);
    xen.stage2_fault(0);
    for hv in [&kvm as &dyn Hypervisor, &vhe, &xen] {
        let seen = check_hardware_records(hv, &arm);
        // Each design traps, returns and touches both GIC interfaces;
        // all but VHE move every register class somewhere.
        let moved = seen
            .iter()
            .filter(|l| l.contains("save:") || l.contains("restore:"));
        let classes = if hv.kind() == HvKind::KvmArmVhe {
            0
        } else {
            14
        };
        assert_eq!(moved.count(), classes, "{}: {seen:?}", hv.kind());
        assert_eq!(seen.len(), 5 + classes, "{}: {seen:?}", hv.kind());
    }

    let x86: [HardwareField; 2] = [("hw:vmexit", |m| m.vmexit), ("hw:vmentry", |m| m.vmentry)];
    let mut kvm_x86 = KvmX86::new();
    drive_every_operation(&mut kvm_x86);
    kvm_x86.ept_fault(0);
    let mut xen_x86 = XenX86::new();
    drive_every_operation(&mut xen_x86);
    xen_x86.ept_fault(0);
    for hv in [&kvm_x86 as &dyn Hypervisor, &xen_x86] {
        assert_eq!(check_hardware_records(hv, &x86).len(), 2, "{}", hv.kind());
    }
}
