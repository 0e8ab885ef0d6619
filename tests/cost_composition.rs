//! Calibration-identity tests: every Table II number must equal the
//! documented composition of its path's primitive costs. These guard the
//! cost model against silent drift — if a constant or a path changes,
//! the identity that justified it fails by name.

use hvx::core::{CostModel, Hypervisor, KvmArm, KvmX86, XenArm, XenX86};
use hvx::engine::Cycles;

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
