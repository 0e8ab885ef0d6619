//! Architectural conformance battery — kvm-unit-tests-style systematic
//! coverage of the CPU models' transition semantics.

use hvx::arch::{
    ArchVersion, ArmCpu, EretError, ExceptionLevel, ExitReason, HcrEl2, Syndrome, TrapCause, Vmcs,
    VmxError, X86Cpu, X86State,
};
use ExceptionLevel::{El0, El1, El2};

#[test]
fn exception_routing_table() {
    // (cause, hcr bits, from EL) -> expected target level.
    let guest = HcrEl2::guest_running();
    let off = HcrEl2::new();
    let mut vhe = guest;
    vhe.insert(HcrEl2::E2H);
    let cases: Vec<(TrapCause, HcrEl2, ExceptionLevel, ExceptionLevel)> = vec![
        (TrapCause::HYPERCALL, guest, El1, El2),
        (TrapCause::HYPERCALL, off, El1, El2), // HVC always targets EL2
        (TrapCause::Irq, guest, El1, El2),
        (TrapCause::Irq, guest, El0, El2),
        (TrapCause::Irq, off, El1, El1),
        (TrapCause::Irq, off, El0, El1),
        (TrapCause::Irq, vhe, El1, El2),
        (TrapCause::HYPERCALL, vhe, El1, El2),
        (
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: 0,
                write: false,
            }),
            guest,
            El1,
            El2,
        ),
    ];
    for (cause, hcr, from, want) in cases {
        let mut cpu = ArmCpu::new(ArchVersion::V8_1);
        if hcr.vhe_enabled() {
            cpu.enable_vhe().unwrap();
        }
        cpu.el2.hcr_el2 = hcr;
        cpu.start_at(from);
        assert_eq!(
            cpu.route_exception(cause),
            want,
            "cause {cause:?} from {from} with {hcr}"
        );
    }
}

#[test]
fn nested_exception_levels_unwind_in_order() {
    // EL0 -> EL1 (an interrupt the kernel handles) -> EL2 (hypercall
    // from the kernel) and back.
    let mut cpu = ArmCpu::new(ArchVersion::V8_0);
    cpu.el1.vbar_el1 = 0x4000_0000;
    cpu.el2.vbar_el2 = 0x8000_0000;
    cpu.start_at(El0);
    cpu.gp.pc = 0x11;
    cpu.take_exception(TrapCause::Irq);
    assert_eq!(cpu.current_el(), El1);
    let kernel_pc = cpu.gp.pc;
    cpu.take_exception(TrapCause::HYPERCALL);
    assert_eq!(cpu.current_el(), El2);
    assert_eq!(cpu.eret().unwrap(), El1);
    assert_eq!(cpu.gp.pc, kernel_pc);
    assert_eq!(cpu.eret().unwrap(), El0);
    assert_eq!(cpu.gp.pc, 0x11);
    // A third ERET has nowhere to go.
    assert_eq!(cpu.eret(), Err(EretError::EretFromEl0));
}

#[test]
fn esr_encodings_are_distinct_per_class() {
    let syndromes = [
        Syndrome::Hvc { imm: 0 },
        Syndrome::DataAbort {
            ipa: 0,
            write: false,
        },
    ];
    let classes: std::collections::BTreeSet<u8> =
        syndromes.iter().map(|s| s.exception_class()).collect();
    assert_eq!(classes.len(), syndromes.len(), "EC values collide");
    for s in syndromes {
        assert_eq!(Syndrome::class_of(s.encode()), s.exception_class());
    }
}

#[test]
fn vmx_state_machine_rejects_out_of_protocol_transitions() {
    let mut cpu = X86Cpu::new();
    let mut vmcs = Vmcs::default();
    // Double entry, exit from root, entry after exit — full matrix.
    assert_eq!(
        cpu.vmexit(&mut vmcs, ExitReason::Hlt),
        Err(VmxError::NotInNonRoot)
    );
    cpu.vmentry(&mut vmcs).unwrap();
    assert_eq!(cpu.vmentry(&mut vmcs), Err(VmxError::AlreadyNonRoot));
    cpu.vmexit(&mut vmcs, ExitReason::Hlt).unwrap();
    assert_eq!(
        cpu.vmexit(&mut vmcs, ExitReason::Hlt),
        Err(VmxError::NotInNonRoot)
    );
}

#[test]
fn vmcs_isolates_two_vms_sharing_a_cpu() {
    // The x86 VM Switch mechanism: two VMCSs, one CPU; each VM's
    // progress survives arbitrary interleaving.
    let mut cpu = X86Cpu::new();
    let mut a = Vmcs {
        guest: X86State::fill_pattern(1),
        ..Vmcs::default()
    };
    let mut b = Vmcs {
        guest: X86State::fill_pattern(2),
        ..Vmcs::default()
    };
    for round in 0..5u64 {
        cpu.vmentry(&mut a).unwrap();
        cpu.live.gp[0] += 1;
        cpu.vmexit(&mut a, ExitReason::Hlt).unwrap();
        cpu.vmentry(&mut b).unwrap();
        cpu.live.gp[0] += 100;
        cpu.vmexit(&mut b, ExitReason::Hlt).unwrap();
        assert_eq!(a.guest.gp[0], X86State::fill_pattern(1).gp[0] + round + 1);
        assert_eq!(
            b.guest.gp[0],
            X86State::fill_pattern(2).gp[0] + (round + 1) * 100
        );
    }
}

#[test]
fn vhe_enablement_matrix() {
    // (version, level) -> enable_vhe outcome.
    for (version, el, ok) in [
        (ArchVersion::V8_0, El2, false),
        (ArchVersion::V8_1, El2, true),
        (ArchVersion::V8_1, El1, false),
        (ArchVersion::V8_1, El0, false),
    ] {
        let mut cpu = ArmCpu::new(version);
        cpu.start_at(el);
        assert_eq!(cpu.enable_vhe().is_ok(), ok, "{version:?} at {el}");
    }
}
