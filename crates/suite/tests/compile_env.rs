//! The loop compiler's environment gate (`HVX_COMPILE`), and a cost
//! perturbation (`HVX_COST_PERTURB`) leaving it alone. Setting them
//! changes the whole process, and `SimBuilder::build` reads
//! `HVX_COST_PERTURB`, so this test has a test binary, and therefore a
//! process, to itself.

use hvx_core::{HvKind, VirqPolicy, Workload};
use hvx_engine::thread_replayed_transitions;
use hvx_suite::{fig4, workloads};

#[test]
fn only_hvx_compile_disables_compilation() {
    // This test owns the two env vars; nothing else in this binary
    // reads them.
    std::env::set_var("HVX_COMPILE", "off");
    assert!(!workloads::compile_enabled());
    std::env::set_var("HVX_COMPILE", "0");
    assert!(!workloads::compile_enabled());
    std::env::set_var("HVX_COMPILE", "FALSE");
    assert!(!workloads::compile_enabled());
    std::env::set_var("HVX_COMPILE", "1");
    assert!(workloads::compile_enabled());
    std::env::remove_var("HVX_COMPILE");
    assert!(workloads::compile_enabled());

    // A perturbed cost model is as steady as the calibrated one: a
    // perturbed Figure 4 cell still replays its steady state, and the
    // perturbation still reaches its number.
    let cell = || {
        fig4::measure_bar(Workload::TcpRr, HvKind::KvmArm, VirqPolicy::Vcpu0)
            .unwrap()
            .unwrap()
    };
    let clean = cell();
    std::env::set_var("HVX_COST_PERTURB", "hw_trap=+50");
    assert!(workloads::compile_enabled());
    let before = thread_replayed_transitions();
    let perturbed = cell();
    assert!(
        thread_replayed_transitions() > before,
        "a perturbed Fig. 4 cell must replay"
    );
    assert_ne!(perturbed, clean, "the perturbation must reach the cell");
    std::env::remove_var("HVX_COST_PERTURB");
}
