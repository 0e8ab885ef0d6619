//! The loop compiler's environment gates (`HVX_COMPILE`,
//! `HVX_COST_PERTURB`). Setting them changes the whole process, and
//! `SimBuilder::build` reads `HVX_COST_PERTURB`, so this test has a
//! test binary, and therefore a process, to itself.

use hvx_suite::workloads;

#[test]
fn env_gating_disables_compilation() {
    // This test owns the two env vars; every other test in this binary
    // passes the compile flag explicitly and never reads them.
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
    std::env::set_var("HVX_COST_PERTURB", "0.01");
    assert!(!workloads::compile_enabled());
    std::env::set_var("HVX_COST_PERTURB", "  ");
    assert!(workloads::compile_enabled());
    std::env::remove_var("HVX_COST_PERTURB");
    assert!(workloads::compile_enabled());
}
