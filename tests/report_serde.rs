//! The `hvx-repro --json` export path: every report type serializes to
//! JSON that downstream tooling can parse, and the values survive the
//! trip.

use hvx::suite::{ablations, micro, netperf, table3};

#[test]
fn table2_json_round_trips() {
    let t = micro::Table2::measure(2).unwrap();
    let json = serde_json::to_string(&t).expect("serialize");
    let back: micro::Table2 = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.rows.len(), t.rows.len());
    for (a, b) in t.rows.iter().zip(&back.rows) {
        for (ca, cb) in a.1.iter().zip(&b.1) {
            assert_eq!(ca.measured, cb.measured);
            assert_eq!(ca.paper, cb.paper);
        }
    }
}

#[test]
fn table5_json_round_trips() {
    let t = netperf::Table5::measure(5).unwrap();
    let json = serde_json::to_string(&t).expect("serialize");
    let back: netperf::Table5 = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.kvm.trans_per_s, t.kvm.trans_per_s);
    assert_eq!(back.xen.recv_to_vm_recv, t.xen.recv_to_vm_recv);
    assert_eq!(back.native.overhead, None);
}

#[test]
fn write_only_reports_serialize() {
    // These deliberately don't implement Deserialize (they hold &'static
    // paper metadata); serialization must still be valid JSON with the
    // key fields present.
    let t3 = table3::Table3::measure().unwrap();
    let v: serde_json::Value = serde_json::to_value(&t3).unwrap();
    assert_eq!(v["hypercall_total"], 6_500);
    assert_eq!(v["rows"][3]["class"], "VGIC Regs");
    assert_eq!(v["rows"][3]["save"], 3_250);

    let vapic = ablations::vapic().unwrap();
    let v: serde_json::Value = serde_json::to_value(vapic).unwrap();
    assert_eq!(v["arm"], 71);

    let z = ablations::zero_copy().unwrap();
    let v: serde_json::Value = serde_json::to_value(z).unwrap();
    assert!(v["copy"].as_u64().unwrap() >= 7_000);
}

#[test]
fn json_is_deterministic_across_runs() {
    let a = serde_json::to_string(micro::Table2::measure(2).unwrap()).unwrap();
    let b = serde_json::to_string(micro::Table2::measure(2).unwrap()).unwrap();
    assert_eq!(a, b);
}
