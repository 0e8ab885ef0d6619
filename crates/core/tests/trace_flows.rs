//! Cross-machine causal-flow integration tests.
//!
//! The event tracer's value is the *stitching*: a virtio kick that
//! begins on a guest core must end on the backend core, and an
//! interrupt-delivery chain that begins on the I/O core must end with
//! the guest's acknowledge on a VCPU core. These tests drive the real
//! I/O paths of all four measured hypervisors with tracing enabled and
//! assert the chains exist, are complete, span machines (core groups),
//! and that the derived end-to-end latencies reproduce the paper's
//! Figure 4 asymmetry: Xen routes delivery through Dom0 (wake,
//! netback, grant copy, event channel), so its chain latency must be
//! the larger one.

use hvx_core::{HvKind, SimBuilder, Workload};
use hvx_engine::MetricsRegistry;
use hvx_engine::{Cycles, EventTracer, FaultPlan, FaultPoint, FlowChain, FlowKind};

/// Runs one TX kick and one RX delivery with tracing on, returning the
/// captured tracer.
fn traced_round_trip(kind: HvKind) -> EventTracer {
    let mut sim = SimBuilder::new(kind)
        .workload(Workload::TcpRr)
        .event_tracing(true)
        .build()
        .expect("paper config");
    sim.transmit(0, 1024);
    let arrival = sim.machine().now(sim.machine().topology().io_core());
    sim.receive(1024, arrival);
    sim.machine_mut()
        .take_event_tracer()
        .expect("tracing was enabled")
}

fn complete_chain_latency(tracer: &EventTracer, kind: FlowKind) -> u64 {
    let chains = tracer.chains();
    let chain = chains
        .iter()
        .find(|c| c.kind == kind && c.complete)
        .unwrap_or_else(|| panic!("no complete {} chain", kind.name()));
    chain.latency
}

#[test]
fn kvm_kick_and_delivery_chains_cross_machines() {
    let tracer = traced_round_trip(HvKind::KvmArm);
    let chains = tracer.chains();
    // TX: virtio kick begins on the guest core, ends on the backend.
    let kick = chains
        .iter()
        .find(|c| c.kind == FlowKind::VirtioKick && c.complete)
        .expect("complete virtio-kick chain");
    assert!(kick.track_span() >= 2, "kick chain must cross cores");
    assert!(kick.points.len() >= 3, "begin, wake, end");
    // RX: irq delivery begins on the I/O core, ends on a VCPU core.
    let irq = chains
        .iter()
        .find(|c| c.kind == FlowKind::IrqDelivery && c.complete)
        .expect("complete irq-delivery chain");
    assert!(irq.track_span() >= 2, "delivery chain must cross cores");
    assert!(
        irq.points.iter().any(|p| p.label == "virq:inject"),
        "delivery chain passes through the vGIC inject hop"
    );
    assert_eq!(
        irq.points.last().expect("nonempty").label,
        "guest:ack",
        "delivery completes at the guest acknowledge"
    );
}

#[test]
fn xen_signal_and_delivery_chains_cross_machines() {
    let tracer = traced_round_trip(HvKind::XenArm);
    let chains = tracer.chains();
    let signal = chains
        .iter()
        .find(|c| c.kind == FlowKind::EvtchnSignal && c.complete)
        .expect("complete event-channel chain");
    assert!(
        signal.track_span() >= 2,
        "evtchn chain must reach Dom0's core"
    );
    assert!(
        signal.points.iter().any(|p| p.label == "dom0:wake"),
        "signal chain records the Dom0 wakeup hop"
    );
    // The grant-copy chains open and close on the Dom0 side.
    assert!(
        chains
            .iter()
            .any(|c| c.kind == FlowKind::GrantCopy && c.complete),
        "grant copies appear as complete chains"
    );
    let irq = chains
        .iter()
        .find(|c| c.kind == FlowKind::IrqDelivery && c.complete)
        .expect("complete irq-delivery chain");
    assert_eq!(irq.points.last().expect("nonempty").label, "guest:ack");
}

#[test]
fn xen_interrupt_delivery_is_slower_than_kvm_end_to_end() {
    // Figure 4 direction: Xen must route every device interrupt through
    // Dom0 — credit-scheduler wakeup, netback, a grant copy, and an
    // event-channel signal — before the vGIC inject, while KVM's vhost
    // path injects straight from the host's I/O core. KVM's *inject* is
    // the pricier primitive (it world-switches the VCPU), but end to
    // end the Dom0 round trip dominates, so the delivery chain costs
    // Xen more.
    let kvm = traced_round_trip(HvKind::KvmArm);
    let xen = traced_round_trip(HvKind::XenArm);
    let kvm_lat = complete_chain_latency(&kvm, FlowKind::IrqDelivery);
    let xen_lat = complete_chain_latency(&xen, FlowKind::IrqDelivery);
    assert!(
        xen_lat > kvm_lat,
        "paper direction violated: xen {xen_lat} <= kvm {kvm_lat}"
    );
    // The same asymmetry must survive the derivation pass.
    let mut km = MetricsRegistry::new();
    let mut xm = MetricsRegistry::new();
    kvm.derive_metrics(&mut km);
    xen.derive_metrics(&mut xm);
    let mean = |m: &MetricsRegistry| {
        m.histogram("trace.latency.irq_delivery")
            .expect("derived histogram")
            .mean()
    };
    assert!(mean(&xm) > mean(&km));
}

#[test]
fn off_mode_charges_identical_cycles() {
    // Tracing must observe, never perturb: the same round trip with
    // and without the tracer lands every core clock on the same cycle.
    let run = |tracing: bool| {
        let mut sim = SimBuilder::new(HvKind::KvmArm)
            .event_tracing(tracing)
            .build()
            .expect("paper config");
        sim.transmit(0, 1024);
        let arrival = sim.machine().now(sim.machine().topology().io_core());
        sim.receive(1024, arrival);
        let m = sim.machine();
        m.topology()
            .all_cores()
            .map(|c| m.now(c).as_u64())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}

/// The labels of `chain`'s points, in order.
fn hops(chain: &FlowChain) -> Vec<&'static str> {
    chain.points.iter().map(|p| p.label).collect()
}

#[test]
fn x86_kick_and_delivery_chains_cross_machines() {
    // The port-I/O doorbell opens the kick chain on the guest core; it
    // steps at the backend's wake and ends at the NIC's DMA. The NIC
    // interrupt opens the delivery chain on the I/O core; it ends at
    // the guest's acknowledge after the injection.
    for (kind, kick_kind, kick) in [
        (
            HvKind::KvmX86,
            FlowKind::VirtioKick,
            ["virtio:kick", "vhost:wake", "nic:dma"],
        ),
        (
            HvKind::XenX86,
            FlowKind::EvtchnSignal,
            ["evtchn:send", "dom0:wake", "nic:dma"],
        ),
    ] {
        let tracer = traced_round_trip(kind);
        let chains = tracer.chains();
        let tx = chains
            .iter()
            .find(|c| c.kind == kick_kind && c.complete)
            .unwrap_or_else(|| panic!("{kind}: no complete kick chain"));
        assert_eq!(hops(tx), kick, "{kind}");
        assert!(tx.track_span() >= 2, "{kind}: kick chain must cross cores");
        let irq = chains
            .iter()
            .find(|c| c.kind == FlowKind::IrqDelivery && c.complete)
            .unwrap_or_else(|| panic!("{kind}: no complete irq-delivery chain"));
        let irq_hops = hops(irq);
        assert_eq!(irq_hops.first(), Some(&"host:irq"), "{kind}");
        assert!(irq_hops.contains(&"virq:inject"), "{kind}: {irq_hops:?}");
        assert_eq!(irq_hops.last(), Some(&"guest:ack"), "{kind}");
        assert!(irq.track_span() >= 2, "{kind}: delivery must cross cores");
    }
}

#[test]
fn xen_x86_interrupt_delivery_is_slower_than_kvm_x86_end_to_end() {
    // The same Figure 4 direction on x86: Xen x86's delivery runs
    // through Dom0's wake, netback, a grant copy and an event channel.
    let kvm = complete_chain_latency(&traced_round_trip(HvKind::KvmX86), FlowKind::IrqDelivery);
    let xen = complete_chain_latency(&traced_round_trip(HvKind::XenX86), FlowKind::IrqDelivery);
    assert!(
        xen > kvm,
        "paper direction violated: xen {xen} <= kvm {kvm}"
    );
}

#[test]
fn x86_fault_recoveries_end_the_chains_their_faults_open() {
    // As on ARM: a delayed vhost worker opens a recovery chain that the
    // driver's re-kick ends, and a lost Xen upcall one that the
    // event-channel redelivery ends.
    for (kind, point, want) in [
        (
            HvKind::KvmX86,
            FaultPoint::VhostDelay,
            ["fault:vhost-delay", "virtio:tx-rekick"],
        ),
        (
            HvKind::XenX86,
            FaultPoint::VirqDrop,
            ["fault:upcall-lost", "xen:evtchn-redeliver"],
        ),
    ] {
        let mut sim = SimBuilder::new(kind)
            .event_tracing(true)
            .fault_plan(FaultPlan::new(1).with_rate(point, 1.0))
            .build()
            .expect("paper config");
        sim.transmit(0, 1024);
        let arrival = sim.machine().now(sim.machine().topology().io_core());
        sim.receive(1024, arrival);
        let tracer = sim.machine_mut().take_event_tracer().expect("tracing");
        let chains = tracer.chains();
        let recovery = chains
            .iter()
            .find(|c| c.kind == FlowKind::FaultRecovery && c.complete)
            .unwrap_or_else(|| panic!("{kind}: no complete recovery chain"));
        assert_eq!(hops(recovery), want, "{kind}");
    }
}

#[test]
fn kvm_arm_burst_steps_vhost_rx_where_receive_does() {
    // The delivery chain's vhost hop precedes vhost's charge on both
    // receive paths, so a one-chunk burst and a packet arriving alike
    // record it at the same instant.
    let vhost_rx = |burst: bool| {
        let mut sim = SimBuilder::new(HvKind::KvmArm)
            .event_tracing(true)
            .build()
            .expect("paper config");
        let arrival = Cycles::new(1_000);
        if burst {
            sim.receive_burst(1, 1024, arrival);
        } else {
            sim.receive(1024, arrival);
        }
        let tracer = sim.machine_mut().take_event_tracer().expect("tracing");
        let chains = tracer.chains();
        let irq = chains
            .iter()
            .find(|c| c.kind == FlowKind::IrqDelivery)
            .expect("delivery chain");
        let hop = irq.points.iter().find(|p| p.label == "vhost:rx");
        hop.expect("vhost hop").ts
    };
    assert_eq!(vhost_rx(true), vhost_rx(false));
}
