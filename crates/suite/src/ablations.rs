//! The paper's ablations and the §VI architectural projection.
//!
//! * [`irq_distribution`] — §V: "we verified this by distributing
//!   virtual interrupts across multiple VCPUs", Apache 35→14 % (KVM) and
//!   84→16 % (Xen); Memcached 26→8 % and 32→9 %.
//! * [`vhe`] — §VI: VHE lets KVM ARM run its host in EL2, collapsing
//!   transition costs and projecting 10–20 % improvements on real I/O
//!   workloads, "yielding superior performance to a Type 1 hypervisor
//!   such as Xen".
//! * [`zero_copy`] — §V: why Xen copies instead of mapping (x86 TLB
//!   shootdowns beat the copy), and the open ARM question (hardware
//!   broadcast TLBI could make mapping cheap).
//!
//! Every model is built through [`SimBuilder`], so a cost override or
//! `HVX_COST_PERTURB` reaches each ablation as it reaches the tables.

use crate::fig4::overhead;
use crate::netperf::{self, RrFaultStats};
use crate::workloads::{self, DiskDevice, Mix};
use hvx_core::{
    CostModel, Error, HvKind, Hypervisor, KvmX86, Sim, SimBuilder, VirqPolicy, Workload,
};
use hvx_engine::{Cycles, FaultPlan, FaultPoint, Frequency, TransitionId};
use hvx_mem::{ShootdownMethod, TlbModel};
use serde::{Deserialize, Serialize};

/// Builds `kind` with the default paper configuration.
fn sim(kind: HvKind) -> Result<Sim, Error> {
    SimBuilder::new(kind).build()
}

/// [`overhead`] on the ARM pair every I/O ablation compares: (KVM ARM,
/// Xen ARM).
fn arm_overheads(mix: Mix) -> Result<(f64, f64), Error> {
    Ok((
        overhead(SimBuilder::new(HvKind::KvmArm), mix, VirqPolicy::Vcpu0)?,
        overhead(SimBuilder::new(HvKind::XenArm), mix, VirqPolicy::Vcpu0)?,
    ))
}

// ---------------------------------------------------------------------
// Interrupt distribution
// ---------------------------------------------------------------------

/// One row of the interrupt-distribution ablation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IrqDistributionRow {
    /// Workload name.
    pub workload: &'static str,
    /// Configuration.
    pub hv: HvKind,
    /// Overhead (fraction above native) with all virqs on VCPU0.
    pub concentrated: f64,
    /// Overhead with virqs distributed over all VCPUs.
    pub distributed: f64,
    /// The paper's pair.
    pub paper: (f64, f64),
}

/// Runs the §V interrupt-distribution ablation for Apache and Memcached
/// on both ARM hypervisors.
pub fn irq_distribution() -> Result<Vec<IrqDistributionRow>, Error> {
    let mut rows = Vec::new();
    for (workload, hv_kind, before, after) in crate::paper::IRQ_DISTRIBUTION {
        let mix = workloads::mix(workload);
        let run = |policy: VirqPolicy| -> Result<f64, Error> {
            Ok(overhead(SimBuilder::new(hv_kind), mix, policy)? - 1.0)
        };
        rows.push(IrqDistributionRow {
            workload: workload.catalog_name(),
            hv: hv_kind,
            concentrated: run(VirqPolicy::Vcpu0)?,
            distributed: run(VirqPolicy::RoundRobin)?,
            paper: (before, after),
        });
    }
    Ok(rows)
}

/// Renders the ablation table.
pub fn render_irq_distribution(rows: &[IrqDistributionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:<10}{:>18}{:>18}{:>22}\n",
        "Workload", "HV", "vcpu0-only", "distributed", "paper (before/after)"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:<10}{:>17.0}%{:>17.0}%{:>15.0}% /{:>3.0}%\n",
            r.workload,
            r.hv.to_string(),
            r.concentrated * 100.0,
            r.distributed * 100.0,
            r.paper.0 * 100.0,
            r.paper.1 * 100.0
        ));
    }
    out
}

// ---------------------------------------------------------------------
// VHE projection
// ---------------------------------------------------------------------

/// The §VI projection measured on the models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VheProjection {
    /// (microbenchmark name, classic KVM ARM cycles, VHE cycles, Xen ARM
    /// cycles) for the transition-bound microbenchmarks.
    pub micro: Vec<(&'static str, u64, u64, u64)>,
    /// (workload name, classic overhead, VHE overhead, Xen overhead) for
    /// the I/O workloads.
    pub workloads: Vec<(&'static str, f64, f64, f64)>,
}

/// Measures the VHE projection: microbenchmark transition costs and the
/// I/O-bound application overheads under classic KVM ARM, KVM ARM + VHE,
/// and Xen ARM.
pub fn vhe() -> Result<VheProjection, Error> {
    use crate::micro::Micro;
    let micro_set = [
        Micro::Hypercall,
        Micro::InterruptControllerTrap,
        Micro::IoLatencyOut,
        Micro::IoLatencyIn,
        Micro::VirtualIpi,
    ];
    let mut micro = Vec::new();
    for m in micro_set {
        let classic = m.run(sim(HvKind::KvmArm)?.as_dyn_mut(), 3).as_u64();
        let vhe = m.run(sim(HvKind::KvmArmVhe)?.as_dyn_mut(), 3).as_u64();
        let xen = m.run(sim(HvKind::XenArm)?.as_dyn_mut(), 3).as_u64();
        micro.push((m.name(), classic, vhe, xen));
    }
    let io_workloads = [
        Workload::TcpRr,
        Workload::Apache,
        Workload::Memcached,
        Workload::TcpStream,
    ];
    let mut wl = Vec::new();
    for workload in io_workloads {
        let mix = workloads::mix(workload);
        let (classic, xen) = arm_overheads(mix)?;
        let vhe = overhead(SimBuilder::new(HvKind::KvmArmVhe), mix, VirqPolicy::Vcpu0)?;
        wl.push((workload.catalog_name(), classic, vhe, xen));
    }
    Ok(VheProjection {
        micro,
        workloads: wl,
    })
}

/// Renders the VHE projection.
pub fn render_vhe(p: &VheProjection) -> String {
    let mut out = String::new();
    out.push_str("Microbenchmarks (cycles):\n");
    out.push_str(&format!(
        "{:<28}{:>12}{:>12}{:>12}{:>10}\n",
        "", "KVM ARM", "KVM+VHE", "Xen ARM", "speedup"
    ));
    for (name, classic, vhe, xen) in &p.micro {
        out.push_str(&format!(
            "{:<28}{:>12}{:>12}{:>12}{:>9.1}x\n",
            name,
            classic,
            vhe,
            xen,
            *classic as f64 / *vhe as f64
        ));
    }
    out.push_str("\nI/O application workloads (normalized overhead):\n");
    out.push_str(&format!(
        "{:<28}{:>12}{:>12}{:>12}\n",
        "", "KVM ARM", "KVM+VHE", "Xen ARM"
    ));
    for (name, classic, vhe, xen) in &p.workloads {
        out.push_str(&format!(
            "{name:<28}{classic:>12.2}{vhe:>12.2}{xen:>12.2}\n"
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Zero copy
// ---------------------------------------------------------------------

/// Per-packet cost comparison of Xen's three possible netback designs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ZeroCopyAnalysis {
    /// Grant-copy cost per packet (what Xen ships), cycles.
    pub copy: u64,
    /// Map + access + unmap with IPI-based shootdown (the abandoned x86
    /// zero-copy design), cycles.
    pub map_ipi_shootdown: u64,
    /// Map + access + unmap with ARM broadcast TLBI (the paper's open
    /// question), cycles.
    pub map_broadcast_tlbi: u64,
    /// TCP_STREAM overhead with copies (measured on the Xen ARM model).
    pub stream_overhead_copy: f64,
    /// Projected TCP_STREAM overhead if per-packet copy cost were
    /// replaced by the broadcast-TLBI mapping cost.
    pub stream_overhead_mapped_arm: f64,
}

/// Prices the §V zero-copy trade mechanically: grant-table map/unmap
/// against [`TlbModel`] shootdown plans on both architectures, and its
/// projected effect on TCP_STREAM.
pub fn zero_copy() -> Result<ZeroCopyAnalysis, Error> {
    let cost = SimBuilder::new(HvKind::XenArm).resolved_cost()?;
    let cores = 8;
    // Mapping path: grant map + unmap bookkeeping plus the TLB
    // maintenance the unmap requires.
    let map_unmap = Cycles::new(900); // hypercall + grant-table updates
    let mut ipi_tlb = TlbModel::new(cores, ShootdownMethod::IpiFlush);
    let plan = ipi_tlb.shootdown();
    let ipi_cost = map_unmap
        + Cycles::new(plan.ipis as u64 * (cost.ipi_wire.as_u64() + 500))
        + Cycles::new(150);
    let mut bcast_tlb = TlbModel::new(cores, ShootdownMethod::BroadcastTlbi);
    let plan_b = bcast_tlb.shootdown();
    debug_assert_eq!(plan_b.ipis, 0);
    let bcast_cost = map_unmap + Cycles::new(150);

    // Project TCP_STREAM with the cheaper maintenance.
    let mix = Mix::StreamRx {
        chunks: 44,
        chunk_len: 1_490,
        bursts: 24,
        link_mbit: 10_000,
    };
    let stream_copy = overhead(SimBuilder::new(HvKind::XenArm), mix, VirqPolicy::Vcpu0)?;
    // The override derives from the calibrated default; the builder
    // applies any perturbation on top of it.
    let mut mapped_cost = CostModel::arm();
    mapped_cost.xen_grant_copy = bcast_cost;
    let mapped_xen = SimBuilder::new(HvKind::XenArm).cost_model(mapped_cost);
    let stream_mapped = overhead(mapped_xen, mix, VirqPolicy::Vcpu0)?;

    Ok(ZeroCopyAnalysis {
        copy: cost.xen_grant_copy.as_u64(),
        map_ipi_shootdown: ipi_cost.as_u64(),
        map_broadcast_tlbi: bcast_cost.as_u64(),
        stream_overhead_copy: stream_copy,
        stream_overhead_mapped_arm: stream_mapped,
    })
}

/// Renders the zero-copy analysis.
pub fn render_zero_copy(z: &ZeroCopyAnalysis) -> String {
    format!(
        "Per-packet Xen I/O data-movement cost (cycles):\n\
           grant copy (shipped design):            {:>8}\n\
           map/unmap + IPI shootdown (x86 design): {:>8}\n\
           map/unmap + broadcast TLBI (ARM HW):    {:>8}\n\
         On x86 the mapped path {} the copy -> zero copy was abandoned (§V).\n\
         On ARM broadcast TLBI would make mapping {:.1}x cheaper than copying.\n\n\
         Projected TCP_STREAM overhead on Xen ARM:\n\
           with grant copies:     {:.2}x native\n\
           with mapped zero-copy: {:.2}x native\n",
        z.copy,
        z.map_ipi_shootdown,
        z.map_broadcast_tlbi,
        if z.map_ipi_shootdown as f64 > 0.9 * z.copy as f64 {
            "roughly matches or exceeds"
        } else {
            "beats"
        },
        z.copy as f64 / z.map_broadcast_tlbi as f64,
        z.stream_overhead_copy,
        z.stream_overhead_mapped_arm,
    )
}

// ---------------------------------------------------------------------
// Link speed
// ---------------------------------------------------------------------

/// TCP_STREAM overhead at two link speeds — §III's methodological
/// observation, reproduced.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkSpeedAblation {
    /// Overheads at 10 GbE: (KVM ARM, Xen ARM).
    pub ten_gbe: (f64, f64),
    /// Overheads at 1 GbE: (KVM ARM, Xen ARM).
    pub one_gbe: (f64, f64),
}

/// Runs TCP_STREAM at 10 GbE and 1 GbE. At 1 GbE "the network itself
/// became the bottleneck" (§III): even Xen's per-packet grant copies
/// hide behind the slow wire and every overhead collapses toward 1.0.
pub fn link_speed() -> Result<LinkSpeedAblation, Error> {
    let run = |link_mbit: u64| {
        arm_overheads(Mix::StreamRx {
            chunks: 44,
            chunk_len: 1_490,
            bursts: 24,
            link_mbit,
        })
    };
    Ok(LinkSpeedAblation {
        ten_gbe: run(10_000)?,
        one_gbe: run(1_000)?,
    })
}

/// Renders the link-speed ablation.
pub fn render_link_speed(l: &LinkSpeedAblation) -> String {
    format!(
        "TCP_STREAM overhead vs link speed (1.0 = native):\n\
         {:<10}{:>10}{:>10}\n\
         {:<10}{:>10.2}{:>10.2}\n\
         {:<10}{:>10.2}{:>10.2}\n\
         At 1 GbE the wire hides the hypervisors entirely (S III: 'many\n\
         benchmarks were unaffected by virtualization when run over 1 Gb\n\
         Ethernet, because the network itself became the bottleneck').\n",
        "",
        "KVM ARM",
        "Xen ARM",
        "10 GbE",
        l.ten_gbe.0,
        l.ten_gbe.1,
        "1 GbE",
        l.one_gbe.0,
        l.one_gbe.1
    )
}

// ---------------------------------------------------------------------
// vAPIC
// ---------------------------------------------------------------------

/// x86 interrupt-completion costs with and without hardware vAPIC.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VapicAblation {
    /// Virtual IRQ Completion, pre-vAPIC KVM x86 (cycles).
    pub x86_classic: u64,
    /// Virtual IRQ Completion with vAPIC (cycles).
    pub x86_vapic: u64,
    /// The ARM value (71 cycles) for comparison.
    pub arm: u64,
}

/// Measures §IV's forward-looking note: "vAPIC support has been added to
/// x86 with similar functionality to avoid the need to trap ... so that
/// newer x86 hardware with vAPIC support should perform more comparably
/// to ARM". The vAPIC model has no [`HvKind`] of its own, so it takes
/// the cost model [`SimBuilder`] resolves for KVM x86.
///
/// # Errors
///
/// [`Error::Perturbation`] for a malformed `HVX_COST_PERTURB`.
pub fn vapic() -> Result<VapicAblation, Error> {
    let x86 = SimBuilder::new(HvKind::KvmX86);
    let mut with_vapic = KvmX86::with_vapic(x86.resolved_cost()?);
    Ok(VapicAblation {
        x86_classic: x86.build()?.virq_complete(0).as_u64(),
        x86_vapic: with_vapic.virq_complete(0).as_u64(),
        arm: sim(HvKind::KvmArm)?.virq_complete(0).as_u64(),
    })
}

/// Renders the vAPIC ablation.
pub fn render_vapic(v: &VapicAblation) -> String {
    format!(
        "Virtual IRQ Completion (cycles):\n\
           KVM x86, trapping EOI:   {:>6}\n\
           KVM x86, hardware vAPIC: {:>6}\n\
           KVM ARM (GIC vIF):       {:>6}\n\
         vAPIC removes the EOI exit, closing most of the {}x gap to ARM.\n",
        v.x86_classic,
        v.x86_vapic,
        v.arm,
        v.x86_classic / v.arm
    )
}

// ---------------------------------------------------------------------
// Oversubscription
// ---------------------------------------------------------------------

/// VM-switch overhead when physical CPUs are oversubscribed, priced at
/// each hypervisor's Table II VM Switch cost over a credit-scheduler
/// simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OversubscriptionAblation {
    /// (vms per core, timeslice µs, KVM ARM overhead, Xen ARM overhead,
    /// KVM x86 overhead, Xen x86 overhead).
    pub points: Vec<(u32, f64, f64, f64, f64, f64)>,
}

/// Sweeps oversubscription ratio and timeslice, pricing switches at the
/// four hypervisors' Table II VM Switch costs — the "central cost when
/// oversubscribing physical CPUs" of Table I made concrete.
pub fn oversubscription() -> OversubscriptionAblation {
    use hvx_core::sched::oversubscription_point;
    // Table II's columns are the four measured configurations, in
    // `paper::COLUMNS` order.
    let costs = crate::paper::TABLE2
        .iter()
        .find(|(row, _)| *row == "VM Switch")
        .expect("Table II has a VM Switch row")
        .1
        .map(Cycles::new);
    let mut points = Vec::new();
    for (vms, ts_us) in [(2u32, 1_000.0f64), (2, 100.0), (4, 1_000.0), (4, 100.0)] {
        let ts = Cycles::new((ts_us * 2_400.0) as u64);
        let ov: Vec<f64> = costs
            .iter()
            .map(|c| oversubscription_point(vms, ts, *c).switch_overhead)
            .collect();
        points.push((vms, ts_us, ov[0], ov[1], ov[2], ov[3]));
    }
    OversubscriptionAblation { points }
}

/// Renders the oversubscription sweep.
pub fn render_oversubscription(o: &OversubscriptionAblation) -> String {
    let mut out = String::new();
    out.push_str("VM-switch overhead under oversubscription (fraction of CPU time):\n");
    out.push_str(&format!(
        "{:<10}{:<14}{:>10}{:>10}{:>10}{:>10}\n",
        "VMs/core", "timeslice us", "KVM ARM", "Xen ARM", "KVM x86", "Xen x86"
    ));
    for (vms, ts, a, b, c, d) in &o.points {
        out.push_str(&format!(
            "{:<10}{:<14}{:>9.2}%{:>9.2}%{:>9.2}%{:>9.2}%\n",
            vms,
            ts,
            a * 100.0,
            b * 100.0,
            c * 100.0,
            d * 100.0
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------

/// Block-I/O overhead across the paper's two storage devices.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StorageAblation {
    /// Overheads on the m400's SSD: (KVM ARM, Xen ARM).
    pub ssd: (f64, f64),
    /// Overheads on the r320's RAID5 array: (KVM ARM, Xen ARM).
    pub raid5: (f64, f64),
}

/// Runs the fio-style block benchmark over both §III storage devices:
/// the storage analog of the 1 GbE observation — a slow device hides
/// the paravirtual block stack, a fast SSD exposes it (and Xen's extra
/// grant copy).
pub fn storage() -> Result<StorageAblation, Error> {
    let run = |device: DiskDevice, requests: u32| {
        arm_overheads(Mix::DiskIo {
            requests,
            sectors: 8,
            device,
        })
    };
    Ok(StorageAblation {
        ssd: run(DiskDevice::Ssd, 32)?,
        raid5: run(DiskDevice::Raid5, 8)?,
    })
}

/// Renders the storage ablation.
pub fn render_storage(st: &StorageAblation) -> String {
    format!(
        "Random-read block I/O overhead (1.0 = native):\n\
         {:<16}{:>10}{:>10}\n\
         {:<16}{:>10.2}{:>10.2}\n\
         {:<16}{:>10.2}{:>10.2}\n\
         The slow RAID5 array hides the paravirtual block stack the same\n\
         way 1 GbE hid the network stack; the SSD exposes it, and Xen's\n\
         per-request grant copy on top.\n",
        "",
        "KVM ARM",
        "Xen ARM",
        "SSD (m400)",
        st.ssd.0,
        st.ssd.1,
        "RAID5 (r320)",
        st.raid5.0,
        st.raid5.1
    )
}

// ---------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------

/// Seed for the fault-recovery sweep; fixed so the artifact is
/// reproducible byte-for-byte.
pub const FAULT_RECOVERY_SEED: u64 = 42;

/// TCP_RR transactions per fault-recovery cell.
pub const FAULT_RECOVERY_TRANSACTIONS: usize = 40;

/// One (hypervisor, loss-rate) cell of the fault-recovery sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultRecoveryCell {
    /// Configuration.
    pub hv: HvKind,
    /// Wire loss probability applied to the response path.
    pub loss: f64,
    /// Resulting µs per transaction.
    pub time_per_trans: f64,
    /// Total faults the machine injected (all fault points).
    pub faults_injected: u64,
    /// TCP retransmissions the guest issued.
    pub retransmits: u64,
    /// Busy cycles attributed to recovery spans ([`TransitionId`]s
    /// `VirtioRekick`, `EvtchnRedeliver`, `GrantRetry`, `TcpRetransmit`).
    pub recovery_span_cycles: u64,
    /// Idle µs spent waiting on retransmit timers (recovery latency).
    pub rto_idle_us: f64,
}

/// The fault-recovery ablation: TCP_RR under a wire-loss sweep on all
/// four measured hypervisors, with the recovery work visible as
/// attributed spans rather than folded into unattributed time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRecoveryAblation {
    /// The deterministic seed every plan used.
    pub seed: u64,
    /// 4 hypervisors × 4 loss rates, hypervisor-major.
    pub cells: Vec<FaultRecoveryCell>,
}

/// The loss rates swept (fraction of response segments lost).
pub const FAULT_RECOVERY_LOSSES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// The four [`TransitionId`]s that attribute recovery work.
pub const RECOVERY_SPANS: [TransitionId; 4] = [
    TransitionId::VirtioRekick,
    TransitionId::EvtchnRedeliver,
    TransitionId::GrantRetry,
    TransitionId::TcpRetransmit,
];

fn fault_recovery_plan(loss: f64) -> FaultPlan {
    // Wire loss is the swept variable; the infrastructure fault points
    // ride along at lower rates so every recovery mechanism exercises
    // (vIRQ redelivery, grant retries, NIC re-kicks, vhost delays).
    FaultPlan::new(FAULT_RECOVERY_SEED)
        .with_rate(FaultPoint::WireDrop, loss)
        .with_rate(FaultPoint::WireCorrupt, loss / 2.0)
        .with_rate(FaultPoint::VirqDrop, loss / 4.0)
        .with_rate(FaultPoint::GrantCopyFail, loss / 2.0)
        .with_rate(FaultPoint::NicStall, loss / 8.0)
        .with_rate(FaultPoint::VhostDelay, loss / 8.0)
}

/// Runs the TCP_RR loss sweep. With `loss == 0` the plan is empty, the
/// machine carries no fault state, and the cell reproduces the plain
/// Table V path exactly.
pub fn fault_recovery() -> Result<FaultRecoveryAblation, Error> {
    let freq = Frequency::ARM_M400;
    let mut cells = Vec::new();
    for kind in HvKind::MEASURED {
        for loss in FAULT_RECOVERY_LOSSES {
            let mut sim = SimBuilder::new(kind)
                .workload(hvx_core::Workload::Netperf)
                .profiling(true)
                .fault_plan(fault_recovery_plan(loss))
                .build()?;
            let (col, stats): (netperf::RrColumn, RrFaultStats) =
                netperf::run_rr_lossy(sim.as_dyn_mut(), FAULT_RECOVERY_TRANSACTIONS, freq);
            sim.sample_metrics();
            let machine = sim.machine();
            let spans = machine.spans().expect("profiling enabled");
            let recovery_span_cycles: u64 = RECOVERY_SPANS
                .into_iter()
                .map(|id| spans.exclusive(id))
                .sum();
            cells.push(FaultRecoveryCell {
                hv: kind,
                loss,
                time_per_trans: col.time_per_trans,
                faults_injected: machine.total_faults_injected(),
                retransmits: stats.retransmits,
                recovery_span_cycles,
                rto_idle_us: stats.rto_idle_cycles as f64 / freq.cycles_per_micro(),
            });
        }
    }
    Ok(FaultRecoveryAblation {
        seed: FAULT_RECOVERY_SEED,
        cells,
    })
}

/// Renders the fault-recovery sweep.
pub fn render_fault_recovery(f: &FaultRecoveryAblation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "netperf TCP_RR under wire loss (seed {}): recovery work is charged\n\
         through the span tracer, so every retry shows up in profiles and\n\
         conservation still holds.\n\n",
        f.seed
    ));
    out.push_str(&format!(
        "{:<10}{:>7}{:>14}{:>10}{:>9}{:>16}{:>14}\n",
        "HV", "loss", "us/trans", "faults", "retx", "recovery cyc", "RTO idle us"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for c in &f.cells {
        out.push_str(&format!(
            "{:<10}{:>6.0}%{:>14.1}{:>10}{:>9}{:>16}{:>14.1}\n",
            c.hv.to_string(),
            c.loss * 100.0,
            c.time_per_trans,
            c.faults_injected,
            c.retransmits,
            c.recovery_span_cycles,
            c.rto_idle_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vhe_collapses_transition_costs() {
        let p = vhe().unwrap();
        let hypercall = p.micro.iter().find(|m| m.0 == "Hypercall").unwrap();
        assert!(
            hypercall.1 > 9 * hypercall.2,
            "§VI: order-of-magnitude hypercall improvement: {} -> {}",
            hypercall.1,
            hypercall.2
        );
        // VHE approaches (within 2x of) Xen's Type 1 transition cost.
        assert!(hypercall.2 < 2 * hypercall.3);
        // And I/O Latency Out improves by several-fold. (The paper says
        // "potentially ... more than an order of magnitude"; the model's
        // path keeps the physical IPI and vhost wake-up, which bound the
        // achievable gain near 3x — recorded in EXPERIMENTS.md.)
        let out = p.micro.iter().find(|m| m.0 == "I/O Latency Out").unwrap();
        assert!(out.1 as f64 > 2.5 * out.2 as f64, "{} -> {}", out.1, out.2);
    }

    #[test]
    fn vhe_beats_xen_on_io_workloads() {
        // §VI: "yielding superior performance to a Type 1 hypervisor
        // such as Xen which must still rely on Dom0".
        let p = vhe().unwrap();
        for (name, classic, vhe_oh, xen) in &p.workloads {
            assert!(vhe_oh < classic, "{name}: VHE should improve on classic");
            assert!(vhe_oh < xen, "{name}: VHE should beat Xen");
        }
    }

    #[test]
    fn vhe_improves_io_workloads_by_percents_not_magnitudes() {
        // §VI: "improving more realistic I/O workloads by 10% to 20%".
        let p = vhe().unwrap();
        let rr = p.workloads.iter().find(|w| w.0 == "TCP_RR").unwrap();
        let gain = (rr.1 - rr.2) / rr.1;
        assert!(
            (0.03..0.4).contains(&gain),
            "workload gain is percents, not magnitudes: {gain}"
        );
    }

    #[test]
    fn one_gbe_hides_all_virtualization_overhead() {
        let l = link_speed().unwrap();
        assert!(l.ten_gbe.1 > 2.0, "Xen visible at 10 GbE: {:?}", l.ten_gbe);
        assert!(l.one_gbe.0 < 1.05, "KVM hidden at 1 GbE: {:?}", l.one_gbe);
        assert!(l.one_gbe.1 < 1.05, "Xen hidden at 1 GbE: {:?}", l.one_gbe);
    }

    #[test]
    fn vapic_brings_x86_near_arm() {
        let v = vapic().unwrap();
        assert!(v.x86_classic > 20 * v.arm);
        assert!(v.x86_vapic < 3 * v.arm, "{} vs {}", v.x86_vapic, v.arm);
    }

    #[test]
    fn oversubscription_sweep_is_monotone() {
        let o = oversubscription();
        // Finer timeslices cost more; KVM ARM switches cost more than
        // Xen ARM's at every point (Table II ordering preserved).
        for (_, _, kvm_arm, xen_arm, kvm_x86, _) in &o.points {
            assert!(kvm_arm > xen_arm);
            assert!(kvm_x86 < xen_arm);
        }
        let coarse = o.points[0].2;
        let fine = o.points[1].2;
        assert!(fine > 5.0 * coarse);
    }

    #[test]
    fn storage_mirrors_the_link_speed_story() {
        let st = storage().unwrap();
        assert!(st.ssd.1 > st.ssd.0, "Xen pays more on SSD: {:?}", st.ssd);
        assert!(
            st.raid5.0 < 1.02 && st.raid5.1 < 1.05,
            "RAID5 hides: {:?}",
            st.raid5
        );
    }

    #[test]
    fn fault_recovery_sweep_degrades_monotonically() {
        let f = fault_recovery().unwrap();
        assert_eq!(f.cells.len(), 16);
        for kind in HvKind::MEASURED {
            let per_hv: Vec<&FaultRecoveryCell> = f.cells.iter().filter(|c| c.hv == kind).collect();
            assert_eq!(per_hv.len(), 4);
            let clean = per_hv[0];
            assert_eq!(clean.loss, 0.0);
            assert_eq!(
                clean.faults_injected, 0,
                "{kind}: clean cell injects nothing"
            );
            assert_eq!(clean.recovery_span_cycles, 0);
            let lossy = per_hv[3];
            assert!(lossy.faults_injected > 0, "{kind}: 10% loss injects faults");
            assert!(lossy.retransmits > 0, "{kind}: loss forces retransmits");
            assert!(
                lossy.recovery_span_cycles > 0,
                "{kind}: recovery is span-attributed"
            );
            assert!(
                lossy.time_per_trans > clean.time_per_trans,
                "{kind}: loss slows transactions: {} vs {}",
                lossy.time_per_trans,
                clean.time_per_trans
            );
        }
    }

    #[test]
    fn fault_recovery_is_deterministic() {
        let a = fault_recovery().unwrap();
        let b = fault_recovery().unwrap();
        assert_eq!(render_fault_recovery(&a), render_fault_recovery(&b));
    }

    #[test]
    fn zero_copy_trade_matches_section_v() {
        let z = zero_copy().unwrap();
        // x86: shootdown cost is in the same league as (or worse than)
        // the copy — "proved more expensive than simply copying".
        assert!(z.map_ipi_shootdown as f64 > 0.9 * z.copy as f64);
        // ARM broadcast: mapping is much cheaper than copying.
        assert!(z.map_broadcast_tlbi * 4 < z.copy);
        // And it would visibly improve TCP_STREAM.
        assert!(z.stream_overhead_mapped_arm < z.stream_overhead_copy - 0.3);
    }
}
