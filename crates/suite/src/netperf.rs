//! Netperf TCP_RR and the Table V latency decomposition.
//!
//! The paper instruments the RR path with `tcpdump` timestamps at the
//! data-link layer and synchronized counters across VMs and hypervisor
//! (§V). hvx does the equivalent with trace events: one traced
//! transaction yields the same five segments the paper reports, with the
//! boundaries defined at the same places:
//!
//! * **recv** — the host/Dom0 network driver starts on the packet
//!   (`host:net-stack-rx` for virtualized runs, `native:net-stack-rx`
//!   natively);
//! * **VM recv** — the guest has taken the virtual interrupt and the
//!   guest data-link processing begins (`guest:net-stack-rx` start);
//! * **VM send** — the guest hands the response to its paravirtual
//!   driver (`guest:net-stack-tx` end);
//! * **send** — the NIC DMA of the response completes (`nic:dma` end).

use hvx_core::{Error, HvKind, Hypervisor, SimBuilder, Workload};
use hvx_engine::{Cycles, FaultPoint, Frequency, TraceKind, TransitionId};
use serde::{Deserialize, Serialize};

/// Client turnaround: server send → request back at the server NIC
/// (both wire directions plus the native client's processing). Taken
/// from Table V's native `send to recv` of 29.7 µs.
pub const CLIENT_RTT_US: f64 = 29.7;

/// netperf server work per transaction (request parse + response build).
pub const APP_WORK: Cycles = Cycles::new(1_200);

/// Guest TCP retransmission timeout at model scale. Real Linux floors
/// the RTO at 200 ms, which would dwarf a 30 µs RTT by four orders of
/// magnitude and make loss sweeps degenerate; the model keeps the same
/// *shape* (RTO ≫ RTT, doubling per consecutive loss) at a scale where
/// recovery remains visible next to the transaction itself.
pub const TCP_RTO_US: f64 = 240.0;

/// Retransmission attempts before the model gives up on a segment and
/// the transaction proceeds as if delivered (bounds worst-case time
/// under a 100% loss plan).
pub const TCP_MAX_RETRANSMITS: u32 = 4;

/// Fault and recovery counters from one lossy RR run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrFaultStats {
    /// Response segments lost on the wire (full RTO paid).
    pub drops: u64,
    /// Response segments corrupted in flight (checksum catches them at
    /// the client; recovery after one RTT instead of a full RTO).
    pub corruptions: u64,
    /// Retransmissions issued by the guest's TCP timer.
    pub retransmits: u64,
    /// Busy guest cycles spent rebuilding and re-sending segments
    /// (charged as [`TransitionId::TcpRetransmit`] spans).
    pub recovery_busy_cycles: u64,
    /// Idle cycles the server spent waiting for retransmit timers.
    pub rto_idle_cycles: u64,
}

impl RrFaultStats {
    /// Merges another run's counters into this one.
    pub fn absorb(&mut self, other: RrFaultStats) {
        self.drops += other.drops;
        self.corruptions += other.corruptions;
        self.retransmits += other.retransmits;
        self.recovery_busy_cycles += other.recovery_busy_cycles;
        self.rto_idle_cycles += other.rto_idle_cycles;
    }
}

/// One closed-loop 1-byte TCP_RR transaction whose request reaches the
/// server's NIC at `nic_arrival`: the receive path, the server's
/// [`APP_WORK`], the reply's transmit path, then the guest TCP
/// retransmit state machine over the reply. Table V, its loss sweep and
/// Figure 4's TCP_RR all run this.
///
/// The state machine consults [`FaultPoint::WireDrop`] and
/// [`FaultPoint::WireCorrupt`] once per flight of the response segment:
/// a drop waits out the full (doubling) RTO before the timer fires;
/// corruption is detected by the client's checksum and recovered within
/// one RTT. Each recovery charges guest work as a
/// [`TransitionId::TcpRetransmit`] span and re-sends through the
/// hypervisor's real transmit path, so retry traffic pays the same
/// virtualization costs as first-try traffic; `stats` counts it.
///
/// Returns the cycle at which a response last left the server. With no
/// fault plan installed there are no retransmits and `stats` is left
/// untouched, keeping fault-free runs byte-identical.
pub fn transaction(
    hv: &mut dyn Hypervisor,
    nic_arrival: Cycles,
    freq: Frequency,
    mut stats: Option<&mut RrFaultStats>,
) -> Cycles {
    let (_, vcpu) = hv.receive(1, nic_arrival);
    hv.guest_compute(vcpu, APP_WORK);
    let mut t_send = hv.transmit(vcpu, 1);
    if !hv.machine().faults_enabled() {
        return t_send;
    }
    let retx_work = hv.cost().stack_tx_per_packet;
    let rtt = Cycles::from_micros(CLIENT_RTT_US, freq);
    let mut rto = Cycles::from_micros(TCP_RTO_US, freq);
    for _ in 0..TCP_MAX_RETRANSMITS {
        let dropped = hv.machine_mut().fault(FaultPoint::WireDrop);
        let corrupted = !dropped && hv.machine_mut().fault(FaultPoint::WireCorrupt);
        if !dropped && !corrupted {
            break;
        }
        let wake = t_send + if corrupted { rtt } else { rto };
        let m = hv.machine_mut();
        let core = m.topology().guest_core(vcpu);
        let timer_fired = m.wait_until(core, wake);
        m.charge_as(
            core,
            "guest:tcp-retransmit",
            TraceKind::Guest,
            retx_work,
            TransitionId::TcpRetransmit,
        );
        if let Some(s) = stats.as_deref_mut() {
            s.drops += u64::from(dropped);
            s.corruptions += u64::from(corrupted);
            s.retransmits += 1;
            s.recovery_busy_cycles += retx_work.as_u64();
            s.rto_idle_cycles += timer_fired.saturating_sub(t_send).as_u64();
        }
        t_send = hv.transmit(vcpu, 1);
        rto = rto * 2;
    }
    t_send
}

/// The reproduced Table V column for one configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RrColumn {
    /// Transactions per second.
    pub trans_per_s: f64,
    /// Microseconds per transaction.
    pub time_per_trans: f64,
    /// Overhead vs native (µs); `None` for the native column.
    pub overhead: Option<f64>,
    /// Server send → request received (µs).
    pub send_to_recv: f64,
    /// Request received → response sent (µs).
    pub recv_to_send: f64,
    /// Driver receive → VM receive (µs); virtualized only.
    pub recv_to_vm_recv: Option<f64>,
    /// VM receive → VM send (µs); virtualized only.
    pub vm_recv_to_vm_send: Option<f64>,
    /// VM send → wire send (µs); virtualized only.
    pub vm_send_to_send: Option<f64>,
}

/// Runs `transactions` closed-loop 1-byte RR transactions on `hv` and
/// decomposes the final transaction from the trace.
///
/// # Panics
///
/// Panics if the hypervisor's I/O path produces no trace events (the
/// trace must be enabled, which `Machine::new` guarantees).
pub fn run_rr(hv: &mut dyn Hypervisor, transactions: usize, freq: Frequency) -> RrColumn {
    run_rr_lossy(hv, transactions, freq).0
}

/// [`run_rr`] with the wire-fault/TCP-retransmit model applied to every
/// reply leg, returning the recovery counters alongside the column.
///
/// With no fault plan on the machine this is exactly [`run_rr`]: the
/// stats come back zeroed and the column is byte-identical.
pub fn run_rr_lossy(
    hv: &mut dyn Hypervisor,
    transactions: usize,
    freq: Frequency,
) -> (RrColumn, RrFaultStats) {
    assert!(transactions > 0);
    let client_rtt = Cycles::from_micros(CLIENT_RTT_US, freq);
    let virtualized = hv.io_latency_out(0) > Cycles::ZERO;
    hv.machine_mut().barrier();
    let t_start = hv.machine_mut().barrier();
    let mut t_send = t_start;
    let mut last = TransactionInstants::default();
    let mut stats = RrFaultStats::default();
    for i in 0..transactions {
        let trace_this = i == transactions - 1;
        if trace_this {
            hv.machine_mut().trace_mut().clear();
        }
        let nic_arrival = t_send + client_rtt;
        let send_done = transaction(hv, nic_arrival, freq, Some(&mut stats));
        if trace_this {
            last = TransactionInstants::extract(hv, nic_arrival, send_done);
        }
        t_send = send_done;
    }
    let total = t_send - t_start;
    let cycles_per_trans = total.as_u64() as f64 / transactions as f64;
    let time_per_trans = cycles_per_trans / freq.cycles_per_micro();
    let us = |c: Cycles| c.to_micros(freq);
    let recv_to_send = us(last.send.saturating_sub(last.recv));
    let column = RrColumn {
        trans_per_s: freq.as_hz() as f64 / cycles_per_trans,
        time_per_trans,
        overhead: None,
        send_to_recv: CLIENT_RTT_US + us(last.recv.saturating_sub(last.nic_arrival)),
        recv_to_send,
        recv_to_vm_recv: virtualized.then(|| us(last.vm_recv.saturating_sub(last.recv))),
        vm_recv_to_vm_send: virtualized.then(|| us(last.vm_send.saturating_sub(last.vm_recv))),
        vm_send_to_send: virtualized.then(|| us(last.send.saturating_sub(last.vm_send))),
    };
    (column, stats)
}

#[derive(Debug, Clone, Copy, Default)]
struct TransactionInstants {
    nic_arrival: Cycles,
    recv: Cycles,
    vm_recv: Cycles,
    vm_send: Cycles,
    send: Cycles,
}

impl TransactionInstants {
    fn extract(hv: &dyn Hypervisor, nic_arrival: Cycles, send_done: Cycles) -> Self {
        let trace = hv.machine().trace();
        let find_start = |label: &str| {
            trace
                .events()
                .iter()
                .find(|e| e.label == label)
                .map(|e| e.start)
        };
        let find_end = |label: &str| {
            trace
                .events()
                .iter()
                .rev()
                .find(|e| e.label == label)
                .map(|e| e.end())
        };
        let recv = find_start("host:net-stack-rx")
            .or_else(|| find_start("native:net-stack-rx"))
            .unwrap_or(nic_arrival);
        TransactionInstants {
            nic_arrival,
            recv,
            vm_recv: find_start("guest:net-stack-rx").unwrap_or(recv),
            vm_send: find_end("guest:net-stack-tx").unwrap_or(recv),
            send: find_end("nic:dma").unwrap_or(send_done),
        }
    }
}

/// The reproduced Table V: native, KVM ARM, Xen ARM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// Native column.
    pub native: RrColumn,
    /// KVM ARM column.
    pub kvm: RrColumn,
    /// Xen ARM column.
    pub xen: RrColumn,
}

impl Table5 {
    /// Runs the full Table V experiment.
    ///
    /// # Errors
    ///
    /// Propagates configuration failures (e.g. a rejected cost
    /// perturbation) so the runner can degrade the artifact.
    pub fn measure(transactions: usize) -> Result<Table5, Error> {
        let freq = Frequency::ARM_M400;
        let build = |kind| SimBuilder::new(kind).workload(Workload::Netperf).build();
        let mut native_col = run_rr(build(HvKind::Native)?.as_dyn_mut(), transactions, freq);
        let mut kvm_col = run_rr(build(HvKind::KvmArm)?.as_dyn_mut(), transactions, freq);
        let mut xen_col = run_rr(build(HvKind::XenArm)?.as_dyn_mut(), transactions, freq);
        native_col.overhead = None;
        kvm_col.overhead = Some(kvm_col.time_per_trans - native_col.time_per_trans);
        xen_col.overhead = Some(xen_col.time_per_trans - native_col.time_per_trans);
        Ok(Table5 {
            native: native_col,
            kvm: kvm_col,
            xen: xen_col,
        })
    }

    /// Renders in the paper's layout alongside the published numbers.
    pub fn render(&self) -> String {
        // Each row's measurement, in `paper::TABLE5`'s row order.
        let rows: [fn(&RrColumn) -> Option<f64>; 8] = [
            |c| Some(c.trans_per_s),
            |c| Some(c.time_per_trans),
            |c| c.overhead,
            |c| Some(c.send_to_recv),
            |c| Some(c.recv_to_send),
            |c| c.recv_to_vm_recv,
            |c| c.vm_recv_to_vm_send,
            |c| c.vm_send_to_send,
        ];
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26}{:>12}{:>12}{:>12}   (paper: native/KVM/Xen)\n",
            "", "Native", "KVM", "Xen"
        ));
        out.push_str(&"-".repeat(92));
        out.push('\n');
        for (paper, measure) in crate::paper::TABLE5.iter().zip(rows) {
            out.push_str(&format!("{:<26}", paper.label));
            for column in [&self.native, &self.kvm, &self.xen] {
                out.push_str(&format!("{:>12}", cell(measure(column))));
            }
            out.push_str(&format!(
                "   ({} / {} / {})\n",
                cell(paper.native),
                cell(paper.kvm),
                cell(paper.xen)
            ));
        }
        out
    }
}

/// One Table V cell as printed: rates above 1000 without decimals, the
/// rest to one decimal, and `-` where the column has no such row.
fn cell(value: Option<f64>) -> String {
    match value {
        Some(x) if x > 1000.0 => format!("{x:.0}"),
        Some(x) => format!("{x:.1}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64, tol_pct: f64) -> bool {
        (got - want).abs() / want <= tol_pct / 100.0
    }

    #[test]
    fn native_column_matches_paper_within_10_percent() {
        let t5 = Table5::measure(20).unwrap();
        assert!(
            close(t5.native.recv_to_send, 14.5, 10.0),
            "native recv_to_send {}",
            t5.native.recv_to_send
        );
        assert!(close(t5.native.time_per_trans, 41.8, 10.0));
    }

    #[test]
    fn kvm_column_matches_paper_within_10_percent() {
        let t5 = Table5::measure(20).unwrap();
        assert!(
            close(t5.kvm.recv_to_vm_recv.unwrap(), 21.1, 10.0),
            "recv_to_vm_recv {}",
            t5.kvm.recv_to_vm_recv.unwrap()
        );
        assert!(
            close(t5.kvm.vm_recv_to_vm_send.unwrap(), 16.9, 10.0),
            "vm window {}",
            t5.kvm.vm_recv_to_vm_send.unwrap()
        );
        assert!(
            close(t5.kvm.vm_send_to_send.unwrap(), 15.0, 10.0),
            "vm_send_to_send {}",
            t5.kvm.vm_send_to_send.unwrap()
        );
        assert!(
            close(t5.kvm.time_per_trans, 86.3, 10.0),
            "time/trans {}",
            t5.kvm.time_per_trans
        );
    }

    #[test]
    fn xen_column_matches_paper_within_12_percent() {
        let t5 = Table5::measure(20).unwrap();
        assert!(
            close(t5.xen.recv_to_vm_recv.unwrap(), 25.9, 12.0),
            "recv_to_vm_recv {}",
            t5.xen.recv_to_vm_recv.unwrap()
        );
        assert!(
            close(t5.xen.vm_send_to_send.unwrap(), 21.4, 12.0),
            "vm_send_to_send {}",
            t5.xen.vm_send_to_send.unwrap()
        );
        assert!(
            close(t5.xen.time_per_trans, 97.5, 12.0),
            "time/trans {}",
            t5.xen.time_per_trans
        );
    }

    #[test]
    fn ordering_matches_paper() {
        // Native < KVM < Xen on time/trans; Xen's send_to_recv exceeds
        // the others (the hypervisor delays incoming packets).
        let t5 = Table5::measure(10).unwrap();
        assert!(t5.native.time_per_trans < t5.kvm.time_per_trans);
        assert!(t5.kvm.time_per_trans < t5.xen.time_per_trans);
        assert!(t5.xen.send_to_recv > t5.kvm.send_to_recv + 1.0);
        assert!(t5.native.trans_per_s > 2.0 * t5.kvm.trans_per_s * 0.9);
    }

    #[test]
    fn dominant_overhead_is_hypervisor_packet_processing() {
        // §V: "the dominant overhead for both KVM and Xen is due to the
        // time required by the hypervisor to process packets" — the VM
        // window is only slightly above native recv_to_send.
        let t5 = Table5::measure(10).unwrap();
        let vm_window = t5.kvm.vm_recv_to_vm_send.unwrap();
        assert!(vm_window < t5.native.recv_to_send * 1.35);
        let hypervisor_share = t5.kvm.recv_to_vm_recv.unwrap() + t5.kvm.vm_send_to_send.unwrap();
        assert!(hypervisor_share > vm_window);
    }

    #[test]
    fn lossless_and_lossy_agree_without_a_plan() {
        let mut a = hvx_core::KvmArm::new();
        let mut b = hvx_core::KvmArm::new();
        let col = run_rr(&mut a, 10, Frequency::ARM_M400);
        let (lossy_col, stats) = run_rr_lossy(&mut b, 10, Frequency::ARM_M400);
        assert_eq!(stats, RrFaultStats::default());
        assert_eq!(
            col.time_per_trans.to_bits(),
            lossy_col.time_per_trans.to_bits()
        );
        assert_eq!(col.trans_per_s.to_bits(), lossy_col.trans_per_s.to_bits());
    }

    #[test]
    fn wire_drops_cost_rto_and_charge_retransmit_spans() {
        use hvx_engine::{FaultPlan, FaultPoint};
        let mut clean = hvx_core::KvmArm::new();
        let clean_col = run_rr(&mut clean, 10, Frequency::ARM_M400);
        let mut hv = hvx_core::KvmArm::new();
        hv.machine_mut()
            .set_fault_plan(FaultPlan::new(7).with_occurrence(FaultPoint::WireDrop, 2));
        let (col, stats) = run_rr_lossy(&mut hv, 10, Frequency::ARM_M400);
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.retransmits, 1);
        assert!(stats.recovery_busy_cycles > 0);
        assert!(stats.rto_idle_cycles > 0, "the RTO wait is idle time");
        assert!(
            col.time_per_trans > clean_col.time_per_trans + TCP_RTO_US / 10.0 / 2.0,
            "one RTO across 10 transactions must show: {} vs {}",
            col.time_per_trans,
            clean_col.time_per_trans
        );
        assert_eq!(
            hv.machine().faults_injected(FaultPoint::WireDrop),
            1,
            "injection counter matches"
        );
    }

    #[test]
    fn corruption_recovers_faster_than_a_drop() {
        use hvx_engine::{FaultPlan, FaultPoint};
        let mut dropped = hvx_core::KvmArm::new();
        dropped
            .machine_mut()
            .set_fault_plan(FaultPlan::new(7).with_occurrence(FaultPoint::WireDrop, 2));
        let (drop_col, drop_stats) = run_rr_lossy(&mut dropped, 10, Frequency::ARM_M400);
        let mut corrupted = hvx_core::KvmArm::new();
        corrupted
            .machine_mut()
            .set_fault_plan(FaultPlan::new(7).with_occurrence(FaultPoint::WireCorrupt, 2));
        let (corrupt_col, corrupt_stats) = run_rr_lossy(&mut corrupted, 10, Frequency::ARM_M400);
        assert_eq!(corrupt_stats.corruptions, 1);
        assert_eq!(corrupt_stats.retransmits, 1);
        assert!(
            corrupt_col.time_per_trans < drop_col.time_per_trans,
            "checksum-detected corruption beats a silent drop: {} vs {}",
            corrupt_col.time_per_trans,
            drop_col.time_per_trans
        );
        assert!(corrupt_stats.rto_idle_cycles < drop_stats.rto_idle_cycles);
    }

    #[test]
    fn retransmits_are_bounded_under_certain_loss() {
        use hvx_engine::{FaultPlan, FaultPoint};
        let mut hv = hvx_core::KvmArm::new();
        hv.machine_mut()
            .set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::WireDrop, 1.0));
        let (_, stats) = run_rr_lossy(&mut hv, 5, Frequency::ARM_M400);
        assert_eq!(
            stats.retransmits,
            5 * u64::from(TCP_MAX_RETRANSMITS),
            "every transaction gives up after the bounded attempts"
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let t5 = Table5::measure(3).unwrap();
        let s = t5.render();
        for label in ["Trans/s", "recv to VM recv", "VM send to send"] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
