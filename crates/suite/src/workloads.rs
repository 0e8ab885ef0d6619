//! The application workload models of Table IV / Figure 4.
//!
//! Each workload is an *operation mix* executed against the hypervisor's
//! workload primitives on the shared simulated machine. Native time and
//! virtualized time come from the same mix, so Figure 4's normalized
//! overhead is `virtualized_makespan / native_makespan` with queueing,
//! interrupt concentration, and backend saturation all emerging from the
//! per-core clocks.
//!
//! The drivers here say what runs — how many operations, on which VCPU,
//! arriving when — and the models say what each operation costs: every
//! host, back-end and device charge, down to a served request's and a
//! block request's ([`Hypervisor::serve_request`],
//! [`Hypervisor::block_request`]), is the model's. The drivers charge
//! only guest work of the workload's own, through
//! [`Hypervisor::guest_compute`].
//!
//! Mix parameters are calibrated from the paper where it quantifies them
//! (Table V's decomposition for netperf; §V prose for the interrupt
//! analysis) and otherwise chosen to represent the benchmark's
//! documented character (Table IV).

use crate::netperf;
use hvx_core::{Error, HvType, Hypervisor, VirqPolicy, Workload};
use hvx_engine::{Cycles, Frequency, TraceMode};
use serde::{Deserialize, Serialize};

/// Guest block-layer work per block request (the driver's share comes
/// on top, from the model).
const BLOCK_WORK: Cycles = Cycles::new(2_500);

/// Storage device class of the paper's testbeds (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskDevice {
    /// The m400's 120 GB SATA3 SSD.
    Ssd,
    /// The r320's 4×500 GB 7200 RPM RAID5 array.
    Raid5,
}

/// The operation mix of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Mix {
    /// CPU-bound computation with periodic (timer) interrupts —
    /// Kernbench, SPECjvm2008.
    CpuBound {
        /// Guest cycles per unit of work.
        unit_work: u64,
        /// Timer interrupts per unit.
        ticks_per_unit: u32,
        /// Units of work (spread round-robin over VCPUs).
        units: u32,
    },
    /// Scheduler/IPC-bound: sleeping and waking tasks across VCPUs with
    /// rescheduling IPIs — Hackbench.
    IpiBound {
        /// Guest cycles per message group.
        unit_work: u64,
        /// Rescheduling IPIs per group.
        ipis_per_unit: u32,
        /// Groups.
        units: u32,
    },
    /// Closed-loop request/response with a 1-byte payload — netperf
    /// TCP_RR (the Table V workload).
    NetRr {
        /// Transactions to run.
        transactions: u32,
    },
    /// Bulk receive at line rate — netperf TCP_STREAM. The wire delivers
    /// `chunks`×`chunk_len` bursts back-to-back; the server must keep up.
    StreamRx {
        /// Wire packets per burst (per-packet grant copies on Xen).
        chunks: u32,
        /// Bytes per wire packet.
        chunk_len: u32,
        /// Bursts.
        bursts: u32,
        /// Link speed in Mbit/s (the paper used 10 GbE precisely because
        /// "many benchmarks were unaffected by virtualization when run
        /// over 1 Gb Ethernet", §III — the link-speed ablation flips
        /// this).
        link_mbit: u64,
    },
    /// Bulk transmit — netperf TCP_MAERTS. `tso_capped_chunks` models
    /// the Linux 4.0-rc1 TSO-autosizing regression that shrinks TX
    /// aggregates on Xen's slower-completing vif path (§V).
    StreamTx {
        /// TX pages per aggregate on the healthy path.
        chunks: u32,
        /// Bytes per page.
        chunk_len: u32,
        /// Aggregates to send (total bytes held constant across
        /// configurations).
        bursts: u32,
        /// Aggregate size the regression caps Xen guests to, in pages.
        tso_capped_chunks: u32,
        /// Link speed in Mbit/s.
        link_mbit: u64,
    },
    /// Random block I/O (fio-style) through the paravirtual block
    /// stacks — an extension workload over the §III storage
    /// configuration (virtio-blk `cache=none` vs Xen blkback).
    DiskIo {
        /// Requests to issue (closed loop).
        requests: u32,
        /// Sectors per request.
        sectors: u32,
        /// Backing device.
        device: DiskDevice,
    },
    /// Interrupt-heavy request server — Apache, Memcached, MySQL.
    ///
    /// Saturation model (`ab -c 100` style): requests queue without
    /// pacing and throughput is the bottleneck core's capacity. The
    /// virtualization-sensitive part — virtual-interrupt delivery — runs
    /// through the hypervisor's mechanistic paths; stack and application
    /// work are placed per Linux's actual execution contexts (softirq on
    /// the interrupt CPU, syscalls on the application CPU). Natively the
    /// NIC's RSS spreads flows over all cores; the single-queue
    /// paravirtual NIC concentrates them on VCPU0 (§V), which the
    /// interrupt-distribution ablation then relaxes.
    RequestServer {
        /// Application cycles per request (spread over VCPUs).
        app_work: u64,
        /// Request payload bytes.
        request_bytes: u32,
        /// Response size in 4 KiB chunks.
        response_chunks: u32,
        /// Device interrupts per request, doubled (so 1 = one interrupt
        /// per two requests, modelling NAPI/pipeline coalescing; 8 = four
        /// interrupts per request, modelling ACK storms + TX
        /// completions).
        events_x2: u32,
        /// Percentage of the per-packet stack cost a request pays (high
        /// request rates amortize socket wakeups; netperf RR's 100%
        /// calibration is the worst case).
        stack_scale_pct: u32,
        /// Additional events per request (doubled) that only Type 1
        /// guests receive: Xen's netfront takes TX-completion and
        /// response-ring events that virtio's `VIRTQ_AVAIL_F_NO_INTERRUPT`
        /// suppression avoids on KVM.
        type1_extra_events_x2: u32,
        /// Requests to serve.
        requests: u32,
    },
}

impl Mix {
    /// Returns the mix with its iteration count multiplied by
    /// `factor` — the same steady-state loop run `factor`× longer.
    /// The benchmark grid uses this to grow scenarios until
    /// per-scenario setup stops dominating and parallel workers have
    /// something to chew on.
    #[must_use]
    pub fn scaled(mut self, factor: u32) -> Mix {
        let count = self.count_mut();
        *count = count.saturating_mul(factor);
        self
    }

    /// The iteration count: the field the mix's steady-state loop runs
    /// over.
    fn count_mut(&mut self) -> &mut u32 {
        match self {
            Mix::CpuBound { units, .. } | Mix::IpiBound { units, .. } => units,
            Mix::NetRr { transactions } => transactions,
            Mix::StreamRx { bursts, .. } | Mix::StreamTx { bursts, .. } => bursts,
            Mix::DiskIo { requests, .. } | Mix::RequestServer { requests, .. } => requests,
        }
    }
}

/// A Figure 4 catalog entry: Table IV's description plus the workload's
/// calibrated mix.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Name as printed in Figure 4.
    pub name: &'static str,
    /// Table IV's description.
    pub description: &'static str,
    /// The operation mix.
    pub mix: Mix,
}

/// The catalog entry of `workload` (the `Netperf` alias is TCP_RR's).
pub(crate) const fn entry(workload: Workload) -> CatalogEntry {
    let (description, mix) = match workload {
        Workload::Kernbench => (
            "Compilation of the Linux 3.17.0 kernel using the \
             allnoconfig for ARM using GCC 4.8.2.",
            Mix::CpuBound {
                unit_work: 1_000_000,
                ticks_per_unit: 8,
                units: 64,
            },
        ),
        Workload::Hackbench => (
            "hackbench using Unix domain sockets and 100 process \
             groups running with 500 loops.",
            Mix::IpiBound {
                unit_work: 200_000,
                ipis_per_unit: 2,
                units: 64,
            },
        ),
        Workload::SpecJvm2008 => (
            "SPECjvm2008 benchmark running several real life \
             applications and benchmarks chosen to benchmark the \
             Java Runtime Environment.",
            Mix::CpuBound {
                unit_work: 2_000_000,
                ticks_per_unit: 4,
                units: 64,
            },
        ),
        Workload::Netperf | Workload::TcpRr => (
            "netperf TCP_RR: 1-byte round trips between client \
             and server, measuring latency.",
            Mix::NetRr { transactions: 40 },
        ),
        Workload::TcpStream => (
            "netperf TCP_STREAM: bulk data from client to the \
             server in the VM, measuring receive throughput.",
            Mix::StreamRx {
                chunks: 44,
                chunk_len: 1_490,
                bursts: 48,
                link_mbit: 10_000,
            },
        ),
        Workload::TcpMaerts => (
            "netperf TCP_MAERTS: bulk data from the VM to the \
             client, measuring transmit throughput.",
            Mix::StreamTx {
                chunks: 16,
                chunk_len: 4_096,
                bursts: 48,
                tso_capped_chunks: 4,
                link_mbit: 10_000,
            },
        ),
        Workload::Apache => (
            "Apache v2.4.7 serving the 41 KB index file of the \
             GCC manual to 100 concurrent ApacheBench requests.",
            Mix::RequestServer {
                app_work: 240_000,
                request_bytes: 170,
                response_chunks: 10,
                events_x2: 5,
                stack_scale_pct: 50,
                type1_extra_events_x2: 2,
                requests: 64,
            },
        ),
        Workload::Memcached => (
            "memcached v1.4.14 driven by the memtier benchmark \
             with default parameters.",
            Mix::RequestServer {
                app_work: 120_000,
                request_bytes: 64,
                response_chunks: 1,
                events_x2: 1,
                stack_scale_pct: 35,
                type1_extra_events_x2: 0,
                requests: 96,
            },
        ),
        Workload::Mysql => (
            "MySQL v5.5.41 running SysBench with 200 parallel \
             transactions.",
            Mix::RequestServer {
                app_work: 900_000,
                request_bytes: 256,
                response_chunks: 2,
                events_x2: 4,
                stack_scale_pct: 50,
                type1_extra_events_x2: 2,
                requests: 48,
            },
        ),
    };
    CatalogEntry {
        name: workload.catalog_name(),
        description,
        mix,
    }
}

/// The calibrated operation mix of `workload`.
pub fn mix(workload: Workload) -> Mix {
    entry(workload).mix
}

/// Every entry, in [`Workload::ALL`] order, built once at compile time
/// so [`catalog`] is one copy.
const CATALOG: [CatalogEntry; Workload::ALL.len()] = {
    let mut out = [entry(Workload::ALL[0]); Workload::ALL.len()];
    let mut i = 1;
    while i < out.len() {
        out[i] = entry(Workload::ALL[i]);
        i += 1;
    }
    out
};

/// The nine Figure 4 workloads with calibrated mixes, in Figure 4
/// ([`Workload::ALL`]) order.
pub fn catalog() -> Vec<CatalogEntry> {
    CATALOG.to_vec()
}

/// Renders Table IV: the application benchmark descriptions.
pub fn render_table4() -> String {
    let mut out = String::new();
    out.push_str("Table IV: Application Benchmarks\n");
    out.push_str(&"-".repeat(72));
    out.push('\n');
    for w in catalog() {
        out.push_str(&format!("{:<14}{}\n", w.name, w.description));
    }
    out
}

/// Whether [`run`] compiles steady-state loops: yes unless
/// `HVX_COMPILE=off|0|false`. Read fresh on every call so tests and
/// drills need no process restart.
pub fn compile_enabled() -> bool {
    !std::env::var("HVX_COMPILE").is_ok_and(|v| {
        let v = v.trim();
        v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false")
    })
}

/// Runs `iters` iterations of `body` under the machine's loop compile
/// session; every driver's loop goes through here. While the machine
/// records (or after it declined the session), every call is a cheap
/// no-op and `body` runs interpreted; once the loop compiles, whole
/// blocks are skipped at once.
///
/// `regs` are the loop-carried values (a next send instant, a wire-free
/// instant). The body reads and updates them; after each iteration they
/// are published as loop registers `0..`, and after a skip they are
/// restored from the replayed registers. A body error ends the loop and
/// is returned.
fn steady_loop<F>(
    hv: &mut dyn Hypervisor,
    iters: u64,
    regs: &mut [Cycles],
    mut body: F,
) -> Result<(), Error>
where
    F: FnMut(&mut dyn Hypervisor, u64, &mut [Cycles]) -> Result<(), Error>,
{
    let mut i = 0u64;
    while i < iters {
        let skipped = hv.machine_mut().loop_replay(iters - i);
        if skipped > 0 {
            i += skipped;
            for (idx, reg) in regs.iter_mut().enumerate() {
                if let Some(value) = hv.machine_mut().loop_reg(idx) {
                    *reg = value;
                }
            }
            continue;
        }
        hv.machine_mut().loop_iter_begin();
        body(hv, i, regs)?;
        for (idx, reg) in regs.iter().enumerate() {
            hv.machine_mut().loop_set_reg(idx, *reg);
        }
        i += 1;
    }
    Ok(())
}

/// Runs `mix` on `hv` under `policy` and returns the makespan in cycles.
///
/// Deterministic: the same mix on the same configuration always yields
/// the same makespan — with loop compilation on (the default) or off,
/// byte-identically.
///
/// # Errors
///
/// [`Error::Workload`] / [`Error::Vio`] when the mix asks the modelled
/// hardware for something it cannot do (e.g. a disk request larger than
/// the device). The hardened runner degrades such cells to marked n/a
/// entries instead of unwinding.
pub fn run(hv: &mut dyn Hypervisor, mix: Mix, policy: VirqPolicy) -> Result<Cycles, Error> {
    run_with(hv, mix, policy, compile_enabled())
}

/// [`run`] with explicit compile gating: `compile = false` forces the
/// interpreted engine (differential tests pin the two paths against
/// each other).
///
/// # Errors
///
/// As for [`run`].
pub fn run_with(
    hv: &mut dyn Hypervisor,
    mix: Mix,
    policy: VirqPolicy,
    compile: bool,
) -> Result<Cycles, Error> {
    hv.set_virq_policy(policy);
    // The step trace is dropped so the loop compiler can engage — except
    // on an event-traced machine, whose log records are its timeline.
    if !hv.machine().event_tracing() {
        hv.machine_mut().trace_mut().set_mode(TraceMode::Off);
    }
    let start = hv.machine_mut().barrier();
    if compile {
        // May refuse (tracing/faults/profiling/watchdog); every loop_*
        // call below is then a no-op and the mix runs interpreted.
        let _ = hv.machine_mut().loop_begin();
    }
    let vcpus = hv.num_vcpus();
    match mix {
        Mix::CpuBound {
            unit_work,
            ticks_per_unit,
            units,
        } => {
            steady_loop(hv, u64::from(units), &mut [], |hv, u, _| {
                let vcpu = u as usize % vcpus;
                hv.guest_compute(vcpu, Cycles::new(unit_work));
                for _ in 0..ticks_per_unit {
                    hv.deliver_virq(vcpu);
                }
                Ok(())
            })?;
        }
        Mix::IpiBound {
            unit_work,
            ipis_per_unit,
            units,
        } => {
            steady_loop(hv, u64::from(units), &mut [], |hv, u, _| {
                let from = u as usize % vcpus;
                let to = (from + 1) % vcpus;
                hv.guest_compute(from, Cycles::new(unit_work));
                for _ in 0..ipis_per_unit {
                    hv.virtual_ipi(from, to);
                }
                Ok(())
            })?;
        }
        Mix::NetRr { transactions } => {
            let freq = Frequency::ARM_M400;
            let client_rtt = Cycles::from_micros(netperf::CLIENT_RTT_US, freq);
            // The next send instant is loop-carried (register 0), so
            // compiled replay reconstructs it across skipped transactions.
            steady_loop(
                hv,
                u64::from(transactions),
                &mut [start],
                |hv, _, t_send| {
                    t_send[0] = netperf::transaction(hv, t_send[0] + client_rtt, freq, None);
                    Ok(())
                },
            )?;
        }
        Mix::StreamRx {
            chunks,
            chunk_len,
            bursts,
            link_mbit,
        } => {
            // The wire delivers bursts at line rate; a server that can't
            // drain them falls behind and its makespan grows.
            let burst_bytes = chunks as u64 * chunk_len as u64;
            let wire = hvx_vio::Wire::from_link(link_mbit, 10.0, Frequency::ARM_M400);
            let spacing = Cycles::new((burst_bytes as f64 * wire.cycles_per_byte).round() as u64);
            steady_loop(hv, u64::from(bursts), &mut [], |hv, b, _| {
                let arrival = start + spacing * b;
                hv.receive_burst(chunks as usize, chunk_len as usize, arrival);
                Ok(())
            })?;
        }
        Mix::StreamTx {
            chunks,
            chunk_len,
            bursts,
            tso_capped_chunks,
            link_mbit,
        } => {
            // The TSO-autosizing regression shrinks Xen's TX aggregates;
            // total bytes stay the same so the comparison is fair.
            let capped = matches!(hv.kind().hv_type(), Some(HvType::Type1));
            let (per_burst, n_bursts) = if capped {
                (
                    tso_capped_chunks,
                    bursts * (chunks / tso_capped_chunks.max(1)),
                )
            } else {
                (chunks, bursts)
            };
            // The 10 GbE wire drains at line rate; a sender faster than
            // the wire is wire-bound (the paper's native/KVM case), a
            // slower one is CPU-bound (Xen).
            let wire = hvx_vio::Wire::from_link(link_mbit, 10.0, Frequency::ARM_M400);
            let burst_wire = Cycles::new(
                (per_burst as f64 * chunk_len as f64 * wire.cycles_per_byte).round() as u64,
            );
            // The wire-free instant is loop-carried (register 0).
            let mut wire_free = [start];
            steady_loop(
                hv,
                u64::from(n_bursts),
                &mut wire_free,
                |hv, _, wire_free| {
                    let handoff = hv.transmit_burst(0, per_burst as usize, chunk_len as usize);
                    wire_free[0] = wire_free[0].max(handoff) + burst_wire;
                    Ok(())
                },
            )?;
            hv.machine_mut().loop_end();
            // The run ends when the wire finishes draining.
            let backend = hv.machine().topology().backend_core();
            hv.machine_mut().wait_until(backend, wire_free[0]);
        }
        Mix::DiskIo {
            requests,
            sectors,
            device,
        } => {
            let res = run_disk_io(hv, requests, sectors, device);
            hv.machine_mut().loop_end();
            res?;
        }
        Mix::RequestServer {
            app_work,
            request_bytes,
            response_chunks,
            events_x2,
            stack_scale_pct,
            type1_extra_events_x2,
            requests,
        } => {
            let design = hv.kind().hv_type();
            let type1 = design == Some(HvType::Type1);
            // Hardware RSS spreads native flows regardless of the
            // requested virtual-interrupt policy (§V: native performance
            // was insensitive to interrupt placement).
            if design.is_none() {
                hv.set_virq_policy(VirqPolicy::RoundRobin);
            }
            let blocked_delivery = policy == VirqPolicy::Vcpu0 && type1;
            let events = events_x2 + if type1 { type1_extra_events_x2 } else { 0 };
            let c = *hv.cost();
            let rx_stack =
                Cycles::new(c.stack_rx_per_packet.as_u64() * u64::from(stack_scale_pct) / 100);
            let request_stack = rx_stack + c.stack_bytes(request_bytes as usize);
            // `event_acc` is always 0 or 1 after the `%= 2` below, and
            // over one congruent block its net change is zero (a
            // drifting parity would alter the charge stream and break
            // congruence), so the accumulator stays correct across
            // compiled skips without a loop register.
            let mut event_acc = 0u32;
            steady_loop(hv, u64::from(requests), &mut [], |hv, r, _| {
                // Device events, the virtualization-sensitive part:
                // softirq-side packet processing runs on the interrupt
                // CPU, the request packet on the first event and light
                // ACK/completion processing on the rest.
                event_acc += events;
                let n_events = event_acc / 2;
                event_acc %= 2;
                for e in 0..n_events {
                    let target = hv.next_irq_vcpu();
                    if blocked_delivery {
                        hv.deliver_virq_blocked(target);
                    } else {
                        hv.deliver_virq(target);
                    }
                    let stack = if e == 0 { request_stack } else { rx_stack / 4 };
                    hv.guest_compute(target, stack);
                }
                // The host side and the application's reply (syscall
                // side), spread over the VCPUs.
                let app_vcpu = r as usize % vcpus;
                hv.serve_request(
                    app_vcpu,
                    Cycles::new(app_work),
                    stack_scale_pct,
                    response_chunks,
                );
                Ok(())
            })?;
        }
    }
    hv.machine_mut().loop_end();
    Ok(hv.machine_mut().barrier() - start)
}

/// Runs `mix` on a virtualized configuration and the matching native
/// baseline; returns the Figure 4 normalized overhead (1.0 = native).
///
/// # Errors
///
/// Propagates whatever [`run`] rejects on either configuration.
pub fn overhead(
    hv: &mut dyn Hypervisor,
    native: &mut dyn Hypervisor,
    mix: Mix,
    policy: VirqPolicy,
) -> Result<f64, Error> {
    let virt = run(hv, mix, policy)?;
    let base = run(native, mix, policy)?;
    Ok(virt.as_f64() / base.as_f64())
}

/// The DiskIo engine: a closed-loop random-read benchmark (fio
/// `numjobs=1`, `iodepth=1`) through the block stack. The issuing
/// thread blocks on every request, so device service serializes with
/// submission in every configuration; the model charges each request
/// ([`Hypervisor::block_request`]) at the device's service time.
fn run_disk_io(
    hv: &mut dyn Hypervisor,
    requests: u32,
    sectors: u32,
    device: DiskDevice,
) -> Result<(), Error> {
    let mut disk = match device {
        DiskDevice::Ssd => hvx_vio::Disk::ssd_m400(1 << 30),
        DiskDevice::Raid5 => hvx_vio::Disk::raid5_r320(1 << 30),
    };
    let capacity = disk.capacity_sectors();
    let span = u64::from(sectors);
    if span == 0 || span > capacity {
        return Err(Error::Workload {
            workload: "disk-io",
            detail: format!(
                "request of {span} sectors outside the modelled device \
                 (capacity {capacity} sectors)"
            ),
        });
    }
    // Random reads wrap around the device: any start sector in
    // `[0, capacity - span]` keeps the whole request in range, however
    // many requests the mix issues.
    let wrap = capacity - span + 1;
    let service = disk.service_time(sectors);
    steady_loop(hv, u64::from(requests), &mut [], |hv, r, _| {
        let data = disk.read_sectors(r * span % wrap, sectors as usize * hvx_vio::SECTOR_SIZE)?;
        debug_assert_eq!(data.len(), sectors as usize * hvx_vio::SECTOR_SIZE);
        hv.block_request(0, BLOCK_WORK, service);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_core::{KvmArm, Native, XenArm};

    fn small_request_mix() -> Mix {
        Mix::RequestServer {
            app_work: 190_000,
            request_bytes: 170,
            response_chunks: 10,
            events_x2: 4,
            stack_scale_pct: 50,
            type1_extra_events_x2: 2,
            requests: 16,
        }
    }

    #[test]
    fn table4_renders_every_workload() {
        let t = render_table4();
        for w in catalog() {
            assert!(t.contains(w.name), "{}", w.name);
        }
        assert!(t.contains("hackbench"));
        assert!(t.contains("SysBench"));
    }

    #[test]
    fn catalog_matches_figure4() {
        let c = catalog();
        assert_eq!(c.len(), 9);
        assert_eq!(c[0].name, "Kernbench");
        assert_eq!(c[8].name, "MySQL");
        for (w, e) in Workload::ALL.into_iter().zip(&c) {
            assert_eq!(e.name, w.catalog_name());
            assert!(!e.description.is_empty());
        }
        assert_eq!(mix(Workload::Netperf), mix(Workload::TcpRr));
    }

    #[test]
    fn cpu_bound_overhead_is_small() {
        let mix = Mix::CpuBound {
            unit_work: 1_000_000,
            ticks_per_unit: 8,
            units: 8,
        };
        let oh = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        assert!(oh > 1.0 && oh < 1.12, "CPU-bound overhead modest: {oh}");
    }

    #[test]
    fn hackbench_xen_gap_is_modest_despite_2x_faster_ipis() {
        // §V: "Despite this microbenchmark performance advantage ... the
        // resulting difference in Hackbench performance overhead is
        // small".
        let mix = Mix::IpiBound {
            unit_work: 200_000,
            ipis_per_unit: 2,
            units: 16,
        };
        let kvm = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        let xen = overhead(
            &mut XenArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        assert!(kvm > xen, "Xen wins hackbench: {kvm} vs {xen}");
        assert!(kvm - xen < 0.10, "but only modestly: {kvm} vs {xen}");
    }

    #[test]
    fn stream_rx_xen_pays_grant_copies() {
        let mix = Mix::StreamRx {
            chunks: 44,
            chunk_len: 1_490,
            bursts: 12,
            link_mbit: 10_000,
        };
        let kvm = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        let xen = overhead(
            &mut XenArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        assert!(kvm < 1.1, "KVM zero-copy keeps line rate: {kvm}");
        assert!(xen > 2.0, "Xen copies fall off line rate: {xen}");
    }

    #[test]
    fn request_server_bottleneck_is_the_interrupt_vcpu() {
        let mix = small_request_mix();
        let kvm = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        let xen = overhead(
            &mut XenArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        assert!(
            xen > kvm,
            "Xen's wake-on-target makes it worse: {xen} vs {kvm}"
        );
        // Distribution shrinks both dramatically (§V).
        let kvm_rr = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::RoundRobin,
        )
        .unwrap();
        let xen_rr = overhead(
            &mut XenArm::new(),
            &mut Native::new(),
            mix,
            VirqPolicy::RoundRobin,
        )
        .unwrap();
        assert!(kvm_rr < kvm - 0.05, "KVM improves: {kvm} -> {kvm_rr}");
        assert!(xen_rr < xen - 0.20, "Xen improves more: {xen} -> {xen_rr}");
    }

    #[test]
    fn interrupt_vcpu_saturates_under_concentration() {
        // §V: "Xen and KVM both handle all virtual interrupts using a
        // single VCPU, which, combined with the additional virtual
        // interrupt delivery cost, fully utilizes the underlying PCPU."
        let mix = small_request_mix();
        let mut kvm = KvmArm::new();
        run(&mut kvm, mix, VirqPolicy::Vcpu0).unwrap();
        let m = kvm.machine();
        let topo = m.topology().clone();
        let u0 = m.utilization(topo.guest_core(0));
        assert!(u0 > 0.9, "VCPU0 saturated: {u0:.2}");
        for v in 1..4 {
            assert!(
                u0 > m.utilization(topo.guest_core(v)),
                "VCPU0 is the hottest core"
            );
        }
        // Distribution evens the load out.
        let mut kvm_rr = KvmArm::new();
        run(&mut kvm_rr, mix, VirqPolicy::RoundRobin).unwrap();
        let m = kvm_rr.machine();
        let spread: Vec<f64> = (0..4).map(|v| m.utilization(topo.guest_core(v))).collect();
        let max = spread.iter().cloned().fold(0.0, f64::max);
        let min = spread.iter().cloned().fold(1.0, f64::min);
        assert!(max - min < 0.25, "balanced after distribution: {spread:?}");
    }

    #[test]
    fn disk_io_overhead_visible_on_ssd_hidden_on_raid5() {
        // The storage analog of the paper's 1 GbE observation: a slow
        // device hides the hypervisor.
        let ssd = Mix::DiskIo {
            requests: 24,
            sectors: 8,
            device: DiskDevice::Ssd,
        };
        let hdd = Mix::DiskIo {
            requests: 6,
            sectors: 8,
            device: DiskDevice::Raid5,
        };
        let kvm_ssd = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            ssd,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        let xen_ssd = overhead(
            &mut XenArm::new(),
            &mut Native::new(),
            ssd,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        let kvm_hdd = overhead(
            &mut KvmArm::new(),
            &mut Native::new(),
            hdd,
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        assert!(kvm_ssd > 1.05, "SSD exposes the stack: {kvm_ssd}");
        assert!(
            xen_ssd > kvm_ssd,
            "Xen pays the grant copy: {xen_ssd} vs {kvm_ssd}"
        );
        assert!(kvm_hdd < 1.01, "RAID5 hides it: {kvm_hdd}");
    }

    #[test]
    fn runs_are_deterministic() {
        // Reruns agree at the calibrated size and scaled up, and a 10x
        // mix charges about 10x the transitions (setup amortizes away).
        let mut charged = Vec::new();
        for mix in [small_request_mix(), small_request_mix().scaled(10)] {
            let before = hvx_engine::thread_transitions();
            let a = run(&mut XenArm::new(), mix, VirqPolicy::Vcpu0).unwrap();
            charged.push(hvx_engine::thread_transitions() - before);
            let b = run(&mut XenArm::new(), mix, VirqPolicy::Vcpu0).unwrap();
            assert_eq!(a, b);
        }
        assert!(charged[0] > 0 && charged[1] > charged[0] * 5, "{charged:?}");
    }
}
