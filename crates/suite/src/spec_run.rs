//! Running a scenario straight from a [`ScenarioSpec`] file.
//!
//! `hvx-repro run --spec FILE` deserializes a JSON [`ScenarioSpec`],
//! validates its topology shape, and dispatches it to the engine that
//! implements that shape:
//!
//! * **Paper** shape → [`run_paper_sim`]: [`SimBuilder::from_spec`]
//!   plus the Figure 4 workload engine ([`workloads::run`]) — exactly
//!   the path a builder-constructed run takes, so the output is
//!   byte-identical to the equivalent fluent-API invocation. `profile`,
//!   `trace`, the sweep server's stored trace and `trace bench` run
//!   their paper-shape specs through the same function, and name them
//!   with [`paper_name`].
//! * **Consolidation** shape → [`consolidation::run_cell`], the SMP
//!   oversubscription cell with the spec's vCPU scheduler.
//!
//! Neither the rendered report nor the cell result records loop-compiler
//! internals, so output is byte-identical whether the engine compiled
//! the steady state or interpreted it — the differential tests already
//! pin the numbers themselves together.

use crate::consolidation::{self, TRANSACTIONS_PER_VM};
use crate::rack;
use crate::workloads;
use hvx_core::report::CellReport;
use hvx_core::{Error, HvKind, ScenarioSpec, Sim, SimBuilder, SpecShape, Workload};
use hvx_engine::Cycles;
use std::path::Path;

/// Reads and deserializes a spec file.
///
/// # Errors
///
/// [`Error::InvalidSpec`] when the file cannot be read or does not
/// parse as a [`ScenarioSpec`].
pub fn load(path: &Path) -> Result<ScenarioSpec, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::InvalidSpec {
        detail: format!("{}: {e}", path.display()),
    })?;
    parse(&text).map_err(|e| match e {
        Error::InvalidSpec { detail } => Error::InvalidSpec {
            detail: format!("{}: {detail}", path.display()),
        },
        other => other,
    })
}

/// Deserializes a spec from JSON text.
///
/// # Errors
///
/// [`Error::InvalidSpec`] on malformed JSON or a JSON shape that does
/// not match the spec's data model.
pub fn parse(text: &str) -> Result<ScenarioSpec, Error> {
    serde_json::from_str::<ScenarioSpec>(text).map_err(|e| Error::InvalidSpec {
        detail: format!("spec does not parse: {e}"),
    })
}

/// Serializes a spec as pretty-printed JSON (the format [`load`]
/// reads back; the round trip is lossless).
pub fn to_json(spec: &ScenarioSpec) -> String {
    let mut s = serde_json::to_string_pretty(spec).expect("a spec always serializes");
    s.push('\n');
    s
}

/// Runs the scenario a spec describes and renders its report.
///
/// # Errors
///
/// [`Error::InvalidSpec`] for topologies no model implements or knob
/// combinations a shape does not support; engine errors pass through.
pub fn run_spec(spec: &ScenarioSpec) -> Result<String, Error> {
    match spec.shape()? {
        SpecShape::Paper => run_paper(spec),
        SpecShape::Consolidation { ratio } => run_consolidation(spec, ratio),
        SpecShape::Rack {
            hosts,
            vms_per_host,
        } => run_rack(spec, hosts, vms_per_host),
    }
}

/// A spec run's two faces: the rendered report (what `run --spec`
/// prints) and the machine-readable per-cell record the sweep server
/// and `--out json` put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRun {
    /// The rendered report text, byte-identical to [`run_spec`].
    pub report: String,
    /// The structured record: label, content fingerprint, failure.
    pub cell: CellReport,
}

/// A short human-readable label for a spec (`"KVM ARM consolidation
/// 8:1"`), used by job listings and structured reports.
pub fn label(spec: &ScenarioSpec) -> String {
    match spec.shape() {
        Ok(SpecShape::Paper) => format!("{} paper", spec.hypervisor),
        Ok(SpecShape::Consolidation { ratio }) => {
            format!("{} consolidation {ratio}:1", spec.hypervisor)
        }
        Ok(SpecShape::Rack {
            hosts,
            vms_per_host,
        }) => format!("{} rack {hosts}x{vms_per_host}", spec.hypervisor),
        Err(_) => format!("{} (invalid shape)", spec.hypervisor),
    }
}

/// [`run_spec`] with a structured result: the rendered report plus a
/// [`CellReport`] carrying the spec's content fingerprint.
///
/// # Errors
///
/// Same as [`run_spec`].
pub fn run_spec_report(spec: &ScenarioSpec) -> Result<SpecRun, Error> {
    let report = run_spec(spec)?;
    Ok(SpecRun {
        report,
        cell: CellReport {
            scenario: label(spec),
            fingerprint: Some(crate::cache::spec_fingerprint(spec).to_hex()),
            retries: 0,
            cached: false,
            failure: None,
        },
    })
}

/// The workload a paper-shape spec runs: the one it names, else
/// netperf (TCP_RR), the paper's canonical latency workload.
pub(crate) fn paper_workload(spec: &ScenarioSpec) -> Workload {
    spec.workload.unwrap_or(Workload::Netperf)
}

/// The `<workload>-<hypervisor>` name of a paper-shape spec
/// (`netperf-kvm-arm`, `mysql-kvm-arm-vhe`). `profile` and `trace` take
/// it on the command line and print it in their report headers, and
/// `baselines/spans/` names each span profile by it. Only the workload
/// and the hypervisor are named; [`parse_paper_name`] reads it back.
pub fn paper_name(spec: &ScenarioSpec) -> String {
    format!("{}-{}", paper_workload(spec).slug(), spec.hypervisor.slug())
}

/// Parses a `<workload>-<hypervisor>` name into the paper-shape spec
/// it names, with every other field at its default.
///
/// # Errors
///
/// [`Error::UnknownScenario`] when the name does not end in a
/// hypervisor slug after a workload; [`Error::UnknownWorkload`] when
/// the rest names no Figure 4 workload.
pub fn parse_paper_name(name: &str) -> Result<ScenarioSpec, Error> {
    let (workload, kind) = HvKind::ALL
        .into_iter()
        .find_map(|kind| {
            let workload = name.strip_suffix(kind.slug())?.strip_suffix('-')?;
            (!workload.is_empty()).then_some((workload, kind))
        })
        .ok_or_else(|| Error::UnknownScenario { name: name.into() })?;
    Ok(ScenarioSpec::paper(kind).with_workload(Workload::parse(workload)?))
}

/// Builds a paper-shape spec with [`SimBuilder::from_spec`] and runs its
/// workload's mix under `spec.virq_policy`, returning the finished
/// simulation and its makespan. `observe` sets the observability knobs
/// a spec does not carry (trace mode, profiling, event tracing); the
/// fault plan and the watchdog come from the spec.
///
/// # Errors
///
/// [`Error::InvalidSpec`] for a spec that is not paper-shape; build and
/// workload errors pass through.
pub fn run_paper_sim(
    spec: &ScenarioSpec,
    observe: impl FnOnce(SimBuilder) -> SimBuilder,
) -> Result<(Sim, Cycles), Error> {
    if spec.shape()? != SpecShape::Paper {
        return Err(Error::InvalidSpec {
            detail: format!("{} is not a paper-shape spec", label(spec)),
        });
    }
    let mix = workloads::mix(paper_workload(spec));
    let mut sim = observe(SimBuilder::from_spec(spec.clone())).build()?;
    let makespan = workloads::run(sim.as_dyn_mut(), mix, spec.virq_policy)?;
    Ok((sim, makespan))
}

fn run_paper(spec: &ScenarioSpec) -> Result<String, Error> {
    let workload = paper_workload(spec);
    let (_, makespan) = run_paper_sim(spec, |builder| builder)?;
    let mut out = String::new();
    out.push_str("== scenario spec run ==\n");
    out.push_str(&format!("hypervisor:   {}\n", spec.hypervisor));
    out.push_str("shape:        paper (1 VM, 4 vCPUs on 4 pCPUs, pinned)\n");
    out.push_str(&format!("workload:     {workload}\n"));
    out.push_str(&format!("makespan:     {} cycles\n", makespan.as_u64()));
    Ok(out)
}

fn run_consolidation(spec: &ScenarioSpec, ratio: u32) -> Result<String, Error> {
    // The consolidation cell models its own TCP_RR-style transaction
    // loop; knobs that only the paper-shape machine implements are
    // rejected rather than silently dropped.
    if let Some(w) = spec.workload {
        if w != Workload::TcpRr && w != Workload::Netperf {
            return Err(Error::InvalidSpec {
                detail: format!("consolidation cells run TCP_RR; got workload '{w}'"),
            });
        }
    }
    let txns = spec.transactions.unwrap_or(TRANSACTIONS_PER_VM);
    let fault = spec.fault_plan()?;
    let cell = consolidation::run_cell_with(consolidation::CellConfig {
        kind: spec.hypervisor,
        ratio,
        policy: spec.scheduler,
        txns_per_vm: txns,
        // Fault-armed cells always interpret (loop_begin declines a
        // machine with faults installed); clean cells keep the
        // ambient compile toggle.
        compile: workloads::compile_enabled(),
        profiling: false,
        fault: fault.clone(),
    })?;
    let mut out = String::new();
    out.push_str("== scenario spec run ==\n");
    out.push_str(&format!("hypervisor:   {}\n", spec.hypervisor));
    out.push_str(&format!(
        "shape:        consolidation ({ratio} VMs x 2 vCPUs on 2 pCPUs, {}:1)\n",
        ratio
    ));
    out.push_str(&format!("scheduler:    {}\n", cell.sched));
    out.push_str(&format!(
        "transactions: {} ({} per VM)\n",
        cell.transactions, cell.txns_per_vm
    ));
    out.push_str(&format!("mean TCP_RR:  {:.2} us\n", cell.mean_latency_us()));
    out.push_str(&format!(
        "steal:        {} cycles ({:.2}% of 2 pCPUs)\n",
        cell.steal_cycles,
        cell.steal_pct()
    ));
    out.push_str(&format!("lock spin:    {} cycles\n", cell.lock_spin_cycles));
    out.push_str(&format!(
        "vm switches:  {} ({} preemptions, {} timer fires)\n",
        cell.vm_switches, cell.preemptions, cell.timer_fires
    ));
    out.push_str(&format!(
        "virtual IPIs: {} sent, {} coalesced\n",
        cell.ipis_sent, cell.ipis_coalesced
    ));
    // Fault lines appear only for fault-armed specs, so clean-spec
    // output stays byte-identical to what it was before fault support
    // (the smoke scripts and baselines compare those bytes).
    if fault.is_some() {
        out.push_str(&format!(
            "faults:       {} kicks dropped, {} resent after timeout\n",
            cell.ipis_dropped, cell.ipis_resent
        ));
    }
    out.push_str(&format!("makespan:     {} cycles\n", cell.makespan_cycles));
    Ok(out)
}

fn run_rack(spec: &ScenarioSpec, hosts: u32, vms_per_host: u32) -> Result<String, Error> {
    // The rack ring is a TCP_RR workload by construction.
    if let Some(w) = spec.workload {
        if w != Workload::TcpRr && w != Workload::Netperf {
            return Err(Error::InvalidSpec {
                detail: format!("rack cells run TCP_RR; got workload '{w}'"),
            });
        }
    }
    let composition = match spec.hypervisor {
        HvKind::KvmArm => rack::Composition::AllKvm,
        HvKind::XenArm => rack::Composition::AllXen,
        other => {
            return Err(Error::InvalidSpec {
                detail: format!("rack cells model ARM hypervisors; got '{other}'"),
            })
        }
    };
    let rounds = spec.transactions.unwrap_or(rack::ROUNDS);
    let fault = spec.fault_plan()?;
    let cell = rack::run_cell_with(&rack::CellConfig {
        composition,
        hosts,
        vms_per_host,
        rounds,
        jobs: 1,
        fault: fault.clone(),
    })?;
    let mut out = String::new();
    out.push_str("== scenario spec run ==\n");
    out.push_str(&format!("hypervisor:   {}\n", spec.hypervisor));
    out.push_str(&format!(
        "shape:        rack ({hosts} hosts x {vms_per_host} VMs, TCP_RR ring, {rounds} rounds)\n"
    ));
    out.push_str(&format!(
        "requests:     {} ({} wire hops, {} windows)\n",
        cell.requests, cell.wire_hops, cell.windows
    ));
    out.push_str(&format!("mean service: {:.2} us\n", cell.mean_service_us()));
    if fault.is_some() {
        out.push_str(&format!(
            "faults:       {} tokens dropped\n",
            cell.wire_drops
        ));
    }
    out.push_str(&format!("makespan:     {} cycles\n", cell.makespan_cycles));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_core::{SchedPolicy, VirqPolicy};

    #[test]
    fn spec_json_round_trips_losslessly() {
        let mut spec = ScenarioSpec::consolidation(HvKind::XenArm, 8, SchedPolicy::Cfs);
        spec.transactions = Some(24);
        let text = to_json(&spec);
        let back = parse(&text).unwrap();
        assert_eq!(back, spec);
        // And the re-rendered JSON is byte-identical.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn paper_spec_matches_the_builder_path_byte_for_byte() {
        let spec = ScenarioSpec::paper(HvKind::KvmArm).with_workload(Workload::TcpRr);
        let via_spec = run_spec(&spec).unwrap();
        // The "equivalent builder run": fluent construction, same engine.
        let mut sim = SimBuilder::new(HvKind::KvmArm)
            .workload(Workload::TcpRr)
            .build()
            .unwrap();
        let makespan = workloads::run(
            sim.as_dyn_mut(),
            workloads::mix(Workload::TcpRr),
            VirqPolicy::Vcpu0,
        )
        .unwrap();
        assert!(via_spec.contains(&format!("makespan:     {} cycles", makespan.as_u64())));
        // Re-running the spec reproduces the exact bytes.
        assert_eq!(run_spec(&spec).unwrap(), via_spec);
    }

    #[test]
    fn paper_names_round_trip() {
        for kind in HvKind::ALL {
            for workload in Workload::ALL.into_iter().chain([Workload::Netperf]) {
                let spec = ScenarioSpec::paper(kind).with_workload(workload);
                assert_eq!(parse_paper_name(&paper_name(&spec)).unwrap(), spec);
            }
        }
        let spec = parse_paper_name("mysql-kvm-arm-vhe").unwrap();
        assert_eq!(spec.hypervisor, HvKind::KvmArmVhe);
        assert_eq!(spec.workload, Some(Workload::Mysql));
        // A spec naming no workload runs, and is named for, netperf.
        assert_eq!(
            paper_name(&ScenarioSpec::paper(HvKind::XenX86)),
            "netperf-xen-x86"
        );
        for (name, unknown_scenario) in [
            ("netperf-riscv", true),
            ("kvm-arm", true),
            ("-kvm-arm", true),
            ("doom-kvm-arm", false),
        ] {
            let err = parse_paper_name(name).unwrap_err();
            assert_eq!(
                matches!(err, Error::UnknownScenario { .. }),
                unknown_scenario,
                "{name}: {err}"
            );
            assert_eq!(
                matches!(err, Error::UnknownWorkload { .. }),
                !unknown_scenario,
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn consolidation_spec_runs_a_cell() {
        let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, 4, SchedPolicy::Credit);
        spec.transactions = Some(8);
        let out = run_spec(&spec).unwrap();
        assert!(out.contains("consolidation (4 VMs"), "{out}");
        assert!(out.contains("scheduler:    credit"), "{out}");
        assert!(out.contains("transactions: 32 (8 per VM)"), "{out}");
    }

    #[test]
    fn unsupported_knobs_are_rejected_not_dropped() {
        let mut wl = ScenarioSpec::consolidation(HvKind::KvmArm, 2, SchedPolicy::Credit);
        wl.workload = Some(Workload::Mysql);
        assert!(matches!(run_spec(&wl), Err(Error::InvalidSpec { .. })));
        // A malformed fault plan is a spec error, not a panic.
        let mut bad = ScenarioSpec::consolidation(HvKind::KvmArm, 2, SchedPolicy::Credit);
        bad.fault = Some(hvx_core::FaultSpec {
            plan: "not-a-plan".into(),
            seed: 1,
        });
        assert!(matches!(run_spec(&bad), Err(Error::InvalidSpec { .. })));
    }

    #[test]
    fn consolidation_specs_accept_fault_plans_and_report_them() {
        let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, 4, SchedPolicy::Credit);
        spec.transactions = Some(8);
        let clean = run_spec(&spec).unwrap();
        assert!(!clean.contains("faults:"), "clean specs stay byte-stable");
        spec.fault = Some(hvx_core::FaultSpec {
            plan: "virq_drop=300000e-6".into(),
            seed: 11,
        });
        let faulted = run_spec(&spec).unwrap();
        assert!(faulted.contains("faults:"), "{faulted}");
        assert!(faulted.contains("kicks dropped"), "{faulted}");
        // Dropped kicks stall transactions: the reports must differ in
        // more than the fault line.
        assert_ne!(
            clean.lines().last(),
            faulted.lines().last(),
            "makespan must stretch under drops"
        );
        // Determinism: same spec, same bytes.
        assert_eq!(run_spec(&spec).unwrap(), faulted);
    }

    #[test]
    fn rack_spec_runs_a_ring() {
        let mut spec = ScenarioSpec::rack(HvKind::KvmArm, 4, 2);
        spec.transactions = Some(2);
        let out = run_spec(&spec).unwrap();
        assert!(out.contains("rack (4 hosts x 2 VMs"), "{out}");
        assert!(out.contains("requests:"), "{out}");
        assert_eq!(run_spec(&spec).unwrap(), out, "rack runs are deterministic");
        assert_eq!(label(&spec), "KVM ARM rack 4x2");
        // x86 kinds have no place in the ARM rack sweep.
        let x86 = ScenarioSpec::rack(HvKind::KvmX86, 4, 2);
        assert!(matches!(run_spec(&x86), Err(Error::InvalidSpec { .. })));
    }

    #[test]
    fn structured_reports_carry_the_spec_fingerprint() {
        let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, 2, SchedPolicy::Credit);
        spec.transactions = Some(4);
        let run = run_spec_report(&spec).unwrap();
        assert_eq!(run.report, run_spec(&spec).unwrap());
        assert_eq!(run.cell.scenario, "KVM ARM consolidation 2:1");
        assert_eq!(
            run.cell.fingerprint.as_deref(),
            Some(crate::cache::spec_fingerprint(&spec).to_hex().as_str())
        );
        assert!(run.cell.ok());
    }

    #[test]
    fn malformed_spec_text_reports_invalid_spec() {
        assert!(matches!(parse("{"), Err(Error::InvalidSpec { .. })));
        assert!(matches!(
            parse("{\"hypervisor\": \"KvmArm\"}"),
            Err(Error::InvalidSpec { .. })
        ));
    }
}
