//! The unified public entry point: [`SimBuilder`] → [`Sim`].
//!
//! Every consumer of the workspace — the artifact runner, the examples,
//! external callers of the `hvx` facade — previously assembled hypervisor
//! models through per-model constructors and ad-hoc machine fiddling.
//! [`SimBuilder`] is the single documented way in: pick a configuration
//! (or a whole [`ScenarioSpec`]), set the knobs the paper's experimental
//! design exposes (trace mode, cycle-attribution profiling,
//! virtual-interrupt policy, cost model), and [`SimBuilder::build`]
//! validates the combination and returns a ready [`Sim`].

use crate::spec::{ScenarioSpec, TopologySpec};
use crate::{
    CostModel, Error, HvKind, Hypervisor, KvmArm, KvmX86, Native, Platform, VirqPolicy, XenArm,
    XenX86,
};
use core::fmt;
use hvx_engine::{FaultPlan, TraceMode, Watchdog};

/// The number of VCPUs of the paper's measured VM configuration (§III:
/// "we configured both hypervisors with 4-way SMP virtual machines").
pub const PAPER_VCPUS: usize = 4;

/// A named Figure 4 workload, selectable on a [`SimBuilder`].
///
/// These are identities, not mixes: the operation mixes (and the code
/// that runs them) live in `hvx-suite`, which maps each variant to its
/// calibrated catalog entry. [`Workload::Netperf`] is an alias for the
/// paper's canonical netperf TCP_RR latency workload (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Workload {
    /// Linux kernel compilation (CPU-bound).
    Kernbench,
    /// Scheduler/IPC stress over Unix domain sockets.
    Hackbench,
    /// Java runtime benchmark suite (CPU-bound).
    SpecJvm2008,
    /// netperf TCP_RR — the paper's canonical latency workload.
    Netperf,
    /// netperf TCP_RR (explicit name).
    TcpRr,
    /// netperf TCP_STREAM — bulk receive.
    TcpStream,
    /// netperf TCP_MAERTS — bulk transmit.
    TcpMaerts,
    /// Apache serving concurrent ApacheBench requests.
    Apache,
    /// memcached driven by memtier.
    Memcached,
    /// MySQL running SysBench transactions.
    Mysql,
}

impl Workload {
    /// Every distinct workload, in Figure 4 order (the `Netperf` alias is
    /// omitted — it names the same workload as [`Workload::TcpRr`]).
    pub const ALL: [Workload; 9] = [
        Workload::Kernbench,
        Workload::Hackbench,
        Workload::SpecJvm2008,
        Workload::TcpRr,
        Workload::TcpStream,
        Workload::TcpMaerts,
        Workload::Apache,
        Workload::Memcached,
        Workload::Mysql,
    ];

    /// The workload's CLI name (`netperf`, `tcp_rr`, `specjvm2008`,
    /// ...): the workload half of a `<workload>-<hypervisor>` scenario
    /// name. [`Workload::parse`] reads it back.
    pub fn slug(self) -> &'static str {
        match self {
            Workload::Netperf => "netperf",
            Workload::Kernbench => "kernbench",
            Workload::Hackbench => "hackbench",
            Workload::SpecJvm2008 => "specjvm2008",
            Workload::TcpRr => "tcp_rr",
            Workload::TcpStream => "tcp_stream",
            Workload::TcpMaerts => "tcp_maerts",
            Workload::Apache => "apache",
            Workload::Memcached => "memcached",
            Workload::Mysql => "mysql",
        }
    }

    /// The workload's name in the Figure 4 catalog.
    pub fn catalog_name(self) -> &'static str {
        match self {
            Workload::Kernbench => "Kernbench",
            Workload::Hackbench => "Hackbench",
            Workload::SpecJvm2008 => "SPECjvm2008",
            Workload::Netperf | Workload::TcpRr => "TCP_RR",
            Workload::TcpStream => "TCP_STREAM",
            Workload::TcpMaerts => "TCP_MAERTS",
            Workload::Apache => "Apache",
            Workload::Memcached => "Memcached",
            Workload::Mysql => "MySQL",
        }
    }

    /// Parses a workload name (catalog spelling, case-insensitive;
    /// `netperf` is accepted as the TCP_RR alias).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorkload`] when the name matches nothing.
    pub fn parse(name: &str) -> Result<Workload, Error> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "kernbench" => Ok(Workload::Kernbench),
            "hackbench" => Ok(Workload::Hackbench),
            "specjvm2008" | "specjvm" => Ok(Workload::SpecJvm2008),
            "netperf" => Ok(Workload::Netperf),
            "tcp_rr" | "tcp-rr" => Ok(Workload::TcpRr),
            "tcp_stream" | "tcp-stream" => Ok(Workload::TcpStream),
            "tcp_maerts" | "tcp-maerts" => Ok(Workload::TcpMaerts),
            "apache" => Ok(Workload::Apache),
            "memcached" => Ok(Workload::Memcached),
            "mysql" => Ok(Workload::Mysql),
            _ => Err(Error::UnknownWorkload { name: name.into() }),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.catalog_name())
    }
}

/// Fluent builder for a configured simulation.
///
/// # Examples
///
/// The canonical entry point of the workspace:
///
/// ```
/// use hvx_core::{HvKind, SimBuilder, Workload};
/// use hvx_engine::TraceMode;
///
/// let mut sim = SimBuilder::new(HvKind::KvmArm)
///     .workload(Workload::Netperf)
///     .tracing(TraceMode::Off)
///     .build()
///     .expect("paper configuration is valid");
/// // Table II, row 1: a KVM ARM hypercall costs 6,500 cycles.
/// assert_eq!(sim.hypercall(0).as_u64(), 6_500);
/// ```
///
/// Invalid combinations are rejected instead of panicking:
///
/// ```
/// use hvx_core::{Error, HvKind, ScenarioSpec, SchedPolicy, SimBuilder};
///
/// // A consolidation topology is not the paper's pinned 4-vCPU VM.
/// let spec = ScenarioSpec::consolidation(HvKind::XenArm, 2, SchedPolicy::Credit);
/// let err = SimBuilder::from_spec(spec).build().unwrap_err();
/// assert!(matches!(err, Error::InvalidCpus { requested: 2, .. }));
/// ```
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct SimBuilder {
    /// The single source of scenario identity: everything the fluent
    /// methods below set lands here, and [`SimBuilder::build`] reads
    /// only from it (plus the observability knobs, which are not part
    /// of a scenario's identity).
    spec: ScenarioSpec,
    /// What the machine's trace log keeps of each charge.
    trace: TraceMode,
    profiling: bool,
    cost: Option<CostModel>,
    /// Flow tracing, with the log keeping every charge record.
    event_tracing: bool,
}

impl SimBuilder {
    /// Starts a builder for `kind` with the paper's defaults: the pinned
    /// [`PAPER_VCPUS`]-way SMP VM, full tracing, profiling off,
    /// interrupts to VCPU0.
    pub fn new(kind: HvKind) -> SimBuilder {
        SimBuilder::from_spec(ScenarioSpec::paper(kind))
    }

    /// Starts a builder from an explicit [`ScenarioSpec`] (e.g. one
    /// deserialized from a `--spec` file). Observability knobs (trace
    /// mode, profiling, event tracing, cost overrides) are not part of
    /// a spec and start at their defaults.
    pub fn from_spec(spec: ScenarioSpec) -> SimBuilder {
        SimBuilder {
            spec,
            trace: TraceMode::Full,
            profiling: false,
            cost: None,
            event_tracing: false,
        }
    }

    /// The scenario spec this builder has accumulated so far —
    /// serialize it to get the `--spec` file equivalent to this
    /// builder chain.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Names the workload this simulation is being built for. Purely an
    /// annotation on the [`Sim`] — the suite's workload engine reads it
    /// back via [`Sim::workload`] to pick the operation mix.
    pub fn workload(mut self, workload: Workload) -> SimBuilder {
        self.spec.workload = Some(workload);
        self
    }

    /// Selects the trace mode ([`TraceMode::Off`] keeps the hot path
    /// record-free; [`TraceMode::Full`] stores every event).
    pub fn tracing(mut self, mode: TraceMode) -> SimBuilder {
        self.trace = mode;
        self
    }

    /// Disables the step trace entirely (bulk workload runs):
    /// shorthand for [`TraceMode::Off`].
    pub fn without_tracing(self) -> SimBuilder {
        self.tracing(TraceMode::Off)
    }

    /// Enables span-based cycle attribution and the metrics registry
    /// ([`hvx_engine::Machine::enable_profiling`]). Off by default: the
    /// paper's pinned cycle counts are identical either way, profiling
    /// only adds attribution.
    pub fn profiling(mut self, on: bool) -> SimBuilder {
        self.profiling = on;
        self
    }

    /// Sets the virtual-interrupt distribution policy (the §V ablation).
    pub fn virq_policy(mut self, policy: VirqPolicy) -> SimBuilder {
        self.spec.virq_policy = policy;
        self
    }

    /// Sets the watchdog limits the built machine enforces on every
    /// charge. [`Watchdog::UNLIMITED`] (the default) leaves the machine
    /// byte-identical to one built without this call.
    pub fn watchdog(mut self, watchdog: Watchdog) -> SimBuilder {
        self.spec.watchdog = watchdog;
        self
    }

    /// Overrides the calibrated cost model (ablations, what-if studies)
    /// on every configuration. The defaults are [`CostModel::arm`] for
    /// the ARM kinds and native, and [`CostModel::x86`] for the x86
    /// kinds, so derive an x86 override from the latter.
    /// [`HvKind::KvmArmVhe`] stays VHE whatever the model. Derive an
    /// override from a default, not from [`SimBuilder::resolved_cost`]:
    /// `HVX_COST_PERTURB` applies once, on top of the override.
    pub fn cost_model(mut self, cost: CostModel) -> SimBuilder {
        self.cost = Some(cost);
        self
    }

    /// Enables causal event tracing
    /// ([`hvx_engine::Machine::enable_event_tracing`]): cross-machine
    /// flow chains, with the trace log keeping every charge record (the
    /// timeline's slices) whatever [`SimBuilder::tracing`] selected —
    /// or the newest `N` after [`SimBuilder::event_ring`]. Exportable as
    /// Chrome trace-event JSON. Off by default — when off, the built
    /// machine is byte-identical to one without this call.
    pub fn event_tracing(mut self, on: bool) -> SimBuilder {
        self.event_tracing = on;
        self
    }

    /// Enables event tracing bounded to rings of `slots` charge
    /// records ([`TraceMode::Ring`]) and `slots` flow points, oldest
    /// overwritten first.
    pub fn event_ring(mut self, slots: usize) -> SimBuilder {
        self.event_tracing = true;
        self.tracing(TraceMode::Ring(slots))
    }

    /// Installs a deterministic fault plan
    /// ([`hvx_engine::fault`]) on the built machine. An empty plan is
    /// equivalent to not calling this: the machine keeps no fault
    /// state and the simulation is byte-identical to the fault-free
    /// default.
    pub fn fault_plan(mut self, plan: FaultPlan) -> SimBuilder {
        self.spec.set_fault_plan(&plan);
        self
    }

    /// The cost model [`SimBuilder::build`] charges with: the
    /// [`SimBuilder::cost_model`] override, else the calibrated default
    /// for the configuration's platform, with `HVX_COST_PERTURB` applied
    /// on top. A model without an [`HvKind`] of its own (the §IV vAPIC
    /// projection) takes its costs from here, so a perturbation reaches
    /// it too.
    ///
    /// # Errors
    ///
    /// [`Error::Perturbation`] when `HVX_COST_PERTURB` does not parse.
    pub fn resolved_cost(&self) -> Result<CostModel, Error> {
        let mut cost = self
            .cost
            .unwrap_or_else(|| match self.spec.hypervisor.platform() {
                Platform::X86 => CostModel::x86(),
                Platform::Arm | Platform::ArmVhe => CostModel::arm(),
            });
        // Drift drill: `HVX_COST_PERTURB` mutates the *effective*
        // charging constants without touching the pinned `CostModel`
        // consts that scenario fingerprints hash — the exact condition
        // the baseline gate must classify as drift.
        if let Ok(perturb) = std::env::var("HVX_COST_PERTURB") {
            if !perturb.trim().is_empty() {
                cost.apply_perturbation(&perturb)
                    .map_err(|detail| Error::Perturbation { detail })?;
            }
        }
        Ok(cost)
    }

    /// Validates the configuration and constructs the simulation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidCpus`] unless the spec's topology is the paper's
    /// pinned [`PAPER_VCPUS`]-way VM (consolidation and rack topologies
    /// are run by `hvx-suite`'s own engines, not through `build`);
    /// [`Error::InvalidSpec`] for a stored fault plan that does not
    /// parse; [`Error::Perturbation`] as for
    /// [`SimBuilder::resolved_cost`].
    pub fn build(self) -> Result<Sim, Error> {
        if self.spec.topology != TopologySpec::paper() {
            return Err(Error::InvalidCpus {
                requested: self.spec.topology.vcpus_per_vm as usize,
                supported: PAPER_VCPUS,
            });
        }
        let fault_plan = self.spec.fault_plan()?;
        let cost = self.resolved_cost()?;
        let mut hv: Box<dyn Hypervisor> = match self.spec.hypervisor {
            HvKind::KvmArm => Box::new(KvmArm::with_cost(cost, false)),
            HvKind::KvmArmVhe => Box::new(KvmArm::with_cost(cost, true)),
            HvKind::XenArm => Box::new(XenArm::with_cost(cost)),
            HvKind::KvmX86 => Box::new(KvmX86::with_cost(cost)),
            HvKind::XenX86 => Box::new(XenX86::with_cost(cost)),
            HvKind::Native => Box::new(Native::with_cost(cost)),
        };
        let machine = hv.machine_mut();
        machine.trace_mut().set_mode(self.trace);
        if self.profiling {
            machine.enable_profiling();
        }
        if self.event_tracing {
            machine.enable_event_tracing();
        }
        if let Some(plan) = fault_plan {
            machine.set_fault_plan(plan);
        }
        if self.spec.watchdog != Watchdog::UNLIMITED {
            machine.set_watchdog(self.spec.watchdog);
        }
        hv.set_virq_policy(self.spec.virq_policy);
        Ok(Sim {
            hv,
            workload: self.spec.workload,
        })
    }
}

/// A configured, ready-to-run simulation.
///
/// Derefs to [`Hypervisor`], so every microbenchmark and workload
/// primitive is available directly (see the [`SimBuilder`] example).
pub struct Sim {
    hv: Box<dyn Hypervisor>,
    workload: Option<Workload>,
}

impl Sim {
    /// The workload this simulation was built for, if one was named.
    pub fn workload(&self) -> Option<Workload> {
        self.workload
    }

    /// Unwraps the underlying hypervisor model.
    pub fn into_inner(self) -> Box<dyn Hypervisor> {
        self.hv
    }

    /// Borrows the underlying hypervisor as a trait object (for APIs
    /// taking `&mut dyn Hypervisor`).
    pub fn as_dyn_mut(&mut self) -> &mut dyn Hypervisor {
        self.hv.as_mut()
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("kind", &self.hv.kind())
            .field("workload", &self.workload)
            .finish_non_exhaustive()
    }
}

impl core::ops::Deref for Sim {
    type Target = dyn Hypervisor;
    fn deref(&self) -> &Self::Target {
        self.hv.as_ref()
    }
}

impl core::ops::DerefMut for Sim {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.hv.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_every_kind() {
        for kind in [
            HvKind::KvmArm,
            HvKind::XenArm,
            HvKind::KvmX86,
            HvKind::XenX86,
            HvKind::KvmArmVhe,
            HvKind::Native,
        ] {
            let sim = SimBuilder::new(kind).build().expect("default is valid");
            assert_eq!(sim.kind(), kind);
            assert_eq!(sim.num_vcpus(), PAPER_VCPUS);
        }
    }

    #[test]
    fn invalid_cpu_count_is_rejected_not_panicked() {
        for n in [0, 1, 3, 5, 64] {
            let mut spec = ScenarioSpec::paper(HvKind::KvmArm);
            spec.topology.pcpus = n;
            spec.topology.vcpus_per_vm = n;
            let err = SimBuilder::from_spec(spec).build().unwrap_err();
            assert!(
                matches!(err, Error::InvalidCpus { requested, supported: 4 } if requested == n as usize)
            );
        }
        assert!(SimBuilder::from_spec(ScenarioSpec::paper(HvKind::KvmArm))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_knobs_reach_the_machine() {
        let sim = SimBuilder::new(HvKind::KvmArm)
            .tracing(TraceMode::Off)
            .profiling(true)
            .build()
            .unwrap();
        assert_eq!(sim.machine().trace().mode(), TraceMode::Off);
        assert!(sim.machine().profiling());

        let sim = SimBuilder::new(HvKind::XenArm)
            .without_tracing()
            .build()
            .unwrap();
        assert_eq!(sim.machine().trace().mode(), TraceMode::Off);
        assert!(!sim.machine().profiling());

        let sim = SimBuilder::new(HvKind::KvmArm)
            .tracing(TraceMode::Off)
            .event_tracing(true)
            .build()
            .unwrap();
        assert_eq!(sim.machine().trace().mode(), TraceMode::Full);
        assert!(sim.machine().event_tracing());

        let sim = SimBuilder::new(HvKind::KvmArm)
            .event_ring(64)
            .build()
            .unwrap();
        assert_eq!(sim.machine().trace().mode(), TraceMode::Ring(64));
        assert_eq!(sim.machine().event_tracer().unwrap().capacity(), Some(64));
    }

    #[test]
    fn pinned_table2_costs_survive_the_builder() {
        let mut kvm = SimBuilder::new(HvKind::KvmArm).build().unwrap();
        let mut xen = SimBuilder::new(HvKind::XenArm).build().unwrap();
        assert_eq!(kvm.hypercall(0).as_u64(), 6_500);
        assert_eq!(xen.hypercall(0).as_u64(), 376);
        // Profiling must not change them (attribution, not cost).
        let mut kvm_p = SimBuilder::new(HvKind::KvmArm)
            .profiling(true)
            .build()
            .unwrap();
        assert_eq!(kvm_p.hypercall(0).as_u64(), 6_500);
    }

    #[test]
    fn x86_cost_models_reach_the_x86_configurations() {
        use crate::{KvmX86, XenX86};
        use hvx_engine::Cycles;
        // An explicit x86 model reproduces the default construction.
        let mut explicit = SimBuilder::new(HvKind::KvmX86)
            .cost_model(CostModel::x86())
            .build()
            .unwrap();
        let mut default = KvmX86::new();
        assert_eq!(explicit.hypercall(0), default.hypercall(0));
        assert_eq!(explicit.gicd_trap(1), default.gicd_trap(1));
        assert_eq!(explicit.virtual_ipi(0, 1), default.virtual_ipi(0, 1));
        assert_eq!(explicit.io_latency_out(2), default.io_latency_out(2));
        assert_eq!(
            explicit.machine().total_busy(),
            default.machine().total_busy()
        );
        // A raised x86-only field moves both x86 hypercalls: each
        // takes one VM exit.
        let mut raised = CostModel::x86();
        raised.vmexit += Cycles::new(100);
        let baseline = [KvmX86::new().hypercall(0), XenX86::new().hypercall(0)];
        for (kind, base) in [HvKind::KvmX86, HvKind::XenX86].into_iter().zip(baseline) {
            let mut sim = SimBuilder::new(kind).cost_model(raised).build().unwrap();
            assert_eq!(sim.hypercall(0), base + Cycles::new(100), "{kind:?}");
        }
    }

    #[test]
    fn fault_plan_knob_reaches_the_machine() {
        use hvx_engine::{FaultPlan, FaultPoint};
        let sim = SimBuilder::new(HvKind::KvmArm)
            .fault_plan(FaultPlan::new(7).with_rate(FaultPoint::WireDrop, 0.5))
            .build()
            .unwrap();
        assert!(sim.machine().faults_enabled());
        // Empty plan == no plan: the machine stays fault-free.
        let sim = SimBuilder::new(HvKind::KvmArm)
            .fault_plan(FaultPlan::new(7))
            .build()
            .unwrap();
        assert!(!sim.machine().faults_enabled());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.catalog_name()).unwrap(), w);
            assert_eq!(Workload::parse(w.slug()).unwrap(), w);
        }
        assert_eq!(
            Workload::parse(Workload::Netperf.slug()).unwrap(),
            Workload::Netperf
        );
        assert_eq!(Workload::parse("netperf").unwrap(), Workload::Netperf);
        assert_eq!(
            Workload::Netperf.catalog_name(),
            Workload::TcpRr.catalog_name()
        );
        assert!(matches!(
            Workload::parse("doom"),
            Err(Error::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn sim_carries_its_workload_annotation() {
        let sim = SimBuilder::new(HvKind::Native)
            .workload(Workload::Mysql)
            .build()
            .unwrap();
        assert_eq!(sim.workload(), Some(Workload::Mysql));
        assert!(format!("{sim:?}").contains("Mysql"));
    }
}
