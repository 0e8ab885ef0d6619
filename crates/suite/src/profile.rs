//! Scenario profiling: Table-3-style cycle attribution from live
//! instrumentation.
//!
//! Where [`crate::table3`] regenerates the paper's hypercall breakdown
//! from the step trace of a single microbenchmark, this module profiles
//! whole *workload runs*: it builds the configuration with
//! [`SimBuilder::profiling`] enabled, runs the workload's operation mix,
//! and reads the span tracer back — so the breakdown is produced by the
//! observability layer itself, not by summing cost constants. Every
//! report is conservation-checked: the per-transition exclusive cycles
//! plus the unattributed remainder must equal the machine's total busy
//! cycles, or [`Error::Conservation`] is returned.
//!
//! ```
//! use hvx_suite::profile::ProfileScenario;
//!
//! let sc = ProfileScenario::parse("netperf-kvm-arm").unwrap();
//! let report = hvx_suite::profile::run_profile(sc).unwrap();
//! assert_eq!(report.snapshot.accounted_cycles(), report.snapshot.total_cycles);
//! ```

use crate::workloads::{self, Mix};
use hvx_core::{Error, HvKind, SimBuilder, VirqPolicy, Workload};
use hvx_engine::{fault, FaultPlan, ProfileSnapshot, Watchdog};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One profiling scenario: a Figure 4 workload on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ProfileScenario {
    /// The workload whose operation mix is run.
    pub workload: Workload,
    /// The configuration under profile.
    pub kind: HvKind,
}

pub(crate) fn kind_slug(kind: HvKind) -> &'static str {
    match kind {
        HvKind::KvmArm => "kvm-arm",
        HvKind::XenArm => "xen-arm",
        HvKind::KvmX86 => "kvm-x86",
        HvKind::XenX86 => "xen-x86",
        HvKind::KvmArmVhe => "kvm-arm-vhe",
        HvKind::Native => "native",
    }
}

fn workload_slug(w: Workload) -> &'static str {
    match w {
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

impl ProfileScenario {
    /// The scenario's CLI name, `<workload>-<kind>` (e.g.
    /// `netperf-kvm-arm`).
    pub fn name(&self) -> String {
        format!("{}-{}", workload_slug(self.workload), kind_slug(self.kind))
    }

    /// Parses a `<workload>-<kind>` scenario name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownScenario`] when no known kind suffix matches;
    /// [`Error::UnknownWorkload`] when the workload prefix does not
    /// name a Figure 4 workload.
    pub fn parse(name: &str) -> Result<ProfileScenario, Error> {
        // Longest suffix first so `kvm-arm-vhe` is not read as `kvm-arm`.
        let kinds = [
            HvKind::KvmArmVhe,
            HvKind::KvmArm,
            HvKind::XenArm,
            HvKind::KvmX86,
            HvKind::XenX86,
            HvKind::Native,
        ];
        for kind in kinds {
            let suffix = format!("-{}", kind_slug(kind));
            if let Some(prefix) = name.strip_suffix(&suffix) {
                if prefix.is_empty() {
                    break;
                }
                return Ok(ProfileScenario {
                    workload: Workload::parse(prefix)?,
                    kind,
                });
            }
        }
        Err(Error::UnknownScenario { name: name.into() })
    }

    /// The default profile set: the paper's canonical netperf workload
    /// on all four measured configurations, in Table II column order.
    pub fn default_set() -> Vec<ProfileScenario> {
        HvKind::MEASURED
            .into_iter()
            .map(|kind| ProfileScenario {
                workload: Workload::Netperf,
                kind,
            })
            .collect()
    }
}

/// The profile of one scenario run: the conservation-checked span
/// breakdown plus sampled metrics, ready to render or serialize.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// The scenario's CLI name.
    pub scenario: String,
    /// The configuration profiled.
    pub kind: HvKind,
    /// The workload run.
    pub workload: Workload,
    /// The run's makespan in cycles (wall time of the simulated run).
    pub makespan_cycles: u64,
    /// The exported breakdown; `snapshot.total_cycles` is the summed
    /// busy time of every core.
    pub snapshot: ProfileSnapshot,
    /// Folded-stack flamegraph text (`flamegraph.pl`-compatible).
    pub folded: String,
}

pub(crate) fn mix_for(workload: Workload) -> Result<Mix, Error> {
    workloads::catalog()
        .into_iter()
        .find(|w| w.name == workload.catalog_name())
        .map(|w| w.mix)
        .ok_or_else(|| Error::UnknownWorkload {
            name: workload.catalog_name().into(),
        })
}

/// Runs one scenario under profiling and returns its report.
///
/// # Errors
///
/// [`Error::InvalidCpus`]/[`Error::UnknownWorkload`] from building the
/// simulation; [`Error::Conservation`] if the span breakdown fails to
/// account for every busy cycle (an instrumentation bug, not a user
/// error — surfaced rather than silently mis-reported).
pub fn run_profile(scenario: ProfileScenario) -> Result<ProfileReport, Error> {
    let mix = mix_for(scenario.workload)?;
    let mut sim = SimBuilder::new(scenario.kind)
        .workload(scenario.workload)
        .without_tracing()
        .profiling(true)
        .build()?;
    let makespan = workloads::run(sim.as_dyn_mut(), mix, VirqPolicy::Vcpu0)?;
    sim.sample_metrics();

    let machine = sim.machine();
    let spans = machine
        .spans()
        .expect("profiling was enabled by the builder");
    // The tracer's exclusive totals and remainder sum to its total by
    // construction; what can break is a charge that bypassed it.
    let attributed = spans.total();
    let total = machine.total_busy().as_u64();
    if attributed != total {
        return Err(Error::Conservation { attributed, total });
    }

    let metrics = machine
        .metrics()
        .expect("profiling was enabled by the builder");
    Ok(ProfileReport {
        scenario: scenario.name(),
        kind: scenario.kind,
        workload: scenario.workload,
        makespan_cycles: makespan.as_u64(),
        snapshot: ProfileSnapshot::capture(spans, metrics),
        folded: spans.folded(&scenario.name()),
    })
}

/// Runs every scenario on up to `jobs` OS threads, returning reports
/// **in scenario order**. Each scenario is independently deterministic
/// and lands in a slot indexed by its position, so the result — and any
/// rendering of it — is byte-identical regardless of `jobs`.
///
/// # Errors
///
/// [`Error::InvalidJobs`] for `jobs == 0`; otherwise the first scenario
/// error in scenario order, if any.
pub fn run_profiles(
    scenarios: &[ProfileScenario],
    jobs: usize,
) -> Result<Vec<ProfileReport>, Error> {
    run_profiles_with(scenarios, jobs, None)
}

/// [`run_profiles`] with a fault plan installed around every scenario,
/// so recovery cycles show up as attributed spans in the breakdowns
/// (and the conservation check still holds over them). `None` is
/// byte-identical to [`run_profiles`].
///
/// # Errors
///
/// As for [`run_profiles`].
pub fn run_profiles_with(
    scenarios: &[ProfileScenario],
    jobs: usize,
    plan: Option<&FaultPlan>,
) -> Result<Vec<ProfileReport>, Error> {
    if jobs == 0 {
        return Err(Error::InvalidJobs { jobs });
    }
    // The ambient plan is thread-local, so it must be (re)installed on
    // whichever thread builds the machine — inline or worker.
    let profile_one = |sc: ProfileScenario| -> Result<ProfileReport, Error> {
        let _ambient = plan.map(|p| fault::install_ambient(Some(p.clone()), Watchdog::UNLIMITED));
        run_profile(sc)
    };
    if jobs == 1 || scenarios.len() <= 1 {
        return scenarios.iter().map(|s| profile_one(*s)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<ProfileReport, Error>>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(scenarios.len()) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= scenarios.len() {
                    break;
                }
                *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(profile_one(scenarios[idx]));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every scheduled scenario ran")
        })
        .collect()
}

impl ProfileReport {
    /// Renders the Table-3-style breakdown: one row per transition that
    /// saw cycles, heaviest exclusive share first, with the
    /// conservation line at the bottom.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Profile: {} ({}, {}) ==\n\n",
            self.scenario, self.kind, self.workload
        ));
        out.push_str(&format!(
            "{:<24}{:>10}{:>16}{:>16}{:>9}\n",
            "Transition", "Count", "Excl cycles", "Incl cycles", "Share"
        ));
        let width = 24 + 10 + 16 + 16 + 9;
        out.push_str(&"-".repeat(width));
        out.push('\n');
        let mut rows: Vec<_> = self
            .snapshot
            .spans
            .iter()
            .filter(|r| r.count > 0 || r.exclusive_cycles > 0)
            .collect();
        rows.sort_by(|a, b| {
            b.exclusive_cycles
                .cmp(&a.exclusive_cycles)
                .then_with(|| a.transition.cmp(b.transition))
        });
        for r in rows {
            out.push_str(&format!(
                "{:<24}{:>10}{:>16}{:>16}{:>8.2}%\n",
                r.transition, r.count, r.exclusive_cycles, r.inclusive_cycles, r.share_pct
            ));
        }
        if self.snapshot.unattributed_cycles > 0 {
            out.push_str(&format!(
                "{:<24}{:>10}{:>16}\n",
                "(unattributed)", "", self.snapshot.unattributed_cycles
            ));
        }
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out.push_str(&format!(
            "{:<24}{:>10}{:>16}  = total busy cycles (conservation exact)\n",
            "total", "", self.snapshot.total_cycles
        ));
        if !self.snapshot.counters.is_empty() {
            out.push('\n');
            for c in &self.snapshot.counters {
                out.push_str(&format!("{:<32}{:>16}\n", c.name, c.value));
            }
        }
        if !self.snapshot.histograms.is_empty() {
            out.push('\n');
            out.push_str(&hvx_obs::render_histogram_summary(
                &self.snapshot.histograms,
            ));
        }
        out
    }
}

/// Renders a batch of reports as `hvx-repro profile` prints them.
pub fn render_profiles(reports: &[ProfileReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for sc in ProfileScenario::default_set() {
            assert_eq!(ProfileScenario::parse(&sc.name()).unwrap(), sc);
        }
        let sc = ProfileScenario::parse("mysql-kvm-arm-vhe").unwrap();
        assert_eq!(sc.kind, HvKind::KvmArmVhe);
        assert_eq!(sc.workload, Workload::Mysql);
        assert!(matches!(
            ProfileScenario::parse("netperf-riscv"),
            Err(Error::UnknownScenario { .. })
        ));
        assert!(matches!(
            ProfileScenario::parse("doom-kvm-arm"),
            Err(Error::UnknownWorkload { .. })
        ));
        assert!(matches!(
            ProfileScenario::parse("kvm-arm"),
            Err(Error::UnknownScenario { .. })
        ));
    }

    #[test]
    fn default_set_is_the_measured_columns() {
        let set = ProfileScenario::default_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].name(), "netperf-kvm-arm");
        assert_eq!(set[3].name(), "netperf-xen-x86");
    }

    #[test]
    fn profile_is_conservation_clean_and_non_empty() {
        for sc in ProfileScenario::default_set() {
            let r = run_profile(sc).unwrap();
            assert_eq!(
                r.snapshot.accounted_cycles(),
                r.snapshot.total_cycles,
                "{} leaks cycles",
                r.scenario
            );
            assert!(r.snapshot.total_cycles > 0, "{} did no work", r.scenario);
            let attributed: u64 = r.snapshot.spans.iter().map(|s| s.exclusive_cycles).sum();
            assert!(attributed > 0, "{} attributed nothing", r.scenario);
            assert!(!r.folded.is_empty());
            let rendered = r.render();
            assert!(rendered.contains("conservation exact"));
        }
    }

    #[test]
    fn zero_jobs_is_an_error_not_a_panic() {
        let set = ProfileScenario::default_set();
        assert!(matches!(
            run_profiles(&set, 0),
            Err(Error::InvalidJobs { jobs: 0 })
        ));
    }

    #[test]
    fn parallel_profiles_match_serial_byte_for_byte() {
        let set = ProfileScenario::default_set();
        let serial = run_profiles(&set, 1).unwrap();
        let parallel = run_profiles(&set, 4).unwrap();
        assert_eq!(render_profiles(&serial), render_profiles(&parallel));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.folded, p.folded, "{} folded diverged", s.scenario);
        }
    }

    #[test]
    fn fault_plan_shows_recovery_spans_and_conserves() {
        use hvx_engine::FaultPoint;
        let plan = FaultPlan::new(11)
            .with_rate(FaultPoint::WireDrop, 0.2)
            .with_rate(FaultPoint::GrantCopyFail, 0.2);
        let set = ProfileScenario::default_set();
        let reports = run_profiles_with(&set, 2, Some(&plan)).unwrap();
        for r in &reports {
            // The conservation check inside run_profile already passed;
            // double-check through the snapshot arithmetic.
            assert_eq!(r.snapshot.accounted_cycles(), r.snapshot.total_cycles);
        }
        let any_retransmit = reports.iter().any(|r| {
            r.snapshot
                .spans
                .iter()
                .any(|s| s.transition == "tcp_retransmit" && s.exclusive_cycles > 0)
        });
        assert!(any_retransmit, "wire loss must surface as retransmit spans");
        let xen = &reports[1];
        assert!(
            xen.snapshot
                .spans
                .iter()
                .any(|s| s.transition == "grant_retry" && s.exclusive_cycles > 0),
            "grant-copy failures must surface as retry spans on Xen"
        );
        // Fault counters folded into the metrics registry.
        assert!(reports.iter().any(|r| r
            .snapshot
            .counters
            .iter()
            .any(|c| c.name.starts_with("fault."))));
    }

    #[test]
    fn no_plan_is_byte_identical_to_plain_profiles() {
        let set = ProfileScenario::default_set();
        let plain = run_profiles(&set, 1).unwrap();
        let with_none = run_profiles_with(&set, 1, None).unwrap();
        assert_eq!(render_profiles(&plain), render_profiles(&with_none));
    }
}
