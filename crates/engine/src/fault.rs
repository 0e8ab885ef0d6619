//! Deterministic fault injection and run watchdogs.
//!
//! The paper's I/O numbers are explained by each hypervisor's I/O
//! *path*; this module lets the models exercise those same paths under
//! stress. A [`FaultPlan`] names the places where real hardware and
//! real backends misbehave — a dropped wire packet, a stalled NIC, a
//! lost virtual interrupt, a transient grant-copy failure, a tardy
//! vhost thread — and decides, deterministically, which occurrences of
//! each fault point actually fire.
//!
//! # Determinism rule
//!
//! A fault decision is a pure function of `(seed, fault point,
//! occurrence index)`. Every machine keeps its own per-point
//! occurrence counters, so the decision sequence depends only on the
//! order of consults *within one simulated machine* — never on wall
//! clock, thread scheduling, or `--jobs`. The same plan and seed
//! therefore replay bit-identically, serial or parallel.
//!
//! An **empty plan is free**: [`Machine`](crate::Machine) holds
//! `None` fault state and every consult is a single branch, so the
//! default simulation is byte-identical to a build without this module.
//!
//! # Watchdogs
//!
//! [`Watchdog`] bounds a simulation from the inside: a simulated-cycle
//! budget and a no-progress (livelock) detector, both enforced in
//! [`Machine::charge`](crate::Machine::charge). Trips raise typed
//! panic payloads ([`CycleBudgetExceeded`], [`Livelocked`]) that a
//! harness can downcast after `catch_unwind` to classify the failure.

use std::cell::RefCell;
use std::fmt;

/// Parts-per-million denominator for probabilistic fault rates.
const PPM: u64 = 1_000_000;

/// A named place in the simulated I/O stack where a fault may be
/// injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultPoint {
    /// A packet vanishes on the wire between client and NIC.
    WireDrop,
    /// A packet arrives corrupted and must be retransmitted end-to-end.
    WireCorrupt,
    /// The NIC stalls before DMA completes; the driver re-kicks.
    NicStall,
    /// A virtual interrupt is dropped before the guest observes it.
    VirqDrop,
    /// A spurious virtual interrupt fires with no work pending.
    VirqSpurious,
    /// A grant copy fails transiently (Xen netback) and is retried.
    GrantCopyFail,
    /// The vhost backend thread is delayed before servicing a kick.
    VhostDelay,
}

impl FaultPoint {
    /// Every fault point, in declaration order.
    pub const ALL: [FaultPoint; 7] = [
        FaultPoint::WireDrop,
        FaultPoint::WireCorrupt,
        FaultPoint::NicStall,
        FaultPoint::VirqDrop,
        FaultPoint::VirqSpurious,
        FaultPoint::GrantCopyFail,
        FaultPoint::VhostDelay,
    ];

    /// Number of fault points.
    pub const COUNT: usize = FaultPoint::ALL.len();

    /// Stable snake_case name (used in plan specs and metrics).
    pub const fn name(self) -> &'static str {
        match self {
            FaultPoint::WireDrop => "wire_drop",
            FaultPoint::WireCorrupt => "wire_corrupt",
            FaultPoint::NicStall => "nic_stall",
            FaultPoint::VirqDrop => "virq_drop",
            FaultPoint::VirqSpurious => "virq_spurious",
            FaultPoint::GrantCopyFail => "grant_copy_fail",
            FaultPoint::VhostDelay => "vhost_delay",
        }
    }

    /// Metrics-registry counter name for injections at this point.
    pub const fn metric(self) -> &'static str {
        match self {
            FaultPoint::WireDrop => "fault.wire_drop",
            FaultPoint::WireCorrupt => "fault.wire_corrupt",
            FaultPoint::NicStall => "fault.nic_stall",
            FaultPoint::VirqDrop => "fault.virq_drop",
            FaultPoint::VirqSpurious => "fault.virq_spurious",
            FaultPoint::GrantCopyFail => "fault.grant_copy_fail",
            FaultPoint::VhostDelay => "fault.vhost_delay",
        }
    }

    /// Dense index (`self as usize`).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Parses a spec name back to a point.
    pub fn parse(s: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded, deterministic fault plan: per-point probabilistic rates
/// (parts-per-million) and/or explicit occurrence schedules.
///
/// # Examples
///
/// ```
/// use hvx_engine::fault::{FaultPlan, FaultPoint};
///
/// // 5% wire loss plus a forced vIRQ drop on occurrence 3.
/// let plan = FaultPlan::new(42)
///     .with_rate(FaultPoint::WireDrop, 0.05)
///     .with_occurrence(FaultPoint::VirqDrop, 3);
/// assert!(!plan.is_empty());
/// // The same spec, parsed:
/// let parsed = FaultPlan::parse("wire_drop=0.05,virq_drop@3", 42).unwrap();
/// assert_eq!(plan, parsed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability each consult faults, in parts per million.
    rate_ppm: [u32; FaultPoint::COUNT],
    /// Sorted 0-based occurrence indices that always fault.
    schedule: [Vec<u64>; FaultPoint::COUNT],
}

impl FaultPlan {
    /// An empty plan under `seed`: no point ever faults.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rate_ppm: [0; FaultPoint::COUNT],
            schedule: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// The plan's seed.
    #[inline]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no rate and no schedule entry can ever fire. Empty
    /// plans cost nothing: the machine stores no fault state at all.
    pub fn is_empty(&self) -> bool {
        self.rate_ppm.iter().all(|&r| r == 0) && self.schedule.iter().all(|s| s.is_empty())
    }

    /// Sets the probabilistic fault rate for `point` (clamped to
    /// `[0, 1]`, quantized to parts per million).
    pub fn with_rate(mut self, point: FaultPoint, probability: f64) -> Self {
        let p = probability.clamp(0.0, 1.0);
        self.rate_ppm[point.index()] = (p * PPM as f64).round() as u32;
        self
    }

    /// Forces a fault on the `occurrence`-th consult (0-based) of
    /// `point`, regardless of rate.
    pub fn with_occurrence(mut self, point: FaultPoint, occurrence: u64) -> Self {
        let sched = &mut self.schedule[point.index()];
        if let Err(at) = sched.binary_search(&occurrence) {
            sched.insert(at, occurrence);
        }
        self
    }

    /// The configured rate for `point`, in parts per million.
    pub fn rate_ppm(&self, point: FaultPoint) -> u32 {
        self.rate_ppm[point.index()]
    }

    /// Absorbs the plan's full identity — seed, per-point rates, and
    /// forced-occurrence schedules — into `h`. Part of the scenario
    /// input closure content-addressed by the suite's result cache.
    pub fn fingerprint_into(&self, h: &mut crate::fingerprint::FingerprintHasher) {
        h.write_str("fault_plan");
        h.write_u64(self.seed);
        for &rate in &self.rate_ppm {
            h.write_u32(rate);
        }
        for sched in &self.schedule {
            h.write_u64(sched.len() as u64);
            for &occ in sched {
                h.write_u64(occ);
            }
        }
    }

    /// Parses a plan spec: comma-separated `point=probability` (rate)
    /// and `point@occurrence` (forced, 0-based) clauses.
    ///
    /// `"wire_drop=0.05,nic_stall@5"` means 5% wire loss plus a forced
    /// NIC stall on the 6th stall-point consult.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some((name, prob)) = clause.split_once('=') {
                let point = FaultPoint::parse(name.trim())
                    .ok_or_else(|| format!("unknown fault point '{}'", name.trim()))?;
                let p: f64 = prob
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad probability '{}' for {point}", prob.trim()))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} for {point} outside [0, 1]"));
                }
                plan = plan.with_rate(point, p);
            } else if let Some((name, occ)) = clause.split_once('@') {
                let point = FaultPoint::parse(name.trim())
                    .ok_or_else(|| format!("unknown fault point '{}'", name.trim()))?;
                let n: u64 = occ
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad occurrence '{}' for {point}", occ.trim()))?;
                plan = plan.with_occurrence(point, n);
            } else {
                return Err(format!(
                    "bad fault clause '{clause}' (expected point=prob or point@occurrence)"
                ));
            }
        }
        Ok(plan)
    }

    /// Renders the plan back to [`FaultPlan::parse`] syntax.
    ///
    /// The round trip is exact: rates are stored as integer
    /// parts-per-million and rendered as `<ppm>e-6`, which
    /// [`FaultPlan::with_rate`] re-quantizes to the same integer, so
    /// `FaultPlan::parse(&plan.to_spec(), plan.seed()) == plan` for
    /// every plan. An empty plan renders as the empty string, which
    /// parses back to an empty plan.
    ///
    /// # Examples
    ///
    /// ```
    /// use hvx_engine::fault::{FaultPlan, FaultPoint};
    ///
    /// let plan = FaultPlan::new(9)
    ///     .with_rate(FaultPoint::WireDrop, 0.05)
    ///     .with_occurrence(FaultPoint::VirqDrop, 3);
    /// assert_eq!(plan.to_spec(), "wire_drop=50000e-6,virq_drop@3");
    /// assert_eq!(FaultPlan::parse(&plan.to_spec(), 9).unwrap(), plan);
    /// ```
    pub fn to_spec(&self) -> String {
        let mut clauses = Vec::new();
        for point in FaultPoint::ALL {
            let ppm = self.rate_ppm[point.index()];
            if ppm > 0 {
                clauses.push(format!("{point}={ppm}e-6"));
            }
            for &occ in &self.schedule[point.index()] {
                clauses.push(format!("{point}@{occ}"));
            }
        }
        clauses.join(",")
    }
}

/// Per-machine fault state: the plan plus occurrence counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    consulted: [u64; FaultPoint::COUNT],
    injected: [u64; FaultPoint::COUNT],
}

impl FaultState {
    /// Fresh state (all occurrence counters zero) for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            consulted: [0; FaultPoint::COUNT],
            injected: [0; FaultPoint::COUNT],
        }
    }

    /// The plan driving this state.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consults the plan at `point`: advances that point's occurrence
    /// counter and returns whether this occurrence faults. Pure in
    /// `(seed, point, occurrence)` — see the module's determinism rule.
    pub fn should_fault(&mut self, point: FaultPoint) -> bool {
        let i = point.index();
        let occurrence = self.consulted[i];
        self.consulted[i] += 1;
        let scheduled = self.plan.schedule[i].binary_search(&occurrence).is_ok();
        let rate = self.plan.rate_ppm[i];
        let rolled =
            rate > 0 && decision(self.plan.seed, point, occurrence) % PPM < u64::from(rate);
        let hit = scheduled || rolled;
        if hit {
            self.injected[i] += 1;
        }
        hit
    }

    /// Times `point` was consulted so far.
    pub fn consulted(&self, point: FaultPoint) -> u64 {
        self.consulted[point.index()]
    }

    /// Faults injected at `point` so far.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.injected[point.index()]
    }

    /// Total faults injected across all points.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// splitmix64 — the finalizer is a strong 64-bit mixer, used here as a
/// counter-based deterministic hash (no RNG state to share or lock).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The decision hash for one `(seed, point, occurrence)` triple.
fn decision(seed: u64, point: FaultPoint, occurrence: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0x5EED ^ (point.index() as u64) << 32 ^ splitmix64(occurrence)))
}

// --- watchdog -----------------------------------------------------------

/// In-simulation watchdog limits, enforced by
/// [`Machine::charge`](crate::Machine::charge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Watchdog {
    /// Trip once total charged cycles exceed this budget.
    pub cycle_budget: Option<u64>,
    /// Trip after this many *consecutive* charges that advance no
    /// core's clock (a spin with zero simulated progress).
    pub livelock_threshold: Option<u64>,
}

impl Watchdog {
    /// No limits: never trips.
    pub const UNLIMITED: Watchdog = Watchdog {
        cycle_budget: None,
        livelock_threshold: None,
    };

    /// Absorbs the watchdog limits into `h`. A tripped watchdog changes
    /// scenario outcomes, so the limits belong to the input closure.
    pub fn fingerprint_into(&self, h: &mut crate::fingerprint::FingerprintHasher) {
        h.write_str("watchdog");
        h.write_u64(self.cycle_budget.unwrap_or(u64::MAX));
        h.write_u64(self.livelock_threshold.unwrap_or(u64::MAX));
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::UNLIMITED
    }
}

/// Typed panic payload: the machine charged past its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBudgetExceeded {
    /// The configured budget.
    pub budget: u64,
    /// Total cycles charged when the watchdog tripped.
    pub reached: u64,
}

impl fmt::Display for CycleBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated-cycle budget exceeded: {} > {}",
            self.reached, self.budget
        )
    }
}

/// Typed panic payload: the machine made no simulated progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Livelocked {
    /// Consecutive zero-progress charges observed.
    pub streak: u64,
}

impl fmt::Display for Livelocked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "livelock: {} consecutive charges advanced no clock",
            self.streak
        )
    }
}

// --- ambient configuration ----------------------------------------------

/// The ambient (thread-local) fault configuration picked up by
/// [`Machine::new`](crate::Machine::new).
#[derive(Debug, Clone, Default)]
struct Ambient {
    plan: Option<FaultPlan>,
    watchdog: Watchdog,
}

thread_local! {
    static AMBIENT: RefCell<Ambient> = RefCell::new(Ambient::default());
}

/// Installs `plan` and `watchdog` as this thread's ambient fault
/// configuration; every machine subsequently constructed *on this
/// thread* starts with them. Returns a guard that restores the
/// previous configuration when dropped (including during unwinding, so
/// a panicking scenario cannot leak its plan into the next one).
///
/// This is how a harness applies one CLI-wide `--fault-plan` to
/// machines built deep inside scenario code without threading the plan
/// through every signature. An empty/`None` plan installs nothing.
pub fn install_ambient(plan: Option<FaultPlan>, watchdog: Watchdog) -> AmbientGuard {
    let plan = plan.filter(|p| !p.is_empty());
    let previous =
        AMBIENT.with(|a| std::mem::replace(&mut *a.borrow_mut(), Ambient { plan, watchdog }));
    AmbientGuard { previous }
}

/// Reads the current ambient configuration (machine construction).
pub(crate) fn ambient() -> (Option<FaultPlan>, Watchdog) {
    AMBIENT.with(|a| {
        let a = a.borrow();
        (a.plan.clone(), a.watchdog)
    })
}

/// RAII guard for [`install_ambient`]; restores the prior ambient
/// configuration on drop.
#[derive(Debug)]
pub struct AmbientGuard {
    previous: Ambient,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        AMBIENT.with(|a| *a.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let mut st = FaultState::new(FaultPlan::new(7));
        for _ in 0..10_000 {
            for p in FaultPoint::ALL {
                assert!(!st.should_fault(p));
            }
        }
        assert_eq!(st.total_injected(), 0);
    }

    #[test]
    fn full_rate_always_faults() {
        let plan = FaultPlan::new(1).with_rate(FaultPoint::WireDrop, 1.0);
        let mut st = FaultState::new(plan);
        for _ in 0..100 {
            assert!(st.should_fault(FaultPoint::WireDrop));
            assert!(!st.should_fault(FaultPoint::NicStall));
        }
        assert_eq!(st.injected(FaultPoint::WireDrop), 100);
    }

    #[test]
    fn schedule_fires_exactly_on_listed_occurrences() {
        let plan = FaultPlan::new(0)
            .with_occurrence(FaultPoint::VirqDrop, 0)
            .with_occurrence(FaultPoint::VirqDrop, 3);
        let mut st = FaultState::new(plan);
        let fired: Vec<bool> = (0..6)
            .map(|_| st.should_fault(FaultPoint::VirqDrop))
            .collect();
        assert_eq!(fired, [true, false, false, true, false, false]);
    }

    #[test]
    fn decisions_are_replayable_and_seed_sensitive() {
        let plan = FaultPlan::new(42).with_rate(FaultPoint::GrantCopyFail, 0.3);
        let run = |plan: &FaultPlan| -> Vec<bool> {
            let mut st = FaultState::new(plan.clone());
            (0..256)
                .map(|_| st.should_fault(FaultPoint::GrantCopyFail))
                .collect()
        };
        assert_eq!(run(&plan), run(&plan));
        let other = FaultPlan::new(43).with_rate(FaultPoint::GrantCopyFail, 0.3);
        assert_ne!(run(&plan), run(&other), "seed must matter");
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let plan = FaultPlan::new(9).with_rate(FaultPoint::WireDrop, 0.10);
        let mut st = FaultState::new(plan);
        let hits = (0..20_000)
            .filter(|_| st.should_fault(FaultPoint::WireDrop))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.07..=0.13).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn parse_round_trips_rates_and_schedules() {
        let plan = FaultPlan::parse(" wire_drop=0.05, nic_stall@5 ,vhost_delay=1", 11).unwrap();
        assert_eq!(plan.rate_ppm(FaultPoint::WireDrop), 50_000);
        assert_eq!(plan.rate_ppm(FaultPoint::VhostDelay), 1_000_000);
        assert_eq!(plan.schedule[FaultPoint::NicStall.index()], [5]);
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("bogus=0.5", 0).is_err());
        assert!(FaultPlan::parse("wire_drop=2.0", 0).is_err());
        assert!(FaultPlan::parse("wire_drop", 0).is_err());
        assert!(FaultPlan::parse("nic_stall@many", 0).is_err());
    }

    #[test]
    fn ambient_guard_restores_previous_config() {
        let plan = FaultPlan::new(5).with_rate(FaultPoint::WireDrop, 0.5);
        {
            let _g = install_ambient(Some(plan.clone()), Watchdog::UNLIMITED);
            assert_eq!(ambient().0.as_ref(), Some(&plan));
            {
                let inner = FaultPlan::new(6).with_rate(FaultPoint::NicStall, 0.1);
                let _g2 = install_ambient(Some(inner.clone()), Watchdog::UNLIMITED);
                assert_eq!(ambient().0.as_ref(), Some(&inner));
            }
            assert_eq!(ambient().0.as_ref(), Some(&plan));
        }
        assert_eq!(ambient().0, None);
    }

    #[test]
    fn empty_ambient_plan_installs_nothing() {
        let _g = install_ambient(Some(FaultPlan::new(3)), Watchdog::UNLIMITED);
        assert_eq!(ambient().0, None);
    }
}
