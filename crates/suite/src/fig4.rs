//! Figure 4: normalized application performance for all four measured
//! configurations.

use crate::paper::{self, TargetSource};
use crate::workloads::{self, Mix, Workload};
use hvx_core::{CostModel, Error, HvKind, Platform, SimBuilder, VirqPolicy};
use serde::{Deserialize, Serialize};

/// One reproduced Figure 4 bar.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bar {
    /// Configuration.
    pub hv: HvKind,
    /// Measured normalized overhead (1.0 = native; `None` when the
    /// configuration cannot run the workload, mirroring the paper's
    /// missing Apache/Xen-x86 bar).
    pub measured: Option<f64>,
    /// Paper target and its provenance.
    pub paper: (f64, TargetSource),
}

/// One bar group (a workload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BarGroup {
    /// The workload.
    pub workload: Workload,
    /// The four bars in column order.
    pub bars: Vec<Bar>,
}

/// The reproduced figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4 {
    /// One group per workload.
    pub groups: Vec<BarGroup>,
}

/// The Figure 4 normalized overhead of `mix` on the configuration `hv`
/// builds, against native on the same platform (native x86 costs for
/// an x86 configuration, native ARM otherwise). Figure 4's bars and
/// every ablation measure through here.
///
/// # Errors
///
/// Propagates configuration and workload failures.
pub fn overhead(hv: SimBuilder, mix: Mix, policy: VirqPolicy) -> Result<f64, Error> {
    let native = SimBuilder::new(HvKind::Native);
    let native = match hv.spec().hypervisor.platform() {
        Platform::X86 => native.cost_model(CostModel::x86()),
        Platform::Arm | Platform::ArmVhe => native,
    };
    workloads::overhead(
        hv.build()?.as_dyn_mut(),
        native.build()?.as_dyn_mut(),
        mix,
        policy,
    )
}

/// Whether the paper has a bar for `workload` (its catalog name) on
/// `kind`: every combination runs except Apache on Xen x86, whose Dom0
/// kernel panicked (§V).
pub(crate) fn runs(workload: &str, kind: HvKind) -> bool {
    !(workload == "Apache" && kind == HvKind::XenX86)
}

/// Measures one workload on one configuration (against its platform's
/// native baseline). Returns `Ok(None)` for the paper's unrunnable
/// combination (Apache on Xen x86 — Dom0 kernel panic, §V).
///
/// # Errors
///
/// Propagates configuration and workload failures so the hardened
/// runner can degrade the cell instead of unwinding.
pub fn measure_bar(
    workload: &Workload,
    kind: HvKind,
    policy: VirqPolicy,
) -> Result<Option<f64>, Error> {
    if !runs(workload.name, kind) {
        return Ok(None);
    }
    overhead(SimBuilder::new(kind), workload.mix, policy).map(Some)
}

impl Figure4 {
    /// Reproduces the full figure (36 bars, one missing).
    ///
    /// # Errors
    ///
    /// Propagates the first cell failure.
    pub fn measure() -> Result<Figure4, Error> {
        let cat = workloads::catalog();
        let mut cells = Vec::with_capacity(cat.len() * paper::COLUMNS.len());
        for w in &cat {
            for kind in paper::COLUMNS {
                cells.push(measure_bar(w, kind, VirqPolicy::Vcpu0)?);
            }
        }
        Ok(Figure4::from_cells(&cells))
    }

    /// Assembles the figure from pre-measured cells in workload-major,
    /// column-minor order (9 workloads × 4 columns). This is the single
    /// assembly path shared by [`Figure4::measure`] and the parallel
    /// scenario runner, so a parallel run is byte-identical to a serial
    /// one by construction.
    ///
    /// # Panics
    ///
    /// Panics unless exactly 36 cells are supplied.
    pub fn from_cells(cells: &[Option<f64>]) -> Figure4 {
        let cat = workloads::catalog();
        assert_eq!(
            cells.len(),
            cat.len() * paper::COLUMNS.len(),
            "need one cell per (workload, column)"
        );
        let mut groups = Vec::new();
        for (wi, w) in cat.iter().enumerate() {
            let targets = paper::FIG4[wi];
            debug_assert_eq!(targets.workload, w.name);
            let mut bars = Vec::new();
            for (ci, kind) in paper::COLUMNS.into_iter().enumerate() {
                bars.push(Bar {
                    hv: kind,
                    measured: cells[wi * paper::COLUMNS.len() + ci],
                    paper: targets.bars[ci],
                });
            }
            groups.push(BarGroup { workload: *w, bars });
        }
        Figure4 { groups }
    }

    /// Renders the figure as a table plus ASCII bars.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14}{:>22}{:>22}{:>22}{:>22}\n",
            "Workload", "KVM ARM", "Xen ARM", "KVM x86", "Xen x86"
        ));
        out.push_str(&format!(
            "{:<14}{:>22}{:>22}{:>22}{:>22}\n",
            "", "meas (paper)", "meas (paper)", "meas (paper)", "meas (paper)"
        ));
        out.push_str(&"-".repeat(14 + 4 * 22));
        out.push('\n');
        for g in &self.groups {
            out.push_str(&format!("{:<14}", g.workload.name));
            for b in &g.bars {
                let cell = match (b.measured, b.paper.1) {
                    (None, _) | (_, TargetSource::Unavailable) => "n/a (n/a)".to_string(),
                    (Some(m), src) => {
                        let tag = if src == TargetSource::Estimated {
                            "est."
                        } else {
                            ""
                        };
                        format!("{m:.2} ({:.2}{tag})", b.paper.0)
                    }
                };
                out.push_str(&format!("{cell:>22}"));
            }
            out.push('\n');
        }
        out.push('\n');
        out.push_str("Normalized overhead, 1.0 = native (lower is better):\n");
        for g in &self.groups {
            out.push_str(&format!("{}\n", g.workload.name));
            for b in &g.bars {
                match b.measured {
                    Some(m) => {
                        let len = (m * 20.0).round() as usize;
                        out.push_str(&format!(
                            "  {:<9} {:5.2} |{}\n",
                            b.hv.to_string(),
                            m,
                            "#".repeat(len.min(100))
                        ));
                    }
                    None => out.push_str(&format!("  {:<9}   n/a |\n", b.hv.to_string())),
                }
            }
        }
        out
    }

    /// Worst absolute deviation from a verbatim (non-estimated) paper
    /// target.
    pub fn worst_verbatim_error(&self) -> f64 {
        self.groups
            .iter()
            .flat_map(|g| g.bars.iter())
            .filter(|b| b.paper.1 == TargetSource::Verbatim)
            .filter_map(|b| b.measured.map(|m| (m - b.paper.0).abs()))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apache_xen_x86_is_unavailable_like_the_paper() {
        let w = workloads::catalog()
            .into_iter()
            .find(|w| w.name == "Apache")
            .unwrap();
        assert!(measure_bar(&w, HvKind::XenX86, VirqPolicy::Vcpu0)
            .unwrap()
            .is_none());
        assert!(measure_bar(&w, HvKind::KvmX86, VirqPolicy::Vcpu0)
            .unwrap()
            .is_some());
    }

    #[test]
    fn verbatim_targets_reproduce_within_tolerance() {
        let fig = Figure4::measure().unwrap();
        for g in &fig.groups {
            for b in &g.bars {
                let (target, src) = b.paper;
                let Some(m) = b.measured else { continue };
                match src {
                    TargetSource::Verbatim => assert!(
                        (m - target).abs() <= 0.35,
                        "{} {}: measured {m:.2} vs verbatim {target:.2}",
                        g.workload.name,
                        b.hv
                    ),
                    TargetSource::Estimated => assert!(
                        (m - target).abs() <= 0.45,
                        "{} {}: measured {m:.2} vs estimated {target:.2}",
                        g.workload.name,
                        b.hv
                    ),
                    TargetSource::Unavailable => {}
                }
            }
        }
        assert!(fig.worst_verbatim_error() <= 0.35);
    }

    #[test]
    fn who_wins_matches_the_paper_everywhere() {
        // The headline shape claims of §V, checked bar by bar.
        let fig = Figure4::measure().unwrap();
        let get = |w: &str, hv: HvKind| {
            fig.groups
                .iter()
                .find(|g| g.workload.name == w)
                .and_then(|g| g.bars.iter().find(|b| b.hv == hv))
                .and_then(|b| b.measured)
                .unwrap()
        };
        // KVM ARM meets or exceeds Xen ARM on every I/O workload.
        for w in [
            "TCP_RR",
            "TCP_STREAM",
            "TCP_MAERTS",
            "Apache",
            "Memcached",
            "MySQL",
        ] {
            assert!(
                get(w, HvKind::KvmArm) < get(w, HvKind::XenArm),
                "{w}: KVM ARM should beat Xen ARM"
            );
        }
        // Xen wins (slightly) on Hackbench thanks to fast virtual IPIs.
        assert!(get("Hackbench", HvKind::XenArm) < get("Hackbench", HvKind::KvmArm));
        // ARM hypervisors achieve similar or lower overhead than x86
        // counterparts on CPU-bound work (within a few points).
        assert!(get("Kernbench", HvKind::KvmArm) < get("Kernbench", HvKind::KvmX86) + 0.06);
        // Xen's STREAM overhead is architecture-independent (the I/O
        // model, not the hardware, is the cause).
        assert!(
            (get("TCP_STREAM", HvKind::XenArm) - get("TCP_STREAM", HvKind::XenX86)).abs() < 0.4
        );
    }

    #[test]
    fn render_has_all_nine_groups() {
        // Use a reduced measure for speed: rendering path only.
        let fig = Figure4::measure().unwrap();
        let s = fig.render();
        for name in ["Kernbench", "TCP_STREAM", "MySQL"] {
            assert!(s.contains(name));
        }
        assert_eq!(fig.groups.len(), 9);
    }
}
