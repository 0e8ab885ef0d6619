//! Table III: the KVM ARM hypercall save/restore breakdown.
//!
//! The paper instruments KVM ARM's world switch to attribute the
//! hypercall cost to register classes; hvx regenerates the table from
//! the transition trace — each `save:*` / `restore:*` step the world
//! switch charged during one hypercall, read by the labels of
//! [`hvx_core::RegClass`], the class table the ARM models charge from.

use crate::paper;
use hvx_core::{Error, HvKind, RegClass, SimBuilder};
use serde::{Deserialize, Serialize};

/// One row of the reproduced Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Register class as printed in the paper.
    pub class: &'static str,
    /// Measured save cycles.
    pub save: u64,
    /// Measured restore cycles.
    pub restore: u64,
    /// Paper's save cycles.
    pub paper_save: u64,
    /// Paper's restore cycles.
    pub paper_restore: u64,
}

/// The reproduced Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per register class.
    pub rows: Vec<BreakdownRow>,
    /// Total hypercall cycles the breakdown was extracted from.
    pub hypercall_total: u64,
}

impl Table3 {
    /// Runs one traced hypercall on KVM ARM and decomposes it.
    ///
    /// # Errors
    ///
    /// Propagates configuration failures (e.g. a rejected cost
    /// perturbation) so the runner can degrade the artifact.
    pub fn measure() -> Result<Table3, Error> {
        let mut kvm = SimBuilder::new(HvKind::KvmArm).build()?;
        kvm.machine_mut().trace_mut().clear();
        let total = kvm.hypercall(0);
        let trace = kvm.machine().trace();
        let mut rows = Vec::new();
        for (class, (name, paper_save, paper_restore)) in
            RegClass::ALL.into_iter().zip(paper::TABLE3)
        {
            let (save_label, restore_label) = class.labels();
            rows.push(BreakdownRow {
                class: name,
                save: trace.total_by_label(save_label).as_u64(),
                restore: trace.total_by_label(restore_label).as_u64(),
                paper_save,
                paper_restore,
            });
        }
        Ok(Table3 {
            rows,
            hypercall_total: total.as_u64(),
        })
    }

    /// Sum of all save cells.
    pub fn total_save(&self) -> u64 {
        self.rows.iter().map(|r| r.save).sum()
    }

    /// Sum of all restore cells.
    pub fn total_restore(&self) -> u64 {
        self.rows.iter().map(|r| r.restore).sum()
    }

    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26}{:>10}{:>10}{:>14}{:>14}\n",
            "Register State", "Save", "Restore", "(paper save)", "(paper rest.)"
        ));
        out.push_str(&"-".repeat(74));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{:<26}{:>10}{:>10}{:>14}{:>14}\n",
                r.class, r.save, r.restore, r.paper_save, r.paper_restore
            ));
        }
        out.push_str(&format!(
            "{:<26}{:>10}{:>10}   (hypercall total: {} cycles)\n",
            "Sum",
            self.total_save(),
            self.total_restore(),
            self.hypercall_total
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_is_paper_verbatim() {
        let t = Table3::measure().unwrap();
        for r in &t.rows {
            assert_eq!(r.save, r.paper_save, "{} save", r.class);
            assert_eq!(r.restore, r.paper_restore, "{} restore", r.class);
        }
    }

    #[test]
    fn context_switching_dominates_the_hypercall() {
        // §IV: "The cost of saving and restoring this state accounts for
        // almost all of the Hypercall time".
        let t = Table3::measure().unwrap();
        let switching = t.total_save() + t.total_restore();
        assert!(switching as f64 > 0.85 * t.hypercall_total as f64);
        assert_eq!(t.hypercall_total, 6_500);
    }

    #[test]
    fn saving_is_much_more_expensive_than_restoring() {
        // §IV: due to reading back the VGIC state.
        let t = Table3::measure().unwrap();
        assert!(t.total_save() > 2 * t.total_restore());
        let vgic = t.rows.iter().find(|r| r.class == "VGIC Regs").unwrap();
        assert!(vgic.save > 15 * vgic.restore);
    }

    #[test]
    fn render_is_complete() {
        let t = Table3::measure().unwrap();
        let s = t.render();
        assert!(s.contains("VGIC Regs"));
        assert!(s.contains("3250") || s.contains("3,250"));
        assert!(s.contains("Sum"));
    }
}
