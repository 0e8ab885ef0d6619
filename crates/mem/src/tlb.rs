//! TLB maintenance models: broadcast invalidation vs. IPI shootdown.
//!
//! The paper's zero-copy discussion (§V) turns on this difference:
//! supporting zero-copy on Xen "requires signaling all physical CPUs to
//! locally invalidate TLBs when removing grant table entries for shared
//! pages, which proved more expensive than simply copying the data" — on
//! x86, where invalidation is software-driven via IPIs. ARM "has hardware
//! support for broadcast TLB invalidate requests across multiple PCPUs",
//! which the paper flags as the open question for Xen ARM zero-copy; the
//! zero-copy ablation bench explores exactly that trade.

/// How a multi-core TLB invalidation is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ShootdownMethod {
    /// ARM `TLBI ...IS` — a single broadcast instruction invalidates the
    /// inner-shareable domain; remote cores need not be interrupted.
    BroadcastTlbi,
    /// x86 — the initiating core IPIs every other core, each runs an
    /// `invlpg` handler and acknowledges.
    IpiFlush,
}

/// The work plan for one shootdown, in units the cost model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownPlan {
    /// Method used.
    pub method: ShootdownMethod,
    /// IPIs that must be sent (0 for broadcast).
    pub ipis: u32,
    /// Remote flush handlers that must run (0 for broadcast).
    pub remote_handlers: u32,
    /// Local invalidate operations (always ≥ 1).
    pub local_invalidates: u32,
}

/// The machine-wide TLB shootdown policy of `num_cores` cores: what
/// invalidating one page everywhere costs in IPIs, remote handlers and
/// local invalidates.
///
/// # Examples
///
/// ```
/// use hvx_mem::{ShootdownMethod, TlbModel};
///
/// let mut tlb = TlbModel::new(4, ShootdownMethod::IpiFlush);
/// let plan = tlb.shootdown();
/// assert_eq!(plan.ipis, 3, "x86 interrupts every other core");
/// ```
#[derive(Debug, Clone)]
pub struct TlbModel {
    num_cores: u32,
    method: ShootdownMethod,
    shootdowns: u64,
}

impl TlbModel {
    /// Creates the policy for `num_cores` cores.
    pub fn new(num_cores: u32, method: ShootdownMethod) -> Self {
        TlbModel {
            num_cores,
            method,
            shootdowns: 0,
        }
    }

    /// The configured shootdown method.
    pub fn method(&self) -> ShootdownMethod {
        self.method
    }

    /// Invalidates one page on every core. Returns the work plan whose
    /// components the cost model prices.
    pub fn shootdown(&mut self) -> ShootdownPlan {
        let others = self.num_cores - 1;
        self.shootdowns += 1;
        match self.method {
            ShootdownMethod::BroadcastTlbi => ShootdownPlan {
                method: self.method,
                ipis: 0,
                remote_handlers: 0,
                local_invalidates: 1,
            },
            ShootdownMethod::IpiFlush => ShootdownPlan {
                method: self.method,
                ipis: others,
                remote_handlers: others,
                local_invalidates: 1,
            },
        }
    }

    /// Cumulative shootdowns performed.
    pub fn shootdown_count(&self) -> u64 {
        self.shootdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_plan_needs_no_ipis() {
        let mut t = TlbModel::new(8, ShootdownMethod::BroadcastTlbi);
        let plan = t.shootdown();
        assert_eq!(plan.ipis, 0);
        assert_eq!(plan.remote_handlers, 0);
        assert_eq!(plan.local_invalidates, 1);
    }

    #[test]
    fn ipi_plan_scales_with_core_count() {
        let mut t = TlbModel::new(8, ShootdownMethod::IpiFlush);
        let plan = t.shootdown();
        assert_eq!(plan.ipis, 7);
        assert_eq!(plan.remote_handlers, 7);
        let mut t2 = TlbModel::new(2, ShootdownMethod::IpiFlush);
        assert_eq!(t2.shootdown().ipis, 1);
    }

    #[test]
    fn shootdown_counter_accumulates() {
        let mut t = TlbModel::new(2, ShootdownMethod::IpiFlush);
        t.shootdown();
        t.shootdown();
        assert_eq!(t.shootdown_count(), 2);
    }
}
