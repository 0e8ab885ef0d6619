//! Virtual CPUs: the schedulable entities a hypervisor multiplexes
//! onto physical CPUs.
//!
//! A [`VCpu`] is bookkeeping, not a thread: the consolidation simulator
//! owns the event loop and uses this struct to track each vCPU's run
//! state, its pinning, and the accounting the paper's consolidation
//! story needs — **steal time** (cycles spent runnable but not running,
//! because the pCPU was given to another vCPU) and preemption/wake
//! counts. Steal is an observation, never a charge: the cycles a vCPU
//! steals from another are already on the pCPU's clock, so span
//! conservation stays exact.

/// Run state of a virtual CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcpuState {
    /// On a physical CPU, executing.
    Running,
    /// Ready to run, waiting for the scheduler (steal time accrues).
    Runnable,
    /// In WFI / waiting for an event; invisible to the scheduler.
    Blocked,
}

/// One virtual CPU of a guest VM.
///
/// # Examples
///
/// ```
/// use hvx_core::vcpu::{VCpu, VcpuState};
///
/// let mut v = VCpu::new(0, 1);   // vCPU 0 of its VM, pinned to pCPU 1
/// assert_eq!(v.state(), VcpuState::Blocked);
/// v.wake(1_000);                 // runnable at t=1000
/// v.schedule_in(1_500);          // dispatched at t=1500
/// assert_eq!(v.steal_cycles(), 500);
/// v.preempt(2_000);
/// v.schedule_in(2_200);
/// v.block(2_300);
/// assert_eq!(v.steal_cycles(), 700);
/// assert_eq!(v.ran_cycles(), 600);
/// ```
#[derive(Debug, Clone)]
pub struct VCpu {
    /// Index of this vCPU within its VM.
    pub id: usize,
    /// Physical CPU this vCPU is pinned to.
    pub pcpu: usize,
    state: VcpuState,
    /// When the vCPU last became runnable (valid while `Runnable`).
    runnable_since: u64,
    /// When the vCPU was last dispatched (valid while `Running`).
    running_since: u64,
    steal: u64,
    ran: u64,
    wakes: u64,
    preemptions: u64,
}

impl VCpu {
    /// A new vCPU, blocked (guests start parked in WFI until kicked).
    pub fn new(id: usize, pcpu: usize) -> Self {
        VCpu {
            id,
            pcpu,
            state: VcpuState::Blocked,
            runnable_since: 0,
            running_since: 0,
            steal: 0,
            ran: 0,
            wakes: 0,
            preemptions: 0,
        }
    }

    /// Current run state.
    pub fn state(&self) -> VcpuState {
        self.state
    }

    /// Marks the vCPU runnable at time `now` (an event arrived). No-op
    /// unless it was blocked.
    #[inline]
    pub fn wake(&mut self, now: u64) {
        if self.state == VcpuState::Blocked {
            self.state = VcpuState::Runnable;
            self.runnable_since = now;
            self.wakes += 1;
        }
    }

    /// Dispatches the vCPU at time `now`; the runnable→running gap is
    /// charged to steal.
    ///
    /// # Panics
    ///
    /// Panics if the vCPU is not runnable — dispatching a blocked or
    /// already-running vCPU is a scheduler bug.
    #[inline]
    pub fn schedule_in(&mut self, now: u64) {
        assert_eq!(
            self.state,
            VcpuState::Runnable,
            "vcpu {} dispatched while {:?}",
            self.id,
            self.state
        );
        self.steal += now.saturating_sub(self.runnable_since);
        self.state = VcpuState::Running;
        self.running_since = now;
    }

    /// The scheduler takes the pCPU away at time `now`; the vCPU stays
    /// runnable and starts accruing steal again.
    #[inline]
    pub fn preempt(&mut self, now: u64) {
        assert_eq!(self.state, VcpuState::Running);
        self.ran += now.saturating_sub(self.running_since);
        self.state = VcpuState::Runnable;
        self.runnable_since = now;
        self.preemptions += 1;
    }

    /// The vCPU executes WFI (or completes its work) at time `now`.
    #[inline]
    pub fn block(&mut self, now: u64) {
        if self.state == VcpuState::Running {
            self.ran += now.saturating_sub(self.running_since);
        }
        self.state = VcpuState::Blocked;
    }

    /// Total cycles spent runnable-but-not-running.
    pub fn steal_cycles(&self) -> u64 {
        self.steal
    }

    /// Total cycles spent running.
    pub fn ran_cycles(&self) -> u64 {
        self.ran
    }

    /// Blocked→runnable transitions.
    pub fn wake_count(&self) -> u64 {
        self.wakes
    }

    /// Involuntary deschedules (timeslice expiry or boost preemption).
    pub fn preemption_count(&self) -> u64 {
        self.preemptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_accrues_only_while_runnable() {
        let mut v = VCpu::new(1, 0);
        v.wake(100);
        v.schedule_in(100); // immediate dispatch: no steal
        assert_eq!(v.steal_cycles(), 0);
        v.preempt(500);
        v.schedule_in(900); // 400 stolen
        v.block(1_000);
        assert_eq!(v.steal_cycles(), 400);
        assert_eq!(v.ran_cycles(), 500);
        assert_eq!(v.preemption_count(), 1);
        assert_eq!(v.wake_count(), 1);
    }

    #[test]
    fn duplicate_wakes_coalesce() {
        let mut v = VCpu::new(0, 0);
        v.wake(10);
        v.wake(20); // already runnable: keeps the earlier mark
        v.schedule_in(30);
        assert_eq!(v.steal_cycles(), 20);
        assert_eq!(v.wake_count(), 1);
    }

    #[test]
    #[should_panic(expected = "dispatched while")]
    fn dispatching_a_blocked_vcpu_panics() {
        VCpu::new(0, 0).schedule_in(5);
    }
}
