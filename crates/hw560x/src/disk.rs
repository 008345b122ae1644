//! Disk power-state machine.
//!
//! The paper's hardware power management places the disk in standby after
//! 10 seconds of inactivity; leaving standby costs a spin-up delay (and
//! extra power) on the next access. With power management disabled the
//! disk spins (Idle) for the whole experiment — the single biggest lever
//! behind the "Hardware-Only Power Mgmt." bars for the streaming video
//! workload, whose disk "remains in standby mode for the entire duration".

use simcore::{Codec, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::calib::PlatformSpec;
use simcore::Watts;

/// Disk power state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DiskState {
    /// Servicing a request.
    Active = 0,
    /// Spinning, no request in flight.
    Idle = 1,
    /// Spun down.
    Standby = 2,
    /// Transitioning from Standby to Active.
    SpinningUp = 3,
}

impl DiskState {
    /// Power drawn in this state, W.
    #[inline]
    pub fn power_w(self, spec: &PlatformSpec) -> Watts {
        match self {
            DiskState::Active => spec.disk_active_w,
            DiskState::Idle => spec.disk_idle_w,
            DiskState::Standby => spec.disk_standby_w,
            DiskState::SpinningUp => spec.disk_spinup_w,
        }
    }
}

impl Codec for DiskState {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&(*self as u64));
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u64>()? {
            0 => DiskState::Active,
            1 => DiskState::Idle,
            2 => DiskState::Standby,
            3 => DiskState::SpinningUp,
            _ => return Err(SnapshotError::Corrupt("disk state tag")),
        })
    }
}

/// Disk state machine with an optional spin-down policy.
///
/// `spin_down_after: None` models disabled hardware power management: the
/// disk never leaves Idle except to service requests. With a policy set,
/// the disk *starts* in Standby — the machine was quiet before the
/// experiment began, matching the paper's observation that the disk
/// "remains in standby mode for the entire duration" of workloads that
/// never touch it.
#[derive(Clone, Debug)]
pub struct DiskModel {
    state: DiskState,
    spin_down_after: Option<SimDuration>,
    spinup_time: SimDuration,
    last_activity: SimTime,
    pending_reads: usize,
}

impl DiskModel {
    /// Creates a disk: idle (spinning) without a policy, standby with one.
    pub fn new(spin_down_after: Option<SimDuration>, spinup_time: SimDuration) -> Self {
        DiskModel {
            state: if spin_down_after.is_some() {
                DiskState::Standby
            } else {
                DiskState::Idle
            },
            spin_down_after,
            spinup_time,
            last_activity: SimTime::ZERO,
            pending_reads: 0,
        }
    }

    /// Current power state.
    #[inline]
    pub fn state(&self) -> DiskState {
        self.state
    }

    /// Encodes the disk's mutable state (the policy parameters are
    /// construction-time) into a snapshot payload.
    pub fn freeze_into(&self, w: &mut SnapshotWriter) {
        w.put(&self.state);
        w.put(&self.last_activity);
        w.put(&self.pending_reads);
    }

    /// Restores the mutable state written by [`Self::freeze_into`] onto
    /// this (freshly built) disk.
    pub fn thaw_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.state = r.take()?;
        self.last_activity = r.take()?;
        self.pending_reads = r.take()?;
        Ok(())
    }

    /// Begins a request; returns the delay before data transfer can start
    /// (non-zero when a spin-up from standby is needed).
    pub fn begin_access(&mut self, now: SimTime) -> SimDuration {
        self.pending_reads += 1;
        self.last_activity = now;
        match self.state {
            DiskState::Standby => {
                self.state = DiskState::SpinningUp;
                self.spinup_time
            }
            DiskState::SpinningUp => self.spinup_time,
            DiskState::Idle | DiskState::Active => {
                self.state = DiskState::Active;
                SimDuration::ZERO
            }
        }
    }

    /// Marks the end of a spin-up: the disk starts servicing the queued
    /// request(s).
    pub fn spinup_complete(&mut self, now: SimTime) {
        debug_assert_eq!(self.state, DiskState::SpinningUp);
        self.last_activity = now;
        self.state = if self.pending_reads > 0 {
            DiskState::Active
        } else {
            DiskState::Idle
        };
    }

    /// Completes one request.
    ///
    /// # Panics
    ///
    /// Panics if no request is outstanding.
    pub fn end_access(&mut self, now: SimTime) {
        assert!(self.pending_reads > 0, "end_access without begin_access");
        self.pending_reads -= 1;
        self.last_activity = now;
        if self.pending_reads == 0 && self.state == DiskState::Active {
            self.state = DiskState::Idle;
        }
    }

    /// When the spin-down timer will fire, if a spin-down is pending.
    ///
    /// The caller (the machine) schedules an event at this instant and then
    /// calls [`DiskModel::try_spin_down`]; if activity intervened, the call
    /// is a no-op and a new deadline is exposed.
    #[inline]
    pub fn spin_down_deadline(&self) -> Option<SimTime> {
        match (self.state, self.spin_down_after) {
            (DiskState::Idle, Some(after)) => Some(self.last_activity + after),
            _ => None,
        }
    }

    /// Spins down if the disk has been idle for the policy duration.
    /// Returns `true` if the state changed.
    pub fn try_spin_down(&mut self, now: SimTime) -> bool {
        if let (DiskState::Idle, Some(after)) = (self.state, self.spin_down_after) {
            if now.saturating_since(self.last_activity) >= after {
                self.state = DiskState::Standby;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm_disk() -> DiskModel {
        DiskModel::new(
            Some(SimDuration::from_secs(10)),
            SimDuration::from_millis(1500),
        )
    }

    #[test]
    fn pm_disk_starts_in_standby() {
        assert_eq!(pm_disk().state(), DiskState::Standby);
        let no_pm = DiskModel::new(None, SimDuration::from_millis(1500));
        assert_eq!(no_pm.state(), DiskState::Idle);
    }

    #[test]
    fn access_from_idle_is_instant() {
        let mut d = DiskModel::new(None, SimDuration::from_millis(1500));
        assert_eq!(d.begin_access(SimTime::from_secs(1)), SimDuration::ZERO);
        assert_eq!(d.state(), DiskState::Active);
        d.end_access(SimTime::from_secs(2));
        assert_eq!(d.state(), DiskState::Idle);
    }

    fn spun_up_pm_disk() -> DiskModel {
        let mut d = pm_disk();
        d.begin_access(SimTime::ZERO);
        d.spinup_complete(SimTime::ZERO);
        d
    }

    #[test]
    fn spin_down_after_timeout() {
        let mut d = spun_up_pm_disk();
        d.end_access(SimTime::from_secs(1));
        let deadline = d.spin_down_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_secs(11));
        assert!(!d.try_spin_down(SimTime::from_secs(5)), "too early");
        assert!(d.try_spin_down(deadline));
        assert_eq!(d.state(), DiskState::Standby);
    }

    #[test]
    fn access_from_standby_requires_spinup() {
        let mut d = pm_disk();
        let delay = d.begin_access(SimTime::from_secs(20));
        assert_eq!(delay, SimDuration::from_millis(1500));
        assert_eq!(d.state(), DiskState::SpinningUp);
        d.spinup_complete(SimTime::from_secs(22));
        assert_eq!(d.state(), DiskState::Active);
        d.end_access(SimTime::from_secs(23));
        assert_eq!(d.state(), DiskState::Idle);
    }

    #[test]
    fn no_policy_never_spins_down() {
        let mut d = DiskModel::new(None, SimDuration::from_millis(1500));
        d.begin_access(SimTime::from_secs(0));
        d.end_access(SimTime::from_secs(0));
        assert_eq!(d.spin_down_deadline(), None);
        assert!(!d.try_spin_down(SimTime::from_secs(1_000)));
        assert_eq!(d.state(), DiskState::Idle);
    }

    #[test]
    fn intervening_activity_resets_deadline() {
        let mut d = spun_up_pm_disk();
        d.end_access(SimTime::from_secs(1));
        // The machine scheduled a spin-down for t=11, but a new access at
        // t=5 must invalidate it.
        d.begin_access(SimTime::from_secs(5));
        d.end_access(SimTime::from_secs(6));
        assert!(!d.try_spin_down(SimTime::from_secs(11)));
        assert_eq!(d.spin_down_deadline(), Some(SimTime::from_secs(16)));
        assert!(d.try_spin_down(SimTime::from_secs(16)));
    }

    #[test]
    fn overlapping_accesses_stay_active() {
        let mut d = spun_up_pm_disk(); // one access already outstanding
        d.begin_access(SimTime::from_secs(0));
        d.end_access(SimTime::from_secs(1));
        assert_eq!(d.state(), DiskState::Active, "one access still pending");
        d.end_access(SimTime::from_secs(2));
        assert_eq!(d.state(), DiskState::Idle);
    }

    #[test]
    fn power_levels_ordered() {
        let spec = PlatformSpec::default();
        assert!(DiskState::Standby.power_w(&spec) < DiskState::Idle.power_w(&spec));
        assert!(DiskState::Idle.power_w(&spec) < DiskState::Active.power_w(&spec));
        assert!(DiskState::Active.power_w(&spec) <= DiskState::SpinningUp.power_w(&spec));
    }

    #[test]
    #[should_panic(expected = "without begin_access")]
    fn unbalanced_end_access_panics() {
        let mut d = pm_disk();
        d.end_access(SimTime::ZERO);
    }
}
