//! The workload (application) interface.
//!
//! A [`Workload`] is the machine-facing face of an application: a named
//! generator of [`Activity`] phases with a display requirement and an
//! adaptation interface. The four paper applications in the `odyssey-apps`
//! crate implement this trait; so do the tiny synthetic workloads used in
//! tests.

use std::collections::VecDeque;

use hw560x::DisplayState;
use simcore::{SimDuration, SimTime};

use crate::activity::{Activity, AdaptDirection, FidelityView, Step};

/// An application, as seen by the machine.
pub trait Workload {
    /// Process name for profiling and reports (e.g. `"xanim"`).
    fn name(&self) -> &'static str;

    /// Every other name this workload's activities can carry: each
    /// procedure, and each bucket a `CpuAs` books to. The machine adds
    /// them and [`Workload::name`] to its name table when the process is
    /// added. Booking a name missing from the table panics, and a
    /// snapshot naming one does not thaw.
    fn names(&self) -> Vec<&'static str>;

    /// Backlight level this application needs while alive. The effective
    /// display state is the maximum over alive workloads (under hardware
    /// power management; the baseline keeps the display bright).
    fn display_need(&self) -> DisplayState {
        DisplayState::Bright
    }

    /// Produces the next phase. Called when the previous phase completes.
    fn poll(&mut self, now: SimTime) -> Step;

    /// Current position on the fidelity scale.
    fn fidelity(&self) -> FidelityView {
        FidelityView::fixed()
    }

    /// Odyssey upcall: move one step in `dir`. Returns `true` if the
    /// fidelity changed (takes effect from the next phase the workload
    /// generates).
    fn on_upcall(&mut self, _dir: AdaptDirection, _now: SimTime) -> bool {
        false
    }

    /// Supervisor restart: the viceroy is reviving this workload after a
    /// crash or quarantine, recovering whatever state its warden held.
    /// Returns `true` if the workload can continue; the default (`false`)
    /// marks the workload as non-restartable.
    fn on_restart(&mut self, _now: SimTime) -> bool {
        false
    }

    /// Encodes the workload's mutable state into a snapshot payload.
    /// Workloads that don't implement the pair are simply not
    /// snapshot-restorable: [`Machine::freeze`](crate::Machine::freeze)
    /// surfaces the error and the caller falls back to replay-based
    /// resume.
    fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
        let _ = w;
        Err(simcore::SnapshotError::Unsupported(
            "workload does not implement freeze",
        ))
    }

    /// Restores the state written by [`Workload::freeze`] onto this
    /// freshly-rebuilt workload.
    fn thaw(&mut self, r: &mut simcore::SnapshotReader<'_>) -> Result<(), simcore::SnapshotError> {
        let _ = r;
        Err(simcore::SnapshotError::Unsupported(
            "workload does not implement thaw",
        ))
    }
}

/// A workload that runs a fixed list of activities then finishes.
///
/// Used throughout the test suites; exercises every activity type without
/// application logic.
///
/// # Examples
///
/// ```
/// use machine::workload::ScriptedWorkload;
/// use machine::{Activity, Step, Workload};
/// use simcore::{SimDuration, SimTime};
///
/// let mut w = ScriptedWorkload::new(
///     "test",
///     vec![Activity::Cpu {
///         duration: SimDuration::from_secs(1),
///         intensity: 1.0,
///         procedure: "work",
///     }],
/// );
/// assert!(matches!(w.poll(SimTime::ZERO), Step::Run(_)));
/// assert!(matches!(w.poll(SimTime::ZERO), Step::Done));
/// ```
pub struct ScriptedWorkload {
    name: &'static str,
    display: DisplayState,
    script: VecDeque<Activity>,
}

impl std::fmt::Debug for ScriptedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedWorkload")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ScriptedWorkload {
    /// Creates a workload that emits `script` in order, requiring a bright
    /// display.
    pub fn new(name: &'static str, script: Vec<Activity>) -> Self {
        ScriptedWorkload {
            name,
            display: DisplayState::Bright,
            script: script.into(),
        }
    }

    /// Sets the display requirement.
    pub fn with_display(mut self, display: DisplayState) -> Self {
        self.display = display;
        self
    }

    /// A workload that idles (waits) for `d` and finishes. Handy for
    /// measuring background power.
    pub fn idle_for(name: &'static str, d: SimDuration) -> Self {
        ScriptedWorkload::new(
            name,
            vec![Activity::Wait {
                until: SimTime::ZERO + d,
            }],
        )
    }
}

impl Workload for ScriptedWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for a in &self.script {
            match *a {
                Activity::CpuAs {
                    bucket, procedure, ..
                } => names.extend([bucket, procedure]),
                Activity::Cpu { procedure, .. }
                | Activity::Rpc { procedure, .. }
                | Activity::BulkFetch { procedure, .. }
                | Activity::DiskRead { procedure, .. } => names.push(procedure),
                Activity::XRender { .. } | Activity::Wait { .. } => {}
            }
        }
        names
    }

    fn display_need(&self) -> DisplayState {
        self.display
    }

    fn poll(&mut self, _now: SimTime) -> Step {
        match self.script.pop_front() {
            Some(a) => Step::Run(a),
            None => Step::Done,
        }
    }

    fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
        w.put(&self.script);
        Ok(())
    }

    fn thaw(&mut self, r: &mut simcore::SnapshotReader<'_>) -> Result<(), simcore::SnapshotError> {
        self.script = r.take()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_workload_replays_in_order() {
        let a = Activity::Cpu {
            duration: SimDuration::from_secs(1),
            intensity: 0.5,
            procedure: "a",
        };
        let b = Activity::Wait {
            until: SimTime::from_secs(9),
        };
        let mut w = ScriptedWorkload::new("s", vec![a, b]);
        assert_eq!(w.poll(SimTime::ZERO), Step::Run(a));
        assert_eq!(w.poll(SimTime::ZERO), Step::Run(b));
        assert_eq!(w.poll(SimTime::ZERO), Step::Done);
        assert_eq!(w.poll(SimTime::ZERO), Step::Done);
    }

    #[test]
    fn default_adaptation_interface_is_inert() {
        let mut w = ScriptedWorkload::new("s", vec![]);
        assert_eq!(w.fidelity(), FidelityView::fixed());
        assert!(!w.on_upcall(AdaptDirection::Degrade, SimTime::ZERO));
        assert_eq!(w.display_need(), DisplayState::Bright);
    }

    #[test]
    fn display_override() {
        let w = ScriptedWorkload::new("s", vec![]).with_display(DisplayState::Off);
        assert_eq!(w.display_need(), DisplayState::Off);
    }
}
