//! Periodic checkpointing of a running machine.
//!
//! [`CheckpointHook`] is a [`ControlHook`] that digests the machine's live
//! state on its period and records (time, digest) proof points into a
//! shared [`RunJournal`]. They are the only proof points at fixed sim
//! instants: a resumed run, however it was restored, must stand on the
//! salvaged checkpoint's digest when it reaches that instant. The hook
//! itself perturbs nothing — it inserts the same events whether or not a
//! crash occurs, so a checkpointed run and its resumed twin share one
//! event timeline.

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{RunJournal, SimTime};

use crate::machine::{ControlHook, MachineView};

/// Control hook that records state digests into a shared run journal.
pub struct CheckpointHook {
    journal: Rc<RefCell<RunJournal>>,
}

impl std::fmt::Debug for CheckpointHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointHook").finish_non_exhaustive()
    }
}

impl CheckpointHook {
    /// Creates a hook feeding `journal`. Attach it with a period equal to
    /// (or dividing) the journal's checkpoint interval.
    pub fn new(journal: Rc<RefCell<RunJournal>>) -> Self {
        CheckpointHook { journal }
    }
}

impl ControlHook for CheckpointHook {
    fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
        self.journal
            .borrow_mut()
            .record_if_due(now, || view.state_digest());
    }

    fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
        self.journal.borrow().freeze_into(w);
        Ok(())
    }

    fn thaw(&mut self, r: &mut simcore::SnapshotReader<'_>) -> Result<(), simcore::SnapshotError> {
        self.journal.borrow_mut().thaw_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::workload::ScriptedWorkload;
    use hw560x::PmPolicy;
    use simcore::SimDuration;

    fn rig(journal: Rc<RefCell<RunJournal>>) -> Machine {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::enabled(),
            ..Default::default()
        });
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "bg",
            SimDuration::from_secs(120),
        )));
        m.add_hook(
            SimDuration::from_secs(10),
            Box::new(CheckpointHook::new(journal)),
        );
        m
    }

    /// Checkpoints land on the journal's interval and identical runs
    /// journal identical digests.
    #[test]
    fn identical_runs_journal_identical_digests() {
        let run = || {
            let journal = Rc::new(RefCell::new(RunJournal::new(SimDuration::from_secs(10))));
            let mut m = rig(journal.clone());
            let _ = m.run_until(SimTime::from_secs(60));
            let cks = journal.borrow_mut().drain();
            cks
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 6);
        assert_eq!(a, b);
        for (i, ck) in a.iter().enumerate() {
            assert_eq!(ck.t, SimTime::from_secs(10 * (i as u64 + 1)));
        }
    }
}
