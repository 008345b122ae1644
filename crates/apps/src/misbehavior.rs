//! Application misbehavior models.
//!
//! [`Misbehavior`] wraps any [`Workload`] and makes it fail the way real
//! applications fail the viceroy's trust assumptions:
//!
//! - **hang** — during the windows of a [`FaultSchedule`], the app stops
//!   issuing operations and spins: one enormous CPU burst instead of its
//!   normal phases, drawing full power while never polling (and refusing
//!   upcalls, as a wedged event loop would);
//! - **crash** — at a fixed instant the app terminates mid-operation,
//!   leaking its fidelity slot: no final downcall releases its demand
//!   declaration;
//! - **ignore** — the app keeps running normally but every fidelity
//!   upcall bounces: it reports it *could* degrade, then doesn't;
//! - **lie** — the app accepts degrade upcalls and reports the lower
//!   fidelity, but never forwards them to the real workload, so it draws
//!   the power of the fidelity it actually runs at.
//!
//! The wrapper is transparent when no misbehavior is active: it forwards
//! the inner workload's name, display need, phases, and fidelity, so
//! PowerScope attribution and the goal controller see the same process
//! they would without it.

use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use simcore::fault::FaultSchedule;
use simcore::SimTime;

/// The ways a wrapped application can betray the viceroy.
#[derive(Clone, Debug)]
enum Kind {
    /// Spin (full power, no polls, no upcalls) during schedule windows.
    Hang { schedule: FaultSchedule },
    /// Terminate at `at` without releasing the demand declaration.
    Crash { at: SimTime },
    /// Reject every upcall while claiming adaptability.
    IgnoreUpcalls,
    /// Accept degrades in name only: report level `actual - offset`
    /// while the inner workload keeps running at `actual`.
    Lie,
}

/// A misbehaving wrapper around a real workload. See the module docs.
pub struct Misbehavior {
    inner: Box<dyn Workload>,
    kind: Kind,
    /// Lie state: claimed levels below the inner workload's actual level.
    claimed_offset: usize,
    crashed: bool,
    restartable: bool,
}

impl std::fmt::Debug for Misbehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Misbehavior").finish_non_exhaustive()
    }
}

impl Misbehavior {
    /// Hangs during the windows of `schedule`.
    pub fn hang(inner: Box<dyn Workload>, schedule: FaultSchedule) -> Self {
        Misbehavior::new(inner, Kind::Hang { schedule })
    }

    /// Crashes (terminates mid-operation) at `at`.
    pub fn crash_at(inner: Box<dyn Workload>, at: SimTime) -> Self {
        Misbehavior::new(inner, Kind::Crash { at })
    }

    /// Ignores every fidelity upcall.
    pub fn ignore_upcalls(inner: Box<dyn Workload>) -> Self {
        Misbehavior::new(inner, Kind::IgnoreUpcalls)
    }

    /// Reports degraded fidelity without actually degrading.
    pub fn lie(inner: Box<dyn Workload>) -> Self {
        Misbehavior::new(inner, Kind::Lie)
    }

    fn new(inner: Box<dyn Workload>, kind: Kind) -> Self {
        Misbehavior {
            inner,
            kind,
            claimed_offset: 0,
            crashed: false,
            restartable: false,
        }
    }

    /// Opts into supervisor restarts: after a quarantine or crash,
    /// [`Workload::on_restart`] clears the wrapper's failure state and the
    /// inner workload resumes where it left off (the warden held its
    /// state).
    pub fn restartable(mut self) -> Self {
        self.restartable = true;
        self
    }

    fn hung_at(&self, now: SimTime) -> bool {
        match &self.kind {
            Kind::Hang { schedule } => schedule.active_at(now),
            _ => false,
        }
    }
}

impl Workload for Misbehavior {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn names(&self) -> Vec<&'static str> {
        let mut names = self.inner.names();
        names.push("wedged");
        names
    }

    fn display_need(&self) -> hw560x::DisplayState {
        self.inner.display_need()
    }

    fn poll(&mut self, now: SimTime) -> Step {
        if self.crashed {
            return Step::Done;
        }
        match &self.kind {
            Kind::Crash { at } if now >= *at => {
                self.crashed = true;
                return Step::Done;
            }
            Kind::Hang { schedule } if schedule.active_at(now) => {
                // Spin until the window clears: one burst, no polls. The
                // machine chops it into scheduler quanta, so a suspension
                // still takes effect promptly.
                let end = schedule
                    .next_transition_after(now)
                    .unwrap_or(now + simcore::SimDuration::from_secs(1));
                return Step::Run(Activity::Cpu {
                    duration: end.saturating_since(now),
                    intensity: 1.0,
                    procedure: "wedged",
                });
            }
            _ => {}
        }
        self.inner.poll(now)
    }

    fn fidelity(&self) -> FidelityView {
        let v = self.inner.fidelity();
        FidelityView {
            level: v.level.saturating_sub(self.claimed_offset),
            levels: v.levels,
        }
    }

    fn on_upcall(&mut self, dir: AdaptDirection, now: SimTime) -> bool {
        if self.crashed {
            return false;
        }
        match (&self.kind, dir) {
            // A wedged event loop never services upcalls.
            (Kind::Hang { .. }, _) if self.hung_at(now) => false,
            (Kind::IgnoreUpcalls, _) => false,
            (Kind::Lie, AdaptDirection::Degrade) => {
                if self.fidelity().can_degrade() {
                    self.claimed_offset += 1;
                    true
                } else {
                    false
                }
            }
            (Kind::Lie, AdaptDirection::Upgrade) => {
                if self.claimed_offset > 0 {
                    self.claimed_offset -= 1;
                    true
                } else {
                    self.inner.on_upcall(dir, now)
                }
            }
            _ => self.inner.on_upcall(dir, now),
        }
    }

    fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
        w.put(&self.claimed_offset);
        w.put(&self.crashed);
        // Only the crash instant is mutable kind state: on_restart defuses
        // it. The schedule and the other variants are construction-time.
        if let Kind::Crash { at } = &self.kind {
            w.put(at);
        }
        self.inner.freeze(w)
    }

    fn thaw(&mut self, r: &mut simcore::SnapshotReader<'_>) -> Result<(), simcore::SnapshotError> {
        self.claimed_offset = r.take()?;
        self.crashed = r.take()?;
        if let Kind::Crash { at } = &mut self.kind {
            *at = r.take()?;
        }
        self.inner.thaw(r)
    }

    fn on_restart(&mut self, now: SimTime) -> bool {
        if !self.restartable {
            return false;
        }
        self.crashed = false;
        self.claimed_offset = 0;
        // A revived app does not re-crash: the defect fired once.
        if let Kind::Crash { at } = &mut self.kind {
            *at = SimTime::from_micros(u64::MAX);
        }
        // Give the inner workload a chance to reset too; most paper apps
        // are stateless generators and keep their default.
        let _ = self.inner.on_restart(now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use simcore::fault::FaultWindow;
    use simcore::SimDuration;

    struct Adaptive {
        level: usize,
    }

    impl Workload for Adaptive {
        fn name(&self) -> &'static str {
            "adaptive"
        }
        fn names(&self) -> Vec<&'static str> {
            Vec::new()
        }
        fn poll(&mut self, now: SimTime) -> Step {
            Step::Run(Activity::Wait {
                until: now + SimDuration::from_secs(1),
            })
        }
        fn fidelity(&self) -> FidelityView {
            FidelityView::new(self.level, 4)
        }
        fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
            match dir {
                AdaptDirection::Degrade if self.level > 0 => {
                    self.level -= 1;
                    true
                }
                AdaptDirection::Upgrade if self.level < 3 => {
                    self.level += 1;
                    true
                }
                _ => false,
            }
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn hang_spins_through_the_window_and_refuses_upcalls() {
        let sched = FaultSchedule::new(vec![FaultWindow {
            start: t(10),
            end: t(20),
        }]);
        let mut w = Misbehavior::hang(Box::new(Adaptive { level: 3 }), sched);
        assert!(matches!(w.poll(t(5)), Step::Run(Activity::Wait { .. })));
        match w.poll(t(12)) {
            Step::Run(Activity::Cpu { duration, .. }) => {
                assert_eq!(duration, SimDuration::from_secs(8));
            }
            other => panic!("expected a spin, got {other:?}"),
        }
        assert!(!w.on_upcall(AdaptDirection::Degrade, t(12)));
        // After the window the inner workload is back, upcalls included.
        assert!(matches!(w.poll(t(25)), Step::Run(Activity::Wait { .. })));
        assert!(w.on_upcall(AdaptDirection::Degrade, t(25)));
    }

    #[test]
    fn crash_is_permanent_until_restarted() {
        let mut w = Misbehavior::crash_at(Box::new(Adaptive { level: 2 }), t(30)).restartable();
        assert!(matches!(w.poll(t(10)), Step::Run(_)));
        assert!(matches!(w.poll(t(30)), Step::Done));
        assert!(matches!(w.poll(t(31)), Step::Done));
        assert!(!w.on_upcall(AdaptDirection::Degrade, t(31)));
        assert!(w.on_restart(t(40)));
        assert!(matches!(w.poll(t(40)), Step::Run(_)));
    }

    #[test]
    fn non_restartable_crash_refuses_restart() {
        let mut w = Misbehavior::crash_at(Box::new(Adaptive { level: 2 }), t(0));
        assert!(matches!(w.poll(t(0)), Step::Done));
        assert!(!w.on_restart(t(1)));
    }

    #[test]
    fn ignorer_claims_adaptability_but_never_adapts() {
        let mut w = Misbehavior::ignore_upcalls(Box::new(Adaptive { level: 3 }));
        assert!(w.fidelity().can_degrade());
        assert!(!w.on_upcall(AdaptDirection::Degrade, t(0)));
        assert_eq!(w.fidelity().level, 3);
    }

    #[test]
    fn liar_reports_degradation_it_never_performs() {
        let mut w = Misbehavior::lie(Box::new(Adaptive { level: 3 }));
        assert!(w.on_upcall(AdaptDirection::Degrade, t(0)));
        assert!(w.on_upcall(AdaptDirection::Degrade, t(1)));
        // Claims level 1...
        assert_eq!(w.fidelity().level, 1);
        // ...but the inner workload still runs at 3 (same power).
        let inner_view = {
            // Upgrades undo the lie before touching the real workload.
            assert!(w.on_upcall(AdaptDirection::Upgrade, t(2)));
            assert!(w.on_upcall(AdaptDirection::Upgrade, t(3)));
            w.fidelity()
        };
        assert_eq!(inner_view.level, 3);
        // At the floor the lie runs out: claims stop changing.
        for _ in 0..5 {
            w.on_upcall(AdaptDirection::Degrade, t(4));
        }
        assert_eq!(w.fidelity().level, 0);
        assert!(!w.on_upcall(AdaptDirection::Degrade, t(5)));
    }

    #[test]
    fn wrapper_is_transparent_for_name_and_done() {
        let inner = ScriptedWorkload::new("real", vec![]);
        let mut w = Misbehavior::ignore_upcalls(Box::new(inner));
        assert_eq!(w.name(), "real");
        assert!(matches!(w.poll(t(0)), Step::Done));
    }
}
