//! The viceroy's application supervisor: crash tolerance for the control
//! plane.
//!
//! The paper's viceroy trusts applications: it assumes every registered
//! app keeps issuing operations, honours fidelity upcalls, and reports the
//! fidelity it actually runs at. A single misbehaving app breaks all three
//! assumptions and silently converts the goal-directed controller into an
//! open loop. The supervisor closes it again with four detectors and an
//! escalating response ladder, all driven by observations the viceroy
//! already has:
//!
//! - **hang** — the app has not polled for longer than the watchdog while
//!   PowerScope still attributes sustained power to it (a *blocked* app
//!   attributes think-time to Idle, so it never trips this);
//! - **ignore** — the goal controller's degrade upcalls keep returning
//!   "unchanged" although the app's fidelity view says it could degrade
//!   (fed live from [`GoalHandle::rejected_degrades_of`]);
//! - **overdraw (lie)** — attributed power exceeds the demand the app
//!   declared for its claimed fidelity level by more than the overdraw
//!   factor: the app says it runs at fidelity F but draws the power of F′;
//! - **crash** — the process terminated while its entry in the
//!   [`DemandLedger`] was still active; the declaration is
//!   garbage-collected so the viceroy stops budgeting supply for a corpse.
//!
//! Responses escalate one rung per strike: re-issue the degrade upcall,
//! then force a warden datapath clamp, then quarantine (suspend the
//! process, release its declared demand back to the survivors), and
//! finally — after a cooldown — a deterministic restart that recovers the
//! warden's last known-good fidelity level. Apps whose workloads refuse
//! [`machine::Workload::on_restart`] are retired instead. Everything is
//! opt-in: a rig that never attaches a supervisor behaves exactly as the
//! paper's controller does.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use machine::{AdaptDirection, ControlHook, MachineView, Pid};
use powerscope::AttributionFeed;
use simcore::{
    Codec, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter, TraceEvent, Watts,
};

use crate::demand::DemandLedger;
use crate::goal::GoalHandle;

// Supervision constants, sized for the paper's applications: a 30 s
// watchdog clears the longest honest speech-recognition burst, and the
// 1 W power gate clears every blocked state (a waiting app attributes
// think-time to Idle and reads near zero).

/// Supervision period; attach the supervisor with this hook period.
pub const PERIOD: SimDuration = SimDuration::from_secs(1);
/// No detections before this instant: the attribution feed needs a few
/// windows before its power estimates mean anything.
pub const WARMUP: SimDuration = SimDuration::from_secs(30);
/// An app that has not polled for this long while drawing power is hung.
/// Must exceed the longest honest CPU burst any workload emits.
pub const WATCHDOG: SimDuration = SimDuration::from_secs(30);
/// Minimum attributed power for hang and overdraw detection — a blocked
/// app attributes ~0 W and must never strike.
pub const HANG_POWER_W: Watts = Watts(1.0);
/// Overdraw threshold: strike when attributed power exceeds declared
/// power at the claimed level times this factor.
pub const OVERDRAW_FACTOR: f64 = 1.6;
/// Grace period after a claimed fidelity change before the overdraw
/// cross-check resumes: the smoothed attribution of an honestly
/// degrading app lags its level change by a few windows.
pub const RESPONSE_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Datapath clamp applied on the second strike.
pub const CLAMP_FACTOR: f64 = 0.5;
/// Strikes before quarantine.
pub const QUARANTINE_AFTER: u32 = 3;
/// Clean ticks before one strike is forgiven (keeps rare false positives
/// from ratcheting an honest app to quarantine).
pub const FORGIVE_AFTER: u32 = 10;
/// Quarantine cooldown before a restart is attempted.
pub const RESTART_AFTER: SimDuration = SimDuration::from_secs(60);
/// Restarts granted per app before it is retired for good.
pub const MAX_RESTARTS: u32 = 1;

const _: () = assert!(!PERIOD.is_zero(), "supervision period must be positive");
const _: () = assert!(
    OVERDRAW_FACTOR >= 1.0,
    "overdraw factor below 1 strikes honest apps"
);

/// Counters the supervisor accumulates over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorStats {
    /// Watchdog expiries with attributed power (hang detections).
    pub hang_strikes: usize,
    /// New rejected-degrade observations (ignored-upcall detections).
    pub ignore_strikes: usize,
    /// Attributed power above declared demand (lie detections).
    pub overdraw_strikes: usize,
    /// First-rung responses: degrade upcalls re-issued by the supervisor.
    pub reissued_upcalls: usize,
    /// Second-rung responses: forced warden datapath clamps.
    pub clamps: usize,
    /// Third-rung responses: processes suspended.
    pub quarantines: usize,
    /// Successful restarts after quarantine.
    pub restarts: usize,
    /// Apps permanently retired (restart refused or budget exhausted).
    pub retired: usize,
    /// Demand-ledger entries garbage-collected from dead processes.
    pub crash_releases: usize,
    /// Declared watts released back to surviving apps by quarantines and
    /// crash collections.
    pub redistributed_w: Watts,
    /// Per-procedure overdraw attribution: for each overdraw strike, the
    /// procedure PowerScope billed most of the lying app's energy to —
    /// the operator-facing answer to "where did the undeclared power
    /// go?". Keys are procedure names, values strike counts.
    pub overdraw_hot_procedures: BTreeMap<&'static str, usize>,
}

simcore::impl_codec!(SupervisorStats {
    hang_strikes,
    ignore_strikes,
    overdraw_strikes,
    reissued_upcalls,
    clamps,
    quarantines,
    restarts,
    retired,
    crash_releases,
    redistributed_w,
    overdraw_hot_procedures,
});

#[derive(Debug, Default)]
struct Inner {
    stats: SupervisorStats,
    ledger: DemandLedger,
    /// Process indices struck from outside the supervisor's own
    /// detectors (the service layer's dead-letter escalation), drained
    /// into the response ladder at the next tick.
    external_strikes: Vec<usize>,
}

simcore::impl_codec!(Inner {
    stats,
    ledger,
    external_strikes
});

/// Caller-side handle to inspect the supervisor during and after a run.
#[derive(Clone)]
pub struct SupervisorHandle {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for SupervisorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorHandle").finish_non_exhaustive()
    }
}

impl SupervisorHandle {
    /// Current counters.
    pub fn stats(&self) -> SupervisorStats {
        self.inner.borrow().stats.clone()
    }

    /// A copy of the demand ledger.
    pub fn ledger(&self) -> DemandLedger {
        self.inner.borrow().ledger.clone()
    }

    /// Sum of declared power over all live declarations.
    pub fn total_declared_w(&self) -> Watts {
        self.inner.borrow().ledger.total_declared_w()
    }

    /// Posts a strike against a watched process from outside the
    /// supervisor's own detectors — the escalation hook the service
    /// layer uses when an app floods the session with malformed input.
    /// The strike enters the ordinary response ladder
    /// (reissue → clamp → quarantine) at the supervisor's next tick;
    /// strikes against unwatched processes are dropped.
    pub fn post_external_strike(&self, pid_index: usize) {
        self.inner.borrow_mut().external_strikes.push(pid_index);
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Healthy,
    Clamped,
    Quarantined { since: SimTime },
    Retired,
}

impl Codec for Phase {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            Phase::Healthy => w.put(&0u64),
            Phase::Clamped => w.put(&1u64),
            Phase::Quarantined { since } => w.put(&(2u64, *since)),
            Phase::Retired => w.put(&3u64),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u64>()? {
            0 => Phase::Healthy,
            1 => Phase::Clamped,
            2 => Phase::Quarantined { since: r.take()? },
            3 => Phase::Retired,
            _ => return Err(SnapshotError::Corrupt("app phase tag")),
        })
    }
}

#[derive(Debug)]
struct AppState {
    pid: Pid,
    phase: Phase,
    strikes: u32,
    clean_ticks: u32,
    restarts: u32,
    /// Last fidelity level observed while behaving — the warden state a
    /// restart recovers to.
    recovery_level: usize,
    /// Rejected-degrade count already accounted for.
    seen_rejections: usize,
    /// Last claimed fidelity level observed, and when it changed — the
    /// overdraw cross-check pauses for the response window after a change.
    level_seen: usize,
    level_changed_at: SimTime,
    /// Whether the done-transition has been processed.
    collected: bool,
}

/// The supervisor; attach with [`machine::Machine::add_hook`] at
/// [`PERIOD`], after registering each watched app with
/// [`Supervisor::watch`].
pub struct Supervisor {
    apps: Vec<AppState>,
    feed: AttributionFeed,
    goal: Option<GoalHandle>,
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor").finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Creates a supervisor and its inspection handle.
    pub fn new() -> (SupervisorHandle, Box<Supervisor>) {
        let inner = Rc::new(RefCell::new(Inner::default()));
        let s = Supervisor {
            apps: Vec::new(),
            feed: AttributionFeed::new(),
            goal: None,
            inner: inner.clone(),
        };
        (SupervisorHandle { inner }, Box::new(s))
    }

    /// Registers an app: its declared sustained power per fidelity level
    /// (index 0 = lowest) and the level it starts at. Declarations enter
    /// the demand ledger immediately.
    pub fn watch(&mut self, pid: Pid, declared_w: Vec<Watts>, initial_level: usize) {
        self.inner
            .borrow_mut()
            .ledger
            .declare(pid.index(), declared_w, initial_level);
        self.apps.push(AppState {
            pid,
            phase: Phase::Healthy,
            strikes: 0,
            clean_ticks: 0,
            restarts: 0,
            recovery_level: initial_level,
            seen_rejections: 0,
            level_seen: initial_level,
            level_changed_at: SimTime::ZERO,
            collected: false,
        });
    }

    /// Connects the goal controller's upcall feed so ignored degrades
    /// count as strikes.
    pub fn attach_goal(&mut self, goal: GoalHandle) {
        self.goal = Some(goal);
    }

    fn collect_crash(&mut self, app_i: usize, now: SimTime, view: &mut MachineView<'_>) {
        let app = &mut self.apps[app_i];
        app.collected = true;
        let pid = app.pid;
        let mut inner = self.inner.borrow_mut();
        if let Some(freed) = inner.ledger.release(app.pid.index()) {
            inner.stats.crash_releases += 1;
            inner.stats.redistributed_w += freed;
        }
        let retired = if app.restarts < MAX_RESTARTS {
            app.phase = Phase::Quarantined { since: now };
            false
        } else {
            app.phase = Phase::Retired;
            inner.stats.retired += 1;
            true
        };
        drop(inner);
        view.emit_trace(TraceEvent::SupervisorEscalate {
            pid: pid.index() as u64,
            rung: "crash_collect",
        });
        if retired {
            view.emit_trace(TraceEvent::SupervisorEscalate {
                pid: pid.index() as u64,
                rung: "retire",
            });
        }
    }

    fn try_restart(&mut self, app_i: usize, view: &mut MachineView<'_>) {
        let (pid, recovery_level) = {
            let app = &self.apps[app_i];
            (app.pid, app.recovery_level)
        };
        if !view.restart(pid) {
            let mut inner = self.inner.borrow_mut();
            inner.stats.retired += 1;
            self.apps[app_i].phase = Phase::Retired;
            drop(inner);
            view.emit_trace(TraceEvent::SupervisorEscalate {
                pid: pid.index() as u64,
                rung: "retire",
            });
            return;
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.restarts += 1;
            inner.ledger.reinstate(pid.index(), recovery_level);
        }
        view.emit_trace(TraceEvent::SupervisorEscalate {
            pid: pid.index() as u64,
            rung: "restart",
        });
        // Warden state recovery: walk the revived app back down to its
        // last known-good fidelity level before it runs again.
        // `restart` accepted `pid`, so the process is there to read.
        if let Some(info) = view.process(pid.index()) {
            let mut level = info.fidelity.level;
            while level > recovery_level && view.upcall(pid, AdaptDirection::Degrade) {
                level -= 1;
            }
        }
        self.feed.reset(pid.index());
        let app = &mut self.apps[app_i];
        app.restarts += 1;
        app.strikes = 0;
        app.clean_ticks = 0;
        app.collected = false;
        app.phase = Phase::Healthy;
    }

    fn respond(&mut self, app_i: usize, now: SimTime, view: &mut MachineView<'_>) {
        let (pid, strikes) = {
            let app = &mut self.apps[app_i];
            app.strikes += 1;
            app.clean_ticks = 0;
            (app.pid, app.strikes)
        };
        let mut inner = self.inner.borrow_mut();
        if strikes == 1 {
            inner.stats.reissued_upcalls += 1;
            drop(inner);
            view.emit_trace(TraceEvent::SupervisorEscalate {
                pid: pid.index() as u64,
                rung: "reissue",
            });
            view.upcall(pid, AdaptDirection::Degrade);
        } else if strikes == 2 {
            inner.stats.clamps += 1;
            drop(inner);
            view.emit_trace(TraceEvent::SupervisorEscalate {
                pid: pid.index() as u64,
                rung: "clamp",
            });
            view.set_datapath_clamp(pid, CLAMP_FACTOR);
            self.apps[app_i].phase = Phase::Clamped;
        } else if strikes >= QUARANTINE_AFTER && view.suspend(pid) {
            inner.stats.quarantines += 1;
            if let Some(freed) = inner.ledger.release(pid.index()) {
                inner.stats.redistributed_w += freed;
            }
            self.apps[app_i].phase = Phase::Quarantined { since: now };
            drop(inner);
            view.emit_trace(TraceEvent::SupervisorEscalate {
                pid: pid.index() as u64,
                rung: "quarantine",
            });
        }
    }
}

impl ControlHook for Supervisor {
    fn freeze(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put(&self.apps.len());
        for app in &self.apps {
            w.put(&app.phase);
            w.put(&app.strikes);
            w.put(&app.clean_ticks);
            w.put(&app.restarts);
            w.put(&app.recovery_level);
            w.put(&app.seen_rejections);
            w.put(&app.level_seen);
            w.put(&app.level_changed_at);
            w.put(&app.collected);
        }
        w.put(&self.feed);
        w.put(&*self.inner.borrow());
        Ok(())
    }

    fn thaw(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if r.take::<usize>()? != self.apps.len() {
            return Err(SnapshotError::Corrupt("watched-app count mismatch"));
        }
        for app in &mut self.apps {
            app.phase = r.take()?;
            app.strikes = r.take()?;
            app.clean_ticks = r.take()?;
            app.restarts = r.take()?;
            app.recovery_level = r.take()?;
            app.seen_rejections = r.take()?;
            app.level_seen = r.take()?;
            app.level_changed_at = r.take()?;
            app.collected = r.take()?;
        }
        self.feed = r.take()?;
        *self.inner.borrow_mut() = r.take()?;
        Ok(())
    }

    fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
        // Drain externally-posted strikes (service-layer escalation)
        // into the ordinary response ladder, in posting order.
        let external: Vec<usize> = std::mem::take(&mut self.inner.borrow_mut().external_strikes);
        for pid_index in external {
            let Some(app_i) = self.apps.iter().position(|a| a.pid.index() == pid_index) else {
                continue;
            };
            if matches!(
                self.apps[app_i].phase,
                Phase::Quarantined { .. } | Phase::Retired
            ) {
                continue;
            }
            view.emit_trace(TraceEvent::SupervisorStrike {
                pid: pid_index as u64,
                detector: "service",
                strikes: self.apps[app_i].strikes as u64 + 1,
            });
            self.respond(app_i, now, view);
        }
        for i in 0..self.apps.len() {
            let pid = self.apps[i].pid;
            // An iteration acts on its own app only.
            #[expect(
                clippy::expect_used,
                reason = "watched apps are this machine's processes"
            )]
            let info = view
                .process(pid.index())
                .expect("watched pid not on the machine");

            // The attribution feed observes every tick so its estimate is
            // warm by the time detection starts.
            let cum_j = view.attributed_energy_j(pid);
            let power = self
                .feed
                .observe(pid.index(), now, cum_j)
                .unwrap_or(Watts::ZERO);

            if info.done && !self.apps[i].collected {
                self.collect_crash(i, now, view);
                continue;
            }

            match self.apps[i].phase {
                Phase::Retired => continue,
                Phase::Quarantined { since } => {
                    if self.apps[i].restarts < MAX_RESTARTS
                        && now.saturating_since(since) >= RESTART_AFTER
                    {
                        self.try_restart(i, view);
                    }
                    continue;
                }
                Phase::Healthy | Phase::Clamped => {}
            }
            if info.done || now < SimTime::ZERO + WARMUP {
                continue;
            }

            let mut strike = false;
            let next_strikes = self.apps[i].strikes as u64 + 1;
            {
                let mut inner = self.inner.borrow_mut();

                // Hang: silent on the poll interface, loud on the meter.
                let since_poll = now.saturating_since(view.last_poll_at(pid));
                if since_poll > WATCHDOG && power > HANG_POWER_W {
                    inner.stats.hang_strikes += 1;
                    strike = true;
                    view.emit_trace(TraceEvent::SupervisorStrike {
                        pid: pid.index() as u64,
                        detector: "hang",
                        strikes: next_strikes,
                    });
                }

                // Ignore: the goal controller's upcalls bounce off.
                if let Some(goal) = &self.goal {
                    let rejections = goal.rejected_degrades_of(pid.index());
                    if rejections > self.apps[i].seen_rejections {
                        self.apps[i].seen_rejections = rejections;
                        inner.stats.ignore_strikes += 1;
                        strike = true;
                        view.emit_trace(TraceEvent::SupervisorStrike {
                            pid: pid.index() as u64,
                            detector: "ignore",
                            strikes: next_strikes,
                        });
                    }
                }

                // Lie: claimed fidelity F, power of F'. Sync the claimed
                // level from the app's own report, then — once the
                // response window has passed — cross-check it against
                // PowerScope attribution.
                let level = info.fidelity.level;
                if level != self.apps[i].level_seen {
                    self.apps[i].level_seen = level;
                    self.apps[i].level_changed_at = now;
                }
                if inner.ledger.claimed_level(pid.index()) != Some(level) {
                    inner.ledger.set_claimed_level(pid.index(), level);
                }
                let settled =
                    now.saturating_since(self.apps[i].level_changed_at) >= RESPONSE_WINDOW;
                if let Some(declared) = inner.ledger.declared_w(pid.index()) {
                    if settled && power > declared * OVERDRAW_FACTOR && power > HANG_POWER_W {
                        inner.stats.overdraw_strikes += 1;
                        // Demand accounting: name the procedure the
                        // undeclared power is actually going to, so the
                        // strike is actionable and not just punitive.
                        if let Some((procedure, _)) = view.attributed_hot_procedure(pid) {
                            *inner
                                .stats
                                .overdraw_hot_procedures
                                .entry(procedure)
                                .or_insert(0) += 1;
                        }
                        strike = true;
                        view.emit_trace(TraceEvent::SupervisorStrike {
                            pid: pid.index() as u64,
                            detector: "overdraw",
                            strikes: next_strikes,
                        });
                    }
                }
            }

            if strike {
                self.respond(i, now, view);
            } else {
                let app = &mut self.apps[i];
                if app.phase == Phase::Healthy {
                    app.recovery_level = info.fidelity.level;
                }
                if app.strikes > 0 {
                    app.clean_ticks += 1;
                    if app.clean_ticks >= FORGIVE_AFTER {
                        app.strikes -= 1;
                        app.clean_ticks = 0;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw560x::PmPolicy;
    use machine::workload::ScriptedWorkload;
    use machine::{Activity, FidelityView, Machine, MachineConfig, Step, Workload};
    use simcore::SimDuration;

    /// The generic codec property test over this crate's impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use simcore::snapshot::check_codec;
        for phase in [
            Phase::Healthy,
            Phase::Clamped,
            Phase::Quarantined {
                since: SimTime::from_secs(9),
            },
            Phase::Retired,
        ] {
            check_codec(&phase);
        }
        let mut ledger = DemandLedger::new();
        check_codec(&ledger);
        ledger.declare(0, vec![Watts(1.0), Watts(2.5)], 1);
        ledger.declare(3, vec![Watts(0.0)], 0);
        ledger.release(3);
        check_codec(&ledger);
        let stats = SupervisorStats {
            clamps: 2,
            redistributed_w: Watts(1.25),
            overdraw_hot_procedures: [("decode", 3)].into(),
            ..SupervisorStats::default()
        };
        simcore::snapshot::check_codec_in(&stats, &simcore::Names::new(["decode"]));
    }

    /// A workload that behaves for `honest_until`, then spins forever
    /// without polling — the canonical hang.
    struct Spinner {
        honest_until: SimTime,
        horizon: SimTime,
        restarted: bool,
    }

    impl Workload for Spinner {
        fn name(&self) -> &'static str {
            "spinner"
        }
        fn names(&self) -> Vec<&'static str> {
            vec!["spin"]
        }
        fn poll(&mut self, now: SimTime) -> Step {
            if now >= self.horizon {
                return Step::Done;
            }
            if now < self.honest_until || self.restarted {
                // Honest phase: short burst, long think.
                Step::Run(Activity::Wait {
                    until: now + SimDuration::from_secs(1),
                })
            } else {
                // One enormous burst: no polls until the horizon.
                Step::Run(Activity::Cpu {
                    duration: self.horizon.saturating_since(now),
                    intensity: 1.0,
                    procedure: "spin",
                })
            }
        }
        fn fidelity(&self) -> FidelityView {
            FidelityView {
                level: 1,
                levels: 2,
            }
        }
        fn on_restart(&mut self, _now: SimTime) -> bool {
            self.restarted = true;
            true
        }
    }

    fn rig(horizon_s: u64) -> (Machine, SupervisorHandle) {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::enabled(),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(Spinner {
            honest_until: SimTime::from_secs(60),
            horizon: SimTime::from_secs(horizon_s),
            restarted: false,
        }));
        let (handle, mut sup) = Supervisor::new();
        // Generous declaration: the spin never overdraws it, so the
        // watchdog is the only detector that can fire.
        sup.watch(pid, vec![Watts(25.0), Watts(50.0)], 1);
        m.add_hook(PERIOD, sup);
        (m, handle)
    }

    #[test]
    fn hang_escalates_to_quarantine_and_restart() {
        let (mut m, handle) = rig(600);
        m.run_until(SimTime::from_secs(400));
        let stats = handle.stats();
        assert!(stats.hang_strikes >= 3, "{stats:?}");
        assert_eq!(stats.reissued_upcalls, 1, "{stats:?}");
        assert_eq!(stats.clamps, 1, "{stats:?}");
        assert_eq!(stats.quarantines, 1, "{stats:?}");
        assert_eq!(stats.restarts, 1, "{stats:?}");
        assert!(stats.redistributed_w > Watts(0.0));
        // After restart the app behaves again; its declaration is live.
        assert!(handle.ledger().is_active(0));
    }

    #[test]
    fn honest_app_never_strikes() {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::enabled(),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(ScriptedWorkload::idle_for(
            "calm",
            SimDuration::from_secs(200),
        )));
        let (handle, mut sup) = Supervisor::new();
        sup.watch(pid, vec![Watts(1.0)], 0);
        m.add_hook(PERIOD, sup);
        m.run_until(SimTime::from_secs(300));
        let stats = handle.stats();
        assert_eq!(stats.hang_strikes, 0, "{stats:?}");
        assert_eq!(stats.overdraw_strikes, 0, "{stats:?}");
        assert_eq!(stats.quarantines, 0, "{stats:?}");
        // The workload finished; its declaration was collected, and since
        // ScriptedWorkload refuses on_restart, the app was retired.
        assert_eq!(stats.crash_releases, 1, "{stats:?}");
        assert_eq!(stats.retired, 1, "{stats:?}");
    }

    #[test]
    fn crashed_app_declaration_is_garbage_collected() {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::enabled(),
            ..Default::default()
        });
        // Dies at 10 s without any release downcall.
        let pid = m.add_process(Box::new(ScriptedWorkload::idle_for(
            "crashy",
            SimDuration::from_secs(10),
        )));
        let _keepalive = m.add_process(Box::new(ScriptedWorkload::idle_for(
            "bg",
            SimDuration::from_secs(120),
        )));
        let (handle, mut sup) = Supervisor::new();
        sup.watch(pid, vec![Watts(2.5)], 0);
        m.add_hook(PERIOD, sup);
        // Past the restart cooldown: `ScriptedWorkload` refuses its
        // restart, which retires the app.
        m.run_until(SimTime::from_secs(10) + RESTART_AFTER + SimDuration::from_secs(20));
        let stats = handle.stats();
        assert_eq!(stats.crash_releases, 1);
        assert!((stats.redistributed_w - Watts(2.5)).abs() < Watts(1e-12));
        assert_eq!(stats.retired, 1);
        assert!(!handle.ledger().is_active(pid.index()));
        assert_eq!(handle.total_declared_w(), Watts(0.0));
    }

    #[test]
    fn overdraw_is_detected_against_declaration() {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::enabled(),
            ..Default::default()
        });
        // Declares 0.1 W but burns CPU continuously in short bursts (so it
        // keeps polling — no hang), drawing several watts.
        let script: Vec<Activity> = (0..3000)
            .map(|_| Activity::Cpu {
                duration: SimDuration::from_millis(100),
                intensity: 1.0,
                procedure: "burn",
            })
            .collect();
        let pid = m.add_process(Box::new(ScriptedWorkload::new("liar", script)));
        let (handle, mut sup) = Supervisor::new();
        sup.watch(pid, vec![Watts(0.1)], 0);
        m.add_hook(PERIOD, sup);
        m.run_until(SimTime::from_secs(120));
        let stats = handle.stats();
        assert!(stats.overdraw_strikes >= 3, "{stats:?}");
        assert_eq!(stats.hang_strikes, 0, "kept polling: {stats:?}");
        assert_eq!(stats.quarantines, 1, "{stats:?}");
        // Demand accounting names the procedure the undeclared power
        // went to, once per overdraw strike.
        let hot: usize = stats.overdraw_hot_procedures.values().sum();
        assert_eq!(hot, stats.overdraw_strikes, "{stats:?}");
        assert!(
            stats.overdraw_hot_procedures.contains_key("burn"),
            "{stats:?}"
        );
    }
}
