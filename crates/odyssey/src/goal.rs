//! Goal-directed energy adaptation (Section 5).
//!
//! The user supplies an initial energy value and a desired duration.
//! Twice a second, Odyssey compares residual energy against predicted
//! demand (smoothed power × time remaining) and issues fidelity upcalls:
//!
//! - demand exceeds supply → degrade the lowest-priority application that
//!   still can; if none can, the duration is *infeasible* and the user is
//!   alerted;
//! - supply exceeds demand by more than the hysteresis margin (5% of
//!   residual energy, the *variable* component, plus 1% of initial energy,
//!   the *constant* component) → upgrade the highest-priority degraded
//!   application, capped at one improvement per 15 seconds.
//!
//! Power is observed with the on-line PowerScope meter every 100 ms and
//! smoothed with a half-life of 10% of the time remaining (Section 5.1.2),
//! trading stability far from the goal for agility near it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use machine::{AdaptDirection, ControlHook, MachineView};
use powerscope::{FaultyEnergySensor, MeterFaultPlan, OnlinePowerMeter};
use simcore::{
    Joules, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter, TimeSeries,
    TraceEvent, Watts,
};

use crate::demand::{predicted_demand_j, Smoother};
use crate::priority::PriorityTable;

/// Power overhead of deployed energy monitoring (Section 5.1.4: "we
/// expect that the total power overhead imposed by our solution will be
/// less than 14 mW — only 0.25% of the background power consumption of
/// our laptop"). Set [`machine::MachineConfig::monitor_overhead_w`] to
/// this when attaching a [`GoalController`].
pub const MONITOR_OVERHEAD_W: Watts = Watts(0.014);

/// Decision period (paper: twice a second).
pub const DECISION_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Configuration of a goal-directed adaptation run.
#[derive(Clone, Debug)]
pub struct GoalConfig {
    /// Initial energy value given to Odyssey.
    pub initial_energy_j: Joules,
    /// Desired battery duration (deadline measured from run start).
    pub goal: SimDuration,
    /// Smoothing half-life as a fraction of time remaining (paper: 0.10).
    pub half_life_frac: f64,
    /// Variable hysteresis: fraction of residual energy (paper: 0.05).
    pub hysteresis_supply_frac: f64,
    /// Constant hysteresis: fraction of initial energy (paper: 0.01).
    pub hysteresis_initial_frac: f64,
    /// Minimum spacing between fidelity improvements (paper: 15 s).
    pub upgrade_min_interval: SimDuration,
    /// Power sampling period (paper: 100 ms).
    pub sample_period: SimDuration,
    /// No adaptation decisions before this much of the run has elapsed:
    /// the on-line meter needs a few samples before its smoothed power
    /// means anything ("applications are more stable at the beginning").
    pub warmup: SimDuration,
    /// Defects of the energy instrument feeding the on-line meter
    /// (dropout, jitter, quantization). Clean by default.
    pub meter_faults: MeterFaultPlan,
    /// Robustness measures for hostile substrates; `None` (the default)
    /// reproduces the paper's controller exactly.
    pub hardening: Option<Hardening>,
}

/// Robustness measures layered onto the paper's controller for deployment
/// on a substrate whose sensors lie.
///
/// Each measure counters one concrete failure mode:
/// - a gauge that *recovers* (noise, drift correction) would otherwise
///   make supply jump upward and trigger spurious upgrades → the
///   controller tracks a **monotone envelope** of gauge readings;
/// - an *optimistic* gauge (the dangerous sign) walks the client into a
///   dead battery → supply is **cross-checked** against
///   `initial energy − metered consumption` and the minimum wins;
/// - a jittering meter yields implausible instantaneous power → samples
///   outside the platform's **physical envelope** are clamped before
///   smoothing;
/// - dropped samples leave the demand prediction **stale** → decisions
///   pause (and are counted) until fresh data arrives, rather than acting
///   on fiction;
/// - a single-sample demand spike must not thrash fidelity → degrades
///   require the deficit to **persist** across consecutive decisions;
/// - the smoothed demand estimate lags real consumption, so a controller
///   that rides `demand == supply` exactly exhausts the battery moments
///   before the deadline → a **budget reserve** is withheld from the
///   supply estimate, leaving headroom for estimation lag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hardening;

impl Hardening {
    /// Decisions are skipped when the newest accepted power sample is
    /// older than this: 20 samples.
    pub const STALE_AFTER: SimDuration = SimDuration::from_secs(2);
    /// Physical power envelope `[min, max]`; accepted samples are clamped
    /// into it before smoothing. It brackets the ThinkPad 560X's 3.47 W
    /// floor and ~20 W worst case.
    pub const POWER_CLAMP_W: (Watts, Watts) = (Watts(1.0), Watts(30.0));
    /// Consecutive deficit decisions required before degrading (1 s).
    pub const DEGRADE_PERSISTENCE: usize = 2;
    /// Fraction of the *initial* energy withheld as a constant reserve
    /// against demand-estimation lag. A proportional reserve would decay
    /// with the supply and stop protecting exactly when exhaustion nears.
    pub const RESERVE_FRAC: f64 = 0.05;

    /// The measures above, sized to the ThinkPad 560X platform.
    pub fn standard() -> Self {
        Hardening
    }
}

impl GoalConfig {
    /// The paper's parameters for a supply of `initial_energy_j` joules
    /// and a duration.
    pub fn paper(initial_energy_j: f64, goal: SimDuration) -> Self {
        GoalConfig {
            initial_energy_j: Joules(initial_energy_j),
            goal,
            half_life_frac: 0.10,
            hysteresis_supply_frac: 0.05,
            hysteresis_initial_frac: 0.01,
            upgrade_min_interval: SimDuration::from_secs(15),
            sample_period: SimDuration::from_millis(100),
            warmup: SimDuration::from_secs(10),
            meter_faults: MeterFaultPlan::clean(),
            hardening: None,
        }
    }

    /// Degrades the controller's energy instrument.
    pub fn with_meter_faults(mut self, plan: MeterFaultPlan) -> Self {
        self.meter_faults = plan;
        self
    }

    /// Enables robustness measures.
    pub fn with_hardening(mut self, h: Hardening) -> Self {
        self.hardening = Some(h);
        self
    }
}

/// Outcome of a goal-directed run, read from the [`GoalHandle`].
#[derive(Clone, Debug, PartialEq)]
pub struct GoalOutcome {
    /// True if the supply lasted to the (possibly revised) goal.
    pub goal_met: bool,
    /// Decisions where demand exceeded supply but nothing could degrade —
    /// the "alert the user: this duration is infeasible" signal.
    pub infeasible_signals: usize,
    /// Degrade upcalls that changed a fidelity.
    pub degrades: usize,
    /// Upgrade upcalls that changed a fidelity.
    pub upgrades: usize,
    /// Decisions skipped because the power estimate was stale (hardened
    /// controllers only).
    pub stale_decisions: usize,
    /// Instant of the first infeasibility alert, if any was raised.
    pub first_infeasible_at: Option<SimTime>,
}

#[derive(Debug)]
struct Shared {
    supply: TimeSeries,
    demand: TimeSeries,
    goal_met: bool,
    infeasible_signals: usize,
    degrades: usize,
    upgrades: usize,
    stale_decisions: usize,
    first_infeasible_at: Option<SimTime>,
    /// Degrade upcalls that changed nothing although the app claimed it
    /// could degrade, per process index — the supervisor's ignored-upcall
    /// feed.
    rejected_degrades: BTreeMap<usize, usize>,
    /// A live goal revision posted through the handle, applied (and
    /// cleared) at the controller's next tick.
    posted_goal: Option<SimDuration>,
    /// A live budget revision posted through the handle: replaces the
    /// initial energy value at the controller's next tick.
    posted_budget_j: Option<Joules>,
}

/// Caller-side handle to inspect a controller after the run. Cloneable so
/// a supervisor can watch the controller's upcall feed live.
#[derive(Clone)]
pub struct GoalHandle {
    shared: Rc<RefCell<Shared>>,
}

impl std::fmt::Debug for GoalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoalHandle").finish_non_exhaustive()
    }
}

impl GoalHandle {
    /// Final outcome.
    pub fn outcome(&self) -> GoalOutcome {
        let s = self.shared.borrow();
        GoalOutcome {
            goal_met: s.goal_met,
            infeasible_signals: s.infeasible_signals,
            degrades: s.degrades,
            upgrades: s.upgrades,
            stale_decisions: s.stale_decisions,
            first_infeasible_at: s.first_infeasible_at,
        }
    }

    /// Residual-energy series sampled at each decision (Figure 19 top).
    /// Not frozen: after a thaw the series start at the thaw.
    pub fn supply_series(&self) -> TimeSeries {
        self.shared.borrow().supply.clone()
    }

    /// Predicted-demand series sampled at each decision (Figure 19 top).
    /// Not frozen: after a thaw the series start at the thaw.
    pub fn demand_series(&self) -> TimeSeries {
        self.shared.borrow().demand.clone()
    }

    /// Degrade upcalls to process index `idx` that changed nothing even
    /// though its fidelity view said it could degrade — the signature of
    /// an app ignoring upcalls.
    pub fn rejected_degrades_of(&self, idx: usize) -> usize {
        self.shared
            .borrow()
            .rejected_degrades
            .get(&idx)
            .copied()
            .unwrap_or(0)
    }

    /// Posts a live goal revision: at the controller's next tick the
    /// deadline becomes `ZERO + new_goal` (the dynamic form of Section
    /// 5.4's longer-duration goals). The last post before the tick wins.
    /// Callers validate against elapsed time; the controller applies
    /// whatever was posted.
    pub fn post_goal_revision(&self, new_goal: SimDuration) {
        self.shared.borrow_mut().posted_goal = Some(new_goal);
    }

    /// Posts a live budget revision: at the controller's next tick the
    /// initial energy value — the base of the hysteresis constant, the
    /// budget reserve, and the energy cross-check — becomes `budget_j`.
    /// The last post before the tick wins. Callers validate positivity
    /// and finiteness; the controller applies whatever was posted.
    pub fn post_budget_revision_j(&self, budget_j: Joules) {
        self.shared.borrow_mut().posted_budget_j = Some(budget_j);
    }
}

/// The goal-directed controller; attach with
/// [`machine::Machine::add_hook`] at [`GoalConfig::sample_period`].
///
/// # Examples
///
/// Make a 150 J battery last 20 seconds of a heavier workload:
///
/// ```
/// use hw560x::EnergySource;
/// use machine::workload::ScriptedWorkload;
/// use machine::{Machine, MachineConfig};
/// use odyssey::{GoalConfig, GoalController, PriorityTable};
/// use simcore::{Joules, SimDuration, SimTime};
///
/// let mut m = Machine::new(MachineConfig {
///     source: EnergySource::battery(Joules(150.0)),
///     ..Default::default()
/// });
/// let pid = m.add_process(Box::new(ScriptedWorkload::idle_for(
///     "app",
///     SimDuration::from_secs(60),
/// )));
/// let mut cfg = GoalConfig::paper(150.0, SimDuration::from_secs(20));
/// cfg.warmup = SimDuration::from_secs(1);
/// let period = cfg.sample_period;
/// let (handle, controller) = GoalController::new(cfg, PriorityTable::new(vec![pid]));
/// m.add_hook(period, controller);
/// let report = m.run_until(SimTime::from_secs(60));
/// assert!(handle.outcome().goal_met);
/// assert!((report.duration_s() - 20.0).abs() < 1.0);
/// ```
pub struct GoalController {
    cfg: GoalConfig,
    priorities: PriorityTable,
    deadline: SimTime,
    meter: OnlinePowerMeter,
    smoother: Smoother,
    last_decision: Option<SimTime>,
    last_upgrade: Option<SimTime>,
    /// Instrument defects between the ledger and the meter.
    sensor: FaultyEnergySensor,
    /// Instant of the last accepted (non-dropped) power sample.
    last_sample_at: Option<SimTime>,
    /// Last accepted cumulative-energy reading (for the cross-check).
    last_metered_j: Joules,
    /// Monotone non-increasing envelope of gauge readings (hardened).
    supply_floor: Joules,
    /// Consecutive deficit decisions (hardened degrade persistence).
    deficit_streak: usize,
    shared: Rc<RefCell<Shared>>,
}

impl std::fmt::Debug for GoalController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoalController")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl GoalController {
    /// Creates a controller and its inspection handle.
    pub fn new(cfg: GoalConfig, priorities: PriorityTable) -> (GoalHandle, Box<GoalController>) {
        let shared = Rc::new(RefCell::new(Shared {
            supply: TimeSeries::new("supply"),
            demand: TimeSeries::new("demand"),
            goal_met: false,
            infeasible_signals: 0,
            degrades: 0,
            upgrades: 0,
            stale_decisions: 0,
            first_infeasible_at: None,
            rejected_degrades: BTreeMap::new(),
            posted_goal: None,
            posted_budget_j: None,
        }));
        let deadline = SimTime::ZERO + cfg.goal;
        let controller = GoalController {
            smoother: Smoother::new(cfg.half_life_frac, cfg.sample_period),
            meter: OnlinePowerMeter::new(),
            deadline,
            priorities,
            last_decision: None,
            last_upgrade: None,
            sensor: FaultyEnergySensor::new(cfg.meter_faults),
            last_sample_at: None,
            last_metered_j: Joules::ZERO,
            supply_floor: Joules::INFINITY,
            deficit_streak: 0,
            shared: shared.clone(),
            cfg,
        };
        (GoalHandle { shared }, Box::new(controller))
    }

    /// Applies the revisions posted through the handle since the last tick.
    fn apply_revisions(&mut self) {
        let mut s = self.shared.borrow_mut();
        if let Some(new_goal) = s.posted_goal.take() {
            self.deadline = SimTime::ZERO + new_goal;
        }
        if let Some(budget_j) = s.posted_budget_j.take() {
            self.cfg.initial_energy_j = budget_j;
        }
    }

    /// The controller's best estimate of remaining supply. The paper's
    /// controller trusts the gauge outright; a hardened one assumes the
    /// gauge may lie high and takes the most pessimistic of (a) the
    /// monotone envelope of gauge readings — a real battery never regains
    /// energy, so upward jumps are sensor artifacts — and (b) the initial
    /// energy value minus everything the on-line meter has seen consumed,
    /// then withholds the budget reserve from the result.
    fn estimate_supply(&mut self, gauge_j: Joules) -> Joules {
        if self.cfg.hardening.is_none() {
            return gauge_j;
        }
        if gauge_j.is_finite() {
            self.supply_floor = self.supply_floor.min(gauge_j);
        }
        let mut supply = self
            .supply_floor
            .min((self.cfg.initial_energy_j - self.last_metered_j).max(Joules::ZERO));
        if supply.is_finite() {
            supply =
                (supply - Hardening::RESERVE_FRAC * self.cfg.initial_energy_j).max(Joules::ZERO);
        }
        supply
    }

    fn decide(&mut self, now: SimTime, view: &mut MachineView<'_>) {
        let Some(power) = self.smoother.value() else {
            return;
        };
        if self.cfg.hardening.is_some() {
            let fresh = self
                .last_sample_at
                .is_some_and(|t| now.saturating_since(t) <= Hardening::STALE_AFTER);
            if !fresh {
                // The power estimate is fiction; don't act on it.
                self.shared.borrow_mut().stale_decisions += 1;
                return;
            }
        }
        let supply = self.estimate_supply(view.residual_j());
        let demand = predicted_demand_j(power, self.deadline.saturating_since(now));
        {
            let mut s = self.shared.borrow_mut();
            s.supply.record(now, supply.0);
            s.demand.record(now, demand.0);
        }
        view.emit_trace(TraceEvent::GoalBudget {
            supply_j: supply.0,
            demand_j: demand.0,
        });
        if demand > supply {
            self.deficit_streak += 1;
            if self.cfg.hardening.is_some() && self.deficit_streak < Hardening::DEGRADE_PERSISTENCE
            {
                return;
            }
            for pid in self.priorities.degrade_order() {
                #[expect(
                    clippy::expect_used,
                    reason = "the priority table names this machine's processes"
                )]
                let info = view
                    .process(pid.index())
                    .expect("prioritised pid not on the machine");
                if info.done || info.suspended || !info.fidelity.can_degrade() {
                    continue;
                }
                if view.upcall(pid, AdaptDirection::Degrade) {
                    self.shared.borrow_mut().degrades += 1;
                    return;
                }
                // The app claims it can degrade yet the upcall changed
                // nothing. Publish the rejection for the supervisor and
                // fall through to the next candidate.
                *self
                    .shared
                    .borrow_mut()
                    .rejected_degrades
                    .entry(pid.index())
                    .or_insert(0) += 1;
            }
            // Every application is already at lowest fidelity: the goal is
            // infeasible; alert the user.
            view.emit_trace(TraceEvent::GoalInfeasible);
            let mut s = self.shared.borrow_mut();
            s.infeasible_signals += 1;
            s.first_infeasible_at.get_or_insert(now);
        } else {
            self.deficit_streak = 0;
            let hyst = self.cfg.hysteresis_supply_frac * supply
                + self.cfg.hysteresis_initial_frac * self.cfg.initial_energy_j;
            if supply <= demand + hyst {
                return;
            }
            if let Some(last) = self.last_upgrade {
                if now.saturating_since(last) < self.cfg.upgrade_min_interval {
                    return;
                }
            }
            for pid in self.priorities.upgrade_order() {
                #[expect(
                    clippy::expect_used,
                    reason = "the priority table names this machine's processes"
                )]
                let info = view
                    .process(pid.index())
                    .expect("prioritised pid not on the machine");
                if info.done || info.suspended || !info.fidelity.can_upgrade() {
                    continue;
                }
                if view.upcall(pid, AdaptDirection::Upgrade) {
                    self.shared.borrow_mut().upgrades += 1;
                    self.last_upgrade = Some(now);
                    return;
                }
            }
        }
    }
}

impl ControlHook for GoalController {
    fn freeze(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // The only mutable piece of cfg: a posted budget revision
        // replaces the initial energy value.
        w.put(&self.cfg.initial_energy_j);
        w.put(&self.deadline);
        w.put(&self.meter);
        self.smoother.freeze_into(w);
        w.put(&self.last_decision);
        w.put(&self.last_upgrade);
        self.sensor.freeze_into(w);
        w.put(&self.last_sample_at);
        w.put(&self.last_metered_j);
        w.put(&self.supply_floor);
        w.put(&self.deficit_streak);
        // The supply/demand series are output history, like trace
        // records: they stay out, so a thawed controller's series start
        // at the thaw and the snapshot does not grow with the run.
        let s = self.shared.borrow();
        w.put(&s.goal_met);
        w.put(&s.infeasible_signals);
        w.put(&s.degrades);
        w.put(&s.upgrades);
        w.put(&s.stale_decisions);
        w.put(&s.first_infeasible_at);
        w.put(&s.rejected_degrades);
        w.put(&s.posted_goal);
        w.put(&s.posted_budget_j);
        Ok(())
    }

    fn thaw(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.cfg.initial_energy_j = r.take()?;
        self.deadline = r.take()?;
        self.meter = r.take()?;
        self.smoother.thaw_from(r)?;
        self.last_decision = r.take()?;
        self.last_upgrade = r.take()?;
        self.sensor.thaw_from(r)?;
        self.last_sample_at = r.take()?;
        self.last_metered_j = r.take()?;
        self.supply_floor = r.take()?;
        self.deficit_streak = r.take()?;
        let mut s = self.shared.borrow_mut();
        s.goal_met = r.take()?;
        s.infeasible_signals = r.take()?;
        s.degrades = r.take()?;
        s.upgrades = r.take()?;
        s.stale_decisions = r.take()?;
        s.first_infeasible_at = r.take()?;
        s.rejected_degrades = r.take()?;
        s.posted_goal = r.take()?;
        s.posted_budget_j = r.take()?;
        Ok(())
    }

    fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
        self.apply_revisions();
        // The controller never reads the ledger directly: its cumulative
        // energy passes through the (possibly faulty) instrument, which
        // may drop the sample entirely.
        match self.sensor.observe(view.energy_consumed_j()) {
            Some(metered) => {
                self.last_metered_j = metered;
                if let Some(mut p) = self.meter.update(now, metered) {
                    if self.cfg.hardening.is_some() {
                        let raw = p;
                        let (lo, hi) = Hardening::POWER_CLAMP_W;
                        p = Watts(p.0.clamp(lo.0, hi.0));
                        if p != raw {
                            view.emit_trace(TraceEvent::GoalClamp {
                                raw_power_w: raw.0,
                                power_w: p.0,
                            });
                        }
                    }
                    let remaining = self.deadline.saturating_since(now).as_secs_f64();
                    self.smoother.update(p, remaining);
                    self.last_sample_at = Some(now);
                }
            }
            None => view.emit_trace(TraceEvent::MeterFault { kind: "dropout" }),
        }
        if now >= self.deadline {
            self.shared.borrow_mut().goal_met = true;
            view.request_stop();
            return;
        }
        if now.saturating_since(SimTime::ZERO) < self.cfg.warmup {
            return;
        }
        let due = match self.last_decision {
            None => true,
            Some(t) => now.saturating_since(t) >= DECISION_PERIOD,
        };
        if due {
            self.last_decision = Some(now);
            self.decide(now, view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw560x::{DisplayState, EnergySource};
    use machine::workload::ScriptedWorkload;
    use machine::{Activity, FidelityView, Machine, MachineConfig, Step, Workload};
    use simcore::SimTime;

    /// A periodic workload whose duty cycle scales with fidelity level:
    /// level 2 → 90% CPU, level 1 → 45%, level 0 → 10%.
    struct DutyCycle {
        level: usize,
        until: SimTime,
    }

    impl DutyCycle {
        const PERIOD: SimDuration = SimDuration::from_millis(1000);

        fn duty(&self) -> f64 {
            match self.level {
                0 => 0.10,
                1 => 0.45,
                _ => 0.90,
            }
        }
    }

    impl Workload for DutyCycle {
        fn name(&self) -> &'static str {
            "duty"
        }
        fn names(&self) -> Vec<&'static str> {
            vec!["burn"]
        }
        fn display_need(&self) -> DisplayState {
            DisplayState::Off
        }
        fn poll(&mut self, now: SimTime) -> Step {
            if now >= self.until {
                return Step::Done;
            }
            // Alternate burst and sleep; the burst length encodes fidelity.
            let phase = now.as_micros() % Self::PERIOD.as_micros();
            if phase == 0 {
                Step::Run(Activity::Cpu {
                    duration: Self::PERIOD.mul_f64(self.duty()),
                    intensity: 1.0,
                    procedure: "burn",
                })
            } else {
                let next = now + (Self::PERIOD - SimDuration::from_micros(phase));
                Step::Run(Activity::Wait { until: next })
            }
        }
        fn fidelity(&self) -> FidelityView {
            FidelityView::new(self.level, 3)
        }
        fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
            match dir {
                AdaptDirection::Degrade if self.level > 0 => {
                    self.level -= 1;
                    true
                }
                AdaptDirection::Upgrade if self.level < 2 => {
                    self.level += 1;
                    true
                }
                _ => false,
            }
        }
    }

    fn run_goal(
        initial_j: f64,
        goal_s: u64,
        workload_s: u64,
    ) -> (GoalOutcome, machine::RunReport, GoalHandle) {
        // Unit scenarios use tiny batteries that can drain within the
        // default warmup; decide from the first samples instead.
        let mut cfg = GoalConfig::paper(initial_j, SimDuration::from_secs(goal_s));
        cfg.warmup = SimDuration::from_secs(1);
        let mut m = Machine::new(MachineConfig {
            source: EnergySource::battery(Joules(initial_j)),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(DutyCycle {
            level: 2,
            until: SimTime::from_secs(workload_s),
        }));
        let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
        m.add_hook(cfg.sample_period, hook);
        let report = m.run();
        (handle.outcome(), report, handle)
    }

    /// Rough power at each duty level: base all-off ≈ 3.47 W + duty × 9.5.
    /// Level 2 ≈ 12.2 W, level 0 ≈ 4.5 W.
    #[test]
    fn controller_degrades_to_meet_tight_goal() {
        // 300 s goal with 2000 J: full fidelity needs ~3700 J, lowest
        // ~1350 J — feasible only after degradation.
        let (outcome, report, _h) = run_goal(2000.0, 300, 600);
        assert!(outcome.goal_met, "goal missed: {outcome:?}");
        assert!(!report.exhausted);
        assert!(outcome.degrades >= 1);
        assert!(
            (report.duration_s() - 300.0).abs() < 1.0,
            "stopped at {}",
            report.duration_s()
        );
    }

    /// With abundant energy the controller never needs to degrade.
    #[test]
    fn abundant_energy_keeps_full_fidelity() {
        let (outcome, report, _h) = run_goal(10_000.0, 300, 600);
        assert!(outcome.goal_met);
        assert_eq!(outcome.degrades, 0);
        assert_eq!(report.adaptations_of("duty"), 0);
    }

    /// An infeasible goal is detected and flagged.
    #[test]
    fn infeasible_goal_is_flagged() {
        // 100 J cannot cover 300 s even at lowest fidelity (~4.5 W).
        let (outcome, report, _h) = run_goal(100.0, 300, 600);
        assert!(!outcome.goal_met);
        assert!(report.exhausted);
        assert!(outcome.infeasible_signals > 0, "{outcome:?}");
    }

    /// After degradation, surplus energy triggers paced upgrades.
    #[test]
    fn upgrades_are_rate_capped() {
        // Start scarce so it degrades, then the workload's low draw leaves
        // surplus; upgrades must be ≥ 15 s apart.
        let (outcome, report, _h) = run_goal(2600.0, 400, 800);
        assert!(outcome.goal_met);
        if outcome.upgrades >= 2 {
            let series = &report.fidelity[0];
            let mut ups: Vec<SimTime> = Vec::new();
            let pts = series.points();
            for w in pts.windows(2) {
                if w[1].1 > w[0].1 {
                    ups.push(pts[pts.iter().position(|p| p == &w[1]).unwrap()].0);
                }
            }
            for pair in ups.windows(2) {
                assert!(
                    pair[1].saturating_since(pair[0]) >= SimDuration::from_secs(15),
                    "upgrades too close: {:?}",
                    pair
                );
            }
        }
    }

    /// Supply and demand series are recorded and demand tracks supply.
    #[test]
    fn series_are_recorded() {
        let (outcome, _report, handle) = run_goal(2000.0, 300, 600);
        assert!(outcome.goal_met);
        let supply = handle.supply_series();
        let demand = handle.demand_series();
        assert!(supply.len() > 100);
        assert_eq!(supply.len(), demand.len());
        // Near the goal, demand must track supply to within a few
        // percent of the initial energy.
        let t = SimTime::from_secs(290);
        let s = supply.value_at(t).unwrap();
        let d = demand.value_at(t).unwrap();
        assert!(
            (d - s).abs() / 2000.0 < 0.05,
            "supply {s} demand {d} diverged"
        );
    }

    /// A goal revision posted through the handle moves the deadline at
    /// the controller's next tick — the live-reconfiguration seam.
    #[test]
    fn posted_goal_revision_moves_the_deadline() {
        let cfg = GoalConfig::paper(4000.0, SimDuration::from_secs(300));
        let mut m = Machine::new(MachineConfig {
            source: EnergySource::battery(Joules(4000.0)),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(DutyCycle {
            level: 2,
            until: SimTime::from_secs(800),
        }));
        let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
        m.add_hook(cfg.sample_period, hook);
        // Step the run halfway, post a revision, and continue: the
        // controller must stop at the revised deadline.
        m.run_until(SimTime::from_secs(100));
        handle.post_goal_revision(SimDuration::from_secs(400));
        let report = m.run_until(SimTime::from_secs(800));
        assert!(handle.outcome().goal_met);
        assert!(
            (report.duration_s() - 400.0).abs() < 1.0,
            "ended at {}",
            report.duration_s()
        );
    }

    /// A posted budget revision replaces the initial energy value the
    /// hysteresis constant and reserve are computed from.
    #[test]
    fn posted_budget_revision_is_consumed() {
        let cfg = GoalConfig::paper(2000.0, SimDuration::from_secs(300));
        let mut m = Machine::new(MachineConfig {
            source: EnergySource::battery(Joules(2000.0)),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(DutyCycle {
            level: 2,
            until: SimTime::from_secs(600),
        }));
        let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
        m.add_hook(cfg.sample_period, hook);
        m.run_until(SimTime::from_secs(50));
        handle.post_budget_revision_j(Joules(1500.0));
        let report = m.run_until(SimTime::from_secs(600));
        // The run still terminates deterministically; the revision is
        // consumed (posting again is a fresh request, not an error).
        assert!(handle.outcome().goal_met || report.exhausted);
        handle.post_budget_revision_j(Joules(1000.0));
    }

    /// Against a gauge that reads 20% optimistic and drifts higher, the
    /// paper's controller under-degrades and dies early; the hardened
    /// controller's energy cross-check keeps the goal.
    #[test]
    fn hardened_controller_survives_lying_gauge() {
        use hw560x::BatteryGauge;
        use machine::FaultConfig;

        let run = |hardened: bool| {
            let mut cfg = GoalConfig::paper(2000.0, SimDuration::from_secs(300));
            cfg.warmup = SimDuration::from_secs(1);
            if hardened {
                cfg = cfg.with_hardening(Hardening::standard());
            }
            let mut m = Machine::new(MachineConfig {
                source: EnergySource::battery(Joules(2000.0)),
                faults: FaultConfig {
                    gauge: BatteryGauge::hostile(9, 1.0),
                    ..FaultConfig::clean()
                },
                ..Default::default()
            });
            let pid = m.add_process(Box::new(DutyCycle {
                level: 2,
                until: SimTime::from_secs(600),
            }));
            let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
            m.add_hook(cfg.sample_period, hook);
            let report = m.run();
            (handle.outcome(), report)
        };
        let (naive, naive_report) = run(false);
        let (hard, hard_report) = run(true);
        assert!(hard.goal_met, "hardened missed the goal: {hard:?}");
        assert!(!hard_report.exhausted);
        assert!(
            naive_report.exhausted && !naive.goal_met,
            "naive should die early believing the gauge: {naive:?} ended at {}",
            naive_report.duration_s()
        );
        assert!(naive_report.duration_s() < 295.0);
    }

    /// Heavy meter dropout starves the demand predictor; the hardened
    /// controller pauses (counting stale decisions) instead of panicking
    /// or acting on fiction, and still finishes the run.
    #[test]
    fn dropout_pauses_decisions_without_panic() {
        let mut cfg = GoalConfig::paper(4000.0, SimDuration::from_secs(300))
            .with_meter_faults(MeterFaultPlan {
                seed: 17,
                drop_p: 0.95,
                jitter_j: Joules(0.5),
                quantum_j: Joules(1.0),
            })
            .with_hardening(Hardening::standard());
        cfg.warmup = SimDuration::from_secs(1);
        let mut m = Machine::new(MachineConfig {
            source: EnergySource::battery(Joules(4000.0)),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(DutyCycle {
            level: 2,
            until: SimTime::from_secs(600),
        }));
        let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
        m.add_hook(cfg.sample_period, hook);
        let report = m.run();
        let outcome = handle.outcome();
        assert!(
            outcome.stale_decisions > 0,
            "95% dropout must produce stale windows: {outcome:?}"
        );
        assert!(report.duration_s() > 290.0);
    }

    /// The controller leaves non-adaptive workloads alone.
    #[test]
    fn fixed_workloads_are_skipped() {
        let mut cfg = GoalConfig::paper(50.0, SimDuration::from_secs(60));
        cfg.warmup = SimDuration::from_secs(1);
        let mut m = Machine::new(MachineConfig {
            source: EnergySource::battery(Joules(50.0)),
            ..Default::default()
        });
        let pid = m.add_process(Box::new(ScriptedWorkload::idle_for(
            "fixed",
            SimDuration::from_secs(120),
        )));
        let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
        m.add_hook(cfg.sample_period, hook);
        let report = m.run();
        // Nothing can adapt: infeasible signals, exhaustion before goal.
        assert!(report.exhausted);
        let outcome = handle.outcome();
        assert_eq!(outcome.degrades, 0);
        assert!(outcome.infeasible_signals > 0);
    }
}
