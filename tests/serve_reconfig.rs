//! Live-reconfiguration edge cases on the real supervised goal rig.
//!
//! The graceful-degradation contract of the serving layer: every
//! reconfiguration command — however hostile — ends in a traced
//! rejection or a clean directive, never a panic. These tests drive the
//! supervised k=2 golden rig (the same one the torture sweep replays)
//! through the hostile corners: a goal moved to an already-missed
//! target, a horizon shrunk below elapsed time, a zero or non-finite
//! budget, reconfiguration during an app quarantine, and a dead-letter
//! flood that must escalate into the Supervisor's strike ladder.

use energy_adaptation::experiments::serve::build_session;
use energy_adaptation::simcore::{Joules, SimDuration, SimTime};
use energy_adaptation::simserve::{Directive, ReconfigCommand, Sample, Session, ESCALATE_AFTER};

const SEED: u64 = 42;

/// Machine index of the background video player in the supervised rig
/// (added after the speech, web, and map members).
const VIDEO: usize = 3;

#[expect(clippy::expect_used, reason = "a broken fixture fails the test")]
fn session() -> Session {
    build_session(SEED).expect("golden supervised rig")
}

/// Flattens an ingest batch into (kind, verdict) pairs for assertion.
fn verdicts(out: &[Directive]) -> Vec<(&'static str, &'static str)> {
    out.iter()
        .filter_map(|d| match d {
            Directive::ReconfigRejected { kind, reason, .. } => Some((*kind, *reason)),
            Directive::ReconfigApplied { kind, .. } => Some((*kind, "applied")),
            _ => None,
        })
        .collect()
}

/// A goal revision pointing at a deadline the session has already passed
/// is rejected with a traced verdict, and the session keeps serving.
#[test]
fn goal_change_to_already_missed_target_is_rejected() {
    let mut s = session();
    let out = s
        .ingest(&[
            Sample::tick(100.0),
            Sample::reconfig(101.0, ReconfigCommand::Goal(SimDuration::from_secs(50))),
            Sample::reconfig(102.0, ReconfigCommand::Goal(SimDuration::ZERO)),
            Sample::tick(110.0),
        ])
        .expect("hostile goal revisions must not kill the session");
    let v = verdicts(&out);
    assert!(v.contains(&("goal", "already_missed")), "{v:?}");
    assert!(v.contains(&("goal", "non_positive")), "{v:?}");
    assert_eq!(s.cursor(), SimTime::from_secs(110));
}

/// Zero, negative, and non-finite budgets are all rejected with distinct
/// traced reasons; a sane budget is applied as a clean directive.
#[test]
fn budget_zero_and_non_finite_are_rejected() {
    let mut s = session();
    let out = s
        .ingest(&[
            Sample::reconfig(10.0, ReconfigCommand::BudgetJ(Joules(0.0))),
            Sample::reconfig(11.0, ReconfigCommand::BudgetJ(Joules(-250.0))),
            Sample::reconfig(12.0, ReconfigCommand::BudgetJ(Joules(f64::NAN))),
            Sample::reconfig(13.0, ReconfigCommand::BudgetJ(Joules(f64::INFINITY))),
            Sample::reconfig(14.0, ReconfigCommand::BudgetJ(Joules(12_000.0))),
        ])
        .expect("hostile budgets must not kill the session");
    assert_eq!(
        verdicts(&out),
        vec![
            ("budget", "non_positive"),
            ("budget", "non_positive"),
            ("budget", "not_finite"),
            ("budget", "not_finite"),
            ("budget", "applied"),
        ]
    );
}

/// A horizon moved below the session's elapsed time is rejected; a valid
/// shrink is applied and actually bounds `finish()`.
#[test]
fn horizon_shrink_below_elapsed_is_rejected() {
    let mut s = session();
    let out = s
        .ingest(&[
            Sample::tick(300.0),
            Sample::reconfig(301.0, ReconfigCommand::Horizon(SimTime::from_secs(200))),
            Sample::reconfig(302.0, ReconfigCommand::Horizon(SimTime::from_secs(301))),
            Sample::reconfig(303.0, ReconfigCommand::Horizon(SimTime::from_secs(400))),
        ])
        .expect("hostile horizons must not kill the session");
    assert_eq!(
        verdicts(&out),
        vec![
            ("horizon", "below_elapsed"),
            ("horizon", "below_elapsed"),
            ("horizon", "applied"),
        ]
    );
    let report = s.finish().expect("finish at the revised horizon");
    assert_eq!(report.end, SimTime::from_secs(400));
}

/// Reconfiguration during an app quarantine: double quarantine is
/// rejected, a goal revision still applies cleanly, and re-admission
/// round-trips through a Restarted directive.
#[test]
fn reconfig_during_quarantine_is_validated_not_panicked() {
    let mut s = session();
    let out = s
        .ingest(&[
            Sample::reconfig(50.0, ReconfigCommand::Quarantine(VIDEO)),
            Sample::tick(52.0),
            Sample::reconfig(55.0, ReconfigCommand::Quarantine(VIDEO)),
            Sample::reconfig(60.0, ReconfigCommand::Goal(SimDuration::from_secs(1200))),
            Sample::reconfig(65.0, ReconfigCommand::Readmit(VIDEO)),
            Sample::reconfig(66.0, ReconfigCommand::Readmit(VIDEO)),
            Sample::tick(70.0),
        ])
        .expect("reconfig during quarantine must not kill the session");
    let v = verdicts(&out);
    assert!(v.contains(&("quarantine", "applied")), "{v:?}");
    assert!(v.contains(&("quarantine", "already_quarantined")), "{v:?}");
    assert!(v.contains(&("goal", "applied")), "{v:?}");
    assert!(v.contains(&("readmit", "applied")), "{v:?}");
    let pid = VIDEO as u64;
    assert!(
        out.iter()
            .any(|d| matches!(d, Directive::Quarantined { pid: p, .. } if *p == pid)),
        "no Quarantined directive in {out:?}"
    );
    assert!(
        out.iter()
            .any(|d| matches!(d, Directive::Restarted { pid: p, .. } if *p == pid)),
        "no Restarted directive in {out:?}"
    );
}

/// An applied goal revision is live: with the deadline pulled in to
/// 600 s the controller ends the run there, and later samples are
/// dead-lettered as arriving after the stop.
#[test]
fn applied_goal_revision_moves_the_deadline() {
    let mut s = session();
    let out = s
        .ingest(&[
            Sample::reconfig(100.0, ReconfigCommand::Goal(SimDuration::from_secs(600))),
            Sample::tick(650.0),
            Sample::tick(700.0),
        ])
        .expect("goal revision must not kill the session");
    let v = verdicts(&out);
    assert!(v.contains(&("goal", "applied")), "{v:?}");
    assert!(
        out.iter().any(
            |d| matches!(d, Directive::DeadLettered { reason, .. } if *reason == "after_stop")
        ),
        "run did not stop at the revised 600 s goal: {v:?}"
    );
}

/// A flood of malformed samples attributable to one process escalates
/// into the Supervisor ladder: the service posts an external strike and
/// the supervisor traces it under the `service` detector.
#[test]
fn dead_letter_flood_escalates_into_supervisor_strike() {
    let mut s = session();
    // Exactly ESCALATE_AFTER dead letters, all blamed on the video app.
    let flood: Vec<Sample> = (0..ESCALATE_AFTER)
        .map(|_| Sample::tick(f64::NAN).from_origin(VIDEO))
        .collect();
    s.ingest(&flood).expect("flood must not kill the session");
    assert_eq!(
        s.dead_letters().expect("always kept").total(),
        ESCALATE_AFTER
    );
    // The strike is drained at the supervisor's next tick (1 s period).
    s.ingest(&[Sample::tick(30.0)]).expect("tick");
    let strikes: Vec<String> = s
        .trace_jsonl()
        .into_iter()
        .filter(|l| l.contains("supervisor_strike") && l.contains("\"detector\":\"service\""))
        .collect();
    assert_eq!(strikes.len(), 1, "expected exactly one escalation strike");
}
