//! Fault edge cases on the shared link: degenerate and overlapping
//! windows must leave the fluid model consistent — flows freeze during
//! outages, resume with their bytes intact, and never gain or lose
//! traffic to bookkeeping.

#![expect(clippy::float_cmp, reason = "tests pin exact values")]

use netsim::{LinkFaultTimeline, SharedLink};
use simcore::fault::{FaultSchedule, FaultWindow};
use simcore::{SimDuration, SimTime};

const CAP: f64 = 2.0e6;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn win(start: u64, end: u64) -> FaultWindow {
    FaultWindow {
        start: secs(start),
        end: secs(end),
    }
}

/// Drives `link` through the timeline's capacity transitions up to
/// `until`, applying each factor as the machine executor would, and
/// returns the completion instant of the last flow to finish.
fn drive(link: &mut SharedLink, timeline: &LinkFaultTimeline, until: SimTime) -> Option<SimTime> {
    let mut at = SimTime::ZERO;
    link.set_rate_factor(at, timeline.capacity_factor_at(at));
    let mut last_done = None;
    loop {
        let next = timeline
            .next_capacity_transition_after(at)
            .filter(|&t| t < until);
        // Process any completion that lands before the next transition.
        while let Some((done, _)) = link.next_completion(at) {
            if done > next.unwrap_or(until) {
                break;
            }
            link.advance(done);
            at = done;
            last_done = Some(done);
        }
        let Some(t) = next else {
            link.advance(until);
            break;
        };
        link.set_rate_factor(t, timeline.capacity_factor_at(t));
        at = t;
    }
    last_done
}

/// A zero-duration outage window is no outage at all: it merges away at
/// schedule construction, and even applying the factor flip at a single
/// instant perturbs nothing.
#[test]
fn zero_duration_outage_is_a_no_op() {
    let timeline = LinkFaultTimeline::scripted(
        FaultSchedule::new(vec![win(10, 10)]),
        FaultSchedule::empty(),
        1.0,
        FaultSchedule::empty(),
        SimDuration::ZERO,
    );
    assert!(timeline.is_clean());
    assert_eq!(timeline.capacity_factor_at(secs(10)), 1.0);
    assert_eq!(timeline.next_capacity_transition_after(SimTime::ZERO), None);

    // An instantaneous down/up flip at one instant leaves the completion
    // of an in-flight transfer exactly where it was.
    let mut link = SharedLink::new(CAP);
    link.start_flow(SimTime::ZERO, 500_000); // 4 Mbit → 2 s.
    link.set_rate_factor(secs(1), 0.0);
    link.set_rate_factor(secs(1), 1.0);
    let (done, _) = link.next_completion(secs(1)).unwrap();
    assert!(
        (done.as_secs_f64() - 2.0).abs() < 1e-6,
        "zero-length outage moved completion to {done}"
    );
}

/// Two outages that meet end-to-start merge into one; a flow frozen
/// across the seam is indistinguishable from a flow frozen by a single
/// window of the combined length, and a redundant mid-outage factor
/// write changes nothing.
#[test]
fn back_to_back_outages_behave_as_one() {
    let merged = FaultSchedule::new(vec![win(10, 20), win(20, 30)]);
    assert_eq!(merged.windows(), &[win(10, 30)]);

    let run = |redundant_write: bool| {
        let mut link = SharedLink::new(CAP);
        link.start_flow(secs(5), 3_750_000); // 30 Mbit → 15 s at full rate.
        link.set_rate_factor(secs(10), 0.0);
        assert!(link.next_completion(secs(10)).is_none());
        if redundant_write {
            // The seam between the two windows: still fully down.
            link.set_rate_factor(secs(20), 0.0);
            assert!(link.next_completion(secs(20)).is_none());
        }
        link.set_rate_factor(secs(30), 1.0);
        assert_eq!(link.active_count(), 1, "flow must survive the outage");
        link.next_completion(secs(30)).unwrap().0
    };
    let with_seam = run(true);
    let without = run(false);
    assert_eq!(with_seam, without);
    // 5 s transferred before the outage, 20 s frozen, 10 s to finish.
    assert!(
        (with_seam.as_secs_f64() - 40.0).abs() < 1e-6,
        "expected completion at 40 s, got {with_seam}"
    );
}

/// A bandwidth dip overlapping an outage: the outage wins while both are
/// active, the dip's tail then throttles the link, and full capacity
/// returns when the dip clears. The flow's bytes are conserved through
/// all three regimes.
#[test]
fn dip_overlapping_outage_freezes_then_resumes_slow() {
    let timeline = LinkFaultTimeline::scripted(
        FaultSchedule::new(vec![win(10, 20)]),
        FaultSchedule::new(vec![win(15, 25)]),
        0.3,
        FaultSchedule::empty(),
        SimDuration::ZERO,
    );
    assert_eq!(timeline.capacity_factor_at(secs(12)), 0.0);
    assert_eq!(
        timeline.capacity_factor_at(secs(17)),
        0.0,
        "an outage must win over a concurrent dip"
    );
    assert_eq!(timeline.capacity_factor_at(secs(22)), 0.3);
    assert_eq!(timeline.capacity_factor_at(secs(26)), 1.0);

    let mut link = SharedLink::new(CAP);
    link.start_flow(SimTime::ZERO, 3_750_000); // 30 Mbit.
    let done = drive(&mut link, &timeline, secs(120)).expect("flow completes");
    // 0–10 s at 2 Mb/s → 20 Mbit; 10–20 s frozen; 20–25 s at 0.6 Mb/s
    // → 3 Mbit; the last 7 Mbit at full rate → 3.5 s. Done at 28.5 s.
    assert!(
        (done.as_secs_f64() - 28.5).abs() < 1e-5,
        "expected completion at 28.5 s, got {done}"
    );
    assert_eq!(link.active_count(), 0);
    assert!(link.take_completed().is_some());
    assert_eq!(link.total_bytes_carried(), 3_750_000);
}

/// Freezing is exact: however finely the outage is chopped into advance
/// steps, a frozen flow loses nothing and the completion instant is
/// unchanged.
#[test]
fn chopped_outage_advances_lose_no_bytes() {
    let run = |chops: u64| {
        let mut link = SharedLink::new(CAP);
        link.start_flow(SimTime::ZERO, 500_000); // 4 Mbit → 2 s at full.
        link.set_rate_factor(secs(1), 0.0);
        for i in 1..=chops {
            link.advance(secs(1) + SimDuration::from_millis(i * 9_000 / chops));
        }
        link.set_rate_factor(secs(10), 1.0);
        link.next_completion(secs(10)).unwrap().0
    };
    let coarse = run(1);
    let fine = run(900);
    assert_eq!(coarse, fine, "chopping a frozen window changed completion");
    // 1 s transferred, 9 s frozen, 1 s remaining → done at 11 s.
    assert!((coarse.as_secs_f64() - 11.0).abs() < 1e-6);
}

/// A flow that both starts and ends inside a dip window sees exactly the
/// dipped rate, and a flow started during an outage stays queued at zero
/// progress until capacity returns.
#[test]
fn flows_born_under_faults_wait_their_turn() {
    let mut link = SharedLink::new(CAP);
    link.set_rate_factor(SimTime::ZERO, 0.0);
    link.start_flow(secs(2), 250_000); // 2 Mbit, born mid-outage.
    assert!(link.next_completion(secs(2)).is_none());
    link.advance(secs(8));
    assert_eq!(link.active_count(), 1);
    link.set_rate_factor(secs(9), 0.3); // outage ends into a dip
    let (done, _) = link.next_completion(secs(9)).unwrap();
    // 2 Mbit at 0.6 Mb/s from t = 9 s.
    assert!(
        (done.as_secs_f64() - (9.0 + 2.0 / 0.6)).abs() < 1e-5,
        "born-under-outage flow completed at {done}"
    );
}
