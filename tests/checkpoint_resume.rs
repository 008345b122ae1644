//! Crash-tolerant control plane: checkpoint/resume proof.
//!
//! The simulation is deterministic, so a checkpoint is a proof point —
//! (simulated time, digest of live state) — and resume is replay: rebuild
//! the identical rig, run to the journaled checkpoint, assert the digest
//! matches, and continue. These tests exercise that end to end on the
//! Section 5 goal workload: a run that "crashes" halfway leaves only its
//! journal behind, and the resumed run reproduces the uninterrupted
//! run's final state bit for bit.

use std::cell::RefCell;
use std::rc::Rc;

use energy_adaptation::apps::composite::{composite_members, CompositeMode};
use energy_adaptation::apps::datasets::VIDEO_CLIPS;
use energy_adaptation::apps::{Misbehavior, VideoPlayer};
use energy_adaptation::hw560x::EnergySource;
use energy_adaptation::machine::{CheckpointHook, Machine, MachineConfig, Workload};
use energy_adaptation::odyssey::goal::MONITOR_OVERHEAD_W;
use energy_adaptation::odyssey::{
    GoalConfig, GoalController, GoalOutcome, PriorityTable, Supervisor, SupervisorConfig,
};
use energy_adaptation::simcore::fault::{FaultSchedule, FaultWindow};
use energy_adaptation::simcore::{
    RunJournal, SimDuration, SimRng, SimTime, TraceCategory, TraceHandle, TraceSink, Watts,
};

const GOAL_S: u64 = 240;
const ENERGY_J: f64 = 3000.0;
const CKPT_EVERY: SimDuration = SimDuration::from_secs(30);

/// Everything a run leaves behind: the journal survives a crash; the
/// rest exists only if the run finished.
struct Finished {
    journal: RunJournal,
    final_digest: u64,
    end: SimTime,
    total_bits: u64,
    residual_bits: u64,
    outcome: GoalOutcome,
    trace: Vec<String>,
}

/// Builds the Section 5 goal rig (composite loop + background video,
/// optionally wedged and supervised) and runs it to `stop_at` (a crash)
/// or to completion.
#[expect(clippy::expect_used, reason = "a broken fixture fails the test")]
fn run(seed: u64, wedged: bool, supervised: bool, stop_at: Option<SimTime>) -> Finished {
    let mut rng = SimRng::new(seed);
    let cfg = GoalConfig::paper(ENERGY_J, SimDuration::from_secs(GOAL_S));
    let goal = cfg.goal;
    let horizon = SimTime::ZERO + goal * 3 + SimDuration::from_secs(600);
    let mut m = Machine::new(MachineConfig {
        source: EnergySource::battery(cfg.initial_energy_j),
        monitor_overhead_w: MONITOR_OVERHEAD_W,
        ..Default::default()
    });
    // Members arrive as [speech, web, map].
    let members = composite_members(
        CompositeMode::Every {
            period: SimDuration::from_secs(25),
            horizon,
        },
        true,
        &mut rng,
    );
    let mut pids = Vec::new();
    for member in members {
        pids.push(m.add_process(Box::new(member)));
    }
    let video: Box<dyn Workload> =
        Box::new(VideoPlayer::adaptive(VIDEO_CLIPS[0], &mut rng).looping_until(horizon));
    let video: Box<dyn Workload> = if wedged {
        let wedge = FaultSchedule::new(vec![FaultWindow {
            start: SimTime::from_secs(100),
            end: horizon,
        }]);
        Box::new(Misbehavior::hang(video, wedge).restartable())
    } else {
        video
    };
    let video_pid = m.add_background_process(video);
    // Lowest to highest priority: speech, video, map, web.
    let priorities = PriorityTable::new(vec![pids[0], video_pid, pids[2], pids[1]]);
    let sample_period = cfg.sample_period;
    let (handle, controller) = GoalController::new(cfg, priorities);
    m.add_hook(sample_period, controller);
    if supervised {
        let sup_cfg = SupervisorConfig::standard();
        let period = sup_cfg.period;
        let (_sup_handle, mut sup) = Supervisor::new(sup_cfg);
        sup.watch(video_pid, [0.5, 0.8, 1.2, 2.0].map(Watts).to_vec(), 3);
        sup.attach_goal(handle.clone());
        m.add_hook(period, sup);
    }
    let journal = Rc::new(RefCell::new(RunJournal::new(CKPT_EVERY)));
    m.add_hook(CKPT_EVERY, Box::new(CheckpointHook::new(journal.clone())));
    let trace = TraceHandle::new(
        TraceSink::new()
            .with_categories(&TraceCategory::CONTROL_PLANE)
            .with_jsonl(),
    );
    m.set_trace(trace.clone());

    let report = m.run_until(stop_at.unwrap_or(horizon));
    let final_digest = m.state_digest();
    drop(m);
    Finished {
        journal: Rc::try_unwrap(journal).expect("sole owner").into_inner(),
        final_digest,
        end: report.end,
        total_bits: report.total_j.0.to_bits(),
        residual_bits: report.residual_j.0.to_bits(),
        outcome: handle.outcome(),
        trace: trace.jsonl(),
    }
}

/// Sim time of a JSONL trace line (every line starts `{"time_s":…,`).
#[expect(clippy::expect_used, reason = "a broken fixture fails the test")]
fn time_of(line: &str) -> f64 {
    let rest = line
        .strip_prefix("{\"time_s\":")
        .expect("trace line starts with time_s");
    let end = rest.find(',').expect("comma after time_s");
    rest[..end].parse().expect("numeric sim time")
}

/// The tentpole proof: a run that crashes halfway leaves a journal; the
/// resumed run (replay of the identical configuration) passes through the
/// crashed run's last checkpoint with a matching digest and finishes in
/// exactly the state the uninterrupted run reached — bit for bit.
#[test]
fn resume_after_crash_reproduces_uninterrupted_run() {
    let uninterrupted = run(42, false, false, None);
    assert!(
        uninterrupted.journal.checkpoints().len() >= 4,
        "expected several checkpoints, got {:?}",
        uninterrupted.journal.checkpoints()
    );

    // Crash mid-run, off any checkpoint boundary. Only the journal
    // survives the crash.
    let crash_at = SimTime::from_secs(137);
    let crashed = run(42, false, false, Some(crash_at));
    let salvage = *crashed
        .journal
        .latest_at_or_before(crash_at)
        .expect("a checkpoint before the crash");
    assert_eq!(salvage.t, SimTime::from_secs(120));

    // Resume = replay. The resumed run must pass through the salvaged
    // checkpoint bit-identically (the resume-time digest assertion)...
    let resumed = run(42, false, false, None);
    assert!(
        resumed.journal.verify(salvage.t, salvage.digest),
        "resumed run diverged from the salvaged checkpoint {salvage:?}"
    );
    // ...and every checkpoint the crashed run recorded is a prefix of the
    // resumed run's journal.
    assert_eq!(
        crashed.journal.checkpoints(),
        &resumed.journal.checkpoints()[..crashed.journal.checkpoints().len()],
    );

    // Final state: bit-for-bit identical to the uninterrupted run.
    assert_eq!(resumed.final_digest, uninterrupted.final_digest);
    assert_eq!(resumed.end, uninterrupted.end);
    assert_eq!(resumed.total_bits, uninterrupted.total_bits);
    assert_eq!(resumed.residual_bits, uninterrupted.residual_bits);
    assert_eq!(resumed.outcome, uninterrupted.outcome);
    assert_eq!(
        resumed.journal.checkpoints(),
        uninterrupted.journal.checkpoints()
    );
}

/// Trace-level crash/resume equivalence: the crashed run's event stream
/// is a prefix of the resumed run's, the resumed run's stream equals the
/// uninterrupted run's byte-for-byte, and from the salvaged checkpoint
/// onward the resumed events match the uninterrupted ones
/// event-for-event — resume loses nothing and invents nothing.
#[test]
fn resumed_trace_matches_uninterrupted_event_for_event() {
    let uninterrupted = run(42, false, false, None);
    let crash_at = SimTime::from_secs(137);
    let crashed = run(42, false, false, Some(crash_at));
    let resumed = run(42, false, false, None);

    assert!(!uninterrupted.trace.is_empty(), "control-plane trace empty");
    // Replay *is* resume: the full resumed stream matches byte-for-byte.
    assert_eq!(resumed.trace, uninterrupted.trace);

    // The crash kept a proper prefix of the stream...
    assert!(crashed.trace.len() < resumed.trace.len());
    assert_eq!(crashed.trace[..], resumed.trace[..crashed.trace.len()]);

    // ...and from the salvaged checkpoint on, the resumed run reproduces
    // the uninterrupted run's events one for one.
    let salvage = crashed
        .journal
        .latest_at_or_before(crash_at)
        .expect("a checkpoint before the crash")
        .t
        .as_secs_f64();
    let after = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| time_of(l) >= salvage)
            .cloned()
            .collect()
    };
    let resumed_after = after(&resumed.trace);
    assert!(
        !resumed_after.is_empty(),
        "no events after the resume point"
    );
    for (i, (r, u)) in resumed_after
        .iter()
        .zip(after(&uninterrupted.trace).iter())
        .enumerate()
    {
        assert_eq!(r, u, "post-resume event {i} diverged");
    }
}

/// Negative control: the digest is not vacuous. A different seed is a
/// different run, and its checkpoints fail verification.
#[test]
fn digest_rejects_a_divergent_run() {
    let a = run(42, false, false, Some(SimTime::from_secs(100)));
    let b = run(43, false, false, Some(SimTime::from_secs(100)));
    let ck = a.journal.latest().expect("checkpoint recorded");
    assert!(a.journal.verify(ck.t, ck.digest));
    assert!(
        !b.journal.verify(ck.t, ck.digest),
        "different seeds digested equal at {:?}",
        ck.t
    );
}

/// The supervised control plane is as deterministic as the plain one:
/// with a wedged app being quarantined and restarted mid-run, two
/// identical runs still journal identical digests and end bit-identical.
#[test]
fn supervised_recovery_checkpoints_deterministically() {
    let a = run(7, true, true, None);
    let b = run(7, true, true, None);
    assert!(a.journal.checkpoints().len() >= 4);
    assert_eq!(a.journal.checkpoints(), b.journal.checkpoints());
    assert_eq!(a.final_digest, b.final_digest);
    assert_eq!(a.total_bits, b.total_bits);
    assert_eq!(a.outcome, b.outcome);
}

/// The torture sweep: the supervised k=2 *golden* scenario served
/// through `simserve`, killed at **every** checkpoint boundary and
/// resumed by replaying the identical sample stream. Each resume must
/// pass through its salvaged checkpoint digest and end with a final
/// state digest and an event-for-event simtrace byte-identical to the
/// uninterrupted run — and the sweep's own output must be byte-identical
/// whether the boundaries are verified on 1 worker thread or 4.
#[test]
fn torture_kill_resume_at_every_checkpoint_boundary() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;

    let serial = serve::torture_sweep(GOLDEN_SEED, 1, 1).expect("torture sweep at 1 thread");
    assert!(
        serial.len() >= 4,
        "expected several checkpoint boundaries, got {serial:?}"
    );
    for line in &serial {
        assert!(line.contains("resume OK"), "boundary failed: {line}");
    }
    let par = serve::torture_sweep(GOLDEN_SEED, 1, 4).expect("torture sweep at 4 threads");
    assert_eq!(serial, par, "torture sweep diverges across thread counts");
    // Every boundary proof now covers both recovery paths: O(history)
    // replay and O(state) snapshot thaw, digest-identical.
    for line in &serial {
        assert!(
            line.contains("replay+snapshot resume OK"),
            "boundary missing the snapshot-equivalence proof: {line}"
        );
    }
}

/// Hostile snapshots: a snapshot that was truncated, bit-flipped, or
/// written by a different format version must be *detected* — a typed
/// error, never a panic or a silently wrong session — and the caller
/// must still be able to recover by falling back to replay.
#[test]
fn corrupted_snapshots_are_detected_and_replay_recovers() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
    use energy_adaptation::simcore::SnapshotError;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples, None).expect("uninterrupted run");
    let frozen = serve::freeze_at_boundary(GOLDEN_SEED, &samples, 1).expect("freeze");
    assert!(
        frozen.samples_fed < samples.len(),
        "freeze landed at end of stream; no recovery left to prove"
    );

    // Truncated file: the length header promises more than is there.
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    let cut = &frozen.snapshot[..frozen.snapshot.len() / 2];
    assert!(
        matches!(session.thaw(cut), Err(SnapshotError::Truncated)),
        "truncated snapshot not detected"
    );

    // Single bit flipped in the trailing checksum.
    let mut flipped = frozen.snapshot.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    assert!(
        matches!(session.thaw(&flipped), Err(SnapshotError::ChecksumMismatch)),
        "checksum bit-flip not detected"
    );

    // Single bit flipped in the payload: same detection, different site.
    let mut flipped = frozen.snapshot.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x80;
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    assert!(
        session.thaw(&flipped).is_err(),
        "payload bit-flip not detected"
    );

    // Version-mismatch header: the version field follows the 8-byte
    // magic as a little-endian u32.
    let mut wrong_version = frozen.snapshot.clone();
    wrong_version[8] = 0xFF;
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    assert!(
        matches!(
            session.thaw(&wrong_version),
            Err(SnapshotError::VersionMismatch { .. })
        ),
        "version mismatch not detected"
    );

    // Recovery contract: a failed thaw poisons nothing globally — a
    // fresh rebuild replaying the full stream still reproduces the
    // uninterrupted run bit for bit.
    let replayed = serve::replay(GOLDEN_SEED, &samples, None).expect("replay fallback");
    assert_eq!(replayed.final_digest, base.final_digest);
    assert_eq!(replayed.trace, base.trace);
}

/// Snapshot-vs-replay equivalence, pinned at 1 and 4 worker threads: a
/// snapshot frozen at the first boundary and thawed into a fresh shell
/// lands on the identical digest as replay-based resume, and the proof
/// is byte-identical at both thread counts (the thaw itself is
/// single-threaded state reconstruction; the pin guards the fan-out
/// around it).
#[test]
fn snapshot_resume_digest_matches_replay_resume_at_1_and_4_threads() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples, None).expect("uninterrupted run");
    let frozen = serve::freeze_at_boundary(GOLDEN_SEED, &samples, 1).expect("freeze");
    let thawed = serve::snapshot_resume(GOLDEN_SEED, &samples, &frozen).expect("thaw");
    let replayed = serve::replay(GOLDEN_SEED, &samples, None).expect("replay resume");
    assert_eq!(thawed.final_digest, replayed.final_digest);
    assert_eq!(thawed.final_digest, base.final_digest);
    assert_eq!(thawed.checkpoints, replayed.checkpoints);

    // The multi-session fleet wraps the same machinery; its output must
    // not depend on the worker count.
    let at1 = serve::run_sessions(GOLDEN_SEED, &samples, 2, 1).expect("fleet at 1 thread");
    let at4 = serve::run_sessions(GOLDEN_SEED, &samples, 2, 4).expect("fleet at 4 threads");
    assert_eq!(at1, at4, "fleet outcome depends on thread count");
}
