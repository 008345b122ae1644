//! Crash-tolerant control plane: checkpoint/resume proof.
//!
//! A checkpoint is a proof point — (simulated time, digest of live
//! state) — and the journal keeps only the latest one. These tests
//! exercise resume end to end on the Section 5 goal workload: a run that
//! "crashes" halfway leaves its latest checkpoint behind; a rebuilt rig
//! run to the salvage instant must stand on that checkpoint's digest,
//! and continued to the horizon it reproduces the uninterrupted run's
//! final state bit for bit. The served rig's resumes go through the one
//! recovery path, `simserve::restore`.

use std::cell::RefCell;
use std::rc::Rc;

use energy_adaptation::apps::composite::{composite_members, CompositeMode};
use energy_adaptation::apps::datasets::VIDEO_CLIPS;
use energy_adaptation::apps::{Misbehavior, VideoPlayer};
use energy_adaptation::hw560x::EnergySource;
use energy_adaptation::machine::{CheckpointHook, Machine, MachineConfig, Workload};
use energy_adaptation::odyssey::goal::MONITOR_OVERHEAD_W;
use energy_adaptation::odyssey::{
    supervisor, GoalConfig, GoalController, GoalHandle, GoalOutcome, PriorityTable, Supervisor,
};
use energy_adaptation::simcore::fault::{FaultSchedule, FaultWindow};
use energy_adaptation::simcore::{
    Checkpoint, RunJournal, SimDuration, SimRng, SimTime, TraceCategory, TraceHandle, TraceSink,
    Watts,
};

const GOAL_S: u64 = 240;
const ENERGY_J: f64 = 3000.0;
const CKPT_EVERY: SimDuration = SimDuration::from_secs(30);

/// The Section 5 goal rig, built and not yet run.
struct Rig {
    machine: Machine,
    journal: Rc<RefCell<RunJournal>>,
    handle: GoalHandle,
    trace: TraceHandle,
    horizon: SimTime,
}

/// What a run leaves behind: a crash keeps only `latest`; the rest
/// exists only if the run finished.
struct Finished {
    latest: Option<Checkpoint>,
    /// Every checkpoint the run recorded (nothing drained the journal).
    checkpoints: Vec<Checkpoint>,
    final_digest: u64,
    end: SimTime,
    total_bits: u64,
    residual_bits: u64,
    outcome: GoalOutcome,
    trace: Vec<String>,
}

/// Builds the Section 5 goal rig: composite loop + background video,
/// optionally wedged and supervised.
fn rig(seed: u64, wedged: bool, supervised: bool) -> Rig {
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
        let (_sup_handle, mut sup) = Supervisor::new();
        sup.watch(video_pid, [0.5, 0.8, 1.2, 2.0].map(Watts).to_vec(), 3);
        sup.attach_goal(handle.clone());
        m.add_hook(supervisor::PERIOD, sup);
    }
    let journal = Rc::new(RefCell::new(RunJournal::new(CKPT_EVERY)));
    m.add_hook(CKPT_EVERY, Box::new(CheckpointHook::new(journal.clone())));
    let trace = TraceHandle::new(
        TraceSink::new()
            .with_categories(&TraceCategory::CONTROL_PLANE)
            .with_jsonl(),
    );
    m.set_trace(trace.clone());
    Rig {
        machine: m,
        journal,
        handle,
        trace,
        horizon,
    }
}

impl Rig {
    /// The journal's latest checkpoint so far.
    fn latest(&self) -> Option<Checkpoint> {
        self.journal.borrow().latest().copied()
    }

    /// Runs to `stop_at` (a crash) or to the horizon, and reports.
    fn run(mut self, stop_at: Option<SimTime>) -> Finished {
        let report = self.machine.run_until(stop_at.unwrap_or(self.horizon));
        Finished {
            latest: self.latest(),
            checkpoints: self.journal.borrow_mut().drain(),
            final_digest: self.machine.state_digest(),
            end: report.end,
            total_bits: report.total_j.0.to_bits(),
            residual_bits: report.residual_j.0.to_bits(),
            outcome: self.handle.outcome(),
            trace: self.trace.jsonl(),
        }
    }
}

/// Runs the rig at `seed` to `stop_at` or to completion.
fn run(seed: u64, wedged: bool, supervised: bool, stop_at: Option<SimTime>) -> Finished {
    rig(seed, wedged, supervised).run(stop_at)
}

/// Resumes after a crash that salvaged `salvage`: rebuilds the rig, runs
/// it to the salvage instant, asserts it stands on the salvaged
/// checkpoint, and continues to the horizon.
fn resume(seed: u64, salvage: Checkpoint) -> Finished {
    let mut resumed = rig(seed, false, false);
    let _ = resumed.machine.run_until(salvage.t);
    assert_eq!(
        resumed.latest(),
        Some(salvage),
        "resumed run diverged from the salvaged checkpoint"
    );
    resumed.run(None)
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

/// The tentpole proof: a run that crashes halfway salvages its latest
/// checkpoint; the resumed run (the identical configuration, rebuilt)
/// stands on that checkpoint's digest at its instant and finishes in
/// exactly the state the uninterrupted run reached — bit for bit.
#[test]
fn resume_after_crash_reproduces_uninterrupted_run() {
    let uninterrupted = run(42, false, false, None);
    assert!(
        uninterrupted.checkpoints.len() >= 4,
        "expected several checkpoints, got {:?}",
        uninterrupted.checkpoints
    );

    // Crash mid-run, off any checkpoint boundary. Only the latest
    // checkpoint survives the crash.
    let crash_at = SimTime::from_secs(137);
    let crashed = run(42, false, false, Some(crash_at));
    let salvage = crashed.latest.expect("a checkpoint before the crash");
    assert_eq!(salvage.t, SimTime::from_secs(120));
    assert_eq!(crashed.checkpoints.last(), Some(&salvage));

    // Resume: the rebuilt run must pass through the salvaged checkpoint
    // bit-identically (asserted inside `resume`)...
    let resumed = resume(42, salvage);

    // ...and end bit-for-bit identical to the uninterrupted run.
    assert_eq!(resumed.final_digest, uninterrupted.final_digest);
    assert_eq!(resumed.end, uninterrupted.end);
    assert_eq!(resumed.total_bits, uninterrupted.total_bits);
    assert_eq!(resumed.residual_bits, uninterrupted.residual_bits);
    assert_eq!(resumed.outcome, uninterrupted.outcome);
    assert_eq!(resumed.latest, uninterrupted.latest);
    assert_eq!(resumed.checkpoints, uninterrupted.checkpoints);
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
    let salvage = crashed.latest.expect("a checkpoint before the crash");
    let resumed = resume(42, salvage);

    assert!(!uninterrupted.trace.is_empty(), "control-plane trace empty");
    // The resumed stream matches byte-for-byte.
    assert_eq!(resumed.trace, uninterrupted.trace);

    // The crash kept a proper prefix of the stream...
    assert!(crashed.trace.len() < resumed.trace.len());
    assert_eq!(crashed.trace[..], resumed.trace[..crashed.trace.len()]);

    // ...and from the salvaged checkpoint on, the resumed run reproduces
    // the uninterrupted run's events one for one.
    let salvage = salvage.t.as_secs_f64();
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
/// different run, and its checkpoint at the same instant digests
/// differently.
#[test]
fn digest_rejects_a_divergent_run() {
    let a = run(42, false, false, Some(SimTime::from_secs(100)));
    let b = run(43, false, false, Some(SimTime::from_secs(100)));
    let ck = a.latest.expect("checkpoint recorded");
    let other = b.latest.expect("checkpoint recorded");
    assert_eq!(ck.t, other.t);
    assert_ne!(
        ck.digest, other.digest,
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
    assert!(a.checkpoints.len() >= 4);
    assert_eq!(a.checkpoints, b.checkpoints);
    assert_eq!(a.latest, b.latest);
    assert_eq!(a.final_digest, b.final_digest);
    assert_eq!(a.total_bits, b.total_bits);
    assert_eq!(a.outcome, b.outcome);
}

/// The torture sweep: the supervised k=2 *golden* scenario served
/// through `simserve`, killed at **every** checkpoint boundary recorded
/// while the stream is fed, and resumed through `simserve::restore` from
/// the genesis (replay) and from the snapshot frozen at the kill. Each
/// resume must stand on its salvaged checkpoint and end with a final
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
    // Every boundary proof covers both rungs of the ladder: the genesis
    // (replay) and the snapshot, digest-identical.
    for line in &serial {
        assert!(
            line.contains("replay+snapshot resume OK"),
            "boundary missing the snapshot-equivalence proof: {line}"
        );
    }
}

/// Hostile snapshots: a snapshot that was truncated, bit-flipped, or
/// written by a different format version must be *detected* — a typed
/// error, never a panic or a silently wrong session — and restore must
/// still recover by falling back to the genesis generation.
#[test]
fn corrupted_snapshots_are_detected_and_replay_recovers() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
    use energy_adaptation::simcore::SnapshotError;
    use energy_adaptation::simserve::Generation;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples).expect("uninterrupted run");
    let kill = serve::kill_at(GOLDEN_SEED, &samples, 1).expect("kill");
    assert!(
        kill.frozen.covered < samples.len(),
        "kill landed at end of stream; no recovery left to prove"
    );
    let snapshot = kill.frozen.snapshot.clone().expect("frozen at the kill");
    let build = || serve::proof_session(GOLDEN_SEED).expect("build");

    // Truncated file: the length header promises more than is there.
    let cut = &snapshot[..snapshot.len() / 2];
    assert!(
        matches!(build().thaw(cut), Err(SnapshotError::Truncated)),
        "truncated snapshot not detected"
    );

    // Single bit flipped in the trailing checksum.
    let mut flipped = snapshot.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    assert!(
        matches!(build().thaw(&flipped), Err(SnapshotError::ChecksumMismatch)),
        "checksum bit-flip not detected"
    );

    // Single bit flipped in the payload: same detection, different site.
    let mut flipped = snapshot.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x80;
    assert!(
        build().thaw(&flipped).is_err(),
        "payload bit-flip not detected"
    );

    // Version-mismatch header: the version field follows the 8-byte
    // magic as a little-endian u32. A snapshot sealed by format
    // version 2 is refused, not read.
    let mut wrong_version = snapshot.clone();
    wrong_version[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        build().thaw(&wrong_version),
        Err(SnapshotError::VersionMismatch { found: 2 }),
        "version mismatch not detected"
    );

    // Recovery contract: with the corrupt or old-version snapshot as
    // the newest generation, restore comes back through the genesis
    // (replay), and the resumed run reproduces the uninterrupted one bit
    // for bit.
    for newest in [flipped, wrong_version] {
        let newest = Generation {
            snapshot: Some(newest),
            covered: kill.frozen.covered,
        };
        let (resumed, used) = serve::resume(
            GOLDEN_SEED,
            &samples,
            &kill,
            &[Generation::genesis(), newest],
        )
        .expect("genesis fallback");
        assert_eq!(used, 0, "restored through the refused generation");
        assert_eq!(resumed.final_digest, base.final_digest);
        assert_eq!(resumed.trace, base.trace);
    }
}

/// Snapshot envelope bytes before the payload: magic, version and
/// payload length.
const SNAPSHOT_HEADER: usize = 20;

/// `bytes` with its trailing checksum rewritten to match its payload, so
/// a deliberately poisoned payload passes the envelope check and reaches
/// field validation.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    energy_adaptation::simcore::snapshot::reseal(&mut bytes);
    bytes
}

/// Offset of the first `name` written as a length-prefixed string at or
/// after `from`, pointing at the length word.
fn find_name(bytes: &[u8], name: &str, from: usize) -> Option<usize> {
    let mut word = (name.len() as u64).to_le_bytes().to_vec();
    word.extend_from_slice(name.as_bytes());
    (from..bytes.len() - 8 - word.len()).find(|&i| bytes[i..i + word.len()] == word[..])
}

/// Resealed poison: a checksum-valid snapshot whose `Idle` bucket holds
/// NaN joules, or whose `Idle` name is one byte off, thaws to `Corrupt`,
/// and restore falls back to the older generation.
#[test]
fn resealed_poisoned_ledger_is_corrupt() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
    use energy_adaptation::simcore::SnapshotError;
    use energy_adaptation::simserve::Generation;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples).expect("uninterrupted run");
    let kill = serve::kill_at(GOLDEN_SEED, &samples, 1).expect("kill");
    let snapshot = kill.frozen.snapshot.clone().expect("frozen at the kill");
    let build = || serve::proof_session(GOLDEN_SEED).expect("build");
    // The ledger writes its bucket map first: the first length-prefixed
    // `Idle` is the bucket entry, and its joules follow.
    let name = find_name(&snapshot, "Idle", SNAPSHOT_HEADER).expect("an Idle bucket entry") + 8;

    let mut nan = snapshot.clone();
    nan[name + 4..name + 12].copy_from_slice(&f64::NAN.to_le_bytes());
    let nan = reseal(nan);
    assert_eq!(
        build().thaw(&nan),
        Err(SnapshotError::Corrupt("ledger bucket energy"))
    );

    let mut renamed = snapshot.clone();
    renamed[name] = b'#';
    let renamed = reseal(renamed);
    assert_eq!(
        build().thaw(&renamed),
        Err(SnapshotError::Corrupt("unknown name"))
    );

    for poisoned in [nan, renamed] {
        let (resumed, used) = serve::resume(
            GOLDEN_SEED,
            &samples,
            &kill,
            &[
                Generation::genesis(),
                Generation {
                    snapshot: Some(poisoned),
                    covered: kill.frozen.covered,
                },
            ],
        )
        .expect("genesis fallback");
        assert_eq!(used, 0, "restored through the poisoned generation");
        assert_eq!(resumed.final_digest, base.final_digest);
    }
}

/// Snapshot-vs-replay equivalence, pinned at 1 and 4 worker threads: a
/// kill at the first boundary restored through its snapshot generation
/// lands on the identical digest as a restore from the genesis
/// (replay), and the proof is byte-identical at both thread counts (the
/// thaw itself is single-threaded state reconstruction; the pin guards
/// the fan-out around it).
#[test]
fn snapshot_resume_digest_matches_replay_resume_at_1_and_4_threads() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
    use energy_adaptation::simserve::Generation;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples).expect("uninterrupted run");
    let kill = serve::kill_at(GOLDEN_SEED, &samples, 1).expect("kill");
    let genesis = Generation::genesis();
    let (thawed, used) = serve::resume(
        GOLDEN_SEED,
        &samples,
        &kill,
        &[genesis.clone(), kill.frozen.clone()],
    )
    .expect("snapshot resume");
    assert_eq!(used, 1, "the snapshot generation did not restore");
    let (replayed, _) =
        serve::resume(GOLDEN_SEED, &samples, &kill, &[genesis]).expect("replay resume");
    assert_eq!(thawed.final_digest, replayed.final_digest);
    assert_eq!(thawed.final_digest, base.final_digest);
    assert_eq!(thawed.latest, replayed.latest);

    // The multi-session fleet wraps the same machinery; its output must
    // not depend on the worker count.
    let at1 = serve::run_sessions(GOLDEN_SEED, &samples, 2, 1).expect("fleet at 1 thread");
    let at4 = serve::run_sessions(GOLDEN_SEED, &samples, 2, 4).expect("fleet at 4 threads");
    assert_eq!(at1, at4, "fleet outcome depends on thread count");
}

/// A resealed snapshot whose video fidelity series ends after the
/// restored clock is `Corrupt` on thaw (the next fidelity change would
/// otherwise panic in `TimeSeries::record`), and restore falls back to
/// the genesis, which replays to the straight run's digest.
#[test]
fn resealed_fidelity_point_after_the_clock_is_corrupt() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
    use energy_adaptation::simcore::SnapshotError;
    use energy_adaptation::simserve::Generation;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples).expect("uninterrupted run");
    let kill = serve::kill_at(GOLDEN_SEED, &samples, 1).expect("kill");
    let snapshot = kill.frozen.snapshot.clone().expect("frozen at the kill");
    let word = |at: usize| u64::from_le_bytes(snapshot[at..at + 8].try_into().expect("a word"));
    // The payload opens with the session cursor, where the machine clock
    // stands after a served batch.
    let clock_us = word(SNAPSHOT_HEADER);
    // A fidelity series is its name, a point count and (time, level)
    // pairs, and its first point is at time zero; a ledger row with the
    // same name is followed by joules instead.
    let name = "xanim";
    let mut at = SNAPSHOT_HEADER;
    let last_point = loop {
        at = find_name(&snapshot, name, at).expect("the video's fidelity series") + 8;
        let count_at = at + name.len();
        let count = word(count_at) as usize;
        if (1..=1000).contains(&count) && word(count_at + 8) == 0 {
            break count_at + 8 + (count - 1) * 16;
        }
    };
    assert!(
        word(last_point) <= clock_us,
        "a live series ends by the clock"
    );
    let mut late = snapshot.clone();
    late[last_point..last_point + 8].copy_from_slice(&(clock_us + 1_000_000).to_le_bytes());
    let late = reseal(late);
    assert_eq!(
        serve::proof_session(GOLDEN_SEED)
            .expect("build")
            .thaw(&late),
        Err(SnapshotError::Corrupt("fidelity point after clock"))
    );
    let (resumed, used) = serve::resume(
        GOLDEN_SEED,
        &samples,
        &kill,
        &[
            Generation::genesis(),
            Generation {
                snapshot: Some(late),
                covered: kill.frozen.covered,
            },
        ],
    )
    .expect("genesis fallback");
    assert_eq!(used, 0, "restored through the late-series generation");
    assert_eq!(resumed.final_digest, base.final_digest);
}

/// A resealed snapshot whose `finished` flag is neither 0 nor 1 is
/// `Corrupt` on thaw, and restore comes back through the older snapshot
/// generation rather than the genesis.
#[test]
fn resealed_out_of_range_flag_is_corrupt() {
    use energy_adaptation::experiments::serve;
    use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
    use energy_adaptation::simcore::SnapshotError;
    use energy_adaptation::simserve::Generation;

    let samples = serve::schedule(1).expect("golden trace present");
    let base = serve::replay(GOLDEN_SEED, &samples).expect("uninterrupted run");
    let older = serve::kill_at(GOLDEN_SEED, &samples, 0).expect("kill at 0");
    let kill = serve::kill_at(GOLDEN_SEED, &samples, 1).expect("kill at 1");
    let mut bad = kill.frozen.snapshot.clone().expect("frozen at the kill");
    // The payload opens with the cursor, `stopped` and `finished`, one
    // little-endian word per value.
    let finished = SNAPSHOT_HEADER + 2 * 8;
    assert_eq!(bad[finished..finished + 8], 0u64.to_le_bytes());
    bad[finished..finished + 8].copy_from_slice(&2u64.to_le_bytes());
    let bad = reseal(bad);
    assert_eq!(
        serve::proof_session(GOLDEN_SEED).expect("build").thaw(&bad),
        Err(SnapshotError::Corrupt("bool out of range"))
    );
    let (resumed, used) = serve::resume(
        GOLDEN_SEED,
        &samples,
        &kill,
        &[
            Generation::genesis(),
            older.frozen,
            Generation {
                snapshot: Some(bad),
                covered: kill.frozen.covered,
            },
        ],
    )
    .expect("older-generation fallback");
    assert_eq!(used, 1, "did not restore through the older generation");
    assert_eq!(resumed.final_digest, base.final_digest);
}
