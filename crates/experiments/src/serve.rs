//! The `serve` verb: always-on session replay and kill/resume proof.
//!
//! Drives a [`simserve::Session`] over the supervised k=2 golden scenario
//! (the longest golden trace) with a sample schedule derived from the
//! recorded `tests/golden/supervise.jsonl` timestamps, optionally
//! subdivided by a replay multiple — at 1000× the session steps ~680 000
//! times, the soak CI runs. The verb then kills the session at the middle
//! checkpoint recorded while the stream is fed, and resumes it twice
//! through [`simserve::restore`]: from the genesis generation (a rebuild
//! that replays the stream up to the kill) and from the snapshot frozen
//! at the kill. Each resumed session must stand on the salvaged
//! checkpoint, then finish byte-identical to the uninterrupted run:
//! final state digest, latest checkpoint, every trace byte.
//!
//! [`torture_sweep`] extends the single kill to *every* in-stream
//! checkpoint boundary, fanned out over the deterministic work pool —
//! the acceptance gate `tests/checkpoint_resume.rs` pins at 1 and 4
//! threads.

use std::fs;

use simcore::{Checkpoint, SimDuration, SimRng, TraceCategory, TraceHandle, TraceSink};
use simserve::{
    restore, run_fleet, FleetSpec, Generation, Sample, ServeError, Session, SessionConfig,
    SessionHealth, BATCH,
};

use crate::supervise;
use crate::tracerec;

/// The golden scenario the serve session replays (the longest trace).
pub const REPLAY_SCENARIO: &str = "supervise";

/// Checkpoint cadence of [`build_session`], sim-seconds: the served rig
/// that server fleets, the fuzz harness and the benchmark drive.
pub const SERVE_CKPT_EVERY_S: u64 = 180;

/// Checkpoint cadence of the kill/resume proofs, sim-seconds. The 1×
/// stream ends at 524 s, so it holds eight in-stream kill boundaries,
/// 60 s to 480 s.
pub const CKPT_EVERY_S: u64 = 60;

/// Everything one served run leaves behind.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// Samples fed, counting those a restored generation covered.
    pub samples_fed: usize,
    /// Directives the session issued.
    pub directives: usize,
    /// Checkpoints recorded while the stream was fed: kill boundaries.
    pub boundaries: usize,
    /// The journal's latest checkpoint at the horizon.
    pub latest: Option<Checkpoint>,
    /// Dead letters recorded.
    pub dead_letters: u64,
    /// Final state digest.
    pub final_digest: u64,
    /// Serving trace, JSONL.
    pub trace: Vec<String>,
}

/// Builds the serving session for the supervised k=2 golden rig at
/// `seed`, checkpointing every [`SERVE_CKPT_EVERY_S`].
pub fn build_session(seed: u64) -> Result<Session, ServeError> {
    build(seed, SERVE_CKPT_EVERY_S)
}

/// The kill/resume proofs' session: [`build_session`]'s rig with a
/// checkpoint every [`CKPT_EVERY_S`].
pub fn proof_session(seed: u64) -> Result<Session, ServeError> {
    build(seed, CKPT_EVERY_S)
}

/// Identical construction on every call, which is what makes restoring
/// from any generation sound.
fn build(seed: u64, ckpt_every_s: u64) -> Result<Session, ServeError> {
    let mut rng = SimRng::new(seed).fork_indexed("supervise/2", 0);
    let rig = supervise::build_one(2, true, &mut rng);
    // The supervise golden categories plus the service layer's own
    // events (reconfig verdicts, dead letters).
    let trace = TraceHandle::new(
        TraceSink::new()
            .with_categories(&[
                TraceCategory::Net,
                TraceCategory::Fault,
                TraceCategory::Control,
                TraceCategory::Supervisor,
                TraceCategory::Service,
            ])
            .with_jsonl(),
    );
    let cfg = SessionConfig {
        checkpoint_every: SimDuration::from_secs(ckpt_every_s),
        horizon: rig.horizon,
    };
    Session::serve(rig.machine, Some(rig.goal), rig.supervisor, trace, cfg)
}

/// Sim time of a golden JSONL line (every line starts `{"time_s":…,`).
fn time_of(line: &str) -> Result<f64, String> {
    let rest = line
        .strip_prefix("{\"time_s\":")
        .ok_or_else(|| format!("golden line without time_s prefix: {line}"))?;
    let end = rest
        .find(',')
        .ok_or_else(|| format!("golden line without field separator: {line}"))?;
    rest[..end]
        .parse()
        .map_err(|e| format!("unparsable time_s in golden line ({e}): {line}"))
}

/// Derives the session's sample schedule from the recorded golden
/// trace: one tick per golden event time, each inter-event gap
/// subdivided `multiple`-fold. The stream is a pure function of the
/// checked-in file, so every replay feeds identical input.
pub fn schedule(multiple: u32) -> Result<Vec<Sample>, String> {
    schedule_for(REPLAY_SCENARIO, multiple)
}

/// [`schedule`] generalized over the recorded golden scenarios: any of
/// [`tracerec::SCENARIOS`] can drive the session (`--scenario` on the
/// CLI). The session rig itself stays the supervised k=2 build; only the
/// tick stream changes, so short streams simply serve a shorter run.
pub fn schedule_for(scenario: &str, multiple: u32) -> Result<Vec<Sample>, String> {
    if !tracerec::SCENARIOS.contains(&scenario) {
        return Err(format!(
            "serve: unknown scenario {scenario} (have {:?})",
            tracerec::SCENARIOS
        ));
    }
    let multiple = multiple.max(1);
    let path = tracerec::golden_path(scenario);
    let body = fs::read_to_string(&path).map_err(|e| {
        format!(
            "serve: cannot read golden trace {}: {e}\n\
             regenerate with: cargo run --release -p experiments -- golden --rec",
            path.display()
        )
    })?;
    let mut out = Vec::new();
    let mut prev = 0.0f64;
    for line in body.lines() {
        let t = time_of(line)?;
        if t > prev {
            for k in 1..=multiple {
                let frac = k as f64 / multiple as f64;
                out.push(Sample::tick(prev + (t - prev) * frac));
            }
        } else {
            out.push(Sample::tick(t));
        }
        prev = t.max(prev);
    }
    Ok(out)
}

/// Feeds `samples` to `session` in batches, runs it out to the horizon,
/// and reports. `fed` counts the samples the session already reflects.
fn run_out(mut session: Session, samples: &[Sample], mut fed: usize) -> Result<ServeRun, String> {
    let mut directives = 0usize;
    for chunk in samples.chunks(BATCH) {
        directives += session
            .ingest(chunk)
            .map_err(|e| format!("serve: ingest failed at sample {fed}: {e}"))?
            .len();
        fed += chunk.len();
    }
    let boundaries = session.checkpoints().last().map_or(0, |c| c.seq + 1) as usize;
    session
        .finish()
        .map_err(|e| format!("serve: finish: {e}"))?;
    Ok(ServeRun {
        samples_fed: fed,
        directives,
        boundaries,
        latest: session.checkpoints().last().copied(),
        dead_letters: session.dead_letters().map(|d| d.total()).unwrap_or(0),
        final_digest: session.digest(),
        trace: session.trace_jsonl(),
    })
}

/// The uninterrupted run: `samples` through a fresh proof session at
/// `seed`, then run out to the horizon.
pub fn replay(seed: u64, samples: &[Sample]) -> Result<ServeRun, String> {
    let session = proof_session(seed).map_err(|e| format!("serve: {e}"))?;
    run_out(session, samples, 0)
}

/// What a run killed at checkpoint boundary `k` leaves behind.
#[derive(Clone, Debug)]
pub struct Kill {
    /// Checkpoint `k`: the journal's latest at the kill.
    pub salvage: Checkpoint,
    /// The snapshot frozen at the kill, covering the samples fed so far.
    pub frozen: Generation,
    /// Trace emitted before the kill: a thawed session never re-emits it.
    pub trace: Vec<String>,
}

/// Serves `samples` through a fresh proof session up to and including
/// the first sample that reaches checkpoint `k`'s instant, then kills the
/// run: it freezes and keeps its trace. Batching never moves the state,
/// so the kill salvages checkpoint `k` itself even where one 64-sample
/// batch would span two checkpoints.
pub fn kill_at(seed: u64, samples: &[Sample], k: usize) -> Result<Kill, String> {
    let due_s = ((k as u64 + 1) * CKPT_EVERY_S) as f64;
    let covered = samples
        .iter()
        .position(|s| s.at_s >= due_s)
        .map_or(samples.len(), |i| i + 1);
    let mut session = proof_session(seed).map_err(|e| format!("serve: {e}"))?;
    for chunk in samples.get(..covered).unwrap_or(samples).chunks(BATCH) {
        session
            .ingest(chunk)
            .map_err(|e| format!("boundary {k}: ingest failed: {e}"))?;
    }
    let salvage = session
        .checkpoints()
        .last()
        .copied()
        .filter(|c| c.seq == k as u64)
        .ok_or_else(|| format!("boundary {k}: not the latest checkpoint at sample {covered}"))?;
    let snapshot = session
        .freeze()
        .map_err(|e| format!("boundary {k}: freeze failed: {e}"))?;
    Ok(Kill {
        salvage,
        frozen: Generation {
            snapshot: Some(snapshot),
            covered,
        },
        trace: session.trace_jsonl(),
    })
}

/// Restores a killed run from `ladder` through [`restore`], with the
/// stream up to the kill as the log; demands the restored session stand
/// on the salvaged checkpoint; then serves the rest of the stream and
/// runs out. Returns the run (its trace is what the restored session
/// emitted) and the index of the generation that restored it.
pub fn resume(
    seed: u64,
    samples: &[Sample],
    kill: &Kill,
    ladder: &[Generation],
) -> Result<(ServeRun, usize), String> {
    let k = kill.salvage.seq;
    let covered = kill.frozen.covered;
    let log = samples.get(..covered).unwrap_or(samples);
    let (session, used) = restore(|| proof_session(seed), ladder, log, 0)
        .map_err(|e| format!("boundary {k}: {e}"))?;
    if session.checkpoints().last() != Some(&kill.salvage) {
        return Err(format!(
            "boundary {k}: resumed run diverged from salvaged checkpoint {:?}",
            kill.salvage
        ));
    }
    let rest = samples.get(covered..).unwrap_or_default();
    Ok((run_out(session, rest, covered)?, used))
}

/// Fails unless a resumed run ended where the uninterrupted `base` did:
/// final digest, latest checkpoint, and `trace` (the resumed run's whole
/// stream) byte for byte.
fn same_end(what: &str, run: &ServeRun, trace: &[String], base: &ServeRun) -> Result<(), String> {
    if (run.final_digest, run.latest) == (base.final_digest, base.latest) && trace == base.trace {
        return Ok(());
    }
    let event = trace.iter().zip(&base.trace).position(|(a, b)| a != b);
    Err(format!(
        "{what} run diverges from the uninterrupted one: digest {:#018x} vs {:#018x}, \
         latest {:?} vs {:?}, {} vs {} events, first differing event {event:?}",
        run.final_digest,
        base.final_digest,
        run.latest,
        base.latest,
        trace.len(),
        base.trace.len()
    ))
}

/// Verifies one crash boundary: kill at checkpoint `k`, then resume by
/// [`restore`] twice — from the genesis alone (replay) and from the
/// ladder `[genesis, snapshot at k]`, which must restore through the
/// snapshot. Both must finish byte-identical to `base`. Returns a
/// one-line proof summary and the number of samples the kill covered.
fn verify_boundary(
    seed: u64,
    samples: &[Sample],
    base: &ServeRun,
    k: usize,
) -> Result<(String, usize), String> {
    let kill = kill_at(seed, samples, k)?;
    if !base.trace.starts_with(&kill.trace) {
        return Err(format!(
            "boundary {k}: crashed run's trace is not a prefix of the uninterrupted run's"
        ));
    }
    let genesis = Generation::genesis();
    let (replayed, _) = resume(seed, samples, &kill, std::slice::from_ref(&genesis))?;
    let tag = |e: String| format!("boundary {k}: {e}");
    same_end("replay-resumed", &replayed, &replayed.trace, base).map_err(tag)?;
    let (thawed, used) = resume(seed, samples, &kill, &[genesis, kill.frozen.clone()])?;
    if used != 1 {
        return Err(format!(
            "boundary {k}: the snapshot generation did not restore"
        ));
    }
    let stitched: Vec<String> = kill.trace.iter().chain(&thawed.trace).cloned().collect();
    same_end("snapshot-resumed", &thawed, &stitched, base).map_err(tag)?;
    let bytes = kill.frozen.snapshot.as_ref().map_or(0, Vec::len);
    let proof = format!(
        "boundary {k}: salvage t={:.0}s digest={:#018x} replay+snapshot resume OK \
         ({} events, snapshot {bytes} bytes covering {} samples)",
        kill.salvage.t.as_secs_f64(),
        kill.salvage.digest,
        base.trace.len(),
        kill.frozen.covered
    );
    Ok((proof, kill.frozen.covered))
}

/// The torture sweep: crash at *every* checkpoint recorded while the
/// stream is fed and prove each resume bit-identical, fanned out over
/// `threads` workers. The kills must freeze at strictly increasing
/// sample counts, all before the stream's end — a boundary that froze at
/// end-of-stream would prove nothing a later one does not. Returns one
/// proof line per boundary (identical at any thread count) or the first
/// divergence report.
///
/// Boundary cost rises with the boundary index (a later crash replays a
/// longer prefix); the pool claims one boundary at a time, so the
/// expensive tail boundaries spread over whichever workers are free.
pub fn torture_sweep(seed: u64, multiple: u32, threads: usize) -> Result<Vec<String>, String> {
    let samples = schedule(multiple)?;
    let base = replay(seed, &samples)?;
    if base.boundaries < 2 {
        return Err(format!(
            "serve: expected several in-stream checkpoints, got {}",
            base.boundaries
        ));
    }
    let boundaries: Vec<usize> = (0..base.boundaries).collect();
    let results = simcore::par::map(threads, &boundaries, |_, &k| {
        verify_boundary(seed, &samples, &base, k)
    });
    let mut lines = Vec::with_capacity(results.len());
    let mut prev: Option<usize> = None;
    for r in results {
        let (line, covered) = r?;
        if covered >= samples.len() || prev.is_some_and(|p| p >= covered) {
            return Err(format!(
                "serve: kill froze at sample {covered} of {} after one at {prev:?}: \
                 boundaries must freeze at strictly increasing counts inside the stream",
                samples.len()
            ));
        }
        prev = Some(covered);
        lines.push(line);
    }
    Ok(lines)
}

/// Runs `sessions` independent session lifecycles over the same stream
/// (per-slot seeds `seed..seed+sessions`), fanned across `threads`
/// workers with index-ordered merge. Returns one summary line per slot
/// or the first unhealthy outcome as an error.
pub fn run_sessions(
    seed: u64,
    samples: &[Sample],
    sessions: usize,
    threads: usize,
) -> Result<Vec<String>, String> {
    let specs: Vec<FleetSpec<_>> = (0..sessions)
        .map(|i| FleetSpec {
            builder: move || build_session(seed + i as u64),
            samples,
        })
        .collect();
    let outcomes = run_fleet(threads, &specs);
    let mut lines = Vec::with_capacity(outcomes.len());
    for (i, o) in outcomes.iter().enumerate() {
        if let SessionHealth::Dead { reason } = o.health {
            return Err(format!(
                "serve: session {i} (seed {}) died: {reason}",
                seed + i as u64
            ));
        }
        lines.push(format!(
            "session {i}: seed {} digest {:#018x} {} directives, {} checkpoints, \
             {} dead letters, {} faults contained, log high-water {} samples, \
             snapshot high-water {} bytes",
            seed + i as u64,
            o.final_digest,
            o.directives,
            o.checkpoints,
            o.dead_letters,
            o.faults,
            o.stats.max_log_len,
            o.stats.max_snapshot_bytes
        ));
    }
    Ok(lines)
}

/// The CLI verb body: replay `scenario` at `multiple` density, kill at
/// the middle in-stream checkpoint, resume by replay *and* by snapshot,
/// and report. With `sessions > 1` the stream is also served through
/// that many isolated server slots across `threads` workers. `Err` is a
/// divergence report (the CI soak uploads it as an artifact).
pub fn run_verb(
    seed: u64,
    multiple: u32,
    scenario: &str,
    sessions: usize,
    threads: usize,
) -> Result<String, String> {
    let samples = schedule_for(scenario, multiple)?;
    let base = replay(seed, &samples)?;
    let mut out = String::new();
    out.push_str(&format!(
        "serve: replayed {scenario} at {multiple}x: {} samples, {} directives, \
         {} checkpoints ({} while fed), {} dead letters\n",
        base.samples_fed,
        base.directives,
        base.latest.map_or(0, |c| c.seq + 1),
        base.boundaries,
        base.dead_letters
    ));
    out.push_str(&format!(
        "serve: final digest {:#018x} over {} trace events\n",
        base.final_digest,
        base.trace.len()
    ));
    if base.boundaries >= 2 {
        let (proof, _) = verify_boundary(seed, &samples, &base, base.boundaries / 2)?;
        out.push_str(&format!("serve: kill/resume {proof}\n"));
    } else if scenario == REPLAY_SCENARIO {
        // The canonical scenario always spans several checkpoints; fewer
        // is a regression, not a short stream.
        return Err(format!(
            "serve: expected several in-stream checkpoints, got {}",
            base.boundaries
        ));
    } else {
        out.push_str(&format!(
            "serve: stream too short for a kill/resume proof ({} in-stream checkpoints)\n",
            base.boundaries
        ));
    }
    if sessions > 1 {
        for line in run_sessions(seed, &samples, sessions, threads)? {
            out.push_str(&format!("serve: {line}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracerec::GOLDEN_SEED;

    /// The schedule is a pure function of the checked-in golden file,
    /// and the multiple subdivides without reordering.
    #[test]
    fn schedule_is_monotone_and_scales_with_multiple() {
        let s1 = schedule(1).expect("golden trace present");
        let s4 = schedule(4).expect("golden trace present");
        assert!(!s1.is_empty());
        assert!(s4.len() > 3 * s1.len(), "{} vs {}", s4.len(), s1.len());
        for w in s1.windows(2) {
            assert!(w[1].at_s >= w[0].at_s, "schedule not monotone: {w:?}");
        }
        for w in s4.windows(2) {
            assert!(w[1].at_s >= w[0].at_s, "4x schedule not monotone: {w:?}");
        }
    }

    /// A serve replay is deterministic: same seed, same stream, same
    /// digest and byte-identical trace.
    #[test]
    fn replay_is_deterministic() {
        let samples = schedule(1).expect("golden trace present");
        let a = replay(GOLDEN_SEED, &samples).expect("replay");
        let b = replay(GOLDEN_SEED, &samples).expect("replay");
        assert_eq!(a.boundaries, 8, "{:?}", a.latest);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.directives, b.directives);
        assert_eq!(a.dead_letters, 0, "clean stream dead-lettered");
    }

    /// The verb's single mid-run kill/resume proof passes end to end,
    /// covering both the replay and the snapshot resume path, and it
    /// kills mid-stream: the salvage is checkpoint 4 at 300 s.
    #[test]
    fn verb_kill_resume_proof_passes() {
        let out = run_verb(GOLDEN_SEED, 1, REPLAY_SCENARIO, 1, 1).expect("kill/resume proof");
        assert!(out.contains("replay+snapshot resume OK"), "{out}");
        assert!(out.contains("boundary 4: salvage t=300s"), "{out}");
    }

    /// A snapshot frozen mid-run restores through its generation and,
    /// fed only the remaining stream, lands on the uninterrupted run's
    /// digest with the stitched trace byte-identical.
    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let samples = schedule(1).expect("golden trace present");
        let base = replay(GOLDEN_SEED, &samples).expect("replay");
        let kill = kill_at(GOLDEN_SEED, &samples, 1).expect("kill");
        assert!(
            kill.frozen.covered < samples.len(),
            "froze at end of stream"
        );
        let ladder = [Generation::genesis(), kill.frozen.clone()];
        let (thawed, used) = resume(GOLDEN_SEED, &samples, &kill, &ladder).expect("resume");
        assert_eq!(used, 1);
        assert_eq!(thawed.final_digest, base.final_digest);
        assert_eq!(thawed.latest, base.latest);
        let stitched: Vec<&String> = kill.trace.iter().chain(&thawed.trace).collect();
        let base_refs: Vec<&String> = base.trace.iter().collect();
        assert_eq!(stitched, base_refs);
    }

    /// Every golden scenario yields a servable schedule; unknown names
    /// are refused.
    #[test]
    fn any_golden_scenario_drives_the_session() {
        for scenario in crate::tracerec::SCENARIOS {
            let s = schedule_for(scenario, 1).expect(scenario);
            assert!(!s.is_empty(), "{scenario} schedule empty");
            let run = replay(GOLDEN_SEED, &s).expect(scenario);
            assert!(run.final_digest != 0, "{scenario} digest trivially zero");
        }
        assert!(schedule_for("fig99", 1).is_err());
    }

    /// Multi-session serving is healthy, deterministic, and identical at
    /// any thread count.
    #[test]
    fn multi_session_fleet_is_thread_count_invariant() {
        let samples = schedule(1).expect("golden trace present");
        let solo = run_sessions(GOLDEN_SEED, &samples, 3, 1).expect("fleet@1");
        let wide = run_sessions(GOLDEN_SEED, &samples, 3, 4).expect("fleet@4");
        assert_eq!(solo, wide);
        assert_eq!(solo.len(), 3);
    }
}
