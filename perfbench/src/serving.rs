//! The `serve` and `failover` workloads: the supervised k=2 rig served
//! through `simserve::Session`, fed the seeded golden stream in 64-sample
//! batches by one caller in a closed loop (the next batch goes out only
//! after the previous call returned).
//!
//! Sim time is decoupled from host time, so there is no open-loop rate
//! to offer: the session consumes a sample as fast as the host runs it.

use bench::Stopwatch;
use experiments::serve::{build_session, schedule, REPLAY_SCENARIO};
use experiments::tracerec::{golden_path, GOLDEN_SEED};
use simcore::Checkpoint;
use simserve::{Sample, Session};

use crate::inputs;
use crate::spans::Tracer;
use crate::{Passes, Plan};

/// Samples per `Session::ingest` call.
pub const BATCH: usize = 64;

/// What a served stream must end in.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    /// Final state digest.
    pub digest: u64,
    /// The checkpoint journal.
    pub checkpoints: Vec<Checkpoint>,
    /// The serving trace, JSONL.
    pub trace: Vec<String>,
}

/// Inputs and reference of one serving run.
#[derive(Clone, Debug)]
pub struct Setup {
    /// The seeded stream.
    pub samples: Vec<Sample>,
    /// Expected outputs for this stream.
    pub reference: Reference,
}

/// Builds the seeded stream, then computes its reference with one
/// session fed the whole stream in a single `ingest` call (a different
/// batching than the timed loop). The reference trace must equal the
/// committed golden trace: tick placement moves the state digest's
/// low-order energy bits but never an event.
pub fn setup(plan: &Plan) -> Result<Setup, String> {
    let base = schedule(1)?;
    let samples = inputs::stream(plan.seed, &base, plan.multiple);
    let mut s = build_session(GOLDEN_SEED).map_err(|e| format!("build: {e}"))?;
    s.ingest(&samples)
        .map_err(|e| format!("reference ingest: {e}"))?;
    s.finish().map_err(|e| format!("reference finish: {e}"))?;
    if let Some(n) = s.dead_letters().map(|d| d.total()).filter(|&n| n > 0) {
        return Err(format!("seeded stream dead-lettered {n} samples"));
    }
    let reference = Reference {
        digest: s.digest(),
        checkpoints: s.checkpoints(),
        trace: s.trace_jsonl(),
    };
    let path = golden_path(REPLAY_SCENARIO);
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if !golden
        .lines()
        .eq(reference.trace.iter().map(String::as_str))
    {
        return Err(format!(
            "serving trace differs from {} ({} lines served)",
            path.display(),
            reference.trace.len()
        ));
    }
    Ok(Setup { samples, reference })
}

/// Compares one session's outputs with the reference; the trace is the
/// concatenation of `segments` (the traces shipped by killed
/// predecessors) and the session's own.
fn check(
    tracer: &mut Tracer,
    session: &Session,
    segments: Vec<Vec<String>>,
    reference: &Reference,
) -> Result<(), String> {
    let digest = tracer.span("digest", "machine", || session.digest());
    let checkpoints = tracer.span("checkpoints", "simserve", || session.checkpoints());
    let last = tracer.span("trace_jsonl", "simcore.trace", || session.trace_jsonl());
    tracer.span("compare", "perfbench", || {
        if digest != reference.digest {
            return Err(format!(
                "final digest {digest:#018x} != reference {:#018x}",
                reference.digest
            ));
        }
        if checkpoints != reference.checkpoints {
            return Err(format!(
                "journal of {} checkpoints differs from the reference's {}",
                checkpoints.len(),
                reference.checkpoints.len()
            ));
        }
        let stitched = segments.iter().flatten().chain(&last);
        if !stitched.eq(reference.trace.iter()) {
            return Err("stitched trace differs from the reference".to_string());
        }
        Ok(())
    })
}

fn build(tracer: &mut Tracer) -> Result<Session, String> {
    tracer
        .span("build_session", "experiments", || {
            build_session(GOLDEN_SEED)
        })
        .map_err(|e| format!("build: {e}"))
}

/// One `serve` pass: a fresh session, every batch through
/// `Session::ingest`, then `finish` and the output check.
pub fn serve_pass(setup: &Setup, tracer: &mut Tracer, passes: &mut Passes) {
    passes.samples_per_pass = setup.samples.len();
    passes.attempted += 1;
    if let Err(e) = serve_session(setup, tracer, passes) {
        passes.fail(format!("serve: {e}"));
    }
}

// simlint: allow(P1) — per-batch latency is a wall-clock reading by design
fn serve_session(setup: &Setup, tracer: &mut Tracer, passes: &mut Passes) -> Result<(), String> {
    let mut session = build(tracer)?;
    let mut directives = 0;
    for chunk in setup.samples.chunks(BATCH) {
        let sw = Stopwatch::start();
        let r = tracer.span("ingest", "simserve", || session.ingest(chunk));
        let batch_s = sw.elapsed_s();
        passes.step(batch_s);
        passes.batch_us.record(batch_s * 1e6);
        passes.attempted += 1;
        match r {
            Ok(d) => directives += d.len(),
            Err(e) => passes.fail(format!("serve: ingest: {e}")),
        }
    }
    tracer
        .span("finish", "simserve", || session.finish())
        .map_err(|e| format!("finish: {e}"))?;
    passes.directives = directives;
    check(tracer, &session, Vec::new(), &setup.reference)
}

/// One failover session: the live session, its latest snapshot, and the
/// traces its killed predecessors shipped.
struct Slot {
    session: Session,
    snapshot: Vec<u8>,
    segments: Vec<Vec<String>>,
}

/// One `failover` pass: two sessions fed alternately, each accepted
/// batch followed by a `Session::freeze` (the `Server::ingest`
/// contract). At the pass's seeded kill points a session is dropped,
/// rebuilt and thawed from its latest snapshot, and takes over the rest
/// of the stream.
///
/// `Server` keeps its snapshots private and has no kill hook, so the
/// pass drives `Session` directly with the same freeze-after-batch rule.
pub fn failover_pass(
    plan: &Plan,
    setup: &Setup,
    pass: u64,
    tracer: &mut Tracer,
    passes: &mut Passes,
) {
    passes.samples_per_pass = 2 * setup.samples.len();
    if let Err(e) = failover_sessions(plan, setup, pass, tracer, passes) {
        passes.fail(format!("failover pass {pass}: {e}"));
    }
}

// simlint: allow(P1) — batch and restore latencies are wall-clock readings by design
fn failover_sessions(
    plan: &Plan,
    setup: &Setup,
    pass: u64,
    tracer: &mut Tracer,
    passes: &mut Passes,
) -> Result<(), String> {
    let chunks: Vec<&[Sample]> = setup.samples.chunks(BATCH).collect();
    let kills = inputs::kill_points(plan.seed, pass, chunks.len(), plan.kills_per_pass);
    let mut kills = kills.into_iter().peekable();
    let mut slots = Vec::with_capacity(2);
    for _ in 0..2 {
        slots.push(Slot {
            session: build(tracer)?,
            snapshot: Vec::new(),
            segments: Vec::new(),
        });
    }
    for (i, chunk) in chunks.iter().enumerate() {
        for (s, slot) in slots.iter_mut().enumerate() {
            let sw = Stopwatch::start();
            let ingested = tracer.span("ingest", "simserve", || slot.session.ingest(chunk));
            let frozen_at = sw.elapsed_s();
            let frozen = tracer.span("freeze", "simcore.snapshot", || slot.session.freeze());
            let done = sw.elapsed_s();
            passes.step(done);
            passes.batch_us.record(done * 1e6);
            passes.freeze_us.record((done - frozen_at) * 1e6);
            passes.attempted += 1;
            match (ingested, frozen) {
                (Ok(_), Ok(bytes)) => {
                    passes.snapshot_bytes = passes.snapshot_bytes.max(bytes.len());
                    slot.snapshot = bytes;
                }
                (Err(e), _) => passes.fail(format!("ingest: {e}")),
                (_, Err(e)) => passes.fail(format!("freeze: {e}")),
            }
            if kills.peek() == Some(&(s, i)) {
                kills.next();
                passes.attempted += 1;
                if let Err(e) = kill_and_restore(tracer, slot, passes) {
                    passes.fail(format!("restore of session {s} after batch {i}: {e}"));
                }
            }
        }
    }
    for slot in slots {
        tracer
            .span("finish", "simserve", || {
                let mut session = slot.session;
                session.finish().map(|_| session)
            })
            .map_err(|e| format!("finish: {e}"))
            .and_then(|session| check(tracer, &session, slot.segments, &setup.reference))
            .unwrap_or_else(|e| passes.fail(e));
        passes.attempted += 1;
    }
    Ok(())
}

/// Kills `slot`'s session right after its freeze: its trace so far is
/// shipped, the session dropped, and a rebuilt one thawed from the
/// snapshot must come back with the same state digest. Only the
/// rebuild, thaw and digest are timed as the restore.
// simlint: allow(P1) — restore latency is a wall-clock reading by design
fn kill_and_restore(
    tracer: &mut Tracer,
    slot: &mut Slot,
    passes: &mut Passes,
) -> Result<(), String> {
    let want = slot.session.digest();
    slot.segments
        .push(tracer.span("trace_jsonl", "simcore.trace", || {
            slot.session.trace_jsonl()
        }));
    let sw = Stopwatch::start();
    let mut fresh = build(tracer)?;
    let thawed = tracer.span("thaw", "simcore.snapshot", || fresh.thaw(&slot.snapshot));
    let got = tracer.span("digest", "machine", || fresh.digest());
    passes.restore_us.record(sw.elapsed_s() * 1e6);
    slot.session = fresh;
    thawed.map_err(|e| format!("thaw: {e}"))?;
    if got != want {
        return Err(format!(
            "restored digest {got:#018x} != frozen {want:#018x}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Plan {
        Plan {
            seed,
            seconds: 0.0,
            threads: 1,
            multiple: 2,
            kills_per_pass: 6,
            min_restores: 0,
            gated_passes: 1,
        }
    }

    fn serve(setup: &Setup) -> Passes {
        let mut passes = Passes::default();
        serve_pass(setup, &mut Tracer::new(false), &mut passes);
        passes
    }

    #[test]
    fn serve_and_failover_match_the_reference() {
        let plan = plan(5);
        let setup = setup(&plan).expect("setup");
        let served = serve(&setup);
        assert_eq!(served.failed, 0, "{:?}", served.mismatches);
        assert_eq!(served.directives, 691);
        let mut failed_over = Passes::default();
        failover_pass(&plan, &setup, 0, &mut Tracer::new(true), &mut failed_over);
        assert_eq!(failed_over.failed, 0, "{:?}", failed_over.mismatches);
        assert_eq!(failed_over.restore_us.len(), 6);
        assert!(failed_over.snapshot_bytes > 0);
    }

    #[test]
    fn another_seed_moves_the_digest_but_not_the_trace() {
        let a = setup(&plan(5)).expect("setup");
        let b = setup(&plan(6)).expect("setup");
        assert_ne!(a.samples, b.samples);
        assert_ne!(a.reference.digest, b.reference.digest);
        assert_eq!(a.reference.trace, b.reference.trace);
    }

    /// Negative control: a perturbed reference digest or trace line
    /// fails both serving workloads.
    #[test]
    fn perturbed_reference_fails_the_run() {
        let plan = plan(5);
        let mut bad_digest = setup(&plan).expect("setup");
        bad_digest.reference.digest ^= 1;
        let served = serve(&bad_digest);
        assert_eq!(served.failed, 1);
        assert!(
            served.mismatches[0].contains("final digest"),
            "{:?}",
            served.mismatches
        );

        let mut bad_trace = setup(&plan).expect("setup");
        bad_trace.reference.trace[100].push(' ');
        let mut failed_over = Passes::default();
        failover_pass(
            &plan,
            &bad_trace,
            0,
            &mut Tracer::new(false),
            &mut failed_over,
        );
        assert_eq!(
            failed_over.failed, 2,
            "both sessions' stitched traces mismatch"
        );
        assert!(failed_over.mismatches[0].contains("stitched trace"));
    }
}
