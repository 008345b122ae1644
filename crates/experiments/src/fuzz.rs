//! The `fuzz` verb: deterministic hostile-input fuzzing of the serving
//! layer.
//!
//! Each of N seeded streams starts from a golden sample schedule and is
//! mutated by a fork of the root rng — bit flips inside the raw `f64`
//! timestamps (NaN, negatives, denormals, far-future times), truncation,
//! duplication, reordering, spliced crosstalk from a *different* golden
//! scenario, and floods of hostile reconfiguration commands (NaN
//! budgets, zero horizons, out-of-range process indices). Every stream
//! is then driven through the serving layer under one of three rotating
//! harnesses:
//!
//! 1. **determinism** — the same hostile stream twice through two
//!    fresh sessions; digests, dead-letter totals, and ledger bounds
//!    must agree;
//! 2. **recovery** — serve to a mid-stream pivot keeping a `Server`
//!    slot's two generations; the generation-flip operator flips one
//!    seeded bit of the newest, and [`simserve::restore`] must come back
//!    through the older one and land on the straight-run digest. The
//!    name-flip operator rewrites one byte of a bucket or procedure name
//!    in the newest and reseals its checksum, so only interior
//!    validation can catch it: thaw must refuse it as corrupt, and
//!    restore must fall back the same way;
//! 3. **crosstalk** — a two-slot [`Server`] interleaving the hostile
//!    stream with a clean one; the clean slot must end byte-identical
//!    to a solo clean run, proving slot isolation under attack.
//!
//! The harness fails on any panic (contained or not), any invariant the
//! session does not surface as a `Result`, any ledger exceeding its
//! bound, or any recovery digest instability. Failures carry the root
//! seed, stream index, and mutation list — enough to replay the exact
//! stream — and the CLI saves them (plus the mutated stream and a
//! snapshot of the surviving state) under `target/fuzz/` for CI upload.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simcore::{Names, SimDuration, SimRng, SimTime, SnapshotError, SnapshotHasher};
use simserve::{
    restore, Generation, ReconfigCommand, Sample, ServeError, Server, Session, SessionHealth, BATCH,
};

use crate::serve;
use simcore::Joules;

/// Mutations applied per stream: at least one, at most this many.
const MAX_MUTATIONS: u64 = 4;

/// What one surviving stream reports back for aggregation.
#[derive(Clone, Copy, Debug, Default)]
struct StreamStats {
    samples: usize,
    dead_letters: u64,
    ingest_errors: u64,
    max_ledger_len: usize,
    recovered: bool,
    name_flipped: bool,
}

/// Outcome of feeding one hostile stream through a raw session:
/// everything needed for the cross-run comparisons.
struct HostileRun {
    digest: u64,
    dead_total: u64,
    ingest_errors: u64,
    max_ledger_len: usize,
    finished_cleanly: bool,
}

/// Names of the mutation operators, indexed by the rng draw.
const MUTATION_NAMES: [&str; 6] = [
    "bit-flip",
    "truncate",
    "duplicate",
    "reorder",
    "crosstalk-splice",
    "reconfig-flood",
];

/// Applies one seeded mutation to `samples`, splicing from `alt` for
/// the crosstalk operator. Returns the operator's name.
fn mutate_once(samples: &mut Vec<Sample>, alt: &[Sample], rng: &mut SimRng) -> &'static str {
    let op = rng.uniform_u64(0, MUTATION_NAMES.len() as u64 - 1) as usize;
    let len = samples.len();
    match op {
        // Flip one raw bit of one timestamp: NaN, sign, exponent —
        // whatever the bit position yields.
        0 => {
            if let Some(s) = pick_mut(samples, rng) {
                let bit = rng.uniform_u64(0, 63);
                s.at_s = f64::from_bits(s.at_s.to_bits() ^ (1u64 << bit));
            }
        }
        // Drop the tail.
        1 => {
            if len > 1 {
                let keep = rng.uniform_u64(1, len as u64 - 1) as usize;
                samples.truncate(keep);
            }
        }
        // Duplicate a window in place (stutter: repeated timestamps).
        2 => {
            if len > 0 {
                let start = rng.uniform_u64(0, len as u64 - 1) as usize;
                let width = rng.uniform_u64(1, 16).min((len - start) as u64) as usize;
                let window: Vec<Sample> = samples
                    .get(start..start + width)
                    .map(<[Sample]>::to_vec)
                    .unwrap_or_default();
                let at = (start + width).min(samples.len());
                samples.splice(at..at, window);
            }
        }
        // Swap two windows: out-of-order timestamps.
        3 => {
            if len > 3 {
                let a = rng.uniform_u64(0, len as u64 - 2) as usize;
                let b = rng.uniform_u64(0, len as u64 - 2) as usize;
                samples.swap(a, b);
                samples.swap(a + 1, b + 1);
            }
        }
        // Splice a window from a different scenario's schedule: times
        // from a foreign clock, mid-stream.
        4 => {
            if !alt.is_empty() && len > 0 {
                let from = rng.uniform_u64(0, alt.len() as u64 - 1) as usize;
                let width = rng.uniform_u64(1, 32).min((alt.len() - from) as u64) as usize;
                let window: Vec<Sample> = alt
                    .get(from..from + width)
                    .map(<[Sample]>::to_vec)
                    .unwrap_or_default();
                let at = rng.uniform_u64(0, len as u64) as usize;
                samples.splice(at..at, window);
            }
        }
        // Flood of hostile reconfiguration commands at one instant.
        _ => {
            if len > 0 {
                let at = rng.uniform_u64(0, len as u64 - 1) as usize;
                let t = samples.get(at).map(|s| s.at_s).unwrap_or(0.0);
                let burst = rng.uniform_u64(4, 24);
                let mut flood = Vec::with_capacity(burst as usize);
                for k in 0..burst {
                    let cmd = match rng.uniform_u64(0, 4) {
                        0 => ReconfigCommand::BudgetJ(Joules(f64::NAN)),
                        1 => ReconfigCommand::BudgetJ(Joules(-1e18)),
                        2 => ReconfigCommand::Horizon(SimTime::ZERO),
                        3 => ReconfigCommand::Quarantine(usize::MAX),
                        _ => ReconfigCommand::Goal(SimDuration::from_micros(k)),
                    };
                    flood.push(Sample::reconfig(t, cmd).from_origin(k as usize % 5));
                }
                let at = at.min(samples.len());
                samples.splice(at..at, flood);
            }
        }
    }
    MUTATION_NAMES.get(op).copied().unwrap_or("unknown")
}

/// One uniformly chosen mutable sample, `None` for an empty stream.
fn pick_mut<'a>(samples: &'a mut [Sample], rng: &mut SimRng) -> Option<&'a mut Sample> {
    if samples.is_empty() {
        return None;
    }
    let i = rng.uniform_u64(0, samples.len() as u64 - 1) as usize;
    samples.get_mut(i)
}

/// Builds the hostile stream for index `i`: a seeded fork of the root
/// rng applies one to four (`MAX_MUTATIONS`) operators to the golden
/// schedule.
pub fn hostile_stream(
    seed: u64,
    base: &[Sample],
    alt: &[Sample],
    i: u64,
) -> (Vec<Sample>, Vec<&'static str>) {
    let mut rng = SimRng::new(seed).fork_indexed("fuzz/stream", i);
    let mut samples = base.to_vec();
    let n = rng.uniform_u64(1, MAX_MUTATIONS);
    let mut applied = Vec::with_capacity(n as usize);
    for _ in 0..n {
        applied.push(mutate_once(&mut samples, alt, &mut rng));
    }
    (samples, applied)
}

/// Feeds `samples` to `session`, catching panics, and runs it out.
/// Ingest errors end feeding (errors must be surfaced, not fatal);
/// panics are failures.
fn drive(mut session: Session, samples: &[Sample]) -> Result<HostileRun, String> {
    let mut ingest_errors = 0u64;
    let mut max_ledger_len = 0usize;
    let mut stopped = false;
    for chunk in samples.chunks(BATCH) {
        if !stopped {
            match guarded_ingest(&mut session, chunk)? {
                Ok(_) => {}
                Err(_) => {
                    // Surfaced as a Result: exactly the contract. The
                    // session refuses further input in this state.
                    ingest_errors += 1;
                    stopped = true;
                }
            }
        }
        if let Some(d) = session.dead_letters() {
            if d.len() > d.capacity() {
                return Err(format!(
                    "dead-letter ledger exceeded its bound: {} > {}",
                    d.len(),
                    d.capacity()
                ));
            }
            max_ledger_len = max_ledger_len.max(d.len());
        }
    }
    let finished_cleanly = if stopped {
        false
    } else {
        guarded_finish(&mut session)?.is_ok()
    };
    Ok(HostileRun {
        digest: session.digest(),
        dead_total: session.dead_letters().map(|d| d.total()).unwrap_or(0),
        ingest_errors,
        max_ledger_len,
        finished_cleanly,
    })
}

fn build(seed: u64) -> Result<Session, String> {
    serve::build_session(seed).map_err(|e| format!("fuzz: session build failed: {e}"))
}

/// `ingest` with panic containment: the outer `Err` is a panic (a fuzz
/// failure), the inner `Result` is the session's own verdict.
fn guarded_ingest(
    session: &mut Session,
    chunk: &[Sample],
) -> Result<Result<usize, ServeError>, String> {
    catch_unwind(AssertUnwindSafe(|| session.ingest(chunk).map(|d| d.len())))
        .map_err(|p| format!("PANIC during ingest: {}", panic_text(&p)))
}

fn guarded_finish(session: &mut Session) -> Result<Result<(), ServeError>, String> {
    catch_unwind(AssertUnwindSafe(|| session.finish().map(|_| ())))
        .map_err(|p| format!("PANIC during finish: {}", panic_text(&p)))
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Harness 1: the hostile stream is deterministic — two fresh sessions,
/// identical digests and accounting.
fn check_determinism(seed: u64, samples: &[Sample]) -> Result<StreamStats, String> {
    let a = drive(build(seed)?, samples)?;
    let b = drive(build(seed)?, samples)?;
    if a.digest != b.digest
        || a.dead_total != b.dead_total
        || a.ingest_errors != b.ingest_errors
        || a.finished_cleanly != b.finished_cleanly
    {
        return Err(format!(
            "hostile stream is nondeterministic: digest {:#018x}/{:#018x}, dead {}/{}, errors {}/{}",
            a.digest, b.digest, a.dead_total, b.dead_total, a.ingest_errors, b.ingest_errors
        ));
    }
    Ok(StreamStats {
        samples: samples.len(),
        dead_letters: a.dead_total,
        ingest_errors: a.ingest_errors,
        max_ledger_len: a.max_ledger_len,
        recovered: false,
        name_flipped: false,
    })
}

/// Harness 2: mid-hostile-stream, with the newest of two generations
/// corrupted, restore comes back through the older one and lands on the
/// digest of serving straight through.
fn check_recovery(seed: u64, samples: &[Sample], i: u64) -> Result<StreamStats, String> {
    let straight = drive(build(seed)?, samples)?;
    let chunks = samples.chunks(BATCH).count().max(1);
    let pivot = (i as usize * 7 + 1) % chunks;
    // Serve through the pivot chunk, freezing after each one: the
    // two-generation ladder a `Server` slot holds at that point.
    let mut session = build(seed)?;
    let mut ladder = [Generation::genesis(), Generation::genesis()];
    let mut fed = 0usize;
    for chunk in samples.chunks(BATCH).take(pivot + 1) {
        guarded_ingest(&mut session, chunk)?
            .map_err(|e| format!("ingest refused before the pivot: {e}"))?;
        fed += chunk.len();
        let snapshot = session
            .freeze()
            .map_err(|e| format!("freeze refused: {e}"))?;
        ladder.rotate_left(1);
        ladder[1] = Generation {
            snapshot: Some(snapshot),
            covered: fed,
        };
    }
    // The name-flip operator, on a copy of the intact newest snapshot.
    let mut rng = SimRng::new(seed).fork_indexed("fuzz/name", i);
    let renamed = ladder[1]
        .snapshot
        .as_deref()
        .and_then(|bytes| name_flip(bytes, session.names(), &mut rng));
    let name_flipped = renamed.is_some();
    if let Some(bytes) = renamed {
        match build(seed)?.thaw(&bytes) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => {
                return Err(format!(
                    "name flip at chunk {pivot} thawed to {other:?}, not Corrupt"
                ))
            }
        }
        let flipped = [
            ladder[0].clone(),
            Generation {
                snapshot: Some(bytes),
                covered: fed,
            },
        ];
        restore_stable(seed, &flipped, samples, fed, &straight, pivot, "name flip")?;
    }
    // The generation-flip operator: one seeded bit of the newest snapshot.
    let mut rng = SimRng::new(seed).fork_indexed("fuzz/generation", i);
    if let Some(bytes) = ladder[1].snapshot.as_mut() {
        let at = rng.uniform_u64(0, bytes.len().saturating_sub(1) as u64) as usize;
        if let Some(byte) = bytes.get_mut(at) {
            *byte ^= 1 << rng.uniform_u64(0, 7);
        }
    }
    restore_stable(seed, &ladder, samples, fed, &straight, pivot, "bit flip")?;
    Ok(StreamStats {
        samples: samples.len(),
        dead_letters: straight.dead_total,
        ingest_errors: straight.ingest_errors,
        max_ledger_len: straight.max_ledger_len,
        recovered: true,
        name_flipped,
    })
}

/// Restores from `ladder`, whose newest generation covers the first
/// `fed` samples and is corrupt, and requires the older one to come
/// back and finish the stream on the straight run's digest and
/// dead-letter total.
fn restore_stable(
    seed: u64,
    ladder: &[Generation],
    samples: &[Sample],
    fed: usize,
    straight: &HostileRun,
    pivot: usize,
    operator: &str,
) -> Result<(), String> {
    let log = samples.get(..fed).unwrap_or(samples);
    let restored = match restore(|| serve::build_session(seed), ladder, log, 0) {
        Ok((session, 0)) => session,
        Ok(_) => {
            return Err(format!(
                "restore at chunk {pivot} used the {operator} generation"
            ))
        }
        Err(e) => {
            return Err(format!(
                "no generation restored past the {operator} at chunk {pivot}: {e}"
            ))
        }
    };
    let recovered = drive(restored, samples.get(fed..).unwrap_or_default())?;
    if (recovered.digest, recovered.dead_total) != (straight.digest, straight.dead_total) {
        return Err(format!(
            "recovery past the {operator} unstable: restored at chunk {pivot}: digest {:#018x}, \
             {} dead letters; straight {:#018x}, {}",
            recovered.digest, recovered.dead_total, straight.digest, straight.dead_total
        ));
    }
    Ok(())
}

/// The name-flip operator: rewrites one seeded byte inside one seeded
/// length-prefixed occurrence of a `names` entry in a sealed snapshot's
/// payload, so it names nothing the session knows, and reseals the
/// checksum. `None` when the payload holds no name.
fn name_flip(bytes: &[u8], names: &Names, rng: &mut SimRng) -> Option<Vec<u8>> {
    const HEADER: usize = 20;
    let end = bytes.len().checked_sub(8)?;
    let payload = bytes.get(HEADER..end)?;
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for name in names.iter().filter(|n| !n.is_empty()) {
        let mut word = (name.len() as u64).to_le_bytes().to_vec();
        word.extend_from_slice(name.as_bytes());
        sites.extend(
            payload
                .windows(word.len())
                .enumerate()
                .filter(|(_, w)| *w == word.as_slice())
                .map(|(at, _)| (HEADER + at + 8, name.len())),
        );
    }
    sites.sort_unstable();
    let (start, len) =
        *sites.get(rng.uniform_u64(0, sites.len().checked_sub(1)? as u64) as usize)?;
    let at = start + rng.uniform_u64(0, len as u64 - 1) as usize;
    let mut out = bytes.to_vec();
    let byte = out.get_mut(at)?;
    *byte = if *byte == b'#' { b'%' } else { b'#' };
    let renamed = std::str::from_utf8(out.get(start..start + len)?).ok()?;
    if names.id(renamed).is_some() {
        return None;
    }
    let mut h = SnapshotHasher::new();
    h.write_bytes(out.get(HEADER..end)?);
    out.get_mut(end..)?
        .copy_from_slice(&h.finish().to_le_bytes());
    Some(out)
}

/// Harness 3: a clean session sharing a [`Server`] with the hostile one
/// ends byte-identical to a solo clean run.
fn check_crosstalk(
    seed: u64,
    samples: &[Sample],
    clean: &[Sample],
    clean_digest: u64,
) -> Result<StreamStats, String> {
    let mut server = Server::new(2).map_err(|e| format!("fuzz: server build: {e}"))?;
    let hostile_id = server
        .admit(Box::new(move || serve::build_session(seed)))
        .map_err(|e| format!("fuzz: admit hostile: {e}"))?;
    let clean_seed = seed;
    let clean_id = server
        .admit(Box::new(move || serve::build_session(clean_seed)))
        .map_err(|e| format!("fuzz: admit clean: {e}"))?;
    let mut hostile_open = true;
    let mut hostile_chunks = samples.chunks(BATCH);
    let mut stats = StreamStats {
        samples: samples.len(),
        ..StreamStats::default()
    };
    for chunk in clean.chunks(BATCH) {
        // The server catches session panics; any absorbed panic is
        // still a fuzz failure — the target is zero panics, not zero
        // crashes.
        if hostile_open {
            match hostile_chunks.next() {
                Some(h) => match server.ingest(hostile_id, h) {
                    Ok(_) => {}
                    Err(ServeError::Faulted) | Err(ServeError::Quarantined) => {
                        hostile_open = false;
                    }
                    Err(_) => {
                        stats.ingest_errors += 1;
                        hostile_open = false;
                    }
                },
                None => hostile_open = false,
            }
        }
        server
            .ingest(clean_id, chunk)
            .map_err(|e| format!("clean slot disturbed by hostile sibling: {e}"))?;
    }
    let panics = server.stats(hostile_id).map(|s| s.panics).unwrap_or(0)
        + server.stats(clean_id).map(|s| s.panics).unwrap_or(0);
    if panics > 0 {
        return Err(format!("{panics} PANIC(s) absorbed by the server"));
    }
    server
        .finish(clean_id)
        .map_err(|e| format!("clean slot failed to finish: {e}"))?;
    let got = server
        .session(clean_id)
        .map_err(|e| format!("clean slot digest unavailable: {e}"))?
        .digest();
    if got != clean_digest {
        return Err(format!(
            "crosstalk: clean slot digest {got:#018x} != solo {clean_digest:#018x}"
        ));
    }
    if server.health(clean_id) != Ok(SessionHealth::Healthy) {
        return Err("crosstalk: clean slot lost Healthy status".to_string());
    }
    if let Some(d) = server
        .session(hostile_id)
        .ok()
        .and_then(Session::dead_letters)
    {
        if d.len() > d.capacity() {
            return Err(format!(
                "hostile slot ledger exceeded its bound: {} > {}",
                d.len(),
                d.capacity()
            ));
        }
        stats.dead_letters = d.total();
        stats.max_ledger_len = d.len();
    }
    Ok(stats)
}

/// Runs one stream through the harness its index selects.
fn fuzz_one(
    seed: u64,
    base: &[Sample],
    alt: &[Sample],
    clean_digest: u64,
    i: u64,
) -> Result<StreamStats, String> {
    let (samples, applied) = hostile_stream(seed, base, alt, i);
    let tag = |e: String| {
        format!(
            "fuzz: stream {i} (seed {seed}, mutations {applied:?}, {} samples): {e}",
            samples.len()
        )
    };
    match i % 3 {
        0 => check_determinism(seed, &samples).map_err(tag),
        1 => check_recovery(seed, &samples, i).map_err(tag),
        _ => check_crosstalk(seed, &samples, base, clean_digest).map_err(tag),
    }
}

/// A fuzz run's failure: the report plus the failing stream's index
/// (when one specific stream, rather than the baseline, failed) so the
/// CLI can reconstruct its artifacts.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Human-readable divergence report.
    pub report: String,
    /// Index of the failing stream, if the failure was stream-specific.
    pub stream: Option<u64>,
}

impl From<String> for FuzzFailure {
    fn from(report: String) -> FuzzFailure {
        FuzzFailure {
            report,
            stream: None,
        }
    }
}

/// The CLI verb body: `streams` seeded hostile streams derived from
/// `scenario`'s golden schedule, fanned across `threads` workers.
/// `Ok` is an aggregate summary; `Err` is the first failing stream's
/// report (deterministic: the lowest failing index wins at any thread
/// count).
pub fn run_verb(
    seed: u64,
    streams: usize,
    threads: usize,
    scenario: &str,
) -> Result<String, FuzzFailure> {
    let base = serve::schedule_for(scenario, 1)?;
    // Crosstalk splices come from a different golden clock.
    let alt_name = if scenario == "goal" { "fig2" } else { "goal" };
    let alt = serve::schedule_for(alt_name, 1)?;
    let clean_digest = drive(build(seed)?, &base)
        .map_err(|e| format!("fuzz: clean baseline failed: {e}"))?
        .digest;
    let idxs: Vec<u64> = (0..streams as u64).collect();
    // Hostile streams have wildly uneven cost (one restores through the
    // ladder, another dies early); the pool claims one stream at a time.
    let results = simcore::par::map(threads, &idxs, |_, &i| {
        fuzz_one(seed, &base, &alt, clean_digest, i)
    });
    let mut agg = StreamStats::default();
    let mut recovered = 0usize;
    let mut name_flipped = 0usize;
    let mut errored_streams = 0usize;
    for (i, r) in idxs.iter().zip(results) {
        let s = r.map_err(|report| FuzzFailure {
            report,
            stream: Some(*i),
        })?;
        agg.samples += s.samples;
        agg.dead_letters += s.dead_letters;
        agg.ingest_errors += s.ingest_errors;
        agg.max_ledger_len = agg.max_ledger_len.max(s.max_ledger_len);
        recovered += usize::from(s.recovered);
        name_flipped += usize::from(s.name_flipped);
        errored_streams += usize::from(s.ingest_errors > 0);
    }
    Ok(format!(
        "fuzz: {streams} hostile {scenario} streams, 0 panics, {} samples served\n\
         fuzz: {} dead letters (ledger high-water {} of 64), {} streams closed by surfaced errors\n\
         fuzz: {recovered} mid-stream restores past a corrupted newest generation digest-stable, clean sibling digest {clean_digest:#018x} undisturbed\n\
         fuzz: {name_flipped} resealed name flips refused as Corrupt, each restored digest-stable from the older generation\n",
        agg.samples, agg.dead_letters, agg.max_ledger_len, errored_streams
    ))
}

/// Reconstructs the artifacts of a failing stream for CI upload: the
/// mutated sample stream (debug-rendered, one sample per line) and the
/// frozen snapshot of whatever state survives serving it.
pub fn failure_artifacts(
    seed: u64,
    scenario: &str,
    i: u64,
) -> Result<(String, Option<Vec<u8>>), String> {
    let base = serve::schedule_for(scenario, 1)?;
    let alt_name = if scenario == "goal" { "fig2" } else { "goal" };
    let alt = serve::schedule_for(alt_name, 1)?;
    let (samples, applied) = hostile_stream(seed, &base, &alt, i);
    let mut text =
        format!("# fuzz stream {i} seed {seed} scenario {scenario} mutations {applied:?}\n");
    for s in &samples {
        text.push_str(&format!("{s:?}\n"));
    }
    let mut session = build(seed)?;
    for chunk in samples.chunks(BATCH) {
        match guarded_ingest(&mut session, chunk) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) => break,
            Err(_) => break,
        }
    }
    Ok((text, session.freeze().ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracerec::GOLDEN_SEED;

    fn streams() -> (Vec<Sample>, Vec<Sample>) {
        let base = serve::schedule(1).expect("golden trace present");
        let alt = serve::schedule_for("goal", 1).expect("golden trace present");
        (base, alt)
    }

    /// Stream derivation is seeded (same index, same stream) and the
    /// operators actually mutate (different indices differ).
    #[test]
    fn hostile_streams_are_seeded_and_distinct() {
        let (base, alt) = streams();
        let (a1, ops1) = hostile_stream(GOLDEN_SEED, &base, &alt, 3);
        let (a2, _) = hostile_stream(GOLDEN_SEED, &base, &alt, 3);
        assert_eq!(a1, a2, "stream derivation is not seeded");
        assert!(!ops1.is_empty());
        let distinct = (0..8u64)
            .map(|i| hostile_stream(GOLDEN_SEED, &base, &alt, i).0)
            .any(|s| s != base);
        assert!(distinct, "no mutation changed the stream in 8 draws");
    }

    /// A small fuzz batch exercises all three harnesses without a
    /// panic, an unbounded ledger, or a digest instability.
    #[test]
    fn small_fuzz_batch_is_clean() {
        let out = run_verb(GOLDEN_SEED, 6, 2, serve::REPLAY_SCENARIO).expect("fuzz batch");
        assert!(out.contains("0 panics"), "{out}");
        assert!(out.contains("2 resealed name flips refused"), "{out}");
    }

    /// The fuzz verb's result is byte-identical at any thread count.
    #[test]
    fn fuzz_is_thread_count_invariant() {
        let a = run_verb(GOLDEN_SEED, 6, 1, serve::REPLAY_SCENARIO).expect("fuzz@1");
        let b = run_verb(GOLDEN_SEED, 6, 4, serve::REPLAY_SCENARIO).expect("fuzz@4");
        assert_eq!(a, b);
    }

    /// Failure artifacts reproduce: the stream text names the seed and
    /// the surviving state freezes.
    #[test]
    fn failure_artifacts_are_reconstructible() {
        let (text, snap) =
            failure_artifacts(GOLDEN_SEED, serve::REPLAY_SCENARIO, 1).expect("artifacts");
        assert!(text.contains("fuzz stream 1"), "{text}");
        assert!(snap.is_some(), "surviving state did not freeze");
    }
}
