//! Multi-session server: N independent [`Session`]s behind one bounded
//! admission surface, with per-session fault isolation.
//!
//! Each admitted session lives in a slot with its own rebuild closure,
//! exactly two snapshot [`Generation`]s, and the log of accepted samples
//! since the older one. After every accepted batch the new freeze
//! becomes the newest generation and the log is drained up to the older
//! one's `covered`, so a slot's memory is bounded by state and two
//! batches, never by history. A session that panics mid-ingest is caught
//! ([`std::panic::catch_unwind`] — the poisoned session object is
//! discarded, never reused) and rebuilt by [`restore`]: newest generation
//! first, the older one when the newest is corrupt. The offending batch
//! is rejected as [`ServeError::Faulted`]; siblings never notice. Only
//! when no generation restores is the slot quarantined
//! ([`ServeError::Quarantined`], health `Dead`) and closed to input. A
//! rig that cannot be frozen keeps its genesis generation and so its
//! whole log: boundedness needs a freezable rig.
//!
//! [`run_fleet`] fans whole session lifecycles across the deterministic
//! work pool: sessions share no state (each worker builds its own from
//! the spec), so the index-ordered merge makes the parallel run
//! byte-identical to the serial one at any thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::{restore, Directive, Generation, Sample, ServeError, Session, BATCH};

/// Liveness of one server slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionHealth {
    /// Serving normally.
    Healthy,
    /// At least one fault was absorbed by a rollback; serving normally.
    Recovered,
    /// A fault could not be recovered; the slot refuses all input.
    Dead {
        /// Why the final restore attempt failed.
        reason: &'static str,
    },
}

/// Per-slot accounting: monotone counters and high-water marks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Sample batches accepted.
    pub batches: u64,
    /// Directives returned to the caller.
    pub directives: u64,
    /// Panics caught and contained.
    pub panics: u64,
    /// Sessions rebuilt by [`restore`] after a contained panic.
    pub restores: u64,
    /// Restores that came back through the older generation because the
    /// newest one failed.
    pub fallbacks: u64,
    /// Snapshots taken after successful batches.
    pub snapshots: u64,
    /// Freeze attempts refused (non-freezable workload or hook); the
    /// slot keeps its generations and the log behind the older one.
    pub snapshot_failures: u64,
    /// Most samples the slot's log ever held.
    pub max_log_len: usize,
    /// Largest snapshot the slot ever kept, in bytes.
    pub max_snapshot_bytes: usize,
}

/// One slot: the live session plus everything needed to rebuild it.
struct Slot<'a> {
    builder: Box<dyn Fn() -> Result<Session, ServeError> + 'a>,
    session: Option<Session>,
    /// The recovery ladder, oldest first: at most two generations.
    generations: Vec<Generation>,
    /// Accepted samples from index `log_start` on: everything the older
    /// generation does not cover.
    log: Vec<Sample>,
    log_start: usize,
    health: SessionHealth,
    stats: SlotStats,
}

/// A bounded pool of independent serving sessions. See the module docs
/// for the isolation contract.
pub struct Server<'a> {
    slots: Vec<Slot<'a>>,
    max_sessions: usize,
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("sessions", &self.slots.len())
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl<'a> Server<'a> {
    /// An empty server admitting at most `max_sessions` sessions.
    pub fn new(max_sessions: usize) -> Result<Server<'a>, ServeError> {
        if max_sessions == 0 {
            return Err(ServeError::InvalidConfig("max_sessions is zero"));
        }
        Ok(Server {
            slots: Vec::new(),
            max_sessions,
        })
    }

    /// Admits one session built by `builder` and returns its slot id.
    /// The closure must rebuild the *identical* session on every call —
    /// that is what makes restoring from any generation sound.
    pub fn admit(
        &mut self,
        builder: Box<dyn Fn() -> Result<Session, ServeError> + 'a>,
    ) -> Result<usize, ServeError> {
        if self.slots.len() >= self.max_sessions {
            return Err(ServeError::AdmissionFull);
        }
        let session = builder()?;
        let id = self.slots.len();
        let mut slot = Slot {
            builder,
            session: Some(session),
            generations: vec![Generation::genesis()],
            log: Vec::new(),
            log_start: 0,
            health: SessionHealth::Healthy,
            stats: SlotStats::default(),
        };
        take_snapshot(&mut slot);
        self.slots.push(slot);
        Ok(id)
    }

    /// Sessions admitted so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True before the first admission.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.max_sessions
    }

    /// Health of slot `id`.
    pub fn health(&self, id: usize) -> Result<SessionHealth, ServeError> {
        self.slots
            .get(id)
            .map(|s| s.health)
            .ok_or(ServeError::UnknownSession)
    }

    /// Accounting for slot `id`.
    pub fn stats(&self, id: usize) -> Result<SlotStats, ServeError> {
        self.slots
            .get(id)
            .map(|s| s.stats)
            .ok_or(ServeError::UnknownSession)
    }

    /// The live session in slot `id`, for inspection (digest, latest
    /// checkpoint, dead letters). A dead slot has none.
    pub fn session(&self, id: usize) -> Result<&Session, ServeError> {
        let slot = self.slots.get(id).ok_or(ServeError::UnknownSession)?;
        slot.session.as_ref().ok_or(ServeError::Quarantined)
    }

    /// Feeds one sample batch to the session in slot `id`.
    ///
    /// A clean batch returns its directives and freezes the slot's newest
    /// generation. A batch that makes the session panic is contained: the
    /// session is restored to its pre-batch state and the call returns
    /// [`ServeError::Faulted`] (or [`ServeError::Quarantined`] when
    /// restore failed). Other slots are never affected.
    pub fn ingest(&mut self, id: usize, samples: &[Sample]) -> Result<Vec<Directive>, ServeError> {
        let slot = self.slots.get_mut(id).ok_or(ServeError::UnknownSession)?;
        let directives = contained(slot, |s| s.ingest(samples))?;
        slot.log.extend_from_slice(samples);
        slot.stats.max_log_len = slot.stats.max_log_len.max(slot.log.len());
        slot.stats.batches += 1;
        slot.stats.directives += directives.len() as u64;
        take_snapshot(slot);
        Ok(directives)
    }

    /// Runs the session in slot `id` to its horizon, with the same
    /// containment as [`Server::ingest`].
    pub fn finish(&mut self, id: usize) -> Result<machine::RunReport, ServeError> {
        let slot = self.slots.get_mut(id).ok_or(ServeError::UnknownSession)?;
        contained(slot, Session::finish)
    }
}

/// Runs `op` on the slot's session with panics contained. The session is
/// taken out of the slot first, so a panicking one is discarded, never
/// reused, and the slot recovers; a clean refusal (`Finished`) leaves it
/// intact.
fn contained<T>(
    slot: &mut Slot<'_>,
    op: impl FnOnce(&mut Session) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    if let SessionHealth::Dead { .. } = slot.health {
        return Err(ServeError::Quarantined);
    }
    let mut session = slot.session.take().ok_or(ServeError::Quarantined)?;
    match catch_unwind(AssertUnwindSafe(|| op(&mut session))) {
        Ok(r) => {
            slot.session = Some(session);
            r
        }
        Err(_panic) => recover(slot),
    }
}

/// Freezes the slot's session as the newest generation, retires the
/// oldest past two, and drains the log up to the older one's `covered`.
/// A refused freeze (non-freezable rig) changes nothing.
fn take_snapshot(slot: &mut Slot<'_>) {
    let Some(session) = slot.session.as_ref() else {
        return;
    };
    let bytes = match session.freeze() {
        Ok(bytes) => bytes,
        Err(_) => {
            slot.stats.snapshot_failures += 1;
            return;
        }
    };
    slot.stats.snapshots += 1;
    slot.stats.max_snapshot_bytes = slot.stats.max_snapshot_bytes.max(bytes.len());
    slot.generations.push(Generation {
        snapshot: Some(bytes),
        covered: slot.log_start + slot.log.len(),
    });
    if slot.generations.len() > 2 {
        slot.generations.remove(0);
    }
    let older = slot.generations.first().map_or(0, |g| g.covered);
    let drained = older.saturating_sub(slot.log_start).min(slot.log.len());
    slot.log.drain(..drained);
    slot.log_start += drained;
}

/// Rebuilds the slot's session after a contained panic. A restore
/// through the older generation drops the failed newest one and freezes
/// the restored state in its place. When nothing restores the slot dies.
fn recover<T>(slot: &mut Slot<'_>) -> Result<T, ServeError> {
    slot.stats.panics += 1;
    match restore(&slot.builder, &slot.generations, &slot.log, slot.log_start) {
        Ok((session, used)) => {
            slot.session = Some(session);
            slot.stats.restores += 1;
            if used + 1 < slot.generations.len() {
                slot.stats.fallbacks += 1;
                slot.generations.truncate(used + 1);
                take_snapshot(slot);
            }
            slot.health = SessionHealth::Recovered;
            Err(ServeError::Faulted)
        }
        Err(e) => {
            slot.session = None;
            slot.health = SessionHealth::Dead {
                reason: "no generation restored",
            };
            Err(e)
        }
    }
}

/// What one fleet session left behind.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetOutcome {
    /// Directives issued over the whole stream.
    pub directives: u64,
    /// Dead letters recorded.
    pub dead_letters: u64,
    /// Journal checkpoints recorded.
    pub checkpoints: usize,
    /// Final state digest.
    pub final_digest: u64,
    /// Batches rejected by fault containment.
    pub faults: u64,
    /// Slot health at the end of the stream.
    pub health: SessionHealth,
    /// The slot's accounting, high-water marks included.
    pub stats: SlotStats,
}

/// One session lifecycle for [`run_fleet`]: a rebuild closure and the
/// sample stream to drive through it.
pub struct FleetSpec<'s, B> {
    // (manual Debug below: `B` is an opaque closure.)
    /// Rebuilds the session (identically on every call).
    pub builder: B,
    /// The full input stream, fed in batches of [`BATCH`]. Borrowed:
    /// every session of a fleet may share one stream.
    pub samples: &'s [Sample],
}

impl<B> std::fmt::Debug for FleetSpec<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSpec")
            .field("samples", &self.samples.len())
            .finish_non_exhaustive()
    }
}

/// Runs each spec's whole session lifecycle on the deterministic work
/// pool and merges the outcomes in index order: byte-identical results
/// at any thread count. Sessions are single-threaded and share nothing;
/// parallelism is across sessions, never within one. A session is the
/// heaviest unit the pool ever schedules; each is one claim, taken as
/// workers free up.
pub fn run_fleet<B>(threads: usize, specs: &[FleetSpec<'_, B>]) -> Vec<FleetOutcome>
where
    B: Fn() -> Result<Session, ServeError> + Sync,
{
    simcore::par::map(threads, specs, |_, spec| run_spec(spec))
}

fn run_spec<B>(spec: &FleetSpec<'_, B>) -> FleetOutcome
where
    B: Fn() -> Result<Session, ServeError>,
{
    let dead = |reason: &'static str| FleetOutcome {
        directives: 0,
        dead_letters: 0,
        checkpoints: 0,
        final_digest: 0,
        faults: 0,
        health: SessionHealth::Dead { reason },
        stats: SlotStats::default(),
    };
    let Ok(mut server) = Server::new(1) else {
        return dead("server rejected bound 1");
    };
    let Ok(id) = server.admit(Box::new(&spec.builder)) else {
        return dead("admission failed");
    };
    let mut directives = 0u64;
    let mut faults = 0u64;
    for chunk in spec.samples.chunks(BATCH) {
        match server.ingest(id, chunk) {
            Ok(out) => directives += out.len() as u64,
            Err(ServeError::Faulted) => faults += 1,
            Err(ServeError::Quarantined) => break,
            Err(_) => break,
        }
    }
    if !matches!(server.health(id), Ok(SessionHealth::Dead { .. })) {
        match server.finish(id) {
            Ok(_) => {}
            Err(ServeError::Faulted) => faults += 1,
            Err(_) => {}
        }
    }
    let session = server.session(id).ok();
    let latest = session.and_then(|s| s.checkpoints().last().copied());
    FleetOutcome {
        directives,
        dead_letters: session
            .and_then(Session::dead_letters)
            .map_or(0, |d| d.total()),
        checkpoints: latest.map_or(0, |c| c.seq as usize + 1),
        final_digest: session.map_or(0, Session::digest),
        faults,
        health: server.health(id).unwrap_or(SessionHealth::Dead {
            reason: "slot vanished",
        }),
        stats: server.stats(id).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionConfig, SessionHealth as Health};
    use machine::workload::ScriptedWorkload;
    use machine::{Activity, Machine, MachineConfig, Step, Workload};
    use simcore::{SimDuration, SimTime, TraceCategory, TraceHandle, TraceSink};

    fn service_trace() -> TraceHandle {
        TraceHandle::new(
            TraceSink::new()
                .with_categories(&TraceCategory::CONTROL_PLANE)
                .with_jsonl(),
        )
    }

    fn cfg(horizon_s: u64) -> SessionConfig {
        SessionConfig {
            checkpoint_every: SimDuration::from_secs(10),
            horizon: SimTime::from_secs(horizon_s),
        }
    }

    fn idle_session(procs: usize) -> Result<Session, ServeError> {
        let mut m = Machine::new(MachineConfig::default());
        for _ in 0..procs {
            m.add_process(Box::new(ScriptedWorkload::idle_for(
                "idle",
                SimDuration::from_secs(200),
            )));
        }
        Session::serve(m, None, None, service_trace(), cfg(100))
    }

    /// Idles until a trigger instant, then panics on the next poll — the
    /// shape of a latent workload bug that a hostile input stream trips.
    struct PanicAt {
        at: SimTime,
    }

    impl Workload for PanicAt {
        fn name(&self) -> &'static str {
            "landmine"
        }
        fn names(&self) -> Vec<&'static str> {
            Vec::new()
        }
        fn poll(&mut self, now: SimTime) -> Step {
            assert!(now < self.at, "landmine tripped at {now:?}");
            Step::Run(Activity::Wait {
                until: now + SimDuration::from_secs(1),
            })
        }
        fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
            let _ = w;
            Ok(())
        }
        fn thaw(
            &mut self,
            r: &mut simcore::SnapshotReader<'_>,
        ) -> Result<(), simcore::SnapshotError> {
            let _ = r;
            Ok(())
        }
    }

    fn landmine_session(at_s: u64) -> Result<Session, ServeError> {
        let mut m = Machine::new(MachineConfig::default());
        m.add_process(Box::new(PanicAt {
            at: SimTime::from_secs(at_s),
        }));
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "idle",
            SimDuration::from_secs(200),
        )));
        Session::serve(m, None, None, service_trace(), cfg(100))
    }

    #[test]
    fn admission_is_bounded() {
        let mut server = Server::new(2).expect("server");
        assert!(Server::new(0).is_err());
        assert_eq!(server.admit(Box::new(|| idle_session(1))).expect("a"), 0);
        assert_eq!(server.admit(Box::new(|| idle_session(1))).expect("b"), 1);
        assert_eq!(
            server
                .admit(Box::new(|| idle_session(1)))
                .expect_err("full"),
            ServeError::AdmissionFull
        );
        assert_eq!(server.len(), 2);
        assert_eq!(server.capacity(), 2);
        assert_eq!(
            server.health(9).expect_err("oob"),
            ServeError::UnknownSession
        );
    }

    #[test]
    fn sessions_are_independent_and_match_a_solo_run() {
        let mut server = Server::new(4).expect("server");
        let a = server.admit(Box::new(|| idle_session(1))).expect("a");
        let b = server.admit(Box::new(|| idle_session(3))).expect("b");
        server.ingest(a, &[Sample::tick(25.0)]).expect("a ticks");
        server
            .ingest(b, &[Sample::tick(11.0), Sample::tick(44.0)])
            .expect("b ticks");
        // Each slot's digest equals a standalone session fed the same.
        let mut solo = idle_session(1).expect("solo");
        solo.ingest(&[Sample::tick(25.0)]).expect("solo ticks");
        assert_eq!(
            server.session(a).map(Session::digest).expect("digest"),
            solo.digest()
        );
        assert_ne!(
            server.session(a).map(Session::digest).expect("a"),
            server.session(b).map(Session::digest).expect("b")
        );
        assert_eq!(server.health(a).expect("a"), SessionHealth::Healthy);
        let stats = server.stats(a).expect("stats");
        assert_eq!(stats.batches, 1);
        assert!(stats.snapshots >= 1, "{stats:?}");
    }

    #[test]
    fn a_panicking_session_is_contained_and_rolled_back() {
        let mut server = Server::new(2).expect("server");
        let mine = server.admit(Box::new(|| landmine_session(30))).expect("m");
        let calm = server.admit(Box::new(|| idle_session(1))).expect("c");
        server
            .ingest(mine, &[Sample::tick(10.0)])
            .expect("pre-trip");
        let digest_before = server.session(mine).map(Session::digest).expect("digest");
        server.ingest(calm, &[Sample::tick(10.0)]).expect("calm");

        // This batch drives the landmine past its trigger: the session
        // panics inside ingest, the server contains it.
        let err = server
            .ingest(mine, &[Sample::tick(60.0)])
            .expect_err("tripped");
        assert_eq!(err, ServeError::Faulted);
        assert_eq!(
            server.health(mine).expect("health"),
            SessionHealth::Recovered
        );
        // Rolled back to the pre-batch state, in O(state) via snapshot.
        assert_eq!(
            server.session(mine).map(Session::digest).expect("digest"),
            digest_before
        );
        let stats = server.stats(mine).expect("stats");
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.restores, 1);
        assert_eq!(stats.fallbacks, 0);

        // The sibling never noticed.
        assert_eq!(server.health(calm).expect("calm"), SessionHealth::Healthy);
        server.ingest(calm, &[Sample::tick(20.0)]).expect("calm on");
        server.finish(calm).expect("calm finish");
    }

    /// Flips one payload byte of a slot's stored generation.
    fn corrupt(server: &mut Server<'_>, id: usize, generation: usize) {
        let bytes = server.slots[id].generations[generation]
            .snapshot
            .as_mut()
            .expect("a frozen generation");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
    }

    #[test]
    fn corrupt_newest_generation_restores_from_the_older() {
        let mut server = Server::new(1).expect("server");
        let id = server.admit(Box::new(|| landmine_session(30))).expect("m");
        server.ingest(id, &[Sample::tick(5.0)]).expect("first");
        server.ingest(id, &[Sample::tick(10.0)]).expect("second");
        let digest_before = server.session(id).map(Session::digest).expect("digest");
        // The envelope checksum rejects the newest generation; restore
        // thaws the older one and catches up on the logged batch.
        corrupt(&mut server, id, 1);
        let err = server
            .ingest(id, &[Sample::tick(60.0)])
            .expect_err("tripped");
        assert_eq!(err, ServeError::Faulted);
        assert_eq!(
            server.session(id).map(Session::digest).expect("digest"),
            digest_before
        );
        let stats = server.stats(id).expect("stats");
        assert_eq!((stats.restores, stats.fallbacks), (1, 1));
        assert_eq!(server.health(id).expect("health"), SessionHealth::Recovered);
        // The corrupt generation was replaced: the slot serves on.
        server.ingest(id, &[Sample::tick(20.0)]).expect("serves on");
    }

    #[test]
    fn both_generations_corrupt_kill_only_that_slot() {
        let mut server = Server::new(2).expect("server");
        let id = server.admit(Box::new(|| landmine_session(30))).expect("m");
        let calm = server.admit(Box::new(|| idle_session(1))).expect("c");
        server.ingest(id, &[Sample::tick(10.0)]).expect("pre-trip");
        server.ingest(calm, &[Sample::tick(10.0)]).expect("calm");
        let calm_digest = server
            .session(calm)
            .map(Session::digest)
            .expect("calm digest");
        corrupt(&mut server, id, 0);
        corrupt(&mut server, id, 1);
        let err = server
            .ingest(id, &[Sample::tick(60.0)])
            .expect_err("tripped");
        assert_eq!(err, ServeError::Quarantined);
        assert!(matches!(
            server.health(id).expect("health"),
            SessionHealth::Dead { reason } if !reason.is_empty()
        ));
        assert_eq!(
            server.ingest(id, &[Sample::tick(70.0)]).expect_err("dead"),
            ServeError::Quarantined
        );
        // The sibling is untouched.
        assert_eq!(server.health(calm).expect("calm"), SessionHealth::Healthy);
        assert_eq!(
            server
                .session(calm)
                .map(Session::digest)
                .expect("calm digest"),
            calm_digest
        );
        server.ingest(calm, &[Sample::tick(20.0)]).expect("calm on");
    }

    #[test]
    fn the_log_stays_within_two_batches() {
        let mut server = Server::new(1).expect("server");
        let id = server.admit(Box::new(|| idle_session(1))).expect("a");
        let batch = 4;
        for b in 0..200 {
            let chunk: Vec<Sample> = (0..batch)
                .map(|k| Sample::tick(((b * batch + k) as f64) * 0.1))
                .collect();
            server.ingest(id, &chunk).expect("ingest");
        }
        let stats = server.stats(id).expect("stats");
        assert_eq!(stats.batches, 200);
        assert!(stats.max_log_len <= 2 * batch, "{stats:?}");
        assert!(stats.max_snapshot_bytes > 0);
    }

    #[test]
    fn unrecoverable_slot_is_quarantined_not_propagated() {
        // A landmine at t=0 trips during admission's first real batch
        // and again during every replay: the slot dies cleanly.
        let mut server = Server::new(2).expect("server");
        let id = server.admit(Box::new(|| landmine_session(5))).expect("m");
        let calm = server.admit(Box::new(|| idle_session(1))).expect("c");
        let err = server
            .ingest(id, &[Sample::tick(50.0)])
            .expect_err("tripped");
        // The pre-batch snapshot restores state-at-admission, and the
        // catch-up suffix is empty, so first failure recovers...
        assert_eq!(err, ServeError::Faulted);
        // ...but the same hostile batch keeps failing without ever
        // corrupting the sibling, and the slot never lies about health.
        let err = server
            .ingest(id, &[Sample::tick(50.0)])
            .expect_err("tripped again");
        assert_eq!(err, ServeError::Faulted);
        server.ingest(calm, &[Sample::tick(20.0)]).expect("calm");
        assert_eq!(server.health(calm).expect("calm"), SessionHealth::Healthy);
    }

    #[test]
    fn fleet_runs_identically_at_every_thread_count() {
        // Three batches, the last one short.
        let samples: Vec<Sample> = (1..=2 * BATCH + 5)
            .map(|k| Sample::tick(k as f64 * 0.5))
            .collect();
        let specs: Vec<FleetSpec<_>> = (0..4)
            .map(|i| FleetSpec {
                builder: move || idle_session(1 + i % 2),
                samples: &samples,
            })
            .collect();
        let serial = run_fleet(1, &specs);
        assert_eq!(serial.len(), 4);
        for out in &serial {
            assert_eq!(out.health, SessionHealth::Healthy);
            assert_eq!(out.faults, 0);
            assert_eq!(out.stats.batches, 3);
            assert!(out.checkpoints > 0);
        }
        for threads in [2, 4] {
            assert_eq!(run_fleet(threads, &specs), serial, "threads={threads}");
        }
    }

    #[test]
    fn health_enum_reexports_match() {
        // `SessionHealth` is re-exported at the crate root.
        let h: Health = SessionHealth::Healthy;
        assert_eq!(h, Health::Healthy);
    }
}
