#![forbid(unsafe_code)]
// The serving layer parses untrusted samples and snapshot bytes: an
// out-of-bounds index would be a panic on hostile input, so every lookup
// goes through `.get()` (test code is exempt via `clippy.toml`).
#![deny(clippy::indexing_slicing)]
//! Always-on serving mode for the energy-adaptation control plane.
//!
//! The paper's viceroy is a long-lived OS component, not a batch job.
//! This crate packages the goal controller and [`odyssey::Supervisor`]
//! behind a harness-independent step API — [`Session::ingest`] — so the
//! same engine can be driven by an experiment harness, a replayed golden
//! trace, or an interactive operator, with three robustness contracts:
//!
//! - **Killable.** Every recovery is one function, [`restore`]: rebuild
//!   from the newest [`Generation`] that thaws and catch up on the log
//!   past it; full replay is the genesis generation. Snapshots carry
//!   state, not history, so the ladder stays bounded however long the
//!   session runs, and a resumed session must stand on the salvaged
//!   [`RunJournal`] checkpoint's digest. Crashing at *any* checkpoint
//!   boundary loses nothing. A [`Server`] slot keeps the ladder (two
//!   generations, refrozen after a fallback) and restores through it
//!   after a contained panic or a [`Server::kill`].
//! - **Reconfigurable.** Goal, budget, horizon, quarantine, and re-admit
//!   commands arrive as [`Sample`]s mid-session. Every command is
//!   validated and journaled as a first-class simtrace event
//!   (`reconfig_applied` / `reconfig_rejected`) before it touches the
//!   machine, so a reconfigured run replays exactly like it ran.
//! - **Unpanickable at the edge.** Malformed or out-of-order input is
//!   rejected-and-traced into a bounded [`DeadLetterLedger`], never a
//!   panic. A flood of dead letters attributable to one process
//!   escalates into the Supervisor's existing strike ladder.
//!
//! A [`Session`] is only the serving engine. Batch figures, which
//! nobody reconfigures mid-run, drive a [`Machine`] directly with
//! [`Machine::run`] or [`Machine::run_until`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use machine::{CheckpointHook, ControlHook, Machine, MachineView, RunReport};
use odyssey::{GoalHandle, SupervisorHandle};
use simcore::{
    Checkpoint, Codec, Joules, Names, RunJournal, SimDuration, SimTime, SnapshotError,
    SnapshotReader, SnapshotWriter, TraceEvent, TraceHandle,
};

mod server;
pub use server::{run_fleet, FleetOutcome, FleetSpec, Server, SessionHealth, SlotStats};

/// Service-layer failure. Every state-changing entry point returns
/// `Result<_, ServeError>`: the service never panics on caller input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A [`SessionConfig`] field failed validation at construction.
    InvalidConfig(&'static str),
    /// [`Session::finish`] already ran the session to its horizon; no
    /// further stepping is possible. (A machine that stopped early still
    /// takes samples, and dead-letters them as `after_stop`.)
    Finished,
    /// The server is at its admission bound; no further sessions.
    AdmissionFull,
    /// No session occupies this server slot.
    UnknownSession,
    /// The session faulted on this input batch and was rolled back to
    /// its last good state; the batch was rejected, siblings untouched.
    Faulted,
    /// The session faulted and could not be restored; the slot refuses
    /// all further input.
    Quarantined,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(what) => write!(f, "invalid session config: {what}"),
            ServeError::Finished => write!(f, "session already finished"),
            ServeError::AdmissionFull => write!(f, "server admission bound reached"),
            ServeError::UnknownSession => write!(f, "no session in this slot"),
            ServeError::Faulted => write!(f, "session faulted; rolled back to last good state"),
            ServeError::Quarantined => write!(f, "session quarantined; restore failed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Retained entries of every session's dead-letter ledger; past it the
/// oldest entry is dropped (and counted).
pub const DEAD_LETTER_CAPACITY: usize = 64;

/// Period of the actuator hook that applies quarantine/re-admit
/// commands inside the event loop.
pub const ACTUATION_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Dead letters attributable to one process before the service posts an
/// external strike to the Supervisor ladder.
pub const ESCALATE_AFTER: u64 = 8;

/// Samples per [`Session::ingest`] call when a caller feeds a stream in
/// batches, as [`run_fleet`] does.
pub const BATCH: usize = 64;

/// Configuration for a serving session.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Checkpoint cadence: a digest proof point every K sim-seconds.
    pub checkpoint_every: SimDuration,
    /// Hard end of the session's timeline; samples beyond it are
    /// dead-lettered and [`Session::finish`] runs to exactly here.
    pub horizon: SimTime,
}

impl SessionConfig {
    /// Serving defaults: 30 s checkpoints.
    pub fn standard(horizon: SimTime) -> SessionConfig {
        SessionConfig {
            checkpoint_every: SimDuration::from_secs(30),
            horizon,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.checkpoint_every.is_zero() {
            return Err(ServeError::InvalidConfig("checkpoint_every is zero"));
        }
        if self.horizon == SimTime::ZERO {
            return Err(ServeError::InvalidConfig("horizon is zero"));
        }
        Ok(())
    }
}

/// A live reconfiguration command, carried by a [`Sample`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReconfigCommand {
    /// Move the goal deadline to `ZERO + duration` (§5.4's
    /// longer-duration goals, applied dynamically).
    Goal(SimDuration),
    /// Replace the controller's energy budget.
    BudgetJ(Joules),
    /// Move the session horizon.
    Horizon(SimTime),
    /// Quarantine the process with this machine index.
    Quarantine(usize),
    /// Re-admit (restart) the quarantined process with this index.
    Readmit(usize),
}

/// Payload of one input sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleKind {
    /// Advance the event loop to the sample's timestamp.
    Tick,
    /// Advance, then apply a reconfiguration command.
    Reconfig(ReconfigCommand),
}

/// One unit of session input: a timestamp (fractional seconds, validated
/// — `NaN`/negative/out-of-order input is dead-lettered, not trusted), a
/// payload, and an optional originating process index for dead-letter
/// attribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Timestamp in seconds since session start. Deliberately a raw
    /// `f64`: external feeds are untrusted and validation is the
    /// session's job.
    pub at_s: f64,
    /// What to do at that instant.
    pub kind: SampleKind,
    /// Process index blamed for a malformed sample, if known.
    pub origin: Option<usize>,
}

impl Sample {
    /// A plain clock-advance sample.
    pub fn tick(at_s: f64) -> Sample {
        Sample {
            at_s,
            kind: SampleKind::Tick,
            origin: None,
        }
    }

    /// A reconfiguration sample.
    pub fn reconfig(at_s: f64, cmd: ReconfigCommand) -> Sample {
        Sample {
            at_s,
            kind: SampleKind::Reconfig(cmd),
            origin: None,
        }
    }

    /// Attributes this sample to a process index for dead-letter
    /// accounting and escalation.
    pub fn from_origin(mut self, pid_index: usize) -> Sample {
        self.origin = Some(pid_index);
        self
    }
}

/// One output of [`Session::ingest`]: everything the control plane did
/// while the clock advanced, in time order.
#[derive(Clone, Debug, PartialEq)]
pub enum Directive {
    /// A workload's fidelity level changed.
    Fidelity {
        /// Instant of the change.
        at: SimTime,
        /// Process id (machine index).
        pid: u64,
        /// `"up"` or `"down"`.
        direction: &'static str,
        /// New fidelity level (0 = highest fidelity).
        level: u64,
    },
    /// A datapath clamp factor was applied to a process.
    Clamp {
        /// Instant of the clamp.
        at: SimTime,
        /// Process id.
        pid: u64,
        /// Multiplier in (0, 1].
        factor: f64,
    },
    /// A process was quarantined (suspended).
    Quarantined {
        /// Instant of the suspension.
        at: SimTime,
        /// Process id.
        pid: u64,
    },
    /// A quarantined process was restarted.
    Restarted {
        /// Instant of the restart.
        at: SimTime,
        /// Process id.
        pid: u64,
    },
    /// The goal controller found the goal infeasible at lowest fidelity.
    GoalInfeasible {
        /// Instant of the verdict.
        at: SimTime,
    },
    /// The finite energy supply ran out.
    SupplyExhausted {
        /// Instant of exhaustion.
        at: SimTime,
        /// Energy left (≈ 0).
        residual_j: Joules,
    },
    /// A reconfiguration command was accepted and applied.
    ReconfigApplied {
        /// Instant of application.
        at: SimTime,
        /// Command kind (`"goal"`, `"budget"`, `"horizon"`,
        /// `"quarantine"`, `"readmit"`).
        kind: &'static str,
        /// Command argument (seconds, joules, or process index).
        value: f64,
    },
    /// A reconfiguration command was rejected by validation.
    ReconfigRejected {
        /// Instant of rejection.
        at: SimTime,
        /// Command kind.
        kind: &'static str,
        /// Validation failure.
        reason: &'static str,
    },
    /// A malformed input sample was dead-lettered.
    DeadLettered {
        /// Instant of rejection (the session cursor).
        at: SimTime,
        /// Why the sample was rejected.
        reason: &'static str,
    },
    /// The journal recorded a checkpoint proof point.
    Checkpointed {
        /// Checkpoint sequence number.
        seq: u64,
        /// Instant the digest was taken.
        at: SimTime,
        /// Digest of the full live state.
        digest: u64,
    },
}

impl Directive {
    /// Instant the directive happened — the merge key for time-ordering.
    pub fn at(&self) -> SimTime {
        match *self {
            Directive::Fidelity { at, .. }
            | Directive::Clamp { at, .. }
            | Directive::Quarantined { at, .. }
            | Directive::Restarted { at, .. }
            | Directive::GoalInfeasible { at }
            | Directive::SupplyExhausted { at, .. }
            | Directive::ReconfigApplied { at, .. }
            | Directive::ReconfigRejected { at, .. }
            | Directive::DeadLettered { at, .. }
            | Directive::Checkpointed { at, .. } => at,
        }
    }
}

/// Every reason a sample is dead-lettered for. A snapshot's dead-letter
/// ledger thaws only with these reasons.
pub const DEAD_LETTER_REASONS: [&str; 5] = [
    "not_finite",
    "negative_time",
    "out_of_order",
    "beyond_horizon",
    "after_stop",
];

/// One rejected input sample, as kept by the bounded ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeadLetter {
    /// The sample's claimed timestamp (may be garbage — that is often
    /// why it is here).
    pub at_s: f64,
    /// Why it was rejected.
    pub reason: &'static str,
    /// Originating process index, if the sample carried one.
    pub origin: Option<usize>,
}

simcore::impl_codec!(DeadLetter {
    at_s,
    reason,
    origin
});

/// Bounded FIFO of rejected samples. Past [`DEAD_LETTER_CAPACITY`] the
/// oldest entry is dropped and counted — the ledger never grows without
/// bound, and the totals never lie.
#[derive(Clone, Debug, Default)]
pub struct DeadLetterLedger {
    entries: VecDeque<DeadLetter>,
    dropped: u64,
}

impl DeadLetterLedger {
    fn push(&mut self, letter: DeadLetter) -> u64 {
        if self.entries.len() == DEAD_LETTER_CAPACITY {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(letter);
        self.total()
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &DeadLetter> {
        self.entries.iter()
    }

    /// Dead letters recorded over the session's lifetime: those evicted
    /// and those retained.
    pub fn total(&self) -> u64 {
        self.dropped.saturating_add(self.entries.len() as u64)
    }

    /// Entries evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained entry count — never exceeds [`DeadLetterLedger::capacity`].
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retention bound, [`DEAD_LETTER_CAPACITY`].
    pub fn capacity(&self) -> usize {
        DEAD_LETTER_CAPACITY
    }
}

/// A quarantine/re-admit request queued for the actuator hook.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Actuation {
    Quarantine(usize),
    Readmit(usize),
}

impl Codec for Actuation {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            Actuation::Quarantine(i) => w.put(&(0u64, i)),
            Actuation::Readmit(i) => w.put(&(1u64, i)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u64>()? {
            0 => Ok(Actuation::Quarantine(r.take()?)),
            1 => Ok(Actuation::Readmit(r.take()?)),
            _ => Err(SnapshotError::Corrupt("actuation tag")),
        }
    }
}

/// Control hook that applies queued quarantine/re-admit commands at its
/// tick, inside the event loop — so actuation lands at a deterministic
/// instant regardless of how the sample stream is batched.
struct ServiceHook {
    inbox: Rc<RefCell<VecDeque<Actuation>>>,
}

impl ControlHook for ServiceHook {
    fn on_tick(&mut self, _now: SimTime, view: &mut MachineView<'_>) {
        loop {
            let next = self.inbox.borrow_mut().pop_front();
            let Some(act) = next else { break };
            let (kind, idx) = match act {
                Actuation::Quarantine(i) => ("quarantine", i),
                Actuation::Readmit(i) => ("readmit", i),
            };
            let Some(info) = view.process(idx) else {
                view.emit_trace(TraceEvent::ReconfigRejected {
                    kind,
                    reason: "unknown_pid",
                });
                continue;
            };
            let verdict = match act {
                Actuation::Quarantine(_) if info.suspended => Err("already_quarantined"),
                Actuation::Quarantine(_) => {
                    if view.suspend(info.pid) {
                        Ok(())
                    } else {
                        Err("stale")
                    }
                }
                Actuation::Readmit(_) if !info.suspended => Err("not_quarantined"),
                Actuation::Readmit(_) => {
                    if view.restart(info.pid) {
                        Ok(())
                    } else {
                        Err("stale")
                    }
                }
            };
            match verdict {
                Ok(()) => view.emit_trace(TraceEvent::ReconfigApplied {
                    kind,
                    value: idx as f64,
                }),
                Err(reason) => view.emit_trace(TraceEvent::ReconfigRejected { kind, reason }),
            }
        }
    }

    fn freeze(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put(&*self.inbox.borrow());
        Ok(())
    }

    fn thaw(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self.inbox.borrow_mut() = r.take()?;
        Ok(())
    }
}

/// A long-lived control-plane session around one deterministic machine:
/// checkpoints, live reconfiguration and a dead-letter ledger on top of
/// the machine's event loop. All stepping goes through `Result` — the
/// service layer refuses, it does not panic.
pub struct Session {
    machine: Machine,
    cursor: SimTime,
    stopped: bool,
    finished: bool,
    cfg: SessionConfig,
    journal: Rc<RefCell<RunJournal>>,
    trace: TraceHandle,
    inbox: Rc<RefCell<VecDeque<Actuation>>>,
    goal: Option<GoalHandle>,
    supervisor: Option<SupervisorHandle>,
    dead: DeadLetterLedger,
    dead_by_origin: BTreeMap<usize, u64>,
    /// First trace seq not yet turned into a directive.
    next_seq: u64,
    /// Length of the snapshot this session last froze or thawed: the
    /// next freeze reserves it, since a served state barely changes size.
    snapshot_len: Cell<usize>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("cursor", &self.cursor)
            .field("stopped", &self.stopped)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Wraps a fully-built machine: attaches the checkpoint and actuator
    /// hooks, shares the trace, and returns a session ready for
    /// [`Session::ingest`].
    ///
    /// The caller builds the rig (processes, goal-controller hook,
    /// supervisor hook) exactly as for a batch run, then hands it over
    /// *before* running. `goal` enables goal/budget reconfiguration;
    /// `supervisor` enables dead-letter escalation.
    pub fn serve(
        mut machine: Machine,
        goal: Option<GoalHandle>,
        supervisor: Option<SupervisorHandle>,
        trace: TraceHandle,
        cfg: SessionConfig,
    ) -> Result<Session, ServeError> {
        cfg.validate()?;
        machine.set_trace(trace.clone());
        let journal = Rc::new(RefCell::new(RunJournal::new(cfg.checkpoint_every)));
        machine.add_hook(
            cfg.checkpoint_every,
            Box::new(CheckpointHook::new(journal.clone())),
        );
        let inbox = Rc::new(RefCell::new(VecDeque::new()));
        machine.add_hook(
            ACTUATION_PERIOD,
            Box::new(ServiceHook {
                inbox: inbox.clone(),
            }),
        );
        Ok(Session {
            machine,
            cursor: SimTime::ZERO,
            stopped: false,
            finished: false,
            cfg,
            journal,
            trace,
            inbox,
            goal,
            supervisor,
            dead: DeadLetterLedger::default(),
            dead_by_origin: BTreeMap::new(),
            next_seq: 0,
            snapshot_len: Cell::new(0),
        })
    }

    /// Feeds a batch of input samples and returns every directive the
    /// control plane issued while the clock advanced, in time order.
    ///
    /// Each valid sample advances the event loop to its timestamp and
    /// then applies its payload. Malformed samples (non-finite or
    /// negative timestamps, out-of-order arrivals, input after the
    /// machine stopped or beyond the horizon) are dead-lettered and
    /// traced — never a panic, and never a silent drop.
    pub fn ingest(&mut self, samples: &[Sample]) -> Result<Vec<Directive>, ServeError> {
        if self.finished {
            return Err(ServeError::Finished);
        }
        for sample in samples {
            self.ingest_one(sample);
        }
        Ok(self.drain_directives())
    }

    /// Runs the session to its configured horizon and returns the final
    /// report; the session is finished afterwards.
    pub fn finish(&mut self) -> Result<RunReport, ServeError> {
        if self.finished {
            return Err(ServeError::Finished);
        }
        let horizon = self.cfg.horizon;
        let report = self.machine.run_until(horizon);
        self.cursor = horizon;
        self.finished = true;
        Ok(report)
    }

    /// 64-bit digest of the machine's live state — the checkpoint/resume
    /// proof token.
    pub fn digest(&self) -> u64 {
        self.machine.state_digest()
    }

    /// Encodes the session's full mutable state — machine, hooks,
    /// journal, ledgers, trace counters — into a self-verifying binary
    /// snapshot. Restoring it with [`Session::thaw`] resumes in O(state)
    /// instead of replaying the whole sample stream.
    ///
    /// Fails with [`SnapshotError::Unsupported`] when any attached
    /// workload or hook lacks a freeze implementation; such a session
    /// restores only from the genesis [`Generation`].
    pub fn freeze(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::with_capacity(self.snapshot_len.get());
        w.put(&self.cursor);
        w.put(&self.stopped);
        w.put(&self.finished);
        // Only the horizon is mutable config (live reconfig).
        w.put(&self.cfg.horizon);
        self.trace.freeze_counters_into(&mut w);
        w.put(&self.dead.dropped);
        w.put(&self.dead.entries);
        w.put(&self.dead_by_origin);
        w.put(&self.next_seq);
        self.machine.freeze(&mut w)?;
        // Trailing self-check: thaw recomputes the digest and refuses a
        // decode that is well-formed but semantically wrong.
        w.put(&self.machine.state_digest());
        let bytes = w.seal();
        self.snapshot_len.set(bytes.len());
        Ok(bytes)
    }

    /// Restores a snapshot taken by [`Session::freeze`] onto this
    /// freshly-built session. The session must have been rebuilt from
    /// the *identical* configuration (same rig builder, same seed, same
    /// [`SessionConfig`]); construction-time state is not in the
    /// snapshot.
    ///
    /// On any error the session is left partially mutated — discard it;
    /// [`restore`] moves on to the next older generation. Corruption
    /// (flipped bits, truncation, version skew) is detected by the
    /// envelope checksum, field validation, or the trailing digest
    /// self-check; none of these paths panic.
    pub fn thaw(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let names = self.names().with(DEAD_LETTER_REASONS);
        let mut r = SnapshotReader::open(bytes)?.with_names(&names);
        let cursor = r.take()?;
        let stopped = r.take()?;
        let finished = r.take()?;
        self.cfg.horizon = r.take()?;
        self.trace.restore_counters_from(&mut r)?;
        let dead = &mut self.dead;
        dead.dropped = r.take()?;
        dead.entries = r.take()?;
        if dead.entries.len() > DEAD_LETTER_CAPACITY {
            return Err(SnapshotError::Corrupt("dead-letter ledger overflow"));
        }
        self.dead_by_origin = r.take()?;
        self.next_seq = r.take()?;
        self.machine.thaw(&mut r)?;
        let want = r.take::<u64>()?;
        r.finish()?;
        if self.machine.state_digest() != want {
            return Err(SnapshotError::Corrupt("restored state digest mismatch"));
        }
        self.cursor = cursor;
        self.stopped = stopped;
        self.finished = finished;
        self.snapshot_len.set(bytes.len());
        Ok(())
    }

    /// The bucket and procedure names the session's machine books; see
    /// [`Machine::names`]. A snapshot thaws only with these names and the
    /// [`DEAD_LETTER_REASONS`].
    pub fn names(&self) -> &Names {
        self.machine.names()
    }

    /// The session clock: the latest validated sample timestamp (or run
    /// horizon) the event loop has been advanced to.
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// True once [`Session::finish`] ran the session to its horizon.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The latest journal checkpoint, as a list of at most one. Earlier
    /// checkpoints left the session as [`Directive::Checkpointed`]; the
    /// journal keeps no history.
    pub fn checkpoints(&self) -> Vec<Checkpoint> {
        self.journal
            .borrow()
            .latest()
            .copied()
            .into_iter()
            .collect()
    }

    /// The dead-letter ledger; always `Some`.
    pub fn dead_letters(&self) -> Option<&DeadLetterLedger> {
        Some(&self.dead)
    }

    /// JSONL lines of the serving trace so far — the byte stream two runs
    /// are compared over in the kill/resume proof.
    pub fn trace_jsonl(&self) -> Vec<String> {
        self.trace.jsonl()
    }

    /// Applies one sample: validate, advance, act. All rejection paths
    /// end in the dead-letter ledger.
    fn ingest_one(&mut self, sample: &Sample) {
        if !sample.at_s.is_finite() {
            self.dead_letter(sample, "not_finite");
            return;
        }
        if sample.at_s < 0.0 {
            self.dead_letter(sample, "negative_time");
            return;
        }
        let at = SimTime::from_secs_f64(sample.at_s);
        if at < self.cursor {
            self.dead_letter(sample, "out_of_order");
            return;
        }
        if at > self.cfg.horizon {
            self.dead_letter(sample, "beyond_horizon");
            return;
        }
        if self.stopped {
            self.dead_letter(sample, "after_stop");
            return;
        }
        let reached = self.machine.drive_until(at);
        self.cursor = at;
        if reached < at {
            // The machine stopped early (goal met, supply exhausted, or
            // all processes done); later samples are dead letters.
            self.stopped = true;
            if let SampleKind::Reconfig(_) = sample.kind {
                self.dead_letter(sample, "after_stop");
            }
            return;
        }
        if let SampleKind::Reconfig(cmd) = sample.kind {
            self.apply_reconfig(at, cmd);
        }
    }

    /// Validates and applies one reconfiguration command at instant
    /// `at`, tracing the verdict either way.
    fn apply_reconfig(&mut self, at: SimTime, cmd: ReconfigCommand) {
        let verdict: Result<(&'static str, f64), (&'static str, &'static str)> = match cmd {
            ReconfigCommand::Goal(goal) => {
                if goal.is_zero() {
                    Err(("goal", "non_positive"))
                } else if SimTime::ZERO + goal <= at {
                    Err(("goal", "already_missed"))
                } else if let Some(handle) = &self.goal {
                    handle.post_goal_revision(goal);
                    Ok(("goal", goal.as_secs_f64()))
                } else {
                    Err(("goal", "no_controller"))
                }
            }
            ReconfigCommand::BudgetJ(budget_j) => {
                if !budget_j.is_finite() {
                    Err(("budget", "not_finite"))
                } else if budget_j <= Joules::ZERO {
                    Err(("budget", "non_positive"))
                } else if let Some(handle) = &self.goal {
                    handle.post_budget_revision_j(budget_j);
                    Ok(("budget", budget_j.0))
                } else {
                    Err(("budget", "no_controller"))
                }
            }
            ReconfigCommand::Horizon(horizon) => {
                if horizon <= at {
                    Err(("horizon", "below_elapsed"))
                } else {
                    self.cfg.horizon = horizon;
                    Ok(("horizon", horizon.as_secs_f64()))
                }
            }
            ReconfigCommand::Quarantine(idx) => {
                self.inbox
                    .borrow_mut()
                    .push_back(Actuation::Quarantine(idx));
                return; // verdict traced by the actuator hook at its tick
            }
            ReconfigCommand::Readmit(idx) => {
                self.inbox.borrow_mut().push_back(Actuation::Readmit(idx));
                return;
            }
        };
        let event = match verdict {
            Ok((kind, value)) => TraceEvent::ReconfigApplied { kind, value },
            Err((kind, reason)) => TraceEvent::ReconfigRejected { kind, reason },
        };
        self.trace.emit(at, event);
    }

    /// Records one dead letter at the session cursor: ledger, trace,
    /// per-origin escalation.
    fn dead_letter(&mut self, sample: &Sample, reason: &'static str) {
        debug_assert!(
            DEAD_LETTER_REASONS.contains(&reason),
            "undeclared reason {reason}"
        );
        let count = self.dead.push(DeadLetter {
            at_s: sample.at_s,
            reason,
            origin: sample.origin,
        });
        self.trace
            .emit(self.cursor, TraceEvent::DeadLetter { reason, count });
        if let Some(origin) = sample.origin {
            let per = self.dead_by_origin.entry(origin).or_insert(0);
            *per += 1;
            if *per >= ESCALATE_AFTER {
                *per = 0;
                if let Some(sup) = &self.supervisor {
                    sup.post_external_strike(origin);
                }
            }
        }
    }

    /// Turns everything traced or journaled since the last drain into
    /// time-ordered directives.
    fn drain_directives(&mut self) -> Vec<Directive> {
        let mut from_trace: Vec<Directive> = Vec::new();
        self.trace.visit_from(self.next_seq, |rec| {
            self.next_seq = rec.seq + 1;
            let at = rec.at;
            let directive = match rec.event {
                TraceEvent::FidelityChange {
                    pid,
                    direction,
                    level,
                    ..
                } => Directive::Fidelity {
                    at,
                    pid,
                    direction,
                    level,
                },
                TraceEvent::DatapathClamp { pid, factor } => Directive::Clamp { at, pid, factor },
                TraceEvent::Suspend { pid, .. } => Directive::Quarantined { at, pid },
                TraceEvent::Restart { pid, .. } => Directive::Restarted { at, pid },
                TraceEvent::GoalInfeasible => Directive::GoalInfeasible { at },
                TraceEvent::SupplyExhausted { residual_j } => Directive::SupplyExhausted {
                    at,
                    residual_j: Joules(residual_j),
                },
                TraceEvent::ReconfigApplied { kind, value } => {
                    Directive::ReconfigApplied { at, kind, value }
                }
                TraceEvent::ReconfigRejected { kind, reason } => {
                    Directive::ReconfigRejected { at, kind, reason }
                }
                TraceEvent::DeadLetter { reason, .. } => Directive::DeadLettered { at, reason },
                _ => return,
            };
            from_trace.push(directive);
        });
        let from_journal: Vec<Directive> = self
            .journal
            .borrow_mut()
            .drain()
            .into_iter()
            .map(|ck| Directive::Checkpointed {
                seq: ck.seq,
                at: ck.t,
                digest: ck.digest,
            })
            .collect();
        // Stable two-way merge by time; trace events win ties so a
        // checkpoint at t sorts after the events that produced state t.
        let mut out = Vec::with_capacity(from_trace.len() + from_journal.len());
        let mut ti = from_trace.into_iter().peekable();
        let mut ji = from_journal.into_iter().peekable();
        loop {
            let take_trace = match (ti.peek(), ji.peek()) {
                (Some(t), Some(j)) => t.at() <= j.at(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_trace {
                out.extend(ti.next());
            } else {
                out.extend(ji.next());
            }
        }
        out
    }
}

/// One rung of the recovery ladder: a frozen session and how many log
/// samples it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generation {
    /// [`Session::freeze`] bytes; `None` is the genesis, where the freshly
    /// built session is the state (the one rung of an unfreezable rig).
    pub snapshot: Option<Vec<u8>>,
    /// Log samples the state covers; restore feeds the ones after them.
    pub covered: usize,
}

impl Generation {
    /// The genesis generation: a fresh build, covering no samples.
    pub fn genesis() -> Generation {
        Generation {
            snapshot: None,
            covered: 0,
        }
    }
}

/// The one recovery path: rebuilds a session from the newest generation
/// that works. `generations` run oldest first; `log` holds the sample
/// stream from index `log_start` on. Newest first, each generation is
/// built, thawed (unless it is the genesis) and fed the log past
/// `covered`, panics contained; a generation whose `covered` precedes
/// `log_start` is skipped. Returns the session and its generation's
/// index, or [`ServeError::Quarantined`] when none restores. Full replay
/// is the genesis fed the whole log.
pub fn restore(
    build: impl Fn() -> Result<Session, ServeError>,
    generations: &[Generation],
    log: &[Sample],
    log_start: usize,
) -> Result<(Session, usize), ServeError> {
    for (i, generation) in generations.iter().enumerate().rev() {
        let Some(suffix) = generation
            .covered
            .checked_sub(log_start)
            .and_then(|skip| log.get(skip..))
        else {
            continue;
        };
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut session = build()?;
            if let Some(bytes) = &generation.snapshot {
                session.thaw(bytes).map_err(|_| ServeError::Quarantined)?;
            }
            if !suffix.is_empty() {
                session.ingest(suffix)?;
            }
            Ok::<Session, ServeError>(session)
        }));
        if let Ok(Ok(session)) = attempt {
            return Ok((session, i));
        }
    }
    Err(ServeError::Quarantined)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use machine::{Activity, FidelityView, MachineConfig, Step, Workload};
    use simcore::{TraceCategory, TraceSink};

    /// The generic codec property test over this crate's impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use simcore::snapshot::{check_codec, check_codec_in};
        check_codec(&VecDeque::from([
            Actuation::Quarantine(1),
            Actuation::Readmit(2),
        ]));
        check_codec_in(
            &DeadLetter {
                at_s: -0.5,
                reason: "negative_time",
                origin: Some(4),
            },
            &Names::new(DEAD_LETTER_REASONS),
        );
        check_codec_in(
            &DeadLetter {
                at_s: f64::INFINITY,
                reason: "not_finite",
                origin: None,
            },
            &Names::new(DEAD_LETTER_REASONS),
        );
    }

    fn idle_machine(procs: usize, secs: u64) -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        for _ in 0..procs {
            m.add_process(Box::new(ScriptedWorkload::idle_for(
                "idle",
                SimDuration::from_secs(secs),
            )));
        }
        m
    }

    /// An idle workload that accepts restarts — quarantine/re-admit needs
    /// a cooperating `on_restart` (ScriptedWorkload refuses it).
    struct RestartableIdle {
        until: SimTime,
    }

    impl Workload for RestartableIdle {
        fn name(&self) -> &'static str {
            "ridle"
        }
        fn names(&self) -> Vec<&'static str> {
            Vec::new()
        }
        fn poll(&mut self, now: SimTime) -> Step {
            if now >= self.until {
                Step::Done
            } else {
                Step::Run(Activity::Wait {
                    until: now + SimDuration::from_secs(1),
                })
            }
        }
        fn fidelity(&self) -> FidelityView {
            FidelityView {
                level: 0,
                levels: 1,
            }
        }
        fn on_restart(&mut self, _now: SimTime) -> bool {
            true
        }
    }

    fn restartable_machine(procs: usize, secs: u64) -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        for _ in 0..procs {
            m.add_process(Box::new(RestartableIdle {
                until: SimTime::from_secs(secs),
            }));
        }
        m
    }

    /// Requests a run stop at a fixed instant — how the unit tests model
    /// a control plane that halts the machine (goal met, supply gone).
    struct StopAt(SimTime);

    impl ControlHook for StopAt {
        fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
            if now >= self.0 {
                view.request_stop();
            }
        }
    }

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

    #[test]
    fn serve_rejects_invalid_config() {
        for (broken, what) in [
            (
                SessionConfig {
                    checkpoint_every: SimDuration::ZERO,
                    ..cfg(100)
                },
                "checkpoint_every",
            ),
            (
                SessionConfig {
                    horizon: SimTime::ZERO,
                    ..cfg(100)
                },
                "horizon",
            ),
        ] {
            let err = Session::serve(idle_machine(1, 60), None, None, service_trace(), broken)
                .map(|_| ())
                .expect_err(what);
            assert!(matches!(err, ServeError::InvalidConfig(_)), "{what}");
        }
    }

    #[test]
    fn ticks_advance_and_checkpoint() {
        let mut s = Session::serve(idle_machine(1, 120), None, None, service_trace(), cfg(100))
            .expect("serve");
        let out = s
            .ingest(&[Sample::tick(15.0), Sample::tick(35.0)])
            .expect("ingest");
        let cks: Vec<_> = out
            .iter()
            .filter_map(|d| match d {
                Directive::Checkpointed { at, .. } => Some(at.as_secs_f64()),
                _ => None,
            })
            .collect();
        assert_eq!(cks, vec![10.0, 20.0, 30.0]);
        assert_eq!(s.cursor(), SimTime::from_secs(35));
        // The journal keeps only the latest checkpoint.
        let latest = s.checkpoints();
        assert_eq!(latest.len(), 1);
        assert_eq!((latest[0].seq, latest[0].t), (2, SimTime::from_secs(30)));
        let report = s.finish().expect("finish");
        assert_eq!(report.end, SimTime::from_secs(100));
        assert!(s.is_finished());
        assert_eq!(s.finish().expect_err("twice"), ServeError::Finished);
        assert_eq!(
            s.ingest(&[Sample::tick(101.0)]).expect_err("finished"),
            ServeError::Finished
        );
    }

    #[test]
    fn restore_climbs_down_the_ladder_to_the_first_working_generation() {
        let build = || Session::serve(idle_machine(1, 120), None, None, service_trace(), cfg(100));
        let log: Vec<Sample> = (1..=8).map(|k| Sample::tick(k as f64 * 5.0)).collect();
        let mut straight = build().expect("serve");
        straight.ingest(&log).expect("ingest");
        let mut frozen = build().expect("serve");
        frozen.ingest(&log[..3]).expect("ingest");
        let mut ladder = vec![
            Generation::genesis(),
            Generation {
                snapshot: Some(frozen.freeze().expect("freeze")),
                covered: 3,
            },
        ];
        let (s, used) = restore(build, &ladder, &log, 0).expect("newest");
        assert_eq!((used, s.digest()), (1, straight.digest()));
        // A corrupt newest generation falls back to the genesis.
        if let Some(bytes) = ladder[1].snapshot.as_mut() {
            bytes[20] ^= 1;
        }
        let (s, used) = restore(build, &ladder, &log, 0).expect("genesis");
        assert_eq!((used, s.digest()), (0, straight.digest()));
        // The genesis cannot catch up on a log that starts past it.
        assert_eq!(
            restore(build, &ladder, &log[3..], 3).map(|(_, i)| i),
            Err(ServeError::Quarantined)
        );
    }

    #[test]
    fn malformed_input_is_dead_lettered_never_a_panic() {
        let mut s = Session::serve(idle_machine(1, 120), None, None, service_trace(), cfg(100))
            .expect("serve");
        let out = s
            .ingest(&[
                Sample::tick(20.0),
                Sample::tick(10.0),     // out of order
                Sample::tick(f64::NAN), // malformed
                Sample::tick(-3.0),     // malformed
                Sample::tick(5000.0),   // beyond horizon
                Sample::tick(25.0),     // fine again
            ])
            .expect("ingest");
        let reasons: Vec<_> = out
            .iter()
            .filter_map(|d| match d {
                Directive::DeadLettered { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(
            reasons,
            vec![
                "out_of_order",
                "not_finite",
                "negative_time",
                "beyond_horizon"
            ]
        );
        let ledger = s.dead_letters().expect("always kept");
        assert_eq!(ledger.total(), 4);
        assert_eq!(ledger.dropped(), 0);
        assert_eq!(s.cursor(), SimTime::from_secs(25));
    }

    #[test]
    fn dead_letter_ledger_is_bounded() {
        let mut s = Session::serve(idle_machine(1, 120), None, None, service_trace(), cfg(100))
            .expect("serve");
        let junk: Vec<Sample> = (0..DEAD_LETTER_CAPACITY + 3)
            .map(|_| Sample::tick(f64::NAN))
            .collect();
        s.ingest(&junk).expect("ingest");
        let ledger = s.dead_letters().expect("always kept");
        assert_eq!(ledger.total(), DEAD_LETTER_CAPACITY as u64 + 3);
        assert_eq!(ledger.dropped(), 3);
        assert_eq!(ledger.entries().count(), DEAD_LETTER_CAPACITY);
        assert_eq!(ledger.len(), ledger.capacity());
    }

    #[test]
    fn samples_after_machine_stop_are_dead_lettered() {
        // A control hook stops the run at 10 s (the goal-met shape).
        let mut m = idle_machine(1, 120);
        m.add_hook(
            SimDuration::from_secs(1),
            Box::new(StopAt(SimTime::from_secs(10))),
        );
        let mut s = Session::serve(m, None, None, service_trace(), cfg(100)).expect("serve");
        let out = s
            .ingest(&[Sample::tick(50.0), Sample::tick(60.0)])
            .expect("ingest");
        let reasons: Vec<_> = out
            .iter()
            .filter_map(|d| match d {
                Directive::DeadLettered { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, vec!["after_stop"]);
    }

    #[test]
    fn quarantine_and_readmit_actuate_at_the_next_tick() {
        let mut s = Session::serve(
            restartable_machine(2, 120),
            None,
            None,
            service_trace(),
            cfg(100),
        )
        .expect("serve");
        let out = s
            .ingest(&[
                Sample::reconfig(5.0, ReconfigCommand::Quarantine(1)),
                Sample::tick(8.0),
            ])
            .expect("ingest");
        assert!(out.iter().any(|d| matches!(
            d,
            Directive::ReconfigApplied { kind: "quarantine", value, .. } if *value == 1.0
        )));
        // The sample lands after the 5 s tick, so the actuator applies it
        // one ACTUATION_PERIOD later.
        let quarantined = out.iter().find_map(|d| match d {
            Directive::Quarantined { at, pid: 1 } => Some(*at),
            _ => None,
        });
        assert_eq!(quarantined, Some(SimTime::from_secs(5) + ACTUATION_PERIOD));

        // Double quarantine is rejected; re-admit round-trips; re-admit
        // of a running process and an unknown index are rejected.
        let out = s
            .ingest(&[
                Sample::reconfig(10.0, ReconfigCommand::Quarantine(1)),
                Sample::reconfig(12.0, ReconfigCommand::Readmit(1)),
                Sample::reconfig(14.0, ReconfigCommand::Readmit(1)),
                Sample::reconfig(16.0, ReconfigCommand::Quarantine(9)),
                Sample::tick(20.0),
            ])
            .expect("ingest");
        let rejections: Vec<_> = out
            .iter()
            .filter_map(|d| match d {
                Directive::ReconfigRejected { kind, reason, .. } => Some((*kind, *reason)),
                _ => None,
            })
            .collect();
        assert_eq!(
            rejections,
            vec![
                ("quarantine", "already_quarantined"),
                ("readmit", "not_quarantined"),
                ("quarantine", "unknown_pid"),
            ]
        );
        assert!(out
            .iter()
            .any(|d| matches!(d, Directive::Restarted { pid: 1, .. })));
    }

    #[test]
    fn goal_and_budget_without_a_controller_are_rejected_not_panicked() {
        let mut s = Session::serve(idle_machine(1, 120), None, None, service_trace(), cfg(100))
            .expect("serve");
        let out = s
            .ingest(&[
                Sample::reconfig(5.0, ReconfigCommand::Goal(SimDuration::from_secs(200))),
                Sample::reconfig(6.0, ReconfigCommand::BudgetJ(Joules(500.0))),
                Sample::reconfig(7.0, ReconfigCommand::BudgetJ(Joules(f64::INFINITY))),
                Sample::reconfig(8.0, ReconfigCommand::BudgetJ(Joules(0.0))),
                Sample::reconfig(9.0, ReconfigCommand::Goal(SimDuration::from_secs(4))),
                Sample::reconfig(10.0, ReconfigCommand::Horizon(SimTime::from_secs(5))),
                Sample::reconfig(11.0, ReconfigCommand::Horizon(SimTime::from_secs(90))),
            ])
            .expect("ingest");
        let verdicts: Vec<_> = out
            .iter()
            .filter_map(|d| match d {
                Directive::ReconfigRejected { kind, reason, .. } => Some((*kind, *reason)),
                Directive::ReconfigApplied { kind, .. } => Some((*kind, "applied")),
                _ => None,
            })
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("goal", "no_controller"),
                ("budget", "no_controller"),
                ("budget", "not_finite"),
                ("budget", "non_positive"),
                ("goal", "already_missed"),
                ("horizon", "below_elapsed"),
                ("horizon", "applied"),
            ]
        );
        // The applied horizon revision is live: finish() runs to 90 s.
        let report = s.finish().expect("finish");
        assert_eq!(report.end, SimTime::from_secs(90));
    }
}
