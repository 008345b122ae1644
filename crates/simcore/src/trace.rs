//! simtrace: deterministic structured-event tracing.
//!
//! Every load-bearing transition in the simulator — a scheduler dispatch,
//! an energy-ledger delta, an RPC retry, a fidelity upcall, a supervisor
//! escalation — can be emitted as a typed [`TraceEvent`] into a
//! [`TraceSink`]. Records are keyed by sim-time plus a monotone sequence
//! number, so a trace is a total order over everything that happened in a
//! run, and two runs at the same seed produce byte-identical JSONL.
//!
//! Determinism rules (DESIGN.md §11) apply in full: the sink never reads
//! the wall clock, never allocates unordered collections, and renders
//! floats with Rust's shortest-roundtrip `Display` so the text form is a
//! pure function of the simulated state.
//!
//! The sink is shared through a cloneable [`TraceHandle`]
//! (`Rc<RefCell<_>>`, same shape as the goal controller's handle): the
//! machine holds one clone, control-plane hooks reach it through
//! `MachineView`, and the test harness keeps another clone to read the
//! trace back after the run.
//!
//! # Examples
//!
//! ```
//! use simcore::{SimTime, TraceCategory, TraceEvent, TraceHandle, TraceSink};
//!
//! let trace = TraceHandle::new(TraceSink::new().with_jsonl());
//! trace.emit(
//!     SimTime::from_secs(2),
//!     TraceEvent::FidelityChange {
//!         pid: 0,
//!         name: "xanim",
//!         direction: "down",
//!         level: 1,
//!     },
//! );
//! assert!(trace.enabled(TraceCategory::Control));
//! let lines = trace.jsonl();
//! assert_eq!(
//!     lines[0],
//!     "{\"time_s\":2,\"seq\":0,\"ev\":\"fidelity_change\",\"pid\":0,\
//!      \"name\":\"xanim\",\"dir\":\"down\",\"level\":1}"
//! );
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::time::SimTime;

/// Default ring-buffer capacity (records), chosen so a full goal-directed
/// run with every category enabled still fits.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Event families, used to filter what a sink records.
///
/// High-frequency families (`Sched`, `Energy`, `Flow`, `Meter`) are what
/// property tests enable in memory; the golden checked-in traces keep to
/// the control-plane families so the files stay small and reviewable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Scheduler dispatch (one event per CPU slice — high frequency).
    Sched,
    /// Per-interval energy-ledger deltas (high frequency).
    Energy,
    /// Shared-link flow admission/completion (high frequency).
    Flow,
    /// RPC timeouts and retries.
    Net,
    /// Fault activations: link capacity transitions, meter faults.
    Fault,
    /// Fidelity changes, warden upcalls, goal clamps, exhaustion.
    Control,
    /// Goal-controller supply/demand decision samples.
    Budget,
    /// Supervisor strikes, escalations, suspend/restart/clamp.
    Supervisor,
    /// PowerScope sampling (high frequency).
    Meter,
    /// Service layer: live reconfiguration verdicts and dead letters.
    Service,
}

impl TraceCategory {
    /// Every category, in declaration order.
    pub const ALL: [TraceCategory; 10] = [
        TraceCategory::Sched,
        TraceCategory::Energy,
        TraceCategory::Flow,
        TraceCategory::Net,
        TraceCategory::Fault,
        TraceCategory::Control,
        TraceCategory::Budget,
        TraceCategory::Supervisor,
        TraceCategory::Meter,
        TraceCategory::Service,
    ];

    /// The low-frequency control-plane families — what golden traces use.
    pub const CONTROL_PLANE: [TraceCategory; 6] = [
        TraceCategory::Net,
        TraceCategory::Fault,
        TraceCategory::Control,
        TraceCategory::Budget,
        TraceCategory::Supervisor,
        TraceCategory::Service,
    ];

    #[inline]
    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// One typed trace event. All payload strings are `&'static str` (bucket
/// and workload names are compile-time constants), so events are `Copy`
/// and emission never allocates unless the JSONL writer is on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// The scheduler gave the CPU to a process.
    SchedDispatch {
        /// Process id (machine index).
        pid: u64,
        /// Procedure charged for the slice.
        procedure: &'static str,
    },
    /// The ledger charged a share of one interval's energy to a bucket.
    EnergyDelta {
        /// Software bucket (process or overlay) the energy went to.
        bucket: &'static str,
        /// Energy charged, J (always ≥ 0).
        energy_j: f64,
    },
    /// A bulk transfer entered the shared link.
    FlowStart {
        /// Link-assigned flow id.
        flow: u64,
        /// Transfer size, bytes.
        bytes: u64,
    },
    /// A flow's last byte left the link.
    FlowDone {
        /// Link-assigned flow id.
        flow: u64,
    },
    /// The shared link's capacity factor changed (fault or recovery).
    LinkRate {
        /// New capacity factor in [0, 1]; 0 is an outage.
        factor: f64,
        /// Flows active at the transition.
        active: u64,
    },
    /// An RPC attempt hit the retry policy's timeout.
    RpcTimeout {
        /// Process id.
        pid: u64,
        /// Workload name.
        name: &'static str,
        /// Attempt number that timed out (1-based).
        attempt: u64,
    },
    /// A timed-out RPC was re-issued after backoff.
    RpcRetry {
        /// Process id.
        pid: u64,
        /// Workload name.
        name: &'static str,
        /// Attempt number being issued (1-based).
        attempt: u64,
    },
    /// A workload's fidelity level changed (any upcall source).
    FidelityChange {
        /// Process id.
        pid: u64,
        /// Workload name.
        name: &'static str,
        /// `"up"` or `"down"`.
        direction: &'static str,
        /// New fidelity level (0 = highest fidelity).
        level: u64,
    },
    /// A warden bandwidth-window upcall was issued.
    WardenUpcall {
        /// Process id.
        pid: u64,
        /// Window verdict that triggered it (`"below"` / `"above"`).
        event: &'static str,
        /// Whether the workload actually moved a level.
        changed: bool,
    },
    /// One goal-controller decision sample.
    GoalBudget {
        /// Estimated energy supply after reserve, J.
        supply_j: f64,
        /// Predicted demand to the deadline, J.
        demand_j: f64,
    },
    /// The hardened goal controller clamped an implausible power sample.
    GoalClamp {
        /// Raw sensor reading, W.
        raw_power_w: f64,
        /// Value after clamping, W.
        power_w: f64,
    },
    /// The goal controller found the goal infeasible at lowest fidelity.
    GoalInfeasible,
    /// A finite energy supply ran out mid-run.
    SupplyExhausted {
        /// Energy left in the supply (≈ 0), J.
        residual_j: f64,
    },
    /// A supervisor detector recorded a strike against a process.
    SupervisorStrike {
        /// Process id.
        pid: u64,
        /// Detector that fired (`"hang"` / `"ignore"` / `"overdraw"`).
        detector: &'static str,
        /// Strike count after this one.
        strikes: u64,
    },
    /// The supervisor escalated its response ladder.
    SupervisorEscalate {
        /// Process id.
        pid: u64,
        /// Rung taken (`"reissue"`, `"clamp"`, `"quarantine"`,
        /// `"restart"`, `"retire"`, `"crash_collect"`).
        rung: &'static str,
    },
    /// A datapath clamp factor was applied to a process.
    DatapathClamp {
        /// Process id.
        pid: u64,
        /// Multiplier on the process's datapath rate, in (0, 1].
        factor: f64,
    },
    /// A process was suspended.
    Suspend {
        /// Process id.
        pid: u64,
        /// Workload name.
        name: &'static str,
    },
    /// A suspended process was restarted.
    Restart {
        /// Process id.
        pid: u64,
        /// Workload name.
        name: &'static str,
    },
    /// The powerscope multimeter captured one sample.
    MeterSample {
        /// Platform current read by the meter, A.
        current_a: f64,
        /// Process the sample was attributed to.
        process: &'static str,
    },
    /// A meter fault swallowed or distorted a power observation.
    MeterFault {
        /// Fault kind (`"dropout"`, `"stuck"`, …).
        kind: &'static str,
    },
    /// The service layer accepted and applied a reconfiguration command.
    ReconfigApplied {
        /// Command kind (`"goal"`, `"budget"`, `"horizon"`,
        /// `"quarantine"`, `"readmit"`).
        kind: &'static str,
        /// Command argument: seconds for goal/horizon, joules for budget,
        /// the process index for quarantine/readmit.
        value: f64,
    },
    /// The service layer rejected a reconfiguration command.
    ReconfigRejected {
        /// Command kind (`"goal"`, `"budget"`, `"horizon"`,
        /// `"quarantine"`, `"readmit"`).
        kind: &'static str,
        /// Validation failure (`"already_missed"`, `"below_elapsed"`,
        /// `"non_positive"`, `"not_finite"`, `"already_quarantined"`,
        /// `"not_quarantined"`, `"unknown_pid"`, `"stale"`).
        reason: &'static str,
    },
    /// A malformed or out-of-order input sample was dead-lettered.
    DeadLetter {
        /// Why the sample was rejected (`"out_of_order"`, `"not_finite"`,
        /// `"after_stop"`, …).
        reason: &'static str,
        /// Dead letters recorded so far, including this one.
        count: u64,
    },
}

impl TraceEvent {
    /// The family this event belongs to.
    pub fn category(&self) -> TraceCategory {
        match self {
            TraceEvent::SchedDispatch { .. } => TraceCategory::Sched,
            TraceEvent::EnergyDelta { .. } => TraceCategory::Energy,
            TraceEvent::FlowStart { .. } | TraceEvent::FlowDone { .. } => TraceCategory::Flow,
            TraceEvent::LinkRate { .. } | TraceEvent::MeterFault { .. } => TraceCategory::Fault,
            TraceEvent::RpcTimeout { .. } | TraceEvent::RpcRetry { .. } => TraceCategory::Net,
            TraceEvent::FidelityChange { .. }
            | TraceEvent::WardenUpcall { .. }
            | TraceEvent::GoalClamp { .. }
            | TraceEvent::GoalInfeasible
            | TraceEvent::SupplyExhausted { .. } => TraceCategory::Control,
            TraceEvent::GoalBudget { .. } => TraceCategory::Budget,
            TraceEvent::SupervisorStrike { .. }
            | TraceEvent::SupervisorEscalate { .. }
            | TraceEvent::DatapathClamp { .. }
            | TraceEvent::Suspend { .. }
            | TraceEvent::Restart { .. } => TraceCategory::Supervisor,
            TraceEvent::MeterSample { .. } => TraceCategory::Meter,
            TraceEvent::ReconfigApplied { .. }
            | TraceEvent::ReconfigRejected { .. }
            | TraceEvent::DeadLetter { .. } => TraceCategory::Service,
        }
    }

    /// The `"ev"` tag used in the JSONL rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::SchedDispatch { .. } => "sched_dispatch",
            TraceEvent::EnergyDelta { .. } => "energy_delta",
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowDone { .. } => "flow_done",
            TraceEvent::LinkRate { .. } => "link_rate",
            TraceEvent::RpcTimeout { .. } => "rpc_timeout",
            TraceEvent::RpcRetry { .. } => "rpc_retry",
            TraceEvent::FidelityChange { .. } => "fidelity_change",
            TraceEvent::WardenUpcall { .. } => "warden_upcall",
            TraceEvent::GoalBudget { .. } => "goal_budget",
            TraceEvent::GoalClamp { .. } => "goal_clamp",
            TraceEvent::GoalInfeasible => "goal_infeasible",
            TraceEvent::SupplyExhausted { .. } => "supply_exhausted",
            TraceEvent::SupervisorStrike { .. } => "supervisor_strike",
            TraceEvent::SupervisorEscalate { .. } => "supervisor_escalate",
            TraceEvent::DatapathClamp { .. } => "datapath_clamp",
            TraceEvent::Suspend { .. } => "suspend",
            TraceEvent::Restart { .. } => "restart",
            TraceEvent::MeterSample { .. } => "meter_sample",
            TraceEvent::MeterFault { .. } => "meter_fault",
            TraceEvent::ReconfigApplied { .. } => "reconfig_applied",
            TraceEvent::ReconfigRejected { .. } => "reconfig_rejected",
            TraceEvent::DeadLetter { .. } => "dead_letter",
        }
    }

    fn render_payload(&self, out: &mut String) {
        match *self {
            TraceEvent::SchedDispatch { pid, procedure } => {
                field_u64(out, "pid", pid);
                field_str(out, "proc", procedure);
            }
            TraceEvent::EnergyDelta { bucket, energy_j } => {
                field_str(out, "bucket", bucket);
                field_f64(out, "energy_j", energy_j);
            }
            TraceEvent::FlowStart { flow, bytes } => {
                field_u64(out, "flow", flow);
                field_u64(out, "bytes", bytes);
            }
            TraceEvent::FlowDone { flow } => field_u64(out, "flow", flow),
            TraceEvent::LinkRate { factor, active } => {
                field_f64(out, "factor", factor);
                field_u64(out, "active", active);
            }
            TraceEvent::RpcTimeout { pid, name, attempt }
            | TraceEvent::RpcRetry { pid, name, attempt } => {
                field_u64(out, "pid", pid);
                field_str(out, "name", name);
                field_u64(out, "attempt", attempt);
            }
            TraceEvent::FidelityChange {
                pid,
                name,
                direction,
                level,
            } => {
                field_u64(out, "pid", pid);
                field_str(out, "name", name);
                field_str(out, "dir", direction);
                field_u64(out, "level", level);
            }
            TraceEvent::WardenUpcall {
                pid,
                event,
                changed,
            } => {
                field_u64(out, "pid", pid);
                field_str(out, "event", event);
                field_bool(out, "changed", changed);
            }
            TraceEvent::GoalBudget { supply_j, demand_j } => {
                field_f64(out, "supply_j", supply_j);
                field_f64(out, "demand_j", demand_j);
            }
            TraceEvent::GoalClamp {
                raw_power_w,
                power_w,
            } => {
                field_f64(out, "raw_power_w", raw_power_w);
                field_f64(out, "power_w", power_w);
            }
            TraceEvent::GoalInfeasible => {}
            TraceEvent::SupplyExhausted { residual_j } => field_f64(out, "residual_j", residual_j),
            TraceEvent::SupervisorStrike {
                pid,
                detector,
                strikes,
            } => {
                field_u64(out, "pid", pid);
                field_str(out, "detector", detector);
                field_u64(out, "strikes", strikes);
            }
            TraceEvent::SupervisorEscalate { pid, rung } => {
                field_u64(out, "pid", pid);
                field_str(out, "rung", rung);
            }
            TraceEvent::DatapathClamp { pid, factor } => {
                field_u64(out, "pid", pid);
                field_f64(out, "factor", factor);
            }
            TraceEvent::Suspend { pid, name } | TraceEvent::Restart { pid, name } => {
                field_u64(out, "pid", pid);
                field_str(out, "name", name);
            }
            TraceEvent::MeterSample { current_a, process } => {
                field_f64(out, "current_a", current_a);
                field_str(out, "process", process);
            }
            TraceEvent::MeterFault { kind } => field_str(out, "kind", kind),
            TraceEvent::ReconfigApplied { kind, value } => {
                field_str(out, "kind", kind);
                field_f64(out, "value", value);
            }
            TraceEvent::ReconfigRejected { kind, reason } => {
                field_str(out, "kind", kind);
                field_str(out, "reason", reason);
            }
            TraceEvent::DeadLetter { reason, count } => {
                field_str(out, "reason", reason);
                field_u64(out, "count", count);
            }
        }
    }
}

/// One recorded event: sim-time, monotone sequence number, payload.
///
/// `(at, seq)` is a strict total order over a sink's records: `seq` is
/// assigned at emission and never repeats, and `at` never decreases
/// because the simulation clock does not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulated instant the event happened.
    pub at: SimTime,
    /// Monotone per-sink sequence number (0-based).
    pub seq: u64,
    /// The typed payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSONL line (no trailing newline).
    ///
    /// Floats use Rust's shortest-roundtrip `Display`, which is
    /// deterministic and never scientific, so byte-comparing two JSONL
    /// streams is exactly comparing two runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        field_f64(&mut out, "time_s", self.at.as_secs_f64());
        field_u64(&mut out, "seq", self.seq);
        field_str(&mut out, "ev", self.event.tag());
        self.event.render_payload(&mut out);
        out.push('}');
        out
    }
}

fn field_sep(out: &mut String) {
    if !out.ends_with('{') {
        out.push(',');
    }
}

fn field_u64(out: &mut String, key: &str, v: u64) {
    field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn field_f64(out: &mut String, key: &str, v: f64) {
    field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn field_bool(out: &mut String, key: &str, v: bool) {
    field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if v { "true" } else { "false" });
}

fn field_str(out: &mut String, key: &str, v: &str) {
    field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                let hex = b"0123456789abcdef";
                out.push(hex[(b as usize >> 4) & 0xf] as char);
                out.push(hex[b as usize & 0xf] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A bounded, category-filtered event sink.
///
/// Keeps the most recent records in a ring buffer (oldest evicted first,
/// with a counter so truncation is never silent) and, when enabled,
/// renders every accepted record to a JSONL line as it arrives.
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    evicted: u64,
    next_seq: u64,
    mask: u32,
    jsonl: Option<Vec<String>>,
    last_at: SimTime,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A sink with the default ring capacity and every category enabled.
    pub fn new() -> TraceSink {
        TraceSink {
            capacity: DEFAULT_RING_CAPACITY,
            ring: VecDeque::new(),
            evicted: 0,
            next_seq: 0,
            mask: u32::MAX,
            jsonl: None,
            last_at: SimTime::ZERO,
        }
    }

    /// Replaces the ring capacity (records kept in memory).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> TraceSink {
        assert!(capacity > 0, "trace ring capacity must be positive");
        self.capacity = capacity;
        self
    }

    /// Restricts recording to the given categories only.
    pub fn with_categories(mut self, cats: &[TraceCategory]) -> TraceSink {
        self.mask = cats.iter().fold(0, |m, c| m | c.bit());
        self
    }

    /// Turns on the JSONL writer: every accepted record is also rendered
    /// to a line (unbounded — callers enable this with a category filter
    /// sized for the run).
    pub fn with_jsonl(mut self) -> TraceSink {
        self.jsonl = Some(Vec::new());
        self
    }

    /// Whether `cat` passes this sink's filter.
    #[inline]
    pub fn enabled(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Records `event` at sim-time `at` if its category is enabled.
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        if !self.enabled(event.category()) {
            return;
        }
        debug_assert!(at >= self.last_at, "trace time went backwards");
        self.last_at = at;
        let rec = TraceRecord {
            at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if let Some(lines) = &mut self.jsonl {
            lines.push(rec.to_jsonl());
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(rec);
    }

    /// Records currently held (oldest surviving first).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Records still held whose `seq` is at least `from`, oldest first.
    ///
    /// Seqs are dense, so the ring's newest `emitted - from` records are
    /// exactly the ones at or past `from`: the walk starts there and costs
    /// only the records it yields. The `seq` guard keeps records that
    /// predate a [`Self::restore_counters_from`] out of the walk.
    pub fn records_from(&self, from: u64) -> impl Iterator<Item = &TraceRecord> {
        let newer = usize::try_from(self.next_seq.saturating_sub(from)).unwrap_or(usize::MAX);
        let start = self.ring.len() - self.ring.len().min(newer);
        self.ring.range(start..).filter(move |r| r.seq >= from)
    }

    /// Rendered JSONL lines (empty unless [`TraceSink::with_jsonl`]).
    pub fn jsonl_lines(&self) -> &[String] {
        self.jsonl.as_deref().unwrap_or(&[])
    }

    /// Records evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Records currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records accepted over the sink's lifetime.
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Encodes the sink's ordering counters (`next_seq`, `evicted`) into
    /// a snapshot payload. The ring contents and JSONL backlog are
    /// deliberately excluded: they are O(history), and a restored session
    /// only needs the counters so its post-thaw stream continues the
    /// sequence numbering of the run it replaces. The last record's
    /// instant is not written either: only a debug-build check reads it,
    /// and a thawed sink starts that check afresh.
    pub fn freeze_counters_into(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put(&(self.next_seq, self.evicted));
    }

    /// Restores the counters written by [`Self::freeze_counters_into`]
    /// onto this (freshly built) sink.
    pub fn restore_counters_from(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let (next_seq, evicted) = r.take()?;
        if evicted > next_seq {
            return Err(crate::snapshot::SnapshotError::Corrupt(
                "trace evicted exceeds emitted",
            ));
        }
        self.next_seq = next_seq;
        self.evicted = evicted;
        Ok(())
    }
}

/// Cloneable shared handle to a [`TraceSink`].
///
/// Clones share one sink, so the machine, the control-plane hooks, and
/// the harness all append to (and read) the same totally-ordered stream.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Rc<RefCell<TraceSink>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").finish_non_exhaustive()
    }
}

impl TraceHandle {
    /// Wraps a sink in a shared handle.
    pub fn new(sink: TraceSink) -> TraceHandle {
        TraceHandle {
            sink: Rc::new(RefCell::new(sink)),
        }
    }

    /// Emits one event (no-op if the category is filtered out).
    pub fn emit(&self, at: SimTime, event: TraceEvent) {
        self.sink.borrow_mut().emit(at, event);
    }

    /// Whether `cat` passes the sink's filter (lets emitters skip
    /// building high-frequency payloads entirely).
    #[inline]
    pub fn enabled(&self, cat: TraceCategory) -> bool {
        self.sink.borrow().enabled(cat)
    }

    /// Copies out the records currently in the ring.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.sink.borrow().records().copied().collect()
    }

    /// Visits in place, oldest first, the records still held whose `seq`
    /// is at least `from` (see [`TraceSink::records_from`]). The sink is
    /// borrowed for the whole visit, so `f` must not emit.
    pub fn visit_from(&self, from: u64, f: impl FnMut(&TraceRecord)) {
        self.sink.borrow().records_from(from).for_each(f);
    }

    /// Copies out the rendered JSONL lines.
    pub fn jsonl(&self) -> Vec<String> {
        self.sink.borrow().jsonl_lines().to_vec()
    }

    /// Records evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.sink.borrow().evicted()
    }

    /// Records currently in the ring.
    pub fn len(&self) -> usize {
        self.sink.borrow().len()
    }

    /// True when the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.sink.borrow().is_empty()
    }

    /// Total records accepted over the sink's lifetime.
    pub fn emitted(&self) -> u64 {
        self.sink.borrow().emitted()
    }

    /// Encodes the shared sink's ordering counters into a snapshot
    /// payload (see [`TraceSink::freeze_counters_into`]).
    pub fn freeze_counters_into(&self, w: &mut crate::snapshot::SnapshotWriter) {
        self.sink.borrow().freeze_counters_into(w);
    }

    /// Restores the shared sink's ordering counters from a snapshot.
    pub fn restore_counters_from(
        &self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.sink.borrow_mut().restore_counters_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(j: f64) -> TraceEvent {
        TraceEvent::EnergyDelta {
            bucket: "Idle",
            energy_j: j,
        }
    }

    #[test]
    fn seq_is_monotone_and_zero_based() {
        let mut s = TraceSink::new();
        for i in 0..5 {
            s.emit(SimTime::from_secs(i), delta(i as f64));
        }
        let seqs: Vec<u64> = s.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
        assert_eq!(s.emitted(), 5);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut s = TraceSink::new().with_capacity(3);
        for i in 0..5 {
            s.emit(SimTime::from_secs(i), delta(i as f64));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        // Survivors are the newest three; seq numbers keep counting.
        let seqs: Vec<u64> = s.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn visit_from_yields_only_surviving_records_at_or_past_from() {
        fn seen(h: &TraceHandle, from: u64) -> Vec<u64> {
            let mut seqs = Vec::new();
            h.visit_from(from, |r| seqs.push(r.seq));
            seqs
        }
        let h = TraceHandle::new(TraceSink::new().with_capacity(3));
        for i in 0..5 {
            h.emit(SimTime::from_secs(i), delta(i as f64));
        }
        assert_eq!(seen(&h, 0), [2, 3, 4], "below the oldest survivor");
        assert_eq!(seen(&h, 3), [3, 4], "inside the ring");
        assert_eq!(seen(&h, 5), [] as [u64; 0], "at emitted()");
        assert_eq!(seen(&h, 9), [] as [u64; 0], "beyond emitted()");

        let mut w = crate::snapshot::SnapshotWriter::new();
        h.freeze_counters_into(&mut w);
        let bytes = w.seal();
        let thaw = |sink: TraceSink| {
            let thawed = TraceHandle::new(sink);
            let mut r = crate::snapshot::SnapshotReader::open(&bytes).unwrap();
            thawed.restore_counters_from(&mut r).unwrap();
            thawed
        };
        // Post-thaw: the ring is empty, the counters carry on.
        let thawed = thaw(TraceSink::new().with_capacity(3));
        for from in [0, 3, 5] {
            assert_eq!(
                seen(&thawed, from),
                [] as [u64; 0],
                "nothing stale at {from}"
            );
        }
        thawed.emit(SimTime::from_secs(5), delta(5.0));
        assert_eq!(seen(&thawed, 0), [5]);
        assert_eq!(seen(&thawed, 5), [5]);
        assert_eq!(seen(&thawed, 6), [] as [u64; 0]);
        // Records a rebuilt sink held before the restore are never new.
        let mut stale = TraceSink::new().with_capacity(3);
        stale.emit(SimTime::ZERO, delta(0.0));
        stale.emit(SimTime::ZERO, delta(1.0));
        assert_eq!(seen(&thaw(stale), 3), [] as [u64; 0]);
    }

    #[test]
    fn category_filter_drops_without_consuming_seq() {
        let mut s = TraceSink::new().with_categories(&[TraceCategory::Control]);
        s.emit(SimTime::ZERO, delta(1.0)); // Energy: filtered.
        s.emit(
            SimTime::from_secs(1),
            TraceEvent::FidelityChange {
                pid: 0,
                name: "xanim",
                direction: "down",
                level: 1,
            },
        );
        assert_eq!(s.len(), 1);
        let recs: Vec<&TraceRecord> = s.records().collect();
        assert_eq!(recs[0].seq, 0, "filtered events must not consume seq");
        assert!(s.enabled(TraceCategory::Control));
        assert!(!s.enabled(TraceCategory::Energy));
    }

    #[test]
    fn jsonl_lines_match_records() {
        let mut s = TraceSink::new().with_jsonl();
        s.emit(SimTime::from_micros(1_500_000), delta(0.25));
        let lines = s.jsonl_lines();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0],
            "{\"time_s\":1.5,\"seq\":0,\"ev\":\"energy_delta\",\"bucket\":\"Idle\",\
             \"energy_j\":0.25}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::from("{");
        field_str(&mut out, "k", "a\"b\\c\nd\u{1}");
        assert_eq!(out, "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn handle_clones_share_one_sink() {
        let h = TraceHandle::new(TraceSink::new());
        let h2 = h.clone();
        h.emit(SimTime::ZERO, delta(1.0));
        h2.emit(SimTime::from_secs(1), delta(2.0));
        assert_eq!(h.len(), 2);
        assert_eq!(h.records()[1].seq, 1);
    }

    #[test]
    fn every_event_has_a_stable_category_and_tag() {
        // Spot-check the mapping used by filters and the JSONL `ev` tag.
        assert_eq!(
            TraceEvent::GoalInfeasible.category(),
            TraceCategory::Control
        );
        assert_eq!(
            TraceEvent::SupervisorEscalate {
                pid: 1,
                rung: "clamp"
            }
            .category(),
            TraceCategory::Supervisor
        );
        assert_eq!(TraceEvent::GoalInfeasible.tag(), "goal_infeasible");
        let r = TraceRecord {
            at: SimTime::from_secs(3),
            seq: 7,
            event: TraceEvent::GoalInfeasible,
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"time_s\":3,\"seq\":7,\"ev\":\"goal_infeasible\"}"
        );
    }

    #[test]
    fn service_events_render_and_categorize() {
        let applied = TraceEvent::ReconfigApplied {
            kind: "goal",
            value: 300.0,
        };
        let rejected = TraceEvent::ReconfigRejected {
            kind: "budget",
            reason: "non_positive",
        };
        let dead = TraceEvent::DeadLetter {
            reason: "out_of_order",
            count: 3,
        };
        for ev in [applied, rejected, dead] {
            assert_eq!(ev.category(), TraceCategory::Service);
        }
        let r = TraceRecord {
            at: SimTime::from_secs(5),
            seq: 1,
            event: applied,
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"time_s\":5,\"seq\":1,\"ev\":\"reconfig_applied\",\"kind\":\"goal\",\"value\":300}"
        );
        // Service is part of the control plane, distinct from Meter.
        let sink = TraceSink::new().with_categories(&TraceCategory::CONTROL_PLANE);
        assert!(sink.enabled(TraceCategory::Service));
        assert!(!sink.enabled(TraceCategory::Meter));
    }
}
