//! The machine executor.
//!
//! A [`Machine`] owns the device models, the shared link, a process table
//! of [`Workload`]s, and an event queue. Running it advances simulated
//! time event by event; between events all power-relevant state is
//! constant, so energy is integrated exactly and published to observers.
//!
//! The executor enforces the paper's power-management regime from
//! Section 3.2 when [`hw560x::PmPolicy::enabled`] is configured: the disk
//! spins down after 10 s of inactivity, the WaveLAN radio sleeps outside
//! RPC/bulk-transfer windows, the display level follows application demand
//! and dims after prolonged user inactivity. With the policy disabled
//! (the paper's "Baseline"), every device idles at full readiness and the
//! display stays bright.

use std::collections::VecDeque;

use hw560x::cpu::intensity;
use hw560x::{
    DeviceStates, DiskModel, DiskState, DisplayState, EnergySource, PlatformPower, PlatformSpec,
    PmPolicy, PowerBreakdown, RadioModel,
};
use netsim::{FlowId, LinkFaultTimeline, SharedLink, RPC_LATENCY, WAVELAN_CAPACITY_BPS};
use simcore::event::{EventId, Order};
use simcore::time::round_to_u64;
use simcore::{
    Codec, EventQueue, Joules, Names, SimDuration, SimRng, SimTime, SnapshotError, SnapshotReader,
    SnapshotWriter, TimeSeries, TraceCategory, TraceEvent, TraceHandle, Watts,
};

use crate::activity::{checked_intensity, Activity, AdaptDirection, FidelityView, Step};
use crate::energy::{Key, KeyMemo, Ledger, RunReport};
use crate::faults::{FaultConfig, RpcPolicy};
use crate::observer::{IntervalObserver, IntervalRecord, ShareEntry};
use crate::workload::Workload;
use crate::{BUCKET_IDLE, BUCKET_KERNEL, BUCKET_ODYSSEY, BUCKET_WAVELAN, BUCKET_X};

/// The names every machine books besides its workloads' own: the
/// `BUCKET_*` constants and the procedures of the fixed attribution
/// shares (X rendering, CPU halt, interrupt and data-path overlays, and
/// a process with no CPU job).
const FIXED_NAMES: [&str; 11] = [
    BUCKET_IDLE,
    BUCKET_X,
    BUCKET_ODYSSEY,
    BUCKET_WAVELAN,
    BUCKET_KERNEL,
    "unknown",
    "render",
    "idle_hlt",
    "wavelan_intr",
    "viceroy_datapath",
    "disk_intr",
];

/// Round-robin scheduling quantum.
const QUANTUM: SimDuration = SimDuration::from_millis(10);

/// CPU-occupancy fraction stolen by interrupt handling per active transfer
/// (protocol processing of the 2 Mb/s stream), capped below.
const INT_FRAC_PER_TRANSFER: f64 = 0.12;
const INT_FRAC_CAP: f64 = 0.30;

/// CPU-occupancy fraction of the Odyssey viceroy/warden data path while
/// data is moving through it.
const ODYSSEY_FRAC: f64 = 0.05;

/// CPU-occupancy fraction of kernel disk handling while the disk services
/// requests.
const DISK_KERNEL_FRAC: f64 = 0.05;

/// Scales a work duration by the warden's datapath clamp.
fn scale_duration(d: SimDuration, clamp: f64) -> SimDuration {
    if clamp >= 1.0 {
        d
    } else {
        d.mul_f64(clamp)
    }
}

/// Scales a transfer/read size by the warden's datapath clamp, keeping at
/// least one byte so zero-size special cases never appear.
fn scale_bytes(bytes: u64, clamp: f64) -> u64 {
    if clamp >= 1.0 {
        bytes
    } else {
        round_to_u64(bytes as f64 * clamp).max(1)
    }
}

/// Identifies a process (workload instance) on the machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pid(usize);

impl Pid {
    /// Index into the process table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Machine configuration. The platform is always the ThinkPad 560X
/// ([`PlatformSpec::thinkpad_560x`]) on a WaveLAN link of
/// [`WAVELAN_CAPACITY_BPS`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Hardware power-management policy.
    pub pm: PmPolicy,
    /// Energy supply.
    pub source: EnergySource,
    /// Constant power drawn by energy monitoring itself (Section 5.1.4:
    /// ~10 mW for SmartBattery-class measurement plus ~4 mW for demand
    /// prediction). Zero when no monitor is deployed.
    pub monitor_overhead_w: Watts,
    /// Substrate fault model; [`FaultConfig::clean`] (the default)
    /// reproduces the paper's bench conditions exactly.
    pub faults: FaultConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            pm: PmPolicy::enabled(),
            source: EnergySource::External,
            monitor_overhead_w: Watts::ZERO,
            faults: FaultConfig::clean(),
        }
    }
}

impl MachineConfig {
    /// The paper's baseline configuration: no hardware power management.
    pub fn baseline() -> Self {
        MachineConfig {
            pm: PmPolicy::disabled(),
            ..Default::default()
        }
    }
}

/// Summary of one process for controllers.
#[derive(Clone, Copy, Debug)]
pub struct ProcessInfo {
    /// Process id.
    pub pid: Pid,
    /// Workload name.
    pub name: &'static str,
    /// Current fidelity.
    pub fidelity: FidelityView,
    /// True once the workload has finished.
    pub done: bool,
    /// True while the process is quarantined by the supervisor.
    pub suspended: bool,
}

/// A controller invoked on a fixed period (the Odyssey viceroy).
pub trait ControlHook {
    /// Called every period with a view of the machine.
    fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>);

    /// Encodes the hook's mutable state into a snapshot payload. Hooks
    /// that don't implement the pair make the whole machine
    /// non-freezable — [`Machine::freeze`] surfaces the error and the
    /// caller falls back to replay-based resume.
    fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
        let _ = w;
        Err(simcore::SnapshotError::Unsupported(
            "control hook does not implement freeze",
        ))
    }

    /// Restores the state written by [`ControlHook::freeze`] onto this
    /// freshly-rebuilt hook.
    fn thaw(&mut self, r: &mut simcore::SnapshotReader<'_>) -> Result<(), simcore::SnapshotError> {
        let _ = r;
        Err(simcore::SnapshotError::Unsupported(
            "control hook does not implement thaw",
        ))
    }
}

/// Controller-facing view of a running machine.
pub struct MachineView<'a> {
    m: &'a mut Machine,
}

impl std::fmt::Debug for MachineView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineView").finish_non_exhaustive()
    }
}

impl MachineView<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.m.clock
    }

    /// Total energy consumed since the run began.
    pub fn energy_consumed_j(&self) -> Joules {
        self.m.ledger.total_j()
    }

    /// Energy remaining in the supply as the battery gauge reports it
    /// (∞ for an external supply). Under a faulty gauge this is what a
    /// deployed controller would actually see; use
    /// [`MachineView::true_residual_j`] for ground truth.
    pub fn residual_j(&self) -> Joules {
        self.m
            .cfg
            .faults
            .gauge
            .read(self.m.clock, self.m.source.remaining_j())
    }

    /// Ground-truth energy remaining in the supply. Only rigs and tests
    /// should read this; controllers see [`MachineView::residual_j`].
    pub fn true_residual_j(&self) -> Joules {
        self.m.source.remaining_j()
    }

    /// Snapshot of the process at table index `index` (its
    /// [`Pid::index`]), or `None` past the end of the table.
    pub fn process(&self, index: usize) -> Option<ProcessInfo> {
        let p = self.m.procs.get(index)?;
        Some(ProcessInfo {
            pid: Pid(index),
            name: p.workload.name(),
            fidelity: p.workload.fidelity(),
            done: matches!(p.state, ProcState::Done),
            suspended: p.suspended,
        })
    }

    /// Issues a fidelity upcall to a process. Returns `true` if the
    /// workload changed level.
    pub fn upcall(&mut self, pid: Pid, dir: AdaptDirection) -> bool {
        self.m.interval = None;
        let now = self.m.clock;
        let p = &mut self.m.procs[pid.0];
        let changed = p.workload.on_upcall(dir, now);
        if changed {
            let level = p.workload.fidelity().level;
            let name = p.workload.name();
            self.m.fidelity_series[pid.0].record(now, level as f64);
            self.m.trace_emit(TraceEvent::FidelityChange {
                pid: pid.0 as u64,
                name,
                direction: match dir {
                    AdaptDirection::Degrade => "down",
                    AdaptDirection::Upgrade => "up",
                },
                level: level as u64,
            });
        }
        changed
    }

    /// Goodput of the process's most recent completed receive, bits/s —
    /// the passive bandwidth-supply estimate Odyssey derives from its own
    /// transfers (`None` before the first receive completes).
    pub fn transfer_rate_of(&self, pid: Pid) -> Option<f64> {
        self.m.procs[pid.0].last_transfer_bps
    }

    /// Instant of the process's most recent `poll` — the supervisor's
    /// watchdog signal. A workload that keeps the CPU without yielding
    /// back through `poll` stops advancing this.
    pub fn last_poll_at(&self, pid: Pid) -> SimTime {
        self.m.procs[pid.0].last_poll_at
    }

    /// Cumulative energy attributed to the process's bucket so far, J —
    /// the PowerScope attribution the supervisor cross-checks declared
    /// demand against. Idle (think-time) power is attributed to the Idle
    /// bucket, not the process, so a blocked app reads near zero here
    /// while a hung spin does not.
    pub fn attributed_energy_j(&self, pid: Pid) -> Joules {
        self.m.ledger.bucket_j(self.m.procs[pid.0].bucket)
    }

    /// The procedure PowerScope attribution bills most of the process's
    /// energy to so far, with that energy — the demand-accounting
    /// detail a supervisor cites when it strikes an app whose power
    /// exceeds its declaration. `None` before any energy is attributed.
    pub fn attributed_hot_procedure(&self, pid: Pid) -> Option<(&'static str, Joules)> {
        self.m.ledger.hot_procedure_j(self.m.procs[pid.0].bucket)
    }

    /// Quarantines a process: aborts any in-flight network attempt,
    /// removes it from the CPU queue, and parks it so it draws no power
    /// until [`MachineView::restart`]. Returns `false` if the process is
    /// already suspended or done.
    pub fn suspend(&mut self, pid: Pid) -> bool {
        self.m.interval = None;
        self.m.suspend_proc(pid)
    }

    /// Restarts a suspended or crashed process via
    /// [`Workload::on_restart`]. Returns `true` if the workload accepted
    /// the restart and is running again.
    pub fn restart(&mut self, pid: Pid) -> bool {
        self.m.interval = None;
        self.m.restart_proc(pid)
    }

    /// Sets the warden's datapath clamp for a process: all subsequent CPU
    /// bursts, transfer sizes, and disk reads are scaled by `factor` —
    /// the forced-fidelity response to an app that misdeclares demand.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is in `(0, 1]`.
    pub fn set_datapath_clamp(&mut self, pid: Pid, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "invalid datapath clamp: {factor}"
        );
        self.m.interval = None;
        self.m.procs[pid.0].clamp = factor;
        self.m.trace_emit(TraceEvent::DatapathClamp {
            pid: pid.0 as u64,
            factor,
        });
    }

    /// 64-bit digest of the machine's live state: the clock, supply,
    /// ledger, counters, and every process's state/fidelity. Two runs of
    /// the same configuration digest equal at equal instants iff their
    /// evolution is bit-identical — the checkpoint/resume proof.
    pub fn state_digest(&self) -> u64 {
        self.m.state_digest()
    }

    /// Requests that the run stop after the current event.
    pub fn request_stop(&mut self) {
        self.m.stopped = true;
    }

    /// Emits a trace event at the current clock (no-op when no trace is
    /// attached) — how control-plane hooks report their decisions into
    /// the machine's shared event stream.
    pub fn emit_trace(&mut self, event: TraceEvent) {
        self.m.trace_emit(event);
    }

    /// Whether a trace is attached and records `cat`.
    pub fn trace_enabled(&self, cat: TraceCategory) -> bool {
        self.m.trace_enabled(cat)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct CpuJob {
    remaining: SimDuration,
    intensity: f64,
    procedure: &'static str,
    /// Attribution override (e.g. the web proxy); defaults to the
    /// workload's own name.
    bucket: Option<&'static str>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct RpcPlan {
    request_bytes: u64,
    reply_bytes: u64,
    server_time: SimDuration,
    /// Bulk fetches skip the request/server phases entirely.
    is_bulk: bool,
}

#[derive(Debug, PartialEq)]
enum ProcState {
    Start,
    ReadyCpu(CpuJob),
    NetAwaitTx(RpcPlan),
    NetTx(RpcPlan),
    NetServerWait(RpcPlan),
    NetRx(RpcPlan),
    /// Timed out; waiting out the retry backoff with the radio held open.
    NetBackoff(RpcPlan),
    DiskSpinup {
        bytes: u64,
    },
    DiskBusy,
    Waiting,
    /// Quarantined by the supervisor: parked off every device queue,
    /// drawing no power, until restarted.
    Suspended,
    Done,
}

impl ProcState {
    /// Stable discriminant for state digests.
    fn tag(&self) -> u64 {
        match self {
            ProcState::Start => 0,
            ProcState::ReadyCpu(_) => 1,
            ProcState::NetAwaitTx(_) => 2,
            ProcState::NetTx(_) => 3,
            ProcState::NetServerWait(_) => 4,
            ProcState::NetRx(_) => 5,
            ProcState::NetBackoff(_) => 6,
            ProcState::DiskSpinup { .. } => 7,
            ProcState::DiskBusy => 8,
            ProcState::Waiting => 9,
            ProcState::Suspended => 10,
            ProcState::Done => 11,
        }
    }
}

struct ProcEntry {
    workload: Box<dyn Workload>,
    state: ProcState,
    background: bool,
    /// Goodput of the last completed receive leg, bits/s — the passive
    /// bandwidth-supply estimate the original Odyssey derived from its
    /// RPC transfers.
    last_transfer_bps: Option<f64>,
    /// Attempt number of the RPC in flight (1-based; 0 when idle).
    attempts: u32,
    /// The flow currently on the link for this process, if any.
    flow: Option<FlowId>,
    /// Pending RPC timeout event, cancelled on completion.
    timeout_ev: Option<EventId>,
    /// Pending NetTimer event, cancelled when an attempt is aborted.
    net_timer_ev: Option<EventId>,
    /// Pending Timer (think-time) event, cancelled on suspension.
    wait_timer_ev: Option<EventId>,
    /// Pending NetRetry event, cancelled on suspension.
    retry_ev: Option<EventId>,
    /// True while the supervisor holds this process off the machine.
    suspended: bool,
    /// Datapath clamp in `(0, 1]`: the warden scales this process's CPU
    /// bursts, transfers, and disk reads by this factor (a forced-fidelity
    /// response to misdeclared demand). 1.0 = unclamped.
    clamp: f64,
    /// Instant of the most recent `poll` — the watchdog's liveness signal.
    last_poll_at: SimTime,
    /// True while this foreground process counts toward `alive`.
    alive_counted: bool,
    /// The ledger key of the pair this process booked last.
    key_memo: KeyMemo,
    /// The ledger name id of the process's own bucket, resolved when the
    /// run starts: until then each `add_process` shifts the ids.
    bucket: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Source {
    Proc(Pid),
    XServer,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    Poll(Pid),
    CpuDone,
    LinkWake,
    NetTimer(Pid),
    Timer(Pid),
    DiskSpinupDone(Pid),
    DiskDone(Pid),
    SpinDownCheck,
    DimCheck,
    HookTick(usize),
    /// The link-fault timeline has a capacity transition now.
    LinkFault,
    /// The RPC in flight for this process has exceeded its timeout.
    RpcTimeout(Pid),
    /// Retry backoff expired; reissue the aborted RPC.
    NetRetry(Pid),
}

struct HookSlot {
    hook: Option<Box<dyn ControlHook>>,
    period: SimDuration,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct FlowCtx {
    pid: Pid,
    /// Reply bytes the leg carries, for the goodput estimate on
    /// completion (0 for request legs).
    rx_bytes: u64,
    started: SimTime,
}

// ---- Snapshot codecs for the private scheduler types -------------------

impl Codec for Pid {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Pid(r.take()?))
    }
}

/// A decoded pid must index the rebuilt machine's process table.
fn check_pid(pid: Pid, n_procs: usize, what: &'static str) -> Result<(), SnapshotError> {
    if pid.0 < n_procs {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

impl Codec for CpuJob {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.remaining);
        w.put(&self.intensity);
        w.put(&self.procedure);
        w.put(&self.bucket);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CpuJob {
            remaining: r.take()?,
            intensity: checked_intensity(r.take()?)?,
            procedure: r.take()?,
            bucket: r.take()?,
        })
    }
}

simcore::impl_codec!(RpcPlan {
    request_bytes,
    reply_bytes,
    server_time,
    is_bulk
});

/// [`ProcState::tag`], then the variant's payload.
impl Codec for ProcState {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.tag());
        match self {
            ProcState::ReadyCpu(job) => w.put(job),
            ProcState::NetAwaitTx(plan)
            | ProcState::NetTx(plan)
            | ProcState::NetServerWait(plan)
            | ProcState::NetRx(plan)
            | ProcState::NetBackoff(plan) => w.put(plan),
            ProcState::DiskSpinup { bytes } => w.put(bytes),
            ProcState::Start
            | ProcState::DiskBusy
            | ProcState::Waiting
            | ProcState::Suspended
            | ProcState::Done => {}
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u64>()? {
            0 => ProcState::Start,
            1 => ProcState::ReadyCpu(r.take()?),
            2 => ProcState::NetAwaitTx(r.take()?),
            3 => ProcState::NetTx(r.take()?),
            4 => ProcState::NetServerWait(r.take()?),
            5 => ProcState::NetRx(r.take()?),
            6 => ProcState::NetBackoff(r.take()?),
            7 => ProcState::DiskSpinup { bytes: r.take()? },
            8 => ProcState::DiskBusy,
            9 => ProcState::Waiting,
            10 => ProcState::Suspended,
            11 => ProcState::Done,
            _ => return Err(SnapshotError::Corrupt("proc state tag")),
        })
    }
}

impl Codec for Source {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            Source::Proc(pid) => w.put(&(0u64, *pid)),
            Source::XServer => w.put(&1u64),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u64>()? {
            0 => Ok(Source::Proc(r.take()?)),
            1 => Ok(Source::XServer),
            _ => Err(SnapshotError::Corrupt("source tag")),
        }
    }
}

impl Source {
    fn check(self, n_procs: usize) -> Result<(), SnapshotError> {
        match self {
            Source::Proc(pid) => check_pid(pid, n_procs, "source pid out of range"),
            Source::XServer => Ok(()),
        }
    }
}

/// Tag word 0–12 in declaration order, then the pid or hook index of
/// the variants that carry one.
impl Codec for Event {
    fn put(&self, w: &mut SnapshotWriter) {
        let (tag, arg) = match *self {
            Event::Poll(pid) => (0u64, Some(pid.0)),
            Event::CpuDone => (1, None),
            Event::LinkWake => (2, None),
            Event::NetTimer(pid) => (3, Some(pid.0)),
            Event::Timer(pid) => (4, Some(pid.0)),
            Event::DiskSpinupDone(pid) => (5, Some(pid.0)),
            Event::DiskDone(pid) => (6, Some(pid.0)),
            Event::SpinDownCheck => (7, None),
            Event::DimCheck => (8, None),
            Event::HookTick(idx) => (9, Some(idx)),
            Event::LinkFault => (10, None),
            Event::RpcTimeout(pid) => (11, Some(pid.0)),
            Event::NetRetry(pid) => (12, Some(pid.0)),
        };
        w.put(&tag);
        if let Some(arg) = arg {
            w.put(&arg);
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u64>()? {
            0 => Event::Poll(r.take()?),
            1 => Event::CpuDone,
            2 => Event::LinkWake,
            3 => Event::NetTimer(r.take()?),
            4 => Event::Timer(r.take()?),
            5 => Event::DiskSpinupDone(r.take()?),
            6 => Event::DiskDone(r.take()?),
            7 => Event::SpinDownCheck,
            8 => Event::DimCheck,
            9 => Event::HookTick(r.take()?),
            10 => Event::LinkFault,
            11 => Event::RpcTimeout(r.take()?),
            12 => Event::NetRetry(r.take()?),
            _ => return Err(SnapshotError::Corrupt("event tag")),
        })
    }
}

impl Event {
    fn check(self, n_procs: usize, n_hooks: usize) -> Result<(), SnapshotError> {
        match self {
            Event::Poll(pid)
            | Event::NetTimer(pid)
            | Event::Timer(pid)
            | Event::DiskSpinupDone(pid)
            | Event::DiskDone(pid)
            | Event::RpcTimeout(pid)
            | Event::NetRetry(pid) => check_pid(pid, n_procs, "event pid out of range"),
            Event::HookTick(idx) if idx >= n_hooks => {
                Err(SnapshotError::Corrupt("hook tick index out of range"))
            }
            _ => Ok(()),
        }
    }
}

simcore::impl_codec!(FlowCtx {
    pid,
    rx_bytes,
    started
});

/// What one interval integrates: the device states in force and the
/// power they draw. Its attribution lives in `Machine::share_buf` and
/// `Machine::share_keys`.
#[derive(Clone, Copy, Debug)]
struct Interval {
    states: DeviceStates,
    breakdown: PowerBreakdown,
    power_w: Watts,
}

/// The simulated mobile client.
pub struct Machine {
    cfg: MachineConfig,
    power: PlatformPower,
    clock: SimTime,
    queue: EventQueue<Event>,
    procs: Vec<ProcEntry>,
    fidelity_series: Vec<TimeSeries>,
    /// Foreground processes with `alive_counted` set.
    alive: usize,
    // CPU scheduler.
    run_queue: VecDeque<Source>,
    x_queue: VecDeque<CpuJob>,
    x_enqueued: bool,
    current: Option<(Source, SimDuration)>,
    /// The running process's pending quantum end, `(instant, order
    /// mark)`, while it has the CPU to itself: kept out of the queue,
    /// settled by the event loop where its `CpuDone` would have fired,
    /// and queued in that place only when the run is interrupted.
    lone: Option<(SimTime, Order)>,
    // Devices.
    disk: DiskModel,
    radio: RadioModel,
    link: SharedLink,
    link_faults: LinkFaultTimeline,
    /// Live transfers in `FlowId` order, as the snapshot writes them.
    flows: Vec<(FlowId, FlowCtx)>,
    link_event: Option<EventId>,
    rpc_timeouts: u64,
    rpc_retries: u64,
    // Display dimming.
    quiet_since: Option<SimTime>,
    dim_active: bool,
    dim_event: Option<EventId>,
    // Accounting.
    ledger: Ledger,
    source: EnergySource,
    observers: Vec<Box<dyn IntervalObserver>>,
    hooks: Vec<HookSlot>,
    /// The interval `advance_to` built last, kept until one of its
    /// inputs moves: every site that moves one drops it, as do `thaw`
    /// and `handle` for every event but a timer, a dim or spin-down
    /// check and a hook tick.
    interval: Option<Interval>,
    /// The current interval's attribution shares, and the ledger key of
    /// each.
    share_buf: Vec<ShareEntry>,
    share_keys: Vec<Key>,
    /// Key memos of the fixed shares: X, Idle, WaveLAN, Odyssey, Kernel.
    fixed_memos: [KeyMemo; 5],
    trace: Option<TraceHandle>,
    stopped: bool,
    exhausted: bool,
    started: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let power = PlatformPower::new(PlatformSpec::thinkpad_560x());
        let disk = DiskModel::new(cfg.pm.disk_policy(), power.spec().disk_spinup_time);
        let radio = RadioModel::new(cfg.pm.radio_policy());
        let link = SharedLink::new(WAVELAN_CAPACITY_BPS);
        let link_faults = cfg
            .faults
            .link
            .compile(&SimRng::new(cfg.faults.seed), cfg.faults.horizon);
        let source = cfg.source;
        Machine {
            cfg,
            power,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            procs: Vec::new(),
            fidelity_series: Vec::new(),
            alive: 0,
            run_queue: VecDeque::new(),
            x_queue: VecDeque::new(),
            x_enqueued: false,
            current: None,
            lone: None,
            disk,
            radio,
            link,
            link_faults,
            flows: Vec::new(),
            link_event: None,
            rpc_timeouts: 0,
            rpc_retries: 0,
            quiet_since: None,
            dim_active: false,
            dim_event: None,
            ledger: Ledger::new(Names::new(FIXED_NAMES)),
            source,
            observers: Vec::new(),
            hooks: Vec::new(),
            interval: None,
            share_buf: Vec::new(),
            share_keys: Vec::new(),
            fixed_memos: [KeyMemo::default(); 5],
            trace: None,
            stopped: false,
            exhausted: false,
            started: false,
        }
    }

    /// Attaches a simtrace handle: every load-bearing transition — CPU
    /// dispatch, ledger delta, RPC timeout/retry, link fault, fidelity
    /// change, suspend/restart — is emitted as a typed event from now on.
    /// The handle is shared with the link and exposed to control hooks
    /// through [`MachineView::emit_trace`] and
    /// [`MachineView::trace_enabled`].
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.link.set_trace(trace.clone());
        self.trace = Some(trace);
    }

    /// Emits `event` at the current clock if a trace is attached.
    fn trace_emit(&self, event: TraceEvent) {
        if let Some(tr) = &self.trace {
            tr.emit(self.clock, event);
        }
    }

    /// Whether a trace is attached and records `cat` (lets hot paths skip
    /// building high-frequency payloads).
    fn trace_enabled(&self, cat: TraceCategory) -> bool {
        self.trace.as_ref().is_some_and(|tr| tr.enabled(cat))
    }

    /// Adds a workload; must be called before the run starts.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn add_process(&mut self, workload: Box<dyn Workload>) -> Pid {
        self.add_process_inner(workload, false)
    }

    /// Adds a *background* workload: it runs like any other process but
    /// does not keep the machine alive — [`Machine::run`] ends when every
    /// foreground workload finishes (the paper's "background newsfeed"
    /// video in Sections 3.7 and 5).
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn add_background_process(&mut self, workload: Box<dyn Workload>) -> Pid {
        self.add_process_inner(workload, true)
    }

    fn add_process_inner(&mut self, workload: Box<dyn Workload>, background: bool) -> Pid {
        assert!(!self.started, "processes must be added before run()");
        let names = std::iter::once(workload.name()).chain(workload.names());
        self.ledger = Ledger::new(self.ledger.names().with(names));
        let pid = Pid(self.procs.len());
        let mut series = TimeSeries::new(workload.name());
        series.record(SimTime::ZERO, workload.fidelity().level as f64);
        self.fidelity_series.push(series);
        self.procs.push(ProcEntry {
            workload,
            state: ProcState::Start,
            background,
            last_transfer_bps: None,
            attempts: 0,
            flow: None,
            timeout_ev: None,
            net_timer_ev: None,
            wait_timer_ev: None,
            retry_ev: None,
            suspended: false,
            clamp: 1.0,
            last_poll_at: SimTime::ZERO,
            alive_counted: !background,
            key_memo: KeyMemo::default(),
            bucket: 0,
        });
        if !background {
            self.alive += 1;
        }
        self.queue.push(SimTime::ZERO, Event::Poll(pid));
        pid
    }

    /// Registers an interval observer.
    pub fn add_observer(&mut self, obs: Box<dyn IntervalObserver>) {
        self.observers.push(obs);
    }

    /// Registers a periodic control hook; the first tick fires one period
    /// into the run.
    pub fn add_hook(&mut self, period: SimDuration, hook: Box<dyn ControlHook>) {
        assert!(!period.is_zero(), "hook period must be positive");
        let idx = self.hooks.len();
        self.hooks.push(HookSlot {
            hook: Some(hook),
            period,
        });
        self.queue
            .push(SimTime::ZERO + period, Event::HookTick(idx));
    }

    /// Runs until every workload finishes, a controller stops the run, or
    /// the energy supply is exhausted.
    pub fn run(&mut self) -> RunReport {
        self.drive(None);
        self.report()
    }

    /// Runs until `horizon` (or an earlier stop/exhaustion). Unlike
    /// [`Machine::run`], completion of all workloads does not end the run —
    /// useful for measuring background power.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        self.drive(Some(horizon));
        self.report()
    }

    /// Advances exactly as [`Machine::run_until`] does but builds no
    /// [`RunReport`]; returns the clock reached, which is below `horizon`
    /// only if the run stopped or the supply ran out first. This is the
    /// per-sample step of a served session, whose cost must not grow with
    /// the ledger or the fidelity history.
    pub fn drive_until(&mut self, horizon: SimTime) -> SimTime {
        self.drive(Some(horizon));
        self.clock
    }

    /// The event loop: handles events up to `horizon`, or until every
    /// workload is done when there is none.
    fn drive(&mut self, horizon: Option<SimTime>) {
        if !self.started {
            self.started = true;
            self.resolve_buckets();
            // The disk is idle from boot; arm the initial spin-down timer.
            if let Some(dl) = self.disk.spin_down_deadline() {
                self.queue.push(dl, Event::SpinDownCheck);
            }
            // Arm the link-fault timeline.
            if !self.link_faults.is_clean() {
                let f = self.link_faults.capacity_factor_at(SimTime::ZERO);
                self.link.set_rate_factor(SimTime::ZERO, f);
                if let Some(t) = self
                    .link_faults
                    .next_capacity_transition_after(SimTime::ZERO)
                {
                    self.queue.push(t, Event::LinkFault);
                }
            }
        }
        loop {
            if self.stopped {
                break;
            }
            if horizon.is_none() && self.alive == 0 {
                break;
            }
            if self.lone.is_some() {
                self.settle_lone(horizon);
                if self.stopped {
                    break;
                }
            }
            let Some(t_next) = self.queue.peek_time() else {
                if let Some(h) = horizon {
                    if h > self.clock {
                        self.advance_to(h);
                    }
                }
                break;
            };
            if let Some(h) = horizon {
                if t_next > h {
                    self.advance_to(h);
                    break;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "peek_time just returned Some; the queue cannot be empty here"
            )]
            let (t, ev) = self.queue.pop().expect("peeked event vanished");
            self.advance_to(t);
            if self.stopped {
                break;
            }
            self.handle(ev);
            self.update_quiet_tracking();
        }
    }

    fn report(&self) -> RunReport {
        RunReport {
            end: self.clock,
            total_j: self.ledger.total_j(),
            buckets: self.ledger.snapshot_buckets(),
            components: self.ledger.components(),
            detail: self.ledger.snapshot_detail(),
            fidelity: self.fidelity_series.clone(),
            exhausted: self.exhausted,
            residual_j: self.source.remaining_j(),
            bytes_carried: self.link.total_bytes_carried(),
            rpc_timeouts: self.rpc_timeouts,
            rpc_retries: self.rpc_retries,
        }
    }

    // ---- Energy integration -------------------------------------------

    /// Builds the attribution of the interval about to be integrated:
    /// fills `share_buf` with its shares and `share_keys` with the ledger
    /// key of each, and returns the device states in force, whose CPU load
    /// blends the running job with the interrupt and data-path overlays.
    fn interval_shares(&mut self) -> DeviceStates {
        let transfers = self.link.active_count();
        let int_frac = if transfers > 0 {
            (INT_FRAC_PER_TRANSFER * transfers as f64).min(INT_FRAC_CAP)
        } else {
            0.0
        };
        let ody_frac = if transfers > 0 { ODYSSEY_FRAC } else { 0.0 };
        let disk_busy = matches!(self.disk.state(), DiskState::Active | DiskState::SpinningUp);
        let kern_frac = if disk_busy { DISK_KERNEL_FRAC } else { 0.0 };
        let main_frac = 1.0 - int_frac - ody_frac - kern_frac;
        let mut load = int_frac * intensity::KERNEL_INTERRUPT
            + ody_frac * intensity::ODYSSEY
            + kern_frac * intensity::KERNEL_INTERRUPT;
        let (bucket, procedure, memo) = match self.current {
            Some((Source::Proc(pid), _)) => {
                let p = &mut self.procs[pid.0];
                let (bucket, procedure, job_intensity) = match &p.state {
                    ProcState::ReadyCpu(job) => (
                        job.bucket.unwrap_or(p.workload.name()),
                        job.procedure,
                        job.intensity,
                    ),
                    _ => (p.workload.name(), "unknown", 0.0),
                };
                load += main_frac * job_intensity;
                (bucket, procedure, &mut p.key_memo)
            }
            Some((Source::XServer, _)) => {
                load += main_frac * self.x_queue.front().map(|j| j.intensity).unwrap_or(0.0);
                (BUCKET_X, "render", &mut self.fixed_memos[0])
            }
            None => (BUCKET_IDLE, "idle_hlt", &mut self.fixed_memos[1]),
        };
        self.share_buf.clear();
        self.share_keys.clear();
        self.share_keys
            .push(self.ledger.key(memo, bucket, procedure));
        self.share_buf.push(ShareEntry {
            bucket,
            procedure,
            fraction: main_frac,
        });
        for (fraction, bucket, procedure, memo) in [
            (int_frac, BUCKET_WAVELAN, "wavelan_intr", 2),
            (ody_frac, BUCKET_ODYSSEY, "viceroy_datapath", 3),
            (kern_frac, BUCKET_KERNEL, "disk_intr", 4),
        ] {
            if fraction > 0.0 {
                let memo = &mut self.fixed_memos[memo];
                self.share_keys
                    .push(self.ledger.key(memo, bucket, procedure));
                self.share_buf.push(ShareEntry {
                    bucket,
                    procedure,
                    fraction,
                });
            }
        }
        DeviceStates {
            display: self.display_state(),
            disk: self.disk.state(),
            radio: self.radio.state(),
            cpu_load: load,
        }
    }

    fn display_state(&self) -> DisplayState {
        if !self.cfg.pm.enabled {
            return DisplayState::Bright;
        }
        let mut need = DisplayState::Off;
        for p in &self.procs {
            if !matches!(p.state, ProcState::Done | ProcState::Suspended) {
                need = need.max(p.workload.display_need());
            }
        }
        if self.dim_active && need == DisplayState::Bright {
            DisplayState::Dim
        } else {
            need
        }
    }

    /// Builds the interval about to be integrated from the machine's
    /// current state; see [`Self::interval_shares`].
    fn build_interval(&mut self) -> Interval {
        let states = self.interval_shares();
        let mut breakdown = self.power.breakdown(&states);
        // Monitoring hardware draws a constant trickle, booked as base.
        breakdown.base_w += self.cfg.monitor_overhead_w;
        Interval {
            states,
            breakdown,
            power_w: breakdown.total_w(),
        }
    }

    /// The interval to integrate next: the kept one when no event was
    /// handled since it was built, else a fresh one, which is kept.
    fn current_interval(&mut self) -> Interval {
        match self.interval {
            Some(kept) => {
                #[cfg(debug_assertions)]
                self.assert_interval_fresh(kept);
                kept
            }
            None => {
                let built = self.build_interval();
                self.interval = Some(built);
                built
            }
        }
    }

    /// Rebuilds the interval and fails unless it equals `kept`, states,
    /// breakdown, power bits and attribution alike: an input that moved
    /// outside `handle` would otherwise be integrated stale.
    #[cfg(debug_assertions)]
    fn assert_interval_fresh(&mut self, kept: Interval) {
        let (shares, keys) = (self.share_buf.clone(), self.share_keys.clone());
        let fresh = self.build_interval();
        assert!(
            fresh.states == kept.states
                && fresh.breakdown == kept.breakdown
                && fresh.power_w.0.to_bits() == kept.power_w.0.to_bits()
                && self.share_buf == shares
                && self.share_keys == keys,
            "kept interval went stale at {:?}: {kept:?} against {fresh:?}",
            self.clock
        );
    }

    fn advance_to(&mut self, t: SimTime) {
        if t <= self.clock {
            return;
        }
        let Interval {
            states,
            breakdown,
            power_w,
        } = self.current_interval();
        let mut t1 = t;
        let needed = power_w * t.since(self.clock);
        let mut ran_dry = false;
        if self.source.remaining_j() < needed {
            // The supply runs out mid-interval; integrate only to the
            // exhaustion instant and stop the run.
            let live = (self.source.remaining_j() / power_w).max(0.0);
            t1 = self.clock + SimDuration::from_secs_f64(live);
            self.exhausted = true;
            self.stopped = true;
            ran_dry = true;
        }
        let dt1 = t1.since(self.clock);
        if !dt1.is_zero() {
            self.source.drain(power_w * dt1);
            self.ledger
                .add(dt1, power_w, &breakdown, &self.share_buf, &self.share_keys);
            if self.trace_enabled(TraceCategory::Energy) {
                if let Some(tr) = &self.trace {
                    // Mirror the ledger's per-share arithmetic exactly, so
                    // summing a run's deltas reproduces its bucket totals
                    // bit for bit.
                    let energy = power_w * dt1;
                    for s in &self.share_buf {
                        tr.emit(
                            t1,
                            TraceEvent::EnergyDelta {
                                bucket: s.bucket,
                                energy_j: (energy * s.fraction).0,
                            },
                        );
                    }
                }
            }
            let rec = IntervalRecord {
                t0: self.clock,
                t1,
                power_w,
                breakdown,
                states,
                shares: &self.share_buf,
            };
            for obs in &mut self.observers {
                obs.on_interval(&rec);
            }
        }
        self.clock = t1;
        if ran_dry {
            self.trace_emit(TraceEvent::SupplyExhausted {
                residual_j: self.source.remaining_j().0,
            });
        }
    }

    // ---- Event handling ------------------------------------------------

    fn handle(&mut self, ev: Event) {
        // A timer, a dim or spin-down check and a hook tick drop the kept
        // interval only where they move one of its inputs; any other
        // event may move one.
        if !matches!(
            ev,
            Event::Timer(_) | Event::DimCheck | Event::SpinDownCheck | Event::HookTick(_)
        ) {
            self.interval = None;
        }
        match ev {
            Event::Poll(pid) => self.do_poll(pid),
            Event::CpuDone => self.on_cpu_done(),
            Event::LinkWake => self.on_link_wake(),
            Event::NetTimer(pid) => self.on_net_timer(pid),
            Event::Timer(pid) => {
                self.procs[pid.0].wait_timer_ev = None;
                // A timer surviving a suspend/restart cycle is stale;
                // only a Waiting process wakes on it.
                if matches!(self.procs[pid.0].state, ProcState::Waiting) {
                    self.schedule_poll(pid);
                }
            }
            Event::DiskSpinupDone(pid) => self.on_disk_spinup(pid),
            Event::DiskDone(pid) => self.on_disk_done(pid),
            Event::SpinDownCheck => {
                if self.disk.try_spin_down(self.clock) {
                    self.interval = None;
                } else {
                    if let Some(dl) = self.disk.spin_down_deadline() {
                        if dl > self.clock {
                            self.queue.push(dl, Event::SpinDownCheck);
                        }
                    }
                }
            }
            Event::DimCheck => {
                self.dim_event = None;
                if let Some(s) = self.quiet_since {
                    if self.clock.saturating_since(s) >= PmPolicy::DISPLAY_DIM_AFTER {
                        self.set_dim(true);
                    }
                }
            }
            Event::HookTick(i) => self.on_hook_tick(i),
            Event::LinkFault => self.on_link_fault(),
            Event::RpcTimeout(pid) => self.on_rpc_timeout(pid),
            Event::NetRetry(pid) => self.on_net_retry(pid),
        }
    }

    fn schedule_poll(&mut self, pid: Pid) {
        if self.procs[pid.0].suspended {
            // A device operation finished while the process was being
            // quarantined; park instead of polling. A parked process
            // needs no display.
            self.procs[pid.0].state = ProcState::Suspended;
            self.interval = None;
            return;
        }
        self.procs[pid.0].state = ProcState::Start;
        self.queue.push(self.clock, Event::Poll(pid));
    }

    fn do_poll(&mut self, pid: Pid) {
        if self.procs[pid.0].suspended {
            self.procs[pid.0].state = ProcState::Suspended;
            return;
        }
        self.procs[pid.0].last_poll_at = self.clock;
        let mut budget = 10_000u32;
        loop {
            budget -= 1;
            assert!(budget > 0, "workload {pid:?} livelocked at zero time");
            let now = self.clock;
            let clamp = self.procs[pid.0].clamp;
            let step = self.procs[pid.0].workload.poll(now);
            match step {
                Step::Done => {
                    self.procs[pid.0].state = ProcState::Done;
                    self.release_alive(pid);
                    break;
                }
                Step::Run(Activity::Cpu {
                    duration,
                    intensity,
                    procedure,
                })
                | Step::Run(Activity::CpuAs {
                    duration,
                    intensity,
                    procedure,
                    ..
                }) => {
                    let bucket = match step {
                        Step::Run(Activity::CpuAs { bucket, .. }) => Some(bucket),
                        _ => None,
                    };
                    assert!(
                        (0.0..=1.0).contains(&intensity),
                        "invalid intensity {intensity}"
                    );
                    let duration = scale_duration(duration, clamp);
                    if duration.is_zero() {
                        continue;
                    }
                    self.procs[pid.0].state = ProcState::ReadyCpu(CpuJob {
                        remaining: duration,
                        intensity,
                        procedure,
                        bucket,
                    });
                    self.interrupt_lone();
                    self.run_queue.push_back(Source::Proc(pid));
                    self.dispatch();
                    break;
                }
                Step::Run(Activity::XRender { cost }) => {
                    let cost = scale_duration(cost, clamp);
                    if !cost.is_zero() {
                        self.x_queue.push_back(CpuJob {
                            remaining: cost,
                            intensity: intensity::X_RENDER,
                            procedure: "render",
                            bucket: None,
                        });
                        if !self.x_enqueued {
                            self.x_enqueued = true;
                            self.interrupt_lone();
                            self.run_queue.push_back(Source::XServer);
                        }
                        self.dispatch();
                    }
                    continue;
                }
                Step::Run(Activity::Rpc { spec, procedure: _ }) => {
                    self.radio.open_window();
                    self.procs[pid.0].attempts = 1;
                    self.begin_attempt(
                        pid,
                        RpcPlan {
                            request_bytes: spec.request_bytes,
                            reply_bytes: scale_bytes(spec.reply_bytes, clamp),
                            server_time: spec.server_time,
                            is_bulk: false,
                        },
                    );
                    break;
                }
                Step::Run(Activity::BulkFetch {
                    bytes,
                    procedure: _,
                }) => {
                    self.radio.open_window();
                    self.procs[pid.0].attempts = 1;
                    self.begin_attempt(
                        pid,
                        RpcPlan {
                            request_bytes: 0,
                            reply_bytes: scale_bytes(bytes, clamp),
                            server_time: SimDuration::ZERO,
                            is_bulk: true,
                        },
                    );
                    break;
                }
                Step::Run(Activity::DiskRead {
                    bytes,
                    procedure: _,
                }) => {
                    let bytes = scale_bytes(bytes, clamp);
                    let delay = self.disk.begin_access(now);
                    if delay.is_zero() {
                        let t = self.disk_transfer_time(bytes);
                        self.procs[pid.0].state = ProcState::DiskBusy;
                        self.queue.push(now + t, Event::DiskDone(pid));
                    } else {
                        self.procs[pid.0].state = ProcState::DiskSpinup { bytes };
                        self.queue.push(now + delay, Event::DiskSpinupDone(pid));
                    }
                    break;
                }
                Step::Run(Activity::Wait { until }) => {
                    if until <= now {
                        continue;
                    }
                    self.procs[pid.0].state = ProcState::Waiting;
                    self.procs[pid.0].wait_timer_ev =
                        Some(self.queue.push(until, Event::Timer(pid)));
                    break;
                }
            }
        }
    }

    fn disk_transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.power.spec().disk_rate_bps)
            .max(SimDuration::from_micros(100))
    }

    // ---- Supervision primitives ----------------------------------------

    /// Releases this process's claim on `alive` (once).
    fn release_alive(&mut self, pid: Pid) {
        let p = &mut self.procs[pid.0];
        if p.alive_counted {
            p.alive_counted = false;
            self.alive -= 1;
        }
    }

    /// Re-acquires the `alive` claim for a restarted foreground process.
    fn acquire_alive(&mut self, pid: Pid) {
        let p = &mut self.procs[pid.0];
        if !p.background && !p.alive_counted {
            p.alive_counted = true;
            self.alive += 1;
        }
    }

    fn suspend_proc(&mut self, pid: Pid) -> bool {
        if self.procs[pid.0].suspended || matches!(self.procs[pid.0].state, ProcState::Done) {
            return false;
        }
        self.procs[pid.0].suspended = true;
        for ev in [
            self.procs[pid.0].timeout_ev.take(),
            self.procs[pid.0].net_timer_ev.take(),
            self.procs[pid.0].wait_timer_ev.take(),
            self.procs[pid.0].retry_ev.take(),
        ]
        .into_iter()
        .flatten()
        {
            self.queue.cancel(ev);
        }
        let running = matches!(self.current, Some((Source::Proc(q), _)) if q == pid);
        match self.procs[pid.0].state {
            ProcState::NetTx(_) | ProcState::NetRx(_) => {
                if let Some(flow) = self.procs[pid.0].flow.take() {
                    self.take_flow(flow);
                    self.link.cancel_flow(self.clock, flow);
                    self.relink();
                }
                self.radio.end_transfer();
                self.radio.close_window();
                self.procs[pid.0].attempts = 0;
                self.procs[pid.0].state = ProcState::Suspended;
            }
            ProcState::NetAwaitTx(_) | ProcState::NetServerWait(_) | ProcState::NetBackoff(_) => {
                // No transfer is active in these phases, but the radio
                // window opened at issue is still held; release it.
                self.radio.close_window();
                self.procs[pid.0].attempts = 0;
                self.procs[pid.0].state = ProcState::Suspended;
            }
            ProcState::ReadyCpu(_) if running => {
                // Mid-slice on the CPU: the quantum finishes (at most
                // 10 ms away) and `on_cpu_done` parks the process.
                self.interrupt_lone();
            }
            ProcState::ReadyCpu(_) => {
                self.run_queue.retain(|s| *s != Source::Proc(pid));
                self.procs[pid.0].state = ProcState::Suspended;
            }
            ProcState::DiskSpinup { .. } | ProcState::DiskBusy => {
                // Let the disk operation complete so the disk model's
                // accounting stays consistent; the post-op poll parks.
            }
            ProcState::Waiting | ProcState::Start => {
                self.procs[pid.0].state = ProcState::Suspended;
            }
            ProcState::Suspended | ProcState::Done => unreachable!("filtered above"),
        }
        self.release_alive(pid);
        self.trace_emit(TraceEvent::Suspend {
            pid: pid.0 as u64,
            name: self.procs[pid.0].workload.name(),
        });
        true
    }

    fn restart_proc(&mut self, pid: Pid) -> bool {
        let restartable =
            self.procs[pid.0].suspended || matches!(self.procs[pid.0].state, ProcState::Done);
        if !restartable {
            return false;
        }
        let now = self.clock;
        if !self.procs[pid.0].workload.on_restart(now) {
            return false;
        }
        self.procs[pid.0].suspended = false;
        self.procs[pid.0].attempts = 0;
        self.procs[pid.0].state = ProcState::Start;
        self.queue.push(now, Event::Poll(pid));
        self.acquire_alive(pid);
        let level = self.procs[pid.0].workload.fidelity().level as f64;
        self.fidelity_series[pid.0].record(now, level);
        self.trace_emit(TraceEvent::Restart {
            pid: pid.0 as u64,
            name: self.procs[pid.0].workload.name(),
        });
        true
    }

    /// The machine's name table: the `BUCKET_*` constants, the fixed
    /// procedures, and every name its workloads declare. The energy
    /// ledger books only these names, and [`Machine::thaw`] accepts only
    /// these (the reader resolves against them, perhaps with others the
    /// shell adds).
    pub fn names(&self) -> &Names {
        self.ledger.names()
    }

    /// 64-bit digest of the machine's live state; see
    /// [`MachineView::state_digest`].
    pub fn state_digest(&self) -> u64 {
        let mut h = simcore::SnapshotHasher::new();
        h.write_u64(self.clock.as_micros());
        h.write_f64(self.ledger.total_j().0);
        h.write_f64(self.source.remaining_j().0);
        h.write_u64(self.exhausted as u64);
        h.write_u64(self.rpc_timeouts);
        h.write_u64(self.rpc_retries);
        h.write_u64(self.link.total_bytes_carried());
        let c = self.ledger.components();
        for v in [
            c.display_j,
            c.disk_j,
            c.radio_j,
            c.cpu_j,
            c.base_j,
            c.superlinear_j,
        ] {
            h.write_f64(v.0);
        }
        h.write_u64(self.procs.len() as u64);
        for p in &self.procs {
            h.write_u64(p.state.tag());
            let f = p.workload.fidelity();
            h.write_u64(f.level as u64);
            h.write_u64(f.levels as u64);
            h.write_u64(p.attempts as u64);
            h.write_u64(p.suspended as u64);
            h.write_f64(p.clamp);
            h.write_u64(p.last_poll_at.as_micros());
            match p.last_transfer_bps {
                None => h.write_u64(0),
                Some(bps) => {
                    h.write_u64(1);
                    h.write_f64(bps);
                }
            }
        }
        h.finish()
    }

    // ---- Snapshot freeze/thaw ------------------------------------------

    /// Encodes the machine's full mutable state into a snapshot payload,
    /// in struct-field order. Construction-time state (config, power
    /// model, compiled fault timeline, trace attachment) is not written:
    /// thaw targets a machine freshly rebuilt from the identical
    /// configuration.
    ///
    /// Fails with [`SnapshotError::Unsupported`] when any attached
    /// workload or hook lacks a freeze implementation, or when interval
    /// observers are attached (observers accumulate state the machine
    /// cannot see) — the caller then falls back to replay-based resume.
    ///
    /// [`SnapshotError::Unsupported`]: simcore::SnapshotError::Unsupported
    pub fn freeze(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        if !self.observers.is_empty() {
            return Err(SnapshotError::Unsupported(
                "machine with interval observers",
            ));
        }
        w.put(&self.clock);
        w.put(&self.queue.next_seq());
        w.put(&self.queue.export_entries());
        w.put(&self.procs.len());
        for p in &self.procs {
            p.workload.freeze(w)?;
            w.put(&p.state);
            w.put(&p.last_transfer_bps);
            w.put(&p.attempts);
            w.put(&p.flow);
            w.put(&p.timeout_ev);
            w.put(&p.net_timer_ev);
            w.put(&p.wait_timer_ev);
            w.put(&p.retry_ev);
            w.put(&p.suspended);
            w.put(&p.clamp);
            w.put(&p.last_poll_at);
            w.put(&p.alive_counted);
        }
        for s in &self.fidelity_series {
            w.put(s);
        }
        w.put(&self.run_queue);
        w.put(&self.x_queue);
        w.put(&self.x_enqueued);
        w.put(&self.current);
        w.put(&self.lone);
        self.disk.freeze_into(w);
        self.link.freeze_into(w);
        w.put(&self.flows);
        w.put(&self.link_event);
        w.put(&self.rpc_timeouts);
        w.put(&self.rpc_retries);
        w.put(&self.quiet_since);
        w.put(&self.dim_active);
        w.put(&self.dim_event);
        self.ledger.freeze_into(w);
        w.put(&self.source);
        w.put(&self.hooks.len());
        for slot in &self.hooks {
            match &slot.hook {
                Some(hook) => hook.freeze(w)?,
                None => return Err(SnapshotError::Unsupported("freeze during hook tick")),
            }
        }
        w.put(&self.stopped);
        w.put(&self.exhausted);
        w.put(&self.started);
        Ok(())
    }

    /// Restores the state written by [`Machine::freeze`] onto this
    /// machine, which must have been freshly rebuilt from the identical
    /// configuration (same processes, hooks, and config, not yet run).
    ///
    /// Names decode through `r`'s table, which must hold
    /// [`Machine::names`]; a name the machine cannot book is corrupt.
    ///
    /// On error the machine may be partially mutated — callers must
    /// discard it and fall back to replay.
    pub fn thaw(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if !self.observers.is_empty() {
            return Err(SnapshotError::Unsupported(
                "machine with interval observers",
            ));
        }
        let n_procs = self.procs.len();
        let n_hooks = self.hooks.len();
        self.interval = None;
        self.clock = r.take()?;
        let next_seq = r.take()?;
        let entries: Vec<(SimTime, Order, Event)> = r.take()?;
        for &(_, _, ev) in &entries {
            ev.check(n_procs, n_hooks)?;
        }
        let cpu_done_queued = entries.iter().any(|&(_, _, ev)| ev == Event::CpuDone);
        self.queue = EventQueue::restore(next_seq, entries)?;
        if r.take::<usize>()? != n_procs {
            return Err(SnapshotError::Corrupt("process count mismatch"));
        }
        for p in &mut self.procs {
            p.workload.thaw(r)?;
            p.state = r.take()?;
            p.last_transfer_bps = r.take()?;
            p.attempts = r.take()?;
            p.flow = r.take()?;
            p.timeout_ev = r.take()?;
            p.net_timer_ev = r.take()?;
            p.wait_timer_ev = r.take()?;
            p.retry_ev = r.take()?;
            p.suspended = r.take()?;
            p.clamp = r.take()?;
            if !p.clamp.is_finite() || p.clamp <= 0.0 || p.clamp > 1.0 {
                return Err(SnapshotError::Corrupt("datapath clamp"));
            }
            p.last_poll_at = r.take()?;
            p.alive_counted = r.take()?;
        }
        for s in &mut self.fidelity_series {
            let series: TimeSeries = r.take()?;
            if series.name() != s.name() {
                return Err(SnapshotError::Corrupt("fidelity series name"));
            }
            // `TimeSeries::record` asserts time order: a point after the
            // clock would panic at the next fidelity change.
            if series.last().is_some_and(|(at, _)| at > self.clock) {
                return Err(SnapshotError::Corrupt("fidelity point after clock"));
            }
            *s = series;
        }
        self.alive = self.procs.iter().filter(|p| p.alive_counted).count();
        self.run_queue = r.take()?;
        for src in &self.run_queue {
            src.check(n_procs)?;
        }
        self.x_queue = r.take()?;
        self.x_enqueued = r.take()?;
        self.current = r.take()?;
        if let Some((src, _)) = self.current {
            src.check(n_procs)?;
        }
        self.lone = r.take()?;
        if let Some((end, mark)) = self.lone {
            // A hook can stop the run at a quantum's end before the
            // quantum settles, so the end may equal the clock.
            if end < self.clock {
                return Err(SnapshotError::Corrupt("lone quantum ends before the clock"));
            }
            if mark > self.queue.mark() {
                return Err(SnapshotError::Corrupt("order mark beyond next_seq"));
            }
            let running = match self.current {
                Some((Source::Proc(pid), _)) => {
                    matches!(self.procs[pid.0].state, ProcState::ReadyCpu(_))
                }
                _ => false,
            };
            if !running || cpu_done_queued {
                return Err(SnapshotError::Corrupt("lone quantum without a runner"));
            }
        }
        self.disk.thaw_from(r)?;
        self.link.thaw_from(r)?;
        // The next advance measures from `last_advance` to the clock.
        if self.link.last_advance() > self.clock {
            return Err(SnapshotError::Corrupt("link advanced past clock"));
        }
        self.flows = r.take()?;
        if !self.flows.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(SnapshotError::Corrupt("flow ids out of order"));
        }
        for (_, ctx) in &self.flows {
            check_pid(ctx.pid, n_procs, "flow pid out of range")?;
        }
        // The radio's counters mirror the processes' RPC states, so they
        // are recounted rather than read.
        let count = |f: fn(&ProcState) -> bool| self.procs.iter().filter(|p| f(&p.state)).count();
        let windows = count(|s| {
            matches!(
                s,
                ProcState::NetAwaitTx(_)
                    | ProcState::NetTx(_)
                    | ProcState::NetServerWait(_)
                    | ProcState::NetRx(_)
                    | ProcState::NetBackoff(_)
            )
        });
        let moving = count(|s| matches!(s, ProcState::NetTx(_) | ProcState::NetRx(_)));
        if moving != self.flows.len() {
            return Err(SnapshotError::Corrupt("transfers without their flows"));
        }
        self.radio.restore_counters(windows, moving);
        self.link_event = r.take()?;
        self.rpc_timeouts = r.take()?;
        self.rpc_retries = r.take()?;
        self.quiet_since = r.take()?;
        self.dim_active = r.take()?;
        self.dim_event = r.take()?;
        self.ledger.thaw_from(r)?;
        self.source = r.take()?;
        if r.take::<usize>()? != n_hooks {
            return Err(SnapshotError::Corrupt("hook count mismatch"));
        }
        for slot in &mut self.hooks {
            match &mut slot.hook {
                Some(hook) => hook.thaw(r)?,
                None => return Err(SnapshotError::Unsupported("thaw during hook tick")),
            }
        }
        self.stopped = r.take()?;
        self.exhausted = r.take()?;
        self.started = r.take()?;
        self.resolve_buckets();
        Ok(())
    }

    /// Resolves each process's own bucket to its ledger name id. The
    /// name table is final from the start of the run, or from a thaw,
    /// since `add_process` panics once the run has started.
    fn resolve_buckets(&mut self) {
        for p in &mut self.procs {
            #[expect(
                clippy::expect_used,
                reason = "add_process puts every workload's name in the table"
            )]
            let id = self
                .ledger
                .names()
                .id(p.workload.name())
                .expect("workload name in the table");
            p.bucket = id;
        }
    }

    // ---- CPU scheduler --------------------------------------------------

    fn dispatch(&mut self) {
        if self.current.is_some() {
            return;
        }
        while let Some(src) = self.run_queue.pop_front() {
            let remaining = match src {
                Source::Proc(pid) => match &self.procs[pid.0].state {
                    ProcState::ReadyCpu(job) => job.remaining,
                    // The process left the CPU path (should not happen);
                    // skip defensively.
                    _ => continue,
                },
                Source::XServer => match self.x_queue.front() {
                    Some(job) => job.remaining,
                    None => {
                        self.x_enqueued = false;
                        continue;
                    }
                },
            };
            let slice = remaining.min(QUANTUM);
            if self.trace_enabled(TraceCategory::Sched) {
                if let Source::Proc(pid) = src {
                    if let ProcState::ReadyCpu(job) = &self.procs[pid.0].state {
                        let procedure = job.procedure;
                        self.trace_emit(TraceEvent::SchedDispatch {
                            pid: pid.0 as u64,
                            procedure,
                        });
                    }
                }
            }
            self.current = Some((src, slice));
            if remaining > QUANTUM && self.run_queue.is_empty() && src != Source::XServer {
                // Alone on the CPU: its quanta end without events.
                self.lone = Some((self.clock + QUANTUM, self.queue.mark()));
            } else {
                self.queue.push(self.clock + slice, Event::CpuDone);
            }
            return;
        }
    }

    /// Ends each quantum of the lone run that fires before the queue's
    /// head, and not after `horizon`, as its `CpuDone` would have: it
    /// charges the job and re-dispatches it at the quantum's end, in the
    /// order that event would have held. The energy of the quanta is
    /// booked with the interval around them. The last quantum is queued
    /// as a real `CpuDone`. If the supply runs out inside a quantum, the
    /// machine integrates to that instant and stops instead.
    fn settle_lone(&mut self, horizon: Option<SimTime>) {
        while let Some((end, mark)) = self.lone {
            let head_first = self.queue.peek_key().is_some_and(|head| head < (end, mark));
            if head_first || horizon.is_some_and(|h| end > h) {
                return;
            }
            // The next advance checks (and reuses) the interval kept here.
            let power_w = match self.interval {
                Some(kept) => kept.power_w,
                None => {
                    let built = self.build_interval();
                    self.interval = Some(built);
                    built.power_w
                }
            };
            if self.source.remaining_j() < power_w * end.since(self.clock) {
                self.advance_to(end);
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "a lone quantum is only pending while its process runs in ReadyCpu"
            )]
            let (pid, job) = match self.current {
                Some((Source::Proc(pid), _)) => match &mut self.procs[pid.0].state {
                    ProcState::ReadyCpu(job) => Some((pid, job)),
                    _ => None,
                },
                _ => None,
            }
            .expect("lone quantum without a running process");
            job.remaining = job.remaining.saturating_sub(QUANTUM);
            let (remaining, procedure) = (job.remaining, job.procedure);
            if self.trace_enabled(TraceCategory::Sched) {
                if let Some(tr) = &self.trace {
                    let pid = pid.0 as u64;
                    tr.emit(end, TraceEvent::SchedDispatch { pid, procedure });
                }
            }
            if remaining > QUANTUM {
                self.lone = Some((end + QUANTUM, self.queue.mark()));
            } else {
                self.lone = None;
                self.current = Some((Source::Proc(pid), remaining));
                self.queue.push(end + remaining, Event::CpuDone);
            }
        }
    }

    /// Queues the lone run's pending quantum end as a real `CpuDone`, in
    /// the place its own push would have taken: another source became
    /// runnable, or the runner is being quarantined.
    fn interrupt_lone(&mut self) {
        if let Some((end, mark)) = self.lone.take() {
            self.queue.push_at_mark(end, Event::CpuDone, mark);
        }
    }

    fn on_cpu_done(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "CpuDone is only scheduled while a slice is running"
        )]
        let (src, slice) = self.current.take().expect("CpuDone without current");
        match src {
            Source::Proc(pid) => {
                let finished = {
                    let ProcState::ReadyCpu(job) = &mut self.procs[pid.0].state else {
                        panic!("running process not in ReadyCpu state");
                    };
                    job.remaining = job.remaining.saturating_sub(slice);
                    job.remaining.is_zero()
                };
                if self.procs[pid.0].suspended {
                    // Quarantined mid-slice: park instead of re-queueing.
                    self.procs[pid.0].state = ProcState::Suspended;
                } else if finished {
                    self.schedule_poll(pid);
                } else {
                    self.run_queue.push_back(src);
                }
            }
            Source::XServer => {
                #[expect(
                    clippy::expect_used,
                    reason = "scheduler invariant: the X source only runs with queued jobs"
                )]
                let front = self
                    .x_queue
                    .front_mut()
                    .expect("X running with empty queue");
                front.remaining = front.remaining.saturating_sub(slice);
                if front.remaining.is_zero() {
                    self.x_queue.pop_front();
                }
                if self.x_queue.is_empty() {
                    self.x_enqueued = false;
                } else {
                    self.run_queue.push_back(Source::XServer);
                }
            }
        }
        self.dispatch();
    }

    // ---- Network ---------------------------------------------------------

    fn relink(&mut self) {
        if let Some(id) = self.link_event.take() {
            self.queue.cancel(id);
        }
        if let Some((t, _)) = self.link.next_completion(self.clock) {
            self.link_event = Some(self.queue.push(t, Event::LinkWake));
        }
    }

    /// Launches one RPC attempt: arms the media-access timer (inflated by
    /// any active latency spike) and, under a retry policy, the attempt's
    /// timeout. The caller sets `attempts` and holds the radio window.
    fn begin_attempt(&mut self, pid: Pid, plan: RpcPlan) {
        let now = self.clock;
        let lat = RPC_LATENCY + self.link_faults.extra_latency_at(now);
        self.procs[pid.0].state = if plan.is_bulk {
            ProcState::NetServerWait(plan)
        } else {
            ProcState::NetAwaitTx(plan)
        };
        self.procs[pid.0].net_timer_ev = Some(self.queue.push(now + lat, Event::NetTimer(pid)));
        if let Some(policy) = self.cfg.faults.rpc {
            self.procs[pid.0].timeout_ev = Some(
                self.queue
                    .push(now + policy.timeout, Event::RpcTimeout(pid)),
            );
        }
    }

    /// Registers a flow the link just started. The link issues ids in
    /// rising order, so the new flow lands at the end.
    fn add_flow(&mut self, flow: FlowId, ctx: FlowCtx) {
        let at = self.flows.partition_point(|(f, _)| *f < flow);
        self.flows.insert(at, (flow, ctx));
    }

    /// Forgets `flow`, returning its context if it was live.
    fn take_flow(&mut self, flow: FlowId) -> Option<FlowCtx> {
        let at = self.flows.iter().position(|(f, _)| *f == flow)?;
        Some(self.flows.remove(at).1)
    }

    fn on_net_timer(&mut self, pid: Pid) {
        self.procs[pid.0].net_timer_ev = None;
        let state = std::mem::replace(&mut self.procs[pid.0].state, ProcState::Start);
        match state {
            ProcState::NetAwaitTx(plan) => {
                let flow = self.link.start_flow(self.clock, plan.request_bytes.max(1));
                self.add_flow(
                    flow,
                    FlowCtx {
                        pid,
                        rx_bytes: 0,
                        started: self.clock,
                    },
                );
                self.procs[pid.0].flow = Some(flow);
                self.radio.begin_transfer();
                self.procs[pid.0].state = ProcState::NetTx(plan);
                self.relink();
            }
            ProcState::NetServerWait(plan) => {
                let flow = self.link.start_flow(self.clock, plan.reply_bytes.max(1));
                self.add_flow(
                    flow,
                    FlowCtx {
                        pid,
                        rx_bytes: plan.reply_bytes,
                        started: self.clock,
                    },
                );
                self.procs[pid.0].flow = Some(flow);
                self.radio.begin_transfer();
                self.procs[pid.0].state = ProcState::NetRx(plan);
                self.relink();
            }
            other => panic!("NetTimer in unexpected state {other:?}"),
        }
    }

    // ---- Fault handling ---------------------------------------------------

    /// Applies the link-fault timeline's capacity factor at the current
    /// instant and re-arms both the completion event (shares changed) and
    /// the next fault transition.
    fn on_link_fault(&mut self) {
        let f = self.link_faults.capacity_factor_at(self.clock);
        self.link.set_rate_factor(self.clock, f);
        self.relink();
        if let Some(t) = self.link_faults.next_capacity_transition_after(self.clock) {
            self.queue.push(t, Event::LinkFault);
        }
    }

    /// Aborts the RPC attempt in flight for `pid` and parks the process in
    /// backoff. Partial transfer progress is lost — the retry resends from
    /// scratch — and the radio window stays open throughout, so every
    /// retry costs real energy.
    fn on_rpc_timeout(&mut self, pid: Pid) {
        self.procs[pid.0].timeout_ev = None;
        let state = std::mem::replace(&mut self.procs[pid.0].state, ProcState::Start);
        let plan = match state {
            ProcState::NetAwaitTx(p) | ProcState::NetServerWait(p) => {
                // The attempt is still in a media-access wait; disarm it.
                if let Some(id) = self.procs[pid.0].net_timer_ev.take() {
                    self.queue.cancel(id);
                }
                p
            }
            ProcState::NetTx(p) | ProcState::NetRx(p) => {
                if let Some(flow) = self.procs[pid.0].flow.take() {
                    self.take_flow(flow);
                    self.link.cancel_flow(self.clock, flow);
                    self.relink();
                }
                self.radio.end_transfer();
                p
            }
            // The RPC completed at this very instant; nothing to abort.
            other => {
                self.procs[pid.0].state = other;
                return;
            }
        };
        self.rpc_timeouts += 1;
        self.trace_emit(TraceEvent::RpcTimeout {
            pid: pid.0 as u64,
            name: self.procs[pid.0].workload.name(),
            attempt: self.procs[pid.0].attempts as u64 + 1,
        });
        let backoff = RpcPolicy::backoff_after(self.procs[pid.0].attempts);
        self.procs[pid.0].state = ProcState::NetBackoff(plan);
        self.procs[pid.0].retry_ev =
            Some(self.queue.push(self.clock + backoff, Event::NetRetry(pid)));
    }

    fn on_net_retry(&mut self, pid: Pid) {
        self.procs[pid.0].retry_ev = None;
        let state = std::mem::replace(&mut self.procs[pid.0].state, ProcState::Start);
        let ProcState::NetBackoff(plan) = state else {
            // Stale retry after a suspend/restart cycle.
            self.procs[pid.0].state = state;
            return;
        };
        self.rpc_retries += 1;
        self.procs[pid.0].attempts += 1;
        self.trace_emit(TraceEvent::RpcRetry {
            pid: pid.0 as u64,
            name: self.procs[pid.0].workload.name(),
            attempt: self.procs[pid.0].attempts as u64 + 1,
        });
        self.begin_attempt(pid, plan);
    }

    fn on_link_wake(&mut self) {
        self.link_event = None;
        self.link.advance(self.clock);
        while let Some(flow) = self.link.take_completed() {
            #[expect(
                clippy::expect_used,
                reason = "every completed flow was registered by start_flow"
            )]
            let ctx = self.take_flow(flow).expect("completed unknown flow");
            let pid = ctx.pid;
            self.procs[pid.0].flow = None;
            if ctx.rx_bytes > 0 {
                let secs = self.clock.since(ctx.started).as_secs_f64();
                if secs > 0.0 {
                    self.procs[pid.0].last_transfer_bps = Some(ctx.rx_bytes as f64 * 8.0 / secs);
                }
            }
            self.radio.end_transfer();
            let state = std::mem::replace(&mut self.procs[pid.0].state, ProcState::Start);
            match state {
                ProcState::NetTx(plan) => {
                    self.procs[pid.0].state = ProcState::NetServerWait(plan);
                    let lat = RPC_LATENCY + self.link_faults.extra_latency_at(self.clock);
                    self.procs[pid.0].net_timer_ev = Some(
                        self.queue
                            .push(self.clock + plan.server_time + lat, Event::NetTimer(pid)),
                    );
                }
                ProcState::NetRx(_) => {
                    if let Some(id) = self.procs[pid.0].timeout_ev.take() {
                        self.queue.cancel(id);
                    }
                    self.procs[pid.0].attempts = 0;
                    self.radio.close_window();
                    self.schedule_poll(pid);
                }
                other => panic!("flow completion in unexpected state {other:?}"),
            }
        }
        self.relink();
    }

    // ---- Disk -------------------------------------------------------------

    fn on_disk_spinup(&mut self, pid: Pid) {
        self.disk.spinup_complete(self.clock);
        let ProcState::DiskSpinup { bytes } = self.procs[pid.0].state else {
            panic!("DiskSpinupDone in unexpected state");
        };
        let t = self.disk_transfer_time(bytes);
        self.procs[pid.0].state = ProcState::DiskBusy;
        self.queue.push(self.clock + t, Event::DiskDone(pid));
    }

    fn on_disk_done(&mut self, pid: Pid) {
        self.disk.end_access(self.clock);
        if let Some(dl) = self.disk.spin_down_deadline() {
            self.queue.push(dl, Event::SpinDownCheck);
        }
        self.schedule_poll(pid);
    }

    // ---- Hooks -------------------------------------------------------------

    fn on_hook_tick(&mut self, i: usize) {
        #[expect(
            clippy::expect_used,
            reason = "hooks are leased out one tick at a time; re-entry is a bug worth crashing on"
        )]
        let mut hook = self.hooks[i].hook.take().expect("hook re-entered");
        let now = self.clock;
        hook.on_tick(now, &mut MachineView { m: self });
        self.hooks[i].hook = Some(hook);
        if !self.stopped {
            let period = self.hooks[i].period;
            self.queue.push(now + period, Event::HookTick(i));
        }
    }

    // ---- Display dim tracking ------------------------------------------------

    /// Sets the dim flag, dropping the kept interval if it flips: the
    /// display state reads it.
    fn set_dim(&mut self, on: bool) {
        if self.dim_active != on {
            self.dim_active = on;
            self.interval = None;
        }
    }

    fn is_quiet(&self) -> bool {
        if self.current.is_some() || !self.x_queue.is_empty() || self.link.active_count() > 0 {
            return false;
        }
        self.procs.iter().all(|p| {
            matches!(
                p.state,
                ProcState::Waiting | ProcState::Done | ProcState::Suspended
            )
        })
    }

    fn update_quiet_tracking(&mut self) {
        if !self.cfg.pm.enabled {
            return;
        }
        let quiet = self.is_quiet();
        match (quiet, self.quiet_since) {
            (true, None) => {
                self.quiet_since = Some(self.clock);
                let at = self.clock + PmPolicy::DISPLAY_DIM_AFTER;
                self.dim_event = Some(self.queue.push(at, Event::DimCheck));
            }
            (false, Some(_)) => {
                self.quiet_since = None;
                self.set_dim(false);
                if let Some(id) = self.dim_event.take() {
                    self.queue.cancel(id);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointHook;
    use crate::workload::ScriptedWorkload;
    use netsim::RpcSpec;
    use simcore::snapshot::reseal;
    use simcore::RunJournal;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn idle_machine(pm: PmPolicy) -> Machine {
        Machine::new(MachineConfig {
            pm,
            ..Default::default()
        })
    }

    /// A rig that keeps events, flows, a disk read, and a hook in flight
    /// across the freeze instant.
    fn snapshot_rig() -> (Machine, Rc<RefCell<RunJournal>>) {
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "mix",
            vec![
                Activity::Cpu {
                    duration: SimDuration::from_secs(3),
                    intensity: 0.8,
                    procedure: "warm",
                },
                Activity::Rpc {
                    spec: RpcSpec {
                        request_bytes: 10_000,
                        reply_bytes: 200_000,
                        server_time: SimDuration::from_millis(300),
                    },
                    procedure: "fetch",
                },
                Activity::DiskRead {
                    bytes: 4 << 20,
                    procedure: "load",
                },
                Activity::Wait {
                    until: SimTime::from_secs(40),
                },
                Activity::Cpu {
                    duration: SimDuration::from_secs(2),
                    intensity: 1.0,
                    procedure: "finish",
                },
            ],
        )));
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "bg",
            SimDuration::from_secs(80),
        )));
        let journal = Rc::new(RefCell::new(RunJournal::new(SimDuration::from_secs(10))));
        m.add_hook(
            SimDuration::from_secs(10),
            Box::new(CheckpointHook::new(journal.clone())),
        );
        (m, journal)
    }

    /// Freeze at an arbitrary mid-run instant, thaw onto an identically
    /// built rig, and continue: the restored machine's present and future
    /// are bit-identical to a run that paused at the same instant.
    ///
    /// Both runs stop at the freeze boundary: energy integration splits an
    /// interval there, and f64 accumulation is not associative, so digest
    /// equivalence is defined over runs with identical horizon stops (the
    /// serving layer always steps at sample boundaries on both paths).
    #[test]
    fn freeze_thaw_round_trip_preserves_future() {
        let (mut base, base_journal) = snapshot_rig();
        let _ = base.run_until(SimTime::from_secs(7));
        let base_report = base.run_until(SimTime::from_secs(90));
        let want = base.state_digest();

        let (mut m, _journal) = snapshot_rig();
        let _ = m.run_until(SimTime::from_secs(7));
        let mut w = simcore::SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let bytes = w.seal();
        let mid = m.state_digest();

        let (mut restored, restored_journal) = snapshot_rig();
        let names = restored.names().clone();
        let mut r = simcore::SnapshotReader::open(&bytes)
            .expect("open")
            .with_names(&names);
        restored.thaw(&mut r).expect("thaw");
        r.finish().expect("payload fully consumed");
        assert_eq!(restored.state_digest(), mid, "state restored exactly");

        let restored_report = restored.run_until(SimTime::from_secs(90));
        assert_eq!(restored.state_digest(), want, "future identical");
        assert_eq!(
            restored_journal.borrow_mut().drain(),
            base_journal.borrow_mut().drain(),
            "checkpoint hook state carried through the snapshot"
        );
        assert!(
            (restored_report.total_j - base_report.total_j).abs() < Joules(1e-9),
            "ledger carried through the snapshot: {} vs {}",
            restored_report.total_j,
            base_report.total_j
        );
    }

    /// The report-free advance is the same event loop as `run_until`: a
    /// rig stepped with `drive_until` at every instant of a sample
    /// schedule ends in the same state, with the same final report, as its
    /// twin stepped with `run_until` — on a rig that runs throughout and
    /// on one whose battery dies mid-schedule.
    #[test]
    fn drive_until_matches_run_until_step_for_step() {
        fn dying_rig() -> Machine {
            let mut m = Machine::new(MachineConfig {
                pm: PmPolicy::disabled(),
                source: EnergySource::battery(Joules(102.8)), // 10 s of idle.
                ..Default::default()
            });
            m.add_process(Box::new(ScriptedWorkload::new(
                "idler",
                vec![Activity::Wait {
                    until: SimTime::from_secs(100),
                }],
            )));
            m
        }
        let rigs: [fn() -> Machine; 2] = [|| snapshot_rig().0, dying_rig];
        for build in rigs {
            let (mut driven, mut reported) = (build(), build());
            let mut stops = 0;
            for step in 1..=60u64 {
                let at = SimTime::from_micros(step * 1_337_000);
                let reached = driven.drive_until(at);
                assert_eq!(reached, reported.run_until(at).end, "clock at {at:?}");
                stops += usize::from(reached < at);
            }
            let horizon = SimTime::from_secs(90);
            let (a, b) = (driven.run_until(horizon), reported.run_until(horizon));
            assert_eq!(driven.state_digest(), reported.state_digest());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(
                stops > 0,
                a.exhausted,
                "early stops only when the supply died"
            );
        }
    }

    /// A freeze taken while observers are attached is refused (the caller
    /// falls back to replay), and corrupted payload interiors surface as
    /// errors rather than panics.
    #[test]
    fn freeze_refuses_observers_and_thaw_rejects_bad_interiors() {
        let (mut m, _j) = snapshot_rig();
        let _ = m.run_until(SimTime::from_secs(7));
        let mut w = simcore::SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let payload_len = w.len();
        let bytes = w.seal();

        // Flip one byte in every interior position: thaw must never panic,
        // and must either fail or produce a digest mismatch the caller
        // detects. (The envelope checksum catches all of these;
        // `resealed_out_of_range_intensity_is_corrupt` reseals one.)
        let header = bytes.len() - payload_len - 8;
        for i in (header..header + payload_len).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                simcore::SnapshotReader::open(&bad).is_err(),
                "checksum must catch interior flip at {i}"
            );
        }

        let (mut observed, _j2) = snapshot_rig();
        observed.add_observer(Box::new(crate::observer::EnergyProbe::new()));
        let mut w2 = simcore::SnapshotWriter::new();
        assert!(matches!(
            observed.freeze(&mut w2),
            Err(simcore::SnapshotError::Unsupported(_))
        ));
    }

    /// A checksum-valid snapshot whose pending CPU activity claims an
    /// intensity of 7 is refused on thaw instead of panicking in the CPU
    /// power model on the next run.
    #[test]
    fn resealed_out_of_range_intensity_is_corrupt() {
        let rig = || {
            let mut m = idle_machine(PmPolicy::enabled());
            m.add_process(Box::new(ScriptedWorkload::new(
                "w",
                vec![
                    Activity::wait_for(SimTime::ZERO, SimDuration::from_secs(5)),
                    Activity::Cpu {
                        duration: SimDuration::from_secs(1),
                        intensity: 0.25,
                        procedure: "spin",
                    },
                ],
            )));
            m
        };
        let mut m = rig();
        let _ = m.run_until(SimTime::from_secs(1));
        let mut w = simcore::SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let mut bytes = w.seal();
        let (header, checksum) = (20, bytes.len() - 8);
        let at: Vec<usize> = (header..checksum)
            .filter(|&i| bytes[i..i + 8] == 0.25f64.to_le_bytes())
            .collect();
        assert_eq!(at.len(), 1, "one pending intensity word");
        bytes[at[0]..at[0] + 8].copy_from_slice(&7.0f64.to_le_bytes());
        reseal(&mut bytes);

        let mut fresh = rig();
        let names = fresh.names().clone();
        let mut r = simcore::SnapshotReader::open(&bytes)
            .expect("resealed envelope opens")
            .with_names(&names);
        assert_eq!(
            fresh.thaw(&mut r),
            Err(SnapshotError::Corrupt("cpu job intensity"))
        );
    }

    /// A checksum-valid snapshot whose lone CPU run is inconsistent is
    /// refused on thaw instead of panicking later in the event loop: a
    /// quantum end before the restored clock, an order mark beyond the
    /// queue's next sequence number, and a lone run whose "runner" waits
    /// on a timer.
    #[test]
    fn resealed_lone_quantum_before_the_clock_is_corrupt() {
        let rig = || {
            let mut m = idle_machine(PmPolicy::enabled());
            m.add_process(Box::new(ScriptedWorkload::new(
                "spin",
                vec![Activity::Cpu {
                    duration: SimDuration::from_secs(5),
                    intensity: 0.5,
                    procedure: "spin",
                }],
            )));
            m.add_process(Box::new(ScriptedWorkload::idle_for(
                "idler",
                SimDuration::from_secs(9),
            )));
            m
        };
        let clock = SimTime::from_micros(1_234_567);
        let mut m = rig();
        let _ = m.run_until(clock);
        let Some((end, mark)) = m.lone else {
            panic!("the spinner runs alone");
        };
        assert_eq!(end, SimTime::from_micros(1_240_000));
        let mut w = simcore::SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let bytes = w.seal();
        let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let patched = |from: &[u64], to: &[u64]| {
            let (from, to) = (words(from), words(to));
            let mut bytes = bytes.clone();
            let at: Vec<usize> = (20..bytes.len() - 8 - from.len())
                .filter(|&i| bytes[i..i + from.len()] == from)
                .collect();
            assert_eq!(at.len(), 1, "one match for {from:?}");
            bytes[at[0]..at[0] + to.len()].copy_from_slice(&to);
            reseal(&mut bytes);
            let mut fresh = rig();
            let names = fresh.names().clone();
            let mut r = simcore::SnapshotReader::open(&bytes)
                .expect("resealed envelope opens")
                .with_names(&names);
            fresh.thaw(&mut r)
        };
        // `current` is Some((Proc(0), one quantum)), then `lone` is
        // Some((end, mark)).
        let lone = [1, 0, 0, 10_000, 1, end.as_micros(), mark.raw()];
        assert_eq!(
            patched(&lone, &lone),
            Ok(()),
            "the unpatched snapshot thaws"
        );
        let before = [1, clock.as_micros() - 1];
        assert_eq!(
            patched(&lone[4..6], &before),
            Err(SnapshotError::Corrupt("lone quantum ends before the clock"))
        );
        let beyond = [end.as_micros(), u64::MAX - 1];
        assert_eq!(
            patched(&lone[5..], &beyond),
            Err(SnapshotError::Corrupt("order mark beyond next_seq"))
        );
        assert_eq!(
            patched(&lone[..4], &[1, 0, 1, 10_000]),
            Err(SnapshotError::Corrupt("lone quantum without a runner"))
        );
    }

    /// A hook that stops the run at a lone quantum's end stops it before
    /// the quantum settles, as it would stop it before the quantum's own
    /// event: the machine freezes with the quantum ending at its clock,
    /// and thaws to the same state.
    #[test]
    fn a_run_stopped_at_a_quantum_end_thaws() {
        struct StopAt(SimTime);
        impl ControlHook for StopAt {
            fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
                if now == self.0 {
                    view.request_stop();
                }
            }
            fn freeze(&self, _: &mut simcore::SnapshotWriter) -> Result<(), SnapshotError> {
                Ok(())
            }
            fn thaw(&mut self, _: &mut simcore::SnapshotReader<'_>) -> Result<(), SnapshotError> {
                Ok(())
            }
        }
        let stop = SimTime::from_micros(200_000);
        let rig = || {
            let mut m = idle_machine(PmPolicy::enabled());
            m.add_process(Box::new(ScriptedWorkload::new(
                "spin",
                vec![Activity::Cpu {
                    duration: SimDuration::from_secs(1),
                    intensity: 0.5,
                    procedure: "spin",
                }],
            )));
            m.add_hook(SimDuration::from_millis(100), Box::new(StopAt(stop)));
            m
        };
        let mut m = rig();
        let _ = m.run_until(SimTime::from_secs(1));
        assert_eq!(m.clock, stop);
        assert!(
            matches!(m.lone, Some((end, _)) if end == stop),
            "{:?}",
            m.lone
        );
        let mut w = simcore::SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let bytes = w.seal();
        let mut fresh = rig();
        let names = fresh.names().clone();
        let mut r = simcore::SnapshotReader::open(&bytes)
            .expect("open")
            .with_names(&names);
        fresh.thaw(&mut r).expect("thaw");
        assert_eq!(fresh.state_digest(), m.state_digest());
        assert_eq!(fresh.lone, m.lone);
    }

    /// A checksum-valid snapshot whose link was advanced past the
    /// restored clock is refused on thaw instead of panicking in
    /// `SimTime::since` at the next link advance.
    #[test]
    fn resealed_link_advance_after_the_clock_is_corrupt() {
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(5),
        )));
        let _ = m.run_until(SimTime::from_secs(1));
        let mut w = simcore::SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let mut bytes = w.seal();
        // A healthy idle link: rate factor 1.0, no flows, nothing
        // completed, then the instant of its last advance.
        let (header, checksum) = (20, bytes.len() - 8);
        let mut idle_link = 1.0f64.to_le_bytes().to_vec();
        idle_link.extend_from_slice(&[0; 16]);
        let at: Vec<usize> = (header..checksum - idle_link.len())
            .filter(|&i| bytes[i..i + idle_link.len()] == idle_link[..])
            .map(|i| i + idle_link.len())
            .collect();
        assert_eq!(at.len(), 1, "one idle link");
        let late = SimTime::from_secs(2).as_micros();
        bytes[at[0]..at[0] + 8].copy_from_slice(&late.to_le_bytes());
        reseal(&mut bytes);

        let mut fresh = idle_machine(PmPolicy::enabled());
        fresh.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(5),
        )));
        let names = fresh.names().clone();
        let mut r = simcore::SnapshotReader::open(&bytes)
            .expect("resealed envelope opens")
            .with_names(&names);
        assert_eq!(
            fresh.thaw(&mut r),
            Err(SnapshotError::Corrupt("link advanced past clock"))
        );
    }

    /// A checksum-valid snapshot whose processes and flows disagree (a
    /// process moving bytes with no flow, or a flow whose process is not
    /// moving bytes) is refused on thaw instead of panicking at the next
    /// `end_transfer`.
    #[test]
    fn resealed_transfers_without_their_flows_are_corrupt() {
        const REQUEST: u64 = 10_000;
        const REPLY: u64 = 1_000_000;
        let rig = || {
            let mut m = idle_machine(PmPolicy::enabled());
            m.add_process(Box::new(ScriptedWorkload::new(
                "rpc",
                vec![Activity::Rpc {
                    spec: RpcSpec {
                        request_bytes: REQUEST,
                        reply_bytes: REPLY,
                        server_time: SimDuration::from_secs(5),
                    },
                    procedure: "fetch",
                }],
            )));
            m
        };
        // At 1 s the server is working (no flow); at 7 s the reply is
        // arriving (one flow). Each state is rewritten to the other.
        for (secs, from, to, flows) in [(1, 4u64, 3u64, 0), (7, 5, 4, 1)] {
            let mut m = rig();
            let _ = m.run_until(SimTime::from_secs(secs));
            assert_eq!(m.flows.len(), flows, "flows at {secs} s");
            let mut w = simcore::SnapshotWriter::new();
            m.freeze(&mut w).expect("freeze");
            let mut bytes = w.seal();
            // The process's state tag, then its plan's byte counts.
            let state: Vec<u8> = [from, REQUEST, REPLY]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let at: Vec<usize> = (20..bytes.len() - 8 - state.len())
                .filter(|&i| bytes[i..i + state.len()] == state[..])
                .collect();
            assert_eq!(at.len(), 1, "one RPC in state {from} at {secs} s");
            bytes[at[0]..at[0] + 8].copy_from_slice(&to.to_le_bytes());
            reseal(&mut bytes);

            let mut fresh = rig();
            let names = fresh.names().clone();
            let mut r = simcore::SnapshotReader::open(&bytes)
                .expect("resealed envelope opens")
                .with_names(&names);
            assert_eq!(
                fresh.thaw(&mut r),
                Err(SnapshotError::Corrupt("transfers without their flows")),
                "state {from} rewritten to {to} at {secs} s"
            );
        }
    }

    /// A snapshot whose flows are out of `FlowId` order, or name one id
    /// twice, is refused on thaw: the flow list must stay sorted for
    /// lookups, and the snapshot bytes must stay canonical.
    #[test]
    fn unsorted_or_duplicate_flow_ids_are_corrupt() {
        let mut m = idle_machine(PmPolicy::enabled());
        let _ = m.run_until(SimTime::from_secs(1));
        let (a, b) = (m.link.start_flow(m.clock, 1), m.link.start_flow(m.clock, 1));
        let ctx = FlowCtx {
            pid: Pid(0),
            rx_bytes: 0,
            started: m.clock,
        };
        for flows in [vec![(b, ctx), (a, ctx)], vec![(a, ctx), (a, ctx)]] {
            m.flows = flows;
            let mut w = simcore::SnapshotWriter::new();
            m.freeze(&mut w).expect("freeze");
            let bytes = w.seal();
            let mut fresh = idle_machine(PmPolicy::enabled());
            let names = fresh.names().clone();
            let mut r = simcore::SnapshotReader::open(&bytes)
                .expect("open")
                .with_names(&names);
            assert_eq!(
                fresh.thaw(&mut r),
                Err(SnapshotError::Corrupt("flow ids out of order"))
            );
        }
    }

    /// The generic codec property test over the machine's own impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use simcore::snapshot::{check_codec, check_codec_in};
        let names = Names::new(["decode", "janus", "a", "b", "c", "d", "e", "proxy"]);
        let job = CpuJob {
            remaining: SimDuration::from_millis(7),
            intensity: 0.5,
            procedure: "decode",
            bucket: Some("janus"),
        };
        let plan = RpcPlan {
            request_bytes: 1,
            reply_bytes: 2,
            server_time: SimDuration::from_millis(3),
            is_bulk: true,
        };
        check_codec_in(
            &CpuJob {
                bucket: None,
                ..job
            },
            &names,
        );
        for state in [
            ProcState::Start,
            ProcState::ReadyCpu(job),
            ProcState::NetAwaitTx(plan),
            ProcState::NetTx(plan),
            ProcState::NetServerWait(plan),
            ProcState::NetRx(plan),
            ProcState::NetBackoff(plan),
            ProcState::DiskSpinup { bytes: 9 },
            ProcState::DiskBusy,
            ProcState::Waiting,
            ProcState::Suspended,
            ProcState::Done,
        ] {
            check_codec_in(&state, &names);
        }
        check_codec(&Some((Source::Proc(Pid(2)), SimDuration::from_millis(10))));
        check_codec(&Some((
            SimTime::from_secs(1),
            EventQueue::<Event>::new().mark(),
        )));
        check_codec(&VecDeque::from([Source::XServer]));
        let p = Pid(1);
        check_codec(&vec![
            Event::Poll(p),
            Event::CpuDone,
            Event::LinkWake,
            Event::NetTimer(p),
            Event::Timer(p),
            Event::DiskSpinupDone(p),
            Event::DiskDone(p),
            Event::SpinDownCheck,
            Event::DimCheck,
            Event::HookTick(3),
            Event::LinkFault,
            Event::RpcTimeout(p),
            Event::NetRetry(p),
        ]);
        check_codec(&FlowCtx {
            pid: p,
            rx_bytes: 5,
            started: SimTime::from_secs(2),
        });
        let spec = RpcSpec::control(SimDuration::from_millis(20));
        for activity in [
            Activity::Cpu {
                duration: SimDuration::from_secs(1),
                intensity: 1.0,
                procedure: "a",
            },
            Activity::CpuAs {
                bucket: "proxy",
                duration: SimDuration::from_secs(1),
                intensity: 0.0,
                procedure: "b",
            },
            Activity::XRender {
                cost: SimDuration::from_millis(4),
            },
            Activity::Rpc {
                spec,
                procedure: "c",
            },
            Activity::BulkFetch {
                bytes: 6,
                procedure: "d",
            },
            Activity::DiskRead {
                bytes: 7,
                procedure: "e",
            },
            Activity::wait_for(SimTime::ZERO, SimDuration::from_secs(8)),
        ] {
            check_codec_in(&activity, &names);
        }
    }

    /// A 10-second empty run with PM disabled must cost exactly the
    /// full-on idle power (display bright, disk and radio idle): 102.8 J.
    #[test]
    fn idle_baseline_power_is_full_on() {
        let mut m = idle_machine(PmPolicy::disabled());
        let report = m.run_until(SimTime::from_secs(10));
        assert!(
            (report.total_j - Joules(102.8)).abs() < Joules(0.1),
            "got {} J",
            report.total_j
        );
        assert_eq!(report.bucket_j(BUCKET_IDLE), report.total_j);
    }

    /// With PM enabled and no workloads, devices sleep and the display is
    /// off (no demand): ≈ 3.47 W.
    #[test]
    fn idle_pm_power_is_all_off() {
        let mut m = idle_machine(PmPolicy::enabled());
        let report = m.run_until(SimTime::from_secs(100));
        let avg = report.total_j.0 / 100.0;
        // Display off (no demand), disk and radio in standby: ≈ 3.47 W.
        assert!((3.4..=3.6).contains(&avg), "avg power {avg}");
    }

    /// A single CPU burst: duration is respected and energy is attributed
    /// to the process.
    #[test]
    fn cpu_burst_accounting() {
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "burner",
            vec![Activity::Cpu {
                duration: SimDuration::from_secs(5),
                intensity: 1.0,
                procedure: "spin",
            }],
        )));
        let report = m.run();
        assert!(
            (report.duration_s() - 5.0).abs() < 0.01,
            "end {}",
            report.end
        );
        // Full-on idle 10.28 W + 9.5 W CPU + superlinearity on the CPU.
        let expected_power = 10.28 + 9.5 * (1.0 + 0.0299);
        assert!(
            (report.total_j - Joules(expected_power * 5.0)).abs() < Joules(0.5),
            "total {} vs expected {}",
            report.total_j,
            expected_power * 5.0
        );
        let burner = report.bucket_j("burner");
        assert!(
            (burner - report.total_j).abs() < Joules(1e-6),
            "all energy attributed to the running process"
        );
        assert_eq!(report.detail[0].process, "burner");
        assert_eq!(report.detail[0].procedure, "spin");
        assert!((report.detail[0].cpu_secs - 5.0).abs() < 0.01);
    }

    /// Two equal CPU-bound processes share the CPU round-robin: both
    /// finish at ~2x their solo time, and split the energy evenly.
    #[test]
    fn round_robin_sharing() {
        let mut m = idle_machine(PmPolicy::disabled());
        for name in ["a", "b"] {
            m.add_process(Box::new(ScriptedWorkload::new(
                name,
                vec![Activity::Cpu {
                    duration: SimDuration::from_secs(2),
                    intensity: 1.0,
                    procedure: "spin",
                }],
            )));
        }
        let report = m.run();
        assert!((report.duration_s() - 4.0).abs() < 0.05);
        let a = report.bucket_j("a");
        let b = report.bucket_j("b");
        assert!((a - b).abs() < Joules(0.5), "a={a} b={b}");
    }

    /// An RPC blocks the caller for at least the physical minimum and the
    /// radio sleeps before/after under PM.
    #[test]
    fn rpc_timing_and_radio_windows() {
        let spec = RpcSpec {
            request_bytes: 25_000,
            reply_bytes: 250_000,
            server_time: SimDuration::from_millis(500),
        };
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(
            ScriptedWorkload::new(
                "client",
                vec![Activity::Rpc {
                    spec,
                    procedure: "fetch",
                }],
            )
            .with_display(DisplayState::Off),
        ));
        let report = m.run();
        let min = spec
            .min_duration(WAVELAN_CAPACITY_BPS, RPC_LATENCY)
            .as_secs_f64();
        assert!(
            report.duration_s() >= min - 1e-6,
            "RPC faster than physics: {} < {min}",
            report.duration_s()
        );
        assert!(report.duration_s() < min + 0.1);
        // Energy was attributed to WaveLAN interrupts and Odyssey during
        // the transfer phases.
        assert!(report.bucket_j(BUCKET_WAVELAN) > Joules(0.0));
        assert!(report.bucket_j(BUCKET_ODYSSEY) > Joules(0.0));
    }

    /// A bulk fetch takes bytes/bandwidth and drives radio-active power.
    #[test]
    fn bulk_fetch_duration() {
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "dl",
            vec![Activity::BulkFetch {
                bytes: 500_000, // 2 s at 2 Mb/s.
                procedure: "fetch",
            }],
        )));
        let report = m.run();
        assert!(
            (report.duration_s() - 2.0).abs() < 0.05,
            "{}",
            report.duration_s()
        );
        assert_eq!(report.bytes_carried, 500_000);
    }

    /// Wait (think time) is attributed to Idle.
    #[test]
    fn think_time_is_idle() {
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "thinker",
            vec![Activity::Wait {
                until: SimTime::from_secs(5),
            }],
        )));
        let report = m.run();
        assert!((report.bucket_j(BUCKET_IDLE) - report.total_j).abs() < Joules(1e-9));
    }

    /// Under PM, a long think period dims the display after the timeout.
    #[test]
    fn display_dims_after_inactivity() {
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "reader",
            vec![Activity::Wait {
                until: SimTime::from_secs(30),
            }],
        )));
        let report = m.run();
        // 10 s bright (4.54 W) then 20 s dim (2.066 W) on the display.
        let expected_display = 10.0 * 4.54 + 20.0 * 2.066;
        assert!(
            (report.components.display_j - Joules(expected_display)).abs() < Joules(0.5),
            "display {} vs {}",
            report.components.display_j,
            expected_display
        );
    }

    /// Without PM the display never dims.
    #[test]
    fn display_never_dims_at_baseline() {
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "reader",
            vec![Activity::Wait {
                until: SimTime::from_secs(30),
            }],
        )));
        let report = m.run();
        assert!((report.components.display_j - Joules(30.0 * 4.54)).abs() < Joules(0.01));
    }

    /// Disk reads spin the disk up from standby and back down after the
    /// spin-down timeout.
    #[test]
    fn disk_spin_cycle() {
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(
            ScriptedWorkload::new(
                "dbuser",
                vec![
                    Activity::Wait {
                        until: SimTime::from_secs(20),
                    },
                    Activity::DiskRead {
                        bytes: 3_000_000, // 1 s at 3 MB/s.
                        procedure: "read_model",
                    },
                    Activity::Wait {
                        until: SimTime::from_secs(60),
                    },
                ],
            )
            .with_display(DisplayState::Off),
        ));
        let report = m.run();
        // Timeline: standby 0-20 (the PM disk starts spun down), spin-up
        // 20-21.5, active 21.5-22.5, idle 22.5-32.5, standby 32.5-60.
        let d = report.components.disk_j;
        let expected = 20.0 * 0.24 + 1.5 * 3.0 + 1.0 * 2.25 + 10.0 * 0.95 + 27.5 * 0.24;
        assert!(
            (d - Joules(expected)).abs() < Joules(1.0),
            "disk energy {d} vs expected {expected}"
        );
        assert!((report.duration_s() - 60.0).abs() < 0.01);
    }

    /// XRender work is attributed to the X Server bucket and does not
    /// block the submitting process.
    #[test]
    fn x_server_accounting() {
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "app",
            vec![
                Activity::XRender {
                    cost: SimDuration::from_secs(1),
                },
                Activity::Wait {
                    until: SimTime::from_secs(4),
                },
            ],
        )));
        let report = m.run();
        assert!((report.duration_s() - 4.0).abs() < 0.01);
        assert!(report.bucket_j(BUCKET_X) > Joules(0.0));
        let x_detail = report
            .detail
            .iter()
            .find(|d| d.process == BUCKET_X)
            .unwrap();
        assert!((x_detail.cpu_secs - 1.0).abs() < 0.02);
    }

    /// A finite battery stops the run at the exhaustion instant.
    #[test]
    fn battery_exhaustion_stops_run() {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::disabled(),
            source: EnergySource::battery(Joules(102.8)), // exactly 10 s of idle.
            ..Default::default()
        });
        m.add_process(Box::new(ScriptedWorkload::new(
            "idler",
            vec![Activity::Wait {
                until: SimTime::from_secs(100),
            }],
        )));
        let report = m.run();
        assert!(report.exhausted);
        assert!(
            (report.duration_s() - 10.0).abs() < 0.05,
            "died at {}",
            report.duration_s()
        );
        // Exhaustion time is rounded to the microsecond grid, so a few
        // µJ may remain.
        assert!(report.residual_j.abs() < Joules(1e-3));
    }

    /// Hooks fire on their period and can stop the run.
    #[test]
    fn hook_ticks_and_stop() {
        struct Stopper {
            ticks: usize,
        }
        impl ControlHook for Stopper {
            fn on_tick(&mut self, _now: SimTime, view: &mut MachineView<'_>) {
                self.ticks += 1;
                if self.ticks == 5 {
                    view.request_stop();
                }
            }
        }
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_hook(SimDuration::from_secs(1), Box::new(Stopper { ticks: 0 }));
        let report = m.run_until(SimTime::from_secs(100));
        assert!((report.duration_s() - 5.0).abs() < 1e-6);
    }

    /// Upcalls reach the workload and fidelity changes are recorded.
    #[test]
    fn upcall_changes_are_recorded() {
        struct Adaptive {
            level: usize,
            until: SimTime,
        }
        impl Workload for Adaptive {
            fn name(&self) -> &'static str {
                "adaptive"
            }
            fn names(&self) -> Vec<&'static str> {
                Vec::new()
            }
            fn poll(&mut self, now: SimTime) -> Step {
                if now >= self.until {
                    Step::Done
                } else {
                    Step::Run(Activity::Wait { until: self.until })
                }
            }
            fn fidelity(&self) -> FidelityView {
                FidelityView::new(self.level, 3)
            }
            fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
                match dir {
                    AdaptDirection::Degrade if self.level > 0 => {
                        self.level -= 1;
                        true
                    }
                    AdaptDirection::Upgrade if self.level < 2 => {
                        self.level += 1;
                        true
                    }
                    _ => false,
                }
            }
        }
        struct Degrader;
        impl ControlHook for Degrader {
            fn on_tick(&mut self, _now: SimTime, view: &mut MachineView<'_>) {
                // Lookups name their own pid and end with the table.
                let p = view.process(0).expect("one process");
                assert_eq!(p.pid.index(), 0);
                assert!(view.process(1).is_none());
                if p.fidelity.can_degrade() {
                    view.upcall(p.pid, AdaptDirection::Degrade);
                }
            }
        }
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_process(Box::new(Adaptive {
            level: 2,
            until: SimTime::from_secs(10),
        }));
        m.add_hook(SimDuration::from_secs(2), Box::new(Degrader));
        let report = m.run();
        assert_eq!(report.adaptations_of("adaptive"), 2);
        let series = &report.fidelity[0];
        assert_eq!(series.value_at(SimTime::from_secs(1)), Some(2.0));
        assert_eq!(series.value_at(SimTime::from_secs(9)), Some(0.0));
    }

    /// Observer totals agree with the ledger exactly.
    #[test]
    fn observer_conservation() {
        use crate::observer::EnergyProbe;
        // EnergyProbe asserts interval sanity internally; share totals and
        // energy must match the report.
        struct Probe(std::rc::Rc<std::cell::RefCell<EnergyProbe>>);
        impl IntervalObserver for Probe {
            fn on_interval(&mut self, rec: &IntervalRecord<'_>) {
                self.0.borrow_mut().on_interval(rec);
            }
        }
        let shared = std::rc::Rc::new(std::cell::RefCell::new(EnergyProbe::new()));
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_observer(Box::new(Probe(shared.clone())));
        m.add_process(Box::new(ScriptedWorkload::new(
            "mixed",
            vec![
                Activity::Cpu {
                    duration: SimDuration::from_millis(500),
                    intensity: 0.7,
                    procedure: "work",
                },
                Activity::BulkFetch {
                    bytes: 100_000,
                    procedure: "fetch",
                },
                Activity::Wait {
                    until: SimTime::from_secs(3),
                },
            ],
        )));
        let report = m.run();
        let observed = shared.borrow().total_j();
        assert!(
            (observed - report.total_j).abs() < Joules(1e-9),
            "observer {observed} vs ledger {}",
            report.total_j
        );
    }

    /// Bucket energies always sum to the total.
    #[test]
    fn buckets_sum_to_total() {
        let mut m = idle_machine(PmPolicy::enabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "w",
            vec![
                Activity::Cpu {
                    duration: SimDuration::from_millis(300),
                    intensity: 1.0,
                    procedure: "a",
                },
                Activity::BulkFetch {
                    bytes: 50_000,
                    procedure: "b",
                },
                Activity::XRender {
                    cost: SimDuration::from_millis(100),
                },
                Activity::Wait {
                    until: SimTime::from_secs(2),
                },
            ],
        )));
        let report = m.run();
        let sum: Joules = report.buckets.iter().map(|(_, e)| e).sum();
        assert!((sum - report.total_j).abs() < Joules(1e-6));
        let comp = report.components.total_j();
        assert!((comp - report.total_j).abs() < Joules(1e-6));
    }

    /// run_until integrates the tail even with no events pending.
    #[test]
    fn run_until_covers_tail() {
        let mut m = idle_machine(PmPolicy::disabled());
        m.add_process(Box::new(ScriptedWorkload::new(
            "quick",
            vec![Activity::Cpu {
                duration: SimDuration::from_millis(100),
                intensity: 1.0,
                procedure: "x",
            }],
        )));
        let report = m.run_until(SimTime::from_secs(10));
        assert!((report.duration_s() - 10.0).abs() < 1e-6);
    }

    /// Monitoring overhead is booked as base power.
    #[test]
    fn monitor_overhead_is_accounted() {
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::disabled(),
            monitor_overhead_w: Watts(0.014),
            ..Default::default()
        });
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(100),
        )));
        let report = m.run();
        // 100 s of full-on idle plus 1.4 J of monitoring.
        assert!(
            (report.total_j - Joules(1028.0 + 1.4)).abs() < Joules(0.5),
            "total {}",
            report.total_j
        );
    }

    /// Under heavy outages the retry policy aborts and reissues RPCs; the
    /// workload still completes, and the retries cost real energy.
    #[test]
    fn rpc_retries_survive_outages_and_cost_energy() {
        use crate::faults::{FaultConfig, RpcPolicy};
        use hw560x::BatteryGauge;
        use netsim::LinkFaultPlan;
        use simcore::FaultPlan;

        let fetch = || {
            Box::new(
                ScriptedWorkload::new(
                    "dl",
                    vec![Activity::BulkFetch {
                        bytes: 250_000, // 1 s at 2 Mb/s when clean.
                        procedure: "fetch",
                    }],
                )
                .with_display(DisplayState::Off),
            )
        };
        let clean_j = {
            let mut m = idle_machine(PmPolicy::enabled());
            m.add_process(fetch());
            m.run().total_j
        };
        let mut saw_timeout = false;
        for seed in 0..12 {
            let faults = FaultConfig {
                seed,
                horizon: SimTime::from_secs(600),
                link: LinkFaultPlan {
                    // Outage-dominated link: ~5 s outages every ~3 s quiet.
                    outage: Some(FaultPlan::new(
                        SimDuration::from_secs(3),
                        SimDuration::from_secs(5),
                    )),
                    dip: None,
                    latency: None,
                },
                rpc: Some(RpcPolicy::standard()),
                gauge: BatteryGauge::ideal(),
            };
            let mut m = Machine::new(MachineConfig {
                faults,
                ..Default::default()
            });
            m.add_process(fetch());
            let report = m.run();
            assert_eq!(report.rpc_retries, report.rpc_timeouts);
            if report.rpc_timeouts > 0 {
                saw_timeout = true;
                assert!(
                    report.total_j > clean_j,
                    "retries must cost energy: {} vs clean {clean_j}",
                    report.total_j
                );
                assert!(report.duration_s() > 1.0);
            }
        }
        assert!(saw_timeout, "no seed in 0..12 produced a timeout");
    }

    /// The controller sees the gauge's lie; the report keeps ground truth.
    #[test]
    fn gauge_distorts_controller_view_only() {
        use crate::faults::FaultConfig;
        use hw560x::BatteryGauge;

        struct Reader {
            gauged: f64,
            truth: f64,
        }
        impl ControlHook for Reader {
            fn on_tick(&mut self, _now: SimTime, view: &mut MachineView<'_>) {
                self.gauged = view.residual_j().0;
                self.truth = view.true_residual_j().0;
                view.request_stop();
            }
        }
        let shared = std::rc::Rc::new(std::cell::RefCell::new(Reader {
            gauged: 0.0,
            truth: 0.0,
        }));
        struct Probe(std::rc::Rc<std::cell::RefCell<Reader>>);
        impl ControlHook for Probe {
            fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
                self.0.borrow_mut().on_tick(now, view);
            }
        }
        let mut m = Machine::new(MachineConfig {
            pm: PmPolicy::disabled(),
            source: EnergySource::battery(Joules(10_000.0)),
            faults: FaultConfig {
                gauge: BatteryGauge::hostile(3, 1.0),
                ..FaultConfig::clean()
            },
            ..Default::default()
        });
        m.add_hook(SimDuration::from_secs(60), Box::new(Probe(shared.clone())));
        let _ = m.run_until(SimTime::from_secs(600));
        let r = shared.borrow();
        // 60 s of full-on idle (10.28 W) leaves ~9383 J; the hostile gauge
        // reads ~20% high plus 30 J of drift.
        assert!((r.truth - (10_000.0 - 60.0 * 10.28)).abs() < 5.0);
        assert!(r.gauged > r.truth + 1_000.0, "gauge should lie high");
    }

    #[test]
    #[should_panic(expected = "before run")]
    fn add_process_after_start_panics() {
        let mut m = idle_machine(PmPolicy::disabled());
        let _ = m.run_until(SimTime::from_secs(1));
        m.add_process(Box::new(ScriptedWorkload::new("late", vec![])));
    }
}
