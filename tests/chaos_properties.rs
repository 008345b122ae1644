//! Property tests for the fault-injection layer and the hardened goal
//! controller: whatever the substrate does — outages, lying gauges,
//! dropped meter samples — the control plane must not panic, must not
//! upgrade faster than the paper's rate limit, must not beat network
//! physics, and must replay bit-identically from the same seed.

use energy_adaptation::experiments::chaos::{CHAOS_ENERGY_J, GOAL_S};
use energy_adaptation::experiments::goalrig::{build_composite_goal, composite_horizon};
use energy_adaptation::hw560x::{DisplayState, EnergySource};
use energy_adaptation::machine::workload::ScriptedWorkload;
use energy_adaptation::machine::{
    Activity, AdaptDirection, FaultConfig, FidelityView, Machine, MachineConfig, RpcPolicy, Step,
    Workload,
};
use energy_adaptation::netsim::{LinkFaultPlan, RpcSpec, RPC_LATENCY, WAVELAN_CAPACITY_BPS};
use energy_adaptation::odyssey::{
    GoalConfig, GoalController, GoalOutcome, Hardening, PriorityTable,
};
use energy_adaptation::powerscope::MeterFaultPlan;
use energy_adaptation::simcore::fault::FaultPlan;
use energy_adaptation::simcore::snapshot::reseal;
use energy_adaptation::simcore::Joules;
use energy_adaptation::simcore::{
    SimDuration, SimRng, SimTime, SnapshotHasher, SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC,
};

/// A three-level adaptive workload: CPU duty cycle plus a periodic
/// control RPC, so fault sweeps exercise both the CPU and network paths.
struct AdaptiveLoad {
    level: usize,
    until: SimTime,
    phase: u64,
}

impl AdaptiveLoad {
    const PERIOD: SimDuration = SimDuration::from_millis(1000);

    fn new(until: SimTime) -> Self {
        AdaptiveLoad {
            level: 2,
            until,
            phase: 0,
        }
    }

    fn duty(&self) -> f64 {
        match self.level {
            0 => 0.10,
            1 => 0.45,
            _ => 0.90,
        }
    }
}

impl Workload for AdaptiveLoad {
    fn name(&self) -> &'static str {
        "adaptive"
    }
    fn names(&self) -> Vec<&'static str> {
        vec!["ping", "burn"]
    }

    fn display_need(&self) -> DisplayState {
        DisplayState::Off
    }

    fn poll(&mut self, now: SimTime) -> Step {
        if now >= self.until {
            return Step::Done;
        }
        let slot = now.as_micros() % Self::PERIOD.as_micros();
        if slot == 0 {
            self.phase += 1;
            if self.phase.is_multiple_of(10) {
                // One small control RPC every ten periods.
                return Step::Run(Activity::Rpc {
                    spec: RpcSpec::control(SimDuration::from_millis(20)),
                    procedure: "ping",
                });
            }
            Step::Run(Activity::Cpu {
                duration: Self::PERIOD.mul_f64(self.duty()),
                intensity: 1.0,
                procedure: "burn",
            })
        } else {
            let next = now + (Self::PERIOD - SimDuration::from_micros(slot));
            Step::Run(Activity::Wait { until: next })
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

struct FaultedRun {
    outcome: GoalOutcome,
    report: energy_adaptation::machine::RunReport,
}

/// Runs the adaptive workload for 300 s of battery under a hostile
/// substrate at the given intensity.
fn run_goal_under_faults(seed: u64, intensity: f64, hardened: bool) -> FaultedRun {
    let horizon = SimTime::from_secs(700);
    let mut cfg = GoalConfig::paper(2000.0, SimDuration::from_secs(300))
        .with_meter_faults(MeterFaultPlan::degraded(seed ^ 0x5EED, intensity));
    cfg.warmup = SimDuration::from_secs(1);
    if hardened {
        cfg = cfg.with_hardening(Hardening::standard());
    }
    let mut m = Machine::new(MachineConfig {
        source: EnergySource::battery(Joules(2000.0)),
        faults: FaultConfig::hostile(seed, intensity, horizon),
        ..Default::default()
    });
    let pid = m.add_process(Box::new(AdaptiveLoad::new(SimTime::from_secs(600))));
    let (handle, hook) = GoalController::new(cfg.clone(), PriorityTable::new(vec![pid]));
    m.add_hook(cfg.sample_period, hook);
    let report = m.run_until(horizon);
    FaultedRun {
        outcome: handle.outcome(),
        report,
    }
}

/// Neither controller panics, hangs, or produces non-finite accounting at
/// any swept fault intensity.
#[test]
fn controllers_survive_full_intensity_sweep() {
    for &intensity in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        for hardened in [false, true] {
            for seed in 1..4 {
                let run = run_goal_under_faults(seed, intensity, hardened);
                assert!(
                    run.report.total_j.is_finite() && run.report.total_j > Joules(0.0),
                    "bad energy at intensity {intensity}: {}",
                    run.report.total_j
                );
                assert!(
                    run.report.duration_s() > 0.0,
                    "empty run at intensity {intensity}"
                );
                // The controller ran: it either met the goal, exhausted
                // the battery trying, or (workload done first) neither.
                let o = &run.outcome;
                assert!(
                    o.degrades + o.upgrades + o.infeasible_signals + o.stale_decisions > 0
                        || intensity == 0.0,
                    "controller never acted at intensity {intensity}: {o:?}"
                );
            }
        }
    }
}

/// Upgrades never come faster than `upgrade_min_interval`, no matter what
/// the faulty sensors tell the controller.
#[test]
fn upgrade_rate_limit_holds_under_faults() {
    for &intensity in &[0.25, 1.0] {
        for hardened in [false, true] {
            for seed in 1..4 {
                let run = run_goal_under_faults(seed, intensity, hardened);
                let series = run
                    .report
                    .fidelity
                    .iter()
                    .find(|s| s.name() == "adaptive")
                    .expect("fidelity series recorded");
                let min_gap = SimDuration::from_secs(15);
                let mut last_level: Option<f64> = None;
                let mut last_upgrade: Option<SimTime> = None;
                for &(at, level) in series.points() {
                    if let Some(prev) = last_level {
                        if level > prev {
                            if let Some(t) = last_upgrade {
                                assert!(
                                    at.saturating_since(t) >= min_gap,
                                    "upgrades {t:?} -> {at:?} violate the 15 s rate limit \
                                     (intensity {intensity}, hardened {hardened}, seed {seed})"
                                );
                            }
                            last_upgrade = Some(at);
                        }
                    }
                    last_level = Some(level);
                }
            }
        }
    }
}

/// Sequential RPCs never complete faster than physics allows — media
/// latency, wire time at full capacity, and server residence — no matter
/// how timeouts, retries, and link faults interleave. Retry accounting
/// stays balanced: every retry matches a timeout.
#[test]
fn rpc_timing_never_beats_physics_under_retries() {
    let spec = RpcSpec {
        request_bytes: 20_000,
        reply_bytes: 40_000,
        server_time: SimDuration::from_millis(150),
    };
    let n_rpcs = 12u64;
    let floor = spec.min_duration(WAVELAN_CAPACITY_BPS, RPC_LATENCY);
    let mut total_timeouts = 0u64;
    for seed in 0..8 {
        let horizon = SimTime::from_secs(3_600);
        let mut faults = FaultConfig::clean();
        faults.seed = seed;
        faults.horizon = horizon;
        // Outage-heavy link: ~3 s outages separated by ~6 s of calm.
        faults.link = LinkFaultPlan {
            outage: Some(FaultPlan::new(
                SimDuration::from_secs(3),
                SimDuration::from_secs(6),
            )),
            ..LinkFaultPlan::clean()
        };
        faults.rpc = Some(RpcPolicy {
            timeout: SimDuration::from_secs(2),
            ..RpcPolicy::standard()
        });
        let mut m = Machine::new(MachineConfig {
            faults,
            ..Default::default()
        });
        let activities = (0..n_rpcs)
            .map(|_| Activity::Rpc {
                spec,
                procedure: "fetch",
            })
            .collect();
        m.add_process(Box::new(ScriptedWorkload::new("rpcs", activities)));
        let report = m.run_until(horizon);
        let total_floor = SimDuration::from_micros(floor.as_micros() * n_rpcs);
        assert!(
            report.end >= SimTime::ZERO + total_floor,
            "seed {seed}: {n_rpcs} RPCs finished in {:?}, beating the physical floor {total_floor:?}",
            report.end,
        );
        assert_eq!(
            report.rpc_retries, report.rpc_timeouts,
            "seed {seed}: unbalanced retry accounting"
        );
        assert!(
            report.bytes_carried >= n_rpcs * (spec.request_bytes + spec.reply_bytes),
            "seed {seed}: fewer bytes carried than delivered"
        );
        total_timeouts += report.rpc_timeouts;
    }
    assert!(
        total_timeouts > 0,
        "outage-heavy sweep never exercised the retry path"
    );
}

/// The same seed replays the same hostile run bit-for-bit.
#[test]
fn faulted_runs_replay_bit_identically() {
    for hardened in [false, true] {
        let a = run_goal_under_faults(9, 0.75, hardened);
        let b = run_goal_under_faults(9, 0.75, hardened);
        assert_eq!(a.report.total_j.0.to_bits(), b.report.total_j.0.to_bits());
        assert_eq!(a.report.end, b.report.end);
        assert_eq!(a.report.rpc_timeouts, b.report.rpc_timeouts);
        assert_eq!(a.report.rpc_retries, b.report.rpc_retries);
        assert_eq!(a.report.bytes_carried, b.report.bytes_carried);
        assert_eq!(a.outcome, b.outcome);
    }
}

/// The chaos sweep's hardened cell at intensity 1.0 (seed 42, trial 0),
/// built as `experiments::chaos::run_sweep` builds it, with the
/// controller attached and not yet run. RPCs under the 12 s timeout
/// complete and cancel their timers throughout, so the event queue
/// carries cancelled entries at every instant.
fn hardened_chaos_rig() -> Machine {
    let root = SimRng::new(42);
    let label = "chaos/1.00";
    let mut rng = root.fork_indexed(label, 0);
    let fault_seed = root.fork_indexed(label, 0).fork("faults").seed();
    let goal = SimDuration::from_secs(GOAL_S);
    let mut faults = FaultConfig::hostile(fault_seed, 1.0, composite_horizon(goal));
    faults.rpc = Some(RpcPolicy {
        timeout: SimDuration::from_secs(12),
        ..RpcPolicy::standard()
    });
    let cfg = GoalConfig::paper(CHAOS_ENERGY_J, goal)
        .with_meter_faults(MeterFaultPlan::degraded(fault_seed, 1.0))
        .with_hardening(Hardening::standard());
    let rig = build_composite_goal(&cfg, false, faults, &mut rng);
    let mut m = rig.machine;
    let (_handle, hook) = GoalController::new(cfg.clone(), rig.priorities);
    m.add_hook(cfg.sample_period, hook);
    m
}

/// Snapshots of a cancel-heavy run are pinned byte for byte: each is a
/// sound envelope, and the payload hashes at three fixed instants are
/// constants (the envelope's checksum is not pinned), so how the
/// event queue forgets a cancelled event can never leak into the
/// snapshot format. Each payload also thaws into a rebuilt rig with the
/// same state digest.
#[test]
fn cancel_heavy_snapshots_are_byte_stable() {
    const PINS: [(u64, u64); 3] = [
        (300, 0xa54af42e2c0d418e),
        (750, 0xc1b4a5f431e81938),
        (1200, 0xf15625b29aec940f),
    ];
    let mut m = hardened_chaos_rig();
    for (secs, want) in PINS {
        let _ = m.run_until(SimTime::from_secs(secs));
        let mut w = SnapshotWriter::new();
        m.freeze(&mut w).expect("freeze");
        let bytes = w.seal();
        let payload_len = bytes.len() - 28;
        assert_eq!(bytes[..8], SNAPSHOT_MAGIC, "magic at {secs} s");
        assert_eq!(bytes[8..12], 3u32.to_le_bytes(), "version at {secs} s");
        assert_eq!(
            bytes[12..20],
            (payload_len as u64).to_le_bytes(),
            "payload length at {secs} s"
        );
        let mut resealed = bytes.clone();
        resealed[20 + payload_len..].fill(0);
        reseal(&mut resealed);
        assert_eq!(resealed, bytes, "checksum of the payload at {secs} s");
        let mut h = SnapshotHasher::new();
        h.write_bytes(&bytes[20..20 + payload_len]);
        let got = h.finish();
        assert_eq!(got, want, "payload hash at {secs} s: {got:#018x}");

        let mut thawed = hardened_chaos_rig();
        let names = thawed.names().clone();
        let mut r = SnapshotReader::open(&bytes)
            .expect("open")
            .with_names(&names);
        thawed.thaw(&mut r).expect("thaw");
        r.finish().expect("payload fully consumed");
        assert_eq!(
            thawed.state_digest(),
            m.state_digest(),
            "thawed digest at {secs} s"
        );
    }
}
