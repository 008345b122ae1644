//! Parallel/serial equivalence: the simpar fan-out must be invisible.
//!
//! The work pool's determinism contract (DESIGN.md §13) says any
//! experiment routed through `simcore::par` produces byte-identical
//! results at every thread count, because trial streams are pure
//! functions of `(seed, label, index)` and merges happen in index
//! order. This suite drives the contract end to end: golden-file
//! renders, the trial harness, and both cell-level sweeps, each at
//! 1, 2, and 8 threads.

use experiments::harness::{run_trials, Trials};
use experiments::{benchcli, chaos, fig16, golden, supervise, tracerec};
use machine::workload::ScriptedWorkload;
use machine::{Machine, MachineConfig};
use simcore::{SimDuration, SimRng};

/// Thread counts the contract is exercised at: serial, the smallest
/// real fan-out, and more workers than this suite has jobs.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn quick() -> Trials {
    Trials {
        n: 2,
        seed: 42,
        threads: 1,
    }
}

/// Golden scenarios rendered through the bench digests: every scenario
/// digest is identical at every thread count.
#[test]
fn golden_scenarios_identical_across_thread_counts() {
    for scenario in benchcli::SCENARIOS {
        let serial = benchcli::digest(scenario, &quick());
        for threads in THREAD_COUNTS {
            assert_eq!(
                serial,
                benchcli::digest(scenario, &quick().with_threads(threads)),
                "{scenario} diverges at {threads} threads"
            );
        }
    }
}

/// Recorded golden traces are line-for-line identical whether recorded
/// on the calling thread or on pool workers: recording keeps no
/// thread-local state. Spawning is forced so the workers are real
/// threads even on a single-core host.
#[test]
fn golden_traces_replay_identically_with_pool_linked() {
    let serial: Vec<_> = tracerec::SCENARIOS
        .iter()
        .map(|s| tracerec::record(s, 42).unwrap())
        .collect();
    let cfg = simpar::PoolConfig::new(2).assume_parallelism(2).grain(1);
    let (pooled, stats) = simpar::map_stats(&cfg, &tracerec::SCENARIOS, |_, s| {
        tracerec::record(s, 42).unwrap()
    });
    assert!(!stats.inline, "pool ran inline; no worker recorded");
    for ((scenario, a), b) in tracerec::SCENARIOS.iter().zip(&serial).zip(&pooled) {
        assert!(!a.is_empty(), "{scenario}: empty trace");
        assert_eq!(a, b, "{scenario}: recording on a pool worker diverged");
    }
}

/// The trial harness merges reports in trial order at every thread
/// count, on a workload with real randomness in it.
#[test]
fn run_trials_reports_identical_across_thread_counts() {
    let build = |rng: &mut SimRng| {
        let mut m = Machine::new(MachineConfig::default());
        let jitter_s = rng.uniform(1.0, 3.0);
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs_f64(jitter_s),
        )));
        m
    };
    let trials = Trials {
        n: 6,
        seed: 7,
        threads: 1,
    };
    let serial: Vec<String> = run_trials(&trials, "pareq", build)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    for threads in THREAD_COUNTS {
        let par: Vec<String> = run_trials(&trials.with_threads(threads), "pareq", build)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(serial, par, "reports diverge at {threads} threads");
    }
}

/// The chaos sweep's cell fan-out is order-stable: cells come back in
/// sweep order with identical contents at every thread count.
#[test]
fn chaos_sweep_identical_across_thread_counts() {
    let serial = format!(
        "{:?}",
        chaos::run_sweep(&quick(), &[0.0, 0.5], 600, 8_000.0).cells
    );
    for threads in THREAD_COUNTS {
        let par = format!(
            "{:?}",
            chaos::run_sweep(&quick().with_threads(threads), &[0.0, 0.5], 600, 8_000.0).cells
        );
        assert_eq!(serial, par, "chaos cells diverge at {threads} threads");
    }
}

/// Same for the supervision sweep.
#[test]
fn supervise_sweep_identical_across_thread_counts() {
    let trials = Trials {
        n: 1,
        seed: 42,
        threads: 1,
    };
    let serial = format!("{:?}", supervise::run_sweep(&trials, &[0, 2]).cells);
    for threads in THREAD_COUNTS {
        let par = format!(
            "{:?}",
            supervise::run_sweep(&trials.with_threads(threads), &[0, 2]).cells
        );
        assert_eq!(serial, par, "supervise cells diverge at {threads} threads");
    }
}

/// A full rendered figure (table text, captions, everything) is
/// byte-identical serial vs parallel — the user-visible guarantee the
/// `--threads` flag documents.
#[test]
fn rendered_figure_bytes_identical_across_thread_counts() {
    let serial = fig16::render(&quick());
    for threads in THREAD_COUNTS {
        assert_eq!(
            serial,
            fig16::render(&quick().with_threads(threads)),
            "fig16 rendering diverges at {threads} threads"
        );
    }
}

/// Every golden file — traces, per-call-path energy tables and the
/// seed matrix — renders byte-identically at every thread count:
/// `golden::render_all` fans the files out over the pool, and each is
/// a pure function of its scenario and seed.
#[test]
fn energymap_tables_identical_across_thread_counts() {
    let [serial_threads, ref fanned @ ..] = THREAD_COUNTS;
    let serial = golden::render_all(serial_threads, 1.0).expect("serial golden render");
    assert!(serial.iter().any(|f| f.kind == golden::Kind::Energy));
    for &threads in fanned {
        let parallel = golden::render_all(threads, 1.0).expect("parallel golden render");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name, "file order diverged at {threads} threads");
            assert_eq!(
                s.text, p.text,
                "{}: golden render diverges at {threads} threads",
                s.name
            );
        }
    }
}
