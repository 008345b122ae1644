//! Parallel/serial equivalence: the simpar fan-out must be invisible.
//!
//! The work pool's determinism contract (DESIGN.md §13) says any
//! experiment routed through `simcore::par` produces byte-identical
//! results at every thread count, because trial streams are pure
//! functions of `(seed, label, index)` and merges happen in index
//! order. This suite drives the contract end to end: golden-file
//! renders, the trial harness, the two cell-level sweeps and every
//! figure built on the `harness::run_grid` fan-out, each at 1, 2, and
//! 8 threads. The goal-directed figures run at the scaled sizes their
//! module tests use, to keep debug-mode test time bounded.

use std::fmt::Debug;

use experiments::harness::{run_grid, Trials};
use experiments::{
    ablate, chaos, fig16, fig19, fig20, fig21, fig22, fig6, golden, sec54, supervise, tracerec,
};
use machine::workload::ScriptedWorkload;
use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::{VideoClip, VIDEO_CLIPS};
use simcore::{Joules, SimDuration, SimRng};

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
    let caller = std::thread::current().id();
    let cfg = simpar::PoolConfig::new(2).assume_parallelism(2);
    let (pooled, ran_on): (Vec<_>, Vec<_>) = simpar::run(&cfg, tracerec::SCENARIOS.len(), |i| {
        let trace = tracerec::record(tracerec::SCENARIOS[i], 42).unwrap();
        (trace, std::thread::current().id())
    })
    .into_iter()
    .unzip();
    assert!(
        ran_on.iter().any(|&id| id != caller),
        "pool ran inline; no worker recorded"
    );
    for ((scenario, a), b) in tracerec::SCENARIOS.iter().zip(&serial).zip(&pooled) {
        assert!(!a.is_empty(), "{scenario}: empty trace");
        assert_eq!(a, b, "{scenario}: recording on a pool worker diverged");
    }
}

/// The trial grid merges reports in trial order at every thread count,
/// on a workload with real randomness in it.
#[test]
fn run_grid_reports_identical_across_thread_counts() {
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
    let reports = |trials: &Trials| -> Vec<String> {
        let root = SimRng::new(trials.seed);
        run_grid(trials, &["pareq"], |label, i| {
            build(&mut root.fork_indexed(label, i as u64)).run()
        })
        .iter()
        .flatten()
        .map(|r| format!("{r:?}"))
        .collect()
    };
    let serial = reports(&trials);
    for threads in THREAD_COUNTS {
        let par = reports(&trials.with_threads(threads));
        assert_eq!(serial, par, "reports diverge at {threads} threads");
    }
}

/// The chaos sweep's cell fan-out is order-stable: cells come back in
/// sweep order with identical contents at every thread count.
#[test]
fn chaos_sweep_identical_across_thread_counts() {
    let serial = format!(
        "{:?}",
        chaos::run_sweep(&quick(), &[0.0, 0.5], 600, Joules(8_000.0)).cells
    );
    for threads in THREAD_COUNTS {
        let par = format!(
            "{:?}",
            chaos::run_sweep(
                &quick().with_threads(threads),
                &[0.0, 0.5],
                600,
                Joules(8_000.0)
            )
            .cells
        );
        assert_eq!(serial, par, "chaos cells diverge at {threads} threads");
    }
}

/// Asserts that `run` gives byte-identical `Debug` output at every
/// thread count (the serial run at 1 thread is the reference).
fn assert_thread_invariant<T: Debug>(name: &str, trials: Trials, run: impl Fn(&Trials) -> T) {
    let [serial_threads, ref fanned @ ..] = THREAD_COUNTS;
    let serial = format!("{:?}", run(&trials.with_threads(serial_threads)));
    for &threads in fanned {
        assert_eq!(
            serial,
            format!("{:?}", run(&trials.with_threads(threads))),
            "{name} diverges at {threads} threads"
        );
    }
}

/// Figure 6's `clip × condition × trial` grid, on shortened clips.
#[test]
fn fig6_identical_across_thread_counts() {
    let clips: Vec<VideoClip> = VIDEO_CLIPS[..2]
        .iter()
        .map(|c| VideoClip {
            duration_s: 20.0,
            ..*c
        })
        .collect();
    assert_thread_invariant("fig6", quick(), |t| {
        fig6::run_clips(t, &clips).to_table().render()
    });
}

/// Figure 19's two goal runs (shortened goals), series and all.
#[test]
fn fig19_identical_across_thread_counts() {
    assert_thread_invariant("fig19", quick(), |t| {
        fig19::run_goals(t, &[600, 900]).traces
    });
}

/// Figure 20's `goal × trial` grid with two goals.
#[test]
fn fig20_identical_across_thread_counts() {
    assert_thread_invariant("fig20", quick(), |t| {
        fig20::run_goals(t, &[1200, 1560], Joules(fig19::INITIAL_ENERGY_J))
    });
}

/// Figure 21's `half-life × trial` grid with two half-lives.
#[test]
fn fig21_identical_across_thread_counts() {
    assert_thread_invariant("fig21", quick(), |t| {
        fig21::run_half_lives(t, &[0.01, 0.10]).rows
    });
}

/// Figure 22's trials at a shortened goal.
#[test]
fn fig22_identical_across_thread_counts() {
    assert_thread_invariant("fig22", quick(), |t| {
        fig22::run_config(t, 900, Joules(fig22::INITIAL_ENERGY_J)).trials
    });
}

/// Section 5.4's trials at 1/6 of every duration and the supply.
#[test]
fn sec54_identical_across_thread_counts() {
    assert_thread_invariant("sec54", quick(), |t| {
        sec54::run_config(t, Joules(18_500.0), 1_650, 600, 1_950).trials
    });
}

/// The four controller ablations, one run each.
#[test]
fn ablate_identical_across_thread_counts() {
    assert_thread_invariant("ablate", quick(), ablate::run);
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
