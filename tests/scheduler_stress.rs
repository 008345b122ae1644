//! Scheduler torture: the self-scheduling pool must be invisible in
//! the output under adversarial shapes.
//!
//! Every case runs serially first, then at thread counts {1, 2, 3, 4, 8}
//! with spawning forced via `assume_parallelism` (a single-core CI host
//! would otherwise — correctly — take the inline path and the claiming
//! machinery would never execute). Shapes covered: empty input, a
//! single item, item counts straddling the worker count (threads ± 1),
//! and a heavy/light skewed-cost workload where one in seven jobs costs
//! ~100× the rest. The harness trial grid rides the same gauntlet end to
//! end.

use experiments::harness::{run_grid, Trials};
use machine::workload::ScriptedWorkload;
use machine::{Machine, MachineConfig};
use simcore::{SimDuration, SimRng};
use simpar::PoolConfig;

/// Thread counts the torture grid runs at.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// A config that spawns `threads` workers even on a single-core host.
fn forced(threads: usize) -> PoolConfig {
    PoolConfig::new(threads).assume_parallelism(threads.max(2))
}

/// A deterministic job with skewed cost: every seventh job grinds a
/// splitmix-style integer hash ~100× longer than its siblings. The
/// value depends on every iteration, so the work cannot be elided.
fn skewed_job(i: usize) -> u64 {
    let rounds = if i.is_multiple_of(7) { 10_000 } else { 100 };
    let mut x = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..rounds {
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (x >> 27);
    }
    x
}

/// The adversarial item counts for a given worker count: empty, single,
/// and straddling the worker count.
fn adversarial_ns(threads: usize) -> Vec<usize> {
    let mut ns = vec![0, 1, threads.saturating_sub(1), threads, threads + 1];
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// `map_indexed` under the full grid: every (threads, n) cell is
/// byte-identical to the serial reference, with spawning forced and at
/// the host's own parallelism.
#[test]
fn map_indexed_identical_under_adversarial_shapes() {
    for threads in THREADS {
        for n in adversarial_ns(threads) {
            let serial: Vec<u64> = (0..n).map(skewed_job).collect();
            let forced_par = simpar::run(&forced(threads), n, skewed_job);
            assert_eq!(
                serial, forced_par,
                "forced spawn diverges at threads={threads} n={n}"
            );
            let host_par = simpar::map_indexed(threads, n, skewed_job);
            assert_eq!(
                serial, host_par,
                "map_indexed diverges at threads={threads} n={n}"
            );
        }
    }
}

/// `map` over a slice (the item-borrowing wrapper) under the same grid,
/// with the skewed-cost job keyed off the item value rather than the
/// index so the borrow path is exercised too. `map` reads the host's
/// parallelism, so the same borrowing job also runs with spawning
/// forced.
#[test]
fn map_identical_under_adversarial_shapes() {
    for threads in THREADS {
        for n in adversarial_ns(threads) {
            let items: Vec<u64> = (0..n as u64).map(|v| v * 13 + 5).collect();
            let job = |i: usize, &v: &u64| skewed_job(i).wrapping_add(v);
            let serial: Vec<u64> = items.iter().enumerate().map(|(i, v)| job(i, v)).collect();
            let forced_par = simpar::run(&forced(threads), n, |i| job(i, &items[i]));
            assert_eq!(
                serial, forced_par,
                "forced spawn diverges at threads={threads} n={n}"
            );
            let host_par = simpar::map(threads, &items, job);
            assert_eq!(serial, host_par, "map diverges at threads={threads} n={n}");
        }
    }
}

/// A machine idling for a random 1–4 s drawn from its trial stream,
/// so trial costs are naturally skewed.
fn build_jittered(rng: &mut SimRng) -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    let jitter_s = rng.uniform(1.0, 4.0);
    m.add_process(Box::new(ScriptedWorkload::idle_for(
        "stress",
        SimDuration::from_secs_f64(jitter_s),
    )));
    m
}

/// Runs `build` for every trial of every cell on
/// `fork_indexed(cell, i)`, the figures' fork convention, and renders
/// each cell's reports.
fn grid_reports(
    trials: &Trials,
    cells: &[&str],
    build: impl Fn(&mut SimRng) -> Machine + Sync,
) -> Vec<String> {
    let root = SimRng::new(trials.seed);
    run_grid(trials, cells, |cell, i| {
        build(&mut root.fork_indexed(cell, i as u64)).run()
    })
    .iter()
    .map(|runs| format!("{runs:?}"))
    .collect()
}

/// The harness trial grid — real machines, real RNG forks — is
/// byte-identical across the full thread grid, including counts that
/// straddle the trial count.
#[test]
fn run_grid_identical_across_thread_grid() {
    // 5 trials: straddles threads=4 (n > w) and threads=8 (n < w).
    let trials = Trials {
        n: 5,
        seed: 1999,
        threads: 1,
    };
    let serial = grid_reports(&trials, &["schedstress"], build_jittered);
    for threads in THREADS {
        let par = grid_reports(
            &trials.with_threads(threads),
            &["schedstress"],
            build_jittered,
        );
        assert_eq!(serial, par, "harness reports diverge at {threads} threads");
    }
}

/// A multi-cell grid (3 cells × 5 trials, the shape of a figure) comes
/// back cell-major in trial order and byte-identical at every thread
/// count: the claims interleave cells, the merge must not.
#[test]
fn run_grid_multi_cell_identical_across_thread_grid() {
    let trials = Trials {
        n: 5,
        seed: 1999,
        threads: 1,
    };
    let cells = ["grid/a", "grid/b", "grid/c"];
    let serial = grid_reports(&trials, &cells, build_jittered);
    assert_eq!(serial.len(), cells.len());
    // Each cell is the same runs a one-cell grid of its label gives.
    for (cell, runs) in cells.iter().zip(&serial) {
        assert_eq!(
            grid_reports(&trials, &[cell], build_jittered),
            std::slice::from_ref(runs),
            "{cell} drifted inside the grid"
        );
    }
    for threads in [1, 2, 4, 8] {
        let par = grid_reports(&trials.with_threads(threads), &cells, build_jittered);
        assert_eq!(serial, par, "grid reports diverge at {threads} threads");
    }
}

/// Single-trial and empty-adjacent harness shapes: the inline fallback
/// must produce the same bytes the spawning path does.
#[test]
fn run_grid_single_trial_matches_any_thread_count() {
    let build = |rng: &mut SimRng| {
        let mut m = Machine::new(MachineConfig::default());
        let jitter_s = rng.uniform(0.5, 1.5);
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "solo",
            SimDuration::from_secs_f64(jitter_s),
        )));
        m
    };
    let trials = Trials {
        n: 1,
        seed: 7,
        threads: 1,
    };
    let serial = grid_reports(&trials, &["solostress"], build);
    for threads in THREADS {
        let par = grid_reports(&trials.with_threads(threads), &["solostress"], build);
        assert_eq!(serial, par, "single trial diverges at {threads} threads");
    }
}
