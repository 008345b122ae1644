#![forbid(unsafe_code)]
//! simpar: a deterministic self-scheduling work pool.
//!
//! The evaluation sweeps are embarrassingly parallel: every trial runs
//! with a random stream forked purely from `(seed, label, index)`, so
//! trials share no state and their results depend only on their index.
//! This crate fans such work out over `std::thread::scope` workers and
//! merges results **in index order**, making the parallel run
//! byte-identical to the serial one (`tests/parallel_equivalence.rs`
//! and `tests/scheduler_stress.rs` enforce this against the golden
//! traces and a battery of adversarial shapes).
//!
//! Consumers beyond the experiment sweeps: `simserve` fans whole session
//! lifecycles across the pool, with the same index-ordered-merge
//! guarantee.
//!
//! # The determinism contract (DESIGN.md §13)
//!
//! - **Pure jobs.** `f(i)` must be a pure function of its index and of
//!   immutable captured state. Jobs must not communicate, touch shared
//!   mutable state, read the wall clock, or draw from a shared RNG.
//! - **Index-ordered merge.** Workers claim one index at a time and
//!   push `(index, result)` into a private buffer; the merge orders the
//!   buffers' entries by index. Nothing in the merge path reads the wall
//!   clock or depends on completion order.
//! - **Serial fallback.** When the pool decides not to spawn (one
//!   worker requested, nothing to gain, or the host has a single
//!   hardware thread) the jobs run inline on the caller's thread in
//!   index order — *identical* to a plain loop, which is what makes
//!   `--threads 1` useful for bisecting.
//!
//! # Scheduling
//!
//! Every claim is one job: a worker takes the next index off a single
//! shared `AtomicUsize` cursor, runs it, and comes back for another, so
//! a worker stuck on an expensive job never holds an unstarted job
//! hostage. The sweeps dispatch tens to a few thousand jobs that each
//! run a whole simulation, so one relaxed `fetch_add` per job is noise
//! next to the job itself. There is no per-item lock and no shared sink:
//! each worker owns its result buffer until the scope joins.
//!
//! The calling thread is one of the workers: a dispatch of `w` workers
//! spawns `w - 1` scoped threads and runs the same claim loop on the
//! caller, so no thread idles at the join and a dispatch whose jobs are
//! all claimed before a thread starts costs little more than the loop.
//! A panic in any job, the caller's included, still reaches the caller
//! only after every spawned worker has joined.
//!
//! The process-wide [`telemetry`] counters report what the scheduler
//! did (dispatches, inline fallbacks, claims, workers), so a scenario
//! that fails to scale can be diagnosed instead of guessed at.
//!
//! This is the one crate in the workspace allowed to touch
//! `std::thread`: the workspace `clippy.toml` bans the thread API
//! everywhere, and only this crate carries the `#[expect]`s that use it;
//! everything else goes through this API.
//!
//! # Examples
//!
//! ```
//! let squares = simpar::map_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let words = ["a", "bb", "ccc"];
//! let lens = simpar::map(2, &words, |_, w| w.len());
//! assert_eq!(lens, vec![1, 2, 3]);
//!
//! // `assume_parallelism` forces real workers even on a 1-core host.
//! let cfg = simpar::PoolConfig::new(2).assume_parallelism(2);
//! let out = simpar::run(&cfg, 8, |i| i + 1);
//! assert_eq!(out, (1..=8).collect::<Vec<_>>());
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker threads to use by default: the machine's available parallelism
/// (1 when it cannot be determined).
#[expect(
    clippy::disallowed_methods,
    reason = "the pool is the one crate that sizes itself to the host"
)]
pub fn available_threads() -> usize {
    // Cached: the pool consults this on every dispatch and the answer
    // cannot change under a pinned-affinity process.
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Scheduling configuration for [`run`].
///
/// The convenience wrappers [`map_indexed`] and [`map`] use
/// `PoolConfig::new(threads)` — host parallelism.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Requested worker threads (0 is clamped to 1).
    pub threads: usize,
    /// Hardware-parallelism assumption; `None` reads the host's
    /// [`available_threads`]. Tests (and benchmarks of the scheduler
    /// itself) override this to force the spawning path on small hosts
    /// or the inline path on large ones.
    pub assume_parallelism: Option<usize>,
}

impl PoolConfig {
    /// A configuration with host parallelism.
    pub fn new(threads: usize) -> Self {
        PoolConfig {
            threads,
            assume_parallelism: None,
        }
    }

    /// Overrides the hardware-parallelism assumption.
    pub fn assume_parallelism(mut self, cores: usize) -> Self {
        self.assume_parallelism = Some(cores);
        self
    }
}

/// Decides how many workers a dispatch spawns: the requested count,
/// clamped to the job count and to the (assumed) hardware parallelism.
/// An answer ≤ 1 means the inline path — spawning a worker the hardware
/// cannot run concurrently is pure overhead, so a single-core host
/// always runs inline no matter the requested count (the output is
/// identical either way; `assume_parallelism` forces the spawning path
/// where the machinery itself is under test).
fn effective_workers(cfg: &PoolConfig, n: usize) -> usize {
    cfg.threads.max(1).min(n).min(
        cfg.assume_parallelism
            .unwrap_or_else(available_threads)
            .max(1),
    )
}

/// Runs `f(0..n)` under `cfg` and returns the results in index order.
/// This is the configured core; [`map_indexed`] and [`map`] wrap it.
///
/// `f` must satisfy the crate-level determinism contract: the output is
/// then byte-identical to `(0..n).map(f).collect()` for every
/// configuration.
///
/// # Panics
///
/// If a job panics, the panic is propagated to the caller after the
/// scope joins (no result is silently dropped).
#[expect(
    clippy::disallowed_methods,
    reason = "the pool is the one crate that spawns threads"
)]
pub fn run<R, F>(cfg: &PoolConfig, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = effective_workers(cfg, n);
    if workers <= 1 {
        telemetry::record(n, 0);
        return (0..n).map(f).collect();
    }

    // One shared cursor hands out one index per claim; each worker owns
    // a private buffer, so the only cross-thread traffic is one fetch_add
    // per job and the final join. `Relaxed` suffices: the cursor
    // publishes no data, and results reach the caller through the join.
    // The caller is the first of the `workers`: it spawns the rest and
    // runs the same claim loop instead of idling at the join.
    let cursor = AtomicUsize::new(0);
    let claim_loop = || {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break out;
            }
            out.push((i, f(i)));
        }
    };
    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim_loop)).collect();
        // A panic on the caller's own claims is held until every spawned
        // worker has joined, then propagated first, as worker 0's.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(claim_loop));
        let spawned: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        std::iter::once(own)
            .chain(spawned)
            .map(|joined| match joined {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Index-ordered merge: every index in 0..n was claimed exactly once
    // (the cursor is monotone), so sorting by index reproduces the
    // serial order whichever worker ran what.
    let mut claimed: Vec<(usize, R)> = buffers.into_iter().flatten().collect();
    claimed.sort_unstable_by_key(|&(i, _)| i);
    let results: Vec<R> = claimed.into_iter().map(|(_, r)| r).collect();
    assert_eq!(
        results.len(),
        n,
        "simpar: merged {} results for {n} jobs",
        results.len()
    );
    telemetry::record(n, workers);
    results
}

/// Runs `f(0..n)` across `threads` scoped workers and returns the
/// results in index order (host parallelism).
///
/// With `threads <= 1`, a single job, or a single-hardware-thread host
/// no worker is spawned and the jobs run inline in index order on the
/// caller's thread.
pub fn map_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run(&PoolConfig::new(threads), n, f)
}

/// Runs `f(i, &items[i])` for every item across `threads` scoped workers
/// and returns the results in item order.
///
/// Same contract as [`map_indexed`]; the index argument lets jobs label
/// their work (trial number, scenario id) without shared counters.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed(threads, items.len(), |i| f(i, &items[i]))
}

/// Process-wide cumulative dispatch counters.
///
/// A scenario like `fig16` performs dozens of nested pool dispatches
/// behind several layers of harness; threading a stats value through
/// all of them would put scheduling bookkeeping in every simulation
/// signature. Instead the pool bumps these relaxed atomics on every
/// dispatch and a timing harness brackets each measured scenario with
/// [`reset`](telemetry::reset)/[`snapshot`](telemetry::snapshot).
/// Observability only — no simulation result may depend on these values.
pub mod telemetry {
    use super::{AtomicU64, Ordering};

    static DISPATCHES: AtomicU64 = AtomicU64::new(0);
    static INLINE_RUNS: AtomicU64 = AtomicU64::new(0);
    static SPAWNED_RUNS: AtomicU64 = AtomicU64::new(0);
    static CHUNKS: AtomicU64 = AtomicU64::new(0);
    static WORKERS: AtomicU64 = AtomicU64::new(0);
    static ITEMS: AtomicU64 = AtomicU64::new(0);

    /// Cumulative pool activity since the last [`reset`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Totals {
        /// Pool dispatches (one per `map`/`map_indexed`/`run` call).
        pub dispatches: u64,
        /// Dispatches that took the inline fallback.
        pub inline_runs: u64,
        /// Dispatches that spawned workers.
        pub spawned_runs: u64,
        /// Claims across spawned dispatches: one per item.
        pub chunks: u64,
        /// Workers that ran jobs, summed across spawned dispatches: the
        /// threads spawned plus the calling thread, which claims jobs
        /// alongside them.
        pub workers: u64,
        /// Items executed across all dispatches.
        pub items: u64,
    }

    /// Records one dispatch of `items` jobs; `workers == 0` is the
    /// inline path.
    pub(super) fn record(items: usize, workers: usize) {
        DISPATCHES.fetch_add(1, Ordering::Relaxed);
        ITEMS.fetch_add(items as u64, Ordering::Relaxed);
        if workers == 0 {
            INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
        } else {
            SPAWNED_RUNS.fetch_add(1, Ordering::Relaxed);
            CHUNKS.fetch_add(items as u64, Ordering::Relaxed);
            WORKERS.fetch_add(workers as u64, Ordering::Relaxed);
        }
    }

    /// Zeroes every counter (bracketing a measurement).
    pub fn reset() {
        for c in [
            &DISPATCHES,
            &INLINE_RUNS,
            &SPAWNED_RUNS,
            &CHUNKS,
            &WORKERS,
            &ITEMS,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Reads every counter.
    pub fn snapshot() -> Totals {
        Totals {
            dispatches: DISPATCHES.load(Ordering::Relaxed),
            inline_runs: INLINE_RUNS.load(Ordering::Relaxed),
            spawned_runs: SPAWNED_RUNS.load(Ordering::Relaxed),
            chunks: CHUNKS.load(Ordering::Relaxed),
            workers: WORKERS.load(Ordering::Relaxed),
            items: ITEMS.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config that always exercises the spawning path, even on a
    /// single-core test host.
    fn forced(threads: usize) -> PoolConfig {
        PoolConfig::new(threads).assume_parallelism(threads.max(2))
    }

    /// Runs `n` jobs under `cfg`, each reporting the thread it ran on.
    fn thread_ids(cfg: &PoolConfig, n: usize) -> Vec<std::thread::ThreadId> {
        run(cfg, n, |_| std::thread::current().id())
    }

    #[test]
    fn results_come_back_in_index_order() {
        // Jobs of wildly uneven cost: later indices finish first under
        // any scheduler, yet the merge is by index.
        let out = run(&forced(8), 64, |i| {
            let mut acc = 0u64;
            for k in 0..((64 - i) * 1000) as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, pair) in out.iter().enumerate() {
            assert_eq!(pair.0, i);
        }
    }

    #[test]
    fn every_thread_count_matches_serial() {
        let serial: Vec<u64> = (0..33).map(|i| (i as u64) * 17 + 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = map_indexed(threads, 33, |i| (i as u64) * 17 + 3);
            assert_eq!(par, serial, "threads={threads} (host parallelism)");
            let par = run(&forced(threads), 33, |i| (i as u64) * 17 + 3);
            assert_eq!(par, serial, "threads={threads} (forced spawn)");
        }
    }

    #[test]
    fn zero_jobs_and_zero_threads_are_fine() {
        let empty: Vec<u8> = map_indexed(4, 0, |_| 0u8);
        assert!(empty.is_empty());
        // threads=0 is clamped to 1 (serial).
        assert_eq!(map_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_passes_item_and_index() {
        let items = ["x", "yy", "zzz", "ww"];
        let out = map(3, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:x", "1:yy", "2:zzz", "3:ww"]);
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(run(&forced(8), 1, |i| i + 41), vec![41]);
        let caller = std::thread::current().id();
        assert_eq!(thread_ids(&forced(8), 1), vec![caller]);
        assert!(thread_ids(&forced(8), 0).is_empty());
    }

    #[test]
    fn single_core_host_runs_inline_at_any_thread_count() {
        let caller = std::thread::current().id();
        for cfg in [
            PoolConfig::new(8).assume_parallelism(1),
            PoolConfig::new(1).assume_parallelism(8),
        ] {
            assert_eq!(run(&cfg, 100, |i| i), (0..100).collect::<Vec<_>>());
            let ids = thread_ids(&cfg, 100);
            assert!(
                ids.iter().all(|&id| id == caller),
                "{cfg:?}: a job ran off the calling thread"
            );
        }
    }

    #[test]
    fn effective_workers_is_clamped() {
        let cores = |t: usize, cores: usize| PoolConfig::new(t).assume_parallelism(cores);
        assert_eq!(effective_workers(&cores(0, 8), 10), 1);
        assert_eq!(effective_workers(&cores(16, 8), 3), 3);
        assert_eq!(effective_workers(&cores(4, 8), 0), 0);
        assert_eq!(effective_workers(&cores(16, 2), 10), 2);
        assert_eq!(effective_workers(&cores(2, 8), 10), 2);
    }

    #[test]
    fn a_stuck_job_holds_no_other_job_hostage() {
        // Job 0 waits for jobs 1–7 to finish. With one claim per job the
        // second worker runs all of them while the first is stuck; a
        // plan that put job 1 behind job 0 on one worker would starve it.
        // The bound is on yields, not on time, so the test cannot hang.
        const SPINS: usize = 10_000_000;
        let done = AtomicUsize::new(0);
        let saw_all = run(&forced(2), 8, |i| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            for _ in 0..SPINS {
                if done.load(Ordering::SeqCst) == 7 {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        });
        assert!(saw_all[0], "job 0 never saw jobs 1–7 finish");
    }

    // The telemetry counters are process-global, so their exact-count
    // assertions live in tests/telemetry.rs — a binary where that test
    // runs alone and no concurrent test can bump the counters.

    #[test]
    fn available_threads_is_at_least_one() {
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = run(&forced(4), 8, |i| {
            if i == 3 {
                panic!("job 3 panicked");
            }
            i
        });
    }
}
