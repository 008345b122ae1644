#![forbid(unsafe_code)]
//! simpar: a deterministic chunked self-scheduling work pool.
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
//! # The determinism contract (DESIGN.md §13, §18)
//!
//! - **Pure jobs.** `f(i)` must be a pure function of its index and of
//!   immutable captured state. Jobs must not communicate, touch shared
//!   mutable state, read the wall clock, or draw from a shared RNG.
//! - **Index-ordered merge.** Workers execute whole index *chunks* and
//!   append each chunk's results to a private run buffer; the merge
//!   sorts the runs by start index and concatenates. Nothing in the
//!   merge path reads the wall clock or depends on completion order.
//! - **Serial fallback.** When the pool decides not to spawn (one
//!   worker requested, nothing to gain, or the host has a single
//!   hardware thread) the jobs run inline on the caller's thread in
//!   index order — *identical* to a plain loop, which is what makes
//!   `--threads 1` useful for bisecting.
//!
//! # Scheduling (DESIGN.md §18)
//!
//! The chunk plan is computed **up front** by [`plan_chunks`]: a guided
//! schedule of geometrically shrinking index ranges (each chunk takes
//! `remaining / (2 * workers)` items, floored at the grain), so early
//! chunks amortize claim overhead while late chunks stay small enough
//! to balance skewed job costs. Workers claim whole chunks off a single
//! `AtomicUsize` chunk cursor — one atomic op per chunk, not per item —
//! and write results into pre-allocated per-worker run buffers, so
//! there is no per-item mutex and no shared sink to contend on. Which
//! worker claims which chunk is scheduler-dependent; the chunk
//! *boundaries* and the merged output are pure functions of
//! `(n, workers, grain)`.
//!
//! The [`PoolStats`] surface (and the process-wide [`telemetry`]
//! counters behind the `bench` verb's per-record metadata) reports what
//! the scheduler actually did — chunks claimed, items per worker,
//! whether the inline fallback ran — so a scenario that fails to scale
//! can be diagnosed instead of guessed at.
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
//! // The configured entry points also report what the scheduler did.
//! let cfg = simpar::PoolConfig::new(2).assume_parallelism(2);
//! let (out, stats) = simpar::map_indexed_stats(&cfg, 8, |i| i + 1);
//! assert_eq!(out, (1..=8).collect::<Vec<_>>());
//! assert_eq!(stats.items, 8);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Chunks-per-worker target of the guided schedule: each claim takes
/// `remaining / (CHUNK_DIVISOR * workers)` items (floored at the
/// grain), giving every worker several shrinking chunks to self-balance
/// across skewed job costs.
const CHUNK_DIVISOR: usize = 2;

/// Default grain denominator: the automatic minimum chunk size is
/// `n / (workers * GRAIN_CHUNKS_PER_WORKER)`, i.e. the tail of the
/// guided schedule leaves each worker up to ~8 small chunks.
const GRAIN_CHUNKS_PER_WORKER: usize = 8;

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

/// One contiguous index range of the chunk plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// First index of the range.
    pub start: usize,
    /// Number of indices in the range (always ≥ 1 in a plan).
    pub len: usize,
}

/// Scheduling configuration for the configured entry points
/// ([`run`], [`map_indexed_stats`], [`map_stats`]).
///
/// The convenience wrappers [`map_indexed`] and [`map`] use
/// `PoolConfig::new(threads)` — automatic grain, host parallelism.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Requested worker threads (0 is clamped to 1).
    pub threads: usize,
    /// Minimum chunk size; `None` picks [`auto_grain`] from the item
    /// and worker counts. `Some(0)` is treated as `Some(1)`.
    pub grain: Option<usize>,
    /// Hardware-parallelism assumption; `None` reads the host's
    /// [`available_threads`]. Tests (and benchmarks of the scheduler
    /// itself) override this to force the spawning path on small hosts
    /// or the inline path on large ones.
    pub assume_parallelism: Option<usize>,
}

impl PoolConfig {
    /// A configuration with automatic grain and host parallelism.
    pub fn new(threads: usize) -> Self {
        PoolConfig {
            threads,
            grain: None,
            assume_parallelism: None,
        }
    }

    /// Overrides the minimum chunk size.
    pub fn grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain);
        self
    }

    /// Overrides the hardware-parallelism assumption.
    pub fn assume_parallelism(mut self, cores: usize) -> Self {
        self.assume_parallelism = Some(cores);
        self
    }
}

/// What the scheduler actually did for one dispatch — the pool's
/// telemetry surface. Everything here is observability: no simulation
/// result may ever depend on it (worker attribution is
/// scheduler-dependent; the chunk *plan* and the merged output are
/// not).
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Jobs dispatched.
    pub items: usize,
    /// Worker threads the caller asked for.
    pub requested_threads: usize,
    /// Workers actually spawned (0 on the inline path).
    pub workers_spawned: usize,
    /// Hardware parallelism the dispatch assumed.
    pub assumed_parallelism: usize,
    /// True when the jobs ran inline on the caller's thread.
    pub inline: bool,
    /// Minimum chunk size the plan was built with (items, ≥ 1; equals
    /// `items.max(1)` on the inline path, where the plan is one chunk).
    pub grain: usize,
    /// The chunk plan: disjoint, contiguous, in index order (the
    /// invariant tests pin that it partitions `0..items` exactly).
    pub plan: Vec<Chunk>,
    /// Chunks each spawned worker claimed (empty on the inline path).
    pub per_worker_chunks: Vec<usize>,
    /// Items each spawned worker executed (empty on the inline path;
    /// sums to `items` otherwise).
    pub per_worker_items: Vec<usize>,
}

impl PoolStats {
    /// Total chunks claimed (the plan length on the spawning path, 1 on
    /// the inline path for non-empty input, 0 for empty input).
    pub fn chunks_claimed(&self) -> usize {
        self.plan.len()
    }
}

/// The automatic minimum chunk size for `n` items on `workers` workers:
/// large enough that the guided tail does not degenerate into per-item
/// claims on big inputs, small enough that every worker still sees
/// several chunks (`n / (workers * 8)`, floored at 1).
pub fn auto_grain(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * GRAIN_CHUNKS_PER_WORKER)).max(1)
}

/// Builds the guided chunk plan for `n` items on `workers` workers with
/// minimum chunk size `grain`: each successive chunk takes
/// `remaining / (2 * workers)` items, floored at `grain`, capped at the
/// remainder. The plan is a pure function of its arguments; the
/// invariant tests pin that it partitions `0..n` exactly (no overlap,
/// no gap) for adversarial shapes.
pub fn plan_chunks(n: usize, workers: usize, grain: usize) -> Vec<Chunk> {
    let workers = workers.max(1);
    let grain = grain.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < n {
        let remaining = n - start;
        let len = (remaining / (CHUNK_DIVISOR * workers))
            .max(grain)
            .min(remaining);
        chunks.push(Chunk { start, len });
        start += len;
    }
    chunks
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

/// Runs `f(0..n)` under `cfg` and returns the results in index order
/// plus the scheduling stats. This is the configured core; everything
/// else wraps it.
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
pub fn run<R, F>(cfg: &PoolConfig, n: usize, f: F) -> (Vec<R>, PoolStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let assumed = cfg
        .assume_parallelism
        .unwrap_or_else(available_threads)
        .max(1);
    let workers = effective_workers(cfg, n);
    if workers <= 1 {
        let results: Vec<R> = (0..n).map(f).collect();
        let stats = PoolStats {
            items: n,
            requested_threads: cfg.threads.max(1),
            workers_spawned: 0,
            assumed_parallelism: assumed,
            inline: true,
            grain: n.max(1),
            plan: if n == 0 {
                Vec::new()
            } else {
                vec![Chunk { start: 0, len: n }]
            },
            per_worker_chunks: Vec::new(),
            per_worker_items: Vec::new(),
        };
        telemetry::record(&stats);
        return (results, stats);
    }

    let grain = cfg
        .grain
        .map(|g| g.max(1))
        .unwrap_or_else(|| auto_grain(n, workers));
    let plan = plan_chunks(n, workers, grain);
    // One shared cursor hands out *chunks*; each worker owns a private
    // run buffer, so the only cross-thread traffic is one fetch_add per
    // chunk and the final join.
    let cursor = AtomicUsize::new(0);
    type Runs<R> = Vec<(usize, Vec<R>)>;
    let worker_outputs: Vec<(Runs<R>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut runs: Runs<R> = Vec::new();
                    let mut chunks_claimed = 0usize;
                    let mut items_done = 0usize;
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = plan.get(c) else { break };
                        // Per-worker scratch: the chunk's results are
                        // appended to a run buffer this worker alone
                        // owns, drained once into the merge below.
                        let mut out = Vec::with_capacity(chunk.len);
                        for i in chunk.start..chunk.start + chunk.len {
                            out.push(f(i));
                        }
                        runs.push((chunk.start, out));
                        chunks_claimed += 1;
                        items_done += chunk.len;
                    }
                    (runs, chunks_claimed, items_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut per_worker_chunks = Vec::with_capacity(workers);
    let mut per_worker_items = Vec::with_capacity(workers);
    let mut runs: Runs<R> = Vec::with_capacity(plan.len());
    for (worker_runs, chunks_claimed, items_done) in worker_outputs {
        per_worker_chunks.push(chunks_claimed);
        per_worker_items.push(items_done);
        runs.extend(worker_runs);
    }
    // Index-ordered merge: runs are disjoint chunks of 0..n, so sorting
    // by start index and concatenating reproduces the serial order.
    runs.sort_by_key(|(start, _)| *start);
    let mut results = Vec::with_capacity(n);
    for (start, mut out) in runs {
        debug_assert_eq!(start, results.len(), "chunk runs must be contiguous");
        results.append(&mut out);
    }
    assert_eq!(
        results.len(),
        n,
        "simpar: merged {} results for {n} jobs (chunk plan corrupted)",
        results.len()
    );
    let stats = PoolStats {
        items: n,
        requested_threads: cfg.threads.max(1),
        workers_spawned: workers,
        assumed_parallelism: assumed,
        inline: false,
        grain,
        plan,
        per_worker_chunks,
        per_worker_items,
    };
    telemetry::record(&stats);
    (results, stats)
}

/// Runs `f(0..n)` across `threads` scoped workers and returns the
/// results in index order (automatic grain, host parallelism).
///
/// With `threads <= 1`, a single job, or a single-hardware-thread host
/// no worker is spawned and the jobs run inline in index order on the
/// caller's thread.
pub fn map_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run(&PoolConfig::new(threads), n, f).0
}

/// [`map_indexed`] with explicit configuration and scheduling stats.
pub fn map_indexed_stats<R, F>(cfg: &PoolConfig, n: usize, f: F) -> (Vec<R>, PoolStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run(cfg, n, f)
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

/// [`map`] with explicit configuration and scheduling stats.
pub fn map_stats<T, R, F>(cfg: &PoolConfig, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run(cfg, items.len(), |i| f(i, &items[i]))
}

/// Process-wide cumulative dispatch counters.
///
/// A scenario like `fig16` performs dozens of nested pool dispatches
/// behind several layers of harness; threading a stats value through
/// all of them would put scheduling bookkeeping in every simulation
/// signature. Instead the pool bumps these relaxed atomics on every
/// dispatch and the `bench` verb brackets each measured scenario with
/// [`reset`](telemetry::reset)/[`snapshot`](telemetry::snapshot) to
/// annotate its `BENCH_sweep.json` record. Observability only — no
/// simulation result may depend on these values.
pub mod telemetry {
    use super::{AtomicU64, Ordering, PoolStats};

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
        /// Chunks claimed across spawned dispatches.
        pub chunks: u64,
        /// Workers spawned, summed across dispatches.
        pub workers: u64,
        /// Items executed across all dispatches.
        pub items: u64,
    }

    pub(super) fn record(stats: &PoolStats) {
        DISPATCHES.fetch_add(1, Ordering::Relaxed);
        ITEMS.fetch_add(stats.items as u64, Ordering::Relaxed);
        if stats.inline {
            INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
        } else {
            SPAWNED_RUNS.fetch_add(1, Ordering::Relaxed);
            CHUNKS.fetch_add(stats.plan.len() as u64, Ordering::Relaxed);
            WORKERS.fetch_add(stats.workers_spawned as u64, Ordering::Relaxed);
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

    #[test]
    fn results_come_back_in_index_order() {
        // Jobs of wildly uneven cost: later indices finish first under
        // any scheduler, yet the merge is by index.
        let (out, stats) = run(&forced(8), 64, |i| {
            let mut acc = 0u64;
            for k in 0..((64 - i) * 1000) as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert!(!stats.inline);
        for (i, pair) in out.iter().enumerate() {
            assert_eq!(pair.0, i);
        }
    }

    #[test]
    fn every_thread_count_matches_serial() {
        let serial: Vec<u64> = (0..33).map(|i| (i as u64) * 17 + 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = map_indexed(threads, 33, |i| (i as u64) * 17 + 3);
            assert_eq!(par, serial, "threads={threads} (heuristic)");
            let (par, _) = run(&forced(threads), 33, |i| (i as u64) * 17 + 3);
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
        let (out, stats) = run(&forced(8), 1, |i| i + 41);
        assert_eq!(out, vec![41]);
        assert!(stats.inline);
        assert_eq!(stats.workers_spawned, 0);
    }

    #[test]
    fn single_core_host_runs_inline_at_any_thread_count() {
        let cfg = PoolConfig::new(8).assume_parallelism(1);
        let (out, stats) = run(&cfg, 100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(stats.inline, "1-core host must not spawn");
        assert_eq!(stats.workers_spawned, 0);
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
    fn plan_is_guided_and_exact() {
        let plan = plan_chunks(1000, 4, 1);
        // Geometrically shrinking: first chunk is the biggest.
        assert_eq!(plan[0].start, 0);
        assert_eq!(plan[0].len, 125);
        assert!(plan.windows(2).all(|w| w[0].len >= w[1].len));
        // Exact partition.
        let mut next = 0usize;
        for c in &plan {
            assert_eq!(c.start, next);
            assert!(c.len >= 1);
            next += c.len;
        }
        assert_eq!(next, 1000);
    }

    #[test]
    fn grain_floors_the_plan() {
        for c in plan_chunks(1000, 4, 100) {
            assert!(c.len >= 100 || c.start + c.len == 1000);
        }
        // grain >= n collapses the plan to one chunk.
        assert_eq!(plan_chunks(10, 4, 10), vec![Chunk { start: 0, len: 10 }]);
        assert_eq!(plan_chunks(10, 4, 11), vec![Chunk { start: 0, len: 10 }]);
        // grain 0 behaves as 1, and an empty input has an empty plan.
        assert_eq!(plan_chunks(10, 2, 0).len(), plan_chunks(10, 2, 1).len());
        assert!(plan_chunks(0, 4, 1).is_empty());
    }

    #[test]
    fn auto_grain_scales_with_items_per_worker() {
        assert_eq!(auto_grain(0, 4), 1);
        assert_eq!(auto_grain(10, 4), 1);
        assert_eq!(auto_grain(1000, 4), 31);
        assert_eq!(auto_grain(1000, 0), 125);
    }

    #[test]
    fn stats_reflect_the_dispatch() {
        let cfg = forced(4).grain(1);
        let (_, stats) = run(&cfg, 64, |i| i);
        assert_eq!(stats.items, 64);
        assert_eq!(stats.requested_threads, 4);
        assert_eq!(stats.workers_spawned, 4);
        assert!(!stats.inline);
        assert_eq!(stats.per_worker_items.iter().sum::<usize>(), 64);
        assert_eq!(
            stats.per_worker_chunks.iter().sum::<usize>(),
            stats.plan.len()
        );
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
        let _ = run(&forced(4).grain(1), 8, |i| {
            if i == 3 {
                panic!("job 3 panicked");
            }
            i
        });
    }
}
