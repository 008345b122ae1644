//! The `bench` CLI verb: thread-scaling sweep over canonical scenarios.
//!
//! Five scenarios spanning the workload spectrum are timed at each
//! requested worker-thread count:
//!
//! | id        | workload                                                |
//! |-----------|---------------------------------------------------------|
//! | fig2      | one PowerScope profiling session (inherently serial)    |
//! | fig16     | web sweep at one think time (one wide cell fan-out)     |
//! | goal      | one hardened composite goal run (inherently serial)     |
//! | supervise | supervised/unsupervised k=2 pair (trial-flattened fan)  |
//! | serve     | always-on session replaying the supervise golden trace (sustained directive throughput, inherently serial) |
//!
//! Besides timing, every parallel run's output digest is checked against
//! the serial digest of the same scenario — the bench doubles as the
//! determinism gate CI runs on multi-core machines, where a merge-order
//! bug would actually have room to express itself.

use bench::sweep::{time_reps, BenchRecord};
use simcore::SnapshotHasher;

use crate::harness::Trials;
use crate::{fig16, fig2, serve, supervise, tracerec};

/// Scenario identifiers the sweep times, in run order.
pub const SCENARIOS: [&str; 5] = ["fig2", "fig16", "goal", "supervise", "serve"];

/// Runs one scenario at the given trial configuration and returns a
/// digest of its complete output. Byte-identical output ⇒ equal digest.
pub fn digest(scenario: &str, trials: &Trials) -> u64 {
    let mut h = SnapshotHasher::new();
    match scenario {
        "fig2" => h.write_bytes(fig2::render(trials).as_bytes()),
        "fig16" => {
            let f = fig16::run_with_thinks(trials, &[5.0]);
            h.write_bytes(format!("{f:?}").as_bytes());
        }
        "goal" => {
            // The golden-trace goal scenario: a single machine, so the
            // sweep also shows where parallelism has nothing to offer.
            let lines = tracerec::record("goal", trials.seed)
                .unwrap_or_else(|e| panic!("bench goal scenario: {e}"));
            for line in lines {
                h.write_bytes(line.as_bytes());
            }
        }
        "supervise" => {
            let s = supervise::run_sweep(trials, &[2]);
            h.write_bytes(format!("{:?}", s.cells).as_bytes());
        }
        "serve" => {
            // Sustained stepping through the service API: one session
            // replaying the supervise golden schedule. Inherently
            // serial, like `goal` — the sweep shows the step API adds
            // no scaling artifact.
            let samples =
                serve::schedule(1).unwrap_or_else(|e| panic!("bench serve scenario: {e}"));
            let run = serve::replay(trials.seed, &samples)
                .unwrap_or_else(|e| panic!("bench serve scenario: {e}"));
            h.write_u64(run.final_digest);
            h.write_u64(run.directives as u64);
            for line in &run.trace {
                h.write_bytes(line.as_bytes());
            }
        }
        other => panic!("unknown bench scenario: {other} (have {SCENARIOS:?})"),
    }
    h.finish()
}

/// A completed sweep: the measurements plus any determinism violations.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// One record per (scenario, thread count), scenario-major.
    pub records: Vec<BenchRecord>,
    /// `scenario@threads` entries whose output digest diverged from the
    /// serial run — non-empty means the parallel merge is broken.
    pub divergent: Vec<String>,
}

/// Times every scenario at every thread count (`reps` timed repetitions
/// each, after a warm-up) and cross-checks parallel digests against
/// serial. Thread count 1 is always measured first as the speedup
/// baseline, even if absent from `thread_counts`.
#[expect(
    clippy::disallowed_methods,
    reason = "the bench sweep times real execution by design; wall-clock reach stops here, no simulation result depends on it"
)]
pub fn run_sweep(trials: &Trials, thread_counts: &[usize], reps: usize) -> SweepOutcome {
    let mut counts: Vec<usize> = thread_counts.to_vec();
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    counts.sort_unstable();
    counts.dedup();

    let mut records = Vec::new();
    let mut divergent = Vec::new();
    for scenario in SCENARIOS {
        // The serve scenario has a countable unit of work: directives
        // issued over the replayed stream. The count is a pure function
        // of the seed, so one replay prices every thread count's rows.
        let work_units: Option<u64> = (scenario == "serve").then(|| {
            let samples =
                serve::schedule(1).unwrap_or_else(|e| panic!("bench serve scenario: {e}"));
            let run = serve::replay(trials.seed, &samples)
                .unwrap_or_else(|e| panic!("bench serve scenario: {e}"));
            run.directives as u64
        });
        let serial_digest = digest(scenario, &trials.with_threads(1));
        let mut serial_median_ms = 0.0f64;
        for &threads in &counts {
            let t = trials.with_threads(threads);
            // The divergence-check run doubles as the telemetry probe:
            // bracketing exactly one digest() with reset/snapshot
            // yields the pool's dispatch metadata for this
            // (scenario, threads) cell, untouched by the timing reps.
            simcore::par::telemetry::reset();
            if digest(scenario, &t) != serial_digest {
                divergent.push(format!("{scenario}@{threads}"));
            }
            let pool = simcore::par::telemetry::snapshot();
            let (median_ms, min_ms) = time_reps(reps, || {
                std::hint::black_box(digest(scenario, std::hint::black_box(&t)));
            });
            if threads == 1 {
                serial_median_ms = median_ms;
            }
            records.push(BenchRecord {
                scenario: scenario.to_string(),
                threads,
                reps,
                median_wall_ms: median_ms,
                min_wall_ms: min_ms,
                speedup_vs_serial: if median_ms > 0.0 {
                    serial_median_ms / median_ms
                } else {
                    1.0
                },
                work_per_s: work_units
                    .and_then(|units| (median_ms > 0.0).then(|| units as f64 / (median_ms / 1e3))),
                host_threads: simcore::par::available_threads(),
                pool_dispatches: pool.dispatches,
                pool_inline_runs: pool.inline_runs,
                pool_chunks: pool.chunks,
                pool_workers: pool.workers,
            });
        }
    }
    SweepOutcome { records, divergent }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario digests deterministically, and the digest actually
    /// depends on the seed (i.e. it reflects the run, not a constant).
    #[test]
    fn digests_are_stable_and_seed_sensitive() {
        let t = Trials {
            n: 1,
            seed: 42,
            threads: 1,
        };
        for scenario in SCENARIOS {
            let a = digest(scenario, &t);
            let b = digest(scenario, &t);
            assert_eq!(a, b, "{scenario} digest unstable");
            let other = digest(scenario, &Trials { seed: 43, ..t });
            assert_ne!(a, other, "{scenario} digest ignores the seed");
        }
    }

    /// Parallel digests match serial for every scenario — the in-process
    /// version of the gate CI runs via the bench verb.
    #[test]
    fn parallel_digests_match_serial() {
        let t = Trials {
            n: 2,
            seed: 42,
            threads: 1,
        };
        for scenario in SCENARIOS {
            let serial = digest(scenario, &t);
            for threads in [2, 8] {
                assert_eq!(
                    serial,
                    digest(scenario, &t.with_threads(threads)),
                    "{scenario} diverges at {threads} threads"
                );
            }
        }
    }

    /// The sweep emits scenario-major records with a serial baseline row
    /// and flags no divergence.
    #[test]
    fn sweep_shape() {
        let t = Trials {
            n: 1,
            seed: 42,
            threads: 1,
        };
        let out = run_sweep(&t, &[2], 1);
        assert!(out.divergent.is_empty(), "{:?}", out.divergent);
        assert_eq!(out.records.len(), SCENARIOS.len() * 2);
        for pair in out.records.chunks(2) {
            assert_eq!(pair[0].threads, 1);
            assert_eq!(pair[1].threads, 2);
            assert_eq!(pair[0].scenario, pair[1].scenario);
            assert!((pair[0].speedup_vs_serial - 1.0).abs() < 1e-12);
            // Only the serve rows measure a directive rate, and it is a
            // real (positive, finite) throughput.
            if pair[0].scenario == "serve" {
                for r in pair {
                    let rate = r.work_per_s.expect("serve row without a rate");
                    assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
                }
            } else {
                assert!(pair[0].work_per_s.is_none());
            }
        }
    }
}
