//! Shared experiment plumbing.
//!
//! The paper reports each bar as "the mean of five trials" (ten for the
//! map and web applications) with 90% confidence intervals. A [`Trials`]
//! carries the trial count, master seed, and worker-thread count;
//! [`run_trials`] executes a machine-builder closure once per trial with
//! a trial-specific random stream and reduces the reports.
//!
//! Trials are independent by construction — trial `i`'s stream is a pure
//! function of `(seed, label, i)`, forked *before* any trial runs — so
//! [`run_trials`] fans them out through the [`simcore::par`] work pool
//! and merges reports in trial order. The parallel run is byte-identical
//! to the serial one at any thread count (`tests/parallel_equivalence.rs`
//! pins this).
//!
//! Every trial executes through the [`simserve::Session`] batch API
//! ([`Session::adopt`]), so the harness and the always-on `serve` mode
//! share one engine: a batch trial is just a session nobody reconfigures.

use machine::{Machine, RunReport};
use simcore::{Joules, SimRng, TrialStats};
use simserve::Session;

/// Trial configuration for an experiment.
#[derive(Clone, Copy, Debug)]
pub struct Trials {
    /// Number of repetitions per data point.
    pub n: usize,
    /// Master seed; trial `i` runs with stream `fork_indexed(label, i)`.
    pub seed: u64,
    /// Worker threads for trial/cell fan-out (1 = serial; results are
    /// byte-identical at any value).
    pub threads: usize,
}

impl Default for Trials {
    fn default() -> Self {
        Trials {
            n: 5,
            seed: 42,
            threads: 1,
        }
    }
}

impl Trials {
    /// A quick configuration for tests and benches: two trials.
    pub fn quick() -> Self {
        Trials {
            n: 2,
            ..Trials::default()
        }
    }

    /// A single deterministic trial (traces, profiles).
    pub fn single() -> Self {
        Trials {
            n: 1,
            ..Trials::default()
        }
    }

    /// The same configuration fanned out over `threads` workers.
    pub fn with_threads(self, threads: usize) -> Self {
        Trials {
            threads: threads.max(1),
            ..self
        }
    }
}

/// Runs `build` once per trial and returns all reports, in trial order.
///
/// `label` isolates this experiment's random streams from others sharing
/// the master seed. Every trial stream is forked *up front* from the
/// master — a pure function of `(seed, label, i)` — so neither the trial
/// count nor the execution order (serial or parallel) can perturb the
/// draws any trial sees.
///
/// Trials are few and expensive with skewed costs (a trial that adapts
/// often runs much longer than one that coasts), so the pool is pinned
/// to grain 1: each chunk is a single trial, and a worker stuck on a
/// long trial never holds undone trials hostage.
#[expect(
    clippy::expect_used,
    reason = "first run of a fresh session cannot fail"
)]
pub fn run_trials(
    trials: &Trials,
    label: &str,
    build: impl Fn(&mut SimRng) -> Machine + Sync,
) -> Vec<RunReport> {
    let root = SimRng::new(trials.seed);
    // Hoisted fork: all per-trial streams exist before any trial runs.
    let streams: Vec<SimRng> = (0..trials.n)
        .map(|i| root.fork_indexed(label, i as u64))
        .collect();
    let cfg = simcore::par::PoolConfig::new(trials.threads).grain(1);
    simcore::par::map_stats(&cfg, &streams, |_, stream| {
        let mut rng = stream.clone();
        let machine = build(&mut rng);
        #[expect(
            clippy::expect_used,
            reason = "adopt/run on a fresh session cannot fail"
        )]
        let mut session = Session::adopt(machine).expect("adopt fresh machine");
        session.run_to_completion().expect("run adopted session")
    })
    .0
}

/// Total-energy statistics over a set of reports.
pub fn energy_stats(reports: &[RunReport]) -> TrialStats {
    let values: Vec<f64> = reports.iter().map(|r| r.total_j.0).collect();
    TrialStats::from_values(&values)
}

/// Mean energy attributed to `bucket` across reports.
pub fn mean_bucket_j(reports: &[RunReport], bucket: &str) -> Joules {
    reports.iter().map(|r| r.bucket_j(bucket)).sum::<Joules>() / reports.len() as f64
}

/// Mean display energy across reports (for zoned-backlight projection).
pub fn mean_display_j(reports: &[RunReport]) -> Joules {
    reports
        .iter()
        .map(|r| r.components.display_j)
        .sum::<Joules>()
        / reports.len() as f64
}

/// Percentage saving of `new` relative to `old`.
pub fn saving_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (1.0 - new / old) * 100.0
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use machine::MachineConfig;
    use simcore::SimDuration;

    fn build_idle(_rng: &mut SimRng) -> Machine {
        let mut m = Machine::new(MachineConfig::baseline());
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(2),
        )));
        m
    }

    #[test]
    fn run_trials_produces_n_reports() {
        let reports = run_trials(&Trials::quick(), "t", build_idle);
        assert_eq!(reports.len(), 2);
        let stats = energy_stats(&reports);
        assert!((stats.mean - 2.0 * 10.28).abs() < 0.1);
        assert!(stats.sd < 0.01, "idle runs are deterministic");
    }

    #[test]
    fn trials_are_reproducible() {
        let a = energy_stats(&run_trials(&Trials::default(), "x", build_idle));
        let b = energy_stats(&run_trials(&Trials::default(), "x", build_idle));
        assert_eq!(a.mean, b.mean);
    }

    /// Regression (fork hoist): trial `i` sees the same random stream no
    /// matter how many trials run alongside it — adding trials (or
    /// parallelism) must never shift an existing trial's draws.
    #[test]
    fn trial_streams_independent_of_trial_count() {
        let few = run_trials(
            &Trials {
                n: 2,
                ..Trials::default()
            },
            "ind",
            build_idle,
        );
        let many = run_trials(
            &Trials {
                n: 5,
                ..Trials::default()
            },
            "ind",
            build_idle,
        );
        for (i, (a, b)) in few.iter().zip(many.iter()).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "trial {i} drifted when n grew from 2 to 5"
            );
        }
    }

    /// The parallel fan-out merges in trial order: reports are
    /// byte-identical to the serial run at every thread count.
    #[test]
    fn parallel_reports_match_serial() {
        let serial = run_trials(&Trials::default(), "par", build_idle);
        for threads in [2, 4, 8] {
            let par = run_trials(&Trials::default().with_threads(threads), "par", build_idle);
            assert_eq!(serial.len(), par.len());
            for (i, (a, b)) in serial.iter().zip(par.iter()).enumerate() {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "trial {i} differs at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Trials::default().with_threads(0).threads, 1);
        assert_eq!(Trials::default().with_threads(6).threads, 6);
    }

    #[test]
    fn saving_pct_basics() {
        assert!((saving_pct(100.0, 90.0) - 10.0).abs() < 1e-12);
        assert_eq!(saving_pct(0.0, 5.0), 0.0);
        assert!(saving_pct(100.0, 120.0) < 0.0);
    }

    #[test]
    fn bucket_mean() {
        let reports = run_trials(&Trials::quick(), "b", build_idle);
        let idle = mean_bucket_j(&reports, "Idle");
        assert!((idle - Joules(2.0 * 10.28)).abs() < Joules(0.1));
        assert_eq!(mean_bucket_j(&reports, "none"), Joules(0.0));
    }
}
