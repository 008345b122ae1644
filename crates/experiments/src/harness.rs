//! Shared experiment plumbing.
//!
//! The paper reports each bar as "the mean of five trials" (ten for the
//! map and web applications) with 90% confidence intervals. A [`Trials`]
//! carries the trial count, master seed, and worker-thread count.
//!
//! Trials are independent by construction — trial `i` of a cell runs on
//! the stream `fork_indexed(label, i)`, a pure function of
//! `(seed, label, i)`, and forking consumes nothing from the master — so
//! [`run_grid`], the one trial fan-out, sends a figure's whole
//! `cells × trials` grid through the [`simcore::par`] work pool in one
//! dispatch and merges results per cell in trial order. The parallel run
//! is byte-identical to the serial one at any thread count
//! (`tests/parallel_equivalence.rs` pins this).
//!
//! A trial is a batch run: each figure's job builds a machine and calls
//! [`Machine::run`](machine::Machine::run) on it. Only the always-on
//! `serve` mode wraps a machine in a [`simserve::Session`].

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

    /// The paper's trial count for the map and web applications: ten
    /// trials, twice the video and speech count, so twice whatever the
    /// caller asked for.
    pub fn doubled(self) -> Self {
        Trials {
            n: self.n * 2,
            ..self
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

/// Runs `job(cell, i)` for trial `i` of every cell, as one pool
/// dispatch over all `cells.len() × trials.n` runs, and returns the
/// results grouped per cell, in trial order.
///
/// This is the fan-out every trial sweep shares. Each run must be a pure
/// function of its cell and trial index — in practice its random stream
/// is forked from the master seed by `(label, i)` inside the job, and
/// forking consumes nothing from the master — so neither the grid's
/// shape nor the execution order can perturb the draws any run sees, and
/// the output is byte-identical at every thread count.
///
/// Runs are few and expensive with skewed costs (a run that adapts often
/// runs much longer than one that coasts); the pool claims one run at a
/// time, so a worker stuck on a long run never holds undone runs
/// hostage. Every result is held until the merge, so a job that can
/// reduce its run to plain data before returning it should.
///
/// # Panics
///
/// Panics if `trials.n` is zero: a cell with no trials has no statistics
/// (the CLI rejects `--trials 0`). Panics in a job propagate.
pub fn run_grid<C, R>(
    trials: &Trials,
    cells: &[C],
    job: impl Fn(&C, usize) -> R + Sync,
) -> Vec<Vec<R>>
where
    C: Sync,
    R: Send,
{
    let n = trials.n;
    assert!(
        n > 0,
        "run_grid: Trials::n is 0; every cell needs at least one trial"
    );
    let runs = simcore::par::map_indexed(trials.threads, cells.len() * n, |j| {
        job(&cells[j / n], j % n)
    });
    let mut runs = runs.into_iter();
    cells
        .iter()
        .map(|_| runs.by_ref().take(n).collect())
        .collect()
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
    use machine::{Machine, MachineConfig, RunReport};
    use simcore::{SimDuration, SimRng, TrialStats};

    fn build_idle(_rng: &mut SimRng) -> Machine {
        let mut m = Machine::new(MachineConfig::baseline());
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(2),
        )));
        m
    }

    fn energy_stats(reports: &[RunReport]) -> TrialStats {
        let totals: Vec<f64> = reports.iter().map(|r| r.total_j.0).collect();
        TrialStats::from_values(&totals)
    }

    /// Idle runs over `cells`, trial `i` of a cell on
    /// `fork_indexed(cell, i)` as the figures fork them.
    fn idle_grid(trials: &Trials, cells: &[&str]) -> Vec<Vec<RunReport>> {
        let root = SimRng::new(trials.seed);
        run_grid(trials, cells, |cell, i| {
            build_idle(&mut root.fork_indexed(cell, i as u64)).run()
        })
    }

    #[test]
    fn grid_produces_n_reports_per_cell() {
        let reports = idle_grid(&Trials::quick(), &["t", "u"]);
        assert_eq!(reports.len(), 2);
        for cell in &reports {
            assert_eq!(cell.len(), 2);
            let stats = energy_stats(cell);
            assert!((stats.mean - 2.0 * 10.28).abs() < 0.1);
            assert!(stats.sd < 0.01, "idle runs are deterministic");
        }
    }

    #[test]
    fn trials_are_reproducible() {
        let a = energy_stats(&idle_grid(&Trials::default(), &["x"])[0]);
        let b = energy_stats(&idle_grid(&Trials::default(), &["x"])[0]);
        assert_eq!(a.mean, b.mean);
    }

    /// Regression: trial `i` sees the same random stream no
    /// matter how many trials run alongside it — adding trials (or
    /// parallelism) must never shift an existing trial's draws.
    #[test]
    fn trial_streams_independent_of_trial_count() {
        let few = idle_grid(
            &Trials {
                n: 2,
                ..Trials::default()
            },
            &["ind"],
        );
        let many = idle_grid(
            &Trials {
                n: 5,
                ..Trials::default()
            },
            &["ind"],
        );
        for (i, (a, b)) in few[0].iter().zip(&many[0]).enumerate() {
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
        let serial = format!("{:?}", idle_grid(&Trials::default(), &["par"]));
        for threads in [2, 4, 8] {
            let par = idle_grid(&Trials::default().with_threads(threads), &["par"]);
            assert_eq!(serial, format!("{par:?}"), "differs at threads={threads}");
        }
    }

    /// The grid comes back cell-major with each cell's runs in trial
    /// order, and is byte-identical at every thread count.
    #[test]
    fn grid_is_cell_major_in_trial_order_at_every_thread_count() {
        let cells = ["a", "b", "c"];
        let trials = Trials {
            n: 4,
            ..Trials::default()
        };
        let root = SimRng::new(trials.seed);
        let job = |cell: &&str, i: usize| {
            let draw = root.fork_indexed(cell, i as u64).uniform_u64(0, u64::MAX);
            (cell.to_string(), i, draw)
        };
        let serial = run_grid(&trials, &cells, job);
        assert_eq!(serial.len(), cells.len());
        for (cell, runs) in cells.iter().zip(&serial) {
            let coords: Vec<(&str, usize)> =
                runs.iter().map(|(c, i, _)| (c.as_str(), *i)).collect();
            let expected: Vec<(&str, usize)> = (0..trials.n).map(|i| (*cell, i)).collect();
            assert_eq!(coords, expected);
        }
        for threads in [1, 2, 8] {
            assert_eq!(
                serial,
                run_grid(&trials.with_threads(threads), &cells, job),
                "grid differs at threads={threads}"
            );
        }
    }

    /// A grid with no trials per cell has no statistics to report: it is
    /// rejected up front instead of dividing by zero downstream.
    #[test]
    #[should_panic(expected = "Trials::n is 0")]
    fn grid_rejects_zero_trials() {
        let trials = Trials {
            n: 0,
            ..Trials::default()
        };
        run_grid(&trials, &["cell"], |_, i| i);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Trials::default().with_threads(0).threads, 1);
        assert_eq!(Trials::default().with_threads(6).threads, 6);
    }

    #[test]
    fn doubled_doubles_only_the_trial_count() {
        let t = Trials::quick().with_threads(3).doubled();
        assert_eq!((t.n, t.seed, t.threads), (4, 42, 3));
    }

    #[test]
    fn saving_pct_basics() {
        assert!((saving_pct(100.0, 90.0) - 10.0).abs() < 1e-12);
        assert_eq!(saving_pct(0.0, 5.0), 0.0);
        assert!(saving_pct(100.0, 120.0) < 0.0);
    }
}
