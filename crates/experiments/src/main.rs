#![forbid(unsafe_code)]
//! `odyssey-experiments`: regenerate the paper's tables and figures.
//!
//! ```text
//! odyssey-experiments [--trials N] [--seed S] [--quick] [--threads T[,T...]]
//!                     [--reps R] [--out DIR] [IDS...]
//! ```
//!
//! With `--out DIR`, each figure's rendering is also written to
//! `DIR/<id>.txt` (the source material for EXPERIMENTS.md).
//!
//! `IDS` are figure identifiers (`fig2 fig4 fig6 fig8 fig10 fig11 fig13
//! fig14 fig15 fig16 fig18 fig19 fig20 fig21 fig22 sec54 headline`) or
//! `all` (the default). `--quick` runs two trials per data point instead
//! of five.
//!
//! `--threads` sets the worker-thread count for the deterministic fan-out
//! (default: all available cores). Output is byte-identical at any value;
//! use `--threads 1` to bisect a suspected parallelism bug. For the
//! `bench` verb it may be a comma list of counts to sweep.
//!
//! Four extra verbs (not part of `all`):
//! `golden --check` renders every golden file under `tests/golden/` —
//! each canonical scenario's JSONL trace and per-call-path energy
//! table, plus the cross-seed digest matrix — and exits non-zero
//! naming the first diverging line or every drifted path, saving fresh
//! copies of failing files to `target/golden/<kind>/`; `golden --rec`
//! rewrites them after an intentional behavior change (review the
//! result with `git diff tests/golden/`);
//! `bench` times the canonical scenarios across thread counts (`--reps`
//! repetitions each), verifies parallel output digests match serial,
//! and writes `BENCH_sweep.json` (with `--check [BASELINE.json]` it
//! also fails when any scenario's speedup drops more than `--tolerance`
//! below the committed sweep, default `results/BENCH_sweep.json` at
//! 0.30);
//! `serve` replays the longest golden trace through an always-on
//! session at `--multiple` density, kills it at a mid-run checkpoint,
//! resumes, and exits non-zero on any digest or trace divergence
//! (writing the report to `target/serve/divergence.txt`);
//! `fuzz` drives seeded hostile mutations of a golden stream through
//! isolated sessions and exits non-zero on any panic.

use experiments::{benchcli, harness::Trials, *};

const ALL: [&str; 20] = [
    "fig2",
    "fig4",
    "fig6",
    "fig8",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "sec54",
    "headline",
    "ablate",
    "chaos",
    "supervise",
];

/// Default thread counts the `bench` verb sweeps.
const BENCH_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Default timed repetitions per `bench` cell.
const BENCH_REPS: usize = 3;

/// Default slack for `bench --check`: a scenario's speedup may fall this
/// far below the committed baseline before the gate fails. Speedups are
/// ratios, so the band is machine-portable; it only needs to absorb
/// scheduler noise, not absolute-speed differences between hosts.
const BENCH_TOLERANCE: f64 = 0.30;

/// Default replay multiple for the `serve` verb (the CI soak passes 1000).
const SERVE_MULTIPLE: u32 = 1;

/// Default seeded hostile streams for the `fuzz` verb (the CI soak's
/// floor; `--streams` raises it).
const FUZZ_STREAMS: usize = 1000;

fn usage() -> ! {
    eprintln!(
        "usage: odyssey-experiments [--trials N] [--seed S] [--quick] [--threads T[,T...]] [--reps R] [--multiple M] [--scenario NAME] [--sessions N] [--streams N] [--out DIR] [IDS...]\n  IDS: {} | all\n  goldens: golden --check (compare every trace, energy table and seed-matrix file against tests/golden/) | golden --rec (rewrite them)\n  benchmarks: bench (time scenarios across --threads counts, write BENCH_sweep.json; --check [BASELINE.json] fails on speedups more than --tolerance below the committed sweep)\n  serving: serve (replay --scenario golden stream at --multiple density through --sessions isolated sessions; kill, resume by replay and by snapshot, fail on divergence)\n  fuzzing: fuzz (drive --streams seeded hostile mutations of the golden stream through isolated sessions; fail on any panic, unsurfaced error, or unstable recovery digest)",
        ALL.join(" ")
    );
    std::process::exit(2)
}

#[expect(
    clippy::disallowed_methods,
    reason = "reports wall-clock duration of the serve torture run for the operator; the timing never feeds a simulation result"
)]
fn run_serve_verb(seed: u64, multiple: u32, scenario: &str, sessions: usize, threads: usize) {
    let sw = bench::Stopwatch::start();
    match serve::run_verb(seed, multiple, scenario, sessions, threads) {
        Ok(summary) => {
            print!("{summary}");
            eprintln!("[serve completed in {:.1}s]", sw.elapsed_s());
        }
        Err(report) => {
            eprintln!("{report}");
            let dir = std::path::PathBuf::from("target/serve");
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = dir.join("divergence.txt");
                if std::fs::write(&path, format!("{report}\n")).is_ok() {
                    eprintln!("serve: divergence report saved to {}", path.display());
                }
            }
            std::process::exit(1);
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "reports wall-clock duration of the fuzz run for the operator; the timing never feeds a simulation result"
)]
fn run_fuzz_verb(seed: u64, streams: usize, threads: usize, scenario: &str) {
    let sw = bench::Stopwatch::start();
    match fuzz::run_verb(seed, streams, threads, scenario) {
        Ok(summary) => {
            print!("{summary}");
            eprintln!("[fuzz completed in {:.1}s]", sw.elapsed_s());
        }
        Err(failure) => {
            eprintln!("{}", failure.report);
            let dir = std::path::PathBuf::from("target/fuzz");
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = dir.join("failure.txt");
                if std::fs::write(&path, format!("{}\n", failure.report)).is_ok() {
                    eprintln!("fuzz: failure report saved to {}", path.display());
                }
                // Reconstruct the failing stream and the surviving
                // state so CI can archive a reproducer.
                if let Some(i) = failure.stream {
                    if let Ok((text, snap)) = fuzz::failure_artifacts(seed, scenario, i) {
                        let sp = dir.join(format!("stream{i}.txt"));
                        if std::fs::write(&sp, text).is_ok() {
                            eprintln!("fuzz: failing stream saved to {}", sp.display());
                        }
                        if let Some(bytes) = snap {
                            let bp = dir.join(format!("stream{i}.snapshot"));
                            if std::fs::write(&bp, bytes).is_ok() {
                                eprintln!("fuzz: surviving snapshot saved to {}", bp.display());
                            }
                        }
                    }
                }
            }
            std::process::exit(1);
        }
    }
}

fn render(id: &str, trials: &Trials) -> String {
    match id {
        "fig2" => fig2::render(trials),
        "fig4" => fig4::render(),
        "fig6" => fig6::render(trials),
        "fig8" => fig8::render(trials),
        "fig10" => fig10::render(trials),
        "fig11" => fig11::render(trials),
        "fig13" => fig13::render(trials),
        "fig14" => fig14::render(trials),
        "fig15" => fig15::render(trials),
        "fig16" => fig16::render(trials),
        "fig18" => fig18::render(trials),
        "fig19" => fig19::render(trials),
        "fig20" => fig20::render(trials),
        "fig21" => fig21::render(trials),
        "fig22" => fig22::render(trials),
        "sec54" => sec54::render(trials),
        "headline" => headline::render(trials),
        "ablate" => ablate::render(trials),
        "chaos" => chaos::render(trials),
        "supervise" => supervise::render(trials),
        other => {
            eprintln!("unknown experiment: {other}");
            usage()
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the bench verb exists to time real execution; wall-clock reach is its contract, and it stops at this boundary"
)]
fn run_bench_verb(
    trials: &Trials,
    thread_counts: &[usize],
    reps: usize,
    out: Option<&std::path::Path>,
    check: Option<&std::path::Path>,
    tolerance: f64,
) {
    let sw = bench::Stopwatch::start();
    let outcome = benchcli::run_sweep(trials, thread_counts, reps);
    print!("{}", bench::sweep::render_sweep_table(&outcome.records));
    let json = bench::sweep::render_sweep_json(&outcome.records);
    let path = out
        .map(|d| d.join("BENCH_sweep.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_sweep.json"));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    eprintln!(
        "[bench completed in {:.1}s, wrote {}]",
        sw.elapsed_s(),
        path.display()
    );
    if !outcome.divergent.is_empty() {
        eprintln!(
            "DETERMINISM FAILURE: parallel output diverged from serial: {}",
            outcome.divergent.join(", ")
        );
        std::process::exit(1);
    }
    if let Some(baseline_path) = check {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "bench --check: cannot read {}: {e}",
                    baseline_path.display()
                );
                std::process::exit(2);
            }
        };
        let baseline = match bench::sweep::parse_sweep_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "bench --check: cannot parse {}: {e}",
                    baseline_path.display()
                );
                std::process::exit(2);
            }
        };
        let regressions = bench::sweep::speedup_regressions(&outcome.records, &baseline, tolerance);
        if !regressions.is_empty() {
            eprintln!(
                "SPEEDUP REGRESSION vs {} (tolerance {tolerance:.2}):",
                baseline_path.display()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "[bench check OK: no speedup regression vs {} within tolerance {tolerance:.2}]",
            baseline_path.display()
        );
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the CLI prints per-figure wall time for the operator; figure bytes come from the deterministic render alone"
)]
fn main() {
    let mut trials = Trials::default().with_threads(simcore::par::available_threads());
    let mut thread_counts: Option<Vec<usize>> = None;
    let mut reps = BENCH_REPS;
    let mut multiple = SERVE_MULTIPLE;
    let mut scenario = serve::REPLAY_SCENARIO.to_string();
    let mut sessions = 1usize;
    let mut streams = FUZZ_STREAMS;
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut check: Option<std::path::PathBuf> = None;
    let mut tolerance = BENCH_TOLERANCE;
    let mut rec = false;
    let mut inflate_decode: Option<f64> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                let n = args.next().unwrap_or_else(|| usage());
                trials.n = n.parse().unwrap_or_else(|_| usage());
                if trials.n == 0 {
                    eprintln!("--trials must be at least 1");
                    std::process::exit(2);
                }
            }
            "--seed" => {
                let s = args.next().unwrap_or_else(|| usage());
                trials.seed = s.parse().unwrap_or_else(|_| usage());
            }
            "--threads" => {
                let t = args.next().unwrap_or_else(|| usage());
                let counts: Vec<usize> = t
                    .split(',')
                    .map(|p| p.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if counts.is_empty() || counts.contains(&0) {
                    eprintln!("--threads wants positive counts (e.g. 4 or 1,2,4,8)");
                    std::process::exit(2);
                }
                thread_counts = Some(counts);
            }
            "--reps" => {
                let r = args.next().unwrap_or_else(|| usage());
                reps = r.parse().unwrap_or_else(|_| usage());
                if reps == 0 {
                    eprintln!("--reps must be at least 1");
                    std::process::exit(2);
                }
            }
            "--multiple" => {
                let m = args.next().unwrap_or_else(|| usage());
                multiple = m.parse().unwrap_or_else(|_| usage());
                if multiple == 0 {
                    eprintln!("--multiple must be at least 1");
                    std::process::exit(2);
                }
            }
            "--scenario" => {
                scenario = args.next().unwrap_or_else(|| usage());
            }
            "--sessions" => {
                let n = args.next().unwrap_or_else(|| usage());
                sessions = n.parse().unwrap_or_else(|_| usage());
                if sessions == 0 {
                    eprintln!("--sessions must be at least 1");
                    std::process::exit(2);
                }
            }
            "--streams" => {
                let n = args.next().unwrap_or_else(|| usage());
                streams = n.parse().unwrap_or_else(|_| usage());
                if streams == 0 {
                    eprintln!("--streams must be at least 1");
                    std::process::exit(2);
                }
            }
            "--out" => {
                let d = args.next().unwrap_or_else(|| usage());
                out_dir = Some(std::path::PathBuf::from(d));
            }
            "--check" => {
                // The baseline path is optional: a following `.json`
                // argument names it, otherwise the committed sweep is
                // the reference.
                let path = match args.peek() {
                    Some(p) if p.ends_with(".json") => args.next().unwrap_or_else(|| usage()),
                    _ => "results/BENCH_sweep.json".to_string(),
                };
                check = Some(std::path::PathBuf::from(path));
            }
            "--tolerance" => {
                let t = args.next().unwrap_or_else(|| usage());
                tolerance = t.parse().unwrap_or_else(|_| usage());
                if !tolerance.is_finite() || tolerance < 0.0 {
                    eprintln!("--tolerance wants a finite non-negative speedup delta");
                    std::process::exit(2);
                }
            }
            "--rec" => rec = true,
            // Undocumented test hook: scales the video decode block so
            // the energy gate's negative path is exercisable from the
            // CLI (CI's negative control drives it).
            "--inflate-decode" => {
                let r = args.next().unwrap_or_else(|| usage());
                let ratio: f64 = r.parse().unwrap_or_else(|_| usage());
                if !ratio.is_finite() || ratio <= 0.0 {
                    eprintln!("--inflate-decode wants a finite positive ratio");
                    std::process::exit(2);
                }
                inflate_decode = Some(ratio);
            }
            "--quick" => trials = Trials { n: 2, ..trials },
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }
    // Regular runs use one thread count; `bench` sweeps the whole list.
    if let Some(counts) = &thread_counts {
        trials = trials.with_threads(*counts.iter().max().unwrap_or(&1));
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    // Reject flags that would otherwise be silently ignored: an inflated
    // `golden --rec` would commit inflated goldens.
    let golden_verb = ids.iter().any(|i| i == "golden");
    if rec && !golden_verb {
        eprintln!("--rec applies only to the golden verb");
        std::process::exit(2);
    }
    if inflate_decode.is_some() && !(golden_verb && check.is_some() && !rec) {
        eprintln!("--inflate-decode applies only to golden --check");
        std::process::exit(2);
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }

    // Special verbs run serially, outside the figure fan-out.
    ids.retain(|id| match id.as_str() {
        "golden" => {
            let dir = tracerec::golden_dir();
            let result = match (check.is_some(), rec) {
                (true, false) => golden::check(&dir, inflate_decode.unwrap_or(1.0), trials.threads),
                (false, true) => golden::record(&dir, trials.threads),
                _ => {
                    eprintln!("golden wants exactly one of --check or --rec");
                    usage()
                }
            };
            match result {
                Ok(summary) => print!("{summary}"),
                Err(report) => {
                    eprintln!("{report}");
                    std::process::exit(1);
                }
            }
            false
        }
        "bench" => {
            run_bench_verb(
                &trials,
                thread_counts.as_deref().unwrap_or(&BENCH_THREADS),
                reps,
                out_dir.as_deref(),
                check.as_deref(),
                tolerance,
            );
            false
        }
        "serve" => {
            run_serve_verb(trials.seed, multiple, &scenario, sessions, trials.threads);
            false
        }
        "fuzz" => {
            run_fuzz_verb(trials.seed, streams, trials.threads, &scenario);
            false
        }
        _ => true,
    });

    // Validate before spending any simulation time.
    for id in &ids {
        if !ALL.contains(&id.as_str()) {
            eprintln!("unknown experiment: {id}");
            usage();
        }
    }

    // Fan the figures out across workers; print in request order. Each
    // figure's own trial fan-out shares the same thread budget, so the
    // pool is never oversubscribed by more than one scope level.
    let outputs = simcore::par::map(trials.threads, &ids, |_, id| {
        let sw = bench::Stopwatch::start();
        let output = render(id, &trials);
        (output, sw.elapsed_s())
    });
    for (id, (output, elapsed_s)) in ids.iter().zip(&outputs) {
        println!("{output}");
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{id}.txt"));
            if let Err(e) = std::fs::write(&path, output) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        eprintln!("[{id} completed in {elapsed_s:.1}s]");
    }
}
