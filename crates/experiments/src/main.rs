#![forbid(unsafe_code)]
//! `odyssey-experiments`: regenerate the paper's tables and figures.
//!
//! ```text
//! odyssey-experiments [--trials N] [--seed S] [--quick] [--threads T]
//!                     [--out DIR] [IDS...]
//! ```
//!
//! With `--out DIR`, each figure's rendering is also written to
//! `DIR/<id>.txt` (the source material for EXPERIMENTS.md).
//!
//! `IDS` are figure identifiers (the ids of `experiments::FIGURES`, from
//! `fig2` to `supervise`) or `all` (the default). `--quick` runs two
//! trials per data point instead of five.
//!
//! `--threads` sets the worker-thread count for the deterministic fan-out
//! (default: all available cores). Output is byte-identical at any value;
//! use `--threads 1` to bisect a suspected parallelism bug.
//!
//! Three extra verbs (not part of `all`):
//! `golden --check` renders every golden file under `tests/golden/` —
//! each canonical scenario's JSONL trace and per-call-path energy
//! table, plus the cross-seed digest matrix — and exits non-zero
//! naming the first diverging line or every drifted path, saving fresh
//! copies of failing files to `target/golden/<kind>/`; `golden --rec`
//! rewrites them after an intentional behavior change (review the
//! result with `git diff tests/golden/`);
//! `serve` replays the longest golden trace through an always-on
//! session at `--multiple` density, kills it at a mid-run checkpoint,
//! resumes, and exits non-zero on any digest or trace divergence
//! (writing the report to `target/serve/divergence.txt`);
//! `fuzz` drives seeded hostile mutations of a golden stream through
//! isolated sessions and exits non-zero on any panic.
//!
//! Timing figures is perfbench's job (`perfbench/README.md`); this CLI
//! only prints each figure's wall time as a progress line.

use experiments::{harness::Trials, *};

/// Default replay multiple for the `serve` verb (the CI soak passes 1000).
const SERVE_MULTIPLE: u32 = 1;

/// Default seeded hostile streams for the `fuzz` verb (the CI soak's
/// floor; `--streams` raises it).
const FUZZ_STREAMS: usize = 1000;

fn usage() -> ! {
    eprintln!(
        "usage: odyssey-experiments [--trials N] [--seed S] [--quick] [--threads T] [--multiple M] [--scenario NAME] [--sessions N] [--streams N] [--out DIR] [IDS...]\n  IDS: {} | all\n  goldens: golden --check (compare every trace, energy table and seed-matrix file against tests/golden/) | golden --rec (rewrite them)\n  serving: serve (replay --scenario golden stream at --multiple density through --sessions isolated sessions; kill, resume by replay and by snapshot, fail on divergence)\n  fuzzing: fuzz (drive --streams seeded hostile mutations of the golden stream through isolated sessions; fail on any panic, unsurfaced error, or unstable recovery digest)",
        FIGURES.map(|(id, _)| id).join(" ")
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

#[expect(
    clippy::disallowed_methods,
    reason = "the CLI prints per-figure wall time for the operator; figure bytes come from the deterministic render alone"
)]
fn main() {
    let mut trials = Trials::default().with_threads(simcore::par::available_threads());
    let mut multiple = SERVE_MULTIPLE;
    let mut scenario = serve::REPLAY_SCENARIO.to_string();
    let mut sessions = 1usize;
    let mut streams = FUZZ_STREAMS;
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut check = false;
    let mut rec = false;
    let mut inflate_decode: Option<f64> = None;
    let mut args = std::env::args().skip(1);
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
                let threads: usize = t.parse().unwrap_or_else(|_| usage());
                if threads == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
                trials = trials.with_threads(threads);
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
            "--check" => check = true,
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
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    // Reject flags that would otherwise be silently ignored: an inflated
    // `golden --rec` would commit inflated goldens.
    let golden_verb = ids.iter().any(|i| i == "golden");
    for (set, flag) in [(check, "--check"), (rec, "--rec")] {
        if set && !golden_verb {
            eprintln!("{flag} applies only to the golden verb");
            usage();
        }
    }
    if inflate_decode.is_some() && !(golden_verb && check && !rec) {
        eprintln!("--inflate-decode applies only to golden --check");
        std::process::exit(2);
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = FIGURES.iter().map(|(id, _)| id.to_string()).collect();
    }

    // Special verbs run serially, outside the figure fan-out.
    ids.retain(|id| match id.as_str() {
        "golden" => {
            let dir = tracerec::golden_dir();
            let result = match (check, rec) {
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
    let figures: Vec<(&str, Render)> = ids
        .iter()
        .map(|id| {
            FIGURES
                .into_iter()
                .find(|(name, _)| name == id)
                .unwrap_or_else(|| {
                    eprintln!("unknown experiment: {id}");
                    usage()
                })
        })
        .collect();

    // Fan the figures out across workers; print in request order. Each
    // figure's own trial fan-out shares the same thread budget, so the
    // pool is never oversubscribed by more than one scope level.
    let outputs = simcore::par::map(trials.threads, &figures, |_, (_, render)| {
        let sw = bench::Stopwatch::start();
        let output = render(&trials);
        (output, sw.elapsed_s())
    });
    for ((id, _), (output, elapsed_s)) in figures.iter().zip(&outputs) {
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
