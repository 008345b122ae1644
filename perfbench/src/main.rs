#![forbid(unsafe_code)]
//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|serve|failover --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it reruns the workload untraced and traced (spans
//! around every public call its passes make), prints the
//! time-by-layer table, writes the spans to `perfbench/out/`, and runs
//! the per-layer suite. Human-readable lines go first; the last line of
//! standard output is the JSON result. Any mismatch against a reference
//! exits 1; a setup error exits 2 without a result. See `README.md`.

mod figures;
mod host;
mod inputs;
mod layers;
mod report;
mod serving;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::sweep::median;
use bench::Stopwatch;
use host::Host;
use report::Outcome;
use spans::Tracer;
use stats::Histogram;

/// Replay multiple of the serving stream: ~68k samples, 1060 batches.
const MULTIPLE: u32 = 100;

/// Kill points per failover pass, over both sessions.
const KILLS_PER_PASS: usize = 48;

/// Restores a failover run times at least: a p99 with ten beyond it.
const MIN_RESTORES: usize = 1000;

/// Set-ups timed per run, spread through the run; `setup_s` is the
/// fastest of them.
const SETUP_REPS: usize = 15;

/// Mismatch messages kept for the report.
const MAX_MISMATCHES: usize = 8;

/// How one run is driven. Everything the program under test receives is
/// derived from `seed`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed loop runs (at least one pass).
    pub seconds: f64,
    /// Worker threads for the figure fan-out: every hardware thread.
    pub threads: usize,
    /// Serving-stream replay multiple.
    pub multiple: u32,
    /// Failover kill points per pass.
    pub kills_per_pass: usize,
    /// Failover restores to time before stopping.
    pub min_restores: usize,
    /// Passes whose steps the gated `wall_s` is taken over. The run
    /// makes at least this many, and later passes feed only the
    /// histograms, so the estimator sees the same number of samples
    /// however fast the code under test is.
    pub gated_passes: usize,
}

/// What the timed loop of a workload measured.
#[derive(Clone, Debug, Default)]
pub struct Passes {
    /// Host seconds of each pass.
    pub walls_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or mismatching.
    pub failed: u64,
    /// The first few failure messages.
    pub mismatches: Vec<String>,
    /// Fastest host seconds of each step of a pass (a figure render, a
    /// batch) over the gated passes, by the step's position in the pass.
    pub step_min_s: Vec<f64>,
    /// Fastest remainder of a gated pass: its time outside the steps.
    pub rest_min_s: Option<f64>,
    /// Step times of the pass in progress, by position.
    pass_steps_s: Vec<f64>,
    /// Samples ingested per pass.
    pub samples_per_pass: usize,
    /// Directives the last serve pass returned.
    pub directives: usize,
    /// Latency of each batch (ingest, plus freeze in failover), µs.
    pub batch_us: Histogram,
    /// Latency of each freeze, µs.
    pub freeze_us: Histogram,
    /// Latency of each restore (rebuild, thaw, digest), µs.
    pub restore_us: Histogram,
    /// Largest snapshot taken, bytes.
    pub snapshot_bytes: usize,
}

impl Passes {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < MAX_MISMATCHES {
            self.mismatches.push(why);
        }
    }

    /// Records the next step of the pass in progress, which took `secs`.
    pub fn step(&mut self, secs: f64) {
        self.pass_steps_s.push(secs);
    }

    /// Closes the pass in progress, which took `wall_s`; its steps and
    /// remainder count toward the gated `wall_s` only when `gated`.
    fn end_pass(&mut self, wall_s: f64, gated: bool) {
        self.walls_s.push(wall_s);
        if gated {
            let steps = &self.pass_steps_s;
            if self.step_min_s.len() < steps.len() {
                self.step_min_s.resize(steps.len(), f64::INFINITY);
            }
            for (best, &s) in self.step_min_s.iter_mut().zip(steps) {
                *best = best.min(s);
            }
            let rest_s = wall_s - steps.iter().sum::<f64>();
            self.rest_min_s = Some(self.rest_min_s.map_or(rest_s, |r| r.min(rest_s)));
        }
        self.pass_steps_s.clear();
    }

    /// The gated `wall_s`: host seconds of one pass with every step at
    /// its fastest over the gated passes, plus the fastest remainder.
    /// Other tenants of the host slow single passes by up to a half in
    /// bursts of seconds; a step's fastest repeat estimates the
    /// program's own cost, and short steps find a quiet moment even in a
    /// busy run.
    fn wall_s(&self) -> f64 {
        self.step_min_s.iter().sum::<f64>() + self.rest_min_s.unwrap_or(0.0)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Figures,
    Serve,
    Failover,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "figures" => Ok(Workload::Figures),
            "serve" => Ok(Workload::Serve),
            "failover" => Ok(Workload::Failover),
            other => Err(format!(
                "unknown workload {other:?} (figures|serve|failover)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Serve => "serve",
            Workload::Failover => "failover",
        }
    }

    /// Passes the gated `wall_s` is taken over: as many as fit in about
    /// two thirds of a 20-second run on a 2-thread host, so a slower
    /// change still makes them within the run.
    fn gated_passes(self) -> usize {
        match self {
            Workload::Figures => 2,
            Workload::Serve => 200,
            Workload::Failover => 80,
        }
    }
}

enum Setup {
    Figures(figures::Setup),
    Serving(serving::Setup),
}

fn setup(w: Workload, plan: &Plan) -> Result<Setup, String> {
    match w {
        Workload::Figures => figures::setup(plan).map(Setup::Figures),
        Workload::Serve | Workload::Failover => serving::setup(plan).map(Setup::Serving),
    }
}

// simlint: allow(P1) — set-up time is a wall-clock reading by design
fn timed_setup(w: Workload, plan: &Plan) -> Result<(Setup, f64), String> {
    let sw = Stopwatch::start();
    let s = setup(w, plan)?;
    Ok((s, sw.elapsed_s()))
}

/// Runs passes until `plan.seconds` have passed and at least
/// `plan.gated_passes` passes are done (a failover run also until it
/// timed `plan.min_restores` restores). With
/// `setups`, times further set-ups between passes, spread over the run,
/// until it holds [`SETUP_REPS`]: set-up time then sees the same host
/// conditions as the passes.
// simlint: allow(P1) — the benchmark times real execution by design
fn measure(
    w: Workload,
    plan: &Plan,
    setup: &Setup,
    tracer: &mut Tracer,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<Passes, String> {
    let need_restores = if w == Workload::Failover {
        plan.min_restores
    } else {
        0
    };
    let spacing_s = plan.seconds / SETUP_REPS as f64;
    let mut passes = Passes::default();
    let clock = Stopwatch::start();
    let mut index = 0u64;
    while passes.walls_s.len() < plan.gated_passes.max(1)
        || clock.elapsed_s() < plan.seconds
        || passes.restore_us.len() < need_restores
    {
        let sw = Stopwatch::start();
        match setup {
            Setup::Figures(s) => figures::pass(plan, s, tracer, &mut passes),
            Setup::Serving(s) if w == Workload::Serve => {
                serving::serve_pass(s, tracer, &mut passes)
            }
            Setup::Serving(s) => serving::failover_pass(plan, s, index, tracer, &mut passes),
        }
        passes.end_pass(sw.elapsed_s(), index < plan.gated_passes as u64);
        index += 1;
        if let Some(times) = setups.as_deref_mut() {
            if times.len() < SETUP_REPS && clock.elapsed_s() >= spacing_s * times.len() as f64 {
                times.push(timed_setup(w, plan)?.1);
            }
        }
    }
    if let Some(times) = setups {
        while times.len() < SETUP_REPS {
            times.push(timed_setup(w, plan)?.1);
        }
    }
    Ok(passes)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds wants a non-negative number, got {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the requested workload; `Ok(false)` when an output mismatched.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let w = args.workload;
    let threads = simcore::par::available_threads();
    let host = Host::probe(args.seed, threads);
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        multiple: MULTIPLE,
        kills_per_pass: KILLS_PER_PASS,
        min_restores: MIN_RESTORES,
        gated_passes: w.gated_passes(),
    };
    println!(
        "perfbench: workload={} trace={}",
        w.name(),
        u8::from(args.trace)
    );
    println!("{}", host.render());
    let outcome = if args.trace {
        traced(w, &plan, &host)?
    } else {
        untraced(w, &plan)?
    };
    let json = outcome.to_json()?;
    if Outcome::parse(&json).as_ref() != Ok(&outcome) {
        return Err(format!("result document does not parse back: {json}"));
    }
    println!("{json}");
    Ok(outcome.correct)
}

fn tail_line(name: &str, values: &Histogram, p: f64) -> String {
    match values.tail(p) {
        Some(t) => format!("  {name:<16} {:>14.2} us   ({})", t.value, t.label()),
        None => format!(
            "  {name:<16} {:>14} us   (n={}: too few samples)",
            "-",
            values.len()
        ),
    }
}

/// The `--trace 0` run: end-to-end metrics with tracing off.
fn untraced(w: Workload, plan: &Plan) -> Result<Outcome, String> {
    let (setup, first_s) = timed_setup(w, plan)?;
    let mut setup_times_s = vec![first_s];
    let passes = measure(
        w,
        plan,
        &setup,
        &mut Tracer::new(false),
        Some(&mut setup_times_s),
    )?;
    let rss_mb = host::peak_rss_mb()?;
    let wall_s = passes.wall_s();
    let median_pass_s = median(&passes.walls_s);
    let setup_s = setup_times_s.iter().copied().fold(f64::INFINITY, f64::min);
    let mut out = Outcome {
        correct: passes.failed == 0,
        attempted: passes.attempted,
        failed: passes.failed,
        metrics: Vec::new(),
    };
    out.push("wall_s", wall_s, "s");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", rss_mb, "MB");

    let n = passes.walls_s.len();
    let gated = plan.gated_passes.min(n);
    println!("end-to-end ({n} passes, tracing off):");
    println!(
        "  {:<16} {wall_s:>14.4} s    (each step's fastest of the first {gated})",
        "wall_s"
    );
    println!(
        "  {:<16} {median_pass_s:>14.4} s    (median of {n})",
        "pass_s"
    );
    println!(
        "  {:<16} {setup_s:>14.4} s    (fastest of {SETUP_REPS})",
        "setup_s"
    );
    println!("  {:<16} {rss_mb:>14.1} MB", "peak_rss_mb");
    println!(
        "  {:<16} {:>14.6}      ({} of {} operations)",
        "fail_ratio",
        out.fail_ratio(),
        out.failed,
        out.attempted
    );
    if w != Workload::Figures {
        let rate = passes.samples_per_pass as f64 / median_pass_s;
        println!(
            "  {:<16} {rate:>14.0} 1/s  (median pass, {} samples)",
            "samples_per_s", passes.samples_per_pass
        );
        println!("{}", tail_line("batch_p50_us", &passes.batch_us, 50.0));
        println!("{}", tail_line("batch_p99_us", &passes.batch_us, 99.0));
    }
    if w == Workload::Serve {
        println!(
            "  {:<16} {:>14}      (count)",
            "session.directives", passes.directives
        );
    }
    if w == Workload::Failover {
        println!("{}", tail_line("restore_p50_us", &passes.restore_us, 50.0));
        println!("{}", tail_line("restore_p99_us", &passes.restore_us, 99.0));
        println!("{}", tail_line("freeze_p50_us", &passes.freeze_us, 50.0));
        println!(
            "  {:<16} {:>14} bytes",
            "snapshot_bytes", passes.snapshot_bytes
        );
    }
    report_mismatches(&passes);
    Ok(out)
}

fn report_mismatches(passes: &Passes) {
    for m in &passes.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
        println!("mismatch: {m}");
    }
}

/// The `--trace 1` run: the workload untraced and traced, the
/// time-by-layer table, and the per-layer suite.
fn traced(w: Workload, plan: &Plan, host: &Host) -> Result<Outcome, String> {
    let setup = setup(w, plan)?;
    let plain = measure(w, plan, &setup, &mut Tracer::new(false), None)?;
    let mut tracer = Tracer::new(true);
    simcore::par::telemetry::reset();
    let traced = measure(w, plan, &setup, &mut tracer, None)?;
    let pool = simcore::par::telemetry::snapshot();

    let traced_wall_s: f64 = traced.walls_s.iter().sum();
    let rows = spans::layer_table(tracer.spans(), traced_wall_s);
    let title = format!(
        "time-by-layer, {} ({} passes, {} spans)",
        w.name(),
        traced.walls_s.len(),
        tracer.spans().len()
    );
    print!("{}", spans::render_table(&title, &rows, traced_wall_s));
    let unattributed_s = rows.last().map_or(0.0, |r| r.1);
    write_spans(w, plan, &tracer, &traced)?;

    let mut out = Outcome {
        correct: false,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: Vec::new(),
    };
    report_mismatches(&plain);
    report_mismatches(&traced);
    out.push("trace.overhead_s", traced.wall_s() - plain.wall_s(), "s");
    out.push("trace.wall_s", traced_wall_s, "s");
    out.push("trace.unattributed_s", unattributed_s, "s");
    out.push("pool.dispatches", pool.dispatches as f64, "count");
    out.push("pool.inline_runs", pool.inline_runs as f64, "count");
    out.push("pool.chunks", pool.chunks as f64, "count");
    out.push("pool.workers", pool.workers as f64, "count");
    layers::run(plan, host, &mut out)?;
    out.correct = out.failed == 0;

    println!("per-layer:");
    for m in &out.metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(out)
}

/// Writes the spans of the first traced pass (one pass holds every kind
/// of span; later passes repeat it) as JSON lines under
/// `perfbench/out/`.
fn write_spans(w: Workload, plan: &Plan, tracer: &Tracer, traced: &Passes) -> Result<(), String> {
    let first_end_s = tracer.spans().first().map_or(0.0, |s| s.start_s)
        + traced.walls_s.first().copied().unwrap_or(0.0);
    let first: Vec<_> = tracer
        .spans()
        .iter()
        .take_while(|s| s.start_s <= first_end_s)
        .cloned()
        .collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.spans.jsonl", w.name(), plan.seed));
    std::fs::write(&path, spans::to_jsonl(&first))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "spans: {} of {} written to {}",
        first.len(),
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_sums_each_steps_fastest_repeat_and_the_fastest_rest() {
        let mut p = Passes::default();
        p.step(1.0);
        p.step(4.0);
        p.end_pass(5.5, true);
        p.step(2.0);
        p.step(3.0);
        p.end_pass(5.25, true);
        assert_eq!(p.walls_s, vec![5.5, 5.25]);
        assert_eq!(p.rest_min_s, Some(0.25));
        assert_eq!(p.wall_s(), 1.0 + 3.0 + 0.25);
    }

    #[test]
    fn passes_beyond_the_gated_count_do_not_move_wall() {
        let mut p = Passes::default();
        p.step(2.0);
        p.end_pass(3.0, true);
        // A faster code path fits an extra pass into the run; it must
        // not lower the estimate.
        p.step(1.0);
        p.end_pass(1.5, false);
        assert_eq!(p.walls_s.len(), 2);
        assert_eq!(p.wall_s(), 3.0);
        assert!(p.pass_steps_s.is_empty());
    }
}
