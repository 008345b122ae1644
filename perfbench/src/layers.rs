//! The per-layer suite of the traced run: each layer's public calls
//! timed on fixed inputs, and the work counts behind them.
//!
//! The suite is the same on every workload. Every traced run reports
//! every per-layer metric, and a metric measured the same way on every
//! workload reads the same whichever workload a later change is judged
//! on. The cost is that a traced `serve` or `failover` run also renders
//! the seven timed figures twice, and re-times batches, freezes and
//! restores that its traced passes already saw.

use std::hint::black_box;

use bench::sweep::median;
use bench::Stopwatch;
use experiments::serve::build_session;
use experiments::tracerec::GOLDEN_SEED;
use experiments::{fig13, fig2, goalrig, supervise, Trials};
use machine::{FaultConfig, Machine};
use odyssey::{GoalConfig, GoalController, Hardening};
use odyssey_apps::datasets::WEB_IMAGES;
use odyssey_apps::WebFidelity;
use powerscope::{correlate, correlate_paths};
use simcore::{
    EventQueue, SimDuration, SimRng, SimTime, SnapshotReader, SnapshotWriter, TraceCategory,
    TraceHandle, TraceSink,
};
use simserve::Sample;

use crate::figures;
use crate::host::Host;
use crate::inputs::SplitMix;
use crate::report::Outcome;
use crate::serving::{self, BATCH};
use crate::stats::tail;
use crate::Plan;

/// Figures timed on their own, at one thread and at `nproc` threads.
pub const FIGURES: [&str; 7] = [
    "chaos",
    "supervise",
    "fig21",
    "fig20",
    "sec54",
    "fig6",
    "fig16",
];

/// Repetitions of each machine-rig and PowerScope measurement (medians
/// are reported).
const REPS: usize = 3;

/// Restores timed by the snapshot measurement: enough for a p99 with
/// ten samples beyond it.
const RESTORES: usize = 1000;

/// Hooks `Session::serve` adds to the rig it serves, the checkpoint
/// hook and the service hook. Each keeps exactly one tick pending.
const SESSION_HOOKS: usize = 2;

/// JSONL `ev` tags of the records `TraceCategory::Control` holds (see
/// `TraceEvent::category`); the test below keeps the two in step.
const CONTROL_TAGS: [&str; 5] = [
    "fidelity_change",
    "warden_upcall",
    "goal_clamp",
    "goal_infeasible",
    "supply_exhausted",
];

/// JSONL `ev` tags of the records `TraceCategory::Supervisor` holds.
const SUPERVISOR_TAGS: [&str; 5] = [
    "supervisor_strike",
    "supervisor_escalate",
    "datapath_clamp",
    "suspend",
    "restart",
];

/// Push/pop pairs per queue measurement.
const QUEUE_OPS: usize = 1_000_000;

/// Runs the suite, appending its metrics to `out` and counting its
/// output checks as operations.
pub fn run(plan: &Plan, host: &Host, out: &mut Outcome) -> Result<(), String> {
    experiments_layer(plan, host, out)?;
    machine_layer(out);
    powerscope_layer(out);
    let setup = serving::setup(plan)?;
    serving_layer(&setup, out)?;
    event_queue(plan.seed, &setup.samples, out)?;
    Ok(())
}

// simlint: allow(P1) — the suite times real execution by design
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.elapsed_s())
}

fn med(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// `fig.<id>.s` at `plan.threads` and `fig.<id>.speedup` against one
/// thread, each render checked against `results/`.
fn experiments_layer(plan: &Plan, host: &Host, out: &mut Outcome) -> Result<(), String> {
    let wide = Trials::default().with_threads(plan.threads);
    let narrow = Trials::default().with_threads(1);
    for id in FIGURES {
        let want = figures::reference(id)?;
        let check = |got: Option<String>, out: &mut Outcome| {
            out.attempted += 1;
            if got.as_deref() != Some(want.as_str()) {
                out.failed += 1;
                eprintln!("perfbench: layer suite: figure {id} differs from results/{id}.txt");
            }
        };
        let (got, wide_s) = timed(|| figures::render(id, &wide));
        check(got, out);
        let speedup = if host.speedup_measurable() {
            let (got, narrow_s) = timed(|| figures::render(id, &narrow));
            check(got, out);
            narrow_s / wide_s
        } else {
            0.0
        };
        out.push(format!("fig.{id}.s"), wide_s, "s");
        out.push(format!("fig.{id}.speedup"), speedup, "x");
    }
    Ok(())
}

/// Every trace category on, no JSONL: the ring sink the event loop
/// writes into.
fn full_trace() -> TraceHandle {
    TraceHandle::new(TraceSink::new().with_categories(&TraceCategory::ALL))
}

/// One rig built through its public builder, ready to run.
fn build_rig(rig: &str) -> (Machine, Option<SimTime>) {
    match rig {
        "fig2" => (fig2::build(GOLDEN_SEED).1, None),
        "fig13" => {
            let mut rng = SimRng::new(GOLDEN_SEED).fork("fig13/trace");
            let images = WEB_IMAGES.to_vec();
            let m = fig13::build(images, WebFidelity::Jpeg50, true, 5.0, &mut rng);
            (m, None)
        }
        "goal" => {
            let mut rng = SimRng::new(GOLDEN_SEED).fork("goal/trace");
            let cfg = GoalConfig::paper(3000.0, SimDuration::from_secs(240))
                .with_hardening(Hardening::standard());
            let rig = goalrig::build_composite_goal(&cfg, false, FaultConfig::clean(), &mut rng);
            let mut m = rig.machine;
            let period = cfg.sample_period;
            let (_handle, hook) = GoalController::new(cfg, rig.priorities);
            m.add_hook(period, hook);
            (m, Some(rig.horizon))
        }
        _ => {
            let mut rng = SimRng::new(GOLDEN_SEED).fork_indexed("supervise/2", 0);
            let rig = supervise::build_one(2, true, &mut rng);
            (rig.machine, Some(rig.horizon))
        }
    }
}

/// `machine.<rig>.run_ms` and `.trace_records` for the four golden rigs.
fn machine_layer(out: &mut Outcome) {
    for rig in ["fig2", "fig13", "goal", "supervise"] {
        let mut times_ms = Vec::with_capacity(REPS);
        let mut records = 0;
        for _ in 0..REPS {
            let (mut m, horizon) = build_rig(rig);
            let trace = full_trace();
            m.set_trace(trace.clone());
            let (_, s) = timed(|| match horizon {
                Some(h) => black_box(m.run_until(h)),
                None => black_box(m.run()),
            });
            times_ms.push(s * 1e3);
            records = trace.emitted();
        }
        out.push(format!("machine.{rig}.run_ms"), med(&times_ms), "ms");
        out.push(
            format!("machine.{rig}.trace_records"),
            records as f64,
            "count",
        );
    }
}

/// Sampling and correlation on the fig2 profiling rig.
fn powerscope_layer(out: &mut Outcome) {
    let (mut into_run, mut corr, mut paths) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    for _ in 0..REPS {
        let (scope, mut m) = fig2::build(GOLDEN_SEED);
        black_box(m.run());
        drop(m);
        let (run, s) = timed(|| scope.into_run());
        into_run.push(s * 1e3);
        samples = run.trace.len();
        corr.push(timed(|| black_box(correlate(&run))).1 * 1e3);
        paths.push(timed(|| black_box(correlate_paths(&run))).1 * 1e3);
    }
    out.push("powerscope.samples", samples as f64, "count");
    out.push("powerscope.into_run_ms", med(&into_run), "ms");
    out.push("powerscope.correlate_ms", med(&corr), "ms");
    out.push("powerscope.correlate_paths_ms", med(&paths), "ms");
}

/// The raw value of `"key":` in a JSONL trace line, quotes stripped.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = line.get(at..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..end).map(|v| v.trim_matches('"'))
}

/// Lines of a serving trace whose event tag is one of `tags`.
fn count_tags(lines: &[String], tags: &[&str]) -> usize {
    lines
        .iter()
        .filter(|l| field(l, "ev").is_some_and(|ev| tags.contains(&ev)))
        .count()
}

fn build() -> Result<simserve::Session, String> {
    build_session(GOLDEN_SEED).map_err(|e| format!("build: {e}"))
}

/// One served pass with a freeze after every batch, then
/// [`RESTORES`] rebuild-and-thaw cycles from the mid-stream snapshot.
/// Sessions come from the public `experiments::serve::build_session`;
/// the work counts are read from the trace it renders.
// simlint: allow(P1) — restore latency is a wall-clock reading by design
fn serving_layer(setup: &serving::Setup, out: &mut Outcome) -> Result<(), String> {
    let mut session = build()?;
    let chunks: Vec<_> = setup.samples.chunks(BATCH).collect();
    let (mut batch_us, mut freeze_us) = (Vec::new(), Vec::new());
    let (mut directives, mut max_bytes, mut ingest_s) = (0, 0, 0.0);
    let mut mid = (Vec::new(), 0);
    for (i, chunk) in chunks.iter().enumerate() {
        let (r, s) = timed(|| session.ingest(chunk));
        batch_us.push(s * 1e6);
        ingest_s += s;
        directives += r.map_err(|e| format!("ingest: {e}"))?.len();
        let (bytes, s) = timed(|| session.freeze());
        freeze_us.push(s * 1e6);
        let bytes = bytes.map_err(|e| format!("freeze: {e}"))?;
        max_bytes = max_bytes.max(bytes.len());
        if i == chunks.len() / 2 {
            mid = (bytes, session.digest());
        }
    }
    session.finish().map_err(|e| format!("finish: {e}"))?;
    let (lines, jsonl_s) = timed(|| session.trace_jsonl());
    // Every accepted record takes the next sequence number.
    let emitted = lines
        .last()
        .and_then(|l| field(l, "seq")?.parse::<u64>().ok())
        .map_or(0, |seq| seq + 1);
    out.attempted += 1;
    if session.digest() != setup.reference.digest
        || session.checkpoints() != setup.reference.checkpoints
        || lines != setup.reference.trace
    {
        out.failed += 1;
        eprintln!("perfbench: layer suite: serving session differs from the reference");
    }

    let (mut build_us, mut thaw_us, mut restore_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RESTORES {
        let sw = Stopwatch::start();
        let (fresh, build_s) = timed(build);
        let mut fresh = fresh?;
        let (thawed, thaw_s) = timed(|| fresh.thaw(&mid.0));
        let ok = thawed.is_ok() && fresh.digest() == mid.1;
        restore_us.push(sw.elapsed_s() * 1e6);
        build_us.push(build_s * 1e6);
        thaw_us.push(thaw_s * 1e6);
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
    }

    let pct = |v: &[f64], p| tail(v, p).map_or(0.0, |t| t.value);
    let ckpts = setup.reference.checkpoints.len() as f64;
    let control = count_tags(&lines, &CONTROL_TAGS);
    out.push("odyssey.control_records", control as f64, "count");
    let supervisor = count_tags(&lines, &SUPERVISOR_TAGS);
    out.push("odyssey.supervisor_records", supervisor as f64, "count");
    out.push("session.directives", directives as f64, "count");
    out.push("session.checkpoints", ckpts, "count");
    let dead = session.dead_letters().map_or(0, |d| d.total());
    out.push("session.dead_letters", dead as f64, "count");
    out.push("session.build_us.p50", pct(&build_us, 50.0), "us");
    out.push(
        "session.samples_per_s",
        setup.samples.len() as f64 / ingest_s,
        "1/s",
    );
    out.push("session.batch_us.p50", pct(&batch_us, 50.0), "us");
    out.push("session.batch_us.p99", pct(&batch_us, 99.0), "us");
    out.push("session.restore_us.p50", pct(&restore_us, 50.0), "us");
    out.push("session.restore_us.p99", pct(&restore_us, 99.0), "us");
    out.push("snapshot.freeze_us.p50", pct(&freeze_us, 50.0), "us");
    out.push("snapshot.freeze_us.p99", pct(&freeze_us, 99.0), "us");
    out.push("snapshot.thaw_us.p50", pct(&thaw_us, 50.0), "us");
    out.push("snapshot.thaw_us.p99", pct(&thaw_us, 99.0), "us");
    out.push("snapshot.journal_checkpoints", ckpts, "count");
    out.push("snapshot.bytes", max_bytes as f64, "bytes");
    out.push("trace.emitted", emitted as f64, "count");
    out.push("trace.jsonl_lines", lines.len() as f64, "count");
    out.push("trace.jsonl_ms", jsonl_s * 1e3, "ms");
    Ok(())
}

/// Pending events of the served rig at the end of each batch of the
/// serving stream. The supervised rig is built as `build_session`
/// builds it, run to each batch's last sample time, and frozen with
/// `Machine::freeze`, whose payload opens with the clock, the queue's
/// next sequence number and its pending-event count. The session's own
/// hooks ([`SESSION_HOOKS`]) are added to that count.
fn queue_depths(samples: &[Sample]) -> Result<Vec<f64>, String> {
    let (mut m, _) = build_rig("supervise");
    let mut depths = Vec::new();
    for last in samples.chunks(BATCH).filter_map(<[Sample]>::last) {
        let at = SimTime::from_secs_f64(last.at_s);
        let report = m.run_until(at);
        let mut w = SnapshotWriter::new();
        m.freeze(&mut w).map_err(|e| format!("rig freeze: {e}"))?;
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).map_err(|e| format!("rig snapshot: {e}"))?;
        r.take_time()
            .and_then(|_| r.take_u64())
            .and_then(|_| r.take_usize())
            .map(|pending| depths.push((pending + SESSION_HOOKS) as f64))
            .map_err(|e| format!("rig snapshot: {e}"))?;
        if report.end < at {
            break;
        }
    }
    Ok(depths)
}

/// `event_queue.depth`, the served rig's median queue depth over the
/// serving stream, and `event_queue.push_pop_ns`: push/pop pairs on an
/// `EventQueue` held at that depth (pop the earliest event, push one a
/// seeded delay later). Median of five runs.
fn event_queue(seed: u64, samples: &[Sample], out: &mut Outcome) -> Result<(), String> {
    let depth = med(&queue_depths(samples)?);
    let pending = (depth.round() as u64).max(1);
    let mut per_pair_ns = Vec::new();
    for rep in 0..5u64 {
        let mut rng = SplitMix::new(seed, 16 + rep);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..pending {
            q.push(SimTime::from_micros(rng.next_u64() % 1_000_000), i);
        }
        let (_, s) = timed(|| {
            for _ in 0..QUEUE_OPS {
                if let Some((at, e)) = q.pop() {
                    let delay = SimDuration::from_micros(1 + rng.next_u64() % 1_000_000);
                    q.push(at.saturating_add(delay), black_box(e));
                }
            }
        });
        black_box(q.len());
        per_pair_ns.push(s * 1e9 / QUEUE_OPS as f64);
    }
    out.push("event_queue.depth", depth, "count");
    out.push("event_queue.push_pop_ns", med(&per_pair_ns), "ns");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::TraceEvent;

    #[test]
    fn tag_lists_follow_simcore_categories() {
        let control = [
            TraceEvent::FidelityChange {
                pid: 0,
                name: "w",
                direction: "down",
                level: 1,
            },
            TraceEvent::WardenUpcall {
                pid: 0,
                event: "below",
                changed: true,
            },
            TraceEvent::GoalClamp {
                raw_power_w: 1.0,
                power_w: 1.0,
            },
            TraceEvent::GoalInfeasible,
            TraceEvent::SupplyExhausted { residual_j: 0.0 },
        ];
        let supervisor = [
            TraceEvent::SupervisorStrike {
                pid: 0,
                detector: "hang",
                strikes: 1,
            },
            TraceEvent::SupervisorEscalate {
                pid: 0,
                rung: "clamp",
            },
            TraceEvent::DatapathClamp {
                pid: 0,
                factor: 0.5,
            },
            TraceEvent::Suspend { pid: 0, name: "w" },
            TraceEvent::Restart { pid: 0, name: "w" },
        ];
        for (events, tags, cat) in [
            (&control, &CONTROL_TAGS, TraceCategory::Control),
            (&supervisor, &SUPERVISOR_TAGS, TraceCategory::Supervisor),
        ] {
            for (e, tag) in events.iter().zip(tags) {
                assert_eq!((e.tag(), e.category()), (*tag, cat));
            }
        }
    }

    #[test]
    fn fields_are_read_from_trace_lines() {
        let line = r#"{"time_s":1.5,"seq":41,"ev":"suspend","pid":3,"name":"video"}"#;
        assert_eq!(field(line, "seq"), Some("41"));
        assert_eq!(field(line, "ev"), Some("suspend"));
        assert_eq!(field(line, "name"), Some("video"));
        assert_eq!(field(line, "absent"), None);
        let lines = vec![line.to_string(), line.replace("suspend", "goal_budget")];
        assert_eq!(count_tags(&lines, &SUPERVISOR_TAGS), 1);
        assert_eq!(count_tags(&lines, &CONTROL_TAGS), 0);
    }
}
