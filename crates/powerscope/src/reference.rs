//! The string-keyed pipeline that the per-pair collector and the
//! per-key correlate stages replaced, kept as the model they must match:
//! a collector that resolves and interns every sample's frames and scans
//! the table for every PC, and correlate stages that key every sample by
//! process and procedure (or path) strings. The seeded property test at
//! the bottom drives both pipelines over random interval streams and
//! demands equal samples and symbol tables and bit-equal profiles.

use std::collections::BTreeMap;

use machine::IntervalRecord;
use simcore::{Joules, SimDuration, SimRng, SimTime};

use crate::multimeter::FrameResolver;
use crate::profile::{EnergyProfile, PathProfile, PathRow, ProcedureRow, ProcessPaths, ProcessRow};
use crate::sample::{CallStack, CollectedRun, Sample};
use crate::symbols::UNKNOWN_PROCEDURE;
use crate::{SAMPLE_HZ, SUPPLY_VOLTS};

/// The collector: every sample resolves its frames, interns them, and
/// looks each one up by name for its PC.
fn collect(
    seed: u64,
    resolver: Option<FrameResolver>,
    recs: &[IntervalRecord<'_>],
) -> CollectedRun {
    let mut rng = SimRng::new(seed).fork("powerscope");
    let period = SimDuration::from_secs_f64(1.0 / SAMPLE_HZ.0);
    let mut next_at = SimTime::ZERO;
    let mut run = CollectedRun::default();
    for rec in recs {
        while next_at < rec.t1 {
            if next_at >= rec.t0 {
                let current_a = rec.power_w.0 / SUPPLY_VOLTS;
                let weights: Vec<f64> = rec.shares.iter().map(|s| s.fraction).collect();
                let pick = &rec.shares[rng.weighted_index(&weights)];
                let fallback = [pick.procedure];
                let frames: &[&'static str] =
                    match resolver.and_then(|resolve| resolve(pick.bucket, pick.procedure)) {
                        Some(path) if !path.is_empty() => path,
                        _ => &fallback,
                    };
                let table = run.symbols.entry(pick.bucket).or_default();
                for frame in frames {
                    table.intern(frame);
                }
                let skew = rng.uniform_u64(0, u32::MAX as u64) as u32;
                let mut stack = CallStack::default();
                for frame in frames {
                    stack.push(table.pc_within(frame, skew));
                }
                run.trace.samples.push(Sample {
                    at: next_at,
                    current_a,
                    process: pick.bucket,
                    stack,
                });
            }
            let jitter = rng.uniform(0.95, 1.05);
            next_at += period.mul_f64(jitter);
        }
        run.trace.end = rec.t1;
    }
    run
}

/// The quantum of sample `i`: `(dt, energy)`.
fn quantum(run: &CollectedRun, i: usize) -> (f64, Joules) {
    let trace = &run.trace;
    let s = &trace.samples[i];
    let next_at = trace
        .samples
        .get(i + 1)
        .map(|n| n.at)
        .unwrap_or(trace.end.max(s.at));
    let dt = next_at.since(s.at).as_secs_f64();
    (dt, Joules(s.current_a * SUPPLY_VOLTS * dt))
}

/// The flat stage, keyed by process and procedure name per sample.
fn model_correlate(run: &CollectedRun) -> EnergyProfile {
    let mut by_proc: BTreeMap<&'static str, BTreeMap<&'static str, (f64, Joules)>> =
        BTreeMap::new();
    let mut duration = 0.0;
    for (i, s) in run.trace.samples.iter().enumerate() {
        let (dt, energy) = quantum(run, i);
        duration += dt;
        let procedure = run
            .symbols
            .get(s.process)
            .map(|t| t.resolve(s.pc()))
            .unwrap_or(UNKNOWN_PROCEDURE);
        let entry = by_proc
            .entry(s.process)
            .or_default()
            .entry(procedure)
            .or_insert((0.0, Joules::ZERO));
        entry.0 += dt;
        entry.1 += energy;
    }
    let mut processes: Vec<ProcessRow> = by_proc
        .into_iter()
        .map(|(process, procs)| {
            let mut procedures: Vec<ProcedureRow> = procs
                .into_iter()
                .map(|(procedure, (cpu_secs, energy_j))| ProcedureRow {
                    procedure: procedure.to_string(),
                    cpu_secs,
                    energy_j,
                })
                .collect();
            procedures.sort_by(|a, b| {
                b.energy_j
                    .total_cmp(&a.energy_j)
                    .then_with(|| a.procedure.cmp(&b.procedure))
            });
            ProcessRow {
                process: process.to_string(),
                cpu_secs: procedures.iter().map(|p| p.cpu_secs).sum(),
                energy_j: procedures.iter().map(|p| p.energy_j).sum(),
                procedures,
            }
        })
        .collect();
    processes.sort_by(|a, b| {
        b.energy_j
            .total_cmp(&a.energy_j)
            .then_with(|| a.process.cmp(&b.process))
    });
    EnergyProfile {
        processes,
        duration_s: duration,
    }
}

/// The path stage, building every frame's path string per sample.
fn model_correlate_paths(run: &CollectedRun) -> PathProfile {
    #[derive(Clone, Copy, Default)]
    struct Node {
        samples: u64,
        self_time_s: f64,
        self_energy_j: Joules,
        inclusive_time_s: f64,
        inclusive_energy_j: Joules,
    }
    let mut by_proc: BTreeMap<&'static str, BTreeMap<String, Node>> = BTreeMap::new();
    let mut duration = 0.0;
    for (i, s) in run.trace.samples.iter().enumerate() {
        let (dt, energy) = quantum(run, i);
        duration += dt;
        let table = run.symbols.get(s.process);
        let nodes = by_proc.entry(s.process).or_default();
        let mut path = String::new();
        let frames = s.stack.frames();
        for (depth, pc) in frames.iter().enumerate() {
            let name = table.map(|t| t.resolve(*pc)).unwrap_or(UNKNOWN_PROCEDURE);
            if depth > 0 {
                path.push('/');
            }
            path.push_str(name);
            let node = nodes.entry(path.clone()).or_default();
            node.inclusive_time_s += dt;
            node.inclusive_energy_j += energy;
            if depth + 1 == frames.len() {
                node.samples += 1;
                node.self_time_s += dt;
                node.self_energy_j += energy;
            }
        }
        if frames.is_empty() {
            let node = nodes.entry(UNKNOWN_PROCEDURE.to_string()).or_default();
            node.samples += 1;
            node.self_time_s += dt;
            node.self_energy_j += energy;
            node.inclusive_time_s += dt;
            node.inclusive_energy_j += energy;
        }
    }
    let processes: Vec<ProcessPaths> = by_proc
        .into_iter()
        .map(|(process, nodes)| {
            let rows: Vec<PathRow> = nodes
                .into_iter()
                .map(|(path, n)| PathRow {
                    path,
                    samples: n.samples,
                    self_time_s: n.self_time_s,
                    self_energy_j: n.self_energy_j,
                    inclusive_time_s: n.inclusive_time_s,
                    inclusive_energy_j: n.inclusive_energy_j,
                })
                .collect();
            let energy_j = rows.iter().map(|r| r.self_energy_j).sum();
            ProcessPaths {
                process: process.to_string(),
                rows,
                energy_j,
            }
        })
        .collect();
    PathProfile {
        processes,
        duration_s: duration,
    }
}

mod tests {
    use super::*;
    use crate::sample::MAX_STACK_DEPTH;
    use crate::symbols::SymbolTable;
    use crate::{correlate, correlate_paths, PowerScope};
    use hw560x::platform::PowerBreakdown;
    use hw560x::DeviceStates;
    use machine::ShareEntry;
    use simcore::Watts;

    /// Six frames: two more than a stack holds, so the root two rotate out.
    const DEEP: &[&str] = &["main", "run", "loop", "step", "inner", "work"];

    fn resolve(bucket: &str, leaf: &str) -> Option<&'static [&'static str]> {
        match (bucket, leaf) {
            ("app", "work") => Some(DEEP),
            ("app", "io") => Some(&["main", "run", "io"]),
            // The same leaf name as app's, under another process.
            ("srv", "work") => Some(&["serve", "work"]),
            // An empty path falls back to the leaf alone.
            ("srv", "idle") => Some(&[]),
            _ => None,
        }
    }

    /// The `(bucket, procedure)` pairs the streams draw from: a literal
    /// `(unknown)` procedure, and a pointer-distinct copy of a pair.
    fn pairs() -> Vec<(&'static str, &'static str)> {
        // Cut from the middle of longer literals, so at other addresses.
        let copy = (&"[app]"[1..4], &"[work]"[1..5]);
        assert_eq!(copy, ("app", "work"));
        assert!(!std::ptr::eq(copy.0, "app") && !std::ptr::eq(copy.1, "work"));
        vec![
            ("app", "work"),
            ("app", "io"),
            ("app", UNKNOWN_PROCEDURE),
            ("srv", "work"),
            ("srv", "idle"),
            ("Idle", "idle_hlt"),
            copy,
        ]
    }

    /// Share lists for one random stream: back-to-back intervals of 1 to
    /// 150 ms, some after a gap, each with one to four weighted pairs.
    fn stream(rng: &mut SimRng) -> Vec<(u64, u64, f64, Vec<ShareEntry>)> {
        let pool = pairs();
        let mut t = rng.uniform_u64(0, 5_000);
        (0..rng.uniform_u64(1, 40))
            .map(|_| {
                if rng.bernoulli(0.2) {
                    t += rng.uniform_u64(1, 60_000);
                }
                let t0 = t;
                t += rng.uniform_u64(1_000, 150_000);
                let shares: Vec<ShareEntry> = (0..rng.uniform_u64(1, 4))
                    .map(|_| {
                        let (bucket, procedure) = pool[rng.uniform_u64(0, 6) as usize];
                        let fraction = if rng.bernoulli(0.2) {
                            0.0
                        } else {
                            rng.uniform(0.0, 1.0)
                        };
                        ShareEntry {
                            bucket,
                            procedure,
                            fraction,
                        }
                    })
                    .chain([ShareEntry {
                        bucket: "Idle",
                        procedure: "idle_hlt",
                        fraction: 0.01,
                    }])
                    .collect();
                (t0, t, rng.uniform(0.0, 30.0), shares)
            })
            .collect()
    }

    fn records(stream: &[(u64, u64, f64, Vec<ShareEntry>)]) -> Vec<IntervalRecord<'_>> {
        stream
            .iter()
            .map(|(t0, t1, power_w, shares)| IntervalRecord {
                t0: SimTime::from_micros(*t0),
                t1: SimTime::from_micros(*t1),
                power_w: Watts(*power_w),
                breakdown: PowerBreakdown::default(),
                states: DeviceStates::full_on_idle(),
                shares,
            })
            .collect()
    }

    fn scope_run(
        seed: u64,
        resolver: Option<FrameResolver>,
        recs: &[IntervalRecord<'_>],
    ) -> CollectedRun {
        let (mut scope, mut obs) = PowerScope::new(seed);
        if let Some(resolver) = resolver {
            scope.set_resolver(resolver);
        }
        for rec in recs {
            obs.on_interval(rec);
        }
        drop(obs);
        scope.into_run()
    }

    /// The collected run, then the same run degraded: stripped or
    /// rebuilt tables, empty stacks, and dropped samples.
    fn variants(run: &CollectedRun, rng: &mut SimRng) -> Vec<CollectedRun> {
        let mut stripped = run.clone();
        stripped.symbols.remove("srv");
        if let Some(app) = stripped.symbols.get_mut("app") {
            // A table laid out differently: some PCs land on other
            // names, some on a literal `(unknown)`, some on no symbol.
            let mut other = SymbolTable::new();
            for name in ["loop", UNKNOWN_PROCEDURE, "work", "io"] {
                other.intern(name);
            }
            *app = other;
        }
        let mut empty = run.clone();
        for s in empty.trace.samples.iter_mut().step_by(7) {
            s.stack = CallStack::default();
        }
        let mut gappy = run.clone();
        gappy.trace.samples.retain(|_| !rng.bernoulli(0.3));
        vec![run.clone(), stripped, empty, gappy]
    }

    #[test]
    fn pipeline_matches_the_string_keyed_model() {
        let mut deepest = 0;
        for case in 0..48u64 {
            let mut rng = SimRng::new(case).fork("reference");
            let stream = stream(&mut rng);
            let recs = records(&stream);
            let resolver = (case % 4 != 3).then_some(resolve as FrameResolver);
            let got = scope_run(case, resolver, &recs);
            let want = collect(case, resolver, &recs);
            assert_eq!(
                format!("{:?}", got.trace),
                format!("{:?}", want.trace),
                "case {case}: samples"
            );
            assert_eq!(got.symbols, want.symbols, "case {case}: symbol tables");
            deepest = deepest.max(
                got.trace
                    .samples
                    .iter()
                    .map(|s| s.stack.depth())
                    .max()
                    .unwrap_or(0),
            );
            for (v, run) in variants(&got, &mut rng).iter().enumerate() {
                assert_eq!(
                    format!("{:?}", correlate(run)),
                    format!("{:?}", model_correlate(run)),
                    "case {case} variant {v}: flat profile"
                );
                assert_eq!(
                    format!("{:?}", correlate_paths(run)),
                    format!("{:?}", model_correlate_paths(run)),
                    "case {case} variant {v}: path profile"
                );
            }
        }
        assert_eq!(deepest, MAX_STACK_DEPTH, "no stream overflowed a stack");
    }
}
