//! The thread-scaling benchmark sweep behind the `bench` CLI verb.
//!
//! A sweep times each canonical scenario at several worker-thread counts
//! and reports wall-clock medians plus the speedup relative to the serial
//! (`threads = 1`) run of the same scenario. Results serialize to the
//! `bench_sweep/v2` JSON document (`BENCH_sweep.json`) that CI archives
//! as the performance baseline; [`parse_sweep_json`] still accepts the
//! older `bench_sweep/v1` layout (its scheduler-metadata fields read as
//! zero/unknown).
//!
//! Since v2 every record carries the host's available parallelism and
//! the work pool's dispatch metadata (dispatches, inline fallbacks,
//! claims, workers spawned) for the scenario, so a speedup
//! regression in `bench --check` is diagnosable from the artifact
//! alone: a scenario at 1.0x with `pool_inline_runs == pool_dispatches`
//! took the inline path (nothing to parallelize, or a 1-core host) —
//! that is a scheduling decision, not a lost race.
//!
//! Only the *measurement* lives here; the scenarios themselves are
//! defined by the caller (the experiments crate) so this crate stays
//! dependency-free. Timing uses [`Stopwatch`](crate::Stopwatch), the
//! workspace's sanctioned wall-clock source.

use crate::Stopwatch;

/// One measurement: a scenario at a worker-thread count.
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Scenario identifier (e.g. `fig2`, `goal`).
    pub scenario: String,
    /// Worker threads the scenario ran with.
    pub threads: usize,
    /// Timed repetitions behind the median (after one warm-up).
    pub reps: usize,
    /// Median wall-clock time across the repetitions, milliseconds.
    pub median_wall_ms: f64,
    /// Fastest repetition, milliseconds.
    pub min_wall_ms: f64,
    /// Serial median divided by this median (1.0 for the serial row).
    pub speedup_vs_serial: f64,
    /// Sustained work rate, units per wall second, for scenarios with a
    /// countable unit of work (the `serve` scenario reports directives
    /// issued per second); `None` elsewhere.
    pub work_per_s: Option<f64>,
    /// Hardware threads available on the measuring host (0 when the
    /// record predates `bench_sweep/v2`).
    pub host_threads: usize,
    /// Work-pool dispatches during one run of the scenario.
    pub pool_dispatches: u64,
    /// Dispatches that took the inline fallback (spawned nothing).
    pub pool_inline_runs: u64,
    /// Claims across the spawning dispatches: one per job.
    pub pool_chunks: u64,
    /// Workers spawned, summed across dispatches.
    pub pool_workers: u64,
}

impl BenchRecord {
    /// One-word scheduling summary for the human table: why this row
    /// did or did not fan out (`Nch/Mw`: N claims over M workers).
    pub fn sched_summary(&self) -> String {
        if self.pool_dispatches == 0 {
            // Pre-v2 record (or a scenario that never dispatched).
            "-".to_string()
        } else if self.pool_inline_runs == self.pool_dispatches {
            format!("inline x{}", self.pool_inline_runs)
        } else {
            format!("{}ch/{}w", self.pool_chunks, self.pool_workers)
        }
    }
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `f` over `reps` iterations (after one untimed warm-up) and
/// returns `(median_ms, min_ms)`.
#[expect(
    clippy::disallowed_methods,
    reason = "the sweep times real execution by design"
)]
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    assert!(reps > 0, "bench needs at least one repetition");
    f(); // warm-up: fault in code and allocator state
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sw = Stopwatch::start();
        f();
        samples.push(sw.elapsed_s() * 1e3);
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (median(&samples), min)
}

/// Renders records as the `bench_sweep/v2` JSON document.
///
/// Hand-rolled so the bench crate stays dependency-free; scenario names
/// are CLI identifiers (no quotes or backslashes to escape).
pub fn render_sweep_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": \"bench_sweep/v2\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let work = r
            .work_per_s
            .map(|w| format!(", \"directives_per_s\": {w:.1}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"threads\": {}, \"reps\": {}, \
             \"median_wall_ms\": {:.3}, \"min_wall_ms\": {:.3}, \
             \"speedup_vs_serial\": {:.3}, \
             \"host_threads\": {}, \"pool_dispatches\": {}, \
             \"pool_inline_runs\": {}, \"pool_chunks\": {}, \
             \"pool_workers\": {}{work}}}{sep}\n",
            r.scenario,
            r.threads,
            r.reps,
            r.median_wall_ms,
            r.min_wall_ms,
            r.speedup_vs_serial,
            r.host_threads,
            r.pool_dispatches,
            r.pool_inline_runs,
            r.pool_chunks,
            r.pool_workers,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `bench_sweep/v1` *or* `/v2` document back into records —
/// the inverse of [`render_sweep_json`], hand-rolled against the same
/// line-per-record layout so the bench crate stays dependency-free.
/// v1 records carry no scheduler metadata; their v2-only fields parse
/// as zero (meaning "unknown"), which [`speedup_regressions`] never
/// compares.
pub fn parse_sweep_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    if !text.contains("\"schema\": \"bench_sweep/v1\"")
        && !text.contains("\"schema\": \"bench_sweep/v2\"")
    {
        return Err("not a bench_sweep/v1 or /v2 document".to_string());
    }
    let mut records = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim().trim_end_matches(',');
        if !trimmed.starts_with('{') || !trimmed.contains("\"scenario\"") {
            continue;
        }
        records.push(BenchRecord {
            scenario: str_field(trimmed, "scenario")?,
            threads: num_field(trimmed, "threads")? as usize,
            reps: num_field(trimmed, "reps")? as usize,
            median_wall_ms: num_field(trimmed, "median_wall_ms")?,
            min_wall_ms: num_field(trimmed, "min_wall_ms")?,
            speedup_vs_serial: num_field(trimmed, "speedup_vs_serial")?,
            work_per_s: num_field(trimmed, "directives_per_s").ok(),
            host_threads: num_field(trimmed, "host_threads")
                .map(|v| v as usize)
                .unwrap_or(0),
            pool_dispatches: num_field(trimmed, "pool_dispatches")
                .map(|v| v as u64)
                .unwrap_or(0),
            pool_inline_runs: num_field(trimmed, "pool_inline_runs")
                .map(|v| v as u64)
                .unwrap_or(0),
            pool_chunks: num_field(trimmed, "pool_chunks")
                .map(|v| v as u64)
                .unwrap_or(0),
            pool_workers: num_field(trimmed, "pool_workers")
                .map(|v| v as u64)
                .unwrap_or(0),
        });
    }
    if records.is_empty() {
        return Err("bench_sweep document has no records".to_string());
    }
    Ok(records)
}

fn raw_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\": ");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("missing `{key}` in record line"))?
        + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

fn str_field(line: &str, key: &str) -> Result<String, String> {
    Ok(raw_field(line, key)?.trim_matches('"').to_string())
}

fn num_field(line: &str, key: &str) -> Result<f64, String> {
    let raw = raw_field(line, key)?;
    raw.parse::<f64>()
        .map_err(|e| format!("bad `{key}` value `{raw}`: {e}"))
}

/// Compares a fresh sweep against a committed baseline and returns one
/// line per regression: a `threads > 1` row whose speedup fell more
/// than `tolerance` below the baseline's, a baseline scenario that
/// silently dropped out of the sweep at a thread count the sweep did
/// measure, or a baseline scenario with *no* rows at all in the fresh
/// sweep (a whole scenario vanishing must fail even when no thread
/// counts overlap — otherwise deleting a scenario passes `--check`).
/// Baseline thread counts the fresh sweep never ran are not
/// regressions — CI sweeps a subset of the committed grid. Speedups are
/// ratios of medians taken on the same machine in the same run, so the
/// check is machine-portable — absolute wall times never participate.
/// Serial rows are skipped (their speedup is 1.0 by construction), and
/// speedups *above* baseline are never flagged.
pub fn speedup_regressions(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
    tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    // Whole-scenario absence first: one line per vanished scenario, in
    // baseline order, deduplicated across its thread-count rows.
    let mut missing_scenarios: Vec<&str> = Vec::new();
    for b in baseline {
        if !current.iter().any(|c| c.scenario == b.scenario)
            && !missing_scenarios.iter().any(|s| *s == b.scenario)
        {
            missing_scenarios.push(&b.scenario);
        }
    }
    for s in &missing_scenarios {
        out.push(format!("{s}: scenario absent from current sweep"));
    }
    for b in baseline {
        if b.threads <= 1
            || !current.iter().any(|c| c.threads == b.threads)
            || missing_scenarios.iter().any(|s| *s == b.scenario)
        {
            continue;
        }
        let Some(c) = current
            .iter()
            .find(|c| c.scenario == b.scenario && c.threads == b.threads)
        else {
            out.push(format!(
                "{}@{}: row missing from current sweep (baseline speedup {:.3})",
                b.scenario, b.threads, b.speedup_vs_serial
            ));
            continue;
        };
        if c.speedup_vs_serial < b.speedup_vs_serial - tolerance {
            out.push(format!(
                "{}@{}: speedup {:.3} fell more than {:.2} below baseline {:.3}",
                b.scenario, b.threads, c.speedup_vs_serial, tolerance, b.speedup_vs_serial
            ));
        }
    }
    out
}

/// Renders records as a human-readable table (stdout companion to the
/// JSON artifact).
pub fn render_sweep_table(records: &[BenchRecord]) -> String {
    let mut out = String::from(
        "Benchmark sweep (wall-clock, median over reps)\n\
         scenario     threads  median_ms      min_ms  speedup  sched            work/s\n",
    );
    for r in records {
        let work = r
            .work_per_s
            .map(|w| format!("  {w:>7.0}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "{:<12} {:>7}  {:>9.1}  {:>10.1}  {:>6.2}x  {:<15}{work}\n",
            r.scenario,
            r.threads,
            r.median_wall_ms,
            r.min_wall_ms,
            r.speedup_vs_serial,
            r.sched_summary(),
        ));
    }
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the sanctioned clock")]
    fn time_reps_runs_warmup_plus_reps() {
        let mut n = 0usize;
        let (med, min) = time_reps(3, || n += 1);
        assert_eq!(n, 4);
        assert!(min >= 0.0 && med >= min);
    }

    #[test]
    fn sweep_json_is_well_formed() {
        let records = vec![
            BenchRecord {
                scenario: "fig2".into(),
                threads: 1,
                reps: 3,
                median_wall_ms: 12.5,
                min_wall_ms: 11.0,
                speedup_vs_serial: 1.0,
                work_per_s: None,
                host_threads: 8,
                pool_dispatches: 20,
                pool_inline_runs: 20,
                pool_chunks: 0,
                pool_workers: 0,
            },
            BenchRecord {
                scenario: "fig2".into(),
                threads: 4,
                reps: 3,
                median_wall_ms: 4.0,
                min_wall_ms: 3.5,
                speedup_vs_serial: 3.125,
                work_per_s: Some(1234.5),
                host_threads: 8,
                pool_dispatches: 20,
                pool_inline_runs: 2,
                pool_chunks: 90,
                pool_workers: 72,
            },
        ];
        let json = render_sweep_json(&records);
        assert!(json.contains("\"schema\": \"bench_sweep/v2\""));
        assert!(json.contains("\"scenario\": \"fig2\""));
        assert!(json.contains("\"speedup_vs_serial\": 3.125"));
        // Every record carries the scheduler metadata.
        assert_eq!(json.matches("\"host_threads\": 8").count(), 2);
        assert!(json.contains("\"pool_chunks\": 90"));
        assert!(json.contains("\"pool_workers\": 72"));
        // The work-rate field appears only on rows that measure one.
        assert!(json.contains("\"directives_per_s\": 1234.5"));
        assert_eq!(json.matches("directives_per_s").count(), 1);
        // Exactly one trailing comma between the two records.
        assert_eq!(json.matches("},\n").count(), 1);
        // Balanced braces make it parseable by any JSON reader.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn parse_round_trips_render() {
        let records = vec![
            BenchRecord {
                scenario: "fig2".into(),
                threads: 1,
                reps: 3,
                median_wall_ms: 12.5,
                min_wall_ms: 11.0,
                speedup_vs_serial: 1.0,
                work_per_s: None,
                host_threads: 4,
                pool_dispatches: 7,
                pool_inline_runs: 7,
                pool_chunks: 0,
                pool_workers: 0,
            },
            BenchRecord {
                scenario: "serve".into(),
                threads: 4,
                reps: 3,
                median_wall_ms: 4.0,
                min_wall_ms: 3.5,
                speedup_vs_serial: 3.125,
                work_per_s: Some(1234.5),
                host_threads: 4,
                pool_dispatches: 7,
                pool_inline_runs: 1,
                pool_chunks: 24,
                pool_workers: 24,
            },
        ];
        let parsed = parse_sweep_json(&render_sweep_json(&records)).expect("parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].scenario, "fig2");
        assert_eq!(parsed[0].threads, 1);
        assert_eq!(parsed[0].work_per_s, None);
        assert_eq!(parsed[0].host_threads, 4);
        assert_eq!(parsed[0].pool_inline_runs, 7);
        assert_eq!(parsed[1].scenario, "serve");
        assert_eq!(parsed[1].reps, 3);
        assert!((parsed[1].median_wall_ms - 4.0).abs() < 1e-9);
        assert!((parsed[1].speedup_vs_serial - 3.125).abs() < 1e-9);
        assert!((parsed[1].work_per_s.expect("rate") - 1234.5).abs() < 1e-9);
        assert_eq!(parsed[1].pool_chunks, 24);
        assert_eq!(parsed[1].pool_workers, 24);
    }

    #[test]
    fn parse_accepts_v1_documents_without_scheduler_metadata() {
        // The pre-v2 layout must keep parsing (old baselines, old CI
        // artifacts); its v2-only fields read as zero/unknown.
        let v1 = "{\n  \"schema\": \"bench_sweep/v1\",\n  \"records\": [\n    \
                  {\"scenario\": \"fig2\", \"threads\": 2, \"reps\": 3, \
                  \"median_wall_ms\": 1.765, \"min_wall_ms\": 1.694, \
                  \"speedup_vs_serial\": 1.188}\n  ]\n}\n";
        let parsed = parse_sweep_json(v1).expect("parse v1");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].scenario, "fig2");
        assert!((parsed[0].speedup_vs_serial - 1.188).abs() < 1e-9);
        assert_eq!(parsed[0].host_threads, 0);
        assert_eq!(parsed[0].pool_dispatches, 0);
        assert_eq!(parsed[0].sched_summary(), "-");
    }

    #[test]
    fn parse_rejects_foreign_and_empty_documents() {
        assert!(parse_sweep_json("{\"schema\": \"other/v1\"}").is_err());
        assert!(parse_sweep_json("{\"schema\": \"bench_sweep/v3\"}").is_err());
        assert!(parse_sweep_json(
            "{\n  \"schema\": \"bench_sweep/v2\",\n  \"records\": [\n  ]\n}\n"
        )
        .is_err());
        // A mangled numeric field is an error, not a silent zero.
        let bad = "{\"schema\": \"bench_sweep/v2\"}\n{\"scenario\": \"x\", \"threads\": no}\n";
        assert!(parse_sweep_json(bad).is_err());
    }

    fn row(scenario: &str, threads: usize, speedup: f64) -> BenchRecord {
        BenchRecord {
            scenario: scenario.into(),
            threads,
            reps: 3,
            median_wall_ms: 10.0,
            min_wall_ms: 9.0,
            speedup_vs_serial: speedup,
            ..BenchRecord::default()
        }
    }

    #[test]
    fn regressions_flag_only_real_speedup_drops() {
        let baseline = vec![
            row("fig2", 1, 1.0),
            row("fig2", 4, 2.0),
            row("goal", 4, 1.0),
        ];
        // Within tolerance, above baseline, and serial rows: all clean.
        let ok = vec![
            row("fig2", 1, 0.2),
            row("fig2", 4, 1.8),
            row("goal", 4, 1.4),
        ];
        assert!(speedup_regressions(&ok, &baseline, 0.30).is_empty());
        // A drop past the band is flagged with both numbers.
        let slow = vec![row("fig2", 4, 1.5), row("goal", 4, 0.9)];
        let r = speedup_regressions(&slow, &baseline, 0.30);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("fig2@4"), "{}", r[0]);
        assert!(r[0].contains("1.500"), "{}", r[0]);
        assert!(r[0].contains("2.000"), "{}", r[0]);
    }

    #[test]
    fn regressions_flag_missing_rows() {
        // A scenario that dropped out of the sweep entirely is flagged
        // exactly once (not once per baseline thread count)…
        let baseline = vec![row("fig2", 1, 1.0), row("fig2", 4, 2.0)];
        let current = vec![row("goal", 4, 1.0)];
        let r = speedup_regressions(&current, &baseline, 0.30);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("absent"), "{}", r[0]);
        // …but a thread count the sweep never ran is not — CI sweeps a
        // subset of the committed grid.
        let narrow = vec![row("fig2", 2, 1.1)];
        assert!(speedup_regressions(&narrow, &baseline, 0.30).is_empty());
    }

    #[test]
    fn regressions_flag_absent_scenario_even_without_thread_overlap() {
        // Regression fix: a whole scenario vanishing from the fresh
        // sweep must fail --check even when the sweep measured none of
        // the baseline's thread counts for it. The old detector scoped
        // the absence check to measured thread counts, so deleting a
        // scenario while sweeping a disjoint thread set passed.
        let baseline = vec![row("serve", 1, 1.0), row("serve", 8, 1.2)];
        let current = vec![row("fig2", 2, 1.1)];
        let r = speedup_regressions(&current, &baseline, 0.30);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].starts_with("serve:"), "{}", r[0]);
        assert!(r[0].contains("absent"), "{}", r[0]);
        // A per-(scenario, threads) row dropping out while the scenario
        // survives elsewhere is still reported, as before.
        let baseline = vec![row("fig2", 2, 1.1), row("fig2", 4, 1.3)];
        let current = vec![row("fig2", 2, 1.1), row("goal", 4, 1.0)];
        let r = speedup_regressions(&current, &baseline, 0.30);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("fig2@4"), "{}", r[0]);
        assert!(r[0].contains("row missing"), "{}", r[0]);
    }

    #[test]
    fn committed_baseline_artifact_parses() {
        // The repo's committed baseline must stay parseable — CI hands
        // it to `bench --check`.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_sweep.json"
        );
        let text = std::fs::read_to_string(path).expect("read committed baseline");
        let records = parse_sweep_json(&text).expect("parse committed baseline");
        assert!(records.len() >= 20, "got {} records", records.len());
        assert!(records
            .iter()
            .any(|r| r.scenario == "serve" && r.work_per_s.is_some()));
        // The committed baseline is v2: every record says what host it
        // was measured on and what the scheduler did.
        assert!(records.iter().all(|r| r.host_threads >= 1));
        assert!(records.iter().any(|r| r.pool_dispatches > 0));
    }

    #[test]
    fn sweep_table_lists_every_record() {
        let records = vec![BenchRecord {
            scenario: "goal".into(),
            threads: 2,
            reps: 5,
            median_wall_ms: 100.0,
            min_wall_ms: 90.0,
            speedup_vs_serial: 1.9,
            work_per_s: None,
            host_threads: 2,
            pool_dispatches: 3,
            pool_inline_runs: 3,
            pool_chunks: 0,
            pool_workers: 0,
        }];
        let table = render_sweep_table(&records);
        assert!(table.contains("goal"));
        assert!(table.contains("1.90x"));
        // The sched column explains rows that did not fan out.
        assert!(table.contains("inline x3"), "{table}");
    }
}
