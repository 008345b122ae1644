//! The simulated multimeter + system monitor.
//!
//! [`PowerScope`] attaches to a machine as an interval observer. Within
//! each constant-state interval it fires its sampling clock (nominally
//! [`crate::SAMPLE_HZ`], with ±5% trigger jitter like a free-running
//! instrument), reads the platform current, and draws the PC/PID
//! attribution from the interval's occupancy shares — exactly the
//! statistical attribution the real tool performs, noise included.
//!
//! Everything about a sample except its random draws is fixed by its
//! `(bucket, procedure)` pair, so the collector resolves each pair once:
//! its first sample runs the frames through the resolver, interns them
//! in the bucket's symbol table, and keeps the resulting stack of range
//! starts as the pair's template, found again by pointer identity. Every
//! sample is then its two draws (the pick and the PC skew), the template
//! shifted by `skew % PROCEDURE_SIZE`, and a push onto the trace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use machine::{IntervalObserver, IntervalRecord};
use simcore::{SimDuration, SimRng, SimTime, TraceEvent, TraceHandle};

use crate::sample::{CallStack, CollectedRun, Sample};
use crate::symbols::PROCEDURE_SIZE;
use crate::{SAMPLE_HZ, SUPPLY_VOLTS};

/// Resolves a `(bucket, leaf procedure)` pair to its static call path
/// (root frame first, ending in the leaf), or `None` for a leaf with no
/// declared tree. Injected by the rig — the profiler cannot depend on
/// the workload crates, so the call-tree data arrives as a function.
pub type FrameResolver = fn(&str, &str) -> Option<&'static [&'static str]>;

/// A `(bucket, procedure)` pair's range starts, root frame first, as
/// [`CallStack::push`] would capture them: frames past
/// [`crate::sample::MAX_STACK_DEPTH`] have already dropped the root.
struct Template {
    bucket: &'static str,
    procedure: &'static str,
    starts: CallStack,
}

struct Collector {
    rng: SimRng,
    period: SimDuration,
    next_at: SimTime,
    run: CollectedRun,
    trace: Option<TraceHandle>,
    resolver: Option<FrameResolver>,
    templates: Vec<Template>,
}

impl Collector {
    fn on_interval(&mut self, rec: &IntervalRecord<'_>) {
        while self.next_at < rec.t1 {
            if self.next_at >= rec.t0 {
                let current_a = rec.power_w.0 / SUPPLY_VOLTS;
                let pick = &rec.shares[self.rng.weighted_index_by(rec.shares, |s| s.fraction)];
                let starts = self.template(pick.bucket, pick.procedure);
                // The system monitor captures one raw PC per call-stack
                // frame inside the running procedure; the offline stage
                // resolves them later. One skew per trigger whatever the
                // depth, so attaching a resolver never perturbs the rng
                // draws or the machine's golden traces.
                let skew = self.rng.uniform_u64(0, u32::MAX as u64) as u32;
                let stack = starts.shifted(skew % PROCEDURE_SIZE);
                if let Some(tr) = &self.trace {
                    tr.emit(
                        self.next_at,
                        TraceEvent::MeterSample {
                            current_a,
                            process: pick.bucket,
                        },
                    );
                }
                self.run.trace.samples.push(Sample {
                    at: self.next_at,
                    current_a,
                    process: pick.bucket,
                    stack,
                });
            }
            // ±5% trigger jitter around the nominal period.
            let jitter = self.rng.uniform(0.95, 1.05);
            self.next_at += self.period.mul_f64(jitter);
        }
        self.run.trace.end = rec.t1;
    }

    /// The pair's template, keyed by pointer identity as the machine's
    /// ledger keys its pairs: the workloads hand out the same
    /// `&'static str` for every interval, and a pointer-distinct copy
    /// of a known pair only costs a second, identical template.
    fn template(&mut self, bucket: &'static str, procedure: &'static str) -> CallStack {
        let same =
            |t: &&Template| std::ptr::eq(t.bucket, bucket) && std::ptr::eq(t.procedure, procedure);
        match self.templates.iter().find(same) {
            Some(t) => t.starts,
            None => self.learn(bucket, procedure),
        }
    }

    /// A pair's first sample: resolves its frames (the leaf alone when
    /// no resolver declares a path), interns them in the bucket's table
    /// in frame order, and records the template.
    fn learn(&mut self, bucket: &'static str, procedure: &'static str) -> CallStack {
        let fallback = [procedure];
        let frames: &[&'static str] =
            match self.resolver.and_then(|resolve| resolve(bucket, procedure)) {
                Some(path) if !path.is_empty() => path,
                _ => &fallback,
            };
        let table = self.run.symbols.entry(bucket).or_default();
        let mut starts = CallStack::default();
        for frame in frames {
            starts.push(table.intern(frame));
        }
        self.templates.push(Template {
            bucket,
            procedure,
            starts,
        });
        starts
    }
}

/// A PowerScope data-collection session.
///
/// Construction yields the handle plus an observer to register with the
/// machine; after the run, [`PowerScope::into_run`] returns the raw
/// streams and symbol tables for [`crate::correlate()`].
///
/// # Examples
///
/// ```
/// use machine::{Machine, MachineConfig};
/// use machine::workload::ScriptedWorkload;
/// use powerscope::PowerScope;
/// use simcore::SimDuration;
///
/// let (scope, observer) = PowerScope::new(42);
/// let mut m = Machine::new(MachineConfig::baseline());
/// m.add_observer(observer);
/// m.add_process(Box::new(ScriptedWorkload::idle_for(
///     "idler",
///     SimDuration::from_secs(2),
/// )));
/// let _ = m.run();
/// let run = scope.into_run();
/// assert!(run.trace.len() > 1000, "~600 Hz over 2 s");
/// ```
pub struct PowerScope {
    shared: Rc<RefCell<Collector>>,
}

impl std::fmt::Debug for PowerScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerScope").finish_non_exhaustive()
    }
}

struct ScopeObserver(Rc<RefCell<Collector>>);

impl IntervalObserver for ScopeObserver {
    fn on_interval(&mut self, rec: &IntervalRecord<'_>) {
        self.0.borrow_mut().on_interval(rec);
    }
}

impl PowerScope {
    /// Creates a session sampling at [`SAMPLE_HZ`].
    pub fn new(seed: u64) -> (PowerScope, Box<dyn IntervalObserver>) {
        let shared = Rc::new(RefCell::new(Collector {
            rng: SimRng::new(seed).fork("powerscope"),
            period: SimDuration::from_secs_f64(1.0 / SAMPLE_HZ.0),
            next_at: SimTime::ZERO,
            run: CollectedRun {
                symbols: BTreeMap::new(),
                ..Default::default()
            },
            trace: None,
            resolver: None,
            templates: Vec::new(),
        }));
        (
            PowerScope {
                shared: shared.clone(),
            },
            Box::new(ScopeObserver(shared)),
        )
    }

    /// Attaches a simtrace handle: every captured sample is also emitted
    /// as a `meter_sample` event (high-frequency — the `Meter` category).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.shared.borrow_mut().trace = Some(trace);
    }

    /// Attaches a call-path resolver: each sample then captures one PC
    /// per declared call-tree frame instead of the leaf alone, enabling
    /// [`crate::correlate_paths`]. Resolution draws no randomness, so
    /// the sample stream's timing and attribution are identical with or
    /// without a resolver. Attach before the run starts.
    pub fn set_resolver(&mut self, resolver: FrameResolver) {
        let mut collector = self.shared.borrow_mut();
        collector.resolver = Some(resolver);
        collector.templates.clear();
    }

    /// Consumes the session, returning the collected streams and symbol
    /// tables.
    pub fn into_run(self) -> CollectedRun {
        match Rc::try_unwrap(self.shared) {
            Ok(cell) => cell.into_inner().run,
            Err(shared) => shared.borrow().run.clone(),
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use hw560x::platform::PowerBreakdown;
    use hw560x::DeviceStates;
    use machine::ShareEntry;
    use simcore::Watts;

    fn record(t0: u64, t1: u64, power_w: f64, shares: &[ShareEntry]) -> CollectedRun {
        let (scope, mut obs) = PowerScope::new(7);
        let rec = IntervalRecord {
            t0: SimTime::from_secs(t0),
            t1: SimTime::from_secs(t1),
            power_w: Watts(power_w),
            breakdown: PowerBreakdown::default(),
            states: DeviceStates::full_on_idle(),
            shares,
        };
        obs.on_interval(&rec);
        drop(obs);
        scope.into_run()
    }

    #[test]
    fn sampling_rate_is_approximately_nominal() {
        let shares = [ShareEntry {
            bucket: "Idle",
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        let run = record(0, 10, 10.0, &shares);
        let rate = run.trace.mean_rate_hz();
        assert!(
            (SAMPLE_HZ * 0.95..=SAMPLE_HZ * 1.05).contains(&rate),
            "rate {rate}"
        );
    }

    #[test]
    fn current_reflects_power() {
        let shares = [ShareEntry {
            bucket: "Idle",
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        let run = record(0, 1, 24.0, &shares);
        for s in &run.trace.samples {
            assert!((s.current_a - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn attribution_follows_share_weights() {
        let shares = [
            ShareEntry {
                bucket: "app",
                procedure: "work",
                fraction: 0.8,
            },
            ShareEntry {
                bucket: "WaveLAN",
                procedure: "wavelan_intr",
                fraction: 0.2,
            },
        ];
        let run = record(0, 100, 10.0, &shares);
        let app = run
            .trace
            .samples
            .iter()
            .filter(|s| s.process == "app")
            .count();
        let frac = app as f64 / run.trace.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "app fraction {frac}");
        // Both processes got symbol tables.
        assert_eq!(run.symbols.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let shares = [ShareEntry {
            bucket: "Idle",
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        let a = record(0, 2, 10.0, &shares);
        let b = record(0, 2, 10.0, &shares);
        assert_eq!(a.trace.samples, b.trace.samples);
    }

    #[test]
    fn trace_mirrors_captured_samples() {
        use simcore::{TraceHandle, TraceSink};
        let (mut scope, mut obs) = PowerScope::new(7);
        let trace = TraceHandle::new(TraceSink::new());
        scope.set_trace(trace.clone());
        let shares = [ShareEntry {
            bucket: "Idle",
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        let rec = IntervalRecord {
            t0: SimTime::ZERO,
            t1: SimTime::from_secs(1),
            power_w: Watts(24.0),
            breakdown: PowerBreakdown::default(),
            states: DeviceStates::full_on_idle(),
            shares: &shares,
        };
        obs.on_interval(&rec);
        drop(obs);
        let run = scope.into_run();
        let recs = trace.records();
        assert_eq!(recs.len() + trace.evicted() as usize, run.trace.len());
        match recs[0].event {
            TraceEvent::MeterSample { current_a, process } => {
                assert!((current_a - 2.0).abs() < 1e-12);
                assert_eq!(process, "Idle");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn resolver_adds_frames_without_perturbing_sampling() {
        const PATH: &[&str] = &["app_main", "inner_loop", "work"];
        fn resolve(bucket: &str, leaf: &str) -> Option<&'static [&'static str]> {
            (bucket == "app" && leaf == "work").then_some(PATH)
        }
        let shares = [ShareEntry {
            bucket: "app",
            procedure: "work",
            fraction: 1.0,
        }];
        let rec = IntervalRecord {
            t0: SimTime::ZERO,
            t1: SimTime::from_secs(2),
            power_w: Watts(12.0),
            breakdown: PowerBreakdown::default(),
            states: DeviceStates::full_on_idle(),
            shares: &shares,
        };
        let (plain_scope, mut plain_obs) = PowerScope::new(7);
        plain_obs.on_interval(&rec);
        drop(plain_obs);
        let plain = plain_scope.into_run();
        let (mut scope, mut obs) = PowerScope::new(7);
        scope.set_resolver(resolve);
        obs.on_interval(&rec);
        drop(obs);
        let run = scope.into_run();
        // Same trigger instants and attribution, deeper stacks.
        assert_eq!(plain.trace.len(), run.trace.len());
        for (a, b) in plain.trace.samples.iter().zip(&run.trace.samples) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.current_a, b.current_a);
            assert_eq!(a.process, b.process);
            assert_eq!(a.stack.depth(), 1);
            assert_eq!(b.stack.depth(), 3);
        }
        // Every frame resolves through the symbol table, leaf last.
        let table = &run.symbols["app"];
        let s = &run.trace.samples[0];
        let names: Vec<&str> = s
            .stack
            .frames()
            .iter()
            .map(|pc| table.resolve(*pc))
            .collect();
        assert_eq!(names, PATH);
        assert_eq!(table.resolve(s.pc()), "work");
    }

    #[test]
    fn samples_only_within_intervals() {
        // A gap between observed intervals (machine idle-skip) must not
        // produce samples inside the gap.
        let (scope, mut obs) = PowerScope::new(3);
        let shares = [ShareEntry {
            bucket: "Idle",
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        let mk = |t0: u64, t1: u64| IntervalRecord {
            t0: SimTime::from_secs(t0),
            t1: SimTime::from_secs(t1),
            power_w: Watts(10.0),
            breakdown: PowerBreakdown::default(),
            states: DeviceStates::full_on_idle(),
            shares: &shares,
        };
        obs.on_interval(&mk(0, 1));
        obs.on_interval(&mk(1, 2));
        drop(obs);
        let run = scope.into_run();
        assert!(run.trace.samples.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(run.trace.len() > 1000);
    }
}
