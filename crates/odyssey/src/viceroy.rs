//! The viceroy's original adaptation loop: bandwidth expectations.
//!
//! "The viceroy is the Odyssey component responsible for monitoring the
//! availability of resources and managing their use."
//! [`BandwidthMonitor`] is the original Odyssey adaptation ("the initial
//! Odyssey prototype only supported network bandwidth adaptation"): a
//! periodic hook that passively estimates each registered application's
//! achieved network throughput, compares it against the application's
//! expectation window, and issues upcalls when the level strays outside.
//! The energy work of Section 5 layers the goal-directed controller on
//! the same upcall mechanism.

use machine::{AdaptDirection, ControlHook, MachineView, Pid};
use simcore::{SimDuration, SimTime, TraceEvent};

use crate::expectation::{Expectation, WindowEvent};

/// A bandwidth-window registration for one application.
#[derive(Clone, Copy, Debug)]
struct Registration {
    pid: Pid,
    window: Expectation,
    last_upcall: Option<SimTime>,
}

/// Passive per-application bandwidth estimation with expectation-window
/// upcalls — the original Odyssey adaptation loop.
///
/// Supply is estimated from each application's own transfers: the goodput
/// of the most recent completed receive ([`MachineView::transfer_rate_of`])
/// is the bandwidth the network actually offered it, independent of how
/// little the application chose to fetch — which is what lets the monitor
/// detect *headroom* and upgrade a degraded application once the link
/// clears.
pub struct BandwidthMonitor {
    regs: Vec<Registration>,
    window: SimDuration,
    upcall_min_interval: SimDuration,
}

impl std::fmt::Debug for BandwidthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthMonitor")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl BandwidthMonitor {
    /// Creates a monitor that evaluates throughput over `window`-long
    /// periods, rate-limiting upcalls per application to one per
    /// `upcall_min_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration, upcall_min_interval: SimDuration) -> Self {
        assert!(!window.is_zero(), "evaluation window must be positive");
        BandwidthMonitor {
            regs: Vec::new(),
            window,
            upcall_min_interval,
        }
    }

    /// The evaluation window; attach the monitor with this hook period.
    pub fn period(&self) -> SimDuration {
        self.window
    }

    /// Registers an application's bandwidth expectation, bits/s.
    pub fn register(&mut self, pid: Pid, window: Expectation) {
        self.regs.push(Registration {
            pid,
            window,
            last_upcall: None,
        });
    }
}

impl ControlHook for BandwidthMonitor {
    fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
        // Two-phase: measure first, then upcall, so a borrow of `view`
        // isn't held across mutation.
        let mut pending = Vec::new();
        for (i, r) in self.regs.iter().enumerate() {
            let Some(bps) = view.transfer_rate_of(r.pid) else {
                continue;
            };
            let Some(event) = r.window.classify(bps) else {
                continue;
            };
            if let Some(last) = r.last_upcall {
                if now.since(last) < self.upcall_min_interval {
                    continue;
                }
            }
            pending.push((i, event));
        }
        for (i, event) in pending {
            let dir = match event {
                WindowEvent::BelowWindow => AdaptDirection::Degrade,
                WindowEvent::AboveWindow => AdaptDirection::Upgrade,
            };
            let changed = view.upcall(self.regs[i].pid, dir);
            view.emit_trace(TraceEvent::WardenUpcall {
                pid: self.regs[i].pid.index() as u64,
                event: match event {
                    WindowEvent::BelowWindow => "below",
                    WindowEvent::AboveWindow => "above",
                },
                changed,
            });
            if changed {
                self.regs[i].last_upcall = Some(now);
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use machine::{Activity, FidelityView, Machine, MachineConfig, Step, Workload};
    use simcore::SimRng;

    /// A streaming workload whose per-period fetch size depends on its
    /// fidelity level — a miniature video player.
    struct Streamer {
        level: usize,
        until: SimTime,
    }

    impl Streamer {
        fn bytes(&self) -> u64 {
            match self.level {
                0 => 10_000, // ~0.8 Mb/s at 10 Hz
                _ => 22_000, // ~1.76 Mb/s at 10 Hz
            }
        }
    }

    impl Workload for Streamer {
        fn name(&self) -> &'static str {
            "streamer"
        }
        fn names(&self) -> Vec<&'static str> {
            vec!["stream"]
        }
        fn poll(&mut self, now: SimTime) -> Step {
            if now >= self.until {
                return Step::Done;
            }
            // Alternate fetch and pacing to a 100 ms period.
            let phase = now.as_micros() % 100_000;
            if phase == 0 {
                Step::Run(Activity::BulkFetch {
                    bytes: self.bytes(),
                    procedure: "stream",
                })
            } else {
                let next = now + SimDuration::from_micros(100_000 - phase);
                Step::Run(Activity::Wait { until: next })
            }
        }
        fn fidelity(&self) -> FidelityView {
            FidelityView::new(self.level, 2)
        }
        fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
            match dir {
                AdaptDirection::Degrade if self.level > 0 => {
                    self.level -= 1;
                    true
                }
                AdaptDirection::Upgrade if self.level < 1 => {
                    self.level += 1;
                    true
                }
                _ => false,
            }
        }
    }

    /// Alone on the link, the streamer meets its expectation and keeps
    /// full fidelity.
    #[test]
    fn uncontended_stream_stays_at_full_fidelity() {
        let mut m = Machine::new(MachineConfig::default());
        let pid = m.add_process(Box::new(Streamer {
            level: 1,
            until: SimTime::from_secs(20),
        }));
        let mut monitor =
            BandwidthMonitor::new(SimDuration::from_secs(1), SimDuration::from_secs(2));
        monitor.register(pid, Expectation::new(1.2e6, 10.0e6));
        let period = monitor.period();
        m.add_hook(period, Box::new(monitor));
        let report = m.run();
        assert_eq!(report.adaptations_of("streamer"), 0);
    }

    /// After the competitor drains, the per-transfer goodput recovers to
    /// the full link rate, signalling headroom: the monitor upgrades the
    /// streamer back.
    #[test]
    fn recovery_triggers_upgrade() {
        let mut m = Machine::new(MachineConfig::default());
        let pid = m.add_process(Box::new(Streamer {
            level: 1,
            until: SimTime::from_secs(40),
        }));
        m.add_background_process(Box::new(ScriptedWorkload::new(
            "hog",
            vec![
                Activity::Wait {
                    until: SimTime::from_secs(5),
                },
                Activity::BulkFetch {
                    bytes: 2_000_000,
                    procedure: "hog_fetch",
                },
            ],
        )));
        let mut monitor =
            BandwidthMonitor::new(SimDuration::from_secs(1), SimDuration::from_secs(2));
        // Upper edge below the clear-link goodput (2 Mb/s), so headroom
        // is visible once the hog finishes.
        monitor.register(pid, Expectation::new(1.2e6, 1.95e6));
        let period = monitor.period();
        m.add_hook(period, Box::new(monitor));
        let report = m.run();
        let series = report
            .fidelity
            .iter()
            .find(|s| s.name() == "streamer")
            .unwrap();
        // Degraded during contention, restored by the end.
        assert_eq!(series.value_at(SimTime::from_secs(15)).unwrap(), 0.0);
        assert_eq!(series.value_at(SimTime::from_secs(39)).unwrap(), 1.0);
    }

    /// A competing bulk transfer steals bandwidth; the monitor sees the
    /// streamer fall below its window and degrades it.
    #[test]
    fn contention_triggers_bandwidth_degrade() {
        let mut m = Machine::new(MachineConfig::default());
        let pid = m.add_process(Box::new(Streamer {
            level: 1,
            until: SimTime::from_secs(30),
        }));
        // A competitor that hogs the link from t=5 to roughly t=25.
        let mut rng = SimRng::new(1);
        let _ = rng.uniform(0.0, 1.0);
        m.add_background_process(Box::new(ScriptedWorkload::new(
            "hog",
            vec![
                Activity::Wait {
                    until: SimTime::from_secs(5),
                },
                Activity::BulkFetch {
                    bytes: 4_000_000,
                    procedure: "hog_fetch",
                },
            ],
        )));
        let mut monitor =
            BandwidthMonitor::new(SimDuration::from_secs(1), SimDuration::from_secs(2));
        monitor.register(pid, Expectation::new(1.2e6, 10.0e6));
        let period = monitor.period();
        m.add_hook(period, Box::new(monitor));
        let report = m.run();
        assert!(
            report.adaptations_of("streamer") >= 1,
            "no adaptation under contention"
        );
        // The fidelity series must show a drop to level 0 during the
        // contention window.
        let series = report
            .fidelity
            .iter()
            .find(|s| s.name() == "streamer")
            .unwrap();
        let during = series.value_at(SimTime::from_secs(15)).unwrap();
        assert_eq!(during, 0.0, "streamer not degraded under contention");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = BandwidthMonitor::new(SimDuration::ZERO, SimDuration::ZERO);
    }
}
