//! Stress and failure-injection tests for the machine.
//!
//! These push the executor through the awkward paths: supplies dying
//! mid-transfer, heavy multiprogramming, controllers that thrash, and the
//! bandwidth estimator under contention.

use hw560x::{DisplayState, EnergySource, PmPolicy};
use machine::workload::ScriptedWorkload;
use machine::{
    Activity, AdaptDirection, ControlHook, FidelityView, Machine, MachineConfig, MachineView, Step,
    Workload,
};
use simcore::Joules;
use simcore::{SimDuration, SimTime};

fn cpu(ms: u64, intensity: f64) -> Activity {
    Activity::Cpu {
        duration: SimDuration::from_millis(ms),
        intensity,
        procedure: "work",
    }
}

/// The battery dies while a bulk transfer is in flight: the run stops at
/// the exhaustion instant with balanced accounting, mid-transfer.
#[test]
fn battery_dies_mid_transfer() {
    let mut m = Machine::new(MachineConfig {
        pm: PmPolicy::disabled(),
        // With an active transfer the platform draws ~12.5 W, so 40 J
        // dies about 3.2 s into the 4-second fetch.
        source: EnergySource::battery(Joules(40.0)),
        ..Default::default()
    });
    m.add_process(Box::new(ScriptedWorkload::new(
        "dl",
        vec![Activity::BulkFetch {
            bytes: 1_000_000, // 4 s at 2 Mb/s.
            procedure: "fetch",
        }],
    )));
    let report = m.run();
    assert!(report.exhausted);
    assert!(report.duration_s() < 4.0, "ran past the transfer");
    assert!(report.duration_s() > 2.0, "died implausibly early");
    let sum: Joules = report.buckets.iter().map(|(_, j)| j).sum();
    assert!((sum - report.total_j).abs() < Joules(1e-6));
    assert!((report.total_j - Joules(40.0)).abs() < Joules(1e-3));
}

/// Eight CPU-hungry processes share the machine; accounting balances and
/// round-robin keeps their energies within a few percent of each other.
#[test]
fn heavy_multiprogramming_is_fair() {
    const NAMES: [&str; 8] = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];
    let mut m = Machine::new(MachineConfig::baseline());
    for name in NAMES {
        m.add_process(Box::new(ScriptedWorkload::new(name, vec![cpu(2_000, 1.0)])));
    }
    let report = m.run();
    assert!((report.duration_s() - 16.0).abs() < 0.2);
    let energies: Vec<f64> = NAMES.iter().map(|n| report.bucket_j(n).0).collect();
    let mean = energies.iter().sum::<f64>() / energies.len() as f64;
    for (name, e) in NAMES.iter().zip(&energies) {
        assert!(
            (e - mean).abs() / mean < 0.05,
            "{name} got {e} J vs mean {mean} J"
        );
    }
}

/// A thrashing controller (degrade/upgrade every tick) cannot corrupt the
/// run: accounting balances and every change is recorded.
#[test]
fn thrashing_controller_is_safe() {
    struct Thrash(bool);
    impl ControlHook for Thrash {
        fn on_tick(&mut self, _now: SimTime, view: &mut MachineView<'_>) {
            let dir = if self.0 {
                AdaptDirection::Degrade
            } else {
                AdaptDirection::Upgrade
            };
            self.0 = !self.0;
            let mut i = 0;
            while let Some(p) = view.process(i) {
                view.upcall(p.pid, dir);
                i += 1;
            }
        }
    }
    struct TwoLevel {
        level: usize,
        until: SimTime,
    }
    impl Workload for TwoLevel {
        fn name(&self) -> &'static str {
            "flappy"
        }
        fn names(&self) -> Vec<&'static str> {
            Vec::new()
        }
        fn poll(&mut self, now: SimTime) -> Step {
            if now >= self.until {
                Step::Done
            } else {
                Step::Run(Activity::Wait { until: self.until })
            }
        }
        fn fidelity(&self) -> FidelityView {
            FidelityView::new(self.level, 2)
        }
        fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
            match dir {
                AdaptDirection::Degrade if self.level == 1 => {
                    self.level = 0;
                    true
                }
                AdaptDirection::Upgrade if self.level == 0 => {
                    self.level = 1;
                    true
                }
                _ => false,
            }
        }
    }
    let mut m = Machine::new(MachineConfig::baseline());
    m.add_process(Box::new(TwoLevel {
        level: 1,
        until: SimTime::from_secs(10),
    }));
    m.add_hook(SimDuration::from_millis(100), Box::new(Thrash(true)));
    let report = m.run();
    // ~100 ticks, each flipping the level once.
    let changes = report.adaptations_of("flappy");
    assert!(
        (90..=101).contains(&changes),
        "unexpected change count {changes}"
    );
    let sum: Joules = report.buckets.iter().map(|(_, j)| j).sum();
    assert!((sum - report.total_j).abs() < Joules(1e-6));
}

/// The passive bandwidth estimator reports the full link rate when alone
/// and the fair share under contention.
#[test]
fn transfer_rate_estimation() {
    struct RateProbe {
        rates: std::rc::Rc<std::cell::RefCell<Vec<f64>>>,
    }
    impl ControlHook for RateProbe {
        fn on_tick(&mut self, _now: SimTime, view: &mut MachineView<'_>) {
            let pid = view.process(0).expect("one process").pid;
            if let Some(rate) = view.transfer_rate_of(pid) {
                self.rates.borrow_mut().push(rate);
            }
        }
    }
    // Alone: a 250 kB fetch at 2 Mb/s.
    let rates = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut m = Machine::new(MachineConfig::default());
    m.add_process(Box::new(ScriptedWorkload::new(
        "solo",
        vec![
            Activity::BulkFetch {
                bytes: 250_000,
                procedure: "fetch",
            },
            Activity::Wait {
                until: SimTime::from_secs(3),
            },
        ],
    )));
    m.add_hook(
        SimDuration::from_millis(500),
        Box::new(RateProbe {
            rates: rates.clone(),
        }),
    );
    let _ = m.run();
    let last = *rates.borrow().last().expect("rate observed");
    assert!(
        (1.9e6..=2.01e6).contains(&last),
        "solo goodput {last} not ≈ 2 Mb/s"
    );

    // Contended: two equal fetches started together each see ~1 Mb/s.
    let rates = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut m = Machine::new(MachineConfig::default());
    m.add_process(Box::new(ScriptedWorkload::new(
        "a",
        vec![
            Activity::BulkFetch {
                bytes: 250_000,
                procedure: "fetch",
            },
            Activity::Wait {
                until: SimTime::from_secs(4),
            },
        ],
    )));
    m.add_process(Box::new(ScriptedWorkload::new(
        "b",
        vec![Activity::BulkFetch {
            bytes: 250_000,
            procedure: "fetch",
        }],
    )));
    m.add_hook(
        SimDuration::from_millis(500),
        Box::new(RateProbe {
            rates: rates.clone(),
        }),
    );
    let _ = m.run();
    let last = *rates.borrow().last().expect("rate observed");
    assert!(
        (0.9e6..=1.1e6).contains(&last),
        "contended goodput {last} not ≈ 1 Mb/s"
    );
}

/// CpuAs attributes energy to the named bucket, not the workload.
#[test]
fn cpu_as_attribution() {
    let mut m = Machine::new(MachineConfig::baseline());
    m.add_process(Box::new(ScriptedWorkload::new(
        "frontend",
        vec![
            Activity::CpuAs {
                bucket: "library",
                duration: SimDuration::from_secs(1),
                intensity: 1.0,
                procedure: "lib_work",
            },
            cpu(1_000, 1.0),
        ],
    )));
    let report = m.run();
    let lib = report.bucket_j("library");
    let own = report.bucket_j("frontend");
    assert!(lib > Joules(0.0) && own > Joules(0.0));
    assert!((lib - own).abs() / own < 0.01, "lib {lib} vs own {own}");
    assert!(report
        .detail
        .iter()
        .any(|d| d.process == "library" && d.procedure == "lib_work"));
}

/// An empty machine run ends immediately; a horizon run of nothing costs
/// exactly the quiescent platform power.
#[test]
fn empty_machines() {
    let mut m = Machine::new(MachineConfig::baseline());
    let report = m.run();
    assert_eq!(report.total_j, Joules(0.0));
    assert_eq!(report.end, SimTime::ZERO);

    let mut m = Machine::new(MachineConfig::default());
    let report = m.run_until(SimTime::from_secs(50));
    assert!((report.total_j - Joules(50.0 * 3.47)).abs() < Joules(0.5));
}

/// Display demand composition across heterogeneous workloads: the screen
/// follows the brightest alive demand and releases when that workload
/// finishes.
#[test]
fn display_demand_composition() {
    let mut m = Machine::new(MachineConfig::default());
    // Speech-like (display off) runs 40 s; visual app runs 10 s.
    m.add_process(Box::new(
        ScriptedWorkload::new(
            "audio",
            vec![Activity::Wait {
                until: SimTime::from_secs(40),
            }],
        )
        .with_display(DisplayState::Off),
    ));
    m.add_process(Box::new(ScriptedWorkload::new(
        "visual",
        vec![Activity::Wait {
            until: SimTime::from_secs(10),
        }],
    )));
    let report = m.run();
    // Display bright exactly while the visual app lives: 10 s * 4.54 W.
    assert!(
        (report.components.display_j - Joules(45.4)).abs() < Joules(0.5),
        "display energy {}",
        report.components.display_j
    );
}
