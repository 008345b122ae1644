//! PowerScope in action: where does the energy go?
//!
//! Attaches the statistical profiler to a machine running the speech
//! recognizer and the web browser concurrently, then prints the
//! correlated energy profile in the paper's Figure 2 layout — per-process
//! summary plus per-procedure detail for the hungriest process.
//!
//! Run with: `cargo run --release --example powerscope_profile`

use energy_adaptation::apps::datasets::{DEFAULT_THINK_S, UTTERANCES, WEB_IMAGES};
use energy_adaptation::apps::{speech, web, SpeechStrategy, WebFidelity};
use energy_adaptation::machine::{Machine, MachineConfig};
use energy_adaptation::powerscope::{correlate, PowerScope};
use energy_adaptation::simcore::{SimDuration, SimRng};

fn main() {
    let mut rng = SimRng::new(99);
    let (scope, observer) = PowerScope::new(99);

    let mut machine = Machine::new(MachineConfig::baseline());
    machine.add_observer(observer);
    machine.add_process(Box::new(speech::recognizer(
        &UTTERANCES,
        SpeechStrategy::Local,
        false,
        &mut rng,
    )));
    machine.add_process(Box::new(web::browser(
        &WEB_IMAGES,
        WebFidelity::Full,
        SimDuration::from_secs_f64(DEFAULT_THINK_S),
        &mut rng,
    )));
    let report = machine.run();
    drop(machine);

    let run = scope.into_run();
    println!(
        "Collected {} samples over {:.1} s (≈{:.0} Hz), {} symbol tables\n",
        run.trace.len(),
        report.duration_s(),
        run.trace.mean_rate_hz(),
        run.symbols.len()
    );
    let profile = correlate(&run);
    println!("{}", profile.format());
    println!(
        "Sampled total {:.1} J vs exact ledger {:.1} J ({:+.2}% sampling error)",
        profile.total_energy_j(),
        report.total_j,
        (profile.total_energy_j() / report.total_j - 1.0) * 100.0
    );
}
