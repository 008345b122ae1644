//! The `figures` workload: every figure and table of the `all` set at
//! default trial counts, compared byte for byte with `results/`.

use std::path::PathBuf;

use bench::Stopwatch;
use experiments::{
    ablate, chaos, fig10, fig11, fig13, fig14, fig15, fig16, fig18, fig19, fig2, fig20, fig21,
    fig22, fig4, fig6, fig8, headline, sec54, supervise, Trials,
};

use crate::inputs;
use crate::spans::Tracer;
use crate::{Passes, Plan};

/// The `all` set, in the CLI's order.
pub const ALL: [&str; 20] = [
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

/// Renders one figure through its public `render`.
pub fn render(id: &str, trials: &Trials) -> Option<String> {
    Some(match id {
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
        _ => return None,
    })
}

/// The committed rendering of figure `id`.
pub fn reference(id: &str) -> Result<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../results")
        .join(format!("{id}.txt"));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Inputs and references of one figures run.
#[derive(Clone, Debug)]
pub struct Setup {
    /// Seeded render order.
    pub order: Vec<&'static str>,
    /// Reference bytes, in `order`.
    pub references: Vec<String>,
}

/// Figures that render in well under 50 ms each: the warm-up.
const WARM_UP: [&str; 7] = ["fig2", "fig4", "fig8", "fig10", "fig11", "fig13", "fig14"];

/// Loads the references, draws the seeded order, and warms up with the
/// cheapest figures.
pub fn setup(plan: &Plan) -> Result<Setup, String> {
    let order = inputs::order(plan.seed, &ALL);
    let references = order
        .iter()
        .map(|id| reference(id))
        .collect::<Result<Vec<_>, _>>()?;
    let trials = Trials::default().with_threads(plan.threads);
    for id in WARM_UP {
        let _ = render(id, &trials);
    }
    Ok(Setup { order, references })
}

/// One pass: every figure rendered once, one after another in the seeded
/// order, each fanning its trials over `plan.threads` workers, and
/// compared with its reference.
// simlint: allow(P1) — the benchmark times real execution by design
pub fn pass(plan: &Plan, setup: &Setup, tracer: &mut Tracer, passes: &mut Passes) {
    let trials = Trials::default().with_threads(plan.threads);
    for (id, want) in setup.order.iter().zip(&setup.references) {
        let sw = Stopwatch::start();
        let got = tracer.span(id, "experiments", || render(id, &trials));
        passes.step(sw.elapsed_s());
        let ok = tracer.span("compare", "perfbench", || {
            got.as_deref() == Some(want.as_str())
        });
        passes.attempted += 1;
        if !ok {
            passes.fail(format!("figure {id} differs from results/{id}.txt"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan {
            seed: 1,
            seconds: 0.0,
            threads: 1,
            multiple: 1,
            kills_per_pass: 0,
            min_restores: 0,
            gated_passes: 1,
        }
    }

    #[test]
    fn every_figure_has_a_renderer_and_a_reference() {
        for id in ALL {
            assert!(reference(id).is_ok(), "results/{id}.txt missing");
        }
        assert!(render("fig99", &Trials::default()).is_none());
    }

    /// Negative control: the same render against a perturbed reference
    /// is counted as a failed operation.
    #[test]
    fn perturbed_reference_fails_the_run() {
        let good = reference("fig4").expect("reference");
        let setup = Setup {
            order: vec!["fig4"],
            references: vec![good.clone()],
        };
        let mut passes = Passes::default();
        pass(&plan(), &setup, &mut Tracer::new(false), &mut passes);
        assert_eq!((passes.attempted, passes.failed), (1, 0));
        assert_eq!(passes.pass_steps_s.len(), 1);

        let perturbed = Setup {
            references: vec![good.replacen('W', "V", 1)],
            ..setup
        };
        let mut passes = Passes::default();
        pass(&plan(), &perturbed, &mut Tracer::new(false), &mut passes);
        assert_eq!((passes.attempted, passes.failed), (1, 1));
        assert!(
            passes.mismatches[0].contains("fig4"),
            "{:?}",
            passes.mismatches
        );
    }
}
