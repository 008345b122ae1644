#![forbid(unsafe_code)]
//! Reproduction harness: one module per table/figure of the paper.
//!
//! Every module exposes `run(&Trials) -> <figure-specific result>` plus a
//! `render` path producing the text table the CLI prints. Results carry
//! structured numbers so integration tests can assert the paper's bands
//! (EXPERIMENTS.md records paper-vs-measured for each).
//!
//! | Module   | Paper artefact                                        |
//! |----------|-------------------------------------------------------|
//! | [`fig2`] | Figure 2: sample PowerScope energy profile            |
//! | [`fig4`] | Figure 4: 560X component power table                  |
//! | [`fig6`] | Figure 6: video energy vs fidelity                    |
//! | [`fig8`] | Figure 8: speech energy vs fidelity/strategy          |
//! | [`fig10`]| Figure 10: map energy vs fidelity                     |
//! | [`fig11`]| Figure 11: map energy vs think time + linear model    |
//! | [`fig13`]| Figure 13: web energy vs fidelity                     |
//! | [`fig14`]| Figure 14: web energy vs think time + linear model    |
//! | [`fig15`]| Figure 15: concurrency effects                        |
//! | [`fig16`]| Figure 16: normalized summary across applications     |
//! | [`fig18`]| Figure 18: zoned backlighting projection              |
//! | [`fig19`]| Figure 19: goal-directed adaptation traces            |
//! | [`fig20`]| Figure 20: goal table (1200-1560 s)                   |
//! | [`fig21`]| Figure 21: smoothing half-life sensitivity            |
//! | [`fig22`]| Figure 22: bursty stochastic workloads                |
//! | [`sec54`]| Section 5.4: 90 kJ, 2:45 h goal + 30 min extension    |
//! | [`headline`]| Section 1/3.8: overall savings summary             |
//! | [`ablate`]| Controller design-choice ablations (beyond the paper)|
//! | [`chaos`] | Fault-intensity sweep: paper vs hardened controller   |
//! | [`supervise`] | Misbehaving apps: unsupervised vs supervised viceroy |
//! | [`serve`] | Always-on serving session: golden-trace replay with kill/resume proof |
//! | [`golden`] | Golden harness: scenario builder, `golden --check`/`--rec` engine |
//! | [`tracerec`] | Golden trace kind: JSONL control-plane recorder |
//! | [`energymap`] | Golden energy kind: per-call-path tables and drift band |
//! | [`builds`] | One machine build per application (video, speech, map, web) |
//! | [`barchart`] | Bar charts of Figures 6, 8, 10, 13, 15; runs the first four |
//! | [`thinktime`] | The think-time sweep and linear fit of Figures 11 and 14 |
//!
//! [`FIGURES`] lists the twenty renderable figures and tables, in the
//! order `all` runs them.

pub mod ablate;
pub mod barchart;
pub mod builds;
pub mod chaos;
pub mod energymap;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig18;
pub mod fig19;
pub mod fig2;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig4;
pub mod fig6;
pub mod fig8;
pub mod fuzz;
pub mod goalrig;
pub mod golden;
pub mod harness;
pub mod headline;
#[cfg(clippy)]
#[doc(hidden)]
pub mod lint_controls;
pub mod sec54;
pub mod serve;
pub mod supervise;
pub mod table;
pub mod thinktime;
pub mod tracerec;

pub use harness::Trials;
pub use table::Table;

/// Renders one figure or table as the text the CLI prints.
pub type Render = fn(&Trials) -> String;

/// Every figure and table of the CLI's `all` set, in its order: the id
/// (also the `results/<id>.txt` file name) and the renderer.
pub const FIGURES: [(&str, Render); 20] = [
    ("fig2", fig2::render),
    ("fig4", |_| fig4::render()),
    ("fig6", fig6::render),
    ("fig8", fig8::render),
    ("fig10", fig10::render),
    ("fig11", fig11::render),
    ("fig13", fig13::render),
    ("fig14", fig14::render),
    ("fig15", fig15::render),
    ("fig16", fig16::render),
    ("fig18", fig18::render),
    ("fig19", fig19::render),
    ("fig20", fig20::render),
    ("fig21", fig21::render),
    ("fig22", fig22::render),
    ("sec54", sec54::render),
    ("headline", headline::render),
    ("ablate", ablate::render),
    ("chaos", chaos::render),
    ("supervise", supervise::render),
];

#[cfg(test)]
mod tests {
    use super::FIGURES;

    /// Each id names one figure and has a committed rendering.
    #[test]
    fn figure_ids_are_unique_and_rendered_under_results() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (i, (id, _)) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|(other, _)| other != id),
                "{id} twice"
            );
            assert!(results.join(format!("{id}.txt")).is_file(), "{id}");
        }
    }
}
