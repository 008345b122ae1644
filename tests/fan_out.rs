//! One pool dispatch per figure: every figure built on the harness trial
//! grid fans its whole `cell × trial` grid out in a single dispatch, and
//! the fan-out leaves its rendering byte for byte unchanged.
//!
//! A test binary of its own: the pool's telemetry counters are
//! process-wide, so no other test may dispatch while a render is being
//! counted. `dispatches` also counts inline runs, so the count holds on
//! a single-core host too.

use experiments::{
    fig10, fig11, fig13, fig14, fig15, fig16, fig18, fig6, fig8, headline, Render, Trials,
};
use simpar::telemetry;

/// The figures whose trials go out through `harness::run_grid`, each
/// as one grid over all its cells.
const GRID_FIGURES: [(&str, Render); 10] = [
    ("fig6", fig6::render),
    ("fig8", fig8::render),
    ("fig10", fig10::render),
    ("fig11", fig11::render),
    ("fig13", fig13::render),
    ("fig14", fig14::render),
    ("fig15", fig15::render),
    ("fig16", fig16::render),
    ("fig18", fig18::render),
    ("headline", headline::render),
];

#[test]
fn each_grid_figure_renders_in_one_dispatch() {
    let serial = Trials::quick();
    for (id, render) in GRID_FIGURES {
        let expected = render(&serial);
        telemetry::reset();
        let fanned = render(&serial.with_threads(2));
        let dispatches = telemetry::snapshot().dispatches;
        assert_eq!(dispatches, 1, "{id} made {dispatches} pool dispatches");
        assert_eq!(expected, fanned, "{id}: 2-thread rendering diverges");
    }
}
