//! The committed renderings are the behaviour spec: every application
//! figure, at the CLI's default trial counts, renders byte for byte as
//! its `results/<id>.txt`.
//!
//! The goal-directed figures (fig19–22, sec54) and the ablate, chaos and
//! supervise sweeps are left out: each takes tens of seconds in a debug
//! build. perfbench's `figures` workload and `scripts/verify.sh` compare
//! all twenty in release.

use std::path::Path;

use experiments::{Trials, FIGURES};

/// The application figures and the headline built on them.
const IDS: [&str; 10] = [
    "fig6", "fig8", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16", "fig18", "headline",
];

#[test]
fn application_figures_render_their_committed_bytes() {
    let trials = Trials::default().with_threads(2);
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut differing = Vec::new();
    for id in IDS {
        let (_, render) = FIGURES.iter().find(|(f, _)| *f == id).unwrap();
        let path = results.join(format!("{id}.txt"));
        let want = std::fs::read_to_string(&path).unwrap();
        let got = render(&trials);
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or_else(
                    || "a missing or extra line".into(),
                    |i| format!("line {}", i + 1),
                );
            differing.push(format!("{id} (first difference at {line})"));
        }
    }
    assert!(
        differing.is_empty(),
        "renderings differ from results/: {}",
        differing.join(", ")
    );
}
