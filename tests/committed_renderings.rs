//! The committed renderings are the behaviour spec: every application
//! figure, at the CLI's default trial counts, renders byte for byte as
//! its `results/<id>.txt`.
//!
//! The goal-directed figures (fig19–22, sec54) and the ablate, chaos and
//! supervise sweeps are left out: each takes tens of seconds in a debug
//! build. perfbench's `figures` workload and `scripts/verify.sh` compare
//! all twenty in release.

use std::path::Path;

use experiments::{fig10, fig11, fig13, fig14, fig8, Trials, FIGURES};
use simcore::SnapshotHasher;

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

/// The web figures' bars all render `±0.0`: their per-trial spread is far
/// below the table's precision, so their renderings cannot see a change
/// in the random stream (a fork label or draw order) that moves no mean
/// by 0.05 J. This pins every bar's mean and sd bits instead.
#[test]
fn web_figure_trial_statistics_match_their_pinned_digest() {
    let trials = Trials::quick();
    let mut h = SnapshotHasher::new();
    for bar in &fig13::run(&trials).bars {
        h.write_f64(bar.stats.mean);
        h.write_f64(bar.stats.sd);
    }
    for sweep in fig14::run(&trials) {
        for (_, stats) in &sweep.points {
            h.write_f64(stats.mean);
            h.write_f64(stats.sd);
        }
    }
    assert_eq!(
        h.finish(),
        0x6b9c_c0a2_5b42_2c7b,
        "fig13/fig14 trial statistics moved; a pure refactor must not move them"
    );
}

/// The speech and map figures render to 0.1 J, so a one-ulp move in a
/// step's duration would not show in them. This pins the mean and sd
/// bits of every fig8 and fig10 bar and every fig11 think-time point.
#[test]
fn speech_and_map_trial_statistics_match_their_pinned_digest() {
    let trials = Trials::quick();
    let mut h = SnapshotHasher::new();
    for bar in fig8::run(&trials)
        .bars
        .iter()
        .chain(&fig10::run(&trials).bars)
    {
        h.write_f64(bar.stats.mean);
        h.write_f64(bar.stats.sd);
    }
    for sweep in fig11::run(&trials) {
        for (_, stats) in &sweep.points {
            h.write_f64(stats.mean);
            h.write_f64(stats.sd);
        }
    }
    assert_eq!(
        h.finish(),
        0x4063_981a_87c5_4a52,
        "fig8/fig10/fig11 trial statistics moved; a pure refactor must not move them"
    );
}
