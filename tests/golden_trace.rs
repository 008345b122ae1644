//! Trace kind of the golden harness: every canonical scenario's JSONL
//! trace replays byte-identically against its copy under
//! `tests/golden/`, and recording one scenario twice at one seed is
//! byte-identical.
//!
//! On failure the panic message is the first-divergence report; see
//! `tests/golden/README.md` for the regeneration workflow.

use experiments::golden::{self, Kind};
use experiments::tracerec;

fn assert_golden(scenario: &str) {
    let file = golden::render(Kind::Trace, scenario, 1.0)
        .unwrap_or_else(|e| panic!("recording {scenario}: {e}"));
    assert!(!file.text.is_empty(), "{scenario}: empty trace");
    if let Some(report) = file.diff(&tracerec::golden_dir()) {
        panic!("{}:\n{report}", file.name);
    }
}

#[test]
fn fig2_trace_matches_golden() {
    assert_golden("fig2");
}

#[test]
fn fig13_trace_matches_golden() {
    assert_golden("fig13");
}

#[test]
fn goal_trace_matches_golden() {
    assert_golden("goal");
}

#[test]
fn supervise_trace_matches_golden() {
    assert_golden("supervise");
}

/// Same seed, same scenario — byte-identical JSONL, for every scenario,
/// at a seed different from the golden one (determinism is a property of
/// the recorder, not of one lucky seed). This is the harness's one
/// record-twice test; the seed matrix relies on it for same-seed replay.
#[test]
fn recording_is_deterministic_at_any_seed() {
    for scenario in tracerec::SCENARIOS {
        let a = tracerec::record(scenario, 0xD1CE).unwrap();
        let b = tracerec::record(scenario, 0xD1CE).unwrap();
        assert!(!a.is_empty(), "{scenario}: empty trace");
        assert_eq!(a, b, "{scenario}: same-seed reruns diverge");
    }
}
