//! simtrace recorder: the trace kind of the golden harness.
//!
//! Each canonical scenario ([`SCENARIOS`], built by
//! [`crate::golden`]) is replayed with a category-filtered
//! [`TraceSink`] attached, and its JSONL event stream is pinned at
//! `tests/golden/<scenario>.jsonl`. `golden --check` compares the
//! streams byte for byte; `golden --rec` rewrites them.

use std::path::PathBuf;

use simcore::{TraceCategory, TraceHandle, TraceSink};

use crate::golden;

/// The recorded scenarios, in CLI order.
pub const SCENARIOS: [&str; 4] = ["fig2", "fig13", "goal", "supervise"];

/// The seed every golden trace is recorded at.
pub const GOLDEN_SEED: u64 = 42;

/// The per-scenario category filter. High-frequency categories (`Sched`,
/// `Energy`, `Meter`) stay out of every golden file — they are exercised
/// in-memory by the property tests instead.
fn categories(scenario: &str) -> Option<Vec<TraceCategory>> {
    use TraceCategory::{Budget, Control, Fault, Flow, Net, Supervisor};
    Some(match scenario {
        // Flow-rich interactive runs: flow lifecycle + the control plane.
        "fig2" | "fig13" => vec![Flow, Net, Fault, Control, Budget, Supervisor],
        // Budget included so every supply/demand decision — and therefore
        // any controller-constant change — lands in the golden file.
        "goal" => TraceCategory::CONTROL_PLANE.to_vec(),
        // The long supervised run drops Budget to keep the file small;
        // detector strikes and escalations are the interesting part.
        "supervise" => vec![Net, Fault, Control, Supervisor],
        _ => return None,
    })
}

/// Replays one scenario with a JSONL trace attached and returns the
/// recorded lines. Unknown scenarios are an error.
pub fn record(scenario: &str, seed: u64) -> Result<Vec<String>, String> {
    let cats = categories(scenario)
        .ok_or_else(|| format!("unknown trace scenario: {scenario} (have {SCENARIOS:?})"))?;
    let handle = TraceHandle::new(TraceSink::new().with_categories(&cats).with_jsonl());
    golden::build(scenario, seed, 1.0)?.trace(handle.clone());
    Ok(handle.jsonl())
}

/// Directory holding the checked-in golden files.
pub fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is resolved at compile time (no env read at
    // runtime); the goldens live at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Path of the checked-in golden trace for a scenario.
pub fn golden_path(scenario: &str) -> PathBuf {
    golden_dir().join(format!("{scenario}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(record("fig99", 1).is_err());
    }
}
