//! Seeds kind of the golden harness: the cross-seed determinism matrix.
//!
//! The golden traces pin scenario behavior at the canonical seed (42),
//! which leaves a blind spot: a wall-clock read or iteration-order bug
//! that only perturbs *other* seeds would pass the trace gate. The
//! matrix replays every canonical scenario at four seeds spanning the
//! u64 range — including one above 2^40 to catch truncation — and its
//! digests must match `tests/golden/seed_matrix.txt` byte for byte.
//!
//! After an intentional behavior change, regenerate with
//! `cargo run --release -p experiments -- golden --rec`; no test writes
//! under `tests/golden/`.

use experiments::golden::{self, Kind};
use experiments::tracerec;

#[test]
fn seed_matrix_matches_checked_in_table() {
    let file = golden::render(Kind::Seeds, "", 1.0).unwrap();
    let rows = file.text.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(rows, tracerec::SCENARIOS.len() * golden::SEEDS.len());
    if let Some(report) = file.diff(&tracerec::golden_dir()) {
        panic!(
            "seed matrix drifted: some scenario now behaves differently at a \
             non-canonical seed (wall-clock read, iteration-order dependence, \
             or an intentional change needing `golden --rec`):\n{report}"
        );
    }
}
