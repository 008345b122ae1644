//! CLI-level contract of the `golden` verb: exit codes, divergence
//! naming and flag validation, driven through the real binary. The
//! library-level harness behaviour lives in `tests/golden.rs` at the
//! workspace root; this pins what CI actually invokes. No test here
//! runs `golden --rec`, which would rewrite the committed goldens.

use std::process::{Command, Output};

#[expect(
    clippy::expect_used,
    reason = "a test helper: failing to spawn the binary fails the test"
)]
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_odyssey-experiments"))
        .args(args)
        .output()
        .expect("spawn odyssey-experiments")
}

/// Seeded +2 % decode inflation makes `golden --check` exit non-zero
/// and print the exact diverging call path on stderr.
#[test]
fn check_exits_nonzero_naming_the_inflated_path() {
    let out = run(&["golden", "--check", "--inflate-decode", "1.02"]);
    assert!(!out.status.success(), "inflated golden --check exited zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("xanim path video_playback/frame_pipeline/decode_frame"),
        "stderr does not name the inflated block:\n{stderr}"
    );
    assert!(
        stderr.contains("fresh copy saved to"),
        "no CI artifact path reported:\n{stderr}"
    );
}

/// Flag validation: a non-positive inflation ratio, or inflation
/// anywhere but `golden --check`, is a usage error (exit 2), not a
/// silent no-op — an inflated `golden --rec` would commit inflated
/// goldens.
#[test]
fn inflate_decode_is_rejected_outside_golden_check() {
    for args in [
        &["golden", "--check", "--inflate-decode", "0"][..],
        &["golden", "--rec", "--inflate-decode", "1.02"],
        &["fig4", "--inflate-decode", "1.02"],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "{args:?}");
    }
}

/// The verbs `golden` replaced are gone: each exits 2 with usage.
#[test]
fn retired_golden_verbs_exit_with_usage() {
    for verb in ["tracediff", "tracerec", "energymap", "energymaprec"] {
        let out = run(&[verb]);
        assert_eq!(out.status.code(), Some(2), "{verb}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{verb}: no usage printed"
        );
    }
}
