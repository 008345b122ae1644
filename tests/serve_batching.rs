//! How a caller batches its samples is invisible to the session.
//!
//! The served supervised k=2 golden stream is fed one sample per
//! `ingest`, 64 per `ingest`, and all in one `ingest`. Every run must
//! return the same directives and end with the same journal, digest and
//! trace, and that trace is the committed golden.

use energy_adaptation::experiments::serve;
use energy_adaptation::experiments::tracerec::{golden_path, GOLDEN_SEED};
use energy_adaptation::simcore::Checkpoint;
use energy_adaptation::simserve::{Directive, Sample};

/// Everything a served run leaves for its caller.
#[derive(Debug, PartialEq)]
struct Served {
    directives: Vec<Directive>,
    checkpoints: Vec<Checkpoint>,
    digest: u64,
    trace: Vec<String>,
}

#[expect(clippy::expect_used, reason = "a failed serve fails the test")]
fn serve_in_batches(samples: &[Sample], batch: usize) -> Served {
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    let mut directives = Vec::new();
    for chunk in samples.chunks(batch) {
        directives.extend(session.ingest(chunk).expect("ingest"));
    }
    session.finish().expect("finish");
    Served {
        directives,
        checkpoints: session.checkpoints(),
        digest: session.digest(),
        trace: session.trace_jsonl(),
    }
}

#[test]
fn batching_changes_no_output() {
    let samples = serve::schedule(1).expect("golden trace present");
    let whole = serve_in_batches(&samples, samples.len());
    for batch in [1, 64] {
        assert_eq!(
            serve_in_batches(&samples, batch),
            whole,
            "{batch}-sample batches diverge from one ingest call"
        );
    }
    assert!(!whole.directives.is_empty() && !whole.checkpoints.is_empty());
    let golden = std::fs::read_to_string(golden_path(serve::REPLAY_SCENARIO)).expect("golden");
    assert!(
        golden.lines().eq(whole.trace.iter().map(String::as_str)),
        "served trace differs from the golden ({} lines)",
        whole.trace.len()
    );
}
