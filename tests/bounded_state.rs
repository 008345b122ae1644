//! A long-lived session does not grow with its history.
//!
//! The served supervised k=2 golden rig is the viceroy as a service: it
//! watches supply and demand for the whole life of the device. These
//! tests pin the two bounds recovery depends on — a snapshot's size is
//! flat over the run, and a `Server` slot's sample log never holds more
//! than two batches.

use energy_adaptation::experiments::serve;
use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
use energy_adaptation::simserve::{Directive, Sample, Server};

/// The 1× golden stream, then a tick every 10 s out to 1440 s.
#[expect(clippy::expect_used, reason = "a broken fixture fails the test")]
fn long_stream() -> Vec<Sample> {
    let mut samples = serve::schedule(1).expect("golden trace present");
    let end = samples.last().map_or(0.0, |s| s.at_s);
    samples.extend(
        (1..=144)
            .map(|k| Sample::tick(f64::from(k) * 10.0))
            .filter(|s| s.at_s > end),
    );
    samples
}

/// Freezing the served rig at every checkpoint out to 1440 s yields
/// snapshots within 1.25× of each other, the last one under 5 KB.
#[test]
fn served_snapshots_stay_flat_across_every_checkpoint() {
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    let mut frozen = Vec::new();
    for sample in long_stream() {
        let out = session.ingest(&[sample]).expect("ingest");
        if let Some(at) = out.iter().find_map(|d| match d {
            Directive::Checkpointed { at, .. } => Some(*at),
            _ => None,
        }) {
            let bytes = session.freeze().expect("freeze").len();
            frozen.push((at.as_secs_f64(), bytes));
        }
    }
    let times: Vec<f64> = frozen.iter().map(|&(t, _)| t).collect();
    assert_eq!(
        times,
        (1..=8).map(|k| f64::from(k) * 180.0).collect::<Vec<_>>(),
        "{frozen:?}"
    );
    let min = frozen.iter().map(|&(_, b)| b).min().expect("snapshots");
    let max = frozen.iter().map(|&(_, b)| b).max().expect("snapshots");
    assert!(4 * max <= 5 * min, "snapshots grew: {frozen:?}");
    let last = frozen.last().expect("snapshots").1;
    assert!(last < 5_000, "snapshot at 1440 s is {last} bytes");
}

/// Over 200+ batches a `Server` slot's log stays within two batches and
/// its snapshots within the same flat bound.
#[test]
fn server_log_stays_within_two_batches() {
    let samples = serve::schedule(1).expect("golden trace present");
    let batch = 3;
    let mut server = Server::new(1).expect("server");
    let id = server
        .admit(Box::new(|| serve::build_session(GOLDEN_SEED)))
        .expect("admit");
    for chunk in samples.chunks(batch) {
        server.ingest(id, chunk).expect("ingest");
    }
    let stats = server.stats(id).expect("stats");
    assert!(stats.batches >= 200, "{stats:?}");
    assert!(stats.max_log_len <= 2 * batch, "{stats:?}");
    assert!(stats.max_snapshot_bytes < 5_000, "{stats:?}");
    // Bounded, and still exact: the slot ends where a solo session does.
    let mut solo = serve::build_session(GOLDEN_SEED).expect("build");
    solo.ingest(&samples).expect("ingest");
    assert_eq!(server.session(id).expect("live").digest(), solo.digest());
}
