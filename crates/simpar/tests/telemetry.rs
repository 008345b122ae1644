//! Cumulative telemetry counters: exact-count assertions.
//!
//! The counters are process-global, so this is the *only* test in this
//! binary — a concurrent test dispatching the pool would perturb the
//! counts. (Cargo runs each integration-test file as its own process.)

use simpar::{telemetry, PoolConfig};

#[test]
fn telemetry_accumulates_and_resets() {
    telemetry::reset();
    // One forced-spawn dispatch (2 workers, one claim per item)…
    let cfg = PoolConfig::new(2).assume_parallelism(2);
    let out = simpar::run(&cfg, 16, |i| i);
    assert_eq!(out.len(), 16);
    // …and one inline dispatch.
    let _ = simpar::map_indexed(1, 5, |i| i);

    let t = telemetry::snapshot();
    assert_eq!(t.dispatches, 2);
    assert_eq!(t.spawned_runs, 1);
    assert_eq!(t.inline_runs, 1);
    assert_eq!(t.items, 21);
    assert_eq!(t.chunks, 16);
    assert_eq!(t.workers, 2);

    telemetry::reset();
    assert_eq!(telemetry::snapshot(), telemetry::Totals::default());
}
