//! Property-style tests over the simulator's core invariants.
//!
//! These run the public API against randomized inputs: link byte
//! conservation under arbitrary flow interleavings, platform power
//! monotonicity, energy-ledger balance for random workload scripts, and
//! smoothing-operator bounds. Randomness comes from [`SimRng`] with fixed
//! seeds, so every case is deterministic and a failure message's case
//! index reproduces the input exactly.

use energy_adaptation::hw560x::{
    DeviceStates, DiskState, DisplayState, PlatformPower, PlatformSpec, RadioState,
};
use energy_adaptation::machine::workload::ScriptedWorkload;
use energy_adaptation::machine::{Activity, Machine, MachineConfig};
use energy_adaptation::netsim::SharedLink;
use energy_adaptation::odyssey::Smoother;
use energy_adaptation::simcore::event::Order;
use energy_adaptation::simcore::time::round_to_u64;
use energy_adaptation::simcore::{
    EventQueue, SimDuration, SimRng, SimTime, TimeSeries, TraceCategory, TraceEvent, TraceHandle,
    TraceSink, TrialStats, Watts,
};

/// Runs `body` over `n` independently seeded cases.
fn cases(label: &str, n: u64, mut body: impl FnMut(&mut SimRng)) {
    let root = SimRng::new(0xA11CE);
    for i in 0..n {
        let mut rng = root.fork_indexed(label, i);
        body(&mut rng);
    }
}

fn random_display(rng: &mut SimRng) -> DisplayState {
    match rng.uniform_u64(0, 2) {
        0 => DisplayState::Off,
        1 => DisplayState::Dim,
        _ => DisplayState::Bright,
    }
}

fn random_disk(rng: &mut SimRng) -> DiskState {
    match rng.uniform_u64(0, 3) {
        0 => DiskState::Active,
        1 => DiskState::Idle,
        2 => DiskState::Standby,
        _ => DiskState::SpinningUp,
    }
}

fn random_radio(rng: &mut SimRng) -> RadioState {
    match rng.uniform_u64(0, 2) {
        0 => RadioState::Active,
        1 => RadioState::Idle,
        _ => RadioState::Standby,
    }
}

/// Total power equals the sum of its breakdown, is positive, and is
/// monotone in CPU load, for every device-state combination.
#[test]
fn platform_power_is_consistent() {
    let p = PlatformPower::new(PlatformSpec::thinkpad_560x());
    cases("power", 256, |rng| {
        let s = DeviceStates {
            display: random_display(rng),
            disk: random_disk(rng),
            radio: random_radio(rng),
            cpu_load: rng.uniform(0.0, 1.0),
        };
        let b = p.breakdown(&s);
        assert!((b.total_w().0 - p.power_w(&s).0).abs() < 1e-12);
        assert!(p.power_w(&s).0 > 3.0, "below base power: {s:?}");
        let hotter = DeviceStates {
            cpu_load: (s.cpu_load + 0.1).min(1.0),
            ..s
        };
        assert!(p.power_w(&hotter) >= p.power_w(&s));
    });
}

/// A shared link delivers every byte exactly once, no matter how flows
/// interleave: once the link drains, every started flow has completed.
#[test]
fn link_conserves_bytes() {
    cases("link", 64, |rng| {
        let n_flows = rng.uniform_u64(1, 11) as usize;
        let mut link = SharedLink::new(2.0e6);
        let mut t = SimTime::ZERO;
        let mut started = 0u64;
        for _ in 0..n_flows {
            let size = rng.uniform_u64(1_000, 499_999);
            let gap = rng.uniform_u64(0, 799);
            t += SimDuration::from_millis(gap);
            link.advance(t);
            link.start_flow(t, size);
            started += size;
        }
        // Drain: no flow can outlive total_bytes/capacity once alone.
        let drain = SimDuration::from_secs_f64(started as f64 * 8.0 / 2.0e6 + 1.0);
        link.advance(t + drain);
        let mut completed = 0usize;
        while link.take_completed().is_some() {
            completed += 1;
        }
        assert_eq!(completed, n_flows);
        assert_eq!(link.active_count(), 0);
        assert_eq!(link.total_bytes_carried(), started);
    });
}

/// Builds a machine running a random workload script — shared by the
/// ledger-balance and simtrace property tests (fixed rng draw order:
/// step count, pm coin, then per-step kind/amount pairs).
fn random_fuzz_machine(rng: &mut SimRng) -> Machine {
    let steps = rng.uniform_u64(1, 9) as usize;
    let pm = rng.bernoulli(0.5);
    let mut activities = Vec::new();
    let mut wait_at = 0u64;
    for _ in 0..steps {
        let kind = rng.uniform_u64(0, 3);
        let amount = rng.uniform_u64(1, 799);
        let a = match kind {
            0 => Activity::Cpu {
                duration: SimDuration::from_millis(amount),
                intensity: (amount % 100) as f64 / 100.0,
                procedure: "work",
            },
            1 => Activity::BulkFetch {
                bytes: amount * 200,
                procedure: "fetch",
            },
            2 => Activity::XRender {
                cost: SimDuration::from_millis(amount / 2 + 1),
            },
            _ => {
                wait_at += amount;
                Activity::Wait {
                    until: SimTime::from_micros(wait_at * 1000),
                }
            }
        };
        activities.push(a);
    }
    let cfg = if pm {
        MachineConfig::default()
    } else {
        MachineConfig::baseline()
    };
    let mut m = Machine::new(cfg);
    m.add_process(Box::new(ScriptedWorkload::new("fuzz", activities)));
    m
}

/// Machine energy accounting balances for random workload scripts:
/// bucket totals and component totals both equal total energy, and
/// average power stays within the platform's physical envelope.
#[test]
fn ledger_balances_for_random_scripts() {
    cases("ledger", 48, |rng| {
        let mut m = random_fuzz_machine(rng);
        let report = m.run();
        let bucket_sum: f64 = report.buckets.iter().map(|(_, j)| j.0).sum();
        assert!((bucket_sum - report.total_j.0).abs() < 1e-6);
        assert!((report.components.total_j().0 - report.total_j.0).abs() < 1e-6);
        if report.duration_s() > 0.0 {
            let avg = report.total_j.0 / report.duration_s();
            assert!((3.0..25.0).contains(&avg), "implausible power {avg}");
        }
    });
}

/// simtrace invariants over random scripts: records are strictly ordered
/// by (sim time, seq) with seq dense from zero, every traced energy
/// delta is non-negative, and the per-bucket delta sums reproduce the
/// final report's bucket totals — the trace carries the full energy
/// attribution, not an approximation of it.
#[test]
fn trace_orders_events_and_reconciles_energy() {
    cases("trace", 48, |rng| {
        let mut m = random_fuzz_machine(rng);
        let trace = TraceHandle::new(
            TraceSink::new()
                .with_capacity(1 << 20)
                .with_categories(&TraceCategory::ALL),
        );
        m.set_trace(trace.clone());
        let report = m.run();
        assert_eq!(trace.evicted(), 0, "ring too small for this fuzz case");
        let recs = trace.records();
        // A script of pure XRender activities completes in zero simulated
        // time and legitimately traces nothing; every case that consumed
        // time must have traced something.
        if report.duration_s() == 0.0 {
            assert!(recs.is_empty(), "events traced in a zero-length run");
            return;
        }
        assert!(!recs.is_empty(), "no events traced");
        for (i, w) in recs.windows(2).enumerate() {
            assert!(w[1].at >= w[0].at, "time regressed at record {i}");
        }
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "seq not dense from zero");
        }
        let mut sums: std::collections::BTreeMap<&str, f64> = Default::default();
        for r in &recs {
            if let TraceEvent::EnergyDelta { bucket, energy_j } = r.event {
                assert!(energy_j >= 0.0, "negative delta {energy_j} for {bucket}");
                *sums.entry(bucket).or_insert(0.0) += energy_j;
            }
        }
        assert!(!sums.is_empty(), "no energy deltas traced");
        for (bucket, sum) in &sums {
            let reported = report.bucket_j(bucket).0;
            let tol = 1e-9 * reported.abs().max(1.0);
            assert!(
                (sum - reported).abs() <= tol,
                "bucket {bucket}: trace sum {sum} vs report {reported}"
            );
        }
        let total: f64 = sums.values().sum();
        assert!(
            (total - report.total_j.0).abs() <= 1e-9 * report.total_j.0.max(1.0),
            "trace total {total} vs report {}",
            report.total_j
        );
    });
}

/// The exponential smoother's output always lies within the range of the
/// samples it has seen.
#[test]
fn smoother_is_bounded_by_inputs() {
    cases("smoother", 128, |rng| {
        let n = rng.uniform_u64(1, 199) as usize;
        let remaining = rng.uniform(1.0, 10_000.0);
        let mut s = Smoother::new(0.10, SimDuration::from_millis(100));
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..n {
            let x = rng.uniform(0.1, 50.0);
            lo = lo.min(x);
            hi = hi.max(x);
            let v = s.update(Watts(x), remaining).0;
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
        }
    });
}

/// Events pop in (time, insertion) order no matter how they were pushed,
/// and cancellation removes exactly the cancelled events.
#[test]
fn event_queue_total_order() {
    cases("queue", 128, |rng| {
        let n = rng.uniform_u64(1, 63) as usize;
        let mut q = EventQueue::new();
        let mut kept = 0usize;
        let mut to_cancel = Vec::new();
        for i in 0..n {
            let t = rng.uniform_u64(0, 999);
            let id = q.push(SimTime::from_micros(t), i);
            if rng.bernoulli(0.4) {
                to_cancel.push(id);
            } else {
                kept += 1;
            }
        }
        for id in to_cancel {
            assert!(q.cancel(id));
        }
        let mut last: Option<SimTime> = None;
        let mut popped = 0usize;
        while let Some((at, _payload)) = q.pop() {
            if let Some(prev) = last {
                assert!(at >= prev, "time went backwards");
            }
            last = Some(at);
            popped += 1;
        }
        assert_eq!(popped, kept);
        assert!(q.is_empty());
    });
}

/// The queue against a naive reference — a `Vec` kept sorted by
/// `(at, seq)` — under random interleavings of push, pop, peek, cancel
/// and pushes at a mark, including cancels of events that already fired
/// and second cancels of the same event. The reference numbers every
/// push and every mark in the order they happen, and inserts a marked
/// push as if it had been pushed when its mark was taken. Every pop,
/// peek, cancel verdict and length must match the reference step for
/// step, and so must the exported entries, whose order is the order
/// snapshot bytes are written in; a held mark must compare with the
/// head as its reference place does; and a queue restored from the
/// export must pop what the original pops.
#[test]
fn event_queue_matches_sorted_vec_model() {
    #[derive(Clone, Copy)]
    enum Fate {
        Pending,
        Fired,
        Cancelled,
    }
    let (mut stale_cancels, mut repeat_cancels) = (0usize, 0usize);
    let (mut ties, mut appends, mut marked_ties) = (0usize, 0usize, 0usize);
    cases("queue-model", 128, |rng| {
        let mut q = EventQueue::new();
        // (at, reference seq, push id if not marked, payload).
        let mut model: Vec<(SimTime, u64, Option<u64>, u64)> = Vec::new();
        let mut next_ref = 0u64;
        let mut held = None;
        // Marks with a pending event, and that event's payload.
        let mut marked: Vec<(Order, u64)> = Vec::new();
        let mut ids = Vec::new();
        let mut fates = Vec::new();
        // A quarter of the pushes tie the earliest pending event (the new
        // one must fire after it) and a quarter land strictly before it
        // (the append at the firing end); the rest fall anywhere.
        let mut draw_at = |rng: &mut SimRng, model: &[(SimTime, u64, Option<u64>, u64)]| {
            let first = model.first().map(|&(at, ..)| at.as_micros());
            let at = match (rng.uniform_u64(0, 3), first) {
                (0, Some(first)) => {
                    ties += 1;
                    first
                }
                (1, Some(first)) if first > 0 => {
                    appends += 1;
                    rng.uniform_u64(0, first - 1)
                }
                _ => rng.uniform_u64(0, 499),
            };
            SimTime::from_micros(at)
        };
        let insert = |model: &mut Vec<_>, entry: (SimTime, u64, Option<u64>, u64)| {
            let slot = model.partition_point(|&(a, r, _, _)| (a, r) < (entry.0, entry.1));
            model.insert(slot, entry);
        };
        for step in 0..400 {
            match rng.uniform_u64(0, 21) {
                0..=7 => {
                    let at = draw_at(rng, &model);
                    let payload = rng.uniform_u64(0, u64::MAX - 1);
                    let id = q.push(at, payload);
                    assert_eq!(id.raw(), ids.len() as u64, "step {step}: fresh seq");
                    insert(&mut model, (at, next_ref, Some(id.raw()), payload));
                    next_ref += 1;
                    ids.push(id);
                    fates.push(Fate::Pending);
                }
                8..=14 if !ids.is_empty() => {
                    let k = rng.uniform_u64(0, ids.len() as u64 - 1);
                    let want = match model.iter().position(|&(_, _, id, _)| id == Some(k)) {
                        Some(i) => {
                            model.remove(i);
                            true
                        }
                        None => false,
                    };
                    match fates[k as usize] {
                        Fate::Fired => stale_cancels += 1,
                        Fate::Cancelled => repeat_cancels += 1,
                        Fate::Pending => fates[k as usize] = Fate::Cancelled,
                    }
                    assert_eq!(
                        q.cancel(ids[k as usize]),
                        want,
                        "step {step}: cancel verdict"
                    );
                }
                15..=17 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    match want {
                        Some((_, _, Some(id), _)) => fates[id as usize] = Fate::Fired,
                        Some((_, _, None, payload)) => marked.retain(|&(_, p)| p != payload),
                        None => {}
                    }
                    assert_eq!(
                        q.pop(),
                        want.map(|(at, _, _, payload)| (at, payload)),
                        "step {step}: pop"
                    );
                }
                18..=19 => {
                    let want = model.first().map(|&(at, ..)| at);
                    assert_eq!(q.peek_time(), want, "step {step}: peek");
                    if let (Some((mark, reference)), Some(&(head, head_ref, _, _))) =
                        (held, model.first())
                    {
                        // A held mark at the head's instant, or at one
                        // on either side of it.
                        let at = SimTime::from_micros(
                            (head.as_micros() + rng.uniform_u64(0, 2)).saturating_sub(1),
                        );
                        let first = (at, reference) < (head, head_ref);
                        assert_eq!(
                            Some((at, mark)) < q.peek_key(),
                            first,
                            "step {step}: a held mark against the head"
                        );
                    }
                }
                _ => match held.take() {
                    // A mark serves one pending event at a time: without a
                    // push since the last one, the next is the same place.
                    None if marked.iter().any(|&(m, _)| m == q.mark()) => {}
                    None => {
                        held = Some((q.mark(), next_ref));
                        next_ref += 1;
                    }
                    Some((mark, reference)) => {
                        let at = draw_at(rng, &model);
                        if model.iter().any(|&(a, ..)| a == at) {
                            marked_ties += 1;
                        }
                        let payload = rng.uniform_u64(0, u64::MAX - 1);
                        q.push_at_mark(at, payload, mark);
                        insert(&mut model, (at, reference, None, payload));
                        marked.push((mark, payload));
                    }
                },
            }
            assert_eq!(q.len(), model.len(), "step {step}: len");
            assert_eq!(q.is_empty(), model.is_empty(), "step {step}: is_empty");
            let exported: Vec<_> = q
                .export_entries()
                .into_iter()
                .map(|(at, _, p)| (at, p))
                .collect();
            let want: Vec<_> = model.iter().map(|&(at, _, _, p)| (at, p)).collect();
            assert_eq!(exported, want, "step {step}: export order");
        }
        let drain = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        let mut back = EventQueue::restore(q.next_seq(), q.export_entries()).expect("restore");
        assert_eq!(drain(&mut back), drain(&mut q), "restored queue");
    });
    assert!(
        stale_cancels > 0 && repeat_cancels > 0,
        "model test never cancelled a fired ({stale_cancels}) or cancelled ({repeat_cancels}) event"
    );
    assert!(
        ties > 1_000 && appends > 1_000 && marked_ties > 100,
        "model test pushed too few ties ({ties}), appends ({appends}) or marked ties \
         ({marked_ties}) at the firing end"
    );
}

/// `round_to_u64` equals `x.round() as u64` for every `f64`: seeded
/// random bit patterns over the whole type (NaN, infinities, negatives
/// and subnormals among them), random values across the whole `u64`
/// range, and a boundary set at each place a cheaper rounding goes
/// wrong — just below one half, every `k + 0.5` below 2^52, the whole
/// numbers from 2^52 on, the switch from the `i64` path at 2^63, and
/// the saturation at 2^64.
#[test]
fn round_to_u64_matches_round() {
    let check = |x: f64| {
        assert_eq!(
            round_to_u64(x),
            x.round() as u64,
            "x = {x:e} (bits {:#018x})",
            x.to_bits()
        );
    };
    let mut rng = SimRng::new(0x0DD_BA11);
    for _ in 0..2_000_000 {
        check(f64::from_bits(rng.uniform_u64(0, u64::MAX)));
    }
    for _ in 0..200_000 {
        let x = rng.uniform_u64(0, u64::MAX) as f64 * rng.uniform(0.0, 1.0);
        check(x);
        check(x.floor() + 0.5);
    }
    let specials = [
        0.0,
        -0.0,
        i64::MAX as f64,
        0.499_999_999_999_999_94,
        0.5,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::EPSILON,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        u64::MAX as f64,
        2f64.powi(63),
    ];
    let mut boundary = specials.to_vec();
    // Dense halves, then `k ± 0.5` around every power of two up to 2^52.
    boundary.extend((0..100_000u32).map(|k| f64::from(k) + 0.5));
    for e in 0..=52 {
        let k = 2f64.powi(e);
        boundary.extend(
            [k - 1.0, k, k + 1.0]
                .iter()
                .flat_map(|&k| [k - 0.5, k + 0.5]),
        );
    }
    // Every float is whole from 2^52 on; 2^52 to 2^53 steps by one.
    boundary.extend((0..100_000u32).map(|j| 2f64.powi(52) + f64::from(j)));
    boundary.extend((0..100_000u32).map(|j| 2f64.powi(53) - f64::from(j)));
    for e in 53..=70 {
        boundary.push(2f64.powi(e));
    }
    // From 2^62 to 2^63 floats step by 1024; 2^63 to 2^64 by 2048.
    boundary.extend((0..10_000u32).map(|j| 2f64.powi(63) - f64::from(j) * 1024.0));
    boundary.extend((0..10_000u32).map(|j| 2f64.powi(63) + f64::from(j) * 2048.0));
    // Each point, its neighbours and their negatives.
    for x in boundary {
        for y in [x, x.next_down(), x.next_up()] {
            check(y);
            check(-y);
        }
    }
}

/// `as_secs_f64` on both tick types equals the plain `u64` conversion
/// divided by a million, and `mul_f64` equals the plain conversion
/// scaled and rounded, over the places the `i64` path could go wrong —
/// 0, 2^53 ± 1, 2^63 − 1, 2^63 and `u64::MAX` — and seeded random words,
/// small and large.
#[test]
fn tick_conversions_match_the_unsigned_ones() {
    let check = |us: u64, factor: f64| {
        let want = us as f64 / 1e6;
        assert_eq!(
            SimTime::from_micros(us).as_secs_f64().to_bits(),
            want.to_bits(),
            "{us}"
        );
        let d = SimDuration::from_micros(us);
        assert_eq!(d.as_secs_f64().to_bits(), want.to_bits(), "{us}");
        let scaled = (us as f64 * factor).round() as u64;
        assert_eq!(d.mul_f64(factor).as_micros(), scaled, "{us} x {factor}");
    };
    let mut words = vec![0, 1, u64::MAX, u64::MAX - 1];
    for k in [1u64 << 53, 1 << 63] {
        words.extend([k - 1, k, k + 1]);
    }
    let mut rng = SimRng::new(0x71C5);
    for _ in 0..200_000 {
        words.push(rng.uniform_u64(0, u64::MAX));
        words.push(rng.uniform_u64(0, 1 << 40));
    }
    for us in words {
        for factor in [0.0, 0.5, 1.0, rng.uniform(0.0, 2.0)] {
            check(us, factor);
        }
    }
}

/// Step-function semantics: the resampled value at any grid point equals
/// `value_at` of that instant.
#[test]
fn time_series_resample_matches_value_at() {
    cases("series", 96, |rng| {
        let n = rng.uniform_u64(1, 39) as usize;
        let step_us = rng.uniform_u64(500, 4_999);
        let mut s = TimeSeries::new("prop");
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t += SimDuration::from_micros(rng.uniform_u64(1, 9_999));
            s.record(t, rng.uniform(-100.0, 100.0));
        }
        let end = t + SimDuration::from_micros(1_000);
        for (at, v) in s.resample(SimDuration::from_micros(step_us), end) {
            assert_eq!(Some(v), s.value_at(at));
        }
    });
}

/// Trial statistics are scale-equivariant: scaling all observations
/// scales mean, sd and CI by the same factor.
#[test]
fn trial_stats_scale() {
    cases("stats", 128, |rng| {
        let n = rng.uniform_u64(2, 19) as usize;
        let k = rng.uniform(0.1, 100.0);
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(0.1, 1e4)).collect();
        let base = TrialStats::from_values(&values);
        let scaled_values: Vec<f64> = values.iter().map(|v| v * k).collect();
        let scaled = TrialStats::from_values(&scaled_values);
        assert!((scaled.mean - base.mean * k).abs() < 1e-6 * base.mean.abs().max(1.0) * k);
        assert!((scaled.sd - base.sd * k).abs() < 1e-6 * (base.sd * k).max(1.0));
        assert!((scaled.ci90 - base.ci90 * k).abs() < 1e-6 * (base.ci90 * k).max(1.0));
    });
}

/// Call-path attribution reconciles bottom-up: for every canonical
/// scenario and seed, (1) each process's leaf-exclusive energies sum to
/// its process energy, (2) every interior frame's inclusive energy
/// equals its own exclusive energy plus its direct children's inclusive
/// energies, and (3) per-process energies sum to the multimeter total
/// the flat (per-procedure) correlation reports for the same run. Path
/// splitting loses no energy and invents none.
#[test]
fn energy_paths_reconcile_to_multimeter_total() {
    use energy_adaptation::experiments::{energymap, tracerec};
    use energy_adaptation::powerscope::{correlate, correlate_paths};

    for scenario in tracerec::SCENARIOS {
        for seed in [1u64, 7, 42] {
            let run = energymap::collect(scenario, seed, 1.0)
                .unwrap_or_else(|e| panic!("{scenario}/{seed}: {e}"));
            let flat = correlate(&run);
            let paths = correlate_paths(&run);
            let tag = format!("{scenario} seed {seed}");

            let mut process_sum = 0.0;
            for proc_paths in &paths.processes {
                // Leaf rows are exactly the sampled rows; exclusive
                // energy lives only there.
                let leaf_sum: f64 = proc_paths
                    .rows
                    .iter()
                    .filter(|r| r.samples > 0)
                    .map(|r| r.self_energy_j.0)
                    .sum();
                assert!(
                    (leaf_sum - proc_paths.energy_j.0).abs() <= 1e-9 * leaf_sum.abs().max(1.0),
                    "{tag}: {}: leaf exclusive sum {leaf_sum} != process {}",
                    proc_paths.process,
                    proc_paths.energy_j
                );
                // Interior inclusive = own exclusive + children inclusive.
                for row in &proc_paths.rows {
                    let child_prefix = format!("{}/", row.path);
                    let children: f64 = proc_paths
                        .rows
                        .iter()
                        .filter(|c| {
                            c.path.starts_with(&child_prefix)
                                && !c.path[child_prefix.len()..].contains('/')
                        })
                        .map(|c| c.inclusive_energy_j.0)
                        .sum();
                    let expect = row.self_energy_j.0 + children;
                    assert!(
                        (row.inclusive_energy_j.0 - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                        "{tag}: {} path {}: inclusive {} != self+children {expect}",
                        proc_paths.process,
                        row.path,
                        row.inclusive_energy_j
                    );
                }
                process_sum += proc_paths.energy_j.0;
            }
            // Process energies sum to the multimeter total (the flat
            // correlation integrates the same sample stream).
            let meter_total = flat.total_energy_j().0;
            assert!(
                (process_sum - meter_total).abs() <= 1e-9 * meter_total.abs().max(1.0),
                "{tag}: path process sum {process_sum} != multimeter total {meter_total}"
            );
            assert!(meter_total > 0.0, "{tag}: zero-energy run");
        }
    }
}
