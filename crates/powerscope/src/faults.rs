//! Meter faults: sample dropout, jitter, and quantization.
//!
//! The on-line meter ([`crate::OnlinePowerMeter`]) assumes a perfect
//! instrument: every 100 ms tick produces a cumulative-energy reading that
//! never regresses. A real multimeter misses triggers under bus
//! contention, jitters around the true value, and reports in finite
//! resolution. [`FaultyEnergySensor`] sits between the exact simulated
//! ledger and the meter, applying those defects deterministically while
//! *guaranteeing* the monotonicity the meter's contract demands — a noisy
//! sensor must degrade estimates, never crash the control plane.

use simcore::fault::hash_noise;
use simcore::Joules;

/// Generative description of meter defects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeterFaultPlan {
    /// Seed for the per-read noise hashes.
    pub seed: u64,
    /// Probability that a reading is dropped entirely.
    pub drop_p: f64,
    /// Absolute jitter amplitude on each reading, J. Kept absolute — a
    /// noise floor — rather than proportional to the counter: error
    /// proportional to *cumulative* energy would grow without bound and
    /// (through the monotonicity guarantee) freeze the output for many
    /// seconds after each upward spike.
    pub jitter_j: Joules,
    /// Reporting quantum (readings floor to a multiple of it).
    pub quantum_j: Joules,
}

impl MeterFaultPlan {
    /// A perfect meter.
    pub fn clean() -> Self {
        MeterFaultPlan {
            seed: 0,
            drop_p: 0.0,
            jitter_j: Joules::ZERO,
            quantum_j: Joules::ZERO,
        }
    }

    /// A degraded meter scaled by `intensity` in `[0, 1]`: at full
    /// intensity 20% of samples vanish, readings jitter by ±2 J, and the
    /// instrument reports in 0.5 J steps.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn degraded(seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "invalid intensity: {intensity}"
        );
        MeterFaultPlan {
            seed,
            drop_p: 0.20 * intensity,
            jitter_j: Joules(2.0 * intensity),
            quantum_j: Joules(0.5 * intensity),
        }
    }

    /// True when the plan introduces no defects.
    pub fn is_clean(&self) -> bool {
        self.drop_p == 0.0 && self.jitter_j == Joules::ZERO && self.quantum_j == Joules::ZERO
    }
}

/// Applies a [`MeterFaultPlan`] to a stream of exact cumulative-energy
/// readings. Stateful: it counts reads (each read gets an independent
/// noise draw) and remembers the last emitted value so its output is
/// non-decreasing even when jitter would dip below a previous reading.
#[derive(Clone, Copy, Debug)]
pub struct FaultyEnergySensor {
    plan: MeterFaultPlan,
    reads: u64,
    last_emitted: Joules,
}

impl FaultyEnergySensor {
    /// Creates a sensor applying `plan`.
    pub fn new(plan: MeterFaultPlan) -> Self {
        FaultyEnergySensor {
            plan,
            reads: 0,
            last_emitted: Joules::ZERO,
        }
    }

    /// Encodes the sensor's mutable counters (the fault plan is
    /// construction-time) into a snapshot payload.
    pub fn freeze_into(&self, w: &mut simcore::SnapshotWriter) {
        w.put(&self.reads);
        w.put(&self.last_emitted);
    }

    /// Restores the state written by [`Self::freeze_into`].
    pub fn thaw_from(
        &mut self,
        r: &mut simcore::SnapshotReader<'_>,
    ) -> Result<(), simcore::SnapshotError> {
        self.reads = r.take()?;
        self.last_emitted = r.take()?;
        Ok(())
    }

    /// Observes the true cumulative energy; returns what the instrument
    /// reports, or `None` when the sample is dropped. Deterministic in
    /// the sequence of calls.
    pub fn observe(&mut self, true_j: Joules) -> Option<Joules> {
        self.reads += 1;
        if self.plan.is_clean() {
            self.last_emitted = true_j;
            return Some(true_j);
        }
        let drop_draw = (hash_noise(self.plan.seed ^ 0xD809, self.reads) + 1.0) / 2.0;
        if drop_draw < self.plan.drop_p {
            return None;
        }
        let mut v = true_j;
        if self.plan.jitter_j > Joules::ZERO {
            v += self.plan.jitter_j * hash_noise(self.plan.seed ^ 0x717E, self.reads);
        }
        if self.plan.quantum_j > Joules::ZERO {
            v = (v / self.plan.quantum_j).floor() * self.plan.quantum_j;
        }
        v = v.max(self.last_emitted).max(Joules::ZERO);
        self.last_emitted = v;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sensor_is_transparent() {
        let mut s = FaultyEnergySensor::new(MeterFaultPlan::clean());
        for i in 0..50 {
            assert_eq!(
                s.observe(Joules(i as f64 * 1.5)),
                Some(Joules(i as f64 * 1.5))
            );
        }
    }

    #[test]
    fn degraded_sensor_drops_and_stays_monotone() {
        let mut s = FaultyEnergySensor::new(MeterFaultPlan::degraded(11, 1.0));
        let mut dropped = 0;
        let mut last = Joules::ZERO;
        for i in 0..2000 {
            match s.observe(Joules(i as f64 * 0.9)) {
                None => dropped += 1,
                Some(v) => {
                    assert!(v >= last, "reading regressed: {last} -> {v}");
                    last = v;
                }
            }
        }
        // 20% drop rate over 2000 reads: expect a wide but decisive band.
        assert!((200..700).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn sensor_is_deterministic() {
        let run = |seed| {
            let mut s = FaultyEnergySensor::new(MeterFaultPlan::degraded(seed, 0.7));
            (0..300)
                .map(|i| s.observe(Joules(i as f64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn zero_intensity_is_clean() {
        assert!(MeterFaultPlan::degraded(1, 0.0).is_clean());
    }
}
