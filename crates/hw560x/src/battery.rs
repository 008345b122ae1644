//! Energy supply model.
//!
//! For the measurement experiments (Section 3) the paper removed the
//! battery and ran from an external supply "to avoid confounding effects
//! due to non-ideal battery behavior" — energy is unbounded and merely
//! metered. For the goal-directed experiments (Section 5) Odyssey is given
//! an initial energy value (12,000 J, 13,000 J, or 90,000 J) and the
//! experiment ends when the workload completes or the supply reaches zero.

use simcore::{
    fault::hash_noise, Codec, Joules, SimTime, SnapshotError, SnapshotReader, SnapshotWriter, Watts,
};

/// An energy supply being drained by the platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EnergySource {
    /// External supply: unlimited energy, consumption metered only.
    External,
    /// Finite store with the given remaining energy, J.
    Battery {
        /// Energy remaining, J.
        remaining_j: Joules,
    },
}

/// Tag 0 is `External`, tag 1 a `Battery` followed by its residual,
/// which must be finite and non-negative.
impl Codec for EnergySource {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            EnergySource::External => w.put(&0u64),
            EnergySource::Battery { remaining_j } => {
                w.put(&1u64);
                w.put(remaining_j);
            }
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u64>()? {
            0 => Ok(EnergySource::External),
            1 => {
                let remaining_j: Joules = r.take()?;
                if !remaining_j.is_finite() || remaining_j < Joules::ZERO {
                    return Err(SnapshotError::Corrupt("battery residual"));
                }
                Ok(EnergySource::Battery { remaining_j })
            }
            _ => Err(SnapshotError::Corrupt("energy source tag")),
        }
    }
}

impl EnergySource {
    /// Creates a finite supply holding `initial_j`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_j` is negative or not finite.
    pub fn battery(initial_j: Joules) -> Self {
        assert!(
            initial_j.is_finite() && initial_j >= Joules::ZERO,
            "invalid initial energy: {initial_j}"
        );
        EnergySource::Battery {
            remaining_j: initial_j,
        }
    }

    /// Draws `joules` from the supply; returns the amount actually drawn
    /// (less than requested only when a battery runs out).
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    #[inline]
    pub fn drain(&mut self, joules: Joules) -> Joules {
        assert!(
            joules.is_finite() && joules >= Joules::ZERO,
            "invalid drain: {joules}"
        );
        match self {
            EnergySource::External => joules,
            EnergySource::Battery { remaining_j } => {
                let drawn = joules.min(*remaining_j);
                *remaining_j -= drawn;
                drawn
            }
        }
    }

    /// Energy remaining (`Joules::INFINITY` for an external supply).
    #[inline]
    pub fn remaining_j(&self) -> Joules {
        match self {
            EnergySource::External => Joules::INFINITY,
            EnergySource::Battery { remaining_j } => *remaining_j,
        }
    }

    /// True once a battery is fully drained.
    pub fn is_exhausted(&self) -> bool {
        match self {
            EnergySource::External => false,
            EnergySource::Battery { remaining_j } => *remaining_j <= Joules::ZERO,
        }
    }
}

/// Error model of the battery fuel gauge: what the software *reads*, as
/// opposed to what the cell *holds*.
///
/// The paper sidesteps gauge error by running from an external supply and
/// handing Odyssey an exact initial-energy figure; a deployed client gets
/// neither luxury. The model composes four effects observed in smart
/// batteries: a proportional calibration bias, a coulomb-counter drift
/// that grows linearly with time, zero-mean proportional read noise, and
/// quantization to the gauge's reporting step.
///
/// `read` is a pure function of `(now, true_j)` — per-instant noise comes
/// from [`hash_noise`], not an rng stream — so a read-only probe can call
/// it any number of times without perturbing determinism.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatteryGauge {
    /// Seed for the per-read noise hash.
    pub seed: u64,
    /// Proportional calibration bias: +0.1 reads 10% optimistic.
    pub bias_frac: f64,
    /// Coulomb-counter drift: J of over-report per simulated second.
    pub drift_j_per_s: Watts,
    /// Standard-deviation-scale read noise as a fraction of the reading.
    pub noise_frac: f64,
    /// Reporting quantum (readings are floored to a multiple of it).
    pub quantum_j: Joules,
}

impl BatteryGauge {
    /// An ideal gauge: reads the true value exactly.
    pub fn ideal() -> Self {
        BatteryGauge {
            seed: 0,
            bias_frac: 0.0,
            drift_j_per_s: Watts::ZERO,
            noise_frac: 0.0,
            quantum_j: Joules::ZERO,
        }
    }

    /// A hostile gauge scaled by `intensity` in `[0, 1]`: at full
    /// intensity it reads 20% optimistic, drifts upward 0.5 J/s, carries
    /// 2% read noise, and reports in 50 J steps. The optimistic sign is
    /// the dangerous one — a pessimistic gauge merely wastes fidelity,
    /// an optimistic one walks the client into a dead battery.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn hostile(seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "invalid intensity: {intensity}"
        );
        BatteryGauge {
            seed,
            bias_frac: 0.20 * intensity,
            drift_j_per_s: Watts(0.5 * intensity),
            noise_frac: 0.02 * intensity,
            quantum_j: Joules(50.0 * intensity),
        }
    }

    /// True when the gauge introduces no error at all.
    pub fn is_ideal(&self) -> bool {
        self.bias_frac == 0.0
            && self.drift_j_per_s == Watts::ZERO
            && self.noise_frac == 0.0
            && self.quantum_j == Joules::ZERO
    }

    /// What the gauge reports at `now` when the cell truly holds
    /// `true_j`. Deterministic in `(now, true_j)`; never negative; an
    /// infinite `true_j` (external supply) passes through untouched.
    pub fn read(&self, now: SimTime, true_j: Joules) -> Joules {
        if self.is_ideal() || true_j.0.is_infinite() {
            return true_j;
        }
        let mut v = true_j * (1.0 + self.bias_frac) + self.drift_j_per_s * now.since(SimTime::ZERO);
        if self.noise_frac > 0.0 {
            // One noise draw per 100 ms bucket so back-to-back reads agree.
            let tick = now.as_micros() / 100_000;
            v = v * (1.0 + self.noise_frac * hash_noise(self.seed, tick));
        }
        if self.quantum_j > Joules::ZERO {
            v = (v / self.quantum_j).floor() * self.quantum_j;
        }
        v.max(Joules::ZERO)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use simcore::SimDuration;

    /// The generic codec property test over this crate's impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use crate::DiskState;
        use simcore::snapshot::check_codec;
        check_codec(&EnergySource::External);
        check_codec(&EnergySource::battery(Joules(1.5e4)));
        for state in [
            DiskState::Active,
            DiskState::Idle,
            DiskState::Standby,
            DiskState::SpinningUp,
        ] {
            check_codec(&state);
        }
    }

    fn j(v: f64) -> Joules {
        Joules(v)
    }

    #[test]
    fn external_is_never_exhausted() {
        let mut s = EnergySource::External;
        assert_eq!(s.drain(j(1e9)), j(1e9));
        assert!(!s.is_exhausted());
        assert_eq!(s.remaining_j(), Joules::INFINITY);
    }

    #[test]
    fn battery_drains_to_zero() {
        let mut s = EnergySource::battery(j(100.0));
        assert_eq!(s.drain(j(60.0)), j(60.0));
        assert!((s.remaining_j() - j(40.0)).abs() < j(1e-12));
        assert!(!s.is_exhausted());
        // Over-draw is clamped to what remains.
        assert_eq!(s.drain(j(60.0)), j(40.0));
        assert!(s.is_exhausted());
        assert_eq!(s.drain(j(1.0)), j(0.0));
    }

    #[test]
    fn zero_capacity_battery_is_exhausted() {
        let s = EnergySource::battery(j(0.0));
        assert!(s.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "invalid initial energy")]
    fn negative_capacity_panics() {
        let _ = EnergySource::battery(j(-1.0));
    }

    #[test]
    #[should_panic(expected = "invalid drain")]
    fn negative_drain_panics() {
        EnergySource::External.drain(j(-1.0));
    }

    #[test]
    fn ideal_gauge_is_transparent() {
        let g = BatteryGauge::ideal();
        assert!(g.is_ideal());
        assert_eq!(g.read(SimTime::from_secs(100), j(5_000.0)), j(5_000.0));
        assert_eq!(g.read(SimTime::ZERO, Joules::INFINITY), Joules::INFINITY);
    }

    #[test]
    fn hostile_gauge_reads_optimistic_and_deterministic() {
        let g = BatteryGauge::hostile(7, 1.0);
        let now = SimTime::from_secs(600);
        let a = g.read(now, j(6_000.0));
        let b = g.read(now, j(6_000.0));
        assert_eq!(a, b, "same instant, same reading");
        // Bias +20% and drift +0.5 J/s dominate the ±2% noise.
        assert!(a > j(6_000.0), "hostile gauge should over-report: {a}");
        // Quantized to 50 J steps.
        assert_eq!(a.0 % 50.0, 0.0);
        // Noise means two different instants read differently even at
        // equal true energy (drift aside).
        let later = g.read(now + SimDuration::from_secs(1), j(6_000.0));
        assert_ne!(a, later);
    }

    #[test]
    fn gauge_never_goes_negative() {
        let g = BatteryGauge::hostile(3, 1.0);
        for s in 0..100 {
            let v = g.read(SimTime::from_secs(s), j(1.0));
            assert!(v >= Joules::ZERO, "{v}");
        }
    }

    #[test]
    fn zero_intensity_gauge_is_ideal() {
        assert!(BatteryGauge::hostile(1, 0.0).is_ideal());
    }
}
