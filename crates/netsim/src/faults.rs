//! Link-fault model: outages, bandwidth dips, latency spikes.
//!
//! The paper's bench WaveLAN never misbehaves; a deployed one does. This
//! module describes the three failure modes that dominate wireless energy
//! bugs — complete outages (association loss, deep fades), bandwidth dips
//! (interference, contention from other cells), and media-access latency
//! spikes — as [`FaultPlan`] renewal processes, and compiles them into a
//! [`LinkFaultTimeline`] the machine executor consults while it drives the
//! [`crate::SharedLink`].
//!
//! Everything is drawn up front from a labelled [`SimRng`] stream, so a
//! fault run replays bit-identically from its seed.

use simcore::{FaultPlan, FaultSchedule, SimDuration, SimRng, SimTime};

/// Generative description of link faults, scaled by an intensity knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaultPlan {
    /// Complete outages (capacity drops to zero).
    pub outage: Option<FaultPlan>,
    /// Bandwidth dips and the capacity factor that applies during one.
    pub dip: Option<(FaultPlan, f64)>,
    /// Latency spikes and the extra one-way latency during one.
    pub latency: Option<(FaultPlan, SimDuration)>,
}

impl LinkFaultPlan {
    /// A healthy link: no faults at all.
    pub fn clean() -> Self {
        LinkFaultPlan {
            outage: None,
            dip: None,
            latency: None,
        }
    }

    /// A WaveLAN-like fault mix scaled by `intensity` in `[0, 1]`.
    ///
    /// At intensity 1.0: ~8 s outages on a ~3 min cadence, ~20 s dips to
    /// 30% capacity on a ~90 s cadence, and ~10 s windows of +80 ms
    /// one-way latency on a ~2 min cadence. Intensity stretches the quiet
    /// gaps (not the fault lengths), so faults get rarer, not gentler, as
    /// intensity falls — matching how real links degrade. Intensity 0
    /// returns the clean plan.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn wavelan(intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "invalid intensity: {intensity}"
        );
        if intensity == 0.0 {
            return Self::clean();
        }
        let stretch = 1.0 / intensity;
        let gap = |base_s: f64| SimDuration::from_secs_f64(base_s * stretch);
        LinkFaultPlan {
            outage: Some(FaultPlan::new(gap(180.0), SimDuration::from_secs(8))),
            dip: Some((FaultPlan::new(gap(90.0), SimDuration::from_secs(20)), 0.3)),
            latency: Some((
                FaultPlan::new(gap(120.0), SimDuration::from_secs(10)),
                SimDuration::from_millis(80),
            )),
        }
    }

    /// True when no fault class is configured.
    pub fn is_clean(&self) -> bool {
        self.outage.is_none() && self.dip.is_none() && self.latency.is_none()
    }

    /// Compiles the plan into a concrete timeline over `[0, horizon)`.
    ///
    /// Each fault class draws from its own labelled fork of `rng`, so
    /// adding a class never perturbs the others' timelines.
    pub fn compile(&self, rng: &SimRng, horizon: SimTime) -> LinkFaultTimeline {
        let sched = |plan: &FaultPlan, label: &str| plan.schedule(&mut rng.fork(label), horizon);
        LinkFaultTimeline {
            outages: self
                .outage
                .as_ref()
                .map(|p| sched(p, "link.outage"))
                .unwrap_or_default(),
            dips: self
                .dip
                .as_ref()
                .map(|(p, _)| sched(p, "link.dip"))
                .unwrap_or_default(),
            dip_factor: self.dip.map(|(_, f)| f).unwrap_or(1.0),
            latency: self
                .latency
                .as_ref()
                .map(|(p, _)| sched(p, "link.latency"))
                .unwrap_or_default(),
            latency_extra: self.latency.map(|(_, d)| d).unwrap_or(SimDuration::ZERO),
        }
    }
}

/// A compiled, concrete link-fault timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkFaultTimeline {
    outages: FaultSchedule,
    dips: FaultSchedule,
    dip_factor: f64,
    latency: FaultSchedule,
    latency_extra: SimDuration,
}

impl LinkFaultTimeline {
    /// A timeline with no faults.
    pub fn clean() -> Self {
        LinkFaultTimeline {
            dip_factor: 1.0,
            ..Default::default()
        }
    }

    /// A hand-scripted timeline from explicit schedules — for tests and
    /// scenario replays that need exact windows (e.g. a dip overlapping
    /// an outage) rather than a generative plan.
    ///
    /// # Panics
    ///
    /// Panics unless `dip_factor` is finite and in `[0, 1]`.
    pub fn scripted(
        outages: FaultSchedule,
        dips: FaultSchedule,
        dip_factor: f64,
        latency: FaultSchedule,
        latency_extra: SimDuration,
    ) -> Self {
        assert!(
            dip_factor.is_finite() && (0.0..=1.0).contains(&dip_factor),
            "invalid dip factor: {dip_factor}"
        );
        LinkFaultTimeline {
            outages,
            dips,
            dip_factor,
            latency,
            latency_extra,
        }
    }

    /// Effective capacity factor at `t`: 0 during an outage, the dip
    /// factor during a dip, 1 otherwise. An outage wins over a dip.
    pub fn capacity_factor_at(&self, t: SimTime) -> f64 {
        if self.outages.active_at(t) {
            0.0
        } else if self.dips.active_at(t) {
            self.dip_factor
        } else {
            1.0
        }
    }

    /// Extra one-way media-access latency at `t`.
    pub fn extra_latency_at(&self, t: SimTime) -> SimDuration {
        if self.latency.active_at(t) {
            self.latency_extra
        } else {
            SimDuration::ZERO
        }
    }

    /// The next instant strictly after `t` at which the capacity factor
    /// may change — the machine schedules its fault event there.
    pub fn next_capacity_transition_after(&self, t: SimTime) -> Option<SimTime> {
        match (
            self.outages.next_transition_after(t),
            self.dips.next_transition_after(t),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True when the timeline holds no fault windows at all.
    pub fn is_clean(&self) -> bool {
        self.outages.is_empty() && self.dips.is_empty() && self.latency.is_empty()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_compiles_to_clean_timeline() {
        let t = LinkFaultPlan::clean().compile(&SimRng::new(1), SimTime::from_secs(1000));
        assert!(t.is_clean());
        assert_eq!(t.capacity_factor_at(SimTime::from_secs(5)), 1.0);
        assert_eq!(t.extra_latency_at(SimTime::from_secs(5)), SimDuration::ZERO);
        assert_eq!(t.next_capacity_transition_after(SimTime::ZERO), None);
    }

    #[test]
    fn compile_is_deterministic() {
        let plan = LinkFaultPlan::wavelan(1.0);
        let a = plan.compile(&SimRng::new(9), SimTime::from_secs(3600));
        let b = plan.compile(&SimRng::new(9), SimTime::from_secs(3600));
        assert_eq!(a, b);
        assert!(!a.is_clean());
    }

    #[test]
    fn factors_layer_correctly() {
        let plan = LinkFaultPlan::wavelan(1.0);
        let t = plan.compile(&SimRng::new(4), SimTime::from_secs(7200));
        let mut saw_outage = false;
        let mut saw_dip = false;
        let mut at = SimTime::ZERO;
        while let Some(next) = t.next_capacity_transition_after(at) {
            let f = t.capacity_factor_at(next);
            assert!(
                f == 0.0 || f == 0.3 || f == 1.0,
                "unexpected capacity factor {f}"
            );
            saw_outage |= f == 0.0;
            saw_dip |= f == 0.3;
            at = next;
        }
        assert!(saw_outage, "two hours should include an outage");
        assert!(saw_dip, "two hours should include a dip");
    }

    #[test]
    fn intensity_scales_fault_density() {
        let horizon = SimTime::from_secs(100_000);
        let heavy = LinkFaultPlan::wavelan(1.0).compile(&SimRng::new(5), horizon);
        let light = LinkFaultPlan::wavelan(0.2).compile(&SimRng::new(5), horizon);
        let count = |t: &LinkFaultTimeline| {
            let mut n = 0;
            let mut at = SimTime::ZERO;
            while let Some(next) = t.next_capacity_transition_after(at) {
                n += 1;
                at = next;
            }
            n
        };
        assert!(
            count(&heavy) > 2 * count(&light),
            "intensity 1.0 ({}) should fault far more than 0.2 ({})",
            count(&heavy),
            count(&light)
        );
    }

    #[test]
    fn zero_intensity_is_clean() {
        assert!(LinkFaultPlan::wavelan(0.0).is_clean());
    }
}
