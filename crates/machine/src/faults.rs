//! Fault configuration for the machine executor.
//!
//! [`FaultConfig`] bundles the fault knobs that live in the substrate
//! layers below the control plane: the link-fault plan compiled into the
//! [`netsim::SharedLink`], the RPC timeout/retry policy of the executor's
//! network path, and the battery-gauge error model that distorts what
//! controllers read through [`crate::MachineView::residual_j`]. The
//! default is entirely clean, so every existing experiment is untouched.
//!
//! Retries cost real simulated energy: the radio window stays open across
//! backoff waits, an aborted leg's partial bytes are retransmitted from
//! scratch, and every extra second on the air drains the battery at the
//! platform's true power draw.

use hw560x::BatteryGauge;
use netsim::LinkFaultPlan;
use simcore::{SimDuration, SimTime};

/// Timeout/retry policy for the RPC and bulk-fetch network path: a
/// settable timeout, then exponential backoff from 100 ms doubling to a
/// 5 s cap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RpcPolicy {
    /// An attempt that has not completed after this long is aborted.
    pub timeout: SimDuration,
}

impl RpcPolicy {
    /// Backoff before the first retry.
    pub const BACKOFF_BASE: SimDuration = SimDuration::from_millis(100);

    /// Multiplier applied to the backoff on each further retry.
    pub const BACKOFF_FACTOR: f64 = 2.0;

    /// Upper bound on the backoff, however many retries accumulate.
    pub const BACKOFF_CAP: SimDuration = SimDuration::from_secs(5);

    /// A conventional policy: a 4 s timeout. It sits well above the
    /// worst clean-link RPC in the workloads (a 2 s bulk fetch), so it
    /// only ever fires because the link actually failed.
    pub fn standard() -> Self {
        RpcPolicy {
            timeout: SimDuration::from_secs(4),
        }
    }

    /// Backoff before retry number `retry` (1-based).
    pub fn backoff_after(retry: u32) -> SimDuration {
        let exp = Self::BACKOFF_FACTOR.powi(retry.saturating_sub(1) as i32);
        let raw = Self::BACKOFF_BASE.as_secs_f64() * exp;
        SimDuration::from_secs_f64(raw.min(Self::BACKOFF_CAP.as_secs_f64()))
    }
}

/// All substrate fault knobs of one machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault timeline and sensor-noise hash in the run.
    pub seed: u64,
    /// Horizon over which fault timelines are compiled. Transitions are
    /// only generated inside `[0, horizon)`; a run outliving the horizon
    /// sees a clean link afterwards.
    pub horizon: SimTime,
    /// Link faults (outages, dips, latency spikes).
    pub link: LinkFaultPlan,
    /// RPC timeout/retry policy; `None` means wait forever (the seed
    /// behavior — safe only because a clean link always completes).
    pub rpc: Option<RpcPolicy>,
    /// Battery-gauge error model applied to controller residual reads.
    pub gauge: BatteryGauge,
}

impl FaultConfig {
    /// No faults anywhere: the paper's bench conditions.
    pub fn clean() -> Self {
        FaultConfig {
            seed: 0,
            horizon: SimTime::ZERO,
            link: LinkFaultPlan::clean(),
            rpc: None,
            gauge: BatteryGauge::ideal(),
        }
    }

    /// The full hostile-substrate mix at `intensity` in `[0, 1]`:
    /// WaveLAN link faults, the standard retry policy, and an optimistic
    /// drifting gauge, all drawn from `seed`. Timelines cover `horizon`.
    pub fn hostile(seed: u64, intensity: f64, horizon: SimTime) -> Self {
        FaultConfig {
            seed,
            horizon,
            link: LinkFaultPlan::wavelan(intensity),
            rpc: Some(RpcPolicy::standard()),
            gauge: BatteryGauge::hostile(seed, intensity),
        }
    }

    /// True when nothing is configured to misbehave.
    pub fn is_clean(&self) -> bool {
        self.link.is_clean() && self.gauge.is_ideal()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::clean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        assert_eq!(RpcPolicy::backoff_after(1), SimDuration::from_millis(100));
        assert_eq!(RpcPolicy::backoff_after(2), SimDuration::from_millis(200));
        assert_eq!(RpcPolicy::backoff_after(3), SimDuration::from_millis(400));
        assert_eq!(RpcPolicy::backoff_after(10), SimDuration::from_secs(5));
        assert_eq!(RpcPolicy::backoff_after(30), SimDuration::from_secs(5));
    }

    #[test]
    fn clean_config_is_clean() {
        assert!(FaultConfig::clean().is_clean());
        assert!(FaultConfig::default().is_clean());
    }

    #[test]
    fn hostile_config_is_not() {
        let f = FaultConfig::hostile(1, 0.5, SimTime::from_secs(1200));
        assert!(!f.is_clean());
        assert!(f.rpc.is_some());
    }
}
