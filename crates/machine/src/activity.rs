//! Activities: the phases a workload executes.
//!
//! A workload describes its execution as a pull-mode sequence of phases.
//! Each phase maps onto machine resources the way the paper's applications
//! do: Xanim alternates `BulkFetch` (stream video data through Odyssey),
//! `Cpu` (decode), `XRender` (display) and `Wait` (frame pacing); Janus is
//! one long `Cpu` burst; Anvil is an `Rpc` (fetch the map) followed by
//! `Cpu` (rasterise), `XRender` and a think-time `Wait`.

use netsim::RpcSpec;
use simcore::{Codec, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter};

/// One phase of a workload's execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activity {
    /// Burn CPU for `duration` (of dedicated CPU time) at the given
    /// workload `intensity`, attributed to `procedure`.
    Cpu {
        /// CPU time required.
        duration: SimDuration,
        /// Power intensity in `[0, 1]` (see `hw560x::cpu`).
        intensity: f64,
        /// Procedure label for profiling.
        procedure: &'static str,
    },
    /// Burn CPU attributed to a different bucket than the workload's own
    /// process — e.g. the web browser's local proxy, or the Janus library
    /// the speech front-end links against, which the paper's profiles
    /// show as separate processes.
    CpuAs {
        /// Bucket (process name) to attribute to.
        bucket: &'static str,
        /// CPU time required.
        duration: SimDuration,
        /// Power intensity in `[0, 1]`.
        intensity: f64,
        /// Procedure label for profiling.
        procedure: &'static str,
    },
    /// Hand a rendering job to the X server and continue immediately.
    XRender {
        /// X server CPU time required.
        cost: SimDuration,
    },
    /// Perform a remote procedure call; blocks until the reply arrives.
    /// The radio stays awake for the whole window.
    Rpc {
        /// Payload sizes and server residence time.
        spec: RpcSpec,
        /// Procedure label for profiling.
        procedure: &'static str,
    },
    /// Receive `bytes` of streamed data; blocks until complete.
    BulkFetch {
        /// Bytes to receive.
        bytes: u64,
        /// Procedure label for profiling.
        procedure: &'static str,
    },
    /// Read `bytes` from the local disk; blocks until complete (including
    /// any spin-up from standby).
    DiskRead {
        /// Bytes to read.
        bytes: u64,
        /// Procedure label for profiling.
        procedure: &'static str,
    },
    /// Block until `until` (frame pacing, user think time). Think time is
    /// attributed to Idle, matching the paper's treatment of it as part of
    /// the application's execution whose energy shows up in the idle state.
    Wait {
        /// Wake-up instant.
        until: SimTime,
    },
}

impl Activity {
    /// Convenience constructor for a wait of `d` starting at `now`.
    pub fn wait_for(now: SimTime, d: SimDuration) -> Activity {
        Activity::Wait { until: now + d }
    }
}

/// A decoded CPU intensity, checked to be finite and in `[0, 1]` as the
/// CPU power model demands of every job it runs.
pub(crate) fn checked_intensity(intensity: f64) -> Result<f64, SnapshotError> {
    if (0.0..=1.0).contains(&intensity) {
        Ok(intensity)
    } else {
        Err(SnapshotError::Corrupt("cpu job intensity"))
    }
}

/// Tag word 0–6 in declaration order, then the variant's fields.
impl Codec for Activity {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            Activity::Cpu {
                duration,
                intensity,
                procedure,
            } => {
                w.put(&0u64);
                w.put(duration);
                w.put(intensity);
                w.put(procedure);
            }
            Activity::CpuAs {
                bucket,
                duration,
                intensity,
                procedure,
            } => {
                w.put(&1u64);
                w.put(bucket);
                w.put(duration);
                w.put(intensity);
                w.put(procedure);
            }
            Activity::XRender { cost } => w.put(&(2u64, *cost)),
            Activity::Rpc { spec, procedure } => w.put(&(3u64, *spec, *procedure)),
            Activity::BulkFetch { bytes, procedure } => w.put(&(4u64, *bytes, *procedure)),
            Activity::DiskRead { bytes, procedure } => w.put(&(5u64, *bytes, *procedure)),
            Activity::Wait { until } => w.put(&(6u64, *until)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u64>()? {
            0 => Activity::Cpu {
                duration: r.take()?,
                intensity: checked_intensity(r.take()?)?,
                procedure: r.take()?,
            },
            1 => Activity::CpuAs {
                bucket: r.take()?,
                duration: r.take()?,
                intensity: checked_intensity(r.take()?)?,
                procedure: r.take()?,
            },
            2 => Activity::XRender { cost: r.take()? },
            3 => Activity::Rpc {
                spec: r.take()?,
                procedure: r.take()?,
            },
            4 => Activity::BulkFetch {
                bytes: r.take()?,
                procedure: r.take()?,
            },
            5 => Activity::DiskRead {
                bytes: r.take()?,
                procedure: r.take()?,
            },
            6 => Activity::Wait { until: r.take()? },
            _ => return Err(SnapshotError::Corrupt("activity tag")),
        })
    }
}

/// What a workload does next.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// Execute this activity.
    Run(Activity),
    /// The workload has finished.
    Done,
}

/// Direction of an Odyssey fidelity upcall.
///
/// The paper's Odyssey notifies an application when the energy balance
/// leaves its expectation window; the application responds by moving one
/// step down (or up) its own fidelity scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptDirection {
    /// Reduce fidelity to save energy.
    Degrade,
    /// Restore fidelity; energy is plentiful.
    Upgrade,
}

/// A workload's position on its fidelity scale.
///
/// Level `levels - 1` is full fidelity; level 0 is the lowest the
/// application supports. Non-adaptive workloads report a single level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FidelityView {
    /// Current level (0 = lowest fidelity).
    pub level: usize,
    /// Number of levels (≥ 1).
    pub levels: usize,
}

impl FidelityView {
    /// A non-adaptive workload: one fixed level.
    pub fn fixed() -> FidelityView {
        FidelityView {
            level: 0,
            levels: 1,
        }
    }

    /// Creates a view.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or `level` is out of range.
    pub fn new(level: usize, levels: usize) -> FidelityView {
        assert!(levels >= 1 && level < levels, "invalid fidelity view");
        FidelityView { level, levels }
    }

    /// True if the workload can degrade further.
    pub fn can_degrade(&self) -> bool {
        self.level > 0
    }

    /// True if the workload can upgrade further.
    pub fn can_upgrade(&self) -> bool {
        self.level + 1 < self.levels
    }

    /// True at full fidelity.
    pub fn is_full(&self) -> bool {
        self.level + 1 == self.levels
    }

    /// Moves one level in `dir`, as a workload answers an upcall.
    /// Returns `true` if the level changed; at either end it stays put.
    pub fn step(&mut self, dir: AdaptDirection) -> bool {
        match dir {
            AdaptDirection::Degrade if self.can_degrade() => self.level -= 1,
            AdaptDirection::Upgrade if self.can_upgrade() => self.level += 1,
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_for_adds_duration() {
        let now = SimTime::from_secs(10);
        let a = Activity::wait_for(now, SimDuration::from_secs(5));
        assert_eq!(
            a,
            Activity::Wait {
                until: SimTime::from_secs(15)
            }
        );
    }

    #[test]
    fn fidelity_view_bounds() {
        let v = FidelityView::new(0, 3);
        assert!(v.can_upgrade() && !v.can_degrade() && !v.is_full());
        let v = FidelityView::new(2, 3);
        assert!(!v.can_upgrade() && v.can_degrade() && v.is_full());
        let fixed = FidelityView::fixed();
        assert!(!fixed.can_upgrade() && !fixed.can_degrade() && fixed.is_full());
        // A step moves one level and stops at either end.
        let mut v = FidelityView::new(1, 3);
        assert!(v.step(AdaptDirection::Degrade));
        assert_eq!(v, FidelityView::new(0, 3));
        assert!(!v.step(AdaptDirection::Degrade));
        assert_eq!(v.level, 0);
        assert!(v.step(AdaptDirection::Upgrade) && v.step(AdaptDirection::Upgrade));
        assert!(v.is_full());
        assert!(!v.step(AdaptDirection::Upgrade));
        assert_eq!(v.level, 2);
        let mut fixed = FidelityView::fixed();
        assert!(!fixed.step(AdaptDirection::Degrade) && !fixed.step(AdaptDirection::Upgrade));
        assert_eq!(fixed, FidelityView::fixed());
    }

    #[test]
    #[should_panic(expected = "invalid fidelity view")]
    fn out_of_range_level_panics() {
        let _ = FidelityView::new(3, 3);
    }
}
