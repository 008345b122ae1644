//! The energy ledger and run reports.
//!
//! The ledger integrates platform power exactly between events and keeps
//! three views the experiments need:
//!
//! - **buckets**: energy per software component (Idle, each application,
//!   X Server, Odyssey, WaveLAN, Kernel) — the shadings of the paper's
//!   bar charts;
//! - **components**: energy per hardware component — Figure 4's view;
//! - **procedure detail**: energy and CPU time per `(process, procedure)`
//!   pair — the rows of a PowerScope profile (Figure 2).

use std::collections::BTreeMap;

use hw560x::platform::PowerBreakdown;
use simcore::{Joules, SimDuration, SimTime, TimeSeries, Watts};

use crate::observer::ShareEntry;

/// Energy per hardware component over a run, J.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComponentTotals {
    /// Display backlight.
    pub display_j: Joules,
    /// Disk.
    pub disk_j: Joules,
    /// WaveLAN radio.
    pub radio_j: Joules,
    /// CPU + memory excess over halt.
    pub cpu_j: Joules,
    /// Base (chipset, DRAM refresh, CPU halt).
    pub base_j: Joules,
    /// Superlinear correction.
    pub superlinear_j: Joules,
}

impl ComponentTotals {
    /// Sum over all components.
    pub fn total_j(&self) -> Joules {
        self.display_j + self.disk_j + self.radio_j + self.cpu_j + self.base_j + self.superlinear_j
    }
}

/// One `(process, procedure)` row of the profile detail.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcDetail {
    /// Process (bucket) name.
    pub process: &'static str,
    /// Procedure name.
    pub procedure: &'static str,
    /// Attributed CPU-occupancy time, seconds.
    pub cpu_secs: f64,
    /// Attributed energy.
    pub energy_j: Joules,
}

#[derive(Debug, Default, PartialEq)]
pub(crate) struct Ledger {
    total_j: Joules,
    // BTreeMaps, not hash maps: the ledger is replayed state, and its
    // iteration order must not depend on the process's hash seed.
    buckets: BTreeMap<&'static str, Joules>,
    detail: BTreeMap<(&'static str, &'static str), (f64, Joules)>,
    components: ComponentTotals,
}

impl Ledger {
    pub(crate) fn total_j(&self) -> Joules {
        self.total_j
    }

    pub(crate) fn add(
        &mut self,
        dt: SimDuration,
        power_w: Watts,
        b: &PowerBreakdown,
        shares: &[ShareEntry],
    ) {
        let dt_secs = dt.as_secs_f64();
        let energy = power_w * dt;
        self.total_j += energy;
        self.components.display_j += b.display_w * dt;
        self.components.disk_j += b.disk_w * dt;
        self.components.radio_j += b.radio_w * dt;
        self.components.cpu_j += b.cpu_w * dt;
        self.components.base_j += b.base_w * dt;
        self.components.superlinear_j += b.superlinear_w * dt;
        for s in shares {
            *self.buckets.entry(s.bucket).or_insert(Joules::ZERO) += energy * s.fraction;
            let d = self
                .detail
                .entry((s.bucket, s.procedure))
                .or_insert((0.0, Joules::ZERO));
            d.0 += dt_secs * s.fraction;
            d.1 += energy * s.fraction;
        }
    }

    /// Energy attributed to one bucket so far, J (0 when absent). This is
    /// the live PowerScope-attribution feed the supervisor cross-checks
    /// declarations against.
    pub(crate) fn bucket_j(&self, name: &str) -> Joules {
        self.buckets.get(name).copied().unwrap_or(Joules::ZERO)
    }

    /// The procedure with the most attributed energy inside one bucket,
    /// with its energy, J — the live counterpart of the profile detail's
    /// top row (ties break toward the lexicographically first name, so
    /// the answer is replay-stable).
    pub(crate) fn hot_procedure_j(&self, bucket: &str) -> Option<(&'static str, Joules)> {
        self.detail
            .iter()
            .filter(|((b, _), _)| *b == bucket)
            .map(|((_, procedure), (_, j))| (*procedure, *j))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
    }

    pub(crate) fn snapshot_buckets(&self) -> Vec<(String, Joules)> {
        let mut v: Vec<(String, Joules)> = self
            .buckets
            .iter()
            .map(|(k, e)| (k.to_string(), *e))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    pub(crate) fn snapshot_detail(&self) -> Vec<ProcDetail> {
        let mut v: Vec<ProcDetail> = self
            .detail
            .iter()
            .map(|((p, f), (secs, j))| ProcDetail {
                process: p,
                procedure: f,
                cpu_secs: *secs,
                energy_j: *j,
            })
            .collect();
        v.sort_by(|a, b| {
            b.energy_j
                .total_cmp(&a.energy_j)
                .then_with(|| (a.process, a.procedure).cmp(&(b.process, b.procedure)))
        });
        v
    }

    pub(crate) fn components(&self) -> ComponentTotals {
        self.components
    }
}

simcore::impl_codec!(Ledger {
    total_j,
    buckets,
    detail,
    components
});
simcore::impl_codec!(ComponentTotals {
    display_j,
    disk_j,
    radio_j,
    cpu_j,
    base_j,
    superlinear_j
});

/// The result of one machine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Instant the run ended.
    pub end: SimTime,
    /// Total energy consumed.
    pub total_j: Joules,
    /// Energy per software bucket, sorted descending.
    pub buckets: Vec<(String, Joules)>,
    /// Energy per hardware component.
    pub components: ComponentTotals,
    /// Energy and CPU time per `(process, procedure)` pair.
    pub detail: Vec<ProcDetail>,
    /// Fidelity level over time, one series per adaptive workload
    /// (named after the workload).
    pub fidelity: Vec<TimeSeries>,
    /// True if a finite energy supply ran out before the workload ended.
    pub exhausted: bool,
    /// Energy remaining in the supply at the end (∞ for external).
    pub residual_j: Joules,
    /// Bytes carried over the wireless link (including aborted attempts).
    pub bytes_carried: u64,
    /// RPC attempts aborted by the retry policy's timeout.
    pub rpc_timeouts: u64,
    /// RPC attempts re-issued after a timeout.
    pub rpc_retries: u64,
}

impl RunReport {
    /// Energy attributed to `bucket` (0 when absent).
    pub fn bucket_j(&self, bucket: &str) -> Joules {
        self.buckets
            .iter()
            .find(|(b, _)| b == bucket)
            .map(|(_, e)| *e)
            .unwrap_or(Joules::ZERO)
    }

    /// Total adaptations (fidelity changes) performed by `workload`.
    pub fn adaptations_of(&self, workload: &str) -> usize {
        self.fidelity
            .iter()
            .find(|s| s.name() == workload)
            .map(|s| s.change_count())
            .unwrap_or(0)
    }

    /// Wall-clock duration of the run, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end.as_secs_f64()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::{BUCKET_IDLE, BUCKET_WAVELAN};

    fn share(bucket: &'static str, f: f64) -> ShareEntry {
        ShareEntry {
            bucket,
            procedure: "p",
            fraction: f,
        }
    }

    #[test]
    fn ledger_conserves_energy_across_buckets() {
        let mut l = Ledger::default();
        let b = PowerBreakdown {
            base_w: Watts(10.0),
            ..Default::default()
        };
        l.add(
            SimDuration::from_secs(2),
            Watts(10.0),
            &b,
            &[share(BUCKET_IDLE, 0.75), share(BUCKET_WAVELAN, 0.25)],
        );
        assert!((l.total_j() - Joules(20.0)).abs() < Joules(1e-12));
        let buckets = l.snapshot_buckets();
        let sum: Joules = buckets.iter().map(|(_, e)| e).sum();
        assert!((sum - Joules(20.0)).abs() < Joules(1e-12));
        assert_eq!(buckets[0].0, BUCKET_IDLE);
        assert!((buckets[0].1 - Joules(15.0)).abs() < Joules(1e-12));
    }

    #[test]
    fn component_totals_track_breakdown() {
        let mut l = Ledger::default();
        let b = PowerBreakdown {
            display_w: Watts(4.0),
            disk_w: Watts(1.0),
            radio_w: Watts(2.0),
            cpu_w: Watts(3.0),
            base_w: Watts(5.0),
            superlinear_w: Watts(0.5),
        };
        l.add(
            SimDuration::from_secs(4),
            b.total_w(),
            &b,
            &[share(BUCKET_IDLE, 1.0)],
        );
        let c = l.components();
        assert!((c.display_j - Joules(16.0)).abs() < Joules(1e-12));
        assert!((c.total_j() - l.total_j()).abs() < Joules(1e-9));
    }

    #[test]
    fn detail_accumulates_cpu_time() {
        let mut l = Ledger::default();
        let b = PowerBreakdown::default();
        for _ in 0..3 {
            l.add(
                SimDuration::from_secs(1),
                Watts(5.0),
                &b,
                &[share("janus", 1.0)],
            );
        }
        let d = l.snapshot_detail();
        assert_eq!(d.len(), 1);
        assert!((d[0].cpu_secs - 3.0).abs() < 1e-12);
        assert!((d[0].energy_j - Joules(15.0)).abs() < Joules(1e-12));
    }

    #[test]
    fn snapshot_order_is_insertion_order_independent() {
        // Regression test for the HashMap → BTreeMap conversion: report
        // iteration order must depend only on the data, never on the
        // order buckets were first touched (or, before the conversion, on
        // the process's hash seed). The ties are deliberate — with every
        // bucket at equal energy, ordering falls entirely to the
        // name-based tie-break.
        let names = ["janus", "Idle", "xanim", "WaveLAN", "netscape"];
        let b = PowerBreakdown::default();
        let mut forward = Ledger::default();
        for n in names {
            forward.add(SimDuration::from_secs(1), Watts(5.0), &b, &[share(n, 1.0)]);
        }
        let mut reversed = Ledger::default();
        for n in names.iter().rev() {
            reversed.add(SimDuration::from_secs(1), Watts(5.0), &b, &[share(n, 1.0)]);
        }
        assert_eq!(forward.snapshot_buckets(), reversed.snapshot_buckets());
        assert_eq!(forward.snapshot_detail(), reversed.snapshot_detail());
        let buckets = forward.snapshot_buckets();
        let order: Vec<&str> = buckets.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            order,
            ["Idle", "WaveLAN", "janus", "netscape", "xanim"],
            "equal energies must fall back to name order"
        );
    }

    #[test]
    fn report_lookup_helpers() {
        let report = RunReport {
            end: SimTime::from_secs(10),
            total_j: Joules(50.0),
            buckets: vec![
                ("Idle".into(), Joules(30.0)),
                ("xanim".into(), Joules(20.0)),
            ],
            components: ComponentTotals::default(),
            detail: vec![],
            fidelity: vec![],
            exhausted: false,
            residual_j: Joules(f64::INFINITY),
            bytes_carried: 0,
            rpc_timeouts: 0,
            rpc_retries: 0,
        };
        assert_eq!(report.bucket_j("xanim"), Joules(20.0));
        assert_eq!(report.bucket_j("nope"), Joules(0.0));
        assert_eq!(report.adaptations_of("xanim"), 0);
        assert_eq!(report.duration_s(), 10.0);
    }
}
