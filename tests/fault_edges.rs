//! Energy accounting under hostile links: whatever the fault timeline
//! does to the radio path — outages, dips, latency spikes, retry storms —
//! every energy figure the machine reports must stay non-negative and
//! finite, and a battery can only drain.

use energy_adaptation::hw560x::EnergySource;
use energy_adaptation::machine::workload::ScriptedWorkload;
use energy_adaptation::machine::{Activity, FaultConfig, Machine, MachineConfig, RpcPolicy};
use energy_adaptation::netsim::{LinkFaultPlan, RpcSpec};
use energy_adaptation::simcore::fault::FaultPlan;
use energy_adaptation::simcore::{Joules, SimDuration, SimTime};

/// Outage-heavy, dip-heavy link: short calm gaps so a 10-minute run sees
/// many overlapping fault windows of every class.
fn stormy(seed: u64, horizon: SimTime) -> FaultConfig {
    let mut faults = FaultConfig::clean();
    faults.seed = seed;
    faults.horizon = horizon;
    faults.link = LinkFaultPlan {
        outage: Some(FaultPlan::new(
            SimDuration::from_secs(12),
            SimDuration::from_secs(5),
        )),
        dip: Some((
            FaultPlan::new(SimDuration::from_secs(9), SimDuration::from_secs(15)),
            0.3,
        )),
        latency: Some((
            FaultPlan::new(SimDuration::from_secs(20), SimDuration::from_secs(8)),
            SimDuration::from_millis(80),
        )),
    };
    faults.rpc = Some(RpcPolicy {
        timeout: SimDuration::from_secs(2),
    });
    faults
}

/// Every energy figure stays non-negative through retry storms, and the
/// battery residual never exceeds its initial charge nor drops below
/// zero.
#[test]
fn energy_accounting_never_goes_negative_under_link_faults() {
    let initial_j = 5_000.0;
    for seed in 0..6 {
        let horizon = SimTime::from_secs(600);
        let mut m = Machine::new(MachineConfig {
            source: EnergySource::battery(Joules(initial_j)),
            faults: stormy(seed, horizon),
            ..Default::default()
        });
        let spec = RpcSpec {
            request_bytes: 20_000,
            reply_bytes: 60_000,
            server_time: SimDuration::from_millis(100),
        };
        let activities = (0..40)
            .map(|_| Activity::Rpc {
                spec,
                procedure: "fetch",
            })
            .collect();
        m.add_process(Box::new(ScriptedWorkload::new("fetcher", activities)));
        let report = m.run_until(horizon);

        assert!(
            report.total_j.is_finite() && report.total_j.0 >= 0.0,
            "seed {seed}: total {:?}",
            report.total_j
        );
        for (bucket, j) in &report.buckets {
            assert!(
                j.is_finite() && j.0 >= -1e-9,
                "seed {seed}: bucket {bucket} went negative: {j}"
            );
        }
        let c = &report.components;
        for (name, j) in [
            ("display", c.display_j),
            ("disk", c.disk_j),
            ("radio", c.radio_j),
            ("cpu", c.cpu_j),
            ("base", c.base_j),
            ("superlinear", c.superlinear_j),
        ] {
            assert!(
                j.is_finite() && j.0 >= -1e-9,
                "seed {seed}: component {name} went negative: {j}"
            );
        }
        assert!(
            (0.0..=initial_j).contains(&report.residual_j.0),
            "seed {seed}: residual {} outside [0, {initial_j}]",
            report.residual_j
        );
        // Conservation: what left the battery is what the ledger booked.
        let drained = initial_j - report.residual_j.0;
        assert!(
            (drained - report.total_j.0).abs() < 1e-6 * initial_j || report.exhausted,
            "seed {seed}: drained {drained} J but ledger booked {} J",
            report.total_j
        );
    }
}
