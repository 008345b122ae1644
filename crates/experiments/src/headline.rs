//! The paper's headline numbers (Sections 1 and 3.8).
//!
//! "Our results show energy reductions in the range of 7% to 72%, with a
//! mean of 36%. Combined with hardware power management, we achieve
//! overall reductions between 31% and 76%, with a mean of 50% — in
//! effect, doubling battery life."
//!
//! This module aggregates the Figure 16 summary into those statistics.

use crate::fig16::{self, Condition};
use crate::harness::Trials;
use crate::table::Table;

/// The headline aggregate.
#[derive(Clone, Debug)]
pub struct Headline {
    /// Fidelity-reduction savings across all rows/objects: (min, max, mean).
    pub fidelity: (f64, f64, f64),
    /// Combined savings: (min, max, mean).
    pub combined: (f64, f64, f64),
    /// Battery-life multiplier implied by the combined mean.
    pub battery_multiplier: f64,
}

/// Computes the headline statistics from the Figure 16 summary.
pub fn run(trials: &Trials) -> Headline {
    let f = fig16::run_with_thinks(trials, &[5.0, 10.0]);
    let collect = |c: Condition| -> (f64, f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in &f.rows {
            #[expect(clippy::expect_used, reason = "fig16 rows carry every condition")]
            let (bl, bh) = row
                .bands
                .iter()
                .find(|(rc, _, _)| *rc == c)
                .map(|(_, l, h)| (*l, *h))
                .expect("condition");
            lo = lo.min(1.0 - bh);
            hi = hi.max(1.0 - bl);
            #[expect(
                clippy::unwrap_used,
                reason = "fig16 rows carry every condition's mean"
            )]
            let mean = row.means.iter().find(|(rc, _)| *rc == c).unwrap().1;
            sum += 1.0 - mean;
            n += 1;
        }
        (lo, hi, sum / n as f64)
    };
    let fidelity = collect(Condition::FidelityReduction);
    let combined = collect(Condition::Combined);
    Headline {
        fidelity,
        combined,
        battery_multiplier: 1.0 / (1.0 - combined.2),
    }
}

/// Renders the headline comparison against the paper's claims.
pub fn render(trials: &Trials) -> String {
    let h = run(trials);
    let mut t = Table::new(
        "Headline: overall energy savings (Sections 1, 3.8)",
        &["Metric", "Paper", "Measured"],
    );
    t.push_row(vec![
        "Fidelity reduction, range".into(),
        "7-72%".into(),
        format!("{:.0}-{:.0}%", h.fidelity.0 * 100.0, h.fidelity.1 * 100.0),
    ]);
    t.push_row(vec![
        "Fidelity reduction, mean".into(),
        "36%".into(),
        format!("{:.0}%", h.fidelity.2 * 100.0),
    ]);
    t.push_row(vec![
        "Combined, range".into(),
        "31-76%".into(),
        format!("{:.0}-{:.0}%", h.combined.0 * 100.0, h.combined.1 * 100.0),
    ]);
    t.push_row(vec![
        "Combined, mean".into(),
        "~50%".into(),
        format!("{:.0}%", h.combined.2 * 100.0),
    ]);
    t.push_row(vec![
        "Battery-life multiplier".into(),
        "~2.0x".into(),
        format!("{:.2}x", h.battery_multiplier),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_statistics_match_paper_shape() {
        let h = run(&Trials::single());
        let (f_lo, f_hi, f_mean) = h.fidelity;
        let (c_lo, c_hi, c_mean) = h.combined;
        // Wide range with a low floor (web) and a high ceiling (speech).
        assert!(f_lo < 0.15, "fidelity floor {f_lo}");
        assert!(f_hi > 0.45, "fidelity ceiling {f_hi}");
        assert!((0.20..=0.55).contains(&f_mean), "fidelity mean {f_mean}");
        // Combined improves on both ends.
        assert!(c_lo >= f_lo - 0.02, "combined floor {c_lo}");
        assert!(c_hi >= f_hi, "combined ceiling {c_hi}");
        assert!((0.35..=0.65).contains(&c_mean), "combined mean {c_mean}");
        // Roughly doubled battery life.
        assert!(
            (1.5..=2.8).contains(&h.battery_multiplier),
            "multiplier {}",
            h.battery_multiplier
        );
    }
}
