//! Summary statistics for timing samples.
//!
//! Tail latencies follow one rule: report the highest standard
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it,
//! and always state the sample count. A p99 over 200 samples rests on two
//! observations and is refused; the caller gets the p95 instead.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the rule chooses from, highest first.
const STANDARD: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    // The tolerance absorbs binary rounding of `p` (99.9 % of 10 000 is
    // rank 9990, not 9991).
    let exact = p / 100.0 * n as f64;
    let r = (exact - 1e-9 * exact.max(1.0)).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// A reported tail percentile: which percentile, its value, and over how
/// many samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (may be below the one asked for).
    pub p: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

impl Tail {
    /// `p99 of n=1060`-style label.
    pub fn label(&self) -> String {
        format!("p{} of n={}", self.p, self.n)
    }
}

/// `want` when at least [`MIN_BEYOND`] of `n` samples lie beyond it, else
/// the highest standard percentile below it that has them.
fn supported(n: usize, want: f64) -> Option<f64> {
    if beyond(n, want) >= MIN_BEYOND {
        return Some(want);
    }
    STANDARD
        .into_iter()
        .find(|&p| p < want && beyond(n, p) >= MIN_BEYOND)
}

/// Percentile `want` of `values` when at least [`MIN_BEYOND`] samples lie
/// beyond it, else the highest standard percentile that has them; `None`
/// when even the median lacks support.
pub fn tail(values: &[f64], want: f64) -> Option<Tail> {
    let n = values.len();
    let p = supported(n, want)?;
    let sorted = sorted(values);
    Some(Tail {
        p,
        value: sorted[rank(n, p) - 1],
        n,
    })
}

/// Smallest value a [`Histogram`] resolves; smaller samples share the
/// first bucket.
const HIST_MIN: f64 = 0.01;

/// Ratio between neighbouring bucket edges: 0.5 % resolution.
const HIST_GROWTH: f64 = 1.005;

/// Buckets from [`HIST_MIN`] to about 10⁸ of the same unit.
const HIST_BUCKETS: usize = 4700;

/// Latency samples in fixed memory: log-spaced buckets 0.5 % wide, so a
/// run's footprint does not grow with the number of operations it times.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    /// Counts one sample.
    pub fn record(&mut self, value: f64) {
        let i = if value > HIST_MIN {
            ((value / HIST_MIN).ln() / HIST_GROWTH.ln()) as usize
        } else {
            0
        };
        if let Some(c) = self.counts.get_mut(i.min(HIST_BUCKETS - 1)) {
            *c += 1;
        }
        self.n += 1;
    }

    /// Samples counted.
    pub fn len(&self) -> usize {
        self.n
    }

    /// [`tail`] over the counted samples; the value is the upper edge of
    /// the bucket holding the nearest-rank sample (at most 0.5 % high).
    pub fn tail(&self, want: f64) -> Option<Tail> {
        let p = supported(self.n, want)?;
        let r = rank(self.n, p) as u64;
        let mut seen = 0;
        let i = self.counts.iter().position(|&c| {
            seen += c;
            seen >= r
        })?;
        Some(Tail {
            p,
            value: HIST_MIN * HIST_GROWTH.powi(i as i32 + 1),
            n: self.n,
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // Rank 990 of 1000 leaves exactly ten beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        let t = tail(&ramp(1000), 99.0).expect("supported");
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        assert_eq!(t.label(), "p99 of n=1000");
    }

    #[test]
    fn unsupported_percentile_falls_back_to_the_highest_supported() {
        // 999 samples: p99 has nine beyond it, p95 has fifty.
        let t = tail(&ramp(999), 99.0).expect("p95 supported");
        assert_eq!((t.p, t.n), (95.0, 999));
        assert_eq!(t.value, 950.0);
        // 25 samples: only the median keeps ten beyond it.
        let t = tail(&ramp(25), 99.0).expect("median supported");
        assert_eq!(t.p, 50.0);
        assert_eq!(t.value, 13.0);
        // Below twenty samples nothing qualifies.
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&ramp(20), 99.0).map(|t| t.p), Some(50.0));
        assert_eq!(tail(&ramp(10_000), 99.9).map(|t| t.p), Some(99.9));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(2000);
        v.reverse();
        assert_eq!(tail(&v, 50.0).map(|t| t.value), Some(1000.0));
        assert_eq!(tail(&v, 99.0).map(|t| t.value), Some(1980.0));
    }

    #[test]
    fn histogram_follows_the_same_rule_within_its_resolution() {
        for n in [25, 999, 1000, 20_000] {
            let mut h = Histogram::default();
            for v in ramp(n) {
                h.record(v);
            }
            assert_eq!(h.len(), n);
            for want in [50.0, 99.0] {
                let exact = tail(&ramp(n), want).expect("supported");
                let got = h.tail(want).expect("supported");
                assert_eq!((got.p, got.n), (exact.p, exact.n));
                let rel = got.value / exact.value - 1.0;
                assert!(
                    (-1e-9..0.006).contains(&rel),
                    "n={n} p{want}: {got:?} vs {exact:?}"
                );
            }
        }
        let mut tiny = Histogram::default();
        tiny.record(0.0);
        assert_eq!(tiny.tail(50.0), None);
    }
}
