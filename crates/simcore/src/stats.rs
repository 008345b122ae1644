//! Trial statistics in the form the paper reports them.
//!
//! Every figure in the paper is "the mean of five (or ten) trials" with
//! error bars showing 90% confidence intervals, and Figures 11 and 14 fit
//! least-squares linear models to energy-vs-think-time data. This module
//! provides exactly those reductions: [`TrialStats`] (mean, sample standard
//! deviation, 90% CI half-width using Student's t) and [`LinearFit`].

/// Two-sided 90% Student's t critical values by degrees of freedom (1..=30).
///
/// The paper runs 5- and 10-trial experiments, so small-sample correctness
/// matters; beyond 30 degrees of freedom we fall back to the normal value.
const T90: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];

const Z90: f64 = 1.645;

/// Summary of a set of repeated trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialStats {
    /// Number of trials.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator); zero for n < 2.
    pub sd: f64,
    /// Half-width of the two-sided 90% confidence interval for the mean;
    /// zero for n < 2.
    pub ci90: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl TrialStats {
    /// Computes statistics over a slice of trial results.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = simcore::TrialStats::from_values(&[10.0, 12.0, 11.0, 13.0, 9.0]);
    /// assert_eq!(s.n, 5);
    /// assert!((s.mean - 11.0).abs() < 1e-12);
    /// ```
    pub fn from_values(values: &[f64]) -> TrialStats {
        assert!(!values.is_empty(), "no trials");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite trial value"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        let (sd, ci90) = if n >= 2 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let sd = var.sqrt();
            let t = T90.get(n - 2).copied().unwrap_or(Z90);
            (sd, t * sd / (n as f64).sqrt())
        } else {
            (0.0, 0.0)
        };
        TrialStats {
            n,
            mean,
            sd,
            ci90,
            min,
            max,
        }
    }
}

/// Least-squares fit `y = intercept + slope * x`.
///
/// Used for the paper's linear energy model `E_t = E_0 + t * P_B`
/// (Sections 3.5.2 and 3.6.2), where the slope recovers the background
/// power and the intercept the zero-think-time energy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Estimated intercept (energy at zero think time).
    pub intercept: f64,
    /// Estimated slope (background power, W, when x is seconds and y Joules).
    pub slope: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
}

impl LinearFit {
    /// Fits a line to `(x, y)` points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or all `x` are identical.
    pub fn fit(points: &[(f64, f64)]) -> LinearFit {
        assert!(points.len() >= 2, "need at least two points");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let mx = sx / n;
        let my = sy / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
        assert!(sxx > 0.0, "all x values identical");
        let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let ss_tot: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
            .sum();
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
        };
        LinearFit {
            intercept,
            slope,
            r_squared,
        }
    }

    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used where trials are too numerous to buffer, e.g. per-sample profiler
/// noise checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations so far (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator; 0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn trial_stats_basics() {
        let s = TrialStats::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample sd of this classic set is sqrt(32/7).
        assert!((s.sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_trial_has_zero_spread() {
        let s = TrialStats::from_values(&[42.0]);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.ci90, 0.0);
        assert_eq!(s.mean, 42.0);
    }

    #[test]
    fn ci_uses_t_distribution_for_small_n() {
        // For n = 5, t(4 dof, 90%) = 2.132.
        let s = TrialStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let expected = 2.132 * s.sd / 5.0f64.sqrt();
        assert!((s.ci90 - expected).abs() < 1e-12);
    }

    #[test]
    fn ci_falls_back_to_normal_for_large_n() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = TrialStats::from_values(&values);
        let expected = Z90 * s.sd / 10.0;
        assert!((s.ci90 - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn empty_trials_panic() {
        let _ = TrialStats::from_values(&[]);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.5 * i as f64)).collect();
        let fit = LinearFit::fit(&pts);
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(20.0) - 53.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r2_degrades_with_noise() {
        let pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 5.0), (4.0, 3.0)];
        let fit = LinearFit::fit(&pts);
        assert!(fit.r_squared < 1.0);
        assert!(fit.r_squared > 0.3);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn linear_fit_rejects_vertical_data() {
        let _ = LinearFit::fit(&[(1.0, 0.0), (1.0, 5.0)]);
    }

    #[test]
    fn online_stats_matches_batch() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut o = OnlineStats::new();
        for v in values {
            o.push(v);
        }
        let batch = TrialStats::from_values(&values);
        assert_eq!(o.count(), 8);
        assert!((o.mean() - batch.mean).abs() < 1e-12);
        assert!((o.sd() - batch.sd).abs() < 1e-12);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let o = OnlineStats::new();
        assert_eq!(o.count(), 0);
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.variance(), 0.0);
    }
}
