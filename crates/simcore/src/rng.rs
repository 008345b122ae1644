//! Reproducible random streams.
//!
//! Every source of randomness in the workspace — PowerScope sample jitter,
//! the stochastic workloads of Section 5.4, per-trial data variation —
//! flows from a [`SimRng`] derived from an experiment seed. Independent
//! subsystems fork labelled child streams so that adding a new consumer of
//! randomness never perturbs existing ones (a classic simulation
//! reproducibility pitfall).

/// A seeded random stream with labelled forking.
///
/// Backed by a self-contained xoshiro256++ generator so the workspace
/// builds with no external dependencies (offline, vendored-free builds
/// are a tier-1 requirement).
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
///
/// let mut a = SimRng::new(42).fork("sampler");
/// let mut b = SimRng::new(42).fork("sampler");
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

/// SplitMix64 step, used to mix fork labels into child seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, so forks are keyed by name rather than order.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl SimRng {
    /// Creates a stream from an experiment seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into four non-zero state words with a SplitMix64
        // chain, the initialization xoshiro's authors recommend.
        let mut x = splitmix64(seed ^ 0x6a09_e667_f3bc_c908);
        let mut state = [0u64; 4];
        for lane in &mut state {
            x = splitmix64(x);
            *lane = x;
        }
        if state == [0, 0, 0, 0] {
            state[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SimRng { seed, state }
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream keyed by `label`.
    ///
    /// Forking is a pure function of `(seed, label)`: it does not consume
    /// state from `self`, so the order in which subsystems fork their
    /// streams is irrelevant.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ hash_label(label)))
    }

    /// Derives an independent child stream keyed by an index (e.g. trial
    /// number).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ hash_label(label) ^ splitmix64(index),
        ))
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[expect(clippy::float_cmp, reason = "an empty range returns its bound")]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        if lo == hi {
            return lo;
        }
        let v = lo + (hi - lo) * self.next_f64();
        // Floating-point rounding can land exactly on `hi`; keep the
        // half-open contract.
        if v >= hi {
            hi - (hi - lo) * f64::EPSILON
        } else {
            v
        }
    }

    /// Uniform integer sample in `[lo, hi]`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Widening-multiply range reduction (Lemire); the bias is far below
        // anything a simulation statistic can resolve.
        let reduced = ((self.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
        lo + reduced
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "invalid probability: {p}");
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        // `1 - next_f64()` lies in (0, 1], keeping ln() finite.
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard-normal sample via Box-Muller.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd.is_finite() && sd >= 0.0, "invalid sd: {sd}");
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Picks an index according to non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        self.weighted_index_by(weights, |w| *w)
    }

    /// [`Self::weighted_index`] over `weight(item)` of each item, read in
    /// place: the same sum, draw and scan, without a slice of weights.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or its weights sum to zero.
    pub fn weighted_index_by<T>(&mut self, items: &[T], weight: impl Fn(&T) -> f64) -> usize {
        let total: f64 = items.iter().map(&weight).sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.uniform(0.0, total);
        for (i, item) in items.iter().enumerate() {
            let w = weight(item);
            assert!(w >= 0.0, "negative weight at index {i}");
            if x < w {
                return i;
            }
            x -= w;
        }
        items.len() - 1
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.uniform(0.0, 1.0).to_bits(), b.uniform(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn forks_are_label_keyed_and_order_independent() {
        let root = SimRng::new(99);
        let mut a1 = root.fork("alpha");
        let _beta = root.fork("beta");
        let mut a2 = root.fork("alpha");
        assert_eq!(a1.uniform_u64(0, 1_000_000), a2.uniform_u64(0, 1_000_000));
    }

    #[test]
    fn different_labels_differ() {
        let root = SimRng::new(1);
        let mut a = root.fork("x");
        let mut b = root.fork("y");
        let xs: Vec<u64> = (0..8).map(|_| a.uniform_u64(0, u64::MAX - 1)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.uniform_u64(0, u64::MAX - 1)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn indexed_forks_differ_by_index() {
        let root = SimRng::new(5);
        let mut t0 = root.fork_indexed("trial", 0);
        let mut t1 = root.fork_indexed("trial", 1);
        assert_ne!(
            t0.uniform_u64(0, u64::MAX - 1),
            t1.uniform_u64(0, u64::MAX - 1)
        );
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::new(2024);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean} too far from 3.0");
    }

    #[test]
    fn bernoulli_frequency_is_roughly_right() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.25)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq} too far from 0.25");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(3);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio {ratio} too far from 3.0");
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut rng = SimRng::new(4);
        assert_eq!(rng.uniform(2.5, 2.5), 2.5);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(8);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var.sqrt() - 2.0).abs() < 0.05);
    }
}
