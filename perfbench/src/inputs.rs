//! Seeded input generation. Every input the program under test sees is
//! a pure function of the workload seed; nothing else varies between
//! runs of one seed.

use simserve::Sample;

/// SplitMix64: a small, fixed generator, so the inputs of a seed never
/// change when a simulator RNG does.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted by `stream` so that independent
    /// inputs of one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Input-stream salts.
const STREAM_TICKS: u64 = 1;
const STREAM_KILLS: u64 = 2;
const STREAM_ORDER: u64 = 3;

/// The serving stream: `base` is the golden schedule (one tick per golden
/// event time). Each gap between distinct base times is filled with
/// `multiple - 1` ticks at seeded positions, then the base tick itself,
/// so the stream still lands on every golden event time. Ticks at equal
/// base times are kept as they are.
pub fn stream(seed: u64, base: &[Sample], multiple: u32) -> Vec<Sample> {
    let mut rng = SplitMix::new(seed, STREAM_TICKS);
    let extra = multiple.max(1) as usize - 1;
    let mut out = Vec::with_capacity(base.len() * (extra + 1));
    let mut prev = 0.0f64;
    let mut fractions = Vec::with_capacity(extra);
    for s in base {
        if s.at_s > prev {
            fractions.clear();
            fractions.extend((0..extra).map(|_| rng.unit()));
            fractions.sort_by(f64::total_cmp);
            for f in &fractions {
                out.push(Sample::tick(prev + (s.at_s - prev) * f));
            }
            prev = s.at_s;
        }
        out.push(*s);
    }
    out
}

/// Kill points of one failover pass: `kills` distinct `(session, batch)`
/// pairs over two sessions of `batches` batches each, in feed order
/// (batch, then session). The last batch of each session is never a kill
/// point, so every restored session takes over a non-empty remainder.
pub fn kill_points(seed: u64, pass: u64, batches: usize, kills: usize) -> Vec<(usize, usize)> {
    let mut rng = SplitMix::new(
        seed ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        STREAM_KILLS,
    );
    let slots = 2 * batches.saturating_sub(1);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < kills.min(slots) {
        let slot = rng.below(slots);
        picked.insert((slot / 2, slot % 2));
    }
    picked.into_iter().map(|(batch, s)| (s, batch)).collect()
}

/// A seeded permutation of `ids` (Fisher–Yates).
pub fn order<T: Copy>(seed: u64, ids: &[T]) -> Vec<T> {
    let mut rng = SplitMix::new(seed, STREAM_ORDER);
    let mut v = ids.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Sample> {
        [1.0, 2.0, 2.0, 5.0, 9.5]
            .into_iter()
            .map(Sample::tick)
            .collect()
    }

    #[test]
    fn stream_is_a_function_of_the_seed() {
        let a = stream(7, &base(), 10);
        assert_eq!(a, stream(7, &base(), 10));
        assert_ne!(a, stream(8, &base(), 10));
        // Four distinct gaps (from 0) with nine fill ticks each, plus the
        // five base ticks.
        assert_eq!(a.len(), 4 * 9 + 5);
        for w in a.windows(2) {
            assert!(w[1].at_s >= w[0].at_s, "stream not monotone: {w:?}");
        }
        for b in base() {
            assert!(a.contains(&b), "base tick {} dropped", b.at_s);
        }
        assert_eq!(stream(7, &base(), 1), base());
    }

    #[test]
    fn kill_points_are_a_function_of_seed_and_pass() {
        let a = kill_points(3, 0, 100, 12);
        assert_eq!(a, kill_points(3, 0, 100, 12));
        assert_ne!(a, kill_points(4, 0, 100, 12));
        assert_ne!(a, kill_points(3, 1, 100, 12));
        assert_eq!(a.len(), 12);
        for w in a.windows(2) {
            assert!((w[0].1, w[0].0) < (w[1].1, w[1].0), "not in feed order");
        }
        assert!(a.iter().all(|&(s, b)| s < 2 && b < 99));
        // More kills than slots: every slot once.
        assert_eq!(kill_points(3, 0, 3, 50).len(), 4);
    }

    #[test]
    fn order_is_a_seeded_permutation() {
        let ids: Vec<u32> = (0..20).collect();
        let a = order(1, &ids);
        assert_eq!(a, order(1, &ids));
        assert_ne!(a, order(2, &ids));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ids);
    }

    #[test]
    fn unit_draws_stay_inside_the_open_interval() {
        let mut rng = SplitMix::new(0, 0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!(u > 0.0 && u < 1.0, "{u}");
        }
    }
}
