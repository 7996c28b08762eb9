//! Deterministic, fork-able randomness.
//!
//! Every stochastic decision in the simulation — which third-party services a
//! generated site embeds, which address a load-balanced DNS answer returns,
//! which HAR entries get corrupted — flows from a single seed through
//! [`SimRng`]. Forking (`fork("dns")`, `fork_indexed("site", 42)`) derives
//! independent sub-streams keyed by a label so that adding randomness in one
//! subsystem does not perturb another, keeping experiment outputs stable
//! across refactorings.

use crate::hash::fnv1a;
use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A seedable pseudo-random generator with labelled forking.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12Rng,
    seed: u64,
}

impl SimRng {
    /// Create a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: ChaCha12Rng::seed_from_u64(seed), seed }
    }

    /// The seed this generator (or fork) was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for the subsystem named `label`.
    pub fn fork(&self, label: &str) -> SimRng {
        let derived = splitmix(self.seed ^ fnv1a(label.as_bytes()));
        SimRng::new(derived)
    }

    /// Derive an independent generator for the `index`-th element of the
    /// subsystem named `label` (e.g. one stream per generated site).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let derived =
            splitmix(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix(index.wrapping_add(0x9E37_79B9)));
        SimRng::new(derived)
    }

    /// A uniformly distributed value in `range`.
    pub fn in_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// `true` with probability `ppm` parts per million. A rate of `0`
    /// consumes **no** randomness (so processes that are switched off leave
    /// every other stream untouched); any nonzero rate consumes exactly one
    /// integer draw. Rates at or above 1 000 000 always fire.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        self.inner.gen_range(0..1_000_000u32) < ppm
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Pick a reference to a uniformly random element, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.choose(&mut self.inner)
    }

    /// Pick an index according to the given (not necessarily normalised)
    /// weights. Returns `None` if `weights` is empty or sums to zero.
    pub fn pick_weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut target = self.inner.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if target < *w {
                return Some(i);
            }
            target -= *w;
        }
        // Floating-point slack: fall back to the last positive-weight index.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Shuffle a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// SplitMix64 finaliser, used to decorrelate derived seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_forks_are_independent() {
        let root = SimRng::new(7);
        let mut dns = root.fork("dns");
        let mut web = root.fork("web");
        assert_ne!(dns.next_u64(), web.next_u64());
        let mut site0 = root.fork_indexed("site", 0);
        let mut site1 = root.fork_indexed("site", 1);
        assert_ne!(site0.next_u64(), site1.next_u64());
        // forking is a pure function of (seed, label)
        let mut dns2 = root.fork("dns");
        assert_eq!(SimRng::new(7).fork("dns").next_u64(), dns2.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_ppm_zero_consumes_no_randomness() {
        let mut with_zero = SimRng::new(17);
        let mut without = SimRng::new(17);
        for _ in 0..8 {
            assert!(!with_zero.chance_ppm(0));
        }
        // The zero-rate path must leave the stream exactly where it started.
        assert_eq!(with_zero.next_u64(), without.next_u64());
        // Extremes behave like the f64 `chance` counterpart.
        let mut rng = SimRng::new(17);
        assert!((0..100).all(|_| rng.chance_ppm(1_000_000)));
        assert!((0..100).all(|_| rng.chance_ppm(2_000_000)));
    }

    #[test]
    fn chance_ppm_tracks_the_rate_roughly() {
        let mut rng = SimRng::new(23);
        let hits = (0..20_000).filter(|_| rng.chance_ppm(100_000)).count();
        assert!((1_400..=2_600).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut rng = SimRng::new(3);
        for _ in 0..200 {
            let idx = rng.pick_weighted_index(&[0.0, 1.0, 0.0]).unwrap();
            assert_eq!(idx, 1);
        }
        assert_eq!(rng.pick_weighted_index(&[]), None);
        assert_eq!(rng.pick_weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_pick_follows_weights_roughly() {
        let mut rng = SimRng::new(11);
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[rng.pick_weighted_index(&[3.0, 1.0]).unwrap()] += 1;
        }
        assert!(counts[0] > counts[1] * 2, "counts = {counts:?}");
    }
}
