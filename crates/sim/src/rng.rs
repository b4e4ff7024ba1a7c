//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the simulator draws from a [`SimRng`] derived
//! from a single experiment seed. Splitting by a component label produces
//! statistically independent streams whose values do not change when other
//! components are added or reordered, which keeps whole experiments
//! reproducible down to the byte.
//!
//! The generator is a self-contained xoshiro256** whose state is expanded
//! from the 64-bit seed with SplitMix64, so the crate carries no external
//! RNG dependency and the streams are identical on every platform.

/// A seeded RNG with stable, label-based splitting.
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            seed,
            state: [next(), next(), next(), next()],
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator for the component `label`.
    ///
    /// The child depends only on this generator's seed and the label, not on
    /// how many values have been drawn, so components can be split in any
    /// order without perturbing each other.
    pub fn split(&self, label: &str) -> SimRng {
        let child_seed = mix(self.seed, hash_label(label));
        SimRng::new(child_seed)
    }

    /// Derives an independent child generator for an indexed component,
    /// e.g. one stream per instance.
    pub fn split_indexed(&self, label: &str, index: u64) -> SimRng {
        let child_seed = mix(mix(self.seed, hash_label(label)), index);
        SimRng::new(child_seed)
    }

    /// The next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)` using the top 53 bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }
}

/// FNV-1a hash of a label, for stable stream derivation.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64-style mixing of two words into a child seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_is_order_independent() {
        let root = SimRng::new(7);
        let mut a1 = root.split("arrivals");
        let mut consumed = root.split("lengths");
        let _ = consumed.next_u64();
        // Splitting again after other activity yields the same child stream.
        let mut a2 = SimRng::new(7).split("arrivals");
        for _ in 0..16 {
            assert_eq!(a1.next_u64(), a2.next_u64());
        }
    }

    #[test]
    fn split_labels_are_independent() {
        let root = SimRng::new(7);
        let mut a = root.split("a");
        let mut b = root.split("b");
        assert_ne!(a.next_u64(), b.next_u64());
        let mut i0 = root.split_indexed("inst", 0);
        let mut i1 = root.split_indexed("inst", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(r.uniform_range(5.0, 5.0), 5.0);
        assert_eq!(r.index(0), 0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }
}
