//! SplitMix64: the benchmark's only source of randomness.
//!
//! The op stream is drawn here so the program under test receives only
//! generated inputs, and the same `--seed` gives the same inputs.

/// Steele, Lea & Flood's SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; the bias is below
    /// 2⁻³² for the population sizes used here). `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        lo + self.below((hi - lo) as u64 + 1) as i64
    }

    /// An independent generator for a sub-stream (e.g. one per cycle
    /// side), so adding draws to one stream does not shift another.
    pub fn fork(&mut self) -> Self {
        Self(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_sequence() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(rng.next_u64(), 9_817_491_932_198_370_423);
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bounded_draws_stay_in_range_and_cover_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.below(10) as usize] = true;
            let x = rng.between(-3, 3);
            assert!((-3..=3).contains(&x));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
