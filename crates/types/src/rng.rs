//! A tiny deterministic RNG (SplitMix64) for seed-reproducible fault
//! schedules, workloads, detector loss/jitter draws and test inputs.
//!
//! The workspace deliberately avoids an external RNG dependency: a
//! fixed seed must yield a byte-identical run, so the one generator
//! every layer draws from is fully specified here.

/// SplitMix64: tiny, fast, and statistically fine for schedule
/// generation (not for cryptography).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// The SplitMix64 increment (the 64-bit golden ratio). Public
    /// because the membership detector's stream is defined as
    /// `ChaosRng::new(seed ^ GAMMA)`.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from `seed`. Equal seeds yield equal
    /// sequences forever.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..bound` (`bound == 0` returns 0). The
    /// modulo bias is irrelevant for schedule generation.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published SplitMix64 outputs for seed 0: the one generator
    /// left in the workspace cannot drift unnoticed.
    #[test]
    fn matches_the_splitmix64_reference_vector() {
        let mut rng = ChaosRng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn equal_seeds_equal_sequences() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaosRng::new(1);
        let mut b = ChaosRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = ChaosRng::new(7);
        assert!((0..1000).all(|_| rng.below(13) < 13));
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = ChaosRng::new(9);
        let hits = (0..1000).filter(|_| rng.chance(25)).count();
        assert!((150..350).contains(&hits), "hits = {hits}");
    }
}
