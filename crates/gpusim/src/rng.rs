//! A small, dependency-free, deterministic pseudo-random number
//! generator (SplitMix64) used by fault injection and the synthetic
//! workload generator.
//!
//! The simulator must be bit-reproducible across runs and platforms, so
//! all stochastic behavior is derived from explicit seeds through this
//! generator rather than an external crate or OS entropy.

/// A SplitMix64 generator. Passes BigCrush for the word sizes used here
/// and recovers from any seed (including 0) within one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`. Returns 0 for `bound == 0`.
    ///
    /// Uses the widening-multiply technique; the modulo bias is at most
    /// `bound / 2^64`, far below anything observable in simulation.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// True with probability `1/n` (always false for `n == 0`).
    pub fn one_in(&mut self, n: u64) -> bool {
        n != 0 && self.gen_range(n) == 0
    }

    /// The raw generator state, for checkpointing. Restoring it with
    /// [`Rng64::set_state`] resumes the stream exactly.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Overwrites the generator state (checkpoint restore).
    pub fn set_state(&mut self, state: u64) {
        self.state = state;
    }
}

secmem_checkpoint::snapshot_fields!(Rng64 { state });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_recovers() {
        let mut r = Rng64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            assert!(r.gen_range(13) < 13);
        }
        assert_eq!(r.gen_range(0), 0);
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn gen_range_covers_values() {
        let mut r = Rng64::new(9);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }
}
