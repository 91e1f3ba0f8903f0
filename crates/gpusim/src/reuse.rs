//! Reuse-distance profiling (Figs. 10 and 11 of the paper).
//!
//! The reuse distance of an access is the number of *distinct* lines
//! referenced since the previous access to the same line (LRU stack
//! distance). The paper profiles the counter and MAC access streams of
//! partition 0 for `fdtd2d` and buckets distances as
//! `[0] [1,2] [3,4] [5,8] … [257,512] [513,+inf)` plus cold accesses.

use secmem_checkpoint::snapshot_fields;

use crate::types::Addr;

/// Upper bounds of the histogram buckets (inclusive).
pub const BUCKET_BOUNDS: [u64; 10] = [0, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Number of buckets including `[513,+inf)` and the cold bucket.
pub const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 2;

/// Labels matching the paper's x-axis.
pub fn bucket_labels() -> Vec<String> {
    let mut labels = vec!["[0]".to_string()];
    let mut lo = 1;
    for &hi in &BUCKET_BOUNDS[1..] {
        labels.push(format!("[{lo},{hi}]"));
        lo = hi + 1;
    }
    labels.push("[513,inf)".to_string());
    labels.push("cold".to_string());
    labels
}

/// An LRU-stack reuse distance profiler.
///
/// # Example
///
/// ```
/// use secmem_gpusim::reuse::ReuseProfiler;
///
/// let mut p = ReuseProfiler::new();
/// p.access(0x0);
/// p.access(0x80);
/// p.access(0x0); // one distinct line (0x80) in between -> distance 1
/// let h = p.histogram();
/// assert_eq!(h[11], 2); // two cold accesses
/// assert_eq!(h[1], 1);  // one access in bucket [1,2]
/// ```
#[derive(Debug, Default)]
pub struct ReuseProfiler {
    stack: Vec<Addr>,
    histogram: [u64; NUM_BUCKETS],
    accesses: u64,
}

impl ReuseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `line_addr` (any alignment; callers pass line
    /// base addresses).
    pub fn access(&mut self, line_addr: Addr) {
        self.accesses += 1;
        // Find position from the top of the stack (most recent = end).
        if let Some(pos) = self.stack.iter().rposition(|&a| a == line_addr) {
            let distance = (self.stack.len() - 1 - pos) as u64;
            self.bump(distance);
            self.stack.remove(pos);
            self.stack.push(line_addr);
        } else {
            self.histogram[NUM_BUCKETS - 1] += 1; // cold
            self.stack.push(line_addr);
        }
    }

    fn bump(&mut self, distance: u64) {
        for (i, &hi) in BUCKET_BOUNDS.iter().enumerate() {
            if distance <= hi {
                self.histogram[i] += 1;
                return;
            }
        }
        self.histogram[NUM_BUCKETS - 2] += 1; // [513, inf)
    }

    /// The histogram; index `i` matches [`bucket_labels`]`()[i]`.
    pub fn histogram(&self) -> [u64; NUM_BUCKETS] {
        self.histogram
    }

    /// Total recorded accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of distinct lines seen.
    pub fn distinct_lines(&self) -> usize {
        self.stack.len()
    }
}

snapshot_fields!(ReuseProfiler { stack, histogram, accesses });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_repeat() {
        let mut p = ReuseProfiler::new();
        p.access(0x0);
        p.access(0x0);
        p.access(0x0);
        let h = p.histogram();
        assert_eq!(h[0], 2, "two accesses at distance 0");
        assert_eq!(h[NUM_BUCKETS - 1], 1, "one cold access");
    }

    #[test]
    fn streaming_is_all_cold() {
        let mut p = ReuseProfiler::new();
        for i in 0..100 {
            p.access(i * 128);
        }
        assert_eq!(p.histogram()[NUM_BUCKETS - 1], 100);
        assert_eq!(p.distinct_lines(), 100);
    }

    #[test]
    fn distance_counts_distinct_lines() {
        let mut p = ReuseProfiler::new();
        p.access(0x0);
        p.access(0x80);
        p.access(0x80); // distance 0
        p.access(0x0); // distance 1 (only 0x80 between)
        let h = p.histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 1);
    }

    #[test]
    fn large_distances_fall_in_tail_bucket() {
        let mut p = ReuseProfiler::new();
        p.access(0xDEAD_0000);
        for i in 0..600u64 {
            p.access(i * 128);
        }
        p.access(0xDEAD_0000); // distance 600 -> [513, inf)
        assert_eq!(p.histogram()[NUM_BUCKETS - 2], 1);
    }

    #[test]
    fn histogram_mass_equals_accesses() {
        let mut p = ReuseProfiler::new();
        for i in 0..50u64 {
            p.access((i % 7) * 128);
        }
        let total: u64 = p.histogram().iter().sum();
        assert_eq!(total, p.accesses());
        assert_eq!(total, 50);
    }

    #[test]
    fn labels_match_bucket_count() {
        assert_eq!(bucket_labels().len(), NUM_BUCKETS);
        assert_eq!(bucket_labels()[0], "[0]");
        assert_eq!(bucket_labels()[1], "[1,2]");
        assert_eq!(bucket_labels()[10], "[513,inf)");
    }
}
