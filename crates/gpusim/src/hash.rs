//! A fast, deterministic hasher for simulator-internal maps keyed by
//! small integers (line addresses, transaction ids).
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! lookup, which shows up in the hot transaction-tracking maps of the
//! secure-memory engine. Simulator state is never keyed by untrusted
//! input, so the Fx-style multiply hash (as used by rustc) is safe here
//! and keeps iteration order deterministic for a given insertion order —
//! unlike `RandomState`, it has no per-process seed, which also removes a
//! source of run-to-run variation for anything that iterates a map.
//!
//! [`FxHasher::finish`] rotates the product left by 26 bits (as
//! rustc-hash 2 does). A multiply only carries entropy *upward*: the low
//! bits of `x · K` depend only on the low bits of `x`. Line addresses are
//! multiples of 128, so without the rotate the low 7 bits of every
//! line-address hash are zero, and hashbrown, which picks the bucket
//! from the low bits, starts every probe sequence at the same bucket.
//! The rotate brings the well-mixed high bits of the product down to
//! where the bucket index is taken.

// lint:allow-file(D2): this module IS the deterministic wrapper the rest of
// the workspace is required to use; it must name std's map types to alias them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style multiply hasher. Not DoS-resistant; use only for internal
/// keys (integers, small tuples of integers).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..c.len()].copy_from_slice(c);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Writes `map` into a checkpoint as a count and its `(key, value)`
/// pairs in ascending key order, so the bytes never depend on the map's
/// iteration order.
pub fn save_map<K: Snapshot + Ord, V: Snapshot>(map: &FastHashMap<K, V>, w: &mut Writer) {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    w.put_usize(entries.len());
    for (k, v) in entries {
        k.save(w);
        v.save(w);
    }
}

/// Reads a map written by [`save_map`].
///
/// # Errors
///
/// Any decode error of the count, a key or a value.
pub fn load_map<K: Snapshot + Eq + Hash, V: Snapshot>(
    r: &mut Reader<'_>,
) -> Result<FastHashMap<K, V>, CheckpointError> {
    let n = r.get_count()?;
    let mut map = FastHashMap::default();
    for _ in 0..n {
        let k = K::load(r)?;
        map.insert(k, V::load(r)?);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 128, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 128)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hash_is_deterministic() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<FxHasher> = Default::default();
        let h1 = b.hash_one(0xdead_beefu64);
        let h2 = b.hash_one(0xdead_beefu64);
        assert_eq!(h1, h2);
        assert_ne!(b.hash_one(1u64), b.hash_one(2u64));
    }

    /// Distinct values of the low `bits` bits over `k · stride` hashes.
    fn low_bit_values(stride: u64, bits: u32) -> usize {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<FxHasher> = Default::default();
        let mask = (1u64 << bits) - 1;
        (0..1024u64).map(|k| b.hash_one(k * stride) & mask).collect::<FastHashSet<u64>>().len()
    }

    #[test]
    fn line_aligned_keys_spread_over_low_bits() {
        // hashbrown takes the bucket from the low bits: line-aligned keys
        // must not all land on one bucket.
        assert!(low_bit_values(128, 7) >= 64, "128 B lines: {}", low_bit_values(128, 7));
        assert!(low_bit_values(4096, 7) >= 64, "4 KB pages: {}", low_bit_values(4096, 7));
    }

    #[test]
    fn byte_writes_cover_tail() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    /// Maps with the same entries save the same bytes whatever order
    /// they were filled in, and load back equal.
    #[test]
    fn saved_maps_are_sorted_by_key() {
        let saved = |keys: &[u64]| {
            let map: FastHashMap<u64, u32> = keys.iter().map(|&k| (k, k as u32 * 3)).collect();
            let mut w = Writer::new();
            save_map(&map, &mut w);
            (map, w.into_bytes())
        };
        let (map, bytes) = saved(&[5 << 7, 1 << 7, 9 << 7, 3 << 7]);
        assert_eq!(bytes, saved(&[9 << 7, 3 << 7, 1 << 7, 5 << 7]).1);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_usize(), Ok(4));
        assert_eq!(r.get_u64(), Ok(1 << 7), "smallest key first");
        assert_eq!(load_map::<u64, u32>(&mut Reader::new(&bytes)), Ok(map));
    }
}
