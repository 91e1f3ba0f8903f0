//! Structural invariants of the sectored cache under randomized access
//! streams (ISSUE 3 satellite).
//!
//! Driven by the internal deterministic [`Rng64`] so failures reproduce
//! exactly. Checked for both replacement policies:
//!
//! - `fills >= evictions`: every eviction is caused by a fill that
//!   allocates a new line, so the fill counter bounds the evictions.
//! - `dirty_evictions <= evictions`: dirty evictions are a subset of all
//!   evictions.
//! - `occupancy <= capacity_lines` throughout.
//!
//! A second suite checks that the single set scan the L1 and L2 pipelines
//! use ([`SectoredCache::lookup`], then `peek_way`/`probe_way`) behaves
//! exactly like the `peek`-then-`probe` pair it replaces.

use secmem_checkpoint::Writer;
use secmem_gpusim::cache::{Probe, ReplacementPolicy, SectoredCache, WriteOutcome};
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::types::{SectorMask, LINE_SIZE};

/// One randomized operation against the cache, mirroring what the L1/L2
/// pipelines do: probe, write (write-validate on miss), and plain fill.
fn random_op(c: &mut SectoredCache, rng: &mut Rng64, lines: u64) {
    let line_addr = rng.gen_range(lines) * LINE_SIZE;
    let sectors = SectorMask((rng.gen_range(15) + 1) as u8);
    match rng.gen_range(3) {
        0 => {
            // Read probe; a miss becomes a fill, as the miss path does.
            match c.probe(line_addr, sectors) {
                Probe::Hit => {}
                Probe::PartialMiss(missing) => {
                    c.fill(line_addr, missing, SectorMask::EMPTY);
                }
                Probe::Miss => {
                    c.fill(line_addr, sectors, SectorMask::EMPTY);
                }
            }
        }
        1 => {
            // Store; a miss write-validates (fill with dirty sectors).
            if c.write(line_addr, sectors) == WriteOutcome::Miss {
                c.fill(line_addr, sectors, sectors);
            }
        }
        _ => {
            // Direct fill (a response arriving from the level below).
            c.fill(line_addr, sectors, SectorMask::EMPTY);
        }
    }
}

fn check_invariants(policy: ReplacementPolicy, seed: u64) {
    // Small cache (16 lines) and a footprint 8x its capacity so eviction
    // pressure is constant.
    let mut c = SectoredCache::with_policy(16 * LINE_SIZE, 4, policy);
    let mut rng = Rng64::new(seed);
    for step in 0..20_000u64 {
        random_op(&mut c, &mut rng, 128);
        let s = c.stats();
        assert!(
            s.fills >= s.evictions,
            "step {step} ({policy:?}): fills {} < evictions {}",
            s.fills,
            s.evictions
        );
        assert!(
            s.dirty_evictions <= s.evictions,
            "step {step} ({policy:?}): dirty_evictions {} > evictions {}",
            s.dirty_evictions,
            s.evictions
        );
        assert!(c.occupancy() <= c.capacity_lines());
    }
    let s = c.stats();
    assert!(s.fills > 0 && s.evictions > 0, "stream must exercise the eviction path ({policy:?}): {s:?}");
}

#[test]
fn lru_invariants_under_random_stream() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        check_invariants(ReplacementPolicy::Lru, seed);
    }
}

#[test]
fn srrip_invariants_under_random_stream() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        check_invariants(ReplacementPolicy::Srrip, seed);
    }
}

#[test]
fn fills_counter_counts_allocations_and_merges() {
    let mut c = SectoredCache::new(4 * LINE_SIZE, 2);
    assert_eq!(c.stats().fills, 0);
    c.fill(0, SectorMask::single(0), SectorMask::EMPTY);
    c.fill(0, SectorMask::single(1), SectorMask::EMPTY); // merge into resident line
    assert_eq!(c.stats().fills, 2);
    assert_eq!(c.stats().evictions, 0);
    c.reset_stats();
    assert_eq!(c.stats().fills, 0);
}

fn state_bytes(c: &SectoredCache) -> Vec<u8> {
    let mut w = Writer::new();
    c.save_state(&mut w);
    w.into_bytes()
}

/// Drives two identical caches with one seeded op stream. Reads go
/// through one [`SectoredCache::lookup`] on `single` and through
/// `peek`-then-`probe` on `pair`; sometimes only the verdict is taken (a
/// dispatch that stalls on a full MSHR file). Every outcome, the stats
/// and the checkpoint bytes must agree.
fn single_scan_matches_peek_then_probe(bytes: u64, assoc: u32, policy: ReplacementPolicy, seed: u64) {
    let mut single = SectoredCache::with_policy(bytes, assoc, policy);
    let mut pair = single.clone();
    let lines = 3 * single.capacity_lines() as u64;
    let mut rng = Rng64::new(seed);
    for step in 0..20_000u64 {
        let line_addr = rng.gen_range(lines) * LINE_SIZE;
        let sectors = SectorMask((rng.gen_range(15) + 1) as u8);
        match rng.gen_range(6) {
            0 | 1 => {
                let way = single.lookup(line_addr);
                let verdict = single.peek_way(way, sectors);
                assert_eq!(verdict, pair.peek(line_addr, sectors), "step {step}: peek");
                if !rng.one_in(4) {
                    let probed = single.probe_way(way, sectors);
                    assert_eq!(probed, verdict, "step {step}: probe after peek");
                    assert_eq!(probed, pair.probe(line_addr, sectors), "step {step}: probe");
                }
            }
            2 => assert_eq!(single.write(line_addr, sectors), pair.write(line_addr, sectors), "step {step}"),
            3 => {
                let dirty = SectorMask(sectors.0 & rng.gen_range(16) as u8);
                assert_eq!(
                    single.fill(line_addr, sectors, dirty),
                    pair.fill(line_addr, sectors, dirty),
                    "step {step}: fill"
                );
            }
            4 => {
                single.invalidate_sectors(line_addr, sectors);
                pair.invalidate_sectors(line_addr, sectors);
            }
            _ => assert_eq!(
                single.mark_dirty(line_addr, sectors),
                pair.mark_dirty(line_addr, sectors),
                "step {step}: mark_dirty"
            ),
        }
        assert_eq!(single.stats(), pair.stats(), "step {step}: stats");
        if step % 1024 == 0 {
            assert_eq!(state_bytes(&single), state_bytes(&pair), "step {step}: checkpoint bytes");
        }
    }
    let s = single.stats();
    assert!(s.hits > 0 && s.evictions > 0, "stream must hit and evict ({policy:?}, {bytes} B): {s:?}");
    assert_eq!(state_bytes(&single), state_bytes(&pair));
    assert_eq!(single.flush_dirty(), pair.flush_dirty());
}

#[test]
fn single_scan_is_the_same_cache() {
    // 32 sets x 4 ways, 64 sets x 12 ways (an L2 bank), and the 6-set
    // unified metadata cache, which takes the remainder set index.
    for (bytes, assoc) in [(16 * 1024, 4), (96 * 1024, 12), (6 * 1024, 8)] {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
            for seed in [7u64, 0xC0FFEE] {
                single_scan_matches_peek_then_probe(bytes, assoc, policy, seed);
            }
        }
    }
}
