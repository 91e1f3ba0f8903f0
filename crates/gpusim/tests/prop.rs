//! Randomized invariant tests for the memory-system building blocks.
//!
//! Each test drives a component with many seeded-random input vectors
//! (via the crate's deterministic [`Rng64`]) and checks conservation /
//! capacity invariants, replacing the previous `proptest` suites with
//! fully offline, reproducible equivalents.

use secmem_gpusim::cache::{Probe, SectoredCache};
use secmem_gpusim::config::{AddressMap, GpuConfig};
use secmem_gpusim::dram::{Dram, DramRequest};
use secmem_gpusim::mshr::{MshrFile, MshrOutcome};
use secmem_gpusim::reuse::ReuseProfiler;
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::types::{SectorMask, TrafficClass, FULL_SECTOR_MASK};

const CASES: u64 = 48;

/// A cache never reports more resident lines than its capacity, and a
/// line just filled is always at least partially present.
#[test]
fn cache_capacity_and_fill_visibility() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x1000 + case);
        let mut cache = SectoredCache::new(2 * 1024, 4);
        let ops = 1 + rng.gen_range(300) as usize;
        for _ in 0..ops {
            let addr = rng.gen_range(256) * 128;
            let mask = SectorMask((1 + rng.gen_range(15)) as u8 & 0xF);
            cache.fill(addr, mask, SectorMask::EMPTY);
            assert!(cache.occupancy() <= cache.capacity_lines());
            assert_ne!(cache.peek(addr, mask), Probe::Miss, "freshly filled line vanished");
        }
    }
}

/// Dirty data is never silently dropped: every dirty sector eventually
/// leaves through an eviction or a flush.
#[test]
fn cache_conserves_dirty_sectors() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x2000 + case);
        let mut cache = SectoredCache::new(1024, 2);
        let mut dirty_in = 0u64;
        let mut dirty_out = 0u64;
        let writes = 1 + rng.gen_range(200);
        for _ in 0..writes {
            let addr = rng.gen_range(64) * 128;
            if let Some(ev) = cache.fill(addr, FULL_SECTOR_MASK, FULL_SECTOR_MASK) {
                dirty_out += ev.dirty.count() as u64;
            }
            dirty_in += 4;
        }
        for ev in cache.flush_dirty() {
            dirty_out += ev.dirty.count() as u64;
        }
        // Re-writing a resident line re-dirties the same sectors, so
        // conservation is an inequality: nothing leaves that never entered.
        assert!(dirty_out <= dirty_in);
        // And after the flush nothing dirty remains.
        assert!(cache.flush_dirty().is_empty());
    }
}

/// The MSHR file: every allocated entry is completed exactly once and
/// returns every merged waiter exactly once.
#[test]
fn mshr_waiters_conserved() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x3000 + case);
        let mut mshr: MshrFile<u32> = MshrFile::new(8, 1 << 20);
        let mut accepted = 0u64;
        let accesses = 1 + rng.gen_range(200);
        for i in 0..accesses {
            let line = rng.gen_range(16);
            match mshr.access(line * 128, FULL_SECTOR_MASK, i as u32) {
                MshrOutcome::Full(_) => {}
                _ => accepted += 1,
            }
        }
        let mut returned = 0u64;
        for line in 0u64..16 {
            if let Some((_, waiters)) = mshr.complete(line * 128) {
                returned += waiters.len() as u64;
            }
        }
        assert_eq!(returned, accepted);
        assert!(mshr.is_empty());
    }
}

/// DRAM conserves requests: everything pushed eventually completes,
/// in bounded time, and moves the right number of bytes.
#[test]
fn dram_conserves_requests() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x4000 + case);
        let mut dram: Dram<usize> = Dram::new(24 * 1024, 100, 1024);
        let n = 1 + rng.gen_range(64) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| 32 * (1 + rng.gen_range(4))).collect();
        let total_bytes: u64 = sizes.iter().sum();
        for (i, bytes) in sizes.iter().enumerate() {
            dram.try_push(DramRequest {
                bytes: *bytes,
                addr: i as u64 * 128,
                is_write: i % 3 == 0,
                class: TrafficClass::Data,
                token: i,
            })
            .expect("queue large enough");
        }
        let mut seen = vec![false; sizes.len()];
        let mut now = 0;
        while !dram.is_idle() {
            dram.cycle(now);
            while let Some(done) = dram.pop_completed() {
                assert!(!seen[done.token], "request completed twice");
                seen[done.token] = true;
            }
            now += 1;
            assert!(now < 100_000, "dram wedged");
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(dram.stats().total_bytes(), total_bytes);
    }
}

/// Address map round-trips and never crosses partitions.
#[test]
fn address_map_roundtrip() {
    let cfg = GpuConfig::volta();
    let map = AddressMap::new(&cfg);
    let mut rng = Rng64::new(0x5000);
    for _ in 0..4096 {
        let addr = rng.gen_range(4u64 << 30);
        let p = map.partition_of(addr);
        assert!(p < cfg.num_partitions);
        let local = map.local_offset(addr);
        assert_eq!(map.global_addr(p, local), addr);
        // Lines never straddle partitions.
        let line = addr & !127;
        assert_eq!(map.partition_of(line), map.partition_of(line + 127));
    }
}

/// The shift/mask address map equals the division formulas it replaced,
/// over every power-of-two geometry `GpuConfig::validate` admits in the
/// ranges below, with and without the partition xor swizzle.
#[test]
fn address_map_matches_division_formulas() {
    let partition = |addr: u64, il: u64, p: u64, xor: bool| {
        let chunk = addr / il;
        let base = chunk % p;
        if xor {
            base ^ ((chunk / p) % p)
        } else {
            base
        }
    };
    let local = |addr: u64, il: u64, p: u64| (addr / il / p) * il + addr % il;
    let global = |part: u64, local: u64, il: u64, p: u64, xor: bool| {
        let chunk_div = local / il;
        let slot = if xor { part ^ (chunk_div % p) } else { part };
        (chunk_div * p + slot) * il + local % il
    };
    let mut rng = Rng64::new(0x5100);
    for partitions in [1u32, 2, 4, 8, 16, 32] {
        for interleave in [128u64, 256, 512, 1024, 2048, 4096] {
            for banks in [1u32, 2, 4] {
                for xor in [false, true] {
                    let cfg = GpuConfig {
                        num_partitions: partitions,
                        interleave_bytes: interleave,
                        l2_banks_per_partition: banks,
                        partition_xor_hash: xor,
                        ..GpuConfig::volta()
                    };
                    let map = AddressMap::new(&cfg);
                    let (p, il) = (partitions as u64, interleave);
                    for i in 0..256 {
                        let addr = if i == 0 { 0 } else { rng.gen_range(1u64 << 44) };
                        let what = format!("p={p} il={il} banks={banks} xor={xor} addr={addr:#x}");
                        let part = partition(addr, il, p, xor);
                        let off = local(addr, il, p);
                        assert_eq!(map.partition_of(addr) as u64, part, "partition_of {what}");
                        assert_eq!(map.local_offset(addr), off, "local_offset {what}");
                        assert_eq!(map.bank_of(addr) as u64, off / il % banks as u64, "bank_of {what}");
                        assert_eq!(
                            map.global_addr(part as u32, off),
                            global(part, off, il, p, xor),
                            "{what}"
                        );
                        assert_eq!(map.global_addr(part as u32, off), addr, "round trip {what}");
                    }
                }
            }
        }
    }
}

/// Reuse histogram mass always equals the access count.
#[test]
fn reuse_mass_conservation() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x6000 + case);
        let mut p = ReuseProfiler::new();
        let n = 1 + rng.gen_range(400);
        for _ in 0..n {
            p.access(rng.gen_range(128) * 128);
        }
        assert_eq!(p.histogram().iter().sum::<u64>(), n);
        assert!(p.distinct_lines() <= 128);
    }
}
