//! Randomized invariant tests for the secure-memory core: metadata
//! layout arithmetic, tree geometry, and the metadata cache subsystem.
//! Seeded-loop equivalents of the previous `proptest` suites.

use secmem_core::layout::{
    global_storage, MetadataLayout, DATA_LINES_PER_COUNTER_LINE, DATA_LINES_PER_MAC_LINE,
};
use secmem_core::mdcache::{MdOutcome, MetadataCaches};
use secmem_core::{SecureMemConfig, TreeCoverage};
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::types::TrafficClass;

const MB: u64 = 1024 * 1024;

/// Counter/MAC mappings land in their own regions, are line-aligned,
/// and respect the coverage ratios.
#[test]
fn layout_mapping_invariants() {
    let l = MetadataLayout::new(128 * MB, TreeCoverage::Counters);
    let mut rng = Rng64::new(0xA100);
    for _ in 0..2048 {
        let data_local = rng.gen_range(128 * MB);
        let ctr = l.counter_line_of(data_local);
        let mac = l.mac_line_of(data_local);
        assert_eq!(l.class_of(ctr), TrafficClass::Counter);
        assert_eq!(l.class_of(mac), TrafficClass::Mac);
        assert_eq!(ctr % 128, 0);
        assert_eq!(mac % 128, 0);
        // Lines within the same chunk share metadata lines.
        let chunk_base =
            data_local / (DATA_LINES_PER_COUNTER_LINE * 128) * (DATA_LINES_PER_COUNTER_LINE * 128);
        assert_eq!(l.counter_line_of(chunk_base), ctr);
        let mac_base = data_local / (DATA_LINES_PER_MAC_LINE * 128) * (DATA_LINES_PER_MAC_LINE * 128);
        assert_eq!(l.mac_line_of(mac_base), mac);
        // Index bounds.
        assert!(l.minor_index_of(data_local) < 128);
        assert!(l.mac_index_of(data_local) < 16);
    }
}

/// The verification path is exactly the lazy-update parent chain.
#[test]
fn verification_path_matches_parent_chain() {
    let l = MetadataLayout::new(128 * MB, TreeCoverage::Counters);
    let mut rng = Rng64::new(0xA200);
    for _ in 0..512 {
        let chunk = rng.gen_range(8192);
        let ctr = l.counter_line_of(chunk * 16 * 1024);
        let path = l.verification_path(ctr);
        let mut chain = Vec::new();
        let mut node = ctr;
        while let Some(p) = l.lazy_update_parent(node) {
            chain.push(p);
            node = p;
        }
        assert_eq!(path, chain);
    }
}

/// Distinct counter lines map to node paths that converge: adjacent
/// chunks share ancestors at some level, and every path ends below
/// the single on-chip root.
#[test]
fn tree_paths_converge() {
    let l = MetadataLayout::new(128 * MB, TreeCoverage::Counters);
    let mut rng = Rng64::new(0xA300);
    for _ in 0..512 {
        let a = rng.gen_range(8192);
        let b = rng.gen_range(8192);
        let pa = l.verification_path(l.counter_line_of(a * 16 * 1024));
        let pb = l.verification_path(l.counter_line_of(b * 16 * 1024));
        assert_eq!(pa.len(), pb.len(), "all leaves have equal depth");
        if !pa.is_empty() {
            // Top-most fetchable nodes: at most 2 distinct (root has <= 16
            // children, level below root has 2 nodes for this geometry).
            let last_a = *pa.last().expect("nonempty");
            let last_b = *pb.last().expect("nonempty");
            if a / 4096 == b / 4096 {
                assert_eq!(last_a, last_b, "same half -> same top node");
            }
        }
    }
}

/// Table II storage scales linearly in the protected size.
#[test]
fn storage_scales_linearly() {
    for gb in 1u64..16 {
        let s = global_storage(gb << 30);
        assert_eq!(s.counter_bytes, (gb << 30) / 128);
        assert_eq!(s.mac_bytes, (gb << 30) / 16);
        assert!(s.bmt_bytes < s.counter_bytes / 10);
        assert!(s.mt_bytes < s.mac_bytes / 10);
        assert!(s.mt_bytes > s.bmt_bytes, "MT covers 8x more leaves");
    }
}

/// Metadata caches: every fetch returns its waiters exactly once,
/// regardless of MSHR configuration.
#[test]
fn mdcache_waiter_conservation() {
    for (case, &mshrs) in
        [0u32, 4, 64].iter().enumerate().flat_map(|(j, m)| (0..16).map(move |k| (j * 16 + k, m)))
    {
        let mut rng = Rng64::new(0xA400 + case as u64);
        let cfg = SecureMemConfig { mdcache_mshrs: mshrs, ..SecureMemConfig::secure_mem() };
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg);
        let mut pending_fetches = Vec::new();
        let mut waiting = 0u64;
        // fill appends, so the buffer collects every returned waiter.
        let mut returned = Vec::new();
        let n = 1 + rng.gen_range(100) as usize;
        for i in 0..n {
            let addr = 1 << 30 | (rng.gen_range(8) * 128); // arbitrary metadata region
            match md.access(TrafficClass::Mac, addr, i as u32) {
                MdOutcome::Hit => {}
                MdOutcome::FetchNeeded => {
                    pending_fetches.push(addr);
                    waiting += 1;
                }
                MdOutcome::Merged => waiting += 1,
                MdOutcome::Stall => {}
            }
            // Complete fetches lazily every few accesses.
            if i % 3 == 2 {
                for addr in pending_fetches.drain(..) {
                    md.fill(TrafficClass::Mac, addr, &mut returned);
                }
            }
        }
        for addr in pending_fetches {
            md.fill(TrafficClass::Mac, addr, &mut returned);
        }
        assert_eq!(returned.len() as u64, waiting, "mshrs={mshrs}");
        assert!(md.is_quiet());
    }
}

/// Hits + misses always equals accesses, and the miss rate is sane.
#[test]
fn mdcache_stats_consistent() {
    for case in 0..32u64 {
        let mut rng = Rng64::new(0xA500 + case);
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&SecureMemConfig::secure_mem());
        let mut fetches = Vec::new();
        let n = 1 + rng.gen_range(200);
        for i in 0..n {
            let line = rng.gen_range(32);
            if let MdOutcome::FetchNeeded = md.access(TrafficClass::Counter, line * 128, i as u32) {
                fetches.push(line * 128);
            }
            for addr in fetches.drain(..) {
                md.fill(TrafficClass::Counter, addr, &mut Vec::new());
            }
        }
        let s = md.stats()[0];
        assert_eq!(s.cache.accesses(), n);
        assert!(s.cache.miss_rate() <= 1.0);
    }
}
