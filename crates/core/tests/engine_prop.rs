//! Randomized tests of the secure memory engine's transaction-level
//! invariants, across all schemes and seeded request interleavings
//! (offline replacements for the previous `proptest` suites).

use secmem_core::{SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::backend::MemoryBackend;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::types::{BackendReq, SectorMask, TrafficClass};

const SCHEMES: [SecurityScheme; 6] = [
    SecurityScheme::CtrOnly,
    SecurityScheme::CtrBmt,
    SecurityScheme::CtrMacBmt,
    SecurityScheme::Direct,
    SecurityScheme::DirectMac,
    SecurityScheme::DirectMacMt,
];

/// A seeded random request mix: (line index, sector, is_write).
fn random_requests(rng: &mut Rng64, max_len: u64) -> Vec<(u64, u32, bool)> {
    let n = 1 + rng.gen_range(max_len) as usize;
    (0..n).map(|_| (rng.gen_range(4096), rng.gen_range(4) as u32, rng.gen_range(2) == 1)).collect()
}

/// Drives a request mix to completion; returns (responses, engine).
fn drive(scheme: SecurityScheme, mshrs: u32, requests: &[(u64, u32, bool)]) -> (u64, SecureBackend) {
    let gpu = GpuConfig::small();
    let cfg = SecureMemConfig { mdcache_mshrs: mshrs, ..SecureMemConfig::with_scheme(scheme) };
    let mut b = SecureBackend::new(cfg, &gpu);
    let mut responses = 0u64;
    let mut now = 0u64;
    let mut pending = requests.to_vec();
    pending.reverse();
    let mut next_id = 0u64;
    loop {
        match pending.last() {
            Some(&(line, sector, is_write)) => {
                let req = BackendReq {
                    id: next_id,
                    line_addr: line * 128,
                    sectors: SectorMask::single(sector),
                    bank: 0,
                };
                let accepted = if is_write {
                    if b.can_accept_write() {
                        b.submit_write(now, req);
                        true
                    } else {
                        false
                    }
                } else if b.can_accept_read() {
                    b.submit_read(now, req);
                    true
                } else {
                    false
                };
                if accepted {
                    next_id += 1;
                    pending.pop();
                }
            }
            None => {
                if b.is_idle() {
                    break;
                }
            }
        }
        b.cycle(now);
        while b.pop_read_response().is_some() {
            responses += 1;
        }
        now += 1;
        assert!(now < 2_000_000, "engine wedged with {} requests left", pending.len());
    }
    (responses, b)
}

/// Every submitted read produces exactly one response; the engine
/// always drains; reads and writes are conserved in DRAM statistics.
#[test]
fn reads_conserved_across_schemes() {
    for (case, &scheme) in SCHEMES.iter().enumerate().flat_map(|(j, s)| (0..3).map(move |k| (j * 3 + k, s))) {
        let mut rng = Rng64::new(0xE100 + case as u64);
        let reqs = random_requests(&mut rng, 120);
        let expected_reads = reqs.iter().filter(|r| !r.2).count() as u64;
        let expected_writes = reqs.iter().filter(|r| r.2).count() as u64;
        let (responses, b) = drive(scheme, 64, &reqs);
        assert_eq!(responses, expected_reads, "one response per read ({scheme})");
        let data = b.dram_stats().class(TrafficClass::Data);
        assert_eq!(data.reads, expected_reads, "one DRAM data read per request ({scheme})");
        assert_eq!(data.writes, expected_writes, "one DRAM data write per writeback ({scheme})");
        assert!(b.is_idle());
    }
}

/// The no-MSHR configuration also conserves reads (and never deadlocks
/// on its private-waiter bookkeeping).
#[test]
fn reads_conserved_without_mshrs() {
    for case in 0..8u64 {
        let mut rng = Rng64::new(0xE200 + case);
        let reqs = random_requests(&mut rng, 80);
        let expected_reads = reqs.iter().filter(|r| !r.2).count() as u64;
        let (responses, b) = drive(SecurityScheme::CtrMacBmt, 0, &reqs);
        assert_eq!(responses, expected_reads);
        assert!(b.is_idle());
    }
}

/// Metadata traffic only flows for schemes that define the metadata:
/// counters only in ctr modes, tree only under BMT/MT coverage.
#[test]
fn traffic_classes_match_scheme() {
    for (case, &scheme) in SCHEMES.iter().enumerate().flat_map(|(j, s)| (0..2).map(move |k| (j * 2 + k, s))) {
        let mut rng = Rng64::new(0xE300 + case as u64);
        let reqs = random_requests(&mut rng, 60);
        let (_, b) = drive(scheme, 64, &reqs);
        let s = b.dram_stats();
        let ctr = s.class(TrafficClass::Counter);
        let tree = s.class(TrafficClass::Tree);
        let mac = s.class(TrafficClass::Mac);
        if !scheme.has_counters() {
            assert_eq!(ctr.reads + ctr.writes, 0, "no counters in {scheme}");
        }
        if scheme.tree() == secmem_core::TreeCoverage::None {
            assert_eq!(tree.reads + tree.writes, 0, "no tree in {scheme}");
        }
        if !scheme.has_macs() {
            assert_eq!(mac.reads + mac.writes, 0, "no MACs in {scheme}");
        }
    }
}

/// Blocking verification never completes a read earlier than
/// speculative verification for the same request stream.
#[test]
fn blocking_never_faster() {
    for case in 0..6u64 {
        let mut rng = Rng64::new(0xE400 + case);
        let reads_only: Vec<_> =
            random_requests(&mut rng, 40).into_iter().map(|(l, s, _)| (l, s, false)).collect();
        let gpu = GpuConfig::small();
        let run = |speculative: bool| {
            let cfg =
                SecureMemConfig { speculative_verification: speculative, ..SecureMemConfig::secure_mem() };
            let mut b = SecureBackend::new(cfg, &gpu);
            let mut now = 0u64;
            for (i, &(line, sector, _)) in reads_only.iter().enumerate() {
                while !b.can_accept_read() {
                    b.cycle(now);
                    now += 1;
                }
                b.submit_read(
                    now,
                    BackendReq {
                        id: i as u64,
                        line_addr: line * 128,
                        sectors: SectorMask::single(sector),
                        bank: 0,
                    },
                );
            }
            let mut done = 0;
            while done < reads_only.len() {
                b.cycle(now);
                while b.pop_read_response().is_some() {
                    done += 1;
                }
                now += 1;
                assert!(now < 1_000_000);
            }
            now
        };
        let t_spec = run(true);
        let t_block = run(false);
        assert!(t_block >= t_spec, "blocking ({t_block}) must not beat speculative ({t_spec})");
    }
}
