//! Simulation statistics: per-metadata-type cache statistics and the
//! end-of-run report consumed by the experiment harness.

use crate::cache::CacheStats;
use crate::dram::DramStats;
use crate::error::StallReport;
use crate::fault::FaultStats;
use crate::mshr::MshrStats;
use crate::types::{Cycle, TrafficClass};

/// Statistics for one metadata type (counter, MAC, or tree) in the secure
/// memory engine's metadata caches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetadataTypeStats {
    /// Cache accesses / hits / misses / evictions.
    pub cache: CacheStats,
    /// Primary/secondary miss and stall counts.
    pub mshr: MshrStats,
    /// Writebacks of dirty metadata lines to DRAM.
    pub writebacks: u64,
}

/// Statistics exported by a secure memory engine (one per partition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Per metadata type: `[counter, mac, tree]`.
    pub meta: [MetadataTypeStats; 3],
    /// Cycles an AES engine request had to wait for a free slot.
    pub aes_stall_cycles: u64,
    /// 16 B blocks processed by the AES engines.
    pub aes_blocks: u64,
    /// Data sectors whose decryption waited for a counter fetch.
    pub decrypt_waited_on_counter: u64,
    /// Integrity-tree node verifications performed.
    pub tree_verifications: u64,
}

/// Index into [`EngineStats::meta`] for a metadata traffic class.
/// [`TrafficClass::Data`] is not a metadata class: debug builds assert,
/// release builds count it into the counter slot rather than unwinding
/// mid-cycle (the hot path must not panic — DESIGN.md §16).
pub fn meta_index(class: TrafficClass) -> usize {
    debug_assert!(class != TrafficClass::Data, "data is not a metadata class");
    match class {
        TrafficClass::Mac => 1,
        TrafficClass::Tree => 2,
        _ => 0,
    }
}

impl EngineStats {
    /// Merges another engine's statistics into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        let EngineStats { meta, aes_stall_cycles, aes_blocks, decrypt_waited_on_counter, tree_verifications } =
            other;
        for (a, b) in self.meta.iter_mut().zip(meta) {
            let MetadataTypeStats { cache, mshr, writebacks } = b;
            a.cache.merge(cache);
            a.mshr.merge(mshr);
            a.writebacks += writebacks;
        }
        self.aes_stall_cycles += aes_stall_cycles;
        self.aes_blocks += aes_blocks;
        self.decrypt_waited_on_counter += decrypt_waited_on_counter;
        self.tree_verifications += tree_verifications;
    }

    /// Stats for one metadata class.
    pub fn class(&self, class: TrafficClass) -> &MetadataTypeStats {
        &self.meta[meta_index(class)]
    }
}

/// End-of-run report for one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Simulated cycles.
    pub cycles: Cycle,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Thread instructions issued (warp instructions × warp width).
    pub thread_instructions: u64,
    /// Aggregated DRAM statistics over all partitions.
    pub dram: DramStats,
    /// Aggregated L2 statistics over all banks.
    pub l2: CacheStats,
    /// Aggregated L2 MSHR statistics.
    pub l2_mshr: MshrStats,
    /// Aggregated L1 statistics over all SMs.
    pub l1: CacheStats,
    /// Aggregated secure-engine statistics (all zero for the baseline).
    pub engine: EngineStats,
    /// Cycles during which at least one warp was blocked on memory in
    /// every schedulable slot (rough "memory stall" indicator).
    pub mem_stall_cycles: u64,
    /// Number of warps that ran.
    pub warps: u64,
    /// Aggregated fault-injection statistics (all zero when no
    /// [`FaultPlan`](crate::fault::FaultPlan) was installed).
    pub faults: FaultStats,
    /// Present when the forward-progress watchdog stopped the run; the
    /// `cycles` and statistics fields then cover the truncated window.
    pub stall: Option<StallReport>,
    /// True when the kernel finished before the requested warmup window
    /// elapsed, so the post-warmup measurement window was empty and the
    /// statistics in this report are not meaningful (see
    /// [`Simulator::run_with_warmup`](crate::sim::Simulator::run_with_warmup)).
    pub warmup_truncated: bool,
    /// Rendered sparkline summary of the run's telemetry (present only
    /// when a telemetry sink was attached and recorded samples).
    pub telemetry_summary: Option<String>,
}

impl SimReport {
    /// Thread-level IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / self.cycles as f64
        }
    }

    /// DRAM bandwidth utilization (0..=1): bytes actually moved relative
    /// to the nameplate peak, the way the paper's Table IV reports it.
    /// Saturated workloads top out near the DRAM efficiency factor.
    pub fn bandwidth_utilization(&self, cfg: &crate::config::GpuConfig) -> f64 {
        let denom = self.cycles as f64 * cfg.dram_peak_total_bytes_per_cycle();
        if denom == 0.0 {
            // Zero-cycle run, or a degenerate config with no DRAM
            // bandwidth: report 0 rather than NaN/inf.
            0.0
        } else {
            self.dram.total_bytes() as f64 / denom
        }
    }

    /// Fraction of DRAM requests belonging to `class` reads.
    pub fn read_fraction(&self, class: TrafficClass) -> f64 {
        let total = self.dram.total_requests();
        if total == 0 {
            0.0
        } else {
            self.dram.class(class).reads as f64 / total as f64
        }
    }

    /// Fraction of DRAM requests that are metadata writebacks (the paper's
    /// "wb" category: all writes from the metadata caches).
    pub fn metadata_writeback_fraction(&self) -> f64 {
        let total = self.dram.total_requests();
        if total == 0 {
            return 0.0;
        }
        let wb: u64 = [TrafficClass::Counter, TrafficClass::Mac, TrafficClass::Tree]
            .iter()
            .map(|&c| self.dram.class(c).writes)
            .sum();
        wb as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_computation() {
        let report = SimReport { cycles: 1000, thread_instructions: 512_000, ..SimReport::default() };
        assert!((report.ipc() - 512.0).abs() < 1e-9);
        assert_eq!(SimReport::default().ipc(), 0.0);
    }

    #[test]
    fn zero_cycle_report_fractions_are_finite() {
        let report = SimReport::default();
        let cfg = crate::config::GpuConfig::small();
        assert_eq!(report.ipc(), 0.0);
        assert_eq!(report.bandwidth_utilization(&cfg), 0.0);
        assert_eq!(report.read_fraction(TrafficClass::Data), 0.0);
        assert_eq!(report.metadata_writeback_fraction(), 0.0);
        // Degenerate config: some DRAM traffic recorded but zero peak
        // bandwidth must not divide to infinity.
        let mut nobw = cfg.clone();
        nobw.dram_total_gbps = 0;
        let mut r = SimReport { cycles: 100, ..SimReport::default() };
        r.dram.per_class[0].bytes_read = 4096;
        assert!(r.bandwidth_utilization(&nobw).is_finite());
    }

    #[test]
    fn meta_index_mapping() {
        assert_eq!(meta_index(TrafficClass::Counter), 0);
        assert_eq!(meta_index(TrafficClass::Mac), 1);
        assert_eq!(meta_index(TrafficClass::Tree), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a metadata class")]
    fn meta_index_rejects_data_in_debug() {
        meta_index(TrafficClass::Data);
    }

    #[test]
    fn engine_stats_merge() {
        let mut a = EngineStats::default();
        let mut b = EngineStats::default();
        b.meta[0].writebacks = 3;
        b.aes_blocks = 7;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.meta[0].writebacks, 6);
        assert_eq!(a.aes_blocks, 14);
    }
}
