//! GPU configuration (Table I of the paper: an Nvidia Volta-class GPU).

use crate::error::ConfigError;
use crate::types::{Addr, Cycle};

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the last warp until it
    /// stalls, then fall back to the oldest ready warp (GPGPU-Sim's
    /// default, used by the paper).
    #[default]
    Gto,
    /// Loose round-robin: rotate through warps each cycle.
    Lrr,
}

/// Full configuration of the simulated GPU.
///
/// [`GpuConfig::volta`] reproduces Table I: 80 SMs @ 1132 MHz, 6 MB L2
/// (32 partitions × 2 banks × 96 KB), 868 GB/s GDDR @ 850 MHz.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM (kernel may use fewer).
    pub max_warps_per_sm: u32,
    /// Warp instructions issued per SM per cycle (number of schedulers).
    pub issue_width: u32,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Threads per warp (32 on all NVIDIA GPUs).
    pub threads_per_warp: u32,
    /// Core clock in MHz (only used for bandwidth conversion / reporting).
    pub core_clock_mhz: u64,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u64,

    /// L1 data cache bytes per SM.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// L1 MSHR entries per SM.
    pub l1_mshrs: u32,
    /// Maximum merged requests per L1 MSHR entry.
    pub l1_mshr_merge: u32,
    /// Line/sector requests an SM can dispatch to its L1 per cycle.
    pub l1_ports: u32,
    /// Maximum outstanding (independent) loads per warp before it blocks.
    pub max_outstanding_loads: u32,

    /// Number of memory partitions (each with its own controller + engine).
    pub num_partitions: u32,
    /// Address interleave granularity across partitions in bytes.
    pub interleave_bytes: u64,
    /// L2 banks per partition.
    pub l2_banks_per_partition: u32,
    /// L2 bytes per bank.
    pub l2_bytes_per_bank: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 hit latency in cycles (bank access, excluding interconnect).
    pub l2_latency: u32,
    /// L2 MSHR entries per bank.
    pub l2_mshrs: u32,
    /// Maximum merged requests per L2 MSHR entry.
    pub l2_mshr_merge: u32,

    /// One-way interconnect latency in cycles.
    pub icnt_latency: u32,
    /// Messages the interconnect delivers per queue per cycle.
    pub icnt_flit_per_cycle: u32,

    /// DRAM access latency in core cycles (closed-page access, no queueing).
    pub dram_latency: u32,
    /// Peak DRAM bandwidth of the whole GPU in GB/s.
    pub dram_total_gbps: u64,
    /// Achievable fraction of peak bandwidth in percent (row misses,
    /// read/write turnaround, refresh; ~80-90% for GDDR).
    pub dram_efficiency_pct: u64,
    /// DRAM request queue capacity per partition.
    pub dram_queue_cap: usize,
    /// DRAM banks per partition for the row-buffer model (0 = flat-rate
    /// model, the default used for the paper reproduction).
    pub dram_banks: u32,
    /// Row-buffer size in bytes (power of two).
    pub dram_row_bytes: u64,
    /// Extra service cycles on a row-buffer miss.
    pub dram_row_miss_penalty: u32,

    /// XOR-hash the partition index (real GPUs hash channel bits to
    /// avoid partition camping on power-of-two strides). Off by default
    /// to match the paper's plain interleaving.
    pub partition_xor_hash: bool,

    /// Size of the protected address space in bytes (4 GB in the paper).
    pub protected_bytes: Addr,

    /// Forward-progress watchdog window: if no warp instruction issues
    /// and the DRAM channels perform no service for this many cycles
    /// while work is outstanding, [`Simulator::run`](crate::sim::Simulator::run)
    /// stops with a [`StallReport`](crate::error::StallReport) instead of
    /// burning the remaining cycle budget. `0` disables the watchdog.
    ///
    /// The default (50 000 cycles) is two orders of magnitude above the
    /// longest legitimate quiet period in this model (a fully serialized
    /// DRAM round trip plus interconnect latency is < 500 cycles).
    pub watchdog_cycles: Cycle,
}

impl GpuConfig {
    /// The paper's baseline Volta configuration (Table I).
    pub fn volta() -> Self {
        Self {
            num_sms: 80,
            max_warps_per_sm: 64,
            issue_width: 4,
            scheduler: SchedulerPolicy::Gto,
            threads_per_warp: 32,
            core_clock_mhz: 1132,
            mem_clock_mhz: 850,
            l1_bytes: 32 * 1024,
            l1_assoc: 8,
            l1_latency: 28,
            l1_mshrs: 64,
            l1_mshr_merge: 8,
            l1_ports: 2,
            max_outstanding_loads: 6,
            num_partitions: 32,
            interleave_bytes: 256,
            l2_banks_per_partition: 2,
            l2_bytes_per_bank: 96 * 1024,
            l2_assoc: 12,
            l2_latency: 30,
            l2_mshrs: 48,
            l2_mshr_merge: 8,
            icnt_latency: 40,
            icnt_flit_per_cycle: 2,
            dram_latency: 250,
            dram_total_gbps: 868,
            dram_efficiency_pct: 85,
            dram_queue_cap: 32,
            dram_banks: 0,
            dram_row_bytes: 2048,
            dram_row_miss_penalty: 8,
            partition_xor_hash: false,
            protected_bytes: 4 << 30,
            watchdog_cycles: 50_000,
        }
    }

    /// A scaled-down configuration for fast unit/integration tests:
    /// 8 SMs, 4 partitions, same per-partition geometry and per-partition
    /// DRAM bandwidth as [`GpuConfig::volta`].
    pub fn small() -> Self {
        Self {
            num_sms: 8,
            num_partitions: 4,
            dram_total_gbps: 868 / 8, // 4 of 32 partitions
            protected_bytes: 512 << 20,
            ..Self::volta()
        }
    }

    /// Total L2 capacity in bytes.
    pub fn l2_total_bytes(&self) -> u64 {
        self.num_partitions as u64 * self.l2_banks_per_partition as u64 * self.l2_bytes_per_bank
    }

    /// *Achievable* DRAM bandwidth per partition, in bytes per core cycle,
    /// as a 22.10 fixed-point value (peak scaled by the efficiency factor).
    pub fn dram_bytes_per_cycle_fp(&self) -> u64 {
        // GB/s -> bytes per core cycle: gbps * 1e9 / (partitions * core_mhz * 1e6)
        let num = self.dram_total_gbps * 1_000_000_000 * 1024 * self.dram_efficiency_pct;
        let den = self.num_partitions as u64 * self.core_clock_mhz * 1_000_000 * 100;
        num / den
    }

    /// Achievable DRAM bytes per cycle per partition (for reporting).
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bytes_per_cycle_fp() as f64 / 1024.0
    }

    /// *Peak* (nameplate) DRAM bytes per core cycle for the whole GPU.
    /// Bandwidth-utilization figures are reported against this, like the
    /// paper reports utilization of the 868 GB/s peak.
    pub fn dram_peak_total_bytes_per_cycle(&self) -> f64 {
        self.dram_total_gbps as f64 * 1e9 / (self.core_clock_mhz as f64 * 1e6)
    }

    /// Protected bytes mapped to each partition.
    pub fn protected_bytes_per_partition(&self) -> u64 {
        self.protected_bytes / self.num_partitions as u64
    }

    /// Peak theoretical IPC (thread instructions per cycle).
    pub fn peak_ipc(&self) -> f64 {
        (self.num_sms * self.issue_width * self.threads_per_warp) as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.num_partitions.is_power_of_two() {
            return Err(ConfigError::new(
                "num_partitions",
                format!("must be a power of two, got {}", self.num_partitions),
            ));
        }
        if !self.interleave_bytes.is_power_of_two() || self.interleave_bytes < crate::types::LINE_SIZE {
            return Err(ConfigError::new(
                "interleave_bytes",
                format!(
                    "must be a power of two >= {}, got {}",
                    crate::types::LINE_SIZE,
                    self.interleave_bytes
                ),
            ));
        }
        if !self.l2_banks_per_partition.is_power_of_two() {
            return Err(ConfigError::new("l2_banks_per_partition", "must be a power of two"));
        }
        if self.issue_width == 0 || self.num_sms == 0 || self.max_warps_per_sm == 0 {
            return Err(ConfigError::new(
                "num_sms/issue_width/max_warps_per_sm",
                "SM parameters must be nonzero",
            ));
        }
        if !self.protected_bytes.is_multiple_of(self.num_partitions as u64 * self.interleave_bytes) {
            return Err(ConfigError::new("protected_bytes", "must be a multiple of partitions * interleave"));
        }
        if self.icnt_latency == 0 {
            // At zero latency a request would reach its partition in the
            // cycle it was sent (SMs step before partitions) while a
            // response would still wait a cycle: the two directions
            // would silently disagree on the configured latency.
            return Err(ConfigError::new("icnt_latency", "must be at least 1 cycle"));
        }
        // Pre-check every cache geometry the simulator will construct, so
        // the panicking SectoredCache constructors are provably
        // unreachable after a successful validation (a hostile sweep spec
        // fails here with a typed error instead of panicking a worker).
        crate::cache::SectoredCache::check_geometry("l1_bytes/l1_assoc", self.l1_bytes, self.l1_assoc)?;
        crate::cache::SectoredCache::check_geometry(
            "l2_bytes_per_bank/l2_assoc",
            self.l2_bytes_per_bank,
            self.l2_assoc,
        )?;
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::volta()
    }
}

/// Maps global addresses to (partition, partition-local offset).
///
/// Memory is interleaved across partitions at [`GpuConfig::interleave_bytes`]
/// granularity, like real GPUs stripe consecutive 256 B chunks across
/// memory channels.
///
/// Every access asks for its partition, local offset and L2 bank, so the
/// map stores log2 of the interleave, partition count and bank count
/// (all powers of two after [`GpuConfig::validate`]) and answers with
/// shifts and masks instead of 64-bit divisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    interleave_shift: u32,
    partition_bits: u32,
    bank_mask: u64,
    xor_hash: bool,
}

impl AddressMap {
    /// Creates the map from a configuration.
    ///
    /// The geometry must have passed [`GpuConfig::validate`]: a
    /// non-power-of-two interleave, partition or bank count would be
    /// silently mis-mapped (debug builds assert).
    pub fn new(cfg: &GpuConfig) -> Self {
        debug_assert!(
            cfg.interleave_bytes.is_power_of_two()
                && cfg.num_partitions.is_power_of_two()
                && cfg.l2_banks_per_partition.is_power_of_two(),
            "AddressMap needs a validated power-of-two geometry"
        );
        Self {
            interleave_shift: cfg.interleave_bytes.trailing_zeros(),
            partition_bits: cfg.num_partitions.trailing_zeros(),
            bank_mask: cfg.l2_banks_per_partition as u64 - 1,
            xor_hash: cfg.partition_xor_hash,
        }
    }

    #[inline]
    fn partition_mask(&self) -> u64 {
        (1u64 << self.partition_bits) - 1
    }

    #[inline]
    fn interleave_mask(&self) -> u64 {
        (1u64 << self.interleave_shift) - 1
    }

    /// The partition owning `addr`.
    #[inline]
    pub fn partition_of(&self, addr: Addr) -> u32 {
        let chunk = addr >> self.interleave_shift;
        let base = chunk & self.partition_mask();
        let part = if self.xor_hash {
            // Fold the next-higher chunk bits in; stays bijective per
            // (partition, local) because the folded bits are part of the
            // local offset.
            base ^ ((chunk >> self.partition_bits) & self.partition_mask())
        } else {
            base
        };
        crate::narrow::u64_to_u32(part, "partition index is masked to the partition count")
    }

    /// The partition-local byte offset of `addr`.
    #[inline]
    pub fn local_offset(&self, addr: Addr) -> Addr {
        let chunk = addr >> self.interleave_shift;
        ((chunk >> self.partition_bits) << self.interleave_shift) | (addr & self.interleave_mask())
    }

    /// Inverse of [`AddressMap::local_offset`]: reconstructs the global
    /// address from a partition id and local offset.
    #[inline]
    pub fn global_addr(&self, partition: u32, local: Addr) -> Addr {
        let chunk_div = local >> self.interleave_shift;
        let slot = if self.xor_hash {
            (partition as u64) ^ (chunk_div & self.partition_mask())
        } else {
            partition as u64
        };
        (((chunk_div << self.partition_bits) + slot) << self.interleave_shift)
            + (local & self.interleave_mask())
    }

    /// The L2 bank within the partition for `addr` (a *global* address).
    ///
    /// Banks are selected by the partition-local chunk index, i.e.
    /// `(local_offset / interleave) % banks`. This is deliberately
    /// independent of the `xor_hash` slot swizzle: the swizzle permutes
    /// which *partition* owns a chunk but never changes the chunk's
    /// partition-local offset, so a bank index computed from a global
    /// address agrees with one computed from the reconstructed
    /// `global_addr(partition_of(addr), local_offset(addr))` — pinned by
    /// the `bank_of_agrees_through_local_roundtrip` property test.
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> u32 {
        let local_chunk = addr >> self.interleave_shift >> self.partition_bits;
        crate::narrow::u64_to_u32(local_chunk & self.bank_mask, "bank index is masked to the bank count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_matches_table1() {
        let cfg = GpuConfig::volta();
        assert_eq!(cfg.num_sms, 80);
        assert_eq!(cfg.l2_total_bytes(), 6 * 1024 * 1024);
        assert_eq!(cfg.num_partitions, 32);
        assert_eq!(cfg.protected_bytes, 4 << 30);
        cfg.validate().expect("volta config is valid");
    }

    #[test]
    fn bandwidth_conversion() {
        let mut cfg = GpuConfig::volta();
        cfg.dram_efficiency_pct = 100;
        // 868/32 GB/s at 1132 MHz ~= 23.96 B/cycle at 100% efficiency.
        let b = cfg.dram_bytes_per_cycle();
        assert!((b - 23.96).abs() < 0.05, "got {b}");
        // Whole-GPU nameplate peak.
        let p = cfg.dram_peak_total_bytes_per_cycle();
        assert!((p - 766.8).abs() < 1.0, "got {p}");
        // Default efficiency derates the achievable rate.
        let derated = GpuConfig::volta().dram_bytes_per_cycle();
        assert!((derated - 23.96 * 0.85).abs() < 0.1, "got {derated}");
    }

    #[test]
    fn peak_ipc_is_10240() {
        assert_eq!(GpuConfig::volta().peak_ipc(), 10240.0);
    }

    #[test]
    fn address_map_roundtrip() {
        let cfg = GpuConfig::volta();
        let map = AddressMap::new(&cfg);
        for addr in [0u64, 255, 256, 4096, 123_456_789, (4 << 30) - 1] {
            let p = map.partition_of(addr);
            let l = map.local_offset(addr);
            assert_eq!(map.global_addr(p, l), addr, "roundtrip failed for {addr:#x}");
        }
    }

    #[test]
    fn interleave_distributes_evenly() {
        let cfg = GpuConfig::volta();
        let map = AddressMap::new(&cfg);
        let mut counts = vec![0u32; cfg.num_partitions as usize];
        for chunk in 0..1024u64 {
            counts[map.partition_of(chunk * 256) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 32));
    }

    #[test]
    fn local_offsets_are_dense_per_partition() {
        let cfg = GpuConfig::small();
        let map = AddressMap::new(&cfg);
        // Within one partition, consecutive owned chunks have consecutive local offsets.
        let mut locals: Vec<u64> = (0..64u64)
            .map(|c| c * cfg.interleave_bytes)
            .filter(|&a| map.partition_of(a) == 1)
            .map(|a| map.local_offset(a))
            .collect();
        locals.sort_unstable();
        for (i, l) in locals.iter().enumerate() {
            assert_eq!(*l, i as u64 * cfg.interleave_bytes);
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = GpuConfig::volta();
        cfg.num_partitions = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = GpuConfig::volta();
        cfg.interleave_bytes = 100;
        assert!(cfg.validate().is_err());
        let mut cfg = GpuConfig::volta();
        cfg.issue_width = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = GpuConfig::volta();
        cfg.icnt_latency = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "icnt_latency");
    }

    #[test]
    fn validate_errors_name_the_field() {
        let mut cfg = GpuConfig::volta();
        cfg.num_partitions = 5;
        let err = cfg.validate().expect_err("invalid");
        assert_eq!(err.field, "num_partitions");
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn bank_mapping_in_range() {
        let cfg = GpuConfig::volta();
        let map = AddressMap::new(&cfg);
        for addr in (0..(1u64 << 20)).step_by(256) {
            assert!(map.bank_of(addr) < 2);
        }
    }

    #[test]
    fn validate_rejects_bad_cache_geometry() {
        let mut cfg = GpuConfig::small();
        cfg.l2_bytes_per_bank = 96 * 1024;
        cfg.l2_assoc = 5; // 768 lines % 5 != 0
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field, "l2_bytes_per_bank/l2_assoc");

        let mut cfg = GpuConfig::small();
        cfg.l1_bytes = 100; // not a line multiple
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field, "l1_bytes/l1_assoc");
    }

    /// Property test for the satellite audit: whether `bank_of` is fed a
    /// global address directly (the partition does this with the request
    /// line address) or the address reconstructed from the
    /// (partition, local) pair, the bank index must agree — with and
    /// without the xor swizzle — and must equal the local-chunk
    /// definition `(local_offset / interleave) % banks`.
    #[test]
    fn bank_of_agrees_through_local_roundtrip() {
        for xor_hash in [false, true] {
            let mut cfg = GpuConfig::volta();
            cfg.partition_xor_hash = xor_hash;
            let map = AddressMap::new(&cfg);
            let banks = cfg.l2_banks_per_partition;
            let mut probe = 0x9E37_79B9u64;
            for i in 0..4096u64 {
                probe = probe.wrapping_mul(0x5DEE_CE66).wrapping_add(11);
                let addr = (probe ^ (i * 31)) % (4u64 << 30);
                let p = map.partition_of(addr);
                let local = map.local_offset(addr);
                let rebuilt = map.global_addr(p, local);
                assert_eq!(rebuilt, addr, "xor={xor_hash} addr={addr:#x}");
                assert_eq!(map.bank_of(addr), map.bank_of(rebuilt), "xor={xor_hash} addr={addr:#x}");
                assert_eq!(
                    map.bank_of(addr) as u64,
                    local / cfg.interleave_bytes % banks as u64,
                    "bank must follow the partition-local chunk (xor={xor_hash} addr={addr:#x})"
                );
            }
        }
    }
}

#[cfg(test)]
mod xor_hash_tests {
    use super::*;

    fn hashed_map() -> AddressMap {
        let mut cfg = GpuConfig::volta();
        cfg.partition_xor_hash = true;
        AddressMap::new(&cfg)
    }

    #[test]
    fn xor_hash_roundtrips() {
        let map = hashed_map();
        for addr in [0u64, 255, 256, 65536, 123_456_789, (4u64 << 30) - 1] {
            let p = map.partition_of(addr);
            let l = map.local_offset(addr);
            assert_eq!(map.global_addr(p, l), addr, "roundtrip failed for {addr:#x}");
        }
    }

    #[test]
    fn xor_hash_breaks_power_of_two_camping() {
        let plain = AddressMap::new(&GpuConfig::volta());
        let hashed = hashed_map();
        // Stride of partitions*interleave camps on one partition when
        // unhashed, spreads when hashed.
        let stride = 32 * 256u64;
        let plain_parts: std::collections::HashSet<u32> =
            (0..64u64).map(|i| plain.partition_of(i * stride)).collect();
        let hashed_parts: std::collections::HashSet<u32> =
            (0..64u64).map(|i| hashed.partition_of(i * stride)).collect();
        assert_eq!(plain_parts.len(), 1, "plain interleave camps");
        assert!(hashed_parts.len() >= 16, "xor hash spreads: {hashed_parts:?}");
    }

    #[test]
    fn xor_hash_still_balances_sequential() {
        let map = hashed_map();
        let mut counts = vec![0u32; 32];
        for chunk in 0..(32 * 64u64) {
            counts[map.partition_of(chunk * 256) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 64), "{counts:?}");
    }
}
