//! Secure-memory configuration: schemes (Tables V and VIII) and the
//! metadata-cache organization (Table III).

use secmem_gpusim::error::ConfigError;

/// Which secure memory scheme is installed in the memory controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityScheme {
    /// No secure memory (the baseline GPU).
    Baseline,
    /// Counter-mode encryption only — no integrity protection.
    /// (Insecure: counters are unverified; evaluated as `ctr` in Fig. 16.)
    CtrOnly,
    /// Counter-mode encryption + Bonsai Merkle Tree over the counters
    /// (`ctr_bmt` in Fig. 16).
    CtrBmt,
    /// Counter-mode encryption + per-sector MACs + BMT: the paper's full
    /// `secureMem` design.
    CtrMacBmt,
    /// Direct (AES) encryption only, with the given encrypt/decrypt
    /// latency in cycles (`direct_x` in Fig. 15).
    Direct,
    /// Direct encryption + per-sector MACs (`direct_mac` in Fig. 17).
    DirectMac,
    /// Direct encryption + MACs + a Merkle Tree over the MACs
    /// (`direct_mac_mt` in Fig. 17).
    DirectMacMt,
}

impl SecurityScheme {
    /// Every scheme, in the canonical (Table V / VIII) order.
    pub const ALL: [SecurityScheme; 7] = [
        SecurityScheme::Baseline,
        SecurityScheme::CtrOnly,
        SecurityScheme::CtrBmt,
        SecurityScheme::CtrMacBmt,
        SecurityScheme::Direct,
        SecurityScheme::DirectMac,
        SecurityScheme::DirectMacMt,
    ];

    /// Parses a scheme's paper label (the inverse of
    /// [`SecurityScheme::label`]).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }

    /// True if the scheme uses encryption counters.
    pub fn has_counters(self) -> bool {
        matches!(self, SecurityScheme::CtrOnly | SecurityScheme::CtrBmt | SecurityScheme::CtrMacBmt)
    }

    /// True if the scheme verifies per-sector MACs.
    pub fn has_macs(self) -> bool {
        matches!(self, SecurityScheme::CtrMacBmt | SecurityScheme::DirectMac | SecurityScheme::DirectMacMt)
    }

    /// True if the scheme maintains an integrity tree, and over what.
    pub fn tree(self) -> TreeCoverage {
        match self {
            SecurityScheme::CtrBmt | SecurityScheme::CtrMacBmt => TreeCoverage::Counters,
            SecurityScheme::DirectMacMt => TreeCoverage::Macs,
            _ => TreeCoverage::None,
        }
    }

    /// True if decryption sits on the load critical path (direct modes).
    pub fn direct_encryption(self) -> bool {
        matches!(self, SecurityScheme::Direct | SecurityScheme::DirectMac | SecurityScheme::DirectMacMt)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SecurityScheme::Baseline => "baseline",
            SecurityScheme::CtrOnly => "ctr",
            SecurityScheme::CtrBmt => "ctr_bmt",
            SecurityScheme::CtrMacBmt => "ctr_mac_bmt",
            SecurityScheme::Direct => "direct",
            SecurityScheme::DirectMac => "direct_mac",
            SecurityScheme::DirectMacMt => "direct_mac_mt",
        }
    }
}

impl core::fmt::Display for SecurityScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the integrity tree covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeCoverage {
    /// No tree.
    None,
    /// Bonsai Merkle Tree over the encryption counters.
    Counters,
    /// Merkle Tree over the MACs.
    Macs,
}

/// Metadata cache organization: three separate caches or one unified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataCacheKind {
    /// One cache per metadata type (counter / MAC / tree). The paper's
    /// recommended GPU organization.
    Separate,
    /// One shared cache holding all metadata types (the CPU-style
    /// organization of Lehman et al., MAPS).
    Unified,
}

/// Idealization knobs for bottleneck analysis (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MdcIdealization {
    /// Real caches.
    #[default]
    Real,
    /// Metadata caches never miss and never write back (`perf_mdc`).
    Perfect,
    /// Unlimited capacity: only cold misses, no evictions (`large_mdc`).
    Infinite,
}

/// Full secure-memory configuration for one memory partition.
#[derive(Debug, Clone, PartialEq)]
pub struct SecureMemConfig {
    /// The protection scheme.
    pub scheme: SecurityScheme,
    /// Separate or unified metadata caches.
    pub cache_kind: MetadataCacheKind,
    /// Capacity of each separate metadata cache in bytes (Table III
    /// default: 2 KB per partition per type).
    pub mdcache_bytes: u64,
    /// Optional per-type overrides `[counter, mac, tree]` for the separate
    /// caches (Fig. 17 gives direct_mac a 6 KB MAC cache and direct_mac_mt
    /// 3 KB + 3 KB). A `0` entry means "unused type" and gets a minimal
    /// placeholder cache.
    pub mdcache_bytes_by_type: Option<[u64; 3]>,
    /// Capacity of the unified cache in bytes (default 6 KB = 3 × 2 KB).
    pub unified_bytes: u64,
    /// Associativity of metadata caches.
    pub mdcache_assoc: u32,
    /// MSHR entries per metadata cache (0 = no MSHRs: every secondary
    /// miss redundantly re-fetches, as in §V-A).
    pub mdcache_mshrs: u32,
    /// Maximum merges per metadata MSHR entry.
    pub mdcache_mshr_merge: u32,
    /// Idealization knob.
    pub idealization: MdcIdealization,
    /// Pipelined AES engines per partition (Table III: {1,2}, default 2).
    pub aes_engines: u32,
    /// AES latency in cycles (hidden in counter mode when the counter is
    /// cached; exposed on the critical path with direct encryption).
    pub aes_latency: u32,
    /// MAC/hash unit latency in cycles (default 40; off the critical path
    /// under speculative verification).
    pub mac_latency: u32,
    /// Zero-latency cryptography (`0_crypto` in Table V).
    pub zero_crypto: bool,
    /// Replacement policy for the (real) metadata caches. The paper uses
    /// LRU throughout and suggests thrash-resistant policies as future
    /// work (§V-D); `Srrip` implements that suggestion.
    pub mdcache_policy: secmem_gpusim::cache::ReplacementPolicy,
    /// Speculative verification (§IV): data returns to the core before
    /// MAC/tree checks finish. Setting this to `false` models a
    /// conservative design that blocks the response until the sector's
    /// MAC check (and, on counter fetches, the tree walk) completes.
    pub speculative_verification: bool,
    /// Selective encryption (Zuo et al., related work §III): only global
    /// addresses below this boundary are encrypted/verified; accesses
    /// above it bypass the engine. `None` = everything protected (the
    /// paper's setting). Should be a multiple of
    /// `partitions * interleave_bytes` for an exact per-partition split.
    pub protected_limit: Option<u64>,
    /// Maximum in-flight read transactions per partition.
    pub read_txn_cap: usize,
    /// Maximum in-flight write transactions per partition.
    pub write_txn_cap: usize,
    /// Model 7-bit minor-counter overflow: the 128th write to a line
    /// bumps the major counter and re-encrypts the whole 16 KB chunk
    /// (128 line reads + writes of extra traffic). Off by default to
    /// match the paper's methodology; the functional model always
    /// handles overflow exactly.
    pub model_counter_overflow: bool,
    /// Record a reuse-distance trace of metadata accesses (Figs. 10/11).
    pub profile_reuse: bool,
}

impl SecureMemConfig {
    /// The paper's default secure memory: counter mode + MAC + BMT,
    /// separate 2 KB metadata caches with 64 MSHRs, 2 AES engines,
    /// 40-cycle AES and MAC latencies.
    pub fn secure_mem() -> Self {
        Self {
            scheme: SecurityScheme::CtrMacBmt,
            cache_kind: MetadataCacheKind::Separate,
            mdcache_bytes: 2 * 1024,
            mdcache_bytes_by_type: None,
            unified_bytes: 6 * 1024,
            mdcache_assoc: 8,
            mdcache_mshrs: 64,
            mdcache_mshr_merge: 64,
            idealization: MdcIdealization::Real,
            aes_engines: 2,
            aes_latency: 40,
            mac_latency: 40,
            zero_crypto: false,
            mdcache_policy: secmem_gpusim::cache::ReplacementPolicy::Lru,
            speculative_verification: true,
            protected_limit: None,
            read_txn_cap: 256,
            write_txn_cap: 128,
            model_counter_overflow: false,
            profile_reuse: false,
        }
    }

    /// Direct encryption with the given latency (no integrity).
    pub fn direct(latency: u32) -> Self {
        Self { scheme: SecurityScheme::Direct, aes_latency: latency, ..Self::secure_mem() }
    }

    /// Sets the scheme, keeping other defaults.
    pub fn with_scheme(scheme: SecurityScheme) -> Self {
        Self { scheme, ..Self::secure_mem() }
    }

    /// AES latency in effect (0 when `zero_crypto`).
    pub fn effective_aes_latency(&self) -> u32 {
        if self.zero_crypto {
            0
        } else {
            self.aes_latency
        }
    }

    /// MAC latency in effect (0 when `zero_crypto`).
    pub fn effective_mac_latency(&self) -> u32 {
        if self.zero_crypto {
            0
        } else {
            self.mac_latency
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.scheme == SecurityScheme::Baseline {
            return Err(ConfigError::new("scheme", "use PassthroughBackend for the baseline"));
        }
        if self.mdcache_bytes < 256 {
            return Err(ConfigError::new("mdcache_bytes", "metadata caches must hold at least 2 lines"));
        }
        if self.aes_engines == 0 || self.aes_engines > 8 {
            return Err(ConfigError::new("aes_engines", "must be in 1..=8"));
        }
        if self.read_txn_cap == 0 || self.write_txn_cap == 0 {
            return Err(ConfigError::new("read_txn_cap/write_txn_cap", "transaction caps must be nonzero"));
        }
        if self.protected_limit == Some(0) {
            return Err(ConfigError::new("protected_limit", "0 protects nothing; use a positive boundary"));
        }
        Ok(())
    }
}

impl Default for SecureMemConfig {
    fn default() -> Self {
        Self::secure_mem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_predicates() {
        use SecurityScheme::*;
        assert!(CtrMacBmt.has_counters());
        assert!(CtrMacBmt.has_macs());
        assert_eq!(CtrMacBmt.tree(), TreeCoverage::Counters);
        assert!(!CtrMacBmt.direct_encryption());

        assert!(CtrOnly.has_counters());
        assert!(!CtrOnly.has_macs());
        assert_eq!(CtrOnly.tree(), TreeCoverage::None);

        assert!(!DirectMacMt.has_counters());
        assert!(DirectMacMt.has_macs());
        assert_eq!(DirectMacMt.tree(), TreeCoverage::Macs);
        assert!(DirectMacMt.direct_encryption());

        assert!(Direct.direct_encryption());
        assert!(!Direct.has_macs());
    }

    #[test]
    fn defaults_match_table3() {
        let c = SecureMemConfig::secure_mem();
        assert_eq!(c.mdcache_bytes, 2048);
        assert_eq!(c.mdcache_mshrs, 64);
        assert_eq!(c.aes_engines, 2);
        assert_eq!(c.mac_latency, 40);
        c.validate().expect("default config valid");
    }

    #[test]
    fn zero_crypto_zeroes_latencies() {
        let mut c = SecureMemConfig::secure_mem();
        c.zero_crypto = true;
        assert_eq!(c.effective_aes_latency(), 0);
        assert_eq!(c.effective_mac_latency(), 0);
        c.zero_crypto = false;
        assert_eq!(c.effective_aes_latency(), 40);
    }

    #[test]
    fn validation_rejects_baseline_and_bad_sizes() {
        let mut c = SecureMemConfig::secure_mem();
        c.scheme = SecurityScheme::Baseline;
        assert_eq!(c.validate().expect_err("baseline rejected").field, "scheme");
        let mut c = SecureMemConfig::secure_mem();
        c.mdcache_bytes = 128;
        assert_eq!(c.validate().expect_err("tiny cache rejected").field, "mdcache_bytes");
        let mut c = SecureMemConfig::secure_mem();
        c.aes_engines = 0;
        assert_eq!(c.validate().expect_err("no engines rejected").field, "aes_engines");
    }

    #[test]
    fn labels() {
        assert_eq!(SecurityScheme::CtrMacBmt.to_string(), "ctr_mac_bmt");
        assert_eq!(SecurityScheme::Direct.label(), "direct");
    }

    #[test]
    fn scheme_labels_round_trip() {
        for scheme in SecurityScheme::ALL {
            assert_eq!(SecurityScheme::from_label(scheme.label()), Some(scheme));
        }
        assert_eq!(SecurityScheme::from_label("rot13"), None);
    }
}
