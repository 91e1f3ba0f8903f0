//! The metadata cache subsystem of one memory partition: separate
//! counter/MAC/tree caches (the paper's recommended GPU organization) or a
//! unified cache (the CPU-style organization), with MSHRs and the
//! idealization knobs of Table V.

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};
use secmem_gpusim::cache::{Eviction, Probe, SectoredCache};
use secmem_gpusim::hash::{FastHashMap, FastHashSet};
use secmem_gpusim::mshr::{MshrFile, MshrOutcome};
use secmem_gpusim::stats::{meta_index, MetadataTypeStats};
use secmem_gpusim::types::{Addr, TrafficClass, FULL_SECTOR_MASK};

use crate::config::{MdcIdealization, MetadataCacheKind, SecureMemConfig};

/// Outcome of a metadata cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdOutcome {
    /// The line is resident; the access completes immediately.
    Hit,
    /// The line must be fetched: the caller issues a DRAM read for it.
    /// The waiter will be returned by [`MetadataCaches::fill`].
    FetchNeeded,
    /// The line is already being fetched; the waiter was merged (MSHR hit)
    /// and no new DRAM read is needed.
    Merged,
    /// No MSHR/merge capacity: retry later.
    Stall,
}

#[derive(Debug)]
enum Store {
    Real(Vec<SectoredCache>),
    Infinite(FastHashSet<Addr>),
    Perfect,
}

/// The cache of a `Store::Real` that holds `class` lines.
fn cache_index(kind: MetadataCacheKind, caches: &[SectoredCache], class: TrafficClass) -> usize {
    match (kind, caches.len()) {
        (MetadataCacheKind::Separate, 3) => meta_index(class),
        _ => 0,
    }
}

/// The per-partition metadata caches.
///
/// `T` is the waiter token type (the secure engine uses transaction
/// references). All accesses are full-line (metadata caches are not
/// sectored: "128 B blk", Table III).
#[derive(Debug)]
pub struct MetadataCaches<T> {
    kind: MetadataCacheKind,
    store: Store,
    mshrs: Vec<MshrFile<T>>,
    mshr_enabled: bool,
    /// Waiter lists for the no-MSHR mode: one DRAM fetch per waiter.
    private_waiters: FastHashMap<Addr, Vec<T>>,
    stats: [MetadataTypeStats; 3],
    /// Fills so far (see [`MetadataCaches::fill_epoch`]). Not
    /// checkpointed: it only dates stalls, and restored stalls are undated.
    fill_epoch: u64,
}

impl<T> MetadataCaches<T> {
    /// Builds the subsystem from a configuration.
    pub fn new(cfg: &SecureMemConfig) -> Self {
        let (store, num_mshr_files) = match cfg.idealization {
            MdcIdealization::Perfect => (Store::Perfect, 0),
            MdcIdealization::Infinite => (Store::Infinite(FastHashSet::default()), 0),
            MdcIdealization::Real => match cfg.cache_kind {
                MetadataCacheKind::Separate => {
                    let sizes = cfg.mdcache_bytes_by_type.unwrap_or([cfg.mdcache_bytes; 3]);
                    (
                        Store::Real(
                            sizes
                                .iter()
                                .map(|&b| {
                                    SectoredCache::with_policy(
                                        b.max(256),
                                        cfg.mdcache_assoc,
                                        cfg.mdcache_policy,
                                    )
                                })
                                .collect(),
                        ),
                        3,
                    )
                }
                MetadataCacheKind::Unified => (
                    Store::Real(vec![SectoredCache::with_policy(
                        cfg.unified_bytes,
                        cfg.mdcache_assoc,
                        cfg.mdcache_policy,
                    )]),
                    1,
                ),
            },
        };
        let mshr_enabled = cfg.mdcache_mshrs > 0;
        // Idealized stores still merge in-flight fetches (infinite caches
        // have MSHRs too); a unified cache gets 3x entries (Table III:
        // 192 for the 6 KB unified cache).
        let files = if matches!(store, Store::Real(_)) { num_mshr_files } else { 1 };
        let per_file = if files == 1 && matches!(store, Store::Real(_)) {
            cfg.mdcache_mshrs as usize * 3
        } else if matches!(store, Store::Real(_)) {
            cfg.mdcache_mshrs as usize
        } else {
            1 << 20
        };
        let mshrs =
            (0..files.max(1)).map(|_| MshrFile::new(per_file, cfg.mdcache_mshr_merge as usize)).collect();
        Self {
            kind: cfg.cache_kind,
            store,
            mshrs,
            mshr_enabled,
            private_waiters: FastHashMap::default(),
            stats: Default::default(),
            fill_epoch: 0,
        }
    }

    fn mshr_index(&self, class: TrafficClass) -> usize {
        if self.mshrs.len() == 3 {
            meta_index(class)
        } else {
            0
        }
    }

    /// Accesses the metadata line for a read (verification / decryption).
    /// On [`MdOutcome::FetchNeeded`], the caller issues a 128 B DRAM read
    /// for `line` and later calls [`MetadataCaches::fill`].
    pub fn access(&mut self, class: TrafficClass, line: Addr, waiter: T) -> MdOutcome {
        let mi = self.mshr_index(class);
        let s = &mut self.stats[meta_index(class)];
        match &mut self.store {
            Store::Perfect => {
                s.cache.hits += 1;
                return MdOutcome::Hit;
            }
            Store::Infinite(present) => {
                if present.contains(&line) {
                    s.cache.hits += 1;
                    return MdOutcome::Hit;
                }
            }
            Store::Real(caches) => {
                let ci = cache_index(self.kind, caches, class);
                if caches[ci].probe(line, FULL_SECTOR_MASK) == Probe::Hit {
                    s.cache.hits += 1;
                    return MdOutcome::Hit;
                }
                if !self.mshr_enabled {
                    s.cache.misses += 1;
                    // No MSHRs (§V-A): every miss fetches, even to a line
                    // already in flight (a redundant secondary fetch).
                    // Track waiters privately, FIFO.
                    let entry = self.private_waiters.entry(line).or_default();
                    if entry.is_empty() {
                        s.mshr.primary += 1;
                    } else {
                        s.mshr.secondary += 1;
                    }
                    entry.push(waiter);
                    return MdOutcome::FetchNeeded;
                }
            }
        }
        s.cache.misses += 1;
        match self.mshrs[mi].access(line, FULL_SECTOR_MASK, waiter) {
            MshrOutcome::Allocated => {
                s.mshr.primary += 1;
                MdOutcome::FetchNeeded
            }
            MshrOutcome::Merged | MshrOutcome::MergedNewSectors(_) => {
                s.mshr.secondary += 1;
                MdOutcome::Merged
            }
            MshrOutcome::Full(_) => {
                s.mshr.stalls += 1;
                MdOutcome::Stall
            }
        }
    }

    /// Completes a metadata fetch: installs the line, appends the waiters
    /// to notify to `waiters` (the caller's buffer is not cleared) and
    /// returns the eviction the install caused, if any, for lazy update
    /// and writeback. With MSHRs all merged waiters return at once;
    /// without, each fill returns one waiter (one fetch per waiter).
    pub fn fill(&mut self, class: TrafficClass, line: Addr, waiters: &mut Vec<T>) -> Option<Eviction> {
        self.fill_epoch += 1;
        let eviction = match &mut self.store {
            Store::Perfect => None,
            Store::Infinite(present) => {
                present.insert(line);
                None
            }
            Store::Real(caches) => {
                let ci = cache_index(self.kind, caches, class);
                let ev = caches[ci].fill(line, FULL_SECTOR_MASK, Default::default());
                if ev.as_ref().is_some_and(|ev| !ev.dirty.is_empty()) {
                    self.stats[meta_index(class)].writebacks += 1;
                }
                ev
            }
        };
        if self.mshr_enabled || !matches!(self.store, Store::Real(_)) {
            let mi = self.mshr_index(class);
            let _ = self.mshrs[mi].note_fill(line, FULL_SECTOR_MASK, waiters);
        } else if let Some(list) = self.private_waiters.get_mut(&line) {
            if !list.is_empty() {
                waiters.push(list.remove(0));
            }
            if list.is_empty() {
                self.private_waiters.remove(&line);
            }
        }
        eviction
    }

    /// Number of fills so far. Only a fill installs a line or frees an
    /// MSHR entry, so an access that returned [`MdOutcome::Stall`] stalls
    /// again for as long as the epoch is unchanged: replay it with
    /// [`MetadataCaches::replay_stalls`] instead of probing.
    pub(crate) fn fill_epoch(&self) -> u64 {
        self.fill_epoch
    }

    /// Accounts `n` repeats of `class` accesses known to stall (no fill
    /// since each last returned [`MdOutcome::Stall`]) with exactly the
    /// side effects of `n` stalling [`MetadataCaches::access`] calls —
    /// cache ticks and misses, MSHR stalls — without a cache probe or
    /// MSHR lookup.
    pub(crate) fn replay_stalls(&mut self, class: TrafficClass, n: u64) {
        let s = &mut self.stats[meta_index(class)];
        s.cache.misses += n;
        s.mshr.stalls += n;
        if let Store::Real(caches) = &mut self.store {
            let ci = cache_index(self.kind, caches, class);
            caches[ci].note_misses(n);
        }
        let mi = self.mshr_index(class);
        self.mshrs[mi].note_stalls(n);
    }

    /// Marks a resident line dirty (counter increment / MAC update / tree
    /// node update). Returns true if the line was resident (always true
    /// for idealized stores).
    pub fn mark_dirty(&mut self, class: TrafficClass, line: Addr) -> bool {
        match &mut self.store {
            Store::Perfect => true,
            Store::Infinite(present) => present.contains(&line),
            Store::Real(caches) => {
                let ci = cache_index(self.kind, caches, class);
                caches[ci].mark_dirty(line, FULL_SECTOR_MASK)
            }
        }
    }

    /// True if the line is resident (no side effects).
    pub fn contains(&self, class: TrafficClass, line: Addr) -> bool {
        match &self.store {
            Store::Perfect => true,
            Store::Infinite(present) => present.contains(&line),
            Store::Real(caches) => {
                let ci = cache_index(self.kind, caches, class);
                caches[ci].lookup(line).is_some()
            }
        }
    }

    /// Per-class statistics `[counter, mac, tree]`.
    pub fn stats(&self) -> [MetadataTypeStats; 3] {
        self.stats
    }

    /// Resets statistics (contents and in-flight state preserved).
    pub fn reset_stats(&mut self) {
        self.stats = Default::default();
        if let Store::Real(caches) = &mut self.store {
            for c in caches {
                c.reset_stats();
            }
        }
        for m in &mut self.mshrs {
            m.reset_stats();
        }
    }

    /// True when no fetches are outstanding.
    pub fn is_quiet(&self) -> bool {
        self.mshrs.iter().all(MshrFile::is_empty) && self.private_waiters.is_empty()
    }

    /// Outstanding miss-handling entries: MSHR allocations plus waiters
    /// parked on in-flight fills when MSHRs are disabled (telemetry
    /// occupancy probe).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshrs.iter().map(MshrFile::len).sum::<usize>()
            // lint:allow(D3): summing lengths is order-independent
            + self.private_waiters.values().map(Vec::len).sum::<usize>()
    }
}

impl<T: Snapshot> MetadataCaches<T> {
    /// Serializes cache contents, in-flight fetch state and statistics.
    /// Geometry (store kind, cache sizes, MSHR capacity) is config-derived
    /// and not stored; restore validates the payload against it.
    pub fn save_state(&self, w: &mut Writer) {
        match &self.store {
            Store::Real(caches) => {
                w.put_u8(0);
                w.put_usize(caches.len());
                for c in caches {
                    c.save_state(w);
                }
            }
            Store::Infinite(present) => {
                w.put_u8(1);
                let mut lines: Vec<Addr> = present.iter().copied().collect();
                lines.sort_unstable();
                lines.save(w);
            }
            Store::Perfect => w.put_u8(2),
        }
        w.put_usize(self.mshrs.len());
        for m in &self.mshrs {
            m.save_state(w);
        }
        // lint:allow(D3): keys are sorted before serialization
        let mut parked: Vec<Addr> = self.private_waiters.keys().copied().collect();
        parked.sort_unstable();
        w.put_usize(parked.len());
        for line in parked {
            w.put_u64(line);
            self.private_waiters[&line].save(w);
        }
        self.stats.save(w);
    }

    /// Restores state saved by [`MetadataCaches::save_state`] into a
    /// subsystem freshly built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the payload is malformed or its geometry
    /// does not match this subsystem's configuration.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let disc = r.get_u8()?;
        match (&mut self.store, disc) {
            (Store::Real(caches), 0) => {
                let n = r.get_usize()?;
                if n != caches.len() {
                    return Err(CheckpointError::Malformed(format!(
                        "metadata cache count {n} != {}",
                        caches.len()
                    )));
                }
                for c in caches.iter_mut() {
                    c.restore_state(r)?;
                }
            }
            (Store::Infinite(present), 1) => {
                let lines = Vec::<Addr>::load(r)?;
                present.clear();
                present.extend(lines);
            }
            (Store::Perfect, 2) => {}
            (_, d) => {
                return Err(CheckpointError::Malformed(format!(
                    "metadata store discriminant {d} does not match configuration"
                )));
            }
        }
        let n = r.get_usize()?;
        if n != self.mshrs.len() {
            return Err(CheckpointError::Malformed(format!(
                "metadata MSHR file count {n} != {}",
                self.mshrs.len()
            )));
        }
        for m in &mut self.mshrs {
            m.restore_state(r)?;
        }
        let parked = r.get_count()?;
        self.private_waiters.clear();
        for _ in 0..parked {
            let line = r.get_u64()?;
            let waiters = Vec::<T>::load(r)?;
            self.private_waiters.insert(line, waiters);
        }
        self.stats = <[MetadataTypeStats; 3]>::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SecureMemConfig {
        SecureMemConfig::secure_mem()
    }

    /// Fills `line`, returning the released waiters and the eviction.
    fn fill(md: &mut MetadataCaches<u32>, class: TrafficClass, line: Addr) -> (Vec<u32>, Option<Eviction>) {
        let mut waiters = Vec::new();
        let ev = md.fill(class, line, &mut waiters);
        (waiters, ev)
    }

    const CTR: TrafficClass = TrafficClass::Counter;
    const MAC: TrafficClass = TrafficClass::Mac;

    #[test]
    fn miss_fill_hit_cycle() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert_eq!(md.access(CTR, 0x1000, 1), MdOutcome::FetchNeeded);
        let (waiters, ev) = fill(&mut md, CTR, 0x1000);
        assert_eq!(waiters, vec![1]);
        assert!(ev.is_none());
        assert_eq!(md.access(CTR, 0x1000, 2), MdOutcome::Hit);
        let s = md.stats()[0];
        assert_eq!(s.cache.hits, 1);
        assert_eq!(s.cache.misses, 1);
    }

    #[test]
    fn secondary_misses_merge_with_mshrs() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert_eq!(md.access(MAC, 0x2000, 1), MdOutcome::FetchNeeded);
        assert_eq!(md.access(MAC, 0x2000, 2), MdOutcome::Merged);
        assert_eq!(md.access(MAC, 0x2000, 3), MdOutcome::Merged);
        let (waiters, _) = fill(&mut md, MAC, 0x2000);
        assert_eq!(waiters, vec![1, 2, 3]);
        let s = md.stats()[1];
        assert_eq!(s.mshr.primary, 1);
        assert_eq!(s.mshr.secondary, 2);
    }

    #[test]
    fn no_mshr_mode_refetches_per_access() {
        let mut c = cfg();
        c.mdcache_mshrs = 0;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        assert_eq!(md.access(CTR, 0x0, 1), MdOutcome::FetchNeeded);
        assert_eq!(md.access(CTR, 0x0, 2), MdOutcome::FetchNeeded, "no merging without MSHRs");
        let (w1, _) = fill(&mut md, CTR, 0x0);
        assert_eq!(w1, vec![1]);
        let (w2, _) = fill(&mut md, CTR, 0x0);
        assert_eq!(w2, vec![2]);
        let s = md.stats()[0];
        assert_eq!(s.mshr.primary, 1);
        assert_eq!(s.mshr.secondary, 1);
        assert!(md.is_quiet());
    }

    fn state_bytes(md: &MetadataCaches<u32>) -> Vec<u8> {
        let mut w = Writer::new();
        md.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn replayed_stall_matches_a_probed_stall() {
        let unified = |c: &mut SecureMemConfig| c.cache_kind = MetadataCacheKind::Unified;
        let infinite = |c: &mut SecureMemConfig| c.idealization = MdcIdealization::Infinite;
        let tweaks: [&dyn Fn(&mut SecureMemConfig); 3] = [&|_| {}, &unified, &infinite];
        for tweak in tweaks {
            let mut c = cfg();
            c.mdcache_mshrs = 1;
            c.mdcache_mshr_merge = 1;
            tweak(&mut c);
            let build = || {
                let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
                assert_eq!(md.access(MAC, 0x0, 1), MdOutcome::FetchNeeded);
                // A merge (full entry) or a new line (full file) stalls.
                assert_eq!(md.access(MAC, 0x0, 2), MdOutcome::Stall);
                md
            };
            let (mut probed, mut replayed) = (build(), build());
            for waiter in 2..5 {
                assert_eq!(probed.access(MAC, 0x0, waiter), MdOutcome::Stall);
            }
            replayed.replay_stalls(MAC, 3);
            assert_eq!(probed.stats(), replayed.stats());
            assert!(state_bytes(&probed) == state_bytes(&replayed), "cache/MSHR state diverged");
        }
    }

    #[test]
    fn perfect_always_hits() {
        let mut c = cfg();
        c.idealization = MdcIdealization::Perfect;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        for i in 0..1000u64 {
            assert_eq!(md.access(CTR, i * 128, 0), MdOutcome::Hit);
        }
        assert_eq!(md.stats()[0].cache.misses, 0);
    }

    #[test]
    fn infinite_only_cold_misses() {
        let mut c = cfg();
        c.idealization = MdcIdealization::Infinite;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        // Touch far more lines than a 2 KB cache could hold.
        for i in 0..500u64 {
            assert_eq!(md.access(CTR, i * 128, i as u32), MdOutcome::FetchNeeded);
            let (_, ev) = fill(&mut md, CTR, i * 128);
            assert!(ev.is_none(), "infinite cache never evicts");
        }
        for i in 0..500u64 {
            assert_eq!(md.access(CTR, i * 128, 0), MdOutcome::Hit);
        }
        assert_eq!(md.stats()[0].cache.misses, 500);
        assert_eq!(md.stats()[0].cache.hits, 500);
    }

    #[test]
    fn eviction_and_dirty_writeback_stats() {
        let mut c = cfg();
        c.mdcache_bytes = 256; // 2 lines, force evictions
        c.mdcache_assoc = 2;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        assert_eq!(md.access(CTR, 0x0, 1), MdOutcome::FetchNeeded);
        fill(&mut md, CTR, 0x0);
        assert!(md.mark_dirty(CTR, 0x0));
        md.access(CTR, 0x80, 2);
        fill(&mut md, CTR, 0x80);
        md.access(CTR, 0x100, 3);
        let (_, ev) = fill(&mut md, CTR, 0x100);
        let ev = ev.expect("a third line evicts");
        assert_eq!(ev.line_addr, 0x0);
        assert!(!ev.dirty.is_empty(), "dirty line evicted");
        assert_eq!(md.stats()[0].writebacks, 1);
    }

    #[test]
    fn unified_shares_one_cache() {
        let mut c = cfg();
        c.cache_kind = MetadataCacheKind::Unified;
        c.unified_bytes = 256; // 2 lines
        c.mdcache_assoc = 2;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        md.access(CTR, 0x0, 1);
        fill(&mut md, CTR, 0x0);
        md.access(MAC, 0x8000, 2);
        fill(&mut md, MAC, 0x8000);
        // A tree fill now evicts the counter line: contention across types.
        md.access(TrafficClass::Tree, 0x10_000, 3);
        let (_, ev) = fill(&mut md, TrafficClass::Tree, 0x10_000);
        assert_eq!(ev.map(|e| e.line_addr), Some(0x0));
        assert_eq!(md.access(CTR, 0x0, 4), MdOutcome::FetchNeeded, "counter was evicted by MAC/tree stream");
    }

    #[test]
    fn mark_dirty_on_absent_line_fails() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert!(!md.mark_dirty(CTR, 0xABC00));
    }

    #[test]
    fn contains_has_no_side_effects() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert!(!md.contains(CTR, 0x0));
        let before = md.stats()[0].cache.accesses();
        let _ = md.contains(CTR, 0x0);
        assert_eq!(md.stats()[0].cache.accesses(), before);
        md.access(CTR, 0x0, 1);
        fill(&mut md, CTR, 0x0);
        assert!(md.contains(CTR, 0x0));
    }
}
