//! A sectored, set-associative, write-back cache with LRU replacement and
//! allocate-on-fill semantics.
//!
//! GPUs use 128 B lines split into four 32 B sectors: a miss fetches only
//! the missing sectors, and a line may hold any subset of valid sectors.
//! This structure backs the per-SM L1, the L2 banks, and (in `secmem-core`)
//! all metadata caches — the paper's metadata caches are explicitly
//! "128 B blk, allocate-on-fill" (Table III). The L1 and each L2 bank pair
//! it with an MSHR file as one `CacheLevel`, which owns their load-miss
//! path.

use secmem_checkpoint::{CheckpointError, Reader, Snapshot as _, Writer};

use crate::error::ConfigError;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::types::{Addr, SectorMask, LINE_SIZE};

/// Result of probing the cache for a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// All requested sectors are valid in the cache.
    Hit,
    /// The line is present (or reserved) but some requested sectors are
    /// missing; the mask holds the missing sectors.
    PartialMiss(SectorMask),
    /// The line is entirely absent.
    Miss,
}

/// Result of a store access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The line was present; the written sectors are now valid + dirty.
    Hit,
    /// The line was absent. The caller decides whether to write-validate
    /// (install via [`SectoredCache::fill`] with dirty sectors) or forward.
    Miss,
}

/// A line evicted by [`SectoredCache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted line.
    pub line_addr: Addr,
    /// Dirty sectors that must be written back (empty mask = clean evict).
    pub dirty: SectorMask,
}

/// Replacement policy for a [`SectoredCache`].
///
/// The paper (§V-D) observes that GPU streaming traffic thrashes
/// LRU-managed unified metadata caches and suggests "smart replacement
/// policies" as an alternative to splitting the caches; [`ReplacementPolicy::Srrip`]
/// implements 2-bit SRRIP (Jaleel et al., ISCA'10) to test that conjecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the default everywhere in the paper).
    #[default]
    Lru,
    /// Static re-reference interval prediction: new lines insert with a
    /// distant re-reference prediction, so a streaming burst evicts
    /// itself instead of the reused working set.
    Srrip,
}

/// Maximum re-reference prediction value for 2-bit SRRIP.
const RRPV_MAX: u8 = 3;

/// Tag key of an empty way. Line addresses are multiples of
/// [`LINE_SIZE`], so no line can carry it.
const EMPTY: Addr = Addr::MAX;

/// Sector and replacement state of one line slot. The tag lives apart,
/// in [`SectoredCache`]'s packed tag array.
#[derive(Debug, Clone, Copy)]
struct LineState {
    valid: SectorMask,
    dirty: SectorMask,
    lru: u64,
    rrpv: u8,
}

impl LineState {
    const INVALID: LineState =
        LineState { valid: SectorMask::EMPTY, dirty: SectorMask::EMPTY, lru: 0, rrpv: RRPV_MAX };
}

/// A resident line found by [`SectoredCache::lookup`].
///
/// It names a slot, not an address: it stays valid until the next
/// [`SectoredCache::fill`], [`SectoredCache::invalidate_sectors`] or
/// restore, which may reassign the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way(usize);

/// Aggregate hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sector-granularity accesses that hit.
    pub hits: u64,
    /// Sector-granularity accesses that missed (line or sector).
    pub misses: u64,
    /// Fill operations (allocations and merges into resident lines).
    pub fills: u64,
    /// Evictions with at least one dirty sector.
    pub dirty_evictions: u64,
    /// Total evictions of valid lines.
    pub evictions: u64,
}

impl CacheStats {
    /// Adds another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats { hits, misses, fills, dirty_evictions, evictions } = *other;
        self.hits += hits;
        self.misses += misses;
        self.fills += fills;
        self.dirty_evictions += dirty_evictions;
        self.evictions += evictions;
    }

    /// Miss rate over all accesses (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The sectored cache.
///
/// # Example
///
/// ```
/// use secmem_gpusim::cache::{Probe, SectoredCache};
/// use secmem_gpusim::types::{SectorMask, FULL_SECTOR_MASK};
///
/// let mut c = SectoredCache::new(4 * 1024, 4);
/// assert_eq!(c.probe(0x80, SectorMask::single(0)), Probe::Miss);
/// c.fill(0x80, FULL_SECTOR_MASK, SectorMask::EMPTY);
/// assert_eq!(c.probe(0x80, SectorMask::single(2)), Probe::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SectoredCache {
    /// Tag key of every line slot, set-major; [`EMPTY`] marks an empty
    /// way. This is the only copy of the tags, packed so a set scan
    /// touches `assoc` words and nothing else.
    tags: Vec<Addr>,
    /// Sector and replacement state, parallel to `tags`.
    lines: Vec<LineState>,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two, so the set
    /// index is a mask; other geometries (the 6-set unified metadata
    /// cache) take the remainder.
    set_mask: Option<usize>,
    assoc: usize,
    tick: u64,
    policy: ReplacementPolicy,
    stats: CacheStats,
}

impl SectoredCache {
    /// Creates a cache of `bytes` capacity and `assoc` ways. If the line
    /// count is smaller than `assoc`, the cache degrades to fully
    /// associative. Set counts need not be powers of two (a 96 KB L2 bank
    /// at 12 ways has 64 sets, but a 6 KB unified metadata cache at
    /// 8 ways has 6 sets).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of the line size, or
    /// the line count is not divisible by the (clamped) associativity.
    pub fn new(bytes: u64, assoc: u32) -> Self {
        Self::with_policy(bytes, assoc, ReplacementPolicy::Lru)
    }

    /// Creates a cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Same geometry constraints as [`SectoredCache::new`].
    pub fn with_policy(bytes: u64, assoc: u32, policy: ReplacementPolicy) -> Self {
        match Self::try_with_policy("cache", bytes, assoc, policy) {
            Ok(cache) => cache,
            // Validated paths go through try_with_policy / GpuConfig::validate.
            // lint:allow(H1): documented panicking convenience constructor
            Err(e) => panic!("{}", e.message),
        }
    }

    /// Checks a (capacity, associativity) pair without building the cache.
    ///
    /// `field` names the configuration knob being validated (e.g.
    /// `"l2_bytes_per_bank/l2_assoc"`) so the error points at the input
    /// that must change. [`GpuConfig::validate`](crate::config::GpuConfig::validate)
    /// runs this for every cache the simulator will construct, which is
    /// what makes the panicking constructors unreachable after a
    /// successful validation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `bytes` is not a positive multiple of
    /// the line size, or the line count is not divisible by the (clamped)
    /// associativity.
    pub fn check_geometry(field: &'static str, bytes: u64, assoc: u32) -> Result<(), ConfigError> {
        if bytes < LINE_SIZE || !bytes.is_multiple_of(LINE_SIZE) {
            return Err(ConfigError::new(
                field,
                format!("capacity must be a multiple of {LINE_SIZE} B, got {bytes}"),
            ));
        }
        let lines = (bytes / LINE_SIZE) as usize;
        let clamped = (assoc as usize).clamp(1, lines);
        if !lines.is_multiple_of(clamped) {
            return Err(ConfigError::new(
                field,
                format!("cache of {bytes} B / assoc {assoc} is not well formed"),
            ));
        }
        Ok(())
    }

    /// Fallible form of [`SectoredCache::with_policy`].
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`] as [`SectoredCache::check_geometry`].
    pub fn try_with_policy(
        field: &'static str,
        bytes: u64,
        assoc: u32,
        policy: ReplacementPolicy,
    ) -> Result<Self, ConfigError> {
        Self::check_geometry(field, bytes, assoc)?;
        let lines = (bytes / LINE_SIZE) as usize;
        let assoc = (assoc as usize).clamp(1, lines);
        let num_sets = lines / assoc;
        Ok(Self {
            tags: vec![EMPTY; lines],
            lines: vec![LineState::INVALID; lines],
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            assoc,
            tick: 0,
            policy,
            stats: CacheStats::default(),
        })
    }

    /// Index of the first slot of `line_addr`'s set.
    #[inline]
    fn set_base(&self, line_addr: Addr) -> usize {
        let line = (line_addr / LINE_SIZE) as usize;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.num_sets,
        };
        set * self.assoc
    }

    /// Finds the way holding `line_addr` with one scan of its set's tags,
    /// without touching LRU or statistics. Pass the result to
    /// [`Self::peek_way`] and then [`Self::probe_way`] to decide on a
    /// hit and account it without scanning the set again.
    #[inline]
    pub fn lookup(&self, line_addr: Addr) -> Option<Way> {
        debug_assert_ne!(line_addr, EMPTY, "the empty-way key is not a line address");
        let base = self.set_base(line_addr);
        self.tags[base..base + self.assoc].iter().position(|&t| t == line_addr).map(|i| Way(base + i))
    }

    fn classify(valid: SectorMask, sectors: SectorMask) -> Probe {
        if valid.contains(sectors) {
            Probe::Hit
        } else {
            Probe::PartialMiss(sectors.minus(valid))
        }
    }

    /// [`Self::peek`] on a line already looked up.
    #[inline]
    pub fn peek_way(&self, way: Option<Way>, sectors: SectorMask) -> Probe {
        match way {
            Some(Way(i)) => Self::classify(self.lines[i].valid, sectors),
            None => Probe::Miss,
        }
    }

    /// [`Self::probe`] on a line already looked up.
    pub fn probe_way(&mut self, way: Option<Way>, sectors: SectorMask) -> Probe {
        self.tick += 1;
        let result = match way {
            Some(Way(i)) => {
                let line = &mut self.lines[i];
                line.lru = self.tick;
                line.rrpv = 0;
                Self::classify(line.valid, sectors)
            }
            None => Probe::Miss,
        };
        match result {
            Probe::Hit => self.stats.hits += 1,
            _ => self.stats.misses += 1,
        }
        result
    }

    /// Probes for the given sectors of a line, updating LRU and statistics.
    pub fn probe(&mut self, line_addr: Addr, sectors: SectorMask) -> Probe {
        self.probe_way(self.lookup(line_addr), sectors)
    }

    /// Accounts `n` probes the caller knows would miss (each line is
    /// absent and nothing has been filled since it last missed) without
    /// searching a set: the same ticks and miss count as `n` calls of
    /// [`Self::probe`].
    pub fn note_misses(&mut self, n: u64) {
        self.tick += n;
        self.stats.misses += n;
    }

    /// Probes without updating LRU or statistics.
    pub fn peek(&self, line_addr: Addr, sectors: SectorMask) -> Probe {
        self.peek_way(self.lookup(line_addr), sectors)
    }

    /// Performs a store: if the line is present, the sectors become valid
    /// and dirty (write-validate within a resident line).
    pub fn write(&mut self, line_addr: Addr, sectors: SectorMask) -> WriteOutcome {
        self.tick += 1;
        match self.lookup(line_addr) {
            Some(Way(i)) => {
                let line = &mut self.lines[i];
                line.lru = self.tick;
                line.rrpv = 0;
                line.valid = line.valid.union(sectors);
                line.dirty = line.dirty.union(sectors);
                self.stats.hits += 1;
                WriteOutcome::Hit
            }
            None => {
                self.stats.misses += 1;
                WriteOutcome::Miss
            }
        }
    }

    /// Installs sectors of a line (allocate-on-fill). Sectors listed in
    /// `dirty` are installed dirty (write-validate); they must be a subset
    /// of `sectors`.
    ///
    /// Returns the eviction this fill caused, if any.
    ///
    /// # Panics
    ///
    /// Panics if `dirty` is not a subset of `sectors`.
    pub fn fill(&mut self, line_addr: Addr, sectors: SectorMask, dirty: SectorMask) -> Option<Eviction> {
        assert!(sectors.contains(dirty), "dirty sectors must be filled");
        self.tick += 1;
        self.stats.fills += 1;
        let tick = self.tick;

        // Merge into an existing line if present.
        if let Some(Way(i)) = self.lookup(line_addr) {
            let line = &mut self.lines[i];
            line.valid = line.valid.union(sectors);
            line.dirty = line.dirty.union(dirty);
            line.lru = tick;
            return None;
        }
        let base = self.set_base(line_addr);
        let victim = base + self.pick_victim(base);
        let insert_rrpv = match self.policy {
            ReplacementPolicy::Lru => 0,
            // SRRIP: predict a distant re-reference for new lines so a
            // streaming burst cannot flush the reused working set.
            ReplacementPolicy::Srrip => RRPV_MAX - 1,
        };
        let old_tag = std::mem::replace(&mut self.tags[victim], line_addr);
        let old = std::mem::replace(
            &mut self.lines[victim],
            LineState { valid: sectors, dirty, lru: tick, rrpv: insert_rrpv },
        );
        if old_tag == EMPTY {
            return None;
        }
        self.stats.evictions += 1;
        if !old.dirty.is_empty() {
            self.stats.dirty_evictions += 1;
        }
        Some(Eviction { line_addr: old_tag, dirty: old.dirty })
    }

    /// The way of the set starting at `base` that a new line replaces:
    /// any empty way first, else by policy.
    fn pick_victim(&mut self, base: usize) -> usize {
        let end = base + self.assoc;
        if let Some(i) = self.tags[base..end].iter().position(|&t| t == EMPTY) {
            return i;
        }
        let ways = &mut self.lines[base..end];
        match self.policy {
            ReplacementPolicy::Lru => {
                let mut victim = 0usize;
                let mut best = u64::MAX;
                for (i, way) in ways.iter().enumerate() {
                    if way.lru < best {
                        best = way.lru;
                        victim = i;
                    }
                }
                victim
            }
            ReplacementPolicy::Srrip => loop {
                if let Some(i) = ways.iter().position(|w| w.rrpv >= RRPV_MAX) {
                    break i;
                }
                for way in ways.iter_mut() {
                    way.rrpv = (way.rrpv + 1).min(RRPV_MAX);
                }
            },
        }
    }

    /// Invalidates the given sectors of a line if present (used by the
    /// write-through L1 on stores). Dirty state is discarded — only safe
    /// for write-through caches.
    pub fn invalidate_sectors(&mut self, line_addr: Addr, sectors: SectorMask) {
        if let Some(Way(i)) = self.lookup(line_addr) {
            let line = &mut self.lines[i];
            line.valid = line.valid.minus(sectors);
            line.dirty = line.dirty.minus(sectors);
            if line.valid.is_empty() {
                *line = LineState::INVALID;
                self.tags[i] = EMPTY;
            }
        }
    }

    /// Marks the given sectors dirty if the line is resident (read-modify-
    /// write of metadata that is already cached).
    ///
    /// Returns true if the line was resident.
    pub fn mark_dirty(&mut self, line_addr: Addr, sectors: SectorMask) -> bool {
        let Some(Way(i)) = self.lookup(line_addr) else { return false };
        let line = &mut self.lines[i];
        line.dirty = line.dirty.union(sectors.intersect(line.valid));
        true
    }

    /// Flushes every dirty line, returning the writebacks, and leaves the
    /// cache clean (contents stay valid).
    pub fn flush_dirty(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for (&tag, line) in self.tags.iter().zip(&mut self.lines) {
            if tag != EMPTY && !line.dirty.is_empty() {
                out.push(Eviction { line_addr: tag, dirty: line.dirty });
                line.dirty = SectorMask::EMPTY;
            }
        }
        out
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Total line slots.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Serializes contents, replacement state and statistics into a
    /// checkpoint payload. Geometry (set count, associativity, policy) is
    /// not stored — it is rebuilt from the configuration and validated on
    /// restore. An empty way is written as tag 0, not present.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.tags.len());
        for (&tag, line) in self.tags.iter().zip(&self.lines) {
            let present = tag != EMPTY;
            w.put_u64(if present { tag } else { 0 });
            line.valid.save(w);
            line.dirty.save(w);
            w.put_u64(line.lru);
            w.put_u8(line.rrpv);
            w.put_bool(present);
        }
        w.put_u64(self.tick);
        self.stats.save(w);
    }

    /// Restores state saved by [`SectoredCache::save_state`] into a cache
    /// rebuilt with identical geometry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] if the stored line count does not
    /// match this cache, a line violates sector-mask invariants, an empty
    /// way carries a tag, or a resident line carries the empty-way key;
    /// any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        r.expect_count("cache", "lines", self.tags.len())?;
        for (slot, line) in self.tags.iter_mut().zip(&mut self.lines) {
            let tag = r.get_u64()?;
            let valid = SectorMask::load(r)?;
            let dirty = SectorMask::load(r)?;
            let lru = r.get_u64()?;
            let rrpv = r.get_u8()?;
            let present = r.get_bool()?;
            if !valid.contains(dirty) {
                return Err(CheckpointError::Malformed(format!(
                    "cache line {tag:#x}: dirty sectors {dirty} not a subset of valid {valid}"
                )));
            }
            if rrpv > RRPV_MAX {
                return Err(CheckpointError::Malformed(format!("cache line rrpv {rrpv}")));
            }
            let tag_ok = if present { tag != EMPTY } else { tag == 0 };
            if !tag_ok {
                return Err(CheckpointError::Malformed(format!(
                    "cache line tag {tag:#x} does not match its present flag {present}"
                )));
            }
            *slot = if present { tag } else { EMPTY };
            *line = LineState { valid, dirty, lru, rrpv };
        }
        self.tick = r.get_u64()?;
        self.stats = CacheStats::load(r)?;
        Ok(())
    }
}

/// Why a level's head load missed and was refused: what its retry would
/// find again as long as the level is untouched. The L1 dispatch queue
/// and the L2 input queue hold their head until it is accepted, so only
/// a change to the cache or the MSHR file can alter that, and any mutable
/// access to either forgets the memo. A retry with the memo in hand skips
/// the set scan and, on a full MSHR file, the MSHR lookup too. Derived
/// state: never checkpointed.
#[derive(Debug, Clone, Copy)]
struct HeadStall {
    /// The head's line, as [`SectoredCache::lookup`] found it.
    way: Option<Way>,
    /// The sectors the head still needs.
    missing: SectorMask,
    /// The MSHR file refused the head; otherwise the next stage had no
    /// room and the MSHR file was not asked.
    mshr_full: bool,
}

/// What [`CacheLevel::load`] did with a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Load<T> {
    /// Every requested sector is resident: the target is handed back.
    Hit(T),
    /// The MSHR file took the miss: the caller fetches these sectors.
    Fetch(SectorMask),
    /// The miss merged into a fetch already under way.
    Merged,
    /// The next stage had no room or the MSHR file was full: the target
    /// is handed back and stays the head of its queue.
    Refused(T),
}

/// One level of the data-cache hierarchy, the per-SM L1 or an L2 bank: a
/// sectored cache, the MSHR file that merges its misses, and the memo of
/// its refused head load (DESIGN.md §10, "Remembered head stalls").
#[derive(Debug)]
pub(crate) struct CacheLevel<T> {
    cache: SectoredCache,
    mshrs: MshrFile<T>,
    stall: Option<HeadStall>,
}

impl<T> CacheLevel<T> {
    pub(crate) fn new(cache: SectoredCache, mshrs: MshrFile<T>) -> Self {
        Self { cache, mshrs, stall: None }
    }

    pub(crate) fn cache(&self) -> &SectoredCache {
        &self.cache
    }

    pub(crate) fn mshrs(&self) -> &MshrFile<T> {
        &self.mshrs
    }

    /// The cache, to change it (fill, write, invalidate, restore): forgets
    /// the memo.
    pub(crate) fn cache_mut(&mut self) -> &mut SectoredCache {
        self.stall = None;
        &mut self.cache
    }

    /// The MSHR file, to change it (fill, restore): forgets the memo.
    pub(crate) fn mshrs_mut(&mut self) -> &mut MshrFile<T> {
        self.stall = None;
        &mut self.mshrs
    }

    /// The sectors of `sectors` that `way` lacks; `None` on a hit.
    fn missing(&self, way: Option<Way>, sectors: SectorMask) -> Option<SectorMask> {
        match self.cache.peek_way(way, sectors) {
            Probe::Hit => None,
            Probe::PartialMiss(missing) => Some(missing),
            Probe::Miss => Some(sectors),
        }
    }

    /// Presents the head load of the caller's queue. `room` says whether
    /// the next stage can take a fetch; it is asked only on a miss. A hit
    /// or an accepted miss is accounted once; a refusal is remembered, so
    /// the retry of the same head skips what cannot have changed.
    pub(crate) fn load(
        &mut self,
        line: Addr,
        sectors: SectorMask,
        target: T,
        room: impl FnOnce() -> bool,
    ) -> Load<T> {
        let stall = match self.stall.take() {
            Some(stall) => {
                #[cfg(debug_assertions)]
                self.audit(stall, line, sectors);
                stall
            }
            None => {
                // One set scan serves both the verdict here and the
                // accounting probe once the load is consumed.
                let way = self.cache.lookup(line);
                let Some(missing) = self.missing(way, sectors) else {
                    let _ = self.cache.probe_way(way, sectors);
                    return Load::Hit(target);
                };
                HeadStall { way, missing, mshr_full: false }
            }
        };
        // Without room downstream we cannot risk allocating an MSHR whose
        // fetch could not be sent.
        if !room() {
            self.stall = Some(stall);
            return Load::Refused(target);
        }
        if stall.mshr_full {
            self.mshrs.note_stalls(1);
            self.stall = Some(stall);
            return Load::Refused(target);
        }
        let load = match self.mshrs.access(line, stall.missing, target) {
            MshrOutcome::Full(target) => {
                self.stall = Some(HeadStall { mshr_full: true, ..stall });
                return Load::Refused(target);
            }
            MshrOutcome::Allocated => Load::Fetch(stall.missing),
            MshrOutcome::MergedNewSectors(new) => Load::Fetch(new),
            MshrOutcome::Merged => Load::Merged,
        };
        let _ = self.cache.probe_way(stall.way, sectors);
        load
    }

    /// Checks a remembered refusal against full probes before it is reused.
    #[cfg(debug_assertions)]
    fn audit(&self, stall: HeadStall, line: Addr, sectors: SectorMask) {
        let way = self.cache.lookup(line);
        debug_assert_eq!(way, stall.way, "remembered way of {line:#x}");
        debug_assert_eq!(self.missing(way, sectors), Some(stall.missing), "remembered sectors of {line:#x}");
        debug_assert!(!stall.mshr_full || self.mshrs.refuses(line), "remembered MSHR refusal of {line:#x}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FULL_SECTOR_MASK;

    fn full() -> SectorMask {
        FULL_SECTOR_MASK
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SectoredCache::new(2048, 4);
        assert_eq!(c.probe(0x100, SectorMask::single(1)), Probe::Miss);
        assert_eq!(c.fill(0x100, SectorMask::single(1), SectorMask::EMPTY), None);
        assert_eq!(c.probe(0x100, SectorMask::single(1)), Probe::Hit);
        assert_eq!(c.probe(0x100, SectorMask::single(2)), Probe::PartialMiss(SectorMask::single(2)));
    }

    #[test]
    fn sector_partial_miss_reports_missing_only() {
        let mut c = SectoredCache::new(2048, 4);
        c.fill(0x0, SectorMask(0b0011), SectorMask::EMPTY);
        match c.probe(0x0, full()) {
            Probe::PartialMiss(m) => assert_eq!(m, SectorMask(0b1100)),
            other => panic!("expected partial miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways.
        let mut c = SectoredCache::new(256, 2);
        c.fill(0x0, full(), SectorMask::EMPTY);
        c.fill(0x100, full(), SectorMask::EMPTY);
        // Touch 0x0 so 0x100 becomes LRU.
        assert_eq!(c.probe(0x0, full()), Probe::Hit);
        let ev = c.fill(0x200, full(), SectorMask::EMPTY).expect("must evict");
        assert_eq!(ev.line_addr, 0x100);
        assert_eq!(c.peek(0x0, full()), Probe::Hit);
        assert_eq!(c.peek(0x100, full()), Probe::Miss);
    }

    #[test]
    fn dirty_eviction_carries_dirty_mask() {
        let mut c = SectoredCache::new(256, 2);
        c.fill(0x0, full(), SectorMask::EMPTY);
        assert_eq!(c.write(0x0, SectorMask::single(3)), WriteOutcome::Hit);
        c.fill(0x100, full(), SectorMask::EMPTY);
        let ev = c.fill(0x200, full(), SectorMask::EMPTY).expect("evicts 0x0");
        assert_eq!(ev.line_addr, 0x0);
        assert_eq!(ev.dirty, SectorMask::single(3));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_miss_reported() {
        let mut c = SectoredCache::new(256, 2);
        assert_eq!(c.write(0x40, SectorMask::single(0)), WriteOutcome::Miss);
    }

    #[test]
    fn write_validate_fill_installs_dirty() {
        let mut c = SectoredCache::new(256, 2);
        c.fill(0x0, SectorMask::single(0), SectorMask::single(0));
        c.fill(0x100, full(), SectorMask::EMPTY);
        let ev = c.fill(0x200, full(), SectorMask::EMPTY).expect("evict");
        assert_eq!(ev.line_addr, 0x0);
        assert_eq!(ev.dirty, SectorMask::single(0));
    }

    #[test]
    fn fill_merges_into_existing_line() {
        let mut c = SectoredCache::new(256, 2);
        c.fill(0x0, SectorMask::single(0), SectorMask::EMPTY);
        assert_eq!(c.fill(0x0, SectorMask::single(1), SectorMask::EMPTY), None);
        assert_eq!(c.peek(0x0, SectorMask(0b0011)), Probe::Hit);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_sectors_for_write_through_l1() {
        let mut c = SectoredCache::new(256, 2);
        c.fill(0x0, full(), SectorMask::EMPTY);
        c.invalidate_sectors(0x0, SectorMask::single(2));
        assert_eq!(c.peek(0x0, SectorMask::single(2)), Probe::PartialMiss(SectorMask::single(2)));
        c.invalidate_sectors(0x0, SectorMask(0b1011));
        assert_eq!(c.peek(0x0, SectorMask::single(0)), Probe::Miss);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn mark_dirty_requires_residency() {
        let mut c = SectoredCache::new(256, 2);
        assert!(!c.mark_dirty(0x0, SectorMask::single(0)));
        c.fill(0x0, SectorMask::single(0), SectorMask::EMPTY);
        assert!(c.mark_dirty(0x0, SectorMask::single(0)));
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].dirty, SectorMask::single(0));
        assert!(c.flush_dirty().is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut c = SectoredCache::new(256, 2);
        c.probe(0x0, full());
        c.fill(0x0, full(), SectorMask::EMPTY);
        c.probe(0x0, full());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = SectoredCache::new(1024, 4);
        for i in 0..1000u64 {
            c.fill(i * 128, full(), SectorMask::EMPTY);
            assert!(c.occupancy() <= c.capacity_lines());
        }
        assert_eq!(c.occupancy(), c.capacity_lines());
    }

    #[test]
    #[should_panic(expected = "not well formed")]
    fn bad_geometry_panics() {
        let _ = SectoredCache::new(3 * 128, 2);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn unaligned_capacity_panics() {
        let _ = SectoredCache::new(100, 2);
    }

    #[test]
    fn bad_geometry_yields_typed_error() {
        let err = SectoredCache::check_geometry("l2", 3 * 128, 2).unwrap_err();
        assert_eq!(err.field, "l2");
        assert!(err.message.contains("not well formed"));
        let err = SectoredCache::check_geometry("l1", 100, 2).unwrap_err();
        assert_eq!(err.field, "l1");
        assert!(err.message.contains("multiple of"));
        let err = SectoredCache::try_with_policy("l1", 100, 2, ReplacementPolicy::Lru).unwrap_err();
        assert_eq!(err.field, "l1");
    }

    #[test]
    fn try_with_policy_matches_with_policy() {
        let a = SectoredCache::with_policy(4 * 1024, 4, ReplacementPolicy::Srrip);
        let b = SectoredCache::try_with_policy("l1", 4 * 1024, 4, ReplacementPolicy::Srrip)
            .expect("valid geometry");
        assert_eq!(a.capacity_lines(), b.capacity_lines());
        assert_eq!(a.num_sets, b.num_sets);
        assert_eq!(a.set_mask, Some(a.num_sets - 1));
    }

    #[test]
    fn check_geometry_accepts_clamped_assoc() {
        // assoc larger than the line count degrades to fully associative;
        // the check must clamp the same way the constructor does.
        SectoredCache::check_geometry("md", 4 * 128, 64).expect("clamped to 4 ways");
        let _ = SectoredCache::new(4 * 128, 64);
    }

    #[test]
    fn srrip_protects_reused_lines_from_streaming() {
        // One set, 4 ways. A hot line is reused while a stream floods by;
        // under SRRIP the hot line survives, under LRU it is evicted.
        let hot = 0x0;
        let run = |policy: ReplacementPolicy| {
            let mut c = SectoredCache::with_policy(4 * 128, 4, policy);
            c.fill(hot, full(), SectorMask::EMPTY);
            let _ = c.probe(hot, full()); // establish reuse
            let mut hits = 0;
            let mut line = 1u64;
            for _ in 0..16 {
                // A streaming burst larger than the associativity...
                for _ in 0..6 {
                    c.fill(line * 128, full(), SectorMask::EMPTY);
                    line += 1;
                }
                // ...then the hot line is reused.
                if c.probe(hot, full()) == Probe::Hit {
                    hits += 1;
                }
            }
            hits
        };
        let lru_hits = run(ReplacementPolicy::Lru);
        let srrip_hits = run(ReplacementPolicy::Srrip);
        assert_eq!(lru_hits, 0, "LRU must thrash: the burst flushes the set");
        assert!(srrip_hits > lru_hits, "SRRIP ({srrip_hits}) must beat LRU ({lru_hits}) under thrash");
    }

    #[test]
    fn srrip_victims_are_stream_lines() {
        let mut c = SectoredCache::with_policy(4 * 128, 4, ReplacementPolicy::Srrip);
        c.fill(0x0, full(), SectorMask::EMPTY);
        let _ = c.probe(0x0, full()); // promote to rrpv 0
        for i in 1..=8u64 {
            c.fill(i * 128, full(), SectorMask::EMPTY);
        }
        assert_eq!(c.peek(0x0, full()), Probe::Hit, "promoted line survives");
    }

    #[test]
    fn default_policy_is_lru() {
        let c = SectoredCache::new(1024, 2);
        let d = SectoredCache::with_policy(1024, 2, ReplacementPolicy::default());
        assert_eq!(c.capacity_lines(), d.capacity_lines());
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    /// A one-line cache's state with the given tag and present flag.
    fn one_line_state(tag: Addr, present: bool) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_u64(tag);
        SectorMask::EMPTY.save(&mut w);
        SectorMask::EMPTY.save(&mut w);
        w.put_u64(0);
        w.put_u8(RRPV_MAX);
        w.put_bool(present);
        w.put_u64(0);
        CacheStats::default().save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restore_checks_tag_against_present_flag() {
        let mut c = SectoredCache::new(128, 1);
        for (tag, present, ok) in
            [(0, false, true), (0x80, true, true), (0x80, false, false), (EMPTY, true, false)]
        {
            let bytes = one_line_state(tag, present);
            let restored = c.restore_state(&mut Reader::new(&bytes));
            assert_eq!(restored.is_ok(), ok, "tag {tag:#x} present {present}: {restored:?}");
            if ok {
                let mut w = Writer::new();
                c.save_state(&mut w);
                assert_eq!(w.into_bytes(), bytes, "restore/save round trip");
            }
        }
    }

    #[test]
    fn non_power_of_two_sets_work() {
        // 6 KB, 8 ways -> 6 sets, like the unified metadata cache.
        let mut c = SectoredCache::new(6 * 1024, 8);
        assert_eq!(c.capacity_lines(), 48);
        assert_eq!(c.set_mask, None);
        for i in 0..200u64 {
            c.fill(i * 128, full(), SectorMask::EMPTY);
        }
        assert!(c.occupancy() <= 48);
    }

    /// [`CacheLevel::load`] without the memo: the cache and the MSHR file
    /// fully probed on every call.
    fn reference_load(
        cache: &mut SectoredCache,
        mshrs: &mut MshrFile<u32>,
        line: Addr,
        sectors: SectorMask,
        target: u32,
        room: bool,
    ) -> Load<u32> {
        let missing = match cache.peek(line, sectors) {
            Probe::Hit => {
                let _ = cache.probe(line, sectors);
                return Load::Hit(target);
            }
            Probe::PartialMiss(missing) => missing,
            Probe::Miss => sectors,
        };
        if !room {
            return Load::Refused(target);
        }
        let load = match mshrs.access(line, missing, target) {
            MshrOutcome::Full(target) => return Load::Refused(target),
            MshrOutcome::Allocated => Load::Fetch(missing),
            MshrOutcome::MergedNewSectors(new) => Load::Fetch(new),
            MshrOutcome::Merged => Load::Merged,
        };
        let _ = cache.probe(line, sectors);
        load
    }

    /// A level's checkpoint bytes: the cache, then the MSHR file.
    fn level_bytes(cache: &SectoredCache, mshrs: &MshrFile<u32>) -> Vec<u8> {
        let mut w = Writer::new();
        cache.save_state(&mut w);
        mshrs.save_state(&mut w);
        w.into_bytes()
    }

    /// Drives a `CacheLevel` and its memo-free reference with the same
    /// seeded loads (a head retried until accepted, with random room),
    /// fills, MSHR fills, writes, invalidations and restores, and demands
    /// the same outcomes, statistics and checkpoint bytes after every op.
    #[test]
    fn remembered_refusals_match_full_probes() {
        use crate::rng::Rng64;
        // Two 2-way sets and a 2-entry file merging 2: both kinds of
        // refusal are common, and fills often land on the refused line.
        let geometry = || (SectoredCache::new(4 * 128, 2), MshrFile::<u32>::new(2, 2));
        let (mut room_refusals, mut mshr_refusals) = (0, 0);
        for seed in 0..8u64 {
            let mut rng = Rng64::new(0xCAC4_E000 + seed);
            let (cache, mshrs) = geometry();
            let mut level = CacheLevel::new(cache, mshrs);
            let (mut cache, mut mshrs) = geometry();
            let mut head: Option<(Addr, SectorMask)> = None;
            let mut snapshot: Option<Vec<u8>> = None;
            let (mut out, mut out_ref) = (Vec::new(), Vec::new());
            for op in 0..4000u32 {
                let ctx = format!("seed {seed} op {op}");
                let sectors = SectorMask(1 + rng.gen_range(15) as u8);
                let line = match head {
                    Some((line, _)) if rng.one_in(2) => line,
                    _ => rng.gen_range(6) * 128,
                };
                match rng.gen_range(20) {
                    0..=10 => {
                        let (line, sectors) = *head.get_or_insert((line, sectors));
                        let room = !rng.one_in(3);
                        let got = level.load(line, sectors, op, || room);
                        let want = reference_load(&mut cache, &mut mshrs, line, sectors, op, room);
                        assert_eq!(got, want, "{ctx}");
                        match got {
                            Load::Refused(_) if room => mshr_refusals += 1,
                            Load::Refused(_) => room_refusals += 1,
                            _ => head = None,
                        }
                    }
                    11..=13 => {
                        let dirty = SectorMask(sectors.0 & rng.gen_range(16) as u8);
                        let got = level.cache_mut().fill(line, sectors, dirty);
                        assert_eq!(got, cache.fill(line, sectors, dirty), "{ctx}");
                    }
                    14..=16 => {
                        let got = level.mshrs_mut().note_fill(line, sectors, &mut out);
                        assert_eq!(got, mshrs.note_fill(line, sectors, &mut out_ref), "{ctx}");
                        assert_eq!(out, out_ref, "{ctx}");
                    }
                    17 => assert_eq!(
                        level.cache_mut().write(line, sectors),
                        cache.write(line, sectors),
                        "{ctx}"
                    ),
                    18 => {
                        level.cache_mut().invalidate_sectors(line, sectors);
                        cache.invalidate_sectors(line, sectors);
                    }
                    _ => match snapshot.take() {
                        None => snapshot = Some(level_bytes(level.cache(), level.mshrs())),
                        Some(bytes) => {
                            let mut r = Reader::new(&bytes);
                            level.cache_mut().restore_state(&mut r).expect("cache restores");
                            level.mshrs_mut().restore_state(&mut r).expect("MSHRs restore");
                            let mut r = Reader::new(&bytes);
                            cache.restore_state(&mut r).expect("reference cache restores");
                            mshrs.restore_state(&mut r).expect("reference MSHRs restore");
                        }
                    },
                }
                assert_eq!(level.cache().stats(), cache.stats(), "{ctx}");
                assert_eq!(level.mshrs().stats(), mshrs.stats(), "{ctx}");
                let same = level_bytes(level.cache(), level.mshrs()) == level_bytes(&cache, &mshrs);
                assert!(same, "checkpoint bytes diverged: {ctx}");
            }
        }
        let refusals = format!("refusals: {room_refusals} room, {mshr_refusals} MSHR");
        assert!(room_refusals > 1000 && mshr_refusals > 1000, "{refusals}");
    }

    #[test]
    fn line_count_mismatch_rejected() {
        let mut w = Writer::new();
        SectoredCache::new(512, 2).save_state(&mut w);
        let bytes = w.into_bytes();
        let err = SectoredCache::new(256, 2).restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, CheckpointError::Malformed("cache has 2 lines, checkpoint has 4".into()));
    }
}
