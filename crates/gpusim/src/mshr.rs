//! Miss-status holding registers (MSHRs).
//!
//! MSHRs track in-flight line fetches and merge *secondary misses* —
//! accesses to a line that has already been requested but has not yet
//! returned — so they do not generate redundant memory traffic. The paper
//! shows (§V-B) that GPU sectored L2 caches make secondary misses the
//! dominant class of metadata-cache misses (up to >90%), which makes
//! MSHRs essential for metadata caches.
//!
//! Lookups go through a line → slot hash index, not a scan of the slot
//! array. A 48- or 64-entry file looks tiny, but the metadata-cache files
//! sit full for most of a secure run and are probed on every retry, so a
//! linear scan paid for every key on every miss; and the idealized
//! (`Perfect`/`Infinite`) metadata stores size their single file at 2^20
//! entries. Slots are materialized lazily in index order and freed slots
//! are handed out lowest-index first, so the slot layout (and with it the
//! checkpoint bytes) is the one a first-free scan over a fully built array
//! would give, while an unused 2^20-entry file costs nothing. Freed slots
//! are found through a bitset with a hint at its lowest possibly nonzero
//! word: `trailing_zeros` of the first nonzero word from the hint is the
//! lowest free slot, so an allocation touches a word or two. Per-slot
//! target vectors keep their capacity across reuse, and fill progress is
//! tracked in the entry itself (`filled` mask), see
//! [`MshrFile::note_fill`].

use secmem_checkpoint::{snapshot_fields, CheckpointError, Reader, Snapshot, Writer};

use crate::hash::FastHashMap;
use crate::types::{Addr, SectorMask};

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome<T> {
    /// A new entry was allocated (primary miss): the caller must issue a
    /// memory request for the line's missing sectors.
    Allocated,
    /// Merged into an existing entry (secondary miss): no memory request
    /// needed; the target will be notified when the line returns.
    Merged,
    /// Merged into an existing entry, but the entry had not requested all
    /// of the sectors the new access needs: the caller must issue a memory
    /// request for the returned mask only.
    MergedNewSectors(SectorMask),
    /// The file (or the entry's merge capacity) is exhausted; the target
    /// is handed back so the caller can retry later without cloning.
    Full(T),
}

/// Outcome of noting a fill against the file (see [`MshrFile::note_fill`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// No entry tracks this line: the fill is not MSHR-mediated and the
    /// caller should apply it directly.
    Untracked,
    /// The entry is still waiting for more sectors.
    Partial,
    /// Every requested sector has now arrived: the entry was freed, its
    /// targets were drained to the caller, and the mask of sectors the
    /// entry had requested is returned.
    Complete(SectorMask),
}

/// MSHR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Primary misses (new entry allocated).
    pub primary: u64,
    /// Secondary misses merged into an existing entry.
    pub secondary: u64,
    /// Accesses rejected because the file or entry was full.
    pub stalls: u64,
}

impl MshrStats {
    /// Adds another file's counters into this one.
    pub fn merge(&mut self, other: &MshrStats) {
        let MshrStats { primary, secondary, stalls } = *other;
        self.primary += primary;
        self.secondary += secondary;
        self.stalls += stalls;
    }

    /// Fraction of misses that were secondary (0 when no misses).
    pub fn secondary_ratio(&self) -> f64 {
        let total = self.primary + self.secondary;
        if total == 0 {
            0.0
        } else {
            self.secondary as f64 / total as f64
        }
    }
}

/// Key sentinel for a free slot. Line addresses are line-aligned, so
/// `Addr::MAX` can never collide with a real key.
const FREE: Addr = Addr::MAX;

#[derive(Debug)]
struct Slot<T> {
    /// The line this slot tracks, or [`FREE`].
    key: Addr,
    requested: SectorMask,
    filled: SectorMask,
    /// Kept allocated across slot reuse (cleared, not dropped).
    targets: Vec<T>,
}

snapshot_fields!(impl<T> Slot<T> { key, requested, filled, targets });

impl<T> Slot<T> {
    /// A never-used slot: what every slot beyond the materialized prefix
    /// of the file holds.
    const PRISTINE: Self =
        Slot { key: FREE, requested: SectorMask::EMPTY, filled: SectorMask::EMPTY, targets: Vec::new() };

    fn is_pristine(&self) -> bool {
        self.key == FREE && self.requested.is_empty() && self.filled.is_empty() && self.targets.is_empty()
    }
}

/// An MSHR file with bounded entries and bounded merges per entry.
///
/// `T` is the caller's target token (e.g. a warp reference or transaction
/// id), returned when the fill completes.
///
/// Slots are materialized lazily, lowest index first: `slots` holds the
/// prefix of the file that has ever been allocated, and every slot at
/// `slots.len()..capacity` is pristine and free. Freed slots below
/// `slots.len()` are set bits in `free`, so allocation always takes the
/// lowest free slot index — the same layout a first-free scan of a fully
/// built array would produce.
#[derive(Debug)]
pub struct MshrFile<T> {
    slots: Vec<Slot<T>>,
    /// Line → slot of every live entry.
    index: FastHashMap<Addr, usize>,
    /// One bit per materialized slot, set while the slot is free.
    free: Vec<u64>,
    /// No word of `free` below this index has a bit set.
    free_hint: usize,
    capacity: usize,
    max_merge: usize,
    stats: MshrStats,
}

impl<T> MshrFile<T> {
    /// Creates a file with `capacity` entries, each merging at most
    /// `max_merge` targets (including the primary one). Allocates
    /// nothing: slots are materialized on first use.
    pub fn new(capacity: usize, max_merge: usize) -> Self {
        Self {
            slots: Vec::new(),
            index: FastHashMap::default(),
            free: Vec::new(),
            free_hint: 0,
            capacity,
            max_merge: max_merge.max(1),
            stats: MshrStats::default(),
        }
    }

    #[inline]
    fn find(&self, line_addr: Addr) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        self.index.get(&line_addr).copied()
    }

    /// The lowest free slot, materializing the next one when every
    /// materialized slot is live. `None` when the file is full.
    fn take_free_slot(&mut self) -> Option<usize> {
        let i = match self.free[self.free_hint..].iter().position(|&word| word != 0) {
            Some(offset) => {
                self.free_hint += offset;
                let word = &mut self.free[self.free_hint];
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                self.free_hint * 64 + bit
            }
            None => {
                self.free_hint = self.free.len();
                if self.slots.len() >= self.capacity {
                    return None;
                }
                self.slots.push(Slot::PRISTINE);
                if self.free.len() * 64 < self.slots.len() {
                    self.free.push(0);
                }
                self.slots.len() - 1
            }
        };
        debug_assert!(
            self.slots[..i].iter().all(|slot| slot.key != FREE),
            "slot {i} handed out while a lower slot is free"
        );
        Some(i)
    }

    /// Frees slot `i`, which tracks `line_addr`.
    fn release(&mut self, i: usize, line_addr: Addr) {
        self.slots[i].key = FREE;
        self.index.remove(&line_addr);
        self.free[i / 64] |= 1 << (i % 64);
        self.free_hint = self.free_hint.min(i / 64);
    }

    /// Presents a missing access. See [`MshrOutcome`].
    pub fn access(&mut self, line_addr: Addr, sectors: SectorMask, target: T) -> MshrOutcome<T> {
        if let Some(i) = self.find(line_addr) {
            let slot = &mut self.slots[i];
            if slot.targets.len() >= self.max_merge {
                self.stats.stalls += 1;
                return MshrOutcome::Full(target);
            }
            slot.targets.push(target);
            self.stats.secondary += 1;
            let missing = sectors.minus(slot.requested);
            if missing.is_empty() {
                MshrOutcome::Merged
            } else {
                slot.requested = slot.requested.union(missing);
                MshrOutcome::MergedNewSectors(missing)
            }
        } else if let Some(i) = self.take_free_slot() {
            self.index.insert(line_addr, i);
            let slot = &mut self.slots[i];
            slot.key = line_addr;
            slot.requested = sectors;
            slot.filled = SectorMask::EMPTY;
            slot.targets.clear();
            slot.targets.push(target);
            self.stats.primary += 1;
            MshrOutcome::Allocated
        } else {
            self.stats.stalls += 1;
            MshrOutcome::Full(target)
        }
    }

    /// True if [`Self::access`] would return [`MshrOutcome::Full`] for
    /// `line_addr`.
    pub fn refuses(&self, line_addr: Addr) -> bool {
        match self.find(line_addr) {
            Some(i) => self.slots[i].targets.len() >= self.max_merge,
            None => self.is_full(),
        }
    }

    /// Accounts `n` accesses the caller knows would return
    /// [`MshrOutcome::Full`] (nothing has been filled or completed since
    /// each last did) without looking a line up: the same stall count.
    pub fn note_stalls(&mut self, n: u64) {
        self.stats.stalls += n;
    }

    /// The targets merged into the line's in-flight entry, if any (used by
    /// callers asserting that a request id is never in flight twice).
    pub fn targets(&self, line_addr: Addr) -> Option<&[T]> {
        self.find(line_addr).map(|i| self.slots[i].targets.as_slice())
    }

    /// Records that `sectors` of `line_addr` have been filled, tracking
    /// partial progress in the entry itself. When the entry's entire
    /// requested mask has arrived, the entry is freed and its targets are
    /// drained into `targets_out` (appended; the caller's buffer is not
    /// cleared, and the slot keeps its target capacity). See
    /// [`FillOutcome`].
    pub fn note_fill(
        &mut self,
        line_addr: Addr,
        sectors: SectorMask,
        targets_out: &mut Vec<T>,
    ) -> FillOutcome {
        let Some(i) = self.find(line_addr) else { return FillOutcome::Untracked };
        let slot = &mut self.slots[i];
        slot.filled = slot.filled.union(sectors);
        if slot.filled.contains(slot.requested) {
            let requested = slot.requested;
            targets_out.append(&mut slot.targets);
            self.release(i, line_addr);
            FillOutcome::Complete(requested)
        } else {
            FillOutcome::Partial
        }
    }

    /// Completes a fill: removes the entry and returns the sectors that
    /// were requested plus all merged targets. Returns `None` if the line
    /// had no entry (e.g. a prefetch or a zero-capacity file).
    pub fn complete(&mut self, line_addr: Addr) -> Option<(SectorMask, Vec<T>)> {
        let i = self.find(line_addr)?;
        self.release(i, line_addr);
        let slot = &mut self.slots[i];
        Some((slot.requested, std::mem::take(&mut slot.targets)))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if no new entry can be allocated.
    pub fn is_full(&self) -> bool {
        self.index.len() >= self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Resets statistics (entries preserved).
    pub fn reset_stats(&mut self) {
        self.stats = MshrStats::default();
    }
}

impl<T: Snapshot> MshrFile<T> {
    /// Serializes the file **slot-by-slot, index-preserving**: allocation
    /// takes the lowest free slot, so the exact slot layout (not just the
    /// set of live entries) determines future allocation order and must
    /// survive a checkpoint byte-for-byte. All `capacity` slots are
    /// written; the ones never materialized are written pristine.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.capacity);
        for slot in &self.slots {
            slot.save(w);
        }
        let pristine = Slot::<T>::PRISTINE;
        for _ in self.slots.len()..self.capacity {
            pristine.save(w);
        }
        self.stats.save(w);
    }

    /// Restores state saved by [`MshrFile::save_state`] into a file
    /// rebuilt with identical capacity. Only the prefix up to the last
    /// non-pristine slot is materialized.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on a capacity mismatch or a line
    /// tracked by two slots; any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        r.expect_count("MSHR file", "slots", self.capacity)?;
        self.slots.clear();
        self.index.clear();
        for i in 0..self.capacity {
            let slot = Slot::load(r)?;
            if slot.is_pristine() {
                continue;
            }
            while self.slots.len() < i {
                self.slots.push(Slot::PRISTINE);
            }
            if slot.key != FREE && self.index.insert(slot.key, i).is_some() {
                return Err(CheckpointError::Malformed(format!(
                    "MSHR line {:#x} is tracked by two slots",
                    slot.key
                )));
            }
            self.slots.push(slot);
        }
        self.free = vec![0; self.slots.len().div_ceil(64)];
        self.free_hint = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.key == FREE {
                self.free[i / 64] |= 1 << (i % 64);
            }
        }
        self.stats = MshrStats::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FULL_SECTOR_MASK;

    #[test]
    fn allocate_then_merge() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        assert_eq!(m.access(0x80, SectorMask::single(0), 1), MshrOutcome::Allocated);
        assert_eq!(m.access(0x80, SectorMask::single(0), 2), MshrOutcome::Merged);
        assert_eq!(
            m.access(0x80, SectorMask::single(2), 3),
            MshrOutcome::MergedNewSectors(SectorMask::single(2))
        );
        let (sectors, targets) = m.complete(0x80).expect("entry exists");
        assert_eq!(sectors, SectorMask(0b0101));
        assert_eq!(targets, vec![1, 2, 3]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_limit() {
        let mut m: MshrFile<()> = MshrFile::new(2, 8);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, ()), MshrOutcome::Allocated);
        assert_eq!(m.access(0x80, FULL_SECTOR_MASK, ()), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.access(0x100, FULL_SECTOR_MASK, ()), MshrOutcome::Full(()));
        // Merging into existing entries still works when full.
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, ()), MshrOutcome::Merged);
        assert_eq!(m.stats().stalls, 1);
    }

    #[test]
    fn merge_limit() {
        let mut m: MshrFile<u8> = MshrFile::new(2, 2);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 0), MshrOutcome::Allocated);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 1), MshrOutcome::Merged);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 2), MshrOutcome::Full(2));
        assert_eq!(m.stats().secondary, 1);
    }

    #[test]
    fn full_hands_the_target_back() {
        let mut m: MshrFile<String> = MshrFile::new(0, 1);
        match m.access(0x0, FULL_SECTOR_MASK, "payload".to_string()) {
            MshrOutcome::Full(t) => assert_eq!(t, "payload"),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn secondary_ratio() {
        let mut m: MshrFile<u8> = MshrFile::new(8, 8);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 0);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 1);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 2);
        let _ = m.access(0x80, FULL_SECTOR_MASK, 3);
        assert!((m.stats().secondary_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let mut m: MshrFile<u8> = MshrFile::new(2, 2);
        assert!(m.complete(0x40).is_none());
    }

    #[test]
    fn zero_capacity_always_full() {
        let mut m: MshrFile<u8> = MshrFile::new(0, 1);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 0), MshrOutcome::Full(0));
    }

    #[test]
    fn note_fill_tracks_partial_progress() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        let mut out = Vec::new();
        // Untracked line: caller applies the fill directly.
        assert_eq!(m.note_fill(0x80, SectorMask::single(0), &mut out), FillOutcome::Untracked);
        assert!(out.is_empty());
        // Entry wanting two sectors completes only when both arrive.
        assert_eq!(m.access(0x80, SectorMask(0b0011), 7), MshrOutcome::Allocated);
        assert_eq!(m.note_fill(0x80, SectorMask::single(0), &mut out), FillOutcome::Partial);
        assert!(out.is_empty());
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.note_fill(0x80, SectorMask::single(1), &mut out),
            FillOutcome::Complete(SectorMask(0b0011))
        );
        assert_eq!(out, vec![7]);
        assert!(m.is_empty());
    }

    #[test]
    fn reused_slot_starts_with_clean_fill_state() {
        let mut m: MshrFile<u32> = MshrFile::new(1, 8);
        let mut out = Vec::new();
        assert_eq!(m.access(0x0, SectorMask(0b0011), 1), MshrOutcome::Allocated);
        assert_eq!(m.note_fill(0x0, SectorMask(0b0011), &mut out), FillOutcome::Complete(SectorMask(0b0011)));
        out.clear();
        // The reused slot must not inherit the previous entry's fill mask.
        assert_eq!(m.access(0x100, SectorMask(0b0011), 2), MshrOutcome::Allocated);
        assert_eq!(m.note_fill(0x100, SectorMask::single(0), &mut out), FillOutcome::Partial);
        assert!(out.is_empty());
    }

    /// The linear-scan MSHR file the indexed one replaced: a fully built
    /// slot array searched key by key, kept as the behavioural oracle.
    mod reference {
        use super::super::{FillOutcome, MshrOutcome, MshrStats, FREE};
        use crate::types::{Addr, SectorMask};
        use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

        struct Slot {
            requested: SectorMask,
            filled: SectorMask,
            targets: Vec<u32>,
        }

        pub struct LinearMshrFile {
            keys: Vec<Addr>,
            slots: Vec<Slot>,
            live: usize,
            max_merge: usize,
            stats: MshrStats,
        }

        impl LinearMshrFile {
            pub fn new(capacity: usize, max_merge: usize) -> Self {
                let slots = (0..capacity)
                    .map(|_| Slot {
                        requested: SectorMask::EMPTY,
                        filled: SectorMask::EMPTY,
                        targets: Vec::new(),
                    })
                    .collect();
                Self {
                    keys: vec![FREE; capacity],
                    slots,
                    live: 0,
                    max_merge: max_merge.max(1),
                    stats: MshrStats::default(),
                }
            }

            fn find(&self, line_addr: Addr) -> Option<usize> {
                self.keys.iter().position(|&k| k == line_addr)
            }

            pub fn access(&mut self, line_addr: Addr, sectors: SectorMask, target: u32) -> MshrOutcome<u32> {
                if let Some(i) = self.find(line_addr) {
                    let slot = &mut self.slots[i];
                    if slot.targets.len() >= self.max_merge {
                        self.stats.stalls += 1;
                        return MshrOutcome::Full(target);
                    }
                    slot.targets.push(target);
                    self.stats.secondary += 1;
                    let missing = sectors.minus(slot.requested);
                    if missing.is_empty() {
                        MshrOutcome::Merged
                    } else {
                        slot.requested = slot.requested.union(missing);
                        MshrOutcome::MergedNewSectors(missing)
                    }
                } else if let Some(i) = self.keys.iter().position(|&k| k == FREE) {
                    self.keys[i] = line_addr;
                    let slot = &mut self.slots[i];
                    slot.requested = sectors;
                    slot.filled = SectorMask::EMPTY;
                    slot.targets.clear();
                    slot.targets.push(target);
                    self.live += 1;
                    self.stats.primary += 1;
                    MshrOutcome::Allocated
                } else {
                    self.stats.stalls += 1;
                    MshrOutcome::Full(target)
                }
            }

            pub fn note_fill(
                &mut self,
                line_addr: Addr,
                sectors: SectorMask,
                out: &mut Vec<u32>,
            ) -> FillOutcome {
                let Some(i) = self.find(line_addr) else { return FillOutcome::Untracked };
                let slot = &mut self.slots[i];
                slot.filled = slot.filled.union(sectors);
                if slot.filled.contains(slot.requested) {
                    self.keys[i] = FREE;
                    out.append(&mut slot.targets);
                    self.live -= 1;
                    FillOutcome::Complete(slot.requested)
                } else {
                    FillOutcome::Partial
                }
            }

            pub fn complete(&mut self, line_addr: Addr) -> Option<(SectorMask, Vec<u32>)> {
                let i = self.find(line_addr)?;
                self.keys[i] = FREE;
                self.live -= 1;
                let slot = &mut self.slots[i];
                Some((slot.requested, std::mem::take(&mut slot.targets)))
            }

            pub fn len(&self) -> usize {
                self.live
            }

            pub fn stats(&self) -> MshrStats {
                self.stats
            }

            pub fn save_state(&self, w: &mut Writer) {
                w.put_usize(self.keys.len());
                for (key, slot) in self.keys.iter().zip(&self.slots) {
                    w.put_u64(*key);
                    slot.requested.save(w);
                    slot.filled.save(w);
                    slot.targets.save(w);
                }
                self.stats.save(w);
            }

            pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
                assert_eq!(r.get_usize()?, self.keys.len());
                self.live = 0;
                for (key, slot) in self.keys.iter_mut().zip(&mut self.slots) {
                    *key = r.get_u64()?;
                    slot.requested = SectorMask::load(r)?;
                    slot.filled = SectorMask::load(r)?;
                    slot.targets = Vec::load(r)?;
                    self.live += usize::from(*key != FREE);
                }
                self.stats = MshrStats::load(r)?;
                Ok(())
            }
        }
    }

    fn state_bytes<T: Snapshot>(m: &MshrFile<T>) -> Vec<u8> {
        let mut w = Writer::new();
        m.save_state(&mut w);
        w.into_bytes()
    }

    /// Drives the indexed file and the linear-scan reference with the same
    /// seeded op sequence and demands identical outcomes, drained targets
    /// and checkpoint bytes after every op.
    #[test]
    fn indexed_file_matches_the_linear_scan_reference() {
        use crate::rng::Rng64;
        use reference::LinearMshrFile;
        // (capacity, distinct lines, ops, merge limits): the 2^20 file is
        // the idealized metadata store's; it never fills, and every save
        // writes 2^20 slots, so it gets one short run.
        let cases: [(usize, u64, usize, &[usize]); 4] = [
            (1, 3, 3000, &[1, 3, 8]),
            (48, 64, 3000, &[1, 3, 8]),
            (64, 96, 3000, &[1, 3, 8]),
            (1 << 20, 48, 60, &[3]),
        ];
        for (case, &(capacity, lines, ops, merges)) in cases.iter().enumerate() {
            for &max_merge in merges {
                let seed = 0x5EED_0000 + (case as u64) * 16 + max_merge as u64;
                let mut rng = Rng64::new(seed);
                let mut fast: MshrFile<u32> = MshrFile::new(capacity, max_merge);
                let mut slow = LinearMshrFile::new(capacity, max_merge);
                let (mut out_fast, mut out_slow) = (Vec::new(), Vec::new());
                for op in 0..ops {
                    let ctx = format!("capacity {capacity} merge {max_merge} seed {seed:#x} op {op}");
                    let line = rng.gen_range(lines) * 128;
                    let sectors = SectorMask(rng.gen_range(16) as u8);
                    match rng.gen_range(20) {
                        0..=10 => {
                            let t = op as u32;
                            let refuses = fast.refuses(line);
                            let got = fast.access(line, sectors, t);
                            assert_eq!(got, slow.access(line, sectors, t), "{ctx}");
                            assert_eq!(matches!(got, MshrOutcome::Full(_)), refuses, "{ctx}");
                        }
                        11..=16 => {
                            let got = fast.note_fill(line, sectors, &mut out_fast);
                            assert_eq!(got, slow.note_fill(line, sectors, &mut out_slow), "{ctx}");
                            assert_eq!(out_fast, out_slow, "{ctx}");
                        }
                        17..=18 => assert_eq!(fast.complete(line), slow.complete(line), "{ctx}"),
                        _ => {
                            let bytes = state_bytes(&fast);
                            fast = MshrFile::new(capacity, max_merge);
                            slow = LinearMshrFile::new(capacity, max_merge);
                            fast.restore_state(&mut Reader::new(&bytes)).expect("restore indexed");
                            slow.restore_state(&mut Reader::new(&bytes)).expect("restore reference");
                        }
                    }
                    assert_eq!(fast.len(), slow.len(), "{ctx}");
                    assert_eq!(fast.is_full(), slow.len() >= capacity, "{ctx}");
                    assert_eq!(fast.stats(), slow.stats(), "{ctx}");
                    let mut w = Writer::new();
                    slow.save_state(&mut w);
                    assert!(state_bytes(&fast) == w.into_bytes(), "checkpoint bytes diverged: {ctx}");
                }
            }
        }
    }

    /// Sweeps a three-word file between nearly empty and full, checking
    /// every allocation against a first-free scan of a slot → line table
    /// that is carried across save/restore.
    #[test]
    fn free_slot_bitset_hands_out_the_first_free_slot() {
        use crate::rng::Rng64;
        let capacity = 150;
        let mut rng = Rng64::new(0xB175E7);
        let mut m: MshrFile<u32> = MshrFile::new(capacity, 1);
        let mut table: Vec<Option<Addr>> = vec![None; capacity];
        for op in 0..40_000u32 {
            // Alternate alloc-heavy and free-heavy phases.
            let alloc_pct = if (op / 2000) % 2 == 0 { 85 } else { 5 };
            let line = rng.gen_range(200) * 128;
            let roll = rng.gen_range(100);
            if roll == 0 {
                let bytes = state_bytes(&m);
                m = MshrFile::new(capacity, 1);
                m.restore_state(&mut Reader::new(&bytes)).expect("restores");
            } else if roll < alloc_pct {
                let first_free = table.iter().position(Option::is_none);
                match m.access(line, FULL_SECTOR_MASK, op) {
                    MshrOutcome::Allocated => {
                        let slot = m.find(line).expect("allocated line is indexed");
                        assert_eq!(Some(slot), first_free, "op {op}");
                        table[slot] = Some(line);
                    }
                    MshrOutcome::Full(_) => {
                        assert!(first_free.is_none() || table.contains(&Some(line)), "op {op}")
                    }
                    other => panic!("op {op}: unexpected {other:?} with one merge per entry"),
                }
            } else if let Some(slot) = m.find(line) {
                assert_eq!(table[slot], Some(line), "op {op}");
                m.complete(line).expect("live entry completes");
                table[slot] = None;
            }
        }
    }

    #[test]
    fn new_file_allocates_nothing_until_used() {
        let mut m: MshrFile<u32> = MshrFile::new(1 << 20, 4);
        assert_eq!(m.slots.capacity(), 0);
        assert_eq!(m.access(0x80, FULL_SECTOR_MASK, 1), MshrOutcome::Allocated);
        assert_eq!(m.slots.len(), 1, "one slot materialized per live entry");
    }

    #[test]
    fn restore_rejects_a_line_tracked_twice() {
        let mut m: MshrFile<u32> = MshrFile::new(2, 4);
        let _ = m.access(0x80, FULL_SECTOR_MASK, 1);
        let _ = m.access(0x100, FULL_SECTOR_MASK, 2);
        let mut bytes = state_bytes(&m);
        // Make slot 1 claim slot 0's line.
        let slot1_key = bytes.windows(8).rposition(|w| w == 0x100u64.to_le_bytes()).expect("slot 1 key");
        bytes[slot1_key..slot1_key + 8].copy_from_slice(&0x80u64.to_le_bytes());
        let mut fresh: MshrFile<u32> = MshrFile::new(2, 4);
        assert!(matches!(fresh.restore_state(&mut Reader::new(&bytes)), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn targets_exposes_merged_entries() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        assert!(m.targets(0x0).is_none());
        let _ = m.access(0x0, FULL_SECTOR_MASK, 10);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 11);
        assert_eq!(m.targets(0x0), Some(&[10, 11][..]));
    }

    #[test]
    fn slot_count_mismatch_rejected() {
        let mut w = Writer::new();
        MshrFile::<u32>::new(8, 4).save_state(&mut w);
        let bytes = w.into_bytes();
        let err = MshrFile::<u32>::new(4, 4).restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, CheckpointError::Malformed("MSHR file has 4 slots, checkpoint has 8".into()));
    }
}
