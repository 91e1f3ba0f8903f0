//! A memory partition: sectored L2 banks in front of a memory backend
//! (bare DRAM for the baseline, or a secure memory engine).
//!
//! Each of the GPU's 32 partitions owns 2 × 96 KB L2 banks with MSHRs,
//! each bank a `cache::CacheLevel` (the same load-miss path as the L1).
//! Loads that miss go to the backend; dirty sector evictions and stores
//! that miss (write-validate) generate backend writes. Because the L2 is
//! sectored, a stream of 32 B sector misses to one 128 B line reaches the
//! backend as four separate accesses — the effect that makes metadata-cache
//! MSHRs essential (§V-B of the paper).

use std::collections::VecDeque;

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

use crate::backend::MemoryBackend;
use crate::cache::{CacheLevel, CacheStats, Load, SectoredCache, WriteOutcome};
use crate::config::{AddressMap, GpuConfig};
use crate::icnt::DelayQueue;
use crate::mshr::{MshrFile, MshrStats};
use crate::types::{AccessKind, Addr, BackendReq, Cycle, MemRequest, SectorMask};

#[derive(Debug)]
struct L2Bank {
    /// The bank's cache and MSHRs; it remembers why the `input` head was
    /// last refused when that head is a load to this bank.
    level: CacheLevel<MemRequest>,
    hit_delay: DelayQueue<MemRequest>,
}

impl L2Bank {
    fn new(cfg: &GpuConfig) -> Self {
        Self {
            level: CacheLevel::new(
                SectoredCache::new(cfg.l2_bytes_per_bank, cfg.l2_assoc),
                MshrFile::new(cfg.l2_mshrs as usize, cfg.l2_mshr_merge as usize),
            ),
            hit_delay: DelayQueue::new(cfg.l2_latency, 4, usize::MAX),
        }
    }
}

/// A memory partition (L2 banks + backend).
#[derive(Debug)]
pub struct MemPartition<B> {
    id: u32,
    map: AddressMap,
    banks: Vec<L2Bank>,
    backend: B,
    /// Incoming requests staged from the interconnect (bounded; check
    /// [`MemPartition::input_full`] before pushing).
    pub input: VecDeque<MemRequest>,
    input_cap: usize,
    /// Completed responses awaiting the interconnect (drained by the simulator).
    pub responses: Vec<MemRequest>,
    /// Dirty evictions awaiting a free DRAM queue slot. Drained before new
    /// reads are accepted so writebacks are never starved.
    wb_buffer: VecDeque<BackendReq>,
    wb_cap: usize,
    next_backend_id: u64,
    accept_per_cycle: u32,
}

impl<B: MemoryBackend> MemPartition<B> {
    /// Creates partition `id` with the given backend.
    pub fn new(id: u32, cfg: &GpuConfig, backend: B) -> Self {
        Self {
            id,
            map: AddressMap::new(cfg),
            banks: (0..cfg.l2_banks_per_partition).map(|_| L2Bank::new(cfg)).collect(),
            backend,
            input: VecDeque::new(),
            input_cap: 8,
            responses: Vec::new(),
            wb_buffer: VecDeque::new(),
            wb_cap: 16,
            next_backend_id: (id as u64) << 48,
            accept_per_cycle: cfg.icnt_flit_per_cycle.max(cfg.l2_banks_per_partition),
        }
    }

    /// The backend (for statistics inspection).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Attaches a telemetry sink, forwarded to the backend (and its DRAM
    /// channel) stamped with this partition's id.
    pub fn set_telemetry(&mut self, telemetry: secmem_telemetry::Telemetry) {
        self.backend.set_telemetry(telemetry, self.id);
    }

    /// Metadata-cache MSHR occupancy reported by the backend (zero for
    /// backends without metadata caches).
    pub fn meta_mshr_occupancy(&self) -> usize {
        self.backend.meta_mshr_occupancy()
    }

    /// Requests staged from the interconnect (sampling probe).
    pub fn input_occupancy(&self) -> usize {
        self.input.len()
    }

    /// Aggregated L2 cache statistics across banks.
    pub fn l2_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            total.merge(&b.level.cache().stats());
        }
        total
    }

    /// L2 accesses (hits plus misses) across banks.
    pub fn l2_accesses(&self) -> u64 {
        self.banks.iter().map(|b| b.level.cache().stats().accesses()).sum()
    }

    /// Aggregated L2 MSHR statistics across banks.
    pub fn l2_mshr_stats(&self) -> MshrStats {
        let mut total = MshrStats::default();
        for b in &self.banks {
            total.merge(&b.level.mshrs().stats());
        }
        total
    }

    fn bank_index(&self, addr: Addr) -> usize {
        self.map.bank_of(addr) as usize
    }

    /// Attempts to consume the `input` head, taking ownership so the
    /// accept path never clones. On a resource stall the request is handed
    /// back in `Err` and must go back to the head of `input`.
    fn try_accept(&mut self, now: Cycle, req: MemRequest) -> Result<(), MemRequest> {
        let bank_idx = self.bank_index(req.line_addr);
        let bank = &mut self.banks[bank_idx];
        let (line_addr, sectors) = (req.line_addr, req.sectors);
        match req.kind {
            AccessKind::Load => {
                debug_assert!(
                    bank.level.mshrs().targets(line_addr).is_none_or(|t| t.iter().all(|t| t.id != req.id)),
                    "request id {} is already in flight in an L2 MSHR entry",
                    req.id
                );
                let backend = &self.backend;
                match bank.level.load(line_addr, sectors, req, || backend.can_accept_read()) {
                    Load::Hit(req) => {
                        let pushed = bank.hit_delay.try_push(now, req);
                        debug_assert!(pushed.is_ok(), "hit queue is unbounded");
                    }
                    Load::Refused(req) => return Err(req),
                    Load::Merged => {}
                    // The L2 is sectored: each missing 32 B sector goes to
                    // the memory side as its own request (this is what
                    // produces the 1-primary + N-secondary metadata-cache
                    // miss pattern of §V-B).
                    Load::Fetch(to_fetch) => {
                        for sector in to_fetch.iter() {
                            let id = self.next_backend_id();
                            self.backend.submit_read(
                                now,
                                BackendReq {
                                    id,
                                    line_addr,
                                    sectors: SectorMask::single(sector),
                                    bank: crate::narrow::usize_to_u32(bank_idx, "bank index < bank count"),
                                },
                            );
                        }
                    }
                }
                Ok(())
            }
            AccessKind::Store => {
                if bank.level.cache_mut().write(line_addr, sectors) == WriteOutcome::Hit {
                    return Ok(());
                }
                // Write-validate: install the sectors dirty without
                // fetching, possibly evicting a dirty victim into the
                // writeback buffer.
                if self.wb_buffer.len() >= self.wb_cap {
                    return Err(req);
                }
                if let Some(ev) = bank.level.cache_mut().fill(line_addr, sectors, sectors) {
                    if !ev.dirty.is_empty() {
                        let id = self.next_backend_id();
                        self.wb_buffer.push_back(BackendReq {
                            id,
                            line_addr: ev.line_addr,
                            sectors: ev.dirty,
                            bank: crate::narrow::usize_to_u32(bank_idx, "bank index < bank count"),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    fn next_backend_id(&mut self) -> u64 {
        self.next_backend_id += 1;
        self.next_backend_id
    }

    /// True if the staging queue cannot take another request.
    pub fn input_full(&self) -> bool {
        self.input.len() >= self.input_cap
    }

    /// Dirty lines currently waiting in the writeback buffer (stall
    /// diagnostics).
    pub fn wb_occupancy(&self) -> usize {
        self.wb_buffer.len()
    }

    /// Outstanding L2 MSHR entries across all banks (stall diagnostics).
    pub fn mshr_occupancy(&self) -> usize {
        self.banks.iter().map(|b| b.level.mshrs().len()).sum()
    }

    /// Advances the partition one cycle, consuming staged requests as
    /// resources allow.
    pub fn cycle(&mut self, now: Cycle) {
        // 1. Advance the backend first so freed DRAM slots are visible.
        self.backend.cycle(now);

        // 2. Writebacks get first claim on backend write slots.
        while self.backend.can_accept_write() {
            let Some(wb) = self.wb_buffer.pop_front() else { break };
            self.backend.submit_write(now, wb);
        }

        // 3. Drain backend read completions into L2 fills (stall only when
        //    the writeback buffer is full).
        while self.wb_buffer.len() < self.wb_cap {
            let Some(fill) = self.backend.pop_read_response() else { break };
            self.apply_fill(&fill);
        }

        // 4. Accept as many incoming requests as resources allow; a
        //    rejected request goes back to the queue head untouched.
        for _ in 0..self.accept_per_cycle {
            let Some(req) = self.input.pop_front() else { break };
            if let Err(req) = self.try_accept(now, req) {
                self.input.push_front(req);
                break;
            }
        }

        // 5. Retire L2 hits whose latency elapsed.
        for bank in &mut self.banks {
            while let Some(resp) = bank.hit_delay.pop(now) {
                self.responses.push(resp);
            }
        }
    }

    /// Applies one backend fill to its L2 bank; dirty evictions land in
    /// the writeback buffer.
    fn apply_fill(&mut self, fill: &BackendReq) {
        let bank = &mut self.banks[fill.bank as usize];
        if let Some(ev) = bank.level.cache_mut().fill(fill.line_addr, fill.sectors, SectorMask::EMPTY) {
            if !ev.dirty.is_empty() {
                self.next_backend_id += 1;
                let id = self.next_backend_id;
                self.wb_buffer.push_back(BackendReq {
                    id,
                    line_addr: ev.line_addr,
                    sectors: ev.dirty,
                    bank: fill.bank,
                });
            }
        }
        // Fill progress is tracked inside the MSHR entry itself; a
        // completed entry drains its merged targets straight into the
        // response list without any intermediate allocation.
        let bank = &mut self.banks[fill.bank as usize];
        let _ = bank.level.mshrs_mut().note_fill(fill.line_addr, fill.sectors, &mut self.responses);
    }

    /// Earliest cycle at or after `now` at which this partition can make
    /// progress: staged input or pending responses (immediate), a
    /// writeback the backend can take, an L2 hit completing its latency,
    /// or any backend/DRAM event. `None` when fully drained. Used by the
    /// idle-skip scheduler. A writeback stalled on a full backend is
    /// covered by the backend's own next event (the cycle a queue slot
    /// frees).
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // Every merge below clamps to `now`, so any immediate event
        // short-circuits: nothing can beat `now`.
        if !self.input.is_empty() || !self.responses.is_empty() {
            return Some(now);
        }
        if !self.wb_buffer.is_empty() && self.backend.can_accept_write() {
            return Some(now);
        }
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        for bank in &self.banks {
            if let Some(r) = bank.hit_delay.next_ready_at() {
                merge(r.max(now));
            }
        }
        if let Some(c) = self.backend.next_event_cycle(now) {
            merge(c);
        }
        next
    }

    /// True when no work remains anywhere in the partition.
    pub fn is_idle(&self) -> bool {
        self.backend.is_idle()
            && self.input.is_empty()
            && self.wb_buffer.is_empty()
            && self.responses.is_empty()
            && self.banks.iter().all(|b| b.level.mshrs().is_empty() && b.hit_delay.is_empty())
    }

    /// Partition id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Resets statistics (cache contents and queues preserved).
    pub fn reset_stats(&mut self) {
        for bank in &mut self.banks {
            bank.level.cache_mut().reset_stats();
            bank.level.mshrs_mut().reset_stats();
        }
        self.backend.reset_stats();
    }

    /// Serializes the partition's complete mutable state: every L2 bank
    /// (cache contents, MSHRs, hit-latency queue), the backend, and the
    /// staging/response/writeback queues.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            bank.level.cache().save_state(w);
            bank.level.mshrs().save_state(w);
            bank.hit_delay.save_state(w);
        }
        self.backend.save_state(w);
        self.input.save(w);
        self.responses.save(w);
        self.wb_buffer.save(w);
        w.put_u64(self.next_backend_id);
    }

    /// Restores state saved by [`MemPartition::save_state`] into a
    /// partition rebuilt from the same configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on a bank-count mismatch or a queue
    /// that exceeds its capacity; any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let banks = r.get_usize()?;
        if banks != self.banks.len() {
            return Err(CheckpointError::Malformed(format!(
                "partition {} has {} L2 banks, checkpoint has {banks}",
                self.id,
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.level.cache_mut().restore_state(r)?;
            bank.level.mshrs_mut().restore_state(r)?;
            bank.hit_delay.restore_state(r)?;
        }
        self.backend.restore_state(r)?;
        let input: VecDeque<MemRequest> = VecDeque::load(r)?;
        if input.len() > self.input_cap {
            return Err(CheckpointError::Malformed(format!(
                "partition input holds {} requests but capacity is {}",
                input.len(),
                self.input_cap
            )));
        }
        self.input = input;
        self.responses = Vec::load(r)?;
        let wb: VecDeque<BackendReq> = VecDeque::load(r)?;
        if wb.len() > self.wb_cap {
            return Err(CheckpointError::Malformed(format!(
                "writeback buffer holds {} requests but capacity is {}",
                wb.len(),
                self.wb_cap
            )));
        }
        self.wb_buffer = wb;
        self.next_backend_id = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PassthroughBackend;
    use crate::types::{WarpRef, FULL_SECTOR_MASK};

    fn cfg() -> GpuConfig {
        GpuConfig::small()
    }

    fn partition() -> MemPartition<PassthroughBackend> {
        let c = cfg();
        MemPartition::new(0, &c, PassthroughBackend::from_config(&c))
    }

    fn load(id: u64, addr: Addr) -> MemRequest {
        MemRequest {
            id,
            line_addr: addr,
            sectors: SectorMask::single(0),
            kind: AccessKind::Load,
            warp: Some(WarpRef { sm: 0, warp: 0 }),
        }
    }

    fn store(id: u64, addr: Addr) -> MemRequest {
        MemRequest { id, line_addr: addr, sectors: FULL_SECTOR_MASK, kind: AccessKind::Store, warp: None }
    }

    /// Drives the partition with a one-shot queue of requests.
    fn run(p: &mut MemPartition<PassthroughBackend>, reqs: Vec<MemRequest>, cycles: u64) -> Vec<MemRequest> {
        let mut queue = VecDeque::from(reqs);
        let mut out = Vec::new();
        for now in 0..cycles {
            while !p.input_full() {
                let Some(r) = queue.pop_front() else { break };
                p.input.push_back(r);
            }
            p.cycle(now);
            out.append(&mut p.responses);
        }
        out
    }

    #[test]
    fn load_miss_roundtrip() {
        let mut p = partition();
        let resps = run(&mut p, vec![load(1, 0x0)], 400);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].id, 1);
        assert!(p.is_idle());
        assert_eq!(p.backend().dram_stats().class(crate::types::TrafficClass::Data).reads, 1);
    }

    #[test]
    fn second_load_hits_in_l2() {
        let mut p = partition();
        let r1 = run(&mut p, vec![load(1, 0x0)], 400);
        assert_eq!(r1.len(), 1);
        let r2 = run(&mut p, vec![load(2, 0x0)], 400);
        assert_eq!(r2.len(), 1);
        assert_eq!(
            p.backend().dram_stats().class(crate::types::TrafficClass::Data).reads,
            1,
            "second load must not reach DRAM"
        );
        assert_eq!(p.l2_stats().hits, 1);
    }

    #[test]
    fn store_write_validate_no_dram_read() {
        let mut p = partition();
        let resps = run(&mut p, vec![store(1, 0x100)], 200);
        assert!(resps.is_empty(), "stores get no response");
        let stats = p.backend().dram_stats().class(crate::types::TrafficClass::Data);
        assert_eq!(stats.reads, 0, "write-validate must not fetch");
        assert_eq!(stats.writes, 0, "no eviction yet, data still cached dirty");
        // A read of the stored line hits.
        let r = run(&mut p, vec![load(2, 0x100)], 200);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let c = cfg();
        let mut p = partition();
        // Fill one L2 set with dirty lines until eviction: bank 0 lines
        // stride by interleave * partitions * banks... simply store to many
        // lines mapping to bank 0 and count writes eventually.
        let lines = (c.l2_bytes_per_bank / 128) * 4; // 4x overcommit
        let mut reqs = Vec::new();
        for i in 0..lines {
            // partition-0, bank-0 addresses: chunk index multiple of
            // partitions*banks when interleave=256 (2 lines per chunk).
            let chunk = i * c.num_partitions as u64 * 2;
            let addr = chunk * c.interleave_bytes;
            reqs.push(store(i, addr));
        }
        let n = reqs.len() as u64;
        let _ = run(&mut p, reqs, n * 40 + 2000);
        let stats = p.backend().dram_stats().class(crate::types::TrafficClass::Data);
        assert!(stats.writes > 0, "dirty evictions must write back");
    }

    #[test]
    fn responses_preserve_request_identity() {
        let mut p = partition();
        let mut req = load(77, 0x2000);
        req.sectors = SectorMask(0b0011);
        let resps = run(&mut p, vec![req.clone()], 500);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].id, 77);
        assert_eq!(resps[0].sectors, SectorMask(0b0011));
        assert_eq!(resps[0].warp, req.warp);
    }

    #[test]
    fn sectored_l2_splits_backend_reads_per_sector() {
        let mut p = partition();
        let mut req = load(1, 0x0);
        req.sectors = FULL_SECTOR_MASK;
        let resps = run(&mut p, vec![req], 500);
        assert_eq!(resps.len(), 1);
        // One L2 line miss with 4 sectors -> four 32 B DRAM reads (SS V-B).
        let stats = p.backend().dram_stats().class(crate::types::TrafficClass::Data);
        assert_eq!(stats.reads, 4);
        assert_eq!(stats.bytes_read, 128);
    }

    #[test]
    fn dirty_sectors_survive_read_fill_eviction() {
        // Store a line (dirty), then stream loads through the same set
        // until it is evicted; the writeback must reach DRAM.
        let c = cfg();
        let mut p = partition();
        let _ = run(&mut p, vec![store(0, 0x0)], 200);
        let sets = c.l2_bytes_per_bank / 128 / c.l2_assoc as u64;
        // Lines mapping to the same bank-0 set: stride = sets * line *
        // partitions * banks in chunk terms; generate enough conflicting
        // loads to force the dirty line out.
        let mut reqs = Vec::new();
        for i in 1..=(c.l2_assoc as u64 + 4) {
            let chunk = i * sets * c.num_partitions as u64 * 2;
            reqs.push(load(i, chunk * c.interleave_bytes));
        }
        let n = reqs.len() as u64;
        let _ = run(&mut p, reqs, n * 200 + 3000);
        let stats = p.backend().dram_stats().class(crate::types::TrafficClass::Data);
        assert!(stats.writes > 0, "evicted dirty line must be written back: {stats:?}");
    }

    #[test]
    fn secondary_miss_merges() {
        let mut p = partition();
        // Two loads to the same line, same sector: one DRAM read.
        let resps = run(&mut p, vec![load(1, 0x0), load(2, 0x0)], 500);
        assert_eq!(resps.len(), 2);
        assert_eq!(p.backend().dram_stats().class(crate::types::TrafficClass::Data).reads, 1);
        assert_eq!(p.l2_mshr_stats().secondary, 1);
    }

    #[test]
    fn sector_misses_to_same_line_fetch_separately() {
        let mut p = partition();
        let mut a = load(1, 0x0);
        a.sectors = SectorMask::single(0);
        let mut b = load(2, 0x0);
        b.sectors = SectorMask::single(1);
        let resps = run(&mut p, vec![a, b], 500);
        assert_eq!(resps.len(), 2);
        // Second sector is a new-sector merge: an extra 32 B DRAM read.
        assert_eq!(p.backend().dram_stats().class(crate::types::TrafficClass::Data).reads, 2);
        assert_eq!(p.l2_mshr_stats().primary, 1);
        assert_eq!(p.l2_mshr_stats().secondary, 1);
    }
}
