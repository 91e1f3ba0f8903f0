//! The streaming multiprocessor (SM) model.
//!
//! Each SM holds a set of resident warps, a greedy-then-oldest (GTO)
//! scheduler issuing up to `issue_width` warp instructions per cycle, a
//! sectored write-through L1 with MSHRs (a `cache::CacheLevel`, the same
//! load-miss path as an L2 bank), and a dispatch queue that feeds
//! coalesced accesses into the interconnect. The model captures what the
//! paper's analysis depends on: thread-level parallelism hides memory
//! latency until either warps run out (small kernels like `nw`) or a
//! downstream resource (MSHRs, DRAM bandwidth) saturates.
//!
//! Since most resident warps of a memory-bound kernel wait on their own
//! loads most of the time, the issue scan visits only warps whose verdict
//! can have changed: retired warps and warps blocked on their own
//! outstanding loads are *parked* in a bitset until a response lowers
//! their `outstanding` count (DESIGN.md §10, "Parked warps").

use std::collections::VecDeque;

use secmem_checkpoint::{snapshot_fields, CheckpointError, Reader, Snapshot, Writer};

use crate::cache::{CacheLevel, Load, SectoredCache};
use crate::config::{GpuConfig, SchedulerPolicy};
use crate::kernel::WarpProgram;
use crate::mshr::{FillOutcome, MshrFile};
use crate::types::{Access, AccessKind, Cycle, Inst, MemRequest, SectorMask, WarpRef};

/// Maximum occupancy of the access dispatch queue before instruction
/// issue pauses (keeps divergent loads from ballooning memory).
const DISPATCH_HIGH_WATERMARK: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingAccess {
    warp: u32,
    access: Access,
    kind: AccessKind,
}

snapshot_fields!(PendingAccess { warp, access, kind });

/// Result of an issue-eligibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueCheck {
    Yes,
    /// Blocked until one of the warp's own loads returns (`wait_mem` ALU,
    /// dependent load, or the `max_outstanding` cap): the warp is parked.
    WaitsOnLoads,
    /// Blocked only because the SM's dispatch queue is full, a per-SM
    /// condition the next scan re-evaluates.
    DispatchFull,
    /// Not ready before the given cycle (`ready_at`).
    Sleeping(Cycle),
    /// Fetched `Exit`: the warp retired and is parked for good.
    Retired,
}

struct WarpSlot {
    program: Box<dyn WarpProgram + Send>,
    /// Fetched but not yet issued instruction (held across stall cycles).
    next: Option<Inst>,
    ready_at: Cycle,
    outstanding: u32,
    finished: bool,
}

impl core::fmt::Debug for WarpSlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WarpSlot")
            .field("ready_at", &self.ready_at)
            .field("outstanding", &self.outstanding)
            .field("finished", &self.finished)
            .finish()
    }
}

/// Word index and bit mask of warp `w` in a per-warp bitset.
fn word_bit(w: usize) -> (usize, u64) {
    (w / 64, 1 << (w % 64))
}

/// What one cycle's issue scan learned from the warps it judged.
struct ScanVerdict {
    /// Some visited warp was blocked only by the full dispatch queue.
    dispatch_blocked: bool,
    /// Earliest `ready_at` among the visited sleeping warps.
    wake_at: Cycle,
}

/// Requests an SM wants to place on the interconnect this cycle.
#[derive(Debug, Default)]
pub struct SmOutput {
    /// Memory requests bound for partitions.
    pub requests: Vec<MemRequest>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: u32,
    issue_width: u32,
    scheduler: SchedulerPolicy,
    threads_per_warp: u32,
    l1_latency: Cycle,
    l1_ports: u32,
    max_outstanding: u32,
    warps: Vec<WarpSlot>,
    /// The L1 and its MSHRs; it remembers why the `dispatch` head (a
    /// load) was last refused.
    l1: CacheLevel<u32>,
    /// Scratch for draining completed MSHR targets (reused every fill).
    fill_targets: Vec<u32>,
    dispatch: VecDeque<PendingAccess>,
    /// L1 hits waiting out the hit latency, as `(ready cycle, warp)`.
    /// Every hit is queued at `now + l1_latency`, so push order is time
    /// order and the front is always the next one due.
    hit_returns: VecDeque<(Cycle, u32)>,
    /// One bit per warp, set while the warp is *parked*: retired, or
    /// holding a fetched instruction that waits on its own outstanding
    /// loads. The issue scan never judges a parked warp, since its verdict
    /// cannot change until its `outstanding` count drops, and everything
    /// that lowers `outstanding` unparks it (retired warps stay parked).
    /// A parked, unretired warp has `ready_at` in the past. Derived state:
    /// not checkpointed, rebuilt from `finished` on restore.
    parked: Vec<u64>,
    /// Parked warps that have not retired, i.e. are blocked on memory.
    mem_parked: usize,
    /// Warps that have retired (`finished`).
    retired: usize,
    /// Scratch bitmap of the warps the current issue scan has judged or
    /// issued (same layout as `parked`, reused every cycle).
    visited: Vec<u64>,
    /// Cached no-issue verdict: while `now < issue_idle_until` the issue
    /// scan is guaranteed to pick nothing, so it is skipped (with the
    /// memory-stall counter still advancing when `issue_idle_blocked`).
    /// Any event that could unblock a warp resets this to 0.
    issue_idle_until: Cycle,
    issue_idle_blocked: bool,
    last_issued: u32,
    next_req_id: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Cycles with zero issue while at least one warp waited on memory.
    pub mem_stall_cycles: u64,
}

impl Sm {
    /// Creates an SM with `programs` resident warps.
    pub fn new(id: u32, cfg: &GpuConfig, programs: Vec<Box<dyn WarpProgram + Send>>) -> Self {
        let warps: Vec<WarpSlot> = programs
            .into_iter()
            .map(|program| WarpSlot { program, next: None, ready_at: 0, outstanding: 0, finished: false })
            .collect();
        let words = warps.len().div_ceil(64);
        Self {
            id,
            issue_width: cfg.issue_width,
            scheduler: cfg.scheduler,
            threads_per_warp: cfg.threads_per_warp,
            l1_latency: cfg.l1_latency as Cycle,
            l1_ports: cfg.l1_ports,
            max_outstanding: cfg.max_outstanding_loads.max(1),
            warps,
            l1: CacheLevel::new(
                SectoredCache::new(cfg.l1_bytes, cfg.l1_assoc),
                MshrFile::new(cfg.l1_mshrs as usize, cfg.l1_mshr_merge as usize),
            ),
            fill_targets: Vec::new(),
            dispatch: VecDeque::new(),
            hit_returns: VecDeque::new(),
            parked: vec![0; words],
            mem_parked: 0,
            retired: 0,
            visited: vec![0; words],
            issue_idle_until: 0,
            issue_idle_blocked: false,
            last_issued: 0,
            next_req_id: (id as u64) << 40,
            instructions: 0,
            mem_stall_cycles: 0,
        }
    }

    /// This SM's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Resets statistics (warp state preserved) — used to discard warmup.
    pub fn reset_stats(&mut self) {
        self.instructions = 0;
        self.mem_stall_cycles = 0;
        self.l1.cache_mut().reset_stats();
        self.l1.mshrs_mut().reset_stats();
    }

    /// Number of thread instructions issued so far.
    pub fn thread_instructions(&self) -> u64 {
        self.instructions * self.threads_per_warp as u64
    }

    /// The L1 cache statistics.
    pub fn l1_stats(&self) -> crate::cache::CacheStats {
        self.l1.cache().stats()
    }

    /// True when every warp has retired.
    pub fn finished(&self) -> bool {
        self.retired == self.warps.len()
    }

    /// Number of resident warps.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Number of resident warps that have not yet retired (stall
    /// diagnostics).
    pub fn unfinished_warps(&self) -> usize {
        self.warps.len() - self.retired
    }

    fn is_parked(&self, w: usize) -> bool {
        let (word, bit) = word_bit(w);
        self.parked[word] & bit != 0
    }

    /// Unparks warp `w` after its `outstanding` count dropped, so the
    /// next scan re-judges it. A retired warp stays parked.
    fn unpark(&mut self, w: usize) {
        if self.is_parked(w) && !self.warps[w].finished {
            let (word, bit) = word_bit(w);
            self.parked[word] &= !bit;
            self.mem_parked -= 1;
        }
    }

    /// The warps that are not parked.
    fn unparked(&self) -> impl Iterator<Item = &WarpSlot> + '_ {
        self.warps.iter().enumerate().filter(|&(w, _)| !self.is_parked(w)).map(|(_, slot)| slot)
    }

    /// The lowest warp in `lo..hi` that is neither parked nor visited by
    /// the current scan.
    fn next_candidate(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut word = lo / 64;
        let mut mask = !0u64 << (lo % 64);
        while word * 64 < hi {
            let free = !(self.parked[word] | self.visited[word]) & mask;
            if free != 0 {
                let w = word * 64 + free.trailing_zeros() as usize;
                return (w < hi).then_some(w);
            }
            word += 1;
            mask = !0;
        }
        None
    }

    /// Delivers a memory response (an L2/engine fill) to this SM.
    pub fn on_response(&mut self, resp: &MemRequest) {
        self.issue_idle_until = 0;
        let line = resp.line_addr;
        self.fill_targets.clear();
        match self.l1.mshrs_mut().note_fill(line, resp.sectors, &mut self.fill_targets) {
            FillOutcome::Untracked => {
                // No waiter (e.g. the entry was satisfied already).
                self.l1.cache_mut().fill(line, resp.sectors, SectorMask::EMPTY);
            }
            FillOutcome::Partial => {}
            FillOutcome::Complete(sectors) => {
                // Fill exactly the sectors the entry requested, as before.
                self.l1.cache_mut().fill(line, sectors, SectorMask::EMPTY);
                for i in 0..self.fill_targets.len() {
                    let warp = self.fill_targets[i] as usize;
                    let slot = &mut self.warps[warp];
                    debug_assert!(slot.outstanding > 0);
                    slot.outstanding = slot.outstanding.saturating_sub(1);
                    self.unpark(warp);
                }
            }
        }
    }

    /// True when the warp's fetched instruction cannot issue until one of
    /// its own outstanding loads returns: a `wait_mem` ALU, a dependent
    /// load, or a load over the `max_outstanding` cap. The cap throttles
    /// *additional* loads; a single load wider than the cap (divergent
    /// scatter) still issues when the warp has nothing outstanding.
    fn warp_mem_blocked(&self, w: &WarpSlot) -> bool {
        match w.next.as_ref() {
            Some(Inst::Alu { wait_mem, .. }) => *wait_mem && w.outstanding > 0,
            Some(Inst::Load { accesses, dependent }) => {
                w.outstanding > 0
                    && (*dependent
                        || w.outstanding
                            + crate::narrow::usize_to_u32(
                                accesses.len(),
                                "warp access list is bounded by threads_per_warp",
                            )
                            > self.max_outstanding)
            }
            _ => false,
        }
    }

    /// Earliest cycle at or after `now` at which this SM can make
    /// progress on its own (dispatch queued accesses, retire an L1 hit,
    /// or issue a warp instruction). `None` when every warp is finished
    /// or blocked on memory — external responses re-awaken the SM via
    /// the interconnect's own events. Used by the idle-skip scheduler.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        if !self.dispatch.is_empty() {
            merge(now);
        }
        if let Some(&(at, _)) = self.hit_returns.front() {
            merge(at.max(now));
        }
        if now < self.issue_idle_until {
            // A valid no-issue verdict already knows the answer: every
            // ready warp is memory-blocked (no self-contained event) and
            // the earliest sleeper wakes exactly at `issue_idle_until`.
            if self.issue_idle_until != Cycle::MAX {
                merge(self.issue_idle_until);
            }
            return next;
        }
        // Parked warps are retired or memory-blocked: no wakeup of their own.
        for w in self.unparked() {
            // A memory-blocked warp has no self-contained wakeup time; an
            // unblocked (or not-yet-fetched) warp acts at `ready_at`.
            if w.next.is_some() && self.warp_mem_blocked(w) {
                continue;
            }
            merge(w.ready_at.max(now));
        }
        next
    }

    /// Accounts `cycles` fast-forwarded quiescent cycles: a gap cycle in
    /// which at least one warp waits on memory is a memory-stall cycle,
    /// exactly as the per-cycle issue loop would have counted it.
    pub fn account_idle_stall(&mut self, now: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        // A valid no-issue verdict was computed with an empty dispatch
        // queue (a gap cannot open otherwise), so its blocked flag equals
        // the per-warp predicate below.
        let blocked = if now < self.issue_idle_until {
            self.issue_idle_blocked
        } else {
            self.mem_parked > 0 || self.unparked().any(|w| w.ready_at <= now && self.warp_mem_blocked(w))
        };
        if blocked {
            self.mem_stall_cycles += cycles;
        }
    }

    /// Advances the SM by one cycle. Outgoing requests are appended to
    /// `out`; `icnt_room` reports how many of them the interconnect can
    /// still take (the SM stops dispatching when it reaches zero).
    pub fn cycle(&mut self, now: Cycle, icnt_room: usize, out: &mut SmOutput) {
        self.drain_hit_returns(now);
        let before = self.dispatch.len();
        self.dispatch_accesses(now, icnt_room, out);
        if self.dispatch.len() != before {
            // Draining the dispatch queue can reopen it for blocked warps.
            self.issue_idle_until = 0;
        }
        self.issue(now);
    }

    fn drain_hit_returns(&mut self, now: Cycle) {
        // Draining one cycle's hits is order-independent: each only
        // lowers its warp's count, unparks it and drops the no-issue cache.
        while let Some(&(at, warp)) = self.hit_returns.front() {
            if at > now {
                break;
            }
            self.hit_returns.pop_front();
            let slot = &mut self.warps[warp as usize];
            slot.outstanding = slot.outstanding.saturating_sub(1);
            self.unpark(warp as usize);
            self.issue_idle_until = 0;
        }
    }

    fn dispatch_accesses(&mut self, now: Cycle, mut icnt_room: usize, out: &mut SmOutput) {
        for _ in 0..self.l1_ports {
            let Some(pa) = self.dispatch.front().copied() else { break };
            let Access { line_addr, sectors } = pa.access;
            match pa.kind {
                AccessKind::Load => match self.l1.load(line_addr, sectors, pa.warp, || icnt_room > 0) {
                    Load::Hit(warp) => {
                        let at = now + self.l1_latency;
                        debug_assert!(
                            self.hit_returns.back().is_none_or(|&(last, _)| last <= at),
                            "L1 hit returns must be queued in time order"
                        );
                        self.hit_returns.push_back((at, warp));
                    }
                    Load::Fetch(want) => {
                        out.requests.push(self.make_request(
                            line_addr,
                            want,
                            AccessKind::Load,
                            Some(pa.warp),
                        ));
                        icnt_room -= 1;
                    }
                    Load::Merged => {}
                    Load::Refused(_) => return,
                },
                AccessKind::Store => {
                    if icnt_room == 0 {
                        return;
                    }
                    // Write-through, write-no-allocate L1: drop stale sectors.
                    self.l1.cache_mut().invalidate_sectors(line_addr, sectors);
                    out.requests.push(self.make_request(line_addr, sectors, AccessKind::Store, None));
                    icnt_room -= 1;
                }
            }
            self.dispatch.pop_front();
        }
    }

    fn make_request(
        &mut self,
        line_addr: u64,
        sectors: SectorMask,
        kind: AccessKind,
        warp: Option<u32>,
    ) -> MemRequest {
        self.next_req_id += 1;
        MemRequest {
            id: self.next_req_id,
            line_addr,
            sectors,
            kind,
            warp: warp.map(|w| WarpRef { sm: self.id, warp: w }),
        }
    }

    /// Judges warp `w`'s pending instruction, after fetching it if needed.
    /// Retires the warp on `Exit`. Never called on a parked warp.
    fn issuable(&mut self, w: usize, now: Cycle, dispatch_open: bool) -> IssueCheck {
        let slot = &mut self.warps[w];
        debug_assert!(!slot.finished, "retired warps stay parked");
        if slot.ready_at > now {
            return IssueCheck::Sleeping(slot.ready_at);
        }
        if slot.next.is_none() {
            // lint:allow(T1): warp programs materialize one Inst per fetch; its coalesced-access list is heap-backed by design (trace format)
            let inst = slot.program.next_inst();
            if matches!(inst, Inst::Exit) {
                slot.finished = true;
                return IssueCheck::Retired;
            }
            slot.next = Some(inst);
        }
        let slot = &self.warps[w];
        if self.warp_mem_blocked(slot) {
            return IssueCheck::WaitsOnLoads;
        }
        match slot.next {
            Some(Inst::Alu { .. }) => IssueCheck::Yes,
            Some(Inst::Load { .. } | Inst::Store { .. }) if dispatch_open => IssueCheck::Yes,
            Some(Inst::Load { .. } | Inst::Store { .. }) => IssueCheck::DispatchFull,
            // Fetch retires `Exit` before it can reach the scoreboard.
            Some(Inst::Exit) | None => {
                debug_assert!(false, "fetch leaves a pending non-Exit instruction");
                IssueCheck::Sleeping(Cycle::MAX)
            }
        }
    }

    /// Scans for the next warp to issue: GTO tries the last issued warp,
    /// then ascending order; LRR rotates from the warp after it. Visits
    /// only warps that are neither parked nor already judged this cycle
    /// (a verdict cannot change within the cycle: `dispatch_open` is
    /// frozen and issuing a warp only mutates that warp's slot), and
    /// parks the ones it finds retired or waiting on their own loads.
    /// Returns the pick, and records in `scan` what the visited warps
    /// showed.
    fn pick_warp(&mut self, now: Cycle, dispatch_open: bool, scan: &mut ScanVerdict) -> Option<usize> {
        let n = self.warps.len();
        let last = self.last_issued as usize;
        let ranges = match self.scheduler {
            SchedulerPolicy::Gto => [(last, last + 1), (0, n)],
            SchedulerPolicy::Lrr => {
                let start = (last + 1) % n;
                [(start, n), (0, start)]
            }
        };
        for (lo, hi) in ranges {
            let mut from = lo;
            while let Some(w) = self.next_candidate(from, hi) {
                let (word, bit) = word_bit(w);
                match self.issuable(w, now, dispatch_open) {
                    IssueCheck::Yes => return Some(w),
                    IssueCheck::WaitsOnLoads => {
                        self.parked[word] |= bit;
                        self.mem_parked += 1;
                    }
                    IssueCheck::Retired => {
                        self.parked[word] |= bit;
                        self.retired += 1;
                    }
                    IssueCheck::DispatchFull => {
                        scan.dispatch_blocked = true;
                        self.visited[word] |= bit;
                    }
                    IssueCheck::Sleeping(at) => {
                        scan.wake_at = scan.wake_at.min(at);
                        self.visited[word] |= bit;
                    }
                }
                from = w + 1;
            }
        }
        None
    }

    fn issue(&mut self, now: Cycle) {
        if self.warps.is_empty() {
            return;
        }
        if now < self.issue_idle_until {
            // A previous full scan proved nothing can issue before
            // `issue_idle_until` absent an unblocking event (which would
            // have reset it); replay its stall accounting and skip.
            if self.issue_idle_blocked {
                self.mem_stall_cycles += 1;
            }
            return;
        }
        let dispatch_open = self.dispatch.len() < DISPATCH_HIGH_WATERMARK;
        let mut issued_any = false;
        let mut scan = ScanVerdict { dispatch_blocked: false, wake_at: Cycle::MAX };
        self.visited.fill(0);
        for _slot in 0..self.issue_width {
            let Some(w) = self.pick_warp(now, dispatch_open, &mut scan) else { break };
            let (word, bit) = word_bit(w);
            self.visited[word] |= bit;
            self.last_issued = crate::narrow::usize_to_u32(w, "warp index < max_warps_per_sm");
            let Some(inst) = self.warps[w].next.take() else {
                debug_assert!(false, "issuable implies fetched");
                break;
            };
            match inst {
                Inst::Alu { stall, .. } => {
                    self.warps[w].ready_at = now + stall.max(1) as Cycle;
                }
                Inst::Load { accesses, .. } => {
                    self.warps[w].outstanding += crate::narrow::usize_to_u32(
                        accesses.len(),
                        "warp access list is bounded by threads_per_warp",
                    );
                    self.warps[w].ready_at = now + 1;
                    for access in accesses {
                        self.dispatch.push_back(PendingAccess {
                            warp: crate::narrow::usize_to_u32(w, "warp index < max_warps_per_sm"),
                            access,
                            kind: AccessKind::Load,
                        });
                    }
                }
                Inst::Store { accesses } => {
                    self.warps[w].ready_at = now + 1;
                    for access in accesses {
                        self.dispatch.push_back(PendingAccess {
                            warp: crate::narrow::usize_to_u32(w, "warp index < max_warps_per_sm"),
                            access,
                            kind: AccessKind::Store,
                        });
                    }
                }
                // Fetch retires `Exit`; it never reaches the issue queue.
                Inst::Exit => debug_assert!(false, "exit never stored"),
            }
            self.instructions += 1;
            issued_any = true;
        }
        if !issued_any {
            // The slot-0 scan judged every unparked warp. A memory-parked
            // warp would still judge `WaitsOnLoads` (its `ready_at` is past
            // and its `outstanding` has not dropped), so it counts as
            // blocked without being visited.
            let blocked_on_mem = scan.dispatch_blocked || self.mem_parked > 0;
            if blocked_on_mem {
                self.mem_stall_cycles += 1;
            }
            // The verdict holds until the earliest sleeping warp wakes or
            // an unblocking event clears the cache.
            self.issue_idle_until = scan.wake_at;
            self.issue_idle_blocked = blocked_on_mem;
        }
    }

    /// Serializes the SM's dynamic state: warp progress (via
    /// [`WarpProgram::save_state`]), the L1 and its MSHRs, the dispatch
    /// queue, pending hit returns, the no-issue cache and the issue
    /// bookkeeping. Scratch buffers and the parked set (derived from the
    /// warps, see [`Sm::restore_state`]) are not saved. The no-issue cache
    /// (`issue_idle_until`/`issue_idle_blocked`) is saved exactly so
    /// stall accounting on resume is byte-identical to an uninterrupted
    /// run.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.warps.len());
        let mut words: Vec<u64> = Vec::new();
        for slot in &self.warps {
            words.clear();
            slot.program.save_state(&mut words);
            words.save(w);
            slot.next.save(w);
            w.put_u64(slot.ready_at);
            w.put_u32(slot.outstanding);
            w.put_bool(slot.finished);
        }
        self.l1.cache().save_state(w);
        self.l1.mshrs().save_state(w);
        self.dispatch.save(w);
        let mut hits: Vec<(Cycle, u32)> = self.hit_returns.iter().copied().collect();
        hits.sort_unstable();
        hits.save(w);
        w.put_u64(self.issue_idle_until);
        w.put_bool(self.issue_idle_blocked);
        w.put_u32(self.last_issued);
        w.put_u64(self.next_req_id);
        w.put_u64(self.instructions);
        w.put_u64(self.mem_stall_cycles);
    }

    /// Restores state saved by [`Sm::save_state`] into an SM rebuilt from
    /// the same configuration and kernel (same warp count and geometry).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on a warp-count mismatch, a warp
    /// index out of range, or a program that rejects its saved progress;
    /// any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let n = self.warps.len();
        r.expect_count(format_args!("SM {}", self.id), "warps", n)?;
        for slot in &mut self.warps {
            let words: Vec<u64> = Vec::load(r)?;
            slot.program.restore_state(&words).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
            slot.next = Option::load(r)?;
            slot.ready_at = r.get_u64()?;
            slot.outstanding = r.get_u32()?;
            slot.finished = r.get_bool()?;
        }
        // The parked set is derived: retired warps park for good, and
        // memory-blocked ones are re-judged by the next scan and re-park.
        self.parked.fill(0);
        self.mem_parked = 0;
        self.retired = 0;
        for (w, slot) in self.warps.iter().enumerate() {
            if slot.finished {
                let (word, bit) = word_bit(w);
                self.parked[word] |= bit;
                self.retired += 1;
            }
        }
        self.l1.cache_mut().restore_state(r)?;
        self.l1.mshrs_mut().restore_state(r)?;
        self.dispatch = VecDeque::load(r)?;
        if let Some(pa) = self.dispatch.iter().find(|pa| pa.warp as usize >= n) {
            return Err(CheckpointError::Malformed(format!("dispatch entry for warp {} of {n}", pa.warp)));
        }
        let mut hits: Vec<(Cycle, u32)> = Vec::load(r)?;
        for &(_, warp) in &hits {
            if warp as usize >= n {
                return Err(CheckpointError::Malformed(format!("hit return for warp {warp} of {n}")));
            }
        }
        // Saved sorted; sorting again keeps the FIFO in time order even
        // for a hand-edited checkpoint.
        hits.sort_unstable();
        self.hit_returns = hits.into();
        self.issue_idle_until = r.get_u64()?;
        self.issue_idle_blocked = r.get_bool()?;
        let last_issued = r.get_u32()?;
        if n > 0 && last_issued as usize >= n {
            return Err(CheckpointError::Malformed(format!("last issued warp {last_issued} of {n}")));
        }
        self.last_issued = last_issued;
        self.next_req_id = r.get_u64()?;
        self.instructions = r.get_u64()?;
        self.mem_stall_cycles = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FULL_SECTOR_MASK;

    struct Script(Vec<Inst>);
    impl WarpProgram for Script {
        fn next_inst(&mut self) -> Inst {
            if self.0.is_empty() {
                Inst::Exit
            } else {
                self.0.remove(0)
            }
        }

        fn save_state(&self, out: &mut Vec<u64>) {
            out.push(self.0.len() as u64);
        }

        fn restore_state(&mut self, state: &[u64]) -> Result<(), crate::kernel::StateError> {
            crate::kernel::expect_state_len(state, 1, "script")?;
            let remaining = state[0] as usize;
            if remaining > self.0.len() {
                return Err(crate::kernel::StateError::new(
                    "script",
                    format!("{remaining} instructions left of {}", self.0.len()),
                ));
            }
            self.0.drain(..self.0.len() - remaining);
            Ok(())
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::small()
    }

    fn load(addr: u64) -> Inst {
        // Dependent loads serialize, making the tests' blocking behaviour
        // deterministic.
        Inst::dependent_load(Access::new(addr, FULL_SECTOR_MASK))
    }

    fn state_bytes(sm: &Sm) -> Vec<u8> {
        let mut w = Writer::new();
        sm.save_state(&mut w);
        w.into_bytes()
    }

    /// Runs `sm` over `cycles`, answering every load request 40 cycles
    /// after it leaves; returns the SM's state bytes after each cycle.
    fn drive(
        sm: &mut Sm,
        cycles: core::ops::Range<Cycle>,
        inflight: &mut VecDeque<(Cycle, MemRequest)>,
    ) -> Vec<Vec<u8>> {
        let mut out = SmOutput::default();
        let mut states = Vec::new();
        for now in cycles {
            while inflight.front().is_some_and(|&(at, _)| at <= now) {
                let (_, req) = inflight.pop_front().expect("front checked");
                sm.on_response(&req);
            }
            sm.cycle(now, 4, &mut out);
            for req in out.requests.drain(..) {
                if req.kind == AccessKind::Load {
                    inflight.push_back((now + 40, req));
                }
            }
            states.push(state_bytes(sm));
        }
        states
    }

    /// 70 warps (two words of the parked set) mixing dependent loads,
    /// `wait_mem` ALUs, a wide load against the outstanding cap, shared
    /// lines and stores.
    fn parking_programs() -> Vec<Box<dyn WarpProgram + Send>> {
        (0..70u64)
            .map(|w| {
                let wide: Vec<Access> =
                    (0..6).map(|i| Access::new(0x40_0000 + (w * 8 + i) * 128, FULL_SECTOR_MASK)).collect();
                let insts = vec![
                    load(0x10_0000 + w * 128),
                    Inst::use_mem(),
                    Inst::Load { accesses: wide, dependent: false },
                    Inst::Load {
                        accesses: vec![Access::new(0x20_0000 + (w % 5) * 128, FULL_SECTOR_MASK)],
                        dependent: false,
                    },
                    Inst::use_mem(),
                    Inst::store(Access::new(0x30_0000 + w * 128, SectorMask::single(0))),
                    load(0x10_0000 + ((w + 1) % 70) * 128),
                    Inst::alu(),
                ];
                Box::new(Script(insts)) as Box<dyn WarpProgram + Send>
            })
            .collect()
    }

    #[test]
    fn retired_warp_ignores_late_responses() {
        // Two independent loads, then `Exit`: the warp retires with both
        // loads still in flight.
        let loads = vec![Access::new(0x1000, FULL_SECTOR_MASK), Access::new(0x2000, FULL_SECTOR_MASK)];
        let prog: Box<dyn WarpProgram + Send> =
            Box::new(Script(vec![Inst::Load { accesses: loads, dependent: false }]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.warps[0].outstanding, 2);
        assert_eq!(out.requests.len(), 2);
        for req in out.requests.clone() {
            sm.on_response(&req);
            assert!(sm.is_parked(0), "a late response must not unpark a retired warp");
            assert_eq!((sm.mem_parked, sm.unfinished_warps()), (0, 0));
        }
        assert_eq!(sm.warps[0].outstanding, 0);
        // The scan never visits the warp again (a fetch past `Exit` would
        // trip the retired-warp assertion in `issuable`).
        for now in 5..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(sm.instructions, 1);
    }

    #[test]
    fn checkpoint_while_parked_resumes_byte_identically() {
        for scheduler in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            let mut c = cfg();
            c.scheduler = scheduler;
            c.max_outstanding_loads = 4;
            let end = 4000;
            let mut whole = Sm::new(0, &c, parking_programs());
            let expected = drive(&mut whole, 0..end, &mut VecDeque::new());
            assert!(whole.finished(), "{scheduler:?}: the scripts run to completion");
            for at in [45, 90, 200] {
                let mut first = Sm::new(0, &c, parking_programs());
                let mut inflight = VecDeque::new();
                drive(&mut first, 0..at, &mut inflight);
                assert!(first.mem_parked > 0, "{scheduler:?}@{at}: checkpoint taken while warps are parked");
                let mut resumed = Sm::new(0, &c, parking_programs());
                let bytes = state_bytes(&first);
                let mut r = Reader::new(&bytes);
                resumed.restore_state(&mut r).expect("restores");
                r.expect_end().expect("whole state consumed");
                assert_eq!(resumed.mem_parked, 0, "memory bits are not checkpointed");
                let states = drive(&mut resumed, at..end, &mut inflight);
                assert!(states == expected[at as usize..], "{scheduler:?}@{at}: resumed run diverges");
            }
        }
    }

    /// L1 hits queue in dispatch order, so one cycle's returns need not
    /// be in warp order; a restored SM holds them sorted by
    /// `(cycle, warp)`. Draining either order must give the same state.
    #[test]
    fn same_cycle_hit_returns_drain_to_the_same_state() {
        let mut c = cfg();
        c.scheduler = SchedulerPolicy::Lrr;
        let programs = || -> Vec<Box<dyn WarpProgram + Send>> {
            (0..12u64)
                .map(|w| {
                    // A shared line every warp keeps hitting once it is
                    // filled, between misses that spread the warps out.
                    let hit = || Inst::Load {
                        accesses: vec![Access::new(0x8000, FULL_SECTOR_MASK)],
                        dependent: false,
                    };
                    let mut insts = vec![load(0x8000)];
                    for i in 0..8 {
                        insts.extend([hit(), hit(), Inst::use_mem(), load(0x9000 + (w * 8 + i) * 128)]);
                    }
                    Box::new(Script(insts)) as Box<dyn WarpProgram + Send>
                })
                .collect()
        };
        let unsorted = |sm: &Sm| sm.hit_returns.iter().zip(sm.hit_returns.iter().skip(1)).any(|(a, b)| a > b);
        let end = 1500;
        let mut whole = Sm::new(0, &c, programs());
        let mut inflight = VecDeque::new();
        let mut expected = Vec::new();
        let mut ties = Vec::new();
        for now in 0..end {
            expected.extend(drive(&mut whole, now..now + 1, &mut inflight));
            if unsorted(&whole) {
                ties.push(now + 1);
            }
        }
        assert!(whole.finished(), "the scripts run to completion");
        assert!(!ties.is_empty(), "some cycle queued hits out of warp order");
        for &at in ties.iter().step_by(ties.len().div_ceil(4)) {
            let mut first = Sm::new(0, &c, programs());
            let mut inflight = VecDeque::new();
            drive(&mut first, 0..at, &mut inflight);
            let mut resumed = Sm::new(0, &c, programs());
            resumed.restore_state(&mut Reader::new(&state_bytes(&first))).expect("restores");
            assert!(unsorted(&first) && !unsorted(&resumed));
            let states = drive(&mut resumed, at..end, &mut inflight);
            assert!(states == expected[at as usize..], "@{at}: sorted hit returns drain differently");
        }
    }

    #[test]
    fn alu_only_warp_finishes_and_counts() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![Inst::alu(), Inst::alu()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.instructions, 2);
        assert_eq!(sm.thread_instructions(), 64);
        assert!(out.requests.is_empty());
    }

    #[test]
    fn load_miss_generates_request_and_blocks() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x1000), Inst::use_mem()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
        let req = out.requests[0].clone();
        assert_eq!(req.line_addr, 0x1000);
        assert_eq!(req.kind, AccessKind::Load);
        // Warp is blocked: only the load has issued.
        assert_eq!(sm.instructions, 1);
        // Respond; the warp unblocks and issues the ALU op.
        sm.on_response(&req);
        for now in 5..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(sm.instructions, 2);
        assert!(sm.finished());
    }

    #[test]
    fn l1_hit_serves_without_request() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x80), load(0x80)]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        // First load misses.
        for now in 0..3 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
        sm.on_response(&out.requests[0].clone());
        // Second load should hit in L1: no new request.
        for now in 3..80 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
        assert!(sm.finished());
        assert!(sm.l1_stats().hits >= 1);
    }

    #[test]
    fn secondary_miss_merges_in_l1_mshr() {
        let p1: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x100)]));
        let p2: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x100)]));
        let mut sm = Sm::new(0, &cfg(), vec![p1, p2]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 8, &mut out);
        }
        // Both warps loaded the same line: one request only.
        assert_eq!(out.requests.len(), 1);
        sm.on_response(&out.requests[0].clone());
        for now in 5..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished(), "both warps must unblock from one fill");
    }

    #[test]
    fn store_is_fire_and_forget() {
        let prog: Box<dyn WarpProgram + Send> =
            Box::new(Script(vec![Inst::store(Access::new(0x200, SectorMask::single(0))), Inst::alu()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..6 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished(), "store must not block the warp");
        assert_eq!(out.requests.len(), 1);
        assert_eq!(out.requests[0].kind, AccessKind::Store);
        assert!(out.requests[0].warp.is_none());
    }

    #[test]
    fn no_icnt_room_stalls_dispatch() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x400)]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 0, &mut out);
        }
        assert!(out.requests.is_empty());
        // Room opens up; the request goes out.
        for now in 5..8 {
            sm.cycle(now, 4, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
    }

    #[test]
    fn lrr_scheduler_rotates_warps() {
        let mut cfg_lrr = cfg();
        cfg_lrr.scheduler = crate::config::SchedulerPolicy::Lrr;
        cfg_lrr.issue_width = 1;
        let progs: Vec<Box<dyn WarpProgram + Send>> = (0..4)
            .map(|_| Box::new(Script(vec![Inst::alu(), Inst::alu()])) as Box<dyn WarpProgram + Send>)
            .collect();
        let mut sm = Sm::new(0, &cfg_lrr, progs);
        let mut out = SmOutput::default();
        // With LRR and 1-wide issue, 4 warps x 2 ALUs retire in ~8 cycles,
        // visiting each warp alternately.
        for now in 0..12 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.instructions, 8);
    }

    #[test]
    fn gto_prefers_last_issued_warp() {
        let mut c = cfg();
        c.issue_width = 1;
        let progs: Vec<Box<dyn WarpProgram + Send>> =
            (0..2).map(|_| Box::new(Script(vec![Inst::alu(); 4])) as Box<dyn WarpProgram + Send>).collect();
        let mut sm = Sm::new(0, &c, progs);
        let mut out = SmOutput::default();
        for now in 0..20 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.instructions, 8);
    }

    #[test]
    fn divergent_load_produces_many_requests() {
        let accesses: Vec<Access> =
            (0..8).map(|i| Access::new(0x10_000 + i * 4096, SectorMask::single(0))).collect();
        let prog: Box<dyn WarpProgram + Send> =
            Box::new(Script(vec![Inst::Load { accesses, dependent: false }, Inst::use_mem()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..20 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 8);
        // All 8 fills required before the warp retires.
        for r in out.requests.clone() {
            sm.on_response(&r);
        }
        for now in 20..25 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
    }

    #[test]
    fn warp_count_mismatch_rejected() {
        let exits = |n: usize| -> Vec<Box<dyn WarpProgram + Send>> {
            (0..n).map(|_| Box::new(Script(vec![Inst::Exit])) as Box<dyn WarpProgram + Send>).collect()
        };
        let bytes = state_bytes(&Sm::new(3, &cfg(), exits(4)));
        let err = Sm::new(3, &cfg(), exits(2)).restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, CheckpointError::Malformed("SM 3 has 2 warps, checkpoint has 4".into()));
    }
}
