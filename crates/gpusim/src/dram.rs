//! DRAM channel model: a bandwidth-limited, fixed-latency service queue.
//!
//! Each memory partition owns one channel. Requests are serviced in order
//! at the channel's byte rate (`868 GB/s / 32 partitions` in the baseline),
//! then complete after the access latency. The finite request queue
//! provides backpressure: when a workload (or the secure engine's metadata
//! traffic) oversubscribes the channel, queueing delay grows and upstream
//! structures (L2 MSHRs, SM scoreboards) fill — reproducing the
//! contention-driven slowdowns that dominate the paper's results.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};
use secmem_telemetry::{EventKind, Telemetry, TelemetryEvent};

use crate::fault::{FaultInjector, FaultKind, FaultStats};
use crate::types::{Addr, Cycle, TrafficClass};

/// Fixed-point scale for byte-credit arithmetic (10 fractional bits).
const FP: u64 = 1024;

/// A request presented to the DRAM channel.
///
/// `T` is an opaque token returned with the completion (e.g. a transaction
/// id in the secure engine, or an L2 fill descriptor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramRequest<T> {
    /// Bytes transferred (32 for a sector, 128 for a full metadata line).
    pub bytes: u64,
    /// Target address, used only by the banked row-buffer model (pass 0
    /// when row modeling is disabled).
    pub addr: Addr,
    /// Read or write (writes complete but typically need no downstream action).
    pub is_write: bool,
    /// Traffic class for statistics.
    pub class: TrafficClass,
    /// Caller token returned on completion.
    pub token: T,
}

/// Per-class DRAM traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramClassStats {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Stats per traffic class, indexed by `TrafficClass::ALL` order.
    pub per_class: [DramClassStats; 4],
    /// Cycles (fixed-point) the channel data bus was busy.
    pub busy_fp: u64,
    /// Requests rejected because the queue was full.
    pub rejected: u64,
    /// Row-buffer hits (banked model only).
    pub row_hits: u64,
    /// Row-buffer misses (banked model only).
    pub row_misses: u64,
}

impl DramStats {
    /// Adds another channel's counters into this one.
    pub fn merge(&mut self, other: &DramStats) {
        let DramStats { per_class, busy_fp, rejected, row_hits, row_misses } = other;
        for (a, b) in self.per_class.iter_mut().zip(per_class) {
            let DramClassStats { reads, writes, bytes_read, bytes_written } = *b;
            a.reads += reads;
            a.writes += writes;
            a.bytes_read += bytes_read;
            a.bytes_written += bytes_written;
        }
        self.busy_fp += busy_fp;
        self.rejected += rejected;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
    }

    fn class_mut(&mut self, c: TrafficClass) -> &mut DramClassStats {
        &mut self.per_class[c.index()]
    }

    /// Stats for one class.
    pub fn class(&self, c: TrafficClass) -> DramClassStats {
        self.per_class[c.index()]
    }

    /// Total requests (reads + writes, all classes).
    pub fn total_requests(&self) -> u64 {
        self.per_class.iter().map(|c| c.reads + c.writes).sum()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.per_class.iter().map(|c| c.bytes_read + c.bytes_written).sum()
    }

    /// Bandwidth utilization over `cycles` simulated cycles (0..=1).
    pub fn utilization(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            (self.busy_fp as f64 / FP as f64) / cycles as f64
        }
    }
}

/// In-flight completions keyed `(done_at, slot)`, retired in key order.
///
/// A serviced request's `done_at` never decreases in service order (see
/// DESIGN.md §10, "DRAM completions in service order"), so nearly every
/// key lands behind the last one and retires from the front of a FIFO.
/// A key that would not extend the FIFO's strictly increasing run goes to
/// a small side heap: a fault-delayed retry, a sub-cycle request tying
/// the back with a lower (LIFO-reused) slot, or a restored entry beyond
/// the last serviced completion. The next key is the smaller of the two
/// heads, so the pop order is exactly a single min-heap's.
#[derive(Debug, Default)]
struct Completions {
    /// Strictly increasing keys.
    fifo: VecDeque<(Cycle, u64)>,
    /// Every key that did not extend `fifo`.
    side: BinaryHeap<Reverse<(Cycle, u64)>>,
}

impl Completions {
    /// Queues a serviced request's completion.
    fn push_serviced(&mut self, key: (Cycle, u64)) {
        if self.fifo.back().is_none_or(|&back| back < key) {
            self.fifo.push_back(key);
        } else {
            self.side.push(Reverse(key));
        }
    }

    /// Queues a completion that is out of service order (a fault delay).
    fn push_side(&mut self, key: (Cycle, u64)) {
        self.side.push(Reverse(key));
    }

    /// The smallest key, if any.
    fn peek(&self) -> Option<(Cycle, u64)> {
        match (self.fifo.front(), self.side.peek()) {
            (Some(&f), Some(&Reverse(s))) => Some(f.min(s)),
            (f, s) => f.copied().or(s.map(|&Reverse(k)| k)),
        }
    }

    /// Removes and returns the smallest key if it is due by `now`.
    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u64)> {
        let key = self.peek().filter(|&(done_at, _)| done_at <= now)?;
        if self.fifo.front() == Some(&key) {
            self.fifo.pop_front();
        } else {
            self.side.pop();
        }
        debug_assert!(
            self.iter().all(|k| k >= key),
            "retired {key:?} while a smaller completion is still in flight"
        );
        Some(key)
    }

    fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.side.is_empty()
    }

    /// Every key, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        self.fifo.iter().copied().chain(self.side.iter().map(|&Reverse(k)| k))
    }
}

/// The DRAM channel.
#[derive(Debug)]
pub struct Dram<T> {
    bytes_per_cycle_fp: u64,
    latency: Cycle,
    /// Open row per bank; empty = row modeling disabled.
    open_rows: Vec<Option<Addr>>,
    row_bytes: u64,
    row_miss_penalty_fp: u64,
    queue: VecDeque<DramRequest<T>>,
    queue_cap: usize,
    next_free_fp: u64,
    inflight: Completions,
    inflight_store: Vec<Option<DramRequest<T>>>,
    free_slots: Vec<usize>,
    ready: VecDeque<(DramRequest<T>, Option<FaultKind>)>,
    stats: DramStats,
    /// Optional fault engine consulted once per retiring transaction.
    injector: Option<FaultInjector>,
    /// Slots whose completion was already fault-delayed once (a delayed
    /// request must not be re-decided when it retires again).
    no_refault: Vec<bool>,
    /// Telemetry sink (disabled by default); fault injections are
    /// recorded here as instants at retire time.
    telemetry: Telemetry,
    /// Partition id stamped on telemetry events.
    partition: u32,
}

impl<T> Dram<T> {
    /// Creates a channel.
    ///
    /// * `bytes_per_cycle_fp` — peak bandwidth in bytes/cycle, 22.10 fixed
    ///   point (see `GpuConfig::dram_bytes_per_cycle_fp`).
    /// * `latency` — access latency in cycles added after service.
    /// * `queue_cap` — request queue capacity (backpressure bound).
    pub fn new(bytes_per_cycle_fp: u64, latency: u32, queue_cap: usize) -> Self {
        Self::with_banks(bytes_per_cycle_fp, latency, queue_cap, 0, 2048, 0)
    }

    /// Creates a channel with a banked row-buffer model: a request whose
    /// row (addr / `row_bytes`) differs from its bank's open row pays
    /// `row_miss_penalty` extra cycles of service time. `banks = 0`
    /// disables row modeling (every access costs the flat rate).
    pub fn with_banks(
        bytes_per_cycle_fp: u64,
        latency: u32,
        queue_cap: usize,
        banks: u32,
        row_bytes: u64,
        row_miss_penalty: u32,
    ) -> Self {
        assert!(bytes_per_cycle_fp > 0, "bandwidth must be positive");
        assert!(row_bytes.is_power_of_two(), "row size must be a power of two");
        Self {
            bytes_per_cycle_fp,
            latency: latency as Cycle,
            open_rows: vec![None; banks as usize],
            row_bytes,
            row_miss_penalty_fp: row_miss_penalty as u64 * FP,
            queue: VecDeque::new(),
            queue_cap: queue_cap.max(1),
            next_free_fp: 0,
            inflight: Completions::default(),
            inflight_store: Vec::new(),
            free_slots: Vec::new(),
            ready: VecDeque::new(),
            stats: DramStats::default(),
            injector: None,
            no_refault: Vec::new(),
            telemetry: Telemetry::disabled(),
            partition: 0,
        }
    }

    /// Attaches a telemetry sink; fault injections at this channel are
    /// recorded as instants stamped with `partition`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, partition: u32) {
        self.telemetry = telemetry;
        self.partition = partition;
    }

    /// Installs a fault injector. Subsequent completions are candidates
    /// for deterministic corruption, drop, or delay.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Mutable access to the installed fault injector (used by backends
    /// to record detection outcomes).
    pub fn injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// Fault statistics (zero when no injector is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.as_ref().map(|i| *i.stats()).unwrap_or_default()
    }

    /// True if the request queue cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.queue_cap
    }

    /// Records a fault instant. Outlined from `cycle` so its event
    /// allocation stays off the steady-state per-cycle path: faults are
    /// rare and the call is telemetry-gated.
    #[cold]
    fn record_fault_event(&mut self, now: Cycle, class: TrafficClass, kind: FaultKind) {
        self.telemetry.record_event(TelemetryEvent {
            cycle: now,
            kind: EventKind::Fault {
                partition: self.partition,
                class: class.label(),
                kind: kind.label(),
                detected: None,
            },
        });
    }

    /// Submits a request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full.
    pub fn try_push(&mut self, req: DramRequest<T>) -> Result<(), DramRequest<T>> {
        if self.is_full() {
            self.stats.rejected += 1;
            return Err(req);
        }
        let cs = self.stats.class_mut(req.class);
        if req.is_write {
            cs.writes += 1;
            cs.bytes_written += req.bytes;
        } else {
            cs.reads += 1;
            cs.bytes_read += req.bytes;
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Advances the channel to cycle `now`: starts service of queued
    /// requests as bandwidth allows and retires finished ones into the
    /// ready queue.
    pub fn cycle(&mut self, now: Cycle) {
        let now_fp = now * FP;
        // Begin service for queued requests that can start within this
        // cycle (start < now+1 in fixed point keeps fractional service
        // times from leaking bandwidth at cycle boundaries).
        while let Some(front) = self.queue.front() {
            let start_fp = self.next_free_fp.max(now_fp);
            if start_fp >= now_fp + FP {
                break; // channel busy beyond this cycle
            }
            let mut service_fp = front.bytes * FP * FP / self.bytes_per_cycle_fp;
            if !self.open_rows.is_empty() {
                let row = front.addr / self.row_bytes;
                let bank = (row as usize) % self.open_rows.len();
                if self.open_rows[bank] == Some(row) {
                    self.stats.row_hits += 1;
                } else {
                    self.stats.row_misses += 1;
                    self.open_rows[bank] = Some(row);
                    service_fp += self.row_miss_penalty_fp;
                }
            }
            let end_fp = start_fp + service_fp;
            let done_at = end_fp.div_ceil(FP) + self.latency;
            // `next_free_fp` is the previous serviced request's `end_fp`.
            debug_assert!(
                done_at >= self.next_free_fp.div_ceil(FP) + self.latency,
                "a serviced completion went back in time"
            );
            self.next_free_fp = end_fp;
            self.stats.busy_fp += service_fp;
            let Some(req) = self.queue.pop_front() else {
                debug_assert!(false, "loop condition guarantees a front request");
                break;
            };
            let slot = if let Some(s) = self.free_slots.pop() {
                self.inflight_store[s] = Some(req);
                s
            } else {
                self.inflight_store.push(Some(req));
                self.inflight_store.len() - 1
            };
            self.inflight.push_serviced((done_at, slot as u64));
            if self.no_refault.len() < self.inflight_store.len() {
                self.no_refault.resize(self.inflight_store.len(), false);
            }
        }
        // Retire completions, consulting the fault injector (at most
        // once per transaction) as each one leaves the channel.
        while let Some((_, slot)) = self.inflight.pop_due(now) {
            let slot = slot as usize;
            let already_delayed = std::mem::replace(&mut self.no_refault[slot], false);
            let fault = match (&mut self.injector, already_delayed, self.inflight_store[slot].as_ref()) {
                (Some(inj), false, Some(req)) => inj.decide(req.class, req.is_write, req.addr),
                _ => None,
            };
            if let Some(kind) = fault {
                if self.telemetry.is_enabled() {
                    if let Some(req) = self.inflight_store[slot].as_ref() {
                        let class = req.class;
                        self.record_fault_event(now, class, kind);
                    }
                }
            }
            match fault {
                Some(FaultKind::Drop) => {
                    self.inflight_store[slot] = None;
                    self.free_slots.push(slot);
                }
                Some(FaultKind::Delay(d)) => {
                    self.no_refault[slot] = true;
                    self.inflight.push_side((now + Cycle::from(d.max(1)), slot as u64));
                }
                other => {
                    let Some(req) = self.inflight_store[slot].take() else {
                        debug_assert!(false, "retiring a completion without a stored request");
                        continue;
                    };
                    self.free_slots.push(slot);
                    self.ready.push_back((req, other));
                }
            }
        }
    }

    /// Pops one completed request, if any. A request corrupted by fault
    /// injection is still delivered (the payload is wrong, silently);
    /// use [`Dram::pop_completed_with_fault`] to observe the fault flag.
    pub fn pop_completed(&mut self) -> Option<DramRequest<T>> {
        self.ready.pop_front().map(|(req, _)| req)
    }

    /// Pops one completed request together with the fault (if any) that
    /// was applied to it. Dropped requests never appear here.
    pub fn pop_completed_with_fault(&mut self) -> Option<(DramRequest<T>, Option<FaultKind>)> {
        self.ready.pop_front()
    }

    /// True when no requests are queued, in flight, or awaiting pickup.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty() && self.ready.is_empty()
    }

    /// Earliest cycle at or after `now` at which this channel can make
    /// progress: hand over a ready completion, start servicing the queue
    /// head (the first cycle `c` with `next_free_fp < (c+1)*FP`), or
    /// retire an in-flight request. `None` when idle. Used by the
    /// idle-skip scheduler.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // Every merge below clamps to `now`, so a ready completion
        // short-circuits: nothing can beat `now`.
        if !self.ready.is_empty() {
            return Some(now);
        }
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| next = Some(next.map_or(c, |n| n.min(c)));
        if !self.queue.is_empty() {
            merge((self.next_free_fp / FP).max(now));
        }
        if let Some((done_at, _)) = self.inflight.peek() {
            merge(done_at.max(now));
        }
        next
    }

    /// Number of queued (not yet serviced) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Free request-queue slots.
    pub fn free_capacity(&self) -> usize {
        self.queue_cap.saturating_sub(self.queue.len())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics (state preserved; the fault injector's rule
    /// state and random stream also continue, only its counters reset).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        if let Some(inj) = &mut self.injector {
            inj.reset_stats();
        }
    }
}

impl<T: Snapshot> Snapshot for DramRequest<T> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.bytes);
        w.put_u64(self.addr);
        w.put_bool(self.is_write);
        self.class.save(w);
        self.token.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(DramRequest {
            bytes: r.get_u64()?,
            addr: r.get_u64()?,
            is_write: r.get_bool()?,
            class: TrafficClass::load(r)?,
            token: T::load(r)?,
        })
    }
}

impl<T: Snapshot> Dram<T> {
    /// Serializes the channel's dynamic state. The in-flight slot store is
    /// saved **index-preserving** and the free list verbatim: slot reuse
    /// pops the free list LIFO, so the exact layout determines the slot
    /// ids (and thus retire order) of future requests. The completions
    /// are stored as one sorted list — their pop order is total on
    /// `(done_at, slot)`, so rebuilding from sorted entries is exact.
    pub fn save_state(&self, w: &mut Writer) {
        self.open_rows.save(w);
        self.queue.save(w);
        w.put_u64(self.next_free_fp);
        let mut inflight: Vec<(Cycle, u64)> = self.inflight.iter().collect();
        inflight.sort_unstable();
        inflight.save(w);
        self.inflight_store.save(w);
        self.free_slots.save(w);
        self.ready.save(w);
        self.stats.save(w);
        self.no_refault.save(w);
        match &self.injector {
            None => w.put_u8(0),
            Some(inj) => {
                w.put_u8(1);
                inj.save_state(w);
            }
        }
    }

    /// Restores state saved by [`Dram::save_state`] into a channel
    /// rebuilt from the same configuration (same bank count, bandwidth,
    /// latency, queue capacity and fault plan).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the decoded state violates the
    /// channel's invariants (bank-count mismatch, out-of-range slot
    /// indices, fault-injector presence mismatch); any decode error
    /// otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let open_rows: Vec<Option<Addr>> = Vec::load(r)?;
        if open_rows.len() != self.open_rows.len() {
            return Err(CheckpointError::Malformed(format!(
                "DRAM bank count mismatch: checkpoint has {}, channel has {}",
                open_rows.len(),
                self.open_rows.len()
            )));
        }
        self.open_rows = open_rows;
        let queue: VecDeque<DramRequest<T>> = VecDeque::load(r)?;
        if queue.len() > self.queue_cap {
            return Err(CheckpointError::Malformed(format!(
                "DRAM queue holds {} requests but capacity is {}",
                queue.len(),
                self.queue_cap
            )));
        }
        self.queue = queue;
        self.next_free_fp = r.get_u64()?;
        let inflight: Vec<(Cycle, u64)> = Vec::load(r)?;
        let store: Vec<Option<DramRequest<T>>> = Vec::load(r)?;
        for &(_, slot) in &inflight {
            let occupied = store.get(slot as usize).is_some_and(Option::is_some);
            if !occupied {
                return Err(CheckpointError::Malformed(format!(
                    "in-flight completion references empty or out-of-range slot {slot}"
                )));
            }
        }
        let free_slots: Vec<usize> = Vec::load(r)?;
        for &slot in &free_slots {
            let vacant = store.get(slot).is_some_and(Option::is_none);
            if !vacant {
                return Err(CheckpointError::Malformed(format!(
                    "free list references occupied or out-of-range slot {slot}"
                )));
            }
        }
        // Entries up to the last serviced completion extend the FIFO
        // (the list is sorted); later ones are fault delays, which a new
        // serviced request may precede.
        let last_serviced = self.next_free_fp.div_ceil(FP) + self.latency;
        self.inflight = Completions::default();
        for key in inflight {
            if key.0 <= last_serviced {
                self.inflight.push_serviced(key);
            } else {
                self.inflight.push_side(key);
            }
        }
        self.inflight_store = store;
        self.free_slots = free_slots;
        self.ready = VecDeque::load(r)?;
        self.stats = DramStats::load(r)?;
        let no_refault: Vec<bool> = Vec::load(r)?;
        if !self.inflight_store.is_empty() && no_refault.len() < self.inflight_store.len() {
            return Err(CheckpointError::Malformed(format!(
                "no-refault map has {} entries for {} slots",
                no_refault.len(),
                self.inflight_store.len()
            )));
        }
        self.no_refault = no_refault;
        match (r.get_u8()?, &mut self.injector) {
            (0, None) => {}
            (1, Some(inj)) => inj.restore_state(r)?,
            (0, Some(_)) | (1, None) => {
                return Err(CheckpointError::Malformed(
                    "fault injector presence differs between checkpoint and configuration".into(),
                ))
            }
            (other, _) => return Err(CheckpointError::Malformed(format!("injector discriminant {other}"))),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(bytes: u64, write: bool, token: u32) -> DramRequest<u32> {
        DramRequest { bytes, addr: 0, is_write: write, class: TrafficClass::Data, token }
    }

    /// 24 B/cycle, 10-cycle latency, queue of 4.
    fn dram() -> Dram<u32> {
        Dram::new(24 * FP, 10, 4)
    }

    #[test]
    fn single_request_latency() {
        let mut d = dram();
        d.try_push(req(32, false, 1)).unwrap();
        let mut done_cycle = None;
        for now in 0..40 {
            d.cycle(now);
            if let Some(r) = d.pop_completed() {
                assert_eq!(r.token, 1);
                done_cycle = Some(now);
                break;
            }
        }
        // 32 B at 24 B/cycle = 2 cycles (ceil), + 10 latency.
        assert_eq!(done_cycle, Some(12));
        assert!(d.is_idle());
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let mut d = Dram::new(24 * FP, 0, 1024);
        for i in 0..100 {
            d.try_push(req(32, false, i)).unwrap();
        }
        let mut completed = 0;
        let mut cycles = 0;
        while completed < 100 {
            d.cycle(cycles);
            while d.pop_completed().is_some() {
                completed += 1;
            }
            cycles += 1;
            assert!(cycles < 1000, "requests never completed");
        }
        // 100 * 32 B = 3200 B at 24 B/cycle ~= 133 cycles.
        assert!((130..=140).contains(&cycles), "took {cycles} cycles");
        let util = d.stats().utilization(cycles);
        assert!(util > 0.9, "utilization {util}");
    }

    #[test]
    fn queue_full_backpressure() {
        let mut d = dram();
        for i in 0..4 {
            d.try_push(req(32, false, i)).unwrap();
        }
        assert!(d.is_full());
        assert!(d.try_push(req(32, false, 99)).is_err());
        assert_eq!(d.stats().rejected, 1);
    }

    #[test]
    fn completions_in_service_order() {
        let mut d = dram();
        d.try_push(req(128, false, 1)).unwrap();
        d.try_push(req(32, false, 2)).unwrap();
        let mut order = Vec::new();
        for now in 0..100 {
            d.cycle(now);
            while let Some(r) = d.pop_completed() {
                order.push(r.token);
            }
        }
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn per_class_stats() {
        let mut d: Dram<()> = Dram::new(24 * FP, 0, 16);
        d.try_push(DramRequest { bytes: 32, addr: 0, is_write: false, class: TrafficClass::Mac, token: () })
            .unwrap();
        d.try_push(DramRequest {
            bytes: 128,
            addr: 0,
            is_write: true,
            class: TrafficClass::Counter,
            token: (),
        })
        .unwrap();
        assert_eq!(d.stats().class(TrafficClass::Mac).reads, 1);
        assert_eq!(d.stats().class(TrafficClass::Mac).bytes_read, 32);
        assert_eq!(d.stats().class(TrafficClass::Counter).writes, 1);
        assert_eq!(d.stats().class(TrafficClass::Counter).bytes_written, 128);
        assert_eq!(d.stats().total_requests(), 2);
        assert_eq!(d.stats().total_bytes(), 160);
    }

    #[test]
    fn writes_complete_too() {
        let mut d = dram();
        d.try_push(req(32, true, 7)).unwrap();
        let mut saw = false;
        for now in 0..40 {
            d.cycle(now);
            if let Some(r) = d.pop_completed() {
                assert!(r.is_write);
                saw = true;
            }
        }
        assert!(saw);
    }

    #[test]
    fn row_buffer_hits_are_faster() {
        // 16 B/cycle, zero latency; row misses cost 10 extra cycles.
        let run = |addrs: &[u64]| {
            let mut d: Dram<u32> = Dram::with_banks(16 * FP, 0, 64, 4, 2048, 10);
            for (i, &a) in addrs.iter().enumerate() {
                d.try_push(DramRequest {
                    bytes: 32,
                    addr: a,
                    is_write: false,
                    class: TrafficClass::Data,
                    token: i as u32,
                })
                .unwrap();
            }
            let mut done = 0;
            let mut now = 0;
            while done < addrs.len() {
                d.cycle(now);
                while d.pop_completed().is_some() {
                    done += 1;
                }
                now += 1;
                assert!(now < 10_000);
            }
            now
        };
        // Same row streaming vs. alternating rows in the same bank.
        let stream: Vec<u64> = (0..16).map(|i| i * 32).collect();
        let thrash: Vec<u64> = (0..16).map(|i| (i % 2) * 4 * 2048 + i * 32).collect();
        assert!(run(&stream) < run(&thrash), "row thrashing must be slower");
    }

    #[test]
    fn row_stats_recorded() {
        let mut d: Dram<u32> = Dram::with_banks(16 * FP, 0, 64, 2, 2048, 10);
        for i in 0..4u64 {
            d.try_push(DramRequest {
                bytes: 32,
                addr: i * 32,
                is_write: false,
                class: TrafficClass::Data,
                token: i as u32,
            })
            .unwrap();
        }
        for now in 0..100 {
            d.cycle(now);
            while d.pop_completed().is_some() {}
        }
        assert_eq!(d.stats().row_misses, 1, "first access opens the row");
        assert_eq!(d.stats().row_hits, 3);
    }

    #[test]
    fn unbanked_records_no_row_stats() {
        let mut d = dram();
        d.try_push(req(32, false, 1)).unwrap();
        for now in 0..40 {
            d.cycle(now);
        }
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_misses, 0);
    }

    #[test]
    fn utilization_zero_when_idle() {
        let d = dram();
        assert_eq!(d.stats().utilization(100), 0.0);
        assert_eq!(d.stats().utilization(0), 0.0);
    }

    mod completion_order {
        use super::*;
        use crate::fault::{FaultPlan, FaultSpec, FaultTrigger};
        use crate::rng::Rng64;

        /// 100 B/cycle: 8–32 B requests take under a cycle, so several
        /// share a `done_at`, and LIFO slot reuse hands them slots out of
        /// service order.
        fn channel(plan: Option<&FaultPlan>) -> Dram<u32> {
            let mut d = Dram::new(100 * FP, 3, 16);
            if let Some(plan) = plan {
                d.install_faults(plan.injector_for(0));
            }
            d
        }

        fn delay_plan() -> FaultPlan {
            FaultPlan::new(11)
                .with(FaultSpec::new(FaultKind::Delay(2), FaultTrigger::OneIn(4)))
                .with(FaultSpec::new(FaultKind::Delay(9), FaultTrigger::EveryNth(7)))
        }

        /// Queues up to three requests of 8–128 B, tokens counting up.
        fn feed(d: &mut Dram<u32>, rng: &mut Rng64, token: &mut u32) {
            for _ in 0..rng.gen_range(4) {
                let bytes = [8, 16, 32, 64, 128][rng.gen_range(5) as usize];
                if d.try_push(req(bytes, rng.gen_range(4) == 0, *token)).is_err() {
                    break;
                }
                *token += 1;
            }
        }

        /// Facts about the completions in flight.
        #[derive(Default)]
        struct Seen {
            /// A cycle retired tokens out of service (token) order.
            slot_order_differs: bool,
            /// A fault-delayed completion waited in the side heap.
            delayed: bool,
            /// A serviced completion waited in the side heap.
            tie: bool,
        }

        impl Seen {
            fn note(&mut self, d: &Dram<u32>) {
                for Reverse((_, slot)) in d.inflight.side.iter() {
                    if d.no_refault[*slot as usize] {
                        self.delayed = true;
                    } else {
                        self.tie = true;
                    }
                }
            }
        }

        /// Runs one cycle and checks its retirements against a reference:
        /// the in-flight completions due by `now`, sorted by
        /// `(done_at, slot)`, less those a fault delayed. Returns the
        /// retired tokens.
        fn checked_cycle(d: &mut Dram<u32>, now: Cycle, seen: &mut Seen) -> Vec<u32> {
            let token =
                |d: &Dram<u32>, slot: u64| d.inflight_store[slot as usize].as_ref().map(|req| req.token);
            let mut due: Vec<(Cycle, u64, Option<u32>)> = d
                .inflight
                .iter()
                .filter(|k| k.0 <= now)
                .map(|(at, slot)| (at, slot, token(d, slot)))
                .collect();
            due.sort_unstable();
            d.cycle(now);
            // A retired slot is vacant (none is reused before the next
            // cycle's service); a delayed one still holds its request.
            let expected: Vec<u32> = due
                .iter()
                .filter(|&&(_, slot, _)| token(d, slot).is_none())
                .filter_map(|&(_, _, t)| t)
                .collect();
            let mut got = Vec::new();
            while let Some(r) = d.pop_completed() {
                got.push(r.token);
            }
            assert_eq!(got, expected, "cycle {now}: retire order is not (done_at, slot)");
            seen.slot_order_differs |= got.windows(2).any(|w| w[0] > w[1]);
            seen.note(d);
            got
        }

        #[test]
        fn sub_cycle_ties_retire_in_slot_order() {
            let mut d = channel(None);
            let mut rng = Rng64::new(0x71E5);
            let (mut token, mut retired, mut seen) = (0, 0, Seen::default());
            for now in 0..4000 {
                feed(&mut d, &mut rng, &mut token);
                retired += checked_cycle(&mut d, now, &mut seen).len();
            }
            assert!(seen.tie && seen.slot_order_differs, "the run exercises out-of-order slot ties");
            assert!(!seen.delayed);
            for now in 4000..4100 {
                retired += checked_cycle(&mut d, now, &mut seen).len();
            }
            assert_eq!(retired, token as usize, "every request retires once");
            assert!(d.is_idle());
        }

        #[test]
        fn delays_interleave_with_serviced_completions() {
            let plan = delay_plan();
            let mut d = channel(Some(&plan));
            let mut rng = Rng64::new(0xDE1A);
            let (mut token, mut retired, mut seen) = (0, 0, Seen::default());
            for now in 0..4000 {
                feed(&mut d, &mut rng, &mut token);
                retired += checked_cycle(&mut d, now, &mut seen).len();
            }
            for now in 4000..4100 {
                retired += checked_cycle(&mut d, now, &mut seen).len();
            }
            assert!(seen.delayed && seen.tie);
            assert!(d.fault_stats().class(TrafficClass::Data).delayed > 100);
            assert_eq!(retired, token as usize, "a delay postpones a completion, never loses it");
            assert!(d.is_idle());
        }

        fn state_bytes(d: &Dram<u32>) -> Vec<u8> {
            let mut w = Writer::new();
            d.save_state(&mut w);
            w.into_bytes()
        }

        #[test]
        fn checkpoint_holding_a_tie_and_a_delay_resumes_identically() {
            let plan = delay_plan();
            let mut d = channel(Some(&plan));
            let mut rng = Rng64::new(0xC4EC);
            let mut token = 0;
            let mut now = 0;
            loop {
                feed(&mut d, &mut rng, &mut token);
                let mut seen = Seen::default();
                checked_cycle(&mut d, now, &mut seen);
                now += 1;
                if seen.tie && seen.delayed {
                    break;
                }
                assert!(now < 10_000, "no cycle held both a tie and a delayed completion");
            }
            let bytes = state_bytes(&d);
            let mut resumed = channel(Some(&plan));
            let mut r = Reader::new(&bytes);
            resumed.restore_state(&mut r).expect("restores");
            r.expect_end().expect("whole state consumed");
            assert!(state_bytes(&resumed) == bytes, "restore then save changes the bytes");
            let mut twin_rng = rng.clone();
            let mut twin_token = token;
            let mut seen = Seen::default();
            for now in now..now + 2000 {
                feed(&mut d, &mut rng, &mut token);
                feed(&mut resumed, &mut twin_rng, &mut twin_token);
                let a = checked_cycle(&mut d, now, &mut seen);
                let b = checked_cycle(&mut resumed, now, &mut seen);
                assert_eq!(a, b, "cycle {now}: resumed channel retires differently");
            }
            assert!(state_bytes(&resumed) == state_bytes(&d));
        }
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};

        fn faulted_dram(kind: FaultKind) -> Dram<u32> {
            let mut d = dram();
            let plan = FaultPlan::new(5).with(FaultSpec::new(kind, FaultTrigger::Nth(0)));
            d.install_faults(plan.injector_for(0));
            d
        }

        #[test]
        fn bit_flip_is_delivered_with_flag() {
            let mut d = faulted_dram(FaultKind::BitFlip);
            d.try_push(req(32, false, 1)).unwrap();
            d.try_push(req(32, false, 2)).unwrap();
            let mut seen = Vec::new();
            for now in 0..40 {
                d.cycle(now);
                while let Some((r, f)) = d.pop_completed_with_fault() {
                    seen.push((r.token, f));
                }
            }
            assert_eq!(seen, vec![(1, Some(FaultKind::BitFlip)), (2, None)]);
            assert_eq!(d.fault_stats().class(TrafficClass::Data).injected, 1);
        }

        #[test]
        fn drop_swallows_the_completion() {
            let mut d = faulted_dram(FaultKind::Drop);
            d.try_push(req(32, false, 1)).unwrap();
            d.try_push(req(32, false, 2)).unwrap();
            let mut seen = Vec::new();
            for now in 0..40 {
                d.cycle(now);
                while let Some(r) = d.pop_completed() {
                    seen.push(r.token);
                }
            }
            assert_eq!(seen, vec![2], "first read vanished");
            assert_eq!(d.fault_stats().class(TrafficClass::Data).dropped, 1);
            assert!(d.is_idle(), "the channel itself is drained");
        }

        #[test]
        fn delay_postpones_completion_once() {
            let mut base = dram();
            base.try_push(req(32, false, 1)).unwrap();
            let mut baseline_done = 0;
            for now in 0..200 {
                base.cycle(now);
                if base.pop_completed().is_some() {
                    baseline_done = now;
                    break;
                }
            }
            let mut d = faulted_dram(FaultKind::Delay(25));
            d.try_push(req(32, false, 1)).unwrap();
            let mut done = None;
            for now in 0..200 {
                d.cycle(now);
                if let Some((r, f)) = d.pop_completed_with_fault() {
                    assert_eq!(r.token, 1);
                    assert_eq!(f, None, "a delayed request is not corrupted");
                    done = Some(now);
                    break;
                }
            }
            assert_eq!(done, Some(baseline_done + 25));
            assert_eq!(d.fault_stats().class(TrafficClass::Data).delayed, 1);
        }

        #[test]
        fn plain_pop_hides_the_flag() {
            let mut d = faulted_dram(FaultKind::BitFlip);
            d.try_push(req(32, false, 9)).unwrap();
            for now in 0..40 {
                d.cycle(now);
                if let Some(r) = d.pop_completed() {
                    assert_eq!(r.token, 9);
                    return;
                }
            }
            panic!("request never completed");
        }
    }
}
