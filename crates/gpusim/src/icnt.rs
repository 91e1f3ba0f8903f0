//! Interconnection network between SMs and memory partitions.
//!
//! Modeled as per-destination delay queues with a fixed one-way latency
//! and a bounded per-cycle delivery rate. Request queues (SM → partition)
//! are bounded to provide backpressure; response queues (partition → SM)
//! are drained at the configured rate.

use std::collections::VecDeque;

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

use crate::config::GpuConfig;
use crate::types::{Cycle, MemRequest};

/// A latency + rate limited FIFO.
#[derive(Debug)]
pub struct DelayQueue<T> {
    latency: Cycle,
    rate: u32,
    cap: usize,
    q: VecDeque<(Cycle, T)>,
    /// The front element's ready cycle (`Cycle::MAX` when empty), so a
    /// poll that finds nothing due never touches the ring buffer. Derived
    /// from `q`: not checkpointed.
    head_ready: Cycle,
    drained_at: Cycle,
    drained_count: u32,
}

impl<T> DelayQueue<T> {
    /// Creates a queue with `latency` cycles of delay, at most `rate` pops
    /// per cycle, and `cap` maximum occupancy (`usize::MAX` = unbounded).
    pub fn new(latency: u32, rate: u32, cap: usize) -> Self {
        Self {
            latency: latency as Cycle,
            rate: rate.max(1),
            cap,
            q: VecDeque::new(),
            head_ready: Cycle::MAX,
            drained_at: Cycle::MAX,
            drained_count: 0,
        }
    }

    /// True if the queue cannot accept another element.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Pushes an element that becomes visible `latency` cycles from `now`.
    ///
    /// # Errors
    ///
    /// Returns the element back if the queue is full.
    pub fn try_push(&mut self, now: Cycle, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        let ready = now + self.latency;
        if self.q.is_empty() {
            self.head_ready = ready;
        }
        self.q.push_back((ready, item));
        Ok(())
    }

    /// Re-reads the front element's ready cycle after `q` changed.
    fn sync_head(&mut self) {
        self.head_ready = self.q.front().map_or(Cycle::MAX, |(ready, _)| *ready);
    }

    /// Pops the front element if it is ready at `now` and the per-cycle
    /// rate has not been exhausted.
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        if self.drained_at != now {
            self.drained_at = now;
            self.drained_count = 0;
        }
        if self.drained_count >= self.rate || self.head_ready > now {
            return None;
        }
        self.drained_count += 1;
        let item = self.q.pop_front().map(|(_, item)| item);
        self.sync_head();
        item
    }

    /// The cycle at which the front element becomes visible, if any.
    /// Used by the idle-skip scheduler to find the next delivery event.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        (self.head_ready != Cycle::MAX).then_some(self.head_ready)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if the queue holds no elements.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

impl<T: Snapshot> DelayQueue<T> {
    /// Serializes occupancy. Geometry (latency, rate, capacity) comes
    /// from the configuration, and the rate-limiter cursor is not saved:
    /// frames are taken between cycles, when `drained_at < now` always
    /// holds, so the cursor records only which cycles were stepped.
    pub fn save_state(&self, w: &mut Writer) {
        self.q.save(w);
    }

    /// Restores state saved by [`DelayQueue::save_state`], with nothing
    /// drained yet.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] if the stored occupancy exceeds this
    /// queue's capacity; any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.q = r.get_queue("delay queue", self.cap)?;
        self.sync_head();
        self.drained_at = Cycle::MAX;
        self.drained_count = 0;
        Ok(())
    }
}

/// The SM ↔ memory-partition interconnect.
#[derive(Debug)]
pub struct Interconnect {
    /// One request queue per partition.
    to_partition: Vec<DelayQueue<MemRequest>>,
    /// One response queue per SM.
    to_sm: Vec<DelayQueue<MemRequest>>,
}

impl Interconnect {
    /// Builds the network for a GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        let mk_req = || DelayQueue::new(cfg.icnt_latency, cfg.icnt_flit_per_cycle, 64);
        let mk_resp = || DelayQueue::new(cfg.icnt_latency, cfg.icnt_flit_per_cycle, usize::MAX);
        Self {
            to_partition: (0..cfg.num_partitions).map(|_| mk_req()).collect(),
            to_sm: (0..cfg.num_sms).map(|_| mk_resp()).collect(),
        }
    }

    /// Sends a request toward `partition`.
    ///
    /// # Errors
    ///
    /// Returns the request back if the partition's queue is full.
    pub fn push_request(&mut self, now: Cycle, partition: u32, req: MemRequest) -> Result<(), MemRequest> {
        self.to_partition[partition as usize].try_push(now, req)
    }

    /// True if `partition`'s request queue cannot accept another request.
    pub fn request_full(&self, partition: u32) -> bool {
        self.to_partition[partition as usize].is_full()
    }

    /// Receives the next request at `partition`, if any is ready.
    pub fn pop_request(&mut self, now: Cycle, partition: u32) -> Option<MemRequest> {
        self.to_partition[partition as usize].pop(now)
    }

    /// Sends a response toward its SM (responses are never refused).
    pub fn push_response(&mut self, now: Cycle, sm: u32, resp: MemRequest) {
        let pushed = self.to_sm[sm as usize].try_push(now, resp);
        debug_assert!(pushed.is_ok(), "response queues are unbounded");
    }

    /// Receives the next response at `sm`, if any is ready.
    pub fn pop_response(&mut self, now: Cycle, sm: u32) -> Option<MemRequest> {
        self.to_sm[sm as usize].pop(now)
    }

    /// True when no messages are anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.to_partition.iter().all(DelayQueue::is_empty) && self.to_sm.iter().all(DelayQueue::is_empty)
    }

    /// Earliest cycle at or after `now` at which any queued message can be
    /// delivered; `None` when the network is empty. Used by the idle-skip
    /// scheduler.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        for q in self.to_partition.iter().chain(self.to_sm.iter()) {
            if let Some(r) = q.next_ready_at() {
                let c = r.max(now);
                next = Some(next.map_or(c, |n| n.min(c)));
            }
        }
        next
    }

    /// Per-partition request-queue occupancy (stall diagnostics).
    pub fn request_depths(&self) -> Vec<usize> {
        self.to_partition.iter().map(DelayQueue::len).collect()
    }

    /// Per-SM response-queue occupancy (stall diagnostics).
    pub fn response_depths(&self) -> Vec<usize> {
        self.to_sm.iter().map(DelayQueue::len).collect()
    }

    /// Serializes every queue's contents into a checkpoint payload.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.to_partition.len());
        for q in &self.to_partition {
            q.save_state(w);
        }
        w.put_usize(self.to_sm.len());
        for q in &self.to_sm {
            q.save_state(w);
        }
    }

    /// Restores state saved by [`Interconnect::save_state`] into a
    /// network rebuilt from the same configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on a queue-count mismatch; any
    /// decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        r.expect_count("interconnect", "partition queues", self.to_partition.len())?;
        for q in &mut self.to_partition {
            q.restore_state(r)?;
        }
        r.expect_count("interconnect", "SM queues", self.to_sm.len())?;
        for q in &mut self.to_sm {
            q.restore_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AccessKind, SectorMask};

    fn req(id: u64) -> MemRequest {
        MemRequest {
            id,
            line_addr: id * 128,
            sectors: SectorMask::single(0),
            kind: AccessKind::Load,
            warp: None,
        }
    }

    #[test]
    fn delay_queue_applies_latency() {
        let mut q: DelayQueue<u32> = DelayQueue::new(5, 1, 8);
        q.try_push(10, 42).unwrap();
        assert_eq!(q.pop(14), None);
        assert_eq!(q.pop(15), Some(42));
    }

    #[test]
    fn delay_queue_rate_limit() {
        let mut q: DelayQueue<u32> = DelayQueue::new(0, 2, 8);
        for i in 0..5 {
            q.try_push(0, i).unwrap();
        }
        assert_eq!(q.pop(1), Some(0));
        assert_eq!(q.pop(1), Some(1));
        assert_eq!(q.pop(1), None, "rate exhausted");
        assert_eq!(q.pop(2), Some(2));
    }

    #[test]
    fn delay_queue_capacity() {
        let mut q: DelayQueue<u32> = DelayQueue::new(0, 1, 2);
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.try_push(0, 3), Err(3));
    }

    /// The queue without a cached head: every poll reads `q.front()`.
    struct FrontQueue {
        latency: Cycle,
        rate: u32,
        cap: usize,
        q: VecDeque<(Cycle, u32)>,
        drained_at: Cycle,
        drained_count: u32,
    }

    impl FrontQueue {
        fn push(&mut self, now: Cycle, item: u32) -> Result<(), u32> {
            if self.q.len() >= self.cap {
                return Err(item);
            }
            self.q.push_back((now + self.latency, item));
            Ok(())
        }

        fn pop(&mut self, now: Cycle) -> Option<u32> {
            if self.drained_at != now {
                self.drained_at = now;
                self.drained_count = 0;
            }
            if self.drained_count >= self.rate || self.q.front().is_none_or(|(ready, _)| *ready > now) {
                return None;
            }
            self.drained_count += 1;
            self.q.pop_front().map(|(_, item)| item)
        }
    }

    fn saved(save: impl Fn(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        save(&mut w);
        w.into_bytes()
    }

    /// A seeded mix of pushes, rate-limited pops and checkpoint round
    /// trips: the cached head must answer exactly as a queue that
    /// reads its front on every poll, and save the same bytes.
    #[test]
    fn cached_head_matches_reading_the_front() {
        for seed in 0..8 {
            let mut rng = crate::rng::Rng64::new(seed);
            let (latency, rate, cap) =
                (rng.gen_range(6) as u32, 1 + rng.gen_range(3) as u32, 1 + rng.gen_range(8) as usize);
            let mut q: DelayQueue<u32> = DelayQueue::new(latency, rate, cap);
            let mut reference = FrontQueue {
                latency: latency as Cycle,
                rate,
                cap,
                q: VecDeque::new(),
                drained_at: Cycle::MAX,
                drained_count: 0,
            };
            let mut now: Cycle = 0;
            for step in 0..4_000u32 {
                let ctx = format!("seed {seed}, step {step}, cycle {now}");
                match rng.gen_range(10) {
                    0..=3 => assert_eq!(q.try_push(now, step), reference.push(now, step), "{ctx}: push"),
                    4..=6 => assert_eq!(q.pop(now), reference.pop(now), "{ctx}: pop"),
                    8 => {
                        // The simulator takes frames only between cycles,
                        // so a round trip first moves past the last poll.
                        now += 1;
                        let bytes = saved(|w| q.save_state(w));
                        assert_eq!(bytes, saved(|w| reference.q.save(w)), "{ctx}: saved state");
                        q = DelayQueue::new(latency, rate, cap);
                        let mut r = Reader::new(&bytes);
                        q.restore_state(&mut r).expect("restore succeeds");
                        r.expect_end().expect("payload fully consumed");
                    }
                    _ => now += rng.gen_range(4),
                }
                assert_eq!(q.next_ready_at(), reference.q.front().map(|(ready, _)| *ready), "{ctx}: head");
            }
        }
    }

    #[test]
    fn interconnect_routes_by_partition_and_sm() {
        let cfg = GpuConfig::small();
        let mut icnt = Interconnect::new(&cfg);
        icnt.push_request(0, 2, req(7)).unwrap();
        assert_eq!(icnt.pop_request(cfg.icnt_latency as u64, 1), None);
        let got = icnt.pop_request(cfg.icnt_latency as u64, 2).expect("request arrives");
        assert_eq!(got.id, 7);
        icnt.push_response(100, 3, req(9));
        assert!(icnt.pop_response(100 + cfg.icnt_latency as u64, 0).is_none());
        assert_eq!(icnt.pop_response(100 + cfg.icnt_latency as u64, 3).unwrap().id, 9);
        assert!(icnt.is_idle());
    }

    /// A queue over the rebuilt queue's capacity, and a network of
    /// another partition or SM count, are refused by name.
    #[test]
    fn shape_mismatches_rejected() {
        let mut big: DelayQueue<u32> = DelayQueue::new(1, 1, 4);
        for i in 0..3 {
            big.try_push(0, i).unwrap();
        }
        let bytes = saved(|w| big.save_state(w));
        let err = DelayQueue::<u32>::new(1, 1, 2).restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, CheckpointError::Malformed("delay queue holds 3 entries but capacity is 2".into()));

        let cfg = GpuConfig::small();
        for (other, expected) in [
            (
                GpuConfig { num_partitions: 2, ..cfg.clone() },
                "interconnect has 4 partition queues, checkpoint has 2",
            ),
            (GpuConfig { num_sms: 4, ..cfg.clone() }, "interconnect has 8 SM queues, checkpoint has 4"),
        ] {
            let bytes = saved(|w| Interconnect::new(&other).save_state(w));
            let err = Interconnect::new(&cfg).restore_state(&mut Reader::new(&bytes)).unwrap_err();
            assert_eq!(err, CheckpointError::Malformed(expected.into()));
        }
    }
}
