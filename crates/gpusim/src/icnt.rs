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
        self.q.push_back((now + self.latency, item));
        Ok(())
    }

    /// Returns a reference to the front element if a [`DelayQueue::pop`]
    /// at `now` would succeed, without consuming rate.
    pub fn ready(&self, now: Cycle) -> Option<&T> {
        if self.drained_at == now && self.drained_count >= self.rate {
            return None;
        }
        match self.q.front() {
            Some((ready, item)) if *ready <= now => Some(item),
            _ => None,
        }
    }

    /// Pops the front element if it is ready at `now` and the per-cycle
    /// rate has not been exhausted.
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        if self.drained_at != now {
            self.drained_at = now;
            self.drained_count = 0;
        }
        if self.drained_count >= self.rate {
            return None;
        }
        match self.q.front() {
            Some((ready, _)) if *ready <= now => {
                self.drained_count += 1;
                self.q.pop_front().map(|(_, item)| item)
            }
            _ => None,
        }
    }

    /// The cycle at which the front element becomes visible, if any.
    /// Used by the idle-skip scheduler to find the next delivery event.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.q.front().map(|(ready, _)| *ready)
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
    /// Serializes occupancy and the per-cycle rate-limiter cursor.
    /// Geometry (latency, rate, capacity) comes from the configuration.
    pub fn save_state(&self, w: &mut Writer) {
        self.q.save(w);
        w.put_u64(self.drained_at);
        w.put_u32(self.drained_count);
    }

    /// Restores state saved by [`DelayQueue::save_state`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] if the stored occupancy exceeds this
    /// queue's capacity; any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let q: VecDeque<(Cycle, T)> = VecDeque::load(r)?;
        if q.len() > self.cap {
            return Err(CheckpointError::Malformed(format!(
                "delay queue holds {} elements but capacity is {}",
                q.len(),
                self.cap
            )));
        }
        self.q = q;
        self.drained_at = r.get_u64()?;
        self.drained_count = r.get_u32()?;
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

    /// True if the request path toward `partition` is full.
    pub fn request_full(&self, partition: u32) -> bool {
        self.to_partition[partition as usize].is_full()
    }

    /// Receives the next request at `partition`, if any is ready.
    pub fn pop_request(&mut self, now: Cycle, partition: u32) -> Option<MemRequest> {
        self.to_partition[partition as usize].pop(now)
    }

    /// Peeks the next deliverable request at `partition` without
    /// consuming it (used to stall without losing the request).
    pub fn peek_request(&self, now: Cycle, partition: u32) -> Option<&MemRequest> {
        self.to_partition[partition as usize].ready(now)
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
        let parts = r.get_usize()?;
        if parts != self.to_partition.len() {
            return Err(CheckpointError::Malformed(format!(
                "interconnect has {} partition queues, checkpoint has {parts}",
                self.to_partition.len()
            )));
        }
        for q in &mut self.to_partition {
            q.restore_state(r)?;
        }
        let sms = r.get_usize()?;
        if sms != self.to_sm.len() {
            return Err(CheckpointError::Malformed(format!(
                "interconnect has {} SM queues, checkpoint has {sms}",
                self.to_sm.len()
            )));
        }
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

    #[test]
    fn ready_peeks_without_consuming_rate() {
        let mut q: DelayQueue<u32> = DelayQueue::new(0, 1, 8);
        q.try_push(0, 7).unwrap();
        assert_eq!(q.ready(0), Some(&7));
        assert_eq!(q.ready(0), Some(&7), "peeking is repeatable");
        assert_eq!(q.pop(0), Some(7));
        assert_eq!(q.ready(0), None);
    }

    #[test]
    fn ready_respects_exhausted_rate() {
        let mut q: DelayQueue<u32> = DelayQueue::new(0, 1, 8);
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        assert_eq!(q.pop(5), Some(1));
        assert_eq!(q.ready(5), None, "rate used up this cycle");
        assert_eq!(q.ready(6), Some(&2));
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
}
