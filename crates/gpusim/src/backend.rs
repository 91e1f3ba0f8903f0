//! The memory backend abstraction: what sits between an L2 bank's miss
//! path and the DRAM channel of a partition.
//!
//! The baseline GPU uses [`PassthroughBackend`] (requests go straight to
//! DRAM). The secure memory engine in `secmem-core` implements
//! [`MemoryBackend`] too, inserting encryption, MAC and integrity-tree
//! processing — exactly where the paper places the secure memory hardware
//! (inside each memory controller, Fig. 1).

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};
use secmem_telemetry::{EventKind, Telemetry, TelemetryEvent};

use crate::dram::{Dram, DramRequest, DramStats};
use crate::fault::{FaultEvent, FaultInjector, FaultStats};
use crate::stats::EngineStats;
use crate::types::{BackendReq, Cycle, TrafficClass};

/// A memory-side engine + DRAM channel for one partition.
///
/// Contract: the partition checks `can_accept_*` before calling
/// `submit_*`; submitting when not accepting is a programming error and
/// may panic. Completed reads surface through `pop_read_response` with the
/// same `BackendReq` (id, line, sectors, bank) that was submitted; writes
/// complete silently.
///
/// `Send` is a supertrait so every [`crate::sim::Simulator`] is `Send`
/// and can be moved to another thread whole.
pub trait MemoryBackend: Send {
    /// True if a read can be submitted this cycle.
    fn can_accept_read(&self) -> bool;
    /// True if a write (L2 dirty eviction) can be submitted this cycle.
    fn can_accept_write(&self) -> bool;
    /// Submits a data-sector read.
    fn submit_read(&mut self, now: Cycle, req: BackendReq);
    /// Submits a data-sector writeback.
    fn submit_write(&mut self, now: Cycle, req: BackendReq);
    /// Advances internal state to cycle `now`.
    fn cycle(&mut self, now: Cycle);
    /// Pops one completed read, if any.
    fn pop_read_response(&mut self) -> Option<BackendReq>;
    /// DRAM statistics for this partition.
    fn dram_stats(&self) -> &DramStats;
    /// Secure-engine statistics (all-zero default for plain backends).
    fn engine_stats(&self) -> EngineStats {
        EngineStats::default()
    }
    /// Fault-injection statistics (all-zero when no injector installed).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
    /// Typed integrity events observed for injected faults (empty for
    /// backends without an injector or integrity machinery).
    fn fault_events(&self) -> &[FaultEvent] {
        &[]
    }
    /// Work items the backend still holds (queued + in-flight + pending
    /// responses); used by the watchdog's stall diagnostic.
    fn pending_work(&self) -> usize {
        0
    }
    /// True when no work is pending anywhere in the backend.
    fn is_idle(&self) -> bool;
    /// Earliest cycle at or after `now` at which this backend can make
    /// progress, or `None` when idle. The conservative default ("active
    /// now whenever not idle") is always correct; backends with precise
    /// event knowledge override it so the idle-skip scheduler can
    /// fast-forward quiescent gaps.
    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            None
        } else {
            Some(now)
        }
    }
    /// Resets statistics (state preserved) — used to discard warmup.
    fn reset_stats(&mut self);
    /// Attaches a telemetry sink stamped with this backend's partition
    /// id. Default: ignore (backends without instrumentation).
    fn set_telemetry(&mut self, _telemetry: Telemetry, _partition: u32) {}
    /// Metadata-cache MSHR occupancy (waiters parked on in-flight
    /// metadata fills). Zero for backends without metadata caches.
    fn meta_mshr_occupancy(&self) -> usize {
        0
    }
    /// Serializes the backend's complete mutable state (queues, in-flight
    /// work, caches, counters, RNG streams) into a checkpoint payload.
    fn save_state(&self, w: &mut Writer);
    /// Restores state saved by [`MemoryBackend::save_state`] into a
    /// backend freshly built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the payload is malformed or does not
    /// match this backend's geometry.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError>;
}

/// Token carried through the baseline DRAM channel.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Read(BackendReq),
    Write,
}

impl Snapshot for Token {
    fn save(&self, w: &mut Writer) {
        match self {
            Token::Read(req) => {
                w.put_u8(0);
                req.save(w);
            }
            Token::Write => w.put_u8(1),
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(Token::Read(BackendReq::load(r)?)),
            1 => Ok(Token::Write),
            d => Err(CheckpointError::Malformed(format!("dram token discriminant {d}"))),
        }
    }
}

/// The baseline backend: a bare DRAM channel, no security processing.
#[derive(Debug)]
pub struct PassthroughBackend {
    dram: Dram<Token>,
    ready: Vec<BackendReq>,
    events: Vec<FaultEvent>,
    telemetry: Telemetry,
    partition: u32,
}

impl PassthroughBackend {
    /// Creates a backend over a DRAM channel with the given bandwidth
    /// (22.10 fixed-point bytes/cycle), latency and queue capacity.
    pub fn new(bytes_per_cycle_fp: u64, latency: u32, queue_cap: usize) -> Self {
        Self {
            dram: Dram::new(bytes_per_cycle_fp, latency, queue_cap),
            ready: Vec::new(),
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
            partition: 0,
        }
    }

    /// Creates a backend from a GPU configuration (honoring the banked
    /// row-buffer model when `dram_banks > 0`).
    pub fn from_config(cfg: &crate::config::GpuConfig) -> Self {
        Self {
            dram: Dram::with_banks(
                cfg.dram_bytes_per_cycle_fp(),
                cfg.dram_latency,
                cfg.dram_queue_cap,
                cfg.dram_banks,
                cfg.dram_row_bytes,
                cfg.dram_row_miss_penalty,
            ),
            ready: Vec::new(),
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
            partition: 0,
        }
    }

    /// Installs a fault injector on the DRAM channel. The baseline has
    /// no integrity machinery, so every corruption it receives passes
    /// through undetected (and is accounted as such).
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.dram.install_faults(injector);
    }
}

impl MemoryBackend for PassthroughBackend {
    fn can_accept_read(&self) -> bool {
        // A sectored L2 miss submits up to 4 per-sector reads at once.
        self.dram.free_capacity() >= 4
    }

    fn can_accept_write(&self) -> bool {
        !self.dram.is_full()
    }

    fn submit_read(&mut self, _now: Cycle, req: BackendReq) {
        let bytes = req.sectors.bytes();
        let pushed = self.dram.try_push(DramRequest {
            bytes,
            addr: req.line_addr,
            is_write: false,
            class: TrafficClass::Data,
            token: Token::Read(req),
        });
        // `can_accept_read` gates every caller; a full queue here is a
        // caller bug, not a runtime condition worth a panic path.
        debug_assert!(pushed.is_ok(), "submit_read called while full");
    }

    fn submit_write(&mut self, _now: Cycle, req: BackendReq) {
        let bytes = req.sectors.bytes();
        let pushed = self.dram.try_push(DramRequest {
            bytes,
            addr: req.line_addr,
            is_write: true,
            class: TrafficClass::Data,
            token: Token::Write,
        });
        debug_assert!(pushed.is_ok(), "submit_write called while full");
    }

    fn cycle(&mut self, now: Cycle) {
        self.dram.cycle(now);
        while let Some((done, fault)) = self.dram.pop_completed_with_fault() {
            if let Some(kind) = fault {
                if kind.corrupts() {
                    // No MACs, no tree: the corruption sails through.
                    self.events.push(FaultEvent {
                        cycle: now,
                        line_addr: done.addr,
                        class: done.class,
                        kind,
                        detected: false,
                    });
                    if let Some(inj) = self.dram.injector_mut() {
                        inj.record_detection(done.class, false);
                    }
                    if self.telemetry.is_enabled() {
                        record_fault_event(&self.telemetry, self.partition, now, done.class, kind);
                    }
                }
            }
            if let Token::Read(req) = done.token {
                self.ready.push(req);
            }
        }
    }

    fn pop_read_response(&mut self) -> Option<BackendReq> {
        self.ready.pop()
    }

    fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.dram.fault_stats()
    }

    fn fault_events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn pending_work(&self) -> usize {
        self.dram.queue_len() + self.ready.len()
    }

    fn is_idle(&self) -> bool {
        self.dram.is_idle() && self.ready.is_empty()
    }

    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        if !self.ready.is_empty() {
            return Some(now);
        }
        self.dram.next_event_cycle(now)
    }

    fn reset_stats(&mut self) {
        self.dram.reset_stats();
        self.events.clear();
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, partition: u32) {
        self.dram.set_telemetry(telemetry.clone(), partition);
        self.telemetry = telemetry;
        self.partition = partition;
    }

    fn save_state(&self, w: &mut Writer) {
        self.dram.save_state(w);
        self.ready.save(w);
        self.events.save(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.dram.restore_state(r)?;
        self.ready = Vec::load(r)?;
        self.events = Vec::load(r)?;
        Ok(())
    }
}

/// Records an undetected-corruption instant. Outlined from `cycle` so
/// its event allocation stays off the steady-state per-cycle path:
/// faults are rare and the call is telemetry-gated.
#[cold]
fn record_fault_event(
    telemetry: &Telemetry,
    partition: u32,
    now: Cycle,
    class: TrafficClass,
    kind: crate::fault::FaultKind,
) {
    telemetry.record_event(TelemetryEvent {
        cycle: now,
        kind: EventKind::Fault { partition, class: class.label(), kind: kind.label(), detected: Some(false) },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SectorMask;

    fn req(id: u64) -> BackendReq {
        BackendReq { id, line_addr: 0x1000, sectors: SectorMask::single(1), bank: 0 }
    }

    #[test]
    fn read_roundtrip() {
        let mut b = PassthroughBackend::new(24 * 1024, 10, 8);
        assert!(b.can_accept_read());
        b.submit_read(0, req(5));
        let mut got = None;
        for now in 0..50 {
            b.cycle(now);
            if let Some(r) = b.pop_read_response() {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got.expect("read completes").id, 5);
        assert!(b.is_idle());
        assert_eq!(b.dram_stats().class(TrafficClass::Data).reads, 1);
    }

    #[test]
    fn writes_complete_silently() {
        let mut b = PassthroughBackend::new(24 * 1024, 10, 8);
        b.submit_write(0, req(9));
        for now in 0..50 {
            b.cycle(now);
        }
        assert!(b.pop_read_response().is_none());
        assert!(b.is_idle());
        assert_eq!(b.dram_stats().class(TrafficClass::Data).writes, 1);
    }

    #[test]
    fn backpressure_reported() {
        let mut b = PassthroughBackend::new(24 * 1024, 10, 2);
        b.submit_read(0, req(1));
        b.submit_read(0, req(2));
        assert!(!b.can_accept_read());
        assert!(!b.can_accept_write());
    }
}
