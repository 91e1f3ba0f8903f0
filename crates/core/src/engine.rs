//! The secure memory engine: a [`MemoryBackend`] that sits in each memory
//! controller between the L2 miss path and DRAM (Fig. 1 of the paper).
//!
//! For every data read it fetches and verifies the required metadata
//! (counters, MACs, integrity-tree nodes) through the metadata caches,
//! generates one-time pads (counter mode) or decrypts in-line (direct
//! mode) on the shared pipelined AES engines, and returns the sector to
//! the L2. For every dirty-sector writeback it performs the counter
//! increment and MAC update (read-modify-write in the metadata caches),
//! re-encrypts, and writes the data. Dirty metadata evictions write back
//! to DRAM and lazily update their integrity-tree parents.
//!
//! Modeling decisions mirroring the paper's stated design:
//!
//! * **Speculative verification** — data returns to the core before MAC /
//!   tree checks complete; verification work still generates all of its
//!   memory traffic and engine occupancy.
//! * **Lazy update** — tree parents are updated only when a dirty counter
//!   or tree line is evicted from its metadata cache.
//! * **Counter-mode latency hiding** — the OTP is generated as soon as the
//!   counter is available, overlapping the data fetch; the AES latency is
//!   exposed only when the counter itself missed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use secmem_checkpoint::{snapshot_enum, snapshot_fields, CheckpointError, Reader, Snapshot, Writer};
use secmem_gpusim::backend::MemoryBackend;
use secmem_gpusim::config::AddressMap;
use secmem_gpusim::dram::{Dram, DramRequest, DramStats};
use secmem_gpusim::fault::{FaultEvent, FaultInjector, FaultKind, FaultStats};
use secmem_gpusim::hash::{load_map, save_map, FastHashMap};
use secmem_gpusim::reuse::ReuseProfiler;
use secmem_gpusim::stats::EngineStats;
use secmem_gpusim::types::{Addr, BackendReq, Cycle, TrafficClass, LINE_SIZE};
use secmem_telemetry::{EventKind, Telemetry, TelemetryEvent, ThrashDetector, ThrashTransition};

use crate::config::{SecureMemConfig, TreeCoverage};
use crate::engines::{AesEngineBank, MacUnit};
use crate::error::{ConfigError, CoreError};
use crate::layout::MetadataLayout;
use crate::mdcache::{MdOutcome, MetadataCaches};

/// Token carried through the DRAM channel.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DramToken {
    DataRead { txn: u32 },
    DataWrite,
    MetaRead { class: TrafficClass, line: Addr },
    MetaWrite,
}

/// Who is waiting on a metadata line fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MdWaiter {
    /// A read transaction needs this counter line to build its OTP.
    ReadCtr(u32),
    /// A read transaction's (speculative) MAC check.
    ReadMac(u32),
    /// A write transaction's counter read-modify-write.
    WriteCtr(u32),
    /// A write transaction's MAC read-modify-write.
    WriteMac(u32),
    /// A tree node fetched for a (speculative) verification walk.
    TreeFetch,
    /// A tree parent fetched for a lazy update: mark dirty on arrival.
    ParentDirty,
}

/// A deferred metadata operation (retried when MSHRs/queues were full).
/// A `Walk` stalled at `nodes[0]`.
#[derive(Debug, Clone)]
enum RetryOp {
    Access { class: TrafficClass, line: Addr, waiter: MdWaiter },
    Walk { nodes: Vec<Addr> },
}

#[derive(Debug)]
struct ReadTxn {
    req: BackendReq,
    data_done: Option<Cycle>,
    /// OTP-ready time: `Some` once the counter is available (and the pad
    /// scheduled), or immediately for direct/no-counter schemes.
    otp_ready: Option<Cycle>,
    /// True until the sector's MAC line is available (only consulted under
    /// non-speculative verification).
    mac_pending: bool,
    /// Earliest cycle at which all verification work completes (only
    /// consulted under non-speculative verification).
    verify_ready: Cycle,
    /// Unprotected region (selective encryption): plain passthrough.
    plaintext: bool,
    scheduled: bool,
}

#[derive(Debug)]
struct WriteTxn {
    req: BackendReq,
    ctr_ready: bool,
    mac_ready: bool,
}

snapshot_enum!(DramToken, "secure dram token discriminant" {
    0 => DataRead { txn },
    1 => DataWrite,
    2 => MetaRead { class, line },
    3 => MetaWrite,
});
snapshot_enum!(MdWaiter, "metadata waiter discriminant" {
    0 => ReadCtr(txn),
    1 => ReadMac(txn),
    2 => WriteCtr(txn),
    3 => WriteMac(txn),
    4 => TreeFetch,
    5 => ParentDirty,
});
snapshot_enum!(RetryOp, "retry op discriminant" {
    0 => Access { class, line, waiter },
    1 => Walk { nodes },
});
snapshot_fields!(ReadTxn { req, data_done, otp_ready, mac_pending, verify_ready, plaintext, scheduled });
snapshot_fields!(WriteTxn { req, ctr_ready, mac_ready });

/// The secure memory engine + DRAM channel of one partition.
#[derive(Debug)]
pub struct SecureBackend {
    cfg: SecureMemConfig,
    /// Partition-local selective-encryption boundary (None = all protected).
    protected_local_limit: Option<Addr>,
    layout: MetadataLayout,
    map: AddressMap,
    dram: Dram<DramToken>,
    mdcache: MetadataCaches<MdWaiter>,
    aes: AesEngineBank,
    mac_unit: MacUnit,
    read_txns: FastHashMap<u32, ReadTxn>,
    write_txns: FastHashMap<u32, WriteTxn>,
    next_txn: u32,
    completing: BinaryHeap<Reverse<(Cycle, u32)>>,
    ready_responses: VecDeque<BackendReq>,
    pending_dram: VecDeque<DramRequest<DramToken>>,
    retries: VecDeque<RetryOp>,
    /// How many retries at the back of the queue stalled in metadata fill
    /// epoch `stall_epoch`. Every op is queued in the current epoch, so
    /// the dated ops form a suffix of the queue; while the epoch is
    /// unchanged they are known stalls (see `drain_retries`). Not
    /// checkpointed: a restored queue starts undated.
    known_stalls: usize,
    stall_epoch: u64,
    /// Reused buffer for the waiters a metadata fill releases.
    fill_waiters: Vec<MdWaiter>,
    profilers: Option<Box<[ReuseProfiler; 3]>>,
    /// Minor-counter write counts per protected local line (overflow model).
    minor_writes: FastHashMap<Addr, u8>,
    /// Major-counter overflows observed (chunk re-encryptions).
    pub counter_overflows: u64,
    decrypt_waited_on_counter: u64,
    tree_verifications: u64,
    /// Integrity events for injected faults (empty without an injector).
    fault_events: Vec<FaultEvent>,
    /// The cycle of the current `submit_read`/`submit_write`/`cycle`
    /// call, which each sets first. Between calls it records only which
    /// cycles the partition was stepped, so it is not checkpointed.
    now: Cycle,
    /// Telemetry sink (disabled by default).
    telemetry: Telemetry,
    /// Partition id stamped on telemetry events.
    partition: u32,
    /// Per-metadata-class thrash detectors `[counter, mac, tree]`,
    /// driven by windowed miss rates on the sampling clock.
    thrash: [ThrashDetector; 3],
    /// Metadata-cache (hits, misses) at the previous thrash check.
    thrash_prev: [(u64, u64); 3],
}

impl SecureBackend {
    /// Builds the engine for one partition.
    ///
    /// * `cfg` — secure memory configuration (must validate).
    /// * `gpu` — the GPU configuration (clocks, DRAM bandwidth, partition
    ///   count, protected size).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation; [`SecureBackend::try_new`] is the
    /// non-panicking form.
    pub fn new(cfg: SecureMemConfig, gpu: &secmem_gpusim::config::GpuConfig) -> Self {
        match Self::try_new(cfg, gpu) {
            Ok(engine) => engine,
            // lint:allow(H1): documented panicking convenience constructor; try_new is the typed-error form
            Err(e) => panic!("invalid secure memory configuration: {e}"),
        }
    }

    /// Builds the engine for one partition, surfacing configuration
    /// problems as typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `gpu` or `cfg` fails validation,
    /// or a partition's protected bytes cannot be laid out in whole
    /// counter lines.
    pub fn try_new(cfg: SecureMemConfig, gpu: &secmem_gpusim::config::GpuConfig) -> Result<Self, CoreError> {
        // The address map and metadata layout below assume a validated
        // power-of-two geometry.
        gpu.validate()?;
        cfg.validate()?;
        let layout_unit = crate::layout::DATA_LINES_PER_COUNTER_LINE * LINE_SIZE;
        if !gpu.protected_bytes_per_partition().is_multiple_of(layout_unit) {
            return Err(ConfigError::new(
                "protected_bytes",
                format!("must give each partition a multiple of {layout_unit} B"),
            )
            .into());
        }
        let layout = MetadataLayout::new(gpu.protected_bytes_per_partition(), cfg.scheme.tree());
        let aes = if cfg.zero_crypto {
            AesEngineBank::ideal()
        } else {
            AesEngineBank::new(cfg.aes_engines, cfg.aes_latency, gpu.core_clock_mhz, gpu.mem_clock_mhz)
        };
        let protected_local_limit = cfg
            .protected_limit
            .map(|limit| (limit / gpu.num_partitions as u64).min(gpu.protected_bytes_per_partition()));
        Ok(Self {
            protected_local_limit,
            layout,
            map: AddressMap::new(gpu),
            dram: Dram::with_banks(
                gpu.dram_bytes_per_cycle_fp(),
                gpu.dram_latency,
                gpu.dram_queue_cap,
                gpu.dram_banks,
                gpu.dram_row_bytes,
                gpu.dram_row_miss_penalty,
            ),
            mdcache: MetadataCaches::new(&cfg),
            aes,
            mac_unit: MacUnit::new(cfg.effective_mac_latency()),
            read_txns: FastHashMap::default(),
            write_txns: FastHashMap::default(),
            next_txn: 0,
            completing: BinaryHeap::new(),
            ready_responses: VecDeque::new(),
            pending_dram: VecDeque::new(),
            retries: VecDeque::new(),
            known_stalls: 0,
            stall_epoch: 0,
            fill_waiters: Vec::new(),
            profilers: cfg.profile_reuse.then(Default::default),
            minor_writes: FastHashMap::default(),
            counter_overflows: 0,
            decrypt_waited_on_counter: 0,
            tree_verifications: 0,
            fault_events: Vec::new(),
            now: 0,
            telemetry: Telemetry::disabled(),
            partition: 0,
            thrash: Default::default(),
            thrash_prev: [(0, 0); 3],
            cfg,
        })
    }

    /// Installs a fault injector on the DRAM channel. Corrupting faults
    /// that the scheme's integrity machinery covers surface as detected
    /// [`FaultEvent`]s; the rest pass through undetected.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.dram.install_faults(injector);
    }

    /// Whether this scheme's integrity machinery catches a fault of
    /// `kind` injected on a read of `class`.
    ///
    /// Replay faults model a *consistent* rollback (data and its MAC
    /// reverted together), so only an integrity tree over the relevant
    /// metadata catches them — the gap Fig. 17 quantifies for
    /// `direct_mac`. Other corruptions garble the payload against its
    /// current MAC / parent hash.
    fn fault_detected(&self, class: TrafficClass, kind: FaultKind) -> bool {
        let scheme = self.cfg.scheme;
        match (class, kind) {
            (TrafficClass::Data, FaultKind::Replay) => scheme.tree() != TreeCoverage::None,
            (TrafficClass::Data, _) => scheme.has_macs(),
            (TrafficClass::Counter, FaultKind::Replay) => scheme.tree() == TreeCoverage::Counters,
            // A corrupted counter fails its BMT hash, or (lacking a tree)
            // produces the wrong pad and fails the data MAC check.
            (TrafficClass::Counter, _) => scheme.tree() == TreeCoverage::Counters || scheme.has_macs(),
            (TrafficClass::Mac, FaultKind::Replay) => scheme.tree() == TreeCoverage::Macs,
            (TrafficClass::Mac, _) => scheme.has_macs(),
            // Tree nodes always verify against their (cached) parent.
            (TrafficClass::Tree, _) => true,
        }
    }

    /// The metadata layout in use.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// FNV-1a of the configuration's `Debug` rendering: the stamp a
    /// checkpoint must carry to restore into this backend.
    fn config_fingerprint(&self) -> u64 {
        secmem_checkpoint::fnv1a(format!("{:?}", self.cfg).as_bytes())
    }

    /// Reuse-distance histograms `[counter, mac, tree]`, if profiling was
    /// enabled in the configuration.
    pub fn reuse_profilers(&self) -> Option<&[ReuseProfiler; 3]> {
        self.profilers.as_deref()
    }

    fn profile(&mut self, class: TrafficClass, line: Addr) {
        if let Some(p) = self.profilers.as_deref_mut() {
            p[secmem_gpusim::stats::meta_index(class)].access(line);
        }
    }

    /// The first thrash check at or after `now`: a positive multiple of the
    /// sampling interval, so no stored cycle has to survive a restore.
    fn thrash_check_at(&self, now: Cycle) -> Cycle {
        now.max(1).next_multiple_of(self.telemetry.sample_interval().max(1))
    }

    /// Feeds each metadata class's windowed miss rate to its hysteresis
    /// detector, emitting thrash begin/end events on transitions.
    fn check_thrash(&mut self, now: Cycle) {
        const CLASSES: [TrafficClass; 3] = [TrafficClass::Counter, TrafficClass::Mac, TrafficClass::Tree];
        let stats = self.mdcache.stats();
        for (i, m) in stats.iter().enumerate() {
            let (prev_hits, prev_misses) = self.thrash_prev[i];
            let hits = m.cache.hits.saturating_sub(prev_hits);
            let misses = m.cache.misses.saturating_sub(prev_misses);
            self.thrash_prev[i] = (m.cache.hits, m.cache.misses);
            if hits + misses == 0 {
                continue;
            }
            let miss_rate = misses as f64 / (hits + misses) as f64;
            if let Some(transition) = self.thrash[i].update(miss_rate) {
                let class = CLASSES[i].label();
                let kind = match transition {
                    ThrashTransition::Entered => EventKind::ThrashBegin { partition: self.partition, class },
                    ThrashTransition::Exited => EventKind::ThrashEnd { partition: self.partition, class },
                };
                self.telemetry.record_event(TelemetryEvent { cycle: now, kind });
            }
        }
    }

    /// Records an integrity-fault instant. Outlined from `cycle` so its
    /// event allocation stays off the steady-state per-cycle path: faults
    /// are rare and the call is telemetry-gated.
    #[cold]
    fn record_fault_event(&mut self, now: Cycle, class: TrafficClass, kind: FaultKind, detected: bool) {
        self.telemetry.record_event(TelemetryEvent {
            cycle: now,
            kind: EventKind::Fault {
                partition: self.partition,
                class: class.label(),
                kind: kind.label(),
                detected: Some(detected),
            },
        });
    }

    fn queue_dram(&mut self, bytes: u64, addr: Addr, is_write: bool, class: TrafficClass, token: DramToken) {
        self.pending_dram.push_back(DramRequest { bytes, addr, is_write, class, token });
    }

    /// Tracks a minor-counter increment for the data line at local offset
    /// `local`; on 7-bit overflow, models the major-counter bump: the
    /// whole 16 KB chunk is read back and re-encrypted (128 extra line
    /// reads + writes of data traffic) and all minors reset.
    fn note_minor_increment(&mut self, local: Addr) {
        let line = local & !(LINE_SIZE - 1);
        let count = self.minor_writes.entry(line).or_insert(0);
        *count += 1;
        if *count <= crate::counters::MINOR_MAX {
            return;
        }
        self.counter_overflows += 1;
        let chunk_bytes = crate::layout::DATA_LINES_PER_COUNTER_LINE * LINE_SIZE;
        let chunk_base = local / chunk_bytes * chunk_bytes;
        // Reset every tracked minor in the chunk.
        for i in 0..crate::layout::DATA_LINES_PER_COUNTER_LINE {
            self.minor_writes.remove(&(chunk_base + i * LINE_SIZE));
        }
        self.minor_writes.insert(line, 1);
        // Re-encryption sweep: read + write back the whole chunk.
        for i in 0..crate::layout::DATA_LINES_PER_COUNTER_LINE {
            let addr = chunk_base + i * LINE_SIZE;
            self.queue_dram(LINE_SIZE, addr, false, TrafficClass::Data, DramToken::DataWrite);
            self.queue_dram(LINE_SIZE, addr, true, TrafficClass::Data, DramToken::DataWrite);
        }
    }

    /// Whether a partition-local data offset falls inside the selectively
    /// protected region (always true when `protected_limit` is `None`).
    /// With partition interleaving, global address `a < limit` iff its
    /// local offset is below `limit / partitions` (exact when the limit is
    /// interleave-aligned).
    fn is_protected(&self, local: secmem_gpusim::types::Addr) -> bool {
        match self.protected_local_limit {
            None => true,
            Some(limit) => local < limit,
        }
    }

    /// Performs one metadata-cache access and all of its side effects: a
    /// fetch when the line misses, the verification walk when a leaf-class
    /// line is (newly) fetched, and waiter notification on a hit. Returns
    /// `false` if the access stalled and was queued for retry.
    fn md_access(&mut self, class: TrafficClass, line: Addr, waiter: MdWaiter) -> bool {
        self.profile(class, line);
        match self.mdcache.access(class, line, waiter) {
            MdOutcome::Hit => {
                self.on_md_available(class, line, waiter, false);
                true
            }
            MdOutcome::FetchNeeded => {
                self.queue_dram(LINE_SIZE, line, false, class, DramToken::MetaRead { class, line });
                self.on_md_fetch_started(class, line, waiter);
                if self.walk_on_fetch(class) {
                    // A leaf fetched from DRAM must be (speculatively)
                    // verified against the integrity tree.
                    self.start_walk(line);
                }
                true
            }
            MdOutcome::Merged => {
                self.on_md_fetch_started(class, line, waiter);
                true
            }
            MdOutcome::Stall => {
                self.queue_retry(RetryOp::Access { class, line, waiter });
                false
            }
        }
    }

    /// Bookkeeping for a metadata fetch that is now in flight.
    fn on_md_fetch_started(&mut self, class: TrafficClass, _line: Addr, waiter: MdWaiter) {
        if class == TrafficClass::Counter {
            if let MdWaiter::ReadCtr(_) = waiter {
                self.decrypt_waited_on_counter += 1;
            }
        }
    }

    /// A metadata line became available for `waiter` (immediately on a
    /// hit, or at fill time). `filled` distinguishes fills from hits.
    fn on_md_available(&mut self, class: TrafficClass, line: Addr, waiter: MdWaiter, filled: bool) {
        let now = self.now;
        match waiter {
            MdWaiter::ReadCtr(txn) => {
                // A counter that had to be fetched (fill) must itself be
                // hashed against the tree before it counts as verified.
                let verify = if filled { now + self.mac_unit.latency() } else { now };
                if let Some(t) = self.read_txns.get_mut(&txn) {
                    t.verify_ready = t.verify_ready.max(verify);
                    if t.otp_ready.is_none() {
                        let bytes = t.req.sectors.bytes();
                        let ready = self.aes.schedule(now, bytes);
                        t.otp_ready = Some(ready);
                    }
                    self.try_schedule_completion(txn);
                }
            }
            MdWaiter::ReadMac(txn) => {
                // The MAC check runs as soon as the MAC line is available.
                // Under speculative verification it stays off the critical
                // path; otherwise it gates the response.
                let check_done = self.mac_unit.schedule(now);
                if let Some(t) = self.read_txns.get_mut(&txn) {
                    t.mac_pending = false;
                    t.verify_ready = t.verify_ready.max(check_done);
                    self.try_schedule_completion(txn);
                }
            }
            MdWaiter::WriteCtr(txn) => {
                self.mdcache.mark_dirty(TrafficClass::Counter, line);
                let bytes = self.write_txns.get(&txn).map(|t| t.req.sectors.bytes()).unwrap_or(0);
                if bytes > 0 {
                    // Re-encryption pad for the incremented counter.
                    let _ = self.aes.schedule(now, bytes);
                }
                if let Some(t) = self.write_txns.get_mut(&txn) {
                    t.ctr_ready = true;
                }
                self.advance_write(txn);
            }
            MdWaiter::WriteMac(txn) => {
                self.mdcache.mark_dirty(TrafficClass::Mac, line);
                let _ = self.mac_unit.schedule(now);
                if let Some(t) = self.write_txns.get_mut(&txn) {
                    t.mac_ready = true;
                }
                self.advance_write(txn);
            }
            MdWaiter::TreeFetch => {
                // Node cached; speculative verification needs nothing more.
            }
            MdWaiter::ParentDirty => {
                debug_assert_eq!(class, TrafficClass::Tree);
                self.mdcache.mark_dirty(TrafficClass::Tree, line);
            }
        }
    }

    /// Starts the (speculative) integrity-verification walk for a
    /// leaf-class metadata line that had to be fetched from DRAM.
    fn start_walk(&mut self, meta_line: Addr) {
        let nodes = self.layout.verification_path(meta_line);
        if nodes.is_empty() {
            return;
        }
        self.tree_verifications += 1;
        self.continue_walk(nodes);
    }

    /// Walks bottom-up until a cached (already verified) node is found.
    fn continue_walk(&mut self, mut nodes: Vec<Addr>) {
        let mut at = 0;
        while at < nodes.len() {
            let node = nodes[at];
            self.profile(TrafficClass::Tree, node);
            match self.mdcache.access(TrafficClass::Tree, node, MdWaiter::TreeFetch) {
                MdOutcome::Hit | MdOutcome::Merged => return, // verified boundary
                MdOutcome::FetchNeeded => {
                    self.queue_dram(
                        LINE_SIZE,
                        node,
                        false,
                        TrafficClass::Tree,
                        DramToken::MetaRead { class: TrafficClass::Tree, line: node },
                    );
                    // Keep climbing: this node itself needs verification.
                    at += 1;
                }
                MdOutcome::Stall => {
                    // Retry from the stalled node on, reusing the path
                    // buffer (the stall path must not allocate afresh).
                    nodes.drain(..at);
                    self.queue_retry(RetryOp::Walk { nodes });
                    return;
                }
            }
        }
    }

    /// Whether a fetched line of `class` requires a verification walk.
    fn walk_on_fetch(&self, class: TrafficClass) -> bool {
        match self.layout.coverage() {
            TreeCoverage::Counters => class == TrafficClass::Counter,
            TreeCoverage::Macs => class == TrafficClass::Mac,
            TreeCoverage::None => false,
        }
    }

    fn try_schedule_completion(&mut self, txn: u32) {
        let speculative = self.cfg.speculative_verification;
        let Some(t) = self.read_txns.get_mut(&txn) else { return };
        if t.scheduled {
            return;
        }
        let (Some(data), Some(otp)) = (t.data_done, t.otp_ready) else { return };
        if !speculative && t.mac_pending {
            return; // blocking verification: wait for the MAC line
        }
        // XOR is one cycle once both the ciphertext and the pad are ready.
        let mut ready = data.max(otp) + 1;
        if !speculative {
            ready = ready.max(t.verify_ready);
        }
        t.scheduled = true;
        self.completing.push(Reverse((ready, txn)));
    }

    fn advance_write(&mut self, txn: u32) {
        let done = match self.write_txns.get(&txn) {
            Some(t) => t.ctr_ready && t.mac_ready,
            None => false,
        };
        if done {
            if let Some(t) = self.write_txns.remove(&txn) {
                self.queue_dram(
                    t.req.sectors.bytes(),
                    t.req.line_addr,
                    true,
                    TrafficClass::Data,
                    DramToken::DataWrite,
                );
            }
        }
    }

    /// Handles a dirty metadata eviction: writeback + lazy parent update.
    fn handle_eviction(&mut self, eviction: Option<secmem_gpusim::cache::Eviction>) {
        let Some(ev) = eviction else { return };
        if ev.dirty.is_empty() {
            return;
        }
        let class = self.layout.class_of(ev.line_addr);
        self.queue_dram(LINE_SIZE, ev.line_addr, true, class, DramToken::MetaWrite);
        if let Some(parent) = self.layout.lazy_update_parent(ev.line_addr) {
            if !self.mdcache.mark_dirty(TrafficClass::Tree, parent) {
                self.profile(TrafficClass::Tree, parent);
                // Parent absent: fetch it, then mark dirty on arrival.
                let _ = self.md_access(TrafficClass::Tree, parent, MdWaiter::ParentDirty);
            }
        }
    }

    fn handle_dram_completion(&mut self, done: DramRequest<DramToken>) {
        match done.token {
            DramToken::DataRead { txn } => {
                if let Some(t) = self.read_txns.get_mut(&txn) {
                    t.data_done = Some(self.now);
                    if t.plaintext {
                        t.otp_ready = Some(self.now);
                    } else if self.cfg.scheme.direct_encryption() {
                        // Decryption starts only after the data arrives.
                        let bytes = t.req.sectors.bytes();
                        let ready = self.aes.schedule(self.now, bytes);
                        t.otp_ready = Some(ready.max(t.otp_ready.unwrap_or(0)));
                    }
                    self.try_schedule_completion(txn);
                }
            }
            DramToken::MetaRead { class, line } => {
                // Waiter callbacks never fill, so the buffer is free to lend.
                let mut waiters = std::mem::take(&mut self.fill_waiters);
                let eviction = self.mdcache.fill(class, line, &mut waiters);
                for w in waiters.drain(..) {
                    self.on_md_available(class, line, w, true);
                }
                self.fill_waiters = waiters;
                self.handle_eviction(eviction);
            }
            DramToken::DataWrite | DramToken::MetaWrite => {}
        }
    }

    /// Forgets the dated retries once a fill has moved the epoch on.
    fn sync_stall_epoch(&mut self) {
        let epoch = self.mdcache.fill_epoch();
        if epoch != self.stall_epoch {
            self.stall_epoch = epoch;
            self.known_stalls = 0;
        }
    }

    /// Queues a stalled op, dated with the current fill epoch.
    fn queue_retry(&mut self, op: RetryOp) {
        self.sync_stall_epoch();
        self.known_stalls += 1;
        self.retries.push_back(op);
    }

    /// Retries the stalled ops in queue order, stopping at the first
    /// access that stalls again. Once every queued op is a known stall (no
    /// fill since it stalled) the rest of the drain is replayed in bulk by
    /// [`Self::replay_known_stalls`].
    fn drain_retries(&mut self) {
        self.sync_stall_epoch();
        let mut budget = self.retries.len();
        while budget > 0 {
            // Dated ops are a suffix: the front one is dated iff all are.
            // Nothing below fills, so once dated the queue stays dated.
            debug_assert!(self.known_stalls <= self.retries.len());
            if self.known_stalls == self.retries.len() {
                self.replay_known_stalls(budget);
                return;
            }
            budget -= 1;
            let Some(op) = self.retries.pop_front() else { break };
            match op {
                RetryOp::Access { class, line, waiter } => {
                    if !self.md_access(class, line, waiter) {
                        // md_access re-queued it at the back; stop to avoid
                        // spinning on the same stall this cycle.
                        break;
                    }
                }
                RetryOp::Walk { nodes } => self.continue_walk(nodes),
            }
        }
    }

    /// Replays what retrying the next `budget` ops one by one would do
    /// when every one of them is a known stall: each walk up to the first
    /// access, and that access, stalls again (profiler access, cache and
    /// MSHR stall statistics) and moves to the back of the queue, and the
    /// drain stops there. Neither the cache nor an MSHR file is probed.
    fn replay_known_stalls(&mut self, budget: usize) {
        let first_access =
            self.retries.iter().take(budget).position(|op| matches!(op, RetryOp::Access { .. }));
        let walks = first_access.unwrap_or(budget);
        let replayed = first_access.map_or(budget, |i| i + 1);
        if let Some(p) = self.profilers.as_deref_mut() {
            for op in self.retries.iter().take(replayed) {
                let (class, line) = match op {
                    RetryOp::Access { class, line, .. } => (*class, *line),
                    RetryOp::Walk { nodes } => (TrafficClass::Tree, nodes[0]),
                };
                p[secmem_gpusim::stats::meta_index(class)].access(line);
            }
        }
        self.mdcache.replay_stalls(TrafficClass::Tree, walks as u64);
        if let Some(RetryOp::Access { class, .. }) = first_access.map(|i| &self.retries[i]) {
            self.mdcache.replay_stalls(*class, 1);
        }
        self.retries.rotate_left(replayed);
    }
}

impl MemoryBackend for SecureBackend {
    fn can_accept_read(&self) -> bool {
        // A sectored L2 miss submits up to 4 per-sector reads at once.
        self.read_txns.len() + 4 <= self.cfg.read_txn_cap
            && self.pending_dram.len() < 4 * self.cfg.read_txn_cap
    }

    fn can_accept_write(&self) -> bool {
        self.write_txns.len() < self.cfg.write_txn_cap && self.pending_dram.len() < 4 * self.cfg.read_txn_cap
    }

    fn submit_read(&mut self, now: Cycle, req: BackendReq) {
        // `can_accept_read` reserves room for a 4-sector burst; individual
        // submissions only need one slot.
        assert!(self.read_txns.len() < self.cfg.read_txn_cap, "submit_read while not accepting");
        self.now = now;
        self.next_txn = self.next_txn.wrapping_add(1);
        let txn = self.next_txn;
        let local = self.map.local_offset(req.line_addr);
        let data_addr = req.line_addr;
        let bytes = req.sectors.bytes();
        let plaintext = !self.is_protected(local);
        let has_ctr = self.cfg.scheme.has_counters() && !plaintext;
        let has_mac = self.cfg.scheme.has_macs() && !plaintext;
        let direct = self.cfg.scheme.direct_encryption() && !plaintext;

        self.read_txns.insert(
            txn,
            ReadTxn {
                req,
                data_done: None,
                // Direct mode: the "pad" time is folded into the decrypt
                // scheduled at data arrival; mark as pending until then.
                otp_ready: if has_ctr || direct { None } else { Some(now) },
                mac_pending: has_mac,
                verify_ready: 0,
                plaintext,
                scheduled: false,
            },
        );
        self.queue_dram(bytes, data_addr, false, TrafficClass::Data, DramToken::DataRead { txn });

        if has_ctr {
            let ctr_line = self.layout.counter_line_of(local);
            let _ = self.md_access(TrafficClass::Counter, ctr_line, MdWaiter::ReadCtr(txn));
        } else if direct {
            // Nothing to do until data arrives.
        }

        if has_mac {
            let mac_line = self.layout.mac_line_of(local);
            let _ = self.md_access(TrafficClass::Mac, mac_line, MdWaiter::ReadMac(txn));
        }
    }

    fn submit_write(&mut self, now: Cycle, req: BackendReq) {
        assert!(self.can_accept_write(), "submit_write while not accepting");
        self.now = now;
        self.next_txn = self.next_txn.wrapping_add(1);
        let txn = self.next_txn;
        let local = self.map.local_offset(req.line_addr);
        let plaintext = !self.is_protected(local);
        let has_ctr = self.cfg.scheme.has_counters() && !plaintext;
        let has_mac = self.cfg.scheme.has_macs() && !plaintext;
        let bytes = req.sectors.bytes();

        self.write_txns.insert(txn, WriteTxn { req, ctr_ready: !has_ctr, mac_ready: !has_mac });

        if !has_ctr && !plaintext {
            // Direct encryption of the sector before writing.
            let _ = self.aes.schedule(now, bytes);
        }
        if has_ctr {
            let ctr_line = self.layout.counter_line_of(local);
            let _ = self.md_access(TrafficClass::Counter, ctr_line, MdWaiter::WriteCtr(txn));
            if self.cfg.model_counter_overflow {
                self.note_minor_increment(local);
            }
        }
        if has_mac {
            let mac_line = self.layout.mac_line_of(local);
            let _ = self.md_access(TrafficClass::Mac, mac_line, MdWaiter::WriteMac(txn));
        }
        self.advance_write(txn);
    }

    fn cycle(&mut self, now: Cycle) {
        self.now = now;
        self.dram.cycle(now);
        while let Some((done, fault)) = self.dram.pop_completed_with_fault() {
            if let Some(kind) = fault {
                if kind.corrupts() {
                    let detected = self.fault_detected(done.class, kind);
                    self.fault_events.push(FaultEvent {
                        cycle: now,
                        line_addr: done.addr,
                        class: done.class,
                        kind,
                        detected,
                    });
                    if let Some(inj) = self.dram.injector_mut() {
                        inj.record_detection(done.class, detected);
                    }
                    if self.telemetry.is_enabled() {
                        self.record_fault_event(now, done.class, kind, detected);
                    }
                }
            }
            self.handle_dram_completion(done);
        }
        if self.telemetry.is_enabled() && self.thrash_check_at(now) == now {
            self.check_thrash(now);
        }
        self.drain_retries();
        while !self.dram.is_full() {
            let Some(req) = self.pending_dram.pop_front() else { break };
            if let Err(req) = self.dram.try_push(req) {
                debug_assert!(false, "loop condition checked the queue was not full");
                self.pending_dram.push_front(req);
                break;
            }
        }
        while let Some(Reverse((ready, txn))) = self.completing.peek().copied() {
            if ready > now {
                break;
            }
            self.completing.pop();
            if let Some(t) = self.read_txns.remove(&txn) {
                self.ready_responses.push_back(t.req);
            }
        }
    }

    fn pop_read_response(&mut self) -> Option<BackendReq> {
        self.ready_responses.pop_front()
    }

    fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            meta: self.mdcache.stats(),
            aes_stall_cycles: self.aes.stall_cycles,
            aes_blocks: self.aes.blocks,
            decrypt_waited_on_counter: self.decrypt_waited_on_counter,
            tree_verifications: self.tree_verifications,
        }
    }

    fn fault_stats(&self) -> FaultStats {
        self.dram.fault_stats()
    }

    fn fault_events(&self) -> &[FaultEvent] {
        &self.fault_events
    }

    fn pending_work(&self) -> usize {
        self.read_txns.len()
            + self.write_txns.len()
            + self.pending_dram.len()
            + self.retries.len()
            + self.ready_responses.len()
    }

    fn reset_stats(&mut self) {
        self.dram.reset_stats();
        self.mdcache.reset_stats();
        self.aes.blocks = 0;
        self.aes.stall_cycles = 0;
        self.mac_unit.ops = 0;
        self.decrypt_waited_on_counter = 0;
        self.tree_verifications = 0;
        self.counter_overflows = 0;
        self.fault_events.clear();
        self.thrash_prev = [(0, 0); 3];
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, partition: u32) {
        self.dram.set_telemetry(telemetry.clone(), partition);
        self.partition = partition;
        self.telemetry = telemetry;
    }

    fn meta_mshr_occupancy(&self) -> usize {
        self.mdcache.mshr_occupancy()
    }

    fn is_idle(&self) -> bool {
        self.read_txns.is_empty()
            && self.write_txns.is_empty()
            && self.pending_dram.is_empty()
            && self.retries.is_empty()
            && self.ready_responses.is_empty()
            && self.dram.is_idle()
    }

    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // Every merge below clamps to `now`, so any immediate event
        // short-circuits: nothing can beat `now`.
        if !self.ready_responses.is_empty() || !self.retries.is_empty() {
            return Some(now);
        }
        // Staged DRAM pushes flush on the next `cycle` call once the
        // channel has room; when the channel is full, its own service
        // event covers the slot freeing up.
        if !self.pending_dram.is_empty() && !self.dram.is_full() {
            return Some(now);
        }
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        if let Some(Reverse((ready, _))) = self.completing.peek() {
            merge((*ready).max(now));
        }
        if let Some(c) = self.dram.next_event_cycle(now) {
            merge(c);
        }
        if self.telemetry.is_enabled() {
            merge(self.thrash_check_at(now));
        }
        // Anything else still in flight (e.g. transactions parked on
        // metadata fills) conservatively counts as active now rather
        // than being skipped over.
        if next.is_none() && !self.is_idle() {
            next = Some(now);
        }
        next
    }

    fn save_state(&self, w: &mut Writer) {
        // The simulator's frame fingerprint covers only the GPU, so the
        // backend stamps its own configuration: a frame restores only
        // into the scheme, caches and engines that wrote it.
        w.put_u64(self.config_fingerprint());
        self.dram.save_state(w);
        self.mdcache.save_state(w);
        self.aes.save_state(w);
        self.mac_unit.save_state(w);
        save_map(&self.read_txns, w);
        save_map(&self.write_txns, w);
        w.put_u32(self.next_txn);
        // Heap pop order is total on (cycle, txn), so a sorted vector
        // rebuilds an equivalent heap.
        let mut completing: Vec<(Cycle, u32)> = self.completing.iter().map(|Reverse(p)| *p).collect();
        completing.sort_unstable();
        completing.save(w);
        self.ready_responses.save(w);
        self.pending_dram.save(w);
        self.retries.save(w);
        w.put_bool(self.profilers.is_some());
        if let Some(profs) = self.profilers.as_deref() {
            profs.save(w);
        }
        save_map(&self.minor_writes, w);
        w.put_u64(self.counter_overflows);
        w.put_u64(self.decrypt_waited_on_counter);
        w.put_u64(self.tree_verifications);
        self.fault_events.save(w);
        // Thrash detectors: thresholds are config-derived and the check
        // cadence is the sampling clock's; only the open-episode flags and
        // the previous check's counts are state. Telemetry wiring itself
        // is not stored.
        for d in &self.thrash {
            w.put_bool(d.is_thrashing());
        }
        self.thrash_prev.save(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let stored = r.get_u64()?;
        let expected = self.config_fingerprint();
        if stored != expected {
            return Err(CheckpointError::ConfigMismatch { stored, expected });
        }
        self.dram.restore_state(r)?;
        self.mdcache.restore_state(r)?;
        self.aes.restore_state(r)?;
        self.mac_unit.restore_state(r)?;
        self.read_txns = load_map(r)?;
        self.write_txns = load_map(r)?;
        self.next_txn = r.get_u32()?;
        let completing = Vec::<(Cycle, u32)>::load(r)?;
        self.completing.clear();
        for entry in completing {
            self.completing.push(Reverse(entry));
        }
        self.ready_responses = VecDeque::load(r)?;
        self.pending_dram = VecDeque::load(r)?;
        self.retries = VecDeque::load(r)?;
        self.known_stalls = 0;
        r.expect_presence("reuse profilers", self.profilers.is_some())?;
        if let Some(profs) = self.profilers.as_deref_mut() {
            *profs = Snapshot::load(r)?;
        }
        self.minor_writes = load_map(r)?;
        self.counter_overflows = r.get_u64()?;
        self.decrypt_waited_on_counter = r.get_u64()?;
        self.tree_verifications = r.get_u64()?;
        self.fault_events = Vec::load(r)?;
        for d in &mut self.thrash {
            d.restore_active(r.get_bool()?);
        }
        self.thrash_prev = <[(u64, u64); 3]>::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MdcIdealization, SecurityScheme};
    use secmem_gpusim::config::GpuConfig;
    use secmem_gpusim::types::SectorMask;

    fn gpu() -> GpuConfig {
        GpuConfig::small()
    }

    fn engine(scheme: SecurityScheme) -> SecureBackend {
        SecureBackend::new(SecureMemConfig::with_scheme(scheme), &gpu())
    }

    fn read_req(id: u64, addr: Addr) -> BackendReq {
        BackendReq { id, line_addr: addr, sectors: SectorMask::single(0), bank: 0 }
    }

    /// Runs the engine until the read with `id` completes; returns the cycle.
    fn run_until_response(b: &mut SecureBackend, id: u64, max: Cycle) -> Option<Cycle> {
        for now in 0..max {
            b.cycle(now);
            if let Some(resp) = b.pop_read_response() {
                assert_eq!(resp.id, id);
                return Some(now);
            }
        }
        None
    }

    #[test]
    fn ctr_read_generates_counter_mac_and_tree_traffic() {
        let mut b = engine(SecurityScheme::CtrMacBmt);
        b.submit_read(0, read_req(1, 0x0));
        let done = run_until_response(&mut b, 1, 5_000).expect("read completes");
        assert!(done > 0);
        let stats = b.dram_stats();
        assert_eq!(stats.class(TrafficClass::Data).reads, 1);
        assert_eq!(stats.class(TrafficClass::Counter).reads, 1);
        assert_eq!(stats.class(TrafficClass::Mac).reads, 1);
        // Cold counter miss -> full BMT walk (3 fetchable levels for the
        // 128 MB partition slice).
        assert_eq!(stats.class(TrafficClass::Tree).reads, 3);
        for _ in 0..200 {
            b.cycle(6_000);
        }
        assert!(b.is_idle());
    }

    #[test]
    fn second_read_in_chunk_reuses_cached_metadata() {
        let mut b = engine(SecurityScheme::CtrMacBmt);
        b.submit_read(0, read_req(1, 0x0));
        run_until_response(&mut b, 1, 5_000).expect("first read");
        let before = *b.dram_stats();
        // Same 2 KB MAC window and same 16 KB counter chunk (the partition
        // interleave maps local+128 to global +128*partitions... use the
        // same line to be safe).
        b.submit_read(5_000, read_req(2, 0x0));
        run_until_response(&mut b, 2, 10_000).expect("second read");
        let after = *b.dram_stats();
        assert_eq!(after.class(TrafficClass::Counter).reads, before.class(TrafficClass::Counter).reads);
        assert_eq!(after.class(TrafficClass::Tree).reads, before.class(TrafficClass::Tree).reads);
        assert_eq!(after.class(TrafficClass::Data).reads, before.class(TrafficClass::Data).reads + 1);
    }

    #[test]
    fn counter_hit_hides_aes_latency() {
        // First read warms the counter; second read's latency ~= DRAM only.
        let mut b = engine(SecurityScheme::CtrOnly);
        b.submit_read(0, read_req(1, 0x0));
        let t1 = run_until_response(&mut b, 1, 5_000).expect("first");
        b.submit_read(t1 + 1, read_req(2, 0x0));
        let t2 = run_until_response(&mut b, 2, t1 + 5_000).expect("second");
        let lat1 = t1;
        let lat2 = t2 - (t1 + 1);
        assert!(lat2 < lat1, "warm counter read ({lat2}) faster than cold ({lat1})");
    }

    #[test]
    fn direct_mode_generates_no_metadata_traffic() {
        let mut b = engine(SecurityScheme::Direct);
        b.submit_read(0, read_req(1, 0x80));
        run_until_response(&mut b, 1, 5_000).expect("read completes");
        let stats = b.dram_stats();
        assert_eq!(stats.class(TrafficClass::Counter).reads, 0);
        assert_eq!(stats.class(TrafficClass::Mac).reads, 0);
        assert_eq!(stats.class(TrafficClass::Tree).reads, 0);
    }

    #[test]
    fn direct_latency_exposed_on_critical_path() {
        let mut fast_cfg = SecureMemConfig::direct(0);
        fast_cfg.zero_crypto = true;
        let mut fast = SecureBackend::new(fast_cfg, &gpu());
        let mut slow = SecureBackend::new(SecureMemConfig::direct(160), &gpu());
        fast.submit_read(0, read_req(1, 0x0));
        slow.submit_read(0, read_req(1, 0x0));
        let tf = run_until_response(&mut fast, 1, 5_000).expect("fast");
        let ts = run_until_response(&mut slow, 1, 5_000).expect("slow");
        assert!(ts >= tf + 150, "160-cycle AES must show up: fast {tf}, slow {ts}");
    }

    #[test]
    fn ctr_mode_hides_latency_relative_to_direct() {
        // Warm the counter cache first, then compare.
        let mut ctr = engine(SecurityScheme::CtrOnly);
        ctr.submit_read(0, read_req(1, 0x0));
        let warm = run_until_response(&mut ctr, 1, 5_000).expect("warm");
        ctr.submit_read(warm + 1, read_req(2, 0x0));
        let t_ctr = run_until_response(&mut ctr, 2, warm + 5_000).expect("ctr") - (warm + 1);

        let mut direct = SecureBackend::new(SecureMemConfig::direct(40), &gpu());
        direct.submit_read(0, read_req(1, 0x0));
        let t_direct = run_until_response(&mut direct, 1, 5_000).expect("direct");
        assert!(
            t_ctr + 30 <= t_direct,
            "counter mode (warm: {t_ctr}) must hide AES latency vs direct ({t_direct})"
        );
    }

    #[test]
    fn write_path_dirties_counter_and_mac() {
        let mut b = engine(SecurityScheme::CtrMacBmt);
        b.submit_write(0, read_req(1, 0x0));
        for now in 0..3_000 {
            b.cycle(now);
        }
        assert!(b.is_idle(), "write must drain");
        let stats = b.dram_stats();
        assert_eq!(stats.class(TrafficClass::Data).writes, 1);
        // Counter + MAC lines were fetched for RMW.
        assert_eq!(stats.class(TrafficClass::Counter).reads, 1);
        assert_eq!(stats.class(TrafficClass::Mac).reads, 1);
    }

    #[test]
    fn perfect_mdc_only_data_traffic() {
        let mut cfg = SecureMemConfig::secure_mem();
        cfg.idealization = MdcIdealization::Perfect;
        let mut b = SecureBackend::new(cfg, &gpu());
        b.submit_read(0, read_req(1, 0x0));
        run_until_response(&mut b, 1, 5_000).expect("read");
        let stats = b.dram_stats();
        assert_eq!(stats.class(TrafficClass::Counter).reads, 0);
        assert_eq!(stats.class(TrafficClass::Mac).reads, 0);
        assert_eq!(stats.class(TrafficClass::Tree).reads, 0);
        assert_eq!(stats.class(TrafficClass::Data).reads, 1);
    }

    #[test]
    fn streaming_writes_cause_metadata_writebacks() {
        let mut cfg = SecureMemConfig::secure_mem();
        cfg.mdcache_bytes = 256; // 2-line caches force evictions
        cfg.mdcache_assoc = 2;
        let mut b = SecureBackend::new(cfg, &gpu());
        let mut now = 0;
        // Stream stores across many MAC lines (4 KB apart in partition-
        // local terms: stride by interleave*partitions*16 lines).
        for i in 0..64u64 {
            while !b.can_accept_write() {
                b.cycle(now);
                now += 1;
            }
            b.submit_write(now, read_req(i, i * 256 * 4 * 16));
            b.cycle(now);
            now += 1;
        }
        for _ in 0..20_000 {
            b.cycle(now);
            now += 1;
            if b.is_idle() {
                break;
            }
        }
        assert!(b.is_idle(), "writes must drain");
        let stats = b.dram_stats();
        assert!(stats.class(TrafficClass::Mac).writes > 0, "dirty MAC lines must write back: {stats:?}");
    }

    #[test]
    fn engine_stats_exported() {
        let mut b = engine(SecurityScheme::CtrMacBmt);
        b.submit_read(0, read_req(1, 0x0));
        run_until_response(&mut b, 1, 5_000).expect("read");
        let s = b.engine_stats();
        assert!(s.aes_blocks > 0);
        assert_eq!(s.decrypt_waited_on_counter, 1);
        assert_eq!(s.tree_verifications, 1);
        assert_eq!(s.meta[0].cache.misses, 1);
    }

    #[test]
    fn reuse_profiling_records_accesses() {
        let mut cfg = SecureMemConfig::secure_mem();
        cfg.profile_reuse = true;
        let mut b = SecureBackend::new(cfg, &gpu());
        b.submit_read(0, read_req(1, 0x0));
        run_until_response(&mut b, 1, 5_000).expect("read");
        let profs = b.reuse_profilers().expect("profiling enabled");
        assert_eq!(profs[0].accesses(), 1, "one counter access");
        assert_eq!(profs[1].accesses(), 1, "one MAC access");
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::config::SecurityScheme;
    use secmem_gpusim::cache::ReplacementPolicy;
    use secmem_gpusim::config::GpuConfig;
    use secmem_gpusim::types::SectorMask;

    fn gpu() -> GpuConfig {
        GpuConfig::small()
    }

    fn read_req(id: u64, addr: Addr) -> BackendReq {
        BackendReq { id, line_addr: addr, sectors: SectorMask::single(0), bank: 0 }
    }

    fn run_until_response(b: &mut SecureBackend, id: u64, max: Cycle) -> Option<Cycle> {
        for now in 0..max {
            b.cycle(now);
            if let Some(resp) = b.pop_read_response() {
                assert_eq!(resp.id, id);
                return Some(now);
            }
        }
        None
    }

    #[test]
    fn blocking_verification_is_slower_than_speculative() {
        let spec_cfg = SecureMemConfig::secure_mem();
        let block_cfg = SecureMemConfig { speculative_verification: false, ..SecureMemConfig::secure_mem() };
        let mut spec = SecureBackend::new(spec_cfg, &gpu());
        let mut block = SecureBackend::new(block_cfg, &gpu());
        spec.submit_read(0, read_req(1, 0x0));
        block.submit_read(0, read_req(1, 0x0));
        let t_spec = run_until_response(&mut spec, 1, 10_000).expect("speculative");
        let t_block = run_until_response(&mut block, 1, 10_000).expect("blocking");
        assert!(t_block > t_spec, "blocking verification must delay the response ({t_spec} vs {t_block})");
    }

    #[test]
    fn blocking_verification_waits_for_mac_fetch() {
        // With blocking verification the MAC line fetch gates the read
        // even though the data and counter are ready earlier.
        let cfg = SecureMemConfig {
            speculative_verification: false,
            ..SecureMemConfig::with_scheme(SecurityScheme::DirectMac)
        };
        let mut b = SecureBackend::new(cfg, &gpu());
        b.submit_read(0, read_req(1, 0x0));
        let t = run_until_response(&mut b, 1, 10_000).expect("completes");
        // Must exceed one DRAM round trip (data) + MAC latency.
        let min = gpu().dram_latency as u64 + 40;
        assert!(t > min, "got {t}, expected > {min}");
    }

    #[test]
    fn selective_encryption_skips_unprotected_reads() {
        let g = gpu();
        let cfg =
            SecureMemConfig { protected_limit: Some(g.protected_bytes / 2), ..SecureMemConfig::secure_mem() };
        let mut b = SecureBackend::new(cfg, &g);
        // An address in the upper (unprotected) half of the partition-local
        // space: local offsets repeat every partitions*interleave bytes.
        let local_target = g.protected_bytes_per_partition() * 3 / 4;
        let global = local_target / g.interleave_bytes * (g.num_partitions as u64 * g.interleave_bytes);
        b.submit_read(0, read_req(1, global));
        run_until_response(&mut b, 1, 10_000).expect("plain read completes");
        let stats = b.dram_stats();
        assert_eq!(stats.class(TrafficClass::Counter).reads, 0, "no metadata for plaintext");
        assert_eq!(stats.class(TrafficClass::Mac).reads, 0);
        // A protected (low) address still generates metadata traffic.
        b.submit_read(5_000, read_req(2, 0x0));
        run_until_response(&mut b, 2, 20_000).expect("protected read completes");
        assert!(b.dram_stats().class(TrafficClass::Counter).reads > 0);
    }

    #[test]
    fn selective_encryption_skips_unprotected_writes() {
        let g = gpu();
        let cfg =
            SecureMemConfig { protected_limit: Some(g.protected_bytes / 2), ..SecureMemConfig::secure_mem() };
        let mut b = SecureBackend::new(cfg, &g);
        let local_target = g.protected_bytes_per_partition() * 3 / 4;
        let global = local_target / g.interleave_bytes * (g.num_partitions as u64 * g.interleave_bytes);
        b.submit_write(0, read_req(1, global));
        for now in 0..5_000 {
            b.cycle(now);
        }
        assert!(b.is_idle());
        let stats = b.dram_stats();
        assert_eq!(stats.class(TrafficClass::Data).writes, 1);
        assert_eq!(stats.class(TrafficClass::Counter).reads, 0);
        assert_eq!(stats.class(TrafficClass::Mac).reads, 0);
    }

    #[test]
    fn minor_counter_overflow_generates_reencryption_traffic() {
        let cfg = SecureMemConfig {
            model_counter_overflow: true,
            ..SecureMemConfig::with_scheme(SecurityScheme::CtrOnly)
        };
        let mut b = SecureBackend::new(cfg, &gpu());
        let mut now = 0u64;
        // 128 writes to the same line overflow its 7-bit minor counter.
        for i in 0..128u64 {
            while !b.can_accept_write() {
                b.cycle(now);
                now += 1;
            }
            b.submit_write(now, read_req(i, 0x0));
            b.cycle(now);
            now += 1;
        }
        for _ in 0..60_000 {
            b.cycle(now);
            now += 1;
            if b.is_idle() {
                break;
            }
        }
        assert!(b.is_idle(), "writes must drain");
        assert_eq!(b.counter_overflows, 1, "the 128th write overflows");
        let stats = b.dram_stats().class(TrafficClass::Data);
        // 128 sector writes + 128 re-encryption line writes, plus 128
        // re-encryption line reads.
        assert!(stats.reads >= 128, "re-encryption reads: {stats:?}");
        assert!(stats.writes >= 128 + 128, "re-encryption writes: {stats:?}");
    }

    #[test]
    fn overflow_model_can_be_disabled() {
        let cfg = SecureMemConfig {
            model_counter_overflow: false,
            ..SecureMemConfig::with_scheme(SecurityScheme::CtrOnly)
        };
        let mut b = SecureBackend::new(cfg, &gpu());
        let mut now = 0u64;
        for i in 0..200u64 {
            while !b.can_accept_write() {
                b.cycle(now);
                now += 1;
            }
            b.submit_write(now, read_req(i, 0x0));
            b.cycle(now);
            now += 1;
        }
        for _ in 0..60_000 {
            b.cycle(now);
            now += 1;
            if b.is_idle() {
                break;
            }
        }
        assert_eq!(b.counter_overflows, 0);
        assert_eq!(b.dram_stats().class(TrafficClass::Data).reads, 0);
    }

    #[test]
    fn try_new_surfaces_typed_config_errors() {
        let mut cfg = SecureMemConfig::secure_mem();
        cfg.aes_engines = 0;
        match SecureBackend::try_new(cfg, &gpu()) {
            Err(crate::error::CoreError::Config(e)) => assert_eq!(e.field, "aes_engines"),
            other => panic!("expected config error, got {other:?}"),
        }
    }

    #[test]
    fn try_new_rejects_bad_gpu_geometry() {
        let g = gpu();
        let cases = [
            ("num_partitions", GpuConfig { num_partitions: 0, ..g.clone() }),
            ("num_partitions", GpuConfig { num_partitions: 3, ..g.clone() }),
            ("interleave_bytes", GpuConfig { interleave_bytes: 96, ..g.clone() }),
            (
                "protected_bytes",
                GpuConfig { protected_bytes: g.num_partitions as u64 * g.interleave_bytes, ..g },
            ),
        ];
        for (field, bad) in cases {
            match SecureBackend::try_new(SecureMemConfig::secure_mem(), &bad) {
                Err(crate::error::CoreError::Config(e)) => assert_eq!(e.field, field, "{e}"),
                other => panic!("{field}: expected config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn srrip_metadata_policy_plumbs_through() {
        let cfg =
            SecureMemConfig { mdcache_policy: ReplacementPolicy::Srrip, ..SecureMemConfig::secure_mem() };
        let mut b = SecureBackend::new(cfg, &gpu());
        b.submit_read(0, read_req(1, 0x0));
        run_until_response(&mut b, 1, 10_000).expect("runs with SRRIP metadata caches");
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::config::SecurityScheme;
    use secmem_gpusim::config::GpuConfig;
    use secmem_gpusim::types::SectorMask;

    fn req(id: u64, addr: Addr) -> BackendReq {
        BackendReq { id, line_addr: addr, sectors: SectorMask::single((id % 4) as u32), bank: 0 }
    }

    /// Drives a deterministic open-loop request pattern over `[from, to)`,
    /// appending every (cycle, id) response to `log`.
    fn drive(b: &mut SecureBackend, from: Cycle, to: Cycle, log: &mut Vec<(Cycle, u64)>) {
        drive_reads(b, from, to, log, Reads { every: 7, stride: 128 });
    }

    /// The read half of a [`drive`] pattern: one read every `every`
    /// cycles, to 64 lines `stride` bytes apart.
    #[derive(Clone, Copy, Debug)]
    struct Reads {
        every: Cycle,
        stride: u64,
    }

    /// [`drive`] with the reads of `reads`.
    fn drive_reads(b: &mut SecureBackend, from: Cycle, to: Cycle, log: &mut Vec<(Cycle, u64)>, reads: Reads) {
        for now in from..to {
            if now % reads.every == 0 && b.can_accept_read() {
                b.submit_read(now, req(now, (now % 64) * reads.stride));
            }
            if now % 11 == 0 && b.can_accept_write() {
                b.submit_write(now, req(1000 + now, (now % 32) * 256));
            }
            b.cycle(now);
            while let Some(resp) = b.pop_read_response() {
                log.push((now, resp.id));
            }
        }
    }

    fn roundtrip(scheme: SecurityScheme, tweak: impl Fn(&mut SecureMemConfig)) {
        let gpu = GpuConfig::small();
        let mut cfg = SecureMemConfig::with_scheme(scheme);
        tweak(&mut cfg);
        let mut original = SecureBackend::new(cfg.clone(), &gpu);
        let mut log_original = Vec::new();
        // Snapshot mid-flight: transactions, metadata fetches and retries
        // are all live at cycle 400.
        drive(&mut original, 0, 400, &mut log_original);
        assert!(!original.is_idle(), "pattern must keep the engine busy at the cut");

        let mut w = Writer::new();
        original.save_state(&mut w);
        let payload = w.into_bytes();
        let mut resumed = SecureBackend::new(cfg, &gpu);
        let mut r = Reader::new(&payload);
        resumed.restore_state(&mut r).expect("restore succeeds");
        r.expect_end().expect("payload fully consumed");

        let mut log_resumed = log_original.clone();
        drive(&mut original, 400, 3_000, &mut log_original);
        drive(&mut resumed, 400, 3_000, &mut log_resumed);
        assert_eq!(log_original, log_resumed, "response stream must match after resume");
        assert_eq!(format!("{:?}", original.dram_stats()), format!("{:?}", resumed.dram_stats()));
        assert_eq!(format!("{:?}", original.engine_stats()), format!("{:?}", resumed.engine_stats()));
    }

    #[test]
    fn snapshot_mid_flight_resumes_identically() {
        roundtrip(SecurityScheme::CtrMacBmt, |_| {});
    }

    #[test]
    fn snapshot_roundtrip_direct_mac_tree() {
        roundtrip(SecurityScheme::DirectMacMt, |_| {});
    }

    #[test]
    fn snapshot_roundtrip_with_profilers_and_overflow_model() {
        roundtrip(SecurityScheme::CtrOnly, |cfg| {
            cfg.profile_reuse = true;
            cfg.model_counter_overflow = true;
        });
    }

    #[test]
    fn snapshot_roundtrip_without_mshrs() {
        // The private-waiter (no-MSHR) path serializes per-line waiter lists.
        roundtrip(SecurityScheme::CtrMacBmt, |cfg| cfg.mdcache_mshrs = 0);
    }

    fn state_bytes(b: &SecureBackend) -> Vec<u8> {
        let mut w = Writer::new();
        b.save_state(&mut w);
        w.into_bytes()
    }

    fn resume(b: &SecureBackend) -> SecureBackend {
        let payload = state_bytes(b);
        let mut resumed = SecureBackend::new(b.cfg.clone(), &GpuConfig::small());
        let mut r = Reader::new(&payload);
        resumed.restore_state(&mut r).expect("restore succeeds");
        r.expect_end().expect("payload fully consumed");
        resumed
    }

    /// True when the next drain starts on a known stall (absent a fill).
    fn has_known_stall(b: &SecureBackend) -> bool {
        b.known_stalls > 0 && b.known_stalls == b.retries.len() && b.stall_epoch == b.mdcache.fill_epoch()
    }

    /// Walks queued ahead of the first access, when every queued op is a
    /// known stall: absent a fill, the next drain replays them in bulk.
    fn known_stall_walks(b: &SecureBackend) -> usize {
        if !has_known_stall(b) {
            return 0;
        }
        b.retries.iter().take_while(|op| matches!(op, RetryOp::Walk { .. })).count()
    }

    /// One-entry, one-target metadata MSHR files keep the retry queue full
    /// of known stalls, which are replayed in bulk without probing. Two
    /// runs must end byte-identical to the uninterrupted one: one resumed
    /// once while retries are known stalls, and one resumed every cycle,
    /// so that every retry re-probes (restored retries are undated).
    /// Returns how many cycles started with at least two known-stall
    /// walks at the front of the queue.
    fn known_stall_resume_case(scheme: SecurityScheme, profile_reuse: bool, reads: Reads) -> u32 {
        let ctx = format!("{scheme:?}, profile_reuse={profile_reuse}, {reads:?}");
        let mut cfg = SecureMemConfig::with_scheme(scheme);
        cfg.mdcache_mshrs = 1;
        cfg.mdcache_mshr_merge = 1;
        cfg.profile_reuse = profile_reuse;
        let mut straight = SecureBackend::new(cfg, &GpuConfig::small());
        let mut log = Vec::new();
        let mut cut = 0;
        while !has_known_stall(&straight) {
            drive_reads(&mut straight, cut, cut + 1, &mut log, reads);
            cut += 1;
            assert!(cut < 2_000, "{ctx}: tiny MSHR files must stall");
        }
        let mut resumed = resume(&straight);
        assert!(!has_known_stall(&resumed), "{ctx}: restored retries start undated");
        let mut reprobed = resume(&straight);
        let (mut log_resumed, mut log_reprobed) = (log.clone(), log.clone());

        const END: Cycle = 3_000;
        let mut known_stall_cycles = 0;
        let mut bulk_walk_cycles = 0;
        for now in cut..END {
            known_stall_cycles += u32::from(has_known_stall(&straight));
            bulk_walk_cycles += u32::from(known_stall_walks(&straight) >= 2);
            drive_reads(&mut straight, now, now + 1, &mut log, reads);
        }
        drive_reads(&mut resumed, cut, END, &mut log_resumed, reads);
        for now in cut..END {
            reprobed = resume(&reprobed);
            drive_reads(&mut reprobed, now, now + 1, &mut log_reprobed, reads);
        }
        assert!(known_stall_cycles > 100, "{ctx}: only {known_stall_cycles} cycles with known stalls");
        assert_eq!(log, log_resumed, "{ctx}: response stream after one resume");
        assert_eq!(log, log_reprobed, "{ctx}: response stream when every retry re-probes");
        let end_state = state_bytes(&straight);
        assert!(end_state == state_bytes(&resumed), "{ctx}: state after one resume diverged");
        assert!(end_state == state_bytes(&reprobed), "{ctx}: state when every retry re-probes diverged");
        bulk_walk_cycles
    }

    #[test]
    fn known_stall_retries_resume_byte_identically() {
        known_stall_resume_case(SecurityScheme::CtrMacBmt, true, Reads { every: 7, stride: 128 });
        // Walk-heavy: sparse reads 256 KB apart each miss a MAC line the
        // one-entry MAC MSHR file can fetch, but every MAC fetch starts a
        // walk whose uncached nodes the one-entry tree MSHR file fetches
        // one at a time, so walks pile up ahead of any access. Bulk replay
        // must match probing with and without reuse profiling.
        for profile_reuse in [true, false] {
            let reads = Reads { every: 127, stride: 256 << 10 };
            let bulk = known_stall_resume_case(SecurityScheme::DirectMacMt, profile_reuse, reads);
            assert!(bulk > 100, "direct_mac_mt: only {bulk} cycles start with 2+ known-stall walks");
        }
    }

    #[test]
    fn profiler_presence_mismatch_rejected() {
        let gpu = GpuConfig::small();
        let mut cfg = SecureMemConfig::secure_mem();
        let plain = SecureBackend::new(cfg.clone(), &gpu);
        let mut w = Writer::new();
        plain.save_state(&mut w);
        let payload = w.into_bytes();
        cfg.profile_reuse = true;
        let mut profiled = SecureBackend::new(cfg, &gpu);
        let mut r = Reader::new(&payload);
        let err = profiled.restore_state(&mut r).expect_err("presence mismatch");
        // `profile_reuse` is part of the configuration stamp, so the
        // mismatch is caught before any profiler state is read.
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }), "got {err:?}");
    }

    /// Under a matching configuration stamp, the profilers' presence is
    /// still checked before their state is read.
    #[test]
    fn profiler_presence_checked_under_a_matching_stamp() {
        let gpu = GpuConfig::small();
        let cfg = SecureMemConfig { profile_reuse: true, ..SecureMemConfig::secure_mem() };
        let mut donor = SecureBackend::new(cfg.clone(), &gpu);
        donor.profilers = None;
        let mut w = Writer::new();
        donor.save_state(&mut w);
        let payload = w.into_bytes();
        let err = SecureBackend::new(cfg, &gpu).restore_state(&mut Reader::new(&payload)).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Malformed(
                "reuse profilers absent in checkpoint but present in this configuration".into()
            )
        );
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let gpu = GpuConfig::small();
        let cfg = SecureMemConfig::secure_mem();
        let mut b = SecureBackend::new(cfg.clone(), &gpu);
        let mut log = Vec::new();
        drive(&mut b, 0, 300, &mut log);
        let mut w = Writer::new();
        b.save_state(&mut w);
        let payload = w.into_bytes();
        let mut fresh = SecureBackend::new(cfg, &gpu);
        let mut r = Reader::new(&payload[..payload.len() / 2]);
        assert!(fresh.restore_state(&mut r).is_err(), "truncation must not restore");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::config::SecurityScheme;
    use secmem_gpusim::config::GpuConfig;
    use secmem_gpusim::fault::{FaultPlan, FaultSpec, FaultTrigger};
    use secmem_gpusim::types::SectorMask;

    fn read_req(id: u64, addr: Addr) -> BackendReq {
        BackendReq { id, line_addr: addr, sectors: SectorMask::single(0), bank: 0 }
    }

    /// Drives one read to completion under an injector; returns the
    /// backend for inspection.
    fn faulted_read(scheme: SecurityScheme, plan: FaultPlan) -> SecureBackend {
        let mut b = SecureBackend::new(SecureMemConfig::with_scheme(scheme), &GpuConfig::small());
        b.install_faults(plan.injector_for(0));
        b.submit_read(0, read_req(1, 0x0));
        for now in 0..10_000 {
            b.cycle(now);
            if b.pop_read_response().is_some() {
                return b;
            }
        }
        panic!("read never completed under {scheme}");
    }

    #[test]
    fn bit_flip_detected_by_mac_scheme() {
        let b = faulted_read(SecurityScheme::CtrMacBmt, FaultPlan::bit_flip_on_line(42, 0x0));
        let events = b.fault_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FaultKind::BitFlip);
        assert!(events[0].detected, "MAC scheme must flag a data bit flip");
        assert_eq!(b.fault_stats().class(TrafficClass::Data).detected, 1);
        assert_eq!(b.fault_stats().total_undetected(), 0);
    }

    #[test]
    fn bit_flip_slips_past_ctr_only() {
        let b = faulted_read(SecurityScheme::CtrOnly, FaultPlan::bit_flip_on_line(42, 0x0));
        let events = b.fault_events();
        assert_eq!(events.len(), 1);
        assert!(!events[0].detected, "no MACs: the flip sails through");
        assert_eq!(b.fault_stats().class(TrafficClass::Data).undetected, 1);
    }

    #[test]
    fn replay_fools_direct_mac_but_not_the_tree() {
        let replay = |scheme| {
            let plan = FaultPlan::new(7).with(
                FaultSpec::new(secmem_gpusim::fault::FaultKind::Replay, FaultTrigger::Nth(0))
                    .on_class(TrafficClass::Data),
            );
            faulted_read(scheme, plan)
        };
        let mac_only = replay(SecurityScheme::DirectMac);
        assert_eq!(
            mac_only.fault_stats().class(TrafficClass::Data).undetected,
            1,
            "consistent rollback passes the MAC"
        );
        let with_tree = replay(SecurityScheme::DirectMacMt);
        assert_eq!(
            with_tree.fault_stats().class(TrafficClass::Data).detected,
            1,
            "the MT catches the rollback"
        );
    }

    #[test]
    fn corrupted_counter_caught_by_bmt_or_mac() {
        let corrupt_ctr = |scheme| {
            let plan = FaultPlan::new(9).with(
                FaultSpec::new(FaultKind::MetaCorrupt, FaultTrigger::Nth(0)).on_class(TrafficClass::Counter),
            );
            faulted_read(scheme, plan)
        };
        let bmt = corrupt_ctr(SecurityScheme::CtrBmt);
        assert_eq!(bmt.fault_stats().class(TrafficClass::Counter).detected, 1);
        let bare = corrupt_ctr(SecurityScheme::CtrOnly);
        assert_eq!(
            bare.fault_stats().class(TrafficClass::Counter).undetected,
            1,
            "unverified counters miss corruption"
        );
    }

    #[test]
    fn fault_events_cleared_on_stats_reset() {
        let mut b = faulted_read(SecurityScheme::CtrMacBmt, FaultPlan::bit_flip_on_line(42, 0x0));
        assert!(!b.fault_events().is_empty());
        b.reset_stats();
        assert!(b.fault_events().is_empty());
        assert_eq!(b.fault_stats().total_injected(), 0);
    }
}
