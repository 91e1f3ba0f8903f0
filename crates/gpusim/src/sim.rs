//! The top-level simulator: wires SMs, interconnect and memory partitions
//! together and advances them cycle by cycle.

use std::collections::VecDeque;

use secmem_checkpoint::{snapshot_fields, CheckpointError, Frame, Reader, Snapshot, Writer};
use secmem_telemetry::{EventKind, Telemetry, TelemetryEvent, TelemetrySnapshot};

use crate::backend::MemoryBackend;
use crate::cache::CacheStats;
use crate::config::{AddressMap, GpuConfig};
use crate::dram::DramStats;
use crate::error::{PartitionStall, SimError, StallReport};
use crate::icnt::Interconnect;
use crate::kernel::Kernel;
use crate::partition::MemPartition;
use crate::sm::{Sm, SmOutput};
use crate::stats::SimReport;
use crate::types::{Cycle, MemRequest};

/// A full-GPU simulation instance.
///
/// `B` is the memory backend type installed in every partition:
/// [`crate::backend::PassthroughBackend`] for the baseline GPU, or the
/// secure memory engine from `secmem-core`.
#[derive(Debug)]
pub struct Simulator<B> {
    cfg: GpuConfig,
    map: AddressMap,
    sms: Vec<Sm>,
    overflow: Vec<VecDeque<MemRequest>>,
    partitions: Vec<MemPartition<B>>,
    icnt: Interconnect,
    now: Cycle,
    /// Set when the forward-progress watchdog fired.
    stall: Option<StallReport>,
    /// Watchdog cursor: the last observed progress signature. A field
    /// (not a `run_checked` local) so chunked runs — and checkpoint
    /// resume — observe the identical stall window as one long run.
    wd_last_sig: (u64, u64, u64),
    /// Watchdog cursor: the last cycle at which the signature changed.
    wd_last_progress: Cycle,
    /// Telemetry sink shared with every partition (disabled by default).
    telemetry: Telemetry,
    /// Periodic sampling state; present only when telemetry is enabled,
    /// so the per-step cost of disabled telemetry is one `Option` check.
    sampler: Option<SimSampler>,
    /// Request buffer every SM issues into during [`Simulator::step_inner`],
    /// reused across SMs and cycles so stepping never allocates.
    out: SmOutput,
}

/// Metric names for the per-class DRAM byte series, in
/// [`crate::types::TrafficClass::ALL`] order.
const CLASS_SERIES: [&str; 4] = ["dram.data_bytes", "dram.ctr_bytes", "dram.mac_bytes", "dram.bmt_bytes"];

/// Periodic sampling state driven by [`Simulator::step_inner`].
#[derive(Debug)]
struct SimSampler {
    /// Cycles between samples, from the attached telemetry: like every
    /// other geometry, not checkpointed.
    interval: Cycle,
    /// The previous sample; the next one is due `interval` cycles later.
    last: SampleMark,
}

impl SimSampler {
    /// The cycle the next sample is due.
    fn due_at(&self) -> Cycle {
        self.last.at + self.interval
    }
}

/// A sample's cycle and the report totals it read, for windowed deltas
/// and rates.
#[derive(Debug, Clone, Copy, Default)]
struct SampleMark {
    at: Cycle,
    l1: CacheStats,
    l2: CacheStats,
    dram: DramStats,
    /// Every metadata cache, all classes merged.
    mdc: CacheStats,
}

impl<B: MemoryBackend> Simulator<B> {
    /// Builds a simulator for `kernel` with one backend per partition,
    /// produced by `backend_factory(partition_id, &cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation; use
    /// [`Simulator::try_new`] for a typed error instead.
    pub fn new(
        cfg: GpuConfig,
        kernel: &dyn Kernel,
        backend_factory: impl FnMut(u32, &GpuConfig) -> B,
    ) -> Self {
        match Self::try_new(cfg, kernel, backend_factory) {
            Ok(sim) => sim,
            // lint:allow(H1): documented panicking convenience constructor; try_new is the typed-error form
            Err(e) => panic!("invalid GPU configuration: {e}"),
        }
    }

    /// Builds a simulator, returning a typed error if the configuration
    /// fails validation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the violated constraint.
    pub fn try_new(
        cfg: GpuConfig,
        kernel: &dyn Kernel,
        mut backend_factory: impl FnMut(u32, &GpuConfig) -> B,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let active = kernel.active_sms(cfg.num_sms).min(cfg.num_sms);
        let sms = (0..cfg.num_sms)
            .map(|sm| {
                let warps = if sm < active { kernel.warps_per_sm(sm).min(cfg.max_warps_per_sm) } else { 0 };
                let programs = (0..warps).map(|w| kernel.spawn(sm, w)).collect();
                Sm::new(sm, &cfg, programs)
            })
            .collect();
        let partitions =
            (0..cfg.num_partitions).map(|p| MemPartition::new(p, &cfg, backend_factory(p, &cfg))).collect();
        Ok(Self {
            map: AddressMap::new(&cfg),
            icnt: Interconnect::new(&cfg),
            sms,
            overflow: vec![VecDeque::new(); cfg.num_sms as usize],
            partitions,
            cfg,
            now: 0,
            stall: None,
            wd_last_sig: (0, 0, 0),
            wd_last_progress: 0,
            telemetry: Telemetry::disabled(),
            sampler: None,
            out: SmOutput::default(),
        })
    }

    /// Attaches a telemetry sink, shared with every partition (and from
    /// there every backend and DRAM channel). An enabled sink arms the
    /// periodic sampler; a disabled one detaches everything.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for p in &mut self.partitions {
            p.set_telemetry(telemetry.clone());
        }
        let last = self.sample_mark();
        let interval = telemetry.sample_interval().max(1);
        self.sampler = telemetry.is_enabled().then_some(SimSampler { interval, last });
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled unless
    /// [`Simulator::set_telemetry`] installed an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Everything telemetry recorded so far; `None` when disabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.snapshot()
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Access to a partition (e.g. to inspect a secure backend).
    pub fn partition(&self, index: u32) -> &MemPartition<B> {
        &self.partitions[index as usize]
    }

    /// Advances the whole GPU by one cycle; with `SKIP`, a partition with
    /// no event due this cycle is not stepped.
    fn step_inner<const SKIP: bool>(&mut self) {
        let now = self.now;

        // 1. Deliver memory responses to SMs.
        for sm in &mut self.sms {
            let id = sm.id();
            while let Some(resp) = self.icnt.pop_response(now, id) {
                sm.on_response(&resp);
            }
        }

        // 2. SMs issue and dispatch; requests go onto the interconnect.
        let out = &mut self.out;
        for (sm, overflow) in self.sms.iter_mut().zip(&mut self.overflow) {
            // Retry requests that could not be placed last cycle, in
            // order; a head whose partition queue is still full stays put.
            while let Some(req) = overflow.front() {
                let p = self.map.partition_of(req.line_addr);
                if self.icnt.request_full(p) {
                    break;
                }
                let Some(req) = overflow.pop_front() else { break };
                let pushed = self.icnt.push_request(now, p, req);
                debug_assert!(pushed.is_ok(), "a queue with room refused a request");
            }
            let room = if overflow.is_empty() { self.cfg.l1_ports as usize } else { 0 };
            out.requests.clear();
            sm.cycle(now, room, out);
            for req in out.requests.drain(..) {
                let p = self.map.partition_of(req.line_addr);
                if let Err(back) = self.icnt.push_request(now, p, req) {
                    overflow.push_back(back);
                }
            }
        }

        // 3. Partitions accept requests, advance, and emit responses.
        for part in &mut self.partitions {
            let id = part.id();
            while !part.input_full() {
                let Some(req) = self.icnt.pop_request(now, id) else { break };
                part.input.push_back(req);
            }
            // A partition with no event due this cycle would run a no-op
            // `cycle` (same event model `advance_idle` skips whole steps
            // on); responses only ever appear as a result of `cycle`.
            if SKIP && part.next_event_cycle(now) != Some(now) {
                continue;
            }
            part.cycle(now);
            for resp in part.responses.drain(..) {
                if let Some(warp) = resp.warp {
                    self.icnt.push_response(now, warp.sm, resp);
                }
            }
        }

        self.now += 1;
        // lint:allow(T1): sampling fires once per sample-interval, not per cycle; gauge-name formatting is amortized across the window
        self.maybe_sample();
    }

    /// Earliest cycle at or after `now` at which any component can make
    /// progress, or `None` when every component is event-less (drained,
    /// or deadlocked waiting on responses that will never come). Stops at
    /// the first component due now, since nothing can beat `now`;
    /// partitions come first, as they are the likeliest to be busy.
    fn next_activity_cycle(&self) -> Option<Cycle> {
        let now = self.now;
        if self.overflow.iter().any(|q| !q.is_empty()) {
            return Some(now);
        }
        let events = self
            .partitions
            .iter()
            .map(|p| p.next_event_cycle(now))
            .chain(std::iter::once(self.icnt.next_event_cycle(now)))
            .chain(self.sms.iter().map(|sm| sm.next_event_cycle(now)));
        let mut next: Option<Cycle> = None;
        for c in events.flatten() {
            if c <= now {
                return Some(c);
            }
            next = Some(next.map_or(c, |n| n.min(c)));
        }
        next
    }

    /// Fast-forwards over a quiescent gap: jumps `now` to the next cycle
    /// at which any component has an event, capped at `limit` (and at the
    /// sampler's next due cycle, so time series keep their cadence).
    ///
    /// Correctness contract: every skipped cycle is one where [`Simulator::step_inner`]
    /// would have changed no state other than memory-stall accounting,
    /// which [`Sm::account_idle_stall`] replays exactly. When no component
    /// reports an event while work is still outstanding (a true deadlock,
    /// e.g. under fault injection), the jump proceeds to `limit` so the
    /// watchdog observes the identical stall window.
    fn advance_idle(&mut self, limit: Cycle) {
        let mut target = match self.next_activity_cycle() {
            Some(c) => c.min(limit),
            None => limit,
        };
        if let Some(s) = &self.sampler {
            target = target.min(s.due_at());
        }
        if target <= self.now {
            return;
        }
        let gap = target - self.now;
        let now = self.now;
        for sm in &mut self.sms {
            sm.account_idle_stall(now, gap);
        }
        self.now = target;
        // lint:allow(T1): interval-gated, as in step_inner()
        self.maybe_sample();
    }

    /// Takes a periodic sample when one is due. Disabled telemetry costs
    /// one `Option` discriminant check here.
    fn maybe_sample(&mut self) {
        let due = matches!(&self.sampler, Some(s) if self.now >= s.due_at());
        if due {
            self.take_sample();
        }
    }

    /// Closes the final (possibly partial) sampling window so series
    /// totals cover the whole run.
    fn final_sample(&mut self) {
        let due = matches!(&self.sampler, Some(s) if self.now > s.last.at);
        if due {
            self.take_sample();
        }
    }

    /// The report totals the sampler windows over, stamped with `now`.
    fn sample_mark(&self) -> SampleMark {
        let totals = self.totals();
        let mut mdc = CacheStats::default();
        for m in &totals.engine.meta {
            mdc.merge(&m.cache);
        }
        SampleMark { at: self.now, l1: totals.l1, l2: totals.l2, dram: totals.dram, mdc }
    }

    /// Records one sample: per-class DRAM byte deltas, windowed hit
    /// rates, occupancy gauges and active warps.
    fn take_sample(&mut self) {
        let Some(mut sampler) = self.sampler.take() else { return };
        let now = self.now;
        let cur = self.sample_mark();
        let prev = sampler.last;
        for (i, name) in CLASS_SERIES.iter().enumerate() {
            let bytes = |d: &DramStats| d.per_class[i].bytes_read + d.per_class[i].bytes_written;
            self.telemetry.record_delta(name, now, bytes(&cur.dram).saturating_sub(bytes(&prev.dram)) as f64);
        }
        let rows = |d: &DramStats| (d.row_hits, d.row_hits + d.row_misses);
        let hits = |c: &CacheStats| (c.hits, c.accesses());
        for (name, (h, a), (prev_h, prev_a)) in [
            ("dram.row_hit_rate", rows(&cur.dram), rows(&prev.dram)),
            ("l1.hit_rate", hits(&cur.l1), hits(&prev.l1)),
            ("l2.hit_rate", hits(&cur.l2), hits(&prev.l2)),
            ("mdc.hit_rate", hits(&cur.mdc), hits(&prev.mdc)),
        ] {
            self.record_rate(name, now, h.saturating_sub(prev_h), a.saturating_sub(prev_a));
        }
        let mut mdc_occupancy = 0usize;
        for p in &self.partitions {
            let i = p.id();
            self.telemetry.record_gauge(&format!("part{i}.input_q"), now, p.input_occupancy() as f64);
            self.telemetry.record_gauge(&format!("part{i}.wb_q"), now, p.wb_occupancy() as f64);
            self.telemetry.record_gauge(&format!("part{i}.l2_mshr"), now, p.mshr_occupancy() as f64);
            self.telemetry.record_gauge(
                &format!("part{i}.backend_pending"),
                now,
                p.backend().pending_work() as f64,
            );
            mdc_occupancy += p.meta_mshr_occupancy();
        }
        self.telemetry.record_gauge("mdc.mshr_occupancy", now, mdc_occupancy as f64);
        let warps: u64 = self.sms.iter().map(|sm| sm.unfinished_warps() as u64).sum();
        self.telemetry.record_gauge("active_warps", now, warps as f64);
        sampler.last = cur;
        self.sampler = Some(sampler);
    }

    /// Records a windowed rate gauge, skipping empty windows (no
    /// accesses means no meaningful rate).
    fn record_rate(&self, name: &str, cycle: Cycle, hits: u64, accesses: u64) {
        if accesses > 0 {
            self.telemetry.record_gauge(name, cycle, hits as f64 / accesses as f64);
        }
    }

    /// Records a phase begin/end event when telemetry is enabled.
    fn phase_event(&self, begin: bool, name: &str) {
        if self.telemetry.is_enabled() {
            let kind = if begin {
                EventKind::PhaseBegin { name: name.to_string() }
            } else {
                EventKind::PhaseEnd { name: name.to_string() }
            };
            self.telemetry.record_event(TelemetryEvent { cycle: self.now, kind });
        }
    }

    /// Runs until `max_cycles` have elapsed or every warp has retired and
    /// the memory system has drained. Returns the report.
    ///
    /// A forward-progress watchdog (see [`GpuConfig::watchdog_cycles`])
    /// guards the loop: if the machine dead- or livelocks, the run stops
    /// early and the report carries a [`StallReport`] in
    /// [`SimReport::stall`]. Use [`Simulator::run_checked`] to receive
    /// the stall as a typed error instead.
    pub fn run(&mut self, max_cycles: Cycle) -> SimReport {
        self.run_with_warmup(0, max_cycles)
    }

    /// Like [`Simulator::run`], but surfaces a watchdog stall as a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] with a diagnostic [`StallReport`]
    /// when no warp instruction issues and no DRAM channel performs any
    /// service for [`GpuConfig::watchdog_cycles`] consecutive cycles
    /// while work is still outstanding.
    pub fn run_checked(&mut self, max_cycles: Cycle) -> Result<SimReport, Box<SimError>> {
        checked(self.run_loop::<true>(0, max_cycles))
    }

    /// The reference for [`Simulator::run_with_warmup`]: the same loop,
    /// warmup and watchdog included, but it steps every cycle and every
    /// partition instead of skipping the ones the event probes call
    /// empty. Slow; tests compare its reports, telemetry and checkpoint
    /// frames with the fast loop.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_checked`].
    #[doc(hidden)]
    pub fn run_stepwise(&mut self, warmup: Cycle, max_cycles: Cycle) -> Result<SimReport, Box<SimError>> {
        checked(self.run_loop::<false>(warmup, max_cycles))
    }

    /// Runs `warmup` cycles, discards all statistics, then runs until
    /// `max_cycles` total: the budget counts from cycle 0, and the whole
    /// warmup runs even when it is longer. The report covers only the
    /// measured window. The watchdog (see [`Simulator::run`]) guards the
    /// warmup too.
    ///
    /// If the kernel finishes, or the watchdog stops it, before the warmup
    /// window elapses, the measured window is empty; the report is then
    /// flagged with [`SimReport::warmup_truncated`] and its statistics
    /// must not be interpreted.
    pub fn run_with_warmup(&mut self, warmup: Cycle, max_cycles: Cycle) -> SimReport {
        self.run_loop::<true>(warmup, max_cycles)
    }

    /// The one run loop: the warmup window (none when `warmup == 0`), its
    /// boundary and the measured window; `SKIP` turns on idle-skip.
    fn run_loop<const SKIP: bool>(&mut self, warmup: Cycle, max_cycles: Cycle) -> SimReport {
        let window = self.cfg.watchdog_cycles;
        let mut warming = warmup > 0;
        let mut truncated = false;
        let mut finished = false;
        self.phase_event(true, if warming { "warmup" } else { "run" });
        let stall = loop {
            if warming && (finished || self.now >= warmup) {
                // A kernel that finished inside the warmup leaves an empty
                // measured window, and still steps once more below.
                warming = false;
                truncated = self.now < warmup || self.finished();
                self.phase_event(false, "warmup");
                self.reset_stats();
                self.phase_event(true, "run");
            } else if finished {
                break None;
            }
            if !warming && self.now >= max_cycles {
                break None;
            }
            self.step_inner::<SKIP>();
            finished = self.finished();
            if finished {
                continue;
            }
            let sig = self.progress_signature();
            if sig != self.wd_last_sig {
                self.wd_last_sig = sig;
                self.wd_last_progress = self.now;
                continue;
            }
            if window > 0 && self.now - self.wd_last_progress >= window {
                break Some(self.stall_report(self.now - self.wd_last_progress));
            }
            // Idle-skip: the cycle made no externally visible progress, so
            // fast-forward to the next component event. The caps keep the
            // phases and the watchdog honest: the next real step lands on
            // the warmup boundary, and exactly on the cycle where
            // `now - last_progress == window`.
            if SKIP {
                let mut limit = if warming { warmup } else { max_cycles };
                if window > 0 {
                    limit = limit.min(self.wd_last_progress + window - 1);
                }
                self.advance_idle(limit);
            }
        };
        if let Some(stall) = &stall {
            if self.telemetry.is_enabled() {
                let kind = EventKind::Stall { detail: stall.to_string() };
                self.telemetry.record_event(TelemetryEvent { cycle: self.now, kind });
            }
        }
        self.stall = stall;
        self.final_sample();
        self.phase_event(false, if warming { "warmup" } else { "run" });
        let mut report = self.report();
        report.cycles = self.now.saturating_sub(warmup);
        // A run stopped inside its warmup has no measured window either.
        report.warmup_truncated = truncated || warming;
        report
    }

    /// A value that changes whenever the machine makes forward progress:
    /// instructions issued or DRAM service/queue activity. Deliberately
    /// excludes retry-style counters (e.g. DRAM rejections) that advance
    /// even while livelocked.
    fn progress_signature(&self) -> (u64, u64, u64) {
        let instructions: u64 = self.sms.iter().map(|sm| sm.instructions).sum();
        let mut dram_busy = 0u64;
        let mut l2_activity = 0u64;
        for p in &self.partitions {
            dram_busy += p.backend().dram_stats().busy_fp;
            l2_activity += p.l2_accesses();
        }
        (instructions, dram_busy, l2_activity)
    }

    /// Snapshot of every queue the watchdog cares about.
    fn stall_report(&self, stalled_for: Cycle) -> StallReport {
        StallReport {
            cycle: self.now,
            stalled_for,
            unfinished_warps: self.sms.iter().map(|sm| sm.unfinished_warps() as u64).sum(),
            sm_overflow: self.overflow.iter().map(VecDeque::len).collect(),
            partitions: self
                .partitions
                .iter()
                .map(|p| PartitionStall {
                    input: p.input.len(),
                    writebacks: p.wb_occupancy(),
                    mshrs: p.mshr_occupancy(),
                    backend_pending: p.backend().pending_work(),
                    backend_idle: p.backend().is_idle(),
                })
                .collect(),
            icnt_requests: self.icnt.request_depths(),
            icnt_responses: self.icnt.response_depths(),
        }
    }

    /// Discards all statistics gathered so far (simulation state — cache
    /// contents, queues, warp positions — is preserved): the warmup
    /// boundary of [`Simulator::run_loop`].
    fn reset_stats(&mut self) {
        for sm in &mut self.sms {
            sm.reset_stats();
        }
        for p in &mut self.partitions {
            p.reset_stats();
        }
        // Rebaseline the sampler and drop pre-reset samples (events are
        // kept) so series totals keep reconciling with the measured
        // window's aggregates.
        if let Some(s) = &mut self.sampler {
            s.last = SampleMark { at: self.now, ..SampleMark::default() };
        }
        // The statistics reset changed the progress signature without any
        // forward progress; re-baseline the watchdog so it measures from
        // here rather than crediting the reset as activity.
        self.wd_last_sig = self.progress_signature();
        self.wd_last_progress = self.now;
        self.telemetry.clear_series();
    }

    /// True when all warps retired and all queues drained.
    pub fn finished(&self) -> bool {
        self.sms.iter().all(Sm::finished)
            && self.overflow.iter().all(VecDeque::is_empty)
            && self.icnt.is_idle()
            && self.partitions.iter().all(MemPartition::is_idle)
    }

    /// Produces the aggregated end-of-run report: every per-SM and
    /// per-partition statistic merged, plus the watchdog stall and the
    /// telemetry summary.
    pub fn report(&self) -> SimReport {
        let mut report = self.totals();
        report.stall = self.stall.clone();
        if let Some(snap) = self.telemetry.snapshot() {
            let summary = secmem_telemetry::spark::summary(&snap);
            if !summary.is_empty() {
                report.telemetry_summary = Some(summary);
            }
        }
        report
    }

    /// Every per-SM and per-partition statistic, merged: the one sum the
    /// report and the sampler both read.
    fn totals(&self) -> SimReport {
        let mut report = SimReport { cycles: self.now, ..SimReport::default() };
        for sm in &self.sms {
            report.warp_instructions += sm.instructions;
            report.thread_instructions += sm.instructions * self.cfg.threads_per_warp as u64;
            report.mem_stall_cycles += sm.mem_stall_cycles;
            report.warps += sm.warp_count() as u64;
            report.l1.merge(&sm.l1_stats());
        }
        for part in &self.partitions {
            report.l2.merge(&part.l2_stats());
            report.l2_mshr.merge(&part.l2_mshr_stats());
            report.dram.merge(part.backend().dram_stats());
            report.engine.merge(&part.backend().engine_stats());
            report.faults.merge(&part.backend().fault_stats());
        }
        report
    }

    /// FNV-1a fingerprint of the configuration's `Debug` rendering.
    /// Stored in every checkpoint frame so a snapshot can only be
    /// restored into a simulator built from the identical configuration.
    pub fn config_fingerprint(&self) -> u64 {
        secmem_checkpoint::fnv1a(format!("{:?}", self.cfg).as_bytes())
    }

    /// Captures the complete simulator state into a checkpoint frame.
    ///
    /// The frame covers every SM (warp programs, L1, MSHRs, dispatch and
    /// return queues), the interconnect, every partition (L2 banks,
    /// backend, staging queues), the watchdog cursors and the sampler's
    /// previous sample. It holds model state only: nothing the
    /// configuration or other saved fields determine (the sampling
    /// interval comes from the restoring simulator's telemetry), and
    /// nothing that records which cycles were stepped, so a frame is the
    /// same with idle-skip on or off. Restoring it into a simulator
    /// freshly built from the same configuration, kernel and backend
    /// factory — then running to the end — produces a report
    /// byte-identical to an uninterrupted run, and, when the frame falls
    /// on a sample boundary, the same samples after it.
    ///
    /// A pending [`StallReport`] is deliberately *not* captured: a
    /// resumed stalled machine re-trips its watchdog deterministically.
    pub fn save_checkpoint(&self) -> Frame {
        let mut w = Writer::new();
        w.tag(TAG_SMS);
        w.put_usize(self.sms.len());
        for sm in &self.sms {
            sm.save_state(&mut w);
        }
        w.tag(TAG_OVERFLOW);
        self.overflow.save(&mut w);
        w.tag(TAG_PARTITIONS);
        w.put_usize(self.partitions.len());
        for p in &self.partitions {
            p.save_state(&mut w);
        }
        w.tag(TAG_ICNT);
        self.icnt.save_state(&mut w);
        w.tag(TAG_WATCHDOG);
        self.wd_last_sig.save(&mut w);
        w.put_u64(self.wd_last_progress);
        w.tag(TAG_SAMPLER);
        self.sampler.as_ref().map(|s| s.last).save(&mut w);
        Frame { config_fp: self.config_fingerprint(), cycle: self.now, payload: w.into_bytes() }
    }

    /// Restores a checkpoint captured by [`Simulator::save_checkpoint`]
    /// into this simulator, which must have been freshly built from the
    /// identical configuration, kernel and backend factory.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] when the frame was captured
    /// under a different configuration; any decode or validation error
    /// otherwise. On error the simulator may be partially overwritten
    /// and must be discarded.
    pub fn restore_checkpoint(&mut self, frame: &Frame) -> Result<(), CheckpointError> {
        let expected = self.config_fingerprint();
        if frame.config_fp != expected {
            return Err(CheckpointError::ConfigMismatch { stored: frame.config_fp, expected });
        }
        let mut r = Reader::new(&frame.payload);
        r.expect_tag(TAG_SMS)?;
        r.expect_count("simulator", "SMs", self.sms.len())?;
        for sm in &mut self.sms {
            sm.restore_state(&mut r)?;
        }
        r.expect_tag(TAG_OVERFLOW)?;
        r.expect_count("simulator", "overflow queues", self.overflow.len())?;
        for q in &mut self.overflow {
            *q = VecDeque::load(&mut r)?;
        }
        r.expect_tag(TAG_PARTITIONS)?;
        r.expect_count("simulator", "partitions", self.partitions.len())?;
        for p in &mut self.partitions {
            p.restore_state(&mut r)?;
        }
        r.expect_tag(TAG_ICNT)?;
        self.icnt.restore_state(&mut r)?;
        r.expect_tag(TAG_WATCHDOG)?;
        self.wd_last_sig = Snapshot::load(&mut r)?;
        self.wd_last_progress = r.get_u64()?;
        r.expect_tag(TAG_SAMPLER)?;
        r.expect_presence("telemetry sampler", self.sampler.is_some())?;
        if let Some(s) = &mut self.sampler {
            s.last = SampleMark::load(&mut r)?;
        }
        r.expect_end()?;
        self.now = frame.cycle;
        self.stall = None;
        Ok(())
    }
}

/// A run's report, or the watchdog's stall as a typed error.
fn checked(report: SimReport) -> Result<SimReport, Box<SimError>> {
    match report.stall {
        Some(stall) => Err(Box::new(SimError::Stalled(stall))),
        None => Ok(report),
    }
}

/// Section tags inside a simulator checkpoint payload, so encoder and
/// decoder drift fails loudly instead of misreading bytes.
const TAG_SMS: u32 = 0x534D_5F30;
const TAG_OVERFLOW: u32 = 0x4F56_465F;
const TAG_PARTITIONS: u32 = 0x5052_545F;
const TAG_ICNT: u32 = 0x4943_4E54;
const TAG_WATCHDOG: u32 = 0x5744_4F47;
const TAG_SAMPLER: u32 = 0x534D_504C;

snapshot_fields!(SampleMark { at, l1, l2, dram, mdc });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PassthroughBackend;
    use crate::kernel::StreamKernel;
    use crate::types::TrafficClass;

    fn run_stream(alu_per_mem: u32, cycles: Cycle) -> SimReport {
        let cfg = GpuConfig::small();
        let kernel = StreamKernel { alu_per_mem, bytes_per_warp: 1 << 20, warps: 16 };
        let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
        sim.run(cycles)
    }

    #[test]
    fn streaming_kernel_makes_progress() {
        let report = run_stream(4, 20_000);
        assert!(report.warp_instructions > 1000, "issued {}", report.warp_instructions);
        assert!(report.dram.class(TrafficClass::Data).reads > 100);
        assert!(report.ipc() > 0.0);
    }

    #[test]
    fn memory_bound_kernel_saturates_bandwidth() {
        let report = run_stream(0, 30_000);
        let cfg = GpuConfig::small();
        let util = report.bandwidth_utilization(&cfg);
        assert!(util > 0.5, "bandwidth utilization only {util:.3}");
    }

    #[test]
    fn compute_bound_kernel_low_bandwidth() {
        let report = run_stream(1000, 20_000);
        let cfg = GpuConfig::small();
        let util = report.bandwidth_utilization(&cfg);
        assert!(util < 0.2, "expected low bandwidth, got {util:.3}");
        // IPC should be near peak: every SM issues almost every cycle.
        assert!(report.ipc() > 0.5 * cfg.peak_ipc(), "ipc {}", report.ipc());
    }

    #[test]
    fn warmup_discards_early_statistics() {
        let cfg = GpuConfig::small();
        let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 20, warps: 8 };
        let mut sim = Simulator::new(cfg.clone(), &kernel, |_, c| PassthroughBackend::from_config(c));
        let warm = sim.run_with_warmup(4_000, 8_000);
        assert_eq!(warm.cycles, 4_000, "report covers the measured window only");
        let mut sim2 = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
        let cold = sim2.run(8_000);
        // The warmed window has no cold-start ramp: its rate can only be
        // higher or equal, and it must have made progress.
        assert!(warm.thread_instructions > 0);
        assert!(warm.ipc() >= cold.ipc() * 0.9, "warm {} vs cold {}", warm.ipc(), cold.ipc());
    }

    #[test]
    fn determinism() {
        let a = run_stream(2, 5_000);
        let b = run_stream(2, 5_000);
        assert_eq!(a.warp_instructions, b.warp_instructions);
        assert_eq!(a.dram.total_requests(), b.dram.total_requests());
    }

    #[test]
    fn more_compute_means_less_dram_traffic() {
        let heavy = run_stream(0, 10_000);
        let light = run_stream(50, 10_000);
        assert!(heavy.dram.total_bytes() > light.dram.total_bytes(), "memory-bound should move more bytes");
    }

    #[test]
    fn try_new_reports_config_errors() {
        let mut cfg = GpuConfig::small();
        cfg.num_partitions = 3;
        let kernel = StreamKernel { alu_per_mem: 1, bytes_per_warp: 4096, warps: 1 };
        let err = Simulator::try_new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c))
            .expect_err("three partitions is invalid");
        match err {
            crate::error::SimError::Config(e) => assert_eq!(e.field, "num_partitions"),
            other => panic!("expected config error, got {other:?}"),
        }
    }

    /// A kernel whose warps each issue a fixed number of loads and exit
    /// (`StreamKernel` never exits, so warmup truncation needs this).
    struct ShortKernel {
        loads: u32,
        warps: u32,
    }

    struct ShortProgram {
        left: u32,
        next: u64,
    }

    impl crate::kernel::WarpProgram for ShortProgram {
        fn next_inst(&mut self) -> crate::types::Inst {
            if self.left == 0 {
                return crate::types::Inst::Exit;
            }
            self.left -= 1;
            let addr = self.next;
            self.next += 128;
            crate::types::Inst::load(crate::types::Access::new(addr, crate::types::FULL_SECTOR_MASK))
        }

        fn save_state(&self, out: &mut Vec<u64>) {
            out.push(u64::from(self.left));
            out.push(self.next);
        }

        fn restore_state(&mut self, state: &[u64]) -> Result<(), crate::kernel::StateError> {
            crate::kernel::expect_state_len(state, 2, "short program")?;
            self.left = u32::try_from(state[0])
                .map_err(|_| crate::kernel::StateError::new("short program", "left overflow"))?;
            self.next = state[1];
            Ok(())
        }
    }

    impl crate::kernel::Kernel for ShortKernel {
        fn warps_per_sm(&self, _sm: u32) -> u32 {
            self.warps
        }

        fn spawn(&self, sm: u32, warp: u32) -> Box<dyn crate::kernel::WarpProgram + Send> {
            let idx = sm as u64 * 64 + warp as u64;
            Box::new(ShortProgram { left: self.loads, next: idx << 20 })
        }
    }

    #[test]
    fn warmup_truncation_is_flagged() {
        let cfg = GpuConfig::small();
        // A tiny kernel that finishes long before the warmup window.
        let kernel = ShortKernel { loads: 8, warps: 1 };
        let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
        let report = sim.run_with_warmup(1_000_000, 2_000_000);
        assert!(report.warmup_truncated, "kernel finished inside warmup");
        assert_eq!(report.cycles, 0, "no measured window");
        // The long-running configuration from `warmup_discards_early_statistics`
        // must stay unflagged; re-check here to pin the polarity.
        let busy = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 20, warps: 8 };
        let mut sim2 = Simulator::new(GpuConfig::small(), &busy, |_, c| PassthroughBackend::from_config(c));
        let ok = sim2.run_with_warmup(4_000, 8_000);
        assert!(!ok.warmup_truncated);
    }

    mod telemetry {
        use super::*;
        use secmem_telemetry::{EventKind, Telemetry, TelemetryConfig};

        fn sim_with_telemetry(interval: u64) -> Simulator<PassthroughBackend> {
            let cfg = GpuConfig::small();
            let kernel = StreamKernel { alu_per_mem: 0, bytes_per_warp: 1 << 20, warps: 16 };
            let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
            sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
                sample_interval: interval,
                ..TelemetryConfig::default()
            }));
            sim
        }

        #[test]
        fn byte_series_reconcile_with_report_aggregates() {
            let mut sim = sim_with_telemetry(256);
            let report = sim.run(10_000);
            let snap = sim.telemetry_snapshot().expect("enabled");
            let series = snap.series("dram.data_bytes").expect("data bytes sampled");
            let agg = report.dram.class(TrafficClass::Data);
            let expected = (agg.bytes_read + agg.bytes_written) as f64;
            assert!(
                (series.total() - expected).abs() < 1e-6,
                "series total {} vs aggregate {expected}",
                series.total()
            );
            assert!(report.telemetry_summary.is_some(), "summary attached to report");
        }

        #[test]
        fn run_phase_span_recorded() {
            let mut sim = sim_with_telemetry(512);
            let _ = sim.run(5_000);
            let snap = sim.telemetry_snapshot().expect("enabled");
            let labels: Vec<&str> = snap.events.iter().map(|e| e.kind.label()).collect();
            assert!(labels.contains(&"phase_begin"));
            assert!(labels.contains(&"phase_end"));
        }

        #[test]
        fn warmup_reset_keeps_series_reconciled() {
            let mut sim = sim_with_telemetry(256);
            let report = sim.run_with_warmup(4_000, 8_000);
            let snap = sim.telemetry_snapshot().expect("enabled");
            let series = snap.series("dram.data_bytes").expect("sampled");
            let agg = report.dram.class(TrafficClass::Data);
            let expected = (agg.bytes_read + agg.bytes_written) as f64;
            assert!(
                (series.total() - expected).abs() < 1e-6,
                "measured-window series total {} vs aggregate {expected}",
                series.total()
            );
            // The warmup span survives the statistics reset.
            assert!(snap
                .events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::PhaseBegin { name } if name == "warmup")));
        }

        #[test]
        fn disabled_telemetry_changes_nothing() {
            let baseline = run_stream(2, 5_000);
            let mut sim = {
                let cfg = GpuConfig::small();
                let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 20, warps: 16 };
                Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c))
            };
            sim.set_telemetry(Telemetry::disabled());
            let report = sim.run(5_000);
            assert_eq!(report.warp_instructions, baseline.warp_instructions);
            assert_eq!(report.dram.total_bytes(), baseline.dram.total_bytes());
            assert!(report.telemetry_summary.is_none());
            assert!(sim.telemetry_snapshot().is_none());
        }

        #[test]
        fn enabled_telemetry_does_not_perturb_timing() {
            let plain = run_stream(2, 5_000);
            // Same kernel parameters as run_stream(2, _), plus sampling.
            let cfg = GpuConfig::small();
            let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 20, warps: 16 };
            let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
            sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
                sample_interval: 128,
                ..TelemetryConfig::default()
            }));
            let sampled = sim.run(5_000);
            assert_eq!(sampled.warp_instructions, plain.warp_instructions);
            assert_eq!(sampled.dram.total_requests(), plain.dram.total_requests());
        }
    }

    mod checkpoint {
        use super::*;

        fn fresh() -> Simulator<PassthroughBackend> {
            let cfg = GpuConfig::small();
            let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 18, warps: 8 };
            Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c))
        }

        #[test]
        fn snapshot_resume_matches_uninterrupted_run() {
            let mut whole = fresh();
            let expected = whole.run(6_000);
            for cut in [1, 1_500, 3_000, 5_999] {
                let mut first = fresh();
                let _ = first.run(cut);
                let frame = first.save_checkpoint();
                assert_eq!(frame.cycle, cut);
                // Round-trip through the encoded byte stream, as a file would.
                let frame = Frame::decode(&frame.encode()).expect("frame roundtrips");
                let mut resumed = fresh();
                resumed.restore_checkpoint(&frame).expect("restores");
                assert_eq!(resumed.now(), cut);
                let report = resumed.run(6_000);
                assert_eq!(
                    format!("{expected:?}"),
                    format!("{report:?}"),
                    "resume from cycle {cut} diverged"
                );
            }
        }

        #[test]
        fn chunked_runs_match_one_long_run() {
            let mut whole = fresh();
            let expected = whole.run(6_000);
            let mut chunked = fresh();
            let _ = chunked.run(1_000);
            let _ = chunked.run(4_000);
            let report = chunked.run(6_000);
            assert_eq!(format!("{expected:?}"), format!("{report:?}"));
        }

        #[test]
        fn config_mismatch_rejected() {
            let mut donor = fresh();
            let _ = donor.run(500);
            let frame = donor.save_checkpoint();
            let mut cfg = GpuConfig::small();
            cfg.l2_assoc *= 2;
            let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 18, warps: 8 };
            let mut other = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
            match other.restore_checkpoint(&frame) {
                Err(CheckpointError::ConfigMismatch { .. }) => {}
                other => panic!("expected config mismatch, got {other:?}"),
            }
        }

        #[test]
        fn truncated_payload_rejected() {
            let mut donor = fresh();
            let _ = donor.run(500);
            let mut frame = donor.save_checkpoint();
            frame.payload.truncate(frame.payload.len() / 2);
            let err = fresh().restore_checkpoint(&frame).expect_err("truncated payload");
            // Any typed error is acceptable; a panic is not.
            let _ = err.to_string();
        }

        #[test]
        fn sampler_presence_mismatch_rejected() {
            let mut donor = fresh();
            let _ = donor.run(500);
            let frame = donor.save_checkpoint();
            let mut with_telemetry = fresh();
            with_telemetry.set_telemetry(secmem_telemetry::Telemetry::enabled(
                secmem_telemetry::TelemetryConfig::default(),
            ));
            let err = with_telemetry.restore_checkpoint(&frame).expect_err("sampler mismatch");
            assert_eq!(
                err,
                CheckpointError::Malformed(
                    "telemetry sampler absent in checkpoint but present in this configuration".into()
                )
            );
        }

        /// A frame whose SM, overflow-queue or partition count differs
        /// from the rebuilt simulator's is refused by name.
        #[test]
        fn component_count_mismatches_rejected() {
            type Reshape = fn(&mut Simulator<PassthroughBackend>);
            let cases: [(Reshape, &str); 3] = [
                (|s| drop(s.sms.pop()), "simulator has 8 SMs, checkpoint has 7"),
                (|s| s.overflow.push(VecDeque::new()), "simulator has 8 overflow queues, checkpoint has 9"),
                (|s| drop(s.partitions.pop()), "simulator has 4 partitions, checkpoint has 3"),
            ];
            for (reshape, expected) in cases {
                let mut donor = fresh();
                let _ = donor.run(500);
                reshape(&mut donor);
                let err = fresh().restore_checkpoint(&donor.save_checkpoint()).expect_err(expected);
                assert_eq!(err, CheckpointError::Malformed(expected.into()));
            }
        }

        #[test]
        fn watchdog_fires_at_same_cycle_after_resume() {
            let mut cfg = GpuConfig::small();
            cfg.watchdog_cycles = 2_000;
            let plan = crate::fault::FaultPlan::new(11).with(
                crate::fault::FaultSpec::new(
                    crate::fault::FaultKind::Drop,
                    crate::fault::FaultTrigger::Always,
                )
                .on_class(TrafficClass::Data),
            );
            let kernel = StreamKernel { alu_per_mem: 0, bytes_per_warp: 1 << 18, warps: 4 };
            let mk = |cfg: &GpuConfig, plan: &crate::fault::FaultPlan| {
                let plan = plan.clone();
                Simulator::new(cfg.clone(), &kernel, move |p, c| {
                    let mut b = PassthroughBackend::from_config(c);
                    b.install_faults(plan.injector_for(p));
                    b
                })
            };
            let mut whole = mk(&cfg, &plan);
            let whole_err = whole.run_checked(1_000_000).expect_err("stalls");
            let mut first = mk(&cfg, &plan);
            let _ = first.run(300);
            let frame = first.save_checkpoint();
            let mut resumed = mk(&cfg, &plan);
            resumed.restore_checkpoint(&frame).expect("restores");
            let resumed_err = resumed.run_checked(1_000_000).expect_err("still stalls");
            let crate::error::SimError::Stalled(a) = *whole_err else { panic!("stall") };
            let crate::error::SimError::Stalled(b) = *resumed_err else { panic!("stall") };
            assert_eq!(a.cycle, b.cycle, "watchdog cycle must not shift across resume");
        }
    }

    mod watchdog {
        use super::*;
        use crate::error::SimError;
        use crate::fault::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
        use secmem_telemetry::TelemetryConfig;

        /// Dropping every data-read completion wedges all warps: the
        /// watchdog must stop the run well before `max_cycles`.
        fn drop_all_sim() -> Simulator<PassthroughBackend> {
            let mut cfg = GpuConfig::small();
            cfg.watchdog_cycles = 2_000;
            let plan = FaultPlan::new(11)
                .with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Always).on_class(TrafficClass::Data));
            let kernel = StreamKernel { alu_per_mem: 0, bytes_per_warp: 1 << 18, warps: 4 };
            Simulator::new(cfg, &kernel, move |p, c| {
                let mut b = PassthroughBackend::from_config(c);
                b.install_faults(plan.injector_for(p));
                b
            })
        }

        #[test]
        fn livelock_returns_stall_report() {
            let mut sim = drop_all_sim();
            let err = sim.run_checked(1_000_000).expect_err("must stall");
            let SimError::Stalled(stall) = *err else { panic!("expected stall, got {err:?}") };
            assert!(stall.cycle < 100_000, "stopped early, not at max_cycles");
            assert!(stall.stalled_for >= 2_000);
            assert!(stall.unfinished_warps > 0);
            let text = stall.to_string();
            assert!(text.contains("stalled"), "diagnostic text: {text}");
        }

        #[test]
        fn run_reports_stall_in_report() {
            let mut sim = drop_all_sim();
            let report = sim.run(1_000_000);
            assert!(report.cycles < 100_000, "watchdog truncated the run");
            let stall = report.stall.as_ref().expect("stall recorded in report");
            assert!(stall.unfinished_warps > 0);
            assert!(report.faults.total_dropped() > 0, "drops accounted");
        }

        /// The watchdog guards the warmup too: a machine that wedges
        /// there stops one window after its last progress, at the cycle
        /// a run without warmup stops at, and its report has no
        /// measured window.
        #[test]
        fn wedge_during_warmup_trips_inside_the_window() {
            let unwarmed = drop_all_sim().run(1_000_000).stall.expect("stalls");
            let mut sim = drop_all_sim();
            sim.set_telemetry(Telemetry::enabled(TelemetryConfig::default()));
            let report = sim.run_with_warmup(100_000, 1_000_000);
            let stall = report.stall.as_ref().expect("the watchdog trips inside the warmup");
            assert_eq!(stall, &unwarmed, "same stall as without a warmup");
            assert!(stall.cycle < 100_000, "stopped at {} inside the warmup", stall.cycle);
            assert_eq!(sim.now(), stall.cycle);
            assert!(report.warmup_truncated, "no measured window");
            assert_eq!(report.cycles, 0);
            let snap = sim.telemetry_snapshot().expect("telemetry enabled");
            let phases: Vec<String> = snap
                .events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::PhaseBegin { name } => Some(format!("{name} B")),
                    EventKind::PhaseEnd { name } => Some(format!("{name} E")),
                    EventKind::Stall { .. } => Some("stall".to_string()),
                    _ => None,
                })
                .collect();
            assert_eq!(phases, ["warmup B", "stall", "warmup E"]);
        }

        #[test]
        fn healthy_run_never_trips_the_watchdog() {
            let mut cfg = GpuConfig::small();
            cfg.watchdog_cycles = 2_000;
            let kernel = StreamKernel { alu_per_mem: 4, bytes_per_warp: 1 << 20, warps: 16 };
            let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
            let report = sim.run_checked(20_000).expect("no stall");
            assert!(report.stall.is_none());
            assert!(report.warp_instructions > 0);
        }
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use crate::backend::PassthroughBackend;
    use crate::kernel::StreamKernel;
    use crate::types::TrafficClass;

    /// Cross-checks the aggregated report against first principles for a
    /// pure-load streaming kernel.
    #[test]
    fn report_is_internally_consistent() {
        let cfg = GpuConfig::small();
        let kernel = StreamKernel { alu_per_mem: 0, bytes_per_warp: 1 << 20, warps: 16 };
        let mut sim = Simulator::new(cfg.clone(), &kernel, |_, c| PassthroughBackend::from_config(c));
        let report = sim.run(10_000);
        assert_eq!(report.cycles, 10_000);
        assert_eq!(report.thread_instructions, report.warp_instructions * 32);
        assert_eq!(report.warps, 16 * cfg.num_sms as u64);
        // Pure loads to fresh lines: every L1 access misses, and all DRAM
        // traffic is data reads.
        assert_eq!(report.l1.hits, 0);
        let d = report.dram;
        assert_eq!(d.total_requests(), d.class(TrafficClass::Data).reads);
        // Bytes = 32 B per (sectored) read.
        assert_eq!(d.total_bytes(), d.class(TrafficClass::Data).reads * 32);
        // Memory-bound: bandwidth near the efficiency ceiling, and the
        // report utilization never exceeds 1.
        let util = report.bandwidth_utilization(&cfg);
        assert!(util > 0.7 && util <= 1.0, "util {util}");
        assert_eq!(report.engine, crate::stats::EngineStats::default(), "baseline has no engine stats");
    }

    /// A banked channel's row-buffer counts reach the report, summed over
    /// the partitions.
    #[test]
    fn report_sums_row_buffer_counts() {
        let mut cfg = GpuConfig::small();
        cfg.dram_banks = 16;
        let kernel = StreamKernel { alu_per_mem: 0, bytes_per_warp: 1 << 20, warps: 16 };
        let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
        let report = sim.run(5_000);
        let rows = sim.partitions.iter().map(|p| p.backend().dram_stats());
        let (hits, misses) = rows.fold((0, 0), |(h, m), d| (h + d.row_hits, m + d.row_misses));
        assert!(hits + misses > 0, "the banked model counts rows");
        assert_eq!((report.dram.row_hits, report.dram.row_misses), (hits, misses));
    }
}
