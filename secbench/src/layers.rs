//! Timed wrappers around the simulator's public seams.
//!
//! The benchmark measures each layer from outside the program: a
//! [`TimedBackend`] wraps any [`MemoryBackend`] and a [`TimedKernel`]
//! wraps any [`Kernel`], forwarding every call and adding its host time
//! to a shared [`Span`]. Nothing inside the simulator changes, so a
//! traced run must produce the same report fingerprint as an untraced
//! one; the benchmark checks that on every traced cell.
//!
//! Each timed call costs two `Instant::now` reads and two atomic adds,
//! so traced runs are slower than untraced ones and end-to-end metrics
//! come from untraced runs only. Cheap predicates (`can_accept_*`,
//! `is_idle`) are forwarded untimed, and [`TimingCost`] measures what a
//! timed call adds so that the reported layer times leave it out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use secmem_checkpoint::{CheckpointError, Reader, Writer};
use secmem_gpusim::backend::MemoryBackend;
use secmem_gpusim::dram::DramStats;
use secmem_gpusim::fault::{FaultEvent, FaultStats};
use secmem_gpusim::kernel::{Kernel, StateError, WarpProgram};
use secmem_gpusim::stats::EngineStats;
use secmem_gpusim::types::{BackendReq, Cycle, Inst};
use secmem_telemetry::Telemetry;

/// Host time and call count accumulated at one seam.
///
/// The counters are statistics that publish no other data, so relaxed
/// atomics suffice; they are atomics only because backends and warp
/// programs must be `Send`.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Total nanoseconds spent inside the seam.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Number of calls that crossed the seam.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Runs `f`, charging its host time to this span.
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// The spans one traced cell charges.
#[derive(Debug, Default)]
pub struct CellClock {
    /// Data-path calls into a `core::SecureBackend` (engine + its DRAM).
    pub secure: Arc<Span>,
    /// Data-path calls into a `gpusim::backend::PassthroughBackend`.
    pub passthrough: Arc<Span>,
    /// Idle-skip probes into either backend (`next_event_cycle`).
    pub probe: Arc<Span>,
    /// `next_inst` calls into synthetic (`workloads`) warp programs.
    pub synthetic: Arc<Span>,
    /// `next_inst` calls into SECMTRC trace cursors.
    pub replay: Arc<Span>,
}

impl CellClock {
    /// Host nanoseconds charged below the simulator's own loop, timing
    /// cost included.
    pub fn children_ns(&self) -> u64 {
        self.secure.ns() + self.passthrough.ns() + self.probe.ns() + self.synthetic.ns() + self.replay.ns()
    }

    /// Calls per seam.
    pub fn calls(&self) -> Seams {
        Seams {
            secure: self.secure.calls(),
            passthrough: self.passthrough.calls(),
            probe: self.probe.calls(),
            synthetic: self.synthetic.calls(),
            replay: self.replay.calls(),
        }
    }

    /// Host nanoseconds per seam with the timing's own share taken out.
    pub fn corrected_ns(&self, cost: &TimingCost) -> Seams {
        let ns = |span: &Span| cost.span_ns(span.ns(), span.calls());
        Seams {
            secure: ns(&self.secure),
            passthrough: ns(&self.passthrough),
            probe: ns(&self.probe),
            synthetic: ns(&self.synthetic),
            replay: ns(&self.replay),
        }
    }
}

/// One number per seam of a [`CellClock`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Seams {
    /// `core::SecureBackend` data path.
    pub secure: u64,
    /// `PassthroughBackend` data path.
    pub passthrough: u64,
    /// Idle-skip probes.
    pub probe: u64,
    /// Synthetic `next_inst`.
    pub synthetic: u64,
    /// Trace-cursor `next_inst`.
    pub replay: u64,
}

impl Seams {
    /// The sum over all seams.
    pub fn total(&self) -> u64 {
        self.secure + self.passthrough + self.probe + self.synthetic + self.replay
    }

    /// Adds `other` seam by seam.
    pub fn add(&mut self, other: &Seams) {
        self.secure += other.secure;
        self.passthrough += other.passthrough;
        self.probe += other.probe;
        self.synthetic += other.synthetic;
        self.replay += other.replay;
    }
}

/// What one timed call adds on top of the call it wraps, measured by
/// timing empty calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingCost {
    /// Nanoseconds a timed call charges to its span beyond the wrapped
    /// work: the part of the clock reads between the two timestamps.
    pub in_span_ns: f64,
    /// Nanoseconds a timed call adds to the wall around it: both clock
    /// reads and the atomic adds.
    pub per_call_ns: f64,
}

/// Empty timed calls per calibration round.
const CALIBRATION_CALLS: u32 = 20_000;
/// Calibration rounds; each figure is the least over the rounds.
const CALIBRATION_ROUNDS: u32 = 15;

impl TimingCost {
    /// Times [`CALIBRATION_ROUNDS`] rounds of empty timed calls and keeps
    /// the least cost per call seen. The least is the cost with no
    /// interference from the host, so the correction does not remove more
    /// than the timing itself costs.
    pub fn calibrate() -> Self {
        let mut cost = Self { in_span_ns: f64::INFINITY, per_call_ns: f64::INFINITY };
        for _ in 0..CALIBRATION_ROUNDS {
            let span = Span::default();
            let start = Instant::now();
            for _ in 0..CALIBRATION_CALLS {
                span.time(|| std::hint::black_box(()));
            }
            let calls = f64::from(CALIBRATION_CALLS);
            cost.per_call_ns = cost.per_call_ns.min(start.elapsed().as_nanos() as f64 / calls);
            cost.in_span_ns = cost.in_span_ns.min(span.ns() as f64 / calls);
        }
        cost
    }

    /// `ns` charged to a span over `calls` calls, less the timing's share.
    pub fn span_ns(&self, ns: u64, calls: u64) -> u64 {
        ns.saturating_sub((calls as f64 * self.in_span_ns) as u64)
    }

    /// A traced wall of `ns` around `calls` timed calls, less what the
    /// timing added to it.
    pub fn wall_ns(&self, ns: u64, calls: u64) -> u64 {
        ns.saturating_sub((calls as f64 * self.per_call_ns) as u64)
    }
}

/// A memory backend whose data-path and probe calls are timed.
///
/// Timed: `submit_*`, `cycle` and `pop_read_response` (data path) and
/// `next_event_cycle` (idle-skip probe). The `can_accept_*` and
/// `is_idle` predicates, statistics getters, telemetry attachment and
/// checkpoint calls are forwarded untimed: the predicates cost about as
/// much as the clock reads would, and all of these stay in the
/// simulator's self time.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    data: Arc<Span>,
    probe: Arc<Span>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`, charging data-path calls to `data` and idle-skip
    /// probes to `probe`.
    pub fn new(inner: B, data: Arc<Span>, probe: Arc<Span>) -> Self {
        Self { inner, data, probe }
    }
}

impl<B: MemoryBackend> MemoryBackend for TimedBackend<B> {
    fn can_accept_read(&self) -> bool {
        self.inner.can_accept_read()
    }
    fn can_accept_write(&self) -> bool {
        self.inner.can_accept_write()
    }
    fn submit_read(&mut self, now: Cycle, req: BackendReq) {
        let Self { inner, data, .. } = self;
        data.time(|| inner.submit_read(now, req));
    }
    fn submit_write(&mut self, now: Cycle, req: BackendReq) {
        let Self { inner, data, .. } = self;
        data.time(|| inner.submit_write(now, req));
    }
    fn cycle(&mut self, now: Cycle) {
        let Self { inner, data, .. } = self;
        data.time(|| inner.cycle(now));
    }
    fn pop_read_response(&mut self) -> Option<BackendReq> {
        let Self { inner, data, .. } = self;
        data.time(|| inner.pop_read_response())
    }
    fn dram_stats(&self) -> &DramStats {
        self.inner.dram_stats()
    }
    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn fault_events(&self) -> &[FaultEvent] {
        self.inner.fault_events()
    }
    fn pending_work(&self) -> usize {
        self.inner.pending_work()
    }
    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        self.probe.time(|| self.inner.next_event_cycle(now))
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn set_telemetry(&mut self, telemetry: Telemetry, partition: u32) {
        self.inner.set_telemetry(telemetry, partition);
    }
    fn meta_mshr_occupancy(&self) -> usize {
        self.inner.meta_mshr_occupancy()
    }
    fn save_state(&self, w: &mut Writer) {
        self.inner.save_state(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.inner.restore_state(r)
    }
}

/// A kernel whose warp programs time every `next_inst` call.
pub struct TimedKernel<'a> {
    inner: &'a dyn Kernel,
    span: Arc<Span>,
}

impl<'a> TimedKernel<'a> {
    /// Wraps `inner`, charging instruction generation to `span`.
    pub fn new(inner: &'a dyn Kernel, span: Arc<Span>) -> Self {
        Self { inner, span }
    }
}

impl Kernel for TimedKernel<'_> {
    fn active_sms(&self, available_sms: u32) -> u32 {
        self.inner.active_sms(available_sms)
    }
    fn warps_per_sm(&self, sm: u32) -> u32 {
        self.inner.warps_per_sm(sm)
    }
    fn spawn(&self, sm: u32, warp: u32) -> Box<dyn WarpProgram + Send> {
        Box::new(TimedProgram { inner: self.inner.spawn(sm, warp), span: self.span.clone() })
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TimedProgram {
    inner: Box<dyn WarpProgram + Send>,
    span: Arc<Span>,
}

impl WarpProgram for TimedProgram {
    fn next_inst(&mut self) -> Inst {
        let Self { inner, span } = self;
        span.time(|| inner.next_inst())
    }
    fn save_state(&self, out: &mut Vec<u64>) {
        self.inner.save_state(out);
    }
    fn restore_state(&mut self, state: &[u64]) -> Result<(), StateError> {
        self.inner.restore_state(state)
    }
}
