//! The two simulation workloads.
//!
//! - `secure_walk`: synthetic `b+tree` and `kmeans` under the three
//!   schemes with the heaviest secure-engine work, 60k cycles each, so
//!   every cell's fingerprint is one of the 28 pinned in
//!   `BENCH_simperf.json`, read from that file.
//! - `baseline_replay`: SECMTRC traces of the four pinned benchmarks,
//!   recorded and written at set-up, replayed to completion on the plain
//!   DRAM backend.
//!
//! A pass runs every cell once, in an order drawn from the run's seed.
//! Cells advance in 1,000-cycle slices; each slice is one timed
//! operation.

use std::path::Path;

use secmem_bench::BackendChoice;
use secmem_core::{SecureMemConfig, SecurityScheme};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::stats::SimReport;
use secmem_gpusim::trace::{Trace, TraceKernel};
use secmem_gpusim::trace_bin;
use secmem_gpusim::types::TrafficClass;
use secmem_serve::json::{self, Json};
use secmem_workloads::suite;

use crate::cells::{construct, run_cell, CellPlan, CellRun, Source};
use crate::layers::{CellClock, Seams, TimingCost};
use crate::metrics::{median, num, quantile, ratio, Outcome};
use crate::SplitMix;

/// Cycles per timed operation.
pub const SLICE_CYCLES: u64 = 1_000;

/// Passes per second of `--seconds` for `secure_walk`. A run's work is
/// fixed by its arguments, sized to last about `--seconds` on a 2-vCPU
/// host, so that every run takes its best-of over the same number of
/// passes whatever the host's speed.
pub const SECURE_WALK_PASSES_PER_S: f64 = 1.4;
/// Passes per second of `--seconds` for `baseline_replay`.
pub const REPLAY_PASSES_PER_S: f64 = 2.2;

/// The cycle budget `BENCH_simperf.json` pins its fingerprints at.
pub const PINNED_CYCLES: u64 = 60_000;

/// The repository's `BENCH_simperf.json`, whose `report_fp` values (small
/// GPU, `suite::DEFAULT_SEED`, 60k cycles, no warmup, telemetry off) the
/// synthetic cells must reproduce.
const SIMPERF_JSON: &str = include_str!("../../BENCH_simperf.json");

/// The pinned fingerprint of each `(bench, scheme)` in `pairs`, read
/// from `BENCH_simperf.json`.
///
/// # Errors
///
/// A message when the file does not parse, is pinned at another cycle
/// budget, or lacks a pair.
pub fn simperf_pins(pairs: &[(&str, &str)]) -> Result<Vec<u64>, String> {
    let doc = json::parse(SIMPERF_JSON).map_err(|e| format!("BENCH_simperf.json: {e}"))?;
    let cycles = doc.get("cycles_per_run").and_then(Json::as_u64);
    if cycles != Some(PINNED_CYCLES) {
        return Err(format!("BENCH_simperf.json pins {cycles:?} cycles, not {PINNED_CYCLES}"));
    }
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("BENCH_simperf.json has no runs")?;
    pairs
        .iter()
        .map(|&(bench, scheme)| {
            runs.iter()
                .find(|r| {
                    r.get("bench").and_then(Json::as_str) == Some(bench)
                        && r.get("scheme").and_then(Json::as_str) == Some(scheme)
                })
                .and_then(|r| r.get("report_fp").and_then(Json::as_str))
                .and_then(|fp| u64::from_str_radix(fp, 16).ok())
                .ok_or_else(|| format!("BENCH_simperf.json has no report_fp for {bench}/{scheme}"))
        })
        .collect()
}

/// Instructions recorded per warp for each replay trace.
pub const REPLAY_INSTS_PER_WARP: usize = 1_500;

/// Safety cap for replays, which run to completion well before it.
pub const REPLAY_CYCLE_CAP: u64 = 5_000_000;

/// Report fingerprints of the replay cells, pinned by this benchmark
/// (small GPU, `suite::DEFAULT_SEED`, `REPLAY_INSTS_PER_WARP`,
/// passthrough backend, run to completion).
pub const REPLAY_PINNED: [(&str, u64); 4] = [
    ("nw", 0x53c4a8dc3676da47),
    ("b+tree", 0xec7105a9237246df),
    ("kmeans", 0xf83a1a2ef9fae7bb),
    ("fdtd2d", 0x9fbd61dd6c86f123),
];

/// One simulated cell of a workload.
pub struct Cell {
    /// `<bench>.<scheme>`, with `b+tree` spelled `btree`.
    pub name: String,
    /// The kernel to simulate.
    pub kernel: Box<dyn Kernel>,
    /// Where the kernel's instructions come from.
    pub source: Source,
    /// The backend to install.
    pub backend: BackendChoice,
    /// Cycle budget.
    pub cycles: u64,
    /// The fingerprint the cell must reproduce.
    pub pinned_fp: u64,
}

impl Cell {
    fn plan<'a>(&'a self, gpu: &'a GpuConfig) -> CellPlan<'a> {
        CellPlan {
            kernel: self.kernel.as_ref(),
            source: self.source,
            backend: &self.backend,
            gpu,
            warmup: 0,
            cycles: self.cycles,
            telemetry: None,
            slice: Some(SLICE_CYCLES),
        }
    }
}

/// A metric-safe cell name.
fn cell_name(bench: &str, scheme: &str) -> String {
    format!("{}.{scheme}", bench.replace('+', ""))
}

fn backend_for(scheme: SecurityScheme) -> BackendChoice {
    match scheme {
        SecurityScheme::Baseline => BackendChoice::Baseline,
        s => BackendChoice::Secure(SecureMemConfig::with_scheme(s)),
    }
}

/// The `secure_walk` cells: synthetic kernels at the pinned budget.
///
/// # Errors
///
/// A message when `BENCH_simperf.json` lacks a cell's fingerprint.
pub fn secure_walk_cells() -> Result<Vec<Cell>, String> {
    let mut pairs = Vec::new();
    for bench in ["b+tree", "kmeans"] {
        for scheme in [SecurityScheme::CtrMacBmt, SecurityScheme::DirectMac, SecurityScheme::DirectMacMt] {
            pairs.push((bench, scheme));
        }
    }
    let labels: Vec<(&str, &str)> = pairs.iter().map(|&(b, s)| (b, s.label())).collect();
    let pins = simperf_pins(&labels)?;
    pairs
        .into_iter()
        .zip(pins)
        .map(|((bench, scheme), pinned_fp)| {
            let kernel = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
            Ok(Cell {
                name: cell_name(bench, scheme.label()),
                kernel: Box::new(kernel),
                source: Source::Synthetic,
                backend: backend_for(scheme),
                cycles: PINNED_CYCLES,
                pinned_fp,
            })
        })
        .collect()
}

/// Records `bench` for [`REPLAY_INSTS_PER_WARP`] instructions per warp, writes it
/// as SECMTRC into `dir`, and loads it back as a streaming replay cell.
///
/// # Errors
///
/// A message naming the file that could not be written or loaded.
fn replay_cell(bench: &str, gpu: &GpuConfig, dir: &Path) -> Result<Cell, String> {
    let kernel = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
    let trace = Trace::record(&kernel, gpu.num_sms, REPLAY_INSTS_PER_WARP);
    let path = dir.join(format!("{}.smtrc", bench.replace('+', "")));
    trace_bin::write_file(&trace, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let loaded = TraceKernel::from_file(&path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    if !loaded.is_streamed() {
        return Err(format!("{} did not load as a streamed SECMTRC trace", path.display()));
    }
    let pinned_fp = REPLAY_PINNED.iter().find(|(b, _)| *b == bench).map_or(0, |(_, fp)| *fp);
    Ok(Cell {
        name: cell_name(bench, "replay"),
        kernel: Box::new(loaded),
        source: Source::Replay,
        backend: BackendChoice::Baseline,
        cycles: REPLAY_CYCLE_CAP,
        pinned_fp,
    })
}

/// The `baseline_replay` cells, with their trace files written under
/// `dir` (removed again once loaded).
///
/// # Errors
///
/// A message when a trace cannot be written or loaded.
pub fn baseline_replay_cells(gpu: &GpuConfig, dir: &Path) -> Result<Vec<Cell>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cells: Result<Vec<Cell>, String> =
        ["nw", "b+tree", "kmeans", "fdtd2d"].iter().map(|bench| replay_cell(bench, gpu, dir)).collect();
    let _ = std::fs::remove_dir_all(dir);
    // Removes the shared parent too, once no other run is using it.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    cells
}

/// Builds every cell's simulator once: the part of set-up that scales
/// with the engines' and kernels' constructors.
pub fn construct_all(cells: &[Cell], gpu: &GpuConfig) {
    for cell in cells {
        construct(&cell.plan(gpu));
    }
}

/// Layer totals accumulated over traced passes. Host times are kept
/// with the timing's own cost taken out, except `raw_wall_ns`.
#[derive(Debug)]
pub(crate) struct LayerTotals {
    pub(crate) passes: u64,
    cost: TimingCost,
    raw_wall_ns: u64,
    wall_ns: u64,
    cycles: u64,
    ns: Seams,
    calls: Seams,
}

/// One traced cell's corrected host times.
pub(crate) struct CellLayers {
    /// The cell's traced wall less what the timing added.
    pub(crate) wall_ns: u64,
    /// Time per seam less the timing's share.
    pub(crate) ns: Seams,
}

impl CellLayers {
    /// The wall less every seam: the simulator's own time.
    pub(crate) fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.ns.total())
    }
}

impl LayerTotals {
    /// Empty totals, with the cost of a timed call measured now.
    pub(crate) fn calibrated() -> Self {
        Self {
            passes: 0,
            cost: TimingCost::calibrate(),
            raw_wall_ns: 0,
            wall_ns: 0,
            cycles: 0,
            ns: Seams::default(),
            calls: Seams::default(),
        }
    }

    /// Adds one traced cell, checking that the time charged to its seams
    /// fits in its wall (self time ≥ 0), and returns its corrected times.
    pub(crate) fn record(
        &mut self,
        name: &str,
        clock: &CellClock,
        run: &CellRun,
        out: &mut Outcome,
    ) -> CellLayers {
        let raw_wall_ns = (run.run_s * 1e9) as u64;
        let children = clock.children_ns();
        out.check(children <= raw_wall_ns, || {
            format!("{name}: children {children} ns exceed traced wall {raw_wall_ns} ns")
        });
        let calls = clock.calls();
        let cell = CellLayers {
            wall_ns: self.cost.wall_ns(raw_wall_ns, calls.total()),
            ns: clock.corrected_ns(&self.cost),
        };
        self.raw_wall_ns += raw_wall_ns;
        self.wall_ns += cell.wall_ns;
        self.cycles += run.report.cycles;
        self.ns.add(&cell.ns);
        self.calls.add(&calls);
        cell
    }
}

/// Per-cell host times (ms) across passes, traced breakdowns included.
#[derive(Debug, Default, Clone)]
struct CellTimes {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    dram_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    next_inst_ms: Vec<f64>,
    self_ms: Vec<f64>,
}

/// Runs a simulation workload's measured phase: `passes` untraced
/// passes (half of them when `trace`, followed by a quarter as many
/// traced passes), checking every cell's fingerprint. After each
/// untraced pass it repeats the set-up once through `resetup`, so that
/// set-up samples span the whole run; returns those set-up times.
///
/// # Errors
///
/// The first set-up repetition that fails.
pub fn measure(
    cells: &[Cell],
    gpu: &GpuConfig,
    seed: u64,
    passes: usize,
    trace: bool,
    out: &mut Outcome,
    resetup: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut rng = SplitMix::new(seed);
    let mut times = vec![CellTimes::default(); cells.len()];
    let untraced_passes = if trace { passes / 2 } else { passes }.max(3);
    let mut pass_walls = Vec::new();
    // Every pass repeats identical work, so each slice's best time over
    // the passes is its cost with the least interference from the host.
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut first_reports: Vec<Option<SimReport>> = vec![None; cells.len()];
    let mut setup_times = Vec::new();
    for _ in 0..untraced_passes {
        let mut wall = 0.0;
        for i in rng.permutation(cells.len()) {
            let cell = &cells[i];
            let run = run_cell(&cell.plan(gpu), None);
            out.check(run.fp == cell.pinned_fp, || {
                format!("{}: report fp {:016x} != pinned {:016x}", cell.name, run.fp, cell.pinned_fp)
            });
            check_completion(cell, &run.report, out);
            wall += run.run_s;
            if best[i].is_empty() {
                best[i] = run.slices_ms.clone();
            }
            for (b, s) in best[i].iter_mut().zip(&run.slices_ms) {
                *b = b.min(*s);
            }
            times[i].untraced_ms.push(run.run_s * 1e3);
            if first_reports[i].is_none() {
                first_reports[i] = Some(run.report);
            }
        }
        pass_walls.push(wall);
        setup_times.push(resetup()?);
    }

    let reports: Vec<SimReport> = first_reports.into_iter().flatten().collect();
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let slices: Vec<f64> = best.concat();
    let best_pass_s = slices.iter().sum::<f64>() / 1e3;
    out.values.set("sim_cycles_per_s", ratio(cycles as f64, best_pass_s));
    out.values.set("op_p50_ms", quantile(&slices, 0.5));
    out.values.set("op_p95_ms", quantile(&slices, 0.95));
    out.values.set("ops.samples", slices.len() as f64);
    out.values.set("passes", pass_walls.len() as f64);
    out.check(slices.len() >= 200, || format!("only {} timed operations; p95 needs 200", slices.len()));
    set_sim_counts(&reports, out);
    out.detail(
        "passes",
        format!(
            "{{\"untraced\": {}, \"median_pass_s\": {}, \"best_pass_s\": {}, \"median_pass_cycles_per_s\": {}}}",
            pass_walls.len(),
            num(median(&pass_walls)),
            num(best_pass_s),
            num(ratio(cycles as f64, median(&pass_walls))),
        ),
    );

    if trace {
        let totals = traced_passes(cells, gpu, &mut rng, (passes / 4).max(2), &mut times, out);
        set_layer_values(&totals, median(&pass_walls), out);
    }

    let rows: Vec<String> = cells
        .iter()
        .zip(&times)
        .map(|(cell, t)| {
            format!(
                "{{\"cell\": \"{}\", \"fp\": \"{:016x}\", \"ms\": {}, \"traced_ms\": {}, \
                 \"core.engine.busy_ms\": {}, \"gpusim.dram.busy_ms\": {}, \"gpusim.partition.probe_ms\": {}, \
                 \"next_inst_ms\": {}, \"gpusim.sim.self_ms\": {}}}",
                cell.name,
                cell.pinned_fp,
                num(median(&t.untraced_ms)),
                num(median(&t.traced_ms)),
                num(median(&t.engine_ms)),
                num(median(&t.dram_ms)),
                num(median(&t.probe_ms)),
                num(median(&t.next_inst_ms)),
                num(median(&t.self_ms)),
            )
        })
        .collect();
    out.detail("cells", format!("[{}]", rows.join(", ")));
    Ok(setup_times)
}

/// A replay must retire its whole trace; a synthetic cell must use its
/// whole budget. Either way the watchdog must stay quiet.
fn check_completion(cell: &Cell, report: &SimReport, out: &mut Outcome) {
    let complete = match cell.source {
        Source::Synthetic => report.cycles == cell.cycles,
        Source::Replay => report.cycles < cell.cycles,
    };
    out.check(complete && report.stall.is_none(), || {
        format!("{}: ran {} of {} cycles, stall {:?}", cell.name, report.cycles, cell.cycles, report.stall)
    });
}

fn traced_passes(
    cells: &[Cell],
    gpu: &GpuConfig,
    rng: &mut SplitMix,
    passes: usize,
    times: &mut [CellTimes],
    out: &mut Outcome,
) -> LayerTotals {
    let mut totals = LayerTotals::calibrated();
    for _ in 0..passes {
        for i in rng.permutation(cells.len()) {
            let cell = &cells[i];
            let clock = CellClock::default();
            let run = run_cell(&cell.plan(gpu), Some(&clock));
            out.check(run.fp == cell.pinned_fp, || {
                format!("{}: traced fp {:016x} != untraced {:016x}", cell.name, run.fp, cell.pinned_fp)
            });
            let layers = totals.record(&cell.name, &clock, &run, out);
            let ms = |ns: u64| ns as f64 / 1e6;
            let t = &mut times[i];
            t.traced_ms.push(run.run_s * 1e3);
            t.engine_ms.push(ms(layers.ns.secure));
            t.dram_ms.push(ms(layers.ns.passthrough));
            t.probe_ms.push(ms(layers.ns.probe));
            t.next_inst_ms.push(ms(layers.ns.synthetic + layers.ns.replay));
            t.self_ms.push(ms(layers.self_ns()));
        }
        totals.passes += 1;
    }
    totals
}

/// Sets the per-pass layer metrics from the traced totals `t`;
/// `untraced_pass_s` is the median untraced pass wall the tracing
/// overhead is measured against.
///
/// Host times and shares are corrected: each seam less its calls times
/// the timing's in-span cost, the wall less all calls times the full
/// per-call cost. `traced_wall_ms` and `trace_overhead_frac` are the
/// uncorrected traced wall; the detail line also gives the corrected
/// wall's overhead, which is near 0 when the correction is right.
pub(crate) fn set_layer_values(t: &LayerTotals, untraced_pass_s: f64, out: &mut Outcome) {
    let passes = t.passes.max(1) as f64;
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / passes;
    let per_pass = |calls: u64| calls as f64 / passes;
    let overhead = |wall_ns: u64| ratio(wall_ns as f64 / passes / 1e9, untraced_pass_s) - 1.0;
    let (ns, calls) = (&t.ns, &t.calls);
    let wall = t.wall_ns as f64;
    let busy = (ns.secure + ns.passthrough, calls.secure + calls.passthrough);
    let next_inst = (ns.synthetic + ns.replay, calls.synthetic + calls.replay);
    let children = ns.total();
    let self_ns = t.wall_ns.saturating_sub(children);
    let v = &mut out.values;
    v.set("traced_wall_ms", per_pass_ms(t.raw_wall_ns));
    v.set("trace_overhead_frac", overhead(t.raw_wall_ns));
    v.set("backend.busy_ms", per_pass_ms(busy.0));
    v.set("backend.calls", per_pass(busy.1));
    v.set("backend.ns_per_call", ratio(busy.0 as f64, busy.1 as f64));
    v.set("backend.probe_ms", per_pass_ms(ns.probe));
    v.set("backend.probe_calls", per_pass(calls.probe));
    v.set("kernel.next_inst_ms", per_pass_ms(next_inst.0));
    v.set("kernel.next_inst_calls", per_pass(next_inst.1));
    v.set("gpusim.sim.self_ms", per_pass_ms(self_ns));
    v.set("gpusim.sim.self_ns_per_cycle", ratio(self_ns as f64, t.cycles as f64));
    v.set("gpusim.sim.children_frac", ratio(children as f64, wall));
    v.set("core.engine.busy_frac", ratio(ns.secure as f64, wall));
    v.set("core.engine.calls", per_pass(calls.secure));
    v.set("gpusim.dram.busy_frac", ratio(ns.passthrough as f64, wall));
    v.set("gpusim.dram.calls", per_pass(calls.passthrough));
    v.set("workloads.next_inst_calls", per_pass(calls.synthetic));
    v.set("gpusim.trace_bin.next_inst_calls", per_pass(calls.replay));
    out.detail(
        "layers_ms_per_pass",
        format!(
            "{{\"core.engine.busy_ms\": {}, \"gpusim.dram.busy_ms\": {}, \"gpusim.partition.probe_ms\": {}, \
             \"workloads.next_inst_ms\": {}, \"gpusim.trace_bin.next_inst_ms\": {}, \"gpusim.sim.self_ms\": {}, \
             \"corrected_wall_ms\": {}, \"traced_wall_ms\": {}, \"traced_passes\": {}, \
             \"timing_in_span_ns\": {}, \"timing_per_call_ns\": {}, \"corrected_overhead_frac\": {}}}",
            num(per_pass_ms(ns.secure)),
            num(per_pass_ms(ns.passthrough)),
            num(per_pass_ms(ns.probe)),
            num(per_pass_ms(ns.synthetic)),
            num(per_pass_ms(ns.replay)),
            num(per_pass_ms(self_ns)),
            num(per_pass_ms(t.wall_ns)),
            num(per_pass_ms(t.raw_wall_ns)),
            t.passes,
            num(t.cost.in_span_ns),
            num(t.cost.per_call_ns),
            num(overhead(t.wall_ns)),
        ),
    );
}

/// Simulated counts summed over one pass's reports. A change that only
/// speeds the simulator up must leave every one of these identical.
pub fn set_sim_counts(reports: &[SimReport], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let rate = |hits: f64, misses: f64| ratio(hits, hits + misses);
    let class_bytes = |c: TrafficClass| {
        sum(&|r: &SimReport| {
            let s = r.dram.class(c);
            s.bytes_read + s.bytes_written
        })
    };
    let mdc = |i: usize| {
        rate(
            sum(&|r: &SimReport| r.engine.meta[i].cache.hits),
            sum(&|r: &SimReport| r.engine.meta[i].cache.misses),
        )
    };
    let v = &mut out.values;
    v.set("gpusim.sim.cycles", sum(&|r| r.cycles));
    v.set("gpusim.sm.warp_insts", sum(&|r| r.warp_instructions));
    v.set("gpusim.sm.mem_stall_cycles", sum(&|r| r.mem_stall_cycles));
    v.set("gpusim.l1.hit_rate", rate(sum(&|r| r.l1.hits), sum(&|r| r.l1.misses)));
    v.set("gpusim.l2.hit_rate", rate(sum(&|r| r.l2.hits), sum(&|r| r.l2.misses)));
    v.set("gpusim.dram.bytes_data", class_bytes(TrafficClass::Data));
    v.set("gpusim.dram.bytes_ctr", class_bytes(TrafficClass::Counter));
    v.set("gpusim.dram.bytes_mac", class_bytes(TrafficClass::Mac));
    v.set("gpusim.dram.bytes_tree", class_bytes(TrafficClass::Tree));
    v.set("core.mdcache.hit_rate_ctr", mdc(0));
    v.set("core.mdcache.hit_rate_mac", mdc(1));
    v.set("core.mdcache.hit_rate_tree", mdc(2));
    v.set("core.engine.tree_verifications", sum(&|r| r.engine.tree_verifications));
    v.set("core.engine.aes_stall_cycles", sum(&|r| r.engine.aes_stall_cycles));
}
