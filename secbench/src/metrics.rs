//! The benchmark's vocabulary: workloads, metrics, their units and
//! bounds, plus the small statistics and JSON helpers every workload
//! shares.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`secbench --manifest`), and a test keeps the committed file equal to
//! the rendering, so the names below are the single source of truth.

use std::fmt::Write as _;

/// One named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what the workload isolates.
    pub why: &'static str,
}

/// Every workload, in the order the manifest lists them.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "secure_walk",
        why: "b+tree and kmeans under ctr_mac_bmt, direct_mac and direct_mac_mt: the secure engine \
              (counters, MACs, BMT/MT walks) does most of the host work",
    },
    WorkloadDef {
        name: "baseline_replay",
        why: "SECMTRC replays of nw, b+tree, kmeans and fdtd2d on the plain DRAM backend: the core \
              pipeline, idle-skip probes and trace cursors, with no secure engine",
    },
    WorkloadDef {
        name: "sweep_service",
        why: "the pinned 4x7 sweep through an in-process secmem-serve, cold, then resubmitted as cache \
              hits: HTTP, result cache, job pool, warmup and telemetry sampling",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction, plus the regression bound for
/// end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// Metrics printed by an untraced run (`--trace 0`), on every workload.
///
/// On a shared 2-vCPU host, within a set of ten runs `sim_cycles_per_s`
/// spread (quartile distance over median) by at most 5.4% on
/// `secure_walk`, 9.9% on `baseline_replay` and 7.6% on `sweep_service`.
/// The slowest set's median was 12%, 2% and 20% below the fastest's
/// (README.md lists each set), so every bound is 0.25. The operation-time
/// percentiles are per-layer metrics: between two sets of runs,
/// `sweep_service`'s cached p50 moved by 35% and `secure_walk`'s p95 by
/// 34%, beyond any bound the benchmark may set.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("sim_cycles_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Metrics printed by a traced run (`--trace 1`), on every workload. A
/// layer a workload does not reach reads 0; host times are only given
/// for seams every workload crosses, and the split between backend kinds
/// is given as shares and counts.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("op_p50_ms", "ms", Better::Lower),
    layer("op_p95_ms", "ms", Better::Lower),
    layer("traced_wall_ms", "ms", Better::Lower),
    layer("trace_overhead_frac", "frac", Better::Lower),
    layer("backend.busy_ms", "ms", Better::Lower),
    layer("backend.calls", "count", Better::Lower),
    layer("backend.ns_per_call", "ns", Better::Lower),
    layer("backend.probe_ms", "ms", Better::Lower),
    layer("backend.probe_calls", "count", Better::Lower),
    layer("kernel.next_inst_ms", "ms", Better::Lower),
    layer("kernel.next_inst_calls", "count", Better::Lower),
    layer("gpusim.sim.self_ms", "ms", Better::Lower),
    layer("gpusim.sim.self_ns_per_cycle", "ns", Better::Lower),
    layer("gpusim.sim.children_frac", "frac", Better::Lower),
    layer("core.engine.busy_frac", "frac", Better::Lower),
    layer("core.engine.calls", "count", Better::Lower),
    layer("gpusim.dram.busy_frac", "frac", Better::Lower),
    layer("gpusim.dram.calls", "count", Better::Lower),
    layer("workloads.next_inst_calls", "count", Better::Lower),
    layer("gpusim.trace_bin.next_inst_calls", "count", Better::Lower),
    layer("gpusim.sim.cycles", "count", Better::Lower),
    layer("gpusim.sm.warp_insts", "count", Better::Higher),
    layer("gpusim.sm.mem_stall_cycles", "count", Better::Lower),
    layer("gpusim.l1.hit_rate", "frac", Better::Higher),
    layer("gpusim.l2.hit_rate", "frac", Better::Higher),
    layer("gpusim.dram.bytes_data", "bytes", Better::Lower),
    layer("gpusim.dram.bytes_ctr", "bytes", Better::Lower),
    layer("gpusim.dram.bytes_mac", "bytes", Better::Lower),
    layer("gpusim.dram.bytes_tree", "bytes", Better::Lower),
    layer("core.mdcache.hit_rate_ctr", "frac", Better::Higher),
    layer("core.mdcache.hit_rate_mac", "frac", Better::Higher),
    layer("core.mdcache.hit_rate_tree", "frac", Better::Higher),
    layer("core.engine.tree_verifications", "count", Better::Lower),
    layer("core.engine.aes_stall_cycles", "count", Better::Lower),
    layer("serve.post_share", "frac", Better::Lower),
    layer("serve.first_event_share", "frac", Better::Lower),
    layer("serve.stream_share", "frac", Better::Lower),
    layer("serve.results_share", "frac", Better::Lower),
    layer("serve.overhead_frac", "frac", Better::Lower),
    layer("serve.cache.hits", "count", Better::Higher),
    layer("serve.cache.misses", "count", Better::Lower),
    layer("serve.cache.coalesced", "count", Better::Higher),
    layer("serve.cache.evictions", "count", Better::Lower),
    layer("serve.cache.hit_ratio", "frac", Better::Higher),
    layer("serve.simulations", "count", Better::Lower),
    layer("serve.cached_requests", "count", Better::Higher),
    layer("ops.samples", "count", Better::Higher),
    layer("passes", "count", Better::Higher),
    layer("failed_frac", "frac", Better::Lower),
];

/// How long one run measures, in seconds (the manifest's
/// `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// True when `name` is a legal workload or metric name: it starts with
/// a letter or digit and has at most 64 letters, digits, `_`, `.` and
/// `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a legal unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \"--manifest-path\", \
         \"secbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"secbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Named metric values collected by one run.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name` (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one run reports: its operation counts and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (cells, requests, checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Every metric the run measured.
    pub values: Values,
    /// Extra detail (host facts, per-cell rows) rendered as JSON
    /// members, printed on the line before the result.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Records one checked operation; `ok == false` counts a failure and
    /// logs `what` to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[secbench] FAILED: {}", what());
        }
    }

    /// Adds a detail member whose value is already JSON.
    pub fn detail(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.detail.push((key.into(), json_value.into()));
    }

    /// The final result line for the given metric set. Metrics the run
    /// did not set read 0.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in defs.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let value = self.values.get(m.name).unwrap_or(0.0);
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(value), m.unit);
        }
        out.push_str("}}");
        out
    }

    /// The detail line: a JSON object of the detail members.
    pub fn detail_line(&self) -> String {
        let members: Vec<String> = self.detail.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{\"secbench_detail\": {{{}}}}}", members.join(", "))
    }
}

/// A JSON number with all its digits (non-finite values read 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(0.1234567891), "0.1234567891");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "0.0");
    }
}
