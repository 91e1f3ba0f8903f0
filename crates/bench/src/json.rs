//! Minimal JSON serialization of simulation reports (hand-rolled: the
//! structure is flat and stable, and it keeps the dependency set to the
//! approved minimum).

use std::fmt::Write as _;

use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::stats::SimReport;
use secmem_gpusim::types::TrafficClass;

fn field(out: &mut String, key: &str, value: impl core::fmt::Display, comma: bool) {
    let _ = write!(out, "\"{key}\":{value}");
    if comma {
        out.push(',');
    }
}

/// Serializes a [`SimReport`] to a single JSON object.
///
/// All keys are stable; floating-point values are emitted with enough
/// precision to round-trip.
pub fn report_to_json(report: &SimReport, cfg: &GpuConfig) -> String {
    let mut out = String::from("{");
    field(&mut out, "cycles", report.cycles, true);
    field(&mut out, "warp_instructions", report.warp_instructions, true);
    field(&mut out, "thread_instructions", report.thread_instructions, true);
    field(&mut out, "ipc", format!("{:.6}", report.ipc()), true);
    field(&mut out, "bandwidth_utilization", format!("{:.6}", report.bandwidth_utilization(cfg)), true);
    field(&mut out, "warps", report.warps, true);
    field(&mut out, "mem_stall_cycles", report.mem_stall_cycles, true);

    out.push_str("\"l1\":{");
    field(&mut out, "hits", report.l1.hits, true);
    field(&mut out, "misses", report.l1.misses, true);
    field(&mut out, "miss_rate", format!("{:.6}", report.l1.miss_rate()), false);
    out.push_str("},");
    out.push_str("\"l2\":{");
    field(&mut out, "hits", report.l2.hits, true);
    field(&mut out, "misses", report.l2.misses, true);
    field(&mut out, "miss_rate", format!("{:.6}", report.l2.miss_rate()), true);
    field(&mut out, "mshr_secondary_ratio", format!("{:.6}", report.l2_mshr.secondary_ratio()), false);
    out.push_str("},");

    out.push_str("\"dram\":{");
    for class in TrafficClass::ALL {
        let c = report.dram.class(class);
        let _ = write!(
            out,
            "\"{}\":{{\"reads\":{},\"writes\":{},\"bytes_read\":{},\"bytes_written\":{}}},",
            class.label(),
            c.reads,
            c.writes,
            c.bytes_read,
            c.bytes_written
        );
    }
    field(&mut out, "total_requests", report.dram.total_requests(), true);
    field(&mut out, "total_bytes", report.dram.total_bytes(), false);
    out.push_str("},");

    out.push_str("\"engine\":{");
    for (i, name) in ["ctr", "mac", "tree"].iter().enumerate() {
        let m = &report.engine.meta[i];
        let _ = write!(
            out,
            "\"{name}\":{{\"accesses\":{},\"misses\":{},\"miss_rate\":{:.6},\"secondary_ratio\":{:.6},\"writebacks\":{}}},",
            m.cache.accesses(),
            m.cache.misses,
            m.cache.miss_rate(),
            m.mshr.secondary_ratio(),
            m.writebacks
        );
    }
    field(&mut out, "aes_blocks", report.engine.aes_blocks, true);
    field(&mut out, "aes_stall_cycles", report.engine.aes_stall_cycles, true);
    field(&mut out, "tree_verifications", report.engine.tree_verifications, true);
    field(&mut out, "decrypt_waited_on_counter", report.engine.decrypt_waited_on_counter, false);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmem_telemetry::json::{parse, Json};

    fn sample() -> SimReport {
        let mut r = SimReport { cycles: 1000, thread_instructions: 32_000, ..SimReport::default() };
        r.warp_instructions = 1000;
        r.l2.hits = 10;
        r.l2.misses = 30;
        r.dram.per_class[0].reads = 42;
        r.engine.meta[1].writebacks = 7;
        r
    }

    #[test]
    fn serializes_expected_fields() {
        let doc = parse(&report_to_json(&sample(), &GpuConfig::volta())).expect("report is valid JSON");
        let at = |path: &[&str]| path.iter().try_fold(&doc, |v, key| v.get(key)).and_then(Json::as_u64);
        assert_eq!(at(&["cycles"]), Some(1000));
        assert_eq!(at(&["ipc"]), Some(32));
        assert_eq!(at(&["dram", "data", "reads"]), Some(42));
        assert_eq!(at(&["engine", "mac", "accesses"]), Some(0));
        assert_eq!(at(&["engine", "mac", "writebacks"]), Some(7));
    }

    #[test]
    fn default_report_serializes() {
        let doc = parse(&report_to_json(&SimReport::default(), &GpuConfig::small())).expect("valid JSON");
        assert_eq!(doc.get("ipc").and_then(Json::as_u64), Some(0));
    }
}
