//! End-to-end telemetry tests through the umbrella crate: the sampled
//! time series must reconcile with the end-of-run report, enabling
//! telemetry must not change simulation results, and the Chrome-trace
//! export must be valid JSON.

use gpu_secure_memory::core::{SecureBackend, SecureMemConfig};
use gpu_secure_memory::gpusim::config::GpuConfig;
use gpu_secure_memory::gpusim::sim::Simulator;
use gpu_secure_memory::gpusim::stats::SimReport;
use gpu_secure_memory::gpusim::types::TrafficClass;
use gpu_secure_memory::telemetry::json::{self, Json};
use gpu_secure_memory::telemetry::{chrome, Telemetry, TelemetryConfig, TelemetrySnapshot};
use gpu_secure_memory::workloads::suite;

const CYCLES: u64 = 12_000;

fn secure_sim() -> Simulator<SecureBackend> {
    let kernel = suite::by_name("srad_v2").expect("in the suite");
    Simulator::new(GpuConfig::small(), &kernel, |_, g| SecureBackend::new(SecureMemConfig::secure_mem(), g))
}

fn run_with_telemetry(interval: u64) -> (SimReport, TelemetrySnapshot) {
    let mut sim = secure_sim();
    sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
        sample_interval: interval,
        ..TelemetryConfig::default()
    }));
    let report = sim.run(CYCLES);
    let snap = sim.telemetry_snapshot().expect("telemetry enabled");
    (report, snap)
}

#[test]
fn metadata_bandwidth_series_reconcile_with_report() {
    let (report, snap) = run_with_telemetry(128);
    for (name, class) in [
        ("dram.data_bytes", TrafficClass::Data),
        ("dram.ctr_bytes", TrafficClass::Counter),
        ("dram.mac_bytes", TrafficClass::Mac),
        ("dram.bmt_bytes", TrafficClass::Tree),
    ] {
        let series = snap.series(name).unwrap_or_else(|| panic!("{name} sampled"));
        let c = report.dram.class(class);
        let aggregate = (c.bytes_read + c.bytes_written) as f64;
        assert!(
            (series.total() - aggregate).abs() < 1e-6,
            "{name}: sampled {} vs aggregate {aggregate}",
            series.total()
        );
        assert!(aggregate > 0.0, "{name}: secure run moves {class:?} traffic");
    }
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let mut plain = secure_sim();
    let plain_report = plain.run(CYCLES);

    let mut disabled = secure_sim();
    disabled.set_telemetry(Telemetry::disabled());
    let disabled_report = disabled.run(CYCLES);

    let (enabled_report, _) = run_with_telemetry(64);

    assert_eq!(plain_report.cycles, disabled_report.cycles);
    assert_eq!(plain_report.warp_instructions, disabled_report.warp_instructions);
    assert_eq!(plain_report.dram, disabled_report.dram);

    // Observation must not perturb timing either.
    assert_eq!(plain_report.cycles, enabled_report.cycles);
    assert_eq!(plain_report.warp_instructions, enabled_report.warp_instructions);
    assert_eq!(plain_report.dram, enabled_report.dram);
}

#[test]
fn chrome_trace_is_valid_and_nonempty() {
    let (_, snap) = run_with_telemetry(128);
    let trace = chrome::chrome_trace(&snap);
    let doc = json::parse(&trace).expect("emitted trace parses as JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    // One counter event per sampled point, one record per snapshot event.
    let points: usize = snap.series.values().map(|s| s.points.len()).sum();
    assert!(points > 0, "counter events present");
    assert_eq!(events.len(), points + snap.events.len());
    let counters = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).count();
    assert_eq!(counters, points, "every ph=C record is a sampled point");
    assert!(events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("dram.data_bytes")));
}

#[test]
fn report_carries_sparkline_summary_only_when_enabled() {
    let (report, _) = run_with_telemetry(128);
    let summary = report.telemetry_summary.expect("summary attached");
    assert!(summary.contains("dram.data_bytes"));

    let mut plain = secure_sim();
    let plain_report = plain.run(CYCLES);
    assert!(plain_report.telemetry_summary.is_none());
}
