//! The [`Telemetry`] handle: the single object threaded through the
//! simulation stack.
//!
//! A handle is either *disabled* (the default — one niche-optimized
//! pointer, every record call is a single branch, no allocation ever) or
//! *enabled* (an `Arc` around a mutex-guarded store, so clones handed to
//! the simulator, partitions, backends and DRAM channels all feed one
//! collection). `Arc`/`Mutex` rather than `Rc`/`RefCell` keeps the
//! simulator `Send`, which the bench crate's threaded runner requires.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::event::TelemetryEvent;
use crate::series::{RingSeries, SeriesKind};

/// Configuration for an enabled [`Telemetry`] handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Cycles between periodic samples (the simulator's sampling engine
    /// honors this; recorders may sample on their own cadence).
    pub sample_interval: u64,
    /// Maximum samples held per series before decimation halves the
    /// resolution.
    pub series_capacity: usize,
    /// Maximum buffered events; further events are counted as dropped.
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { sample_interval: 512, series_capacity: 1024, event_capacity: 4096 }
    }
}

#[derive(Debug, Default)]
struct State {
    series: BTreeMap<String, RingSeries>,
    events: Vec<TelemetryEvent>,
    dropped_events: u64,
}

#[derive(Debug)]
struct Inner {
    cfg: TelemetryConfig,
    state: Mutex<State>,
}

/// A cheaply clonable telemetry sink, disabled by default.
///
/// `size_of::<Telemetry>() == size_of::<usize>()`: the disabled case is
/// the `None` niche of an `Option<Arc>`, so threading a handle through
/// every component costs one word and a branch per record call.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: all record calls are no-ops, `snapshot` is
    /// `None`. This is `Default`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle collecting into a fresh store.
    pub fn enabled(cfg: TelemetryConfig) -> Self {
        Self { inner: Some(Arc::new(Inner { cfg, state: Mutex::new(State::default()) })) }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured sampling interval (the default interval when
    /// disabled, so callers need no special case).
    pub fn sample_interval(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or_else(|| TelemetryConfig::default().sample_interval, |i| i.cfg.sample_interval)
    }

    fn record(&self, kind: SeriesKind, name: &str, cycle: u64, value: f64) {
        let Some(inner) = &self.inner else { return };
        // Rates computed over zero-width windows (a sample falling on the
        // very first cycle, or a run shorter than one interval) arrive as
        // NaN/inf; storing them would poison decimation sums and JSON
        // export, so they are dropped at the door.
        if !value.is_finite() {
            return;
        }
        let Ok(mut state) = inner.state.lock() else { return };
        match state.series.get_mut(name) {
            Some(series) => series.push(cycle, value),
            None => {
                let mut series = RingSeries::new(kind, inner.cfg.series_capacity);
                series.push(cycle, value);
                state.series.insert(name.to_string(), series);
            }
        }
    }

    /// Records an instantaneous level (queue depth, hit rate, ...).
    pub fn record_gauge(&self, name: &str, cycle: u64, value: f64) {
        self.record(SeriesKind::Gauge, name, cycle, value);
    }

    /// Records an amount accumulated since the previous sample of `name`
    /// (bytes, requests, ...). Delta series decimate by sum, so their
    /// total always reconciles with the run aggregate.
    pub fn record_delta(&self, name: &str, cycle: u64, value: f64) {
        self.record(SeriesKind::Delta, name, cycle, value);
    }

    /// Records a structured event. Bounded: once `event_capacity` events
    /// are buffered, further events only bump the dropped counter.
    ///
    /// Call sites that *construct* an event (allocating its strings)
    /// should guard on [`Telemetry::is_enabled`] first.
    pub fn record_event(&self, event: TelemetryEvent) {
        let Some(inner) = &self.inner else { return };
        let Ok(mut state) = inner.state.lock() else { return };
        if state.events.len() < inner.cfg.event_capacity {
            state.events.push(event);
        } else {
            state.dropped_events += 1;
        }
    }

    /// Copies out everything recorded so far. `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let inner = self.inner.as_ref()?;
        let state = inner.state.lock().ok()?;
        Some(TelemetrySnapshot {
            sample_interval: inner.cfg.sample_interval,
            series: state
                .series
                .iter()
                .map(|(name, s)| {
                    (name.clone(), SeriesSnapshot { kind: s.kind(), points: s.points().to_vec() })
                })
                .collect(),
            events: state.events.clone(),
            dropped_events: state.dropped_events,
        })
    }

    /// Discards every recorded series (events kept). The simulator calls
    /// this when statistics are reset after warmup, so series totals keep
    /// reconciling with the measured-window aggregates.
    pub fn clear_series(&self) {
        if let Some(inner) = &self.inner {
            if let Ok(mut state) = inner.state.lock() {
                state.series.clear();
            }
        }
    }

    /// Discards all recorded series and events.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let Ok(mut state) = inner.state.lock() else { return };
            state.series.clear();
            state.events.clear();
            state.dropped_events = 0;
        }
    }
}

/// An exported copy of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// The merge rule the series used.
    pub kind: SeriesKind,
    /// Samples, oldest first: `(end-cycle, value)`.
    pub points: Vec<(u64, f64)>,
}

impl SeriesSnapshot {
    /// Sum of all sample values (the run total for a delta series).
    pub fn total(&self) -> f64 {
        self.points.iter().map(|(_, v)| v).sum()
    }

    /// Sample values without their cycles.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|(_, v)| *v).collect()
    }
}

/// Everything recorded by one [`Telemetry`] handle, copied out for
/// export. `BTreeMap` keeps iteration (and thus every exporter's output)
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The configured sampling interval.
    pub sample_interval: u64,
    /// All recorded series, by metric name.
    pub series: BTreeMap<String, SeriesSnapshot>,
    /// All buffered events, in record order.
    pub events: Vec<TelemetryEvent>,
    /// Events discarded because the buffer was full.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// Looks up one series.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn disabled_handle_is_pointer_sized_and_inert() {
        assert_eq!(std::mem::size_of::<Telemetry>(), std::mem::size_of::<usize>());
        let t = Telemetry::disabled();
        t.record_gauge("g", 0, 1.0);
        t.record_delta("d", 0, 1.0);
        t.record_event(TelemetryEvent { cycle: 0, kind: EventKind::Stall { detail: "s".into() } });
        assert!(t.snapshot().is_none());
        assert!(!t.is_enabled());
        assert_eq!(t.sample_interval(), TelemetryConfig::default().sample_interval);
    }

    #[test]
    fn clones_share_one_store() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        let u = t.clone();
        t.record_gauge("q", 10, 1.0);
        u.record_gauge("q", 20, 2.0);
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.series("q").expect("recorded").points.len(), 2);
    }

    #[test]
    fn event_buffer_is_bounded() {
        let cfg = TelemetryConfig { event_capacity: 2, ..TelemetryConfig::default() };
        let t = Telemetry::enabled(cfg);
        for i in 0..5 {
            t.record_event(TelemetryEvent { cycle: i, kind: EventKind::PhaseBegin { name: "p".into() } });
        }
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped_events, 3);
    }

    #[test]
    fn clear_series_keeps_events() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        t.record_delta("d", 0, 5.0);
        t.record_event(TelemetryEvent { cycle: 0, kind: EventKind::PhaseBegin { name: "warmup".into() } });
        t.clear_series();
        let snap = t.snapshot().expect("enabled");
        assert!(snap.series.is_empty());
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        // A rate over a zero-width window (0/0) and a ratio against a zero
        // denominator (1/0) — both must never reach the store.
        t.record_gauge("rate", 0, f64::NAN);
        t.record_gauge("rate", 10, f64::INFINITY);
        t.record_delta("bytes", 10, f64::NEG_INFINITY);
        t.record_gauge("rate", 20, 0.5);
        let snap = t.snapshot().expect("enabled");
        let rate = snap.series("rate").expect("finite point recorded");
        assert_eq!(rate.points, vec![(20, 0.5)]);
        assert!(snap.series("bytes").is_none());
    }

    #[test]
    fn snapshot_iterates_metrics_in_sorted_order() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        t.record_gauge("zeta", 0, 1.0);
        t.record_gauge("alpha", 0, 1.0);
        let snap = t.snapshot().expect("enabled");
        let names: Vec<String> = snap.series.keys().cloned().collect();
        assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
