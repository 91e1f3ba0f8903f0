//! Terminal sparklines: a compact per-metric summary appended to the
//! simulation report.
//!
//! Each series renders to one line — name, a unicode sparkline of its
//! shape, and min/mean/max (gauges) or total (deltas). Per-partition
//! series (names starting with `part`) are skipped: with 32 partitions
//! they would drown the summary, and their aggregate twins carry the
//! story.

use crate::series::SeriesKind;
use crate::sink::TelemetrySnapshot;

const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maximum glyphs per line; longer series are bucketed down.
pub const WIDTH: usize = 40;

/// Renders `values` as a sparkline string, downsampling to at most
/// [`WIDTH`] glyphs by averaging buckets. Empty input renders empty.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let bucketed = bucket(values, WIDTH);
    let (min, max) =
        bucketed.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    let span = max - min;
    bucketed
        .iter()
        .map(|v| {
            let idx = if span > 0.0 {
                (((v - min) / span) * (GLYPHS.len() - 1) as f64).round() as usize
            } else {
                0
            };
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

fn bucket(values: &[f64], width: usize) -> Vec<f64> {
    if values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|i| {
            let lo = i * values.len() / width;
            let hi = (((i + 1) * values.len()) / width).max(lo + 1);
            let slice = &values[lo..hi];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect()
}

/// Renders the whole snapshot as a multi-line terminal summary.
///
/// One line per non-`part`-prefixed series; a trailing line counts
/// events (and drops, if any). Returns the empty string for an empty
/// snapshot so callers can append it unconditionally.
pub fn summary(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, series) in &snap.series {
        if name.starts_with("part") || series.points.is_empty() {
            continue;
        }
        let values = series.values();
        let line = sparkline(&values);
        let stat = match series.kind {
            SeriesKind::Delta => format!("total {}", human(series.total())),
            SeriesKind::Gauge => {
                let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                format!("min {} mean {} max {}", human(min), human(mean), human(max))
            }
        };
        out.push_str(&format!("{name:<22} {line}  {stat}\n"));
    }
    if !snap.events.is_empty() || snap.dropped_events > 0 {
        out.push_str(&format!("events: {} recorded", snap.events.len()));
        if snap.dropped_events > 0 {
            out.push_str(&format!(", {} dropped", snap.dropped_events));
        }
        out.push('\n');
    }
    out
}

/// Formats a value with a metric suffix (`12.3k`, `4.56M`) so sparkline
/// stat columns stay narrow.
fn human(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if (v.fract()).abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Telemetry, TelemetryConfig};

    #[test]
    fn sparkline_spans_glyph_range() {
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(line.chars().count(), 8);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn sparkline_flat_and_empty() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert!(flat.chars().all(|c| c == '▁'), "flat series renders lowest glyph");
    }

    #[test]
    fn long_series_bucketed_to_width() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(sparkline(&values).chars().count(), WIDTH);
    }

    #[test]
    fn summary_skips_per_partition_series() {
        let t = Telemetry::enabled(TelemetryConfig::default());
        t.record_gauge("l2.hit_rate", 0, 0.5);
        t.record_gauge("part3.input_q", 0, 4.0);
        let s = summary(&t.snapshot().expect("enabled"));
        assert!(s.contains("l2.hit_rate"));
        assert!(!s.contains("part3"), "per-partition series excluded:\n{s}");
    }

    #[test]
    fn summary_counts_dropped_events() {
        let cfg = TelemetryConfig { event_capacity: 1, ..TelemetryConfig::default() };
        let t = Telemetry::enabled(cfg);
        for i in 0..3 {
            t.record_event(crate::TelemetryEvent {
                cycle: i,
                kind: crate::EventKind::PhaseBegin { name: "p".into() },
            });
        }
        let s = summary(&t.snapshot().expect("enabled"));
        assert!(s.contains("1 recorded"));
        assert!(s.contains("2 dropped"));
    }

    #[test]
    fn human_suffixes() {
        assert_eq!(human(4096.0), "4.1k");
        assert_eq!(human(2_500_000.0), "2.50M");
        assert_eq!(human(3.0), "3");
        assert_eq!(human(0.125), "0.125");
    }
}
