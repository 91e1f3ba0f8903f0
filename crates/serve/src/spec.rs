//! The sweep-spec wire format: a flat JSON object describing a
//! [`SweepSpec`], parsed with typed errors and rendered back for the
//! client. Unknown keys are rejected — a typo'd `"cycels"` should fail
//! the submission, not silently run 120k-cycle defaults.
//!
//! ```text
//! {
//!   "benches": ["nw", "b+tree"],          // required, Table-IV names
//!   "schemes": ["baseline", "ctr"],       // default: all seven
//!   "gpu": "small",                       // "volta" (default) | "small"
//!   "cycles": 3000,                       // default 120000
//!   "warmup": 0,                          // default 0
//!   "seed": 1516,                         // default DEFAULT_SEED
//!   "sample_interval": 512,               // optional: enables telemetry
//!   "l2_bytes_per_bank": 65536,           // optional geometry override
//!   "l2_assoc": 8                         // optional geometry override
//! }
//! ```
//!
//! Geometry overrides are validated against [`GpuConfig::validate`]
//! before any job is queued, so an impossible cache shape is a 400,
//! never a panicking pool worker.
//!
//! [`GpuConfig::validate`]: secmem_gpusim::config::GpuConfig::validate

use secmem_bench::sweep::{GpuPreset, SweepError, SweepSpec};
use secmem_core::SecurityScheme;
use secmem_telemetry::json::{self, Json};
use secmem_workloads::suite::DEFAULT_SEED;

/// A sweep-spec parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The body is not a JSON document (or repeats a key).
    Json(json::JsonError),
    /// The top-level value is not an object.
    NotAnObject,
    /// An unrecognized top-level key.
    UnknownKey(String),
    /// A key holds the wrong shape.
    BadField {
        /// The offending key.
        field: &'static str,
        /// What the parser wanted there.
        expected: &'static str,
    },
    /// A scheme label not in the paper's seven.
    UnknownScheme(String),
    /// A GPU preset label other than `volta` / `small`.
    UnknownGpu(String),
    /// The spec parsed but failed semantic validation.
    Sweep(SweepError),
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::NotAnObject => write!(f, "sweep spec must be a json object"),
            SpecError::UnknownKey(k) => write!(f, "unknown sweep-spec key '{k}'"),
            SpecError::BadField { field, expected } => write!(f, "field '{field}' must be {expected}"),
            SpecError::UnknownScheme(s) => write!(f, "unknown scheme '{s}'"),
            SpecError::UnknownGpu(g) => write!(f, "unknown gpu preset '{g}' (volta|small)"),
            SpecError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn string_array(value: &Json, field: &'static str) -> Result<Vec<String>, SpecError> {
    let items = value.as_arr().ok_or(SpecError::BadField { field, expected: "an array of strings" })?;
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or(SpecError::BadField { field, expected: "an array of strings" })
        })
        .collect()
}

fn u64_field(value: &Json, field: &'static str) -> Result<u64, SpecError> {
    value.as_u64().ok_or(SpecError::BadField { field, expected: "a non-negative integer below 2^53" })
}

/// Parses and validates a sweep-spec body.
///
/// The text is parsed by [`json::parse`], built into a [`SweepSpec`] and
/// semantically validated by [`SweepSpec::validate`].
///
/// # Errors
///
/// Every [`SpecError`] variant.
pub fn parse_sweep_spec(text: &str) -> Result<SweepSpec, SpecError> {
    let value = json::parse(text).map_err(SpecError::Json)?;
    let Json::Obj(fields) = &value else {
        return Err(SpecError::NotAnObject);
    };

    let mut spec = SweepSpec {
        benches: Vec::new(),
        schemes: SecurityScheme::ALL.to_vec(),
        gpu: GpuPreset::Volta,
        cycles: 120_000,
        warmup: 0,
        seed: DEFAULT_SEED,
        sample_interval: None,
        l2_bytes_per_bank: None,
        l2_assoc: None,
    };
    for (key, val) in fields {
        match key.as_str() {
            "benches" => spec.benches = string_array(val, "benches")?,
            "schemes" => {
                spec.schemes = string_array(val, "schemes")?
                    .into_iter()
                    .map(|label| SecurityScheme::from_label(&label).ok_or(SpecError::UnknownScheme(label)))
                    .collect::<Result<_, _>>()?;
            }
            "gpu" => {
                let label = val
                    .as_str()
                    .ok_or(SpecError::BadField { field: "gpu", expected: "\"volta\" or \"small\"" })?;
                spec.gpu = GpuPreset::from_label(label).ok_or_else(|| SpecError::UnknownGpu(label.into()))?;
            }
            "cycles" => spec.cycles = u64_field(val, "cycles")?,
            "warmup" => spec.warmup = u64_field(val, "warmup")?,
            "seed" => spec.seed = u64_field(val, "seed")?,
            "sample_interval" => spec.sample_interval = Some(u64_field(val, "sample_interval")?),
            "l2_bytes_per_bank" => {
                spec.l2_bytes_per_bank = Some(u64_field(val, "l2_bytes_per_bank")?);
            }
            "l2_assoc" => {
                let assoc = u64_field(val, "l2_assoc")?;
                let assoc = u32::try_from(assoc)
                    .map_err(|_| SpecError::BadField { field: "l2_assoc", expected: "a u32 way count" })?;
                spec.l2_assoc = Some(assoc);
            }
            other => return Err(SpecError::UnknownKey(other.to_string())),
        }
    }
    spec.validate().map_err(SpecError::Sweep)?;
    Ok(spec)
}

/// Renders a spec back to its wire form (all fields explicit, so a
/// render→parse round trip is the identity for every spec whose integer
/// fields are at most 2^53 − 1, the largest a JSON number carries
/// exactly; larger ones render but fail to parse back).
pub fn render_sweep_spec(spec: &SweepSpec) -> String {
    let benches: Vec<String> = spec.benches.iter().map(|b| format!("\"{}\"", json::escape(b))).collect();
    let schemes: Vec<String> = spec.schemes.iter().map(|s| format!("\"{}\"", s.label())).collect();
    let mut out = format!(
        "{{\"benches\":[{}],\"schemes\":[{}],\"gpu\":\"{}\",\"cycles\":{},\"warmup\":{},\"seed\":{}",
        benches.join(","),
        schemes.join(","),
        spec.gpu.label(),
        spec.cycles,
        spec.warmup,
        spec.seed
    );
    if let Some(interval) = spec.sample_interval {
        out.push_str(&format!(",\"sample_interval\":{interval}"));
    }
    if let Some(bytes) = spec.l2_bytes_per_bank {
        out.push_str(&format!(",\"l2_bytes_per_bank\":{bytes}"));
    }
    if let Some(assoc) = spec.l2_assoc {
        out.push_str(&format!(",\"l2_assoc\":{assoc}"));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_spec_with_defaults() {
        let spec = parse_sweep_spec(r#"{"benches":["nw"]}"#).expect("parses");
        assert_eq!(spec.benches, vec!["nw"]);
        assert_eq!(spec.schemes.len(), 7);
        assert_eq!(spec.gpu, GpuPreset::Volta);
        assert_eq!(spec.cycles, 120_000);
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.sample_interval, None);
    }

    #[test]
    fn parses_a_full_spec() {
        let text = r#"{"benches":["nw","b+tree"],"schemes":["baseline","ctr_mac_bmt"],
                       "gpu":"small","cycles":3000,"warmup":100,"seed":7,"sample_interval":512}"#;
        let spec = parse_sweep_spec(text).expect("parses");
        assert_eq!(spec.benches.len(), 2);
        assert_eq!(spec.schemes, vec![SecurityScheme::Baseline, SecurityScheme::CtrMacBmt]);
        assert_eq!(spec.gpu, GpuPreset::Small);
        assert_eq!((spec.cycles, spec.warmup, spec.seed), (3000, 100, 7));
        assert_eq!(spec.sample_interval, Some(512));
    }

    #[test]
    fn rejects_bad_specs_with_typed_errors() {
        assert!(matches!(parse_sweep_spec("not json"), Err(SpecError::Json(_))));
        assert!(matches!(parse_sweep_spec("[1,2]"), Err(SpecError::NotAnObject)));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"cycels":5}"#),
            Err(SpecError::UnknownKey(k)) if k == "cycels"
        ));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"schemes":["rot13"]}"#),
            Err(SpecError::UnknownScheme(s)) if s == "rot13"
        ));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"gpu":"tpu"}"#),
            Err(SpecError::UnknownGpu(_))
        ));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"cycles":-5}"#),
            Err(SpecError::BadField { field: "cycles", .. })
        ));
        // 2^53 + 1 parses to the same f64 as 2^53: accepting it would run
        // (and cache) seed 2^53 in its place.
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"seed":9007199254740993}"#),
            Err(SpecError::BadField { field: "seed", .. })
        ));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"seed":1,"seed":2}"#),
            Err(SpecError::Json(e)) if e.message == "duplicate object key"
        ));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":[]}"#),
            Err(SpecError::Sweep(SweepError::Empty("benchmark")))
        ));
        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["not-a-bench"]}"#),
            Err(SpecError::Sweep(SweepError::UnknownBench(_)))
        ));
    }

    #[test]
    fn geometry_overrides_parse_and_hostile_geometry_is_a_spec_error() {
        let text = r#"{"benches":["nw"],"gpu":"small","cycles":1500,
                       "l2_bytes_per_bank":65536,"l2_assoc":8}"#;
        let spec = parse_sweep_spec(text).expect("valid override parses");
        assert_eq!(spec.l2_bytes_per_bank, Some(65_536));
        assert_eq!(spec.l2_assoc, Some(8));

        // 96 KiB / 5 ways: the geometry that used to assert inside
        // SectoredCache now dies at the spec boundary.
        let hostile = r#"{"benches":["nw"],"gpu":"small","cycles":1500,
                          "l2_bytes_per_bank":98304,"l2_assoc":5}"#;
        match parse_sweep_spec(hostile).expect_err("rejected") {
            SpecError::Sweep(SweepError::Gpu(e)) => {
                assert_eq!(e.field, "l2_bytes_per_bank/l2_assoc");
            }
            other => panic!("expected a typed geometry rejection, got {other:?}"),
        }

        assert!(matches!(
            parse_sweep_spec(r#"{"benches":["nw"],"l2_assoc":4294967296}"#),
            Err(SpecError::BadField { field: "l2_assoc", .. })
        ));
    }

    #[test]
    fn render_parse_round_trips() {
        let spec = SweepSpec::pinned_matrix();
        let wire = render_sweep_spec(&spec);
        assert_eq!(parse_sweep_spec(&wire).expect("round trip"), spec);

        let mut with_telemetry = SweepSpec::pinned_matrix();
        with_telemetry.sample_interval = Some(256);
        let wire = render_sweep_spec(&with_telemetry);
        assert_eq!(parse_sweep_spec(&wire).expect("round trip"), with_telemetry);
    }
}
