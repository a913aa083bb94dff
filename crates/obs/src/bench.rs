//! `ppm-bench v1` files: one wall-clock measurement per file, tracked
//! in `results/` so perf history accrues across PRs.
//!
//! Mirroring the ledger's header/body split, the document separates
//! the *comparable body* (what the measurement is: bench name and
//! unit — identical across byte-identical runs) from the *timing
//! sidecar* (what was measured and when: wall time, source run id,
//! creation timestamp). Diffing two bench files' bodies answers "is
//! this the same measurement?" without wall-clock noise.
//!
//! ```text
//! {
//!   "schema": "ppm-bench v1",
//!   "body":   { "bench": "rbf_train", "unit": "ms" },
//!   "timing": { "wall_ms": 2.816,
//!               "source_run": "build-7-19fd388a3c6",
//!               "created_unix_ms": 1785960375238 }
//! }
//! ```
//!
//! The legacy flat layout (all five fields at the top level) is still
//! accepted by [`BenchRecord::parse`] so older committed files remain
//! readable.

use std::fmt;
use std::path::Path;

use crate::json::Json;

/// The `schema` header every bench file carries.
pub const BENCH_SCHEMA: &str = "ppm-bench v1";

/// One wall-clock benchmark measurement with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Measurement name, e.g. `rbf_train` or `build_total`.
    pub bench: String,
    /// Unit of `wall_ms`'s *presentation* — always `"ms"` today, kept
    /// explicit so the body states what a comparison would compare.
    pub unit: String,
    /// The measured wall time in milliseconds.
    pub wall_ms: f64,
    /// The run ledger this measurement was extracted from.
    pub source_run: String,
    /// When the source run was created (Unix milliseconds).
    pub created_unix_ms: u64,
}

/// A bench file that could not be parsed.
#[derive(Debug)]
pub struct BenchError(String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl BenchRecord {
    /// The deterministic half of the document: identical for
    /// byte-identical runs, whatever the clock said.
    pub fn body_json(&self) -> Json {
        Json::obj([
            ("bench", Json::Str(self.bench.clone())),
            ("unit", Json::Str(self.unit.clone())),
        ])
    }

    /// The wall-clock sidecar: the measurement and its provenance.
    pub fn timing_json(&self) -> Json {
        Json::obj([
            ("wall_ms", Json::Float(self.wall_ms)),
            ("source_run", Json::Str(self.source_run.clone())),
            ("created_unix_ms", Json::from(self.created_unix_ms)),
        ])
    }

    /// The full `ppm-bench v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(BENCH_SCHEMA.to_string())),
            ("body", self.body_json()),
            ("timing", self.timing_json()),
        ])
    }

    /// Parses a bench document, accepting both the current body/timing
    /// layout and the legacy flat one.
    ///
    /// # Errors
    ///
    /// [`BenchError`] when the text is not JSON, carries the wrong
    /// schema header, or is missing required fields.
    pub fn parse(text: &str) -> Result<BenchRecord, BenchError> {
        let doc =
            Json::parse(text).map_err(|e| BenchError(format!("bench file is not JSON: {e}")))?;
        if doc.get("schema").and_then(Json::as_str) != Some(BENCH_SCHEMA) {
            return Err(BenchError(format!(
                "bench file is missing the `{BENCH_SCHEMA}` schema header"
            )));
        }
        // Current layout nests identity under `body` and the clock
        // under `timing`; the legacy layout is flat. Field lookups
        // fall through to the top level either way.
        let body = doc.get("body").cloned().unwrap_or_else(|| doc.clone());
        let timing = doc.get("timing").cloned().unwrap_or_else(|| doc.clone());
        let req_str = |scope: &Json, key: &str| -> Result<String, BenchError> {
            scope
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| BenchError(format!("bench file is missing `{key}`")))
        };
        Ok(BenchRecord {
            bench: req_str(&body, "bench")?,
            unit: body
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("ms")
                .to_string(),
            wall_ms: timing
                .get("wall_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| BenchError("bench file is missing `wall_ms`".to_string()))?,
            source_run: req_str(&timing, "source_run")?,
            created_unix_ms: timing
                .get("created_unix_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        })
    }
}

/// Writes `record` to `path` atomically as pretty-ish one-line JSON.
///
/// # Errors
///
/// Any I/O failure from [`crate::write_atomic`].
pub fn write_bench(path: &Path, record: &BenchRecord) -> std::io::Result<()> {
    let mut text = record.to_json().dump();
    text.push('\n');
    crate::write_atomic(path, text.as_bytes())
}

/// Reads and parses a bench file.
///
/// # Errors
///
/// [`BenchError`] when the file cannot be read or parsed.
pub fn load_bench(path: &Path) -> Result<BenchRecord, BenchError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BenchError(format!("cannot read {}: {e}", path.display())))?;
    BenchRecord::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            bench: "rbf_train".to_string(),
            unit: "ms".to_string(),
            wall_ms: 2.816,
            source_run: "build-7-19fd388a3c6".to_string(),
            created_unix_ms: 1_785_960_375_238,
        }
    }

    #[test]
    fn round_trips_through_file() {
        let dir = std::env::temp_dir().join(format!("ppm-bench-test-{}", std::process::id()));
        let path = dir.join("BENCH_x.json");
        write_bench(&path, &record()).unwrap();
        let back = load_bench(&path).unwrap();
        assert_eq!(back, record());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn body_is_identical_across_runs_that_differ_only_in_timing() {
        let a = record();
        let mut b = record();
        b.wall_ms = 9999.0;
        b.source_run = "build-7-ffffffffff".to_string();
        b.created_unix_ms = 1;
        assert_eq!(a.body_json().dump(), b.body_json().dump());
        assert_ne!(a.timing_json().dump(), b.timing_json().dump());
        // And no wall-clock field leaks into the body.
        let body = a.body_json().dump();
        for clock_field in ["wall_ms", "created_unix_ms", "source_run"] {
            assert!(!body.contains(clock_field), "{clock_field} in body: {body}");
        }
    }

    #[test]
    fn parses_the_legacy_flat_layout() {
        let legacy = r#"{
          "schema": "ppm-bench v1",
          "bench": "rbf_train",
          "wall_ms": 2.816,
          "source_run": "build-7-19fd388a3c6",
          "created_unix_ms": 1785960375238
        }"#;
        let rec = BenchRecord::parse(legacy).unwrap();
        assert_eq!(rec, record());
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        assert!(BenchRecord::parse("{}").is_err());
        assert!(BenchRecord::parse(r#"{"schema":"ppm-bench v2"}"#).is_err());
        let no_wall = r#"{"schema":"ppm-bench v1","body":{"bench":"x"},"timing":{}}"#;
        let err = BenchRecord::parse(no_wall).unwrap_err();
        assert!(err.to_string().contains("wall_ms"), "{err}");
    }
}
