//! Golden tests pinning every wire format in the registry
//! (`crates/lint/src/wire.rs`, `KNOWN_FORMATS`).
//!
//! Each test drives the real emitter where one is reachable from a unit
//! test (reports, rings, checkpoints) and a canonical body fixture where
//! the emitter is buried in a server loop (`/predict`, `/statusz`), then
//! compares the schema field against the literal version string with
//! `==`. That comparison is deliberate: `ppm lint` requires every
//! registered format to have both a test pin and a parse/validation
//! site, and these assertions are exactly that contract. Bumping a
//! version string without updating the registry, the parser, and this
//! file fails `ppm lint` and these tests at the same time.

use ppm_obs::Json;

/// Parses `text` as JSON and returns its top-level `"schema"` string.
fn schema_of(text: &str) -> Option<String> {
    let doc = Json::parse(text).ok()?;
    doc.get("schema").and_then(Json::as_str).map(str::to_string)
}

#[test]
fn bench_record_schema_is_pinned() {
    let record = ppm_obs::BenchRecord {
        bench: "wire_golden".to_string(),
        unit: "ms".to_string(),
        wall_ms: 12.5,
        source_run: "test-run".to_string(),
        created_unix_ms: 0,
    };
    let text = record.to_json().dump();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-bench v1"),
        "{text}"
    );
    assert!(ppm_obs::BENCH_SCHEMA == "ppm-bench v1");
}

#[test]
fn buildz_document_schema_is_pinned() {
    let text = ppm_live::render_buildz(&[]);
    assert!(
        schema_of(&text).as_deref() == Some("ppm-buildz v1"),
        "{text}"
    );
}

#[test]
fn checkpoint_header_is_pinned() {
    let mut journal = ppm_core::Checkpoint::create(
        std::env::temp_dir().join("ppm-wire-golden.ckpt"),
        &[("seed".to_string(), "7".to_string())],
    );
    journal.record(&[1.0, 2.0], 3.5);
    let text = journal.to_text();
    assert!(text.lines().next() == Some("ppm-checkpoint v1"), "{text}");
}

#[test]
fn eventz_document_schema_is_pinned() {
    use ppm_telemetry::Sink;
    let text = ppm_telemetry::EventRing::new(4).render_json();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-eventz v1"),
        "{text}"
    );
    // Byte golden: one eviction, and a string field holding every
    // escaping class.
    let mut ring = ppm_telemetry::EventRing::new(1);
    ring.record(&golden_event());
    ring.record(&golden_event());
    let at_us = ring.events()[0].at_us;
    assert_eq!(
        ring.render_json(),
        format!(
            "{{\"schema\":\"ppm-eventz v1\",\"capacity\":1,\"dropped\":1,\"events\":[\
             {{\"seq\":1,\"at_us\":{at_us},\"level\":\"warn\",\"name\":\"golden.evt\",\
             \"fields\":{{\"s\":\"q\\\"b\\\\s\\n\\u0001\",\"n\":3}}}}]}}"
        )
    );
}

#[test]
fn ledger_schema_constant_is_pinned() {
    assert!(ppm_obs::ledger::LEDGER_SCHEMA == "ppm-ledger v1");
    // The committed baseline's body re-serializes to the bytes it was
    // hashed from: the codec's number and string rules have not moved.
    let baseline =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/baselines/smoke.json");
    let doc = ppm_obs::load_ledger(&baseline).expect("baseline ledger loads");
    assert_eq!(
        ppm_obs::verify_content_hash(&doc).as_deref(),
        Ok("40fb43e36b5d22d6")
    );
}

#[test]
fn lint_report_schema_is_pinned() {
    let text = ppm_lint::Report::default().render_json();
    assert!(schema_of(&text).as_deref() == Some("ppm-lint v2"), "{text}");
    assert!(ppm_lint::report::SCHEMA == "ppm-lint v2");
}

#[test]
fn loadtest_report_schema_is_pinned() {
    let report = ppm_serve::LoadtestReport {
        sent: 10,
        ok: 8,
        degraded: 1,
        shed: 1,
        deadline_exceeded: 0,
        errors: 1,
        p50_ms: 1.0,
        p95_ms: 2.0,
        p99_ms: 3.0,
        mean_ms: 1.5,
        refusal_p50_ms: 0.2,
        refusal_p99_ms: 0.4,
        refusal_mean_ms: 0.3,
        wall_ms: 100.0,
        rps: 100.0,
        trace_check: None,
    };
    let text = report.to_json().dump();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-loadtest v1"),
        "{text}"
    );
}

/// A minimal but structurally complete `ppm-ledger v1` run document —
/// the shape `ppm report` compares.
fn ledger_fixture() -> Json {
    let text = r#"{
      "header": {
        "schema": "ppm-ledger v1",
        "run_id": "wire-golden",
        "created_unix_ms": 0,
        "timings": {
          "total_wall_us": 100000,
          "total_cpu_us": null,
          "stages": [
            {"name": "stage.rbf_train", "wall_us": 100000, "cpu_us": null}
          ]
        }
      },
      "body": {
        "schema": "ppm-ledger v1",
        "command": "build",
        "args": {"--seed": "7"},
        "env": {},
        "metrics": [
          {"kind": "counter", "name": "sim.batch_points", "value": 40}
        ],
        "diagnostics": {
          "holdout": {"mean_pct": 2.0, "max_pct": 6.0},
          "regions": [
            {"leaf": 0, "count": 10, "mean_abs_pct": 1.5, "max_abs_pct": 4.0}
          ],
          "aicc": -12.0
        }
      }
    }"#;
    Json::parse(text).expect("ledger fixture parses")
}

#[test]
fn regression_report_schema_is_pinned() {
    let doc = ledger_fixture();
    let report = ppm_obs::compare(&doc, &doc, &ppm_obs::Thresholds::default())
        .expect("self-compare succeeds");
    let text = report.to_json().dump();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-report v1"),
        "{text}"
    );
}

#[test]
fn predict_body_schema_is_pinned() {
    // The /predict emitter lives inside the serve request loop; this is
    // the canonical body shape it produces, validated consumer-side the
    // same way `ppm loadtest` classifies responses.
    let body = r#"{"schema":"ppm-serve v1","benchmark":"gcc","metric":"ipc",
                   "prediction":1.25,"model_version":3,"degraded":false,
                   "eval_us":42}"#;
    assert!(schema_of(body).as_deref() == Some("ppm-serve v1"), "{body}");
}

#[test]
fn statusz_body_schema_is_pinned() {
    // Same situation as /predict: the emitter is in the server loop, so
    // the golden pins the canonical body shape consumer-side.
    let body = r#"{"schema":"ppm-statusz v1","model_version":3,
                   "benchmark":"gcc","metric":"ipc","state":"serving",
                   "queued":0,"workers":4}"#;
    assert!(
        schema_of(body).as_deref() == Some("ppm-statusz v1"),
        "{body}"
    );
}

#[test]
fn tracez_document_schema_is_pinned() {
    use ppm_serve::{TraceConfig, TraceFilter, TraceOutcome, TraceRing};
    let config = TraceConfig {
        capacity: 16,
        sample_one_in: 1,
        slow_keep: 0,
    };
    let ring = TraceRing::new(&ppm_telemetry::Registry::new(), config);
    let text = ring.render_tracez(&TraceFilter::default());
    assert!(
        schema_of(&text).as_deref() == Some("ppm-tracez v1"),
        "{text}"
    );
    assert!(ppm_serve::TRACEZ_SCHEMA == "ppm-tracez v1");
    assert_eq!(
        ppm_serve::trace::render_tracez_disabled(),
        "{\"schema\":\"ppm-tracez v1\",\"enabled\":false,\"capacity\":0,\"retained\":0,\"records\":[]}"
    );
    // Byte goldens: one record, then a filtered document over four.
    let record = golden_trace(7, TraceOutcome::DeadlineExpired);
    assert_eq!(record.to_json().dump(), GOLDEN_TRACE_7);
    for (seq, outcome) in [
        (4, TraceOutcome::Shed),
        (5, TraceOutcome::DeadlineExpired),
        (6, TraceOutcome::Shed),
        (7, TraceOutcome::DeadlineExpired),
    ] {
        ring.offer(golden_trace(seq, outcome));
    }
    let filter = TraceFilter {
        outcome: Some(TraceOutcome::DeadlineExpired),
        limit: Some(1),
        ..TraceFilter::default()
    };
    assert_eq!(
        ring.render_tracez(&filter),
        format!(
            "{{\"schema\":\"ppm-tracez v1\",\"enabled\":true,\"capacity\":16,\
             \"retained\":4,\"records\":[{GOLDEN_TRACE_7}]}}"
        )
    );
}

/// One leveled event whose string field holds a quote, a backslash, a
/// newline and a raw control character — every escaping class.
fn golden_event() -> ppm_telemetry::Record {
    ppm_telemetry::Record::Event {
        name: "golden.evt".to_string(),
        level: ppm_telemetry::Level::Warn,
        fields: vec![
            ("s".to_string(), "q\"b\\s\n\u{1}".into()),
            ("n".to_string(), 3u64.into()),
        ],
        depth: 1,
    }
}

#[test]
fn jsonl_event_line_bytes_are_golden() {
    let rec = ppm_telemetry::Record::Event {
        name: "rbf.cell".to_string(),
        level: ppm_telemetry::Level::Info,
        fields: vec![
            ("p_min".to_string(), 2usize.into()),
            ("alpha".to_string(), 7.0f64.into()),
            ("score".to_string(), (-41.25f64).into()),
            ("centers".to_string(), 7usize.into()),
        ],
        depth: 2,
    };
    // Float fields keep a decimal point, so an integral `alpha` reads
    // `7.0` and stays a float when the line is parsed back.
    assert_eq!(
        rec.to_json_line(),
        "{\"t\":\"event\",\"name\":\"rbf.cell\",\"level\":\"info\",\"depth\":2,\
         \"fields\":{\"p_min\":2,\"alpha\":7.0,\"score\":-41.25,\"centers\":7}}"
    );
    assert_eq!(
        golden_event().to_json_line(),
        "{\"t\":\"event\",\"name\":\"golden.evt\",\"level\":\"warn\",\"depth\":1,\
         \"fields\":{\"s\":\"q\\\"b\\\\s\\n\\u0001\",\"n\":3}}"
    );
}

fn golden_trace(seq: u64, outcome: ppm_serve::TraceOutcome) -> ppm_serve::TraceRecord {
    ppm_serve::TraceRecord {
        id: format!("ppm-{seq:012x}"),
        seq,
        route: "/predict".to_string(),
        outcome,
        status: 503,
        detail: "late \"q\"\n".to_string(),
        worker: seq.is_multiple_of(2).then_some(1),
        total_us: 5000 + seq,
        spans: vec![
            ppm_serve::SpanRec {
                name: "accept",
                start_us: 0,
                dur_us: 1,
            },
            ppm_serve::SpanRec {
                name: "eval",
                start_us: 1,
                dur_us: 4999,
            },
        ],
        unix_ms: 1_700_000_000_000,
    }
}

const GOLDEN_TRACE_7: &str = "{\"id\":\"ppm-000000000007\",\"seq\":7,\"route\":\"/predict\",\
     \"outcome\":\"deadline_expired\",\"status\":503,\"detail\":\"late \\\"q\\\"\\n\",\
     \"worker\":null,\"total_us\":5007,\"unix_ms\":1700000000000,\"spans\":[\
     {\"name\":\"accept\",\"start_us\":0,\"dur_us\":1},\
     {\"name\":\"eval\",\"start_us\":1,\"dur_us\":4999}]}";
