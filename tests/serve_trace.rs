//! Acceptance tests for the request-observability layer (`ppm-trace`):
//! a serving plane under seeded chaos and 8-thread concurrent load
//! must account for every failure it hands out.
//!
//! The contract:
//!
//! * every response echoes the client's `X-Ppm-Trace` ID (or a
//!   seq-derived one for sheds, whose head is never read);
//! * every non-2xx response and every degraded/panic-contained answer
//!   has a retained `/tracez` record with a full span timeline ending
//!   in the terminal `write` span — the tail sampler may drop plain OK
//!   traffic, never errors;
//! * `/tracez?format=chrome` exports a loadable Chrome-trace document;
//! * the SLO tracker, labeled shed/degrade series, and exemplars all
//!   surface on `/statusz` and `/metrics`;
//! * `ppm tail --once` renders the feed, and exits 8 when tracing is
//!   off.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

use ppm_live::{http_get, http_request_full};
use ppm_obs::Json;
use ppm_serve::{ServeConfig, ServeServer};
use ppm_workload::Benchmark;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppm-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a small real RBF model and publishes it into `registry`.
fn build_and_publish(dir: &Path, registry: &Path) {
    let model = dir.join("model.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "build",
            "--benchmark",
            "ammp",
            "--sample",
            "16",
            "--instructions",
            "8000",
            "--seed",
            "7",
            "--holdout",
            "0",
            "--no-ledger",
            "--quiet",
            "--train-threads",
            "2",
            "--out",
        ])
        .arg(&model)
        .output()
        .expect("ppm build runs");
    assert!(
        out.status.success(),
        "build failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["publish", "--model"])
        .arg(&model)
        .arg("--registry")
        .arg(registry)
        .output()
        .expect("ppm publish runs");
    assert!(
        out.status.success(),
        "publish failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// What one client request observed, keyed by the trace ID it sent.
#[derive(Debug, Clone)]
struct Seen {
    status: u16,
    body: String,
    echoed: Option<String>,
}

/// Fires `threads * per_thread` predictions with client-chosen trace
/// IDs (`st-<t>-<k>`) and a tight 25ms deadline, so chaos slow faults
/// (40ms) surface as deadline refusals.
fn trace_wave(addr: &str, threads: usize, per_thread: usize) -> HashMap<String, Seen> {
    let seen: Mutex<HashMap<String, Seen>> = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let seen = &seen;
            scope.spawn(move || {
                for k in 0..per_thread {
                    let rob = [32, 48, 64, 96, 128, 160, 192, 256][(t + k) % 8];
                    let id = format!("st-{t}-{k}");
                    let path = format!("/predict?rob={rob}&deadline_ms=25");
                    let response = http_request_full(
                        addr,
                        "GET",
                        &path,
                        &[("X-Ppm-Trace", &id)],
                        CLIENT_TIMEOUT,
                    );
                    if let Ok(r) = response {
                        seen.lock().unwrap().insert(
                            id,
                            Seen {
                                status: r.status,
                                echoed: r.header("x-ppm-trace").map(str::to_string),
                                body: r.body,
                            },
                        );
                    }
                    // Transport failures are invisible to both sides'
                    // books; the accounting claims below are about
                    // requests that produced an HTTP response.
                }
            });
        }
    });
    seen.into_inner().unwrap()
}

fn fetch_json(addr: &str, path: &str) -> Json {
    let (status, body) = http_get(addr, path, CLIENT_TIMEOUT).expect("endpoint answers");
    assert_eq!(status, 200, "GET {path}: {body}");
    Json::parse(&body).unwrap_or_else(|e| panic!("GET {path} is not JSON ({e}): {body}"))
}

/// All retained records with the test's ID prefix, keyed by ID.
fn tracez_records(addr: &str) -> HashMap<String, Json> {
    let doc = fetch_json(addr, "/tracez?id_prefix=st-&limit=4096");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("ppm-tracez v1")
    );
    assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(true));
    doc.get("records")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            (
                r.get("id").and_then(Json::as_str).unwrap().to_string(),
                r.clone(),
            )
        })
        .collect()
}

fn span_names(record: &Json) -> Vec<String> {
    record
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn chaos_wave_accounts_for_every_failure() {
    let dir = scratch("chaos");
    let registry = dir.join("registry");
    build_and_publish(&dir, &registry);
    let server = ServeServer::start(ServeConfig {
        registry,
        fallback_benchmark: Some(Benchmark::Ammp),
        chaos: Some(6),
        workers: 4,
        queue_per_worker: 8,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    let seen = trace_wave(&addr, 8, 40);
    assert!(seen.len() >= 300, "only {} answers landed", seen.len());

    // Every answered request echoed a trace ID; 200s echo the
    // client's own (sheds never read the head, so theirs is
    // seq-derived).
    let mut deadline_503 = 0u64;
    let mut shed_503 = 0u64;
    let mut degraded_200 = Vec::new();
    let mut panicked_200 = Vec::new();
    for (id, s) in &seen {
        assert!(
            s.echoed.is_some(),
            "{id}: response without X-Ppm-Trace header (status {})",
            s.status
        );
        match s.status {
            200 => {
                let doc = Json::parse(&s.body).expect("200 bodies are JSON");
                assert_eq!(
                    doc.get("trace_id").and_then(Json::as_str),
                    Some(id.as_str()),
                    "200 body carries the client's trace ID"
                );
                assert_eq!(s.echoed.as_deref(), Some(id.as_str()));
                if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
                    let reason = doc
                        .get("degraded_reason")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    if reason.contains("panicked") {
                        panicked_200.push(id.clone());
                    } else {
                        degraded_200.push(id.clone());
                    }
                }
            }
            503 => {
                if s.body.contains("deadline") {
                    assert_eq!(s.echoed.as_deref(), Some(id.as_str()));
                    deadline_503 += 1;
                } else {
                    shed_503 += 1;
                }
            }
            other => panic!("{id}: unexpected status {other}: {}", s.body),
        }
    }
    // Seed 6 injects panic, NaN, and slow faults in this index range;
    // with a 25ms deadline the 40ms slow faults become deadline
    // refusals.
    assert!(deadline_503 > 0, "no deadline refusals under chaos");
    assert!(!panicked_200.is_empty(), "no panic-contained answers");
    assert!(!degraded_200.is_empty(), "no degraded answers");

    // The books: every failure retrievable from /tracez.
    std::thread::sleep(Duration::from_millis(100)); // records land after the response write
    let records = tracez_records(&addr);
    for (id, s) in &seen {
        if s.status == 503 && s.body.contains("deadline") {
            let rec = records
                .get(id)
                .unwrap_or_else(|| panic!("deadline refusal {id} lost from the ring"));
            assert_eq!(
                rec.get("outcome").and_then(Json::as_str),
                Some("deadline_expired")
            );
            assert_eq!(rec.get("status").and_then(Json::as_i64), Some(503));
            let spans = span_names(rec);
            assert_eq!(
                spans.last().map(String::as_str),
                Some("write"),
                "{id}: timeline must end in the terminal write span ({spans:?})"
            );
            assert!(spans.contains(&"queue_wait".to_string()), "{spans:?}");
            assert!(spans.contains(&"eval".to_string()), "{spans:?}");
        }
    }
    for id in &panicked_200 {
        let rec = records
            .get(id)
            .unwrap_or_else(|| panic!("panic-contained {id} lost from the ring"));
        assert_eq!(
            rec.get("outcome").and_then(Json::as_str),
            Some("panic_contained"),
            "{rec:?}"
        );
        assert!(
            rec.get("worker").and_then(Json::as_i64).is_some(),
            "panic-contained answers know their worker: {rec:?}"
        );
    }
    for id in &degraded_200 {
        let rec = records
            .get(id)
            .unwrap_or_else(|| panic!("degraded answer {id} lost from the ring"));
        assert_eq!(rec.get("outcome").and_then(Json::as_str), Some("degraded"));
    }
    // Sheds keep seq-derived IDs (head unread), so the invariant is a
    // count: one retained shed record per client-observed shed.
    let shed_doc = fetch_json(&addr, "/tracez?outcome=shed&limit=4096");
    let shed_records = shed_doc
        .get("records")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .len() as u64;
    assert_eq!(
        shed_records, shed_503,
        "every shed must be retained (client saw {shed_503})"
    );

    // Outcome and latency filters compose.
    let doc = fetch_json(&addr, "/tracez?outcome=deadline_expired&min_ms=1");
    for r in doc.get("records").and_then(Json::as_arr).unwrap_or(&[]) {
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some("deadline_expired")
        );
        assert!(r.get("total_us").and_then(Json::as_i64).unwrap() >= 1000);
    }

    // Chrome export is Perfetto-loadable.
    let (status, chrome) = http_get(
        &addr,
        "/tracez?outcome=deadline_expired&format=chrome",
        CLIENT_TIMEOUT,
    )
    .expect("chrome export answers");
    assert_eq!(status, 200);
    let summary = ppm_obs::validate_chrome_trace(&chrome).expect("chrome trace validates");
    assert!(summary.spans > 0);

    // /statusz: SLO windows, reason breakdowns, trace occupancy.
    let statusz = fetch_json(&addr, "/statusz");
    let slo = statusz.get("slo").expect("statusz has slo");
    let windows = slo.get("windows").and_then(Json::as_arr).expect("windows");
    assert_eq!(windows.len(), 3);
    assert_eq!(
        windows[0].get("window_s").and_then(Json::as_i64),
        Some(5),
        "{windows:?}"
    );
    // The wave just ran: the 5-minute window saw it, and the deadline
    // refusals burned availability budget.
    assert!(windows[2].get("total").and_then(Json::as_i64).unwrap() > 0);
    assert!(
        slo.get("availability_budget_remaining")
            .and_then(Json::as_f64)
            .is_some(),
        "{slo:?}"
    );
    let degraded_by_reason = statusz.get("degraded_by_reason").expect("breakdown");
    assert!(
        degraded_by_reason
            .get("eval_failure")
            .and_then(Json::as_i64)
            .unwrap()
            > 0,
        "{degraded_by_reason:?}"
    );
    let trace = statusz.get("trace").expect("statusz has trace");
    assert_eq!(trace.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(trace.get("retained").and_then(Json::as_i64).unwrap() > 0);

    // /metrics: labeled series under one family, SLO gauges, trace
    // counters, and a worst-request exemplar for the latency histogram.
    let (status, metrics) = http_get(&addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("ppm_serve_degraded{reason=\"eval_failure\"}"),
        "labeled degrade series missing:\n{metrics}"
    );
    assert!(
        metrics.contains("ppm_serve_shed{reason=\"deadline\"}"),
        "labeled shed series missing:\n{metrics}"
    );
    assert!(metrics.contains("ppm_serve_trace_retained"), "{metrics}");
    assert!(
        metrics.contains("ppm_serve_slo_availability_burn_5s"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# EXEMPLAR ppm_serve_latency_us trace_id=\"st-"),
        "latency exemplar missing:\n{metrics}"
    );

    // `ppm tail --once` renders the feed from outside the process.
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["tail", &addr, "--once", "--outcome", "deadline_expired"])
        .output()
        .expect("ppm tail runs");
    assert!(
        out.status.success(),
        "tail failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace_id"), "{stdout}");
    assert!(stdout.contains("deadline_expired"), "{stdout}");
    assert!(stdout.contains("st-"), "{stdout}");
}

#[test]
fn disabled_tracing_answers_tracez_honestly_and_tail_exits_8() {
    let dir = scratch("notrace");
    let server = ServeServer::start(ServeConfig {
        registry: dir.join("registry"),
        fallback_benchmark: Some(Benchmark::Ammp),
        trace: false,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let (_, _) = http_get(&addr, "/predict?rob=64", CLIENT_TIMEOUT).expect("predict answers");
    let doc = fetch_json(&addr, "/tracez");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("ppm-tracez v1")
    );
    assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(false));

    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["tail", &addr, "--once"])
        .output()
        .expect("ppm tail runs");
    assert_eq!(
        out.status.code(),
        Some(8),
        "tail against disabled tracing must exit 8:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The 8-way sharded ring under 8 concurrent writers and a live
/// `/tracez` reader: no unconditional-keep outcome may be lost or
/// duplicated, snapshots stay seq-sorted mid-flight, and the shard
/// accounting stays coherent once the writers drain.
#[test]
fn trace_ring_concurrent_writers_lose_no_unconditional_keeps() {
    use ppm_serve::{SpanRec, TraceConfig, TraceFilter, TraceOutcome, TraceRecord, TraceRing};

    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 100;

    fn rec(seq: u64, outcome: TraceOutcome) -> TraceRecord {
        TraceRecord {
            id: format!("stress-{seq:06x}"),
            seq,
            route: "/predict".to_string(),
            outcome,
            status: if outcome == TraceOutcome::Shed {
                503
            } else {
                200
            },
            detail: String::new(),
            worker: Some((seq % WRITERS) as usize),
            total_us: 50 + seq % 17,
            spans: vec![SpanRec {
                name: "write",
                start_us: 0,
                dur_us: 10,
            }],
            unix_ms: 0,
        }
    }

    let ring = TraceRing::new(
        &ppm_telemetry::Registry::new(),
        TraceConfig {
            capacity: 1024,
            sample_one_in: 2,
            slow_keep: 4,
        },
    );
    let shed_filter = || TraceFilter {
        outcome: Some(TraceOutcome::Shed),
        ..TraceFilter::default()
    };

    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let ring = &ring;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    // Writer t owns the seqs congruent to t mod 8, so
                    // each writer lands on one shard and stays under
                    // the per-shard cap: nothing can be evicted.
                    let seq = t + i * WRITERS;
                    let outcome = if i % 3 == 0 {
                        TraceOutcome::Shed
                    } else {
                        TraceOutcome::Ok
                    };
                    ring.offer(rec(seq, outcome));
                }
            });
        }
        // A reader racing the writers: every mid-flight document must
        // be well-formed and every shed snapshot strictly seq-sorted.
        let ring = &ring;
        scope.spawn(move || {
            for _ in 0..50 {
                let doc = ring.render_tracez(&TraceFilter::default());
                let parsed = Json::parse(&doc).expect("tracez parses mid-flight");
                assert_eq!(
                    parsed.get("schema").and_then(Json::as_str),
                    Some("ppm-tracez v1")
                );
                let shed = ring.snapshot(&shed_filter());
                assert!(
                    shed.windows(2).all(|w| w[0].seq < w[1].seq),
                    "snapshot not seq-sorted"
                );
                std::thread::yield_now();
            }
        });
    });

    // Every unconditional-keep record survived, exactly once.
    let got: Vec<u64> = ring
        .snapshot(&shed_filter())
        .iter()
        .map(|r| r.seq)
        .collect();
    let mut want: Vec<u64> = (0..WRITERS)
        .flat_map(|t| {
            (0..PER_WRITER)
                .filter(|i| i % 3 == 0)
                .map(move |i| t + i * WRITERS)
        })
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);

    // Shard accounting is coherent after the dust settles: the per-shard
    // sums agree with an unfiltered snapshot, and nothing was evicted
    // (each shard saw at most 100 records against a cap of 128).
    assert_eq!(ring.capacity(), 1024);
    assert_eq!(ring.len(), ring.snapshot(&TraceFilter::default()).len());
    assert!(
        ring.len() >= want.len(),
        "kept {} < {}",
        ring.len(),
        want.len()
    );
}
