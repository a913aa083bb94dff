//! The load generator: `ppm loadtest` issues open- or closed-loop
//! request streams against a running service and reports latency
//! quantiles, so shed/degrade/SLO claims are *measured*, not asserted.
//!
//! Closed loop (`rate == 0`): each of `concurrency` workers fires its
//! next request the moment the previous one answers — the classic
//! saturation probe. Open loop (`rate > 0`): request *k* of the whole
//! test is launched at `start + k/rate`, whether or not earlier ones
//! have answered, which is what real arrival processes do to a service
//! and what makes queueing delay visible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ppm_live::{http_get, http_request_full};
use ppm_obs::{BenchRecord, Json};
use ppm_telemetry::Registry;

use crate::clock::{unix_now_ms, Stopwatch};
use crate::ServeError;

/// ROB sizes cycled across requests so the service sees varied (but
/// always valid) design points instead of one cache-hot configuration.
const ROB_SIZES: [u32; 8] = [32, 48, 64, 96, 128, 160, 192, 256];

/// Everything `ppm loadtest` needs. The CLI maps flags onto this
/// one-to-one.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// The service address (`host:port`).
    pub addr: String,
    /// Total requests across all workers.
    pub requests: usize,
    /// Concurrent workers.
    pub concurrency: usize,
    /// Open-loop arrival rate in requests/second across the whole test;
    /// zero means closed loop.
    pub rate: f64,
    /// Per-request `?deadline_ms=` to attach, if any.
    pub deadline_ms: Option<u64>,
    /// Socket budget per request (connect + read).
    pub timeout: Duration,
    /// Send a client-chosen `X-Ppm-Trace` ID with every request and
    /// cross-check client outcome counts against the server's
    /// `/statusz` counters and `/tracez` retained records afterwards.
    /// Skipped gracefully when the server has tracing disabled or its
    /// control routes are unreachable.
    pub trace_check: bool,
    /// Base of the client trace-ID prefix (`{prefix}-{start}-{k}`).
    pub trace_prefix: String,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        LoadtestConfig {
            addr: "127.0.0.1:0".to_string(),
            requests: 200,
            concurrency: 4,
            rate: 0.0,
            deadline_ms: None,
            timeout: Duration::from_secs(5),
            trace_check: true,
            trace_prefix: "lt".to_string(),
        }
    }
}

/// What a loadtest measured. Every accepted request lands in exactly
/// one of `ok`/`shed`/`deadline_exceeded`/`errors`; `degraded` counts
/// the subset of `ok` answered by the analytical estimator.
///
/// Latency is tallied **per outcome class**: `p50_ms`/`p95_ms`/
/// `p99_ms`/`mean_ms` cover successful (200) answers only — the
/// numbers an SLO is about — while refusals (503s, which a saturated
/// service returns in microseconds) report separately as
/// `refusal_*`. Folding both into one histogram would let a storm of
/// fast 503s drag the "latency" quantiles down precisely when the
/// service is at its worst. Transport failures are not timed at all:
/// their latency measures the client's timeout budget, not the
/// service.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Requests issued.
    pub sent: u64,
    /// 200 responses with a parseable `ppm-serve v1` body.
    pub ok: u64,
    /// The subset of `ok` flagged `"degraded": true`.
    pub degraded: u64,
    /// 503s from queue-full load shedding.
    pub shed: u64,
    /// 503s from deadline enforcement.
    pub deadline_exceeded: u64,
    /// Transport failures, non-JSON bodies, and unexpected statuses.
    pub errors: u64,
    /// Median successful-request latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile successful-request latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile successful-request latency in milliseconds.
    pub p99_ms: f64,
    /// Mean successful-request latency in milliseconds.
    pub mean_ms: f64,
    /// Median refusal (503) latency in milliseconds.
    pub refusal_p50_ms: f64,
    /// 99th-percentile refusal (503) latency in milliseconds.
    pub refusal_p99_ms: f64,
    /// Mean refusal (503) latency in milliseconds.
    pub refusal_mean_ms: f64,
    /// Whole-test wall time in milliseconds.
    pub wall_ms: f64,
    /// Achieved throughput in requests/second.
    pub rps: f64,
    /// End-to-end accounting cross-check, when one was run.
    pub trace_check: Option<TraceCheckReport>,
}

/// What the end-to-end accounting cross-check found: did the server's
/// own books (counter deltas on `/statusz`, retained records on
/// `/tracez`) agree with what this client observed?
#[derive(Debug, Clone)]
pub struct TraceCheckReport {
    /// The trace-ID prefix this run stamped on its requests.
    pub prefix: String,
    /// False when the check could not run (tracing disabled on the
    /// server, or its control routes were unreachable) — `mismatches`
    /// then holds the reason, not discrepancies.
    pub checked: bool,
    /// Retained `/tracez` records carrying this run's prefix.
    pub matched_traces: u64,
    /// Human-readable discrepancies; empty means the books balance.
    pub mismatches: Vec<String>,
}

impl TraceCheckReport {
    /// True when the check ran and found no discrepancies.
    pub fn passed(&self) -> bool {
        self.checked && self.mismatches.is_empty()
    }

    fn skipped(prefix: String, reason: String) -> Self {
        TraceCheckReport {
            prefix,
            checked: false,
            matched_traces: 0,
            mismatches: vec![reason],
        }
    }

    /// The check as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("prefix", Json::Str(self.prefix.clone())),
            ("checked", Json::Bool(self.checked)),
            ("matched_traces", Json::from(self.matched_traces)),
            (
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| Json::Str(m.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl LoadtestReport {
    /// The report as a JSON document (`ppm-loadtest v1`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("ppm-loadtest v1".to_string())),
            ("sent", Json::from(self.sent)),
            ("ok", Json::from(self.ok)),
            ("degraded", Json::from(self.degraded)),
            ("shed", Json::from(self.shed)),
            ("deadline_exceeded", Json::from(self.deadline_exceeded)),
            ("errors", Json::from(self.errors)),
            ("p50_ms", Json::Float(self.p50_ms)),
            ("p95_ms", Json::Float(self.p95_ms)),
            ("p99_ms", Json::Float(self.p99_ms)),
            ("mean_ms", Json::Float(self.mean_ms)),
            ("refusal_p50_ms", Json::Float(self.refusal_p50_ms)),
            ("refusal_p99_ms", Json::Float(self.refusal_p99_ms)),
            ("refusal_mean_ms", Json::Float(self.refusal_mean_ms)),
            ("wall_ms", Json::Float(self.wall_ms)),
            ("rps", Json::Float(self.rps)),
            (
                "trace_check",
                Json::from(self.trace_check.as_ref().map(TraceCheckReport::to_json)),
            ),
        ])
    }

    /// A `ppm-bench v1` record carrying the p99 latency of successful
    /// answers — the SLO number the regression sentry gates on.
    pub fn bench_record(&self) -> BenchRecord {
        BenchRecord {
            bench: "serve_latency_p99".to_string(),
            unit: "ms".to_string(),
            wall_ms: self.p99_ms,
            source_run: "loadtest".to_string(),
            created_unix_ms: unix_now_ms(),
        }
    }
}

/// Shared tallies the worker threads bump.
#[derive(Default)]
struct Tallies {
    ok: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    errors: AtomicU64,
}

/// Runs the loadtest to completion and reports.
///
/// # Errors
///
/// [`ServeError::Client`] when the configuration is unusable (zero
/// requests or workers) or when *every* request failed at the transport
/// layer — the address is almost certainly wrong, and a report full of
/// zeros would bury that.
pub fn run_loadtest(config: &LoadtestConfig) -> Result<LoadtestReport, ServeError> {
    if config.requests == 0 || config.concurrency == 0 {
        return Err(ServeError::Client(
            "loadtest wants at least one request and one worker".to_string(),
        ));
    }
    let tallies = Tallies::default();
    // A scoped registry: loadtest latency must not pollute the global
    // metrics of whatever process embeds this (tests, the CLI). One
    // histogram per outcome class — see the report docs for why they
    // must not share one.
    let registry = Registry::new();
    let ok_latency_us = registry.histogram("loadtest.latency.ok.us");
    let refusal_latency_us = registry.histogram("loadtest.latency.refused.us");
    // The accounting cross-check brackets the run with /statusz
    // snapshots; the "before" counters also make the trace-ID prefix
    // unique across consecutive runs against the same server.
    let before = if config.trace_check {
        // A failed snapshot (e.g. the shed-all drill refuses control
        // routes too) downgrades the check to "skipped", never the
        // whole loadtest.
        Some(statusz_counters(config))
    } else {
        None
    };
    let prefix = match &before {
        Some(Ok(b)) => Some(format!(
            "{}-{}",
            config.trace_prefix,
            b.get("requests").copied().unwrap_or(0)
        )),
        _ => None,
    };
    let wall = Stopwatch::start();
    std::thread::scope(|scope| {
        for worker in 0..config.concurrency {
            let tallies = &tallies;
            let ok_latency_us = &ok_latency_us;
            let refusal_latency_us = &refusal_latency_us;
            let prefix = prefix.as_deref();
            scope.spawn(move || {
                let mut k = worker;
                while k < config.requests {
                    if config.rate > 0.0 {
                        // Open loop: request k launches at start + k/rate,
                        // regardless of how earlier requests are doing.
                        let due =
                            wall.deadline_after(Duration::from_secs_f64(k as f64 / config.rate));
                        let lag = due.remaining();
                        if !lag.is_zero() {
                            std::thread::sleep(lag);
                        }
                    }
                    // lint:allow(panic-reachability) k % len is in bounds
                    let rob = ROB_SIZES[k % ROB_SIZES.len()];
                    let path = match config.deadline_ms {
                        Some(ms) => format!("/predict?rob={rob}&deadline_ms={ms}"),
                        None => format!("/predict?rob={rob}"),
                    };
                    let request = Stopwatch::start();
                    let outcome = match prefix {
                        Some(prefix) => http_request_full(
                            &config.addr,
                            "GET",
                            &path,
                            &[("X-Ppm-Trace", &format!("{prefix}-{k}"))],
                            config.timeout,
                        )
                        .map(|r| (r.status, r.body)),
                        None => http_get(&config.addr, &path, config.timeout),
                    };
                    let elapsed_us = request.elapsed_us();
                    match classify(tallies, &outcome) {
                        Outcome::Ok => ok_latency_us.record(elapsed_us),
                        Outcome::Refusal => refusal_latency_us.record(elapsed_us),
                        Outcome::Error => {}
                    }
                    k += config.concurrency;
                }
            });
        }
    });
    let wall_ms = wall.elapsed_us() as f64 / 1000.0;
    let sent = config.requests as u64;
    let errors = tallies.errors.load(Ordering::Relaxed);
    if errors == sent {
        return Err(ServeError::Client(format!(
            "all {sent} requests to {} failed; is the service up?",
            config.addr
        )));
    }
    let q = |p: f64| ok_latency_us.quantile(p).unwrap_or(0) as f64 / 1000.0;
    let rq = |p: f64| refusal_latency_us.quantile(p).unwrap_or(0) as f64 / 1000.0;
    let trace_check = match before {
        None => None,
        Some(Err(reason)) => Some(TraceCheckReport::skipped(
            prefix.unwrap_or_default(),
            reason,
        )),
        Some(Ok(before)) => Some(cross_check(
            config,
            &tallies,
            &before,
            prefix.unwrap_or_default(),
        )),
    };
    Ok(LoadtestReport {
        sent,
        ok: tallies.ok.load(Ordering::Relaxed),
        degraded: tallies.degraded.load(Ordering::Relaxed),
        shed: tallies.shed.load(Ordering::Relaxed),
        deadline_exceeded: tallies.deadline_exceeded.load(Ordering::Relaxed),
        errors,
        p50_ms: q(0.50),
        p95_ms: q(0.95),
        p99_ms: q(0.99),
        mean_ms: ok_latency_us.mean().unwrap_or(0.0) / 1000.0,
        refusal_p50_ms: rq(0.50),
        refusal_p99_ms: rq(0.99),
        refusal_mean_ms: refusal_latency_us.mean().unwrap_or(0.0) / 1000.0,
        wall_ms,
        rps: if wall_ms > 0.0 {
            sent as f64 / (wall_ms / 1000.0)
        } else {
            0.0
        },
        trace_check,
    })
}

/// Fetches `/statusz` and flattens the counters the accounting check
/// compares: top-level request-outcome totals plus `trace.enabled`.
fn statusz_counters(
    config: &LoadtestConfig,
) -> Result<std::collections::BTreeMap<&'static str, u64>, String> {
    let (status, body) = http_get(&config.addr, "/statusz", config.timeout)
        .map_err(|e| format!("/statusz unreachable: {e}"))?;
    if status != 200 {
        return Err(format!("/statusz answered {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("/statusz is not JSON: {e}"))?;
    let field = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut out = std::collections::BTreeMap::new();
    out.insert("requests", field("requests"));
    out.insert("ok", field("ok"));
    out.insert("shed", field("shed"));
    out.insert("degraded", field("degraded"));
    out.insert("deadline_exceeded", field("deadline_exceeded"));
    out.insert(
        "trace_enabled",
        u64::from(
            doc.get("trace")
                .and_then(|t| t.get("enabled"))
                .and_then(Json::as_bool)
                .unwrap_or(false),
        ),
    );
    Ok(out)
}

/// Balances the books after a run: server-side counter deltas must
/// equal this client's tallies, and `/tracez` must have retained a
/// record for every deadline refusal this client was handed (those are
/// never sampled out and carry the client's own trace IDs).
fn cross_check(
    config: &LoadtestConfig,
    tallies: &Tallies,
    before: &std::collections::BTreeMap<&'static str, u64>,
    prefix: String,
) -> TraceCheckReport {
    // The server offers a request's trace record (and bumps SLO slots)
    // *after* writing the response, so the instant the client sees its
    // last answer the server-side books may still be settling. Give
    // them a beat.
    std::thread::sleep(Duration::from_millis(50));
    let after = match statusz_counters(config) {
        Ok(after) => after,
        Err(reason) => {
            return TraceCheckReport::skipped(prefix, format!("post-run {reason}"));
        }
    };
    let mut mismatches = Vec::new();
    let errors = tallies.errors.load(Ordering::Relaxed);
    if errors > 0 {
        // A transport error leaves the client blind to what the server
        // recorded (it may have answered after our timeout), so exact
        // accounting is impossible — don't pretend otherwise.
        return TraceCheckReport::skipped(
            prefix,
            format!("{errors} transport errors make exact accounting impossible"),
        );
    }
    let delta = |key: &str| {
        after
            .get(key)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(key).copied().unwrap_or(0))
    };
    for (key, client) in [
        ("ok", tallies.ok.load(Ordering::Relaxed)),
        ("shed", tallies.shed.load(Ordering::Relaxed)),
        ("degraded", tallies.degraded.load(Ordering::Relaxed)),
        (
            "deadline_exceeded",
            tallies.deadline_exceeded.load(Ordering::Relaxed),
        ),
    ] {
        let server = delta(key);
        if server != client {
            mismatches.push(format!(
                "{key}: client saw {client}, server counted {server}"
            ));
        }
    }
    if before.get("trace_enabled").copied().unwrap_or(0) == 0 {
        return TraceCheckReport {
            prefix,
            checked: true,
            matched_traces: 0,
            mismatches,
        };
    }
    // Tracing is on: every deadline refusal the client saw must be
    // retrievable by the client's own trace ID.
    let path = format!("/tracez?id_prefix={prefix}&limit={}", config.requests);
    let mut matched_traces = 0;
    match http_get(&config.addr, &path, config.timeout) {
        Ok((200, body)) => match Json::parse(&body) {
            Ok(doc) => {
                let records = doc
                    .get("records")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec();
                matched_traces = records.len() as u64;
                let deadline_traces = records
                    .iter()
                    .filter(|r| r.get("outcome").and_then(Json::as_str) == Some("deadline_expired"))
                    .count() as u64;
                let client_deadline = tallies.deadline_exceeded.load(Ordering::Relaxed);
                if deadline_traces != client_deadline {
                    mismatches.push(format!(
                        "deadline traces: client saw {client_deadline} refusals, \
                         /tracez retained {deadline_traces} with prefix {prefix}"
                    ));
                }
            }
            Err(e) => mismatches.push(format!("/tracez is not JSON: {e}")),
        },
        Ok((status, _)) => mismatches.push(format!("/tracez answered {status}")),
        Err(e) => mismatches.push(format!("/tracez unreachable: {e}")),
    }
    TraceCheckReport {
        prefix,
        checked: true,
        matched_traces,
        mismatches,
    }
}

/// What an A/B overhead measurement produced: the same loadtest shape
/// against a traced and an untraced server, and the relative p99 cost.
#[derive(Debug, Clone)]
pub struct AbReport {
    /// The run against the traced server (`config.addr`).
    pub traced: LoadtestReport,
    /// The run against the baseline (`--no-trace`) server.
    pub baseline: LoadtestReport,
    /// `(traced p99 − baseline p99) / baseline p99`, in percent.
    /// Negative when the traced run was (noise) faster.
    pub overhead_pct: f64,
}

impl AbReport {
    /// A `ppm-bench v1` record carrying the measured p99 overhead.
    pub fn bench_record(&self) -> BenchRecord {
        BenchRecord {
            bench: "serve_trace_overhead_p99".to_string(),
            unit: "pct".to_string(),
            wall_ms: self.overhead_pct,
            source_run: "loadtest-ab".to_string(),
            created_unix_ms: unix_now_ms(),
        }
    }

    /// The A/B comparison as a JSON document (`ppm-loadtest-ab v1`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("ppm-loadtest-ab v1".to_string())),
            ("traced_p99_ms", Json::Float(self.traced.p99_ms)),
            ("baseline_p99_ms", Json::Float(self.baseline.p99_ms)),
            ("overhead_pct", Json::Float(self.overhead_pct)),
            ("traced", self.traced.to_json()),
            ("baseline", self.baseline.to_json()),
        ])
    }
}

/// Measures tracing overhead: runs `config` against its (traced)
/// address, then the identical shape against `baseline_addr` (expected
/// to be the same model served with `--no-trace`), and compares p99s.
///
/// # Errors
///
/// Whatever [`run_loadtest`] reports for either leg.
pub fn run_ab(config: &LoadtestConfig, baseline_addr: &str) -> Result<AbReport, ServeError> {
    let traced = run_loadtest(config)?;
    let mut baseline_config = config.clone();
    baseline_config.addr = baseline_addr.to_string();
    // The baseline leg has tracing off by definition; checking would
    // only report "skipped" noise.
    baseline_config.trace_check = false;
    let baseline = run_loadtest(&baseline_config)?;
    let overhead_pct = if baseline.p99_ms > 0.0 {
        (traced.p99_ms - baseline.p99_ms) / baseline.p99_ms * 100.0
    } else {
        0.0
    };
    Ok(AbReport {
        traced,
        baseline,
        overhead_pct,
    })
}

/// Which latency histogram a response belongs to.
enum Outcome {
    /// A successful (200) prediction.
    Ok,
    /// An explicit 503 refusal (shed or deadline-exceeded).
    Refusal,
    /// A transport failure or malformed answer; not timed.
    Error,
}

/// Buckets one response. 503 bodies distinguish shedding from deadline
/// enforcement by their `error` text — both are explicit refusals, but
/// they indict different defenses.
fn classify(tallies: &Tallies, outcome: &Result<(u16, String), ppm_live::LiveError>) -> Outcome {
    match outcome {
        Ok((200, body)) => match Json::parse(body) {
            Ok(doc) if doc.get("prediction").and_then(Json::as_f64).is_some() => {
                tallies.ok.fetch_add(1, Ordering::Relaxed);
                if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
                    tallies.degraded.fetch_add(1, Ordering::Relaxed);
                }
                Outcome::Ok
            }
            _ => {
                tallies.errors.fetch_add(1, Ordering::Relaxed);
                Outcome::Error
            }
        },
        Ok((503, body)) => {
            if body.contains("deadline") {
                tallies.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            } else {
                tallies.shed.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Refusal
        }
        _ => {
            tallies.errors.fetch_add(1, Ordering::Relaxed);
            Outcome::Error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, ServeServer};
    use ppm_workload::Benchmark;

    fn analytical_server(tag: &str) -> ServeServer {
        let registry = std::env::temp_dir()
            .join(format!("ppm-loadtest-{tag}-{}", std::process::id()))
            .join("registry");
        ServeServer::start(ServeConfig {
            registry,
            fallback_benchmark: Some(Benchmark::Ammp),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn closed_loop_measures_a_live_service() {
        let server = analytical_server("closed");
        let report = run_loadtest(&LoadtestConfig {
            addr: server.addr().to_string(),
            requests: 24,
            concurrency: 3,
            ..LoadtestConfig::default()
        })
        .unwrap();
        assert_eq!(report.sent, 24);
        assert_eq!(
            report.ok + report.shed + report.deadline_exceeded + report.errors,
            24,
            "every request is classified exactly once"
        );
        assert!(report.ok > 0, "{report:?}");
        // Analytical-only service: every OK answer is degraded.
        assert_eq!(report.degraded, report.ok);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.rps > 0.0);
        let bench = report.bench_record();
        assert_eq!(bench.bench, "serve_latency_p99");
        assert_eq!(bench.wall_ms, report.p99_ms);
        // The accounting cross-check ran against the (traced) server
        // and the books balanced.
        let check = report.trace_check.as_ref().expect("check ran");
        assert!(check.passed(), "{check:?}");
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-loadtest v1")
        );
        assert!(doc.get("trace_check").is_some());
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let server = analytical_server("open");
        let wall = Stopwatch::start();
        let report = run_loadtest(&LoadtestConfig {
            addr: server.addr().to_string(),
            requests: 10,
            concurrency: 2,
            rate: 100.0,
            ..LoadtestConfig::default()
        })
        .unwrap();
        // 10 requests at 100/s: the last launches at t=90ms, so the
        // test cannot finish faster than its arrival schedule.
        assert!(
            wall.elapsed() >= Duration::from_millis(80),
            "open loop finished in {}ms",
            wall.elapsed_ms()
        );
        assert_eq!(report.sent, 10);
    }

    #[test]
    fn shed_all_server_times_refusals_separately_from_ok() {
        let registry = std::env::temp_dir()
            .join(format!("ppm-loadtest-shedall-{}", std::process::id()))
            .join("registry");
        let server = ServeServer::start(ServeConfig {
            registry,
            fallback_benchmark: Some(Benchmark::Ammp),
            queue_per_worker: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let report = run_loadtest(&LoadtestConfig {
            addr: server.addr().to_string(),
            requests: 16,
            concurrency: 2,
            ..LoadtestConfig::default()
        })
        .unwrap();
        assert_eq!(report.ok, 0, "{report:?}");
        assert_eq!(report.shed, 16, "{report:?}");
        // Control routes are shed too, so the accounting check must
        // downgrade itself to "skipped" rather than failing the run.
        let check = report.trace_check.as_ref().expect("check attempted");
        assert!(!check.checked, "{check:?}");
        // No successful sample: the OK quantiles have no evidence and
        // must stay empty instead of being filled by fast 503s.
        assert_eq!(report.p99_ms, 0.0, "{report:?}");
        assert!(report.refusal_p99_ms > 0.0, "{report:?}");
        assert!(report.refusal_p99_ms >= report.refusal_p50_ms);
    }

    #[test]
    fn unreachable_service_is_an_error_not_a_zero_report() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let err = run_loadtest(&LoadtestConfig {
            addr,
            requests: 3,
            concurrency: 1,
            timeout: Duration::from_millis(200),
            ..LoadtestConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");
    }

    #[test]
    fn zero_requests_or_workers_is_rejected() {
        let bad = LoadtestConfig {
            requests: 0,
            ..LoadtestConfig::default()
        };
        assert!(run_loadtest(&bad).is_err());
        let bad = LoadtestConfig {
            concurrency: 0,
            ..LoadtestConfig::default()
        };
        assert!(run_loadtest(&bad).is_err());
    }
}
