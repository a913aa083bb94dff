//! The prediction service: a deadline-enforced HTTP endpoint over a
//! sharded worker pool, with load shedding, graceful degradation, and
//! validated hot reload.
//!
//! # Request life cycle
//!
//! Every accepted connection is stamped with a [`Stopwatch`] *at
//! accept*, so time spent waiting in the worker queue counts against
//! the request's deadline. The accept thread offers the connection to a
//! [`ServicePool`]; when every shard queue is full the request is
//! **shed** — an immediate best-effort 503 instead of unbounded queueing
//! (`serve.shed`). A worker that picks the request up first checks the
//! deadline (expired-in-queue is a 503, not a stale answer), evaluates,
//! and checks again before replying.
//!
//! # The shed / degrade state machine
//!
//! Shedding and degradation are different defenses and trip
//! independently:
//!
//! * **Shed** protects *latency*: the queue is full, so the request is
//!   refused outright. No prediction is attempted.
//! * **Degrade** protects *availability of answers*: the request is
//!   served, but by the first-order analytical estimator instead of the
//!   RBF surrogate, and the response says so (`"degraded": true`).
//!
//! Degradation triggers on any of: no model loaded (analytical-only
//! startup), queue depth at or past `degrade_depth` (pressure), or a
//! *sticky* failure state entered after `fail_streak` consecutive model
//! evaluation failures (panic or non-finite prediction). Sticky
//! degradation probes the real model every `probe_every`-th prediction
//! and clears itself on the first success — recovery is automatic, no
//! operator action required.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ppm_core::fault::{FaultPlan, InjectedFault};
use ppm_core::space::DesignSpace;
use ppm_exec::{ServicePool, SubmitError};
use ppm_live::http::{
    read_request_head, split_query, write_response, write_response_with_headers, MAX_HEAD,
};
use ppm_sim::SimConfig;
use ppm_telemetry::{json_string, Counter, Histogram, Level, Record, Registry};
use ppm_workload::Benchmark;

use crate::chaos::ChaosClients;
use crate::clock::{unix_now_ms, unix_now_sec, Stopwatch};
use crate::store::{ModelStore, ServingModel};
use crate::trace::{
    render_tracez_disabled, SloTracker, SpanRec, TraceConfig, TraceContext, TraceFilter,
    TraceOutcome, TraceRecord, TraceRing,
};
use crate::ServeError;

/// Per-connection socket budget (same rationale as the live plane): a
/// client that cannot send a head or drain a response in this window is
/// dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

const JSON: &str = "application/json";
const TEXT: &str = "text/plain";

/// Everything `ppm serve` needs to start. Field defaults are tuned for
/// an interactive service on a developer machine; the CLI maps flags
/// onto them one-to-one.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads evaluating predictions.
    pub workers: usize,
    /// Bounded queue slots per worker; total queue capacity is
    /// `workers * queue_per_worker`, beyond which requests are shed.
    /// Zero is the explicit shed-all drill mode: the service accepts
    /// and refuses *every* request with a 503, which is how the
    /// loadtest's SLO gate is proven to fail (not pass vacuously)
    /// against a service that answers nothing.
    pub queue_per_worker: usize,
    /// Deadline applied when the request does not name one.
    pub default_deadline: Duration,
    /// Upper cap on client-requested deadlines (`?deadline_ms=`).
    pub max_deadline: Duration,
    /// Queue depth at which predictions degrade to the analytical
    /// estimator. Zero means *every* prediction is degraded — useful
    /// for drills and smoke tests.
    pub degrade_depth: usize,
    /// Consecutive model failures before degradation turns sticky.
    pub fail_streak: u32,
    /// While sticky, every n-th prediction probes the real model.
    pub probe_every: u64,
    /// The model registry directory (see [`crate::store`]).
    pub registry: PathBuf,
    /// Serve analytically when the registry has no loadable model.
    pub fallback_benchmark: Option<Benchmark>,
    /// Chaos-mode seed: injects worker faults and misbehaving clients.
    pub chaos: Option<u64>,
    /// Per-request tracing (`--no-trace` turns it off): span timelines
    /// in a tail-sampled ring, served at `GET /tracez`.
    pub trace: bool,
    /// Total trace-ring capacity across shards (`--trace-ring`).
    pub trace_ring: usize,
    /// Tail-sampling lottery for plain-OK traffic: keep 1 in this many.
    pub trace_sample: u64,
    /// Always keep the slowest N requests by total latency.
    pub trace_slow_keep: usize,
    /// Availability objective for the SLO tracker (`--slo-availability`),
    /// also the compliance fraction for the latency objective.
    pub slo_availability: f64,
    /// Latency objective (`--slo-latency-ms`): answered requests slower
    /// than this spend latency error budget.
    pub slo_latency: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_per_worker: 8,
            default_deadline: Duration::from_millis(250),
            max_deadline: Duration::from_secs(5),
            degrade_depth: 16,
            fail_streak: 3,
            probe_every: 16,
            registry: PathBuf::from("registry"),
            fallback_benchmark: None,
            chaos: None,
            trace: true,
            trace_ring: 4096,
            trace_sample: 64,
            trace_slow_keep: 32,
            slo_availability: 0.999,
            slo_latency: Duration::from_millis(100),
        }
    }
}

/// One accepted connection, stamped at accept so queueing time counts
/// against its deadline, and numbered at accept so shed requests have
/// a trace identity too.
struct Conn {
    stream: TcpStream,
    accepted: Stopwatch,
    seq: u64,
}

/// Pre-resolved counter handles in the server's own registry: the hot
/// path must not take the registry lock per request, and two servers in
/// one process must not share counts.
struct Counters {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    shed: Arc<Counter>,
    degraded: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    client_errors: Arc<Counter>,
    reloads: Arc<Counter>,
    reload_failures: Arc<Counter>,
    model_failures: Arc<Counter>,
    latency_us: Arc<Histogram>,
    // Labeled refusal/degradation series (the `base|key=value` registry
    // convention renders as `ppm_serve_shed{reason="..."}` on /metrics).
    // Aggregates above keep their historical meaning; these split them
    // by cause so saturation is distinguishable from deadline expiry
    // without reading logs.
    shed_queue_full: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    degraded_no_model: Arc<Counter>,
    degraded_depth: Arc<Counter>,
    degraded_fail_streak: Arc<Counter>,
    degraded_eval_failure: Arc<Counter>,
}

impl Counters {
    fn resolve(registry: &Registry) -> Self {
        Counters {
            requests: registry.counter("serve.requests"),
            ok: registry.counter("serve.ok"),
            shed: registry.counter("serve.shed"),
            degraded: registry.counter("serve.degraded"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            client_errors: registry.counter("serve.client_errors"),
            reloads: registry.counter("serve.reloads"),
            reload_failures: registry.counter("serve.reload_failures"),
            model_failures: registry.counter("serve.model_failures"),
            latency_us: registry.histogram("serve.latency.us"),
            shed_queue_full: registry.counter("serve.shed|reason=queue_full"),
            shed_deadline: registry.counter("serve.shed|reason=deadline"),
            degraded_no_model: registry.counter("serve.degraded|reason=no_model"),
            degraded_depth: registry.counter("serve.degraded|reason=degrade_depth"),
            degraded_fail_streak: registry.counter("serve.degraded|reason=fail_streak"),
            degraded_eval_failure: registry.counter("serve.degraded|reason=eval_failure"),
        }
    }
}

/// Shared service state: the store, the degrade state machine, and the
/// knobs the request path consults.
struct ServeState {
    store: ModelStore,
    addr: SocketAddr,
    // atomic-policy(stop): Release, Acquire — shutdown (quitz, drop,
    // chaos teardown) publishes the flag with Release; the accept
    // loop's Acquire load pairs with it so everything written before
    // the stop request is visible when the loop winds down.
    stop: Arc<AtomicBool>,
    space: DesignSpace,
    default_deadline: Duration,
    max_deadline: Duration,
    degrade_depth: usize,
    fail_streak: u32,
    probe_every: u64,
    workers: usize,
    queue_capacity: usize,
    fault: Option<FaultPlan>,
    /// Requests accepted but not yet picked up by a worker — the
    /// pressure signal behind both `/readyz` and depth degradation.
    // atomic-policy(queued): SeqCst — incremented before the submit and
    // decremented on both the worker and the shed path; one total order
    // keeps the gauge exact so /readyz never flaps on a stale read.
    queued: AtomicUsize,
    /// Monotonic request sequence; the chaos plan keys faults off it.
    seq: AtomicU64,
    /// Consecutive model-evaluation failures.
    // atomic-policy(streak): SeqCst, Relaxed — the failure counter's
    // increment must order with the sticky swap it may trigger; plain
    // resets stay Relaxed.
    streak: AtomicU32,
    /// Sticky degradation: set after `fail_streak` failures, cleared by
    /// a successful probe.
    // atomic-policy(sticky): AcqRel, Acquire, Release — the swap that
    // flips degradation acquires the failure state that justified it
    // and releases it to every later reader of the flag.
    sticky: AtomicBool,
    /// Counts predictions taken while sticky, to pace probes.
    probe_tick: AtomicU64,
    /// This server's instruments: the `serve.*` counters, the latency
    /// histogram, and the SLO gauges. `/metrics` renders them after the
    /// process-global snapshot.
    metrics: Registry,
    counters: Counters,
    /// The tail-sampled request-trace ring; `None` under `--no-trace`.
    trace: Option<TraceRing>,
    /// Multi-window SLO accounting (always on — it is a few atomics).
    slo: SloTracker,
}

/// A running prediction service. [`ServeServer::wait`] blocks until the
/// service stops (`POST /quitz` or [`ServeServer::shutdown`]); dropping
/// the handle shuts it down.
pub struct ServeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    chaos: Option<ChaosClients>,
}

impl ServeServer {
    /// Opens the registry, binds the address, and starts the accept
    /// thread and worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when no model loads and no fallback
    /// benchmark is configured; [`ServeError::Bind`] when the address
    /// cannot be bound; [`ServeError::Pool`] when the worker pool is
    /// misconfigured (zero workers with a non-zero queue; a zero queue
    /// is the shed-all drill mode, not an error).
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        let store = ModelStore::open(&config.registry, config.fallback_benchmark)?;
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind {
            addr: config.addr.clone(),
            detail: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| ServeError::Bind {
            addr: config.addr.clone(),
            detail: e.to_string(),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Registry::new();
        let counters = Counters::resolve(&metrics);
        let state = Arc::new(ServeState {
            store,
            addr,
            stop: Arc::clone(&stop),
            space: DesignSpace::paper_table1(),
            default_deadline: config.default_deadline,
            max_deadline: config.max_deadline,
            degrade_depth: config.degrade_depth,
            fail_streak: config.fail_streak.max(1),
            probe_every: config.probe_every.max(1),
            workers: config.workers,
            queue_capacity: config.workers * config.queue_per_worker,
            fault: config.chaos.map(crate::chaos::fault_plan),
            queued: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            streak: AtomicU32::new(0),
            sticky: AtomicBool::new(false),
            probe_tick: AtomicU64::new(0),
            metrics,
            counters,
            trace: (config.trace && config.trace_ring > 0).then(|| {
                TraceRing::new(TraceConfig {
                    capacity: config.trace_ring,
                    sample_one_in: config.trace_sample,
                    slow_keep: config.trace_slow_keep,
                })
            }),
            slo: SloTracker::new(
                config.slo_availability.clamp(0.0, 1.0 - 1e-9),
                u64::try_from(config.slo_latency.as_micros()).unwrap_or(u64::MAX),
            ),
        });
        // `queue_per_worker == 0` means shed-all: no pool at all, the
        // accept loop refuses everything. Going through ServicePool
        // would be rejected as a zero-slot queue, and rightly so — this
        // mode is a drill, not a degenerate pool.
        let pool = if config.queue_per_worker == 0 {
            None
        } else {
            let worker_state = Arc::clone(&state);
            Some(
                ServicePool::with_worker_ids(
                    "serve",
                    config.workers,
                    config.queue_per_worker,
                    move |worker, conn: Conn| {
                        worker_state.queued.fetch_sub(1, Ordering::SeqCst);
                        // Panic containment with a paper trail: the pool
                        // already catches handler panics, but a request
                        // lost to one would vanish from the trace ring.
                        // Pre-copy the identity, catch, record, and
                        // re-raise so `exec.serve.worker_panics` still
                        // counts it.
                        let (seq, accepted) = (conn.seq, conn.accepted);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&worker_state, conn, worker);
                        }));
                        if let Err(panic) = outcome {
                            if let Some(ring) = &worker_state.trace {
                                ring.offer(TraceRecord {
                                    id: TraceContext::new(seq, None).id,
                                    seq,
                                    route: "(worker panic)".to_string(),
                                    outcome: TraceOutcome::PanicContained,
                                    status: 0,
                                    detail: "request handler panicked".to_string(),
                                    worker: Some(worker),
                                    total_us: accepted.elapsed_us(),
                                    spans: vec![SpanRec {
                                        name: "accept",
                                        start_us: 0,
                                        dur_us: accepted.elapsed_us(),
                                    }],
                                    unix_ms: unix_now_ms(),
                                });
                            }
                            worker_state
                                .slo
                                .observe(unix_now_sec(), false, accepted.elapsed_us());
                            std::panic::resume_unwind(panic);
                        }
                    },
                )
                .map_err(|e| ServeError::Pool(e.to_string()))?,
            )
        };
        let accept_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("ppm-serve".to_string())
            .spawn(move || accept_loop(&listener, pool.as_ref(), &accept_state))
            .map_err(|e| ServeError::Bind {
                addr: config.addr.clone(),
                detail: format!("cannot spawn accept thread: {e}"),
            })?;
        let chaos = config
            .chaos
            .map(|seed| ChaosClients::start(addr, seed, Arc::clone(&stop)));
        Ok(ServeServer {
            addr,
            stop,
            handle: Some(handle),
            chaos,
        })
    }

    /// The actually bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the service stops — via `POST /quitz` or a signal
    /// from another thread holding [`ServeServer::shutdown`].
    pub fn wait(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.stop.store(true, Ordering::Release);
        drop(self.chaos.take());
    }

    /// Stops accepting, drains queued requests, and joins every thread
    /// (workers, accept loop, chaos clients).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        drop(self.chaos.take());
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, pool: Option<&ServicePool<Conn>>, state: &Arc<ServeState>) {
    for conn in listener.incoming() {
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                client_error(state, "accept", &e.to_string());
                continue;
            }
        };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        state.counters.requests.inc();
        state.queued.fetch_add(1, Ordering::SeqCst);
        let mut conn = Conn {
            stream,
            accepted: Stopwatch::start(),
            // Numbered at accept so every request — shed ones included —
            // has a deterministic trace identity, and so the chaos plan
            // keys faults off the true arrival order.
            seq: state.seq.fetch_add(1, Ordering::Relaxed),
        };
        let Some(pool) = pool else {
            // Shed-all drill mode: refuse without a pool to queue into.
            // Unlike saturation shedding, drain the request head first:
            // closing with unread bytes in the socket makes the kernel
            // send RST, which clients see as a transport error instead
            // of a 503. The slowloris argument for head-blind shedding
            // does not apply here — there is no queue to protect.
            state.queued.fetch_sub(1, Ordering::SeqCst);
            let mut scratch = [0u8; 1024];
            let _ = std::io::Read::read(&mut conn.stream, &mut scratch);
            shed(state, conn);
            continue;
        };
        match pool.try_submit(conn) {
            Ok(()) => {}
            Err(SubmitError::Saturated(conn)) => {
                state.queued.fetch_sub(1, Ordering::SeqCst);
                shed(state, conn);
            }
            Err(SubmitError::Closed(conn)) => {
                state.queued.fetch_sub(1, Ordering::SeqCst);
                shed(state, conn);
                break;
            }
        }
    }
    // Dropping the pool here drains already-queued connections and
    // joins the workers, so accepted requests still get answers.
}

/// Sheds an accepted connection: an immediate 503 without reading the
/// request head. Control routes shed too under saturation — a deliberate
/// tradeoff: reading heads on the accept thread would let one slowloris
/// stall every queue decision. Because the head stays unread, a shed
/// request's trace record carries the seq-derived ID, never a
/// client-supplied one — clients correlate sheds by count, not by ID.
fn shed(state: &ServeState, conn: Conn) {
    state.counters.shed.inc();
    state.counters.shed_queue_full.inc();
    let Conn {
        mut stream,
        accepted,
        seq,
    } = conn;
    let ctx = TraceContext::new(seq, None);
    let body = format!(
        "{{\"error\":\"shed: request queue full\",\"queued\":{},\"trace_id\":{}}}\n",
        state.queued.load(Ordering::SeqCst),
        json_string(&ctx.id)
    );
    let write_start = accepted.elapsed_us();
    let write_ok = write_response_with_headers(
        &mut stream,
        503,
        JSON,
        &[("X-Ppm-Trace", ctx.id.as_str())],
        &body,
    )
    .is_ok();
    let total_us = accepted.elapsed_us();
    if let Some(ring) = &state.trace {
        ring.offer(TraceRecord {
            id: ctx.id,
            seq,
            route: "(shed)".to_string(),
            outcome: TraceOutcome::Shed,
            status: if write_ok { 503 } else { 0 },
            detail: "request queue full".to_string(),
            worker: None,
            total_us,
            spans: vec![
                SpanRec {
                    name: "accept",
                    start_us: 0,
                    dur_us: 0,
                },
                SpanRec {
                    name: "write",
                    start_us: write_start,
                    dur_us: total_us.saturating_sub(write_start),
                },
            ],
            unix_ms: unix_now_ms(),
        });
    }
    state.slo.observe(unix_now_sec(), false, total_us);
}

/// Records a client-side failure: counter plus a `Warn` event. Client
/// misbehaviour must cost at most its own request.
fn client_error(state: &ServeState, op: &str, detail: &str) {
    state.counters.client_errors.inc();
    ppm_telemetry::event!(
        Level::Warn,
        "serve.client_error",
        "op" => op,
        "detail" => detail,
    );
}

/// Records a finished request into the trace ring and — for the
/// prediction surface — the SLO tracker.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    state: &ServeState,
    ctx: TraceContext,
    route: &str,
    outcome: TraceOutcome,
    status: u16,
    detail: String,
    worker: usize,
    spans: Vec<SpanRec>,
    total_us: u64,
) {
    if route == "/predict" {
        // Availability budget: a 200 (full-fidelity or degraded) is an
        // answer; sheds, deadline misses, and 5xx spend budget. Client
        // errors (4xx) spend nothing — the request was never servable.
        if status == 200 || status >= 500 {
            state.slo.observe(unix_now_sec(), status == 200, total_us);
        }
        if status == 200 {
            // Exemplar hook: the latency histogram remembers the trace
            // ID of the worst request this scrape window.
            state.counters.latency_us.record_tagged(total_us, &ctx.id);
        }
    }
    if let Some(ring) = &state.trace {
        ring.offer(TraceRecord {
            id: ctx.id,
            seq: ctx.seq,
            route: route.to_string(),
            outcome,
            status,
            detail,
            worker: Some(worker),
            total_us,
            spans,
            unix_ms: unix_now_ms(),
        });
    }
}

fn handle_connection(state: &Arc<ServeState>, conn: Conn, worker: usize) {
    let Conn {
        mut stream,
        accepted,
        seq,
    } = conn;
    let picked_up_us = accepted.elapsed_us();
    let head = match read_request_head(&mut stream, MAX_HEAD) {
        Ok(head) => head,
        Err(detail) => {
            client_error(state, "read", &detail);
            let _ = write_response(&mut stream, 400, TEXT, "bad request\n");
            finish_request(
                state,
                TraceContext::new(seq, None),
                "(unreadable)",
                TraceOutcome::Ok,
                400,
                detail,
                worker,
                vec![SpanRec {
                    name: "queue_wait",
                    start_us: 0,
                    dur_us: picked_up_us,
                }],
                accepted.elapsed_us(),
            );
            return;
        }
    };
    let ctx = TraceContext::new(seq, head.header("x-ppm-trace"));
    let mut parts = head.line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (route, pairs) = split_query(target);
    let eval_start_us = accepted.elapsed_us();
    let (status, content_type, body, outcome, detail) = match (method, route) {
        ("GET", "/predict") => predict(state, &accepted, &pairs, seq, &ctx.id),
        ("GET", "/healthz") => plain(200, TEXT, "ok\n".to_string()),
        ("GET", "/readyz") => {
            let (status, ct, body) = readyz(state);
            plain(status, ct, body)
        }
        ("GET", "/metrics") => {
            state.slo.publish_gauges(unix_now_sec(), &state.metrics);
            let mut records = ppm_telemetry::snapshot();
            records.extend(state.metrics.snapshot());
            let text = ppm_live::render_prometheus(&records);
            // The scrape closes this exemplar window: the next one
            // tracks the worst request *since this scrape*.
            let _ = state.counters.latency_us.take_exemplar();
            plain(200, "text/plain; version=0.0.4", text)
        }
        ("GET", "/statusz") => plain(200, JSON, statusz(state)),
        ("GET", "/tracez") => tracez(state, &pairs),
        ("GET", "/") => plain(
            200,
            TEXT,
            "ppm serve: GET /predict /healthz /readyz /metrics /statusz /tracez; \
             POST /reloadz /quitz\n"
                .to_string(),
        ),
        ("POST", "/reloadz") => {
            let (status, ct, body) = reloadz(state);
            plain(status, ct, body)
        }
        ("POST", "/quitz") => {
            let write_start = accepted.elapsed_us();
            let _ = write_response_with_headers(
                &mut stream,
                200,
                TEXT,
                &[("X-Ppm-Trace", ctx.id.as_str())],
                "stopping\n",
            );
            drop(stream);
            finish_request(
                state,
                ctx,
                route,
                TraceOutcome::Ok,
                200,
                String::new(),
                worker,
                request_spans(picked_up_us, eval_start_us, write_start, write_start),
                accepted.elapsed_us(),
            );
            state.stop.store(true, Ordering::Release);
            // Wake the blocking accept so it observes the stop flag.
            let _ = TcpStream::connect_timeout(&state.addr, IO_TIMEOUT);
            return;
        }
        (_, "/predict" | "/healthz" | "/readyz" | "/metrics" | "/statusz" | "/tracez" | "/") => {
            plain(
                405,
                TEXT,
                format!("method {method} not allowed on {route}\n"),
            )
        }
        (_, "/reloadz" | "/quitz") => {
            plain(405, TEXT, format!("{route} is POST-only (got {method})\n"))
        }
        _ => plain(404, TEXT, format!("no route {route}\n")),
    };
    let write_start_us = accepted.elapsed_us();
    if let Err(detail) = write_response_with_headers(
        &mut stream,
        status,
        content_type,
        &[("X-Ppm-Trace", ctx.id.as_str())],
        &body,
    ) {
        client_error(state, "write", &detail);
    }
    let total_us = accepted.elapsed_us();
    finish_request(
        state,
        ctx,
        route,
        outcome,
        status,
        detail,
        worker,
        request_spans(picked_up_us, eval_start_us, write_start_us, total_us),
        total_us,
    );
}

/// The standard four-step request timeline, as offsets from accept.
fn request_spans(
    picked_up_us: u64,
    eval_start_us: u64,
    write_start_us: u64,
    total_us: u64,
) -> Vec<SpanRec> {
    vec![
        SpanRec {
            name: "accept",
            start_us: 0,
            dur_us: 0,
        },
        SpanRec {
            name: "queue_wait",
            start_us: 0,
            dur_us: picked_up_us,
        },
        SpanRec {
            name: "eval",
            start_us: eval_start_us,
            dur_us: write_start_us.saturating_sub(eval_start_us),
        },
        SpanRec {
            name: "write",
            start_us: write_start_us,
            dur_us: total_us.saturating_sub(write_start_us),
        },
    ]
}

/// Wraps a non-prediction response in the uniform (status, content
/// type, body, outcome, detail) shape the trace layer consumes.
fn plain(
    status: u16,
    content_type: &'static str,
    body: String,
) -> (u16, &'static str, String, TraceOutcome, String) {
    (status, content_type, body, TraceOutcome::Ok, String::new())
}

/// `GET /tracez`: the tail-sampled request feed. Query surface:
/// `?outcome=shed|deadline_expired|degraded|panic_contained|ok`,
/// `min_ms=`/`min_us=`, `id_prefix=`, `since_seq=`, `limit=`, and
/// `format=chrome` for a Perfetto-loadable export of the (filtered)
/// records.
fn tracez(
    state: &ServeState,
    pairs: &[(&str, &str)],
) -> (u16, &'static str, String, TraceOutcome, String) {
    let Some(ring) = &state.trace else {
        return plain(200, JSON, render_tracez_disabled());
    };
    let mut filter = TraceFilter::default();
    let mut chrome = false;
    for (key, value) in pairs {
        match *key {
            "outcome" => match TraceOutcome::parse(value) {
                Some(o) => filter.outcome = Some(o),
                None => {
                    let (s, ct, b) = bad_request(&format!("unknown outcome {value:?}"));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            },
            "min_ms" => match value.parse::<u64>() {
                Ok(ms) => filter.min_us = Some(ms.saturating_mul(1000)),
                Err(_) => {
                    let (s, ct, b) =
                        bad_request(&format!("min_ms wants an integer, got {value:?}"));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            },
            "min_us" => match value.parse::<u64>() {
                Ok(us) => filter.min_us = Some(us),
                Err(_) => {
                    let (s, ct, b) =
                        bad_request(&format!("min_us wants an integer, got {value:?}"));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            },
            "id_prefix" => filter.id_prefix = Some((*value).to_string()),
            "since_seq" => match value.parse::<u64>() {
                Ok(seq) => filter.since_seq = Some(seq),
                Err(_) => {
                    let (s, ct, b) =
                        bad_request(&format!("since_seq wants an integer, got {value:?}"));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            },
            "limit" => match value.parse::<usize>() {
                Ok(n) => filter.limit = Some(n),
                Err(_) => {
                    let (s, ct, b) = bad_request(&format!("limit wants an integer, got {value:?}"));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            },
            "format" => match *value {
                "chrome" => chrome = true,
                "json" => chrome = false,
                other => {
                    let (s, ct, b) =
                        bad_request(&format!("format wants json or chrome, got {other:?}"));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            },
            other => {
                let (s, ct, b) = bad_request(&format!("unknown parameter {other:?}"));
                return (s, ct, b, TraceOutcome::Ok, String::new());
            }
        }
    }
    if chrome {
        plain(200, JSON, chrome_export(&ring.snapshot(&filter)))
    } else {
        plain(200, JSON, ring.render_tracez(&filter))
    }
}

/// Renders trace records through the `ppm-obs` Chrome-trace writer:
/// one lane (tid) per request, the request's trace ID as the top-level
/// slice, span steps nested under it — drop the JSON into Perfetto and
/// a single bad request becomes a picture.
fn chrome_export(records: &[TraceRecord]) -> String {
    let recorder = ppm_obs::FlightRecorder::new();
    let mut sink = recorder.sink();
    for (lane, rec) in records.iter().enumerate() {
        let tid = lane as u64;
        let label = format!("{} [{}]", rec.id, rec.outcome.as_str());
        sink.record(&Record::Span {
            name: label.clone(),
            us: rec.total_us.max(1),
            start_us: 0,
            tid,
            cpu_us: None,
            depth: 0,
            parent: None,
        });
        for span in &rec.spans {
            sink.record(&Record::Span {
                name: span.name.to_string(),
                us: span.dur_us.max(1),
                start_us: span.start_us,
                tid,
                cpu_us: None,
                depth: 1,
                parent: Some(label.clone()),
            });
        }
    }
    recorder.chrome_trace_json()
}

/// Why a model evaluation did not produce a usable prediction.
enum EvalFailure {
    Panicked,
    NonFinite(f64),
    WrongDim { model: usize, space: usize },
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalFailure::Panicked => write!(f, "evaluation panicked"),
            EvalFailure::NonFinite(v) => write!(f, "prediction was {v}"),
            EvalFailure::WrongDim { model, space } => {
                write!(
                    f,
                    "model dimension {model} does not match the space ({space})"
                )
            }
        }
    }
}

/// Runs the real RBF prediction, routing any chaos fault scheduled for
/// this sequence number through the same failure paths a genuinely
/// broken model would take.
fn evaluate_real(
    state: &ServeState,
    model: &ServingModel,
    config: &SimConfig,
    seq: u64,
) -> Result<f64, EvalFailure> {
    let network = match model.network.as_ref() {
        Some(network) => network,
        None => return Err(EvalFailure::WrongDim { model: 0, space: 0 }),
    };
    let unit = unit_point(state, config);
    if network.dim() != unit.len() {
        return Err(EvalFailure::WrongDim {
            model: network.dim(),
            space: unit.len(),
        });
    }
    let fault = state
        .fault
        .as_ref()
        .and_then(|plan| plan.fault_at_index(seq));
    if fault == Some(InjectedFault::Slow) {
        // A slow evaluation, not a broken one: the post-evaluation
        // deadline check decides whether the answer is still useful.
        if let Some(plan) = &state.fault {
            std::thread::sleep(plan.slow_delay);
        }
    }
    let value = catch_unwind(AssertUnwindSafe(|| {
        if fault == Some(InjectedFault::Panic) {
            // Chaos mode deliberately exercises the worker's panic
            // containment. lint:allow(panic-path): injected fault
            panic!("chaos: injected evaluation panic");
        }
        match fault {
            Some(InjectedFault::Nan) => f64::NAN,
            Some(InjectedFault::Inf) => f64::INFINITY,
            _ => network.predict(&unit),
        }
    }))
    .map_err(|_| EvalFailure::Panicked)?;
    if !value.is_finite() {
        return Err(EvalFailure::NonFinite(value));
    }
    Ok(value)
}

/// The unit design point the RBF expects, in Table 1 parameter order.
fn unit_point(state: &ServeState, config: &SimConfig) -> Vec<f64> {
    let actual = vec![
        f64::from(config.pipe_depth),
        f64::from(config.rob_size),
        config.iq_frac,
        config.lsq_frac,
        f64::from(config.l2_size_kb),
        f64::from(config.l2_lat),
        f64::from(config.il1_size_kb),
        f64::from(config.dl1_size_kb),
        f64::from(config.dl1_lat),
    ];
    state.space.params().to_unit(&actual)
}

/// Builds a simulator configuration from query parameters, defaulting
/// every knob the request does not name.
fn config_from_pairs(pairs: &[(&str, &str)]) -> Result<SimConfig, String> {
    let default = SimConfig::default();
    let mut builder = SimConfig::builder()
        .pipe_depth(default.pipe_depth)
        .rob_size(default.rob_size)
        .iq_frac(default.iq_frac)
        .lsq_frac(default.lsq_frac)
        .l2_size_kb(default.l2_size_kb)
        .l2_lat(default.l2_lat)
        .il1_size_kb(default.il1_size_kb)
        .dl1_size_kb(default.dl1_size_kb)
        .dl1_lat(default.dl1_lat);
    fn int(key: &str, value: &str) -> Result<u32, String> {
        value
            .parse::<u32>()
            .map_err(|_| format!("{key} wants an integer, got {value:?}"))
    }
    fn frac(key: &str, value: &str) -> Result<f64, String> {
        value
            .parse::<f64>()
            .map_err(|_| format!("{key} wants a number, got {value:?}"))
    }
    for (key, value) in pairs {
        builder = match *key {
            "deadline_ms" => builder,
            "depth" => builder.pipe_depth(int(key, value)?),
            "rob" => builder.rob_size(int(key, value)?),
            "iq" => builder.iq_frac(frac(key, value)?),
            "lsq" => builder.lsq_frac(frac(key, value)?),
            "l2-kb" => builder.l2_size_kb(int(key, value)?),
            "l2-lat" => builder.l2_lat(int(key, value)?),
            "il1-kb" => builder.il1_size_kb(int(key, value)?),
            "dl1-kb" => builder.dl1_size_kb(int(key, value)?),
            "dl1-lat" => builder.dl1_lat(int(key, value)?),
            other => return Err(format!("unknown parameter {other:?}")),
        };
    }
    builder.build().map_err(|e| e.to_string())
}

fn bad_request(detail: &str) -> (u16, &'static str, String) {
    (
        400,
        JSON,
        format!("{{\"error\":{}}}\n", json_string(detail)),
    )
}

/// Why this prediction fell back to the analytical estimator — each
/// variant maps onto a labeled `serve.degraded|reason=...` series.
enum DegradeCause {
    NoModel,
    QueueDepth(usize),
    FailStreak,
    Eval(EvalFailure),
}

impl DegradeCause {
    fn describe(&self, state: &ServeState) -> String {
        match self {
            DegradeCause::NoModel => "no model loaded (analytical-only)".to_string(),
            DegradeCause::QueueDepth(queued) => format!(
                "queue depth {queued} at degrade threshold {}",
                state.degrade_depth
            ),
            DegradeCause::FailStreak => format!(
                "model failing (streak {}); probing every {} requests",
                state.streak.load(Ordering::Relaxed),
                state.probe_every
            ),
            DegradeCause::Eval(failure) => failure.to_string(),
        }
    }

    fn count(&self, state: &ServeState) {
        match self {
            DegradeCause::NoModel => state.counters.degraded_no_model.inc(),
            DegradeCause::QueueDepth(_) => state.counters.degraded_depth.inc(),
            DegradeCause::FailStreak => state.counters.degraded_fail_streak.inc(),
            DegradeCause::Eval(_) => state.counters.degraded_eval_failure.inc(),
        }
    }

    fn outcome(&self) -> TraceOutcome {
        match self {
            DegradeCause::Eval(EvalFailure::Panicked) => TraceOutcome::PanicContained,
            _ => TraceOutcome::Degraded,
        }
    }
}

fn deadline_exceeded(
    state: &ServeState,
    accepted: &Stopwatch,
    phase: &str,
    budget_ms: u128,
    trace_id: &str,
) -> (u16, &'static str, String, TraceOutcome, String) {
    state.counters.deadline_exceeded.inc();
    state.counters.shed_deadline.inc();
    let detail = format!("deadline exceeded {phase}");
    (
        503,
        JSON,
        format!(
            "{{\"error\":{},\"deadline_ms\":{budget_ms},\"elapsed_ms\":{},\"trace_id\":{}}}\n",
            json_string(&detail),
            accepted.elapsed_ms(),
            json_string(trace_id)
        ),
        TraceOutcome::DeadlineExpired,
        detail,
    )
}

fn predict(
    state: &ServeState,
    accepted: &Stopwatch,
    pairs: &[(&str, &str)],
    seq: u64,
    trace_id: &str,
) -> (u16, &'static str, String, TraceOutcome, String) {
    let mut budget = state.default_deadline;
    for (key, value) in pairs {
        if *key == "deadline_ms" {
            match value.parse::<u64>() {
                Ok(ms) if ms > 0 => {
                    budget = Duration::from_millis(ms).min(state.max_deadline);
                }
                _ => {
                    let (s, ct, b) = bad_request(&format!(
                        "deadline_ms wants a positive integer, got {value:?}"
                    ));
                    return (s, ct, b, TraceOutcome::Ok, String::new());
                }
            }
        }
    }
    let deadline = accepted.deadline_after(budget);
    let budget_ms = budget.as_millis();
    if deadline.expired() {
        return deadline_exceeded(state, accepted, "while queued", budget_ms, trace_id);
    }
    let config = match config_from_pairs(pairs) {
        Ok(config) => config,
        Err(detail) => {
            let (s, ct, b) = bad_request(&detail);
            return (s, ct, b, TraceOutcome::Ok, detail);
        }
    };
    let model = state.store.active();
    // The analytical answer is a closed-form formula — cheap enough to
    // compute unconditionally, so the degraded path has zero extra
    // latency exactly when the service is under the most pressure.
    let analytical = match model.fallback.try_predict(&config) {
        Ok(value) if value.is_finite() => value,
        Ok(value) => {
            let detail = format!("analytical estimate was {value}");
            return (
                500,
                JSON,
                format!("{{\"error\":{}}}\n", json_string(&detail)),
                TraceOutcome::Ok,
                detail,
            );
        }
        Err(e) => {
            let detail = e.to_string();
            let (s, ct, b) = bad_request(&detail);
            return (s, ct, b, TraceOutcome::Ok, detail);
        }
    };
    let queued = state.queued.load(Ordering::SeqCst);
    let mut cause: Option<DegradeCause> = None;
    if model.network.is_none() {
        cause = Some(DegradeCause::NoModel);
    } else if queued >= state.degrade_depth {
        cause = Some(DegradeCause::QueueDepth(queued));
    } else if state.sticky.load(Ordering::Acquire)
        && !state
            .probe_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(state.probe_every)
    {
        cause = Some(DegradeCause::FailStreak);
    }
    let prediction = if cause.is_some() {
        analytical
    } else {
        match evaluate_real(state, &model, &config, seq) {
            Ok(value) => {
                state.streak.store(0, Ordering::Relaxed);
                if state.sticky.swap(false, Ordering::AcqRel) {
                    ppm_telemetry::event!(
                        Level::Info,
                        "serve.recovered",
                        "model_version" => model.version.clone(),
                    );
                }
                value
            }
            Err(failure) => {
                state.counters.model_failures.inc();
                let streak = state.streak.fetch_add(1, Ordering::SeqCst) + 1;
                if streak >= state.fail_streak && !state.sticky.swap(true, Ordering::AcqRel) {
                    ppm_telemetry::event!(
                        Level::Warn,
                        "serve.degraded_sticky",
                        "streak" => u64::from(streak),
                        "detail" => failure.to_string(),
                    );
                }
                cause = Some(DegradeCause::Eval(failure));
                analytical
            }
        }
    };
    if deadline.expired() {
        return deadline_exceeded(state, accepted, "during evaluation", budget_ms, trace_id);
    }
    let degraded = cause.is_some();
    let (outcome, degraded_reason) = match &cause {
        Some(cause) => {
            state.counters.degraded.inc();
            cause.count(state);
            (cause.outcome(), Some(cause.describe(state)))
        }
        None => (TraceOutcome::Ok, None),
    };
    state.counters.ok.inc();
    let reason_json = match &degraded_reason {
        Some(reason) => json_string(reason),
        None => "null".to_string(),
    };
    (
        200,
        JSON,
        format!(
            "{{\"schema\":\"ppm-serve v1\",\"benchmark\":{},\"metric\":{},\"prediction\":{prediction},\
             \"degraded\":{degraded},\"degraded_reason\":{reason_json},\"model_version\":{},\
             \"deadline_ms\":{budget_ms},\"elapsed_ms\":{},\"trace_id\":{}}}\n",
            json_string(&model.benchmark.to_string()),
            json_string(&model.metric),
            json_string(&model.version),
            accepted.elapsed_ms(),
            json_string(trace_id)
        ),
        outcome,
        degraded_reason.unwrap_or_default(),
    )
}

/// Readiness is stricter than liveness: the process can be alive
/// (`/healthz`) while unable to give full-fidelity answers.
fn readyz(state: &ServeState) -> (u16, &'static str, String) {
    let model = state.store.active();
    let queued = state.queued.load(Ordering::SeqCst);
    let sticky = state.sticky.load(Ordering::Acquire);
    let ready = model.network.is_some() && !sticky && queued < state.degrade_depth;
    let body = format!(
        "{{\"ready\":{ready},\"model_version\":{},\"sticky_degraded\":{sticky},\"queued\":{queued},\"degrade_depth\":{}}}\n",
        json_string(&model.version),
        state.degrade_depth
    );
    (if ready { 200 } else { 503 }, JSON, body)
}

fn statusz(state: &ServeState) -> String {
    let model = state.store.active();
    let trace_json = match &state.trace {
        Some(ring) => format!(
            "{{\"enabled\":true,\"retained\":{},\"capacity\":{}}}",
            ring.retained_len(),
            ring.capacity()
        ),
        None => "{\"enabled\":false,\"retained\":0,\"capacity\":0}".to_string(),
    };
    format!(
        "{{\"schema\":\"ppm-statusz v1\",\"model_version\":{},\"benchmark\":{},\"metric\":{},\
         \"workers\":{},\"queue_capacity\":{},\"queued\":{},\"degrade_depth\":{},\
         \"sticky_degraded\":{},\"fail_streak\":{},\"chaos\":{},\
         \"requests\":{},\"ok\":{},\"shed\":{},\"degraded\":{},\"deadline_exceeded\":{},\
         \"model_failures\":{},\"reloads\":{},\"reload_failures\":{},\
         \"shed_by_reason\":{{\"queue_full\":{},\"deadline\":{}}},\
         \"degraded_by_reason\":{{\"no_model\":{},\"degrade_depth\":{},\"fail_streak\":{},\"eval_failure\":{}}},\
         \"trace\":{},\"slo\":{}}}\n",
        json_string(&model.version),
        json_string(&model.benchmark.to_string()),
        json_string(&model.metric),
        state.workers,
        state.queue_capacity,
        state.queued.load(Ordering::SeqCst),
        state.degrade_depth,
        state.sticky.load(Ordering::Acquire),
        state.streak.load(Ordering::Relaxed),
        state.fault.is_some(),
        state.counters.requests.get(),
        state.counters.ok.get(),
        state.counters.shed.get(),
        state.counters.degraded.get(),
        state.counters.deadline_exceeded.get(),
        state.counters.model_failures.get(),
        state.counters.reloads.get(),
        state.counters.reload_failures.get(),
        state.counters.shed_queue_full.get(),
        state.counters.shed_deadline.get(),
        state.counters.degraded_no_model.get(),
        state.counters.degraded_depth.get(),
        state.counters.degraded_fail_streak.get(),
        state.counters.degraded_eval_failure.get(),
        trace_json,
        state.slo.to_json(unix_now_sec()),
    )
}

fn reloadz(state: &ServeState) -> (u16, &'static str, String) {
    match state.store.reload() {
        Ok(outcome) => {
            state.counters.reloads.inc();
            if outcome.changed {
                // A new model starts with a clean failure record.
                state.streak.store(0, Ordering::Relaxed);
                state.sticky.store(false, Ordering::Release);
            }
            (
                200,
                JSON,
                format!(
                    "{{\"version\":{},\"changed\":{}}}\n",
                    json_string(&outcome.version),
                    outcome.changed
                ),
            )
        }
        Err(e) => {
            state.counters.reload_failures.inc();
            ppm_telemetry::event!(
                Level::Error,
                "serve.reload_failed",
                "detail" => e.to_string(),
            );
            // 409: the request conflicted with the validation gate; the
            // previous model keeps serving (rollback by not swapping).
            (
                409,
                JSON,
                format!(
                    "{{\"error\":{},\"version\":{}}}\n",
                    json_string(&e.to_string()),
                    json_string(&state.store.active().version)
                ),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_live::{http_get, http_post};
    use ppm_obs::Json;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppm-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn analytical_config(tag: &str) -> ServeConfig {
        ServeConfig {
            registry: scratch(tag).join("registry"),
            fallback_benchmark: Some(Benchmark::Ammp),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_predictions_health_and_status_analytically() {
        let server = ServeServer::start(analytical_config("basic")).unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/predict?rob=96", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-serve v1")
        );
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("model_version").and_then(Json::as_str),
            Some("analytical")
        );
        let p = doc.get("prediction").and_then(Json::as_f64).unwrap();
        assert!(p.is_finite() && p > 0.0);

        let (status, _) = http_get(&addr, "/healthz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        // Not ready: no real model is loaded.
        let (status, body) = http_get(&addr, "/readyz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 503, "{body}");
        let (status, body) = http_get(&addr, "/statusz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-statusz v1")
        );
        let (status, body) = http_get(&addr, "/metrics", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ppm_serve_requests"), "{body}");
    }

    #[test]
    fn rejects_bad_parameters_and_unknown_routes() {
        let server = ServeServer::start(analytical_config("params")).unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/predict?rob=banana", IO_TIMEOUT).unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, body) = http_get(&addr, "/predict?warp=9", IO_TIMEOUT).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("warp"));
        let (status, _) = http_get(&addr, "/predict?deadline_ms=0", IO_TIMEOUT).unwrap();
        assert_eq!(status, 400);
        // Out-of-range configs are 400s from the builder's validation.
        let (status, body) = http_get(&addr, "/predict?rob=7", IO_TIMEOUT).unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, _) = http_get(&addr, "/nope", IO_TIMEOUT).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(&addr, "/reloadz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 405, "reloadz is POST-only");
    }

    #[test]
    fn quitz_stops_the_server_and_wait_returns() {
        let server = ServeServer::start(analytical_config("quitz")).unwrap();
        let addr = server.addr().to_string();
        let (status, _) = http_post(&addr, "/quitz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        server.wait();
    }

    #[test]
    fn reload_of_an_empty_registry_is_a_conflict_not_a_crash() {
        let server = ServeServer::start(analytical_config("reload")).unwrap();
        let bystander = ServeServer::start(analytical_config("reload-bystander")).unwrap();
        let addr = server.addr().to_string();
        let reload_failures = |addr: &str| {
            let (_, body) = http_get(addr, "/statusz", IO_TIMEOUT).unwrap();
            Json::parse(&body)
                .unwrap()
                .get("reload_failures")
                .and_then(Json::as_i64)
        };
        assert_eq!(reload_failures(&addr), Some(0));
        let (status, body) = http_post(&addr, "/reloadz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 409, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("version").and_then(Json::as_str),
            Some("analytical"),
            "rollback keeps the active version"
        );
        assert_eq!(reload_failures(&addr), Some(1));
        // Counters are per server: another one in the same process
        // counts nothing.
        assert_eq!(reload_failures(&bystander.addr().to_string()), Some(0));
        // Predictions still work after the failed reload.
        let (status, _) = http_get(&addr, "/predict", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn degrade_depth_zero_degrades_every_prediction() {
        let config = ServeConfig {
            degrade_depth: 0,
            ..analytical_config("always-degraded")
        };
        let server = ServeServer::start(config).unwrap();
        let addr = server.addr().to_string();
        for _ in 0..3 {
            let (status, body) = http_get(&addr, "/predict", IO_TIMEOUT).unwrap();
            assert_eq!(status, 200);
            let doc = Json::parse(&body).unwrap();
            assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        }
    }
}
