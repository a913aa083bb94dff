//! `ppm-trace`: per-request observability for the serving plane.
//!
//! Aggregate counters say *how much* went wrong; this module remembers
//! *which requests* went wrong, and what their time went into. Three
//! pieces:
//!
//! * [`TraceContext`] — a deterministic per-request identity: the
//!   accept-sequence number plus a trace ID, either derived from the
//!   sequence (`ppm-{seq:012x}`) or supplied by the client in the
//!   `X-Ppm-Trace` header and echoed back.
//! * [`TraceRing`] — a lock-sharded ring of completed
//!   [`TraceRecord`]s, fed through a **tail sampler**: every
//!   non-2xx-shaped outcome (shed, deadline-expired, degraded,
//!   panic-contained) is kept unconditionally, the slowest-N requests
//!   by total latency are kept, and plain OK traffic is kept 1-in-K.
//!   Retention decisions are counted (`serve.trace.retained`,
//!   `serve.trace.sampled_out`, `serve.trace.evicted`) in the owning
//!   server's registry, so the ring never silently lies about coverage
//!   and two servers in one process never share counts.
//! * [`SloTracker`] — multi-window error-budget accounting over the
//!   same per-request outcomes: availability (non-shed, non-failed)
//!   and a latency objective, burn rates over 5s/1m/5m windows, and
//!   budget-remaining over the long window.
//!
//! This module is deliberately **clock-free**: every timestamp
//! (`start_us` offsets, unix seconds) is produced by `clock.rs` — the
//! one wall-clock-exempt module — and passed in, so the `wall-clock`
//! lint keeps holding for the trace layer itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ppm_telemetry::{Counter, Json, Registry, Ring};

/// Number of independently locked shards in the ring. Power of two so
/// `seq & (SHARDS-1)` distributes round-robin-accepted requests evenly.
const SHARDS: usize = 8;

/// How many one-second accounting slots the SLO tracker keeps — the
/// longest burn-rate window (5 minutes).
const SLO_SLOTS: usize = 300;

/// The schema line served at `GET /tracez`.
pub const TRACEZ_SCHEMA: &str = "ppm-tracez v1";

/// A request's identity, fixed at accept time.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// Accept-sequence number (monotone per server instance).
    pub seq: u64,
    /// The trace ID: the client's `X-Ppm-Trace` value when one was
    /// sent (truncated to 64 bytes), else `ppm-{seq:012x}`.
    pub id: String,
}

impl TraceContext {
    /// Builds the context for accept-sequence `seq`, honoring a
    /// client-supplied ID when present and non-empty.
    pub fn new(seq: u64, client_id: Option<&str>) -> Self {
        let id = match client_id.map(str::trim) {
            Some(c) if !c.is_empty() => c.chars().take(64).collect(),
            _ => format!("ppm-{seq:012x}"),
        };
        TraceContext { seq, id }
    }
}

/// Where a request's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered 200 with a full-fidelity prediction.
    Ok,
    /// Answered 200 from the analytical fallback (`"degraded":true`).
    Degraded,
    /// Refused at the door: queue full or shed-all drill.
    Shed,
    /// The deadline expired while queued or during evaluation.
    DeadlineExpired,
    /// The model evaluation panicked and was contained; the request
    /// was still answered (degraded) but the panic is the story.
    PanicContained,
}

impl TraceOutcome {
    /// The wire name used in `ppm-tracez v1` and `?outcome=` filters.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Degraded => "degraded",
            TraceOutcome::Shed => "shed",
            TraceOutcome::DeadlineExpired => "deadline_expired",
            TraceOutcome::PanicContained => "panic_contained",
        }
    }

    /// Parses a wire name back; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(TraceOutcome::Ok),
            "degraded" => Some(TraceOutcome::Degraded),
            "shed" => Some(TraceOutcome::Shed),
            "deadline_expired" => Some(TraceOutcome::DeadlineExpired),
            "panic_contained" => Some(TraceOutcome::PanicContained),
            _ => None,
        }
    }

    /// True for the outcomes the tail sampler must never drop.
    pub fn always_keep(self) -> bool {
        !matches!(self, TraceOutcome::Ok)
    }
}

/// One step of a request's timeline, as offsets from accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Step name: `accept`, `queue_wait`, `eval`, `write`.
    pub name: &'static str,
    /// Microseconds after accept at which the step began.
    pub start_us: u64,
    /// The step's duration in microseconds.
    pub dur_us: u64,
}

/// The complete after-the-fact record of one request.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace ID (seq-derived or client-supplied).
    pub id: String,
    /// Accept-sequence number.
    pub seq: u64,
    /// The route that was hit (`/predict`, `/metrics`, ...).
    pub route: String,
    /// Terminal outcome.
    pub outcome: TraceOutcome,
    /// HTTP status that was written (0 when the write itself failed).
    pub status: u16,
    /// Detail string: degrade reason, shed reason, failure text.
    pub detail: String,
    /// Worker shard that served the request; `None` for requests shed
    /// before reaching the pool.
    pub worker: Option<usize>,
    /// Total accept-to-done latency in microseconds.
    pub total_us: u64,
    /// The span timeline (offsets from accept).
    pub spans: Vec<SpanRec>,
    /// Unix milliseconds at completion (provenance only; produced by
    /// `clock.rs`).
    pub unix_ms: u64,
}

impl TraceRecord {
    /// The record as one `ppm-tracez v1` JSON object.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|span| {
            Json::obj([
                ("name", Json::from(span.name)),
                ("start_us", Json::from(span.start_us)),
                ("dur_us", Json::from(span.dur_us)),
            ])
        });
        Json::obj([
            ("id", Json::from(self.id.as_str())),
            ("seq", Json::from(self.seq)),
            ("route", Json::from(self.route.as_str())),
            ("outcome", Json::from(self.outcome.as_str())),
            ("status", Json::from(u64::from(self.status))),
            ("detail", Json::from(self.detail.as_str())),
            ("worker", Json::from(self.worker)),
            ("total_us", Json::from(self.total_us)),
            ("unix_ms", Json::from(self.unix_ms)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Tail-sampling policy knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Total ring capacity across shards (per-shard cap is
    /// `capacity / 8`, floor 1). Zero disables tracing entirely.
    pub capacity: usize,
    /// Keep 1 in this many plain-OK requests (after the slowest-N
    /// check). 1 keeps everything; 0 keeps none beyond the slowest-N.
    pub sample_one_in: u64,
    /// Always keep the slowest N requests seen so far by total
    /// latency, whatever their outcome.
    pub slow_keep: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 4096,
            sample_one_in: 64,
            slow_keep: 32,
        }
    }
}

/// The lock-sharded ring of retained trace records: eight bounded
/// [`Ring`]s, one per shard.
///
/// `offer` is the only write path and takes exactly one shard lock
/// (plus a short slow-heap lock for OK traffic), so tracing stays off
/// the contended path between workers. Eviction is per-shard FIFO.
pub struct TraceRing {
    shards: Vec<Ring<TraceRecord>>,
    config: TraceConfig,
    /// Min-heap (as negated values) of the slowest-N latencies seen.
    slow: Mutex<Vec<u64>>,
    normal_tick: AtomicU64,
    retained: Arc<Counter>,
    sampled_out: Arc<Counter>,
    evicted: Arc<Counter>,
}

/// Filters accepted by [`TraceRing::snapshot`] — the `/tracez` query
/// surface.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    /// Only records with this outcome.
    pub outcome: Option<TraceOutcome>,
    /// Only records at least this slow (microseconds).
    pub min_us: Option<u64>,
    /// Only records whose ID starts with this prefix.
    pub id_prefix: Option<String>,
    /// Only records with `seq > since_seq` (live tailing cursor).
    pub since_seq: Option<u64>,
    /// Keep only the most recent N matches.
    pub limit: Option<usize>,
}

impl TraceFilter {
    fn admits(&self, rec: &TraceRecord) -> bool {
        self.outcome.is_none_or(|o| rec.outcome == o)
            && self.min_us.is_none_or(|min| rec.total_us >= min)
            && self
                .id_prefix
                .as_ref()
                .is_none_or(|prefix| rec.id.starts_with(prefix.as_str()))
            && self.since_seq.is_none_or(|since| rec.seq > since)
    }
}

impl TraceRing {
    /// Creates a ring with the given policy, resolving its
    /// `serve.trace.*` counters in `registry` (the owning server's).
    pub fn new(registry: &Registry, config: TraceConfig) -> Self {
        let per_shard_cap = (config.capacity / SHARDS).max(1);
        TraceRing {
            shards: (0..SHARDS).map(|_| Ring::new(per_shard_cap)).collect(),
            config,
            slow: Mutex::new(Vec::new()),
            normal_tick: AtomicU64::new(0),
            retained: registry.counter("serve.trace.retained"),
            sampled_out: registry.counter("serve.trace.sampled_out"),
            evicted: registry.counter("serve.trace.evicted"),
        }
    }

    /// Total ring capacity.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(Ring::capacity).sum()
    }

    /// Offers a completed record to the tail sampler. Non-OK outcomes
    /// are always retained; OK records survive if they are among the
    /// slowest-N seen so far or win the 1-in-K lottery.
    pub fn offer(&self, rec: TraceRecord) {
        if !self.should_keep(&rec) {
            self.sampled_out.inc();
            return;
        }
        if self.shards[(rec.seq as usize) % SHARDS].push(rec) {
            self.evicted.inc();
        }
        self.retained.inc();
    }

    fn should_keep(&self, rec: &TraceRecord) -> bool {
        // Errors are never sampled out: non-Ok outcomes and every
        // non-2xx status (a 400 is an Ok-outcome span timeline, but the
        // client saw a failure and deserves a retrievable trace).
        if rec.outcome.always_keep() || rec.status >= 400 {
            return true;
        }
        if self.config.slow_keep > 0 {
            let mut slow = self
                .slow
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if slow.len() < self.config.slow_keep {
                slow.push(rec.total_us);
                slow.sort_unstable();
                return true;
            }
            // slow[0] is the fastest of the current slowest-N.
            if rec.total_us > slow[0] {
                slow[0] = rec.total_us;
                slow.sort_unstable();
                return true;
            }
        }
        match self.config.sample_one_in {
            0 => false,
            k => self
                .normal_tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(k),
        }
    }

    /// All retained records matching `filter`, sorted by sequence
    /// number ascending. With a `limit`, the *most recent* matches win.
    pub fn snapshot(&self, filter: &TraceFilter) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.snapshot(|rec| filter.admits(rec)).0);
        }
        out.sort_by_key(|r| r.seq);
        if let Some(limit) = filter.limit {
            if out.len() > limit {
                out.drain(..out.len() - limit);
            }
        }
        out
    }

    /// How many records the ring currently holds across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Ring::len).sum()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders a full `ppm-tracez v1` document for `filter`.
    pub fn render_tracez(&self, filter: &TraceFilter) -> String {
        let records = self.snapshot(filter);
        Json::obj([
            ("schema", Json::from(TRACEZ_SCHEMA)),
            ("enabled", Json::from(true)),
            ("capacity", Json::from(self.capacity())),
            ("retained", Json::from(self.len())),
            (
                "records",
                Json::Arr(records.iter().map(TraceRecord::to_json).collect()),
            ),
        ])
        .dump()
    }
}

/// The document `/tracez` serves when tracing is disabled
/// (`--no-trace`): consumers can distinguish "nothing retained" from
/// "not recording".
pub fn render_tracez_disabled() -> String {
    format!(
        "{{\"schema\":\"{TRACEZ_SCHEMA}\",\"enabled\":false,\
         \"capacity\":0,\"retained\":0,\"records\":[]}}"
    )
}

struct SloSlot {
    // atomic-policy(sec): AcqRel, Acquire, Relaxed — the slot's second
    // is the publication gate: the recycling CAS (AcqRel, Relaxed on
    // failure) must order with readers' Acquire loads so zeroed counts
    // are visible before the slot is claimed for a new second.
    sec: AtomicU64,
    total: AtomicU64,
    unavailable: AtomicU64,
    slow: AtomicU64,
}

/// Multi-window SLO accounting over per-request outcomes.
///
/// A ring of 300 one-second slots; each `/predict` request lands in
/// the slot for its completion second. Slots are recycled lazily: the
/// first observer of a new second CASes the slot's second forward and
/// zeroes its counts (a request racing that reset can be miscounted by
/// one — acceptable for burn-rate accounting, which reads whole
/// windows).
///
/// **Burn rate** is the classic SRE normalization: the window's
/// bad-request ratio divided by the objective's error allowance
/// (`1 - objective`). Burn 1.0 = exactly spending budget at the
/// sustainable rate; 10 = ten times too fast.
pub struct SloTracker {
    slots: Vec<SloSlot>,
    /// Availability objective, e.g. 0.999.
    pub availability_objective: f64,
    /// Latency objective in microseconds (requests slower than this
    /// spend latency budget).
    pub latency_objective_us: u64,
}

/// One window's worth of SLO accounting, as reported at `/statusz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloWindow {
    /// Window length in seconds (5, 60, 300).
    pub window_s: u64,
    /// Requests observed in the window.
    pub total: u64,
    /// Requests that spent availability budget (shed, failed, late).
    pub unavailable: u64,
    /// Requests that spent latency budget (answered, but slow).
    pub slow: u64,
    /// Availability burn rate.
    pub availability_burn: f64,
    /// Latency burn rate.
    pub latency_burn: f64,
}

impl SloTracker {
    /// Creates a tracker for the given objectives.
    pub fn new(availability_objective: f64, latency_objective_us: u64) -> Self {
        SloTracker {
            slots: (0..SLO_SLOTS)
                .map(|_| SloSlot {
                    sec: AtomicU64::new(0),
                    total: AtomicU64::new(0),
                    unavailable: AtomicU64::new(0),
                    slow: AtomicU64::new(0),
                })
                .collect(),
            availability_objective,
            latency_objective_us,
        }
    }

    /// Records one finished request. `now_sec` is unix seconds (from
    /// `clock.rs`); `available` is false for shed / deadline-expired /
    /// failed requests; `total_us` is accept-to-done latency.
    pub fn observe(&self, now_sec: u64, available: bool, total_us: u64) {
        let slot = &self.slots[(now_sec as usize) % SLO_SLOTS];
        let seen = slot.sec.load(Ordering::Acquire);
        if seen != now_sec
            && slot
                .sec
                .compare_exchange(seen, now_sec, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            slot.total.store(0, Ordering::Relaxed);
            slot.unavailable.store(0, Ordering::Relaxed);
            slot.slow.store(0, Ordering::Relaxed);
        }
        slot.total.fetch_add(1, Ordering::Relaxed);
        if !available {
            slot.unavailable.fetch_add(1, Ordering::Relaxed);
        } else if total_us > self.latency_objective_us {
            slot.slow.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn window_counts(&self, now_sec: u64, span: u64) -> (u64, u64, u64) {
        let (mut total, mut unavailable, mut slow) = (0u64, 0u64, 0u64);
        let oldest = now_sec.saturating_sub(span.saturating_sub(1));
        for slot in &self.slots {
            let sec = slot.sec.load(Ordering::Acquire);
            if sec >= oldest && sec <= now_sec {
                total += slot.total.load(Ordering::Relaxed);
                unavailable += slot.unavailable.load(Ordering::Relaxed);
                slow += slot.slow.load(Ordering::Relaxed);
            }
        }
        (total, unavailable, slow)
    }

    fn burn(&self, bad: u64, total: u64, objective: f64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let allowance = (1.0 - objective).max(f64::EPSILON);
        (bad as f64 / total as f64) / allowance
    }

    /// The standard multi-window report: 5s / 1m / 5m.
    pub fn windows(&self, now_sec: u64) -> [SloWindow; 3] {
        [5u64, 60, 300].map(|span| {
            let (total, unavailable, slow) = self.window_counts(now_sec, span);
            SloWindow {
                window_s: span,
                total,
                unavailable,
                slow,
                // Both SLOs share one compliance fraction (the
                // availability objective): "99.9% available" and
                // "99.9% within the latency objective".
                availability_burn: self.burn(unavailable, total, self.availability_objective),
                latency_burn: self.burn(slow, total, self.availability_objective),
            }
        })
    }

    /// Error-budget fraction remaining over the 5-minute window:
    /// `1 - burn_rate_5m` (negative when the budget is overspent).
    pub fn budget_remaining(&self, now_sec: u64) -> (f64, f64) {
        let (total, unavailable, slow) = self.window_counts(now_sec, 300);
        let avail = 1.0 - self.burn(unavailable, total, self.availability_objective);
        let lat = 1.0 - self.burn(slow, total, self.availability_objective);
        (avail, lat)
    }

    /// Renders the `"slo"` object embedded in `ppm-statusz v1`.
    pub fn to_json(&self, now_sec: u64) -> String {
        let (avail_budget, lat_budget) = self.budget_remaining(now_sec);
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"availability_objective\":{},\"latency_objective_ms\":{},\"windows\":[",
            self.availability_objective,
            self.latency_objective_us / 1000
        ));
        for (i, w) in self.windows(now_sec).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"window_s\":{},\"total\":{},\"unavailable\":{},\"slow\":{},\
                 \"availability_burn\":{:.4},\"latency_burn\":{:.4}}}",
                w.window_s, w.total, w.unavailable, w.slow, w.availability_burn, w.latency_burn
            ));
        }
        s.push_str(&format!(
            "],\"availability_budget_remaining\":{avail_budget:.4},\
             \"latency_budget_remaining\":{lat_budget:.4}}}"
        ));
        s
    }

    /// Publishes the burn rates and budget gauges into `registry`
    /// (`serve.slo.*`) for `/metrics`.
    pub fn publish_gauges(&self, now_sec: u64, registry: &ppm_telemetry::Registry) {
        for w in self.windows(now_sec) {
            registry
                .gauge(&format!("serve.slo.availability_burn_{}s", w.window_s))
                .set(w.availability_burn);
            registry
                .gauge(&format!("serve.slo.latency_burn_{}s", w.window_s))
                .set(w.latency_burn);
        }
        let (avail, lat) = self.budget_remaining(now_sec);
        registry
            .gauge("serve.slo.availability_budget_remaining")
            .set(avail);
        registry
            .gauge("serve.slo.latency_budget_remaining")
            .set(lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, outcome: TraceOutcome, total_us: u64) -> TraceRecord {
        TraceRecord {
            id: format!("ppm-{seq:012x}"),
            seq,
            route: "/predict".to_string(),
            outcome,
            status: match outcome {
                TraceOutcome::Ok | TraceOutcome::Degraded => 200,
                _ => 503,
            },
            detail: String::new(),
            worker: Some(0),
            total_us,
            spans: vec![
                SpanRec {
                    name: "accept",
                    start_us: 0,
                    dur_us: 1,
                },
                SpanRec {
                    name: "eval",
                    start_us: 1,
                    dur_us: total_us.saturating_sub(1),
                },
            ],
            unix_ms: 1_700_000_000_000,
        }
    }

    fn ring_with(config: TraceConfig) -> TraceRing {
        TraceRing::new(&Registry::new(), config)
    }

    #[test]
    fn context_derives_or_honors_ids() {
        assert_eq!(TraceContext::new(42, None).id, "ppm-00000000002a");
        assert_eq!(TraceContext::new(42, Some("client-7")).id, "client-7");
        assert_eq!(TraceContext::new(42, Some("  ")).id, "ppm-00000000002a");
        // Oversized client IDs are truncated, not rejected.
        let long = "x".repeat(200);
        assert_eq!(TraceContext::new(0, Some(&long)).id.len(), 64);
    }

    #[test]
    fn tail_sampler_keeps_every_non_ok_outcome() {
        let ring = ring_with(TraceConfig {
            capacity: 1024,
            sample_one_in: 0, // no lottery winners
            slow_keep: 0,     // no slowest-N
        });
        for (i, outcome) in [
            TraceOutcome::Shed,
            TraceOutcome::DeadlineExpired,
            TraceOutcome::Degraded,
            TraceOutcome::PanicContained,
            TraceOutcome::Ok,
        ]
        .iter()
        .enumerate()
        {
            ring.offer(rec(i as u64, *outcome, 100));
        }
        // The lone OK record was sampled out; the four bad ones stay.
        assert_eq!(ring.len(), 4);
        let all = ring.snapshot(&TraceFilter::default());
        assert!(all.iter().all(|r| r.outcome != TraceOutcome::Ok));
    }

    #[test]
    fn slowest_n_and_one_in_k_retain_ok_traffic() {
        let ring = ring_with(TraceConfig {
            capacity: 1024,
            sample_one_in: 10,
            slow_keep: 2,
        });
        // 100 OK records with *descending* latency: after the first two
        // seed the slowest-2 pool, nothing else qualifies as slow, so
        // the rest survive only via the 1-in-10 lottery. (Ascending
        // latencies would retain everything — each arrival is the
        // slowest seen so far, which is exactly what a streaming
        // slowest-N sampler should do.)
        for i in 0..100u64 {
            ring.offer(rec(i, TraceOutcome::Ok, (100 - i) * 10));
        }
        let all = ring.snapshot(&TraceFilter::default());
        assert!(!all.is_empty());
        // The two slowest must be present.
        assert!(all.iter().any(|r| r.seq == 0));
        assert!(all.iter().any(|r| r.seq == 1));
        // Roughly 1-in-10 of the rest: between 10 and 40 total.
        assert!(all.len() >= 10 && all.len() <= 40, "{}", all.len());
    }

    #[test]
    fn ring_evicts_fifo_per_shard_and_counts() {
        let registry = Registry::new();
        let ring = TraceRing::new(
            &registry,
            TraceConfig {
                capacity: 16, // 2 per shard
                sample_one_in: 1,
                slow_keep: 0,
            },
        );
        for i in 0..64u64 {
            ring.offer(rec(i, TraceOutcome::Shed, 10));
        }
        assert_eq!(ring.len(), 16);
        assert_eq!(registry.counter("serve.trace.evicted").get(), 48);
        assert_eq!(registry.counter("serve.trace.retained").get(), 64);
        // Nothing lands in the process-global registry (read without
        // registering, so other tests' /metrics stay free of it).
        let global = ppm_telemetry::registry().snapshot();
        assert!(global.iter().all(|m| !m.name.starts_with("serve.trace.")));
        // Survivors are the most recent per shard.
        let all = ring.snapshot(&TraceFilter::default());
        assert!(all.iter().all(|r| r.seq >= 32), "{all:?}");
    }

    #[test]
    fn snapshot_filters_compose() {
        let ring = ring_with(TraceConfig {
            capacity: 1024,
            sample_one_in: 1,
            slow_keep: 0,
        });
        for i in 0..20u64 {
            let outcome = if i % 2 == 0 {
                TraceOutcome::Ok
            } else {
                TraceOutcome::Shed
            };
            ring.offer(rec(i, outcome, i * 100));
        }
        let shed = ring.snapshot(&TraceFilter {
            outcome: Some(TraceOutcome::Shed),
            ..TraceFilter::default()
        });
        assert_eq!(shed.len(), 10);
        let slow = ring.snapshot(&TraceFilter {
            min_us: Some(1500),
            ..TraceFilter::default()
        });
        assert!(slow.iter().all(|r| r.total_us >= 1500));
        let tail = ring.snapshot(&TraceFilter {
            since_seq: Some(15),
            ..TraceFilter::default()
        });
        assert_eq!(tail.len(), 4);
        assert!(tail.iter().all(|r| r.seq > 15));
        let limited = ring.snapshot(&TraceFilter {
            limit: Some(3),
            ..TraceFilter::default()
        });
        assert_eq!(limited.len(), 3);
        // Most recent win, ascending order.
        assert_eq!(
            limited.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![17, 18, 19]
        );
        let prefixed = ring.snapshot(&TraceFilter {
            id_prefix: Some("ppm-0000000000".to_string()),
            ..TraceFilter::default()
        });
        assert_eq!(prefixed.len(), 20);
    }

    #[test]
    fn slo_tracker_burns_and_recovers() {
        let slo = SloTracker::new(0.9, 1_000_000);
        let t0 = 10_000u64;
        // 10 requests at t0: 5 unavailable → error rate 0.5, allowance
        // 0.1 → availability burn 5.0 in every window containing t0.
        for i in 0..10 {
            slo.observe(t0, i % 2 == 0, 100);
        }
        let w = slo.windows(t0);
        assert_eq!(w[0].window_s, 5);
        assert_eq!(w[0].total, 10);
        assert_eq!(w[0].unavailable, 5);
        assert!((w[0].availability_burn - 5.0).abs() < 1e-9);
        assert!((w[2].availability_burn - 5.0).abs() < 1e-9);
        let (avail_budget, _) = slo.budget_remaining(t0);
        assert!((avail_budget - (1.0 - 5.0)).abs() < 1e-9);
        // 400 seconds later the 5m window has rolled past t0 — only
        // the new, healthy traffic counts.
        let t1 = t0 + 400;
        for _ in 0..10 {
            slo.observe(t1, true, 100);
        }
        let w1 = slo.windows(t1);
        assert_eq!(w1[2].total, 10);
        assert_eq!(w1[2].unavailable, 0);
        assert_eq!(w1[2].availability_burn, 0.0);
        let (avail_budget, lat_budget) = slo.budget_remaining(t1);
        assert_eq!(avail_budget, 1.0);
        assert_eq!(lat_budget, 1.0);
    }

    #[test]
    fn slo_latency_objective_spends_latency_budget_only() {
        let slo = SloTracker::new(0.999, 1000); // 1ms objective
        let t = 77u64;
        for i in 0..100 {
            // All available; every 10th slower than the objective.
            slo.observe(t, true, if i % 10 == 0 { 5000 } else { 100 });
        }
        let w = slo.windows(t);
        assert_eq!(w[0].unavailable, 0);
        assert_eq!(w[0].slow, 10);
        assert_eq!(w[0].availability_burn, 0.0);
        assert!(w[0].latency_burn > 0.0);
        let (_, lat_budget) = slo.budget_remaining(t);
        // 10% slow against a 0.1% allowance: budget deeply overspent.
        assert!(lat_budget < 0.0, "{lat_budget}");
    }

    #[test]
    fn slo_empty_windows_report_zero_burn() {
        let slo = SloTracker::new(0.999, 1000);
        let w = slo.windows(123);
        assert!(w
            .iter()
            .all(|w| w.total == 0 && w.availability_burn == 0.0 && w.latency_burn == 0.0));
        assert_eq!(slo.budget_remaining(123), (1.0, 1.0));
        let json = slo.to_json(123);
        assert!(json.contains("\"availability_objective\":0.999"));
        assert!(json.contains("\"window_s\":300"));
    }
}
