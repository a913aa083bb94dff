//! A thread-safe registry of named counters, gauges, and histograms.
//!
//! All instruments are lock-free after the first lookup: counters and
//! gauges are single atomics, histograms are arrays of atomic buckets.
//! The registry itself interns instruments by name behind a mutex, so
//! call sites on hot paths should hold on to the returned handle rather
//! than re-looking it up per operation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::quote_into;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point measurement.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (which may be negative) to the gauge atomically — the
    /// up/down form used for liveness counts such as
    /// `exec.workers_live`.
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The last value set (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of exact buckets before log bucketing starts.
const LINEAR_BUCKETS: usize = 16;
/// Sub-buckets per power-of-two octave.
const SUBS: usize = 4;
/// First octave covered by the log range: values >= 2^4.
const FIRST_OCTAVE: u32 = 4;
/// Total bucket count: 16 exact + 60 octaves x 4 sub-buckets.
const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - FIRST_OCTAVE as usize) * SUBS;

/// A log-bucketed histogram of `u64` observations (typically
/// microseconds or small cardinalities).
///
/// Values below 16 get exact buckets; larger values share a bucket with
/// others in the same quarter-octave, bounding the relative quantile
/// error at ~12.5%. Recording is a single atomic increment per bucket
/// plus atomic count/sum/min/max updates — safe and cheap under
/// concurrency.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Worst tagged sample since the last [`Histogram::take_exemplar`]:
    /// `(value, tag)`. The tag is typically a trace ID, so a scrape can
    /// jump from "p99 spiked" straight to the worst request's timeline.
    exemplar: Mutex<Option<(u64, String)>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar: Mutex::new(None),
        }
    }

    /// The bucket index for a value.
    pub fn bucket_index(v: u64) -> usize {
        if v < LINEAR_BUCKETS as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros(); // >= FIRST_OCTAVE
        let sub = ((v >> (octave - 2)) & (SUBS as u64 - 1)) as usize;
        LINEAR_BUCKETS + (octave - FIRST_OCTAVE) as usize * SUBS + sub
    }

    /// The value range `[lo, hi)` covered by bucket `idx`. The top
    /// octave's ranges saturate at `u64::MAX`, where `hi` is inclusive.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        if idx < LINEAR_BUCKETS {
            return (idx as u64, idx as u64 + 1);
        }
        let rel = idx - LINEAR_BUCKETS;
        let octave = FIRST_OCTAVE + (rel / SUBS) as u32;
        let sub = (rel % SUBS) as u64;
        let width = 1u64 << (octave - 2); // octave span / SUBS
        let lo = (1u64 << octave).saturating_add(sub.saturating_mul(width));
        (lo, lo.saturating_add(width))
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one observation and tags it: if `v` is the worst value
    /// seen since the last [`Histogram::take_exemplar`], the `(v, tag)`
    /// pair is retained as this window's exemplar. One short mutex
    /// critical section per call — meant for request-grained paths
    /// (serving latency), not inner simulation loops.
    pub fn record_tagged(&self, v: u64, tag: &str) {
        self.record(v);
        let mut ex = self
            .exemplar
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match ex.as_ref() {
            Some((worst, _)) if *worst >= v => {}
            _ => *ex = Some((v, tag.to_string())),
        }
    }

    /// Takes (and clears) the worst tagged sample since the previous
    /// call, starting a fresh exemplar window. `None` when nothing was
    /// recorded via [`Histogram::record_tagged`] this window.
    pub fn take_exemplar(&self) -> Option<(u64, String)> {
        self.exemplar
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// The current window's worst tagged sample without clearing it.
    pub fn peek_exemplar(&self) -> Option<(u64, String)> {
        self.exemplar
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// The non-empty buckets as `(le, cumulative_count)` pairs, in
    /// ascending order — the Prometheus cumulative-bucket form. `le` is
    /// the bucket's inclusive integer upper bound (observations are
    /// `u64`, so the count of values `<= le` equals the count below the
    /// bucket's exclusive bound). Empty buckets are skipped; cumulative
    /// counts stay monotone regardless. Lock-free: one relaxed load per
    /// bucket, concurrent recording never blocks a scrape.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                let (lo, hi) = Self::bucket_bounds(idx);
                // Top-octave bounds saturate: `hi` is already inclusive
                // there, everywhere else the integer below `hi` is.
                let le = if hi == u64::MAX { hi } else { hi - 1 };
                debug_assert!(le >= lo);
                out.push((le, cum));
            }
        }
        out
    }

    /// The `q`-quantile (`0.0..=1.0`) as a representative value of the
    /// bucket containing it, clamped to the observed min/max. `None`
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                let (lo, hi) = Self::bucket_bounds(idx);
                // Representative value: bucket midpoint, clamped to the
                // actually observed range.
                let mid = lo + (hi - lo - 1) / 2;
                let lo_clamp = self.min.load(Ordering::Relaxed);
                let hi_clamp = self.max.load(Ordering::Relaxed);
                return Some(mid.clamp(lo_clamp, hi_clamp));
            }
        }
        self.max()
    }
}

/// Which kind of instrument a [`MetricRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Log-bucketed histogram.
    Histogram,
}

/// A point-in-time reading of one instrument.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Instrument name.
    pub name: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Counter value (counters only).
    pub value: Option<u64>,
    /// Gauge value (gauges only).
    pub gauge: Option<f64>,
    /// `(count, sum, min, max, p50, p95, p99)` (histograms only).
    pub hist: Option<(u64, u64, u64, u64, u64, u64, u64)>,
    /// Non-empty cumulative buckets as `(le, cumulative_count)`
    /// (histograms only; see [`Histogram::cumulative_buckets`]). Not
    /// part of the JSONL line — consumed by the live plane's
    /// Prometheus exposition.
    pub buckets: Option<Vec<(u64, u64)>>,
    /// The current window's worst tagged sample `(value, tag)`
    /// (histograms only; see [`Histogram::record_tagged`]). Snapshots
    /// peek without clearing — the owner of the window (e.g. the serve
    /// `/metrics` handler) decides when to call
    /// [`Histogram::take_exemplar`]. Not part of the JSONL line.
    pub exemplar: Option<(u64, String)>,
}

impl MetricRecord {
    /// Serializes the record as one JSONL `metric` line (no trailing
    /// newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"t\":\"metric\",\"kind\":");
        match self.kind {
            MetricKind::Counter => s.push_str("\"counter\""),
            MetricKind::Gauge => s.push_str("\"gauge\""),
            MetricKind::Histogram => s.push_str("\"histogram\""),
        }
        s.push_str(",\"name\":");
        quote_into(&mut s, &self.name);
        match self.kind {
            MetricKind::Counter => {
                s.push_str(&format!(",\"value\":{}", self.value.unwrap_or(0)));
            }
            MetricKind::Gauge => {
                let v = self.gauge.unwrap_or(0.0);
                if v.is_finite() {
                    s.push_str(&format!(",\"value\":{v}"));
                } else {
                    s.push_str(",\"value\":null");
                }
            }
            MetricKind::Histogram => {
                let (count, sum, min, max, p50, p95, p99) =
                    self.hist.unwrap_or((0, 0, 0, 0, 0, 0, 0));
                s.push_str(&format!(
                    ",\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max},\
                     \"p50\":{p50},\"p95\":{p95},\"p99\":{p99}"
                ));
            }
        }
        s.push('}');
        s
    }
}

/// A named collection of instruments.
///
/// The global instance behind [`crate::counter`] and friends is what
/// the CLI exports; standalone instances are useful in tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// A snapshot of every instrument, sorted by kind then name.
    pub fn snapshot(&self) -> Vec<MetricRecord> {
        let mut out = Vec::new();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            out.push(MetricRecord {
                name: name.clone(),
                kind: MetricKind::Counter,
                value: Some(c.get()),
                gauge: None,
                hist: None,
                buckets: None,
                exemplar: None,
            });
        }
        for (name, g) in self
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            out.push(MetricRecord {
                name: name.clone(),
                kind: MetricKind::Gauge,
                value: None,
                gauge: Some(g.get()),
                hist: None,
                buckets: None,
                exemplar: None,
            });
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            out.push(MetricRecord {
                name: name.clone(),
                kind: MetricKind::Histogram,
                value: None,
                gauge: None,
                hist: Some((
                    h.count(),
                    h.sum(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.95).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                )),
                buckets: Some(h.cumulative_buckets()),
                exemplar: h.peek_exemplar(),
            });
        }
        out
    }

    /// Removes every instrument. Existing handles keep working but are
    /// no longer reachable from the registry (used by tests and by the
    /// CLI between commands).
    pub fn reset(&self) {
        self.counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x").get(), 5);
        let g = r.gauge("y");
        g.set(2.25);
        assert_eq!(r.gauge("y").get(), 2.25);
        // Distinct names are distinct instruments.
        assert_eq!(r.counter("z").get(), 0);
    }

    #[test]
    fn bucket_boundaries_are_exact_then_quarter_octave() {
        // Exact buckets below 16.
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_bounds(v as usize), (v, v + 1));
        }
        // 16 starts the log range: [16, 20).
        assert_eq!(Histogram::bucket_index(16), 16);
        assert_eq!(Histogram::bucket_bounds(16), (16, 20));
        assert_eq!(Histogram::bucket_index(19), 16);
        assert_eq!(Histogram::bucket_index(20), 17);
        // [32, 40) is the first sub-bucket of the next octave.
        assert_eq!(Histogram::bucket_index(32), 20);
        assert_eq!(Histogram::bucket_bounds(20), (32, 40));
        // Every value maps into its bucket's bounds.
        for v in [0u64, 1, 15, 16, 100, 1000, 123456, u64::MAX / 2, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} idx={idx} [{lo},{hi})"
            );
        }
        // Bucket index is monotone in the value.
        let mut last = 0;
        for v in 0..100_000u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Quarter-octave buckets bound the relative error at ~12.5%
        // (plus midpoint placement), so allow 15%.
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.15, "p50={p50}");
        assert!((p95 as f64 - 950.0).abs() / 950.0 < 0.15, "p95={p95}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.15, "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn quantiles_of_small_exact_values() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(2);
        }
        for _ in 0..10 {
            h.record(9);
        }
        // Small values live in exact buckets: quantiles are exact.
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(0.9), Some(2));
        assert_eq!(h.quantile(0.95), Some(9));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(h.quantile(0.0), Some(2));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn single_sample_histogram_is_exact_at_every_quantile() {
        for v in [0u64, 1, 15, 16, 1000] {
            let h = Histogram::new();
            h.record(v);
            // One sample: min/max clamping pins every quantile to it.
            for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), Some(v), "v={v} q={q}");
            }
            assert_eq!(h.mean(), Some(v as f64));
            assert_eq!(
                h.cumulative_buckets(),
                vec![(
                    {
                        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
                        assert!(lo <= v);
                        hi - 1
                    },
                    1
                )]
            );
        }
    }

    #[test]
    fn quantiles_at_exact_bucket_boundaries() {
        // Values 15 and 16 straddle the exact/log boundary; 20 and 32
        // open later buckets. Each lands on a bucket's lower bound.
        let h = Histogram::new();
        for v in [15u64, 16, 20, 32] {
            h.record(v);
        }
        // q=0.25 targets rank 1 of 4 → the first bucket; min-clamped.
        assert_eq!(h.quantile(0.25), Some(15));
        // q=0.5 → rank 2 → bucket [16,20), midpoint 17.
        assert_eq!(h.quantile(0.5), Some(17));
        // q=0.75 → rank 3 → bucket [20,24), midpoint 21.
        assert_eq!(h.quantile(0.75), Some(21));
        // q=1.0 → rank 4 → bucket [32,40), midpoint clamped to max 32.
        assert_eq!(h.quantile(1.0), Some(32));
        // q=0.0 always reports the smallest bucket's clamped value.
        assert_eq!(h.quantile(0.0), Some(15));
        // Cumulative buckets are monotone and end at the total count.
        let cum = h.cumulative_buckets();
        assert_eq!(cum.len(), 4);
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(cum.last().unwrap().1, 4);
        assert_eq!(cum[0], (15, 1));
        assert_eq!(cum[1], (19, 2));
    }

    #[test]
    fn empty_histogram_has_no_cumulative_buckets() {
        assert!(Histogram::new().cumulative_buckets().is_empty());
    }

    #[test]
    fn gauge_add_is_atomic_and_signed() {
        let g = Gauge::new();
        g.add(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                        g.add(-1.0);
                    }
                    g.add(1.0);
                });
            }
        });
        assert_eq!(g.get(), 9.5);
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_recording() {
        // Writers hammer the registry while a reader snapshots; every
        // snapshot must be internally consistent (cumulative buckets
        // monotone, count >= last cumulative at read time, sum sane)
        // and never block or panic.
        let r = Registry::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = &r;
                s.spawn(move || {
                    let c = r.counter("live.hits");
                    let h = r.histogram("live.lat_us");
                    for i in 0..20_000u64 {
                        c.inc();
                        h.record(t * 7 + i % 1000);
                    }
                });
            }
            let r = &r;
            s.spawn(move || {
                for _ in 0..50 {
                    for m in r.snapshot() {
                        if let Some(b) = &m.buckets {
                            // `le` strictly ascending, cumulative
                            // counts monotone — even mid-write.
                            assert!(b.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
                            let (count, sum, min, max, ..) = m.hist.unwrap();
                            if count > 0 {
                                assert!(min <= max);
                                assert!(sum >= min);
                            }
                        }
                    }
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(r.counter("live.hits").get(), 80_000);
        let final_cum = r.histogram("live.lat_us").cumulative_buckets();
        assert_eq!(final_cum.last().unwrap().1, 80_000);
    }

    #[test]
    fn counter_is_atomic_under_threads() {
        let r = Registry::new();
        let c = r.counter("hits");
        let h = r.histogram("lat");
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        let total: u64 = (0..80_000u64).sum();
        assert_eq!(h.sum(), total);
    }

    #[test]
    fn snapshot_and_reset() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.gauge("b").set(1.5);
        r.histogram("c").record(7);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[0].value, Some(3));
        assert_eq!(snap[1].gauge, Some(1.5));
        let hist = snap[2].hist.unwrap();
        assert_eq!(hist.0, 1); // count
        assert_eq!(hist.1, 7); // sum
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn exemplar_keeps_worst_tagged_sample_per_window() {
        let h = Histogram::new();
        assert_eq!(h.peek_exemplar(), None);
        h.record_tagged(100, "t-a");
        h.record_tagged(50, "t-b"); // not worse: ignored
        h.record_tagged(200, "t-c");
        assert_eq!(h.peek_exemplar(), Some((200, "t-c".to_string())));
        // Snapshots carry the exemplar without clearing the window.
        let r = Registry::new();
        r.histogram("lat").record_tagged(7, "t-z");
        let snap = r.snapshot();
        assert_eq!(snap[0].exemplar, Some((7, "t-z".to_string())));
        assert_eq!(
            r.histogram("lat").peek_exemplar(),
            Some((7, "t-z".to_string()))
        );
        // take starts a fresh window.
        assert_eq!(h.take_exemplar(), Some((200, "t-c".to_string())));
        assert_eq!(h.peek_exemplar(), None);
        h.record_tagged(1, "t-d");
        assert_eq!(h.peek_exemplar(), Some((1, "t-d".to_string())));
        // Untagged recording never creates an exemplar.
        let plain = Histogram::new();
        plain.record(9);
        assert_eq!(plain.peek_exemplar(), None);
    }

    #[test]
    fn metric_records_serialize_as_json_lines() {
        let r = Registry::new();
        r.counter("sim.runs").add(12);
        r.gauge("rbf.selected_aicc").set(-42.5);
        r.histogram("span.stage.tree.us").record(100);
        let lines: Vec<String> = r.snapshot().iter().map(|m| m.to_json_line()).collect();
        assert_eq!(
            lines[0],
            "{\"t\":\"metric\",\"kind\":\"counter\",\"name\":\"sim.runs\",\"value\":12}"
        );
        assert!(lines[1].contains("\"value\":-42.5"));
        assert!(lines[2].contains("\"count\":1"));
        assert!(lines[2].contains("\"p50\":"));
    }
}
