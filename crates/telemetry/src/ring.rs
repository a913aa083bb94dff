//! Bounded in-memory rings.
//!
//! [`Ring`] is the workspace's one bounded FIFO: a capacity, a lifetime
//! sequence number, oldest-first eviction with an evicted count, all
//! behind one poison-tolerant lock. Two rings are built on it:
//!
//! * [`EventRing`], a [`Sink`] that keeps the last `capacity` events
//!   (spans and metric snapshots are ignored). The live plane's
//!   `/eventz` route renders it on demand; tests use it to assert on
//!   leveled emissions without touching stderr. Clones share the same
//!   buffer, so one clone can be installed as a sink while another is
//!   polled.
//! * `ppm-serve`'s request-trace ring, one `Ring` per lock shard.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::Json;
use crate::sink::{Level, Record, Sink, Verbosity};
use crate::span::monotonic_us;

/// A capacity-bounded FIFO: pushing into a full ring evicts the oldest
/// item. Every method takes the ring's one lock exactly once.
#[derive(Debug)]
pub struct Ring<T> {
    capacity: usize,
    slots: Mutex<Slots<T>>,
}

#[derive(Debug)]
struct Slots<T> {
    items: VecDeque<T>,
    next_seq: u64,
    evicted: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring holding at most `capacity` items
    /// (minimum 1). Storage grows on demand, not up front.
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            slots: Mutex::new(Slots {
                items: VecDeque::new(),
                next_seq: 0,
                evicted: 0,
            }),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends the item `make` builds from its lifetime sequence number
    /// (0 = the first item ever pushed), evicting the oldest item when
    /// the ring is full. Returns true when an item was evicted.
    pub(crate) fn push_with(&self, make: impl FnOnce(u64) -> T) -> bool {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = slots.next_seq;
        slots.next_seq += 1;
        let evict = slots.items.len() == self.capacity;
        if evict {
            slots.items.pop_front();
            slots.evicted += 1;
        }
        slots.items.push_back(make(seq));
        evict
    }

    /// Appends `item`, evicting the oldest item when the ring is full.
    /// Returns true when an item was evicted.
    pub fn push(&self, item: T) -> bool {
        self.push_with(|_| item)
    }

    /// How many items the ring holds.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// True when the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many items have been evicted to honour the capacity bound.
    pub(crate) fn evicted(&self) -> u64 {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .evicted
    }
}

impl<T: Clone> Ring<T> {
    /// Clones of the held items that `keep` admits, oldest first, and
    /// the evicted count, both read under one lock acquisition.
    pub fn snapshot(&self, mut keep: impl FnMut(&T) -> bool) -> (Vec<T>, u64) {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let items = slots.items.iter().filter(|t| keep(t)).cloned().collect();
        (items, slots.evicted)
    }
}

/// One captured event, stamped with a sequence number and the
/// process-wide monotonic clock.
#[derive(Debug, Clone)]
pub struct RingEvent {
    /// Position in the ring's lifetime stream (0 = first ever seen).
    pub seq: u64,
    /// Capture time on [`monotonic_us`].
    pub at_us: u64,
    /// Severity.
    pub level: Level,
    /// Event name (dotted).
    pub name: String,
    /// Ordered field list.
    pub fields: Vec<(String, Json)>,
}

impl RingEvent {
    /// The event as one `ppm-eventz v1` JSON object.
    pub fn into_json(self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("at_us", Json::from(self.at_us)),
            ("level", Json::from(self.level.as_str())),
            ("name", Json::Str(self.name)),
            ("fields", Json::Obj(self.fields)),
        ])
    }
}

/// A capacity-bounded sink retaining the most recent events.
#[derive(Debug, Clone)]
pub struct EventRing {
    ring: Arc<Ring<RingEvent>>,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            ring: Arc::new(Ring::new(capacity)),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// A snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<RingEvent> {
        self.ring.snapshot(|_| true).0
    }

    /// How many events have been evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.ring.evicted()
    }

    /// Renders the ring as the `ppm-eventz v1` JSON document served by
    /// the live plane's `/eventz` route.
    pub fn render_json(&self) -> String {
        let (events, dropped) = self.ring.snapshot(|_| true);
        Json::obj([
            ("schema", Json::from("ppm-eventz v1")),
            ("capacity", Json::from(self.capacity())),
            ("dropped", Json::from(dropped)),
            (
                "events",
                Json::Arr(events.into_iter().map(RingEvent::into_json).collect()),
            ),
        ])
        .dump()
    }
}

impl Sink for EventRing {
    fn record(&mut self, rec: &Record) {
        let Record::Event {
            name,
            level,
            fields,
            ..
        } = rec
        else {
            return;
        };
        self.ring.push_with(|seq| RingEvent {
            seq,
            at_us: monotonic_us(),
            level: *level,
            name: name.clone(),
            fields: fields.clone(),
        });
    }

    fn verbosity(&self) -> Verbosity {
        Verbosity::Trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evt(name: &str, level: Level) -> Record {
        Record::Event {
            name: name.to_string(),
            level,
            fields: vec![("k".to_string(), Json::from(1u64))],
            depth: 0,
        }
    }

    #[test]
    fn ring_retains_the_most_recent_events() {
        let mut ring = EventRing::new(2);
        ring.record(&evt("a", Level::Info));
        ring.record(&evt("b", Level::Warn));
        ring.record(&evt("c", Level::Error));
        let events = ring.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(ring.dropped(), 1);
        // Sequence numbers are lifetime positions, not ring slots.
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert!(events[1].at_us >= events[0].at_us);
        assert_eq!(EventRing::new(0).capacity(), 1);
    }

    #[test]
    fn ring_ignores_spans_and_metrics() {
        let mut ring = EventRing::new(4);
        ring.record(&Record::Span {
            name: "s".into(),
            us: 1,
            start_us: 0,
            tid: 0,
            cpu_us: None,
            depth: 0,
            parent: None,
        });
        assert!(ring.events().is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let ring = EventRing::new(4);
        let mut writer = ring.clone();
        writer.record(&evt("shared", Level::Info));
        assert_eq!(ring.events().len(), 1);
    }
}
