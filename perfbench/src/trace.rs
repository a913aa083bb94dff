//! The benchmark's own tracing: spans recorded around the calls into
//! each layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op (or request trace) the span belongs to.
    pub op: String,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. When disabled, [`Tracer::span`] only
/// calls its closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, String, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, op: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: op.to_string(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (a server-side hop), returning
    /// its index so children can point at it.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Adds `value` to the count `name` of op `op` (work done, read
    /// from what a layer returned).
    pub fn add(&mut self, name: &'static str, op: &str, value: f64) {
        if self.enabled {
            self.counts.push((name, op.to_string(), value));
        }
    }

    /// The count `name` summed per op id.
    pub fn counts_by_op(&self, name: &str) -> std::collections::BTreeMap<String, f64> {
        let mut by_op = std::collections::BTreeMap::new();
        for (n, op, v) in &self.counts {
            if *n == name {
                *by_op.entry(op.clone()).or_insert(0.0) += v;
            }
        }
        by_op
    }

    /// The root (outermost) span name of span `i`.
    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Total duration (ns) of spans named `name` nested under a root
    /// span named `root`.
    pub fn total_within(&self, name: &str, root: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && s.parent.is_some() && self.root_name(*i) == root)
            .map(|(_, s)| s.dur_ns() as f64)
            .sum()
    }

    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) of the spans named `name` under root spans named
    /// `root`: each span's duration minus the part its direct children
    /// cover.
    pub fn self_within(&self, name: &str, root: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.root_name(*i) == root)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]) as f64)
            .sum()
    }

    /// The distinct span names, in first-seen order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            s,
            "{{\"schema\":\"perfbench-trace v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        s.push_str("],\"counts\":[");
        for (i, (name, op, value)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{name}\",\"op\":\"{op}\",\"value\":{value:?}}}"
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
