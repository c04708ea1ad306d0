//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer of
//! the program (generator, XML parser, store loads, query parse/plan,
//! drain, serialization, plan-cache lookup, scatter, commit). Each span
//! carries its name, start and end, its parent and the request it belongs
//! to, plus the store counters read at the same two boundaries. Spans stay
//! in memory and are written out once, when the run ends. A disabled
//! tracer records nothing and reads no clock or counter.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use xmark::store::XmlStore;

/// Store counters read at a span boundary: shared-index probes and
/// builds, and buffer-pool traffic (zero on RAM-resident backends).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub index_hits: u64,
    pub index_builds: u64,
    pub pins: u64,
    pub misses: u64,
    pub evictions: u64,
    pub pages_read: u64,
}

impl Counters {
    /// Read the counters of `store` now.
    pub fn read(store: &dyn XmlStore) -> Counters {
        let index = store.indexes().stats();
        let pool = store.paged_stats().unwrap_or_default();
        Counters {
            index_hits: index.hits,
            index_builds: index.builds,
            pins: pool.hits + pool.misses,
            misses: pool.misses,
            evictions: pool.evictions,
            pages_read: pool.pages_read,
        }
    }

    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            index_hits: self.index_hits - earlier.index_hits,
            index_builds: self.index_builds - earlier.index_builds,
            pins: self.pins - earlier.pins,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            pages_read: self.pages_read - earlier.pages_read,
        }
    }

    fn add(&mut self, other: &Counters) {
        self.index_hits += other.index_hits;
        self.index_builds += other.index_builds;
        self.pins += other.pins;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.pages_read += other.pages_read;
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    counters: Counters,
}

/// A handle to an open span; `NONE` when the tracer is disabled.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the time child spans cover).
    pub self_ns: u64,
    /// Summed counter deltas attached to these spans.
    pub counters: Counters,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `on`, and is a no-op otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new request: later spans carry the next request id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            counters: Counters::default(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span (spans close innermost first).
    pub fn end(&mut self, span: SpanId) {
        if !self.on {
            return;
        }
        self.spans[span.0].end_ns = self.origin.elapsed().as_nanos() as u64;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(span.0), "spans close innermost first");
    }

    /// Read `store`'s counters if tracing, so a later [`Tracer::count_since`]
    /// can attach the delta; costs nothing when disabled.
    pub fn counters(&self, store: &dyn XmlStore) -> Counters {
        if self.on {
            Counters::read(store)
        } else {
            Counters::default()
        }
    }

    /// Attach the counter delta since `before` to `span`.
    pub fn count_since(&mut self, span: SpanId, store: &dyn XmlStore, before: &Counters) {
        if self.on {
            self.spans[span.0].counters = Counters::read(store).since(before);
        }
    }

    /// Per-name totals: calls, duration, self time and counters.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = span.end_ns - span.start_ns;
            let layer = out.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += dur;
            layer.self_ns += dur.saturating_sub(child_ns[i]);
            layer.counters.add(&span.counters);
        }
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let c = &s.counters;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"index_hits\":{},\"index_builds\":{},\"pins\":{},\"misses\":{},\
                 \"evictions\":{},\"pages_read\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                c.index_hits,
                c.index_builds,
                c.pins,
                c.misses,
                c.evictions,
                c.pages_read
            );
        }
        std::fs::write(path, out)
    }
}

/// Render per-layer self times as a table, largest self time first.
pub fn self_time_table(layers: &BTreeMap<&'static str, Layer>) -> String {
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    let mut out = format!(
        "{:<20} {:>8} {:>12} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total_ms", "self_ms", "self_us/call", "self%"
    );
    for (name, l) in rows {
        let _ = writeln!(
            out,
            "{name:<20} {:>8} {:>12.3} {:>12.3} {:>12.2} {:>6.1}%",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 / 1e3 / l.calls.max(1) as f64,
            100.0 * l.self_ns as f64 / total.max(1) as f64
        );
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_request();
        let outer = t.begin("request");
        let inner = t.begin("query.parse");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let layers = t.layers();
        let (req, parse) = (layers["request"], layers["query.parse"]);
        assert_eq!(req.calls, 1);
        assert!(parse.total_ns >= 2_000_000);
        assert_eq!(req.self_ns, req.total_ns - parse.total_ns);
        assert_eq!(parse.self_ns, parse.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("request");
        t.end(s);
        assert_eq!(t.len(), 0);
        assert!(t.layers().is_empty());
    }
}
