//! Inputs, set-up timing, the traced query calls and the answer key shared
//! by every workload.

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xmark::gen::{Generator, GeneratorConfig};
use xmark::queries::query;
use xmark::query::compile::plan;
use xmark::query::{
    compile, execute, parse_query, serialize_sequence, stream, Compiled, PlanMode, Sequence,
};
use xmark::store::{EdgeStore, XmlStore};

use crate::stats::median;
use crate::trace::Tracer;

/// Scratch directory for page files, WAL files, span dumps and result
/// records: `out/` beside this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

/// Generate the XMark document for `factor` and `seed`.
pub fn generate(factor: f64, seed: u64) -> String {
    let mut buf = Vec::new();
    Generator::new(GeneratorConfig { factor, seed })
        .write(&mut buf)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the generator emits ASCII")
}

/// Run `f` inside a span named `name`, returning its value and wall
/// seconds. Set-up phases are always timed; the span is recorded only
/// when tracing.
pub fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.begin(name);
    let start = Instant::now();
    let value = f();
    let secs = start.elapsed().as_secs_f64();
    tracer.end(span);
    (value, secs)
}

/// Parse and plan `text` with a span around each phase.
pub fn traced_compile(tracer: &mut Tracer, store: &dyn XmlStore, text: &str) -> Option<Compiled> {
    let s = tracer.begin("query.parse");
    let ast = parse_query(text);
    tracer.end(s);
    let s = tracer.begin("query.plan");
    let compiled = ast.ok().map(|ast| plan(&ast, store, PlanMode::Optimized));
    tracer.end(s);
    compiled
}

/// Drain a compiled query into its result sequence, noting how long the
/// first item took.
pub fn drain(compiled: &Compiled, store: &dyn XmlStore) -> Option<(Sequence, Duration)> {
    let start = Instant::now();
    let mut items = stream(compiled, store);
    let first = items.next_item().transpose().ok()?;
    let ttfi = start.elapsed();
    let mut seq: Sequence = first.into_iter().collect();
    seq.extend(items.collect_seq().ok()?);
    Some((seq, ttfi))
}

/// Set-up phase durations over the repeated set-ups of one run.
#[derive(Default)]
pub struct SetupClock {
    gen: Vec<f64>,
    parse: Vec<f64>,
    load: Vec<f64>,
    index: Vec<f64>,
    total: Vec<f64>,
}

impl SetupClock {
    /// Record one complete set-up.
    pub fn push(&mut self, gen: f64, parse: f64, load: f64, index: f64, total: f64) {
        self.gen.push(gen);
        self.parse.push(parse);
        self.load.push(load);
        self.index.push(index);
        self.total.push(total);
    }

    /// Median total set-up seconds (generate, bulkload and warm-up).
    pub fn setup_s(&self) -> f64 {
        median(&self.total)
    }

    /// Median seconds per phase, under the per-layer metric names.
    pub fn phases(&self) -> [(&'static str, f64); 4] {
        [
            ("gen.s", median(&self.gen)),
            ("xml.parse_s", median(&self.parse)),
            ("store.load_s", median(&self.load)),
            ("store.index_build_s", median(&self.index)),
        ]
    }
}

/// What one query must return: its item count and its serialized bytes
/// (length and a hash of the content).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub items: usize,
    pub bytes: u64,
    pub hash: u64,
}

/// The answer key: Q1–Q20 run sequentially on System A, unsharded and
/// unversioned, materialized and then serialized. Index `q - 1`.
pub fn reference(xml: &str) -> Vec<Expected> {
    let store = EdgeStore::load(xml).expect("the generated document parses");
    (1..=20)
        .map(|q| {
            let compiled = compile(query(q).text, &store)
                .unwrap_or_else(|e| panic!("reference Q{q} failed to compile: {e}"));
            let seq = execute(&compiled, &store)
                .unwrap_or_else(|e| panic!("reference Q{q} failed to execute: {e}"));
            let text = serialize_sequence(&store, &seq);
            Expected {
                items: seq.len(),
                bytes: text.len() as u64,
                hash: fnv1a(text.as_bytes()),
            }
        })
        .collect()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The byte sink a request serializes into: keeps the bytes (a reused
/// buffer, like a socket's send buffer) and the instant of the first
/// write, so the answer can be checked after the clock stops.
pub struct Sink {
    buf: String,
    first: Option<Instant>,
}

impl Sink {
    pub fn new() -> Sink {
        Sink {
            buf: String::with_capacity(1 << 16),
            first: None,
        }
    }

    /// Empty the sink for the next request.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.first = None;
    }

    /// Bytes written since the last reset.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written since the last reset.
    pub fn bytes(&self) -> &[u8] {
        self.buf.as_bytes()
    }

    /// When the first byte arrived, if any did.
    pub fn first_write(&self) -> Option<Instant> {
        self.first
    }

    /// Whether `items` and the bytes written match `expected`.
    pub fn matches(&self, items: usize, expected: &Expected) -> bool {
        items == expected.items
            && self.buf.len() as u64 == expected.bytes
            && fnv1a(self.buf.as_bytes()) == expected.hash
    }
}

impl fmt::Write for Sink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.buf.push_str(s);
        Ok(())
    }
}

/// The space a deployment holds: resident bytes plus on-disk bytes (page
/// file and WAL).
pub fn space_bytes(store: &dyn XmlStore) -> f64 {
    (store.size_bytes() + store.disk_bytes()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn sink_checks_bytes_items_and_content() {
        let mut sink = Sink::new();
        sink.write_str("<a/>").unwrap();
        sink.write_str("\nx").unwrap();
        let want = Expected {
            items: 2,
            bytes: 6,
            hash: fnv1a(b"<a/>\nx"),
        };
        assert!(sink.first_write().is_some());
        assert!(sink.matches(2, &want));
        assert!(!sink.matches(1, &want));
        sink.reset();
        sink.write_str("<b/>\nx").unwrap();
        assert!(!sink.matches(2, &want), "same length, other content");
    }

    #[test]
    fn generation_is_seeded() {
        let a = generate(0.0005, 1);
        assert_eq!(a, generate(0.0005, 1));
        assert_ne!(a, generate(0.0005, 2));
    }
}
