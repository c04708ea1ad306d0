//! `single_user`: the paper's Table 3 / Fig. 4 loop. One client runs
//! Q1–Q20 on each in-memory backend A–G, every request compiling from
//! text and streaming its result into a sink; no plan cache, no buffer
//! pool, no transactions, no scatter.

use std::time::{Duration, Instant};

use xmark::queries::query;
use xmark::query::compile::plan;
use xmark::query::{parse_query, stream, write_sequence, PlanMode};
use xmark::store::{
    EdgeStore, FragmentedStore, InlinedStore, IntervalStore, NaiveStore, SummaryStore, SystemId,
    XmlStore,
};
use xmark::xml::parse_document;

use crate::setup::{self, drain, space_bytes, timed, traced_compile, Expected, SetupClock, Sink};
use crate::stats::{median, Classes};
use crate::trace::Tracer;
use crate::{Args, Outcome, FACTOR};

/// Bulkload A–G, in `SystemId::ALL` order, from one parsed document.
fn load_all(doc: &xmark::xml::Document, xml: &str) -> Vec<Box<dyn XmlStore>> {
    vec![
        Box::new(EdgeStore::from_document(doc)),
        Box::new(FragmentedStore::from_document(doc)),
        Box::new(InlinedStore::from_document(doc)),
        Box::new(SummaryStore::from_document(doc)),
        Box::new(IntervalStore::from_document(doc, true)),
        Box::new(IntervalStore::from_document(doc, false)),
        // G keeps its own DOM, so it parses the text itself.
        Box::new(NaiveStore::load(xml).expect("the generated document parses")),
    ]
}

/// One untraced request, exactly as a Table 3 client issues it: parse,
/// plan, then stream the result into the sink. Returns the item count
/// and `(latency, time to first item)`, or `None` on any error.
fn request(
    store: &dyn XmlStore,
    text: &str,
    sink: &mut Sink,
) -> Option<(usize, Duration, Duration)> {
    sink.reset();
    let start = Instant::now();
    let ast = parse_query(text).ok()?;
    let compiled = plan(&ast, store, PlanMode::Optimized);
    let stats = stream(&compiled, store).write_to(sink).ok()?;
    let latency = start.elapsed();
    let ttfi = sink.first_write().map_or(latency, |t| t - start);
    Some((stats.items, latency, ttfi))
}

/// Per-request layer accounting of the traced path.
#[derive(Default)]
struct Traced {
    requests: u64,
    metadata_accesses: u64,
    result_bytes: u64,
    ttfi_us: f64,
}

/// The same request split at each layer boundary, with a span around
/// every call: parse, plan, drain (time to first item noted), serialize.
fn traced_request(
    tracer: &mut Tracer,
    store: &dyn XmlStore,
    text: &str,
    sink: &mut Sink,
    acc: &mut Traced,
) -> Option<(usize, Duration, Duration)> {
    sink.reset();
    tracer.next_request();
    let before = tracer.counters(store);
    let start = Instant::now();
    let req = tracer.begin("request");
    let compiled = traced_compile(tracer, store, text);
    let s = tracer.begin("query.drain");
    let drained = compiled.as_ref().and_then(|c| drain(c, store));
    tracer.end(s);
    let s = tracer.begin("query.serialize");
    let written = drained
        .as_ref()
        .map(|(seq, _)| write_sequence(store, seq, sink).is_ok());
    tracer.end(s);
    tracer.end(req);
    let latency = start.elapsed();
    tracer.count_since(req, store, &before);
    let (seq, drain_ttfi) = drained?;
    if written != Some(true) {
        return None;
    }
    acc.requests += 1;
    acc.metadata_accesses += compiled.map_or(0, |c| c.stats.metadata_accesses);
    acc.ttfi_us += drain_ttfi.as_secs_f64() * 1e6;
    acc.result_bytes += sink.len() as u64;
    let ttfi = sink.first_write().map_or(latency, |t| t - start);
    Some((seq.len(), latency, ttfi))
}

/// Set-up and measurement segments per run. Each segment loads the seven
/// backends afresh and measures a third of the run on them, so the
/// set-ups (whose median is `setup_s`) and the measurement both sample
/// the whole run.
const SEGMENTS: usize = 3;

/// Generate, parse, bulkload A–G, build their indexes and warm them up.
fn set_up(
    args: &Args,
    tracer: &mut Tracer,
    clock: &mut SetupClock,
) -> (String, Vec<Box<dyn XmlStore>>) {
    let start = Instant::now();
    let root = tracer.begin("setup");
    let (xml, gen_s) = timed(tracer, "gen", || setup::generate(FACTOR, args.seed));
    let (doc, parse_s) = timed(tracer, "xml.parse", || {
        parse_document(&xml).expect("the generated document parses")
    });
    let (stores, load_s) = timed(tracer, "store.load", || load_all(&doc, &xml));
    let (_, index_s) = timed(tracer, "store.index_build", || {
        for s in &stores {
            s.indexes().build_all(s.as_ref());
        }
    });
    // Warm-up: one pass over every class fills the join-side value
    // indexes, so the timed loop starts warm.
    timed(tracer, "warmup", || {
        let mut sink = Sink::new();
        for s in &stores {
            for q in 1..=20 {
                let _ = request(s.as_ref(), query(q).text, &mut sink);
            }
        }
    });
    tracer.end(root);
    clock.push(
        gen_s,
        parse_s,
        load_s,
        index_s,
        start.elapsed().as_secs_f64(),
    );
    (xml, stores)
}

pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let mut clock = SetupClock::default();
    let mut expected: Vec<Expected> = Vec::new();
    let mut sink = Sink::new();
    let mut untraced = Classes::default();
    let mut traced = Classes::default();
    let mut acc = Traced::default();
    // Untraced requests and their summed latency (s) per round over all
    // classes: `qps` is the median over complete rounds, which shrugs off
    // a passing slowdown of the host.
    let mut rounds: Vec<(usize, f64)> = Vec::new();
    let mut space_ratio = 0.0;
    let mut next = 0usize;
    let segment = Duration::from_secs_f64(args.seconds / SEGMENTS as f64);
    for _ in 0..SEGMENTS {
        let (xml, stores) = set_up(args, tracer, &mut clock);
        if expected.is_empty() {
            expected = setup::reference(&xml);
        }
        let classes: Vec<(usize, usize)> = (1..=20)
            .flat_map(|q| (0..stores.len()).map(move |s| (s, q)))
            .collect();
        // Round-robin over the classes, continuing across segments, until
        // the segment ends. A traced run issues every class twice in a
        // row, untraced and traced, alternating which goes first (and
        // flipping that pattern each round), so both sides see the same
        // classes in the same states.
        let start = Instant::now();
        while start.elapsed() < segment {
            let (s, q) = classes[next % classes.len()];
            let arms: &[bool] = match (args.trace, (next + next / classes.len()) % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            next += 1;
            for &tracing in arms {
                let store = stores[s].as_ref();
                let text = query(q).text;
                let result = if tracing {
                    traced_request(tracer, store, text, &mut sink, &mut acc)
                } else {
                    request(store, text, &mut sink)
                };
                out.attempted += 1;
                match result {
                    Some((items, latency, ttfi)) if sink.matches(items, &expected[q - 1]) => {
                        if !tracing {
                            let round = (next - 1) / classes.len();
                            rounds.resize(rounds.len().max(round + 1), (0, 0.0));
                            rounds[round].0 += 1;
                            rounds[round].1 += latency.as_secs_f64();
                        }
                        let target = if tracing { &mut traced } else { &mut untraced };
                        target.push(
                            (s, q),
                            latency.as_secs_f64() * 1e3,
                            ttfi.as_secs_f64() * 1e3,
                        );
                    }
                    _ => {
                        out.wrong += 1;
                        out.report.push(format!(
                            "WRONG: Q{q} on System {} returned a wrong answer or an error",
                            SystemId::ALL[s]
                        ));
                    }
                }
            }
        }
        let space: f64 = stores.iter().map(|s| space_bytes(s.as_ref())).sum();
        space_ratio = space / xml.len() as f64;
    }

    out.fact("backends", "A-G in memory");
    out.fact("pool", "none (RAM-resident)");
    out.fact("state", "warm (indexes built, one warm-up pass per class)");
    out.fact("flush", "none (read-only)");
    out.fact("classes", format!("{} (query x backend)", untraced.len()));
    out.fact("min_samples_per_class", untraced.min_samples());
    out.e2e("setup_s", clock.setup_s());
    // Complete rounds only: a partial round holds only the first queries.
    let n_classes = 20 * SystemId::ALL.len();
    let round_qps: Vec<f64> = rounds
        .iter()
        .filter(|(n, _)| *n == n_classes)
        .map(|(n, secs)| *n as f64 / secs)
        .collect();
    out.fact("rounds", round_qps.len());
    out.e2e("qps", median(&round_qps));
    // One client runs alone, so a class's requests do the same work and
    // differ only by what the host did meanwhile: the fastest is the
    // program's cost (README.md).
    out.e2e("latency_ms", untraced.latency_min());
    out.e2e("ttfi_ms", untraced.ttfi_min());
    out.e2e("latency_p50_ms", untraced.latency_p50());
    out.e2e("latency_p95_ms", untraced.p95_geomean());
    out.e2e("ttfi_p50_ms", untraced.ttfi_p50());
    out.e2e("space_ratio", space_ratio);
    for (name, secs) in clock.phases() {
        out.layer(name, secs);
    }
    out.report
        .push(untraced.table(|(s, q)| format!("Q{q}/{}", SystemId::ALL[s]), 10));
    if args.trace {
        let layers = tracer.layers();
        let n = acc.requests.max(1) as f64;
        let per_req_us = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.total_ns as f64 / 1e3 / n)
        };
        let req = layers.get("request").copied().unwrap_or_default();
        let compile = per_req_us("query.parse") + per_req_us("query.plan");
        // Every traced request compiles once, so per request is per compile.
        out.layer("query.parse_us", per_req_us("query.parse"));
        out.layer("query.plan_us", per_req_us("query.plan"));
        out.layer("query.metadata_accesses", acc.metadata_accesses as f64 / n);
        out.layer(
            "query.compile_share",
            compile / per_req_us("request").max(1e-9),
        );
        out.layer("query.exec_us", per_req_us("query.drain"));
        out.layer("query.ttfi_us", acc.ttfi_us / n);
        out.layer("query.serialize_us", per_req_us("query.serialize"));
        out.layer("query.result_bytes", acc.result_bytes as f64 / n);
        out.layer(
            "store.index.hits_per_req",
            req.counters.index_hits as f64 / n,
        );
        out.layer("store.index.builds", req.counters.index_builds as f64);
        out.layer("request.self_us", req.self_ns as f64 / 1e3 / n);
        out.layer(
            "trace.overhead_ms",
            traced.latency_p50() - untraced.latency_p50(),
        );
        out.report.push(crate::trace::self_time_table(&layers));
        out.report.push(format!(
            "tracing overhead: traced latency_p50 {:.6} ms - untraced {:.6} ms",
            traced.latency_p50(),
            untraced.latency_p50()
        ));
    }
}
