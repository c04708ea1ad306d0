//! The three service workloads, all closed loops on a `QueryService`
//! worker pool:
//!
//! * `service_paged` — backend H behind a buffer pool a quarter the size
//!   of its page file, plan cache and indexes warmed in set-up;
//! * `sharded` — a 2-shard System A `ShardedStore`, every request
//!   scattered (`execute_scattered`) and merged;
//! * `mixed_rw` — readers on a `VersionedStore` over H (pool holds the
//!   whole file) while a writer lane inserts and deletes a bidder,
//!   forcing the WAL at each commit.
//!
//! The pool runs in chunks of about a second on a helper thread, each
//! with a deadline: a chunk that stops progressing (both threads parked,
//! as in the known `mixed_rw` hang) ends the run, and its operations count
//! as unfinished. The traced run replays the same mix through the same
//! deployment on one thread — plan-cache lookup, drain, serialize — with a
//! span around each call, interleaved with untraced replays (for the
//! tracing overhead) and untraced pool chunks (for the service counters).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use xmark::gen::{generate_sharded, GeneratorConfig};
use xmark::queries::query;
use xmark::query::{execute_scattered, stream, write_sequence, Compiled};
use xmark::service::{QueryService, ThroughputReport, DEFAULT_PLAN_CACHE};
use xmark::store::paged::wal_path_for;
use xmark::store::{
    EdgeStore, Node, PagedStore, ShardedStore, StoreSource, XmlStore, DEFAULT_POOL_PAGES,
};
use xmark::txn::{TxnError, VersionedStore};
use xmark::xml::parse_document;

use crate::setup::{
    self, drain, fnv1a, space_bytes, timed, traced_compile, Expected, SetupClock, Sink,
};
use crate::stats::{median, Classes};
use crate::trace::{self_time_table, Tracer};
use crate::{Args, Outcome, Workload, FACTOR};

/// Target length of one pool chunk.
const CHUNK_S: f64 = 1.0;

/// A chunk that has not finished after this long has stalled.
const CHUNK_DEADLINE: Duration = Duration::from_secs(10);

/// The bidder the writer lane inserts and deletes again.
const BIDDER: &str = "<bidder><date>28/07/2026</date><time>12:00:00</time>\
                      <personref person=\"person0\"/><increase>4.50</increase></bidder>";

/// The writer lane of `mixed_rw`: even commits append a bidder to the
/// next open auction, odd commits delete it again, so the document stays
/// bounded and its bidder count is checkable (the parity check).
struct Writer {
    versioned: Arc<VersionedStore>,
    auctions: Vec<Node>,
    pending: Option<Node>,
    inserts: usize,
    commits: u64,
    conflicts: u64,
    baseline_bidders: usize,
    wal_at_start: usize,
}

impl Writer {
    fn new(versioned: Arc<VersionedStore>) -> Writer {
        let s = versioned.snapshot();
        let auctions: Vec<Node> = s.descendants_named_iter(s.root(), "open_auction").collect();
        let baseline_bidders = s.count_descendants_named(s.root(), "bidder");
        let wal_at_start = wal_bytes(s.as_ref());
        Writer {
            versioned,
            auctions,
            pending: None,
            inserts: 0,
            commits: 0,
            conflicts: 0,
            baseline_bidders,
            wal_at_start,
        }
    }

    /// One commit: `Transaction::commit` appends to and forces the WAL.
    fn commit_one(&mut self) -> Result<Duration, TxnError> {
        let start = Instant::now();
        let mut txn = self.versioned.begin();
        let next = match self.pending {
            Some(auction) => {
                let s = self.versioned.snapshot();
                let bidder = s
                    .children_named_iter(auction, "bidder")
                    .last()
                    .expect("the bidder the previous commit inserted");
                txn.delete_subtree(bidder);
                None
            }
            None => {
                let auction = self.auctions[self.inserts % self.auctions.len()];
                txn.insert_subtree(auction, BIDDER);
                Some(auction)
            }
        };
        match txn.commit() {
            Ok(_) => {
                if next.is_some() {
                    self.inserts += 1;
                }
                self.pending = next;
                self.commits += 1;
                Ok(start.elapsed())
            }
            Err(e) => {
                self.conflicts += 1;
                Err(e)
            }
        }
    }

    /// Every insert not yet paired with its delete is visible; nothing
    /// else changed the bidder count.
    fn parity_holds(&self) -> bool {
        let s = self.versioned.snapshot();
        s.count_descendants_named(s.root(), "bidder")
            == self.baseline_bidders + usize::from(self.pending.is_some())
    }
}

fn wal_bytes(store: &dyn XmlStore) -> usize {
    store.txn_wal().map_or(0, |w| w.size_bytes())
}

/// One deployed workload.
struct Deployment {
    service: QueryService,
    source: Arc<dyn StoreSource>,
    writer: Option<Writer>,
    sharded: bool,
}

/// What one pool chunk produced.
struct Chunk {
    read: ThroughputReport,
    commits: usize,
    commit_p50: Duration,
    commit_p95: Duration,
    epochs: usize,
}

impl Deployment {
    fn chunk(&mut self, mix: &[usize], n: usize, write_pct: u32) -> Chunk {
        match self.writer.as_mut() {
            Some(writer) => {
                let mut write = || Some(writer.commit_one().unwrap_or_default());
                let r = self.service.run_mixed(mix, n, write_pct, &mut write);
                Chunk {
                    read: r.read,
                    commits: r.commits,
                    commit_p50: r.commit_p50,
                    commit_p95: r.commit_p95,
                    epochs: r.epochs_observed,
                }
            }
            None => Chunk {
                read: self.service.run_mix(mix, n),
                commits: 0,
                commit_p50: Duration::ZERO,
                commit_p95: Duration::ZERO,
                epochs: 1,
            },
        }
    }
}

enum ChunkError {
    /// The run panicked: a wrong answer caught by the service's own
    /// agreement check, or a failed query.
    Panicked(String),
    /// No answer before the deadline.
    Stalled,
}

/// Run one pool chunk on a helper thread and wait for it at most
/// [`CHUNK_DEADLINE`]. A stalled helper is left parked; the caller ends
/// the run without touching the deployment again.
fn run_chunk(
    shared: &Arc<Mutex<Deployment>>,
    mix: &[usize],
    n: usize,
    write_pct: u32,
) -> Result<Chunk, ChunkError> {
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(shared);
    let mix = mix.to_vec();
    let helper = thread::spawn(move || {
        let mut d = shared.lock().expect("a failed chunk ends the run");
        let result = panic::catch_unwind(AssertUnwindSafe(|| d.chunk(&mix, n, write_pct)));
        let _ = tx.send(result.map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }));
    });
    match rx.recv_timeout(CHUNK_DEADLINE) {
        Ok(result) => {
            helper.join().expect("the chunk helper catches panics");
            result.map_err(ChunkError::Panicked)
        }
        Err(_) => Err(ChunkError::Stalled),
    }
}

/// Totals over the pool chunks of one run.
#[derive(Default)]
struct PoolTotals {
    /// Reads per second of each chunk; `qps` is their median, which
    /// shrugs off a passing slowdown of the host.
    chunk_qps: Vec<f64>,
    requests: u64,
    elapsed_s: f64,
    busy_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    commits: u64,
    commit_p50: Vec<f64>,
    commit_p95: Vec<f64>,
    epochs: u64,
}

/// Fold one chunk into the totals, checking read-only answers against
/// the answer key: every request of a query agreed (the service asserts
/// that), so one item count per query plus the byte total check them all.
fn absorb(
    chunk: &Chunk,
    expected: Option<&[Expected]>,
    classes: &mut Classes,
    totals: &mut PoolTotals,
    out: &mut Outcome,
) {
    let r = &chunk.read;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut want_bytes = 0u64;
    let mut wrong = 0u64;
    for s in &r.per_query {
        classes.push_chunk((0, s.query), ms(s.p50), ms(s.p95), ms(s.ttfi_p50), s.count);
        totals.busy_s += s.mean.as_secs_f64() * s.count as f64;
        if let Some(key) = expected {
            want_bytes += key[s.query - 1].bytes * s.count as u64;
            if s.result_items != key[s.query - 1].items {
                wrong += s.count as u64;
                out.report.push(format!(
                    "WRONG: Q{} returned {} items, expected {}",
                    s.query,
                    s.result_items,
                    key[s.query - 1].items
                ));
            }
        }
    }
    if expected.is_some() && wrong == 0 && r.result_bytes != want_bytes {
        wrong = r.requests as u64;
        out.report.push(format!(
            "WRONG: a chunk streamed {} result bytes, expected {want_bytes}",
            r.result_bytes
        ));
    }
    out.wrong += wrong;
    out.attempted += r.requests as u64 + chunk.commits as u64;
    totals
        .chunk_qps
        .push(r.requests as f64 / r.elapsed.as_secs_f64().max(1e-9));
    totals.requests += r.requests as u64;
    totals.elapsed_s += r.elapsed.as_secs_f64();
    totals.cache_hits += r.plan_cache_hits;
    totals.cache_misses += r.plan_cache_misses;
    totals.commits += chunk.commits as u64;
    totals.epochs += chunk.epochs as u64;
    if chunk.commits > 0 {
        totals.commit_p50.push(ms(chunk.commit_p50));
        totals.commit_p95.push(ms(chunk.commit_p95));
    }
}

/// A deployment plus the facts of its set-up.
struct Built {
    deployment: Deployment,
    phases: [f64; 4],
    doc_bytes: usize,
    /// The generated monolithic document, when set-up produced one.
    xml: Option<String>,
    pool: String,
    files: Vec<PathBuf>,
}

/// Backend H in a page file under `out/`, bulkloaded, closed and opened
/// again cold: for `service_paged` with a pool a quarter of the file, for
/// `mixed_rw` with one that holds all of it.
fn paged(w: Workload, args: &Args, tracer: &mut Tracer, workers: usize, k: usize) -> Built {
    let (xml, gen_s) = timed(tracer, "gen", || setup::generate(FACTOR, args.seed));
    let (doc, parse_s) = timed(tracer, "xml.parse", || {
        parse_document(&xml).expect("the generated document parses")
    });
    let path = setup::out_dir().join(format!("{}-{}-{k}.pages", w.name(), std::process::id()));
    let files = vec![path.clone(), wal_path_for(&path)];
    let ((source, writer, pool), load_s) = timed(tracer, "store.load", || {
        let created =
            PagedStore::create_at(&path, &doc, DEFAULT_POOL_PAGES).expect("bulkload the page file");
        let pages = created.num_pages() as usize;
        drop(created);
        // A quarter of the file makes the working set overflow the pool.
        let frames = if w == Workload::MixedRw {
            pages + 16
        } else {
            (pages / 4).max(8)
        };
        let mut store = PagedStore::open(&path, frames).expect("open the page file cold");
        store.mark_ephemeral();
        let store: Arc<dyn XmlStore> = Arc::new(store);
        let pool = format!("{frames} frames for {pages} pages");
        if w == Workload::MixedRw {
            let versioned = VersionedStore::new(store);
            let writer = Writer::new(Arc::clone(&versioned));
            (versioned as Arc<dyn StoreSource>, Some(writer), pool)
        } else {
            (Arc::new(store) as Arc<dyn StoreSource>, None, pool)
        }
    });
    let service = QueryService::start_source(Arc::clone(&source), workers, DEFAULT_PLAN_CACHE);
    let (_, index_s) = timed(tracer, "store.index_build", || service.build_indexes());
    Built {
        deployment: Deployment {
            service,
            source,
            writer,
            sharded: false,
        },
        phases: [gen_s, parse_s, load_s, index_s],
        doc_bytes: xml.len(),
        xml: Some(xml),
        pool,
        files,
    }
}

/// A 2-shard System A union over the generator's shard documents.
fn sharded(args: &Args, tracer: &mut Tracer, workers: usize) -> Built {
    let config = GeneratorConfig {
        factor: FACTOR,
        seed: args.seed,
    };
    let (files, gen_s) = timed(tracer, "gen", || generate_sharded(&config, 2));
    let (docs, parse_s) = timed(tracer, "xml.parse", || {
        files
            .iter()
            .map(|f| parse_document(&f.content).expect("shard documents parse"))
            .collect::<Vec<_>>()
    });
    let (store, load_s) = timed(tracer, "store.load", || {
        let shards = docs
            .iter()
            .map(|d| Box::new(EdgeStore::from_document(d)) as Box<dyn XmlStore>)
            .collect();
        let store: Arc<dyn XmlStore> =
            Arc::new(ShardedStore::from_shards(shards).expect("shard skeletons match"));
        store
    });
    let source = Arc::new(store) as Arc<dyn StoreSource>;
    let service = QueryService::start_source(Arc::clone(&source), workers, DEFAULT_PLAN_CACHE);
    let (_, index_s) = timed(tracer, "store.index_build", || service.build_indexes());
    Built {
        deployment: Deployment {
            service,
            source,
            writer: None,
            sharded: true,
        },
        phases: [gen_s, parse_s, load_s, index_s],
        doc_bytes: files.iter().map(|f| f.content.len()).sum(),
        xml: None,
        pool: "none (RAM-resident)".into(),
        files: Vec::new(),
    }
}

/// Layer accounting of the traced one-thread replays, plus the pacing of
/// the replay's writer lane (both arms).
#[derive(Default)]
struct Replay {
    /// Traced reads that completed.
    requests: u64,
    request_ns: u64,
    /// Compile time inside traced requests (plan-cache misses).
    compile_ns: u64,
    /// Traced compiles, in requests and in the compile probe.
    compiles: u64,
    metadata_accesses: u64,
    result_bytes: u64,
    ttfi_us: f64,
    reads: u64,
    commits: u64,
    /// `mixed_rw`: the answer every read of a query pinned to one epoch
    /// must agree on.
    by_epoch: HashMap<(usize, u64), (usize, u64, u64)>,
}

impl Replay {
    /// Count a traced compile and its catalog touches.
    fn count_compile(&mut self, tracer: &Tracer, compiled: &Compiled) {
        if tracer.on() {
            self.compiles += 1;
            self.metadata_accesses += compiled.stats.metadata_accesses;
        }
    }
}

/// One read replayed on the calling thread through the deployment's own
/// plan cache, split at the layer boundaries the service crosses: pin a
/// snapshot, look the plan up (compile and insert on a miss), drain (or
/// scatter), serialize. Returns `(items, latency, ttfi, epoch)`.
fn replay_read(
    d: &Deployment,
    tracer: &mut Tracer,
    q: usize,
    sink: &mut Sink,
    acc: &mut Replay,
    mono: Option<&Mono>,
) -> Option<(usize, Duration, Duration, u64)> {
    sink.reset();
    tracer.next_request();
    let text = query(q).text;
    let store = d.source.snapshot();
    let store = store.as_ref();
    let epoch = store.content_epoch();
    let before = tracer.counters(store);
    let start = Instant::now();
    let req = tracer.begin("request");
    let s = tracer.begin("service.lookup");
    let key = format!("{epoch}|{text}");
    let cached = d.service.plan_cache().lookup(&key);
    tracer.end(s);
    let mut compile_ns = 0;
    let compiled = match cached {
        Some(c) => c,
        None => {
            let compile_start = Instant::now();
            let Some(c) = traced_compile(tracer, store, text) else {
                tracer.end(req);
                return None;
            };
            let c = Arc::new(c);
            compile_ns = compile_start.elapsed().as_nanos() as u64;
            acc.count_compile(tracer, &c);
            d.service.plan_cache().insert(&key, Arc::clone(&c));
            c
        }
    };
    let s = tracer.begin(if d.sharded {
        "query.scatter"
    } else {
        "query.drain"
    });
    let drain_start = Instant::now();
    let drained = if d.sharded {
        // Scatter materializes the whole result before the first item.
        execute_scattered(&compiled, store)
            .ok()
            .map(|seq| (seq, drain_start.elapsed()))
    } else {
        drain(&compiled, store)
    };
    tracer.end(s);
    let s = tracer.begin("query.serialize");
    let written = drained
        .as_ref()
        .is_some_and(|(seq, _)| write_sequence(store, seq, sink).is_ok());
    tracer.end(s);
    tracer.end(req);
    let latency = start.elapsed();
    tracer.count_since(req, store, &before);
    // The same class drained on the monolithic store, for the scatter
    // ratio.
    if let Some(m) = mono.filter(|_| tracer.on()) {
        let s = tracer.begin("probe.mono_drain");
        let _ = stream(&m.plans[q - 1], &m.store).collect_seq();
        tracer.end(s);
    }
    let (seq, drain_ttfi) = drained?;
    if !written {
        return None;
    }
    if tracer.on() {
        acc.requests += 1;
        acc.request_ns += latency.as_nanos() as u64;
        acc.compile_ns += compile_ns;
        acc.ttfi_us += drain_ttfi.as_secs_f64() * 1e6;
        acc.result_bytes += sink.len() as u64;
    }
    let ttfi = sink.first_write().map_or(latency, |t| t - start);
    Some((seq.len(), latency, ttfi, epoch))
}

/// The monolithic System A store and its plans, which the traced
/// `sharded` run drains beside each scattered request.
struct Mono {
    store: EdgeStore,
    plans: Vec<Compiled>,
}

/// Set-up and measurement segments per run. Each segment sets the
/// workload up afresh and measures a third of the run on that
/// deployment, so the set-ups (whose median is `setup_s`) and the
/// measurement both sample the whole run.
const SEGMENTS: usize = 3;

/// Everything measured over a run's segments.
#[derive(Default)]
struct Measured {
    pool: Classes,
    totals: PoolTotals,
    untraced: Classes,
    traced: Classes,
    acc: Replay,
    space_ratio: f64,
    wal_bytes: usize,
    overlay_bytes: usize,
    writer_commits: u64,
    conflicts: u64,
}

pub fn run(w: Workload, args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let workers = if w == Workload::MixedRw {
        args.cores.saturating_sub(1).max(1)
    } else {
        args.cores
    };
    out.fact("workers", workers);
    out.fact("mix", format!("{:?}", args.mix));
    out.fact("state", "warm (plan cache and indexes warmed in set-up)");
    out.fact(
        "flush",
        if w == Workload::MixedRw {
            format!(
                "WAL sync_data per commit, ~{} commits per 100 reads",
                args.write_pct
            )
        } else {
            "none (read-only)".into()
        },
    );
    let mut clock = SetupClock::default();
    let mut m = Measured::default();
    let mut expected: Vec<Expected> = Vec::new();
    let mut mono: Option<Mono> = None;
    let segment = Duration::from_secs_f64(args.seconds / SEGMENTS as f64);
    for k in 0..SEGMENTS {
        let start = Instant::now();
        let root = tracer.begin("setup");
        let b = match w {
            Workload::Sharded => sharded(args, tracer, workers),
            _ => paged(w, args, tracer, workers, k),
        };
        // Warm-up: one pass compiles every plan and builds the join-side
        // indexes; a second, longer pass sizes the pool chunks.
        let (qps, _) = timed(tracer, "warmup", || {
            b.deployment.service.run_mix(&args.mix, args.mix.len());
            b.deployment
                .service
                .run_mix(&args.mix, args.mix.len() * 3)
                .qps()
        });
        tracer.end(root);
        let [g, p, l, i] = b.phases;
        clock.push(g, p, l, i, start.elapsed().as_secs_f64());
        if expected.is_empty() {
            out.fact("pool", &b.pool);
            let xml = b
                .xml
                .clone()
                .unwrap_or_else(|| setup::generate(FACTOR, args.seed));
            expected = setup::reference(&xml);
            if args.trace && w == Workload::Sharded {
                let store = EdgeStore::load(&xml).expect("the generated document parses");
                let plans = (1..=20)
                    .map(|q| xmark::query::compile(query(q).text, &store).expect("queries compile"))
                    .collect();
                mono = Some(Mono { store, plans });
            }
        }
        if !measure(
            w,
            args,
            b,
            qps,
            segment,
            &expected,
            mono.as_ref(),
            tracer,
            &mut m,
            out,
        ) {
            break;
        }
    }
    report(w, out, &clock, &m);
    if args.trace {
        report_layers(w, out, tracer, &m);
    }
}

/// Measure one segment on a fresh deployment: pool chunks, and in a
/// traced run a one-thread replay as well. Returns false when the run
/// must end (a stalled or failed chunk).
#[allow(clippy::too_many_arguments)]
fn measure(
    w: Workload,
    args: &Args,
    b: Built,
    calibrated_qps: f64,
    segment: Duration,
    expected: &[Expected],
    mono: Option<&Mono>,
    tracer: &mut Tracer,
    m: &mut Measured,
    out: &mut Outcome,
) -> bool {
    let mix = &args.mix;
    let write_pct = if w == Workload::MixedRw {
        args.write_pct
    } else {
        0
    };
    let check_key = (w != Workload::MixedRw).then_some(expected);
    let shared = Arc::new(Mutex::new(b.deployment));
    let pool_len = if args.trace { segment / 2 } else { segment };
    let mut qps = m.totals.chunk_qps.last().copied().unwrap_or(calibrated_qps);
    let start = Instant::now();
    while start.elapsed() < pool_len {
        // About a second of reads at the last chunk's rate, or what is
        // left of the slice.
        let left = (pool_len - start.elapsed()).as_secs_f64().min(CHUNK_S);
        let chunk_n = ((qps * left) as usize).max(mix.len());
        match run_chunk(&shared, mix, chunk_n, write_pct) {
            Ok(chunk) => {
                let r = &chunk.read;
                qps = r.requests as f64 / r.elapsed.as_secs_f64().max(1e-9);
                absorb(&chunk, check_key, &mut m.pool, &mut m.totals, out);
            }
            Err(e) => {
                let ops = (chunk_n + chunk_n * write_pct as usize / 100) as u64;
                out.attempted += ops;
                match e {
                    ChunkError::Stalled => {
                        out.stalled = true;
                        out.unfinished += ops;
                        out.report.push(format!(
                            "{}: a chunk of {chunk_n} reads made no progress for {:?}",
                            w.name(),
                            CHUNK_DEADLINE
                        ));
                    }
                    ChunkError::Panicked(msg) => {
                        out.wrong += ops;
                        out.report.push(format!("WRONG: a chunk failed: {msg}"));
                    }
                }
                // The helper may still hold the deployment: leave it
                // alone and remove its files.
                for f in &b.files {
                    let _ = std::fs::remove_file(f);
                }
                std::mem::forget(shared);
                return false;
            }
        }
    }
    let mut d = shared.lock().expect("every chunk finished");
    if args.trace {
        replay(
            &mut d,
            args,
            write_pct,
            segment - pool_len,
            check_key,
            mono,
            tracer,
            m,
            out,
        );
    }
    let snapshot = d.source.snapshot();
    m.space_ratio = space_bytes(snapshot.as_ref()) / b.doc_bytes.max(1) as f64;
    if let Some(writer) = &d.writer {
        m.wal_bytes += wal_bytes(snapshot.as_ref()) - writer.wal_at_start;
        m.overlay_bytes = snapshot.size_bytes() - writer.versioned.base().size_bytes();
        m.writer_commits += writer.commits;
        m.conflicts += writer.conflicts;
        out.wrong += writer.conflicts;
        if !writer.parity_holds() {
            out.wrong += 1;
            out.report
                .push("WRONG: writer-lane parity check failed".into());
        }
    }
    true
}

/// The one-thread replay of a traced run: a compile probe of every class,
/// one unrecorded pass, then every query of the mix twice in a row,
/// untraced and traced (alternating which goes first, and flipping that
/// pattern each round), with the writer lane's commits interleaved at the
/// same rate as the pool's.
#[allow(clippy::too_many_arguments)]
fn replay(
    d: &mut Deployment,
    args: &Args,
    write_pct: u32,
    len: Duration,
    check_key: Option<&[Expected]>,
    mono: Option<&Mono>,
    tracer: &mut Tracer,
    m: &mut Measured,
    out: &mut Outcome,
) {
    let mix = &args.mix;
    let start = Instant::now();
    // What a plan-cache miss costs on this deployment, for the
    // query.parse_us and query.plan_us metrics.
    let store = d.source.snapshot();
    for &q in mix {
        tracer.next_request();
        let s = tracer.begin("probe.compile");
        if let Some(c) = traced_compile(tracer, store.as_ref(), query(q).text) {
            m.acc.count_compile(tracer, &c);
        }
        tracer.end(s);
    }
    drop(store);
    let mut off = Tracer::new(false);
    let mut sink = Sink::new();
    // One unrecorded pass brings the pool and caches from the pool
    // chunks' state to the replay's.
    let mut scratch = Replay::default();
    for &q in mix {
        let _ = replay_read(d, &mut off, q, &mut sink, &mut scratch, None);
    }
    let mut i = 0usize;
    while start.elapsed() < len {
        let q = mix[i % mix.len()];
        let traced_first = (i + i / mix.len()) % 2 == 1;
        i += 1;
        for tracing in [traced_first, !traced_first] {
            let tr = if tracing { &mut *tracer } else { &mut off };
            let result = replay_read(d, tr, q, &mut sink, &mut m.acc, mono);
            out.attempted += 1;
            m.acc.reads += 1;
            let ok = result.is_some_and(|(items, latency, ttfi, epoch)| {
                let answer = (items, sink.len() as u64, fnv1a(sink.bytes()));
                let agrees = match check_key {
                    Some(key) => sink.matches(items, &key[q - 1]),
                    None => *m.acc.by_epoch.entry((q, epoch)).or_insert(answer) == answer,
                };
                if agrees {
                    let target = if tracing {
                        &mut m.traced
                    } else {
                        &mut m.untraced
                    };
                    target.push(
                        (0, q),
                        latency.as_secs_f64() * 1e3,
                        ttfi.as_secs_f64() * 1e3,
                    );
                }
                agrees
            });
            if !ok {
                out.wrong += 1;
                out.report
                    .push(format!("WRONG: replayed Q{q} returned a wrong answer"));
            }
        }
        if let Some(writer) = d.writer.as_mut() {
            while m.acc.commits * 100 < m.acc.reads * u64::from(write_pct) {
                tracer.next_request();
                let s = tracer.begin("txn.commit");
                let _ = writer.commit_one();
                tracer.end(s);
                m.acc.commits += 1;
                out.attempted += 1;
            }
        }
    }
}

/// End-to-end metrics of the pool chunks, and the counters every run
/// reports.
fn report(w: Workload, out: &mut Outcome, clock: &SetupClock, m: &Measured) {
    let totals = &m.totals;
    let workers: f64 = out
        .facts
        .iter()
        .find(|(k, _)| *k == "workers")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(1.0);
    out.fact("classes", m.pool.len());
    out.fact("min_samples_per_class", m.pool.min_samples());
    out.e2e("setup_s", clock.setup_s());
    out.e2e("qps", median(&totals.chunk_qps));
    // Workers contend with each other, and that contention is part of the
    // latency, so the gated figures are the chunk medians (README.md).
    out.e2e("latency_ms", m.pool.latency_p50());
    out.e2e("ttfi_ms", m.pool.ttfi_p50());
    out.e2e("latency_p50_ms", m.pool.latency_p50());
    out.e2e("latency_p95_ms", m.pool.worst_p95());
    out.e2e("ttfi_p50_ms", m.pool.ttfi_p50());
    out.e2e("space_ratio", m.space_ratio);
    for (name, secs) in clock.phases() {
        out.layer(name, secs);
    }
    let lookups = (totals.cache_hits + totals.cache_misses).max(1) as f64;
    let capacity = totals.elapsed_s * workers;
    let busy = totals.busy_s / capacity.max(1e-9);
    out.layer(
        "service.plan_cache_hit_rate",
        totals.cache_hits as f64 / lookups,
    );
    out.layer("service.busy_frac", busy);
    out.layer(
        "service.overhead_us_per_req",
        (capacity - totals.busy_s) * 1e6 / totals.requests.max(1) as f64,
    );
    out.report
        .push(m.pool.table(|(_, q)| format!("Q{q}"), usize::MAX));
    out.report.push(format!(
        "pool: {} reads in {:.3} s, plan-cache hit rate {:.4}, busy {busy:.3}",
        totals.requests,
        totals.elapsed_s,
        totals.cache_hits as f64 / lookups,
    ));
    if w == Workload::MixedRw {
        let (p50, p95) = (median(&totals.commit_p50), median(&totals.commit_p95));
        let commits = m.writer_commits.max(1) as f64;
        out.layer("txn.commit_p50_ms", p50);
        out.layer("txn.commit_p95_ms", p95);
        out.layer("txn.epochs_observed", totals.epochs as f64);
        out.layer("txn.wal_bytes", m.wal_bytes as f64);
        out.layer("txn.wal_bytes_per_commit", m.wal_bytes as f64 / commits);
        out.layer("txn.overlay_bytes", m.overlay_bytes as f64);
        out.layer("txn.conflicts", m.conflicts as f64);
        out.report.push(format!(
            "writer: commit_p50_ms {p50:.6} ms, commit_p95_ms {p95:.6} ms; {} commits \
             ({} in the pool, {} snapshot epochs observed by its readers), {} conflicts, \
             {} WAL bytes",
            m.writer_commits, totals.commits, totals.epochs, m.conflicts, m.wal_bytes
        ));
    }
}

/// Per-layer metrics of the traced replay.
fn report_layers(w: Workload, out: &mut Outcome, tracer: &Tracer, m: &Measured) {
    let layers = tracer.layers();
    let acc = &m.acc;
    let reads = acc.requests.max(1) as f64;
    let per_read_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / 1e3 / reads)
    };
    let per_call_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.calls.max(1) as f64)
    };
    let req = layers.get("request").copied().unwrap_or_default();
    let exec = if w == Workload::Sharded {
        "query.scatter"
    } else {
        "query.drain"
    };
    out.layer("query.parse_us", per_call_us("query.parse"));
    out.layer("query.plan_us", per_call_us("query.plan"));
    out.layer(
        "query.metadata_accesses",
        acc.metadata_accesses as f64 / acc.compiles.max(1) as f64,
    );
    out.layer(
        "query.compile_share",
        acc.compile_ns as f64 / acc.request_ns.max(1) as f64,
    );
    out.layer("query.exec_us", per_read_us(exec));
    out.layer("query.ttfi_us", acc.ttfi_us / reads);
    out.layer("query.serialize_us", per_read_us("query.serialize"));
    out.layer("query.result_bytes", acc.result_bytes as f64 / reads);
    let c = req.counters;
    out.layer("store.index.hits_per_req", c.index_hits as f64 / reads);
    out.layer("store.index.builds", c.index_builds as f64);
    out.layer("store.paged.pins_per_req", c.pins as f64 / reads);
    out.layer("store.paged.misses_per_req", c.misses as f64 / reads);
    out.layer("store.paged.evictions_per_req", c.evictions as f64 / reads);
    out.layer(
        "store.paged.hit_rate",
        if c.pins == 0 {
            0.0
        } else {
            1.0 - c.misses as f64 / c.pins as f64
        },
    );
    out.layer(
        "store.paged.pages_read_per_req",
        c.pages_read as f64 / reads,
    );
    out.layer(
        "service.plan_cache_lookup_us",
        per_call_us("service.lookup"),
    );
    if w == Workload::Sharded {
        out.layer("query.scatter.exec_us", per_read_us("query.scatter"));
        let mono = layers.get("probe.mono_drain").map_or(0, |l| l.total_ns);
        let scatter = layers.get("query.scatter").map_or(0, |l| l.total_ns);
        out.layer(
            "query.scatter.vs_mono_ratio",
            scatter as f64 / mono.max(1) as f64,
        );
    }
    if w == Workload::MixedRw {
        out.layer("txn.commit_us", per_call_us("txn.commit"));
    }
    out.layer("request.self_us", req.self_ns as f64 / 1e3 / reads);
    let (traced, untraced) = (m.traced.latency_p50(), m.untraced.latency_p50());
    out.layer("trace.overhead_ms", traced - untraced);
    out.report.push(self_time_table(&layers));
    out.report.push(format!(
        "tracing overhead (one-thread replay): traced latency_p50 {traced:.6} ms - \
         untraced {untraced:.6} ms"
    ));
}
