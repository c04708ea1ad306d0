//! Index-probe microbench: the store-resident index subsystem against
//! the walks it replaces.
//!
//! Three probes, all on the same loaded stores:
//!
//! * `descendant_scan` — the raw access path under `//item` on System
//!   A: the native descendant cursor (climbing parent chains per extent
//!   entry) vs the shared element index's stabbed posting slice (two
//!   binary searches).
//! * `id_lookup` — Q1 on System G: the naive interpretive scan vs the
//!   shared attribute-value index answering `lookup_id`.
//! * `q8_join` — Q8 (decorrelated IndexLookup) on System A with value
//!   persistence off (cold: every execution rebuilds its lookup index
//!   and path materializations) vs on (warm: probes only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use xmark::prelude::*;
use xmark::query::compile_with_mode;

fn bench_index_probe(c: &mut Criterion) {
    let session = Benchmark::at_scale("mini").generate();
    let mut group = c.benchmark_group("index_probe");

    // Descendant access: native walk vs posting stab (System A). Probed
    // at the store level so no query-layer memo can serve either side.
    let store_a = session.load_shared(SystemId::A);
    store_a.indexes().build_all(store_a.as_ref());
    assert!(
        compile("/site//item", store_a.as_ref())
            .unwrap()
            .explain()
            .contains("->idx"),
        "the planner picks the IndexScan this bench isolates"
    );
    // Scope to a subtree: from an inner context the edge store verifies
    // containment by climbing parent chains per extent entry, while the
    // index stabs the posting list with the subtree range.
    let scope = store_a
        .as_ref()
        .children_named_iter(store_a.as_ref().root(), "regions")
        .next()
        .expect("document has regions");
    group.bench_with_input(
        BenchmarkId::new("descendant_scan", "walk"),
        &store_a,
        |b, store| {
            let store = store.as_ref();
            b.iter(|| black_box(store.descendants_named_iter(scope, "name").count()))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("descendant_scan", "index"),
        &store_a,
        |b, store| {
            let store = store.as_ref();
            b.iter(|| {
                let index = store.indexes().element(store);
                black_box(index.postings_in("name", scope).expect("ordered").len())
            })
        },
    );

    // ID lookup: System G's interpretive scan vs the shared attr index.
    let store_g = session.load_shared(SystemId::G);
    store_g.indexes().build_all(store_g.as_ref());
    let scan_q1 = compile_with_mode(query(1).text, store_g.as_ref(), PlanMode::Naive).unwrap();
    group.bench_with_input(
        BenchmarkId::new("id_lookup", "scan"),
        &store_g,
        |b, store| b.iter(|| black_box(execute(&scan_q1, store.as_ref()).unwrap()).len()),
    );
    group.bench_with_input(
        BenchmarkId::new("id_lookup", "index"),
        &store_g,
        |b, store| b.iter(|| black_box(store.lookup_id("person0")).is_some()),
    );

    // Q8 serving: cold per-execution builds vs warm persistent indexes.
    let q8 = compile(query(8).text, store_a.as_ref()).unwrap();
    let _ = execute(&q8, store_a.as_ref()).unwrap(); // warm the value slots
    for (label, persistent) in [("cold", false), ("warm", true)] {
        group.bench_with_input(BenchmarkId::new("q8_join", label), &store_a, |b, store| {
            store.indexes().set_persistent(persistent);
            b.iter(|| black_box(execute(&q8, store.as_ref()).unwrap()).len());
        });
    }
    store_a.indexes().set_persistent(true);

    group.finish();
}

criterion_group!(benches, bench_index_probe);
criterion_main!(benches);
