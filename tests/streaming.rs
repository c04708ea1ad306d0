//! Streaming oracle: the pull-based result API must be *observationally
//! identical* to the materializing one, and genuinely lazy.
//!
//! Two families of assertions:
//!
//! * **Byte identity** — for all twenty queries on every backend A–H,
//!   draining a [`ResultStream`] yields exactly the sequence `execute`
//!   returns, and `write_to` produces exactly the bytes
//!   `serialize_sequence` produces from the materialized result, every
//!   drain at the same pull total.
//! * **Early termination** — the stream's pull counter proves that
//!   `exists()` / `take(n)` stop the operator cursors early: they pull
//!   strictly fewer items than a full drain on real XMark queries, an
//!   existential predicate (`[bidder]`-shaped) stops at its first witness
//!   instead of draining the axis, and `write_to` into a failing sink
//!   stops right after the item it was writing, at every item offset.

use xmark::prelude::*;
use xmark::query::{Compiled, WriteError};
use xmark::store::NaiveStore;

fn compiled(store: &dyn XmlStore, text: &str) -> Compiled {
    compile(text, store).expect("query compiles")
}

#[test]
fn stream_matches_execute_on_all_twenty_queries_and_backends() {
    // Every full drain — item by item, `collect_seq`, `write_to` — must
    // reproduce `execute`'s bytes and report the same pull total.
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        for q in &ALL_QUERIES {
            let c = compiled(store, q.text);
            let materialized = execute(&c, store).expect("query runs");
            let expected = serialize_sequence(store, &materialized);
            let (_, item_pulls) = drain_counting(c.stream(store));

            // Draining the stream yields the same item sequence …
            let mut s = c.stream(store);
            let streamed = s.collect_seq().expect("stream runs");
            assert_eq!(
                serialize_sequence(store, &streamed),
                expected,
                "Q{} streamed items diverge on {system}",
                q.number
            );
            assert_eq!(
                s.pulls(),
                item_pulls,
                "Q{} collect_seq pull total diverges on {system}",
                q.number
            );

            // … and sink serialization produces the same bytes without
            // ever materializing the sequence, at the same pull total.
            let mut sunk = String::new();
            let mut s = c.stream(store);
            let stats = s.write_to(&mut sunk).expect("write_to runs");
            assert_eq!(
                sunk, expected,
                "Q{} write_to bytes diverge on {system}",
                q.number
            );
            assert_eq!(stats.items, materialized.len());
            assert_eq!(stats.bytes, expected.len() as u64);
            assert_eq!(
                s.pulls(),
                item_pulls,
                "Q{} write_to pull total diverges on {system}",
                q.number
            );
        }
    }
}

#[test]
fn write_to_reaches_io_sinks() {
    // The fmt::Write-generic path serves io::Write targets through IoSink
    // — same bytes, counted, no intermediate String.
    let doc = generate_document(0.001);
    let loaded = load_system(SystemId::E, &doc.xml);
    let store = loaded.store.as_ref();
    let c = compiled(store, query(13).text);
    let expected = serialize_sequence(store, &execute(&c, store).unwrap());

    let mut sink = IoSink::new(Vec::<u8>::new());
    let stats = c.write_to(store, &mut sink).expect("streams to io::Write");
    assert!(sink.take_error().is_none());
    assert_eq!(stats.bytes, sink.bytes());
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);
}

/// Drain a stream completely, returning (items, pulls).
fn drain_counting(mut s: ResultStream<'_>) -> (usize, u64) {
    let mut items = 0;
    while let Some(r) = s.next_item() {
        r.expect("query runs");
        items += 1;
    }
    (items, s.pulls())
}

/// Pull the first `n` items only, returning the pull count.
fn pulls_after_taking(mut s: ResultStream<'_>, n: usize) -> u64 {
    for _ in 0..n {
        s.next_item()
            .expect("result is non-empty")
            .expect("query runs");
    }
    s.pulls()
}

#[test]
fn take_and_exists_pull_strictly_fewer_items_than_full_evaluation() {
    let doc = generate_document(0.002);
    let loaded = load_system(SystemId::D, &doc.xml);
    let store = loaded.store.as_ref();

    // Q13 (serialization-heavy projection over australia's items), Q14
    // (descendant scan with a contains-filter) and Q15 (a deep child
    // chain ending in a value-tail `keyword/text()`) all have streaming
    // pipelines and multi-item results. Q15 pins that the child-value
    // tail stays pipelining: taking one item must not drain the chain.
    for number in [13, 14, 15] {
        let c = compiled(store, query(number).text);
        let (items, full_pulls) = drain_counting(c.stream(store));
        assert!(items > 1, "Q{number} must have a multi-item result");

        let first_pulls = pulls_after_taking(c.stream(store), 1);
        assert!(
            first_pulls < full_pulls,
            "Q{number}: pulling one item cost {first_pulls} pulls, \
             no fewer than the full drain's {full_pulls}"
        );

        // The public fast paths agree with the materialized prefix.
        let all = execute(&c, store).unwrap();
        assert_eq!(
            serialize_sequence(store, &c.stream(store).take(2).unwrap()),
            serialize_sequence(store, &all[..2.min(all.len())]),
            "Q{number}: take(2) diverges from the materialized prefix"
        );
        assert!(c.stream(store).exists().unwrap());
        assert_eq!(c.stream(store).count().unwrap(), all.len());
    }
}

#[test]
fn existential_predicate_stops_at_the_first_witness() {
    // Every <a> holds many <b> children; `[b]` only asks whether one
    // exists. The pull counter proves the predicate cursor stops at its
    // first witness instead of draining the child axis.
    const FANOUT: usize = 40;
    let body: String = (0..3)
        .map(|_| format!("<a>{}</a>", "<b/>".repeat(FANOUT)))
        .collect();
    let store = NaiveStore::load(&format!("<site>{body}</site>")).unwrap();
    let c = compiled(&store, r#"document("auction.xml")/site/a[b]"#);

    let (items, pulls) = drain_counting(c.stream(&store));
    assert_eq!(items, 3, "all three <a> elements qualify");
    assert!(
        (pulls as usize) < 3 * FANOUT,
        "predicate evaluation pulled {pulls} items — it drained the \
         b-axis instead of stopping at the first witness"
    );
}

#[test]
fn exists_function_pulls_at_most_one_item() {
    // Same probe through the XQuery surface: exists(...) and the
    // where-clause EBV both go through the short-circuiting cursor.
    let doc = generate_document(0.002);
    let loaded = load_system(SystemId::G, &doc.xml);
    let store = loaded.store.as_ref();

    let c = compiled(store, r#"exists(document("auction.xml")/site//item)"#);
    let (_, pulls) = drain_counting(c.stream(store));

    let scan = compiled(store, r#"document("auction.xml")/site//item"#);
    let (items, scan_pulls) = drain_counting(scan.stream(store));
    assert!(items > 1);
    assert!(
        pulls < scan_pulls,
        "exists() pulled {pulls} items, no fewer than the {scan_pulls} \
         of a full //item scan"
    );
}

#[test]
fn half_consumed_stream_resumes_from_the_item_offset() {
    // Pull a prefix item by item — leaving memoized inner cursors half-way
    // through their shared sequences — then drain the rest with
    // `collect_seq`. The drain must continue from the prefix's offset,
    // not replay the memo from its start. The FLWOR body replays an
    // absolute memoized path per binding, so every prefix length lands
    // inside a replayed sequence.
    let doc = generate_document(0.002);
    let loaded = load_system(SystemId::D, &doc.xml);
    let store = loaded.store.as_ref();
    let c = compiled(
        store,
        r#"for $p in document("auction.xml")/site/people/person
           return document("auction.xml")/site/regions//item/name/text()"#,
    );
    let all = execute(&c, store).unwrap();
    assert!(all.len() > 8, "need a multi-item result to split");
    let expected = serialize_sequence(store, &all);

    for k in [1usize, 2, 3, all.len() / 2, all.len() - 1] {
        let mut s = c.stream(store);
        let mut items = Vec::with_capacity(all.len());
        for _ in 0..k {
            items.push(
                s.next_item()
                    .expect("prefix item exists")
                    .expect("query runs"),
            );
        }
        items.extend(s.collect_seq().expect("stream resumes"));
        assert_eq!(
            serialize_sequence(store, &items),
            expected,
            "prefix of {k} items then a drain diverges from the \
             materialized result"
        );
    }
}

/// A sink that rejects every write.
struct FailingSink;

impl std::fmt::Write for FailingSink {
    fn write_str(&mut self, _: &str) -> std::fmt::Result {
        Err(std::fmt::Error)
    }
}

#[test]
fn failing_sink_stops_write_to_after_the_first_item() {
    // `write_to` serializes each item as soon as it is pulled, so a sink
    // that rejects its first write ends the drain after exactly the
    // pulls `take(1)` costs — on every backend.
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        let c = compiled(store, query(13).text);
        let (items, _) = drain_counting(c.stream(store));
        assert!(items > 1, "Q13 must have a multi-item result on {system}");
        let first_pulls = pulls_after_taking(c.stream(store), 1);

        let mut s = c.stream(store);
        let err = s.write_to(&mut FailingSink).expect_err("the sink fails");
        assert!(
            matches!(err, WriteError::Sink(_)),
            "expected a sink error on {system}, got {err}"
        );
        assert_eq!(
            s.pulls(),
            first_pulls,
            "write_to into a failing sink pulled {} items on {system}, \
             take(1) pulls {first_pulls}",
            s.pulls()
        );
    }
}

/// A sink that accepts `budget` bytes and rejects any write past them.
struct BudgetSink {
    out: String,
    budget: usize,
}

impl std::fmt::Write for BudgetSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if self.out.len() + s.len() > self.budget {
            return Err(std::fmt::Error);
        }
        self.out.push_str(s);
        Ok(())
    }
}

#[test]
fn write_to_never_pulls_past_the_item_it_is_writing() {
    // The take boundary, restated for the sink drain: a sink that holds
    // exactly the first `k` items' bytes fails on the separator before
    // item `k + 1`, so `write_to` must stop at the pulls `take(k + 1)`
    // costs — at every item offset, not only the first — having handed
    // the sink exactly the first `k` items.
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        let c = compiled(store, query(13).text);
        let all = execute(&c, store).expect("query runs");
        assert!(
            all.len() > 1,
            "Q13 must have a multi-item result on {system}"
        );

        let mut offsets: Vec<usize> = (1..all.len().min(5)).collect();
        offsets.push(all.len() - 1);
        offsets.dedup();
        for k in offsets {
            let prefix = serialize_sequence(store, &all[..k]);
            let mut sink = BudgetSink {
                out: String::new(),
                budget: prefix.len(),
            };
            let mut s = c.stream(store);
            let err = s
                .write_to(&mut sink)
                .expect_err("the sink overflows on item k + 1");
            assert!(
                matches!(err, WriteError::Sink(_)),
                "expected a sink error on {system} at offset {k}, got {err}"
            );
            assert_eq!(
                sink.out, prefix,
                "the sink holds other bytes than the first {k} items on {system}"
            );
            let boundary = pulls_after_taking(c.stream(store), k + 1);
            assert_eq!(
                s.pulls(),
                boundary,
                "write_to stopped at offset {k} after {} pulls on {system}, \
                 take({}) pulls {boundary}",
                s.pulls(),
                k + 1
            );
        }
    }
}

#[test]
fn session_prepare_facade_short_circuits() {
    // The façade surface: Session::prepare wires the same fast paths.
    let session = Benchmark::at_scale("mini").generate();
    let people = session.prepare(SystemId::D, "/site/people/person");
    assert!(people.exists());
    let two = people.take(2);
    assert_eq!(two.len(), 2);
    assert_eq!(people.count(), people.execute().len());

    let mut sunk = String::new();
    let stats = people.write_to(&mut sunk);
    assert_eq!(stats.items, people.count());
    assert_eq!(
        sunk,
        serialize_sequence(people.store().as_ref(), &people.execute())
    );
}

/// Path expressions over a multi-item base — a variable bound to several
/// nodes, a comma sequence with duplicate and nested contexts, a
/// predicated `//tag[…]` first step — paired with an equivalent query
/// whose path starts from a single node.
const MULTI_ITEM_BASES: [(&str, &str); 5] = [
    (
        "let $p := /site/people/person return $p/name/text()",
        "/site/people/person/name/text()",
    ),
    (
        "let $x := (/site/regions, /site/regions/europe) return $x//item/name/text()",
        "/site/regions//item/name/text()",
    ),
    (
        r#"let $s := (/site/people, /site) return $s/person[@id = "person0"]/name/text()"#,
        r#"/site/people/person[@id = "person0"]/name/text()"#,
    ),
    (
        "let $a := /site//open_auction return $a/bidder[1]/increase/text()",
        "/site/open_auctions/open_auction/bidder[1]/increase/text()",
    ),
    (
        "//item[payment]/name/text()",
        "/site//item[payment]/name/text()",
    ),
];

#[test]
fn multi_item_bases_match_their_single_path_equivalents() {
    // A multi-item base runs through the same PathScan cursor as a
    // single node, its steps buffered and merged in document order: the
    // bytes match the single-path form on every backend and plan mode,
    // and every drain reports one pull total.
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        for mode in [PlanMode::Optimized, PlanMode::Naive] {
            for (multi, single) in MULTI_ITEM_BASES {
                let c = compile_with_mode(multi, store, mode).expect("query compiles");
                let expected = serialize_sequence(
                    store,
                    &execute(&compile_with_mode(single, store, mode).unwrap(), store).unwrap(),
                );
                assert!(!expected.is_empty(), "{single} is empty on {system}");
                // Materializing first warms the shared memos, so the
                // drains below all replay the same state.
                let materialized = execute(&c, store).expect("query runs");
                assert_eq!(
                    serialize_sequence(store, &materialized),
                    expected,
                    "{multi} diverges from {single} on {system} ({mode:?})"
                );
                let (items, item_pulls) = drain_counting(c.stream(store));
                assert_eq!(items, materialized.len());

                let mut s = c.stream(store);
                let streamed = s.collect_seq().expect("stream runs");
                assert_eq!(serialize_sequence(store, &streamed), expected);
                assert_eq!(
                    s.pulls(),
                    item_pulls,
                    "{multi}: collect_seq pull total diverges on {system} ({mode:?})"
                );

                let mut sunk = String::new();
                let mut s = c.stream(store);
                s.write_to(&mut sunk).expect("write_to runs");
                assert_eq!(sunk, expected, "{multi}: write_to bytes on {system}");
                assert_eq!(
                    s.pulls(),
                    item_pulls,
                    "{multi}: write_to pull total diverges on {system} ({mode:?})"
                );
            }
        }
    }
}

#[test]
fn a_multi_item_base_is_evaluated_once() {
    // A path over an expression base pays for the base once: exactly
    // the pulls of binding the same expression with `let` first and
    // stepping from the variable, on every backend and plan mode.
    let doc = generate_document(0.002);
    let bases = [
        "(/site/people/person, /site/people/person[1])",
        "(for $p in /site/people/person return $p)",
        "//person[profile]",
    ];
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        for mode in [PlanMode::Optimized, PlanMode::Naive] {
            for base in bases {
                let direct = format!("{base}/name/text()");
                let bound = format!("let $b := {base} return $b/name/text()");
                let run = |text: &str| {
                    let c = compile_with_mode(text, store, mode).expect("query compiles");
                    let bytes = serialize_sequence(store, &execute(&c, store).unwrap());
                    let (_, pulls) = drain_counting(c.stream(store));
                    (bytes, pulls)
                };
                let (direct_bytes, direct_pulls) = run(&direct);
                let (bound_bytes, bound_pulls) = run(&bound);
                assert_eq!(direct_bytes, bound_bytes, "{direct} on {system}");
                assert_eq!(
                    direct_pulls, bound_pulls,
                    "{direct} pulled {direct_pulls} items on {system} ({mode:?}), \
                     the let-bound form {bound_pulls}"
                );
            }
        }
    }
}
