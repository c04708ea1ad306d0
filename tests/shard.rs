//! Sharded-union oracle: sharded deployments are invisible to queries.
//!
//! A [`ShardedStore`] partitions one logical XMark document across N
//! entity shards plus a global head shard and presents them as one
//! document: its axis cursors merge the shards in document order and its
//! counts add per-shard partial counts, so a query runs on the union
//! exactly as on a monolithic store — streamed through those cursors.
//! This suite is the correctness contract for it: **every** benchmark
//! query must produce byte-identical canonical output on the sharded
//! union and on the monolithic store it partitions — for 2, 4 and 8
//! shards, on an in-memory backend (A) and on the disk-resident backend
//! (H, one page file per shard, opened cold) — and the union must
//! stream item by item, as the monolithic backends do.

use xmark::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const FACTOR: f64 = 0.001;

/// Monolithic reference outputs for every query, computed once.
fn reference_outputs(session: &Session) -> Vec<String> {
    let mono = session.load(SystemId::A);
    (1..=20)
        .map(|q| canonical_output(mono.store.as_ref(), q))
        .collect()
}

fn assert_sharded_matches(store: &dyn XmlStore, reference: &[String], label: &str) {
    for (i, want) in reference.iter().enumerate() {
        let q = i + 1;
        let got = canonical_output(store, q);
        assert_eq!(
            &got, want,
            "Q{q} diverged on {label}: the union view produced a \
             different result than the monolithic run"
        );
    }
}

#[test]
fn all_queries_agree_sharded_vs_monolithic_in_memory() {
    let session = Benchmark::at_factor(FACTOR).generate();
    let reference = reference_outputs(&session);
    for shards in SHARD_COUNTS {
        let sharded = session.load_sharded(SystemId::A, shards);
        assert_sharded_matches(
            sharded.store.as_ref(),
            &reference,
            &format!("System A x{shards} shards"),
        );
    }
}

#[test]
fn all_queries_agree_sharded_vs_monolithic_paged_cold() {
    let session = Benchmark::at_factor(FACTOR).generate();
    let reference = reference_outputs(&session);
    for shards in SHARD_COUNTS {
        // Each shard bulkloads into its own page file and re-opens cold:
        // the union starts with every per-shard buffer pool empty.
        let sharded = session.load_sharded_paged(shards, Some(32));
        assert_eq!(sharded.system, SystemId::H);
        assert_sharded_matches(
            sharded.store.as_ref(),
            &reference,
            &format!("System H x{shards} cold shards"),
        );
        // The shards really are paged: pool counters saw the traffic.
        let stats = sharded
            .store
            .paged_stats()
            .expect("sharded H union merges shard pool stats");
        assert!(stats.pages_read > 0, "cold shards must read pages");
    }
}

#[test]
fn sharded_union_streams_item_by_item() {
    let session = Benchmark::at_factor(FACTOR).generate();
    let unions = [
        ("System A x2 shards", session.load_sharded(SystemId::A, 2)),
        (
            "System H x2 cold shards",
            session.load_sharded_paged(2, Some(32)),
        ),
    ];
    for (label, sharded) in &unions {
        let store = sharded.store.as_ref();
        for q in &ALL_QUERIES {
            let c = compile(q.text, store).expect("benchmark query compiles");
            let expected = serialize_sequence(store, &execute(&c, store).expect("query runs"));
            // `collect_seq` reproduces `execute`'s bytes …
            let mut s = c.stream(store);
            let collected = s.collect_seq().expect("stream runs");
            assert_eq!(
                serialize_sequence(store, &collected),
                expected,
                "Q{} collect_seq diverges on {label}",
                q.number
            );
            // … at the pull total of an item-by-item drain.
            let mut items = c.stream(store);
            let mut drained = Vec::new();
            while let Some(item) = items.next_item() {
                drained.push(item.expect("query runs"));
            }
            assert_eq!(serialize_sequence(store, &drained), expected);
            assert_eq!(
                s.pulls(),
                items.pulls(),
                "Q{} pull totals diverge on {label}",
                q.number
            );
        }
        // Early termination reaches through the union's cursors: the
        // first item of Q13 costs fewer pulls than the whole result.
        let c = compile(query(13).text, store).expect("Q13 compiles");
        let mut full = c.stream(store);
        assert!(full.collect_seq().expect("Q13 runs").len() > 1);
        let mut first = c.stream(store);
        first
            .next_item()
            .expect("Q13 is non-empty")
            .expect("Q13 runs");
        assert!(
            first.pulls() < full.pulls(),
            "Q13 on {label}: one item cost {} pulls, no fewer than the full drain's {}",
            first.pulls(),
            full.pulls()
        );
    }
}

#[test]
fn hand_built_union_matches_monolithic_on_every_plan_shape() {
    // A head shard and two entity shards small enough to read: paths
    // that interleave sections held by different shards, the fused root,
    // attribute-final paths, FLWOR iteration with and without filters,
    // an ID lookup, a count over a FLWOR, a sort and a join.
    const GLOBAL: &str = "<site><regions><africa><item id=\"item0\"><name>i0</name></item><item id=\"item1\"><name>i1</name></item></africa></regions><categories><category id=\"cat0\"/></categories><catgraph/><people/><open_auctions/><closed_auctions/></site>";
    const SHARD0: &str = "<site><regions/><categories/><catgraph/><people><person id=\"person0\"><name>Ada</name></person></people><open_auctions><open_auction id=\"open0\"><bidder><increase>3</increase></bidder></open_auction></open_auctions><closed_auctions/></site>";
    const SHARD1: &str = "<site><regions/><categories/><catgraph/><people><person id=\"person1\"><name>Bob</name></person><person id=\"person2\"><name>Cyd</name></person></people><open_auctions/><closed_auctions><closed_auction><price>7</price></closed_auction></closed_auctions></site>";
    const WHOLE: &str = "<site><regions><africa><item id=\"item0\"><name>i0</name></item><item id=\"item1\"><name>i1</name></item></africa></regions><categories><category id=\"cat0\"/></categories><catgraph/><people><person id=\"person0\"><name>Ada</name></person><person id=\"person1\"><name>Bob</name></person><person id=\"person2\"><name>Cyd</name></person></people><open_auctions><open_auction id=\"open0\"><bidder><increase>3</increase></bidder></open_auction></open_auctions><closed_auctions><closed_auction><price>7</price></closed_auction></closed_auctions></site>";
    let union = ShardedStore::load(SystemId::A, &[GLOBAL, SHARD0, SHARD1]).unwrap();
    let whole = build_store(SystemId::A, WHOLE).unwrap();
    for q in [
        "/site/people/person/name",
        "//name",
        "/site",
        "//person/@id",
        "for $p in /site/people/person return $p/name/text()",
        r#"for $p in /site/people/person where $p/name != "Zed" return $p/name/text()"#,
        r#"for $p in /site/people/person where $p/@id = "person1" return $p/name/text()"#,
        "count(for $p in //person return $p)",
        "for $p in //person order by $p/name return $p/name/text()",
        r#"for $a in /site/open_auctions/open_auction, $p in /site/people/person
           where $a/@id = $p/@id return $p"#,
    ] {
        let on_union = compile(q, &union).unwrap();
        let on_whole = compile(q, whole.as_ref()).unwrap();
        assert_eq!(
            serialize_sequence(&union, &execute(&on_union, &union).unwrap()),
            serialize_sequence(whole.as_ref(), &execute(&on_whole, whole.as_ref()).unwrap()),
            "union != monolithic for {q}"
        );
    }
}
