//! Wire-framing properties of the pipelined protocol: tagged request and
//! response lines round-trip for arbitrary client tags and hostile quoted
//! symbols, and a live pipelined connection keeps interleaved tagged
//! traffic correctly correlated end to end.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use strata_core::{StorageSpec, Update};
use strata_datalog::{Fact, Program, Query, Value};
use strata_service::net::{self, Client};
use strata_service::protocol::{parse_request, render_tagged, render_update, split_tag, Request};
use strata_service::{Cluster, DbOptions, IngestConfig};

/// Client-chosen tags: any non-empty run of printable, non-whitespace
/// ASCII — including `#`, quotes, and punctuation.
fn tag_strategy() -> impl Strategy<Value = String> {
    "[!-~]{1,8}".prop_map(|s| s)
}

/// Symbol content that must survive quote-on-write framing: whitespace,
/// quotes, backslashes, newlines, unicode, protocol keywords — and, the
/// wire-specific hazards, strings that *look like* tags, verbs, or
/// response terminators.
fn hostile_symbol_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| s),
        "[ -~]{0,8}".prop_map(|s| s),
        prop_oneof![
            Just("#tag submit".to_string()),
            Just("ok group=1 version=2".to_string()),
            Just("err boom".to_string()),
            Just("query @7 p(X)".to_string()),
            Just("row X = 1".to_string()),
            Just(String::new()),
            Just("a\"b\\c".to_string()),
            Just("line\nbreak\ttab\rret".to_string()),
            Just("héllo wörld 日本".to_string()),
        ],
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::int),
        hostile_symbol_strategy().prop_map(|s| Value::sym(&s)),
    ]
}

fn fact_strategy() -> impl Strategy<Value = Fact> {
    ("[a-z][a-z0-9_]{0,6}", proptest::collection::vec(value_strategy(), 0..3))
        .prop_map(|(rel, args)| Fact::new(rel.as_str(), args))
}

fn update_strategy() -> impl Strategy<Value = Update> {
    (fact_strategy(), proptest::bool::ANY).prop_map(|(f, insert)| {
        if insert {
            Update::InsertFact(f)
        } else {
            Update::DeleteFact(f)
        }
    })
}

proptest! {
    /// A tagged submit line — hostile fact and all — splits back into the
    /// same tag and parses back into the same update.
    #[test]
    fn tagged_submits_round_trip(tag in tag_strategy(), update in update_strategy()) {
        let line = render_tagged(Some(&tag), &format!("submit {}", render_update(&update)));
        let (got_tag, rest) = split_tag(&line);
        prop_assert_eq!(got_tag, Some(tag.as_str()));
        let Request::Submit { update: round, seq } = parse_request(rest)
            .unwrap_or_else(|e| panic!("`{line}` failed to re-parse: {e}")) else {
            panic!("`{line}` did not parse as a submit")
        };
        prop_assert_eq!(round, update);
        prop_assert_eq!(seq, None);
    }

    /// Version-pinned queries round-trip their tag, their version, and
    /// their body, even when the body is a hostile quoted fact.
    #[test]
    fn tagged_versioned_queries_round_trip(
        tag in tag_strategy(),
        version in prop_oneof![Just(None), (0u64..1_000_000_000).prop_map(Some)],
        fact in fact_strategy(),
    ) {
        let body = fact.to_string();
        let at = version.map(|v| format!("@{v} ")).unwrap_or_default();
        let line = render_tagged(Some(&tag), &format!("query {at}{body}"));
        let (got_tag, rest) = split_tag(&line);
        prop_assert_eq!(got_tag, Some(tag.as_str()));
        let Request::Query { query, at } = parse_request(rest)
            .unwrap_or_else(|e| panic!("`{line}` failed to re-parse: {e}")) else {
            panic!("`{line}` did not parse as a query")
        };
        prop_assert_eq!(at, version);
        prop_assert_eq!(query.to_string(), Query::parse(&body).unwrap().to_string());
    }

    /// Response framing: any terminator or `row` line — including rendered
    /// hostile bindings that themselves look like protocol traffic — comes
    /// back from the tag round-trip byte for byte.
    #[test]
    fn tagged_responses_round_trip(tag in tag_strategy(), value in value_strategy()) {
        for payload in [
            format!("row X = {value}"),
            "ok group=3 version=9".to_string(),
            format!("err cannot parse `{value}`"),
        ] {
            let line = render_tagged(Some(&tag), &payload);
            prop_assert_eq!(split_tag(&line), (Some(tag.as_str()), payload.as_str()));
        }
    }

    /// Untagged lines never grow a tag, whatever their first token looks
    /// like (unless it genuinely is one — then it splits consistently).
    #[test]
    fn untagged_lines_stay_untagged(update in update_strategy()) {
        let line = format!("submit {}", render_update(&update));
        prop_assert_eq!(split_tag(&line), (None, line.as_str()));
        let rendered = render_tagged(None, &line);
        prop_assert_eq!(rendered.as_str(), line.as_str());
    }
}

/// Live pipelined framing: one connection fires a burst of tagged submits
/// and queries over facts with hostile symbols, reads every response line
/// as it arrives, and correlates strictly by tag. Every submit must ack,
/// and every query must return exactly its own fact's binding.
#[test]
fn pipelined_hostile_traffic_correlates_by_tag() {
    let nasty = ["ok group=1", "#t submit", "a\"b\\c", "héllo 日本", "query @1 p(X)"];
    let program = Program::parse("seen(X) :- item(_, X).").unwrap();
    let mut opts = DbOptions::new("cascade");
    opts.cfg =
        IngestConfig { max_group: 16, max_delay: Duration::from_millis(1), ..Default::default() };
    let cluster = Cluster::new(program, StorageSpec::Mem, None, opts).unwrap();
    let server = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    // Fire the whole burst before reading anything: submits and queries
    // interleave, and responses may come back in any order.
    for (i, sym) in nasty.iter().enumerate() {
        let fact = Fact::new("item", vec![Value::int(i as i64), Value::sym(sym)]);
        client.send_raw(&format!("#w{i} submit + {fact}")).expect("send submit");
    }
    let mut acked = 0u64;
    let mut version = 0u64;
    for _ in 0..nasty.len() {
        let (tag, line) = client.recv_raw().expect("recv ack");
        let tag = tag.expect("acks carry the request tag");
        assert!(tag.starts_with('w'), "unexpected tag `{tag}`");
        assert!(line.starts_with("ok group="), "unexpected ack `{line}`");
        let v: u64 = line.split("version=").nth(1).unwrap().parse().unwrap();
        version = version.max(v);
        acked += 1;
    }
    assert_eq!(acked, nasty.len() as u64);

    // Now a burst of version-pinned queries, one per fact, all in flight
    // at once; collect responses by tag.
    for (i, _) in nasty.iter().enumerate() {
        client.send_raw(&format!("#r{i} query @{version} item({i}, X)")).expect("send query");
    }
    let mut rows: HashMap<String, Vec<String>> = HashMap::new();
    let mut done = 0;
    while done < nasty.len() {
        let (tag, line) = client.recv_raw().expect("recv row");
        let tag = tag.expect("query responses carry the request tag");
        if let Some(row) = line.strip_prefix("row ") {
            rows.entry(tag).or_default().push(row.to_string());
        } else {
            assert_eq!(line, "ok 1", "query `{tag}` should see exactly one row: `{line}`");
            done += 1;
        }
    }
    for (i, sym) in nasty.iter().enumerate() {
        let expect = format!("X = {}", Value::sym(sym));
        assert_eq!(
            rows.get(&format!("r{i}")).map(Vec::as_slice),
            Some(&[expect.clone()][..]),
            "query r{i} must see its own hostile fact"
        );
    }
    client.quit().expect("quit");
    server.stop();
    let db = cluster.default_db();
    Arc::try_unwrap(cluster).ok().expect("all clones dropped");
    Arc::try_unwrap(db).ok().expect("the cluster held the last clone").shutdown();
}
