//! Integration tests for topology-aware fleet serving: a ring of
//! `rpwf-server` nodes partitioning (and, with `replicas ≥ 2`,
//! replicating) the instance keyspace.
//!
//! * byte-identical responses whichever node a request enters through,
//! * strict partitioning with `replicas: 1`, primary+successor copies
//!   with the default replication factor,
//! * transparent forwarding with `Ring`-command observability,
//! * **fault tolerance**: a node killed mid-load loses no answers (the
//!   failover path serves warm replicas), the per-peer circuit breaker
//!   opens on a dead peer and re-closes after a restart, and a scripted
//!   [`FaultPlan`] (corrupt lines, dropped connections, delays, node
//!   kills) never leaks a wrong byte to the client,
//! * a true multi-process fleet driven through the `rpwf` binary.

use rpwf_core::ring::HashRing;
use rpwf_server::protocol::{Command, Request, Response};
use rpwf_server::{FaultPlan, RingOptions, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VNODES: usize = 16;

/// Reserves `n` distinct loopback ports. The listeners are dropped before
/// the fleet binds them — a small race, but ephemeral-port reuse within a
/// test run is vanishingly rare.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn fleet_config(node_id: &str, cache_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        cache_capacity,
        cache_shards: 4,
        seed: 0xCAFE,
        solver_threads: 1,
        node_id: Some(node_id.to_string()),
    }
}

fn ring_options(replicas: usize) -> RingOptions {
    RingOptions {
        vnodes: Some(VNODES),
        replicas,
        ..RingOptions::default()
    }
}

/// Starts an `n`-node in-process fleet (separate services and caches per
/// node — process-equivalent up to the address space) with the default
/// replication factor.
fn start_fleet(n: usize, cache_capacity: usize) -> (Vec<String>, Vec<Server>) {
    start_fleet_with(n, cache_capacity, RingOptions::default().replicas)
}

/// [`start_fleet`] with an explicit replication factor.
fn start_fleet_with(
    n: usize,
    cache_capacity: usize,
    replicas: usize,
) -> (Vec<String>, Vec<Server>) {
    let addrs = reserve_addrs(n);
    let servers = addrs
        .iter()
        .map(|addr| {
            let peers: Vec<String> = addrs.iter().filter(|a| *a != addr).cloned().collect();
            Server::bind_ring(
                addr,
                fleet_config(addr, cache_capacity),
                &peers,
                ring_options(replicas),
            )
            .expect("bind fleet node")
        })
        .collect();
    (addrs, servers)
}

/// Polls until every key in `keys` is cached by exactly `copies` fleet
/// nodes (replica fills are asynchronous pushes). Panics after ~10 s.
fn await_replication(servers: &[&Server], keys: &[u128], copies: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let cached: Vec<Vec<u128>> = servers
            .iter()
            .map(|s| s.service().front_cache_keys())
            .collect();
        let done = keys
            .iter()
            .all(|key| cached.iter().filter(|node| node.contains(key)).count() == copies);
        if done {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica fills did not converge to {copies} copies per key"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn request_line(id: u64, cmd: Command) -> String {
    serde_json::to_string(&Request {
        id: Some(id),
        deadline_ms: None,
        no_cache: None,
        hop: None,
        trace: None,
        trace_ctx: None,
        explain: None,
        cmd,
    })
    .expect("requests serialize")
}

fn traced_request_line(id: u64, cmd: Command) -> String {
    serde_json::to_string(&Request {
        id: Some(id),
        deadline_ms: None,
        no_cache: None,
        hop: None,
        trace: Some(true),
        trace_ctx: None,
        explain: None,
        cmd,
    })
    .expect("requests serialize")
}

/// Sends one request line to `addr`, reading lines until the closing
/// `ok`/`error`.
fn roundtrip(addr: &str, line: &str) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{line}").expect("send");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    loop {
        let mut out = String::new();
        reader.read_line(&mut out).expect("read response line");
        let resp: Response = serde_json::from_str(out.trim()).expect("well-formed response");
        let done = resp.status != "part";
        responses.push(resp);
        if done {
            return responses;
        }
    }
}

fn solve_cmd(seed: u64, latency_factor: f64) -> Command {
    let inst = rpwf_gen::make_instance(
        rpwf_core::platform::PlatformClass::CommHomogeneous,
        rpwf_core::platform::FailureClass::Heterogeneous,
        3,
        6,
        seed,
    );
    let safest = rpwf_algo::mono::minimize_failure(&inst.pipeline, &inst.platform);
    Command::Solve {
        pipeline: inst.pipeline,
        platform: inst.platform,
        objective: rpwf_algo::Objective::MinFpUnderLatency(safest.latency * latency_factor),
    }
}

fn explain_cmd(seed: u64, latency_factor: f64) -> Command {
    let inst = rpwf_gen::make_instance(
        rpwf_core::platform::PlatformClass::CommHomogeneous,
        rpwf_core::platform::FailureClass::Heterogeneous,
        3,
        6,
        seed,
    );
    let safest = rpwf_algo::mono::minimize_failure(&inst.pipeline, &inst.platform);
    Command::Explain {
        pipeline: inst.pipeline,
        platform: inst.platform,
        objective: rpwf_algo::Objective::MinFpUnderLatency(safest.latency * latency_factor),
    }
}

fn result_payload(resp: &Response) -> String {
    serde_json::to_string(&resp.result).expect("serializes")
}

#[test]
fn fleet_answers_byte_identically_from_any_entry_node() {
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 256)).expect("bind single");
    let single_addr = single.local_addr().to_string();
    let (addrs, _servers) = start_fleet(3, 256);

    for seed in 0..4u64 {
        let line = request_line(seed, solve_cmd(seed, 1.5));
        let reference = roundtrip(&single_addr, &line);
        assert_eq!(reference.len(), 1);
        assert_eq!(reference[0].status, "ok", "{:?}", reference[0].error);
        let reference_result = result_payload(&reference[0]);

        let mut owners = Vec::new();
        for entry in &addrs {
            let got = roundtrip(entry, &line);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
            assert_eq!(
                result_payload(&got[0]),
                reference_result,
                "seed {seed}: entry node {entry} must answer exactly like a single node"
            );
            owners.push(
                got[0]
                    .meta
                    .node
                    .clone()
                    .expect("fleet stamps node identity"),
            );
        }
        // Whichever door the request came through, the same owner answered.
        assert!(
            owners.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: all entries must resolve to one owner, got {owners:?}"
        );
        assert!(addrs.contains(&owners[0]), "owner is a fleet member");
    }
}

#[test]
fn explanations_are_byte_identical_from_any_entry_node() {
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 256)).expect("bind single");
    let single_addr = single.local_addr().to_string();
    let (addrs, _servers) = start_fleet(3, 256);

    for seed in 0..3u64 {
        // A bound far below the front's reach: the query is infeasible,
        // so the explanation carries real MUS/MCS content to compare —
        // and repeated entries exercise both the cold (solve) and warm
        // (cached-front) oracle paths, which must not change a byte.
        let line = request_line(seed, explain_cmd(seed, 0.01));
        let reference = roundtrip(&single_addr, &line);
        assert_eq!(reference.len(), 1);
        assert_eq!(reference[0].status, "ok", "{:?}", reference[0].error);
        let reference_result = result_payload(&reference[0]);
        assert!(
            reference_result.contains("\"feasible\":false"),
            "seed {seed}: the probe bound must be infeasible: {reference_result}"
        );

        let mut owners = Vec::new();
        for entry in &addrs {
            let got = roundtrip(entry, &line);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
            assert_eq!(
                result_payload(&got[0]),
                reference_result,
                "seed {seed}: entry node {entry} must explain exactly like a single node"
            );
            owners.push(
                got[0]
                    .meta
                    .node
                    .clone()
                    .expect("fleet stamps node identity"),
            );
        }
        // Explain routes by instance key like solve: one owner answers
        // whichever door the request came through.
        assert!(
            owners.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: all entries must resolve to one owner, got {owners:?}"
        );
        assert!(addrs.contains(&owners[0]), "owner is a fleet member");
    }
}

#[test]
fn owning_node_caches_exactly_one_front_per_distinct_instance() {
    // replicas: 1 — this test pins the *strict partitioning* contract;
    // the replicated contract is `replicated_fleet_holds_every_front_on_
    // primary_and_successor`.
    let (addrs, servers) = start_fleet_with(3, 256, 1);
    let ring = HashRing::new(addrs.clone(), VNODES);

    let distinct = 6u64;
    for seed in 0..distinct {
        // Two different thresholds per instance, entering via different
        // nodes: one front per instance must result, on its owner.
        let entry_a = &addrs[(seed as usize) % 3];
        let entry_b = &addrs[(seed as usize + 1) % 3];
        let first = roundtrip(entry_a, &request_line(seed, solve_cmd(seed, 1.4)));
        assert_eq!(first.last().expect("response").status, "ok");
        let second = roundtrip(entry_b, &request_line(100 + seed, solve_cmd(seed, 1.9)));
        let second = second.last().expect("response");
        assert_eq!(second.status, "ok");
        assert!(
            second.meta.cache_hit,
            "seed {seed}: second threshold over the instance must hit the owner's front cache"
        );
    }

    let mut total_entries = 0usize;
    for (addr, server) in addrs.iter().zip(&servers) {
        let keys = server.service().front_cache_keys();
        for key in &keys {
            assert_eq!(
                ring.owner(*key),
                Some(addr.as_str()),
                "node {addr} may only cache keys the ring assigns to it"
            );
        }
        total_entries += keys.len();
    }
    assert_eq!(
        total_entries, distinct as usize,
        "the fleet must hold exactly one front per distinct instance"
    );
}

#[test]
fn replicated_fleet_holds_every_front_on_primary_and_successor() {
    let (addrs, servers) = start_fleet(3, 256); // default replicas = 2
    let ring = HashRing::new(addrs.clone(), VNODES);

    let distinct = 6u64;
    let keys: Vec<u128> = (0..distinct)
        .map(|seed| {
            let cmd = solve_cmd(seed, 1.5);
            let entry = &addrs[(seed as usize) % 3];
            let got = roundtrip(entry, &request_line(seed, cmd.clone()));
            assert_eq!(got.last().expect("response").status, "ok");
            cmd.route_key().expect("solve routes")
        })
        .collect();

    // The primary solves synchronously; the successor is filled by an
    // asynchronous CacheFill push — wait for both copies.
    let server_refs: Vec<&Server> = servers.iter().collect();
    await_replication(&server_refs, &keys, 2);

    for (addr, server) in addrs.iter().zip(&servers) {
        for key in server.service().front_cache_keys() {
            let owners = ring.owners(key, 2);
            assert!(
                owners.contains(&addr.as_str()),
                "node {addr} caches a key owned by {owners:?}"
            );
        }
    }

    // The census splits the copies by role: each key counts once as
    // owned (on its primary) and once as a replica (on the successor).
    let mut owned_total = 0u64;
    let mut replica_total = 0u64;
    for entry in &addrs {
        let ring_resp = roundtrip(entry, &request_line(90, Command::Ring));
        let result = ring_resp[0].result.as_ref().expect("ring payload");
        assert_eq!(
            result.get("replicas").and_then(serde::Value::as_u64),
            Some(2)
        );
        owned_total += result
            .get("owned_cache_keys")
            .and_then(serde::Value::as_u64)
            .expect("owned census");
        replica_total += result
            .get("replica_cache_keys")
            .and_then(serde::Value::as_u64)
            .expect("replica census");
    }
    assert_eq!(owned_total, distinct, "one primary copy per instance");
    assert_eq!(replica_total, distinct, "one successor copy per instance");
}

#[test]
fn ring_command_reports_topology_and_forwarding() {
    // replicas: 1 — the forwards+owned arithmetic below assumes client
    // requests are the only peer traffic (no CacheFill pushes).
    let (addrs, _servers) = start_fleet_with(3, 64, 1);
    // Generate traffic from one entry so it must forward ~2/3 of it.
    let entry = &addrs[0];
    for seed in 0..6u64 {
        let got = roundtrip(entry, &request_line(seed, solve_cmd(seed, 1.5)));
        assert_eq!(got.last().expect("response").status, "ok");
    }

    let ring_resp = roundtrip(entry, &request_line(99, Command::Ring));
    assert_eq!(ring_resp.len(), 1);
    let result = ring_resp[0].result.as_ref().expect("ring payload");
    assert_eq!(
        result.get("node").and_then(serde::Value::as_str),
        Some(entry.as_str())
    );
    let mut nodes: Vec<String> = result
        .get("nodes")
        .and_then(serde::Value::as_seq)
        .expect("nodes list")
        .iter()
        .map(|v| v.as_str().expect("node name").to_string())
        .collect();
    nodes.sort();
    let mut expected = addrs.clone();
    expected.sort();
    assert_eq!(nodes, expected);
    let forwards: u64 = result
        .get("forwards")
        .and_then(serde::Value::as_seq)
        .expect("forward counters")
        .iter()
        .map(|f| {
            f.get("forwards")
                .and_then(serde::Value::as_u64)
                .unwrap_or(0)
        })
        .sum();
    let owned = result
        .get("owned_cache_keys")
        .and_then(serde::Value::as_u64)
        .expect("owned census");
    // A healthy unreplicated fleet: factor 1, nothing failed over, no
    // replica copies, every breaker closed.
    assert_eq!(
        result.get("replicas").and_then(serde::Value::as_u64),
        Some(1)
    );
    assert_eq!(
        result
            .get("replica_cache_keys")
            .and_then(serde::Value::as_u64),
        Some(0)
    );
    assert_eq!(
        result.get("failovers").and_then(serde::Value::as_u64),
        Some(0)
    );
    for peer in result
        .get("forwards")
        .and_then(serde::Value::as_seq)
        .expect("forward counters")
    {
        assert_eq!(
            peer.get("breaker_state").and_then(serde::Value::as_str),
            Some("closed")
        );
        assert_eq!(
            peer.get("breaker_skips").and_then(serde::Value::as_u64),
            Some(0)
        );
    }
    // 6 distinct instances spread over 3 nodes: this entry owns some and
    // forwarded the rest.
    assert_eq!(
        forwards + owned,
        6,
        "every instance either owned or forwarded"
    );

    // A routed Simulate caches a per-query *result* (keyed in a different
    // hash space); it must not show up as a phantom foreign front key.
    let sim = {
        let inst = rpwf_gen::make_instance(
            rpwf_core::platform::PlatformClass::CommHomogeneous,
            rpwf_core::platform::FailureClass::Heterogeneous,
            3,
            6,
            41,
        );
        Command::Simulate {
            pipeline: inst.pipeline,
            platform: inst.platform,
            trials: Some(200),
        }
    };
    for entry in &addrs {
        assert_eq!(
            roundtrip(entry, &request_line(50, sim.clone()))[0].status,
            "ok"
        );
    }
    for entry in &addrs {
        let ring_resp = roundtrip(entry, &request_line(51, Command::Ring));
        let foreign = ring_resp[0]
            .result
            .as_ref()
            .expect("ring payload")
            .get("foreign_cache_keys")
            .and_then(serde::Value::as_u64)
            .expect("census");
        assert_eq!(
            foreign, 0,
            "no peer died, so no node may report foreign front keys"
        );
    }

    // The metrics dump carries the same counters for scrapers.
    let metrics = roundtrip(entry, &request_line(100, Command::Metrics));
    let text = match metrics[0].result.as_ref().expect("metrics text") {
        serde::Value::Str(s) => s.clone(),
        other => panic!("metrics must be text, got {other:?}"),
    };
    assert!(text.contains("rpwf_ring_nodes 3"), "{text}");
    assert!(
        text.contains(&format!(
            "rpwf_ring_owned_cache_keys{{node=\"{entry}\"}} {owned}"
        )),
        "{text}"
    );
    assert!(text.contains("rpwf_ring_forwards_total{peer="), "{text}");
    assert!(
        text.contains(&format!("rpwf_ring_failovers_total{{node=\"{entry}\"}} 0")),
        "{text}"
    );
    assert!(text.contains("rpwf_peer_breaker_state{peer="), "{text}");
    assert!(
        text.contains("rpwf_cache_shard_hits_total{shard=\"0\"}"),
        "{text}"
    );
}

#[test]
fn traced_fleet_request_returns_one_merged_trace() {
    let (addrs, _servers) = start_fleet(3, 64);
    let ring = HashRing::new(addrs.clone(), VNODES);

    // An instance owned by node 2, entered through node 0: the request
    // must hop, and the trace must cover both sides of the hop.
    let entry = addrs[0].clone();
    let owner = addrs[2].clone();
    let seed = (0..100u64)
        .find(|&s| {
            let key = solve_cmd(s, 1.5).route_key().expect("solve routes");
            ring.owner(key) == Some(owner.as_str())
        })
        .expect("some instance lands on the owner node");

    let got = roundtrip(&entry, &traced_request_line(42, solve_cmd(seed, 1.5)));
    let resp = got.last().expect("response");
    assert_eq!(resp.status, "ok", "{:?}", resp.error);
    assert_eq!(
        resp.meta.node.as_deref(),
        Some(owner.as_str()),
        "the owner answers through the entry node"
    );
    let tree = resp.meta.trace.as_ref().expect("trace requested");

    // One merged tree: a single root, every other span parented inside.
    let roots: Vec<usize> = tree
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(roots, vec![0], "exactly one root after the graft");

    let attr = |i: usize, key: &str| -> Option<&str> {
        tree.spans[i]
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    // The entry side: root labeled with the entry node, a route span
    // naming the owner, and the forward span labeling the hop boundary
    // with both node ids.
    assert_eq!(attr(0, "node"), Some(entry.as_str()));
    assert_eq!(attr(0, "role"), Some("entry"));
    let find = |name: &str| -> Option<usize> { tree.spans.iter().position(|s| s.name == name) };
    let route = find("route").expect("route span");
    assert_eq!(attr(route, "owner"), Some(owner.as_str()));
    let forward = find("peer.forward").expect("forward span");
    assert_eq!(attr(forward, "from"), Some(entry.as_str()));
    assert_eq!(attr(forward, "to"), Some(owner.as_str()));

    // The owner side, grafted under the forward span: its own request
    // root (labeled with the owner's node id and the hop flag), engine
    // planning, per-solver execution, and the cache write.
    let owner_root = tree
        .spans
        .iter()
        .position(|s| s.name == "request" && s.parent == Some(forward as u32))
        .expect("owner subtree grafted under the forward span");
    assert_eq!(attr(owner_root, "node"), Some(owner.as_str()));
    assert_eq!(attr(owner_root, "hop"), Some("true"));
    for required in ["decode", "engine.plan", "cache.write"] {
        assert!(
            tree.spans
                .iter()
                .any(|s| s.name == required && s.parent.is_some()),
            "missing {required} span in {:?}",
            tree.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    assert!(
        tree.spans.iter().any(|s| s.name.starts_with("solver.")),
        "per-solver spans must survive the hop"
    );
    assert!(
        tree.spans.iter().any(|s| s.name == "peer.connect"),
        "the peer client's connection spans must be recorded"
    );

    // Timing is coherent after the re-basing graft: every span fits
    // inside the root window (the owner's wall time is strictly inside
    // the entry's forward window).
    let root_elapsed = tree.spans[0].elapsed_us;
    for span in &tree.spans[1..] {
        assert!(
            span.start_us + span.elapsed_us <= root_elapsed + 5,
            "span {} [{}..{}] escapes the root window {root_elapsed}",
            span.name,
            span.start_us,
            span.start_us + span.elapsed_us,
        );
    }

    // Both sides logged the trace in their slow-query rings, under the
    // same trace id (the TraceContext hop propagation).
    for node in [&entry, &owner] {
        let dump = roundtrip(node, &request_line(43, Command::Trace { limit: None }));
        let entries = dump[0]
            .result
            .as_ref()
            .expect("trace payload")
            .get("entries")
            .and_then(serde::Value::as_seq)
            .expect("entries list")
            .to_vec();
        assert!(
            entries
                .iter()
                .any(|e| { e.get("id").and_then(serde::Value::as_u64) == Some(tree.id.0) }),
            "node {node} must list trace {:x} in its slow-query ring",
            tree.id.0
        );
    }

    // An untraced request through the same path stays trace-free.
    let plain = roundtrip(&entry, &request_line(44, solve_cmd(seed, 1.9)));
    assert!(plain.last().expect("response").meta.trace.is_none());
}

#[test]
fn a_traced_forward_does_not_hold_a_worker() {
    // The primary owner is a bound listener that never accepts: a forward
    // to it connects, then waits out the read bound before failing over to
    // the live successor. The entry has ONE worker, so a traced forward
    // that held it would make the entry's own solve wait behind it.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind silent owner");
    let silent_addr = silent.local_addr().expect("addr").to_string();
    let addrs = reserve_addrs(2);
    let (entry, live) = (addrs[0].clone(), addrs[1].clone());
    let members = vec![entry.clone(), silent_addr.clone(), live.clone()];
    let peers_of =
        |me: &str| -> Vec<String> { members.iter().filter(|m| *m != me).cloned().collect() };
    let options = RingOptions {
        peer_read: Some(Duration::from_millis(1_500)),
        ..ring_options(2)
    };
    let _live = Server::bind_ring(
        &live,
        fleet_config(&live, 64),
        &peers_of(&live),
        options.clone(),
    )
    .expect("bind live successor");
    let _entry = Server::bind_ring(
        &entry,
        ServiceConfig {
            workers: 1,
            ..fleet_config(&entry, 64)
        },
        &peers_of(&entry),
        options,
    )
    .expect("bind entry");

    let ring = HashRing::new(members.clone(), VNODES);
    let owners = |seed: u64| -> Vec<String> {
        let key = solve_cmd(seed, 1.5).route_key().expect("solve routes");
        ring.owners(key, 2).into_iter().map(str::to_owned).collect()
    };
    let forwarded = (0..500u64)
        .find(|&s| owners(s) == [silent_addr.clone(), live.clone()])
        .expect("some instance is owned by the silent node, then the live one");
    let local = (0..500u64)
        .find(|&s| owners(s)[0] == entry)
        .expect("some instance is owned by the entry");

    let stream = TcpStream::connect(&entry).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    writeln!(w, "{}", traced_request_line(1, solve_cmd(forwarded, 1.5))).expect("send");
    writeln!(w, "{}", request_line(2, solve_cmd(local, 1.5))).expect("send");
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        serde_json::from_str::<Response>(line.trim()).expect("well-formed response")
    };
    let first = next();
    assert_eq!(
        first.id,
        Some(2),
        "the entry's own solve must not wait behind the traced forward"
    );
    assert_eq!(first.status, "ok", "{:?}", first.error);

    let traced = next();
    assert_eq!(traced.id, Some(1));
    assert_eq!(traced.status, "ok", "{:?}", traced.error);
    assert_eq!(
        traced.meta.node.as_deref(),
        Some(live.as_str()),
        "the live successor answers"
    );
    let tree = traced.meta.trace.as_ref().expect("trace requested");
    let roots: Vec<usize> = tree
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(roots, vec![0], "one merged tree");
    let attr = |i: usize, key: &str| -> Option<&str> {
        tree.spans[i]
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let failover = tree
        .spans
        .iter()
        .position(|s| s.name == "peer.failover")
        .expect("the abandoned owner is spanned");
    assert_eq!(attr(failover, "abandoned"), Some(silent_addr.as_str()));
    assert_eq!(tree.spans[failover].parent, Some(0));
    let to_live = (0..tree.spans.len())
        .find(|&i| tree.spans[i].name == "peer.forward" && attr(i, "to") == Some(live.as_str()))
        .expect("a forward span for the successor attempt");
    let owner_root = tree
        .spans
        .iter()
        .position(|s| s.name == "request" && s.parent == Some(to_live as u32))
        .expect("the successor's subtree is grafted under its forward span");
    assert_eq!(attr(owner_root, "node"), Some(live.as_str()));
    drop(silent);
}

#[test]
fn peer_forwards_reuse_one_pooled_connection() {
    // replicas: 1 — no CacheFill pushes, so the owner accepts only the
    // entry's forwarding connections and this test's own metrics probe.
    let (addrs, _servers) = start_fleet_with(2, 64, 1);
    let ring = HashRing::new(addrs.clone(), VNODES);
    let (entry, owner) = (&addrs[0], &addrs[1]);
    let seeds: Vec<u64> = (0..200u64)
        .filter(|&s| {
            let key = solve_cmd(s, 1.5).route_key().expect("solve routes");
            ring.owner(key) == Some(owner.as_str())
        })
        .take(4)
        .collect();
    assert_eq!(seeds.len(), 4, "need four owner-held instances");
    for (i, &seed) in seeds.iter().enumerate() {
        // Traced or not, every forward draws on the same pool.
        let line = if i % 2 == 0 {
            request_line(i as u64, solve_cmd(seed, 1.5))
        } else {
            traced_request_line(i as u64, solve_cmd(seed, 1.5))
        };
        let got = roundtrip(entry, &line);
        assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
        assert_eq!(got[0].meta.node.as_deref(), Some(owner.as_str()));
    }
    let metrics = roundtrip(owner, &request_line(99, Command::Metrics));
    let text = match metrics[0].result.as_ref().expect("metrics text") {
        serde::Value::Str(s) => s.clone(),
        other => panic!("metrics must be text, got {other:?}"),
    };
    assert!(
        text.contains("rpwf_reactor_connections_accepted_total 2\n"),
        "four sequential forwards must share one pooled connection \
         (the second accept is this probe): {text}"
    );
}

#[test]
fn dead_peer_degrades_to_local_solving() {
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 64)).expect("bind single");
    let single_addr = single.local_addr().to_string();
    let (addrs, mut servers) = start_fleet(3, 64);
    let ring = HashRing::new(addrs.clone(), VNODES);

    // Find an instance owned by node 2 as seen from entry node 0.
    let victim = addrs[2].clone();
    let seed = (0..100u64)
        .find(|&s| {
            let key = solve_cmd(s, 1.5).route_key().expect("solve routes");
            ring.owner(key) == Some(victim.as_str())
        })
        .expect("some instance lands on the victim node");
    let line = request_line(7, solve_cmd(seed, 1.5));
    let reference = result_payload(&roundtrip(&single_addr, &line)[0]);

    // Alive: the owner answers through the entry node.
    let before = roundtrip(&addrs[0], &line);
    assert_eq!(before[0].status, "ok");
    assert_eq!(before[0].meta.node.as_deref(), Some(victim.as_str()));
    assert_eq!(result_payload(&before[0]), reference);

    // Kill the owner: drop stops the accept loop and closes the listener.
    let dead = servers.remove(2);
    drop(dead);

    // A survivor answers — the successor replica, or the entry node
    // solving locally — with the same bytes. Only the dead node is out.
    let after = roundtrip(&addrs[0], &line);
    assert_eq!(after[0].status, "ok", "{:?}", after[0].error);
    let responder = after[0].meta.node.clone().expect("node identity");
    assert_ne!(responder, victim, "the dead node cannot have answered");
    assert!(addrs.contains(&responder), "a fleet member answered");
    assert_eq!(
        result_payload(&after[0]),
        reference,
        "degraded answers must stay byte-identical"
    );

    // The failure is visible in the entry's ring introspection.
    let ring_resp = roundtrip(&addrs[0], &request_line(8, Command::Ring));
    let failures: u64 = ring_resp[0]
        .result
        .as_ref()
        .expect("ring payload")
        .get("forwards")
        .and_then(serde::Value::as_seq)
        .expect("forward counters")
        .iter()
        .map(|f| {
            f.get("failures")
                .and_then(serde::Value::as_u64)
                .unwrap_or(0)
        })
        .sum();
    assert!(failures >= 1, "the dead peer must be counted");
}

/// The entry node's circuit-breaker state toward `peer`, read from its
/// `Ring` introspection payload.
fn breaker_state(entry: &str, peer: &str) -> Option<String> {
    let resp = roundtrip(entry, &request_line(9999, Command::Ring));
    resp[0]
        .result
        .as_ref()?
        .get("forwards")?
        .as_seq()?
        .iter()
        .find(|f| f.get("peer").and_then(serde::Value::as_str) == Some(peer))
        .and_then(|f| f.get("breaker_state").and_then(serde::Value::as_str))
        .map(str::to_string)
}

#[test]
fn chaos_kill_one_node_mid_load_keeps_every_answer_identical() {
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 256)).expect("bind single");
    let single_addr = single.local_addr().to_string();
    let (addrs, mut servers) = start_fleet(3, 256);
    let ring = HashRing::new(addrs.clone(), VNODES);

    // Warm the whole keyspace through rotating entry nodes, recording
    // reference bytes from a single-node control.
    let seeds: Vec<u64> = (0..6).collect();
    let mut references = Vec::new();
    let mut keys = Vec::new();
    for &seed in &seeds {
        let cmd = solve_cmd(seed, 1.5);
        keys.push(cmd.route_key().expect("solve routes"));
        let line = request_line(seed, cmd);
        references.push(result_payload(&roundtrip(&single_addr, &line)[0]));
        let got = roundtrip(&addrs[(seed as usize) % 3], &line);
        assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
    }
    // Both copies of every front must be in place before the kill.
    let server_refs: Vec<&Server> = servers.iter().collect();
    await_replication(&server_refs, &keys, 2);

    // Kill one node mid-load.
    let victim = addrs[2].clone();
    let victim_owned = keys
        .iter()
        .filter(|&&k| ring.owner(k) == Some(victim.as_str()))
        .count();
    drop(servers.remove(2));

    // Every answer from either survivor: still ok, still the reference
    // bytes, and — because both copies were warm — never re-solved.
    for (&seed, reference) in seeds.iter().zip(&references) {
        let line = request_line(200 + seed, solve_cmd(seed, 1.5));
        for entry in &addrs[..2] {
            let got = roundtrip(entry, &line);
            assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
            assert_eq!(
                result_payload(&got[0]),
                *reference,
                "seed {seed} via {entry}: answers must survive the kill byte-identically"
            );
            assert!(
                got[0].meta.cache_hit,
                "seed {seed} via {entry}: both copies were warm, nobody may re-solve"
            );
            assert_ne!(got[0].meta.node.as_deref(), Some(victim.as_str()));
        }
    }

    // Keys whose primary died were served through the failover path.
    if victim_owned > 0 {
        let failovers: u64 = addrs[..2]
            .iter()
            .map(|entry| {
                roundtrip(entry, &request_line(300, Command::Ring))[0]
                    .result
                    .as_ref()
                    .expect("ring payload")
                    .get("failovers")
                    .and_then(serde::Value::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        assert!(
            failovers >= 1,
            "{victim_owned} keys lost their primary, so someone must have failed over"
        );
    }
}

#[test]
fn breaker_opens_on_a_dead_peer_and_recloses_after_restart() {
    let (addrs, mut servers) = start_fleet(3, 64);
    let ring = HashRing::new(addrs.clone(), VNODES);
    let entry = addrs[0].clone();
    let victim = addrs[2].clone();
    let seed = (0..100u64)
        .find(|&s| {
            let key = solve_cmd(s, 1.5).route_key().expect("solve routes");
            ring.owner(key) == Some(victim.as_str())
        })
        .expect("some instance lands on the victim node");

    drop(servers.remove(2));

    // Hammer the dead primary until the entry's breaker trips (threshold:
    // 3 consecutive failures) — every answer still succeeds via failover.
    for i in 0..4u64 {
        let got = roundtrip(&entry, &request_line(400 + i, solve_cmd(seed, 1.5)));
        assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
    }
    assert_eq!(
        breaker_state(&entry, &victim).as_deref(),
        Some("open"),
        "three consecutive failures must open the breaker"
    );

    // Revive the node on the same address (the port can linger briefly
    // after the old listener closes).
    let peers: Vec<String> = addrs.iter().filter(|a| **a != victim).cloned().collect();
    let bind_deadline = Instant::now() + Duration::from_secs(10);
    let _revived = loop {
        match Server::bind_ring(
            &victim,
            fleet_config(&victim, 64),
            &peers,
            ring_options(RingOptions::default().replicas),
        ) {
            Ok(server) => break server,
            Err(err) => {
                assert!(
                    Instant::now() < bind_deadline,
                    "could not rebind {victim}: {err}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };

    // The breaker half-opens once its backoff expires, the probe
    // succeeds, and the revived owner answers again.
    let probe_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = roundtrip(&entry, &request_line(500, solve_cmd(seed, 1.5)));
        assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
        if got[0].meta.node.as_deref() == Some(victim.as_str()) {
            break;
        }
        assert!(
            Instant::now() < probe_deadline,
            "breaker never re-admitted the revived peer"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        breaker_state(&entry, &victim).as_deref(),
        Some("closed"),
        "a successful probe must re-close the breaker"
    );
}

#[test]
fn scripted_faults_never_leak_a_wrong_byte() {
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 64)).expect("bind single");
    let single_addr = single.local_addr().to_string();

    let addrs = reserve_addrs(2);
    let (a_addr, b_addr) = (addrs[0].clone(), addrs[1].clone());
    // replicas: 1 — every B-owned request from A must cross the wire, so
    // B's global request counter advances exactly once per forwarded
    // line and the scripted indices stay aligned with the sends below.
    let _a = Server::bind_ring(
        &a_addr,
        fleet_config(&a_addr, 64),
        std::slice::from_ref(&b_addr),
        ring_options(1),
    )
    .expect("bind node a");
    let plan = Arc::new(
        FaultPlan::new(0xBAD5EED)
            .corrupt_line_at(0)
            .drop_connection_at(1)
            .delay_response_at(2, Duration::from_millis(50))
            .kill_node_at(3),
    );
    let _b = Server::bind_ring_faulted(
        &b_addr,
        fleet_config(&b_addr, 64),
        std::slice::from_ref(&a_addr),
        ring_options(1),
        Some(Arc::clone(&plan)),
    )
    .expect("bind node b");

    let ring = HashRing::new(addrs.clone(), VNODES);
    let seeds: Vec<u64> = (0..200u64)
        .filter(|&s| {
            let key = solve_cmd(s, 1.5).route_key().expect("solve routes");
            ring.owner(key) == Some(b_addr.as_str())
        })
        .take(5)
        .collect();
    assert_eq!(seeds.len(), 5, "need five B-owned instances");

    // B's schedule, by forwarded request index: 0 answers garbage,
    // 1 severs the connection, 2 answers late, 3 kills the node,
    // 4 arrives at a corpse.
    for (i, &seed) in seeds.iter().enumerate() {
        let line = request_line(600 + i as u64, solve_cmd(seed, 1.5));
        let reference = result_payload(&roundtrip(&single_addr, &line)[0]);
        let got = roundtrip(&a_addr, &line);
        assert_eq!(got[0].status, "ok", "request {i}: {:?}", got[0].error);
        assert_eq!(
            result_payload(&got[0]),
            reference,
            "request {i}: a scripted fault leaked wrong bytes to the client"
        );
        let responder = got[0].meta.node.clone().expect("node identity");
        if i == 2 {
            assert_eq!(responder, b_addr, "the delayed response still comes from B");
        } else {
            assert_eq!(
                responder, a_addr,
                "request {i} must degrade to a local solve"
            );
        }
    }
    assert!(plan.killed(), "the scripted kill must have fired");

    // A's view of the carnage: one clean forward (the delayed answer),
    // a counted failure for each of corrupt/drop/kill/dead, and no
    // timeouts (every scripted fault here fails fast, not slow).
    let ring_resp = roundtrip(&a_addr, &request_line(700, Command::Ring));
    let forwards = ring_resp[0]
        .result
        .as_ref()
        .expect("ring payload")
        .get("forwards")
        .and_then(serde::Value::as_seq)
        .expect("forward counters")
        .to_vec();
    let peer = &forwards[0];
    assert_eq!(peer.get("forwards").and_then(serde::Value::as_u64), Some(1));
    assert_eq!(peer.get("timeouts").and_then(serde::Value::as_u64), Some(0));
    assert!(
        peer.get("failures")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0)
            >= 3,
        "corrupt, drop, and dead-node forwards must all be counted: {peer:?}"
    );
    // The delayed success at request 2 reset the failure streak, so the
    // threshold of 3 consecutive failures was never reached.
    assert_eq!(
        peer.get("breaker_state").and_then(serde::Value::as_str),
        Some("closed")
    );
}

#[test]
fn concurrent_clients_survive_a_dead_primary_with_identical_answers() {
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 64)).expect("bind single");
    let single_addr = single.local_addr().to_string();
    let (addrs, mut servers) = start_fleet(3, 64);
    let ring = HashRing::new(addrs.clone(), VNODES);

    let victim = addrs[2].clone();
    let seed = (0..100u64)
        .find(|&s| {
            let key = solve_cmd(s, 1.5).route_key().expect("solve routes");
            ring.owner(key) == Some(victim.as_str())
        })
        .expect("some instance lands on the victim node");
    let line = request_line(9, solve_cmd(seed, 1.5));
    let reference = result_payload(&roundtrip(&single_addr, &line)[0]);

    drop(servers.remove(2));

    // Eight clients hammer the dead primary's key through both survivors
    // at once; every one must get the reference bytes back.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let entry = addrs[i % 2].clone();
            let line = line.clone();
            std::thread::spawn(move || {
                let got = roundtrip(&entry, &line);
                assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
                result_payload(&got[0])
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(
            handle.join().expect("client thread"),
            reference,
            "concurrent degraded answers must stay byte-identical"
        );
    }
}

#[test]
fn chunked_pareto_streams_through_the_fleet() {
    // A forwarded chunked Pareto reassembles exactly like a single node's.
    let single = Server::bind("127.0.0.1:0", fleet_config("solo", 64)).expect("bind single");
    let single_addr = single.local_addr().to_string();
    let (addrs, _servers) = start_fleet(3, 64);

    let inst = rpwf_gen::make_instance(
        rpwf_core::platform::PlatformClass::CommHomogeneous,
        rpwf_core::platform::FailureClass::Heterogeneous,
        3,
        6,
        11,
    );
    let cmd = Command::Pareto {
        pipeline: inst.pipeline,
        platform: inst.platform,
        chunk: Some(2),
    };
    let line = request_line(5, cmd);
    let reference = roundtrip(&single_addr, &line);
    for entry in &addrs {
        let got = roundtrip(entry, &line);
        assert_eq!(got.len(), reference.len(), "same number of stream lines");
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.status, r.status);
            assert_eq!(result_payload(g), result_payload(r));
        }
    }
}

/// Kills fleet child processes even when the test panics.
struct ChildGuard(Vec<std::process::Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn multi_process_fleet_over_the_rpwf_binary() {
    let addrs = reserve_addrs(3);
    let mut children = ChildGuard(Vec::new());
    for addr in &addrs {
        let peers: Vec<String> = addrs.iter().filter(|a| *a != addr).cloned().collect();
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_rpwf"))
            .args([
                "serve",
                "--addr",
                addr,
                "--node-id",
                addr,
                "--peers",
                &peers.join(","),
                "--workers",
                "2",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn rpwf serve");
        children.0.push(child);
    }
    // Wait for each node to announce readiness on stdout.
    for child in &mut children.0 {
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("banner");
        assert!(line.contains("listening"), "{line}");
    }
    // Give the deadline a margin: processes just started.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let line = request_line(1, solve_cmd(3, 1.6));
    let mut payloads = Vec::new();
    for entry in &addrs {
        assert!(Instant::now() < deadline, "fleet test overran its budget");
        let got = roundtrip(entry, &line);
        assert_eq!(got[0].status, "ok", "{:?}", got[0].error);
        payloads.push(result_payload(&got[0]));
    }
    assert!(
        payloads.windows(2).all(|w| w[0] == w[1]),
        "all three processes must answer identically"
    );
}
