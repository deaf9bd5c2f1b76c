//! `fleet_mixed`: three in-process ring nodes (default two replicas),
//! open loop through two entry nodes. Most traffic is warm `Solve` reads,
//! about two thirds of them forwarded; a steady share of never-seen
//! instances costs an owner solve plus a `CacheFill` to the successor;
//! chunked `Pareto` relays multi-line answers across nodes; `Explain`
//! runs on infeasible bounds. So the forward state machine, the hop lane
//! and replication writes carry most of the work, with reads beside
//! writes.

use crate::check;
use crate::cold_solves::{bound, solver_deltas};
use crate::load::Slot;
use crate::phase::{self, Timed};
use crate::replay;
use crate::report::Report;
use crate::spans::Tracer;
use crate::util::{median, micros, quantile, repeated_setup, Rng};
use crate::wire::{decode, envelope, parse_response, Counters, WireInstance};
use crate::Args;
use rpwf_algo::engine::{SolveRequest, Want};
use rpwf_algo::{Objective, Provenance};
use rpwf_core::budget::Budget;
use rpwf_core::hash::instance_key;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{FailureClass, PlatformClass};
use rpwf_core::ring::{HashRing, DEFAULT_VNODES};
use rpwf_server::cache::{CachedEntry, CachedFront, SolutionCache};
use rpwf_server::protocol::{ExplainResult, FrontEndResult, FrontPartResult, ParetoResult};
use rpwf_server::{RingOptions, Server, ServiceConfig, ServingOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
/// Entry nodes, one load connection each.
const ENTRIES: usize = 2;
/// Two cores run three nodes: one worker and one event thread each.
const WORKERS: usize = 1;
const EVENT_THREADS: usize = 1;
const STAGES: usize = 6;
const PROCS: usize = 6;
/// Instances warmed at set-up.
const WARM: usize = 12;
/// Smaller instances that `Explain` runs on: explanation relaxes the
/// platform to twice its processors, and the bitmask DP grows as `3^m`.
const EXPLAINED: usize = 3;
const EXPLAINED_STAGES: usize = 5;
const EXPLAINED_PROCS: usize = 4;
const RATE: f64 = 200.0;
const CHUNK: usize = 4;
const WARMUP: Duration = Duration::from_secs(2);
/// Set-up is short here, so it is repeated more often than on
/// `warm_large` for a steady median.
const SETUPS: usize = 7;
const REPLAY_SAMPLE: usize = 48;

struct Fleet {
    servers: Vec<Server>,
    addrs: Vec<String>,
    ring: HashRing,
    instances: Vec<WireInstance>,
    fronts: Vec<ParetoFront<IntervalMapping>>,
    explained: Vec<WireInstance>,
    explained_fronts: Vec<ParetoFront<IntervalMapping>>,
}

#[derive(Clone, Copy)]
enum Kind {
    Warm(usize, Objective),
    Cold(Objective),
    Pareto(usize),
    Explain(usize, Objective),
}

fn instance(seed: u64, k: u64, n: usize, m: usize) -> WireInstance {
    let inst = rpwf_gen::make_instance(
        PlatformClass::CommHomogeneous,
        FailureClass::Heterogeneous,
        n,
        m,
        seed.wrapping_mul(1_000_000_007).wrapping_add(k),
    );
    WireInstance::new(inst.pipeline, inst.platform)
}

/// The never-seen instance of a cold request (ids never repeat).
fn cold_instance(seed: u64, id: u64) -> WireInstance {
    instance(seed, 1_000 + id, STAGES, PROCS)
}

/// The exact front of an instance, from the backend its owner uses.
fn exact_front(engine: &rpwf_algo::Engine, inst: &WireInstance) -> ParetoFront<IntervalMapping> {
    engine
        .front_backend(&inst.pipeline, &inst.platform)
        .expect("comm-homogeneous instances have an exact backend")
        .solve_front(&inst.pipeline, &inst.platform, &Budget::unlimited())
        .into_inner()
}

/// A bound below the front's fastest point: infeasible, and proven so.
fn infeasible(front: &ParetoFront<IntervalMapping>) -> Objective {
    Objective::MinFpUnderLatency(0.5 * front.points()[0].latency)
}

/// Instances from `first` on, kept so that every node owns `per_node` of
/// them and interleaved by owner: a uniformly drawn one is then local to
/// its entry node a third of the time, whatever ports the nodes got.
fn balanced(
    seed: u64,
    first: u64,
    per_node: usize,
    (n, m): (usize, usize),
    ring: &HashRing,
    addrs: &[String],
) -> Vec<WireInstance> {
    let mut owned: Vec<Vec<WireInstance>> = (0..addrs.len()).map(|_| Vec::new()).collect();
    let mut k = first;
    while owned.iter().any(|o| o.len() < per_node) {
        let inst = instance(seed, k, n, m);
        k += 1;
        let node = owner(ring, addrs, &inst);
        if owned[node].len() < per_node {
            owned[node].push(inst);
        }
    }
    let mut out = Vec::new();
    for i in 0..per_node {
        for o in &mut owned {
            out.push(o.swap_remove(per_node - 1 - i));
        }
    }
    out
}

/// Index in `addrs` of the node the ring places an instance on.
fn owner(ring: &HashRing, addrs: &[String], inst: &WireInstance) -> usize {
    let node = ring
        .owner(instance_key(&inst.pipeline, &inst.platform))
        .expect("the ring has members");
    addrs
        .iter()
        .position(|a| a == node)
        .expect("ring members are the nodes")
}

/// The request behind a slot id. Kinds follow a fixed cycle of ten per
/// connection (ids alternate connections): seven warm reads, one cold
/// solve, one chunked `Pareto`, one `Explain`.
fn request_of(seed: u64, id: u64, fleet: &Fleet) -> Kind {
    let fronts = &fleet.fronts;
    let mut rng = Rng::new(seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let cycle = (id / ENTRIES as u64) % 10;
    if cycle < 7 {
        let k = rng.below(WARM);
        let pts = fronts[k].points();
        let (first, last) = (&pts[0], &pts[pts.len() - 1]);
        let t = rng.unit();
        let objective = if rng.below(2) == 0 {
            Objective::MinFpUnderLatency(first.latency + t * (last.latency - first.latency))
        } else {
            Objective::MinLatencyUnderFp(
                last.failure_prob + t * (first.failure_prob - last.failure_prob),
            )
        };
        Kind::Warm(k, objective)
    } else if cycle == 7 {
        Kind::Cold(bound(&mut rng, &cold_instance(seed, id), true))
    } else if cycle == 8 {
        Kind::Pareto(rng.below(WARM))
    } else {
        let k = rng.below(EXPLAINED);
        Kind::Explain(k, infeasible(&fleet.explained_fronts[k]))
    }
}

fn render(seed: u64, id: u64, fleet: &Fleet) -> String {
    let cmd = match request_of(seed, id, fleet) {
        Kind::Warm(k, objective) => fleet.instances[k].solve(objective),
        Kind::Cold(objective) => cold_instance(seed, id).solve(objective),
        Kind::Pareto(k) => fleet.instances[k].pareto(Some(CHUNK)),
        Kind::Explain(k, objective) => fleet.explained[k].explain(objective),
    };
    // No deadline: a forward with one arms a reactor timer that fires
    // seconds later and wakes its event thread, which would mask a lost
    // wake-up at random. The fronts here are exact, so no request needs a
    // deadline to be answered from the cache.
    envelope(id, None, false, &cmd)
}

/// Three ring nodes, the warm instances' fronts built by their owners
/// (`Pareto`) and replicated, the explained instances' relaxation fronts
/// cached by one `Explain` each, and every front's mappings rebuilt
/// in-process with the exact backend the owners used, checked point for
/// point against the served fronts.
fn setup(seed: u64) -> Result<Fleet, String> {
    let reserved: Vec<std::net::TcpListener> = (0..NODES)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve ports: {e}"))?;
    let addrs: Vec<String> = reserved
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve ports: {e}"))?;
    drop(reserved);
    let servers = addrs
        .iter()
        .map(|addr| {
            let peers: Vec<String> = addrs.iter().filter(|a| *a != addr).cloned().collect();
            Server::bind_ring_tuned(
                addr,
                ServiceConfig {
                    workers: WORKERS,
                    node_id: Some(addr.clone()),
                    ..ServiceConfig::default()
                },
                &peers,
                RingOptions::default(),
                ServingOptions {
                    event_threads: EVENT_THREADS,
                    ..ServingOptions::default()
                },
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    let ring = HashRing::new(addrs.iter().cloned(), DEFAULT_VNODES);
    let instances = balanced(seed, 0, WARM / NODES, (STAGES, PROCS), &ring, &addrs);
    // Each request goes straight to its owner's service: through the
    // reactor, a lost wake-up would add a random 250 ms to set-up.
    let on_owner = |inst: &WireInstance, line: &str| {
        let service = servers[owner(&ring, &addrs, inst)].service();
        parse_response(&service.handle_line(line, Instant::now()))
    };
    let engine = servers[0].service().engine();
    let mut fronts = Vec::new();
    for (k, inst) in instances.iter().enumerate() {
        let line = envelope(k as u64, None, false, &inst.pareto(None));
        let served = on_owner(inst, &line)
            .and_then(|r| r.result.as_ref().and_then(decode::<ParetoResult>))
            .ok_or_else(|| format!("instance {k}: Pareto failed"))?;
        let front = exact_front(engine, inst);
        let same = served.complete
            && served.points.len() == front.len()
            && served.points.iter().zip(front.iter()).all(|(s, p)| {
                s.latency == p.latency
                    && s.failure_prob == p.failure_prob
                    && s.mapping_display == p.payload.to_string()
            });
        if !same {
            return Err(format!(
                "instance {k}: served front differs from the backend's"
            ));
        }
        fronts.push(front);
    }
    let explained = balanced(
        seed,
        500,
        EXPLAINED / NODES,
        (EXPLAINED_STAGES, EXPLAINED_PROCS),
        &ring,
        &addrs,
    );
    let explained_fronts: Vec<_> = explained.iter().map(|i| exact_front(engine, i)).collect();
    for (k, (inst, front)) in explained.iter().zip(&explained_fronts).enumerate() {
        let line = envelope(
            100 + k as u64,
            None,
            false,
            &inst.explain(infeasible(front)),
        );
        on_owner(inst, &line)
            .filter(|r| r.status == "ok")
            .ok_or_else(|| format!("explained instance {k}: Explain failed"))?;
    }
    await_replication(&servers, &instances)?;
    Ok(Fleet {
        servers,
        addrs,
        ring,
        instances,
        fronts,
        explained,
        explained_fronts,
    })
}

/// Replica fills are asynchronous: wait until every warm front sits on
/// two nodes.
fn await_replication(servers: &[Server], instances: &[WireInstance]) -> Result<(), String> {
    let keys: Vec<u128> = instances
        .iter()
        .map(|i| instance_key(&i.pipeline, &i.platform))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let cached: Vec<Vec<u128>> = servers
            .iter()
            .map(|s| s.service().front_cache_keys())
            .collect();
        let copies = |key: &u128| cached.iter().filter(|node| node.contains(key)).count();
        if keys.iter().all(|k| copies(k) >= 2) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("replica fills did not land".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let Some(fleet) = repeated_setup(report, SETUPS, || setup(args.seed)) else {
        return;
    };
    let seed = args.seed;
    let render = |slot: &Slot| render(seed, slot.id, &fleet);
    // One connection per node (each node has one event thread); the
    // entry nodes' connections carry the load, the last one only the
    // stall bursts and probe.
    let nodes: Vec<&str> = fleet.addrs.iter().map(String::as_str).collect();
    let mut streams = phase::connect_all(&nodes);
    phase::settle(&mut streams, report);
    let owner_only = streams.split_off(ENTRIES);
    let warmup = phase::schedule(
        (RATE * WARMUP.as_secs_f64()) as usize,
        RATE,
        ENTRIES,
        1 << 32,
    );
    let start = Instant::now();
    let (_, streams) = phase::open_loop(streams, &warmup, start, &render);
    let slots = phase::schedule(
        (RATE * args.seconds as f64) as usize,
        RATE,
        ENTRIES,
        1 << 40,
    );
    let mut timed = phase::timed(&fleet.addrs, streams, &slots, &render);
    timed.check_delivery(report);
    let elapsed = check_answers(report, &timed, &fleet, seed);
    timed.report(report, &elapsed);
    fleet_layers(report, &timed);
    timed.streams.extend(owner_only);
    phase::stall_probe(&mut timed.streams, report);
    report.info("rate_rps", RATE);
    report.info(
        "nodes",
        format!("{NODES} x (workers {WORKERS}, event threads {EVENT_THREADS})"),
    );
    if args.trace {
        traced_replay(args, report, &fleet, &slots);
    }
}

/// Checks every timed answer and reports per-kind latencies and the
/// router layer; returns `meta.elapsed_us` aligned with the results.
fn check_answers(report: &mut Report, timed: &Timed, fleet: &Fleet, seed: u64) -> Vec<f64> {
    let mut elapsed = Vec::with_capacity(timed.results.len());
    let (mut exact, mut solves) = (0usize, 0usize);
    let mut local = Vec::new();
    let mut forwarded = Vec::new();
    let mut explain = Vec::new();
    let mut cold = Vec::new();
    for (slot, outcome) in &timed.results {
        report.attempted += 1;
        let Some(resp) = outcome.lines.last().and_then(|l| parse_response(l)) else {
            elapsed.push(f64::NAN);
            continue;
        };
        elapsed.push(resp.meta.elapsed_us as f64);
        let latency = outcome.latency_us().unwrap_or(f64::NAN);
        let kind = request_of(seed, slot.id, fleet);
        if matches!(kind, Kind::Warm(..) | Kind::Cold(_)) {
            solves += 1;
            if resp.meta.exact_complete == Some(true) {
                exact += 1;
            }
        }
        let cold_inst;
        let inst = match kind {
            Kind::Warm(k, _) | Kind::Pareto(k) => &fleet.instances[k],
            Kind::Explain(k, _) => &fleet.explained[k],
            Kind::Cold(_) => {
                cold_inst = cold_instance(seed, slot.id);
                &cold_inst
            }
        };
        // The owner answers, wherever the request entered.
        let owner = &fleet.addrs[owner(&fleet.ring, &fleet.addrs, inst)];
        let verdict = if resp.meta.node.as_deref() == Some(owner.as_str()) {
            Ok(())
        } else {
            Err(format!("answered by {:?}, owner {owner}", resp.meta.node))
        };
        let verdict = verdict.and_then(|()| match kind {
            Kind::Warm(k, objective) => {
                if *owner == fleet.addrs[slot.conn] {
                    local.push(latency);
                } else {
                    forwarded.push(latency);
                }
                check::feasible_solve(&resp, &inst.pipeline, &inst.platform, objective)
                    .and_then(|r| check::matches_read(&r, &fleet.fronts[k], objective))
            }
            Kind::Cold(objective) => {
                cold.push(latency);
                check::feasible_solve(&resp, &inst.pipeline, &inst.platform, objective).and_then(
                    |_| {
                        (resp.meta.exact_complete == Some(true))
                            .then_some(())
                            .ok_or_else(|| "cold answer without a proof".to_string())
                    },
                )
            }
            Kind::Pareto(k) => check_stream(&outcome.lines, &fleet.fronts[k]),
            Kind::Explain(_, _) => {
                explain.push(latency);
                resp.result
                    .as_ref()
                    .and_then(decode::<ExplainResult>)
                    .filter(|e| !e.feasible && !e.muses.is_empty())
                    .map(|_| ())
                    .ok_or_else(|| "no infeasibility explanation".to_string())
            }
        });
        if let Err(e) = verdict {
            report.fail(format!("request {}: {e}", slot.id));
        }
    }
    report.outcome_shares(exact, solves);
    let warm = (local.len() + forwarded.len()).max(1) as f64;
    report.layer(
        "router.forwarded_share",
        forwarded.len() as f64 / warm,
        "ratio",
        Some(warm as usize),
    );
    report.layer(
        "router.forward_extra_us_p50",
        quantile(&forwarded, 0.5) - quantile(&local, 0.5),
        "us",
        Some(forwarded.len()),
    );
    report.layer(
        "explain.latency_p50_us",
        quantile(&explain, 0.5),
        "us",
        Some(explain.len()),
    );
    report.layer(
        "cold.latency_p50_us",
        quantile(&cold, 0.5),
        "us",
        Some(cold.len()),
    );
    for (name, lat) in [
        ("local", &local),
        ("forwarded", &forwarded),
        ("cold", &cold),
        ("explain", &explain),
    ] {
        report.info(
            &format!("kind.{name}.latency_p50_p99_us"),
            format!(
                "{:.0} {:.0} (n={})",
                quantile(lat, 0.5),
                quantile(lat, 0.99),
                lat.len()
            ),
        );
    }
    elapsed
}

/// A chunked `Pareto`: parts in order reassemble the front, then one
/// closing line with the totals.
fn check_stream(lines: &[String], front: &ParetoFront<IntervalMapping>) -> Result<(), String> {
    let (last, parts) = lines.split_last().ok_or("no lines")?;
    let mut points = Vec::new();
    for (seq, line) in parts.iter().enumerate() {
        let part = parse_response(line)
            .filter(|r| r.status == "part")
            .and_then(|r| r.result.as_ref().and_then(decode::<FrontPartResult>))
            .ok_or("unparsable part")?;
        if part.seq != seq as u64 || part.points.len() > CHUNK {
            return Err("parts out of order or oversized".into());
        }
        points.extend(part.points);
    }
    let end = parse_response(last)
        .and_then(|r| r.result.as_ref().and_then(decode::<FrontEndResult>))
        .ok_or("unparsable closing line")?;
    let same = end.complete
        && end.parts == parts.len() as u64
        && end.points_total == front.len() as u64
        && points.len() == front.len()
        && points.iter().zip(front.iter()).all(|(s, p)| {
            s.latency == p.latency
                && s.failure_prob == p.failure_prob
                && s.mapping_display == p.payload.to_string()
        });
    same.then_some(())
        .ok_or_else(|| "streamed front differs from the set-up front".into())
}

/// Router, peer, replication, explain and solver layers from the
/// counter deltas of every node.
fn fleet_layers(report: &mut Report, timed: &Timed) {
    let delta = |f: &dyn Fn(&Counters) -> f64| -> f64 {
        let a: f64 = timed.after.iter().map(f).sum();
        let b: f64 = timed.before.iter().map(f).sum();
        a - b
    };
    let peers = |c: &Counters, f: &dyn Fn(&rpwf_server::protocol::RingPeerOut) -> u64| -> f64 {
        c.ring
            .as_ref()
            .map_or(0, |r| r.forwards.iter().map(f).sum::<u64>()) as f64
    };
    report.layer(
        "peer.failures",
        delta(&|c| peers(c, &|p| p.failures)),
        "count",
        None,
    );
    report.layer(
        "peer.timeouts",
        delta(&|c| peers(c, &|p| p.timeouts)),
        "count",
        None,
    );
    report.layer(
        "ring.failovers",
        delta(&|c| c.ring.as_ref().map_or(0, |r| r.failovers) as f64),
        "count",
        None,
    );
    report.layer(
        "ring.fallbacks",
        delta(&|c| c.metric("rpwf_ring_fallbacks_total")),
        "count",
        None,
    );
    report.layer(
        "replication.fills",
        delta(&|c| c.command_count("cache_fill") as f64),
        "count",
        None,
    );
    let replica_keys: u64 = timed
        .after
        .iter()
        .filter_map(|c| c.ring.as_ref().map(|r| r.replica_cache_keys))
        .sum();
    report.layer(
        "replication.replica_keys",
        replica_keys as f64,
        "count",
        None,
    );
    let calls = delta(&|c| c.metric("rpwf_explain_calls_total"));
    report.layer(
        "explain.oracle_calls_per_req",
        delta(&|c| c.metric("rpwf_explain_oracle_calls_total")) / calls.max(1.0),
        "count",
        Some(calls as usize),
    );
    solver_deltas(report, &timed.before, &timed.after);
}

/// Replays warm `Solve` lines through each layer on a node holding the
/// front, and times a fresh `Engine::solve` for a sample of the cold
/// share.
fn traced_replay(args: &Args, report: &mut Report, fleet: &Fleet, slots: &[Slot]) {
    let cache = SolutionCache::new(4096, 16);
    let mut holder = std::collections::HashMap::new();
    for (inst, front) in fleet.instances.iter().zip(&fleet.fronts) {
        let key = instance_key(&inst.pipeline, &inst.platform);
        cache.insert(
            key,
            CachedEntry::Front(CachedFront {
                front: Arc::new(front.clone()),
                complete: true,
                solver: Provenance::Exact,
                exact_capable: true,
            }),
        );
        let node = fleet
            .servers
            .iter()
            .position(|s| s.service().front_cache_keys().contains(&key))
            .unwrap_or(0);
        holder.insert(key, node);
    }
    let warm: Vec<(u64, String, usize)> = slots
        .iter()
        .filter_map(|s| match request_of(args.seed, s.id, fleet) {
            Kind::Warm(k, _) => Some((s.id, render(args.seed, s.id, fleet), k)),
            _ => None,
        })
        .take(REPLAY_SAMPLE)
        .collect();
    let lines: Vec<(u64, String)> = warm.iter().map(|(id, l, _)| (*id, l.clone())).collect();
    let node_of: std::collections::HashMap<u64, usize> = warm
        .iter()
        .map(|(id, _, k)| {
            let inst = &fleet.instances[*k];
            (*id, holder[&instance_key(&inst.pipeline, &inst.platform)])
        })
        .collect();
    let tracer = Tracer::new();
    let service_for = |line: &str| {
        let id = crate::load::response_id(line).expect("replayed lines carry ids");
        fleet.servers[node_of[&id]].service().as_ref()
    };
    let responses = replay::warm_solves(&tracer, &lines, &cache, &service_for);
    replay::report_stages(&tracer, report, &lines, &responses);
    let engine = fleet.servers[0].service().engine();
    let mut solve_ms = Vec::new();
    let cold = slots
        .iter()
        .filter_map(|s| match request_of(args.seed, s.id, fleet) {
            Kind::Cold(objective) => Some((s.id, objective)),
            _ => None,
        });
    for (id, objective) in cold.take(12) {
        let inst = cold_instance(args.seed, id);
        let t = Instant::now();
        tracer.span("engine.solve", id, None, || {
            engine.solve(&SolveRequest {
                pipeline: &inst.pipeline,
                platform: &inst.platform,
                want: Want::Point {
                    objective,
                    keep_front: true,
                },
                budget: &Budget::unlimited(),
            })
        });
        solve_ms.push(micros(t.elapsed()) / 1e3);
    }
    report.layer(
        "engine.solve_ms",
        median(&solve_ms),
        "ms",
        Some(solve_ms.len()),
    );
    replay::finish(&tracer, report, "fleet_mixed", args.seed);
}
